//! Heap introspection: summaries, object dumps, and reachability
//! statistics for debugging GC behaviour and writing assertions in
//! tests.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use crate::heap::Heap;
use crate::mix::fnv1a;
use crate::object::ObjKind;
use crate::value::{GcRef, Value};
use crate::verify::ReachSet;

/// Aggregate heap statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HeapSummary {
    /// Live objects.
    pub live: usize,
    /// Free (reusable) slots.
    pub free_slots: usize,
    /// Total live words (headers + payload).
    pub live_words: usize,
    /// Live objects per class tag.
    pub by_class: BTreeMap<u32, usize>,
    /// Total reference edges between live objects.
    pub ref_edges: usize,
}

/// Computes a [`HeapSummary`].
pub fn summarize(heap: &Heap) -> HeapSummary {
    let mut s = HeapSummary {
        free_slots: heap.store.capacity() - heap.store.live_count(),
        ..HeapSummary::default()
    };
    for (_, obj) in heap.store.iter_live() {
        s.live += 1;
        s.live_words += obj.size_words();
        *s.by_class.entry(obj.class_tag).or_default() += 1;
        obj.for_each_ref(|_| s.ref_edges += 1);
    }
    s
}

impl fmt::Display for HeapSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} live objects ({} words, {} ref edges), {} free slots",
            self.live, self.live_words, self.ref_edges, self.free_slots
        )?;
        for (tag, n) in &self.by_class {
            writeln!(f, "  class #{tag}: {n}")?;
        }
        Ok(())
    }
}

fn value_bytes(v: Value) -> [u8; 9] {
    let (tag, payload) = match v {
        Value::Int(i) => (0u8, i as u64),
        Value::Ref(None) => (1, 0),
        Value::Ref(Some(r)) => (2, u64::from(r.0)),
    };
    let mut out = [0u8; 9];
    out[0] = tag;
    out[1..].copy_from_slice(&payload.to_le_bytes());
    out
}

/// FNV-1a digest of the observable world: every live object's slot
/// index, class tag, and payload (in slot order), followed by the
/// statics. Two runs that build identical heaps produce identical
/// digests regardless of which execution engine drove the mutator —
/// the property the engine-equivalence tests pin.
pub fn world_digest(heap: &Heap) -> u64 {
    let mut h = fnv1a(0, (heap.store.live_count() as u64).to_le_bytes());
    for (r, obj) in heap.store.iter_live() {
        h = fnv1a(h, u64::from(r.0).to_le_bytes());
        h = fnv1a(h, u64::from(obj.class_tag).to_le_bytes());
        match &obj.kind {
            ObjKind::Object(fields) => {
                h = fnv1a(h, [0u8]);
                for &v in fields.iter() {
                    h = fnv1a(h, value_bytes(v));
                }
            }
            ObjKind::RefArray(elems) => {
                h = fnv1a(h, [1u8]);
                for &e in elems.iter() {
                    h = fnv1a(h, value_bytes(Value::Ref(e)));
                }
            }
            ObjKind::IntArray(elems) => {
                h = fnv1a(h, [2u8]);
                for &e in elems.iter() {
                    h = fnv1a(h, e.to_le_bytes());
                }
            }
        }
    }
    for i in 0..heap.static_count() {
        if let Ok(v) = heap.get_static(i) {
            h = fnv1a(h, value_bytes(v));
        }
    }
    h
}

/// Reachability statistics from a root set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Objects reachable from the roots.
    pub reachable: usize,
    /// Live objects not reachable (floating garbage).
    pub unreachable: usize,
    /// Longest shortest-path distance from any root (BFS depth).
    pub max_depth: usize,
}

/// BFS over the live object graph from `roots`: the verifier's visited
/// set, filled first-in first-out because depth is reported.
pub fn graph_stats(heap: &Heap, roots: &[GcRef]) -> GraphStats {
    let store = &heap.store;
    let mut seen = ReachSet::for_store(store);
    let mut queue: VecDeque<(GcRef, usize)> = VecDeque::new();
    queue.extend(
        roots
            .iter()
            .copied()
            .filter(|&r| seen.reach(store, r))
            .map(|r| (r, 0)),
    );
    let mut max_depth = 0;
    while let Some((r, d)) = queue.pop_front() {
        max_depth = max_depth.max(d);
        if let Ok(obj) = store.get(r) {
            obj.for_each_ref(|child| {
                if seen.reach(store, child) {
                    queue.push_back((child, d + 1));
                }
            });
        }
    }
    GraphStats {
        reachable: seen.len(),
        unreachable: heap.store.live_count() - seen.len(),
        max_depth,
    }
}

/// Renders one object (shallow).
pub fn dump_object(heap: &Heap, r: GcRef) -> String {
    match heap.store.get(r) {
        Err(_) => format!("{r}: <dangling>"),
        Ok(obj) => {
            let body = match &obj.kind {
                ObjKind::Object(fields) => {
                    let fs: Vec<String> = fields.iter().map(|v| v.to_string()).collect();
                    format!("{{{}}}", fs.join(", "))
                }
                ObjKind::RefArray(elems) => {
                    let es: Vec<String> = elems
                        .iter()
                        .map(|e| e.map(|r| r.to_string()).unwrap_or_else(|| "null".into()))
                        .collect();
                    format!("[{}]", es.join(", "))
                }
                ObjKind::IntArray(elems) => format!("{elems:?}"),
            };
            format!(
                "{r}: class #{} {} ({:?})",
                obj.class_tag,
                body,
                heap.gc.trace_state(&heap.store, r)
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gc::MarkStyle;
    use crate::value::{FieldShape, Value};

    fn setup() -> (Heap, GcRef, GcRef, GcRef) {
        let mut h = Heap::new(MarkStyle::Satb);
        let a = h
            .alloc_object(0, &[FieldShape::Ref, FieldShape::Int])
            .unwrap();
        let b = h.alloc_object(1, &[FieldShape::Ref]).unwrap();
        let arr = h.alloc_ref_array(2, 3).unwrap();
        h.set_field(a, 0, Value::from(b)).unwrap();
        h.set_elem(arr, 0, Some(a)).unwrap();
        (h, a, b, arr)
    }

    #[test]
    fn summary_counts_everything() {
        let (h, ..) = setup();
        let s = summarize(&h);
        assert_eq!(s.live, 3);
        assert_eq!(s.free_slots, 0);
        assert_eq!(s.by_class.len(), 3);
        // a→b and arr[0]→a.
        assert_eq!(s.ref_edges, 2);
        assert!(s.to_string().contains("3 live objects"));
    }

    #[test]
    fn graph_stats_reports_depth_and_garbage() {
        let (h, a, _b, arr) = setup();
        let g = graph_stats(&h, &[arr]);
        assert_eq!(g.reachable, 3); // arr → a → b
        assert_eq!(g.unreachable, 0);
        assert_eq!(g.max_depth, 2);
        let g2 = graph_stats(&h, &[a]);
        assert_eq!(g2.reachable, 2);
        assert_eq!(g2.unreachable, 1, "arr floats");
    }

    #[test]
    fn object_dump_formats() {
        let (h, a, b, arr) = setup();
        let d = dump_object(&h, a);
        assert!(d.contains("class #0"), "{d}");
        assert!(d.contains(&b.to_string()), "{d}");
        let d = dump_object(&h, arr);
        assert!(d.contains("null"), "{d}");
        let mut h2 = h;
        h2.store.remove(b);
        assert!(dump_object(&h2, b).contains("dangling"));
    }
}
