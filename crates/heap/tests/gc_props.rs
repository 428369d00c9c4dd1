//! Property tests on the collectors: under arbitrary mutation traces
//! with correct barriers, SATB preserves its snapshot and neither
//! collector ever frees a reachable object.

use proptest::prelude::*;

use wbe_heap::gc::MarkStyle;
use wbe_heap::{FieldShape, GcRef, Heap, Value};

const POOL: usize = 6;
const FIELDS: usize = 2;

/// One mutation step over a pool of root-reachable slots.
#[derive(Clone, Debug)]
enum Op {
    /// Allocate into pool slot `dst`.
    Alloc { dst: usize },
    /// `pool[a].f = pool[b]` with the style-appropriate barrier.
    Link { a: usize, f: usize, b: usize },
    /// `pool[a].f = null` with the barrier.
    Unlink { a: usize, f: usize },
    /// Drop the pool's reference (object may become garbage).
    Forget { dst: usize },
    /// Give the collector a slice of work.
    MarkStep { budget: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let s = 0..POOL;
    let f = 0..FIELDS;
    prop_oneof![
        s.clone().prop_map(|dst| Op::Alloc { dst }),
        (s.clone(), f.clone(), s.clone()).prop_map(|(a, f, b)| Op::Link { a, f, b }),
        (s.clone(), f).prop_map(|(a, f)| Op::Unlink { a, f }),
        s.prop_map(|dst| Op::Forget { dst }),
        (1u8..6).prop_map(|budget| Op::MarkStep { budget }),
    ]
}

/// Computes the concretely reachable set from the pool.
fn reachable(heap: &Heap, pool: &[Option<GcRef>]) -> std::collections::BTreeSet<GcRef> {
    let mut seen = std::collections::BTreeSet::new();
    let mut work: Vec<GcRef> = pool.iter().flatten().copied().collect();
    while let Some(r) = work.pop() {
        if !seen.insert(r) {
            continue;
        }
        if let Ok(obj) = heap.store.get(r) {
            obj.for_each_ref(|child| work.push(child));
        }
    }
    seen
}

fn run_trace(style: MarkStyle, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut heap = Heap::new(style);
    let mut pool: Vec<Option<GcRef>> = vec![None; POOL];
    // Start a few objects and begin marking immediately so the barriers
    // matter from the first mutation.
    for slot in pool.iter_mut().take(3) {
        *slot = Some(heap.alloc_object(0, &[FieldShape::Ref; FIELDS]).unwrap());
    }
    // Snapshot (for SATB): everything reachable at begin_marking.
    let roots: Vec<GcRef> = pool.iter().flatten().copied().collect();
    let snapshot = reachable(&heap, &pool);
    heap.gc.begin_marking(&mut heap.store, &roots);

    for op in ops {
        match *op {
            Op::Alloc { dst } => {
                pool[dst] = Some(heap.alloc_object(0, &[FieldShape::Ref; FIELDS]).unwrap());
            }
            Op::Link { a, f, b } => {
                let (Some(ra), vb) = (pool[a], pool[b]) else {
                    continue;
                };
                let old = heap.get_field(ra, f).unwrap();
                match style {
                    MarkStyle::Satb => {
                        if let Value::Ref(Some(o)) = old {
                            heap.gc.satb_log(o);
                        }
                    }
                    MarkStyle::IncrementalUpdate => heap.gc.dirty(ra),
                }
                heap.set_field(ra, f, Value::Ref(vb)).unwrap();
            }
            Op::Unlink { a, f } => {
                let Some(ra) = pool[a] else { continue };
                let old = heap.get_field(ra, f).unwrap();
                match style {
                    MarkStyle::Satb => {
                        if let Value::Ref(Some(o)) = old {
                            heap.gc.satb_log(o);
                        }
                    }
                    MarkStyle::IncrementalUpdate => heap.gc.dirty(ra),
                }
                heap.set_field(ra, f, Value::NULL).unwrap();
            }
            Op::Forget { dst } => {
                pool[dst] = None;
            }
            Op::MarkStep { budget } => {
                let _ = heap.gc.mark_step(&mut heap.store, budget as usize);
            }
        }
    }

    let final_roots: Vec<GcRef> = pool.iter().flatten().copied().collect();
    let live_now = reachable(&heap, &pool);
    heap.gc.remark(&mut heap.store, &final_roots);

    // Everything reachable right now must be marked (never collected),
    // for both styles.
    for r in &live_now {
        prop_assert!(
            heap.gc.is_marked(*r),
            "live object {r} unmarked under {style:?}"
        );
    }
    // SATB additionally preserves its snapshot: every object reachable
    // at begin_marking stays marked even if since unlinked.
    if style == MarkStyle::Satb {
        for r in &snapshot {
            prop_assert!(heap.gc.is_marked(*r), "snapshot object {r} lost");
        }
    }
    // Sweeping must leave every currently-reachable object alive.
    heap.sweep();
    for r in &live_now {
        prop_assert!(heap.store.is_live(*r), "sweep freed live object {r}");
    }
    Ok(())
}

proptest! {
    #[test]
    fn satb_preserves_snapshot_and_liveness(
        ops in proptest::collection::vec(op_strategy(), 0..60),
    ) {
        run_trace(MarkStyle::Satb, &ops)?;
    }

    #[test]
    fn incremental_update_preserves_liveness(
        ops in proptest::collection::vec(op_strategy(), 0..60),
    ) {
        run_trace(MarkStyle::IncrementalUpdate, &ops)?;
    }
}
