//! Heap introspection: the world digest and object dumps, for
//! debugging GC behaviour and writing assertions in tests.

use crate::heap::Heap;
use crate::mix::fnv1a;
use crate::object::ObjKind;
use crate::value::{GcRef, Value};

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
