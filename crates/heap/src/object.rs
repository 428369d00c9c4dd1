//! Heap object representation.

use crate::value::{GcRef, Value};

/// Tracing state of an object array, for the §4.3 optimistic
/// array-rearrangement protocol: the concurrent marker records whether it
/// has started/finished scanning the array, and rearrangement loops whose
/// barriers were elided consult the state to detect interference. Read
/// it with [`crate::gc::GcState::trace_state`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TraceState {
    /// The marker has not reached this array in the current cycle.
    #[default]
    Untraced,
    /// The marker is currently scanning this array.
    Tracing,
    /// The marker finished scanning this array in the current cycle.
    Traced,
}

/// Payload of a heap object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObjKind {
    /// A class instance: one slot per declared field.
    Object(Vec<Value>),
    /// An array of nullable references.
    RefArray(Vec<Option<GcRef>>),
    /// An array of integers.
    IntArray(Vec<i64>),
}

/// A heap object: a class/array tag and the payload. Collector state
/// (mark bit, §4.3 tracing state) is kept per slot by
/// [`crate::gc::GcState`], not here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeapObject {
    /// Class id for instances, element-class id for reference arrays,
    /// [`HeapObject::INT_ARRAY_TAG`] for int arrays. The heap never
    /// interprets the tag; the interpreter uses it for dynamic checks.
    pub class_tag: u32,
    /// Payload.
    pub kind: ObjKind,
}

impl HeapObject {
    /// Tag used for int arrays.
    pub const INT_ARRAY_TAG: u32 = u32::MAX;

    /// Number of payload slots (fields or elements).
    pub fn len(&self) -> usize {
        match &self.kind {
            ObjKind::Object(fields) => fields.len(),
            ObjKind::RefArray(elems) => elems.len(),
            ObjKind::IntArray(elems) => elems.len(),
        }
    }

    /// True if the payload has no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over the outgoing references of this object (the slots
    /// the garbage collector must trace).
    pub fn outgoing_refs(&self) -> impl Iterator<Item = GcRef> + '_ {
        let (fields, elems): (&[Value], &[Option<GcRef>]) = match &self.kind {
            ObjKind::Object(fields) => (fields.as_slice(), &[]),
            ObjKind::RefArray(elems) => (&[], elems.as_slice()),
            ObjKind::IntArray(_) => (&[], &[]),
        };
        fields
            .iter()
            .filter_map(|v| match v {
                Value::Ref(Some(r)) => Some(*r),
                _ => None,
            })
            .chain(elems.iter().filter_map(|e| *e))
    }

    /// Abstract size in "words" used by heap statistics and the pause
    /// model: header (2) plus one word per slot.
    pub fn size_words(&self) -> usize {
        2 + self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outgoing_refs_of_object() {
        let o = HeapObject {
            class_tag: 0,
            kind: ObjKind::Object(vec![Value::Int(3), Value::Ref(Some(GcRef(7))), Value::NULL]),
        };
        assert_eq!(o.outgoing_refs().collect::<Vec<_>>(), vec![GcRef(7)]);
        assert_eq!(o.len(), 3);
        assert_eq!(o.size_words(), 5);
    }

    #[test]
    fn outgoing_refs_of_ref_array() {
        let o = HeapObject {
            class_tag: 1,
            kind: ObjKind::RefArray(vec![None, Some(GcRef(2)), Some(GcRef(4))]),
        };
        assert_eq!(
            o.outgoing_refs().collect::<Vec<_>>(),
            vec![GcRef(2), GcRef(4)]
        );
    }

    #[test]
    fn int_arrays_have_no_outgoing_refs() {
        let o = HeapObject {
            class_tag: HeapObject::INT_ARRAY_TAG,
            kind: ObjKind::IntArray(vec![1, 2, 3]),
        };
        assert_eq!(o.outgoing_refs().count(), 0);
        assert!(!o.is_empty());
    }
}
