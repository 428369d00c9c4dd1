//! Heap object representation.

use std::collections::TryReserveError;
use std::fmt;
use std::ops::{Deref, DerefMut};

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

/// Fields an [`ObjKind::Object`] holds in its slot. The capacities are
/// measured, not guessed (EXPERIMENTS.md, "The object layout's cost"):
/// 2/4/4 is the most a 56-byte slot holds, and 3/6/6 (72 bytes) keeps
/// no more of any workload's objects inline — the suite's objects have
/// one, two or at least five fields — while costing `collector-cycle`
/// and `serve-open-loop` memory, and the former set-up time.
pub const INLINE_FIELDS: usize = 2;
/// Elements an [`ObjKind::RefArray`] holds in its slot.
pub const INLINE_REFS: usize = 4;
/// Elements an [`ObjKind::IntArray`] holds in its slot.
pub const INLINE_INTS: usize = 4;

/// A fixed-length payload: up to `CAP` elements live in the value itself
/// (so in the object's [`crate::Store`] slot, with no allocation and no
/// second cache miss to reach them), longer ones in one boxed slice. It
/// is a slice to its users — everything goes through `Deref` — and
/// compares and prints as one whichever representation holds it, because
/// heap dumps and digests must not see the difference.
#[derive(Clone)]
pub struct Payload<T, const CAP: usize>(Repr<T, CAP>);

#[derive(Clone)]
enum Repr<T, const CAP: usize> {
    /// `items[..len]` are the elements; the rest is padding.
    Inline {
        len: u8,
        items: [T; CAP],
    },
    Spilled(Box<[T]>),
}

impl<T: Copy, const CAP: usize> Payload<T, CAP> {
    fn inline(len: usize, items: [T; CAP]) -> Self {
        const { assert!(CAP <= u8::MAX as usize, "the inline length is a u8") };
        debug_assert!(len <= CAP);
        Payload(Repr::Inline {
            len: len as u8,
            items,
        })
    }

    /// `n` copies of `v`.
    ///
    /// # Errors
    ///
    /// The allocator's refusal when `n` exceeds `CAP` and the boxed
    /// slice cannot be reserved (an array length from the program can be
    /// anything up to `i64::MAX`).
    pub fn filled(v: T, n: usize) -> Result<Self, TryReserveError> {
        if n <= CAP {
            return Ok(Self::inline(n, [v; CAP]));
        }
        let mut items = Vec::new();
        items.try_reserve_exact(n)?;
        items.resize(n, v);
        Ok(Payload(Repr::Spilled(items.into_boxed_slice())))
    }
}

impl<T: Copy + Default, const CAP: usize> FromIterator<T> for Payload<T, CAP> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        // Known to spill (an object's field shapes are a slice): one
        // straight copy. Measured: the general path below costs a
        // spilled `alloc_object` twice what the `Vec` it replaced did.
        if iter.size_hint().0 > CAP {
            return Payload(Repr::Spilled(iter.collect()));
        }
        let mut items = [T::default(); CAP];
        let mut len = 0;
        for v in iter.by_ref().take(CAP) {
            items[len] = v;
            len += 1;
        }
        match iter.next() {
            None => Self::inline(len, items),
            Some(next) => Payload(Repr::Spilled(
                items.into_iter().chain([next]).chain(iter).collect(),
            )),
        }
    }
}

impl<T, const CAP: usize> Deref for Payload<T, CAP> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..*len as usize],
            Repr::Spilled(items) => items,
        }
    }
}

impl<T, const CAP: usize> DerefMut for Payload<T, CAP> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, items } => &mut items[..*len as usize],
            Repr::Spilled(items) => items,
        }
    }
}

impl<T: PartialEq, const CAP: usize> PartialEq for Payload<T, CAP> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq, const CAP: usize> Eq for Payload<T, CAP> {}

impl<T: fmt::Debug, const CAP: usize> fmt::Debug for Payload<T, CAP> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Payload of a heap object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObjKind {
    /// A class instance: one slot per declared field.
    Object(Payload<Value, INLINE_FIELDS>),
    /// An array of nullable references.
    RefArray(Payload<Option<GcRef>, INLINE_REFS>),
    /// An array of integers.
    IntArray(Payload<i64, INLINE_INTS>),
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

    /// Calls `f` on each outgoing reference of this object (the slots
    /// the garbage collector must trace), in slot order. The one way
    /// to walk the object graph: collector, verifier and heap summaries
    /// all see children in this order.
    #[inline(always)]
    pub fn for_each_ref(&self, mut f: impl FnMut(GcRef)) {
        match &self.kind {
            ObjKind::Object(fields) => {
                for v in fields.iter() {
                    if let Value::Ref(Some(r)) = v {
                        f(*r);
                    }
                }
            }
            ObjKind::RefArray(elems) => {
                for r in elems.iter().flatten() {
                    f(*r);
                }
            }
            ObjKind::IntArray(_) => {}
        }
    }

    /// Where a spilled reference payload lives, for the marker's prefetch.
    pub(crate) fn spilled_refs(&self) -> Option<*const i8> {
        match &self.kind {
            ObjKind::Object(Payload(Repr::Spilled(fields))) => Some(fields.as_ptr().cast()),
            ObjKind::RefArray(Payload(Repr::Spilled(elems))) => Some(elems.as_ptr().cast()),
            _ => None,
        }
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

    fn refs_of(o: &HeapObject) -> Vec<GcRef> {
        let mut out = Vec::new();
        o.for_each_ref(|r| out.push(r));
        out
    }

    #[test]
    fn outgoing_refs_of_object() {
        let o = HeapObject {
            class_tag: 0,
            kind: ObjKind::Object(
                [Value::Int(3), Value::Ref(Some(GcRef(7))), Value::NULL]
                    .into_iter()
                    .collect(),
            ),
        };
        assert_eq!(refs_of(&o), vec![GcRef(7)]);
        assert_eq!(o.len(), 3);
        assert_eq!(o.size_words(), 5);
    }

    #[test]
    fn outgoing_refs_of_ref_array() {
        let o = HeapObject {
            class_tag: 1,
            kind: ObjKind::RefArray([None, Some(GcRef(2)), Some(GcRef(4))].into_iter().collect()),
        };
        assert_eq!(refs_of(&o), vec![GcRef(2), GcRef(4)]);
    }

    #[test]
    fn int_arrays_have_no_outgoing_refs() {
        let o = HeapObject {
            class_tag: HeapObject::INT_ARRAY_TAG,
            kind: ObjKind::IntArray([1, 2, 3].into_iter().collect()),
        };
        assert_eq!(refs_of(&o), vec![]);
        assert!(!o.is_empty());
    }

    #[test]
    fn slot_is_56_bytes() {
        assert_eq!(
            std::mem::size_of::<Option<HeapObject>>(),
            56,
            "a `Store` slot is 32 bytes of inline payload (2 `Value`s, 4 \
             refs or 4 ints), the inline length and three tags rounded \
             to 48, and the class tag. The sweep, the verifier's walks \
             and every growth of the slot vector touch all of it, and \
             72 bytes measured larger on `collector-cycle` and \
             `serve-open-loop`, and slower to set up on the former, \
             without keeping one more object inline (EXPERIMENTS.md, \
             \"The object layout's cost\"): a field added to \
             `HeapObject` or a larger inline capacity is a decision to \
             measure there before changing this number"
        );
    }
}
