//! Runtime witnesses: per-object dynamic facts that refute (or fail to
//! refute) the static analysis's keep-codes.
//!
//! The elision judgment keeps a barrier when it cannot prove the
//! receiver thread-local (`receiver-may-escape`, `array-may-escape`) or
//! the overwritten field null (`field-may-be-non-null`). Those are
//! *may* facts — conservative static approximations. This side-table
//! records the corresponding *did* fact observed at run time:
//!
//! * **escape**: did this object ever become reachable from a static,
//!   and so from any thread? Two events establish escape: being stored
//!   into a static (globally reachable), or being stored into an
//!   already-escaped object (transitive at store time).
//!
//! A kept site whose receiver *never* escaped across every execution we
//! threw at it carries a refuted `receiver-may-escape`: a perfectly
//! precise analysis could have elided it on these executions. The
//! nullness witness needs no table — the interpreter's per-site
//! `pre_null` counter already records every observed-null overwrite.
//!
//! Escape here is deliberately *not* retroactive: an object that
//! escapes at time T is not back-dated as escaped for stores before T,
//! because the barrier decision at a store only needs the facts in
//! force at that store. Nor is it transitively closed over the existing
//! points-to graph at escape time (only values stored *into* an escaped
//! object afterwards escape); this under-approximates escapement, which
//! is the safe direction for an upper-bound instrument — it can only
//! make the oracle report *less* refutation headroom, never more.
//!
//! The table is updated inside the shared raw heap writes
//! ([`crate::Heap::set_field`] / `set_elem` / `set_static`) and the
//! allocator, which both execution engines funnel through, so the
//! witness stream — and everything derived from it — is byte-identical
//! across engines by construction.

use crate::value::GcRef;

/// The runtime witness side-table. Install with
/// [`crate::Heap::enable_witnesses`]; absent (the default), every hook
/// is a single `Option` check.
#[derive(Clone, Debug, Default)]
pub struct WitnessTable {
    /// Whether each slot's current occupant has escaped, indexed by
    /// `GcRef` slot index; `None` for a slot allocated before the table
    /// was installed. Reset on every allocation into the slot, since
    /// slots are reused after a sweep.
    escaped: Vec<Option<bool>>,
    /// Allocations witnessed.
    allocations: u64,
    /// Escape events (distinct objects, not stores).
    escapes: u64,
}

impl WitnessTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        WitnessTable::default()
    }

    /// Records an allocation: the slot's previous occupant (if any) is
    /// forgotten and the new object starts thread-local.
    pub fn note_alloc(&mut self, r: GcRef) {
        let i = r.index();
        if i >= self.escaped.len() {
            self.escaped.resize(i + 1, None);
        }
        self.escaped[i] = Some(false);
        self.allocations += 1;
    }

    /// Records a reference store `receiver.slot = value`: a value
    /// stored into an escaped receiver escapes with it.
    pub fn note_ref_store(&mut self, receiver: GcRef, value: Option<GcRef>) {
        if self.is_escaped(receiver) {
            if let Some(v) = value {
                self.escape(v);
            }
        }
    }

    /// Records a static store: the stored value becomes globally
    /// reachable, the strongest form of escape.
    pub fn note_static_store(&mut self, value: Option<GcRef>) {
        if let Some(v) = value {
            self.escape(v);
        }
    }

    /// Whether `r`'s current occupant has escaped.
    pub fn is_escaped(&self, r: GcRef) -> bool {
        self.escaped.get(r.index()) == Some(&Some(true))
    }

    /// Number of distinct objects that ever escaped.
    pub fn escaped_objects(&self) -> u64 {
        self.escapes
    }

    /// Number of objects the table has witnessed allocations for.
    pub fn allocated_objects(&self) -> u64 {
        self.allocations
    }

    fn escape(&mut self, r: GcRef) {
        if let Some(slot @ Some(false)) = self.escaped.get_mut(r.index()) {
            *slot = Some(true);
            self.escapes += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::gc::MarkStyle;
    use crate::heap::Heap;
    use crate::value::{FieldShape, Value};

    fn heap() -> Heap {
        let mut h = Heap::new(MarkStyle::Satb);
        h.enable_witnesses();
        h.register_statics(&[FieldShape::Ref]);
        h
    }

    #[test]
    fn objects_start_thread_local() {
        let mut h = heap();
        let a = h.alloc_object(3, &[FieldShape::Ref]).unwrap();
        let w = h.witness.as_ref().unwrap();
        assert!(!w.is_escaped(a));
        assert_eq!(w.allocated_objects(), 1);
        assert_eq!(w.escaped_objects(), 0);
    }

    #[test]
    fn static_store_escapes_the_value() {
        let mut h = heap();
        let a = h.alloc_object(0, &[FieldShape::Ref]).unwrap();
        h.set_static(0, Value::from(a)).unwrap();
        assert!(h.witness.as_ref().unwrap().is_escaped(a));
        assert_eq!(h.witness.as_ref().unwrap().escaped_objects(), 1);
    }

    #[test]
    fn store_into_escaped_object_escapes_transitively_at_store_time() {
        let mut h = heap();
        let a = h.alloc_object(0, &[FieldShape::Ref]).unwrap();
        let b = h.alloc_object(0, &[FieldShape::Ref]).unwrap();
        let c = h.alloc_object(0, &[FieldShape::Ref]).unwrap();
        // b stored into thread-local a: no escape.
        h.set_field(a, 0, Value::from(b)).unwrap();
        assert!(!h.witness.as_ref().unwrap().is_escaped(b));
        // a escapes via a static; b is NOT back-dated (non-retroactive).
        h.set_static(0, Value::from(a)).unwrap();
        assert!(!h.witness.as_ref().unwrap().is_escaped(b));
        // But a store into the now-escaped a escapes the value.
        h.set_field(a, 0, Value::from(c)).unwrap();
        assert!(h.witness.as_ref().unwrap().is_escaped(c));
    }

    #[test]
    fn int_stores_and_disabled_table_are_inert() {
        let mut h = Heap::new(MarkStyle::Satb);
        // No table installed: nothing to witness.
        let a = h.alloc_object(0, &[FieldShape::Int]).unwrap();
        h.set_field(a, 0, Value::Int(7)).unwrap();
        assert!(h.witness.is_none());

        let mut h = heap();
        let a = h.alloc_object(0, &[FieldShape::Int]).unwrap();
        // Int stores carry no reference and are not witnessed at all.
        h.set_field(a, 0, Value::Int(7)).unwrap();
        assert!(!h.witness.as_ref().unwrap().is_escaped(a));
    }

    #[test]
    fn slot_reuse_resets_the_witness() {
        let mut h = heap();
        let a = h.alloc_object(0, &[FieldShape::Ref]).unwrap();
        h.set_static(0, Value::from(a)).unwrap();
        assert!(h.witness.as_ref().unwrap().is_escaped(a));
        h.set_static(0, Value::NULL).unwrap();
        h.store.remove(a);
        let b = h.alloc_object(1, &[FieldShape::Ref]).unwrap();
        assert_eq!(a, b, "slot is reused");
        assert!(
            !h.witness.as_ref().unwrap().is_escaped(b),
            "the new occupant starts thread-local"
        );
    }
}
