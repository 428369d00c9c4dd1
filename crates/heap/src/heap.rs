//! The heap proper: slot store, zeroing allocator, statics, accessors.

use std::fmt;

use crate::fault::{FaultPlan, DRAIN_BOOST_FACTOR};
use crate::gc::{GcState, MarkStyle};
use crate::object::{HeapObject, ObjKind, Payload};
use crate::value::{FieldShape, GcRef, Value};
use crate::witness::WitnessTable;

/// Errors from heap accessors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeapError {
    /// The reference does not denote a live object (freed or never
    /// allocated).
    DanglingRef(GcRef),
    /// An object access used the wrong payload kind (e.g. field access on
    /// an array).
    WrongKind(GcRef),
    /// Field offset out of range for the object.
    FieldOutOfRange {
        /// Receiver.
        obj: GcRef,
        /// Offset requested.
        offset: usize,
    },
    /// Array index out of bounds (this is the trap the paper's §3.6
    /// overflow argument relies on).
    IndexOutOfBounds {
        /// Receiver.
        arr: GcRef,
        /// Index requested.
        index: i64,
        /// Array length.
        len: usize,
    },
    /// Static id out of range.
    StaticOutOfRange(usize),
    /// Negative array length at allocation.
    NegativeArrayLength(i64),
    /// Allocation failed (injected by a [`FaultPlan`] or genuine
    /// exhaustion). Recoverable: collecting may free space, so drivers
    /// retry after an emergency pause.
    AllocationFailed,
    /// A scheduled world's configuration is out of range: more threads
    /// than the runnable mask holds, or an empty table its mutators
    /// index modulo its length.
    BadWorld(&'static str),
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::DanglingRef(r) => write!(f, "dangling reference {r}"),
            HeapError::WrongKind(r) => write!(f, "wrong object kind for access at {r}"),
            HeapError::FieldOutOfRange { obj, offset } => {
                write!(f, "field offset {offset} out of range on {obj}")
            }
            HeapError::IndexOutOfBounds { arr, index, len } => {
                write!(f, "array index {index} out of bounds (len {len}) on {arr}")
            }
            HeapError::StaticOutOfRange(i) => write!(f, "static {i} out of range"),
            HeapError::NegativeArrayLength(n) => write!(f, "negative array length {n}"),
            HeapError::AllocationFailed => write!(f, "allocation failed"),
            HeapError::BadWorld(why) => write!(f, "bad world configuration: {why}"),
        }
    }
}

impl std::error::Error for HeapError {}

/// The slot store: object storage decoupled from GC state so the marker
/// can walk objects while the mutator-facing [`Heap`] API is borrowed.
#[derive(Debug, Default)]
pub struct Store {
    slots: Vec<Option<HeapObject>>,
    free: Vec<u32>,
}

impl Store {
    /// Number of slots ever allocated (live + free).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of live objects.
    pub fn live_count(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Returns the object at `r`.
    ///
    /// # Errors
    ///
    /// [`HeapError::DanglingRef`] if `r` is not live.
    pub fn get(&self, r: GcRef) -> Result<&HeapObject, HeapError> {
        self.slot(r).ok_or(HeapError::DanglingRef(r))
    }

    /// The object at `r`, or `None` if `r` is not live.
    #[inline]
    pub(crate) fn slot(&self, r: GcRef) -> Option<&HeapObject> {
        self.slots.get(r.index()).and_then(Option::as_ref)
    }

    /// Prefetches `r`'s slot or, with `payload`, the spilled reference
    /// payload of the object in it, and returns the address hinted: none
    /// for `r` out of range, nor for the payload of a free slot, an inline
    /// payload or an int array. A hint reads nothing: a stale ref is free.
    #[inline(always)]
    pub(crate) fn prefetch(&self, r: GcRef, payload: bool) -> Option<*const i8> {
        let slot = self.slots.get(r.index())?;
        let line = match payload {
            true => slot.as_ref()?.spilled_refs()?,
            false => std::ptr::from_ref(slot).cast(),
        };
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `prefetcht0` accesses no memory, so it cannot fault or
        // be observed whatever `line` is; SSE is in the x86_64 baseline.
        unsafe {
            std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(line);
        }
        Some(line)
    }

    /// Returns the object at `r` mutably.
    ///
    /// # Errors
    ///
    /// [`HeapError::DanglingRef`] if `r` is not live.
    pub fn get_mut(&mut self, r: GcRef) -> Result<&mut HeapObject, HeapError> {
        self.slots
            .get_mut(r.index())
            .and_then(|s| s.as_mut())
            .ok_or(HeapError::DanglingRef(r))
    }

    /// Installs `obj` in a free slot (or a new one) and returns its ref.
    pub fn insert(&mut self, obj: HeapObject) -> GcRef {
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Some(obj);
            GcRef(idx)
        } else {
            let idx = u32::try_from(self.slots.len()).expect("heap slot overflow");
            self.slots.push(Some(obj));
            GcRef(idx)
        }
    }

    /// Frees the slot at `r`. Idempotent on already-free slots.
    pub fn remove(&mut self, r: GcRef) {
        if let Some(slot) = self.slots.get_mut(r.index()) {
            if slot.take().is_some() {
                self.free.push(r.0);
            }
        }
    }

    /// True if `r` denotes a live object.
    pub fn is_live(&self, r: GcRef) -> bool {
        self.slots.get(r.index()).is_some_and(|s| s.is_some())
    }

    /// Frees, in ascending slot order (later allocations depend on it),
    /// every live slot whose bit in `marked` is clear: bit `i % 64` of
    /// word `i / 64` is slot `i`, slots past the last word are unmarked.
    /// Returns the number freed.
    pub(crate) fn sweep(&mut self, marked: &[u64]) -> usize {
        let before = self.free.len();
        for (w, chunk) in self.slots.chunks_mut(64).enumerate() {
            let mut unmarked = !marked.get(w).copied().unwrap_or(0);
            while unmarked != 0 {
                let bit = unmarked.trailing_zeros() as usize;
                unmarked &= unmarked - 1;
                // (`get_mut`: the last chunk may be shorter than a word.)
                if chunk.get_mut(bit).and_then(Option::take).is_some() {
                    self.free.push((w * 64 + bit) as u32);
                }
            }
        }
        self.free.len() - before
    }

    /// Iterates over live `(GcRef, &HeapObject)` pairs.
    pub fn iter_live(&self) -> impl Iterator<Item = (GcRef, &HeapObject)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|o| (GcRef(i as u32), o)))
    }
}

/// Allocation statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Objects allocated.
    pub allocations: u64,
    /// Total words allocated (header + slots).
    pub words_allocated: u64,
    /// Objects freed by sweeps.
    pub frees: u64,
}

/// The managed heap: slot store, GC state, statics, statistics.
///
/// All allocation goes through the zeroing allocator: new objects have
/// null reference fields/elements and zero integers, which is what makes
/// initializing stores pre-null.
#[derive(Debug)]
pub struct Heap {
    /// Object storage.
    pub store: Store,
    /// Collector state (style, phase, bit sets, grey stack, SATB log).
    pub gc: GcState,
    /// Static (global) variables.
    statics: Vec<Value>,
    /// Allocation statistics.
    pub stats: HeapStats,
    /// Optional deterministic fault schedule. When present, allocations
    /// consult it and may fail with [`HeapError::AllocationFailed`].
    pub fault: Option<FaultPlan>,
    /// Optional runtime witness side-table (see [`crate::witness`]).
    /// When present, allocations and reference stores record escape
    /// facts; absent (the default), every hook is a
    /// single `Option` check.
    pub witness: Option<WitnessTable>,
}

impl Heap {
    /// Creates an empty heap with the given marker style.
    pub fn new(style: MarkStyle) -> Self {
        Heap {
            store: Store::default(),
            gc: GcState::new(style),
            statics: Vec::new(),
            stats: HeapStats::default(),
            fault: None,
            witness: None,
        }
    }

    /// Installs an empty [`WitnessTable`]; subsequent allocations and
    /// reference stores are witnessed. Idempotent — an existing table
    /// (and its accumulated facts) is kept.
    pub fn enable_witnesses(&mut self) {
        if self.witness.is_none() {
            self.witness = Some(WitnessTable::new());
        }
    }

    /// Declares the static variables; statics start zeroed/null.
    pub fn register_statics(&mut self, shapes: &[FieldShape]) {
        self.statics = shapes.iter().map(|s| s.zero_value()).collect();
    }

    /// Number of registered statics.
    pub fn static_count(&self) -> usize {
        self.statics.len()
    }

    /// Reads static `i`.
    ///
    /// # Errors
    ///
    /// [`HeapError::StaticOutOfRange`] if `i` is unregistered.
    pub fn get_static(&self, i: usize) -> Result<Value, HeapError> {
        self.statics
            .get(i)
            .copied()
            .ok_or(HeapError::StaticOutOfRange(i))
    }

    /// Writes static `i`.
    ///
    /// # Errors
    ///
    /// [`HeapError::StaticOutOfRange`] if `i` is unregistered.
    pub fn set_static(&mut self, i: usize, v: Value) -> Result<(), HeapError> {
        *self
            .statics
            .get_mut(i)
            .ok_or(HeapError::StaticOutOfRange(i))? = v;
        if let (Some(w), Value::Ref(val)) = (self.witness.as_mut(), v) {
            w.note_static_store(val);
        }
        Ok(())
    }

    /// References currently stored in statics (GC roots).
    pub fn static_roots(&self) -> Vec<GcRef> {
        self.static_ref_slots().map(|(_, r)| r).collect()
    }

    /// Chaos hook: clears the mark bit of the lowest-index marked live
    /// object and returns it (`None` if nothing is marked). Injected by
    /// the soak harness after a remark to forge the corruption an
    /// unsound elision would cause; the recovery layer must then heal
    /// it with a fresh stop-the-world re-mark. Deterministic by
    /// construction — "lowest index" depends only on heap layout, which
    /// is itself a pure function of the run's seed.
    pub fn chaos_clear_mark(&mut self) -> Option<GcRef> {
        let victim = self
            .store
            .iter_live()
            .map(|(r, _)| r)
            .find(|&r| self.gc.is_marked(r))?;
        self.gc.clear_mark(victim);
        Some(victim)
    }

    /// References stored in statics with their static indices (for the
    /// invariant verifier's dangling-static reporting).
    pub fn static_ref_slots(&self) -> impl Iterator<Item = (usize, GcRef)> + '_ {
        self.statics
            .iter()
            .enumerate()
            .filter_map(|(i, v)| match v {
                Value::Ref(Some(r)) => Some((i, *r)),
                _ => None,
            })
    }

    /// Consults the fault plan (if any) before an allocation.
    fn check_alloc_fault(&mut self) -> Result<(), HeapError> {
        if let Some(plan) = self.fault.as_mut() {
            if plan.should_fail_alloc() {
                return Err(HeapError::AllocationFailed);
            }
        }
        Ok(())
    }

    fn finish_alloc(&mut self, obj: HeapObject) -> GcRef {
        let words = obj.size_words() as u64;
        let r = self.store.insert(obj);
        self.stats.allocations += 1;
        self.stats.words_allocated += words;
        self.gc.on_allocate(r);
        if let Some(w) = self.witness.as_mut() {
            w.note_alloc(r);
        }
        r
    }

    /// Allocates an instance of a class with the given field shapes; all
    /// fields are zeroed (ints) or null (refs).
    ///
    /// # Errors
    ///
    /// [`HeapError::AllocationFailed`] if the fault plan injects a
    /// failure; otherwise infallible.
    pub fn alloc_object(
        &mut self,
        class_tag: u32,
        shapes: &[FieldShape],
    ) -> Result<GcRef, HeapError> {
        self.check_alloc_fault()?;
        let fields = shapes.iter().map(|s| s.zero_value()).collect();
        Ok(self.finish_alloc(HeapObject {
            class_tag,
            kind: ObjKind::Object(fields),
        }))
    }

    /// Allocates a reference array with all elements null.
    ///
    /// # Errors
    ///
    /// [`HeapError::NegativeArrayLength`] if `len < 0`, or
    /// [`HeapError::AllocationFailed`] from the fault plan or for a
    /// length the allocator cannot reserve.
    pub fn alloc_ref_array(&mut self, class_tag: u32, len: i64) -> Result<GcRef, HeapError> {
        let n = usize::try_from(len).map_err(|_| HeapError::NegativeArrayLength(len))?;
        self.check_alloc_fault()?;
        let elems = Payload::filled(None, n).map_err(|_| HeapError::AllocationFailed)?;
        Ok(self.finish_alloc(HeapObject {
            class_tag,
            kind: ObjKind::RefArray(elems),
        }))
    }

    /// Allocates an int array with all elements zero.
    ///
    /// # Errors
    ///
    /// [`HeapError::NegativeArrayLength`] if `len < 0`, or
    /// [`HeapError::AllocationFailed`] from the fault plan or for a
    /// length the allocator cannot reserve.
    pub fn alloc_int_array(&mut self, len: i64) -> Result<GcRef, HeapError> {
        let n = usize::try_from(len).map_err(|_| HeapError::NegativeArrayLength(len))?;
        self.check_alloc_fault()?;
        let elems = Payload::filled(0, n).map_err(|_| HeapError::AllocationFailed)?;
        Ok(self.finish_alloc(HeapObject {
            class_tag: HeapObject::INT_ARRAY_TAG,
            kind: ObjKind::IntArray(elems),
        }))
    }

    /// Reads field `offset` of object `r`.
    ///
    /// # Errors
    ///
    /// [`HeapError::DanglingRef`], [`HeapError::WrongKind`], or
    /// [`HeapError::FieldOutOfRange`].
    pub fn get_field(&self, r: GcRef, offset: usize) -> Result<Value, HeapError> {
        match &self.store.get(r)?.kind {
            ObjKind::Object(fields) => fields
                .get(offset)
                .copied()
                .ok_or(HeapError::FieldOutOfRange { obj: r, offset }),
            _ => Err(HeapError::WrongKind(r)),
        }
    }

    /// Writes field `offset` of object `r`. This is the *raw* write: the
    /// interpreter executes (or elides) the SATB barrier before calling
    /// it.
    ///
    /// # Errors
    ///
    /// [`HeapError::DanglingRef`], [`HeapError::WrongKind`], or
    /// [`HeapError::FieldOutOfRange`].
    pub fn set_field(&mut self, r: GcRef, offset: usize, v: Value) -> Result<(), HeapError> {
        match &mut self.store.get_mut(r)?.kind {
            ObjKind::Object(fields) => {
                let slot = fields
                    .get_mut(offset)
                    .ok_or(HeapError::FieldOutOfRange { obj: r, offset })?;
                *slot = v;
                // Witness only reference stores (both engines funnel
                // their reference-field writes through here; int writes
                // take engine-specific paths and carry no escape fact).
                if let (Some(w), Value::Ref(val)) = (self.witness.as_mut(), v) {
                    w.note_ref_store(r, val);
                }
                Ok(())
            }
            _ => Err(HeapError::WrongKind(r)),
        }
    }

    fn check_index(r: GcRef, index: i64, len: usize) -> Result<usize, HeapError> {
        usize::try_from(index)
            .ok()
            .filter(|&i| i < len)
            .ok_or(HeapError::IndexOutOfBounds { arr: r, index, len })
    }

    /// Reads element `index` of reference array `r`.
    ///
    /// # Errors
    ///
    /// [`HeapError::DanglingRef`], [`HeapError::WrongKind`], or
    /// [`HeapError::IndexOutOfBounds`].
    pub fn get_elem(&self, r: GcRef, index: i64) -> Result<Option<GcRef>, HeapError> {
        match &self.store.get(r)?.kind {
            ObjKind::RefArray(elems) => {
                let i = Self::check_index(r, index, elems.len())?;
                Ok(elems[i])
            }
            _ => Err(HeapError::WrongKind(r)),
        }
    }

    /// Writes element `index` of reference array `r` (raw write; barrier
    /// is the interpreter's job).
    ///
    /// # Errors
    ///
    /// [`HeapError::DanglingRef`], [`HeapError::WrongKind`], or
    /// [`HeapError::IndexOutOfBounds`].
    pub fn set_elem(&mut self, r: GcRef, index: i64, v: Option<GcRef>) -> Result<(), HeapError> {
        match &mut self.store.get_mut(r)?.kind {
            ObjKind::RefArray(elems) => {
                let len = elems.len();
                let i = Self::check_index(r, index, len)?;
                elems[i] = v;
                if let Some(w) = self.witness.as_mut() {
                    w.note_ref_store(r, v);
                }
                Ok(())
            }
            _ => Err(HeapError::WrongKind(r)),
        }
    }

    /// Reads element `index` of int array `r`.
    ///
    /// # Errors
    ///
    /// [`HeapError::DanglingRef`], [`HeapError::WrongKind`], or
    /// [`HeapError::IndexOutOfBounds`].
    pub fn get_int_elem(&self, r: GcRef, index: i64) -> Result<i64, HeapError> {
        match &self.store.get(r)?.kind {
            ObjKind::IntArray(elems) => {
                let i = Self::check_index(r, index, elems.len())?;
                Ok(elems[i])
            }
            _ => Err(HeapError::WrongKind(r)),
        }
    }

    /// Writes element `index` of int array `r`.
    ///
    /// # Errors
    ///
    /// [`HeapError::DanglingRef`], [`HeapError::WrongKind`], or
    /// [`HeapError::IndexOutOfBounds`].
    pub fn set_int_elem(&mut self, r: GcRef, index: i64, v: i64) -> Result<(), HeapError> {
        match &mut self.store.get_mut(r)?.kind {
            ObjKind::IntArray(elems) => {
                let len = elems.len();
                let i = Self::check_index(r, index, len)?;
                elems[i] = v;
                Ok(())
            }
            _ => Err(HeapError::WrongKind(r)),
        }
    }

    /// Length of the array at `r`.
    ///
    /// # Errors
    ///
    /// [`HeapError::DanglingRef`] or [`HeapError::WrongKind`] (objects
    /// have no length).
    pub fn array_len(&self, r: GcRef) -> Result<i64, HeapError> {
        match &self.store.get(r)?.kind {
            ObjKind::RefArray(e) => Ok(e.len() as i64),
            ObjKind::IntArray(e) => Ok(e.len() as i64),
            ObjKind::Object(_) => Err(HeapError::WrongKind(r)),
        }
    }

    /// One concurrent marking slice of `budget` units, as the fault
    /// plan lets it run: a skipped slice delays marking progress
    /// (widening the race window) and returns `None`; a drain-pressure
    /// boost multiplies the budget, forcing deep SATB-buffer drains.
    /// `Some(0)` means the collector has no pending work. The one place
    /// the plan's mark-step decisions are consulted, by the cooperative
    /// worlds' marker and the interpreter's policy-driven steps alike.
    #[inline]
    pub fn mark_slice(&mut self, mut budget: usize) -> Option<usize> {
        if let Some(plan) = self.fault.as_mut() {
            if plan.skip_mark_step() {
                return None;
            }
            if plan.drain_pressure() {
                budget = budget.saturating_mul(DRAIN_BOOST_FACTOR);
            }
        }
        Some(self.gc.mark_step(&mut self.store, budget))
    }

    /// Sweeps unmarked objects after a completed marking cycle. See
    /// [`GcState::sweep`]; this convenience method also updates
    /// [`HeapStats::frees`].
    pub fn sweep(&mut self) -> usize {
        let freed = self.gc.sweep(&mut self.store);
        self.stats.frees += freed as u64;
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> Heap {
        Heap::new(MarkStyle::Satb)
    }

    #[test]
    fn mark_slice_consults_the_plan_skip_first_then_scale() {
        use crate::fault::FaultConfig;
        let plan = |skip_step_pm, drain_boost_pm| {
            Some(FaultPlan::new(FaultConfig {
                skip_step_pm,
                drain_boost_pm,
                ..FaultConfig::from_seed(1)
            }))
        };
        let mut h = heap();
        let roots: Vec<GcRef> = (0..40).map(|_| h.alloc_object(0, &[]).unwrap()).collect();
        h.gc.begin_marking(&mut h.store, &roots);
        assert_eq!(h.mark_slice(3), Some(3), "no plan: the budget as given");
        h.fault = plan(1000, 1000);
        assert_eq!(h.mark_slice(3), None, "a skipped slice marks nothing");
        let stats = h.fault.as_ref().unwrap().stats;
        assert_eq!((stats.skipped_steps, stats.drain_boosts), (1, 0));
        assert_eq!(stats.decisions, 1, "a skip does not roll for the boost");
        h.fault = plan(0, 1000);
        assert_eq!(h.mark_slice(2), Some(32), "boosted ×16");
        assert_eq!(h.mark_slice(usize::MAX / 2), Some(5), "saturates");
        assert_eq!(h.mark_slice(1), Some(0), "nothing pending");
    }

    /// The marker prefetches every ref it greys or pops, stale ones
    /// included: out of range, or for a payload the scan will not read
    /// (a free slot's, an inline one, an int array's), it hints nothing.
    #[test]
    fn prefetch_hints_only_in_range_slots_and_spilled_reference_payloads() {
        use crate::object::{INLINE_FIELDS, INLINE_REFS};
        let mut h = heap();
        let inline = h.alloc_ref_array(0, INLINE_REFS as i64).unwrap();
        let spilled = h.alloc_ref_array(0, INLINE_REFS as i64 + 1).unwrap();
        let fields = h
            .alloc_object(0, &[FieldShape::Ref; INLINE_FIELDS + 1])
            .unwrap();
        let ints = h.alloc_int_array(100).unwrap();
        let freed = h.alloc_object(0, &[]).unwrap();
        h.store.remove(freed);
        let out_of_range = [GcRef(h.store.capacity() as u32), GcRef(u32::MAX)];
        for r in [inline, spilled, fields, ints, freed] {
            let slot = std::ptr::from_ref(&h.store.slots[r.index()]);
            assert_eq!(h.store.prefetch(r, false), Some(slot.cast()), "{r}");
        }
        for r in [inline, ints, freed].into_iter().chain(out_of_range) {
            assert_eq!(h.store.prefetch(r, true), None, "{r}");
        }
        assert_eq!(h.store.prefetch(out_of_range[0], false), None);
        assert_eq!(h.store.prefetch(out_of_range[1], false), None);
        let payload = |r| match &h.store.get(r).unwrap().kind {
            ObjKind::Object(fields) => fields.as_ptr().cast(),
            ObjKind::RefArray(elems) => elems.as_ptr().cast(),
            ObjKind::IntArray(_) => unreachable!("not prefetched"),
        };
        for r in [spilled, fields] {
            assert_eq!(h.store.prefetch(r, true), Some(payload(r)), "{r}");
        }
        assert_eq!((h.store.capacity(), h.store.live_count()), (5, 4));
    }

    #[test]
    fn alloc_object_zeroes_fields() {
        let mut h = heap();
        let r = h
            .alloc_object(3, &[FieldShape::Ref, FieldShape::Int, FieldShape::Ref])
            .unwrap();
        assert_eq!(h.get_field(r, 0).unwrap(), Value::NULL);
        assert_eq!(h.get_field(r, 1).unwrap(), Value::Int(0));
        assert_eq!(h.get_field(r, 2).unwrap(), Value::NULL);
        assert_eq!(h.store.get(r).unwrap().class_tag, 3);
    }

    #[test]
    fn alloc_arrays_zeroed_and_bounded() {
        let mut h = heap();
        let a = h.alloc_ref_array(1, 4).unwrap();
        assert_eq!(h.array_len(a).unwrap(), 4);
        for i in 0..4 {
            assert_eq!(h.get_elem(a, i).unwrap(), None);
        }
        let ia = h.alloc_int_array(2).unwrap();
        assert_eq!(h.get_int_elem(ia, 1).unwrap(), 0);
        assert!(matches!(
            h.get_elem(a, 4),
            Err(HeapError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            h.get_elem(a, -1),
            Err(HeapError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn negative_length_rejected() {
        let mut h = heap();
        assert_eq!(
            h.alloc_ref_array(0, -3),
            Err(HeapError::NegativeArrayLength(-3))
        );
        assert_eq!(
            h.alloc_int_array(-1),
            Err(HeapError::NegativeArrayLength(-1))
        );
    }

    /// Lengths whose byte size overflows `isize`: the reservation fails
    /// before the allocator is asked for anything, so this is
    /// deterministic and reserves nothing.
    #[test]
    fn oversized_array_fails_as_an_allocation() {
        let mut h = heap();
        assert_eq!(
            h.alloc_ref_array(0, i64::MAX),
            Err(HeapError::AllocationFailed)
        );
        assert_eq!(h.alloc_int_array(1 << 60), Err(HeapError::AllocationFailed));
        assert_eq!(h.stats, HeapStats::default(), "nothing was allocated");
        assert_eq!(h.store.capacity(), 0);
        // The heap is still usable, and a spilled length that fits is
        // counted as before.
        let a = h.alloc_int_array(100).unwrap();
        assert_eq!(h.array_len(a).unwrap(), 100);
        assert_eq!((h.stats.allocations, h.stats.words_allocated), (1, 102));
    }

    /// The fault plan is consulted before the payload is built, for an
    /// oversized length as for any other.
    #[test]
    fn oversized_array_still_consults_the_fault_plan() {
        use crate::fault::{FaultConfig, FaultPlan};
        let mut h = heap();
        h.fault = Some(FaultPlan::new(FaultConfig {
            alloc_fail_pm: 0,
            alloc_grace: 0,
            ..FaultConfig::from_seed(3)
        }));
        assert_eq!(
            h.alloc_ref_array(0, i64::MAX),
            Err(HeapError::AllocationFailed)
        );
        h.alloc_int_array(2).unwrap();
        let plan = h.fault.as_ref().unwrap();
        assert_eq!(plan.stats.decisions, 2, "one roll per allocation");
        assert_eq!(plan.stats.alloc_failures, 0, "the plan injected nothing");
    }

    #[test]
    fn field_writes_round_trip() {
        let mut h = heap();
        let a = h.alloc_object(0, &[FieldShape::Ref]).unwrap();
        let b = h.alloc_object(0, &[FieldShape::Ref]).unwrap();
        h.set_field(a, 0, Value::from(b)).unwrap();
        assert_eq!(h.get_field(a, 0).unwrap(), Value::Ref(Some(b)));
        assert!(matches!(
            h.set_field(a, 5, Value::Int(0)),
            Err(HeapError::FieldOutOfRange { .. })
        ));
    }

    #[test]
    fn wrong_kind_access_rejected() {
        let mut h = heap();
        let o = h.alloc_object(0, &[FieldShape::Int]).unwrap();
        let a = h.alloc_ref_array(0, 1).unwrap();
        assert!(matches!(h.get_elem(o, 0), Err(HeapError::WrongKind(_))));
        assert!(matches!(h.get_field(a, 0), Err(HeapError::WrongKind(_))));
        assert!(matches!(h.array_len(o), Err(HeapError::WrongKind(_))));
        assert!(matches!(h.get_int_elem(a, 0), Err(HeapError::WrongKind(_))));
    }

    #[test]
    fn statics_round_trip() {
        let mut h = heap();
        h.register_statics(&[FieldShape::Ref, FieldShape::Int]);
        assert_eq!(h.get_static(0).unwrap(), Value::NULL);
        let o = h.alloc_object(0, &[]).unwrap();
        h.set_static(0, Value::from(o)).unwrap();
        assert_eq!(h.static_roots(), vec![o]);
        assert!(matches!(
            h.get_static(7),
            Err(HeapError::StaticOutOfRange(7))
        ));
    }

    #[test]
    fn slot_reuse_after_remove() {
        let mut h = heap();
        let a = h.alloc_object(0, &[]).unwrap();
        h.store.remove(a);
        assert!(!h.store.is_live(a));
        assert!(matches!(h.get_field(a, 0), Err(HeapError::DanglingRef(_))));
        let b = h.alloc_object(1, &[]).unwrap();
        assert_eq!(a, b, "slot is reused");
        assert_eq!(h.store.live_count(), 1);
    }

    #[test]
    fn stats_track_allocation_words() {
        let mut h = heap();
        h.alloc_object(0, &[FieldShape::Int; 3]).unwrap();
        h.alloc_int_array(5).unwrap();
        assert_eq!(h.stats.allocations, 2);
        assert_eq!(h.stats.words_allocated, (2 + 3) + (2 + 5));
    }
}
