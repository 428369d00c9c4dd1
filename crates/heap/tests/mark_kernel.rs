//! The marker's scan kernel against the loops it replaced.
//!
//! `GcState::mark_step` and both styles' `remark` drain the grey stack
//! through one inlined kernel that shades with an inline mark-bit test,
//! walks children without a `Result` round trip and prefetches what the
//! next pops will read. Prefetching is a hint, so nothing observable may
//! move. `Model` below is the collector's marking as it stood before the
//! kernel — `shade`, `scan`, `mark_step` and `remark` as separate loops,
//! over plain `Vec<bool>` and `BTreeSet` state — driven through the same
//! public hooks (allocation, both barriers, `push_retrace`). The
//! property test runs random schedules of allocation, barriered stores,
//! retraces, stepped marking, remark and sweep on both styles and
//! compares, after every operation, every slot's mark bit and trace
//! state, `concurrent_scans`, both backlogs, each step's units and each
//! `PauseReport`.
//!
//! The mutator is deliberately not a legal one: the roots of a cycle
//! are a random few objects, so sweeps leave references to freed slots
//! behind, and a later allocation may reuse them. The kernel must shade
//! and skip those stale references exactly as the old loops did.

use std::collections::BTreeSet;

use proptest::prelude::*;

use wbe_heap::gc::{MarkStyle, PauseReport};
use wbe_heap::{FieldShape, GcRef, Heap, ObjKind, Store, TraceState, Value};

/// Two reference fields: fits a slot.
const OBJ2: [FieldShape; 2] = [FieldShape::Ref, FieldShape::Ref];
/// Three fields, the middle one an integer: spills out of the slot.
const OBJ3: [FieldShape; 3] = [FieldShape::Ref, FieldShape::Int, FieldShape::Ref];
const BUDGETS: [usize; 4] = [1, 2, 7, 64];

/// Adds `i` to a growable flag vector; true if it was absent.
fn insert(set: &mut Vec<bool>, i: usize) -> bool {
    if i >= set.len() {
        set.resize(i + 1, false);
    }
    !std::mem::replace(&mut set[i], true)
}

fn get(set: &[bool], i: usize) -> bool {
    set.get(i).copied().unwrap_or(false)
}

/// The collector's marking state and loops before the scan kernel.
struct Model {
    style: MarkStyle,
    marking: bool,
    mark: Vec<bool>,
    grey: Vec<GcRef>,
    satb_buf: Vec<GcRef>,
    dirty: BTreeSet<usize>,
    retrace: BTreeSet<usize>,
    tracing: Vec<bool>,
    traced: Vec<bool>,
    concurrent_scans: u64,
}

impl Model {
    fn new(style: MarkStyle) -> Model {
        Model {
            style,
            marking: false,
            mark: Vec::new(),
            grey: Vec::new(),
            satb_buf: Vec::new(),
            dirty: BTreeSet::new(),
            retrace: BTreeSet::new(),
            tracing: Vec::new(),
            traced: Vec::new(),
            concurrent_scans: 0,
        }
    }

    fn on_allocate(&mut self, r: GcRef) {
        let slot = r.index();
        if self.marking && self.style == MarkStyle::Satb {
            insert(&mut self.mark, slot);
        } else if slot < self.mark.len() {
            self.mark[slot] = false;
        }
        for set in [&mut self.tracing, &mut self.traced] {
            if slot < set.len() {
                set[slot] = false;
            }
        }
    }

    fn satb_log(&mut self, old: GcRef) {
        if self.marking {
            self.satb_buf.push(old);
        }
    }

    fn dirty(&mut self, obj: GcRef) {
        if self.marking {
            self.dirty.insert(obj.index());
        }
    }

    fn push_retrace(&mut self, arr: GcRef) {
        if self.marking {
            self.retrace.insert(arr.index());
        }
    }

    fn trace_state(&self, store: &Store, r: GcRef) -> TraceState {
        match (get(&self.tracing, r.index()), get(&self.traced, r.index())) {
            _ if !store.is_live(r) => TraceState::Untraced,
            (_, true) => TraceState::Traced,
            (true, false) => TraceState::Tracing,
            (false, false) => TraceState::Untraced,
        }
    }

    fn begin_marking(&mut self, store: &Store, roots: &[GcRef]) {
        self.marking = true;
        let capacity = store.capacity();
        for set in [&mut self.mark, &mut self.tracing, &mut self.traced] {
            set.clear();
            set.resize(capacity, false);
        }
        self.dirty.clear();
        self.retrace.clear();
        self.grey.clear();
        self.satb_buf.clear();
        for &r in roots {
            self.shade(r);
        }
    }

    fn shade(&mut self, r: GcRef) {
        if insert(&mut self.mark, r.index()) {
            self.grey.push(r);
        }
    }

    fn scan(&mut self, store: &Store, r: GcRef) -> usize {
        let Ok(obj) = store.get(r) else {
            return 0;
        };
        let is_array = matches!(obj.kind, ObjKind::RefArray(_));
        if is_array {
            insert(&mut self.tracing, r.index());
        }
        let mut traced = 0;
        obj.for_each_ref(|child| {
            self.shade(child);
            traced += 1;
        });
        if is_array {
            insert(&mut self.traced, r.index());
        }
        traced
    }

    fn mark_step(&mut self, store: &Store, budget: usize) -> usize {
        let mut done = 0;
        while done < budget {
            if let Some(old) = self.satb_buf.pop() {
                self.shade(old);
                done += 1;
                continue;
            }
            if let Some(r) = self.grey.pop() {
                self.scan(store, r);
                self.concurrent_scans += 1;
                done += 1;
                continue;
            }
            break;
        }
        done
    }

    fn remark(&mut self, store: &Store, roots: &[GcRef]) -> PauseReport {
        let mut pause = PauseReport::default();
        for &r in roots {
            pause.roots_examined += 1;
            self.shade(r);
        }
        for slot in std::mem::take(&mut self.retrace) {
            let arr = GcRef(slot as u32);
            if get(&self.mark, slot) {
                pause.retraced += 1;
                pause.objects_scanned += 1;
                pause.refs_traced += self.scan(store, arr);
            }
        }
        match self.style {
            MarkStyle::Satb => {
                while let Some(old) = self.satb_buf.pop() {
                    pause.log_drained += 1;
                    self.shade(old);
                }
                while let Some(r) = self.grey.pop() {
                    pause.objects_scanned += 1;
                    pause.refs_traced += self.scan(store, r);
                }
            }
            MarkStyle::IncrementalUpdate => {
                for slot in std::mem::take(&mut self.dirty) {
                    let d = GcRef(slot as u32);
                    if get(&self.mark, slot) {
                        pause.dirty_rescanned += 1;
                        pause.objects_scanned += 1;
                        pause.refs_traced += self.scan(store, d);
                    }
                }
                while let Some(r) = self.grey.pop() {
                    pause.objects_scanned += 1;
                    pause.refs_traced += self.scan(store, r);
                }
            }
        }
        self.marking = false;
        pause
    }
}

/// The collector under test and the model, driven in lockstep.
struct Pair {
    heap: Heap,
    model: Model,
    /// Every live object: the pool stores, retraces and roots draw from.
    objs: Vec<GcRef>,
}

impl Pair {
    fn pick(&self, i: usize) -> Option<GcRef> {
        (!self.objs.is_empty()).then(|| self.objs[i % self.objs.len()])
    }

    fn roots(&self, picks: [usize; 3]) -> Vec<GcRef> {
        picks.iter().filter_map(|&i| self.pick(i)).collect()
    }

    fn alloc(&mut self, kind: usize, len: usize) {
        let r = match kind % 4 {
            0 => self.heap.alloc_object(1, &OBJ2),
            1 => self.heap.alloc_object(1, &OBJ3),
            2 => self.heap.alloc_ref_array(2, len as i64 % 10),
            _ => self.heap.alloc_int_array(len as i64 % 10),
        }
        .expect("no fault plan is installed");
        self.model.on_allocate(r);
        self.objs.push(r);
    }

    /// `recv.slot = value` with the style's barrier.
    fn store(&mut self, recv: usize, slot: usize, value: usize) {
        let (Some(recv), value) = (self.pick(recv), self.pick(value)) else {
            return;
        };
        // One store in five writes null.
        let value = value.filter(|_| !slot.is_multiple_of(5));
        let heap = &mut self.heap;
        let (old, index) = match &heap.store.get(recv).expect("pool objects are live").kind {
            ObjKind::Object(fields) => {
                let i = [0, 2][slot % 2] % fields.len();
                match fields[i] {
                    Value::Ref(old) => (old, i),
                    Value::Int(_) => unreachable!("fields 0 and 2 are references"),
                }
            }
            ObjKind::RefArray(elems) if !elems.is_empty() => {
                let i = slot % elems.len();
                (elems[i], i)
            }
            _ => return,
        };
        match heap.gc.style() {
            MarkStyle::Satb => {
                if let Some(old) = old {
                    heap.gc.satb_log(old);
                    self.model.satb_log(old);
                }
            }
            MarkStyle::IncrementalUpdate => {
                heap.gc.dirty(recv);
                self.model.dirty(recv);
            }
        }
        match heap.store.get(recv).expect("live").kind {
            ObjKind::Object(_) => heap.set_field(recv, index, Value::Ref(value)),
            _ => heap.set_elem(recv, index as i64, value),
        }
        .expect("slot in range");
    }

    fn retrace(&mut self, i: usize) {
        if let Some(r) = self.pick(i) {
            self.heap.gc.push_retrace(r);
            self.model.push_retrace(r);
        }
    }

    fn step(&mut self, budget: usize, roots: [usize; 3]) -> Result<(), TestCaseError> {
        let roots = self.roots(roots);
        let heap = &mut self.heap;
        if !heap.gc.is_marking() {
            heap.gc.begin_marking(&mut heap.store, &roots);
            self.model.begin_marking(&heap.store, &roots);
            return Ok(());
        }
        let done = heap.gc.mark_step(&mut heap.store, budget);
        prop_assert_eq!(done, self.model.mark_step(&heap.store, budget));
        Ok(())
    }

    fn remark_and_sweep(&mut self, roots: [usize; 3]) -> Result<(), TestCaseError> {
        if !self.heap.gc.is_marking() {
            return Ok(());
        }
        let roots = self.roots(roots);
        let heap = &mut self.heap;
        let pause = heap.gc.remark(&mut heap.store, &roots);
        prop_assert_eq!(pause, self.model.remark(&heap.store, &roots));
        self.agree()?;
        self.heap.sweep();
        let store = &self.heap.store;
        self.objs.retain(|&r| store.is_live(r));
        Ok(())
    }

    /// Every observable the kernel could move, slot by slot.
    fn agree(&self) -> Result<(), TestCaseError> {
        let (gc, store, model) = (&self.heap.gc, &self.heap.store, &self.model);
        for i in 0..store.capacity() + 70 {
            let r = GcRef(i as u32);
            prop_assert_eq!(gc.is_marked(r), get(&model.mark, i), "mark bit of {}", r);
            prop_assert_eq!(
                gc.trace_state(store, r),
                model.trace_state(store, r),
                "trace state of {}",
                r
            );
        }
        prop_assert_eq!(gc.stats.concurrent_scans, model.concurrent_scans);
        prop_assert_eq!(gc.satb_backlog(), model.satb_buf.len());
        prop_assert_eq!(gc.dirty_backlog(), model.dirty.len());
        Ok(())
    }
}

proptest! {
    #[test]
    fn kernel_matches_the_loops_it_replaced(
        style in 0u8..2,
        initial in 1usize..120,
        ops in proptest::collection::vec((0u8..16, 0usize..400, 0usize..400, 0usize..400), 0..400),
    ) {
        let style = [MarkStyle::Satb, MarkStyle::IncrementalUpdate][usize::from(style)];
        let mut pair = Pair { heap: Heap::new(style), model: Model::new(style), objs: Vec::new() };
        for i in 0..initial {
            pair.alloc(i * 7, i);
            pair.store(i * 13, i, i * 31);
        }
        for (op, a, b, c) in ops {
            match op {
                0..=2 => pair.alloc(a, b),
                3..=8 => pair.store(a, b, c),
                9..=12 => pair.step(BUDGETS[a % BUDGETS.len()], [a, b, c])?,
                13 => pair.retrace(a),
                _ => pair.remark_and_sweep([a, b, c])?,
            }
            pair.agree()?;
        }
        pair.remark_and_sweep([0, 1, 2])?;
    }
}
