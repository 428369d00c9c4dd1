//! "No `malloc` per object" as a test, not a benchmark reading.
//!
//! A payload that fits the inline capacity lives in its `Store` slot,
//! so once the slot, free-list, grey-stack and bit-set vectors have
//! grown, allocating objects, collecting them and refilling the freed
//! slots never reaches the allocator; a payload one element over the
//! capacity costs exactly one boxed slice. This file is a test binary
//! of its own so that it may install a counting `#[global_allocator]`;
//! the counts are per thread, so the harness's own threads do not show.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wbe_heap::gc::MarkStyle;
use wbe_heap::object::INLINE_REFS;
use wbe_heap::{FieldShape, GcRef, Heap, Value};

thread_local! {
    /// (calls that obtain or resize memory, calls that release it).
    static CALLS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn count(obtained: u64, released: u64) {
    // (`try_with`: a thread may free its last allocations after its
    // thread-locals are gone.)
    let _ = CALLS.try_with(|c| {
        let (a, f) = c.get();
        c.set((a + obtained, f + released));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller upholds; the counter is a
// `const`-initialised `Cell` of integers with no destructor, so
// touching it allocates nothing and cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, 0);
        // SAFETY: forwarded; see the impl comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, 0);
        // SAFETY: forwarded; see the impl comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, 0);
        // SAFETY: forwarded; see the impl comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, 1);
        // SAFETY: forwarded; see the impl comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const OBJECTS: usize = 10_000;
const OBJ2: [FieldShape; 2] = [FieldShape::Ref, FieldShape::Ref];
/// One element more than a slot holds.
const SPILLED_LEN: i64 = INLINE_REFS as i64 + 1;

/// What one round allocates and how it links two of them.
#[derive(Clone, Copy)]
enum Shape {
    TwoRefObject,
    SpilledRefArray,
}

impl Shape {
    fn alloc(self, heap: &mut Heap) -> GcRef {
        match self {
            Shape::TwoRefObject => heap.alloc_object(1, &OBJ2),
            Shape::SpilledRefArray => heap.alloc_ref_array(1, SPILLED_LEN),
        }
        .expect("no fault plan is installed")
    }

    fn link(self, heap: &mut Heap, from: GcRef, slot: usize, to: GcRef) {
        match self {
            Shape::TwoRefObject => heap.set_field(from, slot, Value::from(to)),
            Shape::SpilledRefArray => heap.set_elem(from, slot as i64, Some(to)),
        }
        .expect("slots 0 and 1 exist");
    }
}

/// Allocates `OBJECTS` objects — the even ones a list from `refs[0]`
/// with cross links, the odd ones garbage pointing into it — runs one
/// full SATB cycle and refills the freed slots. Returns the number
/// freed. `refs` is scratch with room for `OBJECTS`.
fn round(heap: &mut Heap, shape: Shape, refs: &mut Vec<GcRef>) -> usize {
    refs.clear();
    for _ in 0..OBJECTS {
        refs.push(shape.alloc(heap));
    }
    for i in 0..OBJECTS - 2 {
        shape.link(heap, refs[i], 0, refs[(i + 2) & !1]);
        shape.link(heap, refs[i], 1, refs[(i * 7 % OBJECTS) & !1]);
    }
    let roots = [refs[0]];
    heap.gc.begin_marking(&mut heap.store, &roots);
    while heap.gc.mark_step(&mut heap.store, 64) > 0 {}
    heap.gc.remark(&mut heap.store, &roots);
    let freed = heap.sweep();
    for _ in 0..freed {
        shape.alloc(heap);
    }
    freed
}

/// A cycle with no roots: every slot returns to the free list.
fn empty(heap: &mut Heap) {
    heap.gc.begin_marking(&mut heap.store, &[]);
    heap.gc.remark(&mut heap.store, &[]);
    heap.sweep();
    assert_eq!(heap.store.live_count(), 0);
}

/// Allocator calls (obtaining, releasing) made by one round after a
/// warm-up round has grown every vector the round uses, and the
/// number of objects that round freed.
fn measured_round(shape: Shape) -> ((u64, u64), usize) {
    // As in the benchmark's timed reps. With metrics on, the spans of
    // `remark` and `sweep` build their histogram names: four calls per
    // cycle, none per object.
    wbe_telemetry::configure(wbe_telemetry::TelemetryConfig::off());
    let mut heap = Heap::new(MarkStyle::Satb);
    let mut refs = Vec::with_capacity(OBJECTS);
    round(&mut heap, shape, &mut refs);
    empty(&mut heap);
    let before = CALLS.with(Cell::get);
    let freed = round(&mut heap, shape, &mut refs);
    let after = CALLS.with(Cell::get);
    assert_eq!(heap.store.capacity(), OBJECTS, "slots were reused");
    ((after.0 - before.0, after.1 - before.1), freed)
}

#[test]
fn inline_objects_never_reach_the_allocator() {
    let (calls, freed) = measured_round(Shape::TwoRefObject);
    assert_eq!(freed, OBJECTS / 2, "the odd objects were garbage");
    assert_eq!(
        calls,
        (0, 0),
        "{} two-ref objects allocated, one SATB cycle and {freed} slots \
         refilled: (obtaining, releasing) allocator calls",
        OBJECTS
    );
}

#[test]
fn a_spilled_payload_is_one_allocation() {
    let (calls, freed) = measured_round(Shape::SpilledRefArray);
    assert_eq!(freed, OBJECTS / 2);
    assert_eq!(
        calls,
        ((OBJECTS + freed) as u64, freed as u64),
        "one boxed slice per {SPILLED_LEN}-element array allocated, one \
         release per array swept, nothing else"
    );
}
