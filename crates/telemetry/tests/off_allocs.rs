//! "With metrics off, resolving a handle or opening a span costs no
//! allocation" as a test, not a benchmark reading.
//!
//! The compile path resolves its handles where it uses them — a counter
//! per pre-null run, a histogram per method, a span per compile phase —
//! so a resolver that allocated with metrics off would charge the
//! allocator on every one of those calls for a value nobody reads. This
//! file is a test binary of its own so that it may install a counting
//! `#[global_allocator]` and flip the process-wide telemetry switch; the
//! counts are per thread, so the harness's own threads do not show.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wbe_telemetry::{self as telemetry, TelemetryConfig};

thread_local! {
    /// Calls that obtain or resize memory.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // (`try_with`: a thread may allocate after its thread-locals are
    // gone.)
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller upholds; the counter is a
// `const`-initialised `Cell` of an integer with no destructor, so
// touching it allocates nothing and cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded; see the impl comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded; see the impl comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded; see the impl comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded; see the impl comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls `f` makes on this thread.
fn calls_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

/// One test: the switch it flips is process-wide.
#[test]
fn handles_and_spans_allocate_nothing_while_metrics_are_off() {
    telemetry::configure(TelemetryConfig::off());

    let (counter, calls) = calls_of(|| telemetry::counter("off_allocs.counter"));
    assert_eq!(calls, 0, "counter() with metrics off");
    let (gauge, calls) = calls_of(|| telemetry::gauge("off_allocs.gauge"));
    assert_eq!(calls, 0, "gauge() with metrics off");
    let (histogram, calls) = calls_of(|| telemetry::histogram("off_allocs.histogram"));
    assert_eq!(calls, 0, "histogram() with metrics off");

    let ((), calls) = calls_of(|| {
        counter.add(2);
        gauge.set(3);
        histogram.record(4);
        drop((counter.clone(), gauge.clone(), histogram.clone()));
    });
    assert_eq!(calls, 0, "probing, cloning and dropping a detached handle");

    let ((), calls) = calls_of(|| {
        let method = "jess_main";
        let _outer = telemetry::span!("off_allocs.outer");
        let _inner = telemetry::span!("off_allocs.inner", "method {method} #{}", 5);
    });
    assert_eq!(calls, 0, "span! with and without a detail");

    // A handle resolved while metrics were off stays detached after
    // they come on: it records nothing, reads 0, and its name was
    // never registered.
    telemetry::configure(TelemetryConfig::default());
    counter.add(2);
    gauge.set(3);
    histogram.record(4);
    assert_eq!((counter.get(), gauge.get()), (0, 0));
    assert_eq!(format!("{histogram:?}"), "Histogram { count: 0, sum: 0 }");
    let snap = telemetry::registry::global().snapshot();
    assert!(!snap.counters.contains_key("off_allocs.counter"));
    assert!(!snap.gauges.contains_key("off_allocs.gauge"));
    assert!(!snap.histograms.contains_key("off_allocs.histogram"));

    // Resolved now, the same name is live.
    let live = telemetry::counter("off_allocs.counter");
    live.add(2);
    assert_eq!(live.get(), 2);
}
