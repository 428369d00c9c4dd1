//! "A compile costs the allocator what it keeps, not what it formats"
//! as a test, not a benchmark reading.
//!
//! `compile-sweep` (Fig. 2's compile-time axis) compiles each suite
//! program with folding, null-or-same and the ledger on. This file
//! bounds the allocator calls of one such compile, `jbb` under `Full`
//! at inline limit 100, in total and per ledger record (the calls the
//! ledger adds over the same compile without it), at the counts the
//! typed ledger evidence, the per-method shape and the detached
//! telemetry handles left, plus 5 %. Before them a release build's
//! compile made 1 381 calls, not 782, and a record 13.8, not 0.88. It
//! is a test binary of its own so that it may install a counting
//! `#[global_allocator]` and switch telemetry off process-wide, as
//! `compile-sweep` runs its timed reps; the counts are per thread, so
//! the harness's own threads do not show.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wbe_opt::{compile, OptMode, PipelineConfig};
use wbe_telemetry::TelemetryConfig;

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

/// `compile-sweep`'s pipeline, with or without the ledger.
fn pipeline(ledger: bool) -> PipelineConfig {
    let config = PipelineConfig::new(OptMode::Full, 100)
        .with_fold()
        .with_null_or_same();
    if ledger {
        config.with_ledger()
    } else {
        config
    }
}

/// Allocator calls of the whole compile, ledger on. A debug build
/// also validates the inlined program.
const TOTAL: u64 = if cfg!(debug_assertions) { 853 } else { 782 };
/// Allocator calls the ledger adds, per record, in hundredths: 15
/// calls for 17 records.
const PER_RECORD_CENTS: u64 = 88;

/// One test: the telemetry switch it flips is process-wide.
#[test]
fn a_compile_allocates_within_its_budget() {
    wbe_telemetry::configure(TelemetryConfig::off());
    let jbb = wbe_workloads::by_name("jbb").expect("suite program");
    // Once untimed: per-thread lazy state (the shared empty maps) is
    // made on the first compile of a thread.
    drop(compile(&jbb.program, &pipeline(true)));

    let (compiled, total) = calls_of(|| compile(&jbb.program, &pipeline(true)));
    let (_, without) = calls_of(|| compile(&jbb.program, &pipeline(false)));
    let records = compiled.ledger.as_ref().expect("ledger on").records.len() as u64;
    assert_eq!(
        records,
        compiled.barrier_sites() as u64,
        "one record a site"
    );
    assert!(records > 0);
    let per_record_cents = (total - without) * 100 / records;
    eprintln!(
        "compile(jbb, Full/100): {total} allocator calls, {without} without the ledger, \
         {records} records, {per_record_cents}/100 calls a record"
    );
    assert!(
        total <= TOTAL + TOTAL / 20,
        "compile(jbb, Full/100) made {total} allocator calls; budget {TOTAL} + 5 %"
    );
    assert!(
        per_record_cents <= PER_RECORD_CENTS + PER_RECORD_CENTS / 20,
        "the ledger made {}.{:02} allocator calls a record; budget {}.{:02} + 5 %",
        per_record_cents / 100,
        per_record_cents % 100,
        PER_RECORD_CENTS / 100,
        PER_RECORD_CENTS % 100,
    );
}
