//! Bounded in-memory buffer of trace events for NDJSON export.
//!
//! Events are appended by closing spans (and by [`event`] for instant
//! marks) when tracing is enabled, and consumed with [`drain`]. The
//! buffer is capped; overflow drops new events and counts them in
//! [`dropped`] rather than growing without bound during long runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::config::tracing_enabled;

/// Maximum buffered events before new ones are dropped.
pub const TRACE_CAP: usize = 1 << 18;

/// What a [`TraceEvent`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A closed span, with its duration in microseconds — 0 for one
    /// that closed within a microsecond, which is still a span.
    Span {
        /// Microseconds from open to close.
        dur_us: u64,
    },
    /// A point in time.
    Instant,
    /// One sample of a counter series (heap occupancy, allocation
    /// totals); Chrome trace renders these as `"ph":"C"` counter
    /// tracks.
    Counter {
        /// The sampled value.
        value: u64,
    },
}

/// One completed span, instant or counter sample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span/event name (`analysis.fixpoint`, `heap.gc.remark`, …).
    pub name: String,
    /// Name of the enclosing span at open time ("" at top level).
    pub parent: String,
    /// Free-form payload (method name, workload, …); may be empty.
    pub detail: String,
    /// Microseconds from process telemetry epoch to span open.
    pub start_us: u64,
    /// Stable per-OS-thread index (first telemetry use on a thread
    /// assigns the next one; the main thread is usually 1). Lets
    /// timeline viewers lay concurrent spans out on separate tracks.
    pub tid: u64,
    /// Span, instant or counter sample.
    pub kind: EventKind,
}

/// The calling OS thread's stable trace track index.
pub fn current_tid() -> u64 {
    use std::cell::Cell;
    static NEXT_TID: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: Cell<u64> = const { Cell::new(0) };
    }
    TID.with(|t| {
        let mut id = t.get();
        if id == 0 {
            id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

fn buffer() -> &'static Mutex<Vec<TraceEvent>> {
    static BUF: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    BUF.get_or_init(|| Mutex::new(Vec::new()))
}

static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Microseconds since the first telemetry use in this process — the
/// shared clock for all `start_us` values.
pub fn since_epoch_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH
        .get_or_init(Instant::now)
        .elapsed()
        .as_micros()
        .min(u64::MAX as u128) as u64
}

/// Appends an event (no-op when the buffer is full; the loss is
/// counted in [`dropped`]). Recovers a poisoned buffer lock: the vec
/// is append-only between drains, so a panic mid-push leaves it
/// well-formed, and tracing must never abort a panicking process.
pub fn push(ev: TraceEvent) {
    let mut buf = buffer().lock().unwrap_or_else(|e| e.into_inner());
    if buf.len() >= TRACE_CAP {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    buf.push(ev);
}

/// Records an instant event (zero duration) attributed to the current
/// span, if tracing is enabled.
pub fn event(name: &str, detail: impl Into<String>) {
    if !tracing_enabled() {
        return;
    }
    push(TraceEvent {
        name: name.to_string(),
        parent: crate::span::current().unwrap_or_default(),
        detail: detail.into(),
        start_us: since_epoch_us(),
        tid: current_tid(),
        kind: EventKind::Instant,
    });
}

/// Records one sample of a counter series (heap occupancy, allocation
/// totals, …), if tracing is enabled. Timeline viewers draw these as a
/// value-over-time track alongside the span rows.
pub fn counter_event(name: &str, value: u64) {
    if !tracing_enabled() {
        return;
    }
    push(TraceEvent {
        name: name.to_string(),
        parent: crate::span::current().unwrap_or_default(),
        detail: String::new(),
        start_us: since_epoch_us(),
        tid: current_tid(),
        kind: EventKind::Counter { value },
    });
}

/// Removes and returns all buffered events (order of insertion).
/// Recovers a poisoned buffer lock, like [`push`].
pub fn drain() -> Vec<TraceEvent> {
    std::mem::take(&mut *buffer().lock().unwrap_or_else(|e| e.into_inner()))
}

/// Number of events lost to the buffer cap since process start.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_records_only_when_tracing() {
        let _guard = crate::config::tests::test_guard();
        let prev = crate::configure(crate::TelemetryConfig::off());
        drain();
        event("trace_test.quiet", "");
        assert!(drain().iter().all(|e| e.name != "trace_test.quiet"));

        crate::configure(crate::TelemetryConfig::all());
        event("trace_test.loud", "payload");
        let events = drain();
        let ev = events.iter().find(|e| e.name == "trace_test.loud").unwrap();
        assert_eq!(ev.detail, "payload");
        assert_eq!(ev.kind, EventKind::Instant);
        crate::configure(prev);
    }

    #[test]
    fn buffer_survives_a_poisoned_lock() {
        let _guard = crate::config::tests::test_guard();
        let prev = crate::configure(crate::TelemetryConfig::all());
        drain();
        // Panic while holding the buffer lock: the guard drops during
        // unwind and poisons the mutex.
        let _ = std::panic::catch_unwind(|| {
            let _held = buffer().lock().unwrap();
            panic!("poison the trace buffer");
        });
        // Tracing keeps working: push and drain recover the lock.
        event("trace_test.after_poison", "");
        let events = drain();
        assert!(events.iter().any(|e| e.name == "trace_test.after_poison"));
        crate::configure(prev);
    }
}
