#![warn(missing_docs)]

//! Unified telemetry for the write-barrier-elision reproduction.
//!
//! Every layer of the system — analysis, optimizer, interpreter, heap,
//! harness — reports into one process-global sink, so a single export
//! captures the whole pipeline. Three primitives:
//!
//! * a **metrics registry** ([`registry`]): named counters, gauges, and
//!   log₂-bucketed histograms backed by atomics. Handles are cheap
//!   clones; hot paths resolve a handle once and bump it lock-free.
//! * **hierarchical phase spans** ([`span`](mod@span)): RAII guards measuring
//!   monotonic wall time with parent attribution via a thread-local
//!   stack. Durations land in `span.<name>` histograms; when event
//!   tracing is on, each span also appends a [`trace::TraceEvent`].
//! * **exporters** ([`export`]): human-readable report, JSON metrics
//!   snapshot, and NDJSON trace stream — the formats behind
//!   `wbe_tool report --metrics-out/--trace-out` and the repo's
//!   `BENCH_*.json` trajectory.
//!
//! # Cost model
//!
//! The crate is zero-cost when disabled, at two levels:
//!
//! * **feature flag**: building with `--no-default-features` (dropping
//!   the `enabled` feature) turns [`metrics_enabled`] into a constant
//!   `false`; guarded probes are dead-code-eliminated.
//! * **runtime config** ([`TelemetryConfig`]): one relaxed atomic-bool
//!   load gates every probe, so `configure(TelemetryConfig::off())`
//!   reduces instrumentation to a predictable never-taken branch.
//!
//! Hot loops (the interpreter) additionally keep their plain-struct
//! statistics (`RunStats`, `GcStats`, …) and publish *deltas* into the
//! registry at run boundaries through one [`Deltas`] each, so
//! per-instruction work never touches an atomic regardless of
//! configuration. Those structs remain the façade; the registry is the
//! export path.
//!
//! # Example
//!
//! ```
//! use wbe_telemetry as telemetry;
//!
//! let _span = telemetry::span!("example.phase", "item {}", 7);
//! telemetry::counter("example.widgets").add(3);
//! telemetry::histogram("example.latency_us").record(120);
//! drop(_span);
//!
//! let snap = telemetry::registry::global().snapshot();
//! assert_eq!(snap.counter("example.widgets"), Some(3));
//! let json = telemetry::export::metrics_json(&snap);
//! assert!(json.contains("example.widgets"));
//! ```

pub mod config;
pub mod export;
pub mod json;
pub mod registry;
pub mod span;
pub mod trace;

pub use config::{configure, metrics_enabled, tracing_enabled, TelemetryConfig};
pub use registry::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
pub use span::SpanGuard;
pub use trace::TraceEvent;

/// Resolves (registering on first use) a counter in the global registry.
///
/// With metrics disabled this returns a *detached* handle instead: it
/// has no cell, so writes are dropped and it reads 0 (even once metrics
/// are on), and neither the registry (no lock, no name registration)
/// nor the allocator is touched. A long-lived holder
/// that must survive `configure` flips should re-resolve lazily at use
/// time rather than caching a handle obtained while disabled.
pub fn counter(name: &str) -> Counter {
    if metrics_enabled() {
        registry::global().counter(name)
    } else {
        Counter::detached()
    }
}

/// Mirrors `N` cumulative counts, kept in a plain struct, into global
/// registry counters by adding what each grew since the last publish.
///
/// All `N` handles are resolved on the first publish made while
/// metrics are on, so a counter that is still zero is registered all
/// the same. While metrics are off a publish touches neither the
/// registry nor `last`, so the whole delta lands on the next enabled
/// publish. Until then the holder carries one null pointer.
#[derive(Clone, Debug, Default)]
pub struct Deltas<const N: usize> {
    resolved: Option<Box<Resolved<N>>>,
}

#[derive(Clone, Debug)]
struct Resolved<const N: usize> {
    last: [u64; N],
    counters: [Counter; N],
}

impl<const N: usize> Deltas<N> {
    /// Adds `now − last` to each named counter, then records `now`.
    /// Every call names the same counters in the same order, and no
    /// count is below the one last published.
    pub fn publish(&mut self, now: [(&'static str, u64); N]) {
        if !metrics_enabled() {
            return;
        }
        let Resolved { last, counters } = &mut **self.resolved.get_or_insert_with(|| {
            Box::new(Resolved {
                last: [0; N],
                counters: now.map(|(name, _)| registry::global().counter(name)),
            })
        });
        for ((counter, last), (_, v)) in counters.iter().zip(last).zip(now) {
            counter.add(v - *last);
            *last = v;
        }
    }

    /// The counts the last enabled publish recorded, in entry order.
    pub fn last(&self) -> [u64; N] {
        self.resolved.as_ref().map_or([0; N], |r| r.last)
    }
}

/// Resolves (registering on first use) a gauge in the global registry.
/// Detached when metrics are disabled; see [`counter`].
pub fn gauge(name: &str) -> Gauge {
    if metrics_enabled() {
        registry::global().gauge(name)
    } else {
        Gauge::detached()
    }
}

/// Resolves (registering on first use) a histogram in the global
/// registry. Detached when metrics are disabled; see [`counter`].
pub fn histogram(name: &str) -> Histogram {
    if metrics_enabled() {
        registry::global().histogram(name)
    } else {
        Histogram::detached()
    }
}

/// Opens a phase span: `span!("analysis.fixpoint")` or, with a detail
/// payload, `span!("analysis.fixpoint", "method {m}")`. Returns a
/// [`SpanGuard`]; the span closes (and is recorded) when the guard
/// drops. Bind it — `let _span = span!(...)` — or it closes immediately.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name, ::std::string::String::new())
    };
    ($name:expr, $($detail:tt)+) => {
        // The detail payload is formatted only when telemetry is on, so
        // a disabled probe costs one branch, not an allocation.
        if $crate::metrics_enabled() || $crate::tracing_enabled() {
            $crate::span::enter($name, format!($($detail)+))
        } else {
            $crate::span::noop()
        }
    };
}

/// Records an instant trace event: `event!("sched.epoch.arm", "step
/// {n}")`. Like [`span!`], the payload is formatted only when tracing
/// is on, so a disabled probe costs one branch, not an allocation.
#[macro_export]
macro_rules! event {
    ($name:expr, $($detail:tt)+) => {
        if $crate::tracing_enabled() {
            $crate::trace::event($name, format!($($detail)+));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_counter_span_export() {
        let _guard = config::tests::test_guard();
        configure(TelemetryConfig::all());
        trace::drain();
        {
            let _outer = span!("test.outer");
            let _inner = span!("test.inner", "detail {}", 1);
            counter("test.lib.events").inc();
        }
        let snap = registry::global().snapshot();
        assert!(snap.counter("test.lib.events").unwrap_or(0) >= 1);
        let spans: Vec<_> = snap.span_names().collect();
        assert!(spans.iter().any(|s| s == "test.outer"), "{spans:?}");
        let events = trace::drain();
        let inner = events.iter().find(|e| e.name == "test.inner").unwrap();
        assert_eq!(inner.parent, "test.outer");
    }

    #[test]
    fn deltas_add_growth_and_hold_it_while_metrics_are_off() {
        let _guard = config::tests::test_guard();
        let names = ["test.deltas.a", "test.deltas.zero"];
        let get = |name| registry::global().snapshot().counter(name);
        let mut d = Deltas::default();
        configure(TelemetryConfig::off());
        d.publish([(names[0], 5), (names[1], 0)]);
        assert_eq!(get(names[0]), None, "off: nothing registered");
        assert_eq!(d.last(), [0, 0]);
        configure(TelemetryConfig::all());
        d.publish([(names[0], 7), (names[1], 0)]);
        assert_eq!(get(names[0]), Some(7), "the held delta lands whole");
        assert_eq!(get(names[1]), Some(0), "a zero count is registered");
        d.publish([(names[0], 10), (names[1], 2)]);
        assert_eq!((get(names[0]), get(names[1])), (Some(10), Some(2)));
        assert_eq!(d.last(), [10, 2]);
    }
}
