//! Runtime on/off switches for telemetry.
//!
//! Two independent gates:
//!
//! * **metrics** — counters, gauges, histograms, and span timing. On by
//!   default (the registry is cheap: one relaxed atomic per probe).
//! * **tracing** — the NDJSON event stream. Off by default because each
//!   span additionally allocates a [`crate::trace::TraceEvent`].
//!
//! Both sit behind the compile-time `enabled` feature: without it,
//! [`metrics_enabled`] and [`tracing_enabled`] are constant `false` and
//! guarded probes disappear entirely.

use std::sync::atomic::{AtomicBool, Ordering};

static METRICS: AtomicBool = AtomicBool::new(true);
static TRACING: AtomicBool = AtomicBool::new(false);

/// Declarative snapshot of the runtime gates, applied with
/// [`configure`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Record counters, gauges, histograms, and span durations.
    pub metrics: bool,
    /// Additionally buffer per-span/per-event trace records for NDJSON
    /// export. Implies nothing about `metrics`; the gates are
    /// independent.
    pub tracing: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            metrics: true,
            tracing: false,
        }
    }
}

impl TelemetryConfig {
    /// Everything on (metrics + tracing).
    pub fn all() -> Self {
        TelemetryConfig {
            metrics: true,
            tracing: true,
        }
    }

    /// Everything off: probes reduce to one never-taken branch.
    pub fn off() -> Self {
        TelemetryConfig {
            metrics: false,
            tracing: false,
        }
    }
}

/// Applies `cfg` process-wide, returning the previous configuration.
pub fn configure(cfg: TelemetryConfig) -> TelemetryConfig {
    TelemetryConfig {
        metrics: METRICS.swap(cfg.metrics, Ordering::Relaxed),
        tracing: TRACING.swap(cfg.tracing, Ordering::Relaxed),
    }
}

/// Current configuration (compile-time gate folded in).
pub fn current() -> TelemetryConfig {
    TelemetryConfig {
        metrics: metrics_enabled(),
        tracing: tracing_enabled(),
    }
}

/// Whether metric probes should record. Constant `false` when built
/// without the `enabled` feature; otherwise one relaxed load.
#[inline(always)]
pub fn metrics_enabled() -> bool {
    cfg!(feature = "enabled") && METRICS.load(Ordering::Relaxed)
}

/// Whether trace events should be buffered. Constant `false` when built
/// without the `enabled` feature; otherwise one relaxed load.
#[inline(always)]
pub fn tracing_enabled() -> bool {
    cfg!(feature = "enabled") && TRACING.load(Ordering::Relaxed)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Serializes tests that mutate the process-global gates or trace
    /// buffer (the default test runner is multi-threaded).
    pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
        use std::sync::{Mutex, OnceLock};
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let lock = LOCK.get_or_init(|| Mutex::new(()));
        lock.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn configure_round_trips() {
        let _guard = test_guard();
        let prev = configure(TelemetryConfig::all());
        assert!(metrics_enabled());
        assert!(tracing_enabled());
        configure(TelemetryConfig::off());
        assert!(!metrics_enabled());
        assert!(!tracing_enabled());
        configure(prev);
    }
}
