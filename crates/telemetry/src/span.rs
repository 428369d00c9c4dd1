//! Hierarchical phase spans.
//!
//! A span measures one phase of work (`analysis.fixpoint`,
//! `heap.gc.remark`, …) with monotonic wall time. Spans nest: a
//! thread-local stack supplies each span's parent, so trace events
//! reconstruct the phase tree without the caller threading context.
//!
//! Durations are recorded into the global registry as histograms named
//! `span.<name>.us`; with tracing on, closing a span also appends a
//! [`TraceEvent`](crate::trace::TraceEvent).

use std::cell::RefCell;
use std::time::Instant;

use crate::config::{metrics_enabled, tracing_enabled};
use crate::trace;

thread_local! {
    static STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for an open span; the span closes when this drops.
/// Created by [`enter`] or the [`span!`](crate::span!) macro.
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

struct OpenSpan {
    name: String,
    detail: String,
    parent: String,
    start: Instant,
    start_us: u64,
}

/// An inert guard that records nothing on drop. Used by the
/// [`span!`](crate::span!) macro's disabled fast path.
pub fn noop() -> SpanGuard {
    SpanGuard { open: None }
}

/// Opens a span named `name` with an optional human-readable `detail`
/// payload (method name, workload, …). Prefer the
/// [`span!`](crate::span!) macro, which formats the detail lazily only
/// when telemetry is on.
pub fn enter(name: &str, detail: String) -> SpanGuard {
    if !metrics_enabled() && !tracing_enabled() {
        return SpanGuard { open: None };
    }
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().cloned().unwrap_or_default();
        s.push(name.to_string());
        parent
    });
    SpanGuard {
        open: Some(OpenSpan {
            name: name.to_string(),
            detail,
            parent,
            start: Instant::now(),
            start_us: trace::since_epoch_us(),
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let dur = open.start.elapsed();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Tolerate out-of-order drops: remove the matching frame
            // closest to the top rather than blindly popping.
            if let Some(pos) = s.iter().rposition(|n| *n == open.name) {
                s.remove(pos);
            }
        });
        if metrics_enabled() {
            crate::registry::global()
                .histogram(&format!("span.{}.us", open.name))
                .record_duration(dur);
        }
        if tracing_enabled() {
            trace::push(trace::TraceEvent {
                name: open.name,
                parent: open.parent,
                detail: open.detail,
                start_us: open.start_us,
                dur_us: dur.as_micros().min(u64::MAX as u128) as u64,
                tid: trace::current_tid(),
                value: None,
            });
        }
    }
}

impl SpanGuard {
    /// Whether this guard is actually recording (false when telemetry
    /// was fully disabled at `enter` time).
    pub fn is_recording(&self) -> bool {
        self.open.is_some()
    }
}

/// Name of the innermost open span on this thread, if any. Useful for
/// point events that want parent attribution.
pub fn current() -> Option<String> {
    STACK.with(|s| s.borrow().last().cloned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_tracks_parents() {
        let _guard = crate::config::tests::test_guard();
        crate::configure(crate::TelemetryConfig::all());
        trace::drain();
        {
            let _a = enter("span_test.a", String::new());
            assert_eq!(current().as_deref(), Some("span_test.a"));
            {
                let _b = enter("span_test.b", "x".into());
                assert_eq!(current().as_deref(), Some("span_test.b"));
            }
            assert_eq!(current().as_deref(), Some("span_test.a"));
        }
        let events = trace::drain();
        let b = events.iter().find(|e| e.name == "span_test.b").unwrap();
        assert_eq!(b.parent, "span_test.a");
        assert_eq!(b.detail, "x");
        let a = events.iter().find(|e| e.name == "span_test.a").unwrap();
        assert_eq!(a.parent, "");
        // The inner span closed first, so events are ordered b then a.
        assert!(a.start_us <= b.start_us);
        let snap = crate::registry::global().snapshot();
        assert!(snap.histogram("span.span_test.a.us").unwrap().count >= 1);
    }

    #[test]
    fn disabled_span_is_inert() {
        let _guard = crate::config::tests::test_guard();
        let prev = crate::configure(crate::TelemetryConfig::off());
        let g = enter("span_test.quiet", String::new());
        assert!(!g.is_recording());
        assert_eq!(current(), None);
        drop(g);
        crate::configure(prev);
    }
}
