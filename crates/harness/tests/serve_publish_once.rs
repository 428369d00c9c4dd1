//! `wbe_tool serve` mirrors its run's `serve.*` counters into the
//! process-global telemetry registry exactly once. The registry is
//! shared by every test of a binary, so the one test that compares its
//! deltas with a run's own counters lives alone in this file: nothing
//! else publishes while it looks.

use wbe_harness::serve::{run_serve_cmd, ServeOptions};

#[test]
fn serve_counters_reach_the_registry_once() {
    let before = wbe_telemetry::registry::global().snapshot();
    let report = run_serve_cmd(&ServeOptions::default());
    let after = wbe_telemetry::registry::global().snapshot();
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    let c = &report.outcome.counters;
    assert!(c.steps > 0 && c.offered > 0, "the run did work");
    assert_eq!(delta("serve.steps"), c.steps);
    assert_eq!(delta("serve.requests.offered"), c.offered);
}
