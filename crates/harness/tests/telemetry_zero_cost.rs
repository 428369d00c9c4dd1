//! Hot-loop telemetry audit: with telemetry disabled, a full run under
//! either engine must make *no* registry calls at all.
//!
//! The registry registers a metric lazily on first touch, so an empty
//! snapshot after a disabled run is a proof that the hot loop (and the
//! run-boundary publish) never reached `counter()`/`gauge()`/
//! `histogram()` — not merely that the values stayed zero. The per-insn
//! counters live in the engines' plain `RunStats`/`Counts` structs and
//! are folded into the registry only by an explicit, gated
//! `publish_metrics`; this test is the regression gate for that
//! contract.
//!
//! Lives in its own integration-test file so it owns the process: no
//! other test can touch the process-global registry first.

use wbe_harness::site::compile_workload_with;
use wbe_heap::gc::MarkStyle;
use wbe_interp::{BarrierConfig, BarrierMode, EngineKind, GcPolicy, Value};
use wbe_opt::{OptMode, PipelineConfig};

#[test]
fn disabled_telemetry_makes_no_registry_calls() {
    wbe_telemetry::configure(wbe_telemetry::TelemetryConfig::off());

    let w = wbe_workloads::by_name("db").expect("db is a standard workload");
    let cfg = PipelineConfig::new(OptMode::Full, 100);
    let (compiled, elided) = compile_workload_with(&w, &cfg);
    let iters = ((w.default_iters as f64 * 0.05) as i64).max(8);

    for kind in [EngineKind::Classic, EngineKind::Compiled] {
        let config = BarrierConfig::with_elision(BarrierMode::Checked, elided.clone());
        let mut engine = kind.build(&compiled.program, config, MarkStyle::Satb);
        engine.set_gc_policy(GcPolicy {
            alloc_trigger: 400,
            step_interval: 32,
            step_budget: 4,
        });
        engine
            .run(w.entry, &[Value::Int(iters)], w.fuel_for(iters))
            .unwrap_or_else(|t| panic!("{}: trapped: {t}", kind.name()));
        // The run-boundary publish is the one place the engines talk to
        // the registry; it must bail out before resolving any metric.
        engine.publish_metrics();
        assert!(engine.stats().insns > 0, "{}: ran nothing", kind.name());
    }

    let snap = wbe_telemetry::registry::global().snapshot();
    assert!(
        snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty(),
        "disabled run touched the registry: counters {:?}, gauges {:?}, histograms {:?}",
        snap.counters.keys().collect::<Vec<_>>(),
        snap.gauges.keys().collect::<Vec<_>>(),
        snap.histograms.keys().collect::<Vec<_>>(),
    );

    // Sanity check on the proof technique: with metrics re-enabled the
    // very same publish path does register — the emptiness above can't
    // be explained by publish_metrics being a no-op in this build.
    wbe_telemetry::configure(wbe_telemetry::TelemetryConfig {
        metrics: true,
        tracing: false,
    });
    let config = BarrierConfig::with_elision(BarrierMode::Checked, elided.clone());
    let mut engine = EngineKind::Compiled.build(&compiled.program, config, MarkStyle::Satb);
    engine
        .run(w.entry, &[Value::Int(iters)], w.fuel_for(iters))
        .unwrap_or_else(|t| panic!("enabled run trapped: {t}"));
    let snap = wbe_telemetry::registry::global().snapshot();
    assert!(
        snap.counter("interp.insns").is_some_and(|v| v > 0),
        "enabled control run registered nothing — the proof above is vacuous"
    );
}
