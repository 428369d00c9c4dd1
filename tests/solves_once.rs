//! The registry's proof that each method's fixed point is solved once:
//! `analysis.fixpoint.blocks_processed` grows by exactly the iterations
//! the results report. Alone in its file (hence its own process), so no
//! other test's analyses move the process-global counter.

use wbe_repro::opt::{compile, OptMode, PipelineConfig};
use wbe_repro::telemetry::{configure, counter, TelemetryConfig};

#[test]
fn each_fixed_point_is_solved_once() {
    configure(TelemetryConfig::default());
    let blocks = counter("analysis.fixpoint.blocks_processed");
    let jbb = wbe_repro::workloads::by_name("jbb").expect("suite program");

    // `compile` with the ledger on: one solve per method, not one for
    // the analysis and one for the ledger.
    let before = blocks.get();
    let pipeline = PipelineConfig::new(OptMode::Full, 100)
        .with_null_or_same()
        .with_ledger();
    let compiled = compile(&jbb.program, &pipeline);
    let added = blocks.get() - before;
    let analysis = compiled.analysis.as_ref().expect("analysis ran");
    let iterations: usize = analysis.methods.values().map(|m| m.iterations).sum();
    assert!(iterations > 0);
    assert_eq!(added, iterations as u64, "compile(.. with_ledger())");
    assert!(compiled.ledger.is_some());

    // `clients::run`: bounds-check removal and stack allocation read
    // one solve of each method, beside the one its `compile` makes.
    let expected: u64 = wbe_repro::workloads::standard_suite()
        .iter()
        .map(|w| {
            let compiled = compile(&w.program, &PipelineConfig::new(OptMode::Full, 100));
            let analysis = compiled.analysis.expect("analysis ran");
            let iterations: usize = analysis.methods.values().map(|m| m.iterations).sum();
            2 * iterations as u64
        })
        .sum();
    let before = blocks.get();
    let report = wbe_repro::harness::clients::run();
    assert_eq!(blocks.get() - before, expected, "clients::run");
    assert!(report.rows.iter().any(|r| r.bounds_safe > 0));
}
