//! The registry's proof that each method's fixed point is solved once:
//! `analysis.fixpoint.blocks_processed` grows by exactly the iterations
//! the results report. Alone in its file (hence its own process), so no
//! other test's analyses move the process-global counter.

use wbe_repro::analysis::{analyze_program, AnalysisConfig, Framework};
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

    // `Framework::analyze`: elision, bounds and stack allocation all
    // read the one solve.
    for config in [
        AnalysisConfig::full(),
        AnalysisConfig {
            flow_sensitive_escape: false,
            ..AnalysisConfig::full()
        },
    ] {
        let expected: usize = analyze_program(&compiled.program, &config)
            .methods
            .values()
            .map(|m| m.iterations)
            .sum();
        let before = blocks.get();
        let framework = Framework::analyze(&compiled.program, &config);
        assert_eq!(blocks.get() - before, expected as u64, "{config:?}");
        assert!(!framework.all_elided().is_empty());
    }
}
