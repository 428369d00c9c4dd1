//! Constant folding over the real workloads: semantics, verification,
//! and elision soundness must all be preserved.

use wbe_repro::harness::site::compile_workload_with;
use wbe_repro::interp::{BarrierConfig, BarrierMode, Interp, Value};
use wbe_repro::opt::{OptMode, PipelineConfig};
use wbe_repro::workloads::standard_suite;

#[test]
fn folding_preserves_workload_semantics_and_elision() {
    for w in standard_suite() {
        let iters = (w.default_iters / 20).max(32);
        let run = |fold: bool| {
            let mut cfg = PipelineConfig::new(OptMode::Full, 100);
            cfg.fold = fold;
            let (compiled, elided) = compile_workload_with(&w, &cfg);
            compiled.program.validate().unwrap();
            let bc = BarrierConfig::with_elision(BarrierMode::Checked, elided);
            let mut interp = Interp::new(&compiled.program, bc);
            interp
                .run(w.entry, &[Value::Int(iters)], w.fuel_for(iters))
                .unwrap_or_else(|t| panic!("{} (fold={fold}): {t}", w.name));
            (
                interp.heap.stats.allocations,
                interp.heap.store.live_count(),
                interp
                    .stats
                    .barrier
                    .summarize(&interp.config().elided.clone())
                    .total(),
            )
        };
        let plain = run(false);
        let folded = run(true);
        assert_eq!(plain.0, folded.0, "{}: allocations differ", w.name);
        assert_eq!(plain.1, folded.1, "{}: live counts differ", w.name);
        assert_eq!(plain.2, folded.2, "{}: barrier counts differ", w.name);
    }
}

#[test]
fn folding_shrinks_workload_code() {
    for w in standard_suite() {
        let plain = compile_workload_with(&w, &PipelineConfig::new(OptMode::Full, 100)).0;
        let mut cfg = PipelineConfig::new(OptMode::Full, 100);
        cfg.fold = true;
        let folded = compile_workload_with(&w, &cfg).0;
        assert!(
            folded.program.total_size() <= plain.program.total_size(),
            "{}",
            w.name
        );
    }
}
