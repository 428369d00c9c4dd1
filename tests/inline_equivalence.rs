//! Inlining must preserve workload semantics: runs at inline limit 0
//! and 100 reach the same final heap, modulo GC scheduling.

use wbe_repro::harness::site::compile_workload_with;
use wbe_repro::heap::verify::reachable_set;
use wbe_repro::interp::{BarrierConfig, BarrierMode, Interp, Value};
use wbe_repro::opt::{OptMode, PipelineConfig};
use wbe_repro::workloads::standard_suite;

#[test]
fn inlining_preserves_workload_heaps() {
    for w in standard_suite() {
        let iters = (w.default_iters / 20).max(32);
        let run = |limit: usize| {
            let (compiled, _) =
                compile_workload_with(&w, &PipelineConfig::new(OptMode::Baseline, limit));
            let mut interp =
                Interp::new(&compiled.program, BarrierConfig::new(BarrierMode::Checked));
            interp
                .run(w.entry, &[Value::Int(iters)], w.fuel_for(iters))
                .unwrap_or_else(|t| panic!("{} @ limit {limit}: {t}", w.name));
            let roots = interp.heap.static_roots();
            let reachable: Vec<_> = reachable_set(&interp.heap, &roots).into_iter().collect();
            (interp.heap.stats.allocations, reachable)
        };
        assert_eq!(run(0), run(100), "{}", w.name);
    }
}

#[test]
fn inlining_preserves_barrier_execution_counts() {
    // Inlining changes *which site* executes a store, never whether it
    // executes: total dynamic barrier counts are invariant.
    for w in standard_suite() {
        let iters = (w.default_iters / 20).max(32);
        let count = |limit: usize| {
            let (compiled, _) =
                compile_workload_with(&w, &PipelineConfig::new(OptMode::Baseline, limit));
            let mut interp =
                Interp::new(&compiled.program, BarrierConfig::new(BarrierMode::Checked));
            interp
                .run(w.entry, &[Value::Int(iters)], w.fuel_for(iters))
                .unwrap();
            interp
                .stats
                .barrier
                .summarize(&wbe_repro::interp::ElidedBarriers::new())
                .total()
        };
        assert_eq!(count(0), count(100), "{}", w.name);
        assert_eq!(count(25), count(200), "{}", w.name);
    }
}
