//! Shared compile-and-run plumbing for the experiments.

use wbe_heap::gc::MarkStyle;
use wbe_interp::{
    BarrierConfig, BarrierMode, BarrierSummary, ElidedBarriers, GcPolicy, Interp, RunStats, Value,
};
use wbe_opt::{compile, Compiled, OptMode, PipelineConfig};

use wbe_workloads::Workload;

/// One compiled-and-executed workload.
#[derive(Debug)]
pub struct WorkloadRun {
    /// Workload name.
    pub name: &'static str,
    /// Compilation artifacts (inlined program + analysis).
    pub compiled: Compiled,
    /// The elision set derived from the analysis.
    pub elided: ElidedBarriers,
    /// Interpreter statistics.
    pub stats: RunStats,
    /// Collector statistics for the run's heap.
    pub gc: wbe_heap::gc::GcStats,
    /// Dynamic barrier summary against the elision set.
    pub summary: BarrierSummary,
}

/// Compiles `w` under the given mode/limit and returns the artifacts
/// plus the elision set.
pub fn compile_workload(
    w: &Workload,
    mode: OptMode,
    inline_limit: usize,
) -> (Compiled, ElidedBarriers) {
    compile_workload_with(w, &PipelineConfig::new(mode, inline_limit))
}

/// Like [`compile_workload`] but with a full pipeline config, combining
/// pre-null and null-or-same elisions (each tagged with its oracle).
pub fn compile_workload_with(w: &Workload, config: &PipelineConfig) -> (Compiled, ElidedBarriers) {
    let compiled = compile(&w.program, config);
    let mut elided: ElidedBarriers = compiled.elided_sites().into_iter().collect();
    for (m, a) in compiled.null_or_same_sites() {
        elided.insert_kind(m, a, wbe_interp::ElisionKind::NullOrSame);
    }
    (compiled, elided)
}

/// Compiles and runs one workload.
///
/// The interpreter runs with elision *enabled*, which both skips elided
/// barriers and arms the soundness oracle (a non-null pre-value at an
/// elided site traps).
///
/// # Panics
///
/// Panics if the workload traps — in this reproduction that always
/// indicates a bug (most importantly, an unsound elision).
pub fn run_workload(
    w: &Workload,
    mode: OptMode,
    inline_limit: usize,
    iters: i64,
    barrier_mode: BarrierMode,
    style: MarkStyle,
    gc: Option<GcPolicy>,
) -> WorkloadRun {
    let (compiled, elided) = compile_workload(w, mode, inline_limit);
    let config = BarrierConfig::with_elision(barrier_mode, elided.clone());
    let mut interp = Interp::with_style(&compiled.program, config, style);
    if let Some(policy) = gc {
        interp.set_gc_policy(policy);
    }
    interp
        .run(w.entry, &[Value::Int(iters)], w.fuel_for(iters))
        .unwrap_or_else(|t| panic!("workload {} trapped: {t}", w.name));
    let summary = interp.stats.barrier.summarize(&elided);
    WorkloadRun {
        name: w.name,
        gc: interp.heap.gc.stats,
        stats: interp.stats,
        compiled,
        elided,
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbe_workloads::by_name;

    #[test]
    fn jess_runs_end_to_end_with_elision_oracle() {
        let w = by_name("jess").unwrap();
        let run = run_workload(
            &w,
            OptMode::Full,
            100,
            128,
            BarrierMode::Checked,
            MarkStyle::Satb,
            None,
        );
        assert!(run.summary.total() > 0);
        assert!(run.summary.eliminated() > 0, "jess must elide barriers");
        assert!(run.stats.elided_executions > 0);
    }
}
