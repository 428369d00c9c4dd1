//! End-to-end integration: every workload through the full pipeline
//! (inline → analyze → elide → execute) with the soundness oracle and
//! policy-driven garbage collection, under both marker styles.

use wbe_repro::harness::site::{compile_workload_with, observe, Observed, RunSpec};
use wbe_repro::heap::gc::MarkStyle;
use wbe_repro::interp::{BarrierConfig, BarrierMode, GcPolicy, Interp, Value};
use wbe_repro::opt::{OptMode, PipelineConfig};
use wbe_repro::workloads::{standard_suite, Workload};

/// A marking schedule dense enough that every workload cycles.
const BUSY_GC: GcPolicy = GcPolicy {
    alloc_trigger: 50,
    step_interval: 32,
    step_budget: 8,
};

/// Runs `w` under `spec`, failing the test on a trap.
fn run(w: &Workload, spec: &RunSpec) -> Observed {
    observe(w, spec)
        .completed()
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The whole suite runs clean with elision armed and SATB GC active.
#[test]
fn suite_with_elision_and_satb_gc() {
    let spec = RunSpec {
        scale: 0.1,
        min_iters: 64,
        gc: Some(BUSY_GC),
        ..RunSpec::paper(OptMode::Full, 100)
    };
    for w in standard_suite() {
        let run = run(&w, &spec);
        assert!(run.summary().total() > 0, "{}", w.name);
        assert!(
            run.stats.gc_cycles > 0,
            "{}: GC should cycle at this scale",
            w.name
        );
        // Elided executions actually happened (the fast path is real).
        assert!(run.stats.elided_executions > 0, "{}", w.name);
    }
}

/// The same runs complete under the incremental-update marker (whose
/// barrier is card-marking; elision does not apply, but execution and
/// collection must stay correct).
#[test]
fn suite_with_incremental_update_gc() {
    let spec = RunSpec {
        scale: 0.05,
        min_iters: 32,
        style: MarkStyle::IncrementalUpdate,
        gc: Some(BUSY_GC),
        ..RunSpec::paper(OptMode::Baseline, 100)
    };
    for w in standard_suite() {
        assert!(run(&w, &spec).stats.gc_cycles > 0, "{}", w.name);
    }
}

/// Elision must never change program results: run jess twice (all
/// barriers vs elided barriers) and compare heap-observable outcomes.
#[test]
fn elision_is_semantically_transparent() {
    let w = wbe_repro::workloads::by_name("jess").unwrap();
    let iters = 200;

    let run_with = |elide: bool| {
        let cfg = PipelineConfig::new(OptMode::Full, 100);
        let (compiled, elided) = compile_workload_with(&w, &cfg);
        let bc = if elide {
            BarrierConfig::with_elision(BarrierMode::Checked, elided)
        } else {
            BarrierConfig::new(BarrierMode::Checked)
        };
        let mut interp = Interp::new(&compiled.program, bc);
        interp
            .run(w.entry, &[Value::Int(iters)], w.fuel_for(iters))
            .unwrap();
        (
            interp.heap.stats.allocations,
            interp.heap.store.live_count(),
            interp.stats.insns,
        )
    };
    assert_eq!(run_with(false), run_with(true));
}

/// The combined pre-null + null-or-same set stays sound across the
/// suite (the oracle validates each elided execution's proof).
#[test]
fn combined_elisions_pass_the_oracle() {
    let spec = RunSpec {
        pipeline: PipelineConfig::new(OptMode::Full, 100).with_null_or_same(),
        scale: 0.1,
        min_iters: 32,
        gc: Some(GcPolicy::default()),
        ..RunSpec::paper(OptMode::Full, 100)
    };
    for w in standard_suite() {
        run(&w, &spec);
    }
}

/// Method ids survive inlining, so the workload entry point is stable.
#[test]
fn entry_points_stable_across_pipeline() {
    for w in standard_suite() {
        let (compiled, _) = compile_workload_with(&w, &PipelineConfig::new(OptMode::Full, 100));
        let name_before = w.program.method(w.entry).name.clone();
        let name_after = compiled.program.method(w.entry).name.clone();
        assert_eq!(name_before, name_after);
        compiled.program.validate().unwrap();
    }
}

/// Every workload is verifier-clean (ids, stack heights, and types),
/// before and after inlining.
#[test]
fn workloads_pass_the_full_verifier() {
    for w in standard_suite() {
        w.program
            .validate()
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let (compiled, _) = compile_workload_with(&w, &PipelineConfig::new(OptMode::Full, 100));
        compiled
            .program
            .validate()
            .unwrap_or_else(|e| panic!("{} (inlined): {e}", w.name));
    }
}

/// The paper's own correctness check (§4.2): "our analysis should only
/// eliminate barriers at potentially pre-null store sites!" — every
/// statically elided site must be dynamically always-pre-null.
#[test]
fn elided_sites_are_potentially_pre_null() {
    let spec = RunSpec {
        scale: 0.1,
        min_iters: 64,
        ..RunSpec::paper(OptMode::Full, 100)
    };
    for w in standard_suite() {
        let run = run(&w, &spec);
        for ((mid, addr, _), site) in run.stats.barrier.iter() {
            if run.elided.contains(*mid, *addr) {
                assert!(
                    site.potentially_pre_null(),
                    "{}: elided site {mid}@{addr} saw a non-null pre-value",
                    w.name
                );
            }
        }
    }
}
