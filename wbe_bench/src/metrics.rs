//! The benchmark's schema: workloads, end-to-end metrics, per-layer
//! metrics, and — written down before anything is measured — which
//! end-to-end metric each per-layer metric is expected to move, and on
//! which workload. Everywhere a pairing is not listed the prediction is
//! *no change*.
//!
//! `BENCHMARK.json` at the repository root lists the same names;
//! `tests/schema.rs` pins the two against each other in both
//! directions.

/// Version of the emitted JSON. Bump on any change to a name, a unit,
/// or the shape of the file.
pub const SCHEMA_VERSION: u64 = 1;

/// The seed used when `--seed` is not given; the committed baseline
/// and `expected/digests.json` are for this seed.
pub const DEFAULT_SEED: u64 = 2005;

/// Workload names. Final: later issues cite them.
pub const COMPILE_SWEEP: &str = "compile-sweep";
/// See [`COMPILE_SWEEP`].
pub const MUTATOR_STEADY: &str = "mutator-steady";
/// See [`COMPILE_SWEEP`].
pub const MUTATOR_CHURN: &str = "mutator-churn";
/// See [`COMPILE_SWEEP`].
pub const COLLECTOR_CYCLE: &str = "collector-cycle";
/// See [`COMPILE_SWEEP`].
pub const SERVE_OPEN_LOOP: &str = "serve-open-loop";

/// A workload and the one-line reason it was chosen.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadDef {
    /// Name.
    pub name: &'static str,
    /// Why it is in the benchmark.
    pub why: &'static str,
}

/// The five workloads, in run order.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: COMPILE_SWEEP,
        why: "Fig. 2's axis: 8 programs x 5 inline limits x 2 modes through compile+translate; wbe-opt, wbe-analysis and translate do all the work, engines and heap none",
    },
    WorkloadDef {
        name: MUTATOR_STEADY,
        why: "jbb, db, javac, mtrt on both engines with live heaps under 3.2k slots: dispatch plus barrier is >= 90% of wall; the bypass workload for collector changes",
    },
    WorkloadDef {
        name: MUTATOR_CHURN,
        why: "server-churn plus two wide server members on both engines: policy-driven collection costs a fifth to a third of wall, so collector or allocator changes show through the interpreter",
    },
    WorkloadDef {
        name: COLLECTOR_CYCLE,
        why: "wbe-heap driven directly over 200k-object graphs, {SATB, incremental-update} x {live-heavy, garbage-heavy}: the collector is all of the work at a heap 60x any IR workload's",
    },
    WorkloadDef {
        name: SERVE_OPEN_LOOP,
        why: "run_serve open loop: a five-rate ladder against a p99 limit plus the stock overload config; the only workload where sched, safepoint and pressure do work",
    },
];

const ALL: &[&str] = &[
    COMPILE_SWEEP,
    MUTATOR_STEADY,
    MUTATOR_CHURN,
    COLLECTOR_CYCLE,
    SERVE_OPEN_LOOP,
];
const MUTATORS: &[&str] = &[MUTATOR_STEADY, MUTATOR_CHURN];
const HEAPED: &[&str] = &[
    MUTATOR_STEADY,
    MUTATOR_CHURN,
    COLLECTOR_CYCLE,
    SERVE_OPEN_LOOP,
];
const SWEEP: &[&str] = &[COMPILE_SWEEP];
const COLLECTOR: &[&str] = &[COLLECTOR_CYCLE];
const SERVE: &[&str] = &[SERVE_OPEN_LOOP];
const CHURN: &[&str] = &[MUTATOR_CHURN];

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// A larger value is better.
    Higher,
    /// A smaller value is better.
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: something a user of the system would see.
#[derive(Clone, Copy, Debug)]
pub struct EndToEndDef {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
    /// Share of the other run's median by which the median may worsen
    /// before it is a regression. 0 for counts the program produces
    /// deterministically: they repeat exactly at a given seed.
    pub bound: f64,
    /// The workloads it is defined on.
    pub workloads: &'static [&'static str],
}

impl EndToEndDef {
    /// Defined on every workload and never zero: these are the metrics
    /// `BENCHMARK.json` lists under `end_to_end`, which the acceptance
    /// driver reads on every workload and bounds across seeds.
    pub fn universal(&self) -> bool {
        self.workloads.len() == ALL.len() && self.name != "fail_ratio"
    }

    /// Whether the metric is defined on `workload`.
    pub fn on(&self, workload: &str) -> bool {
        self.workloads.contains(&workload)
    }
}

use Better::{Higher, Lower};

/// Bound of every timed metric. The reference box is a shared 2-vCPU
/// VM whose speed drifts by 10-40 % for seconds at a time; ten runs of
/// one commit spread by 4-11 % (README, *Noise floor*), so a tighter
/// bound would sit inside the noise.
const TIMED_BOUND: f64 = 0.25;

/// The 16 end-to-end metrics.
pub const END_TO_END: [EndToEndDef; 16] = [
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: TIMED_BOUND,
        workloads: ALL,
    },
    EndToEndDef {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: TIMED_BOUND,
        workloads: ALL,
    },
    EndToEndDef {
        name: "ops_per_s",
        unit: "op/s",
        better: Higher,
        bound: TIMED_BOUND,
        workloads: ALL,
    },
    EndToEndDef {
        name: "classic_ops_per_s",
        unit: "insn/s",
        better: Higher,
        bound: TIMED_BOUND,
        workloads: MUTATORS,
    },
    EndToEndDef {
        name: "compiled_ops_per_s",
        unit: "insn/s",
        better: Higher,
        bound: TIMED_BOUND,
        workloads: MUTATORS,
    },
    EndToEndDef {
        name: "fail_ratio",
        unit: "ratio",
        better: Lower,
        bound: 0.0,
        workloads: ALL,
    },
    EndToEndDef {
        name: "elided_pct",
        unit: "%",
        better: Higher,
        bound: 0.0,
        workloads: &[COMPILE_SWEEP, MUTATOR_STEADY, MUTATOR_CHURN],
    },
    EndToEndDef {
        name: "barrier_cycles_pct",
        unit: "%",
        better: Lower,
        bound: 0.0,
        workloads: MUTATORS,
    },
    EndToEndDef {
        name: "code_bytes",
        unit: "B",
        better: Lower,
        bound: 0.0,
        workloads: SWEEP,
    },
    EndToEndDef {
        name: "stw_pause_max_wu",
        unit: "wu",
        better: Lower,
        bound: 0.0,
        workloads: HEAPED,
    },
    EndToEndDef {
        name: "peak_heap_objects",
        unit: "slots",
        better: Lower,
        bound: 0.0,
        workloads: HEAPED,
    },
    EndToEndDef {
        name: "latency_p50_steps",
        unit: "steps",
        better: Lower,
        bound: 0.0,
        workloads: SERVE,
    },
    EndToEndDef {
        name: "latency_p99_steps",
        unit: "steps",
        better: Lower,
        bound: 0.0,
        workloads: SERVE,
    },
    EndToEndDef {
        name: "max_sustained_rate_pm",
        unit: "req/kstep",
        better: Higher,
        bound: 0.0,
        workloads: SERVE,
    },
    EndToEndDef {
        name: "shed_ratio",
        unit: "ratio",
        better: Lower,
        bound: 0.0,
        workloads: SERVE,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: TIMED_BOUND,
        workloads: ALL,
    },
];

/// One predicted effect: the end-to-end metric a per-layer metric
/// should move, and the workloads on which it should.
pub type Moves = (&'static str, &'static [&'static str]);

/// A per-layer metric.
#[derive(Clone, Copy, Debug)]
pub struct PerLayerDef {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Layer (module) it measures.
    pub layer: &'static str,
    /// Better direction.
    pub better: Better,
    /// A count the program produces deterministically: identical on
    /// every evaluation at a given seed.
    pub exact: bool,
    /// Predicted effects. Empty means it bounds or explains other
    /// numbers and is expected to move nothing.
    pub moves: &'static [Moves],
}

const fn timed(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    moves: &'static [Moves],
) -> PerLayerDef {
    PerLayerDef {
        name,
        unit,
        layer,
        better: Lower,
        exact: false,
        moves,
    }
}

const fn count(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    better: Better,
    moves: &'static [Moves],
) -> PerLayerDef {
    PerLayerDef {
        name,
        unit,
        layer,
        better,
        exact: true,
        moves,
    }
}

const IR: &str = "wbe-ir";
const INLINE: &str = "wbe-opt::inline";
const FOLD: &str = "wbe-opt::fold";
const FIXPOINT: &str = "wbe-analysis::fixpoint";
const LEDGER: &str = "wbe-analysis::ledger";
const NULLSAME: &str = "wbe-analysis::nullsame";
const TRANSLATE: &str = "wbe-interp::translate";
const MACHINE: &str = "wbe-interp::machine";
const COMPILED: &str = "wbe-interp::compiled";
const BARRIER: &str = "wbe-interp::barrier";
const HEAP: &str = "wbe-heap::heap";
const GC: &str = "wbe-heap::gc";
const SCHED: &str = "wbe-heap::sched";
const SAFEPOINT: &str = "wbe-heap::safepoint";
const PRESSURE: &str = "wbe-heap::pressure";
const TELEMETRY: &str = "wbe-telemetry";

const SETUP_ALL: &[Moves] = &[("setup_s", ALL)];
/// Compile-side layers: all of compile-sweep's work, set-up elsewhere.
const COMPILE_SIDE: &[Moves] = &[
    ("ops_per_s", SWEEP),
    ("wall_s", SWEEP),
    ("setup_s", MUTATORS),
];
const SWEEP_ONLY: &[Moves] = &[("ops_per_s", SWEEP), ("wall_s", SWEEP)];
/// More elided sites: more elided executions, fewer barrier cycles,
/// smaller code, and (predicted below the 10% bound, barrier wall being
/// 2-5%) faster engines.
const ELISION: &[Moves] = &[
    (
        "elided_pct",
        &[COMPILE_SWEEP, MUTATOR_STEADY, MUTATOR_CHURN],
    ),
    ("barrier_cycles_pct", MUTATORS),
    ("code_bytes", SWEEP),
    ("classic_ops_per_s", MUTATORS),
    ("compiled_ops_per_s", MUTATORS),
];
const CLASSIC: &[Moves] = &[("classic_ops_per_s", MUTATORS), ("ops_per_s", MUTATORS)];
const COMPILED_E: &[Moves] = &[("compiled_ops_per_s", MUTATORS), ("ops_per_s", MUTATORS)];
const BARRIER_COST: &[Moves] = &[
    ("barrier_cycles_pct", MUTATORS),
    ("classic_ops_per_s", CHURN),
    ("compiled_ops_per_s", CHURN),
];
const BARRIER_CLASSIC: &[Moves] = &[("classic_ops_per_s", CHURN)];
const BARRIER_COMPILED: &[Moves] = &[("compiled_ops_per_s", CHURN)];
const ALLOC: &[Moves] = &[
    ("ops_per_s", COLLECTOR),
    ("classic_ops_per_s", CHURN),
    ("compiled_ops_per_s", CHURN),
];
const FOOTPRINT: &[Moves] = &[("peak_heap_objects", HEAPED), ("peak_rss_mb", HEAPED)];
/// Collector time: all of collector-cycle, `gc.in_mutator_share` of
/// mutator-churn, part of serve; predicted flat on mutator-steady and
/// compile-sweep.
const COLLECT: &[Moves] = &[
    ("ops_per_s", COLLECTOR),
    ("wall_s", COLLECTOR),
    ("classic_ops_per_s", CHURN),
    ("compiled_ops_per_s", CHURN),
    ("wall_s", SERVE),
];
const PAUSE: &[Moves] = &[("stw_pause_max_wu", HEAPED), ("latency_p99_steps", SERVE)];
const SERVE_WALL: &[Moves] = &[("wall_s", SERVE), ("ops_per_s", SERVE)];
const LADDER: &[Moves] = &[
    ("shed_ratio", SERVE),
    ("latency_p99_steps", SERVE),
    ("max_sustained_rate_pm", SERVE),
];
const NONE: &[Moves] = &[];

/// The per-layer metrics, grouped by layer.
pub const PER_LAYER: [PerLayerDef; 75] = [
    // wbe-ir
    timed("ir.build_us", "us", IR, SETUP_ALL),
    timed("ir.validate_us", "us", IR, SETUP_ALL),
    count("ir.insns", "insn", IR, Lower, SETUP_ALL),
    // wbe-opt
    timed("opt.inline_us", "us", INLINE, COMPILE_SIDE),
    timed("opt.fold_us", "us", FOLD, COMPILE_SIDE),
    count("opt.inlined_calls", "count", INLINE, Higher, COMPILE_SIDE),
    count("opt.skipped_too_big", "count", INLINE, Lower, COMPILE_SIDE),
    count("opt.fold_applied", "count", FOLD, Higher, COMPILE_SIDE),
    count("opt.insns_after", "insn", FOLD, Lower, COMPILE_SIDE),
    // wbe-analysis::fixpoint
    timed("analysis.fixpoint_us", "us", FIXPOINT, SWEEP_ONLY),
    count(
        "analysis.blocks_processed",
        "count",
        FIXPOINT,
        Lower,
        SWEEP_ONLY,
    ),
    count(
        "analysis.state_merges",
        "count",
        FIXPOINT,
        Lower,
        SWEEP_ONLY,
    ),
    count("analysis.widenings", "count", FIXPOINT, Lower, SWEEP_ONLY),
    count("analysis.sites_total", "count", FIXPOINT, Lower, NONE),
    count("analysis.sites_elided", "count", FIXPOINT, Higher, ELISION),
    count(
        "analysis.degraded_methods",
        "count",
        FIXPOINT,
        Lower,
        ELISION,
    ),
    // wbe-analysis::ledger / nullsame
    timed("analysis.ledger_us", "us", LEDGER, SWEEP_ONLY),
    count("analysis.ledger_records", "count", LEDGER, Lower, NONE),
    timed("analysis.nullsame_us", "us", NULLSAME, SWEEP_ONLY),
    count("analysis.nullsame_sites", "count", NULLSAME, Higher, NONE),
    // wbe-interp::translate
    timed("translate.us", "us", TRANSLATE, COMPILE_SIDE),
    count("translate.cells", "count", TRANSLATE, Lower, COMPILE_SIDE),
    count(
        "translate.fused_elided",
        "count",
        TRANSLATE,
        Higher,
        ELISION,
    ),
    count("translate.fused_kept", "count", TRANSLATE, Lower, ELISION),
    // wbe-interp::machine / compiled: dispatch with GC off, no barriers
    timed("dispatch.classic_ns_per_insn", "ns", MACHINE, CLASSIC),
    timed("dispatch.compiled_ns_per_insn", "ns", COMPILED, COMPILED_E),
    // wbe-interp::barrier: the Table 2 trio, GC off
    count("barrier.cycles_none", "cycles", BARRIER, Lower, NONE),
    count(
        "barrier.cycles_kept",
        "cycles",
        BARRIER,
        Lower,
        BARRIER_COST,
    ),
    count(
        "barrier.cycles_elided",
        "cycles",
        BARRIER,
        Lower,
        BARRIER_COST,
    ),
    count("barrier.executions", "count", BARRIER, Lower, BARRIER_COST),
    count(
        "barrier.elided_executions",
        "count",
        BARRIER,
        Higher,
        ELISION,
    ),
    count("barrier.satb_logs", "count", BARRIER, Lower, BARRIER_COST),
    timed(
        "barrier.classic_kept_ns_per_exec",
        "ns",
        BARRIER,
        BARRIER_CLASSIC,
    ),
    timed(
        "barrier.compiled_kept_ns_per_exec",
        "ns",
        BARRIER,
        BARRIER_COMPILED,
    ),
    timed(
        "barrier.classic_elided_ns_per_exec",
        "ns",
        BARRIER,
        BARRIER_CLASSIC,
    ),
    timed(
        "barrier.compiled_elided_ns_per_exec",
        "ns",
        BARRIER,
        BARRIER_COMPILED,
    ),
    // wbe-heap::heap
    timed("heap.alloc_ns_per_object", "ns", HEAP, ALLOC),
    count("heap.allocations", "count", HEAP, Lower, ALLOC),
    count("heap.words_allocated", "words", HEAP, Lower, FOOTPRINT),
    count("heap.frees", "count", HEAP, Higher, FOOTPRINT),
    count("heap.peak_capacity", "slots", HEAP, Lower, FOOTPRINT),
    // wbe-heap::gc
    timed("gc.initial_mark_ns_per_slot", "ns", GC, COLLECT),
    timed("gc.mark_ns_per_object", "ns", GC, COLLECT),
    timed("gc.remark_ns_p50", "ns", GC, COLLECT),
    timed("gc.remark_ns_p99", "ns", GC, COLLECT),
    timed("gc.sweep_ns_per_slot", "ns", GC, COLLECT),
    timed("gc.barrier_log_ns", "ns", GC, COLLECT),
    timed("gc.cycle_us.satb_live", "us", GC, COLLECT),
    timed("gc.cycle_us.satb_garbage", "us", GC, COLLECT),
    timed("gc.cycle_us.iu_live", "us", GC, COLLECT),
    timed("gc.cycle_us.iu_garbage", "us", GC, COLLECT),
    count("gc.cycles", "count", GC, Lower, COLLECT),
    count("gc.concurrent_scans", "count", GC, Lower, COLLECT),
    count("gc.allocated_black", "count", GC, Lower, FOOTPRINT),
    count("gc.swept", "count", GC, Higher, FOOTPRINT),
    count("gc.satb_logs", "count", GC, Lower, COLLECT),
    count("gc.dirty_marks", "count", GC, Lower, COLLECT),
    count("gc.remark_wu_p50", "wu", GC, Lower, PAUSE),
    count("gc.remark_wu_p99", "wu", GC, Lower, PAUSE),
    count("gc.remark_wu_max", "wu", GC, Lower, PAUSE),
    count("gc.sweep_wu_p50", "wu", GC, Lower, COLLECT),
    count("gc.sweep_wu_max", "wu", GC, Lower, COLLECT),
    timed("gc.in_mutator_share", "ratio", GC, NONE),
    // wbe-heap::sched / safepoint
    count("sched.steps", "steps", SCHED, Lower, SERVE_WALL),
    timed("sched.step_ns", "ns", SCHED, SERVE_WALL),
    count("safepoint.acks", "count", SAFEPOINT, Lower, SERVE_WALL),
    count("safepoint.parks", "count", SAFEPOINT, Lower, SERVE_WALL),
    count("satb.flushes", "count", SAFEPOINT, Lower, SERVE_WALL),
    count("satb.logged", "count", SAFEPOINT, Lower, SERVE_WALL),
    // wbe-heap::pressure
    count("pressure.transitions", "count", PRESSURE, Lower, LADDER),
    count("pressure.high_water", "level", PRESSURE, Lower, LADDER),
    count("pressure.emergency_stw", "count", PRESSURE, Lower, LADDER),
    count("pressure.throttle_stalls", "count", PRESSURE, Lower, LADDER),
    count("pressure.shed", "count", PRESSURE, Lower, LADDER),
    // wbe-telemetry
    timed("telemetry.overhead_pct", "%", TELEMETRY, NONE),
];

/// Looks up an end-to-end metric by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEndDef> {
    END_TO_END.iter().find(|d| d.name == name)
}

/// Looks up a per-layer metric by name.
pub fn per_layer(name: &str) -> Option<&'static PerLayerDef> {
    PER_LAYER.iter().find(|d| d.name == name)
}

/// Looks up a workload by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|d| d.name)
            .chain(PER_LAYER.iter().map(|d| d.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for n in &names {
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate name");
    }

    #[test]
    fn moves_name_existing_metrics_and_workloads() {
        for d in &PER_LAYER {
            for (metric, workloads) in d.moves {
                let e = end_to_end(metric).unwrap_or_else(|| panic!("{}: {metric}", d.name));
                for w in *workloads {
                    assert!(workload(w).is_some(), "{}: {w}", d.name);
                    assert!(e.on(w), "{}: {metric} is not defined on {w}", d.name);
                }
            }
        }
    }

    #[test]
    fn four_universal_metrics() {
        let u: Vec<&str> = END_TO_END
            .iter()
            .filter(|d| d.universal())
            .map(|d| d.name)
            .collect();
        assert_eq!(u, ["setup_s", "wall_s", "ops_per_s", "peak_rss_mb"]);
    }
}
