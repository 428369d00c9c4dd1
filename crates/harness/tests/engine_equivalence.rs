//! Differential-equivalence suite: the classic switch interpreter and
//! the direct-threaded compiled engine must be observably identical.
//!
//! Every workload in the standard suite runs under both engines with
//! the realistic configuration (checked barriers + elision + the
//! deterministic GC policy), then again with a seeded fault plan,
//! invariant verification, and the self-healing recovery layer armed.
//! Everything the run computes is compared: the run result (value or
//! trap), every scalar in `RunStats`, the pause reports, the full
//! per-site `BarrierStats` map, the ledger keep-code cycle join, the
//! final world digest, and the recovery counters.

use std::collections::BTreeMap;

use wbe_harness::site::compile_workload_with;
use wbe_heap::gc::MarkStyle;
use wbe_heap::{FaultConfig, FaultPlan, RecoveryPolicy};
use wbe_interp::{
    BarrierConfig, BarrierMode, ElidedBarriers, EngineKind, GcPolicy, SiteStats, Trap, Value,
};
use wbe_opt::{Compiled, OptMode, PipelineConfig};
use wbe_workloads::Workload;

/// Iteration scale (fraction of each workload's default count).
const SCALE: f64 = 0.05;

/// Deterministic marking schedule shared by every run in this file.
const GC: GcPolicy = GcPolicy {
    alloc_trigger: 400,
    step_interval: 32,
    step_budget: 4,
};

/// Seeds for the fault-plan leg. The first is the baselines' pinned
/// recovery seed; the second is an arbitrary different stream.
const FAULT_SEEDS: [u64; 2] = [0x00C0_FFEE, 0xDEAD_BEEF];
/// Post-remark mark-corruption rate (per mille) for the fault leg.
const CORRUPT_PM: u16 = 400;

/// Everything one engine run computes, in comparable form.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<Option<Value>, Trap>,
    insns: u64,
    cycles: u64,
    barrier_cycles: u64,
    elided_executions: u64,
    rearrange_skipped: u64,
    retraces_scheduled: u64,
    stack_allocated: u64,
    stack_freed: u64,
    gc_cycles: u64,
    emergency_pauses: u64,
    alloc_retries: u64,
    /// Pause reports, rendered (PauseReport has no `PartialEq`; the
    /// Debug form captures every field).
    pauses: String,
    /// Sorted full per-site barrier map.
    barrier_map: Vec<((usize, usize, usize, String), SiteStats)>,
    /// Barrier cycles joined to ledger keep-codes (the profiler join).
    ledger_join: BTreeMap<&'static str, u64>,
    digest: u64,
    recovery: Option<(u64, u64)>,
}

/// Runs `w` once under `kind` and snapshots every observable.
fn observe(
    kind: EngineKind,
    compiled: &Compiled,
    elided: &ElidedBarriers,
    w: &Workload,
    fault_seed: Option<u64>,
) -> Observed {
    let config = BarrierConfig::with_elision(BarrierMode::Checked, elided.clone());
    let mut engine = kind.build(&compiled.program, config, MarkStyle::Satb);
    engine.set_gc_policy(GC);
    if let Some(seed) = fault_seed {
        engine.set_fault_plan(FaultPlan::new(FaultConfig {
            corrupt_mark_pm: CORRUPT_PM,
            ..FaultConfig::from_seed(seed)
        }));
        engine.set_verify_invariants(true);
        engine.set_recovery(RecoveryPolicy { max_attempts: 5 });
    }
    let iters = ((w.default_iters as f64 * SCALE) as i64).max(8);
    let result = engine.run(w.entry, &[Value::Int(iters)], w.fuel_for(iters));

    let s = engine.stats();
    let mut barrier_map: Vec<_> = s
        .barrier
        .iter()
        .map(|(&(m, a, k), st)| ((m.index(), a.block.index(), a.index, format!("{k:?}")), *st))
        .collect();
    barrier_map.sort_by(|a, b| a.0.cmp(&b.0));

    // The profiler's keep-code join: barrier cycles at kept sites
    // attributed to the ledger's keep reason.
    let mut ledger_join = BTreeMap::new();
    if let Some(ledger) = compiled.ledger.as_ref() {
        let index = ledger.index();
        for (&(mid, addr, _), stats) in s.barrier.iter() {
            if elided.contains(mid, addr) {
                continue;
            }
            let code = index
                .get(&(mid, addr))
                .and_then(|rec| rec.keep_code)
                .map_or("unattributed", |code| code.as_str());
            *ledger_join.entry(code).or_insert(0) += stats.cycles;
        }
    }

    Observed {
        result,
        insns: s.insns,
        cycles: s.cycles,
        barrier_cycles: s.barrier_cycles,
        elided_executions: s.elided_executions,
        rearrange_skipped: s.rearrange_skipped,
        retraces_scheduled: s.retraces_scheduled,
        stack_allocated: s.stack_allocated,
        stack_freed: s.stack_freed,
        gc_cycles: s.gc_cycles,
        emergency_pauses: s.emergency_pauses,
        alloc_retries: s.alloc_retries,
        pauses: format!("{:?}", s.pauses),
        barrier_map,
        ledger_join,
        digest: wbe_heap::debug::world_digest(engine.heap()),
        recovery: engine
            .recovery()
            .map(|rc| (rc.stats.attempted, rc.stats.succeeded)),
    }
}

fn assert_equivalent(w: &Workload, fault_seed: Option<u64>) {
    let cfg = PipelineConfig::new(OptMode::Full, 100).with_ledger();
    let (compiled, elided) = compile_workload_with(w, &cfg);
    let classic = observe(EngineKind::Classic, &compiled, &elided, w, fault_seed);
    let compiled_obs = observe(EngineKind::Compiled, &compiled, &elided, w, fault_seed);
    assert_eq!(
        classic, compiled_obs,
        "{} (fault_seed {fault_seed:?}): engines diverged",
        w.name
    );
    // The runs must have actually exercised the machinery being
    // compared, or the equivalence is vacuous.
    assert!(classic.insns > 0, "{}: ran no instructions", w.name);
    assert!(
        !classic.barrier_map.is_empty(),
        "{}: no barrier sites executed",
        w.name
    );
}

#[test]
fn six_workloads_equivalent() {
    let suite = wbe_workloads::standard_suite();
    assert_eq!(
        suite.len(),
        6,
        "the standard suite is the six Table 1 mimics"
    );
    for w in &suite {
        assert_equivalent(w, None);
    }
}

#[test]
fn six_workloads_equivalent_under_seeded_faults() {
    for w in &wbe_workloads::standard_suite() {
        for seed in FAULT_SEEDS {
            assert_equivalent(w, Some(seed));
        }
    }
}

/// Fuel exhaustion is part of the observable contract: both engines
/// must trap `OutOfFuel` after executing exactly the same number of
/// instructions, with identical partial statistics.
#[test]
fn fuel_exhaustion_traps_identically() {
    for w in &wbe_workloads::standard_suite() {
        let cfg = PipelineConfig::new(OptMode::Full, 100).with_ledger();
        let (compiled, elided) = compile_workload_with(w, &cfg);
        for fuel in [1u64, 97, 1000] {
            let run = |kind: EngineKind| {
                let config = BarrierConfig::with_elision(BarrierMode::Checked, elided.clone());
                let mut engine = kind.build(&compiled.program, config, MarkStyle::Satb);
                engine.set_gc_policy(GC);
                let r = engine.run(w.entry, &[Value::Int(1 << 20)], fuel);
                (r, engine.stats().insns, engine.stats().cycles)
            };
            let (cr, ci, cc) = run(EngineKind::Classic);
            let (pr, pi, pc) = run(EngineKind::Compiled);
            assert_eq!(cr, Err(Trap::OutOfFuel), "{} fuel {fuel}", w.name);
            assert_eq!((cr, ci, cc), (pr, pi, pc), "{} fuel {fuel}", w.name);
        }
    }
}
