//! Differential fault-injection verification.
//!
//! The robustness argument for barrier elision is end-to-end: for every
//! workload, running with elided barriers must be *observably identical*
//! to running with full barriers, no matter how the collector's schedule
//! is perturbed. This module drives that experiment:
//!
//! 1. compile the workload and take a **baseline** run (full barriers,
//!    no faults);
//! 2. for each of N seeded fault schedules, run both the **elided** and
//!    the **full-barrier** configuration with heap-invariant
//!    verification enabled at every GC cycle boundary;
//! 3. diff the schedule-independent observables (result value,
//!    allocation count, statics-reachable object count) against the
//!    baseline.
//!
//! Any trap (including the [`wbe_interp::Trap::UnsoundElision`] oracle
//! and [`wbe_interp::Trap::InvariantViolation`]) or observable
//! divergence is a reported problem. [`demo_unsound_detection`]
//! deliberately elides a barrier the analysis did *not* prove safe and
//! confirms the same machinery catches it.

use std::cmp::Reverse;
use std::fmt;

use wbe_heap::gc::MarkStyle;
use wbe_heap::mcheck::mix_seed;
use wbe_heap::{verify, FaultPlan, FaultStats};
use wbe_interp::{
    BarrierConfig, BarrierMode, BarrierStats, ElidedBarriers, GcPolicy, Interp, Trap, Value,
};
use wbe_ir::{InsnAddr, MethodId, Program};
use wbe_opt::{OptMode, PipelineConfig};
use wbe_workloads::Workload;

use crate::site::{compile_workload_with, scaled_iters, MIN_ITERS};

/// Options for one verification sweep.
#[derive(Clone, Copy, Debug)]
pub struct VerifyOptions {
    /// Number of distinct fault schedules per workload.
    pub schedules: u32,
    /// Base seed; schedule `k` uses a mix of this and `k`.
    pub seed: u64,
    /// Iteration scale applied to each workload's default size.
    pub scale: f64,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            schedules: 20,
            seed: 42,
            scale: 0.05,
        }
    }
}

/// Observables that must not depend on the GC schedule: the program's
/// result, how many objects it allocated, and how many objects remain
/// reachable from the static roots afterwards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Observables {
    /// Entry method's return value.
    pub result: Option<Value>,
    /// Objects allocated over the run (failed injected allocations are
    /// not counted, so retries leave this unchanged).
    pub allocations: u64,
    /// Live objects reachable from statics after the run.
    pub reachable: usize,
}

impl fmt::Display for Observables {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.result {
            Some(v) => write!(f, "result={v}")?,
            None => write!(f, "result=void")?,
        }
        write!(
            f,
            ", allocations={}, reachable={}",
            self.allocations, self.reachable
        )
    }
}

/// Verdict for one workload's sweep.
#[derive(Debug)]
pub struct WorkloadVerdict {
    /// Workload name.
    pub name: &'static str,
    /// Fault schedules exercised.
    pub schedules: u32,
    /// Sites elided by the analysis.
    pub elided_sites: usize,
    /// Faults injected across all schedule runs.
    pub faults_injected: u64,
    /// Emergency full pauses taken across all schedule runs.
    pub emergency_pauses: u64,
    /// GC cycles completed across all schedule runs.
    pub gc_cycles: u64,
    /// Everything that went wrong (empty means the workload passed).
    pub problems: Vec<String>,
}

impl WorkloadVerdict {
    /// Did every schedule run clean and agree with the baseline?
    pub fn passed(&self) -> bool {
        self.problems.is_empty()
    }
}

impl fmt::Display for WorkloadVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<8} {}: {} schedules, {} elided sites, {} faults injected, \
             {} emergency pauses, {} gc cycles",
            self.name,
            if self.passed() { "PASS" } else { "FAIL" },
            self.schedules,
            self.elided_sites,
            self.faults_injected,
            self.emergency_pauses,
            self.gc_cycles
        )?;
        for p in &self.problems {
            write!(f, "\n  problem: {p}")?;
        }
        Ok(())
    }
}

/// The GC policy used for every verification run: aggressive enough
/// that several cycles complete even at small scales.
fn verify_policy() -> GcPolicy {
    GcPolicy {
        alloc_trigger: 200,
        step_interval: 16,
        step_budget: 4,
    }
}

struct RunOutcome {
    obs: Observables,
    fault: Option<FaultStats>,
    digest: Option<u64>,
    emergency_pauses: u64,
    gc_cycles: u64,
}

fn run_one(
    program: &Program,
    entry: MethodId,
    iters: i64,
    fuel: u64,
    elided: ElidedBarriers,
    fault_seed: Option<u64>,
) -> Result<RunOutcome, Trap> {
    let config = BarrierConfig::with_elision(BarrierMode::Checked, elided);
    let mut interp = Interp::with_style(program, config, MarkStyle::Satb);
    interp.set_gc_policy(verify_policy());
    if let Some(seed) = fault_seed {
        interp.set_fault_plan(FaultPlan::from_seed(seed));
    }
    interp.set_verify_invariants(true);
    let result = interp.run(entry, &[Value::Int(iters)], fuel)?;
    let roots = interp.heap.static_roots();
    Ok(RunOutcome {
        obs: Observables {
            result,
            allocations: interp.heap.stats.allocations,
            reachable: verify::reachable_set(&interp.heap, &roots).len(),
        },
        fault: interp.heap.fault.as_ref().map(|p| p.stats),
        digest: interp.heap.fault.as_ref().map(|p| p.digest()),
        emergency_pauses: interp.stats.emergency_pauses,
        gc_cycles: interp.stats.gc_cycles,
    })
}

/// Runs the full differential sweep for one workload.
pub fn verify_workload(w: &Workload, opts: &VerifyOptions) -> WorkloadVerdict {
    let (compiled, elided) = compile_workload_with(w, &PipelineConfig::new(OptMode::Full, 100));
    let iters = scaled_iters(w, opts.scale, MIN_ITERS);
    let fuel = w.fuel_for(iters);
    let mut verdict = WorkloadVerdict {
        name: w.name,
        schedules: opts.schedules,
        elided_sites: elided.len(),
        faults_injected: 0,
        emergency_pauses: 0,
        gc_cycles: 0,
        problems: Vec::new(),
    };

    let baseline = match run_one(
        &compiled.program,
        w.entry,
        iters,
        fuel,
        ElidedBarriers::new(),
        None,
    ) {
        Ok(out) => out,
        Err(t) => {
            verdict.problems.push(format!("baseline run trapped: {t}"));
            return verdict;
        }
    };

    let mut first_digest: Option<u64> = None;
    for k in 0..opts.schedules {
        let seed = mix_seed(opts.seed, u64::from(k));
        for (label, el) in [
            ("elided", elided.clone()),
            ("full-barrier", ElidedBarriers::new()),
        ] {
            match run_one(&compiled.program, w.entry, iters, fuel, el, Some(seed)) {
                Ok(out) => {
                    if out.obs != baseline.obs {
                        verdict.problems.push(format!(
                            "schedule {k} (seed {seed:#018x}) {label}: observables diverged: \
                             [{}] vs baseline [{}]",
                            out.obs, baseline.obs
                        ));
                    }
                    verdict.faults_injected += out.fault.map_or(0, |f| f.injected());
                    verdict.emergency_pauses += out.emergency_pauses;
                    verdict.gc_cycles += out.gc_cycles;
                    if k == 0 && label == "elided" {
                        first_digest = out.digest;
                    }
                }
                Err(t) => verdict.problems.push(format!(
                    "schedule {k} (seed {seed:#018x}) {label}: trapped: {t}"
                )),
            }
        }
    }

    // Seed reproducibility: replaying schedule 0 must yield the exact
    // same decision stream (digest covers every decision taken).
    if let Some(d0) = first_digest {
        let seed = mix_seed(opts.seed, 0);
        match run_one(&compiled.program, w.entry, iters, fuel, elided, Some(seed)) {
            Ok(out) if out.digest != Some(d0) => verdict.problems.push(format!(
                "seed {seed:#018x} did not reproduce its fault schedule \
                 (digest {:?} vs {d0:#x})",
                out.digest
            )),
            Ok(_) => {}
            Err(t) => verdict
                .problems
                .push(format!("schedule 0 replay trapped: {t}")),
        }
    }
    verdict
}

/// Outcome of [`demo_unsound_detection`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DemoOutcome {
    /// The injected unsound elision was caught (trap or divergence).
    Detected(String),
    /// Every executed store on this input was pre-null, so no elision
    /// can be dynamically unsound — nothing to corrupt.
    NoCandidate(String),
    /// The unsound elision slipped through: a harness bug.
    Missed(String),
}

/// The site [`demo_unsound_detection`] corrupts: of the executed stores
/// outside `sound` that overwrote a non-null value, the one that did so
/// most often. `BarrierStats` iterates in hash order, so a tie goes to
/// the smallest `(method, address)`, not to whichever came last.
fn pick_victim(stats: &BarrierStats, sound: &ElidedBarriers) -> Option<(MethodId, InsnAddr)> {
    stats
        .iter()
        .filter(|((m, a, _), s)| s.pre_null < s.executions && !sound.contains(*m, *a))
        .map(|((m, a, _), s)| (s.executions - s.pre_null, Reverse((*m, *a))))
        .max()
        .map(|(_, Reverse(site))| site)
}

/// Deliberately elides a barrier the analysis did **not** prove safe —
/// the most-executed site that observes non-null pre-values under full
/// barriers — and runs the sweep expecting detection.
pub fn demo_unsound_detection(w: &Workload, opts: &VerifyOptions) -> DemoOutcome {
    let (compiled, sound) = compile_workload_with(w, &PipelineConfig::new(OptMode::Full, 100));
    let iters = scaled_iters(w, opts.scale, MIN_ITERS);
    let fuel = w.fuel_for(iters);

    // Profile under full barriers to find a site whose pre-value is
    // sometimes non-null — exactly what a sound elision must never touch.
    let mut profiler = Interp::with_style(
        &compiled.program,
        BarrierConfig::new(BarrierMode::Checked),
        MarkStyle::Satb,
    );
    profiler.set_gc_policy(verify_policy());
    if let Err(t) = profiler.run(w.entry, &[Value::Int(iters)], fuel) {
        return DemoOutcome::Missed(format!("{}: profiling run trapped: {t}", w.name));
    }
    let Some((m, a)) = pick_victim(&profiler.stats.barrier, &sound) else {
        return DemoOutcome::NoCandidate(format!(
            "{}: every executed store is pre-null on this input; \
             no elision can be dynamically unsound",
            w.name
        ));
    };

    let mut unsound = sound.clone();
    unsound.insert(m, a);
    let baseline = match run_one(
        &compiled.program,
        w.entry,
        iters,
        fuel,
        ElidedBarriers::new(),
        None,
    ) {
        Ok(out) => out,
        Err(t) => return DemoOutcome::Missed(format!("{}: baseline run trapped: {t}", w.name)),
    };
    for k in 0..opts.schedules.max(1) {
        let seed = mix_seed(opts.seed, u64::from(k));
        match run_one(
            &compiled.program,
            w.entry,
            iters,
            fuel,
            unsound.clone(),
            Some(seed),
        ) {
            Err(t) => {
                return DemoOutcome::Detected(format!(
                    "{}: unsound elision of {m} {a} detected on schedule {k}: {t}",
                    w.name
                ))
            }
            Ok(out) if out.obs != baseline.obs => {
                return DemoOutcome::Detected(format!(
                    "{}: unsound elision of {m} {a} detected on schedule {k}: \
                     observables diverged ([{}] vs [{}])",
                    w.name, out.obs, baseline.obs
                ))
            }
            Ok(_) => {}
        }
    }
    DemoOutcome::Missed(format!(
        "{}: unsound elision of {m} {a} was NOT detected over {} schedules",
        w.name,
        opts.schedules.max(1)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbe_workloads::by_name;

    fn quick_opts() -> VerifyOptions {
        VerifyOptions {
            schedules: 3,
            seed: 42,
            scale: 0.02,
        }
    }

    #[test]
    fn jess_survives_fault_schedules_with_invariants_verified() {
        let w = by_name("jess").unwrap();
        let v = verify_workload(&w, &quick_opts());
        assert!(v.passed(), "{v}");
        assert!(v.elided_sites > 0, "elision actually exercised");
        assert!(v.faults_injected > 0, "faults actually injected");
    }

    #[test]
    fn db_survives_fault_schedules() {
        let w = by_name("db").unwrap();
        let v = verify_workload(&w, &quick_opts());
        assert!(v.passed(), "{v}");
    }

    #[test]
    fn unsound_elision_is_detected() {
        let w = by_name("db").unwrap();
        match demo_unsound_detection(&w, &quick_opts()) {
            DemoOutcome::Detected(msg) => assert!(msg.contains("detected"), "{msg}"),
            other => panic!("expected detection, got {other:?}"),
        }
    }

    /// Four equally hot candidates, a hotter one that is soundly elided,
    /// a hotter one that is always pre-null and a slightly cooler one. Every `BarrierStats`
    /// hashes with fresh keys, so over many of them — filled in both
    /// orders — a pick that followed iteration order would wander.
    #[test]
    fn victim_ties_go_to_the_smallest_site_whatever_the_order() {
        use wbe_interp::StoreKind;
        use wbe_ir::BlockId;

        let site =
            |m: u32, block: u32, index: usize| (MethodId(m), InsnAddr::new(BlockId(block), index));
        // (site, executions, pre-null): the first four each overwrote a
        // non-null value 40 times.
        let rows = [
            (site(10, 12, 65), 50, 10),
            (site(10, 12, 55), 40, 0),
            (site(9, 30, 1), 45, 5),
            (site(10, 3, 99), 40, 0),
            (site(2, 0, 0), 500, 0),   // hottest, but in `sound`
            (site(1, 0, 0), 900, 900), // never overwrote non-null
            (site(11, 0, 0), 39, 0),   // one short of the tie
        ];
        let sound: ElidedBarriers = [site(2, 0, 0)].into_iter().collect();
        for trial in 0..32 {
            let mut stats = BarrierStats::default();
            let fill = |stats: &mut BarrierStats, &((m, a), executions, pre_null)| {
                stats.add_site(m, a, StoreKind::Field, executions, pre_null, 0);
            };
            if trial % 2 == 0 {
                rows.iter().for_each(|row| fill(&mut stats, row));
            } else {
                rows.iter().rev().for_each(|row| fill(&mut stats, row));
            }
            assert_eq!(pick_victim(&stats, &sound), Some(site(9, 30, 1)));
        }
        assert_eq!(pick_victim(&BarrierStats::default(), &sound), None);
    }

    #[test]
    fn observables_display() {
        let o = Observables {
            result: None,
            allocations: 3,
            reachable: 1,
        };
        assert!(o.to_string().contains("void"));
    }
}
