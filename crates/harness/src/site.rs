//! One observed run, one per-site join.
//!
//! The paper's judgment is two conditions on a *store site*, and every
//! dynamic question the harness asks is about a site too: how often it
//! ran and what it cost (`profile`), whether its kept barrier was ever
//! needed (`oracle`), whether the runtime took its elision back
//! (`soak`), what the gate pins (`baselines`), whether an elided run
//! behaves like a full-barrier one (`verify`). [`observe`] compiles a
//! workload and runs it once; [`observe_compiled`] runs a build the
//! caller already has, so a driver that varies only the elision set
//! compiles once. Either way the [`Observed`] owns what came out, the
//! heap included; [`Observed::sites`] is the only place those facts
//! are brought together, keyed by `(MethodId, InsnAddr)`. Every table it folds is keyed that way too —
//! the ledger's records carry the `MethodId` they were solved in, and
//! `RunStats` keeps the run's counters and revocations under that key —
//! so no key is converted, no method name is looked up, and two methods
//! that share one (two overloaded constructors) keep a row each. Everything else is a fold
//! over that table, or, for the paper's experiments, over the run's
//! totals ([`Observed::summary`]).

use std::collections::BTreeMap;

use wbe_analysis::{Condition, ElisionLedger, KeepCode, SiteRecord, Verdict};
use wbe_heap::gc::MarkStyle;
use wbe_heap::recover::RecoveryController;
use wbe_heap::{FaultConfig, FaultPlan, Heap, RecoveryPolicy};
use wbe_interp::oracle::{OracleState, SiteNecessity};
use wbe_interp::{
    BarrierConfig, BarrierMode, BarrierSummary, ElidedBarriers, ElisionKind, GcPolicy, Interp,
    RunStats, SiteStats, StoreKind, Trap, Value,
};
use wbe_ir::{InsnAddr, MethodId};
use wbe_opt::{compile, plan_program, Compiled, OptMode, PipelineConfig};
use wbe_telemetry::registry::MetricsSnapshot;
use wbe_workloads::Workload;

use crate::rearrange_exp::protocol_sites;

/// The marking schedule of the baseline configuration: sparse enough
/// that small runs stay cheap, dense enough that `jbb` and the server
/// family complete cycles at the gate's scale.
pub const BASELINE_GC: GcPolicy = GcPolicy {
    alloc_trigger: 400,
    step_interval: 32,
    step_budget: 4,
};

/// Keep-code of an executed kept site the ledger has no record for.
/// A non-zero count means the join lost provenance — a bug
/// `profile::tests::join_loses_nothing` and
/// `site::tests::overloaded_constructors_keep_a_row_each` pin to zero.
pub const UNATTRIBUTED: &str = "unattributed";

/// The iteration floor of a run that asks for none of its own.
pub const MIN_ITERS: i64 = 8;

/// How many iterations `w` runs at `scale` of its default size, and at
/// least `min_iters`.
pub fn scaled_iters(w: &Workload, scale: f64, min_iters: i64) -> i64 {
    ((w.default_iters as f64 * scale) as i64).max(min_iters)
}

/// The elision set `compiled` earns: its pre-null and null-or-same
/// sites, each tagged with the oracle that checks it.
pub fn elision_set(compiled: &Compiled) -> ElidedBarriers {
    let mut elided: ElidedBarriers = compiled.elided_sites().into_iter().collect();
    for (m, a) in compiled.null_or_same_sites() {
        elided.insert_kind(m, a, ElisionKind::NullOrSame);
    }
    elided
}

/// Compiles `w` under `config`: the program and its [`elision_set`].
pub fn compile_workload_with(w: &Workload, config: &PipelineConfig) -> (Compiled, ElidedBarriers) {
    let compiled = compile(&w.program, config);
    let elided = elision_set(&compiled);
    (compiled, elided)
}

/// The heap verifier at every cycle boundary, a recovery controller
/// that allows `max_attempts` consecutive failed re-marks, and seeded
/// faults if any: a run that heals what the faults break. With
/// `max_attempts: 0` nothing heals — the first violation ends the run
/// with the trap it would end with under no controller, which is how
/// `verify` runs.
#[derive(Clone, Copy, Debug)]
pub struct Chaos {
    /// The fault schedule; `None` runs the verifier over an unperturbed
    /// collector.
    pub faults: Option<FaultConfig>,
    /// Consecutive failed re-marks before the original trap fires.
    pub max_attempts: u32,
}

/// What to compile and how to run it.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// The compilation pipeline; its ledger is what the join reads
    /// static verdicts from. Only [`observe`] reads it.
    pub pipeline: PipelineConfig,
    /// Iteration scale (see [`scaled_iters`]).
    pub scale: f64,
    /// Floor on the iteration count (see [`scaled_iters`]).
    pub min_iters: i64,
    /// The barrier flavour at sites the run keeps.
    pub barrier: BarrierMode,
    /// The marker the collector runs.
    pub style: MarkStyle,
    /// The marking schedule; with none, no cycle ever starts.
    pub gc: Option<GcPolicy>,
    /// Run the §4.3 rearrangement protocol at the recognizer's sites
    /// the run does not already elide.
    pub rearrange: bool,
    /// Classify every kept-barrier execution with the necessity oracle.
    pub oracle: bool,
    /// Inject faults and heal them.
    pub chaos: Option<Chaos>,
}

impl RunSpec {
    /// The configuration `baselines/suite.ndjson` is measured under and
    /// `profile`, `oracle`, `report` and `explain` share: full analysis
    /// at inline limit 100 with its ledger, checked SATB barriers with
    /// the elision set applied, [`BASELINE_GC`].
    pub fn baseline(scale: f64) -> RunSpec {
        RunSpec {
            pipeline: PipelineConfig::new(OptMode::Full, 100).with_ledger(),
            scale,
            gc: Some(BASELINE_GC),
            ..RunSpec::paper(OptMode::Full, 100)
        }
    }

    /// The run the paper's experiments share and vary: `mode` at
    /// inline limit `limit`, checked SATB barriers with the elision set
    /// applied, no marking schedule, at least [`MIN_ITERS`] iterations
    /// at full size.
    pub fn paper(mode: OptMode, limit: usize) -> RunSpec {
        RunSpec {
            pipeline: PipelineConfig::new(mode, limit),
            scale: 1.0,
            min_iters: MIN_ITERS,
            barrier: BarrierMode::Checked,
            style: MarkStyle::Satb,
            gc: None,
            rearrange: false,
            oracle: false,
            chaos: None,
        }
    }
}

/// Everything one run of a workload produced.
#[derive(Debug)]
pub struct Observed {
    /// Workload name.
    pub workload: &'static str,
    /// Iterations the entry method was asked for.
    pub iters: i64,
    /// Compilation artefacts, ledger included when the spec asked.
    pub compiled: Compiled,
    /// The elision set the barriers ran under.
    pub elided: ElidedBarriers,
    /// What the entry method returned, or the trap that ended the run.
    /// Everything below is what had accumulated by then.
    pub result: Result<Option<Value>, Trap>,
    /// Interpreter statistics, per-site barrier counters included.
    pub stats: RunStats,
    /// The heap as the run left it: the collector's statistics
    /// (`heap.gc.stats`), the fault plan and what it injected
    /// (`heap.fault`), and under the oracle the witness table.
    pub heap: Heap,
    /// The global registry as the run left it. The registry is
    /// process-wide: a caller that wants this run's histograms alone
    /// resets it first.
    pub telemetry: MetricsSnapshot,
    /// Per-site necessity tallies and the cycle audit, when the spec
    /// enabled the oracle.
    pub oracle: Option<OracleState>,
    /// The recovery controller as the run left it, under chaos.
    pub recovery: Option<RecoveryController>,
}

/// Compiles `w` under `spec.pipeline` and runs it once
/// ([`observe_compiled`]).
pub fn observe(w: &Workload, spec: &RunSpec) -> Observed {
    let (compiled, elided) = compile_workload_with(w, &spec.pipeline);
    observe_compiled(w, compiled, elided, spec)
}

/// Runs `compiled`, a build of `w`, once with `elided` as its elision
/// set and `spec` for everything but the pipeline, and keeps what came
/// out. A driver that runs one build several times clones it per run.
pub fn observe_compiled(
    w: &Workload,
    compiled: Compiled,
    elided: ElidedBarriers,
    spec: &RunSpec,
) -> Observed {
    let iters = scaled_iters(w, spec.scale, spec.min_iters);
    let mut config = BarrierConfig::with_elision(spec.barrier, elided.clone());
    if spec.rearrange {
        let plan = plan_program(&compiled.program);
        config = config.with_rearrange(protocol_sites(&plan, &elided));
    }
    let mut interp = Interp::with_style(&compiled.program, config, spec.style);
    if let Some(policy) = spec.gc {
        interp.set_gc_policy(policy);
    }
    interp.set_oracle(spec.oracle);
    if let Some(chaos) = spec.chaos {
        if let Some(faults) = chaos.faults {
            interp.set_fault_plan(FaultPlan::new(faults));
        }
        interp.set_verify_invariants(true);
        interp.set_recovery(RecoveryPolicy {
            max_attempts: chaos.max_attempts,
        });
    }
    let result = interp.run(w.entry, &[Value::Int(iters)], w.fuel_for(iters));
    Observed {
        workload: w.name,
        iters,
        elided,
        result,
        stats: std::mem::take(&mut interp.stats),
        heap: std::mem::replace(&mut interp.heap, Heap::new(spec.style)),
        telemetry: wbe_telemetry::registry::global().snapshot(),
        oracle: interp.oracle().cloned(),
        recovery: interp.recovery().cloned(),
        // Last: the interpreter borrows the program until here.
        compiled,
    }
}

/// Everything known about one store site of an observed program.
#[derive(Clone, Debug)]
pub struct SiteReport<'a> {
    /// Post-inlining method name.
    pub method: &'a str,
    /// Where in the method.
    pub addr: InsnAddr,
    /// Static verdict and evidence. `None` only for a site that ran
    /// but that the ledger has no record of.
    pub record: Option<&'a SiteRecord>,
    /// Whether the run treated the barrier as elided.
    pub elided: bool,
    /// Field or array store, once the site has executed.
    pub kind: Option<StoreKind>,
    /// Executions, null pre-values and barrier cycles (zero for a site
    /// that never ran).
    pub stats: SiteStats,
    /// Necessity verdicts of its kept-barrier executions.
    pub necessity: Option<SiteNecessity>,
    /// Why the runtime revoked its elision, if it did.
    pub revoked: Option<&'a str>,
}

impl<'a> SiteReport<'a> {
    /// A site nothing has been observed at yet.
    fn unobserved(method: &'a str, addr: InsnAddr, elided: bool) -> SiteReport<'a> {
        SiteReport {
            method,
            addr,
            record: None,
            elided,
            kind: None,
            stats: SiteStats::default(),
            necessity: None,
            revoked: None,
        }
    }

    /// What the ledger alone says about `rec`'s site.
    pub fn of_record(rec: &'a SiteRecord) -> SiteReport<'a> {
        SiteReport {
            record: Some(rec),
            ..SiteReport::unobserved(&rec.method, rec.addr(), rec.verdict == Verdict::Elide)
        }
    }

    /// The site's label, `method@B<block>[<index>]`
    /// ([`InsnAddr::label`]).
    pub fn site_key(&self) -> String {
        self.addr.label(self.method)
    }

    /// The first failing elision condition; `None` for an elided site
    /// or one the ledger has no record of.
    pub fn keep_code(&self) -> Option<KeepCode> {
        self.record.and_then(|rec| rec.keep_code)
    }

    /// The name of [`keep_code`](Self::keep_code), or [`UNATTRIBUTED`].
    pub fn keep_code_name(&self) -> &'static str {
        self.keep_code().map_or(UNATTRIBUTED, KeepCode::as_str)
    }

    /// True once the site has executed with its barrier in place: the
    /// sites that cost cycles and that the oracle judges.
    pub fn ran_kept(&self) -> bool {
        !self.elided && self.kind.is_some()
    }

    /// `"array"` for an `aastore`, `"field"` otherwise.
    pub fn kind_name(&self) -> &'static str {
        match self.kind {
            Some(StoreKind::Array) => "array",
            _ => "field",
        }
    }

    /// What the run saw that refutes the keep-code of a kept site no
    /// execution of which needed its barrier; `None` for any other
    /// site. A code of the thread-locality condition
    /// ([`KeepCode::condition`]) is refuted by observed thread-locality,
    /// one of the pre-null condition by all-null pre-values; otherwise
    /// the dominant vacuity class is the evidence.
    pub fn refuting_witness(&self) -> Option<String> {
        let n = self.necessity.filter(SiteNecessity::never_necessary)?;
        Some(match self.keep_code().and_then(KeepCode::condition) {
            Some(Condition::ThreadLocal) if n.receiver_escaped == 0 => {
                let what = match self.kind {
                    Some(StoreKind::Array) => "array",
                    _ => "receiver",
                };
                format!("{what} thread-local in all {} executions", n.executions)
            }
            Some(Condition::PreNull) if self.stats.pre_null == n.executions => {
                format!("pre-value null in all {} executions", n.executions)
            }
            _ => format!(
                "enqueue vacuous in all {} executions (dominant: {})",
                n.executions,
                n.dominant()
            ),
        })
    }
}

/// Column sums of a per-site table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Store executions at every site.
    pub executions: u64,
    /// Of those, executions at sites the run elided.
    pub elided_executions: u64,
    /// Barrier cycles charged (all of them at kept sites).
    pub cycles: u64,
    /// Kept executions whose enqueue the oracle judged necessary.
    pub necessary_executions: u64,
    /// Kept executions at sites none of whose executions needed the
    /// barrier: what a perfect analysis could have elided on this run.
    pub never_necessary_executions: u64,
}

impl Totals {
    /// Sums `sites`.
    pub fn of(sites: &[SiteReport<'_>]) -> Totals {
        sites.iter().fold(Totals::default(), |mut t, s| {
            let n = s.necessity.unwrap_or_default();
            t.executions += s.stats.executions;
            t.elided_executions += if s.elided { s.stats.executions } else { 0 };
            t.cycles += s.stats.cycles;
            t.necessary_executions += n.necessary;
            t.never_necessary_executions += if n.never_necessary() { n.executions } else { 0 };
            t
        })
    }

    /// Executions at sites whose barrier stayed.
    pub fn kept_executions(&self) -> u64 {
        self.executions - self.elided_executions
    }
}

impl std::iter::Sum for Totals {
    fn sum<I: Iterator<Item = Totals>>(iter: I) -> Totals {
        iter.fold(Totals::default(), |a, b| Totals {
            executions: a.executions + b.executions,
            elided_executions: a.elided_executions + b.elided_executions,
            cycles: a.cycles + b.cycles,
            necessary_executions: a.necessary_executions + b.necessary_executions,
            never_necessary_executions: a.never_necessary_executions + b.never_necessary_executions,
        })
    }
}

/// The workloads a per-site view runs, each with whether it feeds the
/// view's headline: the ones `names` asks for, in that order, all of
/// them headline; or, when it names none, the standard suite (headline)
/// followed by `extra()` (riding along). `Err` names an unknown
/// workload.
pub fn select_workloads(
    names: &[String],
    extra: fn() -> Vec<Workload>,
) -> Result<Vec<(Workload, bool)>, String> {
    if names.is_empty() {
        let suite = wbe_workloads::standard_suite()
            .into_iter()
            .map(|w| (w, true));
        return Ok(suite
            .chain(extra().into_iter().map(|w| (w, false)))
            .collect());
    }
    names
        .iter()
        .map(|n| {
            wbe_workloads::by_name(n)
                .map(|w| (w, true))
                .ok_or_else(|| format!("unknown workload '{n}'"))
        })
        .collect()
}

impl Observed {
    /// The static ledger of the compiled program.
    ///
    /// # Panics
    ///
    /// If the spec's pipeline built none.
    pub fn ledger(&self) -> &ElisionLedger {
        self.compiled
            .ledger
            .as_ref()
            .expect("the spec's pipeline builds a ledger")
    }

    /// `Err` with the message every driver prints when the run trapped.
    pub fn completed(self) -> Result<Observed, String> {
        match &self.result {
            Err(t) => Err(format!("workload {} trapped: {t}", self.workload)),
            Ok(_) => Ok(self),
        }
    }

    /// The run's barrier executions summarised against the elision set
    /// it ran under.
    pub fn summary(&self) -> BarrierSummary {
        self.stats.barrier.summarize(&self.elided)
    }

    /// The join: one report per store site the ledger records or the
    /// run touched, in `(method, block, index)` order — the ledger's
    /// own order and the oracle's. Every table it folds is keyed by
    /// the site's `(MethodId, InsnAddr)`; none is looked up by name.
    pub fn sites(&self) -> Vec<SiteReport<'_>> {
        let program = &self.compiled.program;
        // `elided` is what the run applied, not what the ledger
        // recommends: the set also holds null-or-same sites.
        let blank = |(mid, addr): (MethodId, InsnAddr)| {
            let elided = self.elided.contains(mid, addr);
            SiteReport::unobserved(&program.method(mid).name, addr, elided)
        };
        let mut table: BTreeMap<(MethodId, InsnAddr), SiteReport<'_>> = BTreeMap::new();
        for rec in &self.ledger().records {
            let key = (rec.method_id, rec.addr());
            table.entry(key).or_insert_with(|| blank(key)).record = Some(rec);
        }
        for (&(mid, addr, kind), stats) in self.stats.barrier.iter() {
            let key = (mid, addr);
            let site = table.entry(key).or_insert_with(|| blank(key));
            site.kind = Some(kind);
            site.stats = *stats;
        }
        for (&key, necessity) in self.oracle.iter().flat_map(|o| &o.sites) {
            table.entry(key).or_insert_with(|| blank(key)).necessity = Some(*necessity);
        }
        for (&key, rev) in &self.stats.revocations {
            table.entry(key).or_insert_with(|| blank(key)).revoked = Some(&rev.reason);
        }
        table.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jess_runs_end_to_end_with_elision_oracle() {
        let w = wbe_workloads::by_name("jess").unwrap();
        let spec = RunSpec {
            scale: 0.05,
            ..RunSpec::paper(OptMode::Full, 100)
        };
        let obs = observe(&w, &spec).completed().unwrap();
        let summary = obs.summary();
        assert!(summary.total() > 0);
        assert!(summary.eliminated() > 0, "jess must elide barriers");
        assert!(obs.stats.elided_executions > 0);
    }

    /// A kept `aastore` that never needed its barrier and only ever
    /// overwrote null is refuted by its pre-values: the array codes of
    /// the null-range condition count as pre-null, like the field ones.
    #[test]
    fn an_array_keep_code_is_refuted_by_null_pre_values() {
        let mut pb = wbe_ir::builder::ProgramBuilder::new();
        let c = pb.class("C");
        pb.method("arr", vec![wbe_ir::Ty::Int], None, 1, |mb| {
            let (n, a) = (mb.local(0), mb.local(1));
            mb.iconst(8).new_ref_array(c).store(a);
            mb.load(a).load(n).const_null().aastore(); // kept: index unknown
            mb.return_();
        });
        let program = pb.finish();
        for config in [
            wbe_analysis::AnalysisConfig::full(),
            wbe_analysis::AnalysisConfig::field_only(),
        ] {
            let ledger = ElisionLedger::build(&program, &config);
            let mut site = SiteReport::of_record(&ledger.records[0]);
            assert!(!site.elided);
            site.kind = Some(StoreKind::Array);
            site.stats.executions = 5;
            site.stats.pre_null = 5;
            site.necessity = Some(SiteNecessity {
                executions: 5,
                null_old: 5,
                ..SiteNecessity::default()
            });
            assert_eq!(
                site.refuting_witness().as_deref(),
                Some("pre-value null in all 5 executions"),
                "{:?}",
                ledger.records[0]
            );
        }
    }

    /// Two overloaded constructors share the name `C::<init>`, and each
    /// stores `this.f = a` at `B0[2]`: the join must tell the two sites
    /// apart by method id, not by name.
    #[test]
    fn overloaded_constructors_keep_a_row_each() {
        use wbe_ir::Ty;
        use wbe_workloads::helpers::{counted_loop, Bound};
        let mut pb = wbe_ir::builder::ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let one = pb.declare_constructor(c, vec![Ty::Ref(c)]);
        let two = pb.declare_constructor(c, vec![Ty::Ref(c), Ty::Int]);
        for ctor in [one, two] {
            pb.define_method(ctor, 0, |mb| {
                let (this, a) = (mb.local(0), mb.local(1));
                mb.load(this).load(a).putfield(f);
                mb.return_();
            });
        }
        let entry = pb.method("main", vec![Ty::Int], None, 2, |mb| {
            let (n, i, prev) = (mb.local(0), mb.local(1), mb.local(2));
            mb.const_null().store(prev);
            counted_loop(mb, i, Bound::Local(n), |mb| {
                mb.new_object(c).dup().load(prev).invoke(one).store(prev);
                mb.new_object(c)
                    .dup()
                    .load(prev)
                    .iconst(1)
                    .invoke(two)
                    .store(prev);
            });
            mb.return_();
        });
        let w = Workload {
            name: "overloaded",
            program: pb.finish(),
            entry,
            default_iters: 16,
        };
        let spec = RunSpec {
            pipeline: PipelineConfig::new(OptMode::Full, 0).with_ledger(),
            ..RunSpec::paper(OptMode::Full, 0)
        };
        let obs = observe(&w, &spec).completed().unwrap();
        let sites = obs.sites();
        let recorded = sites.iter().filter(|s| s.record.is_some()).count();
        assert_eq!(recorded, obs.ledger().records.len());
        let unattributed: Vec<String> = sites
            .iter()
            .filter(|s| s.kind.is_some() && s.record.is_none())
            .map(SiteReport::site_key)
            .collect();
        assert!(unattributed.is_empty(), "{unattributed:?}");
    }

    /// `verify` runs under a controller that allows no re-mark: a
    /// violation must end the run as it does with no controller at all.
    #[test]
    fn a_controller_with_no_attempts_traps_like_none() {
        let w = wbe_workloads::by_name("db").unwrap();
        let faults = FaultConfig {
            corrupt_mark_pm: 1000,
            ..FaultConfig::from_seed(7)
        };
        let obs = observe(
            &w,
            &RunSpec {
                scale: 0.02,
                gc: Some(crate::soak::CHAOS_GC),
                chaos: Some(Chaos {
                    faults: Some(faults),
                    max_attempts: 0,
                }),
                ..RunSpec::paper(OptMode::Full, 100)
            },
        );
        let config = BarrierConfig::with_elision(BarrierMode::Checked, obs.elided.clone());
        let mut interp = Interp::new(&obs.compiled.program, config);
        interp.set_gc_policy(crate::soak::CHAOS_GC);
        interp.set_fault_plan(FaultPlan::new(faults));
        interp.set_verify_invariants(true);
        let args = [Value::Int(obs.iters)];
        let trap = interp
            .run(w.entry, &args, w.fuel_for(obs.iters))
            .unwrap_err();
        assert!(trap.to_string().contains("INVARIANT VIOLATION"), "{trap}");
        assert_eq!(
            obs.result.as_ref().unwrap_err().to_string(),
            trap.to_string()
        );
        let counters = |s: &RunStats| {
            let scalars = [s.insns, s.cycles, s.barrier_cycles, s.elided_executions];
            let gc = [s.gc_cycles, s.emergency_pauses, s.alloc_retries];
            let (revoked, pauses) = (s.revocations.len(), s.pauses.len());
            (
                scalars,
                gc,
                s.rearrange_skipped,
                s.barrier.totals(),
                revoked,
                pauses,
            )
        };
        assert_eq!(counters(&obs.stats), counters(&interp.stats));
        let rc = obs.recovery.expect("chaos installs a controller");
        assert_eq!((rc.in_panic(), rc.stats.attempted), (false, 0));
    }

    #[test]
    fn the_join_keeps_the_ledgers_order_and_every_count() {
        let _guard = crate::registry_lock();
        let w = wbe_workloads::by_name("jbb").unwrap();
        let obs = observe(
            &w,
            &RunSpec {
                oracle: true,
                ..RunSpec::baseline(0.05)
            },
        )
        .completed()
        .unwrap();
        let sites = obs.sites();
        // One report per ledger record, in the ledger's order, and no
        // site ran that the ledger does not know.
        let keys: Vec<String> = sites.iter().map(SiteReport::site_key).collect();
        let ledger: Vec<String> = obs.ledger().records.iter().map(|r| r.site_key()).collect();
        assert_eq!(keys, ledger);
        assert!(sites.iter().all(|s| s.keep_code().is_some() || s.elided));
        // Nothing the interpreter counted is lost or counted twice.
        let totals = Totals::of(&sites);
        let (executions, _) = obs.stats.barrier.totals();
        assert_eq!(totals.executions, executions);
        assert_eq!(totals.elided_executions, obs.stats.elided_executions);
        let cycles: u64 = obs.stats.barrier.iter().map(|(_, s)| s.cycles).sum();
        assert_eq!(totals.cycles, cycles);
        // The oracle judged exactly the sites whose barrier ran, every
        // execution of them.
        for s in &sites {
            assert_eq!(s.necessity.is_some(), s.ran_kept(), "{}", s.site_key());
            if let Some(n) = s.necessity {
                assert_eq!(n.executions, s.stats.executions, "{}", s.site_key());
            }
        }
        assert!(sites.iter().any(|s| s.ran_kept()) && totals.elided_executions > 0);
    }
}
