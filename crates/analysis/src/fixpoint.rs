//! The fixed-point engine both analysis domains run on, and the
//! pre-null elision judgment.
//!
//! One worklist driver (`run_fixpoint`) solves any `Domain`: SNIPPETS
//! §3's `ConfigurableProgramAnalysis` cut to what the two analyses use —
//! an entry state, a per-instruction transfer that returns the site
//! judgment, a per-edge transfer at the terminator, a merge that takes
//! the widen flag, and a `reduce` observer. [`AbsState`] (pre-null,
//! §2–§3) and null-or-same's state (§4.3, [`crate::nullsame`]) are its
//! two instances. Iteration is in reverse postorder: process a block
//! from its entry state, hand the out-state to each successor, repeat
//! until nothing changes (§2.2). Integer components are widened to ⊤
//! after [`WIDEN_AFTER`] merges at one join point — the
//! termination backstop for the stride-variable machinery.
//!
//! Judgments are taken in one extra pass *after* the fixed point,
//! because "the last such judgment (at the fixed point of the analysis)
//! is correct" (§2.4). That pass (`replay`) is the one walk over a
//! solved domain: it serves [`MethodSolution::replay`] (the elision
//! result and the ledger's records, from which the dump is rendered),
//! the §6 clients ([`crate::bounds`], [`crate::stackalloc`]) and
//! null-or-same's judgment. [`analyze_program_with`] returns any
//! combination from one solve per method and domain — §6's "integrated
//! static analysis framework that provides a variety of information".
//!
//! The driver is **guardrailed**, for both domains alike:
//! non-convergence within the iteration cap, wall-clock budget
//! exhaustion, and panics inside the transfer functions degrade the
//! method to the conservative "elide nothing" result
//! ([`AnalysisOutcome::Degraded`]; the empty set for null-or-same)
//! instead of aborting the pipeline. Degradations are counted in
//! `wbe-telemetry` under `analysis.degraded`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use wbe_ir::{cfg, Insn, InsnAddr, Method, MethodId, Program, Terminator};

use crate::config::AnalysisConfig;
use crate::dump;
use crate::intval::VarAlloc;
use crate::ledger::{self, ElisionLedger, Evidence, SiteRecord};
use crate::nullsame;
use crate::refs::RefSet;
use crate::state::{AbsState, MethodCtx};
use crate::transfer::{is_barrier_site, transfer_insn, transfer_term, Judgment};
use crate::worklist::Worklist;

/// Why a method's analysis fell back to the conservative result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DegradeReason {
    /// The worklist exceeded the iteration cap without converging.
    IterationCap {
        /// The cap that was exceeded (configured or size-scaled).
        limit: usize,
    },
    /// The per-method wall-clock budget was exhausted.
    TimeBudget {
        /// The budget that was exhausted.
        budget: Duration,
    },
    /// The analysis panicked and was isolated by `catch_unwind`.
    Panicked {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// An internal invariant of the fixpoint driver failed.
    Internal(&'static str),
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeReason::IterationCap { limit } => {
                write!(f, "iteration cap exceeded ({limit} blocks)")
            }
            DegradeReason::TimeBudget { budget } => {
                write!(f, "wall-clock budget exhausted ({budget:?})")
            }
            DegradeReason::Panicked { message } => write!(f, "analysis panicked: {message}"),
            DegradeReason::Internal(what) => write!(f, "internal driver error: {what}"),
        }
    }
}

/// How a method's analysis concluded.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum AnalysisOutcome {
    /// The fixpoint converged and the elision judgments are final.
    #[default]
    Complete,
    /// A guardrail fired; the method conservatively elides nothing.
    Degraded(DegradeReason),
}

impl AnalysisOutcome {
    /// True when a guardrail fired.
    pub fn is_degraded(&self) -> bool {
        matches!(self, AnalysisOutcome::Degraded(_))
    }
}

/// Per-method analysis result.
#[derive(Clone, Debug, Default)]
pub struct MethodAnalysis {
    /// Store sites whose SATB barrier may be omitted.
    pub elided: BTreeSet<InsnAddr>,
    /// Total barrier-relevant store sites in the method.
    pub barrier_sites: usize,
    /// Barrier-relevant `putfield` sites.
    pub field_sites: usize,
    /// `aastore` sites.
    pub array_sites: usize,
    /// Blocks processed until the fixed point (a work measure).
    pub iterations: usize,
    /// How the analysis concluded; `Degraded` methods elide nothing.
    pub outcome: AnalysisOutcome,
}

/// Whole-program analysis result.
#[derive(Clone, Debug, Default)]
pub struct ProgramAnalysis {
    /// Per-method results.
    pub methods: BTreeMap<MethodId, MethodAnalysis>,
    /// Wall-clock analysis time (Figure 2's compile-time axis): every
    /// method's solve plus the one replay over it. When the same pass
    /// also builds the ledger or the dump, or solves null-or-same
    /// ([`Products`]), that work is inside this time;
    /// the pre-null fixed points are not solved again for it.
    pub elapsed: Duration,
}

impl ProgramAnalysis {
    /// Methods whose analysis degraded to the conservative result.
    pub fn degraded_methods(&self) -> impl Iterator<Item = (MethodId, &DegradeReason)> + '_ {
        self.methods.iter().filter_map(|(&m, a)| match &a.outcome {
            AnalysisOutcome::Degraded(r) => Some((m, r)),
            AnalysisOutcome::Complete => None,
        })
    }

    /// Number of degraded methods.
    pub fn degraded_count(&self) -> usize {
        self.degraded_methods().count()
    }

    /// Total elided sites.
    pub fn total_elided(&self) -> usize {
        self.methods.values().map(|m| m.elided.len()).sum()
    }

    /// Total barrier-relevant sites.
    pub fn total_sites(&self) -> usize {
        self.methods.values().map(|m| m.barrier_sites).sum()
    }

    /// Iterates `(method, site)` pairs for every elided barrier.
    pub fn iter_elided(&self) -> impl Iterator<Item = (MethodId, InsnAddr)> + '_ {
        self.methods
            .iter()
            .flat_map(|(&m, a)| a.elided.iter().map(move |&addr| (m, addr)))
    }
}

/// The by-products [`analyze_program_with`] derives from the same
/// solved fixed points as the [`ProgramAnalysis`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Products {
    /// Build the per-site [`ElisionLedger`].
    pub ledger: bool,
    /// Render the text dump of every method ([`crate::dump`]).
    pub dump: bool,
    /// Solve §4.3 null-or-same ([`crate::nullsame`]) in the same
    /// per-method pass, under the same guardrails, and mark each ledger
    /// record it elides as the record is emitted.
    pub null_or_same: bool,
}

/// What one pass over a program produced: each method solved once,
/// replayed once.
#[derive(Clone, Debug)]
pub struct Analyzed {
    /// The elision result.
    pub analysis: ProgramAnalysis,
    /// The provenance ledger, when asked for.
    pub ledger: Option<ElisionLedger>,
    /// The text dump of every method in program order, when asked for.
    pub dump: Option<String>,
    /// Every method's §4.3 null-or-same sites; empty unless asked for.
    pub null_or_same: BTreeMap<MethodId, BTreeSet<InsnAddr>>,
}

/// Runs the analyses on every method of `program`.
pub fn analyze_program(program: &Program, config: &AnalysisConfig) -> ProgramAnalysis {
    analyze_program_with(program, config, Products::default()).analysis
}

/// Runs the analyses on every method of `program` and derives the
/// requested [`Products`] from the same solve and replay.
pub fn analyze_program_with(
    program: &Program,
    config: &AnalysisConfig,
    products: Products,
) -> Analyzed {
    let _span = wbe_telemetry::span!("analysis.program");
    let start = Instant::now();
    let mut methods = BTreeMap::new();
    let mut records = Vec::new();
    let mut dump = String::new();
    let mut nos = BTreeMap::new();
    for (mid, method) in program.iter_methods() {
        let _span = wbe_telemetry::span!("analysis.fixpoint", "{}", method.name);
        let solution = MethodSolution::solve(program, method, config);
        // The dump's per-site lines are rendered from the records.
        let mut replay = solution.replay(products.ledger || products.dump);
        if products.null_or_same {
            let sites = nullsame::analyze_method_under(program, method, config);
            for rec in &mut replay.records {
                rec.null_or_same = sites.contains(&rec.addr());
            }
            nos.insert(mid, sites);
        }
        if products.dump {
            dump.push_str(&dump::render(&solution, &replay.records));
        }
        if products.ledger {
            records.extend(replay.records);
        }
        publish_method(&replay.analysis);
        methods.insert(mid, replay.analysis);
    }
    let elapsed = start.elapsed();
    Analyzed {
        analysis: ProgramAnalysis { methods, elapsed },
        ledger: products
            .ledger
            .then(|| ElisionLedger::from_records(records)),
        dump: products.dump.then_some(dump),
        null_or_same: nos,
    }
}

/// Runs the analyses on one method.
///
/// Never panics on any input program: non-convergence, budget
/// exhaustion, and panics inside the transfer functions degrade the
/// method to the conservative "elide nothing" result, recorded in
/// [`MethodAnalysis::outcome`].
pub fn analyze_method(
    program: &Program,
    method: &Method,
    config: &AnalysisConfig,
) -> MethodAnalysis {
    let _span = wbe_telemetry::span!("analysis.fixpoint", "{}", method.name);
    let result = MethodSolution::solve(program, method, config)
        .replay(false)
        .analysis;
    publish_method(&result);
    result
}

/// Publishes one method's result to the telemetry registry.
fn publish_method(result: &MethodAnalysis) {
    if result.outcome.is_degraded() {
        wbe_telemetry::counter("analysis.degraded").inc();
    }
    wbe_telemetry::counter("analysis.methods_analyzed").inc();
    wbe_telemetry::counter("analysis.barrier_sites").add(result.barrier_sites as u64);
    wbe_telemetry::counter("analysis.elided_sites").add(result.elided.len() as u64);
    wbe_telemetry::histogram("analysis.fixpoint.iterations").record(result.iterations as u64);
}

/// Runs `f`, turning a panic into [`DegradeReason::Panicked`]: a
/// pathological method degrades instead of killing the pipeline.
pub(crate) fn isolated<T>(f: impl FnOnce() -> T) -> Result<T, DegradeReason> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        DegradeReason::Panicked { message }
    })
}

/// One method's solved fixed point — the artefact every product is
/// derived from: the elision result, the ledger's records, the text
/// dump, and the §6 clients ([`crate::bounds`], [`crate::stackalloc`]).
///
/// The guardrails (iteration cap, wall-clock budget, panic isolation)
/// are applied here, by the driver null-or-same shares, so a method
/// that degrades does so identically in every product.
#[derive(Debug)]
pub struct MethodSolution<'p> {
    ctx: MethodCtx<'p>,
    /// Per-block entry states: the fixed point when `outcome` is
    /// `Complete`; otherwise whatever the driver had reached when the
    /// guardrail fired (nothing, after a panic).
    states: Vec<Option<AbsState>>,
    iterations: usize,
    outcome: AnalysisOutcome,
}

/// What [`MethodSolution::replay`] derives from a solution.
#[derive(Clone, Debug)]
pub struct Replay {
    /// The elision result.
    pub analysis: MethodAnalysis,
    /// One record per barrier site in (block, instruction) order; empty
    /// unless asked for.
    pub records: Vec<SiteRecord>,
}

impl<'p> MethodSolution<'p> {
    /// Solves `method`'s fixed point under `config`.
    ///
    /// Never panics on any input program, and neither does any later
    /// [`replay`](Self::replay) of the result.
    pub fn solve(program: &'p Program, method: &'p Method, config: &AnalysisConfig) -> Self {
        let guard = Guard::new(config);
        let mut ctx = MethodCtx::new(program, method, config);
        let unreached = || vec![None; method.blocks.len()];
        let solved = isolated(|| {
            // Classic escape (the ablation) runs twice, pinning what
            // escaped anywhere in the first run as escaped from the start
            // of the second.
            let mut first = 0;
            if !config.flow_sensitive_escape {
                let mut classic = PreNull::new(&ctx, Some(RefSet::new()));
                first = classic.run(&guard)?.1;
                ctx.pinned_nl = classic.nl_anywhere.unwrap_or_default();
            }
            let (states, second) = PreNull::new(&ctx, None).run(&guard)?;
            Ok((states, first + second))
        })
        // Partial states from a panicked run are not trusted even for
        // reporting.
        .unwrap_or_else(|reason| {
            Err(FixpointDegrade {
                reason,
                partial: unreached(),
            })
        });
        let (states, iterations, outcome) = match solved {
            Ok((states, iterations)) => (states, iterations, AnalysisOutcome::Complete),
            Err(d) => (d.partial, 0, AnalysisOutcome::Degraded(d.reason)),
        };
        let mut solution = MethodSolution {
            ctx,
            states,
            iterations,
            outcome,
        };
        // Partial states can include blocks the driver never got to
        // transfer, which on malformed IR may panic when replayed; find
        // out now, so that the solution handed out is safe to replay.
        // The records' walk is the only one that transfers partial
        // states (the clients read a fixed point or nothing), so the
        // probe checks exactly the points later replays visit.
        if solution.outcome.is_degraded() {
            if let Err(reason) = isolated(|| solution.replay(true)) {
                solution.states = unreached();
                solution.outcome = AnalysisOutcome::Degraded(reason);
            }
        }
        solution
    }

    /// The analysis context the solution was computed in.
    pub fn ctx(&self) -> &MethodCtx<'p> {
        &self.ctx
    }

    /// How the solve concluded.
    pub fn outcome(&self) -> &AnalysisOutcome {
        &self.outcome
    }

    /// Blocks processed until the fixed point (0 when degraded).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Per-block entry states (`None` = no state known for the block).
    /// For a degraded method these are **not** fixed points: they are
    /// sound only for *reporting* (the dump and the ledger use them to
    /// explain sites reached before degradation), never for decisions.
    pub fn entry_states(&self) -> &[Option<AbsState>] {
        &self.states
    }

    /// The entry states if they are a fixed point (`None` = the method
    /// degraded; clients must fall back to their conservative answer).
    pub fn fixed_point(&self) -> Option<&[Option<AbsState>]> {
        (!self.outcome.is_degraded()).then_some(&self.states[..])
    }

    /// The one replay walk over this method from `states` (`None`: no
    /// block has a state), visiting the points `wants` names: see
    /// `replay`.
    pub(crate) fn walk(
        &self,
        states: Option<&[Option<AbsState>]>,
        wants: impl Fn(Option<&Insn>) -> bool,
        visit: impl FnMut(&mut Step<'_, PreNull<'_, 'p>>),
    ) {
        replay(
            self.ctx.method,
            &PreNull::new(&self.ctx, None),
            states,
            wants,
            visit,
        );
    }

    /// The final judgment pass: replays each block from its entry state
    /// up to its last barrier site, taking the elision judgments "at the
    /// fixed point of the analysis" (§2.4) and, `with_records`, the
    /// evidence behind each.
    pub fn replay(&self, with_records: bool) -> Replay {
        let degraded = match &self.outcome {
            AnalysisOutcome::Degraded(reason) => Some(reason.to_string()),
            AnalysisOutcome::Complete => None,
        };
        let mut analysis = MethodAnalysis {
            iterations: self.iterations,
            outcome: self.outcome.clone(),
            ..MethodAnalysis::default()
        };
        let mut records = Vec::new();
        // A degraded method elides nothing: its states matter only to
        // the records.
        let states = (with_records || degraded.is_none()).then_some(&self.states[..]);
        let program = self.ctx.program;
        let site = |p: Option<&Insn>| p.is_some_and(|i| is_barrier_site(program, i));
        self.walk(states, site, |step| {
            let insn = step.insn.expect("a barrier site is an instruction");
            // Read before the transfer consumes the operands.
            let evidence = step
                .pre()
                .filter(|_| with_records)
                .map(|s| Evidence::gather(s, &self.ctx, insn));
            let judgment = step.judgment();
            analysis.barrier_sites += 1;
            if matches!(insn, Insn::AaStore) {
                analysis.array_sites += 1;
            } else {
                analysis.field_sites += 1;
            }
            if judgment == Some(Judgment::Elide) && degraded.is_none() {
                analysis.elided.insert(step.addr);
            }
            if with_records {
                records.push(ledger::site_record(
                    &self.ctx,
                    step.addr,
                    insn,
                    evidence.zip(judgment),
                    degraded.as_deref(),
                ));
            }
        });
        Replay { analysis, records }
    }
}

/// Computes the fixed-point entry state of every reachable block — the
/// white-box view for tests that follow the paper's §3.5 walkthrough.
/// All `None` when the method degrades.
pub fn entry_states(
    program: &Program,
    method: &Method,
    config: &AnalysisConfig,
) -> Vec<Option<AbsState>> {
    let solution = MethodSolution::solve(program, method, config);
    match solution.fixed_point() {
        Some(states) => states.to_vec(),
        None => vec![None; method.blocks.len()],
    }
}

/// One abstract domain the driver solves — SNIPPETS §3's
/// `ConfigurableProgramAnalysis` cut to what the two analyses use. The
/// implementor is the per-method analysis: what the transfer functions
/// read, plus any side channel `merge` and `reduce` write.
pub(crate) trait Domain {
    /// The join-semilattice element: one per block entry.
    type State: Clone + PartialEq;
    /// What the domain judges at a store it has a verdict for.
    type Judgment;
    /// The state on method entry.
    fn entry(&self) -> Self::State;
    /// Applies one instruction; the judgment at a store the domain
    /// judges, `None` elsewhere.
    fn transfer(&self, st: &mut Self::State, insn: &Insn) -> Option<Self::Judgment>;
    /// Applies `term` to the state sent along its `succ`-th edge: the
    /// operands it pops plus what taking that edge proves (only
    /// null-or-same's `ifnull`/`ifnonnull` prove anything).
    fn transfer_edge(&self, st: &mut Self::State, term: &Terminator, succ: usize);
    /// Merges `incoming` into `into` at a join point; true if `into`
    /// changed. `widen` is set from the join's [`WIDEN_AFTER`]-th merge
    /// on.
    fn merge(&mut self, into: &mut Self::State, incoming: &Self::State, widen: bool) -> bool;
    /// Observes every block's out-state before its edges.
    fn reduce(&mut self, _out: &Self::State) {}
}

/// Merges at one join point before integer components are widened to
/// ⊤: the termination backstop (DESIGN.md §7).
pub const WIDEN_AFTER: usize = 16;

/// The guardrails one solve runs under, read off its configuration as
/// the solve starts (so the deadline is per method and domain).
pub(crate) struct Guard {
    max_iterations: Option<usize>,
    deadline: Option<(Instant, Duration)>,
}

impl Guard {
    pub(crate) fn new(config: &AnalysisConfig) -> Guard {
        Guard {
            max_iterations: config.max_iterations,
            deadline: config.time_budget.map(|b| (Instant::now() + b, b)),
        }
    }
}

/// A guardrail interruption, carrying whatever per-block entry states
/// the driver had computed when it fired.
pub(crate) struct FixpointDegrade<S> {
    /// The guardrail that fired.
    pub(crate) reason: DegradeReason,
    /// Entry states computed so far (`None` = block not yet reached).
    partial: Vec<Option<S>>,
}

/// What a run of the driver gives: the per-block entry states and the
/// blocks processed, or the guardrail that fired.
pub(crate) type Solved<S> = Result<(Vec<Option<S>>, usize), FixpointDegrade<S>>;

/// The worklist fixed point of `domain` over `method`. Returns the
/// per-block entry states and the blocks processed — or the guardrail
/// that fired, with the states reached so far.
pub(crate) fn run_fixpoint<D: Domain>(
    method: &Method,
    domain: &mut D,
    guard: &Guard,
) -> Solved<D::State> {
    let nblocks = method.blocks.len();
    let rpo = cfg::reverse_postorder(method);
    let mut rpo_pos = vec![usize::MAX; nblocks];
    for (i, b) in rpo.iter().enumerate() {
        rpo_pos[b.index()] = i;
    }

    // Blocks with a single incoming edge are not join points: their
    // entry state is replaced, not merged (merging successive iterates
    // would needlessly widen stride variables to ⊤).
    let mut incoming_edges = vec![0usize; nblocks];
    incoming_edges[0] += 1; // the entry block also receives the initial state
    for (_, block) in method.iter_blocks() {
        for succ in block.term.successors() {
            incoming_edges[succ.index()] += 1;
        }
    }

    let mut entry_states: Vec<Option<D::State>> = vec![None; nblocks];
    let mut merge_counts: Vec<usize> = vec![0; nblocks];
    entry_states[0] = Some(domain.entry());

    // Worklist keyed by RPO position for fast convergence.
    let mut worklist = Worklist::new(nblocks);
    worklist.insert(0);
    let mut iterations = 0usize;
    // The state a visit works on and the copy each edge but the last
    // takes: copied into, visit after visit, so that their buffers are
    // allocated once per solve rather than once per visit.
    let (mut work, mut edge_work) = (None, None);
    // Size-scaled default bound; configs may tighten it. Exceeding it
    // does not panic: the method degrades to "elide nothing".
    let default_cap = (nblocks + 1) * (method.size + 8) * 4 + 10_000;
    let cap = guard.max_iterations.unwrap_or(default_cap);

    while let Some(pos) = worklist.pop_first() {
        iterations += 1;
        let degrade = |reason| FixpointDegrade {
            reason,
            partial: entry_states.clone(),
        };
        if iterations > cap {
            return Err(degrade(DegradeReason::IterationCap { limit: cap }));
        }
        // Amortize the clock read: check the deadline every 16 blocks
        // (and on the first, so a zero budget degrades immediately).
        if let Some((deadline, budget)) = guard.deadline.filter(|_| iterations % 16 == 1) {
            if Instant::now() >= deadline {
                return Err(degrade(DegradeReason::TimeBudget { budget }));
            }
        }
        let bid = rpo[pos];
        let Some(entry) = &entry_states[bid.index()] else {
            return Err(degrade(DegradeReason::Internal(
                "worklist block has no entry state",
            )));
        };
        let st = copy_into(&mut work, entry);
        let block = method.block(bid);
        for insn in &block.insns {
            let _ = domain.transfer(st, insn);
        }
        domain.reduce(st);
        // The last successor takes the out-state itself, earlier ones a
        // copy. A successor's first state is moved in, and a state that
        // replaces another swaps with it, so the old one's buffers are
        // what the next visit copies into.
        let mut succs = block.term.successors().enumerate().peekable();
        while let Some((i, succ)) = succs.next() {
            let edge = if succs.peek().is_none() {
                &mut work
            } else {
                copy_into(&mut edge_work, work.as_ref().expect("visited"));
                &mut edge_work
            };
            let out = edge.as_mut().expect("filled above");
            domain.transfer_edge(out, &block.term, i);
            let s = succ.index();
            let changed = match &mut entry_states[s] {
                slot @ None => {
                    *slot = edge.take();
                    true
                }
                // Not a join point: the new iterate replaces the old.
                Some(existing) if incoming_edges[s] <= 1 => {
                    let changed = *out != *existing;
                    std::mem::swap(existing, out);
                    changed
                }
                Some(existing) => {
                    merge_counts[s] += 1;
                    domain.merge(existing, out, merge_counts[s] >= WIDEN_AFTER)
                }
            };
            if changed {
                worklist.insert(rpo_pos[s]);
            }
        }
    }
    Ok((entry_states, iterations))
}

/// `from` copied into `slot`'s state, reusing its buffers.
fn copy_into<'s, S: Clone>(slot: &'s mut Option<S>, from: &S) -> &'s mut S {
    match slot {
        Some(s) => {
            s.clone_from(from);
            s
        }
        None => slot.insert(from.clone()),
    }
}

/// One point of a `replay` — an instruction, or a block's terminator
/// (`insn` = `None`, `addr.index` = the block's length) — with the
/// state before it.
pub(crate) struct Step<'s, D: Domain> {
    domain: &'s D,
    pub(crate) addr: InsnAddr,
    pub(crate) insn: Option<&'s Insn>,
    state: Option<&'s mut D::State>,
}

impl<D: Domain> Step<'_, D> {
    /// The state before the point (`None`: its block has no state, or
    /// [`judgment`](Self::judgment) has transferred it).
    pub(crate) fn pre(&self) -> Option<&D::State> {
        self.state.as_deref()
    }

    /// Transfers the instruction and returns its judgment; the walk
    /// transfers it if `visit` does not. Call it once.
    pub(crate) fn judgment(&mut self) -> Option<D::Judgment> {
        let st = self.state.take()?;
        self.domain.transfer(st, self.insn?)
    }
}

/// The `wants` of a walk that reads every point, terminators included.
pub(crate) fn every_point(_: Option<&Insn>) -> bool {
    true
}

/// The one walk over a solved domain. `wants` names the points `visit`
/// reads: an instruction, or `None` for a block's terminator. A block
/// with a wanted point is walked from its entry state in `states`
/// (`None`: no block has one) up to its last wanted point, each wanted
/// point handed to `visit` before it is transferred; a block without
/// one is skipped. What lies past a block's last wanted point would
/// only be transferred into a state nobody reads.
pub(crate) fn replay<D: Domain>(
    method: &Method,
    domain: &D,
    states: Option<&[Option<D::State>]>,
    wants: impl Fn(Option<&Insn>) -> bool,
    mut visit: impl FnMut(&mut Step<'_, D>),
) {
    let mut work = None;
    for (bid, block) in method.iter_blocks() {
        let last = if wants(None) {
            block.insns.len()
        } else {
            match block.insns.iter().rposition(|i| wants(Some(i))) {
                Some(last) => last,
                None => continue,
            }
        };
        let entry = states.and_then(|s| s[bid.index()].as_ref());
        let mut st = entry.map(|entry| copy_into(&mut work, entry));
        let points = block.insns.iter().map(Some).chain([None]);
        for (index, insn) in points.take(last + 1).enumerate() {
            let mut step = Step {
                domain,
                addr: InsnAddr::new(bid, index),
                insn,
                state: st.as_deref_mut(),
            };
            if wants(insn) {
                visit(&mut step);
            }
            step.judgment();
        }
    }
}

/// The pre-null domain as the driver solves it: the method's context,
/// the allocator its merges name stride variables from, the merges and
/// widenings it counts for `analysis.*`, and — on classic escape's
/// first run — the NL of every program point.
pub(crate) struct PreNull<'c, 'p> {
    ctx: &'c MethodCtx<'p>,
    alloc: VarAlloc,
    merges: u64,
    widenings: u64,
    nl_anywhere: Option<RefSet>,
}

impl<'c, 'p> PreNull<'c, 'p> {
    fn new(ctx: &'c MethodCtx<'p>, nl_anywhere: Option<RefSet>) -> Self {
        PreNull {
            ctx,
            alloc: VarAlloc::new(),
            merges: 0,
            widenings: 0,
            nl_anywhere,
        }
    }

    /// One run of the driver. Only this domain's runs are counted under
    /// `analysis.fixpoint.blocks_processed`, `analysis.state_merges`
    /// and `analysis.widenings`, and only when they converge.
    fn run(&mut self, guard: &Guard) -> Solved<AbsState> {
        let solved = run_fixpoint(self.ctx.method, self, guard)?;
        wbe_telemetry::counter("analysis.fixpoint.blocks_processed").add(solved.1 as u64);
        wbe_telemetry::counter("analysis.state_merges").add(self.merges);
        wbe_telemetry::counter("analysis.widenings").add(self.widenings);
        Ok(solved)
    }
}

impl Domain for PreNull<'_, '_> {
    type State = AbsState;
    type Judgment = Judgment;

    fn entry(&self) -> AbsState {
        AbsState::entry(self.ctx)
    }

    fn transfer(&self, st: &mut AbsState, insn: &Insn) -> Option<Judgment> {
        transfer_insn(st, self.ctx, insn)
    }

    fn transfer_edge(&self, st: &mut AbsState, term: &Terminator, _succ: usize) {
        transfer_term(st, term);
    }

    fn merge(&mut self, into: &mut AbsState, incoming: &AbsState, widen: bool) -> bool {
        self.merges += 1;
        self.widenings += u64::from(widen);
        into.merge_from(incoming, self.ctx, &mut self.alloc, widen)
    }

    fn reduce(&mut self, out: &AbsState) {
        if let Some(nl) = &mut self.nl_anywhere {
            nl.union_with(&out.nl);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transfer::KeepCode;
    use wbe_ir::builder::ProgramBuilder;
    use wbe_ir::{BlockId, CmpOp, Ty};

    /// The paper's §3.1 expand(): every aastore in the copy loop must be
    /// proven initializing. This is the headline test of the array
    /// analysis.
    #[test]
    fn expand_loop_array_stores_are_elided() {
        let mut pb = ProgramBuilder::new();
        let t = pb.class("T");
        let expand = pb.method(
            "expand",
            vec![Ty::RefArray(t)],
            Some(Ty::RefArray(t)),
            2,
            |mb| {
                let ta = mb.local(0);
                let new_ta = mb.local(1);
                let i = mb.local(2);
                let head = mb.new_block();
                let body = mb.new_block();
                let exit = mb.new_block();
                mb.load(ta)
                    .arraylength()
                    .iconst(2)
                    .mul()
                    .new_ref_array(t)
                    .store(new_ta);
                mb.iconst(0).store(i).goto_(head);
                mb.switch_to(head);
                mb.load(i)
                    .load(ta)
                    .arraylength()
                    .if_icmp(CmpOp::Lt, body, exit);
                mb.switch_to(body);
                mb.load(new_ta).load(i).load(ta).load(i).aaload().aastore();
                mb.iinc(i, 1).goto_(head);
                mb.switch_to(exit);
                mb.load(new_ta).return_value();
            },
        );
        let p = pb.finish();
        p.validate().unwrap();
        let res = analyze_method(&p, p.method(expand), &AnalysisConfig::full());
        assert_eq!(res.array_sites, 1);
        assert_eq!(
            res.elided.len(),
            1,
            "the copy-loop aastore must be elided; got {res:?}"
        );
        // Field-only mode must not elide it.
        let res_f = analyze_method(&p, p.method(expand), &AnalysisConfig::field_only());
        assert!(res_f.elided.is_empty());
        // Disabling stride inference must also lose it (ablation).
        let res_ns = analyze_method(
            &p,
            p.method(expand),
            &AnalysisConfig {
                stride_inference: false,
                ..AnalysisConfig::full()
            },
        );
        assert!(res_ns.elided.is_empty());
    }

    /// The paper's §2.4 motivating example for two refs per site:
    ///
    /// ```java
    /// while (p1) {
    ///   T t = new T();        // site s
    ///   t.f = o1;             // W1: elidable (strong update on A)
    ///   if (p2) t.f = o2;     // W2: not elidable
    /// }
    /// ```
    #[test]
    fn two_refs_per_site_example() {
        let mut pb = ProgramBuilder::new();
        let tcl = pb.class("T");
        let f = pb.field(tcl, "f", Ty::Ref(tcl));
        let m = pb.method(
            "w1w2",
            vec![Ty::Int, Ty::Int, Ty::Ref(tcl), Ty::Ref(tcl)],
            None,
            1,
            |mb| {
                let p1 = mb.local(0);
                let p2 = mb.local(1);
                let o1 = mb.local(2);
                let o2 = mb.local(3);
                let t = mb.local(4);
                let head = mb.new_block();
                let body = mb.new_block();
                let w2 = mb.new_block();
                let back = mb.new_block();
                let exit = mb.new_block();
                mb.goto_(head);
                mb.switch_to(head).load(p1).if_zero(CmpOp::Ne, body, exit);
                mb.switch_to(body);
                mb.new_object(tcl).store(t);
                mb.load(t).load(o1).putfield(f); // W1
                mb.load(p2).if_zero(CmpOp::Ne, w2, back);
                mb.switch_to(w2);
                mb.load(t).load(o2).putfield(f); // W2
                mb.goto_(back);
                mb.switch_to(back).goto_(head);
                mb.switch_to(exit).return_();
            },
        );
        let p = pb.finish();
        p.validate().unwrap();
        let res = analyze_method(&p, p.method(m), &AnalysisConfig::full());
        assert_eq!(res.field_sites, 2);
        assert_eq!(res.elided.len(), 1, "exactly W1: {res:?}");
        // The elided one is the first putfield (block B2, the body).
        let addr = res.elided.iter().next().unwrap();
        assert_eq!(addr.block, wbe_ir::BlockId(2));

        // Ablation: single summary name per site loses W1 as well
        // (must use weak update, W2's value pollutes the summary).
        let res_single = analyze_method(
            &p,
            p.method(m),
            &AnalysisConfig {
                two_refs_per_site: false,
                ..AnalysisConfig::full()
            },
        );
        assert_eq!(res_single.elided.len(), 0, "{res_single:?}");
    }

    /// Constructor bodies: `this` starts thread-local with null declared
    /// fields, so initializing stores in constructors are elidable.
    #[test]
    fn constructor_initializing_stores_elided() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("Node");
        let next = pb.field(c, "next", Ty::Ref(c));
        let prev = pb.field(c, "prev", Ty::Ref(c));
        let ctor = pb.declare_constructor(c, vec![Ty::Ref(c), Ty::Ref(c)]);
        pb.define_method(ctor, 0, |mb| {
            let this = mb.local(0);
            let n = mb.local(1);
            let q = mb.local(2);
            mb.load(this).load(n).putfield(next);
            mb.load(this).load(q).putfield(prev);
            mb.return_();
        });
        let p = pb.finish();
        let res = analyze_method(&p, p.method(ctor), &AnalysisConfig::full());
        assert_eq!(res.elided.len(), 2, "{res:?}");
    }

    /// Without inlining, a constructor call makes the allocated object
    /// escape, so later stores to it are not elidable (§2.4's discussion
    /// of why the analysis runs after inlining).
    #[test]
    fn un_inlined_constructor_blocks_elision() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let ctor = pb.declare_constructor(c, vec![]);
        pb.define_method(ctor, 0, |mb| {
            mb.return_();
        });
        let m = pb.method("make", vec![Ty::Ref(c)], None, 1, |mb| {
            let arg = mb.local(0);
            let o = mb.local(1);
            mb.new_object(c).dup().invoke(ctor).store(o);
            mb.load(o).load(arg).putfield(f);
            mb.return_();
        });
        let p = pb.finish();
        let res = analyze_method(&p, p.method(m), &AnalysisConfig::full());
        assert!(res.elided.is_empty(), "{res:?}");
    }

    /// Flow-sensitive escape vs classic escape ablation: a store before
    /// a later escape is elidable only flow-sensitively.
    #[test]
    fn flow_sensitive_escape_beats_classic() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let g = pb.static_field("g", Ty::Ref(c));
        let m = pb.method("pub", vec![Ty::Ref(c)], None, 1, |mb| {
            let arg = mb.local(0);
            let o = mb.local(1);
            mb.new_object(c).store(o);
            mb.load(o).load(arg).putfield(f); // before escape
            mb.load(o).putstatic(g); // escape
            mb.return_();
        });
        let p = pb.finish();
        let res = analyze_method(&p, p.method(m), &AnalysisConfig::full());
        assert_eq!(res.elided.len(), 1, "{res:?}");
        let res_classic = analyze_method(
            &p,
            p.method(m),
            &AnalysisConfig {
                flow_sensitive_escape: false,
                ..AnalysisConfig::full()
            },
        );
        assert!(res_classic.elided.is_empty(), "{res_classic:?}");
    }

    /// A loop that conditionally overwrites: the judgment must be taken
    /// at the fixed point, not on the first visit.
    #[test]
    fn judgment_taken_at_fixed_point() {
        // o = new C; loop { o.f = x; }  — second iteration overwrites a
        // non-null value, so the store is NOT elidable even though the
        // first abstract visit sees null.
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let m = pb.method("looped", vec![Ty::Int, Ty::Ref(c)], None, 1, |mb| {
            let n = mb.local(0);
            let x = mb.local(1);
            let o = mb.local(2);
            let head = mb.new_block();
            let body = mb.new_block();
            let exit = mb.new_block();
            mb.new_object(c).store(o).goto_(head);
            mb.switch_to(head).load(n).if_zero(CmpOp::Gt, body, exit);
            mb.switch_to(body)
                .load(o)
                .load(x)
                .putfield(f)
                .iinc(n, -1)
                .goto_(head);
            mb.switch_to(exit).return_();
        });
        let p = pb.finish();
        let res = analyze_method(&p, p.method(m), &AnalysisConfig::full());
        assert!(res.elided.is_empty(), "{res:?}");
    }

    /// Allocation inside the loop, store after: each iteration's store
    /// initializes the *fresh* object, so it is elidable via R/A.
    #[test]
    fn allocation_in_loop_with_initializing_store() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let m = pb.method("alloc_loop", vec![Ty::Int, Ty::Ref(c)], None, 1, |mb| {
            let n = mb.local(0);
            let x = mb.local(1);
            let o = mb.local(2);
            let head = mb.new_block();
            let body = mb.new_block();
            let exit = mb.new_block();
            mb.goto_(head);
            mb.switch_to(head).load(n).if_zero(CmpOp::Gt, body, exit);
            mb.switch_to(body)
                .new_object(c)
                .store(o)
                .load(o)
                .load(x)
                .putfield(f)
                .iinc(n, -1)
                .goto_(head);
            mb.switch_to(exit).return_();
        });
        let p = pb.finish();
        let res = analyze_method(&p, p.method(m), &AnalysisConfig::full());
        assert_eq!(res.elided.len(), 1, "{res:?}");
    }

    #[test]
    fn program_analysis_aggregates() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        pb.method("a", vec![Ty::Ref(c)], None, 1, |mb| {
            let arg = mb.local(0);
            let o = mb.local(1);
            mb.new_object(c).store(o);
            mb.load(o).load(arg).putfield(f);
            mb.return_();
        });
        pb.method("b", vec![Ty::Ref(c), Ty::Ref(c)], None, 0, |mb| {
            let x = mb.local(0);
            let y = mb.local(1);
            mb.load(x).load(y).putfield(f);
            mb.return_();
        });
        let p = pb.finish();
        let res = analyze_program(&p, &AnalysisConfig::full());
        assert_eq!(res.total_sites(), 2);
        assert_eq!(res.total_elided(), 1);
        assert_eq!(res.iter_elided().count(), 1);
    }

    /// Builds a method with a loop — enough blocks that a tiny iteration
    /// cap fires before the fixpoint converges.
    fn looped_store_program() -> (Program, MethodId) {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let m = pb.method("looped", vec![Ty::Int, Ty::Ref(c)], None, 1, |mb| {
            let n = mb.local(0);
            let x = mb.local(1);
            let o = mb.local(2);
            let head = mb.new_block();
            let body = mb.new_block();
            let exit = mb.new_block();
            mb.new_object(c).store(o).goto_(head);
            mb.switch_to(head).load(n).if_zero(CmpOp::Gt, body, exit);
            mb.switch_to(body)
                .load(o)
                .load(x)
                .putfield(f)
                .iinc(n, -1)
                .goto_(head);
            mb.switch_to(exit).return_();
        });
        (pb.finish(), m)
    }

    /// Guardrail: an exhausted iteration cap degrades (no panic) and
    /// elides nothing, while sites are still counted.
    #[test]
    fn iteration_cap_degrades_conservatively() {
        let (p, m) = looped_store_program();
        let cfg = AnalysisConfig::full().with_max_iterations(1);
        let res = analyze_method(&p, p.method(m), &cfg);
        assert_eq!(
            res.outcome,
            AnalysisOutcome::Degraded(DegradeReason::IterationCap { limit: 1 })
        );
        assert!(res.elided.is_empty());
        assert_eq!(res.barrier_sites, 1, "sites are counted even degraded");
        // With the default cap the same method completes.
        let res = analyze_method(&p, p.method(m), &AnalysisConfig::full());
        assert_eq!(res.outcome, AnalysisOutcome::Complete);
    }

    /// Guardrail: a zero wall-clock budget degrades immediately.
    #[test]
    fn zero_time_budget_degrades() {
        let (p, m) = looped_store_program();
        let cfg = AnalysisConfig::full().with_time_budget(Duration::ZERO);
        let res = analyze_method(&p, p.method(m), &cfg);
        assert!(res.outcome.is_degraded(), "{res:?}");
        assert!(matches!(
            res.outcome,
            AnalysisOutcome::Degraded(DegradeReason::TimeBudget { .. })
        ));
        assert!(res.elided.is_empty());
    }

    /// Guardrail: degradation applies to the classic-escape ablation's
    /// double fixpoint too.
    #[test]
    fn degradation_covers_classic_escape_ablation() {
        let (p, m) = looped_store_program();
        let cfg = AnalysisConfig {
            flow_sensitive_escape: false,
            ..AnalysisConfig::full().with_max_iterations(1)
        };
        let res = analyze_method(&p, p.method(m), &cfg);
        assert!(res.outcome.is_degraded());
    }

    /// Degraded methods are reported by the whole-program aggregate.
    #[test]
    fn program_analysis_reports_degraded_methods() {
        let (p, m) = looped_store_program();
        let cfg = AnalysisConfig::full().with_max_iterations(1);
        let res = analyze_program(&p, &cfg);
        assert_eq!(res.degraded_count(), 1);
        let (mid, reason) = res.degraded_methods().next().unwrap();
        assert_eq!(mid, m);
        assert!(matches!(reason, DegradeReason::IterationCap { .. }));
        assert_eq!(res.total_elided(), 0);
    }

    /// Guardrail: a panic inside the transfer functions (provoked here
    /// with deliberately malformed IR) is isolated and degrades the
    /// method instead of killing the pipeline.
    #[test]
    fn panic_isolation_degrades_instead_of_crashing() {
        let mut pb = ProgramBuilder::new();
        pb.method("bad", vec![], None, 0, |mb| {
            mb.return_();
        });
        let mut p = pb.finish();
        // Stack underflow: pop with nothing on the abstract stack.
        p.methods[0].blocks[0].insns.insert(0, wbe_ir::Insn::Pop);
        let res = analyze_method(&p, &p.methods[0], &AnalysisConfig::full());
        assert!(
            matches!(
                res.outcome,
                AnalysisOutcome::Degraded(DegradeReason::Panicked { .. })
            ),
            "{res:?}"
        );
        assert!(res.elided.is_empty());
    }

    /// A guardrail can stop the driver before it has transferred a
    /// block that cannot be transferred (malformed IR): the solution
    /// must find that out itself, so that replaying it never panics
    /// and every product reports the same reason.
    #[test]
    fn unreplayable_partial_states_degrade_to_panicked_everywhere() {
        let (mut p, m) = looped_store_program();
        // Underflow in the loop body ahead of its store: a two-block cap
        // leaves the body on the worklist with an entry state but never
        // processes it, and the records' walk reaches the store.
        p.methods[m.index()].blocks[2]
            .insns
            .insert(0, wbe_ir::Insn::Pop);
        let cfg = AnalysisConfig::full().with_max_iterations(2);
        let solution = MethodSolution::solve(&p, p.method(m), &cfg);
        assert!(matches!(
            solution.outcome(),
            AnalysisOutcome::Degraded(DegradeReason::Panicked { .. })
        ));
        assert!(solution.entry_states().iter().all(Option::is_none));
        let replay = solution.replay(true);
        assert_eq!(&replay.analysis.outcome, solution.outcome());
        assert_eq!(replay.analysis.barrier_sites, 1);
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].keep_code, Some(KeepCode::NotReached));
        assert!(replay.records[0].degraded.contains("panicked"));
        assert_eq!(
            analyze_method(&p, p.method(m), &cfg).outcome,
            replay.analysis.outcome
        );
    }

    /// The panic probe checks what later replays transfer, no more: an
    /// underflow past a block's last store is never replayed, so the
    /// solution keeps the guardrail's own reason and its partial states.
    #[test]
    fn an_underflow_past_the_last_store_is_never_replayed() {
        let (mut p, m) = looped_store_program();
        // After the body's `putfield` (B2[2]), on an empty stack.
        p.methods[m.index()].blocks[2]
            .insns
            .insert(3, wbe_ir::Insn::Pop);
        let cfg = AnalysisConfig::full().with_max_iterations(2);
        let solution = MethodSolution::solve(&p, p.method(m), &cfg);
        let cap = AnalysisOutcome::Degraded(DegradeReason::IterationCap { limit: 2 });
        assert_eq!(solution.outcome(), &cap);
        assert!(solution.entry_states()[2].is_some());
        let replay = solution.replay(true);
        assert_eq!(replay.analysis.outcome, cap);
        assert_eq!(replay.records.len(), 1);
        assert_ne!(replay.records[0].keep_code, Some(KeepCode::NotReached));
    }

    /// A domain whose state is the block it entered, logging each
    /// instruction `replay` transfers.
    struct Counting {
        transferred: std::cell::RefCell<Vec<BlockId>>,
    }

    impl Domain for Counting {
        type State = BlockId;
        type Judgment = bool;

        fn entry(&self) -> BlockId {
            BlockId(0)
        }

        fn transfer(&self, st: &mut BlockId, _insn: &Insn) -> Option<bool> {
            self.transferred.borrow_mut().push(*st);
            None
        }

        fn transfer_edge(&self, _st: &mut BlockId, _term: &Terminator, _succ: usize) {}

        fn merge(&mut self, _into: &mut BlockId, _incoming: &BlockId, _widen: bool) -> bool {
            false
        }
    }

    /// The bounded walk: wanting barrier sites, it transfers each block
    /// up to and including its last site and nothing of a block without
    /// one, and hands `visit` the sites alone; wanting every point, it
    /// transfers every instruction and visits every terminator.
    #[test]
    fn replay_stops_after_each_blocks_last_wanted_point() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let n = pb.field(c, "n", Ty::Int);
        let m = pb.method("walked", vec![Ty::Ref(c)], None, 0, |mb| {
            let o = mb.local(0);
            let (b1, b2, b3) = (mb.new_block(), mb.new_block(), mb.new_block());
            // B0: a site at [2], then four instructions.
            mb.load(o).const_null().putfield(f);
            mb.load(o).iconst(1).putfield(n).iconst(0);
            mb.if_zero(CmpOp::Eq, b1, b2);
            // B1: no site (an int store is not one).
            mb.switch_to(b1).load(o).iconst(2).putfield(n).goto_(b3);
            // B2: sites at [2] and [5], then two instructions.
            mb.switch_to(b2).load(o).load(o).putfield(f);
            mb.load(o).load(o).putfield(f).load(o).pop().goto_(b3);
            // B3: no instruction at all.
            mb.switch_to(b3).return_();
        });
        let prog = pb.finish();
        prog.validate().unwrap();
        let method = prog.method(m);
        let states: Vec<_> = (0..4).map(|b| Some(BlockId(b))).collect();
        let walk = |wants: &dyn Fn(Option<&Insn>) -> bool| {
            let domain = Counting {
                transferred: Default::default(),
            };
            let mut visited = Vec::new();
            replay(method, &domain, Some(&states), wants, |step| {
                visited.push(step.addr);
            });
            let transferred = domain.transferred.into_inner();
            let per_block: Vec<_> = (0..4)
                .map(|b| transferred.iter().filter(|&&t| t == BlockId(b)).count())
                .collect();
            (per_block, visited)
        };
        let at = |b, i| InsnAddr::new(BlockId(b), i);

        let (per_block, visited) = walk(&|p| p.is_some_and(|i| is_barrier_site(&prog, i)));
        assert_eq!(per_block, [3, 0, 6, 0]);
        assert_eq!(visited, [at(0, 2), at(2, 2), at(2, 5)]);

        let (per_block, visited) = walk(&every_point);
        let lens: Vec<_> = method.blocks.iter().map(|b| b.insns.len()).collect();
        assert_eq!(per_block, lens, "every instruction");
        let every: Vec<_> = (0..4)
            .flat_map(|b| (0..=lens[b as usize]).map(move |i| at(b, i)))
            .collect();
        assert_eq!(visited, every, "every point, terminators included");
    }

    /// Degrade reasons render for humans.
    #[test]
    fn degrade_reasons_display() {
        assert!(DegradeReason::IterationCap { limit: 3 }
            .to_string()
            .contains("3"));
        assert!(DegradeReason::TimeBudget {
            budget: Duration::from_millis(1)
        }
        .to_string()
        .contains("budget"));
        assert!(DegradeReason::Panicked {
            message: "boom".into()
        }
        .to_string()
        .contains("boom"));
        assert!(DegradeReason::Internal("x").to_string().contains("x"));
    }

    /// Convergence stress: nested loops with conflicting strides must
    /// still terminate (via widening) and stay sound.
    #[test]
    fn nested_loops_converge() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let m = pb.method("nest", vec![Ty::Int], None, 3, |mb| {
            let n = mb.local(0);
            let i = mb.local(1);
            let j = mb.local(2);
            let arr = mb.local(3);
            let oh = mb.new_block();
            let ob = mb.new_block();
            let ih = mb.new_block();
            let ib = mb.new_block();
            let oe = mb.new_block();
            let ie = mb.new_block();
            mb.iconst(0)
                .store(i)
                .load(n)
                .new_ref_array(c)
                .store(arr)
                .goto_(oh);
            mb.switch_to(oh).load(i).load(n).if_icmp(CmpOp::Lt, ob, oe);
            mb.switch_to(ob).iconst(0).store(j).goto_(ih);
            mb.switch_to(ih).load(j).load(i).if_icmp(CmpOp::Lt, ib, ie);
            mb.switch_to(ib)
                .load(arr)
                .load(j)
                .const_null()
                .aastore()
                .iinc(j, 2)
                .goto_(ih);
            mb.switch_to(ie).iinc(i, 3).goto_(oh);
            mb.switch_to(oe).return_();
        });
        let p = pb.finish();
        p.validate().unwrap();
        let res = analyze_method(&p, p.method(m), &AnalysisConfig::full());
        // The stride-2 inner store over a shared array is not provably
        // in-order across outer iterations; it must not be elided.
        assert!(res.elided.is_empty(), "{res:?}");
    }
}
