//! The scheduled world: deterministic cooperative mutators over one
//! [`Heap`].
//!
//! A [`World`] runs N mutator machines plus the concurrent marker as
//! *logical* threads. Every step, a scheduling policy picks one runnable
//! logical thread and lets it execute exactly one atomic action; the
//! resulting interleaving is a pure function of the policy (a seed, or
//! an explicit choice script), so any schedule — including a failing
//! one — replays bit for bit.
//!
//! The world owns what every schedule shares: the heap, the
//! marking-cycle driver of `cycle.rs` (per-thread SATB buffers flushed
//! at polls, an epoch arm every mutator acknowledges before the
//! snapshot, a stop-the-world rendezvous for the remark + sweep), the
//! shared root array, the step and cycle counts, the violations, the
//! runnable mask, the pick and the run loop. What the mutators *do* is a
//! [`Mix`], statically dispatched: this module's [`ListsMix`] — four
//! list operations under a [`Scenario`], the world [`crate::mcheck`]
//! explores — and [`crate::overload`]'s request-serving mix.
//!
//! The lists mix adds two scheduling *hints* that model the pacing a
//! real runtime exhibits: the marker **rests** for one scheduling
//! decision after the snapshot and after each marking slice
//! (incremental collectors yield between slices), and a mutator
//! **yields** one decision after acknowledging an epoch (the safepoint
//! handshake returns to the scheduler). Hints only bias the choice — a
//! policy that would otherwise pick a resting thread falls back to the
//! full runnable set — but they put the mutator-store-into-marking-window
//! races within reach of a small preemption bound for the systematic
//! explorer.
//!
//! Each schedule audits itself: the snapshot-reachable set recorded at
//! `begin_marking` must still be fully live after that cycle's sweep
//! (the SATB guarantee the paper's elision argument rests on), and the
//! [`crate::verify`] invariant checks run at both cycle boundaries.
//! `demo_unsound` mode deliberately elides the (non-pre-null) unlink
//! barrier on thread 0 — the negative control the model checker in
//! [`crate::mcheck`] must catch.

use std::fmt;

use crate::cycle::{self, CycleDriver, CycleEvent, CycleHost, CyclePhase, MarkerCtl};
use crate::fault::{FaultConfig, FaultPlan};
use crate::gc::MarkStyle;
use crate::heap::{Heap, HeapError};
use crate::mix::{fnv1a, SplitMix64};
use crate::value::{FieldShape, GcRef, Value};

/// Hard cap on scheduler steps per run; exceeding it is reported as a
/// livelock violation rather than hanging the caller.
const STEP_CAP: usize = 4_000_000;

/// The most mutator threads a world runs: the runnable mask is a `u32`
/// and the marker takes the bit after the last mutator's.
pub const MAX_THREADS: usize = 31;

/// Objects pre-built per mutator chain before scheduling starts, so
/// every cycle's snapshot contains white, losable objects.
const WARMUP_CHAIN: usize = 4;

/// Marker steps between the end of one cycle and arming the next, in
/// every scheduled world.
const CYCLE_GAP: u32 = 6;

/// Workload ops between a mutator's safepoint polls in every scheduled
/// world (the compiler-inserted poll cadence). Larger values widen the
/// window in which an armed epoch is not yet acknowledged.
pub(crate) const POLL_INTERVAL: u32 = 4;

/// The lists mix's concurrent-marking budget per scheduled marker step.
const MARK_BUDGET: usize = 2;

/// Field shape of every chain node: `f0` = next link, `f1` = cross-link.
const NODE: [FieldShape; 2] = [FieldShape::Ref, FieldShape::Ref];

/// Workload shape: relative weights of the four mutator operations
/// (alloc-link, unlink, publish, cross-link).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scenario {
    /// Allocation-heavy private chains: mostly elided pre-null stores.
    #[default]
    Chain,
    /// Alloc/unlink churn: maximal pressure on the deletion barrier.
    Churn,
    /// Publication and cross-thread links: escaping receivers.
    Shared,
}

impl Scenario {
    /// Relative op weights `[alloc_link, unlink, publish, cross_link]`.
    fn weights(self) -> [u16; 4] {
        match self {
            Scenario::Chain => [6, 2, 1, 1],
            Scenario::Churn => [4, 4, 1, 1],
            Scenario::Shared => [3, 2, 3, 4],
        }
    }

    /// The stock scenario set the `mcheck` CLI runs by default.
    pub const ALL: [Scenario; 3] = [Scenario::Chain, Scenario::Churn, Scenario::Shared];

    /// Scenario name as used by the CLI.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Chain => "chain",
            Scenario::Churn => "churn",
            Scenario::Shared => "shared",
        }
    }
}

impl std::str::FromStr for Scenario {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "chain" => Ok(Scenario::Chain),
            "churn" => Ok(Scenario::Churn),
            "shared" => Ok(Scenario::Shared),
            other => Err(format!("unknown scenario `{other}`")),
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of one lists world.
#[derive(Clone, Debug)]
pub struct SchedConfig {
    /// Number of mutator logical threads (at most [`MAX_THREADS`]).
    pub threads: usize,
    /// Workload operations each mutator executes.
    pub ops_per_thread: usize,
    /// Workload shape.
    pub scenario: Scenario,
    /// Deliberately elide the (non-pre-null) unlink barrier on thread 0
    /// — the negative control.
    pub demo_unsound: bool,
    /// Optional PR 2 fault schedule (allocation failures, skipped and
    /// boosted mark steps) composed into the run.
    pub fault: Option<FaultConfig>,
    /// Safepoint-watchdog deadline, in scheduler steps: how long an
    /// armed epoch may wait for acknowledgements before the watchdog
    /// escalates. Past the deadline an unacked mutator's next step is
    /// forced to poll (a pacing hint); past twice the deadline the
    /// marker performs an emergency rendezvous, abandoning the arm so
    /// the world cannot stall. The default is far beyond any healthy
    /// schedule, so the watchdog observes without interfering.
    pub arm_deadline: u32,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            threads: 2,
            ops_per_thread: 40,
            scenario: Scenario::Chain,
            demo_unsound: false,
            fault: None,
            arm_deadline: 10_000,
        }
    }
}

/// How the scheduler picks the next logical thread.
#[derive(Clone, Debug)]
pub enum SchedulePolicy {
    /// Uniform choice among runnable threads from a seeded stream.
    Random {
        /// The schedule seed; equal seeds give bit-identical schedules.
        seed: u64,
    },
    /// Forced choice prefix (thread ids; the marker is id `threads`).
    /// Beyond the prefix: continue the last thread while runnable, else
    /// the lowest-id runnable thread — the non-preemptive default the
    /// systematic explorer branches from.
    Scripted {
        /// The forced prefix of thread choices.
        prefix: Vec<u8>,
    },
}

pub use crate::cycle::ViolationKind;

/// One soundness violation observed in one run of a world.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleViolation {
    /// Violation class.
    pub kind: ViolationKind,
    /// Scheduler step at which it was detected.
    pub step: usize,
    /// Marking cycle (1-based) it was detected in, 0 if outside one.
    pub cycle: u64,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] step {} cycle {}: {}",
            self.kind, self.step, self.cycle, self.detail
        )
    }
}

/// Deterministic per-schedule counters. Part of the schedule digest, so
/// two runs agree on a digest only if they agree on every count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Scheduler steps executed.
    pub steps: u64,
    /// Mutator workload operations completed.
    pub mutator_ops: u64,
    /// Alloc-link ops (elided pre-null stores).
    pub alloc_links: u64,
    /// Unlink ops (deletion-barrier stores).
    pub unlinks: u64,
    /// Publish ops (shared-array stores).
    pub publishes: u64,
    /// Cross-link ops (cross-thread reference stores).
    pub cross_links: u64,
    /// Stores executed with the barrier statically elided.
    pub elided_stores: u64,
    /// Elision attempts gated by an unacknowledged epoch (the thread
    /// took the conservative barrier path instead).
    pub gated_elisions: u64,
    /// Unsound (demo) elisions executed inside a marking window.
    pub unsound_elisions: u64,
    /// SATB entries logged into per-thread buffers.
    pub satb_logged: u64,
    /// Per-thread buffer flushes.
    pub flushes: u64,
    /// Entries moved into the collector by those flushes.
    pub flushed_entries: u64,
    /// Safepoint polls that acknowledged a new epoch.
    pub safepoint_acks: u64,
    /// Safepoint polls that parked for the rendezvous.
    pub parks: u64,
    /// Marker steps spent waiting (for acks or for parks).
    pub marker_waits: u64,
    /// Concurrent mark work units performed.
    pub mark_work: u64,
    /// Mark steps skipped by the fault plan.
    pub fault_skipped_steps: u64,
    /// Allocation failures injected by the fault plan.
    pub alloc_faults: u64,
    /// Marking cycles completed (arm → snapshot → remark → sweep).
    pub cycles: u64,
    /// Objects freed by sweeps.
    pub swept: u64,
    /// SATB entries drained during stop-the-world remarks.
    pub remark_drained: u64,
    /// Watchdog pacing hints: overdue-arm polls forced on unacked
    /// mutators past [`SchedConfig::arm_deadline`].
    pub watchdog_pacing: u64,
    /// Watchdog emergency rendezvous: arms abandoned past twice the
    /// deadline so the world cannot stall waiting for an ack.
    pub watchdog_emergency: u64,
}

impl SchedCounters {
    /// The counters as a fixed field array (digest + reporting order).
    pub fn fields(&self) -> [u64; 24] {
        [
            self.steps,
            self.mutator_ops,
            self.alloc_links,
            self.unlinks,
            self.publishes,
            self.cross_links,
            self.elided_stores,
            self.gated_elisions,
            self.unsound_elisions,
            self.satb_logged,
            self.flushes,
            self.flushed_entries,
            self.safepoint_acks,
            self.parks,
            self.marker_waits,
            self.mark_work,
            self.fault_skipped_steps,
            self.alloc_faults,
            self.cycles,
            self.swept,
            self.remark_drained,
            self.watchdog_pacing,
            self.watchdog_emergency,
            0,
        ]
    }

    /// Accumulates `other` into `self` field-by-field (for aggregating
    /// counters across schedules).
    pub fn merge(&mut self, other: &SchedCounters) {
        self.steps += other.steps;
        self.mutator_ops += other.mutator_ops;
        self.alloc_links += other.alloc_links;
        self.unlinks += other.unlinks;
        self.publishes += other.publishes;
        self.cross_links += other.cross_links;
        self.elided_stores += other.elided_stores;
        self.gated_elisions += other.gated_elisions;
        self.unsound_elisions += other.unsound_elisions;
        self.satb_logged += other.satb_logged;
        self.flushes += other.flushes;
        self.flushed_entries += other.flushed_entries;
        self.safepoint_acks += other.safepoint_acks;
        self.parks += other.parks;
        self.marker_waits += other.marker_waits;
        self.mark_work += other.mark_work;
        self.fault_skipped_steps += other.fault_skipped_steps;
        self.alloc_faults += other.alloc_faults;
        self.cycles += other.cycles;
        self.swept += other.swept;
        self.remark_drained += other.remark_drained;
        self.watchdog_pacing += other.watchdog_pacing;
        self.watchdog_emergency += other.watchdog_emergency;
    }
}

/// The result of running one schedule to completion.
#[derive(Clone, Debug, Default)]
pub struct ScheduleOutcome {
    /// The choice sequence actually executed (thread ids; marker =
    /// `threads`).
    pub trace: Vec<u8>,
    /// Per-step runnable sets as bitmasks (bit `t` = thread `t`
    /// runnable), aligned with `trace`. The systematic explorer
    /// branches on these.
    pub runnable: Vec<u32>,
    /// Deterministic counters.
    pub counters: SchedCounters,
    /// Violations detected (empty ⇔ the schedule is sound).
    pub violations: Vec<ScheduleViolation>,
}

impl ScheduleOutcome {
    /// Digest of the schedule: trace bytes plus every counter. Two runs
    /// with the same digest executed the same interleaving and observed
    /// the same counts.
    pub fn digest(&self) -> u64 {
        let mut h = fnv1a(0, self.trace.iter().copied());
        h = fnv1a(
            h,
            self.counters
                .fields()
                .into_iter()
                .flat_map(u64::to_le_bytes),
        );
        fnv1a(h, [self.violations.len() as u8])
    }

    /// The number of preemptions in the trace: steps that switched
    /// threads while the previous thread was still runnable.
    pub fn preemptions(&self) -> usize {
        let mut n = 0;
        for t in 1..self.trace.len() {
            let prev = self.trace[t - 1];
            if self.trace[t] != prev && self.runnable[t] & (1 << prev) != 0 {
                n += 1;
            }
        }
        n
    }
}

/// What a world's mutators are and do: every way one scheduled world
/// differs from another. [`World`] calls these at fixed points of its
/// one run loop and never asks which mix it runs. The defaults are a mix
/// with no scheduling hints, no watchdog and no forced collections.
pub trait Mix: Sized {
    /// What the mix is built from.
    type Config;
    /// What a run returns.
    type Outcome;
    /// Salt of the random pick's stream: it is seeded with the policy's
    /// seed rotated left by 32, xor this.
    const PICK_SALT: u64;

    /// Mutator threads `cfg` asks for.
    fn threads(cfg: &Self::Config) -> usize;
    /// Checks `cfg`, allocates the shared root array and whatever the
    /// mix pre-builds in `heap`, then installs the fault plan; returns
    /// the mix and the array. `seed` is the policy's world seed.
    fn build(cfg: &Self::Config, heap: &mut Heap, seed: u64) -> Result<(Self, GcRef), HeapError>;

    /// Has thread `tid` anything to do — work, or a duty to the
    /// protocol? A thread with nothing to do is not runnable.
    fn has_duty(_w: &World<Self>, _tid: usize) -> bool {
        true
    }
    /// Logical threads (bit `t`; the marker's is bit `threads`) resting
    /// for the next pick: a hint, dropped if it leaves nothing runnable.
    fn rests(_w: &World<Self>) -> u32 {
        0
    }
    /// Is the mix's work done? A drained world finishes once a cycle
    /// has completed and the marker is idle.
    fn drained(w: &World<Self>) -> bool;
    /// Is a forced stop-the-world collection pending? The marker is
    /// runnable whatever the phase, and the world cannot finish.
    fn stw_due(&self) -> bool {
        false
    }
    /// Does a marker still waiting for acknowledgements give the arm
    /// up?
    fn give_up_arm(_w: &World<Self>) -> bool {
        false
    }

    /// Runs before each pick.
    fn before_pick(_w: &mut World<Self>) {}
    /// Told of each pick and the mask it was made from, before the
    /// chosen thread steps.
    fn picked(_w: &mut World<Self>, _choice: u8, _mask: u32) {}
    /// One step of mutator thread `tid`.
    fn thread_step(w: &mut World<Self>, tid: usize);
    /// The marker's next step: one protocol step under this control, or
    /// `None` for a forced stop-the-world collection
    /// ([`cycle::force_stw`]).
    fn marker_ctl(w: &mut World<Self>) -> Option<MarkerCtl>;
    /// After each marker step; `forced` if it was a forced collection.
    fn marker_stepped(_w: &mut World<Self>, _forced: bool) {}

    /// The threads' own roots, beyond the shared array.
    fn local_roots(&self) -> impl Iterator<Item = GcRef> + '_;
    /// A span to hold open across the stop-the-world tail.
    fn stw_span(_w: &World<Self>) -> wbe_telemetry::SpanGuard {
        wbe_telemetry::span::noop()
    }
    /// Told of each protocol event but a violation, which the world
    /// records; at `Ended` the world has already counted the cycle.
    fn on(w: &mut World<Self>, event: CycleEvent);
    /// The outcome of a run the loop has stopped.
    fn finish(w: World<Self>) -> Self::Outcome;
    /// The outcome of a world that could not be built.
    fn unbuilt(violation: ScheduleViolation) -> Self::Outcome;
}

/// One scheduled world: heap, cycle protocol, shared roots, the pick,
/// and a [`Mix`] of mutators.
pub struct World<M> {
    pub(crate) heap: Heap,
    pub(crate) cycle: CycleDriver,
    /// The shared root array; what its slots hold is the mix's.
    pub(crate) shared: GcRef,
    pub(crate) mix: M,
    threads: usize,
    /// The current scheduler step.
    pub(crate) step: usize,
    /// Marking cycles completed.
    pub(crate) cycles: u64,
    pub(crate) violations: Vec<ScheduleViolation>,
    /// The random policy's stream; `None` for a scripted policy.
    rng: Option<SplitMix64>,
    /// The scripted policy's forced prefix.
    script: Vec<u8>,
    /// The previous pick.
    last: Option<u8>,
}

impl<M: Mix> World<M> {
    /// Builds the world of `cfg` for `policy`: a configuration with more
    /// than [`MAX_THREADS`] threads, or one the mix rejects, fails here,
    /// before any step.
    pub(crate) fn build(cfg: &M::Config, policy: &SchedulePolicy) -> Result<Self, HeapError> {
        let threads = M::threads(cfg);
        if threads > MAX_THREADS {
            return Err(HeapError::BadWorld(
                "more than 31 mutator threads (the runnable mask holds 31 and the marker)",
            ));
        }
        let (rng, script, seed) = match policy {
            SchedulePolicy::Random { seed } => {
                let rng = SplitMix64(seed.rotate_left(32) ^ M::PICK_SALT);
                (Some(rng), Vec::new(), *seed)
            }
            // Scripted runs derive mutator streams from a
            // script-independent constant so a prefix extension explores
            // a different interleaving of the SAME program.
            SchedulePolicy::Scripted { prefix } => (None, prefix.clone(), 0x5eed_5eed_5eed_5eed),
        };
        let mut heap = Heap::new(MarkStyle::Satb);
        let (mix, shared) = M::build(cfg, &mut heap, seed)?;
        Ok(World {
            heap,
            cycle: CycleDriver::new(threads, CYCLE_GAP),
            shared,
            mix,
            threads,
            step: 0,
            cycles: 0,
            violations: Vec::new(),
            rng,
            script,
            last: None,
        })
    }

    /// The marker's logical thread id.
    pub(crate) fn marker(&self) -> u8 {
        self.threads as u8
    }

    pub(crate) fn violation(&mut self, kind: ViolationKind, detail: String) {
        self.violations.push(ScheduleViolation {
            kind,
            step: self.step,
            // Cycles completed, plus the one between snapshot and end.
            cycle: self.cycles + u64::from(self.cycle.phase().marking()),
            detail,
        });
    }

    /// Bitmask of runnable logical threads. A thread is runnable only if
    /// its next step makes progress — waiting states are modelled as
    /// not-runnable, so no policy can livelock the protocol.
    fn runnable_mask(&self) -> u32 {
        let mut mask = 0u32;
        for tid in 0..self.threads {
            if !self.cycle.halted(tid) && M::has_duty(self, tid) {
                mask |= 1 << tid;
            }
        }
        let marker_runnable = self.mix.stw_due()
            || match self.cycle.phase() {
                // One final cycle if none completed, else finished.
                CyclePhase::Idle { .. } => !M::drained(self) || self.cycles == 0,
                CyclePhase::Arming => self.cycle.all_acked() || M::give_up_arm(self),
                CyclePhase::Marking => true,
                CyclePhase::Rendezvous => self.cycle.all_halted(),
            };
        if marker_runnable {
            mask |= 1 << self.threads;
        }
        mask
    }

    /// True when the run is complete.
    fn finished(&self) -> bool {
        M::drained(self)
            && !self.mix.stw_due()
            && matches!(self.cycle.phase(), CyclePhase::Idle { .. })
            && self.cycles > 0
    }

    /// The policy's choice from `mask`: the script's while it lasts and
    /// names a runnable thread, else a uniform draw from the seeded
    /// stream, else the non-preemptive default.
    fn pick(&mut self, mask: u32) -> u8 {
        let forced = self.script.get(self.step).copied();
        let runnable = |t: u8| mask & 1u32.checked_shl(t.into()).unwrap_or(0) != 0;
        if let Some(t) = forced.filter(|&t| runnable(t)) {
            return t;
        }
        let (marker, last) = (self.marker(), self.last);
        match self.rng.as_mut() {
            Some(rng) => {
                let k = rng.next() % u64::from(mask.count_ones());
                (0..=marker).filter(|&t| runnable(t)).nth(k as usize)
            }
            // The non-preemptive default: continue the last thread while
            // runnable, else the lowest-id runnable one.
            None => last
                .filter(|&t| runnable(t))
                .or_else(|| (0..=marker).find(|&t| runnable(t))),
        }
        .unwrap_or(marker)
    }

    fn marker_step(&mut self) {
        let ctl = M::marker_ctl(self);
        match ctl {
            Some(ctl) => cycle::step(self, ctl),
            None => cycle::force_stw(self),
        }
        M::marker_stepped(self, ctl.is_none());
    }

    /// Runs the world to completion.
    pub(crate) fn run(mut self) -> M::Outcome {
        while !self.finished() {
            if self.step >= STEP_CAP {
                let detail = format!("no termination after {STEP_CAP} steps");
                self.violation(ViolationKind::Livelock, detail);
                break;
            }
            M::before_pick(&mut self);
            let mask = self.runnable_mask();
            if mask == 0 {
                self.violation(ViolationKind::Protocol, "no runnable thread".to_string());
                break;
            }
            // Rests are hints, not blocking states: if everyone rests,
            // the pick ignores them.
            let rested = mask & !M::rests(&self);
            let mask = if rested != 0 { rested } else { mask };
            let choice = self.pick(mask);
            M::picked(&mut self, choice, mask);
            self.last = Some(choice);
            if choice == self.marker() {
                self.marker_step();
            } else {
                M::thread_step(&mut self, choice.into());
            }
            self.step += 1;
        }
        self.heap.gc.publish_metrics();
        M::finish(self)
    }
}

impl<M: Mix> CycleHost for World<M> {
    fn parts(&mut self) -> (&mut CycleDriver, &mut Heap) {
        (&mut self.cycle, &mut self.heap)
    }

    /// The shared array plus every thread's own roots.
    fn roots(&self) -> Vec<GcRef> {
        let mut roots = vec![self.shared];
        roots.extend(self.mix.local_roots());
        roots
    }

    fn stw_span(&self) -> wbe_telemetry::SpanGuard {
        M::stw_span(self)
    }

    fn on(&mut self, event: CycleEvent) {
        match event {
            CycleEvent::Violation(kind, detail) => self.violation(kind, detail),
            event => {
                self.cycles += u64::from(matches!(event, CycleEvent::Ended(..)));
                M::on(self, event);
            }
        }
    }
}

/// Builds the world of `cfg` and runs it under `policy` to completion.
/// A world that cannot be built runs no step: its outcome carries the
/// failure as its one violation.
pub(crate) fn run<M: Mix>(cfg: &M::Config, policy: &SchedulePolicy) -> M::Outcome {
    match World::<M>::build(cfg, policy) {
        Ok(world) => world.run(),
        Err(e) => M::unbuilt(ScheduleViolation {
            kind: ViolationKind::Protocol,
            step: 0,
            cycle: 0,
            detail: format!("world construction failed: {e}"),
        }),
    }
}

/// Per-mutator state of the lists mix (what [`CycleDriver`] does not
/// hold: the buffer, the poll counter and the parked flag are its).
#[derive(Debug)]
struct Mutator {
    rng: SplitMix64,
    /// Last node of this thread's chain (a thread-local GC root).
    tail: Option<GcRef>,
    ops_done: usize,
}

/// The lists mix: each mutator grows and trims a private chain hung
/// from the shared array and publishes and cross-links nodes under a
/// [`Scenario`]'s weights. Slot `tid` of the shared array is thread
/// `tid`'s chain head, slot `threads + tid` its published object.
pub struct ListsMix {
    cfg: SchedConfig,
    mutators: Vec<Mutator>,
    /// Logical threads resting for the next pick: the marker after a
    /// slice that left marking on — it is *paced*, yielding to runnable
    /// mutators like a real incremental collector; without pacing a
    /// non-preemptive schedule would mark to completion in one run,
    /// hiding every race — and a mutator after an epoch-ack handshake,
    /// which yields its slice as a real safepoint handshake would (a
    /// free, non-preemptive switch point).
    rest: u32,
    /// Step at which the current epoch was armed; the watchdog measures
    /// ack latency against this.
    armed_at: usize,
    counters: SchedCounters,
    trace: Vec<u8>,
    runnable: Vec<u32>,
    depth_hist: wbe_telemetry::Histogram,
}

impl Mix for ListsMix {
    type Config = SchedConfig;
    type Outcome = ScheduleOutcome;
    const PICK_SALT: u64 = 0xace1;

    fn threads(cfg: &SchedConfig) -> usize {
        cfg.threads
    }

    /// Pre-builds each thread's chain. Fault injection must not break
    /// world construction: these allocations bypass the plan.
    fn build(cfg: &SchedConfig, heap: &mut Heap, seed: u64) -> Result<(Self, GcRef), HeapError> {
        let shared = heap.alloc_ref_array(u32::MAX, 2 * cfg.threads as i64)?;
        let mut mutators = Vec::with_capacity(cfg.threads);
        for tid in 0..cfg.threads {
            let mut prev: Option<GcRef> = None;
            for _ in 0..WARMUP_CHAIN {
                let node = heap.alloc_object(tid as u32, &NODE)?;
                match prev {
                    None => heap.set_elem(shared, tid as i64, Some(node))?,
                    Some(p) => heap.set_field(p, 0, Value::from(node))?,
                }
                prev = Some(node);
            }
            mutators.push(Mutator {
                rng: SplitMix64(seed ^ (tid as u64).wrapping_mul(0x9e37_79b9)),
                tail: prev,
                ops_done: 0,
            });
        }
        heap.fault = cfg.fault.map(FaultPlan::new);
        let mix = ListsMix {
            cfg: cfg.clone(),
            mutators,
            rest: 0,
            armed_at: 0,
            counters: SchedCounters::default(),
            trace: Vec::new(),
            runnable: Vec::new(),
            depth_hist: wbe_telemetry::histogram("sched.satb.buffer_depth"),
        };
        Ok((mix, shared))
    }

    fn rests(w: &World<Self>) -> u32 {
        w.mix.rest
    }

    fn drained(w: &World<Self>) -> bool {
        w.cycle.all_retired()
    }

    /// Watchdog level 2: past twice the deadline, the marker abandons
    /// the arm in an emergency rendezvous rather than stall the world.
    fn give_up_arm(w: &World<Self>) -> bool {
        w.arm_overdue(2)
    }

    /// Logs the pick; rests influence exactly one pick, so they clear
    /// here and only rests set by *this* step affect the next.
    fn picked(w: &mut World<Self>, choice: u8, mask: u32) {
        if wbe_telemetry::tracing_enabled() && w.last != Some(choice) {
            let who = if choice == w.marker() {
                "marker".to_string()
            } else {
                format!("t{choice}")
            };
            wbe_telemetry::trace::event(
                "sched.context_switch",
                format!("-> {who} step {}", w.step),
            );
        }
        let m = &mut w.mix;
        m.trace.push(choice);
        m.runnable.push(mask);
        m.rest = 0;
    }

    /// A safepoint poll (flush + ack, and park or retire) when one is
    /// due, else one workload operation.
    ///
    /// Polls are *periodic* — every `POLL_INTERVAL` ops, like
    /// compiler-inserted polls at loop back-edges — so a thread
    /// genuinely runs operations between an epoch being armed and its
    /// acknowledgement. That window is exactly where
    /// `CycleDriver::elide_allowed` forces the conservative
    /// full-barrier path.
    fn thread_step(w: &mut World<Self>, tid: usize) {
        let retiring = w.mix.mutators[tid].ops_done >= w.mix.cfg.ops_per_thread;
        // Watchdog pacing hint: a thread that has left an armed epoch
        // unacknowledged past the deadline polls now instead of at its
        // usual cadence, bounding how long the snapshot can stall.
        let paced = w.arm_overdue(1) && !w.cycle.acked(tid);
        if paced {
            w.mix.counters.watchdog_pacing += 1;
            let (step, age) = (w.step, w.arm_age());
            wbe_telemetry::event!("sched.watchdog.pacing", "t{tid} step {step} arm age {age}");
        }
        if retiring || paced || w.cycle.since_poll(tid) >= POLL_INTERVAL {
            // Safepoint poll: flush, acknowledge, honour a stop request
            // ([`cycle::poll`]), and (last poll) retire.
            wbe_telemetry::event!("sched.safepoint.poll", "t{tid} step {}", w.step);
            cycle::poll(w, tid, retiring);
            return;
        }
        w.cycle.count_op(tid);
        let m = &mut w.mix;
        m.mutators[tid].ops_done += 1;
        m.counters.mutator_ops += 1;
        match m.mutators[tid].rng.weighted(&m.cfg.scenario.weights()) {
            0 => w.alloc_link(tid),
            1 => w.unlink(tid),
            2 => w.publish(tid),
            _ => w.cross_link(tid),
        }
    }

    fn marker_ctl(w: &mut World<Self>) -> Option<MarkerCtl> {
        Some(MarkerCtl {
            arm_now: w.cycle.all_retired(),
            give_up_arm: Self::give_up_arm(w),
            budget: MARK_BUDGET,
        })
    }

    fn marker_stepped(w: &mut World<Self>, _forced: bool) {
        if w.cycle.phase() == CyclePhase::Marking {
            w.mix.rest = 1 << w.marker();
        }
    }

    fn local_roots(&self) -> impl Iterator<Item = GcRef> + '_ {
        self.mutators.iter().filter_map(|m| m.tail)
    }

    fn stw_span(w: &World<Self>) -> wbe_telemetry::SpanGuard {
        wbe_telemetry::span!("sched.gc.stw", "cycle {}", w.cycles + 1)
    }

    fn on(w: &mut World<Self>, event: CycleEvent) {
        let (step, age) = (w.step, w.arm_age());
        let m = &mut w.mix;
        let c = &mut m.counters;
        match event {
            CycleEvent::Logged => c.satb_logged += 1,
            CycleEvent::Flushed(tid, depth) => {
                c.flushes += 1;
                c.flushed_entries += depth as u64;
                m.depth_hist.record(depth as u64);
                wbe_telemetry::event!("sched.satb.flush", "t{tid} depth {depth} step {step}");
            }
            CycleEvent::Acked(tid) => {
                c.safepoint_acks += 1;
                m.rest |= 1 << tid;
                wbe_telemetry::event!("sched.safepoint.ack", "t{tid} step {step}");
            }
            CycleEvent::Parked => c.parks += 1,
            CycleEvent::Armed => {
                m.armed_at = step;
                wbe_telemetry::event!("sched.epoch.arm", "step {step}");
            }
            // Watchdog level 2: some mutator never reached a safepoint
            // within twice the deadline.
            CycleEvent::Abandoned => {
                c.watchdog_emergency += 1;
                wbe_telemetry::event!("sched.watchdog.emergency", "step {step} arm age {age}");
            }
            CycleEvent::Snapshot(roots) => {
                wbe_telemetry::event!("sched.epoch.snapshot", "step {step} roots {roots}");
            }
            CycleEvent::Waited => c.marker_waits += 1,
            CycleEvent::Marked(None) => c.fault_skipped_steps += 1,
            CycleEvent::Marked(Some(did)) => c.mark_work += did as u64,
            CycleEvent::Ended(pause, swept) => {
                c.remark_drained += pause.log_drained as u64;
                c.swept += swept as u64;
                let cycle = w.cycles;
                wbe_telemetry::event!(
                    "sched.epoch.end_cycle",
                    "step {step} cycle {cycle} swept {swept}"
                );
            }
            // The interpreter's hooks, nothing a checker counts, and the
            // violations the world records.
            CycleEvent::Remarking
            | CycleEvent::Remarked { .. }
            | CycleEvent::Stopped(_)
            | CycleEvent::Violation(..) => {}
        }
    }

    fn finish(w: World<Self>) -> ScheduleOutcome {
        let counters = SchedCounters {
            steps: w.step as u64,
            cycles: w.cycles,
            gated_elisions: w.cycle.gated_elisions(),
            ..w.mix.counters
        };
        wbe_telemetry::Deltas::default().publish([
            ("sched.steps", counters.steps),
            ("sched.ops", counters.mutator_ops),
            ("sched.elided_stores", counters.elided_stores),
            ("sched.gated_elisions", counters.gated_elisions),
            ("sched.satb.logged", counters.satb_logged),
            ("sched.satb.flushes", counters.flushes),
            ("sched.safepoint.acks", counters.safepoint_acks),
            ("sched.safepoint.parks", counters.parks),
            ("sched.safepoint.marker_waits", counters.marker_waits),
            ("sched.cycles", counters.cycles),
            ("sched.swept", counters.swept),
            ("sched.alloc_faults", counters.alloc_faults),
            ("sched.watchdog.pacing_hints", counters.watchdog_pacing),
            (
                "sched.watchdog.emergency_rendezvous",
                counters.watchdog_emergency,
            ),
        ]);
        ScheduleOutcome {
            trace: w.mix.trace,
            runnable: w.mix.runnable,
            counters,
            violations: w.violations,
        }
    }

    fn unbuilt(violation: ScheduleViolation) -> ScheduleOutcome {
        let violations = vec![violation];
        ScheduleOutcome {
            violations,
            ..ScheduleOutcome::default()
        }
    }
}

impl World<ListsMix> {
    /// Steps the current epoch has been armed without full
    /// acknowledgement (0 when no epoch is armed).
    fn arm_age(&self) -> usize {
        match self.cycle.phase() {
            CyclePhase::Arming => self.step - self.mix.armed_at,
            _ => 0,
        }
    }

    /// The watchdog: is the arm past `level` deadlines? Past one,
    /// stalled mutators are paced (their next step polls immediately);
    /// past two, the marker abandons the arm.
    fn arm_overdue(&self, level: usize) -> bool {
        self.arm_age() > level * self.mix.cfg.arm_deadline as usize
    }

    /// Append a fresh node at the tail. The `tail.f0 = new` store is the
    /// paper's elidable pre-null (initializing) store: the compile-time
    /// analysis proved `tail.f0` null, so the barrier is statically
    /// removed — and the oracle checks the proof at runtime.
    fn alloc_link(&mut self, tid: usize) {
        let new = match self.heap.alloc_object(tid as u32, &NODE) {
            Ok(r) => r,
            Err(HeapError::AllocationFailed) => {
                self.mix.counters.alloc_faults += 1;
                return;
            }
            Err(e) => {
                self.violation(ViolationKind::Protocol, format!("alloc failed: {e}"));
                return;
            }
        };
        self.mix.counters.alloc_links += 1;
        let Some(tail) = self.mix.mutators[tid].tail else {
            return;
        };
        let old = self.heap.get_field(tail, 0).unwrap_or(Value::NULL);
        if self.cycle.elide_allowed(tid) {
            // Elided path: no barrier at all. The oracle asserts the
            // static pre-null claim held under this interleaving.
            if let Value::Ref(Some(o)) = old {
                self.violation(
                    ViolationKind::Oracle,
                    format!("elided store on t{tid} overwrote non-null {o}"),
                );
            }
            self.mix.counters.elided_stores += 1;
        } else {
            // Epoch armed but not yet acknowledged: the thread must run
            // the conservative full-barrier version of the code.
            if let Value::Ref(Some(o)) = old {
                cycle::barrier_log(self, tid, o);
            }
        }
        let _ = self.heap.set_field(tail, 0, Value::from(new));
        self.mix.mutators[tid].tail = Some(new);
    }

    /// Drop the interior node after the chain head: `head.f0 = victim.f0`
    /// overwrites a non-null reference, so it carries a mandatory SATB
    /// deletion barrier. `demo_unsound` elides it on thread 0 — the
    /// deliberately wrong "the analysis claimed this site was pre-null"
    /// negative control.
    fn unlink(&mut self, tid: usize) {
        self.mix.counters.unlinks += 1;
        let Ok(Some(head)) = self.heap.get_elem(self.shared, tid as i64) else {
            return;
        };
        let Ok(Value::Ref(Some(victim))) = self.heap.get_field(head, 0) else {
            return;
        };
        let Ok(rest @ Value::Ref(Some(_))) = self.heap.get_field(victim, 0) else {
            return; // victim is the tail; keep it (it is a local root)
        };
        let unsound = self.mix.cfg.demo_unsound && tid == 0;
        if unsound {
            if self.cycle.local_marking(tid) {
                self.mix.counters.unsound_elisions += 1;
            }
        } else {
            cycle::barrier_log(self, tid, victim);
        }
        let _ = self.heap.set_field(head, 0, rest);
    }

    /// Publish the chain head into the thread's shared slot, where other
    /// threads can pick it up. Overwrites a possibly non-null slot, so
    /// it runs the full barrier.
    fn publish(&mut self, tid: usize) {
        self.mix.counters.publishes += 1;
        let Ok(head) = self.heap.get_elem(self.shared, tid as i64) else {
            return;
        };
        let slot = (self.threads + tid) as i64;
        if let Ok(Some(old)) = self.heap.get_elem(self.shared, slot) {
            cycle::barrier_log(self, tid, old);
        }
        let _ = self.heap.set_elem(self.shared, slot, head);
    }

    /// Read the neighbour thread's published object and store it into
    /// our tail's cross-link field (full barrier: the old cross-link may
    /// be non-null).
    fn cross_link(&mut self, tid: usize) {
        self.mix.counters.cross_links += 1;
        let src = (self.threads + (tid + 1) % self.threads) as i64;
        let Ok(Some(x)) = self.heap.get_elem(self.shared, src) else {
            return;
        };
        let Some(tail) = self.mix.mutators[tid].tail else {
            return;
        };
        if let Ok(Value::Ref(Some(old))) = self.heap.get_field(tail, 1) {
            cycle::barrier_log(self, tid, old);
        }
        let _ = self.heap.set_field(tail, 1, Value::from(x));
    }
}

/// Runs one schedule of `cfg` under `policy` to completion and returns
/// its trace, counters, and violations. Fully deterministic: equal
/// `(cfg, policy)` give equal outcomes, bit for bit.
pub fn run_schedule(cfg: &SchedConfig, policy: &SchedulePolicy) -> ScheduleOutcome {
    run::<ListsMix>(cfg, policy)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(threads: usize, scenario: Scenario) -> SchedConfig {
        SchedConfig {
            threads,
            scenario,
            ..SchedConfig::default()
        }
    }

    #[test]
    fn sound_schedules_have_no_violations() {
        for scenario in Scenario::ALL {
            for seed in 0..20u64 {
                let out = run_schedule(&cfg(3, scenario), &SchedulePolicy::Random { seed });
                assert!(
                    out.violations.is_empty(),
                    "{scenario} seed {seed}: {:?}",
                    out.violations
                );
                assert!(out.counters.cycles >= 1, "at least one full cycle runs");
                assert!(out.counters.elided_stores > 0, "elision exercised");
            }
        }
    }

    #[test]
    fn same_seed_same_digest_and_counters() {
        let c = cfg(4, Scenario::Churn);
        let a = run_schedule(&c, &SchedulePolicy::Random { seed: 7 });
        let b = run_schedule(&c, &SchedulePolicy::Random { seed: 7 });
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.digest(), b.digest());
        let c2 = run_schedule(&c, &SchedulePolicy::Random { seed: 8 });
        assert_ne!(a.digest(), c2.digest(), "different seeds diverge");
    }

    #[test]
    fn demo_unsound_is_caught_under_some_seed() {
        let c = SchedConfig {
            threads: 2,
            scenario: Scenario::Churn,
            demo_unsound: true,
            ..SchedConfig::default()
        };
        let mut caught = None;
        for seed in 0..200u64 {
            let out = run_schedule(&c, &SchedulePolicy::Random { seed });
            if out
                .violations
                .iter()
                .any(|v| v.kind == ViolationKind::LostObject)
            {
                caught = Some((seed, out));
                break;
            }
        }
        let (seed, out) = caught.expect("some schedule must lose an object");
        assert!(out.counters.unsound_elisions > 0);
        // The failing schedule replays to the same digest.
        let replay = run_schedule(&c, &SchedulePolicy::Random { seed });
        assert_eq!(out.digest(), replay.digest());
        assert_eq!(out.violations, replay.violations);
    }

    #[test]
    fn scripted_prefix_replays_and_default_is_non_preemptive() {
        let c = cfg(2, Scenario::Chain);
        let base = run_schedule(&c, &SchedulePolicy::Scripted { prefix: Vec::new() });
        assert!(base.violations.is_empty());
        assert_eq!(base.preemptions(), 0, "default policy never preempts");
        // Forcing the full trace reproduces it exactly.
        let forced = run_schedule(
            &c,
            &SchedulePolicy::Scripted {
                prefix: base.trace.clone(),
            },
        );
        assert_eq!(base.trace, forced.trace);
        assert_eq!(base.digest(), forced.digest());
    }

    #[test]
    fn epoch_gating_counts_when_mutators_run_while_armed() {
        // Across seeds, some schedule runs a mutator op between arm and
        // its ack; those elisions must be gated.
        let c = cfg(4, Scenario::Chain);
        let total: u64 = (0..30)
            .map(|seed| {
                run_schedule(&c, &SchedulePolicy::Random { seed })
                    .counters
                    .gated_elisions
            })
            .sum();
        assert!(total > 0, "no elision was ever gated across 30 seeds");
    }

    #[test]
    fn fault_plan_composes_without_violations() {
        let c = SchedConfig {
            threads: 3,
            scenario: Scenario::Churn,
            fault: Some(FaultConfig::from_seed(99)),
            ..SchedConfig::default()
        };
        let mut any_fault = false;
        for seed in 0..20u64 {
            let out = run_schedule(&c, &SchedulePolicy::Random { seed });
            assert!(
                out.violations.is_empty(),
                "seed {seed}: {:?}",
                out.violations
            );
            any_fault |= out.counters.alloc_faults > 0 || out.counters.fault_skipped_steps > 0;
        }
        assert!(any_fault, "fault plan injected nothing across 20 seeds");
    }

    #[test]
    fn watchdog_pacing_forces_overdue_acks() {
        // Deadline 0: an armed epoch is overdue after a single step, so
        // any stalled mutator's next slice is forced to poll. The
        // schedules stay sound — pacing only moves polls earlier.
        let c = SchedConfig {
            arm_deadline: 0,
            ..cfg(2, Scenario::Chain)
        };
        let mut paced = 0;
        for seed in 0..10u64 {
            let out = run_schedule(&c, &SchedulePolicy::Random { seed });
            assert!(
                out.violations.is_empty(),
                "seed {seed}: {:?}",
                out.violations
            );
            paced += out.counters.watchdog_pacing;
        }
        assert!(paced > 0, "no pacing hint fired across 10 seeds");
    }

    #[test]
    fn watchdog_emergency_abandons_stalled_arm() {
        // Script the marker to keep running while its armed epoch is
        // unacknowledged: with deadline 0 the arm is emergency-due one
        // step after arming, so the marker abandons it (rather than
        // stalling) and the world completes once the mutator runs.
        let c = SchedConfig {
            arm_deadline: 0,
            ..cfg(1, Scenario::Chain)
        };
        let marker = 1u8; // the marker's id is the thread count
        let mut prefix = vec![marker; 8];
        prefix.extend(std::iter::repeat_n(0u8, 60));
        let out = run_schedule(&c, &SchedulePolicy::Scripted { prefix });
        assert!(
            out.counters.watchdog_emergency > 0,
            "stalled arm was not abandoned: {:?}",
            out.counters
        );
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.counters.cycles >= 1, "the world still completed");
    }

    /// A world the runnable mask or a mix's tables cannot hold fails to
    /// build, and its outcome says so, instead of overflowing the mask
    /// or dividing by zero mid-run.
    #[test]
    fn out_of_range_worlds_fail_to_build() {
        use crate::overload::{run_serve, ServeWorld, ServeWorldConfig};
        let unbuilt = |v: &[ScheduleViolation]| {
            v.len() == 1
                && v[0].kind == ViolationKind::Protocol
                && v[0]
                    .detail
                    .starts_with("world construction failed: bad world configuration")
        };
        let lists = run_schedule(
            &cfg(MAX_THREADS + 1, Scenario::Chain),
            &SchedulePolicy::Random { seed: 1 },
        );
        assert!(unbuilt(&lists.violations), "{:?}", lists.violations);
        assert_eq!(lists.counters.steps, 0);
        let serve = ServeWorldConfig::default;
        for bad in [
            ServeWorldConfig {
                connections: MAX_THREADS + 1,
                ..serve()
            },
            ServeWorldConfig {
                tenants: 0,
                ..serve()
            },
        ] {
            assert!(ServeWorld::new(&bad).is_err());
            let out = run_serve(&bad);
            assert!(unbuilt(&out.violations), "{:?}", out.violations);
            assert_eq!(out.counters.steps, 0);
        }
        // The widest world the mask holds runs clean.
        let widest = run_schedule(
            &cfg(MAX_THREADS, Scenario::Shared),
            &SchedulePolicy::Random { seed: 1 },
        );
        assert!(widest.violations.is_empty(), "{:?}", widest.violations);
        let widest = run_serve(&ServeWorldConfig {
            connections: MAX_THREADS,
            ..serve()
        });
        assert!(widest.violations.is_empty(), "{:?}", widest.violations);
    }

    #[test]
    fn single_mutator_world_is_sound() {
        let out = run_schedule(
            &cfg(1, Scenario::Shared),
            &SchedulePolicy::Random { seed: 3 },
        );
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.counters.cycles >= 1);
    }
}
