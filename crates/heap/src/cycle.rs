//! The marking-cycle driver of every world.
//!
//! The paper's elision is sound only under the SATB contract of its
//! §2: the snapshot is taken after every mutator has synchronised,
//! pre-values are logged while marking, every log is flushed before the
//! final remark, and the sweep frees only what the snapshot did not
//! reach. [`crate::sched`] and [`crate::overload`] run that contract
//! over logical threads and `wbe-interp`'s `Interp` runs it on its one
//! thread; this module is the one place it is written down:
//! [`CycleDriver`] owns the state — one [`CyclePhase`], an epoch
//! counter, per thread an SATB buffer and the epoch it last
//! acknowledged, and the world's [`RecoveryController`], if it has one;
//! `barrier_log`, [`poll`], [`step`] and [`force_stw`] are the
//! protocol. What a thread may do (elide, skip a log, run on) is read
//! off the phase and its acknowledgement, never stored. A world
//! implements [`CycleHost`] for what is its own, including what the
//! tail does after a failed post-mark check ([`PostMarkPolicy`]), and
//! decides *when* ([`MarkerCtl`]). DESIGN §9.1 has the phase table.

use std::fmt;

use crate::gc::PauseReport;
use crate::heap::Heap;
use crate::recover::{RecoveryAction, RecoveryController};
use crate::value::GcRef;
use crate::verify::{self, ReachSet, Violation};

/// Where the cycle is: the protocol's only state, written only by this
/// module. The epoch is armed in `Arming` and marking in `Marking` and
/// `Rendezvous` ([`CyclePhase::marking`]); the stop request is up
/// exactly in `Rendezvous`; going `Idle` ends the epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CyclePhase {
    /// Between cycles; arms a new epoch when the countdown expires.
    Idle {
        /// Marker steps left before the arm.
        countdown: u32,
    },
    /// Epoch armed; waiting for every mutator to acknowledge before
    /// taking the snapshot.
    Arming,
    /// Snapshot taken; performing budgeted concurrent mark slices.
    Marking,
    /// Stop requested; waiting for every mutator to park, then the
    /// stop-the-world tail runs as one atomic step.
    Rendezvous,
}

impl CyclePhase {
    /// Has this cycle's snapshot been taken?
    pub fn marking(self) -> bool {
        matches!(self, CyclePhase::Marking | CyclePhase::Rendezvous)
    }
}

/// What went wrong in a cooperative world, if anything. The driver
/// raises the first two and `Protocol`; the others are a world's own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// A snapshot-reachable object was freed by that cycle's sweep —
    /// the SATB guarantee was broken (a lost object).
    LostObject,
    /// A [`crate::verify`] heap-invariant check failed.
    Invariant,
    /// The elision oracle observed a non-null overwritten value at a
    /// statically-elided (assumed pre-null) store site.
    Oracle,
    /// The schedule exceeded the step cap without terminating.
    Livelock,
    /// Internal protocol error (e.g. a cycle started twice).
    Protocol,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ViolationKind::LostObject => "lost-object",
            ViolationKind::Invariant => "invariant",
            ViolationKind::Oracle => "oracle",
            ViolationKind::Livelock => "livelock",
            ViolationKind::Protocol => "protocol",
        })
    }
}

/// What a world decides for one marker step: whether an idle marker
/// arms ahead of its countdown, whether one still waiting for
/// acknowledgements gives the arm up, and a mark slice's budget (before
/// the fault plan scales it).
#[derive(Clone, Copy, Debug)]
pub struct MarkerCtl {
    /// Arm now, whatever the idle countdown says.
    pub arm_now: bool,
    /// Abandon an arm some thread has not acknowledged.
    pub give_up_arm: bool,
    /// Work units of one concurrent mark slice.
    pub budget: usize,
}

/// What the tail does after the remark: a world's verification policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PostMarkPolicy {
    /// Check both boundaries, report every violation, and sweep anyway:
    /// a checker wants the lost object that sweep produces next.
    SweepAndReport,
    /// Check nothing.
    Skip,
    /// Check both boundaries and never sweep a failed post-mark: heal
    /// with the driver's [`RecoveryController`] — a stop-the-world
    /// re-mark and a re-check, until one passes or the budget is spent —
    /// and stop (`CycleEvent::Stopped`) when there is no controller or
    /// no budget left. A post-sweep failure enters the same loop.
    Recover,
}

/// A cycle-boundary check that failed, as a recovering tail reports it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckFailed {
    /// Which check: `"post-mark"` or `"post-sweep"`.
    pub when: &'static str,
    /// Number of violations found.
    pub count: usize,
    /// Rendering of the first violation.
    pub first: String,
}

impl fmt::Display for CheckFailed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "HEAP INVARIANT VIOLATION ({}): {} violation(s), first: {}",
            self.when, self.count, self.first
        )
    }
}

/// What the protocol tells its world, as it happens. The worlds count
/// and trace from these; the driver keeps no counters of its own.
#[derive(Debug, PartialEq, Eq)]
pub enum CycleEvent {
    /// A barrier logged a pre-value into its thread's buffer.
    Logged,
    /// A flush moved thread `.0`'s `.1` entries to the collector.
    Flushed(usize, usize),
    /// Thread `.0` acknowledged a pending epoch at a poll.
    Acked(usize),
    /// A thread honoured the stop request.
    Parked,
    /// A new epoch was armed.
    Armed,
    /// The arm is about to be given up: its epoch ends with no snapshot.
    Abandoned,
    /// The snapshot was taken over this many roots; marking began —
    /// after the arm's handshake, or with the world stopped: by
    /// [`force_stw`] from idle, or by a recovery re-mark.
    Snapshot(usize),
    /// The marker waited (for acknowledgements or for parks).
    Waited,
    /// A mark slice's work; `None` if the fault plan skipped it.
    Marked(Option<usize>),
    /// The cycle's remark is about to run.
    Remarking,
    /// A remark ran: the cycle's own, or a recovery re-mark's
    /// (`recovery`). The mark state may be forged here, before any check
    /// reads it.
    Remarked {
        /// This was a recovery re-mark.
        recovery: bool,
    },
    /// A violation the driver found: its kind and detail.
    Violation(ViolationKind, String),
    /// A [`PostMarkPolicy::Recover`] tail gave up: no controller, or no
    /// budget left. The cycle ends here, with no `Ended`.
    Stopped(CheckFailed),
    /// The tail closed the cycle, sweeping `.1` objects; the world is
    /// still stopped.
    Ended(PauseReport, usize),
}

/// What a logical thread owns of the protocol.
#[derive(Debug, Default)]
struct ThreadSync {
    /// Overwritten references the barrier logged since the last flush.
    satb: Vec<GcRef>,
    /// The last epoch this thread acknowledged.
    acked: u64,
    /// Ops executed since the last safepoint poll.
    since_poll: u32,
    parked: bool,
    /// Retired threads poll no more: they acknowledge an arm implicitly
    /// (their last safepoint already flushed) and count as parked.
    retired: bool,
}

/// The protocol state of one world.
#[derive(Debug)]
pub struct CycleDriver {
    phase: CyclePhase,
    /// Bumped by every arm; 0 until the first.
    epoch: u64,
    /// Marker steps between the end of one cycle and arming the next.
    cycle_gap: u32,
    /// Snapshot-reachable set recorded when the current cycle's marking
    /// began, audited at its sweep.
    snapshot: Option<ReachSet>,
    threads: Vec<ThreadSync>,
    /// Elision attempts refused because the thread had not yet
    /// acknowledged the armed epoch.
    gated_elisions: u64,
    /// The world's self-healing layer, consulted by a
    /// [`PostMarkPolicy::Recover`] tail.
    pub recovery: Option<RecoveryController>,
}

impl CycleDriver {
    /// An idle driver for `threads` threads that arms every `cycle_gap`
    /// marker steps.
    pub fn new(threads: usize, cycle_gap: u32) -> Self {
        CycleDriver {
            phase: CyclePhase::Idle {
                countdown: cycle_gap,
            },
            epoch: 0,
            cycle_gap,
            snapshot: None,
            threads: (0..threads).map(|_| ThreadSync::default()).collect(),
            gated_elisions: 0,
            recovery: None,
        }
    }

    /// Where the cycle is.
    pub fn phase(&self) -> CyclePhase {
        self.phase
    }

    /// Has `tid` acknowledged the current epoch?
    pub(crate) fn acked(&self, tid: usize) -> bool {
        self.threads[tid].acked == self.epoch
    }

    pub(crate) fn all_acked(&self) -> bool {
        (0..self.threads.len()).all(|tid| self.acked(tid))
    }

    /// The thread's own view of "is marking on": the snapshot is taken
    /// and the thread has acknowledged its epoch. A store by a thread
    /// whose view is idle need not log — it happens (logically) before
    /// the snapshot point, whose root scan sees its effect.
    pub(crate) fn local_marking(&self, tid: usize) -> bool {
        self.phase.marking() && self.acked(tid)
    }

    /// May `tid` run statically elided (barrier-free) code right now?
    /// Between cycles, or once it has acknowledged the current epoch.
    /// Until then its view lags the collector's, so it takes the full
    /// barrier and the refusal is counted.
    pub(crate) fn elide_allowed(&mut self, tid: usize) -> bool {
        let allowed = matches!(self.phase, CyclePhase::Idle { .. }) || self.acked(tid);
        self.gated_elisions += u64::from(!allowed);
        allowed
    }

    pub(crate) fn gated_elisions(&self) -> u64 {
        self.gated_elisions
    }

    /// Is `tid` parked or retired — not to be scheduled?
    pub(crate) fn halted(&self, tid: usize) -> bool {
        self.threads[tid].parked || self.threads[tid].retired
    }

    pub(crate) fn all_halted(&self) -> bool {
        (0..self.threads.len()).all(|tid| self.halted(tid))
    }

    pub(crate) fn all_retired(&self) -> bool {
        self.threads.iter().all(|t| t.retired)
    }

    /// Does `tid` owe the protocol a poll — an epoch to acknowledge or
    /// a stop request to honour?
    pub(crate) fn owes_poll(&self, tid: usize) -> bool {
        !self.acked(tid) || self.phase == CyclePhase::Rendezvous
    }

    pub(crate) fn since_poll(&self, tid: usize) -> u32 {
        self.threads[tid].since_poll
    }

    /// Thread `tid` executed one workload op since its last poll.
    pub(crate) fn count_op(&mut self, tid: usize) {
        self.threads[tid].since_poll += 1;
    }

    /// Back to idle, the countdown to the next arm restarted.
    fn go_idle(&mut self) {
        self.phase = CyclePhase::Idle {
            countdown: self.cycle_gap,
        };
    }
}

/// What a world supplies to the protocol. Statically dispatched; the
/// world owns the driver and the heap and lends both.
pub trait CycleHost {
    /// Does the arm record the snapshot-reachable set for the sweep's
    /// lost-object audit? A property of the world, not a setting.
    const AUDITS_SNAPSHOT: bool = true;
    /// The world's driver and heap.
    fn parts(&mut self) -> (&mut CycleDriver, &mut Heap);
    /// The world's roots, as the snapshot and the remark see them.
    fn roots(&self) -> Vec<GcRef>;
    /// A span to hold open across the stop-the-world tail.
    fn stw_span(&self) -> wbe_telemetry::SpanGuard {
        wbe_telemetry::span::noop()
    }
    /// What the tail does after the remark.
    fn post_mark_policy(&self) -> PostMarkPolicy {
        PostMarkPolicy::SweepAndReport
    }
    /// Told of each protocol event as it happens.
    fn on(&mut self, event: CycleEvent);
}

fn report<H: CycleHost>(host: &mut H, kind: ViolationKind, detail: String) {
    host.on(CycleEvent::Violation(kind, detail));
}

/// SATB deletion barrier for `old`, routed through thread `tid`'s
/// buffer; a no-op when the thread's local view of marking is idle.
pub(crate) fn barrier_log<H: CycleHost>(host: &mut H, tid: usize, old: GcRef) {
    let cycle = host.parts().0;
    if cycle.local_marking(tid) {
        cycle.threads[tid].satb.push(old);
        host.on(CycleEvent::Logged);
    }
}

fn flush<H: CycleHost>(host: &mut H, tid: usize) {
    let (cycle, heap) = host.parts();
    let depth = cycle.threads[tid].satb.len();
    if depth > 0 {
        heap.gc.satb_flush(cycle.threads[tid].satb.drain(..));
        host.on(CycleEvent::Flushed(tid, depth));
    }
}

/// Safepoint poll of thread `tid`: flush the local buffer, acknowledge
/// any pending epoch, honour a stop request — or, on a thread's last
/// poll (`retiring`), retire. Entries logged before the ack are
/// pre-snapshot; the flush drops them (collector idle), which is sound.
pub fn poll<H: CycleHost>(host: &mut H, tid: usize, retiring: bool) {
    flush(host, tid);
    let cycle = host.parts().0;
    cycle.threads[tid].since_poll = 0;
    if !cycle.acked(tid) {
        cycle.threads[tid].acked = cycle.epoch;
        host.on(CycleEvent::Acked(tid));
    }
    let cycle = host.parts().0;
    if cycle.phase == CyclePhase::Rendezvous {
        cycle.threads[tid].parked = true;
        host.on(CycleEvent::Parked);
    } else if retiring {
        cycle.threads[tid].retired = true;
    }
}

/// One step of the marker.
pub fn step<H: CycleHost>(host: &mut H, ctl: MarkerCtl) {
    let (cycle, heap) = host.parts();
    match cycle.phase {
        CyclePhase::Idle { countdown } if countdown > 0 && !ctl.arm_now => {
            cycle.phase = CyclePhase::Idle {
                countdown: countdown - 1,
            };
        }
        CyclePhase::Idle { .. } => {
            cycle.epoch += 1;
            cycle.phase = CyclePhase::Arming;
            for thread in cycle.threads.iter_mut().filter(|t| t.retired) {
                thread.acked = cycle.epoch;
            }
            host.on(CycleEvent::Armed);
        }
        CyclePhase::Arming if cycle.all_acked() => {
            // Initial-mark pause: with every thread synchronised, take
            // the snapshot and shade the roots.
            let roots = host.roots();
            let (cycle, heap) = host.parts();
            if let Err(e) = heap.gc.try_begin_marking(&mut heap.store, &roots) {
                cycle.go_idle();
                return report(host, ViolationKind::Protocol, e.to_string());
            }
            cycle.snapshot = H::AUDITS_SNAPSHOT.then(|| verify::reachable_set(heap, &roots));
            cycle.phase = CyclePhase::Marking;
            host.on(CycleEvent::Snapshot(roots.len()));
        }
        CyclePhase::Arming if ctl.give_up_arm => {
            host.on(CycleEvent::Abandoned);
            host.parts().0.go_idle();
        }
        CyclePhase::Marking => {
            let did = heap.mark_slice(ctl.budget);
            if did == Some(0) {
                cycle.phase = CyclePhase::Rendezvous;
            }
            host.on(CycleEvent::Marked(did));
        }
        CyclePhase::Rendezvous if cycle.all_halted() => tail(host),
        CyclePhase::Arming | CyclePhase::Rendezvous => host.on(CycleEvent::Waited),
    }
}

/// A forced stop-the-world collection as one atomic step, from any
/// phase: every thread is flushed by fiat (an emergency safepoint), a
/// cycle is opened if none is running, and the tail completes it.
pub fn force_stw<H: CycleHost>(host: &mut H) {
    if !host.parts().1.gc.is_marking() {
        let roots = host.roots();
        let heap = host.parts().1;
        if heap.gc.try_begin_marking(&mut heap.store, &roots).is_err() {
            // Cannot happen (not marking ⇒ a cycle can start), but the
            // no-panic policy wants a reportable path.
            let detail = "emergency cycle failed to open".to_string();
            return report(host, ViolationKind::Protocol, detail);
        }
        host.on(CycleEvent::Snapshot(roots.len()));
    }
    tail(host);
}

/// The stop-the-world tail of a cycle, in the one order the contract
/// allows: final flushes, remark, then the host's [`PostMarkPolicy`] —
/// for the checkers post-mark invariants, sweep, the snapshot-survives
/// audit, post-sweep invariants — then `Ended` with the world still
/// stopped, then resume and go idle, which ends the epoch.
fn tail<H: CycleHost>(host: &mut H) {
    let _span = host.stw_span();
    for tid in 0..host.parts().0.threads.len() {
        flush(host, tid);
    }
    let roots = host.roots();
    host.on(CycleEvent::Remarking);
    let heap = host.parts().1;
    let pause = heap.gc.remark(&mut heap.store, &roots);
    host.on(CycleEvent::Remarked { recovery: false });
    let swept = match host.post_mark_policy() {
        PostMarkPolicy::SweepAndReport => checked_sweep(host, &roots, true),
        PostMarkPolicy::Skip => Ok(sweep(host)),
        PostMarkPolicy::Recover => recover(host, &roots),
    };
    match swept {
        Ok(swept) => host.on(CycleEvent::Ended(pause, swept)),
        Err(failed) => host.on(CycleEvent::Stopped(failed)),
    }
    let cycle = host.parts().0;
    for t in &mut cycle.threads {
        t.parked = false;
    }
    cycle.go_idle();
}

/// Sweeps, then audits the snapshot: SATB promises that every object in
/// it survives this cycle's sweep.
fn sweep<H: CycleHost>(host: &mut H) -> usize {
    let (cycle, heap) = host.parts();
    let swept = heap.sweep();
    if let Some(snapshot) = cycle.snapshot.take() {
        for obj in snapshot.iter() {
            if !host.parts().1.store.is_live(obj) {
                let detail = format!("snapshot-reachable {obj} freed by sweep");
                report(host, ViolationKind::LostObject, detail);
            }
        }
    }
    swept
}

/// Post-mark check, sweep, post-sweep check. With `sweep_anyway` (a
/// checker) every violation is reported and the sweep runs regardless;
/// otherwise a failed check ends the sequence — sweeping a corrupt mark
/// state frees live objects and turns a recoverable fault into dangling
/// references.
fn checked_sweep<H: CycleHost>(
    host: &mut H,
    roots: &[GcRef],
    sweep_anyway: bool,
) -> Result<usize, CheckFailed> {
    let post_mark = verify::post_mark(host.parts().1, roots);
    audit(host, "post-mark", post_mark.violations(), sweep_anyway)?;
    let swept = sweep(host);
    let post_sweep = verify::post_sweep(host.parts().1, &post_mark);
    audit(host, "post-sweep", &post_sweep, sweep_anyway)?;
    Ok(swept)
}

fn audit<H: CycleHost>(
    host: &mut H,
    when: &'static str,
    violations: &[Violation],
    report_all: bool,
) -> Result<(), CheckFailed> {
    if report_all {
        for v in violations {
            report(host, ViolationKind::Invariant, v.to_string());
        }
        return Ok(());
    }
    violations.first().map_or(Ok(()), |first| {
        let (count, first) = (violations.len(), first.to_string());
        Err(CheckFailed { when, count, first })
    })
}

/// [`PostMarkPolicy::Recover`]'s loop: a failed check enters barrier
/// panic mode and re-marks from the roots with the world stopped, then
/// checks again, until a check passes or the controller's budget of
/// consecutive failures is spent. The sweep count of the check that
/// passed, or the failure that ended the loop.
fn recover<H: CycleHost>(host: &mut H, roots: &[GcRef]) -> Result<usize, CheckFailed> {
    let mut failed = match checked_sweep(host, roots, false) {
        Ok(swept) => return Ok(swept),
        Err(failed) => failed,
    };
    let Some(mut rc) = host.parts().0.recovery.take() else {
        return Err(failed);
    };
    let result = loop {
        if enter_recovery(&mut rc, &failed.to_string()) == RecoveryAction::Trap {
            break Err(failed);
        }
        wbe_telemetry::event!("gc.recovery.remark", "full STW re-mark from roots");
        // A fresh cycle rebuilds the mark state from scratch.
        let heap = host.parts().1;
        if heap.gc.try_begin_marking(&mut heap.store, roots).is_ok() {
            host.on(CycleEvent::Snapshot(roots.len()));
        }
        let heap = host.parts().1;
        heap.gc.remark(&mut heap.store, roots);
        host.on(CycleEvent::Remarked { recovery: true });
        match checked_sweep(host, roots, false) {
            Ok(swept) => {
                rc.recovered();
                wbe_telemetry::event!(
                    "gc.recovery.resume",
                    "invariants re-established; mutator resumes with barriers restored"
                );
                break Ok(swept);
            }
            Err(again) => {
                rc.attempt_failed();
                failed = again;
            }
        }
    };
    rc.publish_metrics();
    host.parts().0.recovery = Some(rc);
    result
}

/// The head of every recovery, whatever detected the violation: tell
/// the controller, and trace what it decided — `gc.recovery.trap` when
/// the budget is spent, `gc.recovery.panic` when this violation is the
/// one that entered barrier panic mode.
pub fn enter_recovery(rc: &mut RecoveryController, reason: &str) -> RecoveryAction {
    let was_panicking = rc.in_panic();
    let action = rc.on_violation(reason);
    match action {
        RecoveryAction::Trap => wbe_telemetry::event!("gc.recovery.trap", "{reason}"),
        RecoveryAction::Recover if !was_panicking => {
            wbe_telemetry::event!("gc.recovery.panic", "{}", rc.panic_reason());
        }
        RecoveryAction::Recover => {}
    }
    action
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gc::MarkStyle;
    use crate::recover::RecoveryPolicy;
    use crate::value::{FieldShape, Value};

    const GAP: u32 = 3;

    /// What the recording host can see of the world as an event arrives.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct Seen {
        /// The collector is between `begin_marking` and `remark`.
        marking: bool,
        live: usize,
        snapshot_open: bool,
        phase: CyclePhase,
        /// Every thread is parked or retired.
        halted: bool,
    }

    /// A two-thread world that does nothing but record — and, for the
    /// first `corrupt` remarks, clears the mark of `shared[0]`'s object
    /// at the post-remark event, as the interpreter's chaos hook does.
    struct Rec {
        cycle: CycleDriver,
        heap: Heap,
        shared: GcRef,
        log: Vec<(String, Seen)>,
        policy: PostMarkPolicy,
        corrupt: u32,
    }

    impl CycleHost for Rec {
        fn parts(&mut self) -> (&mut CycleDriver, &mut Heap) {
            (&mut self.cycle, &mut self.heap)
        }

        fn roots(&self) -> Vec<GcRef> {
            vec![self.shared]
        }

        fn post_mark_policy(&self) -> PostMarkPolicy {
            self.policy
        }

        fn on(&mut self, event: CycleEvent) {
            let name = match &event {
                CycleEvent::Ended(..) => "Ended".to_string(),
                CycleEvent::Stopped(failed) => format!("Stopped({})", failed.when),
                other => format!("{other:?}"),
            };
            if matches!(event, CycleEvent::Remarked { .. }) && self.corrupt > 0 {
                self.corrupt -= 1;
                let a = self.heap.get_elem(self.shared, 0).unwrap().unwrap();
                self.heap.gc.clear_mark(a);
            }
            self.log.push((name, self.seen()));
        }
    }

    impl Rec {
        /// `shared[0] = a`, `a.f0 = b`, and one unreachable object.
        fn new() -> (Rec, GcRef, GcRef) {
            let mut heap = Heap::new(MarkStyle::Satb);
            let shared = heap.alloc_ref_array(0, 1).unwrap();
            let a = heap.alloc_object(0, &[FieldShape::Ref]).unwrap();
            let b = heap.alloc_object(0, &[FieldShape::Ref]).unwrap();
            heap.alloc_object(0, &[]).unwrap();
            heap.set_elem(shared, 0, Some(a)).unwrap();
            heap.set_field(a, 0, Value::from(b)).unwrap();
            let rec = Rec {
                cycle: CycleDriver::new(2, GAP),
                heap,
                shared,
                log: Vec::new(),
                policy: PostMarkPolicy::SweepAndReport,
                corrupt: 0,
            };
            (rec, a, b)
        }

        fn seen(&self) -> Seen {
            Seen {
                marking: self.heap.gc.is_marking(),
                live: self.heap.store.live_count(),
                snapshot_open: self.cycle.snapshot.is_some(),
                phase: self.cycle.phase,
                halted: self.cycle.all_halted(),
            }
        }

        fn events(&self) -> Vec<&str> {
            self.log.iter().map(|(name, _)| name.as_str()).collect()
        }

        fn step(&mut self, arm_now: bool, give_up_arm: bool) {
            let ctl = MarkerCtl {
                arm_now,
                give_up_arm,
                budget: 1,
            };
            step(self, ctl);
        }

        /// Runs the protocol forward from idle until the marker is in
        /// `phase`, polling both threads whenever the marker waits.
        fn drive_to(&mut self, phase: CyclePhase) {
            while self.cycle.phase != phase {
                self.step(true, false);
                if self.events().last() == Some(&"Waited") {
                    poll(self, 0, false);
                    poll(self, 1, false);
                }
            }
        }

        fn assert_resumed_idle(&self) {
            assert_eq!(self.cycle.phase, CyclePhase::Idle { countdown: GAP });
            assert!(!self.cycle.threads.iter().any(|t| t.parked));
            assert!(self.cycle.snapshot.is_none());
            assert!(!self.heap.gc.is_marking());
        }
    }

    #[test]
    fn tail_runs_its_steps_in_the_one_order() {
        let (mut w, a, b) = Rec::new();
        w.drive_to(CyclePhase::Rendezvous);
        poll(&mut w, 0, false);
        poll(&mut w, 1, false);
        // Make every stage of the tail speak: a buffer to flush, an
        // unmarked reachable object for the post-mark check to find and
        // the sweep to free — which loses a snapshot member and leaves
        // `shared[0]` dangling for the post-sweep check.
        barrier_log(&mut w, 0, b);
        w.heap.gc.clear_mark(a);
        w.log.clear();
        w.step(false, false);

        // The phase stays `Rendezvous`, every thread parked, throughout.
        let at = |marking, live, snapshot_open| Seen {
            marking,
            live,
            snapshot_open,
            phase: CyclePhase::Rendezvous,
            halted: true,
        };
        let expected = [
            // 1. final flushes, before the remark ends marking
            ("Flushed(0, 1)".to_string(), at(true, 4, true)),
            ("Remarking".to_string(), at(true, 4, true)),
            // 2. remark, 3. post-mark invariants — nothing swept yet
            (
                "Remarked { recovery: false }".to_string(),
                at(false, 4, true),
            ),
            (
                format!("Violation(Invariant, \"reachable object {a} unmarked after remark (lost SATB edge)\")"),
                at(false, 4, true),
            ),
            // 4. sweep (`a` and the garbage object), 5. snapshot audit
            (
                format!("Violation(LostObject, \"snapshot-reachable {a} freed by sweep\")"),
                at(false, 2, false),
            ),
            // 6. post-sweep invariants
            (
                format!("Violation(Invariant, \"live object {} references freed slot {a}\")", w.shared),
                at(false, 2, false),
            ),
            // 7. `Ended`, with the world still stopped
            ("Ended".to_string(), at(false, 2, false)),
        ];
        assert_eq!(w.log, expected);
        // 8. resume, 9. idle — the end of the epoch
        w.assert_resumed_idle();
    }

    #[test]
    fn force_stw_from_any_phase_resumes_an_idle_world() {
        for phase in [
            CyclePhase::Idle { countdown: GAP },
            CyclePhase::Arming,
            CyclePhase::Marking,
            CyclePhase::Rendezvous,
        ] {
            let (mut w, _a, b) = Rec::new();
            w.drive_to(phase);
            if phase == CyclePhase::Rendezvous {
                poll(&mut w, 1, false);
                assert!(w.cycle.halted(1), "one thread already parked");
            }
            barrier_log(&mut w, 0, b);
            w.log.clear();
            force_stw(&mut w);
            w.assert_resumed_idle();
            let ended = w.events().iter().filter(|e| **e == "Ended").count();
            assert_eq!(ended, 1, "{phase:?}: {:?}", w.events());
            assert!(
                !w.events().iter().any(|e| e.starts_with("Violation")),
                "{phase:?}: {:?}",
                w.events()
            );
            assert_eq!(w.heap.store.live_count(), 3, "{phase:?}: garbage swept");
        }
    }

    #[test]
    fn emergency_from_idle_leaves_the_epoch_alone() {
        let (mut w, ..) = Rec::new();
        force_stw(&mut w);
        let (_, seen) = w.log.last().expect("the cycle ended");
        assert_eq!(seen.phase, CyclePhase::Idle { countdown: GAP });
        assert_eq!(w.cycle.epoch, 0, "no epoch was ever armed");
        w.assert_resumed_idle();
        // The countdown restarts: the next arm is GAP ticks away.
        for _ in 0..GAP {
            w.step(false, false);
            assert!(w.events().iter().all(|e| *e != "Armed"));
        }
        w.step(false, false);
        assert_eq!(w.events().last(), Some(&"Armed"));
    }

    #[test]
    fn abandoned_arm_ends_the_epoch_without_a_snapshot() {
        let (mut w, ..) = Rec::new();
        w.drive_to(CyclePhase::Arming);
        poll(&mut w, 0, false);
        w.step(false, false);
        assert_eq!(w.events().last(), Some(&"Waited"), "thread 1 has not acked");
        w.step(false, true);
        assert_eq!(w.events(), ["Armed", "Acked(0)", "Waited", "Abandoned"]);
        let (_, seen) = w.log.last().unwrap();
        assert_eq!(seen.phase, CyclePhase::Arming, "told before the epoch ends");
        w.assert_resumed_idle();
        // Thread 1 still owes the abandoned epoch an ack; the next arm
        // supersedes it and the cycle completes.
        assert!(w.cycle.owes_poll(1));
        w.drive_to(CyclePhase::Marking);
        assert!(w.cycle.snapshot.is_some());
    }

    #[test]
    fn retired_threads_ack_on_arm_and_count_as_parked() {
        let (mut w, ..) = Rec::new();
        poll(&mut w, 1, true);
        assert!(w.cycle.halted(1) && !w.cycle.all_retired());
        w.drive_to(CyclePhase::Arming);
        assert!(w.cycle.acked(1) && !w.cycle.acked(0));
        w.drive_to(CyclePhase::Rendezvous);
        assert!(!w.cycle.all_halted());
        // A stop request wins over retirement: the thread parks, and
        // retires at a later poll.
        poll(&mut w, 0, true);
        assert!(w.cycle.all_halted() && !w.cycle.threads[0].retired);
        w.step(false, false);
        w.assert_resumed_idle();
        assert!(
            w.cycle.halted(1) && !w.cycle.halted(0),
            "retirement survives"
        );
    }

    #[test]
    fn barrier_logs_only_under_the_threads_own_view_of_marking() {
        let (mut w, a, _) = Rec::new();
        barrier_log(&mut w, 0, a);
        w.drive_to(CyclePhase::Arming);
        poll(&mut w, 0, false);
        barrier_log(&mut w, 0, a);
        assert!(!w.events().contains(&"Logged"), "no snapshot yet");
        poll(&mut w, 1, false);
        w.step(false, false);
        barrier_log(&mut w, 0, a);
        assert_eq!(w.events().last(), Some(&"Logged"));
        assert_eq!(w.cycle.threads[0].satb, [a]);
        poll(&mut w, 0, false);
        assert_eq!(w.events().last(), Some(&"Flushed(0, 1)"));
        assert_eq!(w.cycle.since_poll(0), 0);
    }

    #[test]
    fn epoch_protocol_gates_elision_until_ack() {
        let (mut w, ..) = Rec::new();
        assert!(w.cycle.elide_allowed(0) && w.cycle.elide_allowed(1));
        w.drive_to(CyclePhase::Arming);
        assert!(!w.cycle.elide_allowed(0), "unacked thread may not elide");
        assert_eq!(w.cycle.gated_elisions(), 1);
        poll(&mut w, 0, false);
        assert!(w.cycle.elide_allowed(0));
        assert!(!w.cycle.local_marking(0), "snapshot not yet taken");
        poll(&mut w, 1, false);
        w.step(false, false);
        assert_eq!(w.events().last(), Some(&"Snapshot(1)"));
        assert!(w.cycle.local_marking(0) && w.cycle.local_marking(1));
        assert_eq!(w.cycle.gated_elisions(), 1);
    }

    /// A store after the arm but before the thread's ack needs no log:
    /// the snapshot's root scan sees the post-store heap, so the
    /// overwritten value is not part of the snapshot's obligation.
    #[test]
    fn pre_snapshot_store_is_sound_without_logging() {
        let (mut w, a, b) = Rec::new();
        w.drive_to(CyclePhase::Arming);
        // Thread 0, unacked: `a.f0 = null` over `b`, through the barrier.
        barrier_log(&mut w, 0, b);
        w.heap.set_field(a, 0, Value::NULL).unwrap();
        w.drive_to(CyclePhase::Rendezvous);
        poll(&mut w, 0, false);
        poll(&mut w, 1, false);
        w.step(false, false);
        w.assert_resumed_idle();
        assert!(!w.heap.store.is_live(b), "b died before the snapshot");
        assert!(!w.events().contains(&"Logged"), "nothing was logged");
        assert!(!w.events().iter().any(|e| e.starts_with("Violation")));
    }

    /// Every per-thread view is read off the phase and the thread's ack.
    #[test]
    fn thread_views_derive_from_the_phase_and_the_ack() {
        use CyclePhase::{Arming, Idle, Marking, Rendezvous};
        // (phase, acked) → (local_marking, elide_allowed, owes_poll)
        let table = [
            (Idle { countdown: GAP }, true, (false, true, false)),
            (Idle { countdown: GAP }, false, (false, true, true)),
            (Arming, true, (false, true, false)),
            (Arming, false, (false, false, true)),
            (Marking, true, (true, true, false)),
            (Marking, false, (false, false, true)),
            (Rendezvous, true, (true, true, true)),
            (Rendezvous, false, (false, false, true)),
        ];
        for (phase, acked, want) in table {
            let mut d = CycleDriver::new(1, GAP);
            (d.phase, d.epoch) = (phase, 1);
            d.threads[0].acked = u64::from(acked);
            let got = (d.local_marking(0), d.elide_allowed(0), d.owes_poll(0));
            assert_eq!(got, want, "{phase:?}, acked {acked}");
            assert_eq!(d.gated_elisions, u64::from(!want.1), "{phase:?}");
        }
    }

    /// The host's policy after a cleared mark at the post-remark event:
    /// what the tail does next, and whether `sweep` ran — of the four
    /// objects, a sweep frees the garbage one and, over the corrupt mark
    /// state, `a` too.
    #[test]
    fn post_mark_policy_decides_what_a_failed_check_does() {
        use PostMarkPolicy::{Recover, Skip, SweepAndReport};
        const HEAD: [(&str, usize); 3] = [
            ("Snapshot(1)", 4),
            ("Remarking", 4),
            ("Remarked { recovery: false }", 4),
        ];
        const HEAL: [(&str, usize); 2] = [("Snapshot(1)", 4), ("Remarked { recovery: true }", 4)];
        // (policy, controller budget, remarks corrupted) → the events
        // after HEAD, each with the live count as it arrived
        let rows = [
            (
                SweepAndReport,
                None,
                1,
                vec![
                    ("Violation(Invariant", 4),
                    ("Violation(Invariant", 2),
                    ("Ended", 2),
                ],
            ),
            (Skip, None, 1, vec![("Ended", 2)]),
            (Recover, Some(3), 0, vec![("Ended", 3)]),
            // Never sweeps a failed post-mark: the heal comes first, and
            // the sweep after it frees the garbage alone.
            (Recover, Some(3), 1, [&HEAL[..], &[("Ended", 3)]].concat()),
            (
                Recover,
                Some(2),
                3,
                [&HEAL[..], &HEAL, &[("Stopped(post-mark)", 4)]].concat(),
            ),
            (Recover, None, 1, vec![("Stopped(post-mark)", 4)]),
        ];
        for (policy, budget, corrupt, tail) in rows {
            let (mut w, ..) = Rec::new();
            w.policy = policy;
            w.corrupt = corrupt;
            w.cycle.recovery =
                budget.map(|max_attempts| RecoveryController::new(RecoveryPolicy { max_attempts }));
            force_stw(&mut w);
            let got: Vec<(&str, usize)> = w
                .log
                .iter()
                .map(|(name, seen)| (name.split(", \"").next().unwrap(), seen.live))
                .collect();
            let row = format!("{policy:?}, budget {budget:?}, {corrupt} corrupted");
            assert_eq!(got, [&HEAD[..], &tail].concat(), "{row}");
            w.assert_resumed_idle();
            if let Some(rc) = &w.cycle.recovery {
                let heals = tail.iter().filter(|(e, _)| *e == "Snapshot(1)").count() as u64;
                assert_eq!(rc.stats.attempted, heals, "{row}");
                assert_eq!(
                    rc.stats.failed,
                    heals.min(u64::from(corrupt.saturating_sub(1))),
                    "{row}"
                );
            }
        }
    }
}
