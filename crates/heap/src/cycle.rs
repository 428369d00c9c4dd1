//! The marking-cycle driver of the cooperative worlds.
//!
//! The paper's elision is sound only under the SATB contract of its
//! §2: the snapshot is taken after every mutator has synchronised,
//! pre-values are logged while marking, every log is flushed before the
//! final remark, and the sweep frees only what the snapshot did not
//! reach. [`crate::sched`] and [`crate::overload`] run that contract
//! over logical threads, and this module is the one place it is written
//! down: [`CycleDriver`] owns the state; [`barrier_log`], [`poll`],
//! [`step`] and [`force_stw`] are the protocol. A world implements
//! [`CycleHost`] for what is its own and decides *when* ([`MarkerCtl`]).
//! DESIGN §9.1 has the phase table and why `Interp`'s pause is not a
//! client.

use std::fmt;

use crate::gc::PauseReport;
use crate::heap::Heap;
use crate::safepoint::{EpochPhase, EpochState, SatbBuffer};
use crate::value::GcRef;
use crate::verify::{self, ReachSet};

/// Where the marker is in the cycle. Only this module writes it, and
/// it moves the [`EpochState`] in the same breath, so the two cannot
/// disagree: `Idle` ⇔ [`EpochPhase::Idle`], `Arming` ⇔ `Armed`,
/// `Marking` and `Rendezvous` ⇔ `Marking`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CyclePhase {
    /// Between cycles; arms a new epoch when the countdown expires.
    Idle { countdown: u32 },
    /// Epoch armed; waiting for every mutator to acknowledge before
    /// taking the snapshot.
    Arming,
    /// Snapshot taken; performing budgeted concurrent mark slices.
    Marking,
    /// Stop requested; waiting for every mutator to park, then the
    /// stop-the-world tail runs as one atomic step.
    Rendezvous,
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
pub(crate) struct MarkerCtl {
    pub arm_now: bool,
    pub give_up_arm: bool,
    pub budget: usize,
}

/// What the protocol tells its world, as it happens. The worlds count
/// and trace from these; the driver keeps no counters of its own.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum CycleEvent {
    /// A barrier logged a pre-value into its thread's buffer.
    Logged,
    /// A flush moved thread `.0`'s `.1` entries to the collector.
    Flushed(usize, usize),
    /// Thread `.0` acknowledged a pending epoch at a poll.
    Acked(usize),
    Parked,
    Armed,
    /// The arm is about to be given up: its epoch ends with no snapshot.
    Abandoned,
    /// The snapshot was taken over this many roots; marking began.
    Snapshot(usize),
    /// The marker waited (for acknowledgements or for parks).
    Waited,
    /// A mark slice's work; `None` if the fault plan skipped it.
    Marked(Option<usize>),
    Violation(ViolationKind, String),
    /// The tail closed the cycle, sweeping `.1` objects; the world is
    /// still stopped.
    Ended(PauseReport, usize),
}

/// What a logical thread owns of the protocol.
#[derive(Debug, Default)]
struct ThreadSync {
    satb: SatbBuffer,
    /// Ops executed since the last safepoint poll.
    since_poll: u32,
    parked: bool,
    /// Retired threads poll no more: they acknowledge an arm implicitly
    /// (their last safepoint already flushed) and count as parked.
    retired: bool,
}

/// The protocol state of one cooperative world.
#[derive(Debug)]
pub(crate) struct CycleDriver {
    epoch: EpochState,
    phase: CyclePhase,
    /// Marker steps between the end of one cycle and arming the next.
    cycle_gap: u32,
    stop_requested: bool,
    /// Snapshot-reachable set recorded when the current cycle's marking
    /// began, audited at its sweep.
    snapshot: Option<ReachSet>,
    threads: Vec<ThreadSync>,
}

impl CycleDriver {
    pub fn new(threads: usize, cycle_gap: u32) -> Self {
        CycleDriver {
            epoch: EpochState::new(threads),
            phase: CyclePhase::Idle {
                countdown: cycle_gap,
            },
            cycle_gap,
            stop_requested: false,
            snapshot: None,
            threads: (0..threads).map(|_| ThreadSync::default()).collect(),
        }
    }

    pub fn phase(&self) -> CyclePhase {
        self.phase
    }

    /// The epoch, read-only: only the protocol advances it.
    pub fn epoch(&self) -> &EpochState {
        &self.epoch
    }

    /// Is `tid` parked or retired — not to be scheduled?
    pub fn halted(&self, tid: usize) -> bool {
        self.threads[tid].parked || self.threads[tid].retired
    }

    pub fn all_halted(&self) -> bool {
        (0..self.threads.len()).all(|tid| self.halted(tid))
    }

    pub fn all_retired(&self) -> bool {
        self.threads.iter().all(|t| t.retired)
    }

    /// Does `tid` owe the protocol a poll — an epoch to acknowledge or
    /// a stop request to honour?
    pub fn owes_poll(&self, tid: usize) -> bool {
        !self.epoch.acked(tid) || self.stop_requested
    }

    pub fn since_poll(&self, tid: usize) -> u32 {
        self.threads[tid].since_poll
    }

    /// Thread `tid` executed one workload op since its last poll.
    pub fn count_op(&mut self, tid: usize) {
        self.threads[tid].since_poll += 1;
    }

    /// [`EpochState::elide_allowed`], which counts a gated attempt.
    pub fn elide_allowed(&mut self, tid: usize) -> bool {
        self.epoch.elide_allowed(tid)
    }

    /// Back to idle, the countdown to the next arm restarted.
    fn go_idle(&mut self) {
        self.phase = CyclePhase::Idle {
            countdown: self.cycle_gap,
        };
    }
}

/// What a cooperative world supplies to the protocol. Statically
/// dispatched; the world owns the driver and the heap and lends both.
pub(crate) trait CycleHost {
    fn parts(&mut self) -> (&mut CycleDriver, &mut Heap);
    fn roots(&self) -> Vec<GcRef>;
    /// A span to hold open across the stop-the-world tail.
    fn stw_span(&self) -> wbe_telemetry::SpanGuard {
        wbe_telemetry::span::noop()
    }
    fn on(&mut self, event: CycleEvent);
}

fn report<H: CycleHost>(host: &mut H, kind: ViolationKind, detail: String) {
    host.on(CycleEvent::Violation(kind, detail));
}

/// SATB deletion barrier for `old`, routed through thread `tid`'s
/// buffer; a no-op when the thread's local view of marking is idle.
pub(crate) fn barrier_log<H: CycleHost>(host: &mut H, tid: usize, old: GcRef) {
    let cycle = host.parts().0;
    if cycle.epoch.local_marking(tid) {
        cycle.threads[tid].satb.log(old);
        host.on(CycleEvent::Logged);
    }
}

fn flush<H: CycleHost>(host: &mut H, tid: usize) {
    let (cycle, heap) = host.parts();
    if cycle.threads[tid].satb.depth() > 0 {
        let depth = cycle.threads[tid].satb.flush_into(&mut heap.gc);
        host.on(CycleEvent::Flushed(tid, depth));
    }
}

/// Safepoint poll of thread `tid`: flush the local buffer, acknowledge
/// any pending epoch, honour a stop request — or, on a thread's last
/// poll (`retiring`), retire. Entries logged before the ack are
/// pre-snapshot; the flush drops them (collector idle), which is sound.
pub(crate) fn poll<H: CycleHost>(host: &mut H, tid: usize, retiring: bool) {
    flush(host, tid);
    let cycle = host.parts().0;
    cycle.threads[tid].since_poll = 0;
    if !cycle.epoch.acked(tid) {
        cycle.epoch.ack(tid);
        host.on(CycleEvent::Acked(tid));
    }
    let cycle = host.parts().0;
    if cycle.stop_requested {
        cycle.threads[tid].parked = true;
        host.on(CycleEvent::Parked);
    } else if retiring {
        cycle.threads[tid].retired = true;
    }
}

/// One step of the marker.
pub(crate) fn step<H: CycleHost>(host: &mut H, ctl: MarkerCtl) {
    let (cycle, heap) = host.parts();
    let phase = cycle.phase;
    match phase {
        CyclePhase::Idle { countdown } if countdown > 0 && !ctl.arm_now => {
            cycle.phase = CyclePhase::Idle {
                countdown: countdown - 1,
            };
        }
        CyclePhase::Idle { .. } => {
            cycle.epoch.arm();
            cycle.phase = CyclePhase::Arming;
            for (tid, thread) in cycle.threads.iter().enumerate() {
                if thread.retired {
                    cycle.epoch.ack(tid);
                }
            }
            host.on(CycleEvent::Armed);
        }
        CyclePhase::Arming if cycle.epoch.all_acked() => {
            // Initial-mark pause: with every thread synchronised, take
            // the snapshot and shade the roots.
            let roots = host.roots();
            let (cycle, heap) = host.parts();
            if let Err(e) = heap.gc.try_begin_marking(&mut heap.store, &roots) {
                cycle.epoch.end_cycle();
                cycle.go_idle();
                return report(host, ViolationKind::Protocol, e.to_string());
            }
            cycle.snapshot = Some(verify::reachable_set(heap, &roots));
            let taken = cycle.epoch.snapshot_taken();
            cycle.phase = CyclePhase::Marking;
            if let Err(e) = taken {
                // Unreachable (the all_acked guard above) but the
                // protocol error is reportable, not a panic.
                report(host, ViolationKind::Protocol, e.to_string());
            }
            host.on(CycleEvent::Snapshot(roots.len()));
        }
        CyclePhase::Arming if ctl.give_up_arm => {
            host.on(CycleEvent::Abandoned);
            let cycle = host.parts().0;
            cycle.epoch.end_cycle();
            cycle.go_idle();
        }
        CyclePhase::Marking => {
            let did = heap.mark_slice(ctl.budget);
            if did == Some(0) {
                cycle.stop_requested = true;
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
pub(crate) fn force_stw<H: CycleHost>(host: &mut H) {
    if !host.parts().1.gc.is_marking() {
        let roots = host.roots();
        let heap = host.parts().1;
        if heap.gc.try_begin_marking(&mut heap.store, &roots).is_err() {
            // Cannot happen (not marking ⇒ a cycle can start), but the
            // no-panic policy wants a reportable path.
            let detail = "emergency cycle failed to open".to_string();
            return report(host, ViolationKind::Protocol, detail);
        }
    }
    tail(host);
}

/// The stop-the-world tail of a cycle, in the one order the contract
/// allows: final flushes, remark, post-mark invariants, sweep, the
/// snapshot-survives audit, post-sweep invariants, end of the epoch (if
/// one is open — a collection forced from idle has none), resume, idle.
fn tail<H: CycleHost>(host: &mut H) {
    let _span = host.stw_span();
    for tid in 0..host.parts().0.threads.len() {
        flush(host, tid);
    }
    let roots = host.roots();
    let heap = host.parts().1;
    let pause = heap.gc.remark(&mut heap.store, &roots);
    let post_mark = verify::post_mark(host.parts().1, &roots);
    for v in post_mark.violations() {
        report(host, ViolationKind::Invariant, v.to_string());
    }
    let (cycle, heap) = host.parts();
    let swept = heap.sweep();
    // SATB promises that every object in the snapshot survives this
    // cycle's sweep.
    if let Some(snapshot) = cycle.snapshot.take() {
        for obj in snapshot.iter() {
            if !host.parts().1.store.is_live(obj) {
                let detail = format!("snapshot-reachable {obj} freed by sweep");
                report(host, ViolationKind::LostObject, detail);
            }
        }
    }
    for v in verify::post_sweep(host.parts().1, &post_mark) {
        report(host, ViolationKind::Invariant, v.to_string());
    }
    let cycle = host.parts().0;
    if cycle.epoch.phase() != EpochPhase::Idle {
        cycle.epoch.end_cycle();
    }
    host.on(CycleEvent::Ended(pause, swept));
    let cycle = host.parts().0;
    cycle.stop_requested = false;
    for t in &mut cycle.threads {
        t.parked = false;
    }
    cycle.go_idle();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gc::MarkStyle;
    use crate::value::{FieldShape, Value};

    const GAP: u32 = 3;

    /// What the recording host can see of the world as an event arrives.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct Seen {
        /// The collector is between `begin_marking` and `remark`.
        marking: bool,
        live: usize,
        snapshot_open: bool,
        epoch: EpochPhase,
        /// The stop request is up and every thread is parked.
        stopped: bool,
    }

    /// A two-thread world that does nothing but record.
    struct Rec {
        cycle: CycleDriver,
        heap: Heap,
        shared: GcRef,
        log: Vec<(String, Seen)>,
    }

    impl CycleHost for Rec {
        fn parts(&mut self) -> (&mut CycleDriver, &mut Heap) {
            (&mut self.cycle, &mut self.heap)
        }

        fn roots(&self) -> Vec<GcRef> {
            vec![self.shared]
        }

        fn on(&mut self, event: CycleEvent) {
            let name = match &event {
                CycleEvent::Ended(..) => "Ended".to_string(),
                other => format!("{other:?}"),
            };
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
            };
            (rec, a, b)
        }

        fn seen(&self) -> Seen {
            Seen {
                marking: self.heap.gc.is_marking(),
                live: self.heap.store.live_count(),
                snapshot_open: self.cycle.snapshot.is_some(),
                epoch: self.cycle.epoch.phase(),
                stopped: self.cycle.stop_requested && self.cycle.all_halted(),
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
            assert_eq!(self.cycle.epoch.phase(), EpochPhase::Idle);
            assert!(!self.cycle.stop_requested);
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

        let at = |marking, live, snapshot_open, epoch| Seen {
            marking,
            live,
            snapshot_open,
            epoch,
            stopped: true,
        };
        let marking = EpochPhase::Marking;
        let expected = [
            // 1. final flushes, before the remark ends marking
            ("Flushed(0, 1)".to_string(), at(true, 4, true, marking)),
            // 2. remark, 3. post-mark invariants — nothing swept yet
            (
                format!("Violation(Invariant, \"reachable object {a} unmarked after remark (lost SATB edge)\")"),
                at(false, 4, true, marking),
            ),
            // 4. sweep (`a` and the garbage object), 5. snapshot audit
            (
                format!("Violation(LostObject, \"snapshot-reachable {a} freed by sweep\")"),
                at(false, 2, false, marking),
            ),
            // 6. post-sweep invariants
            (
                format!("Violation(Invariant, \"live object {} references freed slot {a}\")", w.shared),
                at(false, 2, false, marking),
            ),
            // 7. end of the epoch, with the world still stopped
            ("Ended".to_string(), at(false, 2, false, EpochPhase::Idle)),
        ];
        assert_eq!(w.log, expected);
        // 8. resume, 9. idle
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

    /// `EpochState::end_cycle` asserts (in debug builds, which is how
    /// tier-1 runs) that an epoch is open, so a forced collection from
    /// idle that reached it would panic here.
    #[test]
    fn emergency_from_idle_leaves_the_epoch_alone() {
        let (mut w, ..) = Rec::new();
        force_stw(&mut w);
        let (_, seen) = w.log.last().expect("the cycle ended");
        assert_eq!(seen.epoch, EpochPhase::Idle);
        assert_eq!(w.cycle.epoch.epoch(), 0, "no epoch was ever armed");
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
        assert_eq!(seen.epoch, EpochPhase::Armed, "told before the epoch ends");
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
        assert!(w.cycle.epoch.acked(1) && !w.cycle.epoch.acked(0));
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
        assert_eq!(w.cycle.threads[0].satb.depth(), 1);
        poll(&mut w, 0, false);
        assert_eq!(w.events().last(), Some(&"Flushed(0, 1)"));
        assert_eq!(w.cycle.since_poll(0), 0);
    }
}
