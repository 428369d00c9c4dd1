//! SATB safepoint protocol primitives, owned by the marking-cycle
//! driver of the cooperative worlds (`cycle.rs`, which runs
//! [`crate::sched`] and [`crate::overload`]; DESIGN §9.1):
//!
//! * [`SatbBuffer`] — a per-thread SATB log buffer. The mutator's write
//!   barrier appends overwritten non-null references here instead of
//!   touching shared collector state; the buffer is drained into the
//!   collector at **safepoints** (and, finally, at the stop-the-world
//!   remark rendezvous). Thread-local buffering is what lets many
//!   mutators run barriers without a lock on the marker's queue, and the
//!   flush-at-safepoint rule is what keeps the snapshot invariant: every
//!   logged pre-value reaches the collector before the cycle's remark.
//! * [`EpochState`] — the marking-phase epoch. Starting a cycle *arms*
//!   a new epoch; each mutator acknowledges it at a safepoint. The
//!   snapshot (`begin_marking`) is taken only once **all** mutators have
//!   acknowledged, so any store executed after the snapshot point is
//!   executed by a thread that already knows marking is on and therefore
//!   logs its pre-values. A thread that has not yet acknowledged the
//!   current epoch must not run *elided* code either
//!   ([`EpochState::elide_allowed`]): until the thread has synchronized
//!   with the cycle, it takes the conservative full-barrier path.
//!
//! The types here are plain (no atomics): the driver's logical threads
//! are scheduled one step at a time, so nothing here is shared.

use std::fmt;

use crate::gc::GcState;
use crate::value::GcRef;

/// Error: a snapshot was attempted before every mutator had
/// acknowledged the armed epoch. Taking the snapshot anyway would let
/// an unsynchronized thread run elided (barrier-free) stores against a
/// snapshot it does not know exists — the exact unsoundness the epoch
/// protocol prevents. Release builds surface this as an error instead
/// of silently proceeding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotBeforeAck {
    /// The epoch the snapshot was attempted for.
    pub epoch: u64,
    /// Threads that had acknowledged it.
    pub acked: usize,
    /// Threads the epoch waits on in total.
    pub threads: usize,
}

impl fmt::Display for SnapshotBeforeAck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "snapshot before full acknowledgement: epoch {} acked by {}/{} threads",
            self.epoch, self.acked, self.threads
        )
    }
}

impl std::error::Error for SnapshotBeforeAck {}

/// A per-thread SATB log buffer.
#[derive(Clone, Debug, Default)]
pub struct SatbBuffer {
    entries: Vec<GcRef>,
}

impl SatbBuffer {
    /// Barrier payload: log an overwritten non-null reference.
    pub fn log(&mut self, old: GcRef) {
        self.entries.push(old);
    }

    /// Current (unflushed) depth.
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// Drains the buffer into the collector's shared SATB queue.
    /// Returns the depth at flush time (what the telemetry histogram
    /// records).
    pub fn flush_into(&mut self, gc: &mut GcState) -> usize {
        let depth = self.entries.len();
        gc.satb_flush(self.entries.drain(..));
        depth
    }
}

/// Phase of the marking-epoch protocol, as seen by the safepoint layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EpochPhase {
    /// No cycle requested; barriers may be skipped, elision always
    /// allowed.
    #[default]
    Idle,
    /// A cycle was requested; mutators acknowledge at safepoints. The
    /// snapshot has not been taken yet.
    Armed,
    /// All mutators acknowledged and the snapshot was taken
    /// (`begin_marking` ran); acknowledged threads log pre-values.
    Marking,
}

/// Marking-phase epoch bookkeeping for a fixed set of mutator threads.
#[derive(Clone, Debug)]
pub struct EpochState {
    epoch: u64,
    phase: EpochPhase,
    acks: Vec<u64>,
    /// Elision attempts gated because the thread had not yet
    /// acknowledged the armed epoch.
    pub gated_elisions: u64,
}

impl EpochState {
    /// Creates epoch state for `threads` mutators, all caught up with
    /// epoch 0 (idle).
    pub fn new(threads: usize) -> Self {
        EpochState {
            epoch: 0,
            phase: EpochPhase::Idle,
            acks: vec![0; threads],
            gated_elisions: 0,
        }
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The current protocol phase.
    pub fn phase(&self) -> EpochPhase {
        self.phase
    }

    /// Arms a new epoch: a marking cycle was requested. No mutator has
    /// acknowledged it yet.
    pub fn arm(&mut self) {
        self.epoch += 1;
        self.phase = EpochPhase::Armed;
    }

    /// Records that the snapshot was taken (all mutators had
    /// acknowledged; `begin_marking` ran).
    ///
    /// # Errors
    ///
    /// [`SnapshotBeforeAck`] if some mutator has not acknowledged the
    /// current epoch — a protocol violation the caller must surface
    /// (the phase is left unchanged, so no thread observes a snapshot
    /// it never synchronized with).
    pub fn snapshot_taken(&mut self) -> Result<(), SnapshotBeforeAck> {
        if !self.all_acked() {
            return Err(SnapshotBeforeAck {
                epoch: self.epoch,
                acked: self.acks.iter().filter(|&&a| a == self.epoch).count(),
                threads: self.acks.len(),
            });
        }
        self.phase = EpochPhase::Marking;
        Ok(())
    }

    /// Ends the cycle: the remark + sweep completed and the world
    /// resumed (or the arm was abandoned). Only an open epoch can end;
    /// debug builds assert it.
    pub fn end_cycle(&mut self) {
        debug_assert_ne!(self.phase, EpochPhase::Idle, "no epoch is open");
        self.phase = EpochPhase::Idle;
    }

    /// Thread `tid` acknowledges the current epoch (at a safepoint).
    pub fn ack(&mut self, tid: usize) {
        self.acks[tid] = self.epoch;
    }

    /// Has `tid` acknowledged the current epoch?
    pub fn acked(&self, tid: usize) -> bool {
        self.acks[tid] == self.epoch
    }

    /// Have all threads acknowledged the current epoch?
    pub fn all_acked(&self) -> bool {
        self.acks.iter().all(|&a| a == self.epoch)
    }

    /// The thread's *local* view of "is marking in progress": true only
    /// once the thread has acknowledged an epoch whose snapshot exists.
    /// Stores by a thread whose local view is idle need not log — they
    /// happen (logically) before the snapshot point, whose root scan
    /// sees their effect.
    pub fn local_marking(&self, tid: usize) -> bool {
        self.phase == EpochPhase::Marking && self.acked(tid)
    }

    /// May `tid` run statically-elided (barrier-free) code right now?
    /// Allowed when no epoch is pending, or once the thread has
    /// acknowledged the current one. Records a gating event otherwise.
    pub fn elide_allowed(&mut self, tid: usize) -> bool {
        if self.phase == EpochPhase::Idle || self.acked(tid) {
            true
        } else {
            self.gated_elisions += 1;
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gc::MarkStyle;
    use crate::heap::Heap;
    use crate::value::{FieldShape, Value};

    #[test]
    fn buffer_logs_flushes_and_tracks_depth() {
        let mut h = Heap::new(MarkStyle::Satb);
        let a = h.alloc_object(0, &[FieldShape::Ref]).unwrap();
        let b = h.alloc_object(0, &[FieldShape::Ref]).unwrap();
        h.gc.begin_marking(&mut h.store, &[a]);
        let mut buf = SatbBuffer::default();
        buf.log(a);
        buf.log(b);
        assert_eq!(buf.depth(), 2);
        assert_eq!(buf.flush_into(&mut h.gc), 2);
        assert_eq!(buf.depth(), 0);
        assert!(h.gc.has_pending_work());
    }

    #[test]
    fn idle_flush_drops_entries() {
        let mut h = Heap::new(MarkStyle::Satb);
        let a = h.alloc_object(0, &[]).unwrap();
        let mut buf = SatbBuffer::default();
        buf.log(a);
        assert_eq!(buf.flush_into(&mut h.gc), 1, "depth reported");
        assert!(!h.gc.has_pending_work(), "idle collector accepted nothing");
        assert_eq!(h.gc.stats.satb_logs, 0);
    }

    #[test]
    fn epoch_protocol_gates_elision_until_ack() {
        let mut e = EpochState::new(2);
        assert!(e.elide_allowed(0) && e.elide_allowed(1));
        e.arm();
        assert_eq!(e.phase(), EpochPhase::Armed);
        assert!(!e.elide_allowed(0), "unacked thread may not elide");
        assert!(!e.local_marking(0));
        e.ack(0);
        assert!(e.elide_allowed(0));
        assert!(!e.all_acked());
        assert!(!e.local_marking(0), "snapshot not yet taken");
        e.ack(1);
        assert!(e.all_acked());
        e.snapshot_taken().unwrap();
        assert!(e.local_marking(0) && e.local_marking(1));
        e.end_cycle();
        assert!(!e.local_marking(0));
        assert!(e.elide_allowed(0));
        assert_eq!(e.gated_elisions, 1);
    }

    #[test]
    fn premature_snapshot_is_a_real_error() {
        let mut e = EpochState::new(3);
        e.arm();
        e.ack(0);
        let err = e.snapshot_taken().unwrap_err();
        assert_eq!(
            err,
            SnapshotBeforeAck {
                epoch: 1,
                acked: 1,
                threads: 3
            }
        );
        assert!(err.to_string().contains("1/3"));
        assert_eq!(e.phase(), EpochPhase::Armed, "phase unchanged on rejection");
        e.ack(1);
        e.ack(2);
        e.snapshot_taken().unwrap();
        assert_eq!(e.phase(), EpochPhase::Marking);
    }

    #[test]
    fn pre_snapshot_store_is_sound_without_logging() {
        // A store executed after arm but before the snapshot needs no
        // log: the snapshot's root scan sees the post-store heap, so the
        // overwritten value is not part of the snapshot obligation.
        let mut h = Heap::new(MarkStyle::Satb);
        let a = h.alloc_object(0, &[FieldShape::Ref]).unwrap();
        let b = h.alloc_object(0, &[FieldShape::Ref]).unwrap();
        h.set_field(a, 0, Value::from(b)).unwrap();
        let mut e = EpochState::new(1);
        e.arm();
        // Mutator (unacked, local view idle): a.f0 = null, no log.
        assert!(!e.local_marking(0));
        h.set_field(a, 0, Value::NULL).unwrap();
        e.ack(0);
        h.gc.begin_marking(&mut h.store, &[a]);
        e.snapshot_taken().unwrap();
        h.gc.remark(&mut h.store, &[a]);
        e.end_cycle();
        assert!(!h.gc.is_marked(b), "b died before the snapshot");
        assert_eq!(h.sweep(), 1);
    }
}
