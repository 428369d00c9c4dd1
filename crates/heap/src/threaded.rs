//! Real-thread concurrent marking with the SATB safepoint protocol.
//!
//! The stepped mode in [`crate::gc`] is deterministic and is what the
//! tests and experiments use; the exhaustive interleaving exploration
//! lives in [`crate::sched`] / [`crate::mcheck`]. This module provides
//! the "actually concurrent" flavor for demos, speaking the same
//! protocol as the deterministic scheduler:
//!
//! * each mutator thread owns a [`MutatorHandle`] with a **per-thread
//!   SATB buffer** ([`SatbBuffer`]): barriers append locally and the
//!   buffer drains into the collector only at **safepoint polls**
//!   ([`MutatorHandle::safepoint`]);
//! * a cycle start **arms an epoch**; the snapshot (`begin_marking`) is
//!   taken only after every registered mutator has acknowledged the
//!   epoch at a safepoint, and an un-acknowledged thread must not run
//!   statically-elided code ([`MutatorHandle::elide_allowed`]);
//! * [`ConcurrentCycle::finish`] runs a **stop-the-world rendezvous**:
//!   mutators flush and park at their next poll, and the remark + sweep
//!   execute with the world stopped.
//!
//! Heap accesses still share one [`Mutex`] — the goal is protocol
//! fidelity, not scalability — and that mutex also carries the ordering
//! for the snapshot point: `begin_marking` runs under the heap lock and
//! mutator stores need the same lock, so a store serialized after the
//! snapshot sees `gc.is_marking()` and logs. The phase/epoch atomics
//! only signal *between* heap critical sections (ack requests, park
//! requests); they never substitute for that lock. The `parking_lot`
//! shim used in sandboxed builds has no `Condvar`, so waits are
//! spin-then-yield loops.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::gc::{CycleInProgress, PauseReport};
use crate::heap::Heap;
use crate::safepoint::SatbBuffer;
use crate::value::GcRef;

/// Default deadline for every protocol wait (snapshot handshake,
/// rendezvous park, resume). Far beyond any healthy handshake; a wait
/// that exceeds it means a thread stopped polling and the protocol
/// surfaces [`StwError::Timeout`] instead of hanging.
const DEFAULT_WAIT_TIMEOUT_MS: u64 = 5_000;

/// Why a bounded protocol wait gave up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StwError {
    /// A wait exceeded the coordinator's deadline: some thread never
    /// reached the expected safepoint state.
    Timeout {
        /// What the wait was for (`"acks"`, `"snapshot"`, `"parks"`, `"resume"`).
        waiting_for: &'static str,
        /// Backoff iterations spent before giving up.
        spins: u64,
    },
    /// The marker thread panicked; its concurrent work is lost and the
    /// cycle cannot be finished.
    MarkerPanicked,
}

impl fmt::Display for StwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StwError::Timeout { waiting_for, spins } => {
                write!(
                    f,
                    "safepoint wait for {waiting_for} timed out after {spins} spins"
                )
            }
            StwError::MarkerPanicked => f.write_str("marker thread panicked"),
        }
    }
}

impl std::error::Error for StwError {}

/// Bounded spin-wait: a short hot spin, then yields, then exponentially
/// backed-off sleeps (capped at ~1 ms), until a wall-clock deadline.
/// The `parking_lot` shim used in sandboxed builds has no `Condvar`, so
/// this ladder is the waiting primitive for the whole module.
struct Backoff {
    spins: u64,
    deadline: Instant,
}

impl Backoff {
    fn new(timeout: Duration) -> Backoff {
        Backoff {
            spins: 0,
            deadline: Instant::now() + timeout,
        }
    }

    /// One wait step. Returns `false` once the deadline has passed.
    fn wait(&mut self) -> bool {
        if Instant::now() >= self.deadline {
            return false;
        }
        self.spins += 1;
        if self.spins < 64 {
            std::hint::spin_loop();
        } else if self.spins < 256 {
            thread::yield_now();
        } else {
            let exp = (self.spins - 256).min(10) as u32;
            thread::sleep(Duration::from_micros(1 << exp));
        }
        true
    }
}

/// Protocol phases, mirrored from [`crate::safepoint::EpochPhase`] with
/// the extra stop-the-world state real threads need.
const PHASE_IDLE: u8 = 0;
const PHASE_ARMED: u8 = 1;
const PHASE_MARKING: u8 = 2;
const PHASE_STOPPING: u8 = 3;

/// Monotonic counters kept by the safepoint coordinator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SafepointCounters {
    /// Epoch acknowledgements recorded at safepoints.
    pub acks: u64,
    /// Park events at stop-the-world rendezvous.
    pub parks: u64,
    /// Buffer flushes into the collector.
    pub flushes: u64,
    /// Total SATB entries flushed.
    pub flushed_entries: u64,
    /// Elision attempts gated because the thread had not acknowledged
    /// the armed epoch.
    pub gated_elisions: u64,
    /// Spin iterations the marker spent waiting for acknowledgements.
    pub handshake_spins: u64,
    /// Bounded waits that hit their deadline (handshake, park, or
    /// resume) — each one a hang that previous versions spun on
    /// forever.
    pub watchdog_timeouts: u64,
}

/// Shared safepoint coordination for a fixed set of real mutator
/// threads. Create one per [`Heap`] and hand each thread a
/// [`MutatorHandle`] via [`SafepointCtl::register`].
pub struct SafepointCtl {
    phase: AtomicU8,
    epoch: AtomicU64,
    acks: Vec<AtomicU64>,
    parked: Vec<AtomicBool>,
    retired: Vec<AtomicBool>,
    registered: AtomicU64,
    c_acks: AtomicU64,
    c_parks: AtomicU64,
    c_flushes: AtomicU64,
    c_flushed_entries: AtomicU64,
    c_gated: AtomicU64,
    c_handshake_spins: AtomicU64,
    c_watchdog_timeouts: AtomicU64,
    /// Deadline for every bounded protocol wait, in milliseconds.
    /// Tests shrink it to exercise the timeout paths quickly.
    wait_timeout_ms: AtomicU64,
    published: Mutex<SafepointCounters>,
}

impl std::fmt::Debug for SafepointCtl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SafepointCtl")
            .field("phase", &self.phase.load(Ordering::SeqCst))
            .field("epoch", &self.epoch.load(Ordering::SeqCst))
            .field("threads", &self.acks.len())
            .finish()
    }
}

impl SafepointCtl {
    /// Coordination state for `threads` mutator threads (may be zero:
    /// a marker with no registered mutators needs no handshake).
    pub fn new(threads: usize) -> Arc<SafepointCtl> {
        Arc::new(SafepointCtl {
            phase: AtomicU8::new(PHASE_IDLE),
            epoch: AtomicU64::new(0),
            acks: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            parked: (0..threads).map(|_| AtomicBool::new(false)).collect(),
            retired: (0..threads).map(|_| AtomicBool::new(false)).collect(),
            registered: AtomicU64::new(0),
            c_acks: AtomicU64::new(0),
            c_parks: AtomicU64::new(0),
            c_flushes: AtomicU64::new(0),
            c_flushed_entries: AtomicU64::new(0),
            c_gated: AtomicU64::new(0),
            c_handshake_spins: AtomicU64::new(0),
            c_watchdog_timeouts: AtomicU64::new(0),
            wait_timeout_ms: AtomicU64::new(DEFAULT_WAIT_TIMEOUT_MS),
            published: Mutex::new(SafepointCounters::default()),
        })
    }

    /// Overrides the deadline for every bounded protocol wait. The
    /// default (5 s) is generous; tests and watchdog-sensitive callers
    /// may tighten it.
    pub fn set_wait_timeout(&self, timeout: Duration) {
        self.wait_timeout_ms
            .store(timeout.as_millis() as u64, Ordering::SeqCst);
    }

    fn wait_timeout(&self) -> Duration {
        Duration::from_millis(self.wait_timeout_ms.load(Ordering::SeqCst))
    }

    fn watchdog_timeout(&self, waiting_for: &'static str, spins: u64) -> StwError {
        self.c_watchdog_timeouts.fetch_add(1, Ordering::SeqCst);
        if wbe_telemetry::tracing_enabled() {
            wbe_telemetry::trace::event(
                "threaded.watchdog.timeout",
                format!("waiting for {waiting_for} ({spins} spins)"),
            );
        }
        StwError::Timeout { waiting_for, spins }
    }

    /// Claims the next mutator slot. Call once per mutator thread,
    /// before starting a cycle.
    ///
    /// # Panics
    ///
    /// Panics if more handles are claimed than `threads` at
    /// construction — a wiring bug, not a runtime condition.
    pub fn register(self: &Arc<SafepointCtl>) -> MutatorHandle {
        let tid = self.registered.fetch_add(1, Ordering::SeqCst) as usize;
        assert!(tid < self.acks.len(), "more handles than declared threads");
        MutatorHandle {
            ctl: Arc::clone(self),
            tid,
            buf: SatbBuffer::new(),
            depth_hist: wbe_telemetry::histogram("threaded.satb.buffer_depth"),
        }
    }

    /// Snapshot of the lifetime counters.
    pub fn counters(&self) -> SafepointCounters {
        SafepointCounters {
            acks: self.c_acks.load(Ordering::SeqCst),
            parks: self.c_parks.load(Ordering::SeqCst),
            flushes: self.c_flushes.load(Ordering::SeqCst),
            flushed_entries: self.c_flushed_entries.load(Ordering::SeqCst),
            gated_elisions: self.c_gated.load(Ordering::SeqCst),
            handshake_spins: self.c_handshake_spins.load(Ordering::SeqCst),
            watchdog_timeouts: self.c_watchdog_timeouts.load(Ordering::SeqCst),
        }
    }

    /// Publishes counter deltas (since the previous publish) into the
    /// global telemetry registry under `threaded.safepoint.*`.
    pub fn publish_metrics(&self) {
        let now = self.counters();
        let mut prev = self.published.lock();
        for (name, cur, old) in [
            ("threaded.safepoint.acks", now.acks, prev.acks),
            ("threaded.safepoint.parks", now.parks, prev.parks),
            ("threaded.satb.flushes", now.flushes, prev.flushes),
            (
                "threaded.satb.flushed_entries",
                now.flushed_entries,
                prev.flushed_entries,
            ),
            (
                "threaded.safepoint.gated_elisions",
                now.gated_elisions,
                prev.gated_elisions,
            ),
            (
                "threaded.safepoint.handshake_spins",
                now.handshake_spins,
                prev.handshake_spins,
            ),
            (
                "threaded.watchdog.timeouts",
                now.watchdog_timeouts,
                prev.watchdog_timeouts,
            ),
        ] {
            wbe_telemetry::counter(name).add(cur - old);
        }
        *prev = now;
    }

    fn all_acked(&self, epoch: u64) -> bool {
        self.acks
            .iter()
            .zip(&self.retired)
            .all(|(a, r)| r.load(Ordering::SeqCst) || a.load(Ordering::SeqCst) == epoch)
    }

    fn all_parked(&self) -> bool {
        self.parked
            .iter()
            .zip(&self.retired)
            .all(|(p, r)| r.load(Ordering::SeqCst) || p.load(Ordering::SeqCst))
    }
}

/// Per-thread mutator state: the thread id, its SATB buffer, and a
/// handle on the shared coordinator. Obtained from
/// [`SafepointCtl::register`]; moved into the mutator's thread.
pub struct MutatorHandle {
    ctl: Arc<SafepointCtl>,
    tid: usize,
    buf: SatbBuffer,
    depth_hist: wbe_telemetry::Histogram,
}

impl std::fmt::Debug for MutatorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MutatorHandle")
            .field("tid", &self.tid)
            .field("buffered", &self.buf.depth())
            .finish()
    }
}

impl MutatorHandle {
    /// This handle's mutator slot index.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Per-buffer statistics (logged / flushes / max depth).
    pub fn buffer_stats(&self) -> crate::safepoint::SatbBufferStats {
        self.buf.stats
    }

    fn acked_current(&self) -> bool {
        self.ctl.acks[self.tid].load(Ordering::SeqCst) == self.ctl.epoch.load(Ordering::SeqCst)
    }

    /// The thread's local view of "is marking in progress". Call while
    /// holding the heap lock — the lock is what orders this against the
    /// snapshot point (see module docs).
    pub fn local_marking(&self, heap: &Heap) -> bool {
        heap.gc.is_marking() && self.acked_current()
    }

    /// SATB write-barrier payload: logs `old` into the thread-local
    /// buffer when the thread's local view says marking is on. Call
    /// while holding the heap lock, before the overwriting store.
    pub fn barrier_log(&mut self, heap: &Heap, old: GcRef) {
        if self.local_marking(heap) {
            self.buf.log(old);
        }
    }

    /// May this thread run statically-elided (barrier-free) code right
    /// now? True when no epoch is pending or the thread has
    /// acknowledged the current one; otherwise the thread must take
    /// the conservative full-barrier path (and a gating event is
    /// counted).
    pub fn elide_allowed(&self) -> bool {
        let phase = self.ctl.phase.load(Ordering::SeqCst);
        if phase == PHASE_IDLE || self.acked_current() {
            true
        } else {
            self.ctl.c_gated.fetch_add(1, Ordering::SeqCst);
            false
        }
    }

    /// Safepoint poll. Acknowledges a pending epoch, flushes the SATB
    /// buffer, and parks for the duration of a stop-the-world
    /// rendezvous. Call regularly from mutator loops, **without**
    /// holding the heap lock (the poll takes it internally to flush).
    ///
    /// # Errors
    ///
    /// [`StwError::Timeout`] if a rendezvous park is never released —
    /// the coordinator died or stalled. The thread un-parks before
    /// returning so the coordinator (if it recovers) does not count a
    /// ghost park.
    pub fn safepoint(&mut self, heap: &Mutex<Heap>) -> Result<(), StwError> {
        loop {
            match self.ctl.phase.load(Ordering::SeqCst) {
                PHASE_ARMED => {
                    self.ack();
                    // Ack handshake: give the marker a chance to take
                    // the snapshot before this thread resumes.
                    thread::yield_now();
                    return Ok(());
                }
                PHASE_STOPPING => {
                    self.flush(heap);
                    self.ctl.parked[self.tid].store(true, Ordering::SeqCst);
                    self.ctl.c_parks.fetch_add(1, Ordering::SeqCst);
                    let mut backoff = Backoff::new(self.ctl.wait_timeout());
                    while self.ctl.phase.load(Ordering::SeqCst) == PHASE_STOPPING {
                        if !backoff.wait() {
                            self.ctl.parked[self.tid].store(false, Ordering::SeqCst);
                            return Err(self.ctl.watchdog_timeout("resume", backoff.spins));
                        }
                    }
                    self.ctl.parked[self.tid].store(false, Ordering::SeqCst);
                    // Re-poll: the world may have resumed straight into
                    // a newly armed epoch.
                }
                _ => {
                    if self.buf.depth() > 0 {
                        self.flush(heap);
                    }
                    return Ok(());
                }
            }
        }
    }

    /// Retires the mutator: final flush, then the coordinator stops
    /// waiting on this thread for acknowledgements and rendezvous.
    pub fn retire(mut self, heap: &Mutex<Heap>) {
        self.flush(heap);
        self.ctl.retired[self.tid].store(true, Ordering::SeqCst);
    }

    fn ack(&mut self) {
        let epoch = self.ctl.epoch.load(Ordering::SeqCst);
        if self.ctl.acks[self.tid].swap(epoch, Ordering::SeqCst) != epoch {
            self.ctl.c_acks.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn flush(&mut self, heap: &Mutex<Heap>) {
        let depth = {
            let mut h = heap.lock();
            self.buf.flush_into(&mut h.gc)
        };
        self.depth_hist.record(depth as u64);
        self.ctl.c_flushes.fetch_add(1, Ordering::SeqCst);
        self.ctl
            .c_flushed_entries
            .fetch_add(depth as u64, Ordering::SeqCst);
    }
}

/// What the stop-the-world rendezvous did.
#[derive(Clone, Copy, Debug, Default)]
pub struct StwReport {
    /// The remark pause (empty if the cycle never reached its
    /// snapshot).
    pub pause: PauseReport,
    /// Mark units the marker thread completed concurrently.
    pub concurrent_units: u64,
    /// Objects freed by the in-rendezvous sweep.
    pub swept: usize,
    /// Whether the cycle actually took its snapshot (false when
    /// finished before the ack handshake completed).
    pub cycle_ran: bool,
}

/// Handle to a running concurrent marking cycle.
pub struct ConcurrentCycle {
    heap: Arc<Mutex<Heap>>,
    ctl: Arc<SafepointCtl>,
    stop: Arc<AtomicBool>,
    marker: Option<thread::JoinHandle<u64>>,
}

impl std::fmt::Debug for ConcurrentCycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentCycle")
            .field("running", &self.marker.is_some())
            .finish()
    }
}

impl ConcurrentCycle {
    /// Arms a new marking epoch and spawns the marker thread. The
    /// marker waits for every registered mutator to acknowledge at a
    /// safepoint, takes the snapshot (`begin_marking` from statics +
    /// `roots`), then runs `step_budget`-unit mark slices until
    /// [`ConcurrentCycle::finish`].
    ///
    /// Registered mutators must keep polling
    /// [`MutatorHandle::safepoint`] (or retire); otherwise the snapshot
    /// handshake never completes.
    ///
    /// **On return**, if no mutator's acknowledgement is outstanding
    /// (at once when none are registered), the marker has left the
    /// armed phase — snapshot taken, or cycle abandoned — or the wait
    /// timeout has passed: what such a caller allocates next is
    /// allocated during marking. With an acknowledgement outstanding
    /// `start` returns armed (that mutator may be on this thread) and
    /// [`MutatorHandle::local_marking`] tells the two sides apart.
    ///
    /// # Errors
    ///
    /// [`CycleInProgress`] if a cycle is already running — on this
    /// coordinator or on the heap's collector.
    pub fn start(
        heap: Arc<Mutex<Heap>>,
        ctl: Arc<SafepointCtl>,
        roots: &[GcRef],
        step_budget: usize,
    ) -> Result<ConcurrentCycle, CycleInProgress> {
        if ctl
            .phase
            .compare_exchange(PHASE_IDLE, PHASE_ARMED, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return Err(CycleInProgress);
        }
        if heap.lock().gc.is_marking() {
            ctl.phase.store(PHASE_IDLE, Ordering::SeqCst);
            return Err(CycleInProgress);
        }
        let epoch = ctl.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let stop = Arc::new(AtomicBool::new(false));
        let marker = {
            let heap = Arc::clone(&heap);
            let ctl = Arc::clone(&ctl);
            let stop = Arc::clone(&stop);
            let roots = roots.to_vec();
            thread::spawn(move || {
                // Snapshot handshake: every live mutator acks first.
                // Bounded — a mutator that stops polling abandons the
                // cycle (finish() reports `cycle_ran: false`) instead of
                // spinning the marker forever.
                let mut backoff = Backoff::new(ctl.wait_timeout());
                while !ctl.all_acked(epoch) {
                    if stop.load(Ordering::Acquire) {
                        return 0; // finished before the handshake
                    }
                    ctl.c_handshake_spins.fetch_add(1, Ordering::SeqCst);
                    if !backoff.wait() {
                        let _ = ctl.watchdog_timeout("acks", backoff.spins);
                        return 0;
                    }
                }
                {
                    let mut h = heap.lock();
                    let mut all_roots = h.static_roots();
                    all_roots.extend_from_slice(&roots);
                    let h = &mut *h;
                    if h.gc.try_begin_marking(&mut h.store, &all_roots).is_err() {
                        // Checked at start(); only reachable if the
                        // driver started a cycle behind our back.
                        return 0;
                    }
                    // Publish MARKING while still inside the snapshot's
                    // critical section; losing the race to a concurrent
                    // finish() (PHASE_STOPPING) is fine — the remark
                    // then covers everything under the stopped world.
                    let _ = ctl.phase.compare_exchange(
                        PHASE_ARMED,
                        PHASE_MARKING,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    );
                }
                let mut total = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let did = {
                        let mut h = heap.lock();
                        let h = &mut *h;
                        h.gc.mark_step(&mut h.store, step_budget)
                    };
                    total += did as u64;
                    if did == 0 {
                        thread::yield_now();
                    }
                }
                total
            })
        };
        let mut backoff = Backoff::new(ctl.wait_timeout());
        while ctl.phase.load(Ordering::SeqCst) == PHASE_ARMED
            && ctl.all_acked(epoch)
            && !marker.is_finished()
        {
            if !backoff.wait() {
                let _ = ctl.watchdog_timeout("snapshot", backoff.spins);
                break;
            }
        }
        Ok(ConcurrentCycle {
            heap,
            ctl,
            stop,
            marker: Some(marker),
        })
    }

    /// Stop-the-world rendezvous: requests a stop, waits for every
    /// registered mutator to flush and park at a safepoint, joins the
    /// marker, then remarks (statics + `final_roots`) and sweeps with
    /// the world stopped before resuming it.
    ///
    /// # Errors
    ///
    /// * [`StwError::Timeout`] if a registered mutator never parks
    ///   (stopped polling without retiring). The marker is stopped and
    ///   the world resumed before returning, so the caller can retry or
    ///   escalate; the collector may be left mid-cycle, which the next
    ///   [`ConcurrentCycle::start`] reports.
    /// * [`StwError::MarkerPanicked`] if the marker thread panicked;
    ///   its concurrent work is lost.
    pub fn finish(mut self, final_roots: &[GcRef]) -> Result<StwReport, StwError> {
        self.ctl.phase.store(PHASE_STOPPING, Ordering::SeqCst);
        let mut backoff = Backoff::new(self.ctl.wait_timeout());
        while !self.ctl.all_parked() {
            if !backoff.wait() {
                // A mutator never reached its safepoint. Clean up —
                // stop the marker, resume the world — then surface the
                // stall instead of hanging the coordinator.
                self.stop.store(true, Ordering::Release);
                if let Some(m) = self.marker.take() {
                    let _ = m.join();
                }
                self.ctl.phase.store(PHASE_IDLE, Ordering::SeqCst);
                let err = self.ctl.watchdog_timeout("parks", backoff.spins);
                self.ctl.publish_metrics();
                return Err(err);
            }
        }
        self.stop.store(true, Ordering::Release);
        let concurrent_units = match self.marker.take().expect("finish called once").join() {
            Ok(units) => units,
            Err(_) => {
                self.ctl.phase.store(PHASE_IDLE, Ordering::SeqCst);
                self.ctl.publish_metrics();
                return Err(StwError::MarkerPanicked);
            }
        };
        let mut report = StwReport {
            concurrent_units,
            ..StwReport::default()
        };
        {
            let mut h = self.heap.lock();
            if h.gc.is_marking() {
                let mut roots = h.static_roots();
                roots.extend_from_slice(final_roots);
                let h = &mut *h;
                report.pause = h.gc.remark(&mut h.store, &roots);
                report.swept = h.gc.sweep(&mut h.store);
                report.cycle_ran = true;
            }
        }
        self.ctl.phase.store(PHASE_IDLE, Ordering::SeqCst);
        self.ctl.publish_metrics();
        Ok(report)
    }
}

impl Drop for ConcurrentCycle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(m) = self.marker.take() {
            let _ = m.join();
        }
        // Release parked/acking mutators; the collector may be left
        // mid-cycle (no remark ran), which the next start() reports.
        self.ctl.phase.store(PHASE_IDLE, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gc::MarkStyle;
    use crate::value::{FieldShape, Value};

    #[test]
    fn threaded_cycle_marks_reachable_objects() {
        let heap = Arc::new(Mutex::new(Heap::new(MarkStyle::Satb)));
        let ctl = SafepointCtl::new(0);
        let (root, children) = {
            let mut h = heap.lock();
            let root = h.alloc_object(0, &[FieldShape::Ref]).unwrap();
            let mut children = Vec::new();
            let mut prev = root;
            for _ in 0..50 {
                let c = h.alloc_object(0, &[FieldShape::Ref]).unwrap();
                h.set_field(prev, 0, Value::from(c)).unwrap();
                children.push(c);
                prev = c;
            }
            (root, children)
        };
        let cycle = ConcurrentCycle::start(Arc::clone(&heap), ctl, &[root], 4).unwrap();
        // Mutator keeps allocating while the marker runs.
        for _ in 0..20 {
            let mut h = heap.lock();
            let _ = h.alloc_object(0, &[]).unwrap();
        }
        let report = cycle.finish(&[root]).unwrap();
        assert!(report.cycle_ran);
        let h = heap.lock();
        for c in children {
            assert!(h.gc.is_marked(c));
        }
        // New allocations were black, so the pause never scanned them
        // and the in-rendezvous sweep freed nothing reachable.
        assert!(report.pause.objects_scanned <= 51);
        assert_eq!(report.swept, 0);
    }

    #[test]
    fn starting_twice_reports_cycle_in_progress() {
        let heap = Arc::new(Mutex::new(Heap::new(MarkStyle::Satb)));
        let ctl = SafepointCtl::new(0);
        let root = {
            let mut h = heap.lock();
            h.alloc_object(0, &[]).unwrap()
        };
        let cycle =
            ConcurrentCycle::start(Arc::clone(&heap), Arc::clone(&ctl), &[root], 2).unwrap();
        assert_eq!(
            ConcurrentCycle::start(Arc::clone(&heap), Arc::clone(&ctl), &[root], 2).unwrap_err(),
            CycleInProgress
        );
        let report = cycle.finish(&[root]).unwrap();
        assert!(report.cycle_ran);
        // After a clean finish the next cycle starts fine.
        let cycle = ConcurrentCycle::start(Arc::clone(&heap), ctl, &[root], 2).unwrap();
        cycle.finish(&[root]).unwrap();
    }

    #[test]
    fn collector_already_marking_reports_cycle_in_progress() {
        let heap = Arc::new(Mutex::new(Heap::new(MarkStyle::Satb)));
        let ctl = SafepointCtl::new(0);
        let root = {
            let mut h = heap.lock();
            let root = h.alloc_object(0, &[]).unwrap();
            let h = &mut *h;
            h.gc.begin_marking(&mut h.store, &[root]);
            root
        };
        // A fresh coordinator, but the heap's collector is mid-cycle.
        assert_eq!(
            ConcurrentCycle::start(Arc::clone(&heap), ctl, &[root], 2).unwrap_err(),
            CycleInProgress
        );
    }

    #[test]
    fn unacked_thread_is_gated_until_its_safepoint() {
        let heap = Arc::new(Mutex::new(Heap::new(MarkStyle::Satb)));
        let ctl = SafepointCtl::new(1);
        let mut handle = ctl.register();
        let root = {
            let mut h = heap.lock();
            h.alloc_object(0, &[FieldShape::Ref]).unwrap()
        };
        assert!(handle.elide_allowed(), "idle: elision always allowed");
        let cycle =
            ConcurrentCycle::start(Arc::clone(&heap), Arc::clone(&ctl), &[root], 2).unwrap();
        // Epoch armed, not yet acked: elided code must not run.
        assert!(!handle.elide_allowed());
        assert!(!handle.local_marking(&heap.lock()));
        handle.safepoint(&heap).unwrap();
        assert!(handle.elide_allowed(), "acked: elision allowed again");
        // Retire before finish: the rendezvous waits for every
        // registered mutator to park or retire, and this one lives on
        // the finishing thread.
        handle.retire(&heap);
        let report = cycle.finish(&[root]).unwrap();
        assert!(report.cycle_ran, "handshake completed via the safepoint");
        let c = ctl.counters();
        assert_eq!(c.acks, 1);
        assert_eq!(c.gated_elisions, 1);
    }

    #[test]
    fn barrier_log_buffers_and_flush_reaches_collector() {
        let heap = Arc::new(Mutex::new(Heap::new(MarkStyle::Satb)));
        let ctl = SafepointCtl::new(1);
        let mut handle = ctl.register();
        let (a, b) = {
            let mut h = heap.lock();
            let a = h.alloc_object(0, &[FieldShape::Ref]).unwrap();
            let b = h.alloc_object(0, &[FieldShape::Ref]).unwrap();
            h.set_field(a, 0, Value::from(b)).unwrap();
            (a, b)
        };
        let cycle = ConcurrentCycle::start(Arc::clone(&heap), Arc::clone(&ctl), &[a], 1).unwrap();
        handle.safepoint(&heap).unwrap(); // ack; snapshot may now be taken
        loop {
            // Wait for the marker to take the snapshot so the unlink
            // below happens during marking (needs the log to be sound).
            let h = heap.lock();
            if handle.local_marking(&h) {
                // Unlink b with the per-thread SATB barrier.
                let mut h = h;
                if let Value::Ref(Some(old)) = h.get_field(a, 0).unwrap() {
                    handle.barrier_log(&h, old);
                }
                h.set_field(a, 0, Value::NULL).unwrap();
                break;
            }
            drop(h);
            thread::yield_now();
        }
        assert_eq!(handle.buffer_stats().logged, 1, "buffered locally");
        handle.safepoint(&heap).unwrap(); // flush into the collector
        handle.retire(&heap); // rendezvous must not wait on this thread
        let report = cycle.finish(&[a]).unwrap();
        assert!(report.cycle_ran);
        let h = heap.lock();
        assert!(h.gc.is_marked(b), "snapshot preserved via buffered log");
        assert!(ctl.counters().flushed_entries >= 1);
    }

    #[test]
    fn stalled_mutator_times_out_instead_of_hanging() {
        let heap = Arc::new(Mutex::new(Heap::new(MarkStyle::Satb)));
        let ctl = SafepointCtl::new(1);
        let _stalled = ctl.register(); // never polls, never retires
        ctl.set_wait_timeout(Duration::from_millis(50));
        let root = {
            let mut h = heap.lock();
            h.alloc_object(0, &[]).unwrap()
        };
        let cycle =
            ConcurrentCycle::start(Arc::clone(&heap), Arc::clone(&ctl), &[root], 2).unwrap();
        let err = cycle.finish(&[root]).unwrap_err();
        assert!(
            matches!(
                err,
                StwError::Timeout {
                    waiting_for: "parks",
                    ..
                }
            ),
            "got {err:?}"
        );
        // Both the coordinator's park wait and the marker's handshake
        // gave up (the stalled thread never acked either).
        assert!(ctl.counters().watchdog_timeouts >= 1);
        // The world resumed: a fresh cycle can still be started.
        let cycle =
            ConcurrentCycle::start(Arc::clone(&heap), Arc::clone(&ctl), &[root], 2).unwrap();
        drop(cycle);
    }

    #[test]
    fn dropping_cycle_stops_marker() {
        let heap = Arc::new(Mutex::new(Heap::new(MarkStyle::Satb)));
        let ctl = SafepointCtl::new(0);
        let root = {
            let mut h = heap.lock();
            h.alloc_object(0, &[]).unwrap()
        };
        let cycle =
            ConcurrentCycle::start(Arc::clone(&heap), Arc::clone(&ctl), &[root], 2).unwrap();
        drop(cycle); // must not deadlock or leak the thread
        let marking = heap.lock().gc.is_marking();
        if marking {
            // Abandoned mid-cycle: the next start reports it rather
            // than panicking.
            assert_eq!(
                ConcurrentCycle::start(Arc::clone(&heap), ctl, &[root], 2).unwrap_err(),
                CycleInProgress
            );
        }
    }
}
