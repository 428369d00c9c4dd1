//! Concurrent marking: SATB and incremental-update styles.
//!
//! Both markers run *stepped*: the driver (interpreter or test)
//! interleaves mutator work with [`GcState::mark_step`] calls, then ends
//! the cycle with a stop-the-world [`GcState::remark`] whose measured
//! work is the "pause". This reproduces the paper's framing:
//!
//! * **SATB** (snapshot at the beginning, Yuasa-style): the collector
//!   marks everything reachable in the logical snapshot taken at
//!   [`GcState::begin_marking`]. The mutator's barrier logs overwritten
//!   non-null references ([`GcState::satb_log`]); objects allocated
//!   during marking are allocated black (implicitly marked), so the
//!   remark pause only drains the residual log.
//! * **Incremental update** (mostly-parallel, Boehm–Demers–Shenker
//!   style): the mutator's barrier dirties modified objects
//!   ([`GcState::dirty`]); the remark pause must rescan every dirty
//!   object — including all objects allocated and initialized during
//!   marking — which is why its pauses are often an order of magnitude
//!   longer (§1, §4.5 of the paper).
//!
//! All per-cycle state is indexed by slot number and lives in dense bit
//! sets beside the [`Store`], never on the objects (DESIGN §16). Three
//! orders are observable — slot reuse, hence every world digest,
//! depends on them — and `tests/gc_differential.rs` pins them: the grey
//! stack is LIFO with children shaded in field/element order; the dirty
//! and retrace sets drain in ascending slot order; sweep frees in
//! ascending slot order.
//!
//! Telemetry: [`GcStats`] reaches the `heap.gc.*` registry counters
//! through one [`wbe_telemetry::Deltas`] at cycle boundaries; the pause
//! histograms are recorded as each pause ends.

use crate::bitset::BitSet;
use crate::heap::Store;
use crate::object::{ObjKind, TraceState};
use crate::value::GcRef;

/// Error from [`GcState::try_begin_marking`]: a marking cycle is already
/// in progress on this collector.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleInProgress;

impl std::fmt::Display for CycleInProgress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a marking cycle is already in progress")
    }
}

impl std::error::Error for CycleInProgress {}

/// Which concurrent marking style the collector uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MarkStyle {
    /// Snapshot-at-the-beginning with a pre-write logging barrier.
    Satb,
    /// Incremental update with a dirty-object (card-marking) barrier.
    IncrementalUpdate,
}

/// Collector phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Phase {
    /// No cycle in progress; barriers may be skipped.
    #[default]
    Idle,
    /// Concurrent marking in progress; barriers are required.
    Marking,
}

/// Work performed during the stop-the-world remark — the "pause" the
/// experiments measure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PauseReport {
    /// Objects scanned during the pause.
    pub objects_scanned: usize,
    /// Reference slots traced during the pause.
    pub refs_traced: usize,
    /// SATB log entries drained during the pause.
    pub log_drained: usize,
    /// Dirty objects rescanned during the pause (incremental update).
    pub dirty_rescanned: usize,
    /// Arrays retraced via the §4.3 retrace list.
    pub retraced: usize,
    /// Roots examined during the pause (both styles pay this).
    pub roots_examined: usize,
}

impl PauseReport {
    /// Total pause work in abstract units (one per object scan, ref
    /// trace, log drain, and rescan).
    pub fn work_units(&self) -> usize {
        self.objects_scanned
            + self.refs_traced
            + self.log_drained
            + self.dirty_rescanned
            + self.roots_examined
    }
}

/// Cumulative collector statistics.
///
/// Kept as a plain struct so barrier-adjacent hot paths bump fields
/// without touching atomics; [`GcState`] mirrors the values into the
/// process-global telemetry registry (counters `heap.gc.*`) at cycle
/// boundaries through a [`wbe_telemetry::Deltas`], so the struct is the
/// façade and the registry the export path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Completed marking cycles.
    pub cycles: u64,
    /// SATB log entries recorded by the mutator barrier.
    pub satb_logs: u64,
    /// Objects dirtied by the incremental-update barrier.
    pub dirty_marks: u64,
    /// Objects scanned concurrently (outside pauses).
    pub concurrent_scans: u64,
    /// Objects allocated black (during SATB marking).
    pub allocated_black: u64,
    /// Objects freed by sweeps.
    pub swept: u64,
}

impl GcStats {
    /// Accumulates `other` into `self` field-by-field, for aggregating
    /// statistics across heaps/runs without hand-summing each field.
    pub fn merge(&mut self, other: &GcStats) {
        self.cycles += other.cycles;
        self.satb_logs += other.satb_logs;
        self.dirty_marks += other.dirty_marks;
        self.concurrent_scans += other.concurrent_scans;
        self.allocated_black += other.allocated_black;
        self.swept += other.swept;
    }
}

impl std::fmt::Display for GcStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cycles={} satb_logs={} dirty_marks={} concurrent_scans={} allocated_black={} swept={}",
            self.cycles,
            self.satb_logs,
            self.dirty_marks,
            self.concurrent_scans,
            self.allocated_black,
            self.swept
        )
    }
}

/// Pre-resolved registry handles for the collector's histograms.
/// Resolved lazily on the first probe that fires while metrics are
/// enabled (see [`GcState::metrics`]), so a disabled run never touches
/// the registry — not even to register the names.
#[derive(Debug)]
struct GcMetrics {
    pause_work_units: wbe_telemetry::Histogram,
    pause_us: wbe_telemetry::Histogram,
    // Per-phase work-unit histograms (see [`phase_histograms`]): the
    // profiler and bench JSON report p50/p90/p99/max per GC phase from
    // these. Work units are deterministic under a deterministic GC
    // policy, unlike the wall-clock `.us` histogram.
    pause_initial_mark: wbe_telemetry::Histogram,
    pause_mark_step: wbe_telemetry::Histogram,
    pause_remark: wbe_telemetry::Histogram,
    pause_sweep: wbe_telemetry::Histogram,
}

impl GcMetrics {
    fn new() -> Self {
        GcMetrics {
            pause_work_units: wbe_telemetry::histogram("heap.gc.pause.work_units"),
            pause_us: wbe_telemetry::histogram("heap.gc.pause.us"),
            pause_initial_mark: wbe_telemetry::histogram(PHASE_INITIAL_MARK),
            pause_mark_step: wbe_telemetry::histogram(PHASE_MARK_STEP),
            pause_remark: wbe_telemetry::histogram(PHASE_REMARK),
            pause_sweep: wbe_telemetry::histogram(PHASE_SWEEP),
        }
    }
}

/// Registry key of the initial-mark (root-scan at cycle start)
/// work-unit histogram.
pub const PHASE_INITIAL_MARK: &str = "heap.gc.pause.initial_mark.work_units";
/// Registry key of the concurrent-mark-step work-unit histogram (one
/// sample per [`GcState::mark_step`] that performed work).
pub const PHASE_MARK_STEP: &str = "heap.gc.pause.mark_step.work_units";
/// Registry key of the STW remark work-unit histogram (same samples as
/// the legacy `heap.gc.pause.work_units` key, which stays for the
/// baseline gate).
pub const PHASE_REMARK: &str = "heap.gc.pause.remark.work_units";
/// Registry key of the sweep-slice work-unit histogram (one sample per
/// sweep; work = slots examined).
pub const PHASE_SWEEP: &str = "heap.gc.pause.sweep.work_units";

/// Collector state: the mark bit set, the grey stack, the barriers'
/// buffers (SATB log; dirty and retrace bit sets) and the §4.3 trace
/// state of arrays. [`GcState::begin_marking`] resets all of it and the
/// allocator hook clears a reused slot's bits.
#[derive(Debug)]
pub struct GcState {
    style: MarkStyle,
    phase: Phase,
    mark: BitSet,
    grey: Vec<GcRef>,
    satb_buf: Vec<GcRef>,
    dirty: BitSet,
    retrace: BitSet,
    /// Arrays whose scan has started this cycle ...
    tracing: BitSet,
    /// ... and those whose scan has finished: [`TraceState::Traced`] if
    /// here, [`TraceState::Tracing`] if only in `tracing`.
    traced: BitSet,
    /// Cumulative statistics.
    pub stats: GcStats,
    /// `stats`' mirror in the `heap.gc.*` registry counters.
    mirror: wbe_telemetry::Deltas<6>,
    /// Lazily resolved registry handles; `None` until a probe fires
    /// with metrics enabled.
    metrics: Option<GcMetrics>,
}

impl GcState {
    /// Creates an idle collector of the given style.
    pub fn new(style: MarkStyle) -> Self {
        GcState {
            style,
            phase: Phase::Idle,
            mark: BitSet::default(),
            grey: Vec::new(),
            satb_buf: Vec::new(),
            dirty: BitSet::default(),
            retrace: BitSet::default(),
            tracing: BitSet::default(),
            traced: BitSet::default(),
            stats: GcStats::default(),
            mirror: wbe_telemetry::Deltas::default(),
            metrics: None,
        }
    }

    /// The registry handles, resolving them on first use — or `None`
    /// while metrics are disabled, in which case the caller skips the
    /// probe entirely (one relaxed load, no registry traffic).
    fn metrics(&mut self) -> Option<&GcMetrics> {
        if !wbe_telemetry::metrics_enabled() {
            return None;
        }
        Some(self.metrics.get_or_insert_with(GcMetrics::new))
    }

    /// Mirrors any statistics accrued since the last publish into the
    /// global registry (`heap.gc.*` counters). Called automatically at
    /// cycle boundaries ([`Self::remark`], [`Self::sweep`]); drivers may
    /// call it at run end to flush mid-cycle barrier counts. While
    /// metrics are disabled the delta is held for the next enabled
    /// publish. An enabled publish also registers the pause histograms.
    pub fn publish_metrics(&mut self) {
        if self.metrics().is_none() {
            return;
        }
        let s = self.stats;
        self.mirror.publish([
            ("heap.gc.cycles", s.cycles),
            ("heap.gc.satb_logs", s.satb_logs),
            ("heap.gc.dirty_marks", s.dirty_marks),
            ("heap.gc.concurrent_scans", s.concurrent_scans),
            ("heap.gc.allocated_black", s.allocated_black),
            ("heap.gc.swept", s.swept),
        ]);
    }

    /// The marker style.
    pub fn style(&self) -> MarkStyle {
        self.style
    }

    /// The current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// True while a marking cycle is in progress — the condition the
    /// paper's "inline" barrier checks first.
    pub fn is_marking(&self) -> bool {
        self.phase == Phase::Marking
    }

    /// True if `r` is marked in the current/most recent cycle.
    pub fn is_marked(&self, r: GcRef) -> bool {
        self.mark.get(r.index())
    }

    /// The mark bits as words, slot `i` at bit `i % 64` of word `i / 64`.
    pub(crate) fn mark_words(&self) -> &[u64] {
        self.mark.words()
    }

    /// Clears `r`'s mark bit. **Fault injection only**: this forges the
    /// exact corruption an unsound elision produces (a reachable object
    /// the cycle never shaded), so the chaos harness can exercise the
    /// recovery path on demand. Never called by the collector itself.
    pub fn clear_mark(&mut self, r: GcRef) {
        self.mark.remove(r.index());
    }

    /// Allocator hook. During SATB marking, new objects are allocated
    /// black (implicitly marked): they are not part of the snapshot and
    /// the marker never examines them — the key SATB advantage.
    pub fn on_allocate(&mut self, r: GcRef) {
        let slot = r.index();
        match (self.phase, self.style) {
            (Phase::Marking, MarkStyle::Satb) => {
                self.mark.insert(slot);
                self.stats.allocated_black += 1;
            }
            // Slot reuse must not inherit a stale mark bit.
            _ => self.mark.remove(slot),
        }
        // Nor the previous occupant's trace state (`traced` is a subset
        // of `tracing`, so one read covers the common case).
        if self.tracing.get(slot) {
            self.tracing.remove(slot);
            self.traced.remove(slot);
        }
    }

    /// SATB mutator barrier payload: log the overwritten (pre-write)
    /// value. The caller has already checked that the value is non-null;
    /// whether to check `is_marking` first is the interpreter's barrier
    /// mode (the paper's "always log" mode skips the check).
    pub fn satb_log(&mut self, old: GcRef) {
        self.stats.satb_logs += 1;
        if self.phase == Phase::Marking {
            self.satb_buf.push(old);
        }
        // When idle the log is dropped: its cost was still paid by the
        // mutator, which is exactly the always-log experiment's point.
    }

    /// Drains a per-thread SATB log buffer into the collector's shared
    /// queue (the flush-at-safepoint half of the thread-local buffer
    /// protocol). Entries flushed while the collector is idle are
    /// dropped: stores made before the snapshot point carry no SATB
    /// obligation. Returns the number of entries accepted.
    pub fn satb_flush(&mut self, entries: impl IntoIterator<Item = GcRef>) -> usize {
        if self.phase != Phase::Marking {
            // Consume without logging; the iterator may be a drain.
            entries.into_iter().for_each(drop);
            return 0;
        }
        let mut n = 0usize;
        for old in entries {
            self.satb_buf.push(old);
            n += 1;
        }
        self.stats.satb_logs += n as u64;
        n
    }

    /// True if `r` sits in the undrained SATB log. A barrier enqueue of
    /// an already-pending ref is a *duplicate*: dropping it would have
    /// been harmless, since the earlier entry already guarantees the
    /// snapshot obligation. The necessity oracle uses this to classify
    /// vacuous enqueues; real barriers never bother checking (a linear
    /// scan per store would defeat their purpose).
    pub fn satb_pending(&self, r: GcRef) -> bool {
        self.satb_buf.contains(&r)
    }

    /// Incremental-update mutator barrier payload: record that `obj` was
    /// modified so the collector re-examines it.
    pub fn dirty(&mut self, obj: GcRef) {
        self.stats.dirty_marks += 1;
        if self.phase == Phase::Marking {
            self.dirty.insert(obj.index());
        }
    }

    /// §4.3 protocol: current tracing state of the array at `r`.
    pub fn trace_state(&self, store: &Store, r: GcRef) -> TraceState {
        match (self.tracing.get(r.index()), self.traced.get(r.index())) {
            // A freed slot keeps its bits until it is handed out again.
            _ if !store.is_live(r) => TraceState::Untraced,
            (_, true) => TraceState::Traced,
            (true, false) => TraceState::Tracing,
            (false, false) => TraceState::Untraced,
        }
    }

    /// §4.3 protocol: the mutator detected possible interference with the
    /// marker while rearranging an array; schedule the whole array for
    /// retracing during the pause.
    pub fn push_retrace(&mut self, arr: GcRef) {
        if self.phase == Phase::Marking {
            self.retrace.insert(arr.index());
        }
    }

    /// Begins a marking cycle from `roots` (plus whatever the caller
    /// includes — typically mutator stacks and statics). Clears all mark
    /// state from the previous cycle.
    ///
    /// # Panics
    ///
    /// Panics if a cycle is already in progress; use
    /// [`Self::try_begin_marking`] for the non-panicking form.
    pub fn begin_marking(&mut self, store: &mut Store, roots: &[GcRef]) {
        self.try_begin_marking(store, roots)
            .expect("marking already in progress");
    }

    /// Non-panicking [`Self::begin_marking`]: returns
    /// [`CycleInProgress`] instead of asserting when a cycle is already
    /// running, consistent with the no-panic guardrail policy.
    ///
    /// # Errors
    ///
    /// [`CycleInProgress`] if the collector is already marking.
    pub fn try_begin_marking(
        &mut self,
        store: &mut Store,
        roots: &[GcRef],
    ) -> Result<(), CycleInProgress> {
        if self.phase != Phase::Idle {
            return Err(CycleInProgress);
        }
        self.phase = Phase::Marking;
        let capacity = store.capacity();
        self.mark.reset(capacity);
        self.dirty.reset(capacity);
        self.retrace.reset(capacity);
        self.tracing.reset(capacity);
        self.traced.reset(capacity);
        self.grey.clear();
        self.satb_buf.clear();
        for &r in roots {
            self.shade(store, r);
        }
        // Initial-mark "pause": the root-scan work at cycle start.
        if let Some(m) = self.metrics() {
            m.pause_initial_mark.record(roots.len() as u64);
        }
        Ok(())
    }

    /// Marks `r` grey if it is unmarked, prefetching the slot to scan.
    #[inline(always)]
    fn shade(&mut self, store: &Store, r: GcRef) {
        if self.mark.insert(r.index()) {
            store.prefetch(r, false);
            self.grey.push(r);
        }
    }

    /// Scans one object: traces its outgoing references, shading each
    /// in field/element order. Returns the number of references traced.
    #[inline(always)]
    fn scan(&mut self, store: &Store, r: GcRef) -> usize {
        let Some(obj) = store.slot(r) else {
            return 0;
        };
        let is_array = matches!(obj.kind, ObjKind::RefArray(_));
        if is_array {
            self.tracing.insert(r.index());
        }
        let mut traced = 0;
        obj.for_each_ref(|child| {
            self.shade(store, child);
            traced += 1;
        });
        if is_array {
            self.traced.insert(r.index());
        }
        traced
    }

    /// Pops and scans up to `budget` grey objects, LIFO, prefetching the
    /// new top's spilled payload; returns (scanned, references traced).
    #[inline(always)]
    fn drain_grey(&mut self, store: &Store, budget: usize) -> (usize, usize) {
        let (mut scanned, mut traced) = (0, 0);
        while let Some(r) = self.grey.pop_if(|_| scanned < budget) {
            if let Some(&next) = self.grey.last() {
                store.prefetch(next, true);
            }
            traced += self.scan(store, r);
            scanned += 1;
        }
        (scanned, traced)
    }

    /// Performs up to `budget` units of concurrent marking work (one unit
    /// ≈ one log entry drained or one object scanned). Returns the units
    /// actually performed; `0` means the collector has no pending work
    /// (though the mutator may still generate more via barriers).
    pub fn mark_step(&mut self, store: &mut Store, budget: usize) -> usize {
        assert_eq!(self.phase, Phase::Marking, "mark_step while idle");
        // The log, then the grey stack: shading never adds to the log.
        // (Incremental update defers dirty objects entirely to the
        // stop-the-world remark, in the mostly-parallel style: that
        // deferred rescan IS the pause the experiments measure.)
        let mut done = 0;
        while let Some(old) = self.satb_buf.pop_if(|_| done < budget) {
            self.shade(store, old);
            done += 1;
        }
        let (scanned, _) = self.drain_grey(store, budget - done);
        self.stats.concurrent_scans += scanned as u64;
        done += scanned;
        if done > 0 {
            if let Some(m) = self.metrics() {
                m.pause_mark_step.record(done as u64);
            }
        }
        done
    }

    /// Finishes the cycle with the mutator stopped, measuring the pause.
    ///
    /// For SATB this drains the residual log and grey stack (new roots
    /// need no rescan: every reference a mutator holds is either
    /// snapshot-reachable — and will be marked via the log — or was
    /// allocated black). For incremental update it must rescan every
    /// dirty object and trace everything that became reachable during
    /// marking, including all objects allocated during the cycle.
    pub fn remark(&mut self, store: &mut Store, roots: &[GcRef]) -> PauseReport {
        assert_eq!(self.phase, Phase::Marking, "remark while idle");
        let _span = wbe_telemetry::span!("heap.gc.remark");
        let pause_start = wbe_telemetry::metrics_enabled().then(std::time::Instant::now);
        let mut pause = PauseReport::default();
        for &r in roots {
            pause.roots_examined += 1;
            self.shade(store, r);
        }
        // §4.3: arrays whose rearrangement raced with tracing are traced
        // again, conservatively, with the world stopped.
        // (Moved out for the walk, put back empty to reuse its words.)
        let mut retrace = std::mem::take(&mut self.retrace);
        retrace.drain(|slot| {
            let arr = GcRef(slot as u32);
            if self.is_marked(arr) {
                pause.retraced += 1;
                pause.objects_scanned += 1;
                pause.refs_traced += self.scan(store, arr);
            }
        });
        self.retrace = retrace;
        match self.style {
            MarkStyle::Satb => {
                while let Some(old) = self.satb_buf.pop() {
                    pause.log_drained += 1;
                    self.shade(store, old);
                }
            }
            MarkStyle::IncrementalUpdate => {
                // Rescan marked dirty objects; then trace to completion.
                // Unmarked dirty objects are scanned if tracing reaches
                // them (their scan is then a fresh, correct scan).
                let mut dirty = std::mem::take(&mut self.dirty);
                dirty.drain(|slot| {
                    let d = GcRef(slot as u32);
                    if self.is_marked(d) {
                        pause.dirty_rescanned += 1;
                        pause.objects_scanned += 1;
                        pause.refs_traced += self.scan(store, d);
                    }
                });
                self.dirty = dirty;
            }
        }
        let (scanned, traced) = self.drain_grey(store, usize::MAX);
        pause.objects_scanned += scanned;
        pause.refs_traced += traced;
        self.phase = Phase::Idle;
        self.stats.cycles += 1;
        if let Some(m) = self.metrics() {
            m.pause_work_units.record(pause.work_units() as u64);
            m.pause_remark.record(pause.work_units() as u64);
            if let Some(start) = pause_start {
                m.pause_us.record_duration(start.elapsed());
            }
        }
        self.publish_metrics();
        pause
    }

    /// Frees every live object left unmarked by the completed cycle.
    /// Returns the number freed.
    ///
    /// # Panics
    ///
    /// Panics if called while marking is in progress.
    pub fn sweep(&mut self, store: &mut Store) -> usize {
        assert_eq!(self.phase, Phase::Idle, "sweep during marking");
        let freed = store.sweep(self.mark.words());
        self.stats.swept += freed as u64;
        // Sweep-slice work: every slot is examined once.
        if let Some(m) = self.metrics() {
            m.pause_sweep.record(store.capacity() as u64);
        }
        self.publish_metrics();
        freed
    }

    /// Pending SATB log length (diagnostics).
    pub fn satb_backlog(&self) -> usize {
        self.satb_buf.len()
    }

    /// Pending dirty-object count (diagnostics).
    pub fn dirty_backlog(&self) -> usize {
        self.dirty.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::Heap;
    use crate::value::{FieldShape, Value};

    fn obj(h: &mut Heap) -> GcRef {
        h.alloc_object(0, &[FieldShape::Ref, FieldShape::Ref])
            .unwrap()
    }

    /// Build `a -> b -> c`, start marking, then unlink b from a and
    /// relink nothing: SATB must still mark b and c (snapshot), provided
    /// the barrier logged the overwritten value.
    #[test]
    fn satb_preserves_snapshot_under_unlink() {
        let mut h = Heap::new(MarkStyle::Satb);
        let a = obj(&mut h);
        let b = obj(&mut h);
        let c = obj(&mut h);
        h.set_field(a, 0, Value::from(b)).unwrap();
        h.set_field(b, 0, Value::from(c)).unwrap();
        h.gc.begin_marking(&mut h.store, &[a]);
        // Mutator: a.f0 = null, with the SATB barrier logging old value b.
        let old = h.get_field(a, 0).unwrap();
        if let Value::Ref(Some(o)) = old {
            h.gc.satb_log(o);
        }
        h.set_field(a, 0, Value::NULL).unwrap();
        let pause = h.gc.remark(&mut h.store, &[a]);
        assert!(h.gc.is_marked(b), "snapshot object b must be marked");
        assert!(h.gc.is_marked(c), "snapshot object c must be marked");
        assert!(pause.log_drained >= 1);
    }

    /// Without the barrier, unlinking during marking loses the subgraph —
    /// demonstrating why elision must be restricted to pre-null stores.
    #[test]
    fn satb_without_barrier_loses_objects() {
        let mut h = Heap::new(MarkStyle::Satb);
        let a = obj(&mut h);
        let b = obj(&mut h);
        h.set_field(a, 0, Value::from(b)).unwrap();
        h.gc.begin_marking(&mut h.store, &[a]);
        h.set_field(a, 0, Value::NULL).unwrap(); // no barrier!
        h.gc.remark(&mut h.store, &[a]);
        assert!(!h.gc.is_marked(b));
        assert_eq!(h.sweep(), 1);
        assert!(!h.store.is_live(b));
    }

    /// Eliding the barrier on a pre-null (initializing) store is safe:
    /// the overwritten value is null, so there is nothing to log.
    #[test]
    fn elided_barrier_on_pre_null_store_is_safe() {
        let mut h = Heap::new(MarkStyle::Satb);
        let a = obj(&mut h);
        h.gc.begin_marking(&mut h.store, &[a]);
        let b = obj(&mut h); // allocated black
                             // a.f1 is null; store without barrier.
        assert!(h.get_field(a, 1).unwrap().is_null());
        h.set_field(a, 1, Value::from(b)).unwrap();
        h.gc.remark(&mut h.store, &[a]);
        assert!(h.gc.is_marked(b), "allocated-black object survives");
        assert_eq!(h.sweep(), 0);
    }

    #[test]
    fn marking_flush_queues_every_entry() {
        let mut h = Heap::new(MarkStyle::Satb);
        let [a, b] = [obj(&mut h), obj(&mut h)];
        h.gc.begin_marking(&mut h.store, &[]);
        let mut buf = vec![a, b];
        assert_eq!(h.gc.satb_flush(buf.drain(..)), 2);
        assert!(buf.is_empty() && h.gc.satb_pending(a) && h.gc.satb_pending(b));
        assert_eq!(h.gc.stats.satb_logs, 2);
    }

    #[test]
    fn idle_flush_drops_entries() {
        let mut h = Heap::new(MarkStyle::Satb);
        let a = obj(&mut h);
        let mut buf = vec![a];
        assert_eq!(h.gc.satb_flush(buf.drain(..)), 0, "nothing accepted");
        assert!(buf.is_empty(), "the buffer was still drained");
        assert!(
            h.gc.grey.is_empty() && h.gc.satb_buf.is_empty(),
            "no work queued"
        );
        assert_eq!(h.gc.stats.satb_logs, 0);
    }

    /// The drivers (`Interp`, `cycle.rs`) rely on a refused second start
    /// leaving the running cycle exactly as it was.
    #[test]
    fn try_begin_marking_while_marking_is_refused_and_changes_nothing() {
        let mut h = Heap::new(MarkStyle::Satb);
        let [a, b, c] = [obj(&mut h), obj(&mut h), obj(&mut h)];
        h.set_field(a, 0, Value::from(b)).unwrap();
        h.gc.begin_marking(&mut h.store, &[a]);
        h.gc.mark_step(&mut h.store, 1);
        h.gc.satb_log(c);
        let state = |gc: &GcState| {
            let queues = (gc.grey.clone(), gc.satb_buf.clone());
            (gc.phase, gc.mark.words().to_vec(), queues, gc.stats)
        };
        let before = state(&h.gc);
        let refused = h.gc.try_begin_marking(&mut h.store, &[c]);
        assert_eq!((refused, state(&h.gc)), (Err(CycleInProgress), before));
        h.gc.remark(&mut h.store, &[a]);
        h.sweep();
        assert_eq!(h.gc.try_begin_marking(&mut h.store, &[a]), Ok(()));
        assert!(h.gc.is_marking());
    }

    #[test]
    fn satb_allocates_black_during_marking() {
        let mut h = Heap::new(MarkStyle::Satb);
        let a = obj(&mut h);
        h.gc.begin_marking(&mut h.store, &[a]);
        let n = obj(&mut h);
        assert!(h.gc.is_marked(n));
        assert_eq!(h.gc.stats.allocated_black, 1);
        // And the remark never scans it (not part of the snapshot).
        let pause = h.gc.remark(&mut h.store, &[a]);
        assert_eq!(pause.objects_scanned, 1, "only the root a is scanned");
    }

    #[test]
    fn incremental_update_rescans_dirty_and_new_objects() {
        let mut h = Heap::new(MarkStyle::IncrementalUpdate);
        let a = obj(&mut h);
        h.gc.begin_marking(&mut h.store, &[a]);
        // Drain concurrent work so `a` is scanned.
        while h.gc.mark_step(&mut h.store, 8) > 0 {}
        // Mutator allocates n and links it into a (dirtying a).
        let n = obj(&mut h);
        assert!(!h.gc.is_marked(n), "IU does not allocate black");
        h.set_field(a, 0, Value::from(n)).unwrap();
        h.gc.dirty(a);
        let pause = h.gc.remark(&mut h.store, &[a]);
        assert!(h.gc.is_marked(n));
        assert!(pause.dirty_rescanned >= 1);
        assert!(pause.objects_scanned >= 2, "rescans a and scans n");
    }

    #[test]
    fn satb_pause_is_smaller_than_incremental_under_allocation() {
        // Allocate and link many objects during marking; the SATB pause
        // stays O(log residue) while IU rescans everything new.
        let run = |style: MarkStyle| -> usize {
            let mut h = Heap::new(style);
            let root = obj(&mut h);
            h.gc.begin_marking(&mut h.store, &[root]);
            while h.gc.mark_step(&mut h.store, 4) > 0 {}
            let mut prev = root;
            for _ in 0..200 {
                let n = obj(&mut h);
                // prev.f0 = n, with the style's barrier.
                let old = h.get_field(prev, 0).unwrap();
                match style {
                    MarkStyle::Satb => {
                        if let Value::Ref(Some(o)) = old {
                            h.gc.satb_log(o);
                        }
                    }
                    MarkStyle::IncrementalUpdate => h.gc.dirty(prev),
                }
                h.set_field(prev, 0, Value::from(n)).unwrap();
                prev = n;
            }
            h.gc.remark(&mut h.store, &[root]).work_units()
        };
        let satb = run(MarkStyle::Satb);
        let iu = run(MarkStyle::IncrementalUpdate);
        assert!(
            satb * 10 <= iu,
            "expected order-of-magnitude pause gap, got satb={satb} iu={iu}"
        );
    }

    #[test]
    fn sweep_frees_unreachable_and_preserves_reachable() {
        let mut h = Heap::new(MarkStyle::Satb);
        let a = obj(&mut h);
        let b = obj(&mut h);
        let garbage = obj(&mut h);
        h.set_field(a, 0, Value::from(b)).unwrap();
        h.gc.begin_marking(&mut h.store, &[a]);
        h.gc.remark(&mut h.store, &[a]);
        assert_eq!(h.sweep(), 1);
        assert!(h.store.is_live(a) && h.store.is_live(b));
        assert!(!h.store.is_live(garbage));
        assert_eq!(h.stats.frees, 1);
    }

    #[test]
    fn mark_step_respects_budget() {
        let mut h = Heap::new(MarkStyle::Satb);
        let root = obj(&mut h);
        let mut prev = root;
        for _ in 0..10 {
            let n = obj(&mut h);
            h.set_field(prev, 0, Value::from(n)).unwrap();
            prev = n;
        }
        h.gc.begin_marking(&mut h.store, &[root]);
        assert_eq!(h.gc.mark_step(&mut h.store, 3), 3);
        let pause = h.gc.remark(&mut h.store, &[root]);
        // 11 objects total, 3 scanned concurrently.
        assert_eq!(pause.objects_scanned, 8);
    }

    #[test]
    fn retrace_list_rescans_arrays_at_pause() {
        let mut h = Heap::new(MarkStyle::Satb);
        let arr = h.alloc_ref_array(0, 4).unwrap();
        let x = obj(&mut h);
        h.set_elem(arr, 0, Some(x)).unwrap();
        h.gc.begin_marking(&mut h.store, &[arr]);
        while h.gc.mark_step(&mut h.store, 8) > 0 {}
        assert_eq!(h.gc.trace_state(&h.store, arr), TraceState::Traced);
        // Mutator rearranged arr concurrently and detected interference:
        let y = obj(&mut h);
        h.set_elem(arr, 1, Some(y)).unwrap();
        h.gc.push_retrace(arr);
        let pause = h.gc.remark(&mut h.store, &[arr]);
        assert_eq!(pause.retraced, 1);
        assert!(h.gc.is_marked(x));
    }

    #[test]
    fn per_phase_pause_histograms_are_populated() {
        // Metrics are on by default; other tests only ever add samples
        // to the global registry, so count comparisons below are safe
        // under the parallel test runner.
        let before = wbe_telemetry::registry::global().snapshot();
        let count_of = |snap: &wbe_telemetry::MetricsSnapshot, key: &str| {
            snap.histogram(key).map(|h| h.count).unwrap_or(0)
        };
        let mut h = Heap::new(MarkStyle::Satb);
        let root = obj(&mut h);
        let mut prev = root;
        for _ in 0..6 {
            let n = obj(&mut h);
            h.set_field(prev, 0, Value::from(n)).unwrap();
            prev = n;
        }
        h.gc.begin_marking(&mut h.store, &[root]);
        while h.gc.mark_step(&mut h.store, 2) > 0 {}
        h.gc.remark(&mut h.store, &[root]);
        h.sweep();
        let after = wbe_telemetry::registry::global().snapshot();
        for key in [
            PHASE_INITIAL_MARK,
            PHASE_MARK_STEP,
            PHASE_REMARK,
            PHASE_SWEEP,
            // The legacy key stays populated alongside the explicit
            // remark phase key (the baseline gate reads the legacy one).
            "heap.gc.pause.work_units",
        ] {
            assert!(
                count_of(&after, key) > count_of(&before, key),
                "{key} recorded no samples"
            );
        }
    }

    #[test]
    fn trace_state_reads_the_same_through_collector_and_dump() {
        use crate::debug::dump_object;
        let mut h = Heap::new(MarkStyle::Satb);
        let arr = h.alloc_ref_array(0, 2).unwrap();
        let plain = obj(&mut h);
        h.set_elem(arr, 0, Some(plain)).unwrap();
        h.gc.begin_marking(&mut h.store, &[arr]);
        assert_eq!(h.gc.trace_state(&h.store, arr), TraceState::Untraced);
        assert!(dump_object(&h, arr).ends_with("(Untraced)"));
        // What a reader would see while `scan` is inside the array.
        h.gc.tracing.insert(arr.index());
        assert_eq!(h.gc.trace_state(&h.store, arr), TraceState::Tracing);
        assert!(dump_object(&h, arr).ends_with("(Tracing)"));
        while h.gc.mark_step(&mut h.store, 8) > 0 {}
        assert_eq!(h.gc.trace_state(&h.store, arr), TraceState::Traced);
        assert!(dump_object(&h, arr).ends_with("(Traced)"));
        // Only reference arrays carry the state, it outlives the cycle,
        // and the next cycle starts from a clean slate.
        assert_eq!(h.gc.trace_state(&h.store, plain), TraceState::Untraced);
        h.gc.remark(&mut h.store, &[arr]);
        assert_eq!(h.gc.trace_state(&h.store, arr), TraceState::Traced);
        assert_eq!(h.gc.trace_state(&h.store, GcRef(999)), TraceState::Untraced);
        h.gc.begin_marking(&mut h.store, &[]);
        assert_eq!(h.gc.trace_state(&h.store, arr), TraceState::Untraced);
    }

    #[test]
    fn slot_reused_while_idle_inherits_no_mark_or_trace_bit() {
        let mut h = Heap::new(MarkStyle::Satb);
        let arr = h.alloc_ref_array(0, 2).unwrap();
        h.gc.begin_marking(&mut h.store, &[arr]);
        h.gc.remark(&mut h.store, &[arr]);
        assert!(h.gc.is_marked(arr));
        assert_eq!(h.gc.trace_state(&h.store, arr), TraceState::Traced);
        // Freed outside a sweep (the interpreter's arena does this), so
        // the slot goes back with both bits still set.
        h.store.remove(arr);
        assert_eq!(h.gc.trace_state(&h.store, arr), TraceState::Untraced);
        let reused = h.alloc_ref_array(0, 2).unwrap();
        assert_eq!(reused, arr);
        assert!(!h.gc.is_marked(reused));
        assert_eq!(h.gc.trace_state(&h.store, reused), TraceState::Untraced);
    }

    #[test]
    fn allocation_past_the_bit_sets_during_marking() {
        for style in [MarkStyle::Satb, MarkStyle::IncrementalUpdate] {
            let mut h = Heap::new(style);
            let root = h.alloc_ref_array(0, 2).unwrap();
            for _ in 1..64 {
                obj(&mut h);
            }
            // One word per set: slots 0..64.
            h.gc.begin_marking(&mut h.store, &[root]);
            while h.gc.mark_step(&mut h.store, 8) > 0 {}
            let kept = h.alloc_ref_array(0, 1).unwrap();
            let dropped = obj(&mut h);
            assert_eq!((kept.index(), dropped.index()), (64, 65));
            assert_eq!(h.gc.is_marked(kept), style == MarkStyle::Satb);
            h.set_elem(root, 0, Some(kept)).unwrap();
            h.gc.push_retrace(kept);
            if style == MarkStyle::IncrementalUpdate {
                h.gc.dirty(root);
                h.gc.dirty(kept);
                h.gc.dirty(kept);
                assert_eq!(h.gc.dirty_backlog(), 2, "distinct objects");
            }
            let pause = h.gc.remark(&mut h.store, &[root]);
            assert!(h.gc.is_marked(kept));
            assert_eq!(h.gc.trace_state(&h.store, kept), TraceState::Traced);
            match style {
                // Allocated black: marked, so the retrace scans it.
                MarkStyle::Satb => assert_eq!(pause.retraced, 1),
                // White when the retrace set is drained. The dirty set
                // drains in ascending order: rescanning `root` shades
                // `kept` before its own turn comes, so both are rescanned.
                MarkStyle::IncrementalUpdate => {
                    assert_eq!((pause.retraced, pause.dirty_rescanned), (0, 2));
                }
            }
            assert_eq!(h.gc.dirty_backlog(), 0);
            // SATB keeps `dropped` (black); IU frees it and the 63
            // unreachable objects alike.
            let expect = if style == MarkStyle::Satb { 63 } else { 64 };
            assert_eq!(h.sweep(), expect, "{style:?}");
            assert!(h.store.is_live(kept) && h.store.is_live(root));
        }
    }

    #[test]
    fn sweep_frees_in_ascending_slot_order_across_words() {
        let mut h = Heap::new(MarkStyle::Satb);
        let all: Vec<GcRef> = (0..150).map(|_| obj(&mut h)).collect();
        // Keep every third object, and all of slots 64..128 so one mark
        // word is full.
        let roots: Vec<GcRef> = all
            .iter()
            .copied()
            .filter(|r| r.index() % 3 == 0 || (64..128).contains(&r.index()))
            .collect();
        h.gc.begin_marking(&mut h.store, &roots);
        h.gc.remark(&mut h.store, &roots);
        let garbage: Vec<GcRef> = all.iter().copied().filter(|r| !roots.contains(r)).collect();
        assert_eq!(h.sweep(), garbage.len());
        assert_eq!(h.store.live_count(), roots.len());
        // The free list is a stack: allocation hands slots back in
        // descending order of the ascending sweep.
        let reused: Vec<GcRef> = garbage.iter().map(|_| obj(&mut h)).collect();
        let mut expected = garbage;
        expected.reverse();
        assert_eq!(reused, expected);
    }

    #[test]
    fn marks_cleared_between_cycles_and_slot_reuse_safe() {
        let mut h = Heap::new(MarkStyle::Satb);
        let a = obj(&mut h);
        let g = obj(&mut h);
        h.gc.begin_marking(&mut h.store, &[a, g]);
        h.gc.remark(&mut h.store, &[a]);
        assert!(h.gc.is_marked(g));
        // Second cycle: g no longer a root.
        h.gc.begin_marking(&mut h.store, &[a]);
        h.gc.remark(&mut h.store, &[a]);
        assert!(!h.gc.is_marked(g));
        assert_eq!(h.sweep(), 1);
        // The freed slot is reused; its stale mark must not leak.
        let n = obj(&mut h);
        assert_eq!(n, g);
        assert!(!h.gc.is_marked(n));
    }
}
