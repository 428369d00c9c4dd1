//! The barrier-necessity oracle: runtime ground truth for the static
//! elision judgment.
//!
//! The static analysis keeps a barrier whenever it cannot *prove* the
//! store's pre-value null (or the receiver thread-local, for the
//! escape-based argument). Keeping is always sound — but how often was
//! the kept barrier actually *necessary*? An SATB enqueue is necessary
//! only when every clause below holds at the store:
//!
//! 1. a marking cycle is **active** (otherwise the log is dropped);
//! 2. the overwritten value is a **non-null** heap reference;
//! 3. that reference is **white** — not yet marked this cycle (a black
//!    target is already safe);
//! 4. the reference is not **already pending** in the SATB log (a
//!    duplicate enqueue adds nothing the earlier entry didn't).
//!
//! Executions failing any clause are *vacuous*: the enqueue (or the
//! whole barrier, in the marking-idle case) could have been skipped on
//! this execution with no effect on the mark state. The per-site tally
//! of verdicts is the dynamic upper bound on elision: a site whose kept
//! barrier was vacuous on **every** execution is one a perfect analysis
//! could have elided — on these executions — and is exactly the worklist
//! the interprocedural-precision roadmap item should attack first.
//!
//! Necessary enqueues are further audited against the heap's own
//! snapshot-reachability machinery at the remark rendezvous
//! ([`crate::machine::Interp`] calls [`OracleState::classify_witnesses`]
//! with [`wbe_heap::verify::reachable_set`]): an enqueued ref that is no
//! longer root-reachable at remark had the SATB log as its **sole
//! witness** — dropping that barrier would have freed a
//! snapshot-reachable object. Refs still root-reachable at remark were
//! *shielded*: some other path would have shaded them anyway. The
//! sole/shielded split measures how load-bearing the necessary barriers
//! are, and the post-remark audit ([`OracleState::finish_cycle_audit`])
//! cross-checks that every necessary enqueue's target did end the cycle
//! marked — the oracle validating the collector and vice versa.
//!
//! Verdicts are deterministic: the interpreter's GC policy steps marking
//! at fixed instruction/allocation counts, the deterministic scheduler
//! fixes logical thread interleaving, and the oracle's own pending set
//! is engine-independent because both engines call the same hooks in
//! the same store order. `barrier_path.golden` pins both loops' per-site
//! verdicts and audit counters on top of this.

use std::collections::{BTreeMap, BTreeSet};

use wbe_heap::verify::ReachSet;
use wbe_heap::GcRef;
use wbe_ir::{InsnAddr, MethodId};

/// The per-execution classification of one kept-barrier run, in
/// evaluation order (the first failing clause names the verdict).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NecessityVerdict {
    /// No marking cycle active: the enqueue is dropped on the floor.
    MarkingIdle,
    /// The overwritten value was null: nothing to log.
    NullOld,
    /// The overwritten value was already marked (black) this cycle.
    AlreadyMarked,
    /// The overwritten value is already pending in the SATB log.
    Duplicate,
    /// White, non-null, unlogged, during marking: the enqueue mattered.
    Necessary,
}

impl NecessityVerdict {
    /// Stable lowercase code used in reports and NDJSON.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            NecessityVerdict::MarkingIdle => "marking-idle",
            NecessityVerdict::NullOld => "null-old",
            NecessityVerdict::AlreadyMarked => "already-marked",
            NecessityVerdict::Duplicate => "duplicate",
            NecessityVerdict::Necessary => "necessary",
        }
    }
}

/// Accumulated necessity verdicts for one kept store site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiteNecessity {
    /// Kept-barrier executions witnessed (sum of the five verdicts).
    pub executions: u64,
    /// Executions with an active cycle whose enqueue mattered.
    pub necessary: u64,
    /// Vacuous: no cycle was active.
    pub marking_idle: u64,
    /// Vacuous: overwritten value was null.
    pub null_old: u64,
    /// Vacuous: overwritten value already marked.
    pub already_marked: u64,
    /// Vacuous: overwritten value already pending in the log.
    pub duplicate: u64,
    /// Necessary enqueues that were the *sole* snapshot witness (target
    /// unreachable from roots at remark).
    pub sole_witness: u64,
    /// Necessary enqueues whose target was still root-reachable at
    /// remark (another path would have shaded it).
    pub shielded: u64,
    /// Executions whose receiver had already escaped (per the heap's
    /// witness table) at store time.
    pub receiver_escaped: u64,
}

impl SiteNecessity {
    /// True if no execution of this kept site ever needed its enqueue —
    /// the site a perfect analysis could have elided on these runs.
    #[must_use]
    pub fn never_necessary(&self) -> bool {
        self.executions > 0 && self.necessary == 0
    }

    /// The dominant vacuity class, as a stable code (ties broken in
    /// clause order). `"necessary"` if any execution was necessary.
    #[must_use]
    pub fn dominant(&self) -> &'static str {
        if self.necessary > 0 {
            return NecessityVerdict::Necessary.code();
        }
        let classes = [
            (self.marking_idle, NecessityVerdict::MarkingIdle),
            (self.null_old, NecessityVerdict::NullOld),
            (self.already_marked, NecessityVerdict::AlreadyMarked),
            (self.duplicate, NecessityVerdict::Duplicate),
        ];
        let mut best: (u64, &'static str) = (0, "none");
        for (n, v) in classes {
            if n > best.0 {
                best = (n, v.code());
            }
        }
        best.1
    }
}

/// Oracle state carried by an interpreter (behind `set_oracle(true)`).
///
/// The pending set mirrors what the oracle has seen enqueued this cycle
/// from hooked kept sites. It deliberately does **not** consult the
/// collector's own `satb_pending` per store: the collector drains its
/// buffer incrementally (drained entries are shaded, so the
/// already-marked clause subsumes them), and an oracle-owned set is
/// engine-identical by construction. `satb_pending` remains the
/// cross-check used by tests.
#[derive(Clone, Debug, Default)]
pub struct OracleState {
    /// Per-site verdict tallies, keyed and ordered like the
    /// interpreter's per-site barrier counters.
    pub sites: BTreeMap<(MethodId, InsnAddr), SiteNecessity>,
    /// Refs this oracle observed enqueued during the current cycle.
    pending: BTreeSet<GcRef>,
    /// (site, ref) pairs judged necessary this cycle, for the remark
    /// audit.
    cycle_enqueued: Vec<((MethodId, InsnAddr), GcRef)>,
    /// Marking cycles whose remark the oracle audited.
    pub cycles_audited: u64,
    /// Necessary-enqueued refs found live-but-unmarked after remark
    /// (should be zero unless fault injection corrupted the cycle).
    pub audit_violations: u64,
}

impl OracleState {
    /// Creates empty oracle state.
    #[must_use]
    pub fn new() -> Self {
        OracleState::default()
    }

    /// True if `r` was enqueued (and judged necessary) this cycle.
    #[must_use]
    pub fn is_pending(&self, r: GcRef) -> bool {
        self.pending.contains(&r)
    }

    /// Records one kept-barrier execution's verdict. `Necessary`
    /// verdicts also join the pending set and the cycle audit list.
    pub fn record(
        &mut self,
        key: (MethodId, InsnAddr),
        verdict: NecessityVerdict,
        old: Option<GcRef>,
        receiver_escaped: bool,
    ) {
        let site = self.sites.entry(key).or_default();
        site.executions += 1;
        if receiver_escaped {
            site.receiver_escaped += 1;
        }
        match verdict {
            NecessityVerdict::MarkingIdle => site.marking_idle += 1,
            NecessityVerdict::NullOld => site.null_old += 1,
            NecessityVerdict::AlreadyMarked => site.already_marked += 1,
            NecessityVerdict::Duplicate => site.duplicate += 1,
            NecessityVerdict::Necessary => {
                site.necessary += 1;
                let r = old.expect("necessary verdict implies non-null old");
                self.pending.insert(r);
                self.cycle_enqueued.push((key, r));
            }
        }
    }

    /// Pre-remark half of the cycle audit: splits this cycle's
    /// necessary enqueues into sole-witness (target not in `reachable`,
    /// the root-reachable set at the remark rendezvous) vs shielded.
    pub fn classify_witnesses(&mut self, reachable: &ReachSet) {
        for &(key, r) in &self.cycle_enqueued {
            let Some(site) = self.sites.get_mut(&key) else {
                continue;
            };
            if reachable.contains(&r) {
                site.shielded += 1;
            } else {
                site.sole_witness += 1;
            }
        }
    }

    /// Post-remark half: every necessary-enqueued target that is still
    /// live must have ended the cycle marked. Clears per-cycle state.
    pub fn finish_cycle_audit(&mut self, heap: &wbe_heap::Heap) {
        self.cycles_audited += 1;
        for &(_, r) in &self.cycle_enqueued {
            if heap.store.get(r).is_ok() && !heap.gc.is_marked(r) {
                self.audit_violations += 1;
            }
        }
        self.cycle_enqueued.clear();
        self.pending.clear();
    }

    /// True if any necessary enqueue is awaiting its remark audit.
    #[must_use]
    pub fn cycle_open(&self) -> bool {
        !self.cycle_enqueued.is_empty()
    }

    /// Total kept executions across all sites.
    #[must_use]
    pub fn total_executions(&self) -> u64 {
        self.sites.values().map(|s| s.executions).sum()
    }

    /// Total necessary executions across all sites.
    #[must_use]
    pub fn total_necessary(&self) -> u64 {
        self.sites.values().map(|s| s.necessary).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> (MethodId, InsnAddr) {
        (MethodId(i), InsnAddr::new(wbe_ir::BlockId(0), 0))
    }

    fn r(i: u32) -> GcRef {
        GcRef(i)
    }

    #[test]
    fn verdict_tallies_and_never_necessary() {
        let mut o = OracleState::new();
        o.record(key(1), NecessityVerdict::NullOld, None, false);
        o.record(key(1), NecessityVerdict::MarkingIdle, Some(r(3)), true);
        let s = o.sites[&key(1)];
        assert!(s.never_necessary());
        assert_eq!(s.executions, 2);
        assert_eq!(s.receiver_escaped, 1);
        assert_eq!(s.dominant(), "marking-idle"); // ties break clause order
        o.record(key(1), NecessityVerdict::Necessary, Some(r(3)), false);
        assert!(!o.sites[&key(1)].never_necessary());
        assert_eq!(o.sites[&key(1)].dominant(), "necessary");
        assert!(o.is_pending(r(3)));
    }

    #[test]
    fn duplicate_detection_uses_the_pending_set() {
        let mut o = OracleState::new();
        o.record(key(1), NecessityVerdict::Necessary, Some(r(7)), false);
        assert!(o.is_pending(r(7)));
        // The caller classifies the second enqueue Duplicate.
        o.record(key(2), NecessityVerdict::Duplicate, Some(r(7)), false);
        assert_eq!(o.sites[&key(2)].duplicate, 1);
        assert_eq!(o.total_necessary(), 1);
    }

    #[test]
    fn witness_classification_splits_sole_and_shielded() {
        let mut o = OracleState::new();
        o.record(key(1), NecessityVerdict::Necessary, Some(r(10)), false);
        o.record(key(1), NecessityVerdict::Necessary, Some(r(11)), false);
        let reachable: ReachSet = [r(11)].into_iter().collect();
        o.classify_witnesses(&reachable);
        let s = o.sites[&key(1)];
        assert_eq!(s.sole_witness, 1); // r(10) had only the log
        assert_eq!(s.shielded, 1); // r(11) was still rooted
    }

    #[test]
    fn cycle_end_clears_pending_state() {
        let mut o = OracleState::new();
        o.record(key(1), NecessityVerdict::Necessary, Some(r(4)), false);
        assert!(o.cycle_open());
        let heap = wbe_heap::Heap::new(wbe_heap::gc::MarkStyle::Satb);
        o.finish_cycle_audit(&heap);
        assert!(!o.cycle_open());
        assert!(!o.is_pending(r(4)));
        assert_eq!(o.cycles_audited, 1);
        // r(4) was never allocated, so it is not live: no violation.
        assert_eq!(o.audit_violations, 0);
    }
}
