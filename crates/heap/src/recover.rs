//! Runtime recovery: barrier panic mode and elision revocation.
//!
//! The static analyses *prove* elisions sound, and two dynamic oracles
//! check those proofs at run time: the per-site pre-null oracle
//! (`Trap::UnsoundElision` in the interpreter) and the cycle-boundary
//! heap-invariant verifier ([`crate::verify`]). Until now both oracles
//! were terminal — any detected violation killed the run. This module
//! turns them into *bounded self-healing*, the runtime counterpart of
//! the analysis layer's "degraded ⇒ elide nothing" rule:
//!
//! 1. On a detected violation the [`RecoveryController`] enters
//!    **barrier panic mode**: every statically-elided barrier site is
//!    globally revoked, so the mutator takes the conservative
//!    full-barrier path from then on. The interpreter's barrier
//!    dispatch consults the controller before trusting an elision.
//! 2. The marking-cycle driver's tail ([`crate::cycle`], under
//!    `PostMarkPolicy::Recover`) forces a full **stop-the-world
//!    re-mark** from the roots, rebuilding the mark state the violation
//!    corrupted, then re-verifies the invariants and sweeps.
//! 3. On success the mutator **resumes** (with barriers conservatively
//!    restored); each elided site that executes afterwards is recorded
//!    in a per-site revocation table keyed by [`SiteKey`], which the
//!    harness joins with the elision provenance ledger on that key so
//!    `wbe_tool explain` shows runtime revocations alongside the static
//!    keep-codes.
//! 4. Only after [`RecoveryPolicy::max_attempts`] *consecutive failed*
//!    recoveries (the re-mark itself re-violates) does the original
//!    trap fire — persistent corruption (e.g. dangling references that
//!    no amount of re-marking can repair) still terminates the run.
//!
//! The controller is a plain struct (no atomics), held by the
//! marking-cycle driver of a world that recovers (the interpreter's).
//! Its [`RecoveryStats`] reach the `gc.recovery.*` registry counters
//! through one [`wbe_telemetry::Deltas`].

use std::collections::BTreeSet;

/// A barrier site as the runtime identifies it: `(method ordinal,
/// block, instruction index)`. The heap crate has no IR types; the
/// interpreter maps its `(MethodId, InsnAddr)` pairs into this key and
/// back.
pub type SiteKey = (u64, u32, u32);

/// What the controller tells the caller to do about a violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Enter panic mode, force a stop-the-world re-mark, and resume.
    Recover,
    /// The consecutive-failure budget is exhausted: raise the original
    /// trap.
    Trap,
}

/// Tunables for the recovery layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// `K`: consecutive failed recovery attempts before the original
    /// trap fires.
    pub max_attempts: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { max_attempts: 3 }
    }
}

/// Lifetime counters, mirrored into the registry as `gc.recovery.*`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Recovery attempts started (violations that entered panic mode).
    pub attempted: u64,
    /// Attempts whose re-mark re-established the invariants.
    pub succeeded: u64,
    /// Attempts whose re-mark re-violated.
    pub failed: u64,
    /// Distinct sites with a runtime revocation record.
    pub revoked_sites: u64,
    /// Elided executions gated to the full-barrier path by panic mode.
    pub gated_elisions: u64,
    /// Transitions into panic mode (at most one per controller: panic
    /// is sticky).
    pub panic_entries: u64,
}

/// One runtime revocation: an elided site whose barrier was restored
/// because the run entered panic mode (or because its own oracle
/// fired). Joined with the provenance ledger by the harness, on
/// [`site`](Self::site).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RevocationRecord {
    /// The revoked site.
    pub site: SiteKey,
    /// Human-readable reason: the triggering check and its detail.
    pub reason: String,
    /// Short classifier of the trigger: `"oracle"` for a per-site
    /// pre-null oracle failure, `"invariant"` for a verifier failure.
    pub trigger: &'static str,
    /// The recovery attempt ordinal in force when the site was revoked.
    pub attempt: u64,
}

/// The recovery state machine: panic mode, the per-site revocation
/// table, and the consecutive-failure budget.
#[derive(Clone, Debug)]
pub struct RecoveryController {
    policy: RecoveryPolicy,
    panic_mode: bool,
    /// Reason panic mode was entered (the first triggering check);
    /// copied into revocation records created while gating.
    panic_reason: String,
    consecutive_failures: u32,
    in_attempt: bool,
    revoked: BTreeSet<SiteKey>,
    revocations: Vec<RevocationRecord>,
    /// Lifetime counters.
    pub stats: RecoveryStats,
    mirror: wbe_telemetry::Deltas<6>,
}

impl RecoveryController {
    /// A controller in normal (non-panic) mode.
    pub fn new(policy: RecoveryPolicy) -> Self {
        RecoveryController {
            policy,
            panic_mode: false,
            panic_reason: String::new(),
            consecutive_failures: 0,
            in_attempt: false,
            revoked: BTreeSet::new(),
            revocations: Vec::new(),
            stats: RecoveryStats::default(),
            mirror: wbe_telemetry::Deltas::default(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> RecoveryPolicy {
        self.policy
    }

    /// Is barrier panic mode engaged? Panic is sticky: once a violation
    /// is detected, elisions stay revoked for the rest of the run even
    /// after a successful re-mark ("degraded ⇒ elide nothing").
    pub fn in_panic(&self) -> bool {
        self.panic_mode
    }

    /// The reason panic mode was entered (empty in normal mode).
    pub fn panic_reason(&self) -> &str {
        &self.panic_reason
    }

    /// Reports a detected violation. Returns [`RecoveryAction::Recover`]
    /// while the consecutive-failure budget lasts — entering (sticky)
    /// panic mode and opening a recovery attempt — or
    /// [`RecoveryAction::Trap`] once `max_attempts` consecutive
    /// recoveries have failed.
    pub fn on_violation(&mut self, reason: &str) -> RecoveryAction {
        if self.consecutive_failures >= self.policy.max_attempts {
            return RecoveryAction::Trap;
        }
        if !self.panic_mode {
            self.panic_mode = true;
            self.panic_reason = reason.to_string();
            self.stats.panic_entries += 1;
        }
        self.stats.attempted += 1;
        self.in_attempt = true;
        RecoveryAction::Recover
    }

    /// The open recovery attempt's re-mark re-violated.
    pub fn attempt_failed(&mut self) {
        if !self.in_attempt {
            return;
        }
        self.in_attempt = false;
        self.stats.failed += 1;
        self.consecutive_failures += 1;
    }

    /// The open recovery attempt's re-mark re-established the
    /// invariants; execution resumes (elisions stay revoked).
    pub fn recovered(&mut self) {
        if !self.in_attempt {
            return;
        }
        self.in_attempt = false;
        self.stats.succeeded += 1;
        self.consecutive_failures = 0;
    }

    /// Barrier-dispatch consult: may the statically-elided site run
    /// without its barrier? False once panic mode engaged or the site
    /// was individually revoked; each gating is counted.
    pub fn elide_allowed(&mut self, site: SiteKey) -> bool {
        if self.panic_mode || self.revoked.contains(&site) {
            self.stats.gated_elisions += 1;
            false
        } else {
            true
        }
    }

    /// Is there a revocation record for `site` already?
    pub fn site_revoked(&self, site: SiteKey) -> bool {
        self.revoked.contains(&site)
    }

    /// Records a per-site revocation (first revocation of a site wins;
    /// later calls are no-ops). `reason`/`trigger` name the check that
    /// forced it.
    pub fn revoke(&mut self, site: SiteKey, reason: &str, trigger: &'static str) {
        if !self.revoked.insert(site) {
            return;
        }
        self.stats.revoked_sites += 1;
        self.revocations.push(RevocationRecord {
            site,
            reason: reason.to_string(),
            trigger,
            attempt: self.stats.attempted,
        });
    }

    /// The revocation table, in revocation order.
    pub fn revocations(&self) -> &[RevocationRecord] {
        &self.revocations
    }

    /// Mirrors counter deltas since the previous publish into the
    /// global registry under `gc.recovery.*`.
    pub fn publish_metrics(&mut self) {
        let s = self.stats;
        self.mirror.publish([
            ("gc.recovery.attempted", s.attempted),
            ("gc.recovery.succeeded", s.succeeded),
            ("gc.recovery.failed", s.failed),
            ("gc.recovery.revoked_sites", s.revoked_sites),
            ("gc.recovery.gated_elisions", s.gated_elisions),
            ("gc.recovery.panic_entries", s.panic_entries),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_until_budget_then_traps() {
        let mut rc = RecoveryController::new(RecoveryPolicy { max_attempts: 2 });
        assert_eq!(rc.on_violation("post-mark"), RecoveryAction::Recover);
        assert!(rc.in_panic());
        rc.attempt_failed();
        assert_eq!(rc.on_violation("post-mark"), RecoveryAction::Recover);
        rc.attempt_failed();
        assert_eq!(
            rc.on_violation("post-mark"),
            RecoveryAction::Trap,
            "K consecutive failures exhaust the budget"
        );
        assert_eq!(rc.stats.attempted, 2);
        assert_eq!(rc.stats.failed, 2);
        assert_eq!(rc.stats.succeeded, 0);
    }

    #[test]
    fn success_resets_failure_budget_but_panic_sticks() {
        let mut rc = RecoveryController::new(RecoveryPolicy { max_attempts: 1 });
        assert_eq!(rc.on_violation("a"), RecoveryAction::Recover);
        rc.recovered();
        assert!(rc.in_panic(), "panic mode is sticky after recovery");
        assert_eq!(rc.panic_reason(), "a");
        // A fresh violation gets a fresh budget.
        assert_eq!(rc.on_violation("b"), RecoveryAction::Recover);
        rc.attempt_failed();
        assert_eq!(rc.on_violation("b"), RecoveryAction::Trap);
        assert_eq!(rc.stats.succeeded, 1);
        assert_eq!(rc.stats.panic_entries, 1, "one sticky entry");
    }

    #[test]
    fn panic_gates_elision_and_records_each_site_once() {
        let mut rc = RecoveryController::new(RecoveryPolicy::default());
        let site = (3, 1, 0);
        assert!(rc.elide_allowed(site), "normal mode: elision allowed");
        rc.on_violation("post-sweep: unmarked live");
        assert!(!rc.elide_allowed(site));
        rc.revoke(site, "post-sweep: unmarked live", "invariant");
        rc.revoke(site, "later duplicate", "invariant");
        assert_eq!(rc.revocations().len(), 1, "first revocation wins");
        assert_eq!(rc.stats.revoked_sites, 1);
        assert!(!rc.elide_allowed(site), "still gated after revocation");
        assert_eq!(rc.stats.gated_elisions, 2);
        assert_eq!(rc.revocations()[0].site, site);
        assert!(rc.site_revoked(site));
    }

    #[test]
    fn empty_revocation_table_is_inert() {
        let mut rc = RecoveryController::new(RecoveryPolicy::default());
        assert!(rc.revocations().is_empty());
        assert!(!rc.site_revoked((0, 0, 0)));
        assert_eq!(rc.stats.revoked_sites, 0);
        // Every site elides freely and nothing is counted as gated.
        for site in [(0, 0, 0), (7, 3, 2), (u64::MAX, u32::MAX, u32::MAX)] {
            assert!(rc.elide_allowed(site));
        }
        assert_eq!(rc.stats.gated_elisions, 0);
        // Publishing an empty table is a no-op, not a panic.
        rc.publish_metrics();
        assert!(!rc.in_panic());
        assert_eq!(rc.panic_reason(), "");
    }

    #[test]
    fn repeated_revocation_is_idempotent_across_attempts() {
        let mut rc = RecoveryController::new(RecoveryPolicy::default());
        let site = (5, 2, 7);
        rc.on_violation("first");
        rc.revoke(site, "first", "invariant");
        rc.recovered();
        let snapshot = rc.revocations().to_vec();
        // Re-revoking the same site later — other attempt, other reason,
        // other trigger — changes nothing: first revocation wins.
        rc.on_violation("second");
        rc.revoke(site, "second", "oracle");
        rc.revoke(site, "third", "invariant");
        rc.recovered();
        assert_eq!(rc.revocations(), snapshot.as_slice());
        assert_eq!(rc.stats.revoked_sites, 1);
        assert_eq!(rc.revocations()[0].reason, "first");
        assert_eq!(rc.revocations()[0].attempt, 1, "records the first attempt");
        assert!(rc.site_revoked(site));
    }

    #[test]
    fn revocation_during_inflight_remark_lands_in_the_open_attempt() {
        let mut rc = RecoveryController::new(RecoveryPolicy { max_attempts: 3 });
        // First violation + successful re-mark: attempt 1 closes.
        rc.on_violation("warmup");
        rc.recovered();
        // Second violation opens attempt 2; the STW re-mark it forces
        // discovers a bad site *while the attempt is still open*.
        assert_eq!(
            rc.on_violation("post-mark: lost snapshot"),
            RecoveryAction::Recover
        );
        let site = (9, 4, 1);
        rc.revoke(site, "unmarked reachable during re-mark", "invariant");
        assert_eq!(
            rc.revocations()[0].attempt,
            2,
            "attributed to the open attempt"
        );
        // The site is gated immediately, before the attempt resolves.
        assert!(!rc.elide_allowed(site));
        rc.recovered();
        // Resolution doesn't disturb the table, and the budget reset
        // didn't clear the sticky panic or the revocation.
        assert_eq!(rc.revocations().len(), 1);
        assert!(rc.in_panic());
        assert!(rc.site_revoked(site));
        assert_eq!(rc.stats.succeeded, 2);
        // A failed re-mark after the revocation leaves the record alone.
        rc.on_violation("again");
        rc.attempt_failed();
        assert_eq!(rc.revocations().len(), 1);
        assert_eq!(rc.stats.revoked_sites, 1);
    }

    #[test]
    fn single_site_revocation_without_panic() {
        let mut rc = RecoveryController::new(RecoveryPolicy::default());
        let bad = (0, 2, 5);
        let good = (0, 2, 6);
        rc.revoke(bad, "non-null pre-value", "oracle");
        assert!(!rc.elide_allowed(bad), "revoked site is gated");
        assert!(rc.elide_allowed(good), "other sites unaffected");
        assert_eq!(rc.revocations()[0].trigger, "oracle");
        assert_eq!(rc.revocations()[0].site, bad);
    }
}
