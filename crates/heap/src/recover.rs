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
//!    restored). The controller keeps no per-site table: every
//!    revocation happens in panic mode, so the interpreter records
//!    each revoked site itself, in its `RunStats` under the
//!    `(MethodId, InsnAddr)` key of its other per-site tables, and
//!    bumps [`RecoveryStats::revoked_sites`]. The harness joins that
//!    record with the elision provenance ledger, so `wbe_tool explain`
//!    shows runtime revocations alongside the static keep-codes.
//! 4. Only after [`RecoveryPolicy::max_attempts`] *consecutive failed*
//!    recoveries (the re-mark itself re-violates) does the original
//!    trap fire — persistent corruption (e.g. dangling references that
//!    no amount of re-marking can repair) still terminates the run.
//!
//! The controller is a plain struct (no atomics), held by the
//! marking-cycle driver of a world that recovers (the interpreter's).
//! Its [`RecoveryStats`] reach the `gc.recovery.*` registry counters
//! through one [`wbe_telemetry::Deltas`].

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
    /// Distinct sites the interpreter recorded a revocation for.
    pub revoked_sites: u64,
    /// Elided executions gated to the full-barrier path by panic mode.
    pub gated_elisions: u64,
    /// Transitions into panic mode (at most one per controller: panic
    /// is sticky).
    pub panic_entries: u64,
}

/// The recovery state machine: panic mode and the consecutive-failure
/// budget.
#[derive(Clone, Debug)]
pub struct RecoveryController {
    policy: RecoveryPolicy,
    panic_mode: bool,
    /// Reason panic mode was entered (the first triggering check);
    /// the interpreter quotes it in the revocations it records while
    /// gating.
    panic_reason: String,
    consecutive_failures: u32,
    in_attempt: bool,
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
            stats: RecoveryStats::default(),
            mirror: wbe_telemetry::Deltas::default(),
        }
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

    /// Barrier-dispatch consult: may a statically-elided site run
    /// without its barrier? False once panic mode is engaged; each
    /// gating is counted.
    pub fn elide_allowed(&mut self) -> bool {
        if self.panic_mode {
            self.stats.gated_elisions += 1;
        }
        !self.panic_mode
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
}
