//! Deterministic GC fault injection.
//!
//! A [`FaultPlan`] is a stream of perturbation decisions derived from a
//! single `u64` seed (SplitMix64). The interpreter consults it at fixed
//! points in execution — marking-start decisions, concurrent mark steps,
//! allocations — so the whole fault schedule is a pure function of the
//! seed and the instruction stream. Replaying the same program with the
//! same seed reproduces the same schedule bit for bit, which is what
//! makes failures found by the verification harness debuggable.
//!
//! The injected faults stress exactly the windows the paper's soundness
//! argument depends on: *when* a marking cycle starts and finishes
//! relative to mutator stores (SATB snapshot timing), how much SATB
//! buffer drain pressure the marker sees, and allocation failures that
//! force the emergency full-pause degradation path.

use std::fmt;

use crate::mix::SplitMix64;

/// Budget multiplier applied on a drain-pressure boost.
pub(crate) const DRAIN_BOOST_FACTOR: usize = 16;

/// Probabilities (in per-mille) and knobs for one fault schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed for the decision stream.
    pub seed: u64,
    /// ‰ chance a *due* marking start is deferred at that allocation
    /// (the trigger re-rolls on each subsequent allocation).
    pub defer_start_pm: u16,
    /// ‰ chance marking starts early at an allocation while idle.
    pub early_start_pm: u16,
    /// ‰ chance a scheduled concurrent mark step is skipped, delaying
    /// marking progress relative to mutator stores.
    pub skip_step_pm: u16,
    /// ‰ chance a scheduled mark step gets a drain-pressure boost
    /// (multiplied budget, forcing deep SATB-buffer drains).
    pub drain_boost_pm: u16,
    /// ‰ chance an allocation fails, exercising the emergency
    /// full-pause retry path.
    pub alloc_fail_pm: u16,
    /// Number of allocations guaranteed to succeed after an injected
    /// failure, so the mutator's retry always makes progress.
    pub alloc_grace: u32,
    /// ‰ chance the mark state is corrupted (one mark bit cleared)
    /// right after a cycle's remark — the chaos fault the recovery
    /// layer exists to heal. Zero in every standard schedule; the
    /// decision point is only consulted when non-zero, so enabling it
    /// does not perturb existing seeded streams.
    pub corrupt_mark_pm: u16,
    /// ‰ chance an arrival window in the serve world turns into an
    /// overload burst (a clump of extra requests landing at once),
    /// driving the pressure ladder. Zero in every standard schedule;
    /// like `corrupt_mark_pm`, the decision point is only consulted
    /// when non-zero, so enabling it does not perturb existing seeded
    /// streams.
    pub overload_burst_pm: u16,
    /// Extra requests injected per overload burst.
    pub overload_burst_len: u32,
}

impl FaultConfig {
    /// The standard schedule shape used by the verification harness.
    pub fn from_seed(seed: u64) -> Self {
        FaultConfig {
            seed,
            defer_start_pm: 250,
            early_start_pm: 60,
            skip_step_pm: 250,
            drain_boost_pm: 150,
            alloc_fail_pm: 15,
            alloc_grace: 16,
            corrupt_mark_pm: 0,
            overload_burst_pm: 0,
            overload_burst_len: 24,
        }
    }

    /// Scales the schedule for chaos-soak escalation `level` (0 = the
    /// standard schedule). Each level multiplies the perturbation rates
    /// (capped at 1000‰), shrinks the allocation grace window, and —
    /// from level 1 up — enables post-remark mark-state corruption so
    /// the recovery path is actually exercised.
    pub fn escalate(self, level: u32) -> Self {
        let scale = |pm: u16| -> u16 {
            let factor = 1 + u64::from(level.min(8));
            (u64::from(pm) * factor).min(1000) as u16
        };
        FaultConfig {
            seed: self.seed,
            defer_start_pm: scale(self.defer_start_pm),
            early_start_pm: scale(self.early_start_pm),
            skip_step_pm: scale(self.skip_step_pm),
            drain_boost_pm: scale(self.drain_boost_pm),
            alloc_fail_pm: scale(self.alloc_fail_pm),
            alloc_grace: (self.alloc_grace >> level.min(4)).max(2),
            corrupt_mark_pm: if level == 0 {
                self.corrupt_mark_pm
            } else {
                (25 * u16::try_from(level.min(8)).unwrap_or(8)).min(1000)
            },
            overload_burst_pm: scale(self.overload_burst_pm),
            overload_burst_len: self.overload_burst_len,
        }
    }
}

/// Counts of decisions taken, for reporting and reproducibility checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Total decision points consulted.
    pub decisions: u64,
    /// Due marking starts deferred.
    pub deferred_starts: u64,
    /// Early marking starts forced.
    pub early_starts: u64,
    /// Concurrent mark steps skipped.
    pub skipped_steps: u64,
    /// Mark steps given a drain-pressure boost.
    pub drain_boosts: u64,
    /// Allocation failures injected.
    pub alloc_failures: u64,
    /// Post-remark mark-state corruptions injected.
    pub mark_corruptions: u64,
    /// Overload bursts injected into serve-world arrivals.
    pub overload_bursts: u64,
}

impl FaultStats {
    /// Total faults actually injected (not just decision points).
    pub fn injected(&self) -> u64 {
        self.deferred_starts
            + self.early_starts
            + self.skipped_steps
            + self.drain_boosts
            + self.alloc_failures
            + self.mark_corruptions
            + self.overload_bursts
    }
}

impl fmt::Display for FaultStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} faults ({} deferred starts, {} early starts, {} skipped steps, \
             {} drain boosts, {} alloc failures, {} mark corruptions, \
             {} overload bursts) over {} decisions",
            self.injected(),
            self.deferred_starts,
            self.early_starts,
            self.skipped_steps,
            self.drain_boosts,
            self.alloc_failures,
            self.mark_corruptions,
            self.overload_bursts,
            self.decisions
        )
    }
}

/// A seeded, deterministic fault schedule.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: SplitMix64,
    grace: u32,
    /// Decisions taken so far.
    pub stats: FaultStats,
}

impl FaultPlan {
    /// Builds a plan from an explicit configuration.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan {
            cfg,
            rng: SplitMix64(cfg.seed),
            grace: 0,
            stats: FaultStats::default(),
        }
    }

    /// Builds the standard plan for `seed`.
    pub fn from_seed(seed: u64) -> Self {
        FaultPlan::new(FaultConfig::from_seed(seed))
    }

    /// The seed this plan was built from.
    pub fn seed(&self) -> u64 {
        self.cfg.seed
    }

    /// One biased coin flip with probability `pm`/1000.
    fn roll(&mut self, pm: u16) -> bool {
        self.stats.decisions += 1;
        self.rng.next() % 1000 < u64::from(pm)
    }

    /// Should a *due* marking start be deferred at this allocation?
    pub fn defer_marking_start(&mut self) -> bool {
        let hit = self.roll(self.cfg.defer_start_pm);
        self.stats.deferred_starts += u64::from(hit);
        hit
    }

    /// Should marking start early at this allocation while idle?
    pub fn early_marking_start(&mut self) -> bool {
        let hit = self.roll(self.cfg.early_start_pm);
        self.stats.early_starts += u64::from(hit);
        hit
    }

    /// Should this scheduled concurrent mark step be skipped?
    pub fn skip_mark_step(&mut self) -> bool {
        let hit = self.roll(self.cfg.skip_step_pm);
        self.stats.skipped_steps += u64::from(hit);
        hit
    }

    /// Drain pressure: should this mark step's budget be multiplied by
    /// the boost factor?
    pub fn drain_pressure(&mut self) -> bool {
        let hit = self.roll(self.cfg.drain_boost_pm);
        self.stats.drain_boosts += u64::from(hit);
        hit
    }

    /// Should this allocation fail? After an injected failure, the next
    /// [`FaultConfig::alloc_grace`] allocations are guaranteed to
    /// succeed so the emergency-pause retry path always makes progress.
    pub fn should_fail_alloc(&mut self) -> bool {
        if self.grace > 0 {
            self.grace -= 1;
            return false;
        }
        let hit = self.roll(self.cfg.alloc_fail_pm);
        if hit {
            self.stats.alloc_failures += 1;
            self.grace = self.cfg.alloc_grace;
        }
        hit
    }

    /// Should the mark state be corrupted after this cycle's remark?
    /// Never consults the decision stream while the knob is zero, so
    /// standard (non-chaos) schedules keep bit-identical streams.
    pub fn corrupt_post_mark(&mut self) -> bool {
        if self.cfg.corrupt_mark_pm == 0 {
            return false;
        }
        let hit = self.roll(self.cfg.corrupt_mark_pm);
        self.stats.mark_corruptions += u64::from(hit);
        hit
    }

    /// Should this arrival window carry an overload burst, and if so,
    /// how many extra requests? Never consults the decision stream
    /// while the knob is zero, so standard schedules keep bit-identical
    /// streams.
    pub fn overload_burst(&mut self) -> Option<u32> {
        if self.cfg.overload_burst_pm == 0 {
            return None;
        }
        if self.roll(self.cfg.overload_burst_pm) {
            self.stats.overload_bursts += 1;
            Some(self.cfg.overload_burst_len)
        } else {
            None
        }
    }

    /// A digest of the plan's entire history: equal digests mean equal
    /// decision streams. Used to assert seed-reproducibility.
    pub fn digest(&self) -> u64 {
        let mut d = self.rng.0 ^ self.cfg.seed.rotate_left(17);
        for part in [
            self.stats.decisions,
            self.stats.deferred_starts,
            self.stats.early_starts,
            self.stats.skipped_steps,
            self.stats.drain_boosts,
            self.stats.alloc_failures,
            self.stats.mark_corruptions,
            self.stats.overload_bursts,
        ] {
            d = (d ^ part).wrapping_mul(0x100_0000_01b3);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = FaultPlan::from_seed(42);
        let mut b = FaultPlan::from_seed(42);
        for _ in 0..1000 {
            assert_eq!(a.defer_marking_start(), b.defer_marking_start());
            assert_eq!(a.skip_mark_step(), b.skip_mark_step());
            assert_eq!(a.drain_pressure(), b.drain_pressure());
            assert_eq!(a.should_fail_alloc(), b.should_fail_alloc());
        }
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultPlan::from_seed(1);
        let mut b = FaultPlan::from_seed(2);
        let va: Vec<bool> = (0..256).map(|_| a.skip_mark_step()).collect();
        let vb: Vec<bool> = (0..256).map(|_| b.skip_mark_step()).collect();
        assert_ne!(va, vb);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn alloc_grace_guarantees_retry_progress() {
        let mut p = FaultPlan::new(FaultConfig {
            alloc_fail_pm: 1000, // always fail when not in grace
            alloc_grace: 3,
            ..FaultConfig::from_seed(7)
        });
        assert!(p.should_fail_alloc());
        assert!(!p.should_fail_alloc());
        assert!(!p.should_fail_alloc());
        assert!(!p.should_fail_alloc());
        assert!(p.should_fail_alloc(), "grace exhausted, fails again");
        assert_eq!(p.stats.alloc_failures, 2);
    }

    #[test]
    fn rates_roughly_match_per_mille() {
        let mut p = FaultPlan::from_seed(123);
        let n = 10_000;
        let hits = (0..n).filter(|_| p.roll(250)).count();
        let rate = hits as f64 / n as f64;
        assert!((0.2..0.3).contains(&rate), "rate {rate}");
    }

    #[test]
    fn disabled_corruption_never_touches_the_stream() {
        let mut plain = FaultPlan::from_seed(42);
        let mut chaosless = FaultPlan::from_seed(42);
        for _ in 0..500 {
            assert!(!chaosless.corrupt_post_mark(), "knob is 0: never fires");
            assert_eq!(plain.skip_mark_step(), chaosless.skip_mark_step());
            assert_eq!(plain.should_fail_alloc(), chaosless.should_fail_alloc());
        }
        assert_eq!(
            plain.digest(),
            chaosless.digest(),
            "corrupt_post_mark with pm=0 must not consume decisions"
        );
    }

    #[test]
    fn enabled_corruption_fires_and_counts() {
        let mut p = FaultPlan::new(FaultConfig {
            corrupt_mark_pm: 1000,
            ..FaultConfig::from_seed(11)
        });
        assert!(p.corrupt_post_mark());
        assert_eq!(p.stats.mark_corruptions, 1);
        assert_eq!(p.stats.injected(), 1);
    }

    #[test]
    fn escalate_scales_rates_and_enables_corruption() {
        let base = FaultConfig::from_seed(3);
        assert_eq!(base.escalate(0), base, "level 0 is the identity");
        let l2 = base.escalate(2);
        assert_eq!(l2.seed, base.seed, "seed never changes");
        assert_eq!(l2.defer_start_pm, base.defer_start_pm * 3);
        assert!(l2.corrupt_mark_pm > 0, "chaos on from level 1 up");
        assert!(l2.alloc_grace < base.alloc_grace);
        // Rates saturate instead of overflowing.
        let hot = base.escalate(40);
        assert!(hot.defer_start_pm <= 1000);
        assert!(hot.alloc_grace >= 2, "grace floor keeps retries viable");
    }

    #[test]
    fn disabled_overload_never_touches_the_stream() {
        let mut plain = FaultPlan::from_seed(42);
        let mut quiet = FaultPlan::from_seed(42);
        for _ in 0..500 {
            assert!(quiet.overload_burst().is_none(), "knob is 0: never fires");
            assert_eq!(plain.skip_mark_step(), quiet.skip_mark_step());
            assert_eq!(plain.should_fail_alloc(), quiet.should_fail_alloc());
        }
        assert_eq!(
            plain.digest(),
            quiet.digest(),
            "overload_burst with pm=0 must not consume decisions"
        );
    }

    #[test]
    fn enabled_overload_fires_with_configured_length() {
        let mut p = FaultPlan::new(FaultConfig {
            overload_burst_pm: 1000,
            overload_burst_len: 7,
            ..FaultConfig::from_seed(11)
        });
        assert_eq!(p.overload_burst(), Some(7));
        assert_eq!(p.stats.overload_bursts, 1);
        assert_eq!(p.stats.injected(), 1);
        let e = FaultConfig::from_seed(11).escalate(2);
        assert_eq!(e.overload_burst_pm, 0, "scaling zero stays zero");
    }

    #[test]
    fn stats_display_and_injected() {
        let mut p = FaultPlan::new(FaultConfig {
            skip_step_pm: 1000,
            ..FaultConfig::from_seed(9)
        });
        assert!(p.skip_mark_step());
        assert_eq!(p.stats.injected(), 1);
        assert!(p.stats.to_string().contains("skipped steps"));
    }
}
