//! Heap-pressure controller: the graceful-degradation ladder.
//!
//! PR 2 gave the runtime exactly one answer to allocation pressure: the
//! emergency stop-the-world pause. That is a cliff — a server workload
//! whose allocation bursts outrun the concurrent marker falls straight
//! from "everything is fine" to "the world is stopped". This module
//! inserts the intermediate rungs a production collector has:
//!
//! | rung | actuator |
//! |------|----------|
//! | [`PressureLevel::Nominal`]    | none |
//! | [`PressureLevel::Pacing`]     | start/boost concurrent marking early |
//! | [`PressureLevel::Throttling`] | stall mutator allocation |
//! | [`PressureLevel::Shedding`]   | reject incoming requests (admission control) |
//! | [`PressureLevel::Emergency`]  | forced stop-the-world collection |
//!
//! The controller itself is a plain deterministic state machine: it
//! *decides* the rung from observed heap occupancy against a configured
//! budget (with hysteresis so the ladder does not flap), and *records*
//! every transition with a machine-readable reason. The actuators live
//! with the layer that owns the resources and the admission queue, the
//! serve world ([`crate::overload`]). Occupancy in, rung out: replaying
//! the same occupancy sequence replays the same transitions, which is
//! what keeps `wbe_tool serve` byte-identical for a seed.
//!
//! [`PressureStats`] reach the `gc.pressure.*` registry counters
//! through one [`wbe_telemetry::Deltas`]; the current rung is the
//! `gc.pressure.level` gauge.

use std::fmt;

/// Rungs of the degradation ladder, in escalation order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum PressureLevel {
    /// Occupancy under the pacing threshold; no intervention.
    #[default]
    Nominal,
    /// Marking is started (or boosted) earlier than the allocation
    /// trigger would ask for.
    Pacing,
    /// Mutator allocations are stalled to slow the burn rate.
    Throttling,
    /// New requests are rejected at admission (serve world only).
    Shedding,
    /// Final rung: a forced stop-the-world collection.
    Emergency,
}

impl PressureLevel {
    /// All rungs, in escalation order.
    pub const ALL: [PressureLevel; 5] = [
        PressureLevel::Nominal,
        PressureLevel::Pacing,
        PressureLevel::Throttling,
        PressureLevel::Shedding,
        PressureLevel::Emergency,
    ];

    /// Stable machine-readable name (used in telemetry keys, NDJSON,
    /// and transition reasons).
    pub fn name(self) -> &'static str {
        match self {
            PressureLevel::Nominal => "nominal",
            PressureLevel::Pacing => "pacing",
            PressureLevel::Throttling => "throttling",
            PressureLevel::Shedding => "shedding",
            PressureLevel::Emergency => "emergency",
        }
    }

    /// The machine-readable reason attached to a step *up onto* this
    /// rung (occupancy crossed the rung's threshold).
    pub fn ascend_reason(self) -> &'static str {
        match self {
            PressureLevel::Nominal => "occupancy-nominal",
            PressureLevel::Pacing => "occupancy-above-pace",
            PressureLevel::Throttling => "occupancy-above-throttle",
            PressureLevel::Shedding => "occupancy-above-shed",
            PressureLevel::Emergency => "occupancy-above-emergency",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    fn from_index(i: usize) -> PressureLevel {
        PressureLevel::ALL[i]
    }
}

impl fmt::Display for PressureLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Machine-readable reason for stepping one rung back down.
pub const DESCEND_REASON: &str = "occupancy-recovered";

/// Occupancy ≥ this % of the budget enters [`PressureLevel::Pacing`].
const PACE_PCT: usize = 60;
/// Occupancy ≥ this % enters [`PressureLevel::Throttling`].
const THROTTLE_PCT: usize = 75;
/// Occupancy ≥ this % enters [`PressureLevel::Shedding`].
const SHED_PCT: usize = 85;
/// Occupancy ≥ this % enters [`PressureLevel::Emergency`].
const EMERGENCY_PCT: usize = 95;
/// Hysteresis in percentage points: the controller steps down one rung
/// only once occupancy has dropped this far below the current rung's
/// threshold, so the ladder does not flap around a boundary.
const HYSTERESIS_PCT: usize = 5;
/// Abstract stall cycles an actuator charges per allocation while at
/// [`PressureLevel::Throttling`] or above.
const THROTTLE_STALL: u64 = 16;
/// Observations that must pass after a forced emergency pause before
/// the controller asks for another, bounding worst-case pause
/// clustering when the live set simply does not shrink.
const EMERGENCY_COOLDOWN: u64 = 32;

/// The ladder's budget; its thresholds are fixed percentages of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PressureConfig {
    /// Heap occupancy budget (live objects) the thresholds are
    /// percentages of. This is a *policy* budget, not an allocator
    /// limit: the store itself never refuses an allocation.
    pub budget: usize,
}

impl PressureConfig {
    /// The standard ladder shape over an explicit budget.
    pub fn with_budget(budget: usize) -> Self {
        PressureConfig { budget }
    }

    /// The occupancy (in objects) at which `level` engages.
    pub fn threshold(&self, level: PressureLevel) -> usize {
        let pct = match level {
            PressureLevel::Nominal => return 0,
            PressureLevel::Pacing => PACE_PCT,
            PressureLevel::Throttling => THROTTLE_PCT,
            PressureLevel::Shedding => SHED_PCT,
            PressureLevel::Emergency => EMERGENCY_PCT,
        };
        self.budget.saturating_mul(pct) / 100
    }

    fn hysteresis(&self) -> usize {
        self.budget.saturating_mul(HYSTERESIS_PCT) / 100
    }
}

impl Default for PressureConfig {
    fn default() -> Self {
        PressureConfig::with_budget(4096)
    }
}

/// One recorded ladder transition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PressureTransition {
    /// Rung before.
    pub from: PressureLevel,
    /// Rung after.
    pub to: PressureLevel,
    /// Machine-readable reason (`occupancy-above-*` going up,
    /// [`DESCEND_REASON`] going down).
    pub reason: &'static str,
    /// Observation ordinal at which the transition fired.
    pub at_observation: u64,
    /// Occupancy that triggered it.
    pub occupancy: usize,
}

impl fmt::Display for PressureTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} ({}, occupancy {} at obs {})",
            self.from, self.to, self.reason, self.occupancy, self.at_observation
        )
    }
}

/// Lifetime counters, mirrored into the registry as `gc.pressure.*`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PressureStats {
    /// Occupancy observations taken.
    pub observations: u64,
    /// Times [`PressureLevel::Pacing`] was entered from below.
    pub pace_entries: u64,
    /// Times [`PressureLevel::Throttling`] was entered from below.
    pub throttle_entries: u64,
    /// Times [`PressureLevel::Shedding`] was entered from below.
    pub shed_entries: u64,
    /// Times [`PressureLevel::Emergency`] was entered from below.
    pub emergency_entries: u64,
    /// Step-downs taken (one rung each).
    pub step_downs: u64,
    /// Early/boosted marking starts an actuator attributed to pacing.
    pub pace_starts: u64,
    /// Allocation stalls an actuator charged while throttling.
    pub throttle_stalls: u64,
    /// Requests rejected at admission while shedding.
    pub shed_requests: u64,
    /// Forced stop-the-world pauses taken on the emergency rung.
    pub emergency_pauses: u64,
}

impl PressureStats {
    /// Rung-entry counter for `level` (observations for `Nominal`).
    pub fn entries(&self, level: PressureLevel) -> u64 {
        match level {
            PressureLevel::Nominal => self.observations,
            PressureLevel::Pacing => self.pace_entries,
            PressureLevel::Throttling => self.throttle_entries,
            PressureLevel::Shedding => self.shed_entries,
            PressureLevel::Emergency => self.emergency_entries,
        }
    }
}

/// The ladder state machine. Deterministic: rung decisions are a pure
/// function of the observed occupancy sequence and the configuration.
#[derive(Clone, Debug)]
pub struct PressureController {
    cfg: PressureConfig,
    level: PressureLevel,
    /// The highest rung ever reached.
    high_water: PressureLevel,
    transitions: Vec<PressureTransition>,
    observations_since_emergency: u64,
    /// Lifetime counters.
    pub stats: PressureStats,
    mirror: wbe_telemetry::Deltas<10>,
}

impl PressureController {
    /// A controller at [`PressureLevel::Nominal`].
    pub fn new(cfg: PressureConfig) -> Self {
        PressureController {
            cfg,
            level: PressureLevel::Nominal,
            high_water: PressureLevel::Nominal,
            transitions: Vec::new(),
            observations_since_emergency: u64::MAX,
            stats: PressureStats::default(),
            mirror: wbe_telemetry::Deltas::default(),
        }
    }

    /// The current rung.
    pub fn level(&self) -> PressureLevel {
        self.level
    }

    /// The highest rung the run ever reached.
    pub fn high_water(&self) -> PressureLevel {
        self.high_water
    }

    /// Every transition taken, in order.
    pub fn transitions(&self) -> &[PressureTransition] {
        &self.transitions
    }

    /// Feeds one occupancy sample and returns the (possibly new) rung.
    /// Stepping up crosses rungs one at a time so every intermediate
    /// rung's entry is recorded with its own reason; stepping down takes
    /// one rung per observation and only once occupancy has fallen a
    /// hysteresis margin below the current rung's threshold.
    pub fn observe(&mut self, occupancy: usize) -> PressureLevel {
        self.stats.observations += 1;
        self.observations_since_emergency = self.observations_since_emergency.saturating_add(1);
        let target = self.target_for(occupancy);
        while self.level < target {
            let from = self.level;
            let to = PressureLevel::from_index(from.index() + 1);
            self.enter(from, to, to.ascend_reason(), occupancy);
        }
        if target < self.level {
            let threshold = self.cfg.threshold(self.level);
            if occupancy + self.cfg.hysteresis() < threshold {
                let from = self.level;
                let to = PressureLevel::from_index(from.index() - 1);
                self.enter(from, to, DESCEND_REASON, occupancy);
                self.stats.step_downs += 1;
            }
        }
        self.level
    }

    fn target_for(&self, occupancy: usize) -> PressureLevel {
        let mut target = PressureLevel::Nominal;
        for level in [
            PressureLevel::Pacing,
            PressureLevel::Throttling,
            PressureLevel::Shedding,
            PressureLevel::Emergency,
        ] {
            if occupancy >= self.cfg.threshold(level) {
                target = level;
            }
        }
        target
    }

    fn enter(
        &mut self,
        from: PressureLevel,
        to: PressureLevel,
        reason: &'static str,
        occupancy: usize,
    ) {
        if to > from {
            match to {
                PressureLevel::Pacing => self.stats.pace_entries += 1,
                PressureLevel::Throttling => self.stats.throttle_entries += 1,
                PressureLevel::Shedding => self.stats.shed_entries += 1,
                PressureLevel::Emergency => self.stats.emergency_entries += 1,
                PressureLevel::Nominal => {}
            }
        }
        self.transitions.push(PressureTransition {
            from,
            to,
            reason,
            at_observation: self.stats.observations,
            occupancy,
        });
        self.level = to;
        self.high_water = self.high_water.max(to);
        if wbe_telemetry::tracing_enabled() {
            wbe_telemetry::trace::event(
                "gc.pressure.transition",
                format!("{from} -> {to} ({reason}, occupancy {occupancy})"),
            );
        }
    }

    /// Actuator report: concurrent marking was started or boosted
    /// because the ladder is at [`PressureLevel::Pacing`] or above.
    pub fn note_pace_start(&mut self) {
        self.stats.pace_starts += 1;
    }

    /// Actuator report: one allocation was stalled while throttling.
    /// Returns the stall size to charge (abstract cycles).
    pub fn note_throttle_stall(&mut self) -> u64 {
        self.stats.throttle_stalls += 1;
        THROTTLE_STALL
    }

    /// Admission-control report: one request was shed.
    pub fn note_shed(&mut self) {
        self.stats.shed_requests += 1;
    }

    /// Asks whether a forced emergency pause should be taken now: true
    /// only on the emergency rung and outside the post-pause cooldown
    /// window. The caller must report the pause via
    /// [`PressureController::note_emergency_pause`].
    pub fn emergency_pause_due(&self) -> bool {
        self.level == PressureLevel::Emergency
            && self.observations_since_emergency >= EMERGENCY_COOLDOWN
    }

    /// Actuator report: a forced stop-the-world pause was taken. Starts
    /// the cooldown window.
    pub fn note_emergency_pause(&mut self) {
        self.stats.emergency_pauses += 1;
        self.observations_since_emergency = 0;
    }

    /// Mirrors counter deltas since the previous publish into the
    /// global registry under `gc.pressure.*`, plus the current rung as
    /// a gauge (its [`PressureLevel`] index).
    pub fn publish_metrics(&mut self) {
        if !wbe_telemetry::metrics_enabled() {
            return;
        }
        let s = self.stats;
        self.mirror.publish([
            ("gc.pressure.observations", s.observations),
            ("gc.pressure.pace_entries", s.pace_entries),
            ("gc.pressure.throttle_entries", s.throttle_entries),
            ("gc.pressure.shed_entries", s.shed_entries),
            ("gc.pressure.emergency_entries", s.emergency_entries),
            ("gc.pressure.step_downs", s.step_downs),
            ("gc.pressure.pace_starts", s.pace_starts),
            ("gc.pressure.throttle_stalls", s.throttle_stalls),
            ("gc.pressure.shed_requests", s.shed_requests),
            ("gc.pressure.emergency_pauses", s.emergency_pauses),
        ]);
        wbe_telemetry::gauge("gc.pressure.level").set(self.level.index() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> PressureController {
        PressureController::new(PressureConfig::with_budget(100))
    }

    #[test]
    fn rungs_engage_at_thresholds_in_order() {
        let mut pc = ctl();
        assert_eq!(pc.observe(10), PressureLevel::Nominal);
        assert_eq!(pc.observe(60), PressureLevel::Pacing);
        assert_eq!(pc.observe(75), PressureLevel::Throttling);
        assert_eq!(pc.observe(85), PressureLevel::Shedding);
        assert_eq!(pc.observe(95), PressureLevel::Emergency);
        assert_eq!(pc.high_water(), PressureLevel::Emergency);
        let reasons: Vec<_> = pc.transitions().iter().map(|t| t.reason).collect();
        assert_eq!(
            reasons,
            vec![
                "occupancy-above-pace",
                "occupancy-above-throttle",
                "occupancy-above-shed",
                "occupancy-above-emergency",
            ]
        );
        assert_eq!(pc.stats.pace_entries, 1);
        assert_eq!(pc.stats.throttle_entries, 1);
        assert_eq!(pc.stats.shed_entries, 1);
        assert_eq!(pc.stats.emergency_entries, 1);
    }

    #[test]
    fn a_jump_records_every_intermediate_rung() {
        let mut pc = ctl();
        assert_eq!(pc.observe(96), PressureLevel::Emergency);
        assert_eq!(pc.transitions().len(), 4, "one record per rung crossed");
        assert_eq!(pc.transitions()[0].from, PressureLevel::Nominal);
        assert_eq!(pc.transitions()[3].to, PressureLevel::Emergency);
        assert!(pc.transitions().iter().all(|t| t.occupancy == 96));
    }

    #[test]
    fn hysteresis_prevents_flapping_and_descent_is_gradual() {
        let mut pc = ctl();
        pc.observe(80); // Throttling (threshold 75)
        assert_eq!(pc.level(), PressureLevel::Throttling);
        // Just below the threshold but within hysteresis (5): hold.
        assert_eq!(pc.observe(72), PressureLevel::Throttling);
        // Clear of the margin: step down one rung per observation.
        assert_eq!(pc.observe(40), PressureLevel::Pacing);
        assert_eq!(pc.observe(40), PressureLevel::Nominal);
        assert_eq!(pc.stats.step_downs, 2);
        let last = pc.transitions().last().unwrap();
        assert_eq!(last.reason, DESCEND_REASON);
    }

    #[test]
    fn emergency_cooldown_bounds_pause_clustering() {
        let mut pc = ctl();
        pc.observe(99);
        assert!(pc.emergency_pause_due(), "first pause is immediate");
        pc.note_emergency_pause();
        pc.observe(99);
        assert!(!pc.emergency_pause_due(), "cooldown holds");
        for _ in 1..EMERGENCY_COOLDOWN {
            pc.observe(99);
        }
        assert!(pc.emergency_pause_due(), "cooldown elapsed");
        assert_eq!(pc.stats.emergency_pauses, 1);
    }

    #[test]
    fn each_rung_engages_exactly_at_its_threshold() {
        // One object below each threshold must NOT engage the rung;
        // the exact threshold must. Budget 1000 keeps the percentage
        // arithmetic exact (60% = 600 objects, no truncation).
        let cases = [
            (PressureLevel::Pacing, 60usize),
            (PressureLevel::Throttling, 75),
            (PressureLevel::Shedding, 85),
            (PressureLevel::Emergency, 95),
        ];
        for (level, pct) in cases {
            let threshold = pct * 10; // of budget 1000
            let mut pc = PressureController::new(PressureConfig::with_budget(1000));
            assert!(
                pc.observe(threshold - 1) < level,
                "{level}: {} must stay below",
                threshold - 1
            );
            let cfg = PressureConfig::with_budget(1000);
            let mut pc = PressureController::new(cfg);
            assert_eq!(
                pc.observe(threshold),
                level,
                "{level}: exact threshold {threshold} engages"
            );
            assert_eq!(cfg.threshold(level), threshold);
        }
    }

    #[test]
    fn step_down_fires_exactly_one_object_past_the_hysteresis_margin() {
        // Budget 1000, throttle threshold 750, hysteresis 50: the
        // step-down condition is `occupancy + 50 < 750`, so 700 holds
        // the rung and 699 releases it.
        let mut pc = PressureController::new(PressureConfig::with_budget(1000));
        pc.observe(750);
        assert_eq!(pc.level(), PressureLevel::Throttling);
        assert_eq!(
            pc.observe(700),
            PressureLevel::Throttling,
            "at margin: hold"
        );
        assert_eq!(pc.stats.step_downs, 0);
        assert_eq!(pc.observe(699), PressureLevel::Pacing, "past margin: down");
        assert_eq!(pc.stats.step_downs, 1);
    }

    #[test]
    fn cooldown_boundary_is_inclusive_and_reentry_restarts_it() {
        let mut pc = ctl();
        pc.observe(99);
        pc.note_emergency_pause();
        // Due again exactly when EMERGENCY_COOLDOWN observations have
        // passed since the pause, not one earlier.
        for _ in 1..EMERGENCY_COOLDOWN {
            pc.observe(99);
        }
        assert!(!pc.emergency_pause_due(), "one short: still cooling");
        pc.observe(99);
        assert!(pc.emergency_pause_due(), "the full cooldown: due again");
        // Taking the second pause restarts the window from zero.
        pc.note_emergency_pause();
        assert!(!pc.emergency_pause_due());
        for _ in 1..EMERGENCY_COOLDOWN {
            pc.observe(99);
        }
        assert!(!pc.emergency_pause_due());
        pc.observe(99);
        assert!(pc.emergency_pause_due());
        // Leaving the emergency rung also suppresses pauses regardless
        // of the cooldown state.
        for _ in 0..4 {
            pc.observe(10);
        }
        assert!(pc.level() < PressureLevel::Emergency);
        assert!(!pc.emergency_pause_due());
        assert_eq!(pc.stats.emergency_pauses, 2);
    }

    #[test]
    fn actuator_notes_count() {
        let mut pc = ctl();
        pc.observe(76);
        pc.note_pace_start();
        assert_eq!(pc.note_throttle_stall(), THROTTLE_STALL);
        pc.note_shed();
        pc.note_emergency_pause();
        assert_eq!(pc.stats.pace_starts, 1);
        assert_eq!(pc.stats.throttle_stalls, 1);
        assert_eq!(pc.stats.shed_requests, 1);
        assert_eq!(pc.stats.emergency_pauses, 1);
    }

    #[test]
    fn same_occupancy_sequence_same_transitions() {
        let seq: Vec<usize> = (0..200).map(|i| (i * 7) % 120).collect();
        let mut a = ctl();
        let mut b = ctl();
        for &o in &seq {
            assert_eq!(a.observe(o), b.observe(o));
        }
        assert_eq!(a.transitions(), b.transitions());
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn level_names_are_stable() {
        for l in PressureLevel::ALL {
            assert!(!l.name().is_empty());
            assert!(l.ascend_reason().starts_with("occupancy-"));
        }
        assert!(PressureLevel::Emergency > PressureLevel::Shedding);
    }
}
