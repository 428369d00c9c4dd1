//! Interleaving model checker for elided barriers.
//!
//! Explores many schedules of the deterministic multi-mutator world in
//! [`crate::sched`] and audits each one with the lost-object invariant:
//! no object in the snapshot-reachable set recorded at `begin_marking`
//! may be freed by that cycle's sweep. Two exploration strategies:
//!
//! * **Random** ([`CheckerConfig::systematic`] = false): schedule `k`
//!   runs under seed `mix64(base_seed, k)`; a failing schedule is
//!   reported with its exact seed, and replaying that seed reproduces
//!   the identical trace digest.
//! * **Systematic**: preemption-bounded DFS. The first schedule is the
//!   non-preemptive default; after each run the explorer branches at
//!   the deepest step whose runnable set offered an untried choice,
//!   provided the resulting prefix stays within the preemption bound.
//!   Failing schedules are reported with the forced choice prefix that
//!   replays them.
//!
//! Both strategies stop early once [`CheckerConfig::max_failures`]
//! failing schedules are collected, and both cap total work at
//! [`CheckerConfig::schedules`] runs.

use std::fmt;

use crate::sched::{
    run_schedule, SchedConfig, SchedCounters, ScheduleOutcome, SchedulePolicy, ScheduleViolation,
};

/// SplitMix64 finalizer mixing a base seed with a schedule index, so
/// neighbouring indices get unrelated streams. The one derivation of
/// every per-run seed: the verification and soak harnesses call it for
/// their workload fault seeds too.
pub fn mix_seed(base: u64, k: u64) -> u64 {
    let mut z = base ^ k.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Model-checker configuration.
#[derive(Clone, Debug)]
pub struct CheckerConfig {
    /// The world being explored.
    pub sched: SchedConfig,
    /// Maximum schedules to run.
    pub schedules: u64,
    /// Base seed (random mode) — per-schedule seeds derive from it.
    pub seed: u64,
    /// Use the systematic preemption-bounded DFS explorer.
    pub systematic: bool,
    /// Preemption bound for the systematic explorer.
    pub preempt_bound: usize,
    /// Stop exploring after this many failing schedules.
    pub max_failures: usize,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        CheckerConfig {
            sched: SchedConfig::default(),
            schedules: 50,
            seed: 1,
            systematic: false,
            preempt_bound: 2,
            max_failures: 3,
        }
    }
}

/// How to replay one failing schedule exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Replay {
    /// Random mode: rerun with this exact schedule seed.
    Seed(u64),
    /// Systematic mode: rerun with this forced choice prefix.
    Prefix(Vec<u8>),
}

impl Replay {
    /// The [`SchedulePolicy`] that reproduces the schedule.
    pub fn policy(&self) -> SchedulePolicy {
        match self {
            Replay::Seed(seed) => SchedulePolicy::Random { seed: *seed },
            Replay::Prefix(prefix) => SchedulePolicy::Scripted {
                prefix: prefix.clone(),
            },
        }
    }
}

impl fmt::Display for Replay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Replay::Seed(seed) => write!(f, "--replay {seed:#x}"),
            Replay::Prefix(prefix) => {
                write!(f, "prefix[{}]=", prefix.len())?;
                for &c in prefix.iter().take(64) {
                    write!(f, "{c:x}")?;
                }
                if prefix.len() > 64 {
                    write!(f, "…")?;
                }
                Ok(())
            }
        }
    }
}

/// One failing schedule, with everything needed to reproduce it.
#[derive(Clone, Debug)]
pub struct FailingSchedule {
    /// Index of the schedule in exploration order.
    pub index: u64,
    /// Exact replay handle (seed or choice prefix).
    pub replay: Replay,
    /// Trace digest; a replay must reproduce this value.
    pub digest: u64,
    /// The violations observed.
    pub violations: Vec<ScheduleViolation>,
    /// Tail of the schedule trace (thread choice per step, marker =
    /// `threads`), for human inspection.
    pub trace_tail: Vec<u8>,
}

impl fmt::Display for FailingSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schedule #{} digest={:#018x} replay: {}",
            self.index, self.digest, self.replay
        )?;
        write!(f, "  trace tail:")?;
        for &c in &self.trace_tail {
            write!(f, " {c}")?;
        }
        writeln!(f)?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// Aggregate result of one model-checking run.
#[derive(Clone, Debug)]
pub struct McheckReport {
    /// Schedules actually executed.
    pub explored: u64,
    /// Marking cycles completed across all schedules.
    pub cycles: u64,
    /// Scheduler steps executed across all schedules.
    pub steps: u64,
    /// Counter totals across all schedules.
    pub totals: SchedCounters,
    /// Failing schedules (empty ⇔ every explored schedule was sound).
    pub failures: Vec<FailingSchedule>,
}

impl McheckReport {
    /// True when no explored schedule violated the invariants.
    pub fn sound(&self) -> bool {
        self.failures.is_empty()
    }
}

fn accumulate(report: &mut McheckReport, out: &ScheduleOutcome) {
    report.explored += 1;
    report.cycles += out.counters.cycles;
    report.steps += out.counters.steps;
    report.totals.merge(&out.counters);
}

fn record_failure(report: &mut McheckReport, index: u64, replay: Replay, out: &ScheduleOutcome) {
    let tail_start = out.trace.len().saturating_sub(24);
    report.failures.push(FailingSchedule {
        index,
        replay,
        digest: out.digest(),
        violations: out.violations.clone(),
        trace_tail: out.trace[tail_start..].to_vec(),
    });
}

/// Runs the model checker per `cfg` and returns the aggregate report.
pub fn run_mcheck(cfg: &CheckerConfig) -> McheckReport {
    let mut report = McheckReport {
        explored: 0,
        cycles: 0,
        steps: 0,
        totals: SchedCounters::default(),
        failures: Vec::new(),
    };
    if cfg.systematic {
        explore_systematic(cfg, &mut report);
    } else {
        for k in 0..cfg.schedules {
            let seed = mix_seed(cfg.seed, k);
            let out = run_schedule(&cfg.sched, &SchedulePolicy::Random { seed });
            accumulate(&mut report, &out);
            if !out.violations.is_empty() {
                record_failure(&mut report, k, Replay::Seed(seed), &out);
                if report.failures.len() >= cfg.max_failures {
                    break;
                }
            }
        }
    }
    report
}

/// Replays one schedule by its random-mode seed.
pub fn replay_seed(sched: &SchedConfig, seed: u64) -> ScheduleOutcome {
    run_schedule(sched, &SchedulePolicy::Random { seed })
}

/// Preemptions in `trace` given the per-step runnable masks, counting
/// only steps at index ≥ 1 (the first step cannot preempt).
fn preemptions_upto(trace: &[u8], runnable: &[u32], upto: usize) -> usize {
    let mut n = 0;
    for t in 1..upto.min(trace.len()) {
        let prev = trace[t - 1];
        if trace[t] != prev && runnable[t] & (1u32 << prev) != 0 {
            n += 1;
        }
    }
    n
}

/// Preemption-bounded systematic exploration in iterative
/// context-bounding order (Musuvathi & Qadeer): the frontier is
/// explored fewest-preemptions-first, shallowest-first. The first
/// schedule is the non-preemptive default; each executed schedule
/// contributes branch points — steps beyond its forced prefix where
/// another thread was runnable — pruned against the preemption bound.
/// Low-preemption schedules are both the cheapest to enumerate and,
/// empirically, where concurrency bugs live: the demo-unsound elision
/// is caught by a single ill-timed context switch.
fn explore_systematic(cfg: &CheckerConfig, report: &mut McheckReport) {
    // Frontier entries: (preemptions of the forced prefix, prefix).
    let mut frontier: Vec<(usize, Vec<u8>)> = vec![(0, Vec::new())];
    // Bound frontier memory independently of trace lengths.
    let frontier_cap = (cfg.schedules as usize).saturating_mul(8).max(64);
    while !frontier.is_empty() {
        if report.explored >= cfg.schedules || report.failures.len() >= cfg.max_failures {
            break;
        }
        // Pop the fewest-preemption, shallowest prefix.
        let best = frontier
            .iter()
            .enumerate()
            .min_by_key(|(_, (p, prefix))| (*p, prefix.len()))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let (_, prefix) = frontier.swap_remove(best);
        let index = report.explored;
        let out = run_schedule(
            &cfg.sched,
            &SchedulePolicy::Scripted {
                prefix: prefix.clone(),
            },
        );
        accumulate(report, &out);
        if !out.violations.is_empty() {
            // The full trace is the replay prefix: forcing every choice
            // reproduces the schedule exactly.
            record_failure(report, index, Replay::Prefix(out.trace.clone()), &out);
            continue;
        }
        // New branch points beyond the forced prefix.
        'branches: for t in prefix.len()..out.trace.len() {
            let chosen = out.trace[t];
            let mask = out.runnable[t];
            // Preemptions inside `trace[..t]` — the shared part of every
            // prefix branched at `t`.
            let base = preemptions_upto(&out.trace, &out.runnable, t);
            for alt in 0..=cfg.sched.threads as u8 {
                if alt == chosen || mask & (1u32 << alt) == 0 {
                    continue;
                }
                let extra = usize::from(
                    t > 0 && alt != out.trace[t - 1] && mask & (1u32 << out.trace[t - 1]) != 0,
                );
                if base + extra > cfg.preempt_bound {
                    continue;
                }
                let mut branched = out.trace[..t].to_vec();
                branched.push(alt);
                frontier.push((base + extra, branched));
                if frontier.len() >= frontier_cap {
                    break 'branches;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Scenario, ViolationKind};

    /// Every seed `mcheck`, `verify` and `soak` print is one of these
    /// mixes: a change to the mixer moves every printed replay handle.
    #[test]
    fn mix_seed_known_answers() {
        assert_eq!(mix_seed(1, 0), 0xe4d9_7177_1b65_2c20);
        assert_eq!(mix_seed(1, 1), 0xbeeb_8da1_658e_ec67);
        assert_eq!(mix_seed(42, 0), 0xbdd7_3226_2feb_6e95);
    }

    #[test]
    fn random_exploration_is_sound_on_stock_world() {
        let cfg = CheckerConfig {
            sched: SchedConfig {
                threads: 3,
                scenario: Scenario::Shared,
                ..SchedConfig::default()
            },
            schedules: 30,
            seed: 1,
            ..CheckerConfig::default()
        };
        let report = run_mcheck(&cfg);
        assert!(report.sound(), "{:?}", report.failures);
        assert_eq!(report.explored, 30);
        assert!(report.cycles >= 30, "every schedule completes ≥1 cycle");
    }

    #[test]
    fn random_mode_finds_demo_unsound_and_replays_to_same_digest() {
        let cfg = CheckerConfig {
            sched: SchedConfig {
                threads: 2,
                scenario: Scenario::Churn,
                demo_unsound: true,
                ..SchedConfig::default()
            },
            schedules: 200,
            seed: 1,
            max_failures: 1,
            ..CheckerConfig::default()
        };
        let report = run_mcheck(&cfg);
        assert!(!report.sound(), "demo-unsound must be caught");
        let fail = &report.failures[0];
        assert!(fail
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::LostObject));
        let Replay::Seed(seed) = fail.replay else {
            panic!("random mode reports seeds");
        };
        let replay = replay_seed(&cfg.sched, seed);
        assert_eq!(replay.digest(), fail.digest, "replay digest must match");
        assert_eq!(replay.violations, fail.violations);
    }

    #[test]
    fn systematic_exploration_is_sound_and_branches() {
        let cfg = CheckerConfig {
            sched: SchedConfig {
                threads: 2,
                ops_per_thread: 12,
                scenario: Scenario::Churn,
                ..SchedConfig::default()
            },
            schedules: 40,
            systematic: true,
            preempt_bound: 1,
            ..CheckerConfig::default()
        };
        let report = run_mcheck(&cfg);
        assert!(report.sound(), "{:?}", report.failures);
        assert!(report.explored > 1, "DFS must branch beyond the root");
        assert_eq!(report.explored, 40, "explores up to the schedule cap");
    }

    #[test]
    fn systematic_mode_finds_demo_unsound_with_replayable_prefix() {
        let cfg = CheckerConfig {
            sched: SchedConfig {
                threads: 2,
                ops_per_thread: 16,
                scenario: Scenario::Churn,
                demo_unsound: true,
                ..SchedConfig::default()
            },
            schedules: 400,
            systematic: true,
            preempt_bound: 2,
            max_failures: 1,
            ..CheckerConfig::default()
        };
        let report = run_mcheck(&cfg);
        assert!(
            !report.sound(),
            "systematic explorer must catch the elision"
        );
        let fail = &report.failures[0];
        let out = run_schedule(&cfg.sched, &fail.replay.policy());
        assert_eq!(out.digest(), fail.digest, "prefix replay must match");
    }

    #[test]
    fn failure_report_formats_with_replay_handle() {
        let cfg = CheckerConfig {
            sched: SchedConfig {
                threads: 2,
                scenario: Scenario::Churn,
                demo_unsound: true,
                ..SchedConfig::default()
            },
            schedules: 200,
            seed: 1,
            max_failures: 1,
            ..CheckerConfig::default()
        };
        let report = run_mcheck(&cfg);
        let text = report.failures[0].to_string();
        assert!(text.contains("--replay"), "{text}");
        assert!(text.contains("lost-object"), "{text}");
    }
}
