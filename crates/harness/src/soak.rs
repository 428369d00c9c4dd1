//! Chaos soak harness: escalating fault schedules with continuous
//! invariant verification, self-healing recovery, and a flight
//! recorder.
//!
//! A soak runs every workload in the standard suite for `rounds`
//! rounds. Each (round, workload) pair gets its own seeded
//! [`FaultPlan`](wbe_heap::FaultPlan); with `--escalate` the schedule
//! severity grows with the round index ([`FaultConfig::escalate`]),
//! which from level 1 up injects post-remark mark-state corruption —
//! exactly the damage the [`wbe_interp::Interp`] recovery controller
//! exists to heal. Every run
//! executes with heap-invariant verification at cycle boundaries and a
//! bounded recovery budget, so the soak continuously distinguishes
//! three outcomes:
//!
//! * **clean** — no invariant ever failed;
//! * **recovered** — violations occurred but every one was healed by a
//!   panic-mode re-mark within the budget (the run is *degraded*: the
//!   controller revoked elisions and inserted barriers everywhere);
//! * **trapped** — corruption persisted past the budget and the
//!   original trap fired.
//!
//! The process exit contract (enforced by `wbe_tool soak`):
//!
//! * **0** — every run clean, or no more degraded runs than
//!   `--threshold` allows;
//! * **1** — recovered-but-degraded beyond the threshold;
//! * **2** — at least one unrecovered trap.
//!
//! While the soak runs, trace events stream into a bounded
//! **flight-recorder ring** (newest events win). On any failure the
//! ring is dumped as a Chrome trace and each failed run is reported
//! with a **replay handle** — the exact (workload, seed, level, iters)
//! tuple that reproduces it, schedule and all, because the fault
//! stream is a pure function of the seed.

use std::collections::VecDeque;
use std::fmt;

use wbe_heap::mcheck::mix_seed;
use wbe_heap::FaultConfig;
use wbe_interp::GcPolicy;
use wbe_telemetry::config::{configure, TelemetryConfig};
use wbe_telemetry::export::chrome_trace_json;
use wbe_telemetry::json::ObjWriter;
use wbe_telemetry::trace::{self, TraceEvent};
use wbe_workloads::standard_suite;

use crate::site::{observe, Chaos, RunSpec};

/// Flight-recorder capacity: the newest this many trace events survive
/// to the crash dump. Bounded so week-long soaks can't grow without
/// limit; old history is the least interesting part of a failure.
pub const FLIGHT_RING_CAP: usize = 4096;

/// Options for one soak.
#[derive(Clone, Debug)]
pub struct SoakOptions {
    /// Rounds over the whole suite.
    pub rounds: u32,
    /// Base seed; each (round, workload) derives its own stream.
    pub seed: u64,
    /// Escalate fault severity with the round index (level = round,
    /// capped by [`FaultConfig::escalate`]).
    pub escalate: bool,
    /// Iteration scale applied to each workload's default size.
    pub scale: f64,
    /// Recovery budget: consecutive failed re-mark attempts before the
    /// original trap fires.
    pub max_attempts: u32,
    /// Degraded (recovered-but-revoked) runs tolerated before the soak
    /// exits 1 instead of 0.
    pub threshold: u32,
    /// Negative control: force persistent mark corruption so recovery
    /// *must* exhaust its budget and trap (expected exit 2).
    pub unrecoverable: bool,
    /// Emit the report as NDJSON instead of text.
    pub ndjson: bool,
}

impl Default for SoakOptions {
    fn default() -> Self {
        SoakOptions {
            rounds: 3,
            seed: 42,
            escalate: false,
            scale: 0.02,
            max_attempts: 3,
            threshold: 0,
            unrecoverable: false,
            ndjson: false,
        }
    }
}

/// How one (round, workload) run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// No invariant violation occurred.
    Clean,
    /// Violations occurred and every one was healed; the run finished
    /// in barrier panic mode with elisions revoked.
    Recovered,
    /// Recovery exhausted its budget (or the trap was not an invariant
    /// violation); the run died.
    Trapped,
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RunOutcome::Clean => "clean",
            RunOutcome::Recovered => "recovered",
            RunOutcome::Trapped => "trapped",
        })
    }
}

/// Everything recorded about one (round, workload) run.
#[derive(Clone, Debug)]
pub struct SoakRun {
    /// Round index (0-based).
    pub round: u32,
    /// Workload name.
    pub workload: &'static str,
    /// Exact fault seed for this run (replay handle component).
    pub seed: u64,
    /// Escalation level applied to the fault schedule.
    pub level: u32,
    /// Iterations the workload ran.
    pub iters: i64,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Trap message for [`RunOutcome::Trapped`] (empty otherwise).
    pub trap: String,
    /// Faults injected by the schedule.
    pub faults_injected: u64,
    /// Post-remark mark corruptions injected.
    pub mark_corruptions: u64,
    /// Recovery attempts (panic-mode re-marks) taken.
    pub recoveries_attempted: u64,
    /// Recovery attempts that healed the heap.
    pub recoveries_succeeded: u64,
    /// Elision sites revoked at runtime.
    pub revoked_sites: u64,
    /// Elided barriers re-inserted while gated by panic mode.
    pub gated_elisions: u64,
    /// Revoked sites joined back into the provenance ledger.
    pub ledger_joined: usize,
    /// GC cycles completed.
    pub gc_cycles: u64,
}

impl SoakRun {
    /// The exact reproduction recipe for this run.
    pub fn replay_handle(&self) -> String {
        format!(
            "replay: workload={} seed={:#018x} level={} iters={} max-attempts={}",
            self.workload,
            self.seed,
            self.level,
            self.iters,
            self.max_attempts_hint()
        )
    }

    fn max_attempts_hint(&self) -> u64 {
        // Attempts beyond successes are the budget actually consumed;
        // replaying needs at least that much headroom.
        (self.recoveries_attempted - self.recoveries_succeeded).max(1)
    }

    fn to_json(&self) -> String {
        let mut out = String::new();
        let mut w = ObjWriter::new(&mut out);
        w.field_u64("round", u64::from(self.round))
            .field_str("workload", self.workload)
            .field_str("seed", &format!("{:#018x}", self.seed))
            .field_u64("level", u64::from(self.level))
            .field_u64("iters", self.iters.max(0) as u64)
            .field_str("outcome", &self.outcome.to_string())
            .field_u64("faults_injected", self.faults_injected)
            .field_u64("mark_corruptions", self.mark_corruptions)
            .field_u64("recoveries_attempted", self.recoveries_attempted)
            .field_u64("recoveries_succeeded", self.recoveries_succeeded)
            .field_u64("revoked_sites", self.revoked_sites)
            .field_u64("gated_elisions", self.gated_elisions)
            .field_u64("ledger_joined", self.ledger_joined as u64)
            .field_u64("gc_cycles", self.gc_cycles);
        if !self.trap.is_empty() {
            w.field_str("trap", &self.trap);
        }
        w.finish();
        out
    }
}

/// The whole soak's result.
#[derive(Debug)]
pub struct SoakOutcome {
    /// Every run, in execution order.
    pub runs: Vec<SoakRun>,
    /// Runs that ended [`RunOutcome::Recovered`] (degraded).
    pub degraded_runs: u32,
    /// Runs that ended [`RunOutcome::Trapped`].
    pub trapped_runs: u32,
    /// Process exit code per the soak contract (0 / 1 / 2).
    pub exit_code: i32,
    /// Flight-recorder contents at soak end (newest `FLIGHT_RING_CAP`
    /// events), in time order.
    pub flight: Vec<TraceEvent>,
    /// Events the ring had to discard to stay bounded.
    pub flight_discarded: u64,
}

impl SoakOutcome {
    /// Renders the report in the format `opts` asked for.
    pub fn render(&self, opts: &SoakOptions) -> String {
        if opts.ndjson {
            self.render_ndjson()
        } else {
            self.render_text()
        }
    }

    fn render_ndjson(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for run in &self.runs {
            let _ = writeln!(out, "{}", run.to_json());
        }
        let mut line = String::new();
        let mut w = ObjWriter::new(&mut line);
        w.field_str("summary", "soak")
            .field_u64("runs", self.runs.len() as u64)
            .field_u64("degraded_runs", u64::from(self.degraded_runs))
            .field_u64("trapped_runs", u64::from(self.trapped_runs))
            .field_u64("exit_code", self.exit_code as u64);
        w.finish();
        let _ = writeln!(out, "{line}");
        out
    }

    fn render_text(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for r in &self.runs {
            let _ = writeln!(
                out,
                "round {:>2} {:<6} seed {:#018x} level {}: {} \
                 ({} faults, {} corruptions, {}/{} recoveries, {} revoked, {} cycles)",
                r.round,
                r.workload,
                r.seed,
                r.level,
                r.outcome,
                r.faults_injected,
                r.mark_corruptions,
                r.recoveries_succeeded,
                r.recoveries_attempted,
                r.revoked_sites,
                r.gc_cycles
            );
            if r.outcome == RunOutcome::Trapped {
                let _ = writeln!(out, "  trap: {}", r.trap);
            }
            if r.outcome != RunOutcome::Clean {
                let _ = writeln!(out, "  {}", r.replay_handle());
            }
        }
        let _ = writeln!(
            out,
            "soak: {} runs, {} degraded, {} trapped -> exit {}",
            self.runs.len(),
            self.degraded_runs,
            self.trapped_runs,
            self.exit_code
        );
        out
    }

    /// The flight-recorder ring as Chrome trace JSON.
    pub fn flight_chrome_trace(&self) -> String {
        chrome_trace_json(&self.flight)
    }
}

/// Bounded ring over the process trace buffer: newest events win.
struct FlightRecorder {
    ring: VecDeque<TraceEvent>,
    discarded: u64,
}

impl FlightRecorder {
    fn new() -> Self {
        FlightRecorder {
            ring: VecDeque::with_capacity(FLIGHT_RING_CAP.min(1024)),
            discarded: 0,
        }
    }

    /// Moves everything the trace buffer accumulated into the ring.
    fn absorb(&mut self) {
        self.absorb_events(trace::drain());
    }

    fn absorb_events(&mut self, events: Vec<TraceEvent>) {
        for ev in events {
            if self.ring.len() >= FLIGHT_RING_CAP {
                self.ring.pop_front();
                self.discarded += 1;
            }
            self.ring.push_back(ev);
        }
    }
}

/// The marking schedule of chaos runs: aggressive enough that many
/// cycles complete even at small scales, so the post-remark corruption
/// point is consulted often.
pub(crate) const CHAOS_GC: GcPolicy = GcPolicy {
    alloc_trigger: 64,
    step_interval: 8,
    step_budget: 4,
};

/// Runs the full soak. Deterministic for a given `opts` (the fault
/// stream is seed-derived; no wall-clock feeds any decision).
pub fn run_soak(opts: &SoakOptions) -> SoakOutcome {
    // Serialize against anything else that resets or reads the global
    // telemetry state (baseline/profile measurements, other soaks).
    let _guard = crate::registry_lock();
    // The flight recorder needs tracing on; restore the previous
    // configuration on the way out. Drain whatever an earlier command
    // left behind so the ring holds only soak events.
    let prev = configure(TelemetryConfig::all());
    let _ = trace::drain();
    let mut recorder = FlightRecorder::new();

    let suite = standard_suite();
    let mut runs = Vec::new();
    for round in 0..opts.rounds {
        let level = if opts.escalate { round } else { 0 };
        for (widx, w) in suite.iter().enumerate() {
            let k = u64::from(round) * suite.len() as u64 + widx as u64;
            let seed = mix_seed(opts.seed, k);
            let mut faults = FaultConfig::from_seed(seed).escalate(level);
            if opts.unrecoverable {
                // Persistent corruption: every re-mark is re-corrupted,
                // so the budget must exhaust and the trap must fire.
                faults.corrupt_mark_pm = 1000;
            }

            trace::event("soak.run.start", format!("{} round {round}", w.name));
            let obs = observe(
                w,
                &RunSpec {
                    gc: CHAOS_GC,
                    chaos: Some(Chaos {
                        faults,
                        max_attempts: opts.max_attempts,
                    }),
                    ..RunSpec::baseline(opts.scale)
                },
            );
            let rc = obs.recovery.as_ref().expect("chaos installs a controller");
            let mut run = SoakRun {
                round,
                workload: w.name,
                seed,
                level,
                iters: obs.iters,
                outcome: if rc.in_panic() {
                    RunOutcome::Recovered
                } else {
                    RunOutcome::Clean
                },
                trap: String::new(),
                faults_injected: obs.faults.injected(),
                mark_corruptions: obs.faults.mark_corruptions,
                recoveries_attempted: rc.stats.attempted,
                recoveries_succeeded: rc.stats.succeeded,
                revoked_sites: rc.stats.revoked_sites,
                gated_elisions: rc.stats.gated_elisions,
                // Revocations that name a site of the static ledger —
                // the ones `explain` can show beside a verdict.
                ledger_joined: obs
                    .sites()
                    .iter()
                    .filter(|s| s.record.is_some() && s.revoked.is_some())
                    .count(),
                gc_cycles: obs.stats.gc_cycles,
            };
            if let Some(trap) = &obs.trap {
                run.outcome = RunOutcome::Trapped;
                run.trap = trap.to_string();
                trace::event("soak.run.trap", format!("{}: {trap}", w.name));
            }
            trace::event(
                "soak.run.end",
                format!("{} round {round}: {}", w.name, run.outcome),
            );
            recorder.absorb();
            runs.push(run);
        }
    }

    let degraded_runs = runs
        .iter()
        .filter(|r| r.outcome == RunOutcome::Recovered)
        .count() as u32;
    let trapped_runs = runs
        .iter()
        .filter(|r| r.outcome == RunOutcome::Trapped)
        .count() as u32;
    let exit_code = if trapped_runs > 0 {
        2
    } else if degraded_runs > opts.threshold {
        1
    } else {
        0
    };

    configure(prev);
    SoakOutcome {
        runs,
        degraded_runs,
        trapped_runs,
        exit_code,
        flight: recorder.ring.into_iter().collect(),
        flight_discarded: recorder.discarded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(rounds: u32) -> SoakOptions {
        SoakOptions {
            rounds,
            scale: 0.01,
            ..SoakOptions::default()
        }
    }

    #[test]
    fn baseline_soak_is_clean_and_exits_zero() {
        let out = run_soak(&quick(1));
        assert_eq!(out.exit_code, 0, "{}", out.render(&quick(1)));
        assert_eq!(out.trapped_runs, 0);
        assert_eq!(out.degraded_runs, 0);
        assert_eq!(out.runs.len(), 6, "whole suite every round");
        assert!(
            out.runs.iter().all(|r| r.mark_corruptions == 0),
            "level 0 never corrupts marks"
        );
        assert!(out.runs.iter().any(|r| r.faults_injected > 0));
        assert!(
            out.flight.iter().any(|e| e.name == "soak.run.end"),
            "flight recorder captured the runs"
        );
    }

    #[test]
    fn escalated_soak_recovers_and_exits_one() {
        let opts = SoakOptions {
            rounds: 3,
            escalate: true,
            max_attempts: 8,
            ..quick(3)
        };
        let out = run_soak(&opts);
        assert_eq!(out.exit_code, 1, "{}", out.render(&opts));
        assert_eq!(out.trapped_runs, 0, "{}", out.render(&opts));
        assert!(out.degraded_runs > 0);
        let recovered: Vec<_> = out
            .runs
            .iter()
            .filter(|r| r.outcome == RunOutcome::Recovered)
            .collect();
        assert!(!recovered.is_empty());
        for r in &recovered {
            assert!(r.recoveries_succeeded > 0, "{r:?}");
            assert!(r.mark_corruptions > 0, "{r:?}");
            assert!(r.replay_handle().contains("seed=0x"), "{r:?}");
        }
        // At least one recovered run revoked elisions and joined them
        // back into the provenance ledger.
        assert!(
            recovered
                .iter()
                .any(|r| r.revoked_sites > 0 && r.ledger_joined > 0),
            "{}",
            out.render(&opts)
        );
    }

    #[test]
    fn unrecoverable_soak_traps_and_exits_two() {
        let opts = SoakOptions {
            rounds: 1,
            unrecoverable: true,
            ..quick(1)
        };
        let out = run_soak(&opts);
        assert_eq!(out.exit_code, 2, "{}", out.render(&opts));
        assert!(out.trapped_runs > 0);
        let trapped = out
            .runs
            .iter()
            .find(|r| r.outcome == RunOutcome::Trapped)
            .unwrap();
        assert!(
            trapped.trap.contains("INVARIANT VIOLATION"),
            "{}",
            trapped.trap
        );
        assert!(
            trapped.recoveries_attempted >= u64::from(opts.max_attempts),
            "budget was consumed before trapping: {trapped:?}"
        );
        assert!(
            out.flight.iter().any(|e| e.name == "soak.run.trap"),
            "flight recorder holds the trap event"
        );
        let trace = out.flight_chrome_trace();
        assert!(trace.contains("traceEvents"), "{trace}");
        assert!(trace.contains("soak.run.trap"));
    }

    #[test]
    fn soak_is_deterministic_for_a_seed() {
        let opts = quick(1);
        let a = run_soak(&opts);
        let b = run_soak(&opts);
        let strip = |o: &SoakOutcome| {
            o.runs
                .iter()
                .map(|r| {
                    (
                        r.workload,
                        r.seed,
                        r.faults_injected,
                        r.gc_cycles,
                        r.outcome,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&a), strip(&b));
        assert_eq!(a.render_ndjson(), b.render_ndjson());
    }

    #[test]
    fn flight_ring_stays_bounded() {
        let mut rec = FlightRecorder::new();
        for chunk in 0..3 {
            let events = (0..FLIGHT_RING_CAP)
                .map(|i| TraceEvent {
                    name: format!("e{chunk}.{i}"),
                    parent: String::new(),
                    detail: String::new(),
                    start_us: 0,
                    dur_us: 0,
                    tid: 1,
                    value: None,
                })
                .collect();
            rec.absorb_events(events);
        }
        assert_eq!(rec.ring.len(), FLIGHT_RING_CAP);
        assert_eq!(rec.discarded, 2 * FLIGHT_RING_CAP as u64);
        assert_eq!(
            rec.ring.back().unwrap().name,
            format!("e2.{}", FLIGHT_RING_CAP - 1),
            "newest events win"
        );
    }
}
