//! Integration tests for the deterministic scheduler + interleaving
//! model checker, driven purely through the crate's public API (what
//! `wbe_tool mcheck` uses), and the schedule-determinism contract the
//! checker's replay rests on.

use std::sync::{Mutex, MutexGuard};

use wbe_heap::mcheck::{replay_seed, run_mcheck};
use wbe_heap::sched::run_schedule;
use wbe_heap::{CheckerConfig, FaultConfig, Replay, Scenario, SchedConfig, SchedulePolicy};

/// Every schedule publishes its `sched.*` counters into the
/// process-global registry, so this binary's tests run one at a time:
/// the determinism test reads registry deltas.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn stock(threads: usize, scenario: Scenario) -> SchedConfig {
    SchedConfig {
        threads,
        ops_per_thread: 24,
        scenario,
        ..SchedConfig::default()
    }
}

/// Acceptance shape: four mutators, stock workloads, many random
/// schedules — every one sound, across all three scenarios.
#[test]
fn four_mutators_stock_scenarios_are_sound() {
    let _serial = serial();
    for scenario in Scenario::ALL {
        let report = run_mcheck(&CheckerConfig {
            sched: stock(4, scenario),
            schedules: 40,
            seed: 1,
            ..CheckerConfig::default()
        });
        assert!(report.sound(), "{scenario}: {:?}", report.failures);
        assert_eq!(report.explored, 40);
        assert!(report.cycles > 0, "{scenario}: marking cycles must run");
        assert!(
            report.totals.elided_stores > 0,
            "{scenario}: elided pre-null stores must execute"
        );
    }
}

/// Fault injection composes with the scheduler: allocation failures,
/// skipped mark steps, and drain pressure shift every cycle's timing
/// but never break the snapshot guarantee.
#[test]
fn fault_plans_compose_soundly_across_seeds() {
    let _serial = serial();
    for fault_seed in [7u64, 99, 1234] {
        let report = run_mcheck(&CheckerConfig {
            sched: SchedConfig {
                fault: Some(FaultConfig::from_seed(fault_seed)),
                ..stock(3, Scenario::Churn)
            },
            schedules: 25,
            seed: fault_seed,
            ..CheckerConfig::default()
        });
        assert!(
            report.sound(),
            "fault seed {fault_seed}: {:?}",
            report.failures
        );
    }
}

/// The negative control end to end: random exploration finds the
/// deliberately-unsound elision, the failure carries a seed handle,
/// and replaying that seed reproduces the identical trace digest.
#[test]
fn demo_unsound_failure_replays_to_the_same_digest() {
    let _serial = serial();
    let sched = SchedConfig {
        demo_unsound: true,
        ..stock(2, Scenario::Churn)
    };
    let report = run_mcheck(&CheckerConfig {
        sched: sched.clone(),
        schedules: 300,
        seed: 1,
        ..CheckerConfig::default()
    });
    assert!(!report.sound(), "negative control must be caught");
    let failure = &report.failures[0];
    let Replay::Seed(seed) = failure.replay else {
        panic!("random exploration hands back seeds");
    };
    let replay = replay_seed(&sched, seed);
    assert_eq!(replay.digest(), failure.digest, "replay is bit-identical");
    assert_eq!(replay.violations.len(), failure.violations.len());
}

/// Systematic exploration replays through the scripted policy: the
/// failing prefix drives the scheduler to the same digest.
#[test]
fn systematic_failure_prefix_is_replayable() {
    let _serial = serial();
    let sched = SchedConfig {
        ops_per_thread: 16,
        demo_unsound: true,
        ..stock(2, Scenario::Churn)
    };
    let report = run_mcheck(&CheckerConfig {
        sched: sched.clone(),
        schedules: 400,
        seed: 1,
        systematic: true,
        preempt_bound: 2,
    });
    assert!(!report.sound(), "bounded search must find the lost object");
    let failure = &report.failures[0];
    let Replay::Prefix(prefix) = &failure.replay else {
        panic!("systematic exploration hands back prefixes");
    };
    let replay = run_schedule(
        &sched,
        &SchedulePolicy::Scripted {
            prefix: prefix.clone(),
        },
    );
    assert_eq!(replay.digest(), failure.digest, "prefix replay identical");
}

/// The per-schedule seed stream is itself deterministic: two checker
/// runs with the same base seed explore the same schedules and land on
/// identical aggregate counters.
#[test]
fn checker_runs_are_reproducible_end_to_end() {
    let _serial = serial();
    let cfg = CheckerConfig {
        sched: stock(3, Scenario::Shared),
        schedules: 30,
        seed: 42,
        ..CheckerConfig::default()
    };
    let a = run_mcheck(&cfg);
    let b = run_mcheck(&cfg);
    assert_eq!(a.explored, b.explored);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.totals, b.totals);
}

/// Schedule determinism. The same seed must reproduce a
/// bit-identical schedule digest and identical counters — including
/// the counters the run publishes into the global telemetry registry —
/// across two independent runs. This is the property that makes a
/// failing model-checker schedule replayable.
#[test]
fn same_seed_gives_identical_digest_and_telemetry_counters() {
    let _serial = serial();
    let cfg = SchedConfig {
        threads: 3,
        ops_per_thread: 60,
        scenario: Scenario::Shared,
        ..SchedConfig::default()
    };
    let run = |seed: u64| {
        let before = wbe_telemetry::registry::global().snapshot();
        let outcome = run_schedule(&cfg, &SchedulePolicy::Random { seed });
        let after = wbe_telemetry::registry::global().snapshot();
        let mut deltas: Vec<(String, u64)> = after
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("sched."))
            .map(|(name, value)| {
                let prev = before.counter(name).unwrap_or(0);
                (name.clone(), value - prev)
            })
            .collect();
        deltas.sort();
        (outcome, deltas)
    };

    let (a, da) = run(0xfeed);
    let (b, db) = run(0xfeed);
    assert!(a.violations.is_empty(), "{:?}", a.violations);
    assert_eq!(
        a.digest(),
        b.digest(),
        "schedule digest must be bit-identical"
    );
    assert_eq!(a.trace, b.trace, "step-by-step schedule identical");
    assert_eq!(a.counters, b.counters, "all counters identical");
    assert_eq!(da, db, "published telemetry deltas identical");

    // And a different seed takes a different schedule (sanity that the
    // digest actually discriminates).
    let (c, _) = run(0xbeef);
    assert_ne!(a.digest(), c.digest());
}
