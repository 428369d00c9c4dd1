//! Golden differential for the marking-cycle protocol of the two
//! cooperative worlds.
//!
//! `cycle_driver.golden` was written by this same driver running
//! against `sched::World` and `overload::ServeWorld` as they stood when
//! each carried a private copy of the marker state machine, the
//! safepoint poll and the stop-the-world tail. Everything either world
//! reports through the public API is in the file:
//!
//! * for `run_schedule`, the three stock scenarios × threads {1, 2, 4}
//!   × five seeds, each plain, with a fault plan, with `demo_unsound`
//!   and with an `arm_deadline` of zero (both watchdog levels fire) —
//!   the schedule digest, all 24 counter fields and every violation's
//!   kind, step, cycle and detail;
//! * one systematic-explorer failing prefix and the digest its replay
//!   lands on;
//! * for `run_serve`, every request mix × {light, overloaded,
//!   fault-plan bursts, the full fault plan} — the outcome digest, the
//!   counter fields, a hash of the latency samples, the ladder's
//!   transitions and high-water rung, and every violation;
//! * two scheduled runs and one serve run with tracing on, as the
//!   ordered list of trace events (name, enclosing span, payload,
//!   counter value), so the `sched.*` / `serve.*` stream and the order
//!   of the `heap.*` spans inside a stop-the-world tail are pinned too.
//!
//! Byte equality therefore pins what a shared driver must keep: the
//! same protocol decisions at the same steps, the same counters, the
//! same violations and the same events in the same order.
//!
//! To regenerate after an intended behaviour change, run the test: on
//! a mismatch it writes what it produced next to the test binary's
//! scratch directory and names the file.

use std::fmt::Write as _;

use wbe_heap::mcheck::run_mcheck;
use wbe_heap::sched::run_schedule;
use wbe_heap::{
    run_serve, CheckerConfig, FaultConfig, PressureConfig, Replay, Scenario, SchedConfig,
    ScheduleOutcome, SchedulePolicy, ServeOutcome, ServeScenario, ServeWorldConfig,
};

const SEEDS: std::ops::Range<u64> = 1..6;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The four variants every (scenario, threads, seed) cell runs under.
/// Every schedule of one plan seed reads the same short prefix of the
/// plan's stream, so the plan seed moves with the schedule seed, and
/// allocation failures are frequent enough to land in a 40-op thread.
fn sched_variants(base: &SchedConfig, seed: u64) -> [(&'static str, SchedConfig); 4] {
    [
        ("plain", base.clone()),
        (
            "fault",
            SchedConfig {
                fault: Some(FaultConfig {
                    alloc_fail_pm: 60,
                    ..FaultConfig::from_seed(90 + seed)
                }),
                ..base.clone()
            },
        ),
        (
            "unsound",
            SchedConfig {
                demo_unsound: true,
                ..base.clone()
            },
        ),
        (
            "watchdog",
            SchedConfig {
                arm_deadline: 0,
                ..base.clone()
            },
        ),
    ]
}

fn sched_outcome(out: &mut String, label: &str, o: &ScheduleOutcome) {
    let fields: Vec<String> = o.counters.fields().iter().map(u64::to_string).collect();
    writeln!(
        out,
        "{label} digest={:#018x} fields=[{}]",
        o.digest(),
        fields.join(" ")
    )
    .unwrap();
    for v in &o.violations {
        writeln!(
            out,
            "  violation kind={} step={} cycle={} detail={}",
            v.kind, v.step, v.cycle, v.detail
        )
        .unwrap();
    }
}

fn render_sched(out: &mut String) {
    for scenario in Scenario::ALL {
        for threads in [1usize, 2, 4] {
            writeln!(out, "== sched {scenario} threads={threads}").unwrap();
            let base = SchedConfig {
                threads,
                scenario,
                ..SchedConfig::default()
            };
            for variant in 0..4 {
                for seed in SEEDS {
                    let (name, cfg) = &sched_variants(&base, seed)[variant];
                    let o = run_schedule(cfg, &SchedulePolicy::Random { seed });
                    sched_outcome(out, &format!("{name} seed={seed}"), &o);
                }
            }
        }
    }
}

fn render_systematic(out: &mut String) {
    writeln!(out, "== systematic explorer, demo_unsound").unwrap();
    let sched = SchedConfig {
        threads: 2,
        ops_per_thread: 16,
        scenario: Scenario::Churn,
        demo_unsound: true,
        ..SchedConfig::default()
    };
    let report = run_mcheck(&CheckerConfig {
        sched: sched.clone(),
        schedules: 400,
        seed: 1,
        systematic: true,
        preempt_bound: 2,
    });
    writeln!(
        out,
        "explored={} cycles={} steps={} failures={}",
        report.explored,
        report.cycles,
        report.steps,
        report.failures.len()
    )
    .unwrap();
    for f in &report.failures {
        let Replay::Prefix(prefix) = &f.replay else {
            panic!("systematic exploration hands back prefixes");
        };
        let hex: String = prefix.iter().map(|c| format!("{c:x}")).collect();
        writeln!(
            out,
            "failure #{} digest={:#018x} prefix[{}]={hex}",
            f.index,
            f.digest,
            prefix.len()
        )
        .unwrap();
        let replay = run_schedule(
            &sched,
            &SchedulePolicy::Scripted {
                prefix: prefix.clone(),
            },
        );
        sched_outcome(out, "  replay", &replay);
    }
}

fn light() -> ServeWorldConfig {
    ServeWorldConfig {
        pressure: PressureConfig::with_budget(1_000_000),
        ..ServeWorldConfig::default()
    }
}

fn overloaded() -> ServeWorldConfig {
    ServeWorldConfig {
        requests: 2000,
        arrivals_per_window: 6,
        request_ops: 8,
        pressure: PressureConfig::with_budget(220),
        ..ServeWorldConfig::default()
    }
}

/// Only overload bursts perturb the run.
fn bursts() -> ServeWorldConfig {
    ServeWorldConfig {
        fault: Some(FaultConfig {
            overload_burst_pm: 500,
            overload_burst_len: 8,
            defer_start_pm: 0,
            early_start_pm: 0,
            skip_step_pm: 0,
            drain_boost_pm: 0,
            alloc_fail_pm: 0,
            ..FaultConfig::from_seed(77)
        }),
        ..light()
    }
}

/// The standard plan (skipped and boosted mark steps, allocation
/// failures) plus bursts, against a ladder tight enough to climb.
fn chaos() -> ServeWorldConfig {
    ServeWorldConfig {
        requests: 1200,
        fault: Some(FaultConfig {
            overload_burst_pm: 300,
            ..FaultConfig::from_seed(11)
        }),
        pressure: PressureConfig::with_budget(400),
        ..ServeWorldConfig::default()
    }
}

fn serve_outcome(out: &mut String, label: &str, o: &ServeOutcome) {
    let fields: Vec<String> = o.counters.fields().iter().map(u64::to_string).collect();
    writeln!(
        out,
        "{label} digest={:#018x} fields=[{}]",
        o.digest(),
        fields.join(" ")
    )
    .unwrap();
    writeln!(
        out,
        "  latencies n={} fnv={:#018x} high_water={} pressure={:?}",
        o.latencies.len(),
        fnv1a(o.latencies.iter().flat_map(|l| l.to_le_bytes())),
        o.high_water,
        o.pressure
    )
    .unwrap();
    for t in &o.transitions {
        writeln!(
            out,
            "  transition {}->{} {} at={} occupancy={}",
            t.from, t.to, t.reason, t.at_observation, t.occupancy
        )
        .unwrap();
    }
    for v in &o.violations {
        writeln!(out, "  violation step={} detail={}", v.step, v.detail).unwrap();
    }
}

fn render_serve(out: &mut String) {
    for mix in ServeScenario::ALL {
        writeln!(out, "== serve {mix}").unwrap();
        for (label, cfg) in [
            ("light", light()),
            ("overloaded", overloaded()),
            ("bursts", bursts()),
            ("chaos", chaos()),
        ] {
            let cfg = ServeWorldConfig {
                scenario: mix,
                ..cfg
            };
            serve_outcome(out, label, &run_serve(&cfg));
        }
    }
}

/// Runs `f` with tracing on and renders this thread's events in order.
/// Timestamps and durations are left out; everything else is written.
fn traced(out: &mut String, title: &str, f: impl FnOnce()) {
    let prev = wbe_telemetry::configure(wbe_telemetry::TelemetryConfig::all());
    wbe_telemetry::trace::drain();
    f();
    let events = wbe_telemetry::trace::drain();
    wbe_telemetry::configure(prev);
    let me = wbe_telemetry::trace::current_tid();
    writeln!(out, "== trace {title}").unwrap();
    for e in events.iter().filter(|e| e.tid == me) {
        write!(out, "{} <{}>", e.name, e.parent).unwrap();
        if !e.detail.is_empty() {
            write!(out, " {}", e.detail).unwrap();
        }
        if let wbe_telemetry::trace::EventKind::Counter { value: v } = e.kind {
            write!(out, " value={v}").unwrap();
        }
        out.push('\n');
    }
}

fn render_traces(out: &mut String) {
    let small = SchedConfig {
        threads: 2,
        ops_per_thread: 14,
        scenario: Scenario::Churn,
        ..SchedConfig::default()
    };
    traced(out, "sched churn threads=2 seed=3", || {
        run_schedule(&small, &SchedulePolicy::Random { seed: 3 });
    });
    let stalled = SchedConfig {
        arm_deadline: 0,
        fault: Some(FaultConfig::from_seed(5)),
        ..small
    };
    traced(out, "sched churn threads=2 seed=13 watchdog fault", || {
        run_schedule(&stalled, &SchedulePolicy::Random { seed: 13 });
    });
    let serve = ServeWorldConfig {
        requests: 90,
        arrivals_per_window: 5,
        connections: 2,
        pressure: PressureConfig::with_budget(60),
        fault: Some(FaultConfig {
            overload_burst_pm: 200,
            ..FaultConfig::from_seed(21)
        }),
        ..ServeWorldConfig::default()
    };
    traced(out, "serve session overloaded fault", || {
        run_serve(&serve);
    });
}

fn render() -> String {
    let mut out = String::new();
    render_sched(&mut out);
    render_systematic(&mut out);
    render_serve(&mut out);
    render_traces(&mut out);
    out
}

/// One test renders everything: tracing is a process-wide switch, and a
/// second world-running test in this binary would race it.
#[test]
fn cooperative_worlds_match_the_golden_file() {
    let golden = include_str!("cycle_driver.golden");
    let actual = render();
    if actual != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cycle_driver.actual");
        std::fs::write(&path, &actual).expect("scratch directory is writable");
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "cooperative-world output differs from cycle_driver.golden at line {}; \
             what this build produced is in {}",
            line + 1,
            path.display()
        );
    }
}

/// The cases reach what the golden file is meant to pin. Reads the file
/// only, so it cannot disturb the traced runs above.
#[test]
fn golden_covers_the_protocol() {
    let golden = include_str!("cycle_driver.golden");
    let field = |line: &str, i: usize| -> u64 {
        let inner = line.split("fields=[").nth(1).unwrap();
        let inner = inner.trim_end_matches(']');
        inner.split(' ').nth(i).unwrap().parse().unwrap()
    };
    let sched_rows = |variant: &str| -> Vec<&str> {
        let prefix = format!("{variant} seed=");
        let serve_at = golden.find("== serve").unwrap();
        golden[..serve_at]
            .lines()
            .filter(|l| l.starts_with(&prefix))
            .collect()
    };
    // SchedCounters::fields() order: 16 = fault_skipped_steps,
    // 17 = alloc_faults, 21 = watchdog_pacing, 22 = watchdog_emergency.
    assert_eq!(sched_rows("plain").len(), 45);
    assert!(sched_rows("fault").iter().any(|l| field(l, 16) > 0));
    assert!(sched_rows("fault").iter().any(|l| field(l, 17) > 0));
    assert!(sched_rows("watchdog").iter().any(|l| field(l, 21) > 0));
    assert!(sched_rows("watchdog").iter().any(|l| field(l, 22) > 0));
    assert!(golden.contains("violation kind=lost-object"));
    assert!(golden.contains("failure #"), "no systematic failure");
    // ServeCounters::fields() order: 18 = emergency_stw.
    let emergencies = golden
        .lines()
        .filter(|l| l.starts_with("overloaded ") || l.starts_with("chaos "))
        .filter(|l| field(l, 18) > 0)
        .count();
    assert!(
        emergencies >= 3,
        "emergency rung reached in {emergencies} rows"
    );
    for needle in [
        "sched.epoch.arm",
        "sched.safepoint.poll",
        "sched.safepoint.ack",
        "sched.satb.flush",
        "sched.epoch.snapshot",
        "sched.gc.stw",
        "sched.epoch.end_cycle",
        "sched.watchdog.pacing",
        "sched.watchdog.emergency",
        "sched.context_switch",
        "serve.heap.occupancy",
        "serve.fault.overload_burst",
        "serve.pressure.pace_start",
        "serve.pressure.emergency_stw",
        "serve.gc.stw",
        "heap.verify.post_sweep <sched.gc.stw>",
    ] {
        assert!(golden.contains(needle), "golden never shows `{needle}`");
    }
}
