//! Golden for what three runs leave in the process-global telemetry
//! registry: every counter and gauge, as `name=value`, after each run.
//!
//! The runs cover every runtime stats struct that mirrors itself into
//! the registry: a chaos `observe` of `db` as the baseline suite's
//! recovery probe runs it (interpreter, collector and recovery
//! controller), `wbe_tool serve` on the overloaded options README and
//! CI use (pressure ladder and `serve.*`), and a small model-checker
//! run (`sched.*`). Histograms and spans carry wall-clock samples and
//! are left out. The registry is shared by every test of a binary, so
//! this test lives alone in its file.
//!
//! To regenerate after an intended change to what is published, run
//! the test: on a mismatch it writes what it produced to the test
//! scratch directory and names the file.

use std::fmt::Write as _;

use wbe_harness::baselines::RECOVERY_FAULT_SEED;
use wbe_harness::serve::{run_serve_cmd, ServeOptions};
use wbe_harness::site::{observe, Chaos, RunSpec};
use wbe_heap::mcheck::run_mcheck;
use wbe_heap::{CheckerConfig, FaultConfig, SchedConfig, ServeScenario};
use wbe_interp::GcPolicy;
use wbe_telemetry::{configure, TelemetryConfig};

fn dump(out: &mut String, run: &str) {
    let snap = wbe_telemetry::registry::global().snapshot();
    writeln!(out, "== after {run}").unwrap();
    for (name, v) in &snap.counters {
        writeln!(out, "counter {name}={v}").unwrap();
    }
    for (name, v) in &snap.gauges {
        writeln!(out, "gauge {name}={v}").unwrap();
    }
}

fn render() -> String {
    let mut out = String::new();
    configure(TelemetryConfig {
        metrics: true,
        tracing: false,
    });
    let db = wbe_workloads::by_name("db").expect("db is a standard workload");
    observe(
        &db,
        &RunSpec {
            // The chaos runs' marking schedule (`soak`'s `CHAOS_GC`).
            gc: Some(GcPolicy {
                alloc_trigger: 64,
                step_interval: 8,
                step_budget: 4,
            }),
            chaos: Some(Chaos {
                faults: FaultConfig {
                    corrupt_mark_pm: 400,
                    ..FaultConfig::from_seed(RECOVERY_FAULT_SEED)
                },
                max_attempts: 5,
            }),
            ..RunSpec::baseline(0.02)
        },
    )
    .completed()
    .expect("the recovery probe's run completes");
    dump(&mut out, "observe db chaos");

    run_serve_cmd(&ServeOptions {
        mix: ServeScenario::Session,
        seed: 9,
        requests: 2000,
        arrivals_per_window: 6,
        request_ops: 8,
        heap_budget: 220,
        ..ServeOptions::default()
    });
    dump(&mut out, "serve overloaded");

    run_mcheck(&CheckerConfig {
        sched: SchedConfig {
            fault: Some(FaultConfig::from_seed(3)),
            ..SchedConfig::default()
        },
        schedules: 6,
        seed: 3,
        ..CheckerConfig::default()
    });
    dump(&mut out, "mcheck");
    out
}

#[test]
fn registry_counters_match_the_golden_file() {
    let golden = include_str!("registry_counters.golden");
    let actual = render();
    if actual != golden {
        let path =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("registry_counters.actual");
        std::fs::write(&path, &actual).expect("scratch directory is writable");
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "registry differs from registry_counters.golden at line {}; \
             what this build produced is in {}",
            line + 1,
            path.display()
        );
    }
}
