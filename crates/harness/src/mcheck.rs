//! `wbe_tool mcheck` — CLI glue for the interleaving model checker.
//!
//! Drives [`wbe_heap::mcheck`] over the stock scheduler scenarios:
//! explores K seeded (or systematic, preemption-bounded) schedules of
//! N mutators racing the SATB marker, auditing every sweep against the
//! snapshot-reachable set recorded at `begin_marking`. Exit code 0
//! means every explored schedule was sound; 1 means at least one
//! schedule lost a snapshot-live object (the report includes a replay
//! handle that reproduces the exact trace); 2 is a usage error.
//!
//! `--demo-unsound` is the negative control: thread 0's unlink barrier
//! — *not* a pre-null store, so never legally elidable — is skipped,
//! and the checker must catch the resulting lost object.

use std::time::Instant;

use wbe_heap::mcheck::{replay_seed, run_mcheck, CheckerConfig, Replay};
use wbe_heap::sched::run_schedule;
use wbe_heap::{FaultConfig, Scenario, SchedConfig, SchedulePolicy};

use crate::flag_value;

/// Parsed `wbe_tool mcheck` options.
#[derive(Clone, Debug)]
pub struct McheckOptions {
    /// Mutator threads per schedule.
    pub threads: usize,
    /// Total schedules to explore (split across scenarios).
    pub schedules: u64,
    /// Base seed for the per-schedule seed stream.
    pub seed: u64,
    /// Workload operations per mutator.
    pub ops: usize,
    /// Restrict to one scenario (default: all three stock scenarios).
    pub scenario: Option<Scenario>,
    /// Systematic (preemption-bounded) exploration instead of random.
    pub systematic: bool,
    /// Preemption bound for systematic exploration.
    pub preempt_bound: usize,
    /// Deliberately elide a non-pre-null barrier (negative control).
    pub demo_unsound: bool,
    /// Compose a PR 2 fault plan derived from this seed into every
    /// schedule.
    pub fault_seed: Option<u64>,
    /// Replay a single failing schedule by its world seed.
    pub replay: Option<u64>,
    /// Replay a schedule from an explicit choice-prefix (hex bytes).
    pub replay_prefix: Option<Vec<u8>>,
    /// Write the GC timeline (safepoint polls/acks, SATB flushes,
    /// epoch transitions, context switches) as Chrome trace-event JSON.
    pub trace_out: Option<String>,
}

impl Default for McheckOptions {
    fn default() -> Self {
        McheckOptions {
            threads: 2,
            schedules: 50,
            seed: 1,
            ops: 40,
            scenario: None,
            systematic: false,
            preempt_bound: 2,
            demo_unsound: false,
            fault_seed: None,
            replay: None,
            replay_prefix: None,
            trace_out: None,
        }
    }
}

/// One-line flag summary for the tool's usage message.
pub const USAGE: &str = "mcheck:  [--threads N] [--schedules K] [--seed S] [--ops N] \
     [--scenario chain|churn|shared] [--systematic] [--preempt-bound B] \
     [--demo-unsound] [--fault-seed S] [--replay SEED | --replay-prefix HEX] \
     [--trace-out trace.json]";

/// Parses `mcheck` arguments. `Err` carries the message for stderr;
/// the caller exits 2.
pub fn parse(rest: &[String]) -> Result<McheckOptions, String> {
    let mut o = McheckOptions::default();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => o.threads = flag_value(&mut it)?,
            "--schedules" => o.schedules = flag_value(&mut it)?,
            "--seed" => o.seed = flag_value(&mut it)?,
            "--ops" => o.ops = flag_value(&mut it)?,
            "--scenario" => {
                let name = it.next().ok_or("--scenario needs a name")?;
                o.scenario = Some(name.parse::<Scenario>().map_err(|e| e.to_string())?);
            }
            "--systematic" => o.systematic = true,
            "--preempt-bound" => o.preempt_bound = flag_value(&mut it)?,
            "--demo-unsound" => o.demo_unsound = true,
            "--fault-seed" => o.fault_seed = Some(flag_value(&mut it)?),
            "--replay" => o.replay = Some(flag_value(&mut it)?),
            "--trace-out" => {
                o.trace_out = Some(it.next().ok_or("--trace-out needs a path")?.clone());
            }
            "--replay-prefix" => {
                let hex = it.next().ok_or("--replay-prefix needs hex bytes")?;
                let bytes: Result<Vec<u8>, _> = (0..hex.len())
                    .step_by(2)
                    .map(|i| u8::from_str_radix(hex.get(i..i + 2).unwrap_or(""), 16))
                    .collect();
                o.replay_prefix = Some(bytes.map_err(|_| format!("bad hex '{hex}'"))?);
            }
            other => return Err(format!("unknown mcheck flag '{other}'")),
        }
    }
    if o.threads == 0 || o.threads > 8 {
        return Err("--threads must be between 1 and 8".into());
    }
    Ok(o)
}

fn sched_config(o: &McheckOptions, scenario: Scenario) -> SchedConfig {
    SchedConfig {
        threads: o.threads,
        ops_per_thread: o.ops,
        scenario,
        demo_unsound: o.demo_unsound,
        fault: o.fault_seed.map(FaultConfig::from_seed),
        ..SchedConfig::default()
    }
}

/// Replays one schedule (by seed or explicit prefix) and prints its
/// digest and violations. Returns the process exit code.
fn run_replay(o: &McheckOptions) -> i32 {
    let scenario = o.scenario.unwrap_or_default();
    let sched = sched_config(o, scenario);
    let outcome = match (&o.replay, &o.replay_prefix) {
        (Some(seed), _) => replay_seed(&sched, *seed),
        (None, Some(prefix)) => run_schedule(
            &sched,
            &SchedulePolicy::Scripted {
                prefix: prefix.clone(),
            },
        ),
        (None, None) => unreachable!("replay mode requires a handle"),
    };
    println!(
        "replay: scenario {scenario}, {} threads, digest {:#018x}",
        o.threads,
        outcome.digest()
    );
    println!(
        "  {} steps, {} cycles, {} preemptions",
        outcome.counters.steps,
        outcome.counters.cycles,
        outcome.preemptions()
    );
    if outcome.violations.is_empty() {
        println!("replayed schedule is sound");
        0
    } else {
        for v in &outcome.violations {
            println!("  violation {v}");
        }
        println!(
            "replayed schedule is UNSOUND ({})",
            outcome.violations.len()
        );
        1
    }
}

/// Runs the model checker per the options and prints the report.
/// Returns the process exit code (0 sound, 1 violations found).
///
/// With `--trace-out`, event tracing is enabled for the run and the
/// collected GC timeline is written as Chrome trace-event JSON.
pub fn run(o: &McheckOptions) -> i32 {
    if o.trace_out.is_some() {
        wbe_telemetry::configure(wbe_telemetry::TelemetryConfig {
            tracing: true,
            ..wbe_telemetry::config::current()
        });
    }
    let code = run_inner(o);
    let trace_out = o.trace_out.as_deref().map(std::path::Path::new);
    if let Err(e) = wbe_telemetry::export::write_traces(None, trace_out) {
        eprintln!("{e}");
        return 2;
    }
    if let Some(path) = &o.trace_out {
        println!("gc timeline written to {path} (chrome://tracing / Perfetto)");
    }
    code
}

fn run_inner(o: &McheckOptions) -> i32 {
    if o.replay.is_some() || o.replay_prefix.is_some() {
        return run_replay(o);
    }
    let scenarios: Vec<Scenario> = match o.scenario {
        Some(s) => vec![s],
        None => Scenario::ALL.to_vec(),
    };
    println!(
        "model checker: {} threads, {} schedules over {} scenario(s), seed {}, {}{}",
        o.threads,
        o.schedules,
        scenarios.len(),
        o.seed,
        if o.systematic {
            format!("systematic (preempt bound {})", o.preempt_bound)
        } else {
            "random exploration".into()
        },
        if o.demo_unsound {
            " [demo-unsound negative control]"
        } else {
            ""
        },
    );

    let start = Instant::now();
    let mut explored = 0u64;
    let mut cycles = 0u64;
    let mut steps = 0u64;
    let mut failing = 0usize;
    for (i, &scenario) in scenarios.iter().enumerate() {
        // Split the budget; earlier scenarios absorb the remainder.
        let share = o.schedules / scenarios.len() as u64
            + u64::from((i as u64) < o.schedules % scenarios.len() as u64);
        if share == 0 {
            continue;
        }
        let cfg = CheckerConfig {
            sched: sched_config(o, scenario),
            schedules: share,
            seed: o.seed,
            systematic: o.systematic,
            preempt_bound: o.preempt_bound,
        };
        let report = run_mcheck(&cfg);
        explored += report.explored;
        cycles += report.cycles;
        steps += report.steps;
        println!(
            "scenario {scenario:<6} {} schedules, {} gc cycles, {} elided stores, {} gated, {} satb logged, {} failing",
            report.explored,
            report.cycles,
            report.totals.elided_stores,
            report.totals.gated_elisions,
            report.totals.satb_logged,
            report.failures.len()
        );
        // Everything that shapes the world must ride along in the
        // reproduce line, or the replayed schedule is a different one.
        let world_flags = format!(
            "--threads {} --ops {} --scenario {scenario}{}{}",
            o.threads,
            o.ops,
            if o.demo_unsound {
                " --demo-unsound"
            } else {
                ""
            },
            match o.fault_seed {
                Some(s) => format!(" --fault-seed {s}"),
                None => String::new(),
            },
        );
        for f in &report.failures {
            failing += 1;
            println!("{f}");
            match &f.replay {
                Replay::Seed(seed) => {
                    println!("  reproduce: wbe_tool mcheck {world_flags} --replay {seed:#x}")
                }
                Replay::Prefix(p) => {
                    let hex: String = p.iter().map(|b| format!("{b:02x}")).collect();
                    println!("  reproduce: wbe_tool mcheck {world_flags} --replay-prefix {hex}");
                }
            }
        }
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    println!(
        "explored {explored} schedules ({cycles} gc cycles, {steps} steps) in {:.2}s — {:.0} schedules/sec",
        start.elapsed().as_secs_f64(),
        explored as f64 / secs
    );
    if failing == 0 {
        println!("mcheck: sound — no snapshot-live object lost under any explored schedule");
        0
    } else {
        println!("mcheck: UNSOUND — {failing} failing schedule(s), replay handles above");
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_acceptance_command_line() {
        let o = parse(&args(&[
            "--threads",
            "4",
            "--schedules",
            "200",
            "--seed",
            "1",
        ]))
        .unwrap();
        assert_eq!((o.threads, o.schedules, o.seed), (4, 200, 1));
        assert!(!o.systematic && !o.demo_unsound);
    }

    #[test]
    fn parses_hex_seeds_scenarios_and_prefixes() {
        let o = parse(&args(&[
            "--replay",
            "0xdeadbeef",
            "--scenario",
            "churn",
            "--preempt-bound",
            "3",
        ]))
        .unwrap();
        assert_eq!(o.replay, Some(0xdead_beef));
        assert_eq!(o.scenario, Some(Scenario::Churn));
        assert_eq!(o.preempt_bound, 3);
        let o = parse(&args(&["--replay-prefix", "000102ff"])).unwrap();
        assert_eq!(o.replay_prefix, Some(vec![0, 1, 2, 0xff]));
    }

    #[test]
    fn rejects_bad_flags_and_values() {
        assert!(parse(&args(&["--bogus"])).is_err());
        assert!(parse(&args(&["--threads", "zero"])).is_err());
        assert!(parse(&args(&["--threads", "0"])).is_err());
        assert!(parse(&args(&["--scenario", "nope"])).is_err());
        assert!(parse(&args(&["--replay-prefix", "xy"])).is_err());
    }

    #[test]
    fn stock_run_is_sound_and_demo_unsound_is_caught() {
        let mut o = McheckOptions {
            schedules: 30,
            ops: 16,
            ..McheckOptions::default()
        };
        assert_eq!(run(&o), 0, "stock workloads must be sound");
        o.demo_unsound = true;
        o.scenario = Some(Scenario::Churn);
        o.schedules = 200;
        assert_eq!(run(&o), 1, "negative control must be caught");
    }

    #[test]
    fn replay_of_a_failing_seed_reproduces_the_violation() {
        // Find a failing seed the same way the checker does, then
        // drive the CLI replay path with it.
        let o = McheckOptions {
            demo_unsound: true,
            scenario: Some(Scenario::Churn),
            schedules: 200,
            ops: 16,
            ..McheckOptions::default()
        };
        let cfg = CheckerConfig {
            sched: sched_config(&o, Scenario::Churn),
            schedules: 200,
            seed: o.seed,
            ..CheckerConfig::default()
        };
        let report = run_mcheck(&cfg);
        assert!(!report.sound(), "negative control must fail");
        let Replay::Seed(seed) = report.failures[0].replay else {
            panic!("random exploration replays by seed");
        };
        let replay = McheckOptions {
            replay: Some(seed),
            ..o
        };
        assert_eq!(run(&replay), 1, "replay reproduces the violation");
    }
}
