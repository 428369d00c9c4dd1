//! `wbe_tool` exit-code contract: 0 on success, 1 when a gate fires or
//! a run traps, 2 when the tool could not run the check (usage, I/O,
//! unknown workload) — plus the determinism contracts of the commands
//! that print NDJSON. These were CI steps
//! shelling out to the release binary; here they fail under tier-1.

use std::path::PathBuf;
use std::process::Command;

fn tool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wbe_tool"))
}

/// A scratch path private to this test binary.
fn tmp(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_exit_{name}"));
    path.to_str().expect("utf-8 scratch path").to_string()
}

/// Runs `wbe_tool` with `args`; returns its exit code and stdout.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = tool().args(args).output().expect("spawn wbe_tool");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn fault_verification_passes_with_zero_exit() {
    // The whole suite under fifteen seeded schedules, negative control
    // included.
    let (code, stdout) = run(&[
        "verify",
        "--faults",
        "15",
        "--seed",
        "42",
        "--scale",
        "0.05",
        "--demo-unsound",
    ]);
    assert_eq!(code, Some(0), "stdout:\n{stdout}");
    for w in ["jess", "db", "javac", "mtrt", "jack", "jbb"] {
        assert!(stdout.contains(w), "{stdout}");
    }
    assert!(stdout.contains("demo     PASS"), "{stdout}");
    assert!(!stdout.contains("demo     FAIL"), "{stdout}");
    assert!(stdout.contains("verification passed"), "{stdout}");
}

#[test]
fn demo_unsound_is_detected_and_reported() {
    let out = tool()
        .args([
            "verify",
            "db",
            "--faults",
            "2",
            "--scale",
            "0.02",
            "--demo-unsound",
        ])
        .output()
        .expect("spawn wbe_tool");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Detection of the deliberately-unsound elision is a PASS for the
    // harness (the machinery caught it), so the exit code stays 0.
    assert!(out.status.success(), "stdout:\n{stdout}");
    assert!(stdout.contains("demo     PASS"), "{stdout}");
    assert!(stdout.contains("UNSOUND"), "{stdout}");
}

#[test]
fn trapping_run_exits_nonzero() {
    // The jess entry takes one int argument; passing none traps with
    // BadArgCount, which must surface as exit code 1.
    let w = wbe_workloads::by_name("jess").unwrap();
    let entry_name = w.program.method(w.entry).name.clone();
    let out = tool()
        .args(["run", "jess", &entry_name])
        .output()
        .expect("spawn wbe_tool");
    assert_eq!(out.status.code(), Some(1), "trap must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("trap"), "{stderr}");
}

#[test]
fn missing_file_exits_nonzero() {
    // Unreadable is the tool failing to run the check: 2, not a finding.
    for cmd in ["verify", "explain", "ledger"] {
        let (code, _) = run(&[cmd, "/nonexistent/path.wbe"]);
        assert_eq!(code, Some(2), "{cmd}");
    }
}

#[test]
fn source_that_parses_or_validates_badly_exits_one() {
    let garbage = tmp("garbage.wbe");
    std::fs::write(&garbage, "this is not a program\n").unwrap();
    assert_eq!(run(&["verify", &garbage]).0, Some(1));
    // Parses, but pops an empty operand stack.
    let invalid = tmp("invalid.wbe");
    std::fs::write(
        &invalid,
        "method m0 bad() locals=0\n  B0:\n    pop\n    return\n",
    )
    .unwrap();
    assert_eq!(
        run_stderr(&["verify", &invalid]),
        (
            Some(1),
            format!("{invalid}: validation failed: method m0 at B0[0]: operand stack underflow\n")
        )
    );
    // Well-formed, but stores an int into a reference field.
    let ill_typed = tmp("ill_typed.wbe");
    std::fs::write(
        &ill_typed,
        "class C0 T {\n  f: T\n}\nmethod m0 bad(a0: T) locals=1\n  B0:\n    load l0\n    \
         const 1\n    putfield T.f\n    return\n",
    )
    .unwrap();
    assert_eq!(
        run_stderr(&["verify", &ill_typed]),
        (
            Some(1),
            format!(
                "{ill_typed}: type check failed: method m0 at B0[2]: \
                 expected Ref operand, found Int\n"
            )
        )
    );
}

/// Runs `wbe_tool` with `args`; returns its exit code and stderr.
fn run_stderr(args: &[&str]) -> (Option<i32>, String) {
    let out = tool().args(args).output().expect("spawn wbe_tool");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unwritable_output_exits_two() {
    let w1w2 = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../testdata/w1w2.wbe");
    let nowhere = "/nonexistent-dir/out";
    let (code, _) = run(&["ledger", w1w2.to_str().unwrap(), "--out", nowhere]);
    assert_eq!(code, Some(2), "ledger --out");
    for flag in ["--metrics-out", "--trace-out", "--chrome-trace"] {
        let (code, _) = run(&["report", "jess", "--scale", "0.01", flag, nowhere]);
        assert_eq!(code, Some(2), "report {flag}");
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["fig3", flag, nowhere])
            .output()
            .expect("spawn experiments");
        assert_eq!(out.status.code(), Some(2), "experiments fig3 {flag}");
    }
}

#[test]
fn report_collects_metrics_from_every_layer() {
    let path = tmp("metrics.json");
    let (code, stdout) = run(&["report", "--scale", "0.05", "--metrics-out", &path]);
    assert_eq!(code, Some(0), "stdout:\n{stdout}");
    let m = wbe_telemetry::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let counters = m.get("counters").expect("counters section");
    for key in [
        "analysis.methods_analyzed",
        "interp.insns",
        "heap.gc.cycles",
    ] {
        assert!(counters.get(key).is_some(), "missing counter {key}");
    }
    let pauses = m
        .get("histograms")
        .and_then(|h| h.get("heap.gc.pause.work_units"))
        .expect("the report runs with an active GC policy");
    assert!(pauses.get("count").and_then(|c| c.as_u64()).unwrap() > 0);
}

#[test]
fn usage_error_exits_two() {
    // An unknown command is refused before its argument is read as a
    // program, so a readable file is not parsed into a finding (exit 1).
    // `throughput` is not a command, and `--mutators` is not a file.
    for args in [
        &["frobnicate"][..],
        &["frobnicate", "Cargo.toml"],
        &["throughput", "--mutators", "4"],
        &["throughput", "--mutators", "100000000"],
    ] {
        let out = tool().args(args).output().expect("spawn wbe_tool");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage: wbe_tool "), "{args:?}: {stderr}");
        assert!(!stderr.contains("cannot read"), "{args:?}: {stderr}");
        assert!(!stderr.contains(": line "), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn mcheck_stock_workloads_exit_zero() {
    let (code, stdout) = run(&[
        "mcheck",
        "--threads",
        "4",
        "--schedules",
        "200",
        "--seed",
        "1",
    ]);
    assert_eq!(code, Some(0), "stdout:\n{stdout}");
    assert!(stdout.contains("mcheck: sound"), "{stdout}");
    assert!(stdout.contains("schedules/sec"), "{stdout}");
}

#[test]
fn mcheck_demo_unsound_exits_one_with_replayable_seed() {
    let out = tool()
        .args([
            "mcheck",
            "--threads",
            "2",
            "--schedules",
            "200",
            "--seed",
            "1",
            "--ops",
            "16",
            "--scenario",
            "churn",
            "--demo-unsound",
        ])
        .output()
        .expect("spawn wbe_tool");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(stdout.contains("mcheck: UNSOUND"), "{stdout}");
    // The report hands back a full replay command line; running it
    // must reproduce the violation with the same exit code.
    let replay_line = stdout
        .lines()
        .find(|l| l.contains("reproduce: wbe_tool mcheck"))
        .expect("replay handle printed");
    let replay_args: Vec<&str> = replay_line
        .split("wbe_tool mcheck")
        .nth(1)
        .unwrap()
        .split_whitespace()
        .collect();
    let out2 = tool().arg("mcheck").args(&replay_args).output().unwrap();
    let stdout2 = String::from_utf8_lossy(&out2.stdout);
    assert_eq!(out2.status.code(), Some(1), "stdout:\n{stdout2}");
    assert!(stdout2.contains("UNSOUND"), "{stdout2}");
}

#[test]
fn mcheck_bad_flag_exits_two() {
    let out = tool()
        .args(["mcheck", "--threads", "not-a-number"])
        .output()
        .expect("spawn wbe_tool");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn serve_connections_out_of_range_exit_two() {
    // The runnable mask holds 31 connections and the marker; more used
    // to overflow it mid-run.
    for n in ["0", "32"] {
        let out = tool()
            .args(["serve", "--connections", n, "--requests", "16"])
            .output()
            .expect("spawn wbe_tool");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--connections {n}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "--connections {n}: no run, no report"
        );
        assert!(
            stderr.contains("--connections must be between 1 and 31"),
            "{stderr}"
        );
    }
    let (code, stdout) = run(&["serve", "--connections", "31", "--requests", "16"]);
    assert_eq!(code, Some(0), "stdout:\n{stdout}");
}

/// The sustained-overload invocation of the serve exit contract: the
/// ladder is walked to its last rung, no SLO is set.
fn serve_overloaded() -> Command {
    let mut cmd = tool();
    cmd.args([
        "serve",
        "--mix",
        "session",
        "--seed",
        "9",
        "--requests",
        "2000",
        "--arrivals",
        "6",
        "--request-ops",
        "8",
        "--heap-budget",
        "220",
    ]);
    cmd
}

#[test]
fn serve_nominal_exits_zero() {
    // A generous heap budget never leaves Nominal.
    let out = tool()
        .args([
            "serve",
            "--mix",
            "session",
            "--seed",
            "9",
            "--heap-budget",
            "1000000",
        ])
        .output()
        .expect("spawn wbe_tool");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
}

#[test]
fn serve_degraded_within_ladder_exits_one_and_replays_byte_for_byte() {
    // Sustained overload walks the ladder, but no SLO (none is set) is
    // violated: exit 1. The same seed must write identical NDJSON.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let run = |name: &str| {
        let path = dir.join(name);
        let out = serve_overloaded()
            .args(["--format", "ndjson", "--out"])
            .arg(&path)
            .output()
            .expect("spawn wbe_tool");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
        std::fs::read(&path).expect("serve wrote its NDJSON")
    };
    let a = run("serve_exit_a.ndjson");
    assert!(!a.is_empty());
    assert_eq!(a, run("serve_exit_b.ndjson"), "same seed, same bytes");
}

#[test]
fn serve_slo_violation_exits_two() {
    // An unmeetable p99 budget must fail the run.
    let out = serve_overloaded()
        .args(["--slo-p99", "1"])
        .output()
        .expect("spawn wbe_tool");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "stdout:\n{stdout}");
}

#[test]
fn profile_is_deterministic_and_gates_the_pause_slo_both_ways() {
    let (a, b) = (tmp("profile_a.ndjson"), tmp("profile_b.ndjson"));
    for path in [&a, &b] {
        let (code, _) = run(&[
            "profile",
            "--workload",
            "jbb",
            "--format",
            "ndjson",
            "--out",
            path,
        ]);
        assert_eq!(code, Some(0));
    }
    let bytes = std::fs::read(&a).unwrap();
    assert!(!bytes.is_empty());
    assert_eq!(bytes, std::fs::read(&b).unwrap(), "same run, same bytes");
    // A generous budget passes; a zero budget must be violated.
    let slo = |budget: &str| run(&["profile", "--workload", "jbb", "--slo-max-pause", budget]).0;
    assert_eq!(slo("1000000"), Some(0));
    assert_eq!(slo("0"), Some(1));
    assert_eq!(
        run(&["profile", "--workload", "no-such-workload"]).0,
        Some(2)
    );
}

#[test]
fn oracle_is_deterministic_and_rejects_unknown_workloads() {
    // Once to a file, once to stdout: the same bytes.
    let path = tmp("oracle.ndjson");
    let (code, _) = run(&["oracle", "--format", "ndjson", "--out", &path]);
    assert_eq!(code, Some(0));
    let bytes = std::fs::read_to_string(&path).unwrap();
    assert!(!bytes.is_empty());
    let (code, stdout) = run(&["oracle", "--format", "ndjson"]);
    assert_eq!(code, Some(0));
    assert_eq!(bytes, stdout, "same run, same bytes");
    let (code, stdout) = run(&["oracle", "--workload", "jess"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("dynamic upper bound"), "{stdout}");
    assert_eq!(
        run(&["oracle", "--workload", "no-such-workload"]).0,
        Some(2)
    );
    // The harness runs one dispatch loop; there is nothing to choose.
    assert_eq!(run(&["oracle", "--engine", "compiled"]).0, Some(2));
}

#[test]
fn soak_exit_contract_with_flight_recorder() {
    let soak = |name: &str, extra: &[&str]| {
        let flight = tmp(name);
        std::fs::remove_file(&flight).ok();
        let mut args = vec![
            "soak",
            "--seed",
            "7",
            "--scale",
            "0.01",
            "--flight-out",
            &flight,
        ];
        args.extend_from_slice(extra);
        let (code, stdout) = run(&args);
        let dumped = std::fs::metadata(&flight).map_or(0, |m| m.len());
        (code, stdout, dumped)
    };
    // Standard schedules never violate an invariant: 0, nothing dumped.
    let (code, stdout, dumped) = soak("flight_clean.json", &["--rounds", "1"]);
    assert_eq!((code, dumped), (Some(0), 0), "{stdout}");
    // Escalated: injected mark corruption is healed, leaving degraded
    // runs (1) and a flight-recorder dump.
    let (code, stdout, dumped) = soak(
        "flight_degraded.json",
        &["--rounds", "3", "--escalate", "--max-attempts", "8"],
    );
    assert_eq!(code, Some(1), "{stdout}");
    assert!(dumped > 0, "degraded soak dumps its flight recorder");
    // Negative control: persistent corruption exhausts the budget (2).
    let (code, stdout, dumped) = soak("flight_trap.json", &["--rounds", "1", "--unrecoverable"]);
    assert_eq!(code, Some(2), "{stdout}");
    assert!(dumped > 0, "trapped soak dumps its flight recorder");
}

#[test]
fn bench_check_baselines_against_the_committed_file() {
    let committed = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../baselines/suite.ndjson");
    let (code, stdout) = run(&[
        "bench",
        "--check-baselines",
        "--baselines",
        committed.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "stdout:\n{stdout}");
    assert!(stdout.contains("baselines OK"), "{stdout}");
    // One static count off by one is drift (1); no file is the tool
    // unable to check (2).
    let drifted = tmp("suite_drifted.ndjson");
    let text = std::fs::read_to_string(&committed).unwrap();
    let first = text.lines().next().unwrap();
    let sites = first.split("\"static_sites\":").nth(1).unwrap();
    let n: u64 = sites[..sites.find(',').unwrap()].parse().unwrap();
    let bumped = first.replacen(
        &format!("\"static_sites\":{n}"),
        &format!("\"static_sites\":{}", n + 1),
        1,
    );
    std::fs::write(&drifted, text.replacen(first, &bumped, 1)).unwrap();
    let out = tool()
        .args(["bench", "--check-baselines", "--baselines", &drifted])
        .output()
        .expect("spawn wbe_tool");
    assert_eq!(out.status.code(), Some(1));
    // The report names the first differing row and field.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!(
            "line 1 (jess): static_sites committed {}, measured {n}",
            n + 1
        )),
        "{stderr}"
    );
    assert_eq!(
        run(&[
            "bench",
            "--check-baselines",
            "--baselines",
            &tmp("absent.ndjson")
        ])
        .0,
        Some(2)
    );
}

/// `serve` prints its seed as `0x…`; handing that text back must run
/// the same world as the decimal spelling of the same number.
#[test]
fn serve_takes_back_the_seed_it_prints() {
    let seed = wbe_harness::serve::ServeOptions::default().seed;
    let args = |seed: &str| {
        run(&[
            "serve",
            "--requests",
            "64",
            "--format",
            "ndjson",
            "--seed",
            seed,
        ])
    };
    let hex = args(&format!("{seed:#018x}"));
    let decimal = args(&seed.to_string());
    assert_eq!(hex.0, decimal.0, "hex seed exit code");
    assert_eq!(hex.1, decimal.1);
}
