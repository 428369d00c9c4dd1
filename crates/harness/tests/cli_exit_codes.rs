//! `wbe_tool` exit-code contract: 0 on success, nonzero when a run
//! traps or verification fails, 2 on usage errors.

use std::process::Command;

fn tool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wbe_tool"))
}

#[test]
fn fault_verification_passes_with_zero_exit() {
    let out = tool()
        .args([
            "verify", "jess", "--faults", "2", "--seed", "42", "--scale", "0.02",
        ])
        .output()
        .expect("spawn wbe_tool");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout:\n{stdout}");
    assert!(stdout.contains("jess"), "{stdout}");
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
    let out = tool()
        .args(["verify", "/nonexistent/path.wbe"])
        .output()
        .expect("spawn wbe_tool");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn usage_error_exits_two() {
    let out = tool()
        .args(["frobnicate"])
        .output()
        .expect("spawn wbe_tool");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn mcheck_stock_workloads_exit_zero() {
    let out = tool()
        .args([
            "mcheck",
            "--threads",
            "2",
            "--schedules",
            "12",
            "--seed",
            "1",
            "--ops",
            "16",
        ])
        .output()
        .expect("spawn wbe_tool");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout:\n{stdout}");
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
