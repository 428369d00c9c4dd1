//! Golden for the `wbe_tool` commands that run a workload outside
//! the per-site views `site_views.rs` pins.
//!
//! `cli_views.golden` holds, section by section, the stdout and exit
//! code of: differential fault verification over the suite and its
//! negative control on `jess`; `explain` on `jess` and `jbb`, which
//! run the workload with the oracle on; `run` of `jbb_main` under the
//! analysis' elision set; `report` without its `histograms:` and
//! `spans` sections, which hold timings; `analyze jess --dump`; and
//! two selections the suite-wide views in `site_views.rs` do not make:
//! `oracle` over two named workloads, both of which feed the headline,
//! with its worklist cut at 3, and `profile` of one workload with its
//! hot sites cut at 2.
//! Every run figure in them comes out of the interpreter's dispatch
//! loop, so a change to the loop that alters any observable run fails
//! here.
//!
//! To regenerate after an intended behaviour change, run the tests: a
//! mismatching section is written to the test scratch directory and the
//! failure names the file.

use std::process::Command;

/// Runs `wbe_tool args` and returns its stdout followed by an
/// `exit N` line.
fn capture(args: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_wbe_tool"))
        .args(args.split_whitespace())
        .output()
        .expect("spawn wbe_tool");
    let mut text = String::from_utf8_lossy(&out.stdout).into_owned();
    text.push_str(&format!("exit {}\n", out.status.code().unwrap_or(-1)));
    text
}

/// Compares `wbe_tool args` with the stanza of the golden file headed
/// `== args`, after `keep` has filtered its stdout.
fn check(args: &str, keep: fn(&str) -> String) {
    let golden = include_str!("cli_views.golden");
    let head = format!("== {args}\n");
    let start = golden
        .find(&head)
        .unwrap_or_else(|| panic!("cli_views.golden has no section '{args}'"))
        + head.len();
    let rest = &golden[start..];
    let expected = &rest[..rest.find("\n== ").map_or(rest.len(), |i| i + 1)];
    let actual = keep(&capture(args));
    if actual == expected {
        return;
    }
    let name = format!("cli_views.{}.actual", args.replace([' ', '/', '.'], "_"));
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, &actual).expect("scratch directory is writable");
    let line = actual
        .lines()
        .zip(expected.lines())
        .position(|(a, e)| a != e)
        .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
    panic!(
        "section '{args}' differs from cli_views.golden at its line {}; wrote {}",
        line + 1,
        path.display()
    );
}

fn all(text: &str) -> String {
    text.to_string()
}

/// `report` without its `histograms:` and `spans` sections: they hold
/// wall-clock timings. The exit line is kept.
fn untimed(text: &str) -> String {
    let mut keep = true;
    let mut out = String::new();
    for line in text.lines() {
        if line.starts_with("histograms:") {
            keep = false;
        }
        if keep || line.starts_with("exit ") {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[test]
fn fault_verification_matches_the_golden_file() {
    check("verify --faults 3 --seed 42 --scale 0.02", all);
    check(
        "verify jess --faults 3 --seed 42 --scale 0.02 --demo-unsound",
        all,
    );
}

#[test]
fn workload_explain_matches_the_golden_file() {
    check("explain jess", all);
    check("explain jbb", all);
}

#[test]
fn run_matches_the_golden_file() {
    check("run jbb jbb_main 10 --elide", all);
}

#[test]
fn report_matches_the_golden_file() {
    check("report --scale 0.02", untimed);
}

#[test]
fn analyze_dump_matches_the_golden_file() {
    check("analyze jess --dump", all);
}

#[test]
fn selected_workload_views_match_the_golden_file() {
    check(
        "oracle --workload jbb --workload server-churn --top 3 --format ndjson",
        all,
    );
    check("profile --workload db --top 2", all);
}
