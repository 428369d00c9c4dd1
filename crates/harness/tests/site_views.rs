//! Golden for every per-site view the harness renders.
//!
//! `profile`, `oracle`, the baseline gate, `soak`, `ledger` and
//! `explain` each answer "what happened at this store site" from their
//! own run of the workload and their own join of the ledger with the
//! interpreter's counters. `site_views.golden` was written by this
//! driver while each of them still did: byte equality afterwards says
//! that whatever they read the answer from now, it is the same answer.
//!
//! What is pinned, section by section: `profile` over the standard
//! suite (NDJSON and text); `oracle` over the suite plus the server
//! family on both engines (their NDJSON asserted equal, classic's
//! text); `soak --rounds 3 --seed 7 --scale 0.01 --escalate
//! --max-attempts 8` as NDJSON, which is where runtime revocations are
//! counted against the ledger; `ledger jess`; and `explain` on the
//! paper's three example programs. `baselines::measure(0.1)` is
//! compared with the committed `baselines/suite.ndjson` directly.
//!
//! To regenerate after an intended behaviour change, run the tests: a
//! mismatching section is written to the test scratch directory and the
//! failure names the file.

use wbe_harness::{baselines, ledger, oracle, profile, soak};
use wbe_interp::EngineKind;
use wbe_opt::OptMode;

/// Compares `actual` with the stanza of the golden file headed
/// `== section`.
fn check(section: &str, actual: &str) {
    let golden = include_str!("site_views.golden");
    let head = format!("== {section}\n");
    let start = golden
        .find(&head)
        .unwrap_or_else(|| panic!("site_views.golden has no section '{section}'"))
        + head.len();
    let rest = &golden[start..];
    let expected = &rest[..rest.find("\n== ").map_or(rest.len(), |i| i + 1)];
    if actual == expected {
        return;
    }
    let name = format!("site_views.{}.actual", section.replace([' ', '/'], "_"));
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, actual).expect("scratch directory is writable");
    let line = actual
        .lines()
        .zip(expected.lines())
        .position(|(a, e)| a != e)
        .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
    panic!(
        "section '{section}' differs from site_views.golden at its line {}; wrote {}",
        line + 1,
        path.display()
    );
}

#[test]
fn profile_views_match_the_golden_file() {
    let p = profile::measure(&profile::ProfileOptions::default()).expect("suite profiles");
    check("profile ndjson", &profile::to_ndjson(&p));
    check("profile text", &profile::to_text(&p));
}

#[test]
fn oracle_views_match_the_golden_file_on_both_engines() {
    let classic = oracle::measure(&oracle::OracleOptions::default()).expect("suite runs");
    let compiled = oracle::measure(&oracle::OracleOptions {
        engine: EngineKind::Compiled,
        ..oracle::OracleOptions::default()
    })
    .expect("suite runs");
    let ndjson = oracle::to_ndjson(&classic);
    assert_eq!(
        ndjson,
        oracle::to_ndjson(&compiled),
        "oracle NDJSON is engine-independent"
    );
    check("oracle ndjson", &ndjson);
    check("oracle text", &oracle::to_text(&classic));
}

#[test]
fn baseline_measurement_reproduces_the_committed_file() {
    let committed = include_str!("../../../baselines/suite.ndjson");
    assert_eq!(baselines::measure(baselines::SCALE).to_ndjson(), committed);
}

#[test]
fn escalated_soak_matches_the_golden_file() {
    let opts = soak::SoakOptions {
        rounds: 3,
        seed: 7,
        scale: 0.01,
        escalate: true,
        max_attempts: 8,
        ndjson: true,
        ..soak::SoakOptions::default()
    };
    let out = soak::run_soak(&opts);
    assert_eq!(out.exit_code, 1, "recovered, degraded beyond threshold 0");
    check("soak ndjson", &out.render(&opts));
}

#[test]
fn static_ledger_views_match_the_golden_file() {
    let jess = wbe_workloads::by_name("jess").expect("jess is a standard workload");
    let l = ledger::build_ledger(&jess.program, OptMode::Full, 100, false).expect("full mode");
    check("ledger jess", &l.to_ndjson());
    for file in ["expand.wbe", "hashtable.wbe", "w1w2.wbe"] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../testdata")
            .join(file);
        let text = std::fs::read_to_string(&path).expect("testdata is shipped");
        let program = wbe_ir::parse_program(&text).expect("testdata parses");
        let l = ledger::build_ledger(&program, OptMode::Full, 100, false).expect("full mode");
        check(
            &format!("explain testdata/{file}"),
            &ledger::explain(&l, None, None),
        );
    }
}
