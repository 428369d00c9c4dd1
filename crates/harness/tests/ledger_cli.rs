//! End-to-end contracts for the provenance-ledger commands:
//! `explain` names the first failing condition at every kept site of
//! the paper's example programs, `ledger-diff` catches a flipped
//! ledger with exit 1, and `mcheck --trace-out` writes valid Chrome
//! trace-event JSON.

use std::path::PathBuf;
use std::process::Command;

fn tool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wbe_tool"))
}

/// The paper's example programs (Fig. 2 expand, Fig. 3 hashtable, the
/// §2.4 w1/w2 motivating example), shipped in `testdata/`.
fn testdata(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../testdata")
        .join(name);
    path.to_str().unwrap().to_string()
}

fn tmp(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("wbe_ledger_cli_{}_{name}", std::process::id()));
    p.to_str().unwrap().to_string()
}

#[test]
fn explain_names_a_condition_for_every_kept_site_in_the_paper_examples() {
    let mut total_keeps = 0;
    let mut total_elides = 0;
    for file in ["expand.wbe", "hashtable.wbe", "w1w2.wbe"] {
        // Machine view: every keep record carries a nonempty keep_code.
        let out = tool()
            .args(["ledger", &testdata(file)])
            .output()
            .expect("spawn wbe_tool");
        assert!(out.status.success(), "{file}");
        let ndjson = String::from_utf8_lossy(&out.stdout);
        let mut keeps = 0;
        for line in ndjson.lines() {
            let v = wbe_telemetry::json::parse(line).unwrap_or_else(|e| panic!("{file}: {e}"));
            match v.get("verdict").unwrap().as_str().unwrap() {
                "elide" => total_elides += 1,
                "keep" => {
                    keeps += 1;
                    let code = v.get("keep_code").unwrap().as_str().unwrap();
                    assert!(!code.is_empty(), "{file}: keep site without a condition");
                    let detail = v.get("keep_detail").unwrap().as_str().unwrap();
                    assert!(!detail.is_empty(), "{file}: keep site without detail");
                }
                other => panic!("{file}: unexpected verdict {other}"),
            }
        }
        total_keeps += keeps;

        // Human view agrees: a KEEP stanza with its failing condition
        // wherever the ledger has one.
        let out = tool()
            .args(["explain", &testdata(file)])
            .output()
            .expect("spawn wbe_tool");
        assert!(out.status.success(), "{file}");
        let text = String::from_utf8_lossy(&out.stdout);
        if keeps > 0 {
            assert!(text.contains("KEEP — "), "{file}:\n{text}");
            assert!(text.contains("first failing condition:"), "{file}:\n{text}");
        }
    }
    // The examples exercise both verdicts: expand elides its aastore,
    // hashtable keeps its escaping store, w1w2 has one of each.
    assert!(total_keeps >= 2, "expected kept barriers in the examples");
    assert!(
        total_elides >= 2,
        "expected elided barriers in the examples"
    );
}

#[test]
fn explain_runs_a_workload_and_shows_what_happened_at_each_site() {
    let out = tool().args(["explain", "jess"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // Every stanza is still the static one...
    assert!(text.contains("KEEP — array-may-escape"), "{text}");
    assert!(text.contains("first failing condition:"), "{text}");
    assert!(
        text.contains("5 sites: 3 elided, 2 kept, 0 degraded"),
        "{text}"
    );
    // ...with the run under it: counts at the four sites that executed
    // (`Fact::<init>` only ever runs inlined), necessity at the two kept.
    assert_eq!(text.matches("\n  ran: ").count(), 4, "{text}");
    assert!(
        text.contains("  ran: 200 executions, 64 over a null pre-value, 400 barrier cycles"),
        "{text}"
    );
    assert_eq!(
        text.matches("\n  oracle: 0/200 kept executions necessary (0.000%)")
            .count(),
        2,
        "{text}"
    );
    assert_eq!(text.matches("\n  refuting witness: ").count(), 2, "{text}");
    // `--site` narrows the dynamic view like the static one.
    let one = tool()
        .args(["explain", "jess", "--method", "jess_main", "--site", "0"])
        .output()
        .unwrap();
    let one = String::from_utf8_lossy(&one.stdout);
    assert!(
        one.starts_with("jess_main@B6[2] putfield lhs: ELIDE"),
        "{one}"
    );
    assert_eq!(one.matches("\n  ran: ").count(), 1, "{one}");
    // A file has no entry point: nothing runs, nothing dynamic is shown.
    let file = tool()
        .args(["explain", &testdata("w1w2.wbe")])
        .output()
        .unwrap();
    assert!(!String::from_utf8_lossy(&file.stdout).contains("  ran: "));
    // The oracle-file round trip is gone, flag and all.
    let old = tool()
        .args(["explain", "jess", "--oracle", "/dev/null"])
        .output()
        .unwrap();
    assert_eq!(old.status.code(), Some(2));
}

#[test]
fn ledger_diff_exit_contract() {
    let a = tmp("a.ndjson");
    let b = tmp("b.ndjson");
    let src = testdata("expand.wbe");
    assert!(tool()
        .args(["ledger", &src, "--out", &a])
        .status()
        .unwrap()
        .success());
    assert!(tool()
        .args(["ledger", &src, "--demo-flip", "--out", &b])
        .status()
        .unwrap()
        .success());

    // Identical ledgers: exit 0.
    let same = tool().args(["ledger-diff", &a, &a]).output().unwrap();
    assert_eq!(same.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&same.stdout).contains("identical"));

    // Flipped ledger: regressions, exit 1, each flip named.
    let out = tool().args(["ledger-diff", &a, &b]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "flip must be a regression");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("REGRESSION newly-kept"), "{text}");

    // The reverse direction is an improvement: exit 0.
    let rev = tool().args(["ledger-diff", &b, &a]).output().unwrap();
    assert_eq!(rev.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&rev.stdout).contains("newly-elided"));

    // Missing or malformed input: exit 2.
    let missing = tool()
        .args(["ledger-diff", "/nonexistent.ndjson", &a])
        .output()
        .unwrap();
    assert_eq!(missing.status.code(), Some(2));
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

#[test]
fn ledger_is_byte_identical_across_processes() {
    let src = testdata("hashtable.wbe");
    let run = || {
        let out = tool().args(["ledger", &src]).output().unwrap();
        assert!(out.status.success());
        out.stdout
    };
    assert_eq!(run(), run(), "ledger must be deterministic");
}

#[test]
fn mcheck_trace_out_is_valid_chrome_trace_json() {
    let path = tmp("mcheck_trace.json");
    let out = tool()
        .args([
            "mcheck",
            "--threads",
            "2",
            "--schedules",
            "6",
            "--ops",
            "12",
            "--seed",
            "1",
            "--trace-out",
            &path,
        ])
        .output()
        .expect("spawn wbe_tool");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let body = std::fs::read_to_string(&path).expect("trace file written");
    let v = wbe_telemetry::json::parse(&body).expect("valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace must contain events");
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    assert!(
        names.iter().any(|n| n.starts_with("sched.")),
        "GC timeline instants present: {names:?}"
    );
    for e in events {
        assert!(e.get("ph").is_some() && e.get("ts").is_some() && e.get("pid").is_some());
    }
    std::fs::remove_file(&path).ok();
}
