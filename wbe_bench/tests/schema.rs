//! Pins the emitted schema against `BENCHMARK.json`, in both
//! directions: a metric or workload that is renamed, added or dropped
//! on one side only fails here.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use wbe_bench_suite::metrics::{self, END_TO_END, PER_LAYER, WORKLOADS};
use wbe_telemetry::json::{self, Value};

const EXE: &str = env!("CARGO_BIN_EXE_wbe_bench");

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Value) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn keys(obj: &Value) -> Vec<String> {
    match obj {
        Value::Obj(members) => members.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// What `BENCHMARK.json` lists under `per_layer`: the end-to-end
/// metrics that are not defined on every workload, then every
/// per-layer metric.
fn contract_per_layer() -> Vec<(&'static str, &'static str, &'static str)> {
    END_TO_END
        .iter()
        .filter(|d| !d.universal() && d.name != "fail_ratio")
        .map(|d| (d.name, d.unit, d.better.as_str()))
        .chain(
            PER_LAYER
                .iter()
                .map(|d| (d.name, d.unit, d.better.as_str())),
        )
        .collect()
}

#[test]
fn benchmark_json_matches_the_schema() {
    let b = benchmark_json();
    assert_eq!(
        keys(&b),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads = b.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (w, def) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(keys(w), ["name", "why"]);
        assert_eq!(w.get("name").unwrap().as_str(), Some(def.name));
        assert_eq!(w.get("why").unwrap().as_str(), Some(def.why));
        assert!(
            def.why.len() <= 200 && !def.why.contains('\n'),
            "{}",
            def.name
        );
    }
    let e2e = b.get("end_to_end").unwrap().as_arr().unwrap();
    let universal: Vec<_> = END_TO_END.iter().filter(|d| d.universal()).collect();
    assert_eq!(e2e.len(), universal.len());
    for (m, def) in e2e.iter().zip(universal) {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        assert_eq!(m.get("name").unwrap().as_str(), Some(def.name));
        assert_eq!(m.get("unit").unwrap().as_str(), Some(def.unit));
        assert_eq!(m.get("better").unwrap().as_str(), Some(def.better.as_str()));
        assert_eq!(m.get("bound").unwrap().as_f64(), Some(def.bound));
        assert!(def.bound <= 0.25);
    }
    let layers = b.get("per_layer").unwrap().as_arr().unwrap();
    let want = contract_per_layer();
    assert_eq!(layers.len(), want.len());
    assert!(layers.len() <= 128);
    for (m, (name, unit, better)) in layers.iter().zip(want) {
        assert_eq!(keys(m), ["name", "unit", "better"]);
        assert_eq!(m.get("name").unwrap().as_str(), Some(name));
        assert_eq!(m.get("unit").unwrap().as_str(), Some(unit));
        assert_eq!(m.get("better").unwrap().as_str(), Some(better));
        assert!(unit.len() <= 16, "{unit}");
    }
    let paths = b.get("paths").unwrap().as_arr().unwrap();
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("wbe_bench"));
}

#[test]
fn quick_run_emits_exactly_the_schema() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("schema-quick.json");
    let status = Command::new(EXE)
        .args(["run", "--quick", "--reps", "2", "--out"])
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("wbe_bench runs");
    assert!(status.success(), "quick run failed a check");
    let doc = json::parse(&std::fs::read_to_string(&out).unwrap()).expect("document parses");
    assert!(doc.get("schema_version").and_then(Value::as_u64).is_some());

    let b = benchmark_json();
    let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(
        names(doc.get("workloads").unwrap()),
        names(b.get("workloads").unwrap())
    );

    // The document's own schema section equals the tables in
    // `metrics.rs`, and every prediction names something that exists.
    assert_eq!(
        names(doc.get("end_to_end").unwrap()),
        END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>()
    );
    assert_eq!(
        names(doc.get("per_layer").unwrap()),
        PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>()
    );
    for def in doc.get("per_layer").unwrap().as_arr().unwrap() {
        for mv in def.get("moves").unwrap().as_arr().unwrap() {
            let metric = mv.get("metric").unwrap().as_str().unwrap();
            let workload = mv.get("workload").unwrap().as_str().unwrap();
            let e = metrics::end_to_end(metric).unwrap_or_else(|| panic!("{metric}"));
            assert!(metrics::workload(workload).is_some(), "{workload}");
            assert!(e.on(workload), "{metric} is not defined on {workload}");
        }
    }

    // Emitted names equal the schema's, per workload, both ways.
    let mut seen_e2e = BTreeSet::new();
    for w in workloads {
        let name = w.get("name").unwrap().as_str().unwrap();
        assert!(well_formed(name));
        assert_eq!(w.get("failed").unwrap().as_u64(), Some(0), "{name}");
        let emitted = keys(w.get("end_to_end").unwrap());
        let want: Vec<&str> = END_TO_END
            .iter()
            .filter(|d| d.on(name))
            .map(|d| d.name)
            .collect();
        assert_eq!(emitted, want, "{name}");
        seen_e2e.extend(emitted);
        assert_eq!(
            keys(w.get("per_layer").unwrap()),
            PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>(),
            "{name}"
        );
        for (metric, v) in match w.get("end_to_end").unwrap() {
            Value::Obj(m) => m,
            _ => unreachable!(),
        } {
            assert!(well_formed(metric), "{metric}");
            assert!(v.get("unit").and_then(Value::as_str).is_some(), "{metric}");
        }
    }
    // Every end-to-end metric is emitted by some workload.
    assert_eq!(seen_e2e.len(), END_TO_END.len());
    // Every per-layer metric is exercised (non-zero) by some workload.
    for d in &PER_LAYER {
        let exercised = workloads.iter().any(|w| {
            let m = w.get("per_layer").unwrap().get(d.name).unwrap();
            m.get("value")
                .or(m.get("median"))
                .and_then(Value::as_f64)
                .is_some_and(|v| v != 0.0)
        });
        // Counts that are legitimately zero on today's programs.
        let may_be_zero = [
            "opt.fold_applied",
            "analysis.widenings",
            "analysis.degraded_methods",
        ];
        assert!(
            exercised || may_be_zero.contains(&d.name),
            "{} is never exercised",
            d.name
        );
    }
}

#[test]
fn driver_line_has_the_contract_shape() {
    let b = benchmark_json();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let output = Command::new(EXE)
            .args([
                "run",
                "--quick",
                "--workload",
                "mutator-churn",
                "--seed",
                "7",
            ])
            .args(["--seconds", "0.2", "--trace", trace])
            .output()
            .expect("wbe_bench runs");
        assert!(output.status.success());
        let stdout = String::from_utf8(output.stdout).unwrap();
        let last =
            json::parse(stdout.trim_end().lines().last().unwrap()).expect("last line is JSON");
        assert_eq!(keys(&last), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
        assert!(last.get("attempted").unwrap().as_u64().unwrap() >= 1);
        assert_eq!(
            keys(last.get("metrics").unwrap()),
            names(b.get(list).unwrap())
        );
        for (name, m) in match last.get("metrics").unwrap() {
            Value::Obj(m) => m,
            _ => unreachable!(),
        } {
            assert_eq!(keys(m), ["value", "unit"], "{name}");
            assert!(m.get("value").unwrap().as_f64().is_some(), "{name}");
        }
    }
}

#[test]
fn unknown_input_is_refused() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--trace", "2"],
        &["run", "--seconds", "-1"],
        &["frobnicate"],
        &["compare", "only-one.json"],
    ] {
        let status = Command::new(EXE)
            .args(args)
            .stderr(std::process::Stdio::null())
            .status()
            .unwrap();
        assert_eq!(status.code(), Some(2), "{args:?}");
    }
}
