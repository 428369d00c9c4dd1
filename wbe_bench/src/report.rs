//! The result of one workload, and its three renderings: the lines a
//! person reads, the versioned JSON document, and the one-line object
//! the acceptance driver reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use wbe_telemetry::json::{push_f64, push_str_escaped, ObjWriter};

use crate::metrics::{self, END_TO_END, PER_LAYER, SCHEMA_VERSION};
use crate::stats::Summary;
use crate::workloads::Row;

/// Everything one workload produced.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Timed reps taken.
    pub reps: usize,
    /// Operations attempted over all passes.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The distinct failure messages.
    pub failures: Vec<String>,
    /// End-to-end metrics defined on this workload, in schema order.
    pub end_to_end: Vec<(&'static str, Summary)>,
    /// Every per-layer metric, in schema order (0 where the workload
    /// does not exercise the layer); empty if the traced pass was
    /// skipped.
    pub per_layer: Vec<(&'static str, Summary, Option<String>)>,
    /// Self time per layer in the traced pass, ns.
    pub layer_self_ns: BTreeMap<&'static str, u64>,
    /// Wall covered by the traced pass's root spans, ns.
    pub traced_root_ns: u64,
    /// Detail rows.
    pub rows: Vec<Row>,
    /// Output digests of the check pass.
    pub digests: BTreeMap<String, u64>,
}

impl WorkloadResult {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// An end-to-end metric by name.
    pub fn e2e(&self, name: &str) -> Option<Summary> {
        self.end_to_end
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
    }
}

/// `open` + the items, comma-separated, + `close`.
fn joined(open: char, close: char, items: impl IntoIterator<Item = String>) -> String {
    let body = items.into_iter().collect::<Vec<_>>().join(",");
    format!("{open}{body}{close}")
}

/// `"key":value`, the key escaped and the value already JSON.
fn member(key: &str, value: &str) -> String {
    let mut out = String::new();
    push_str_escaped(&mut out, key);
    out.push(':');
    out.push_str(value);
    out
}

fn quoted(s: &str) -> String {
    let mut out = String::new();
    push_str_escaped(&mut out, s);
    out
}

fn summary_json(unit: &str, s: &Summary, exact: bool, note: Option<&str>) -> String {
    let mut out = String::new();
    let mut w = ObjWriter::new(&mut out);
    w.field_str("unit", unit);
    if exact || s.n == 1 {
        w.field_f64("value", s.median);
    } else {
        w.field_f64("median", s.median)
            .field_f64("q1", s.q1)
            .field_f64("q3", s.q3)
            .field_f64("min", s.min)
            .field_u64("n", s.n as u64);
    }
    if let Some(note) = note {
        w.field_str("note", note);
    }
    w.finish();
    out
}

/// The workload's JSON object.
pub fn workload_json(r: &WorkloadResult) -> String {
    let e2e = joined(
        '{',
        '}',
        r.end_to_end.iter().map(|(name, s)| {
            let def = metrics::end_to_end(name).expect("result names come from the schema");
            member(name, &summary_json(def.unit, s, def.bound == 0.0, None))
        }),
    );
    let layers = joined(
        '{',
        '}',
        r.per_layer.iter().map(|(name, s, note)| {
            let def = metrics::per_layer(name).expect("result names come from the schema");
            member(name, &summary_json(def.unit, s, def.exact, note.as_deref()))
        }),
    );
    let self_time = joined(
        '{',
        '}',
        r.layer_self_ns
            .iter()
            .map(|(layer, ns)| member(layer, &ns.to_string())),
    );
    let rows = joined(
        '[',
        ']',
        r.rows.iter().map(|row| {
            let mut out = String::new();
            let mut w = ObjWriter::new(&mut out);
            w.field_str("row", &row.name);
            for (k, v) in &row.values {
                w.field_f64(k, *v);
            }
            w.finish();
            out
        }),
    );
    let failures = joined('[', ']', r.failures.iter().map(|f| quoted(f)));
    let digests = joined(
        '{',
        '}',
        r.digests
            .iter()
            .map(|(k, v)| member(k, &format!("\"{v:#018x}\""))),
    );

    let mut out = String::new();
    let mut w = ObjWriter::new(&mut out);
    w.field_str("name", r.name)
        .field_str("why", metrics::workload(r.name).map_or("", |w| w.why))
        .field_u64("seed", r.seed)
        .field_u64("reps", r.reps as u64)
        .field_bool("correct", r.correct())
        .field_u64("attempted", r.attempted)
        .field_u64("failed", r.failed)
        .field_raw("failures", &failures)
        .field_raw("end_to_end", &e2e)
        .field_raw("per_layer", &layers)
        .field_u64("traced_wall_ns", r.traced_root_ns)
        .field_raw("layer_self_ns", &self_time)
        .field_raw("rows", &rows)
        .field_raw("digests", &digests);
    w.finish();
    out
}

/// The schema section: every metric's definition, and for each
/// per-layer metric what it is predicted to move.
fn schema_json() -> (String, String) {
    let e2e = joined(
        '[',
        ']',
        END_TO_END.iter().map(|d| {
            let workloads = joined('[', ']', d.workloads.iter().map(|w| quoted(w)));
            let mut out = String::new();
            let mut w = ObjWriter::new(&mut out);
            w.field_str("name", d.name)
                .field_str("unit", d.unit)
                .field_str("better", d.better.as_str())
                .field_f64("bound", d.bound)
                .field_raw("workloads", &workloads);
            w.finish();
            out
        }),
    );
    let layers = joined(
        '[',
        ']',
        PER_LAYER.iter().map(|d| {
            let moves = joined(
                '[',
                ']',
                d.moves.iter().flat_map(|(metric, workloads)| {
                    workloads
                        .iter()
                        .map(move |w| format!("{{\"metric\":\"{metric}\",\"workload\":\"{w}\"}}"))
                }),
            );
            let mut out = String::new();
            let mut w = ObjWriter::new(&mut out);
            w.field_str("name", d.name)
                .field_str("unit", d.unit)
                .field_str("layer", d.layer)
                .field_str("better", d.better.as_str())
                .field_bool("exact", d.exact)
                .field_raw("moves", &moves);
            w.finish();
            out
        }),
    );
    (e2e, layers)
}

/// The whole document: header, schema, and the given workload objects
/// (each as rendered by [`workload_json`]).
pub fn document_json(seed: u64, quick: bool, workloads: &[String]) -> String {
    let (e2e, layers) = schema_json();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = String::new();
    let mut w = ObjWriter::new(&mut out);
    w.field_u64("schema_version", SCHEMA_VERSION)
        .field_str("bench", "wbe_bench")
        .field_u64("seed", seed)
        .field_bool("quick", quick)
        .field_u64("nproc", nproc as u64)
        .field_u64("threads", 1)
        .field_raw("end_to_end", &e2e)
        .field_raw("per_layer", &layers)
        .field_raw("workloads", &format!("[\n{}\n]", workloads.join(",\n")));
    w.finish();
    out.push('\n');
    out
}

fn line(out: &mut String, name: &str, unit: &str, s: &Summary, exact: bool, note: Option<&str>) {
    let _ = write!(out, "  {name:<38} {:>16} {unit:<10}", trim(s.median));
    if !exact && s.n > 1 {
        let _ = write!(
            out,
            " q1 {} q3 {} min {} n {}",
            trim(s.q1),
            trim(s.q3),
            trim(s.min),
            s.n
        );
    }
    if let Some(note) = note {
        let _ = write!(out, " [{note}]");
    }
    out.push('\n');
}

/// Six significant digits, for reading; the JSON keeps every digit.
pub fn trim(v: f64) -> String {
    if v == 0.0 || (v.fract() == 0.0 && v.abs() < 1e15) {
        format!("{v}")
    } else {
        let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 12) as usize;
        format!("{v:.digits$}")
    }
}

/// Every metric by name with its unit, for a person.
pub fn human(r: &WorkloadResult) -> String {
    let mut out = format!(
        "== {} (seed {}, {} reps) ==\n end-to-end\n",
        r.name, r.seed, r.reps
    );
    for (name, s) in &r.end_to_end {
        let def = metrics::end_to_end(name).expect("result names come from the schema");
        line(&mut out, name, def.unit, s, def.bound == 0.0, None);
    }
    if !r.per_layer.is_empty() {
        out.push_str(" per-layer (0 = the workload does not exercise the layer)\n");
        for (name, s, note) in &r.per_layer {
            let def = metrics::per_layer(name).expect("result names come from the schema");
            line(&mut out, name, def.unit, s, def.exact, note.as_deref());
        }
        out.push_str(" traced pass, self time by layer\n");
        let total = r.traced_root_ns.max(1) as f64;
        for (layer, ns) in &r.layer_self_ns {
            let _ = writeln!(
                out,
                "  {layer:<38} {:>16} {:<10} {:.1}% of traced wall",
                trim(*ns as f64 / 1e3),
                "us",
                100.0 * *ns as f64 / total
            );
        }
    }
    if !r.rows.is_empty() {
        out.push_str(" rows\n");
        for row in &r.rows {
            let _ = write!(out, "  {:<28}", row.name);
            for (k, v) in &row.values {
                let _ = write!(out, " {k}={}", trim(*v));
            }
            out.push('\n');
        }
    }
    let _ = writeln!(
        out,
        " checks: {} attempted, {} failed",
        r.attempted, r.failed
    );
    for f in &r.failures {
        let _ = writeln!(out, "  FAIL {f}");
    }
    out
}

/// The acceptance driver's line: the universal end-to-end metrics
/// (`traced` false) or every per-layer metric plus the workload-specific
/// end-to-end ones (`traced` true; 0 where a metric does not apply).
pub fn contract_line(r: &WorkloadResult, traced: bool) -> String {
    let metric = |name: &str, unit: &str, v: f64| {
        let mut value = String::new();
        push_f64(&mut value, v);
        member(
            name,
            &format!("{{\"value\":{value},\"unit\":{}}}", quoted(unit)),
        )
    };
    let end_to_end = END_TO_END
        .iter()
        .filter(|d| d.name != "fail_ratio" && d.universal() != traced)
        .map(|d| metric(d.name, d.unit, r.e2e(d.name).map_or(0.0, |s| s.median)));
    let per_layer = r.per_layer.iter().filter(|_| traced).map(|(name, s, _)| {
        let def = metrics::per_layer(name).expect("result names come from the schema");
        metric(name, def.unit, s.median)
    });
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        r.correct(),
        r.attempted.max(1),
        r.failed,
        joined('{', '}', end_to_end.chain(per_layer))
    )
}
