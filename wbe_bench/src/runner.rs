//! The measurement protocol, the same for every workload.
//!
//! One process per workload, one thread. Work is a fixed count, never a
//! time limit, so deterministic fields repeat exactly; the time budget
//! only decides how many fixed-work reps are taken. Order:
//!
//! 1. set-up, [`SETUPS`] times, timed;
//! 2. one discarded warm-up rep;
//! 3. the timed reps, with the program's telemetry off, each preceded
//!    by one more timed set-up; `setup_s` is the median of them all;
//! 4. one **check pass**: the same inputs with full verification,
//!    untimed;
//! 5. one **traced pass**: the program's telemetry on, spans around
//!    every call into a layer, then the isolated layer probes.
//!
//! End-to-end metrics never come from the traced pass.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use wbe_telemetry::json;
use wbe_telemetry::TelemetryConfig;

use crate::metrics::{self, DEFAULT_SEED, END_TO_END, PER_LAYER};
use crate::report::WorkloadResult;
use crate::stats::Summary;
use crate::trace::Recorder;
use crate::workloads::{self, Facts, LayerCtx, Rep, Scale, Workload};

/// Set-up samples taken before the warm-up; one more precedes every
/// timed rep. `setup_s` is the median of all of them.
pub const SETUPS: usize = 5;
/// A set-up sample is the median of a batch: set-ups repeated until
/// they have taken this long in total...
const SETUP_BATCH_S: f64 = 0.02;
/// ...or there are this many.
const SETUP_BATCH_MAX: usize = 200;

/// How many timed reps to take.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Reps {
    /// Exactly this many.
    Count(usize),
    /// As many as fit in this many seconds, at least three.
    Seconds(f64),
}

/// Whether to run the traced pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trace {
    /// The whole protocol.
    Full,
    /// Stop after the check pass (`--trace 0`).
    Skip,
    /// The whole protocol, with the time budget split: a third for the
    /// timed reps, the rest for the traced pass and probes
    /// (`--trace 1`).
    Focus,
}

/// Options of one workload run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Timed reps.
    pub reps: Reps,
    /// Work divisor.
    pub scale: Scale,
    /// Traced pass selection.
    pub trace: Trace,
    /// Where to write `trace-<workload>.ndjson`.
    pub trace_dir: Option<PathBuf>,
}

/// The digests pinned for the default seed, by workload then name.
pub type Expected = BTreeMap<String, BTreeMap<String, u64>>;

/// Parses `expected/digests.json`.
///
/// # Errors
///
/// Malformed JSON or a digest that is not a hex string.
pub fn parse_expected(text: &str) -> Result<Expected, String> {
    let doc = json::parse(text)?;
    let mut out = Expected::new();
    let Some(json::Value::Obj(workloads)) = doc.get("digests") else {
        return Ok(out);
    };
    for (workload, digests) in workloads {
        let json::Value::Obj(digests) = digests else {
            return Err(format!("digests of {workload} are not an object"));
        };
        let entry = out.entry(workload.clone()).or_default();
        for (name, v) in digests {
            let hex = v
                .as_str()
                .and_then(|s| s.strip_prefix("0x"))
                .ok_or_else(|| format!("{workload}/{name}: not a 0x string"))?;
            let v = u64::from_str_radix(hex, 16).map_err(|e| format!("{workload}/{name}: {e}"))?;
            entry.insert(name.clone(), v);
        }
    }
    Ok(out)
}

/// Renders `expected/digests.json`.
pub fn render_expected(expected: &Expected) -> String {
    let mut out = format!("{{\n  \"seed\": {DEFAULT_SEED},\n  \"digests\": {{\n");
    let workloads: Vec<String> = expected
        .iter()
        .map(|(w, digests)| {
            let lines: Vec<String> = digests
                .iter()
                .map(|(k, v)| format!("      \"{k}\": \"{v:#018x}\""))
                .collect();
            format!("    \"{w}\": {{\n{}\n    }}", lines.join(",\n"))
        })
        .collect();
    out.push_str(&workloads.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}

/// Peak resident set of this process, MiB (`VmHWM`); 0 where `/proc`
/// does not say.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn first_difference(a: &Facts, b: &Facts) -> String {
    a.iter()
        .find(|(k, v)| b.get(*k) != Some(v))
        .or_else(|| b.iter().find(|(k, _)| !a.contains_key(*k)))
        .map_or("?".into(), |(k, v)| {
            format!("{k}: {v} vs {:?}", b.get(k).or(a.get(k)))
        })
}

/// One set-up sample: replaces `slot` with a freshly built workload
/// and returns the median set-up time of the batch that built it.
fn set_up(name: &str, opts: &Options, slot: &mut Option<Box<dyn Workload>>) -> Result<f64, String> {
    let mut batch = Vec::new();
    let started = Instant::now();
    while batch.is_empty()
        || (started.elapsed().as_secs_f64() < SETUP_BATCH_S && batch.len() < SETUP_BATCH_MAX)
    {
        drop(slot.take());
        let t = Instant::now();
        *slot = Some(workloads::build(name, opts.seed, opts.scale)?);
        batch.push(t.elapsed().as_secs_f64());
    }
    Ok(Summary::of(&batch).median)
}

/// Runs the whole protocol for workload `name`. With `expected`, a
/// full-size run at the default seed must reproduce its digests.
///
/// # Errors
///
/// An unknown workload name, or a trace file that cannot be written.
pub fn run_workload(
    name: &str,
    opts: &Options,
    expected: Option<&Expected>,
) -> Result<WorkloadResult, String> {
    let def = metrics::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let workload_id = metrics::WORKLOADS
        .iter()
        .position(|w| w.name == name)
        .expect("just looked up") as u32;
    wbe_telemetry::configure(TelemetryConfig::off());

    // 1. Set-up, 2. warm-up, 3. timed reps. Every rep starts from a
    // fresh set-up, so the set-up samples are spread over the whole
    // run rather than taken in one burst.
    let mut setups = Vec::new();
    let mut workload = None;
    for _ in 0..SETUPS {
        setups.push(set_up(name, opts, &mut workload)?);
    }
    let mut off = Recorder::off();
    let warmup = workload.as_mut().expect("set up").rep(&mut off);
    let (count, seconds) = match (opts.reps, opts.trace) {
        (Reps::Count(n), _) => (n.max(1), f64::INFINITY),
        (Reps::Seconds(s), Trace::Focus) => (3, s / 3.0),
        (Reps::Seconds(s), _) => (3, s),
    };
    let mut reps: Vec<Rep> = Vec::new();
    let started = Instant::now();
    while reps.len() < count || (seconds.is_finite() && started.elapsed().as_secs_f64() < seconds) {
        setups.push(set_up(name, opts, &mut workload)?);
        reps.push(workload.as_mut().expect("set up").rep(&mut off));
    }
    let mut workload = workload.expect("set up");
    let peak_rss = peak_rss_mb();

    let mut attempted = warmup.attempted;
    let mut failures: Vec<String> = warmup.failures.clone();
    for rep in &reps {
        attempted += rep.attempted;
        failures.extend(rep.failures.iter().cloned());
        // A deterministic field that differs on a second evaluation in
        // the same process fails the run.
        if rep.facts != warmup.facts {
            failures.push(format!(
                "deterministic fields differ between reps: {}",
                first_difference(&warmup.facts, &rep.facts)
            ));
        }
    }

    // 4. Check pass.
    let check = workload.check(&warmup.facts);
    attempted += check.attempted;
    failures.extend(check.failures.iter().cloned());
    if let Some(expected) = expected.filter(|_| opts.seed == DEFAULT_SEED && opts.scale.full()) {
        let pinned = expected.get(name);
        for (k, v) in &check.digests {
            match pinned.and_then(|p| p.get(k)) {
                Some(want) if want == v => {}
                Some(want) => failures.push(format!(
                    "digest {k}: {v:#018x}, expected/digests.json has {want:#018x}"
                )),
                None => failures.push(format!(
                    "digest {k}: {v:#018x} is not in expected/digests.json"
                )),
            }
        }
    }

    // End-to-end metrics.
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let ops: Vec<f64> = reps.iter().map(|r| r.ops as f64 / r.wall_s).collect();
    let mut timed: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for rep in &reps {
        for &(k, v) in &rep.timed {
            timed.entry(k).or_default().push(v);
        }
    }
    let mut values: BTreeMap<&'static str, Summary> = BTreeMap::from([
        ("setup_s", Summary::of(&setups)),
        ("wall_s", Summary::of(&walls)),
        ("ops_per_s", Summary::of(&ops)),
        ("peak_rss_mb", Summary::exact(peak_rss)),
    ]);
    for (k, v) in &timed {
        values.insert(k, Summary::of(v));
    }
    for &(k, v) in &check.counts {
        values.insert(k, Summary::exact(v));
    }

    // 5. Traced pass and probes.
    let mut per_layer = Vec::new();
    let mut layer_self_ns = BTreeMap::new();
    let mut traced_root_ns = 0;
    let mut rows = check.rows.clone();
    if opts.trace != Trace::Skip {
        let ctx = LayerCtx {
            untraced_wall_s: Summary::of(&walls).median,
            probe_reps: match opts.reps {
                Reps::Count(n) => n.clamp(1, 5),
                Reps::Seconds(_) => 3,
            },
        };
        let mut rec = Recorder::on(workload_id);
        let layers = workload.layers(&mut rec, &ctx);
        layer_self_ns = rec.self_ns_by_layer();
        traced_root_ns = rec.root_ns();
        rows.extend(layers.rows);
        let mut produced: BTreeMap<&'static str, _> = layers
            .values
            .into_iter()
            .map(|(k, s, note)| (k, (s, note)))
            .collect();
        for d in &PER_LAYER {
            let (s, note) = produced
                .remove(d.name)
                .unwrap_or((Summary::exact(0.0), None));
            per_layer.push((d.name, s, note));
        }
        if let Some((stray, _)) = produced.into_iter().next() {
            failures.push(format!("per-layer metric {stray} is not in the schema"));
        }
        if let Some(dir) = &opts.trace_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let path = dir.join(format!("trace-{name}.ndjson"));
            rec.write_ndjson(&path, name)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }

    for d in END_TO_END
        .iter()
        .filter(|d| d.on(name) && d.name != "fail_ratio")
    {
        if !values.contains_key(d.name) {
            failures.push(format!("end-to-end metric {} was not produced", d.name));
        }
    }
    // Distinct messages; every occurrence still counts as a failure.
    let failed = (failures.len() as u64).min(attempted.max(1));
    failures.sort();
    failures.dedup();
    values.insert(
        "fail_ratio",
        Summary::exact(failed as f64 / attempted.max(1) as f64),
    );
    let end_to_end = END_TO_END
        .iter()
        .filter(|d| d.on(name))
        .filter_map(|d| values.get(d.name).map(|s| (d.name, *s)))
        .collect();
    Ok(WorkloadResult {
        name: def.name,
        seed: opts.seed,
        reps: reps.len(),
        attempted,
        failed,
        failures,
        end_to_end,
        per_layer,
        layer_self_ns,
        traced_root_ns,
        rows,
        digests: check.digests,
    })
}
