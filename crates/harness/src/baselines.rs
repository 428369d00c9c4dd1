//! Baseline-gated regression reports: committed per-workload numbers
//! (`baselines/suite.ndjson`) that `wbe_tool bench --check-baselines`
//! re-measures and compares line for line.
//!
//! Each workload line records the quantities a regression in the
//! analysis or runtime would move: static barrier sites and elided
//! sites, dynamic barrier executions and eliminated executions, GC
//! cycles, the power-of-two bucket of the largest
//! `heap.gc.pause.work_units` sample, the barrier cycles left at kept
//! sites and the costliest keep-code. The `__suite__` line pins the
//! suite-wide dynamic elision percentage, the measurement scale and the
//! recovery probe; the `__throughput__` lines pin what one interpreter
//! computes when it re-runs a bench workload up to an instruction
//! budget. Every number is a pure function of the tree, so
//! the gate allows no slack: the measured file must equal the committed
//! one byte for byte, and the first line that differs is the report.
//! DESIGN §10.3 lists which numbers this file owns and which other
//! pins it leaves to.
//!
//! `--update` remeasures and rewrites the file; the diff then goes
//! through code review like any other change.

use std::fmt;
use std::path::Path;

use wbe_heap::gc::MarkStyle;
use wbe_heap::FaultConfig;
use wbe_interp::{BarrierConfig, BarrierMode, Interp, Trap};
use wbe_opt::{OptMode, PipelineConfig};
use wbe_telemetry::json::{ObjWriter, Value};
use wbe_workloads::Workload;

use crate::site::{compile_workload_with, observe, Chaos, RunSpec, Totals, BASELINE_GC};

/// Default location of the committed baseline file, relative to the
/// repository root.
pub const DEFAULT_PATH: &str = "baselines/suite.ndjson";

/// The scale baselines are measured at (multiplies each workload's
/// default iteration count, matching the bench crate's reduced scale).
pub const SCALE: f64 = 0.1;

/// Pinned fault seed for the recovery probe: the baseline's recovery
/// counters are the numbers this seed produces, so any change to the
/// fault stream, the verifier, or the recovery state machine moves them
/// and trips the gate.
pub const RECOVERY_FAULT_SEED: u64 = 0x00C0_FFEE;
/// Post-remark corruption rate (‰) for the recovery probe.
const RECOVERY_CORRUPT_PM: u16 = 400;
/// Workload scale for the recovery probe (kept small; the probe's
/// counters are exact, not statistical).
const RECOVERY_SCALE: f64 = 0.02;

/// Instruction budget for the throughput probe rows (kept small; the
/// pinned quantities are deterministic facts, not rates).
const THROUGHPUT_OPS: u64 = 200_000;

/// Numbers for one workload.
#[derive(Debug)]
pub struct WorkloadBaseline {
    /// Workload name (a Table 1 class).
    pub workload: String,
    /// Barrier-relevant store sites after inlining (ledger records).
    pub static_sites: u64,
    /// Sites the analysis elides (ledger `elide` verdicts).
    pub static_elided: u64,
    /// Dynamic barrier executions.
    pub dyn_total: u64,
    /// Dynamic executions at elided sites.
    pub dyn_elided: u64,
    /// Completed GC cycles during the run.
    pub gc_cycles: u64,
    /// Power-of-two bucket of the largest GC pause (work units).
    pub max_pause_bucket: u64,
    /// Abstract barrier cycles charged at kept sites (the dynamic cost
    /// the elision left behind).
    pub kept_cycles: u64,
    /// Keep-code name with the most attributed barrier cycles (empty when
    /// no kept site executed) — pins the profiler's cost ranking.
    pub top_keep_code: &'static str,
}

/// The whole baseline file: per-workload rows plus suite-level facts.
#[derive(Debug)]
pub struct BaselineSuite {
    /// One row per standard-suite workload, in suite order.
    pub rows: Vec<WorkloadBaseline>,
    /// Suite-wide dynamic elision percentage.
    pub pct_elided: f64,
    /// Scale the numbers were measured at.
    pub scale: f64,
    /// Recovery attempts taken by the pinned-seed recovery probe (see
    /// [`RECOVERY_FAULT_SEED`]).
    pub recoveries_attempted: u64,
    /// Recovery attempts that healed the heap in the probe.
    pub recoveries_succeeded: u64,
    /// What the throughput probe computes on each bench workload, after
    /// the suite line: every fact of the run, none of its timing.
    pub throughput: Vec<(&'static str, MutatorFacts)>,
}

/// Deterministic facts of one throughput probe run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MutatorFacts {
    /// Instructions executed.
    pub insns: u64,
    /// Abstract cycles charged.
    pub cycles: u64,
    /// Cycles charged to barriers.
    pub barrier_cycles: u64,
    /// Executions of elided stores.
    pub elided: u64,
    /// Objects allocated.
    pub allocs: u64,
    /// Completed GC cycles.
    pub gc_cycles: u64,
    /// FNV-1a digest of the final heap.
    pub digest: u64,
}

fn bucket(v: u64) -> u64 {
    if v == 0 {
        0
    } else {
        64 - u64::from(v.leading_zeros())
    }
}

/// Measures the current tree's numbers for the standard suite at
/// `scale`, using the same deterministic GC policy as `wbe_tool
/// report`.
pub fn measure(scale: f64) -> BaselineSuite {
    let _guard = crate::measuring();
    let mut rows = Vec::new();
    let mut total = 0u64;
    let mut elim = 0u64;
    for w in &wbe_workloads::standard_suite() {
        let row = measure_workload(w, scale);
        // Only the six Table 1 mimics feed the suite elision rate: the
        // paper's headline number must not move when more families ride
        // along.
        total += row.dyn_total;
        elim += row.dyn_elided;
        rows.push(row);
    }
    // The server family rows are gated like the rest but contribute
    // nothing to `pct_elided`.
    for w in &wbe_workloads::server_family() {
        rows.push(measure_workload(w, scale));
    }
    let (recoveries_attempted, recoveries_succeeded) = recovery_probe();
    BaselineSuite {
        rows,
        pct_elided: crate::pct(elim, total),
        scale,
        recoveries_attempted,
        recoveries_succeeded,
        throughput: throughput_probe(),
    }
}

/// Runs the throughput probe: the bench workloads under the realistic
/// configuration (checked barriers + elision + deterministic GC
/// policy), recording only the deterministic facts.
fn throughput_probe() -> Vec<(&'static str, MutatorFacts)> {
    let mut rows = Vec::new();
    for name in ["jess", "jbb"] {
        let w = wbe_workloads::by_name(name).expect("bench workload exists");
        let (compiled, elided) =
            compile_workload_with(&w, &PipelineConfig::new(OptMode::Full, 100));
        let bc = BarrierConfig::with_elision(BarrierMode::Checked, elided);
        let mut engine = Interp::with_style(&compiled.program, bc, MarkStyle::Satb);
        engine.set_gc_policy(BASELINE_GC);
        let facts = run_mutator(&mut engine, &w, THROUGHPUT_OPS)
            .unwrap_or_else(|t| panic!("throughput probe {name} trapped: {t}"));
        rows.push((name, facts));
    }
    rows
}

/// Runs `engine` to its instruction budget and returns its facts. The
/// workload entry is re-run in fixed chunks (a pure function of the
/// workload) until `duration_ops` instructions have executed, so equal
/// budgets execute identical streams.
fn run_mutator(engine: &mut Interp, w: &Workload, duration_ops: u64) -> Result<MutatorFacts, Trap> {
    let chunk = (w.default_iters / 10).max(8);
    while engine.stats().insns < duration_ops {
        engine.run(w.entry, &[wbe_interp::Value::Int(chunk)], w.fuel_for(chunk))?;
    }
    let s = engine.stats();
    Ok(MutatorFacts {
        insns: s.insns,
        cycles: s.cycles,
        barrier_cycles: s.barrier_cycles,
        elided: s.elided_executions,
        allocs: engine.heap().stats.allocations,
        gc_cycles: engine.heap().gc.stats.cycles,
        digest: wbe_heap::debug::world_digest(engine.heap()),
    })
}

/// Measures one workload's baseline row.
fn measure_workload(w: &Workload, scale: f64) -> WorkloadBaseline {
    wbe_telemetry::registry::global().reset();
    let obs = observe(w, &RunSpec::baseline(scale))
        .completed()
        .unwrap_or_else(|e| panic!("{e}"));
    let sites = obs.sites();
    let totals = Totals::of(&sites);
    let max_pause = obs
        .telemetry
        .histogram("heap.gc.pause.work_units")
        .map_or(0, |h| h.max);
    // The profiler's cost ranking, with ties to the smaller code: the
    // baseline pins its winner.
    let top_keep_code = crate::profile::keep_code_costs(&sites)
        .into_iter()
        .max_by(|a, b| a.cycles.cmp(&b.cycles).then(b.code.cmp(a.code)))
        .map(|c| c.code)
        .unwrap_or_default();
    WorkloadBaseline {
        workload: w.name.to_string(),
        static_sites: obs.ledger().records.len() as u64,
        static_elided: obs.ledger().elided() as u64,
        dyn_total: totals.executions,
        dyn_elided: totals.elided_executions,
        gc_cycles: obs.gc.cycles,
        max_pause_bucket: bucket(max_pause),
        kept_cycles: totals.cycles,
        top_keep_code,
    }
}

/// Runs the pinned-seed recovery probe: one `db` run with post-remark
/// mark corruption injected under [`RECOVERY_FAULT_SEED`], invariant
/// verification on, and the self-healing controller installed. The
/// fault stream is a pure function of the seed, so the returned
/// (attempted, succeeded) counters are exact and gate-able.
fn recovery_probe() -> (u64, u64) {
    let w = wbe_workloads::by_name("db").expect("db is a standard workload");
    let obs = observe(
        &w,
        &RunSpec {
            gc: Some(crate::soak::CHAOS_GC),
            chaos: Some(Chaos {
                faults: FaultConfig {
                    corrupt_mark_pm: RECOVERY_CORRUPT_PM,
                    ..FaultConfig::from_seed(RECOVERY_FAULT_SEED)
                },
                max_attempts: 5,
            }),
            ..RunSpec::baseline(RECOVERY_SCALE)
        },
    )
    .completed()
    .unwrap_or_else(|e| panic!("recovery probe: {e}"));
    let rc = obs.recovery.expect("the spec installed a controller");
    (rc.stats.attempted, rc.stats.succeeded)
}

impl BaselineSuite {
    /// Serializes the suite as NDJSON: one line per workload, then the
    /// `__suite__` line. Deterministic given deterministic inputs.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            let mut w = ObjWriter::new(&mut out);
            w.field_str("workload", &r.workload)
                .field_u64("static_sites", r.static_sites)
                .field_u64("static_elided", r.static_elided)
                .field_u64("dyn_total", r.dyn_total)
                .field_u64("dyn_elided", r.dyn_elided)
                .field_u64("gc_cycles", r.gc_cycles)
                .field_u64("max_pause_bucket", r.max_pause_bucket)
                .field_u64("kept_cycles", r.kept_cycles)
                .field_str("top_keep_code", r.top_keep_code);
            w.finish();
            out.push('\n');
        }
        let mut w = ObjWriter::new(&mut out);
        w.field_str("workload", "__suite__")
            .field_raw("pct_elided", &format!("{:.3}", self.pct_elided))
            .field_raw("scale", &self.scale.to_string())
            .field_u64("recoveries_attempted", self.recoveries_attempted)
            .field_u64("recoveries_succeeded", self.recoveries_succeeded);
        w.finish();
        out.push('\n');
        // Throughput rows come last so adding them never moved the
        // pre-existing lines of a committed file.
        for (bench, f) in &self.throughput {
            let mut w = ObjWriter::new(&mut out);
            w.field_str("workload", "__throughput__")
                .field_str("bench", bench)
                .field_str("engine", "compiled")
                .field_u64("insns", f.insns)
                .field_u64("cycles", f.cycles)
                .field_u64("barrier_cycles", f.barrier_cycles)
                .field_u64("elided", f.elided)
                .field_u64("allocs", f.allocs)
                .field_u64("gc_cycles", f.gc_cycles)
                .field_str("digest", &format!("{:#018x}", f.digest));
            w.finish();
            out.push('\n');
        }
        out
    }
}

/// The first line at which a measured baseline file departs from the
/// committed one, named by row and, where the two lines parse, field.
#[derive(Debug, PartialEq, Eq)]
pub struct Drift {
    /// 1-based line number.
    pub line: usize,
    /// The row's `workload`, followed by its `bench` on probe rows.
    pub row: String,
    /// The first member whose key or value differs; empty when only the
    /// lines as a whole can be compared (one is missing, one does not
    /// parse, or they differ in formatting alone).
    pub field: String,
    /// The committed value (or line, or `<end of file>`).
    pub committed: String,
    /// The measured value (or line, or `<end of file>`).
    pub measured: String,
}

impl fmt::Display for Drift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {} ({})", self.line, self.row)?;
        if !self.field.is_empty() {
            write!(f, ": {}", self.field)?;
        }
        write!(
            f,
            " committed {}, measured {}",
            self.committed, self.measured
        )
    }
}

/// Compares two baseline files line for line. `None` means they are
/// byte-identical.
pub fn first_drift(committed: &str, measured: &str) -> Option<Drift> {
    let (mut c, mut m) = (committed.split('\n'), measured.split('\n'));
    let mut line = 0;
    loop {
        line += 1;
        match (c.next(), m.next()) {
            (None, None) => return None,
            (e, a) if e == a => continue,
            (e, a) => return Some(Drift::between(line, e, a)),
        }
    }
}

impl Drift {
    fn between(line: usize, committed: Option<&str>, measured: Option<&str>) -> Drift {
        let (c, m) = (members(committed), members(measured));
        let named = if c.is_empty() { &m } else { &c };
        let row: Vec<String> = named
            .iter()
            .filter(|(k, _)| k == "workload" || k == "bench")
            .map(|(_, v)| show(v))
            .collect();
        let row = if row.is_empty() {
            "-".to_string()
        } else {
            row.join(" ")
        };
        match (0..c.len().max(m.len())).find(|&i| c.get(i) != m.get(i)) {
            Some(i) if !c.is_empty() && !m.is_empty() => {
                let value = |ms: &[(String, Value)]| {
                    ms.get(i).map_or("<absent>".to_string(), |(_, v)| show(v))
                };
                Drift {
                    line,
                    row,
                    field: c
                        .get(i)
                        .or(m.get(i))
                        .map_or(String::new(), |(k, _)| k.clone()),
                    committed: value(&c),
                    measured: value(&m),
                }
            }
            _ => {
                let whole = |l: Option<&str>| l.unwrap_or("<end of file>").to_string();
                Drift {
                    line,
                    row,
                    field: String::new(),
                    committed: whole(committed),
                    measured: whole(measured),
                }
            }
        }
    }
}

/// A line's object members in order; empty when the line is absent or
/// is not a JSON object.
fn members(line: Option<&str>) -> Vec<(String, Value)> {
    match line.map(wbe_telemetry::json::parse) {
        Some(Ok(Value::Obj(m))) => m,
        _ => Vec::new(),
    }
}

/// A member value as it reads in the file (strings unquoted).
fn show(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::Num(n) => n.to_string(),
        other => format!("{other:?}"),
    }
}

/// The `wbe_tool bench --check-baselines` driver: measures, then either
/// rewrites `path` (`update`) or compares it line for line. Returns the
/// process exit code (0 identical/updated, 1 drift, 2 I/O error).
pub fn run_check(path: &Path, update: bool) -> i32 {
    let actual = measure(SCALE);
    let measured = actual.to_ndjson();
    if update {
        if let Some(dir) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                return 2;
            }
        }
        if let Err(e) = std::fs::write(path, measured) {
            eprintln!("cannot write {}: {e}", path.display());
            return 2;
        }
        println!("baselines updated: {}", path.display());
        return 0;
    }
    let committed = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "cannot read {} ({e}); seed it with --update",
                path.display()
            );
            return 2;
        }
    };
    for w in &actual.rows {
        println!(
            "{:<8} static {}/{} elided, dynamic {}/{} elided, {} gc cycles, pause bucket {}, \
             {} kept cycles (top: {})",
            w.workload,
            w.static_elided,
            w.static_sites,
            w.dyn_elided,
            w.dyn_total,
            w.gc_cycles,
            w.max_pause_bucket,
            w.kept_cycles,
            if w.top_keep_code.is_empty() {
                "-"
            } else {
                &w.top_keep_code
            }
        );
    }
    println!(
        "suite    {:.3}% of barrier executions elided, recovery probe {}/{} \
         (seed {RECOVERY_FAULT_SEED:#x})",
        actual.pct_elided, actual.recoveries_succeeded, actual.recoveries_attempted
    );
    match first_drift(&committed, &measured) {
        None => {
            println!("baselines OK ({})", path.display());
            0
        }
        Some(d) => {
            eprintln!("BASELINE DRIFT at {}: {d}", path.display());
            eprintln!("run with --update to accept the measured numbers");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = include_str!("../../../baselines/suite.ndjson");

    #[test]
    fn measure_has_the_suite_shape_and_self_compares_clean() {
        let suite = measure(0.05);
        // Six Table 1 mimics plus the two server-family workloads.
        assert_eq!(suite.rows.len(), 8);
        assert!(suite.rows[6].workload.starts_with("server"));
        assert!(suite.rows[7].workload.starts_with("server"));
        let text = suite.to_ndjson();
        assert_eq!(first_drift(&text, &text), None);
        // Sanity: the suite elides a substantial share of barriers.
        assert!(suite.pct_elided > 20.0, "{}", suite.pct_elided);
        // The headline rate is computed over the six standard rows only;
        // server rows ride along without moving it.
        let (t, e) = suite.rows[..6].iter().fold((0u64, 0u64), |(t, e), r| {
            (t + r.dyn_total, e + r.dyn_elided)
        });
        assert!((suite.pct_elided - 100.0 * e as f64 / t as f64).abs() < 1e-9);
        assert!(suite.rows.iter().all(|r| r.static_sites > 0));
        // The pinned-seed probe actually exercises recovery, and every
        // attempt healed (the probe's corruption is transient).
        assert!(suite.recoveries_attempted > 0);
        assert_eq!(suite.recoveries_attempted, suite.recoveries_succeeded);
        // One throughput row per bench workload.
        let benches: Vec<&str> = suite.throughput.iter().map(|t| t.0).collect();
        assert_eq!(benches, ["jess", "jbb"]);
    }

    /// `COMMITTED` with the first `from` replaced by `to`.
    fn edited(from: &str, to: &str) -> String {
        assert!(COMMITTED.contains(from), "{from}");
        COMMITTED.replacen(from, to, 1)
    }

    fn drift(line: usize, row: &str, field: &str, committed: &str, measured: &str) -> Drift {
        Drift {
            line,
            row: row.into(),
            field: field.into(),
            committed: committed.into(),
            measured: measured.into(),
        }
    }

    #[test]
    fn perturbed_baselines_are_rejected() {
        assert_eq!(first_drift(COMMITTED, COMMITTED), None);
        let cases = [
            (
                edited("\"static_elided\":3,", "\"static_elided\":4,"),
                drift(1, "jess", "static_elided", "4", "3"),
            ),
            // A 1.9 % shift is drift like any other.
            (
                edited("\"kept_cycles\":61929", "\"kept_cycles\":63105"),
                drift(6, "jbb", "kept_cycles", "63105", "61929"),
            ),
            (
                edited(
                    "\"gc_cycles\":12,\"max_pause_bucket\":4",
                    "\"gc_cycles\":13,\"max_pause_bucket\":4",
                ),
                drift(6, "jbb", "gc_cycles", "13", "12"),
            ),
            (
                edited("\"max_pause_bucket\":5", "\"max_pause_bucket\":6"),
                drift(8, "server-churn", "max_pause_bucket", "6", "5"),
            ),
            (
                edited(
                    "\"top_keep_code\":\"receiver-may-escape\"",
                    "\"top_keep_code\":\"x\"",
                ),
                drift(3, "javac", "top_keep_code", "x", "receiver-may-escape"),
            ),
            (
                edited("\"pct_elided\":25.770", "\"pct_elided\":25.771"),
                drift(9, "__suite__", "pct_elided", "25.771", "25.77"),
            ),
            (
                edited("\"scale\":0.1", "\"scale\":1"),
                drift(9, "__suite__", "scale", "1", "0.1"),
            ),
            (
                edited("\"recoveries_succeeded\":4", "\"recoveries_succeeded\":3"),
                drift(9, "__suite__", "recoveries_succeeded", "3", "4"),
            ),
            (
                edited("0xb8574f4c25df041d", "0xb8574f4c25df041c"),
                drift(
                    11,
                    "__throughput__ jbb",
                    "digest",
                    "0xb8574f4c25df041c",
                    "0xb8574f4c25df041d",
                ),
            ),
            // Formatting alone: no member differs, the lines do.
            (
                edited("\"pct_elided\":25.770", "\"pct_elided\":25.77"),
                drift(
                    9,
                    "__suite__",
                    "",
                    &COMMITTED.lines().nth(8).unwrap().replace("25.770", "25.77"),
                    COMMITTED.lines().nth(8).unwrap(),
                ),
            ),
        ];
        for (committed, want) in cases {
            assert_eq!(first_drift(&committed, COMMITTED), Some(want));
        }
        // A row the file lacks, or one it has too many of.
        let last = COMMITTED.lines().last().unwrap();
        let n = COMMITTED.lines().count();
        let truncated = COMMITTED.replacen(&format!("{last}\n"), "", 1);
        let d = first_drift(&truncated, COMMITTED).unwrap();
        assert_eq!(
            (d.line, d.row.as_str(), d.field.as_str()),
            (n, "__throughput__ jbb", "")
        );
        assert_eq!((d.committed.as_str(), d.measured.as_str()), ("", last));
        let d = first_drift(COMMITTED, &truncated).unwrap();
        assert_eq!((d.line, d.committed.as_str()), (n, last));
        let d = first_drift(&format!("{COMMITTED}\n"), COMMITTED).unwrap();
        assert_eq!((d.line, d.row.as_str()), (n + 2, "-"));
        assert_eq!(d.measured, "<end of file>");
        assert!(d.to_string().starts_with(&format!("line {}", n + 2)), "{d}");
    }
}
