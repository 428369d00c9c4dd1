//! Baseline-gated regression reports: committed per-workload
//! expectations (`baselines/suite.ndjson`) that `wbe_tool bench
//! --check-baselines` measures against with tolerances.
//!
//! Each workload line records the deterministic quantities a regression
//! in the analysis or runtime would move: static barrier sites and
//! elided sites (exact — the analysis is deterministic), dynamic
//! barrier executions and eliminated executions (small relative
//! tolerance), GC cycles, and the max-pause bucket (power-of-two bucket
//! of the largest `heap.gc.pause.work_units` sample, ±1 bucket). The
//! trailing `__suite__` line pins the suite-wide dynamic elision
//! percentage and the measurement scale.
//!
//! `--update` remeasures and rewrites the file; the diff then goes
//! through code review like any other change.

use std::path::Path;

use wbe_heap::gc::MarkStyle;
use wbe_heap::FaultConfig;
use wbe_interp::{BarrierConfig, BarrierMode, EngineKind, Value};
use wbe_opt::OptMode;
use wbe_telemetry::json::ObjWriter;

use crate::runner::compile_workload;
use crate::site::{observe, Chaos, RunSpec, Totals, BASELINE_GC};

/// Default location of the committed baseline file, relative to the
/// repository root.
pub const DEFAULT_PATH: &str = "baselines/suite.ndjson";

/// The scale baselines are measured at (multiplies each workload's
/// default iteration count, matching the bench crate's reduced scale).
pub const SCALE: f64 = 0.1;

/// Pinned fault seed for the recovery probe: the baseline's recovery
/// counters are the *exact* numbers this seed produces, so any change
/// to the fault stream, the verifier, or the recovery state machine
/// moves them and trips the gate.
pub const RECOVERY_FAULT_SEED: u64 = 0x00C0_FFEE;
/// Post-remark corruption rate (‰) for the recovery probe.
const RECOVERY_CORRUPT_PM: u16 = 400;
/// Workload scale for the recovery probe (kept small; the probe's
/// counters are exact, not statistical).
const RECOVERY_SCALE: f64 = 0.02;

/// Per-mutator instruction budget for the throughput probe rows (kept
/// small; the pinned quantities are deterministic facts, not rates).
const THROUGHPUT_OPS: u64 = 200_000;

/// Relative tolerance for dynamic counts.
const REL_TOL: f64 = 0.02;
/// Absolute slack for dynamic counts (covers tiny denominators).
const ABS_TOL: u64 = 8;
/// Absolute tolerance for the suite elision percentage (points).
const PCT_TOL: f64 = 1.0;

/// Expectations for one workload.
#[derive(Clone, Debug, PartialEq)]
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
    /// Keep-code with the most attributed barrier cycles (empty when no
    /// kept site executed) — pins the profiler's cost ranking.
    pub top_keep_code: String,
}

/// Deterministic facts of one throughput-bench cell (workload ×
/// engine), pinned exactly: the wall-clock rate is machine-dependent,
/// but everything the run *computes* is not — and classic/compiled rows
/// must be identical, folding the engine-equivalence claim into the
/// baseline gate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThroughputBaseline {
    /// Benchmark workload name.
    pub bench: String,
    /// Engine that produced the row (`classic` or `compiled`).
    pub engine: String,
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
    /// Final world digest.
    pub digest: u64,
}

/// Deterministic facts of one necessity-oracle probe cell (workload ×
/// engine), pinned exactly. Like the throughput rows, classic and
/// compiled cells must be identical — the oracle's verdict stream is
/// part of the engine-equivalence contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleBaseline {
    /// Probe workload name.
    pub bench: String,
    /// Engine that produced the row (`classic` or `compiled`).
    pub engine: String,
    /// Kept-barrier executions witnessed by the oracle.
    pub executions: u64,
    /// Semantically necessary SATB enqueues.
    pub necessary: u64,
    /// Kept sites whose barrier was never necessary.
    pub never_sites: u64,
    /// Necessary enqueues that were the sole snapshot witness.
    pub sole_witness: u64,
    /// Necessary enqueues still root-reachable at remark.
    pub shielded: u64,
    /// Marking cycles audited at their remark.
    pub cycles_audited: u64,
    /// Objects that escaped their allocating logical thread.
    pub escaped_objects: u64,
}

/// The whole baseline file: per-workload rows plus suite-level facts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BaselineSuite {
    /// One row per standard-suite workload, in suite order.
    pub rows: Vec<WorkloadBaseline>,
    /// Suite-wide dynamic elision percentage.
    pub pct_elided: f64,
    /// Scale the numbers were measured at.
    pub scale: f64,
    /// Recovery attempts taken by the pinned-seed recovery probe
    /// (exact; see [`RECOVERY_FAULT_SEED`]).
    pub recoveries_attempted: u64,
    /// Recovery attempts that healed the heap in the probe (exact).
    pub recoveries_succeeded: u64,
    /// Per-engine throughput probe rows (exact), after the suite line.
    pub throughput: Vec<ThroughputBaseline>,
    /// Per-engine necessity-oracle probe rows (exact), last.
    pub oracle: Vec<OracleBaseline>,
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
    let throughput = throughput_probe();
    let oracle = oracle_probe(scale);
    BaselineSuite {
        rows,
        pct_elided: if total == 0 {
            0.0
        } else {
            100.0 * elim as f64 / total as f64
        },
        scale,
        recoveries_attempted,
        recoveries_succeeded,
        throughput,
        oracle,
    }
}

/// Runs the necessity-oracle probe: the bench workloads through
/// [`crate::oracle`]'s view of the baseline run, once per engine.
/// Every pinned quantity is exact — the oracle's verdicts are a pure
/// function of the deterministic execution, and classic/compiled rows
/// must match, folding the oracle side of engine equivalence into the
/// baseline gate.
fn oracle_probe(scale: f64) -> Vec<OracleBaseline> {
    let mut rows = Vec::new();
    for name in ["jess", "jbb"] {
        let w = wbe_workloads::by_name(name).expect("bench workload exists");
        for kind in [EngineKind::Classic, EngineKind::Compiled] {
            let o = crate::oracle::oracle_workload(&w, true, kind, scale)
                .unwrap_or_else(|e| panic!("oracle probe: {e}"));
            rows.push(OracleBaseline {
                bench: name.to_string(),
                engine: kind.name().to_string(),
                executions: o.kept_executions,
                necessary: o.necessary_executions,
                never_sites: o.never_necessary_sites,
                sole_witness: o.sites.iter().map(|s| s.sole_witness).sum(),
                shielded: o.sites.iter().map(|s| s.shielded).sum(),
                cycles_audited: o.cycles_audited,
                escaped_objects: o.escaped_objects,
            });
        }
    }
    rows
}

/// Runs the throughput probe: the bench workloads under the realistic
/// configuration (checked barriers + elision + deterministic GC
/// policy), once per engine, recording only the deterministic facts.
/// A divergence between the classic and compiled rows is an engine-
/// equivalence regression; a divergence from the committed file is a
/// semantic change to the workload, analysis, or runtime.
fn throughput_probe() -> Vec<ThroughputBaseline> {
    let mut rows = Vec::new();
    for name in ["jess", "jbb"] {
        let w = wbe_workloads::by_name(name).expect("bench workload exists");
        let (compiled, elided) = compile_workload(&w, OptMode::Full, 100);
        let chunk = (w.default_iters / 10).max(8);
        for kind in [EngineKind::Classic, EngineKind::Compiled] {
            let bc = BarrierConfig::with_elision(BarrierMode::Checked, elided.clone());
            let mut engine = kind.build(&compiled.program, bc, MarkStyle::Satb);
            engine.set_gc_policy(BASELINE_GC);
            while engine.stats().insns < THROUGHPUT_OPS {
                engine
                    .run(w.entry, &[Value::Int(chunk)], w.fuel_for(chunk))
                    .unwrap_or_else(|t| panic!("throughput probe {name} trapped: {t}"));
            }
            let s = engine.stats();
            rows.push(ThroughputBaseline {
                bench: name.to_string(),
                engine: kind.name().to_string(),
                insns: s.insns,
                cycles: s.cycles,
                barrier_cycles: s.barrier_cycles,
                elided: s.elided_executions,
                allocs: engine.heap().stats.allocations,
                gc_cycles: engine.heap().gc.stats.cycles,
                digest: wbe_heap::debug::world_digest(engine.heap()),
            });
        }
    }
    rows
}

/// Measures one workload's baseline row.
fn measure_workload(w: &wbe_workloads::Workload, scale: f64) -> WorkloadBaseline {
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
        .max_by(|a, b| a.cycles.cmp(&b.cycles).then(b.code.cmp(&a.code)))
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
            gc: crate::soak::CHAOS_GC,
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
                .field_str("top_keep_code", &r.top_keep_code);
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
        // Throughput rows come last so adding them never moves the
        // pre-existing lines of a committed file.
        for t in &self.throughput {
            let mut w = ObjWriter::new(&mut out);
            w.field_str("workload", "__throughput__")
                .field_str("bench", &t.bench)
                .field_str("engine", &t.engine)
                .field_u64("insns", t.insns)
                .field_u64("cycles", t.cycles)
                .field_u64("barrier_cycles", t.barrier_cycles)
                .field_u64("elided", t.elided)
                .field_u64("allocs", t.allocs)
                .field_u64("gc_cycles", t.gc_cycles)
                .field_str("digest", &format!("{:#018x}", t.digest));
            w.finish();
            out.push('\n');
        }
        // Oracle rows likewise append after everything older.
        for o in &self.oracle {
            let mut w = ObjWriter::new(&mut out);
            w.field_str("workload", "__oracle__")
                .field_str("bench", &o.bench)
                .field_str("engine", &o.engine)
                .field_u64("executions", o.executions)
                .field_u64("necessary", o.necessary)
                .field_u64("never_sites", o.never_sites)
                .field_u64("sole_witness", o.sole_witness)
                .field_u64("shielded", o.shielded)
                .field_u64("cycles_audited", o.cycles_audited)
                .field_u64("escaped_objects", o.escaped_objects);
            w.finish();
            out.push('\n');
        }
        out
    }

    /// Parses the NDJSON form back. `Err` names the offending line.
    pub fn parse(ndjson: &str) -> Result<BaselineSuite, String> {
        let mut suite = BaselineSuite::default();
        for (lineno, line) in ndjson.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = wbe_telemetry::json::parse(line)
                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let name = v
                .get("workload")
                .and_then(|f| f.as_str())
                .ok_or_else(|| format!("line {}: missing 'workload'", lineno + 1))?
                .to_string();
            if name == "__suite__" {
                suite.pct_elided = v
                    .get("pct_elided")
                    .and_then(|f| f.as_f64())
                    .ok_or_else(|| format!("line {}: missing 'pct_elided'", lineno + 1))?;
                suite.scale = v
                    .get("scale")
                    .and_then(|f| f.as_f64())
                    .ok_or_else(|| format!("line {}: missing 'scale'", lineno + 1))?;
                // Absent in pre-recovery baseline files: read as 0 so
                // the gate reports the drift instead of failing to
                // parse (fix with --update).
                suite.recoveries_attempted = v
                    .get("recoveries_attempted")
                    .and_then(|f| f.as_u64())
                    .unwrap_or(0);
                suite.recoveries_succeeded = v
                    .get("recoveries_succeeded")
                    .and_then(|f| f.as_u64())
                    .unwrap_or(0);
                continue;
            }
            let get = |k: &str| -> Result<u64, String> {
                v.get(k)
                    .and_then(|f| f.as_u64())
                    .ok_or_else(|| format!("line {}: missing integer '{k}'", lineno + 1))
            };
            if name == "__throughput__" {
                let get_str = |k: &str| -> Result<String, String> {
                    v.get(k)
                        .and_then(|f| f.as_str())
                        .map(str::to_string)
                        .ok_or_else(|| format!("line {}: missing '{k}'", lineno + 1))
                };
                let digest_hex = get_str("digest")?;
                let digest = u64::from_str_radix(digest_hex.trim_start_matches("0x"), 16)
                    .map_err(|e| format!("line {}: bad digest: {e}", lineno + 1))?;
                suite.throughput.push(ThroughputBaseline {
                    bench: get_str("bench")?,
                    engine: get_str("engine")?,
                    insns: get("insns")?,
                    cycles: get("cycles")?,
                    barrier_cycles: get("barrier_cycles")?,
                    elided: get("elided")?,
                    allocs: get("allocs")?,
                    gc_cycles: get("gc_cycles")?,
                    digest,
                });
                continue;
            }
            if name == "__oracle__" {
                let get_str = |k: &str| -> Result<String, String> {
                    v.get(k)
                        .and_then(|f| f.as_str())
                        .map(str::to_string)
                        .ok_or_else(|| format!("line {}: missing '{k}'", lineno + 1))
                };
                suite.oracle.push(OracleBaseline {
                    bench: get_str("bench")?,
                    engine: get_str("engine")?,
                    executions: get("executions")?,
                    necessary: get("necessary")?,
                    never_sites: get("never_sites")?,
                    sole_witness: get("sole_witness")?,
                    shielded: get("shielded")?,
                    cycles_audited: get("cycles_audited")?,
                    escaped_objects: get("escaped_objects")?,
                });
                continue;
            }
            suite.rows.push(WorkloadBaseline {
                workload: name,
                static_sites: get("static_sites")?,
                static_elided: get("static_elided")?,
                dyn_total: get("dyn_total")?,
                dyn_elided: get("dyn_elided")?,
                gc_cycles: get("gc_cycles")?,
                max_pause_bucket: get("max_pause_bucket")?,
                kept_cycles: get("kept_cycles")?,
                top_keep_code: v
                    .get("top_keep_code")
                    .and_then(|f| f.as_str())
                    .ok_or_else(|| format!("line {}: missing 'top_keep_code'", lineno + 1))?
                    .to_string(),
            });
        }
        Ok(suite)
    }
}

fn within_rel(expected: u64, actual: u64) -> bool {
    let slack = ((expected as f64 * REL_TOL) as u64).max(ABS_TOL);
    actual.abs_diff(expected) <= slack
}

/// Compares `actual` against the committed `expected` baselines.
/// Returns one human-readable violation per out-of-tolerance quantity
/// (empty means the gate passes).
pub fn compare(expected: &BaselineSuite, actual: &BaselineSuite) -> Vec<String> {
    let mut violations = Vec::new();
    if expected.scale != actual.scale {
        violations.push(format!(
            "scale mismatch: baseline measured at {}, this run at {}",
            expected.scale, actual.scale
        ));
        return violations;
    }
    for exp in &expected.rows {
        let Some(act) = actual.rows.iter().find(|r| r.workload == exp.workload) else {
            violations.push(format!("{}: missing from this run", exp.workload));
            continue;
        };
        let mut exact = |what: &str, e: u64, a: u64| {
            if e != a {
                violations.push(format!("{}: {what} expected {e}, got {a}", exp.workload));
            }
        };
        exact("static_sites", exp.static_sites, act.static_sites);
        exact("static_elided", exp.static_elided, act.static_elided);
        let mut rel = |what: &str, e: u64, a: u64| {
            if !within_rel(e, a) {
                violations.push(format!(
                    "{}: {what} expected {e} ±{:.0}%, got {a}",
                    exp.workload,
                    REL_TOL * 100.0
                ));
            }
        };
        rel("dyn_total", exp.dyn_total, act.dyn_total);
        rel("dyn_elided", exp.dyn_elided, act.dyn_elided);
        rel("kept_cycles", exp.kept_cycles, act.kept_cycles);
        if exp.top_keep_code != act.top_keep_code {
            violations.push(format!(
                "{}: top_keep_code expected '{}', got '{}'",
                exp.workload, exp.top_keep_code, act.top_keep_code
            ));
        }
        if act.gc_cycles.abs_diff(exp.gc_cycles) > ((exp.gc_cycles as f64 * 0.1) as u64).max(1) {
            violations.push(format!(
                "{}: gc_cycles expected {} ±10%, got {}",
                exp.workload, exp.gc_cycles, act.gc_cycles
            ));
        }
        if act.max_pause_bucket.abs_diff(exp.max_pause_bucket) > 1 {
            violations.push(format!(
                "{}: max_pause_bucket expected {} ±1, got {}",
                exp.workload, exp.max_pause_bucket, act.max_pause_bucket
            ));
        }
    }
    for act in &actual.rows {
        if !expected.rows.iter().any(|r| r.workload == act.workload) {
            violations.push(format!(
                "{}: not in the baseline file (run with --update)",
                act.workload
            ));
        }
    }
    if (expected.pct_elided - actual.pct_elided).abs() > PCT_TOL {
        violations.push(format!(
            "suite: pct_elided expected {:.3} ±{PCT_TOL}, got {:.3}",
            expected.pct_elided, actual.pct_elided
        ));
    }
    // The recovery probe is fully deterministic: exact equality.
    if expected.recoveries_attempted != actual.recoveries_attempted {
        violations.push(format!(
            "suite: recoveries_attempted expected {}, got {}",
            expected.recoveries_attempted, actual.recoveries_attempted
        ));
    }
    if expected.recoveries_succeeded != actual.recoveries_succeeded {
        violations.push(format!(
            "suite: recoveries_succeeded expected {}, got {}",
            expected.recoveries_succeeded, actual.recoveries_succeeded
        ));
    }
    // Throughput probe rows are fully deterministic: exact equality,
    // field by field.
    for exp in &expected.throughput {
        let Some(act) = actual
            .throughput
            .iter()
            .find(|t| t.bench == exp.bench && t.engine == exp.engine)
        else {
            violations.push(format!(
                "throughput {}/{}: missing from this run",
                exp.bench, exp.engine
            ));
            continue;
        };
        if act != exp {
            violations.push(format!(
                "throughput {}/{}: expected {exp:?}, got {act:?}",
                exp.bench, exp.engine
            ));
        }
    }
    for act in &actual.throughput {
        if !expected
            .throughput
            .iter()
            .any(|t| t.bench == act.bench && t.engine == act.engine)
        {
            violations.push(format!(
                "throughput {}/{}: not in the baseline file (run with --update)",
                act.bench, act.engine
            ));
        }
    }
    // Oracle probe rows are fully deterministic: exact equality.
    for exp in &expected.oracle {
        let Some(act) = actual
            .oracle
            .iter()
            .find(|o| o.bench == exp.bench && o.engine == exp.engine)
        else {
            violations.push(format!(
                "oracle {}/{}: missing from this run",
                exp.bench, exp.engine
            ));
            continue;
        };
        if act != exp {
            violations.push(format!(
                "oracle {}/{}: expected {exp:?}, got {act:?}",
                exp.bench, exp.engine
            ));
        }
    }
    for act in &actual.oracle {
        if !expected
            .oracle
            .iter()
            .any(|o| o.bench == act.bench && o.engine == act.engine)
        {
            violations.push(format!(
                "oracle {}/{}: not in the baseline file (run with --update)",
                act.bench, act.engine
            ));
        }
    }
    violations
}

/// The `wbe_tool bench --check-baselines` driver: measures, then either
/// rewrites `path` (`update`) or gates against it. Returns the process
/// exit code (0 pass/updated, 1 regression, 2 I/O or parse error).
pub fn run_check(path: &Path, update: bool) -> i32 {
    let actual = measure(SCALE);
    if update {
        if let Some(dir) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                return 2;
            }
        }
        if let Err(e) = std::fs::write(path, actual.to_ndjson()) {
            eprintln!("cannot write {}: {e}", path.display());
            return 2;
        }
        println!("baselines updated: {}", path.display());
        return 0;
    }
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "cannot read {} ({e}); seed it with --update",
                path.display()
            );
            return 2;
        }
    };
    let expected = match BaselineSuite::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            return 2;
        }
    };
    let violations = compare(&expected, &actual);
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
    if violations.is_empty() {
        println!("baselines OK ({})", path.display());
        0
    } else {
        for v in &violations {
            eprintln!("BASELINE VIOLATION: {v}");
        }
        eprintln!(
            "{} violation(s) against {}",
            violations.len(),
            path.display()
        );
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_round_trips_and_self_compares_clean() {
        let suite = measure(0.05);
        // Six Table 1 mimics plus the two server-family workloads.
        assert_eq!(suite.rows.len(), 8);
        assert!(suite.rows[6].workload.starts_with("server"));
        assert!(suite.rows[7].workload.starts_with("server"));
        let parsed = BaselineSuite::parse(&suite.to_ndjson()).unwrap();
        assert_eq!(parsed.rows.len(), suite.rows.len());
        assert!(
            compare(&parsed, &suite).is_empty(),
            "{:?}",
            compare(&parsed, &suite)
        );
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
        // Throughput rows: both engines per bench workload, and the
        // deterministic facts agree across engines.
        assert_eq!(suite.throughput.len(), 4);
        assert_eq!(parsed.throughput, suite.throughput);
        for pair in suite.throughput.chunks(2) {
            assert_eq!(pair[0].bench, pair[1].bench);
            assert_eq!(pair[0].engine, "classic");
            assert_eq!(pair[1].engine, "compiled");
            assert_eq!(
                (pair[0].insns, pair[0].cycles, pair[0].digest),
                (pair[1].insns, pair[1].cycles, pair[1].digest),
                "{}: engines disagree",
                pair[0].bench
            );
        }
        // Oracle rows: both engines per bench workload, byte-for-byte
        // identical necessity verdicts.
        assert_eq!(suite.oracle.len(), 4);
        assert_eq!(parsed.oracle, suite.oracle);
        for pair in suite.oracle.chunks(2) {
            assert_eq!(pair[0].bench, pair[1].bench);
            assert_eq!(pair[0].engine, "classic");
            assert_eq!(pair[1].engine, "compiled");
            assert!(
                pair[0].executions > 0,
                "{}: no kept barriers",
                pair[0].bench
            );
            assert!(pair[0].necessary <= pair[0].executions);
            let (mut a, mut b) = (pair[0].clone(), pair[1].clone());
            a.engine.clear();
            b.engine.clear();
            assert_eq!(a, b, "{}: oracle engines disagree", pair[0].bench);
        }
    }

    #[test]
    fn perturbed_baselines_are_rejected() {
        let suite = measure(0.05);
        let mut perturbed = suite.clone();
        perturbed.rows[0].static_elided += 1;
        perturbed.rows[1].dyn_total = perturbed.rows[1].dyn_total * 3 / 2;
        perturbed.rows[2].max_pause_bucket += 5;
        perturbed.rows[3].kept_cycles = perturbed.rows[3].kept_cycles * 2 + 100;
        perturbed.rows[4].top_keep_code = "no-such-code".to_string();
        perturbed.pct_elided += 10.0;
        perturbed.recoveries_attempted += 1;
        perturbed.recoveries_succeeded += 2;
        perturbed.throughput[0].digest ^= 1;
        perturbed.oracle[0].necessary += 1;
        let violations = compare(&perturbed, &suite);
        assert!(violations.len() >= 9, "{violations:?}");
        assert!(
            violations.iter().any(|v| v.contains("kept_cycles")),
            "{violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.contains("top_keep_code")),
            "{violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.contains("static_elided")),
            "{violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.contains("dyn_total")),
            "{violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.contains("max_pause_bucket")),
            "{violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.contains("pct_elided")),
            "{violations:?}"
        );
        assert!(
            violations
                .iter()
                .any(|v| v.contains("recoveries_attempted")),
            "{violations:?}"
        );
        assert!(
            violations
                .iter()
                .any(|v| v.contains("recoveries_succeeded")),
            "{violations:?}"
        );
        // Scale mismatch is its own violation class.
        let mut rescaled = suite.clone();
        rescaled.scale = 1.0;
        assert_eq!(compare(&rescaled, &suite).len(), 1);
    }
}
