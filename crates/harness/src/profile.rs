//! Dynamic barrier-cost profiler: the cost view of the per-site table
//! ([`crate::site`]).
//!
//! The static ledger says *why* each kept barrier stayed; the dynamic
//! counters say *how often it ran* and *what it cost* under the abstract
//! cycle model. With the two side by side in one [`SiteReport`], every
//! kept-site execution and barrier cycle is attributed to the keep-code
//! that blocked its elision — turning "the analysis kept 74% of sites" into
//! "receiver-may-escape costs 61% of remaining barrier cycles; fixing
//! it buys the most headroom".
//!
//! Alongside the attribution, the profiler reports per-phase GC pause
//! percentiles (p50/p90/p99/max, in deterministic work units) from the
//! collector's per-phase histograms, and can gate the run on a pause
//! SLO: `--slo-max-pause N` exits nonzero when any stop-the-world pause
//! exceeded `N` work units.
//!
//! All output is deterministic: the join aggregates through ordered
//! maps, pause sizes are work units (not wall time), and the NDJSON
//! rendering contains no timestamps — running the profiler twice yields
//! byte-identical bytes, which CI checks with a plain `diff`.

use std::collections::BTreeMap;

use wbe_telemetry::json::ObjWriter;
use wbe_telemetry::registry::HistogramSnapshot;

use crate::site::{observe, RunSpec, SiteReport, Totals};

/// The GC pause phases the profiler reports, as `(label, registry
/// key, stop_the_world)`. STW phases participate in the SLO gate;
/// concurrent/incremental phases are reported but not gated.
pub const PHASES: [(&str, &str, bool); 5] = [
    ("initial-mark", wbe_heap::gc::PHASE_INITIAL_MARK, true),
    ("mark-step", wbe_heap::gc::PHASE_MARK_STEP, false),
    ("remark", wbe_heap::gc::PHASE_REMARK, true),
    ("sweep", wbe_heap::gc::PHASE_SWEEP, false),
    ("emergency", wbe_interp::PAUSE_EMERGENCY, true),
];

/// Profiler configuration (mirrors the `wbe_tool profile` flags).
#[derive(Clone, Debug)]
pub struct ProfileOptions {
    /// Workloads to profile (empty = the standard suite).
    pub workloads: Vec<String>,
    /// How many hottest kept sites to list per workload.
    pub top: usize,
    /// Iteration scale (same meaning as the baseline gate's scale).
    pub scale: f64,
    /// Stop-the-world pause budget in work units; `None` disables the
    /// SLO gate.
    pub slo_max_pause: Option<u64>,
    /// 99th-percentile stop-the-world pause budget in work units;
    /// `None` disables the gate. Tail-focused: one outlier pause can
    /// blow `--slo-max-pause` while p99 stays healthy, and vice versa,
    /// so the two gates compose.
    pub slo_p99_pause: Option<u64>,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            workloads: Vec::new(),
            top: 10,
            scale: crate::baselines::SCALE,
            slo_max_pause: None,
            slo_p99_pause: None,
        }
    }
}

/// Dynamic cost attributed to one keep-code.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KeepCodeCost {
    /// Name of the first failing elision condition, or `unattributed`.
    pub code: &'static str,
    /// Distinct executed kept sites carrying this code.
    pub sites: u64,
    /// Barrier executions at those sites.
    pub executions: u64,
    /// Abstract barrier cycles charged at those sites.
    pub cycles: u64,
}

/// One row of the "hottest kept sites" table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HotSite {
    /// Stable site identity (`method@B<block>[<index>]`).
    pub site: String,
    /// `"field"` or `"array"`.
    pub kind: &'static str,
    /// The name of the keep-code blocking elision at this site.
    pub code: &'static str,
    /// Barrier executions at the site.
    pub executions: u64,
    /// Abstract barrier cycles charged at the site.
    pub cycles: u64,
}

/// Pause percentiles for one GC phase (work units).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhasePercentiles {
    /// Phase label (`initial-mark`, `remark`, …).
    pub phase: &'static str,
    /// Whether the phase is stop-the-world (participates in the SLO).
    pub stw: bool,
    /// Recorded pauses.
    pub count: u64,
    /// Median pause.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile (equals max until a phase has ≥1000 pauses).
    pub p999: u64,
    /// Largest pause.
    pub max: u64,
}

/// The profile of one workload run.
#[derive(Clone, Debug)]
pub struct WorkloadProfile {
    /// Workload name.
    pub workload: String,
    /// Total dynamic barrier executions (kept + elided).
    pub barrier_executions: u64,
    /// Executions at statically elided sites (zero barrier cost).
    pub elided_executions: u64,
    /// Executions at kept sites — always the sum of the per-keep-code
    /// execution counts.
    pub kept_executions: u64,
    /// Total abstract barrier cycles charged.
    pub barrier_cycles: u64,
    /// Per-keep-code attribution, most expensive first.
    pub keep_codes: Vec<KeepCodeCost>,
    /// Hottest kept sites by cycles, at most `top` rows.
    pub hot_sites: Vec<HotSite>,
    /// Per-phase pause percentiles, in [`PHASES`] order.
    pub phases: Vec<PhasePercentiles>,
    /// Largest stop-the-world pause observed (work units).
    pub max_stw_pause: u64,
}

/// The whole profiling run: per-workload profiles plus suite rollups.
#[derive(Clone, Debug)]
pub struct SuiteProfile {
    /// One profile per workload, in request order.
    pub workloads: Vec<WorkloadProfile>,
    /// Suite-wide keep-code attribution, most expensive first.
    pub keep_codes: Vec<KeepCodeCost>,
    /// Suite totals.
    pub barrier_executions: u64,
    /// Suite executions at elided sites.
    pub elided_executions: u64,
    /// Suite executions at kept sites.
    pub kept_executions: u64,
    /// Suite barrier cycles.
    pub barrier_cycles: u64,
    /// Suite per-phase percentiles (bucket-merged across workloads).
    pub phases: Vec<PhasePercentiles>,
    /// Largest stop-the-world pause across the suite.
    pub max_stw_pause: u64,
    /// Largest per-phase p99 among the suite's STW phases.
    pub p99_stw_pause: u64,
    /// The max-pause SLO budget the run was gated on, if any.
    pub slo_max_pause: Option<u64>,
    /// The p99-pause SLO budget the run was gated on, if any.
    pub slo_p99_pause: Option<u64>,
}

impl SuiteProfile {
    /// Whether every SLO gate passes (vacuously true without budgets).
    pub fn slo_ok(&self) -> bool {
        self.slo_max_ok() && self.slo_p99_ok()
    }

    /// The `--slo-max-pause` gate alone.
    pub fn slo_max_ok(&self) -> bool {
        self.slo_max_pause
            .is_none_or(|budget| self.max_stw_pause <= budget)
    }

    /// The `--slo-p99-pause` gate alone.
    pub fn slo_p99_ok(&self) -> bool {
        self.slo_p99_pause
            .is_none_or(|budget| self.p99_stw_pause <= budget)
    }

    /// Headroom of one keep-code: the percentage of all charged barrier
    /// cycles that would disappear if the code's sites became elidable.
    pub fn headroom_pct(&self, cost: &KeepCodeCost) -> f64 {
        pct(cost.cycles, self.barrier_cycles)
    }
}

fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

fn merge_hist(into: &mut HistogramSnapshot, h: &HistogramSnapshot) {
    if h.count == 0 {
        return;
    }
    if into.count == 0 {
        *into = h.clone();
        return;
    }
    into.count += h.count;
    into.sum += h.sum;
    into.min = into.min.min(h.min);
    into.max = into.max.max(h.max);
    for (a, b) in into.buckets.iter_mut().zip(&h.buckets) {
        *a += b;
    }
}

fn percentiles(phase: &'static str, stw: bool, h: &HistogramSnapshot) -> PhasePercentiles {
    PhasePercentiles {
        phase,
        stw,
        count: h.count,
        p50: h.quantile(0.50),
        p90: h.quantile(0.90),
        p99: h.quantile(0.99),
        p999: h.quantile(0.999),
        max: h.max,
    }
}

fn empty_hist() -> HistogramSnapshot {
    HistogramSnapshot::from_samples(std::iter::empty())
}

/// Profiles the requested workloads. `Err` names an unknown workload.
pub fn measure(opts: &ProfileOptions) -> Result<SuiteProfile, String> {
    let _guard = crate::measuring();
    let workloads: Vec<wbe_workloads::Workload> = if opts.workloads.is_empty() {
        wbe_workloads::standard_suite()
    } else {
        opts.workloads
            .iter()
            .map(|n| wbe_workloads::by_name(n).ok_or_else(|| format!("unknown workload '{n}'")))
            .collect::<Result<_, _>>()?
    };

    let mut profiles = Vec::new();
    let mut suite_codes: BTreeMap<&'static str, KeepCodeCost> = BTreeMap::new();
    let mut suite_hists: Vec<HistogramSnapshot> = PHASES.iter().map(|_| empty_hist()).collect();
    for w in &workloads {
        let p = profile_workload(w, opts.top, opts.scale, &mut suite_hists)?;
        for c in &p.keep_codes {
            let e = suite_codes.entry(c.code).or_default();
            e.code = c.code;
            e.sites += c.sites;
            e.executions += c.executions;
            e.cycles += c.cycles;
        }
        profiles.push(p);
    }

    let phases: Vec<PhasePercentiles> = PHASES
        .iter()
        .zip(&suite_hists)
        .map(|(&(label, _, stw), h)| percentiles(label, stw, h))
        .collect();
    let max_stw_pause = phases
        .iter()
        .filter(|p| p.stw)
        .map(|p| p.max)
        .max()
        .unwrap_or(0);
    let p99_stw_pause = phases
        .iter()
        .filter(|p| p.stw)
        .map(|p| p.p99)
        .max()
        .unwrap_or(0);
    Ok(SuiteProfile {
        barrier_executions: profiles.iter().map(|p| p.barrier_executions).sum(),
        elided_executions: profiles.iter().map(|p| p.elided_executions).sum(),
        kept_executions: profiles.iter().map(|p| p.kept_executions).sum(),
        barrier_cycles: profiles.iter().map(|p| p.barrier_cycles).sum(),
        keep_codes: sort_costs(suite_codes),
        workloads: profiles,
        phases,
        max_stw_pause,
        p99_stw_pause,
        slo_max_pause: opts.slo_max_pause,
        slo_p99_pause: opts.slo_p99_pause,
    })
}

/// Deterministic cost order: cycles desc, then executions desc, then
/// code asc (the tiebreak keeps equal-cost codes stable).
fn sort_costs(map: BTreeMap<&'static str, KeepCodeCost>) -> Vec<KeepCodeCost> {
    let mut v: Vec<KeepCodeCost> = map.into_values().collect();
    v.sort_by(|a, b| {
        b.cycles
            .cmp(&a.cycles)
            .then(b.executions.cmp(&a.executions))
            .then(a.code.cmp(b.code))
    });
    v
}

/// Cost per keep-code over the executed kept sites of one run, most
/// expensive first.
pub fn keep_code_costs(sites: &[SiteReport<'_>]) -> Vec<KeepCodeCost> {
    let mut codes: BTreeMap<&'static str, KeepCodeCost> = BTreeMap::new();
    for s in sites.iter().filter(|s| s.ran_kept()) {
        let e = codes.entry(s.keep_code_name()).or_default();
        e.code = s.keep_code_name();
        e.sites += 1;
        e.executions += s.stats.executions;
        e.cycles += s.stats.cycles;
    }
    sort_costs(codes)
}

fn profile_workload(
    w: &wbe_workloads::Workload,
    top: usize,
    scale: f64,
    suite_hists: &mut [HistogramSnapshot],
) -> Result<WorkloadProfile, String> {
    wbe_telemetry::registry::global().reset();
    let obs = observe(w, &RunSpec::baseline(scale)).completed()?;
    let sites = obs.sites();
    let mut hot: Vec<HotSite> = sites
        .iter()
        .filter(|s| s.ran_kept())
        .map(|s| HotSite {
            site: s.site_key(),
            kind: s.kind_name(),
            code: s.keep_code_name(),
            executions: s.stats.executions,
            cycles: s.stats.cycles,
        })
        .collect();
    hot.sort_by(|a, b| {
        b.cycles
            .cmp(&a.cycles)
            .then(b.executions.cmp(&a.executions))
            .then(a.site.cmp(&b.site))
    });
    hot.truncate(top);

    let empty = empty_hist();
    let mut phases = Vec::new();
    for (i, &(label, key, stw)) in PHASES.iter().enumerate() {
        let h = obs.telemetry.histogram(key).unwrap_or(&empty);
        merge_hist(&mut suite_hists[i], h);
        phases.push(percentiles(label, stw, h));
    }
    let max_stw_pause = phases
        .iter()
        .filter(|p| p.stw)
        .map(|p| p.max)
        .max()
        .unwrap_or(0);

    let totals = Totals::of(&sites);
    Ok(WorkloadProfile {
        workload: w.name.to_string(),
        barrier_executions: totals.executions,
        elided_executions: totals.elided_executions,
        kept_executions: totals.kept_executions(),
        barrier_cycles: totals.cycles,
        keep_codes: keep_code_costs(&sites),
        hot_sites: hot,
        phases,
        max_stw_pause,
    })
}

/// Renders the profile as NDJSON. One line per record, discriminated by
/// `record`; per-workload records first (in run order), then suite
/// rollups, then the closing `suite` line with the SLO verdict.
/// Contains no timestamps: byte-identical across runs.
pub fn to_ndjson(p: &SuiteProfile) -> String {
    let mut out = String::new();
    let mut line = |f: &dyn Fn(&mut ObjWriter<'_>)| {
        let mut s = String::new();
        let mut w = ObjWriter::new(&mut s);
        f(&mut w);
        w.finish();
        out.push_str(&s);
        out.push('\n');
    };
    for wp in &p.workloads {
        line(&|w| {
            w.field_str("record", "workload")
                .field_str("workload", &wp.workload)
                .field_u64("barrier_executions", wp.barrier_executions)
                .field_u64("elided_executions", wp.elided_executions)
                .field_u64("kept_executions", wp.kept_executions)
                .field_u64("barrier_cycles", wp.barrier_cycles)
                .field_u64("max_stw_pause", wp.max_stw_pause);
        });
        for c in &wp.keep_codes {
            line(&|w| {
                w.field_str("record", "keep_code")
                    .field_str("workload", &wp.workload)
                    .field_str("code", c.code)
                    .field_u64("sites", c.sites)
                    .field_u64("executions", c.executions)
                    .field_u64("cycles", c.cycles)
                    .field_raw(
                        "pct_of_cycles",
                        &format!("{:.3}", pct(c.cycles, wp.barrier_cycles)),
                    );
            });
        }
        for (rank, h) in wp.hot_sites.iter().enumerate() {
            line(&|w| {
                w.field_str("record", "hot_site")
                    .field_str("workload", &wp.workload)
                    .field_u64("rank", rank as u64 + 1)
                    .field_str("site", &h.site)
                    .field_str("kind", h.kind)
                    .field_str("code", h.code)
                    .field_u64("executions", h.executions)
                    .field_u64("cycles", h.cycles);
            });
        }
        for ph in &wp.phases {
            line(&|w| {
                emit_phase(w, &wp.workload, ph);
            });
        }
    }
    for c in &p.keep_codes {
        line(&|w| {
            w.field_str("record", "keep_code")
                .field_str("workload", "__suite__")
                .field_str("code", c.code)
                .field_u64("sites", c.sites)
                .field_u64("executions", c.executions)
                .field_u64("cycles", c.cycles)
                .field_raw("headroom_pct", &format!("{:.3}", p.headroom_pct(c)));
        });
    }
    for ph in &p.phases {
        line(&|w| {
            emit_phase(w, "__suite__", ph);
        });
    }
    line(&|w| {
        w.field_str("record", "suite")
            .field_u64("barrier_executions", p.barrier_executions)
            .field_u64("elided_executions", p.elided_executions)
            .field_u64("kept_executions", p.kept_executions)
            .field_u64("barrier_cycles", p.barrier_cycles)
            .field_u64("max_stw_pause", p.max_stw_pause)
            .field_u64("p99_stw_pause", p.p99_stw_pause);
        match p.slo_max_pause {
            Some(b) => w.field_u64("slo_max_pause", b),
            None => w.field_raw("slo_max_pause", "null"),
        };
        match p.slo_p99_pause {
            Some(b) => w.field_u64("slo_p99_pause", b),
            None => w.field_raw("slo_p99_pause", "null"),
        };
        w.field_bool("slo_ok", p.slo_ok());
    });
    out
}

fn emit_phase(w: &mut ObjWriter<'_>, workload: &str, ph: &PhasePercentiles) {
    w.field_str("record", "phase")
        .field_str("workload", workload)
        .field_str("phase", ph.phase)
        .field_bool("stw", ph.stw)
        .field_u64("count", ph.count)
        .field_u64("samples", ph.count)
        .field_u64("p50", ph.p50)
        .field_u64("p90", ph.p90)
        .field_u64("p99", ph.p99)
        .field_u64("p999", ph.p999)
        .field_u64("max", ph.max);
}

/// Renders the profile as a human-readable report.
pub fn to_text(p: &SuiteProfile) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for wp in &p.workloads {
        let _ = writeln!(
            out,
            "{}: {} barrier executions ({} elided, {} kept), {} barrier cycles, max STW pause {}",
            wp.workload,
            wp.barrier_executions,
            wp.elided_executions,
            wp.kept_executions,
            wp.barrier_cycles,
            wp.max_stw_pause
        );
        if !wp.keep_codes.is_empty() {
            let _ = writeln!(out, "  keep-code attribution:");
            for c in &wp.keep_codes {
                let _ = writeln!(
                    out,
                    "    {:<28} {:>4} sites {:>10} execs {:>10} cycles ({:>6.3}% of cycles)",
                    c.code,
                    c.sites,
                    c.executions,
                    c.cycles,
                    pct(c.cycles, wp.barrier_cycles)
                );
            }
        }
        if !wp.hot_sites.is_empty() {
            let _ = writeln!(out, "  hottest kept sites:");
            for (rank, h) in wp.hot_sites.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "    #{:<2} {:<40} {:<5} {:<28} {:>8} execs {:>8} cycles",
                    rank + 1,
                    h.site,
                    h.kind,
                    h.code,
                    h.executions,
                    h.cycles
                );
            }
        }
        let _ = writeln!(out, "  pause percentiles (work units):");
        for ph in &wp.phases {
            let _ = writeln!(
                out,
                "    {:<13}{} count {:>6}  p50 {:>6}  p90 {:>6}  p99 {:>6}  p99.9 {:>6}  max {:>6}",
                ph.phase,
                if ph.stw { " [STW]" } else { "      " },
                ph.count,
                ph.p50,
                ph.p90,
                ph.p99,
                ph.p999,
                ph.max
            );
        }
    }
    let _ = writeln!(
        out,
        "suite: {} barrier executions ({} elided, {} kept), {} barrier cycles",
        p.barrier_executions, p.elided_executions, p.kept_executions, p.barrier_cycles
    );
    let _ = writeln!(out, "  headroom by keep-code:");
    for c in &p.keep_codes {
        let _ = writeln!(
            out,
            "    {:<28} {:>4} sites {:>10} execs {:>10} cycles ({:>6.3}% headroom)",
            c.code,
            c.sites,
            c.executions,
            c.cycles,
            p.headroom_pct(c)
        );
    }
    let _ = writeln!(out, "  suite pause percentiles (work units):");
    for ph in &p.phases {
        let _ = writeln!(
            out,
            "    {:<13}{} count {:>6}  p50 {:>6}  p90 {:>6}  p99 {:>6}  p99.9 {:>6}  max {:>6}",
            ph.phase,
            if ph.stw { " [STW]" } else { "      " },
            ph.count,
            ph.p50,
            ph.p90,
            ph.p99,
            ph.p999,
            ph.max
        );
    }
    match p.slo_max_pause {
        Some(b) if p.slo_max_ok() => {
            let _ = writeln!(
                out,
                "SLO OK: max STW pause {} <= budget {b}",
                p.max_stw_pause
            );
        }
        Some(b) => {
            let _ = writeln!(
                out,
                "SLO VIOLATION: max STW pause {} > budget {b}",
                p.max_stw_pause
            );
        }
        None => {}
    }
    match p.slo_p99_pause {
        Some(b) if p.slo_p99_ok() => {
            let _ = writeln!(
                out,
                "SLO OK: p99 STW pause {} <= budget {b}",
                p.p99_stw_pause
            );
        }
        Some(b) => {
            let _ = writeln!(
                out,
                "SLO VIOLATION: p99 STW pause {} > budget {b}",
                p.p99_stw_pause
            );
        }
        None => {}
    }
    out
}

/// The `wbe_tool profile` driver: measures, renders, and writes or
/// prints the result. Returns the process exit code (0 ok, 1 SLO
/// violation, 2 configuration/run error).
pub fn run_profile(opts: &ProfileOptions, ndjson: bool, out_path: Option<&str>) -> i32 {
    let profile = match measure(opts) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("profile: {e}");
            return 2;
        }
    };
    let body = if ndjson {
        to_ndjson(&profile)
    } else {
        to_text(&profile)
    };
    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &body) {
                eprintln!("cannot write {path}: {e}");
                return 2;
            }
            eprintln!("profile written to {path}");
        }
        None => print!("{body}"),
    }
    let mut violated = false;
    if !profile.slo_max_ok() {
        eprintln!(
            "SLO VIOLATION: max STW pause {} > budget {}",
            profile.max_stw_pause,
            profile.slo_max_pause.unwrap_or(0)
        );
        violated = true;
    }
    if !profile.slo_p99_ok() {
        eprintln!(
            "SLO VIOLATION: p99 STW pause {} > budget {}",
            profile.p99_stw_pause,
            profile.slo_p99_pause.unwrap_or(0)
        );
        violated = true;
    }
    if violated {
        return 1;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts() -> ProfileOptions {
        ProfileOptions {
            scale: 0.05,
            ..ProfileOptions::default()
        }
    }

    #[test]
    fn join_loses_nothing() {
        let p = measure(&small_opts()).unwrap();
        assert_eq!(p.workloads.len(), 6);
        for wp in &p.workloads {
            // Per-keep-code executions sum exactly to the kept total,
            // and kept + elided is the full dynamic count.
            let code_execs: u64 = wp.keep_codes.iter().map(|c| c.executions).sum();
            assert_eq!(code_execs, wp.kept_executions, "{}", wp.workload);
            assert_eq!(
                wp.kept_executions + wp.elided_executions,
                wp.barrier_executions,
                "{}",
                wp.workload
            );
            // Every charged cycle is attributed to some keep-code
            // (elided executions charge nothing).
            let code_cycles: u64 = wp.keep_codes.iter().map(|c| c.cycles).sum();
            assert_eq!(code_cycles, wp.barrier_cycles, "{}", wp.workload);
            // Nothing fell through the ledger join.
            assert!(
                !wp.keep_codes
                    .iter()
                    .any(|c| c.code == crate::site::UNATTRIBUTED),
                "{}: unattributed kept executions",
                wp.workload
            );
            assert!(wp.barrier_cycles > 0, "{}", wp.workload);
        }
        // Suite rollups are the column sums.
        assert_eq!(
            p.barrier_executions,
            p.workloads
                .iter()
                .map(|w| w.barrier_executions)
                .sum::<u64>()
        );
        assert_eq!(
            p.keep_codes.iter().map(|c| c.executions).sum::<u64>(),
            p.kept_executions
        );
        // Headroom over all codes covers 100% of charged cycles.
        let total_headroom: f64 = p.keep_codes.iter().map(|c| p.headroom_pct(c)).sum();
        assert!((total_headroom - 100.0).abs() < 1e-6, "{total_headroom}");
    }

    #[test]
    fn ndjson_is_deterministic_and_parseable() {
        let a = to_ndjson(&measure(&small_opts()).unwrap());
        let b = to_ndjson(&measure(&small_opts()).unwrap());
        assert_eq!(a, b, "profile NDJSON must be byte-identical across runs");
        let mut kinds = std::collections::BTreeSet::new();
        for l in a.lines() {
            let v = wbe_telemetry::json::parse(l).expect("valid JSON");
            kinds.insert(v.get("record").unwrap().as_str().unwrap().to_string());
        }
        for k in ["workload", "keep_code", "hot_site", "phase", "suite"] {
            assert!(kinds.contains(k), "missing record kind {k}");
        }
    }

    #[test]
    fn phases_report_pauses_and_slo_gates_both_ways() {
        // jbb is the only standard-suite workload that allocates enough
        // to trigger the deterministic GC policy at reduced scale.
        let mut opts = small_opts();
        opts.workloads = vec!["jbb".into()];
        let p = measure(&opts).unwrap();
        let wp = &p.workloads[0];
        let remark = wp.phases.iter().find(|ph| ph.phase == "remark").unwrap();
        assert!(remark.count > 0, "deterministic GC policy must pause");
        assert!(remark.max >= remark.p50);
        assert!(p.max_stw_pause > 0);

        // A zero budget is always violated; a huge one never is.
        opts.slo_max_pause = Some(0);
        assert!(!measure(&opts).unwrap().slo_ok());
        opts.slo_max_pause = Some(u64::MAX);
        assert!(measure(&opts).unwrap().slo_ok());
    }

    #[test]
    fn p99_slo_gates_independently_of_max() {
        let mut opts = small_opts();
        opts.workloads = vec!["jbb".into()];
        let p = measure(&opts).unwrap();
        assert!(p.p99_stw_pause > 0, "jbb pauses at this scale");
        assert!(
            p.p99_stw_pause <= p.max_stw_pause,
            "a percentile cannot exceed the max"
        );

        // The p99 gate trips on its own with no max budget set.
        opts.slo_p99_pause = Some(0);
        let violated = measure(&opts).unwrap();
        assert!(!violated.slo_p99_ok());
        assert!(violated.slo_max_ok(), "max gate stays vacuous");
        assert!(!violated.slo_ok());
        // Both budgets generous: the combined gate passes, and the
        // NDJSON carries both budgets and the verdict.
        opts.slo_p99_pause = Some(u64::MAX);
        opts.slo_max_pause = Some(u64::MAX);
        let ok = measure(&opts).unwrap();
        assert!(ok.slo_ok());
        let nd = to_ndjson(&ok);
        assert!(nd.contains("\"p99_stw_pause\""), "{nd}");
        assert!(nd.contains("\"slo_p99_pause\""), "{nd}");
        assert!(nd.contains("\"slo_ok\":true"), "{nd}");
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let opts = ProfileOptions {
            workloads: vec!["nope".into()],
            ..ProfileOptions::default()
        };
        assert!(measure(&opts).is_err());
    }
}
