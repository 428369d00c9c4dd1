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
//! Each [`WorkloadProfile`] keeps its run's [`Observed`], the column
//! sums of its table ([`Totals`]) and its keep-code costs. The hottest
//! kept sites are a sort of that table's [`SiteReport`]s, and every
//! per-site figure printed is read from the report where it is used:
//! this module has no row type of its own.
//!
//! All output is deterministic: the join aggregates through ordered
//! maps, pause sizes are work units (not wall time), and the NDJSON
//! rendering contains no timestamps — running the profiler twice yields
//! byte-identical bytes, which CI checks with a plain `diff`.

use std::collections::BTreeMap;

use wbe_telemetry::json::ObjWriter;
use wbe_telemetry::registry::HistogramSnapshot;

use crate::pct;
use crate::site::{observe, select_workloads, Observed, RunSpec, SiteReport, Totals};

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
#[derive(Debug)]
pub struct WorkloadProfile {
    /// The run. Its per-site table is [`Observed::sites`], and the
    /// registry is reset before it, so its telemetry holds this run's
    /// pause histograms alone.
    pub observed: Observed,
    /// Column sums of its per-site table.
    pub totals: Totals,
    /// Per-keep-code attribution, most expensive first.
    pub keep_codes: Vec<KeepCodeCost>,
    /// Per-phase pause percentiles, in [`PHASES`] order.
    pub phases: Vec<PhasePercentiles>,
    /// Largest stop-the-world pause observed (work units).
    pub max_stw_pause: u64,
}

impl WorkloadProfile {
    /// The hottest executed kept sites, at most `top` of them: most
    /// cycles first, then most executions, then by site label.
    pub fn hot_sites(&self, top: usize) -> Vec<SiteReport<'_>> {
        let mut hot = self.observed.sites();
        hot.retain(SiteReport::ran_kept);
        hot.sort_by(|a, b| {
            b.stats
                .cycles
                .cmp(&a.stats.cycles)
                .then(b.stats.executions.cmp(&a.stats.executions))
                .then_with(|| a.site_key().cmp(&b.site_key()))
        });
        hot.truncate(top);
        hot
    }
}

/// The whole profiling run: per-workload profiles plus suite rollups.
#[derive(Debug)]
pub struct SuiteProfile {
    /// One profile per workload, in request order.
    pub workloads: Vec<WorkloadProfile>,
    /// How many hottest kept sites to list per workload.
    pub top: usize,
    /// Suite-wide keep-code attribution, most expensive first.
    pub keep_codes: Vec<KeepCodeCost>,
    /// Column sums over every workload.
    pub totals: Totals,
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
        pct(cost.cycles, self.totals.cycles)
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
    let mut profiles = Vec::new();
    let mut suite_hists: Vec<HistogramSnapshot> = PHASES.iter().map(|_| empty_hist()).collect();
    for (w, _) in &select_workloads(&opts.workloads, Vec::new)? {
        profiles.push(profile_workload(w, opts.scale, &mut suite_hists)?);
    }
    // The suite's attribution is the same fold over every workload's
    // table at once.
    let every_site: Vec<SiteReport<'_>> =
        profiles.iter().flat_map(|p| p.observed.sites()).collect();
    let keep_codes = keep_code_costs(&every_site);
    let phases: Vec<PhasePercentiles> = PHASES
        .iter()
        .zip(&suite_hists)
        .map(|(&(label, _, stw), h)| percentiles(label, stw, h))
        .collect();
    Ok(SuiteProfile {
        totals: profiles.iter().map(|p| p.totals).sum(),
        keep_codes,
        workloads: profiles,
        top: opts.top,
        max_stw_pause: stw_max(&phases, |p| p.max),
        p99_stw_pause: stw_max(&phases, |p| p.p99),
        phases,
        slo_max_pause: opts.slo_max_pause,
        slo_p99_pause: opts.slo_p99_pause,
    })
}

/// The largest `f` among the stop-the-world `phases`.
fn stw_max(phases: &[PhasePercentiles], f: fn(&PhasePercentiles) -> u64) -> u64 {
    phases.iter().filter(|p| p.stw).map(f).max().unwrap_or(0)
}

/// Cost per keep-code over the executed kept sites of `sites`, most
/// expensive first: cycles desc, then executions desc, then code asc
/// (the tiebreak keeps equal-cost codes stable).
pub fn keep_code_costs(sites: &[SiteReport<'_>]) -> Vec<KeepCodeCost> {
    let mut codes: BTreeMap<&'static str, KeepCodeCost> = BTreeMap::new();
    for s in sites.iter().filter(|s| s.ran_kept()) {
        let e = codes.entry(s.keep_code_name()).or_default();
        e.code = s.keep_code_name();
        e.sites += 1;
        e.executions += s.stats.executions;
        e.cycles += s.stats.cycles;
    }
    let mut v: Vec<KeepCodeCost> = codes.into_values().collect();
    v.sort_by(|a, b| {
        b.cycles
            .cmp(&a.cycles)
            .then(b.executions.cmp(&a.executions))
            .then(a.code.cmp(b.code))
    });
    v
}

fn profile_workload(
    w: &wbe_workloads::Workload,
    scale: f64,
    suite_hists: &mut [HistogramSnapshot],
) -> Result<WorkloadProfile, String> {
    wbe_telemetry::registry::global().reset();
    let observed = observe(w, &RunSpec::baseline(scale)).completed()?;
    let empty = empty_hist();
    let mut phases = Vec::new();
    for (i, &(label, key, stw)) in PHASES.iter().enumerate() {
        let h = observed.telemetry.histogram(key).unwrap_or(&empty);
        merge_hist(&mut suite_hists[i], h);
        phases.push(percentiles(label, stw, h));
    }
    let sites = observed.sites();
    let (totals, keep_codes) = (Totals::of(&sites), keep_code_costs(&sites));
    Ok(WorkloadProfile {
        observed,
        totals,
        keep_codes,
        max_stw_pause: stw_max(&phases, |p| p.max),
        phases,
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
        let (t, workload) = (&wp.totals, wp.observed.workload);
        line(&|w| {
            w.field_str("record", "workload")
                .field_str("workload", workload)
                .field_u64("barrier_executions", t.executions)
                .field_u64("elided_executions", t.elided_executions)
                .field_u64("kept_executions", t.kept_executions())
                .field_u64("barrier_cycles", t.cycles)
                .field_u64("max_stw_pause", wp.max_stw_pause);
        });
        for c in &wp.keep_codes {
            line(&|w| {
                emit_cost(w, workload, c)
                    .field_raw("pct_of_cycles", &format!("{:.3}", pct(c.cycles, t.cycles)));
            });
        }
        for (rank, s) in wp.hot_sites(p.top).iter().enumerate() {
            line(&|w| {
                w.field_str("record", "hot_site")
                    .field_str("workload", workload)
                    .field_u64("rank", rank as u64 + 1)
                    .field_str("site", &s.site_key())
                    .field_str("kind", s.kind_name())
                    .field_str("code", s.keep_code_name())
                    .field_u64("executions", s.stats.executions)
                    .field_u64("cycles", s.stats.cycles);
            });
        }
        for ph in &wp.phases {
            line(&|w| emit_phase(w, workload, ph));
        }
    }
    for c in &p.keep_codes {
        line(&|w| {
            emit_cost(w, "__suite__", c)
                .field_raw("headroom_pct", &format!("{:.3}", p.headroom_pct(c)));
        });
    }
    for ph in &p.phases {
        line(&|w| emit_phase(w, "__suite__", ph));
    }
    let t = &p.totals;
    line(&|w| {
        w.field_str("record", "suite")
            .field_u64("barrier_executions", t.executions)
            .field_u64("elided_executions", t.elided_executions)
            .field_u64("kept_executions", t.kept_executions())
            .field_u64("barrier_cycles", t.cycles)
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

/// The fields a `keep_code` record shares between a workload and the
/// suite; the caller adds its percentage.
fn emit_cost<'w, 'o>(
    w: &'w mut ObjWriter<'o>,
    workload: &str,
    c: &KeepCodeCost,
) -> &'w mut ObjWriter<'o> {
    w.field_str("record", "keep_code")
        .field_str("workload", workload)
        .field_str("code", c.code)
        .field_u64("sites", c.sites)
        .field_u64("executions", c.executions)
        .field_u64("cycles", c.cycles)
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
        let t = &wp.totals;
        let _ = writeln!(
            out,
            "{}: {} barrier executions ({} elided, {} kept), {} barrier cycles, max STW pause {}",
            wp.observed.workload,
            t.executions,
            t.elided_executions,
            t.kept_executions(),
            t.cycles,
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
                    pct(c.cycles, t.cycles)
                );
            }
        }
        let hot = wp.hot_sites(p.top);
        if !hot.is_empty() {
            let _ = writeln!(out, "  hottest kept sites:");
            for (rank, s) in hot.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "    #{:<2} {:<40} {:<5} {:<28} {:>8} execs {:>8} cycles",
                    rank + 1,
                    s.site_key(),
                    s.kind_name(),
                    s.keep_code_name(),
                    s.stats.executions,
                    s.stats.cycles
                );
            }
        }
        write_phases(&mut out, "  pause percentiles (work units):", &wp.phases);
    }
    let t = &p.totals;
    let _ = writeln!(
        out,
        "suite: {} barrier executions ({} elided, {} kept), {} barrier cycles",
        t.executions,
        t.elided_executions,
        t.kept_executions(),
        t.cycles
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
    write_phases(
        &mut out,
        "  suite pause percentiles (work units):",
        &p.phases,
    );
    for (gate, budget, ok, pause) in [
        ("max", p.slo_max_pause, p.slo_max_ok(), p.max_stw_pause),
        ("p99", p.slo_p99_pause, p.slo_p99_ok(), p.p99_stw_pause),
    ] {
        match budget {
            Some(b) if ok => {
                let _ = writeln!(out, "SLO OK: {gate} STW pause {pause} <= budget {b}");
            }
            Some(b) => {
                let _ = writeln!(out, "SLO VIOLATION: {gate} STW pause {pause} > budget {b}");
            }
            None => {}
        }
    }
    out
}

/// Writes `heading` and one line per phase of `phases`: the pause
/// percentiles of a workload and of the suite.
fn write_phases(out: &mut String, heading: &str, phases: &[PhasePercentiles]) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "{heading}");
    for ph in phases {
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
            let (t, name) = (&wp.totals, wp.observed.workload);
            // Per-keep-code executions sum exactly to the kept total,
            // and kept + elided is the full dynamic count.
            let code_execs: u64 = wp.keep_codes.iter().map(|c| c.executions).sum();
            assert_eq!(code_execs, t.kept_executions(), "{name}");
            assert_eq!(
                t.kept_executions() + t.elided_executions,
                t.executions,
                "{name}"
            );
            // Every charged cycle is attributed to some keep-code
            // (elided executions charge nothing).
            let code_cycles: u64 = wp.keep_codes.iter().map(|c| c.cycles).sum();
            assert_eq!(code_cycles, t.cycles, "{name}");
            // Nothing fell through the ledger join.
            assert!(
                !wp.keep_codes
                    .iter()
                    .any(|c| c.code == crate::site::UNATTRIBUTED),
                "{name}: unattributed kept executions"
            );
            assert!(t.cycles > 0, "{name}");
        }
        // Suite rollups are the column sums.
        assert_eq!(
            p.totals.executions,
            p.workloads.iter().map(|w| w.totals.executions).sum::<u64>()
        );
        assert_eq!(
            p.keep_codes.iter().map(|c| c.executions).sum::<u64>(),
            p.totals.kept_executions()
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
