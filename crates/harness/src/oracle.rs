//! The elision-headroom observatory: the necessity view of the
//! per-site table ([`crate::site`]), which sets the runtime oracle's
//! verdicts ([`wbe_interp::oracle`]) beside the static ledger's.
//!
//! The static ledger says *why* each barrier stayed (PR 5); the cost
//! profiler says *what it costs* (PR 6). This third plane says *whether
//! it was ever needed*: every kept-barrier execution carries a
//! necessity verdict (necessary, or vacuous by marking-idle / null-old
//! / already-marked / duplicate), and every necessary enqueue is
//! audited against snapshot reachability at the remark rendezvous.
//! Verdicts beside keep-codes yield:
//!
//! * a per-site **necessity rate** next to the static keep-code;
//! * the suite-wide **dynamic-upper-bound elision rate** — the fraction
//!   of barrier executions a *perfect* analysis could have elided on
//!   these executions (statically elided executions plus every kept
//!   execution at a never-necessary site) — against the frozen static
//!   25.770%;
//! * a ranked **worklist** of never-necessary kept sites, each
//!   annotated with the runtime witness refuting its keep-code
//!   (receiver observed thread-local, pre-value observed always null,
//!   or the dominant vacuity class) — the target list for the
//!   interprocedural-precision roadmap item.
//!
//! Determinism: workloads run under the same pinned GC policy and scale
//! as the baseline gate, all aggregation goes through ordered maps, and
//! the NDJSON carries no timestamps, so equal options print equal bytes.

use wbe_telemetry::json::ObjWriter;

use crate::site::{observe, RunSpec, Totals};

/// The frozen suite-wide *static* elision rate (percent) the dynamic
/// upper bound is reported against — `pct_elided` in
/// `baselines/suite.ndjson`, unchanged since PR 1.
pub const STATIC_ELISION_PCT: f64 = 25.770;

/// Oracle run configuration (mirrors the `wbe_tool oracle` flags).
#[derive(Clone, Debug)]
pub struct OracleOptions {
    /// Workloads to run (empty = standard suite + server family, the
    /// same set the baseline gate measures).
    pub workloads: Vec<String>,
    /// Iteration scale (same meaning as the baseline gate's scale).
    pub scale: f64,
    /// Maximum ranked worklist rows to emit.
    pub top: usize,
}

impl Default for OracleOptions {
    fn default() -> Self {
        OracleOptions {
            workloads: Vec::new(),
            scale: crate::baselines::SCALE,
            top: 10,
        }
    }
}

/// One kept site's joined static + dynamic record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteOracleRow {
    /// Stable site identity (`method@B<block>[<index>]`).
    pub site: String,
    /// `"field"` or `"array"`.
    pub kind: &'static str,
    /// The name of the static keep-code blocking elision at this site.
    pub keep_code: &'static str,
    /// Kept-barrier executions witnessed.
    pub executions: u64,
    /// Executions whose SATB enqueue was semantically necessary.
    pub necessary: u64,
    /// Vacuous: marking idle.
    pub marking_idle: u64,
    /// Vacuous: null old value.
    pub null_old: u64,
    /// Vacuous: old value already marked.
    pub already_marked: u64,
    /// Vacuous: old value already pending in the SATB log.
    pub duplicate: u64,
    /// Necessary enqueues that were the sole snapshot witness.
    pub sole_witness: u64,
    /// Necessary enqueues still root-reachable at remark.
    pub shielded: u64,
    /// Executions whose pre-value was null (all executions, not just
    /// those during marking — the interpreter's per-site counter).
    pub pre_null: u64,
    /// Executions whose receiver had already escaped its allocating
    /// logical thread.
    pub receiver_escaped: u64,
    /// The refuting witness for never-necessary sites (empty when some
    /// execution was necessary).
    pub witness: String,
}

impl SiteOracleRow {
    /// True if no execution ever needed this site's enqueue.
    #[must_use]
    pub fn never_necessary(&self) -> bool {
        self.executions > 0 && self.necessary == 0
    }
}

/// One ranked worklist entry: a never-necessary kept site and the
/// runtime witness refuting its keep-code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorklistRow {
    /// Workload the evidence comes from.
    pub workload: String,
    /// Site identity.
    pub site: String,
    /// The name of the static keep-code the witness refutes.
    pub keep_code: &'static str,
    /// Kept executions wasted at this site.
    pub executions: u64,
    /// The refuting witness, rendered.
    pub witness: String,
}

/// The oracle's view of one workload run.
#[derive(Clone, Debug)]
pub struct WorkloadOracle {
    /// Workload name.
    pub workload: String,
    /// Whether this workload feeds the headline rates (the six Table 1
    /// mimics do; server-family rows ride along without moving the
    /// frozen static number, exactly as in the baseline gate).
    pub headline: bool,
    /// Total dynamic barrier executions (kept + elided).
    pub total_executions: u64,
    /// Executions at statically elided sites.
    pub elided_executions: u64,
    /// Executions at kept sites (all witnessed by the oracle).
    pub kept_executions: u64,
    /// Of those, semantically necessary enqueues.
    pub necessary_executions: u64,
    /// Kept executions at never-necessary sites — elidable by a
    /// perfect analysis on these executions.
    pub never_necessary_executions: u64,
    /// Never-necessary kept sites.
    pub never_necessary_sites: u64,
    /// Per-site joined rows, in deterministic site order.
    pub sites: Vec<SiteOracleRow>,
    /// Marking cycles the oracle audited at their remark.
    pub cycles_audited: u64,
    /// Necessary-enqueued refs found live-but-unmarked after remark
    /// (zero unless fault injection corrupted a cycle).
    pub audit_violations: u64,
    /// Objects the witness table saw allocated.
    pub allocated_objects: u64,
    /// Of those, objects that ever escaped (became reachable from a static).
    pub escaped_objects: u64,
}

/// The whole oracle run: per-workload results plus suite rollups.
#[derive(Clone, Debug)]
pub struct SuiteOracle {
    /// One result per workload, in run order.
    pub workloads: Vec<WorkloadOracle>,
    /// Headline totals (Table 1 workloads only, unless explicit
    /// workloads were requested).
    pub total_executions: u64,
    /// Headline executions at elided sites.
    pub elided_executions: u64,
    /// Headline executions at kept sites.
    pub kept_executions: u64,
    /// Headline necessary enqueues.
    pub necessary_executions: u64,
    /// Headline kept executions at never-necessary sites.
    pub never_necessary_executions: u64,
    /// Ranked worklist of never-necessary kept sites (all workloads),
    /// at most `top` rows.
    pub worklist: Vec<WorklistRow>,
    /// Never-necessary kept sites across all workloads.
    pub never_necessary_sites: u64,
}

impl SuiteOracle {
    /// The measured static elision rate (percent) of the headline
    /// workloads — should reproduce [`STATIC_ELISION_PCT`] on the
    /// default set.
    #[must_use]
    pub fn static_rate(&self) -> f64 {
        pct(self.elided_executions, self.total_executions)
    }

    /// The dynamic-upper-bound elision rate (percent): executions a
    /// perfect analysis could have elided on these runs.
    #[must_use]
    pub fn dynamic_rate(&self) -> f64 {
        pct(
            self.elided_executions + self.never_necessary_executions,
            self.total_executions,
        )
    }

    /// Measured headroom (points) between the upper bound and the
    /// static rate.
    #[must_use]
    pub fn headroom_points(&self) -> f64 {
        self.dynamic_rate() - self.static_rate()
    }
}

fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// Runs the oracle over the requested workloads. `Err` names an
/// unknown workload or a trapped run.
pub fn measure(opts: &OracleOptions) -> Result<SuiteOracle, String> {
    let _guard = crate::measuring();
    // (workload, feeds-the-headline-rates) pairs: the default set is
    // the baseline gate's — six Table 1 mimics feeding the rates, the
    // server family riding along.
    let workloads: Vec<(wbe_workloads::Workload, bool)> = if opts.workloads.is_empty() {
        wbe_workloads::standard_suite()
            .into_iter()
            .map(|w| (w, true))
            .chain(
                wbe_workloads::server_family()
                    .into_iter()
                    .map(|w| (w, false)),
            )
            .collect()
    } else {
        opts.workloads
            .iter()
            .map(|n| {
                wbe_workloads::by_name(n)
                    .map(|w| (w, true))
                    .ok_or_else(|| format!("unknown workload '{n}'"))
            })
            .collect::<Result<_, _>>()?
    };

    let mut results = Vec::new();
    for (w, headline) in &workloads {
        results.push(oracle_workload(w, *headline, opts.scale)?);
    }

    // The ranked worklist: never-necessary sites from every workload,
    // most wasted executions first (tie: workload, then site).
    let mut worklist: Vec<WorklistRow> = results
        .iter()
        .flat_map(|r| {
            r.sites
                .iter()
                .filter(|s| s.never_necessary())
                .map(|s| WorklistRow {
                    workload: r.workload.clone(),
                    site: s.site.clone(),
                    keep_code: s.keep_code,
                    executions: s.executions,
                    witness: s.witness.clone(),
                })
        })
        .collect();
    let never_necessary_sites = worklist.len() as u64;
    worklist.sort_by(|a, b| {
        b.executions
            .cmp(&a.executions)
            .then_with(|| a.workload.cmp(&b.workload))
            .then_with(|| a.site.cmp(&b.site))
    });
    worklist.truncate(opts.top);

    let headline = |f: &dyn Fn(&WorkloadOracle) -> u64| -> u64 {
        results.iter().filter(|r| r.headline).map(f).sum()
    };
    Ok(SuiteOracle {
        total_executions: headline(&|r| r.total_executions),
        elided_executions: headline(&|r| r.elided_executions),
        kept_executions: headline(&|r| r.kept_executions),
        necessary_executions: headline(&|r| r.necessary_executions),
        never_necessary_executions: headline(&|r| r.never_necessary_executions),
        worklist,
        never_necessary_sites,
        workloads: results,
    })
}

/// Runs `w` under the baseline configuration with the oracle on and
/// folds the per-site table into its necessity view.
fn oracle_workload(
    w: &wbe_workloads::Workload,
    headline: bool,
    scale: f64,
) -> Result<WorkloadOracle, String> {
    let obs = observe(
        w,
        &RunSpec {
            oracle: true,
            ..RunSpec::baseline(scale)
        },
    )
    .completed()?;
    let table = obs.sites();
    let sites: Vec<SiteOracleRow> = table
        .iter()
        .filter_map(|s| {
            let n = s.necessity?;
            Some(SiteOracleRow {
                site: s.site_key(),
                kind: s.kind_name(),
                keep_code: s.keep_code_name(),
                executions: n.executions,
                necessary: n.necessary,
                marking_idle: n.marking_idle,
                null_old: n.null_old,
                already_marked: n.already_marked,
                duplicate: n.duplicate,
                sole_witness: n.sole_witness,
                shielded: n.shielded,
                pre_null: s.stats.pre_null,
                receiver_escaped: n.receiver_escaped,
                witness: s.refuting_witness().unwrap_or_default(),
            })
        })
        .collect();
    let sum = |f: fn(&SiteOracleRow) -> u64| sites.iter().map(f).sum::<u64>();
    let never = || sites.iter().filter(|s| s.never_necessary());

    let totals = Totals::of(&table);
    debug_assert_eq!(
        totals.kept_executions(),
        sum(|s| s.executions),
        "{}: every kept execution must carry a verdict",
        w.name
    );
    let necessary_executions = sum(|s| s.necessary);
    // Sole/shielded are assigned at each cycle's remark audit, so a run
    // that ends inside an open marking cycle leaves that cycle's
    // necessary enqueues unaudited: sole + shielded ≤ necessary, with
    // equality when the last cycle closed before the run did.
    debug_assert!(sum(|s| s.sole_witness) + sum(|s| s.shielded) <= necessary_executions);
    let oracle = obs.oracle.as_ref().expect("the spec enabled the oracle");
    Ok(WorkloadOracle {
        workload: w.name.to_string(),
        headline,
        total_executions: totals.executions,
        elided_executions: totals.elided_executions,
        kept_executions: totals.kept_executions(),
        necessary_executions,
        never_necessary_executions: never().map(|s| s.executions).sum(),
        never_necessary_sites: never().count() as u64,
        cycles_audited: oracle.state.cycles_audited,
        audit_violations: oracle.state.audit_violations,
        allocated_objects: oracle.allocated_objects,
        escaped_objects: oracle.escaped_objects,
        sites,
    })
}

/// Renders the run as NDJSON: per-workload summary + site rows (run
/// order), then the ranked worklist, then the closing `suite` line.
/// Timestamp-free: runs with equal options are byte-identical.
pub fn to_ndjson(o: &SuiteOracle) -> String {
    let mut out = String::new();
    let mut line = |f: &dyn Fn(&mut ObjWriter<'_>)| {
        let mut s = String::new();
        let mut w = ObjWriter::new(&mut s);
        f(&mut w);
        w.finish();
        out.push_str(&s);
        out.push('\n');
    };
    for wo in &o.workloads {
        line(&|w| {
            w.field_str("record", "workload")
                .field_str("workload", &wo.workload)
                .field_bool("headline", wo.headline)
                .field_u64("total_executions", wo.total_executions)
                .field_u64("elided_executions", wo.elided_executions)
                .field_u64("kept_executions", wo.kept_executions)
                .field_u64("necessary_executions", wo.necessary_executions)
                .field_u64("never_necessary_executions", wo.never_necessary_executions)
                .field_u64("never_necessary_sites", wo.never_necessary_sites)
                .field_u64("cycles_audited", wo.cycles_audited)
                .field_u64("audit_violations", wo.audit_violations)
                .field_u64("allocated_objects", wo.allocated_objects)
                .field_u64("escaped_objects", wo.escaped_objects);
        });
        for s in &wo.sites {
            line(&|w| {
                w.field_str("record", "site")
                    .field_str("workload", &wo.workload)
                    .field_str("site", &s.site)
                    .field_str("kind", s.kind)
                    .field_str("keep_code", s.keep_code)
                    .field_u64("executions", s.executions)
                    .field_u64("necessary", s.necessary)
                    .field_raw(
                        "necessity_pct",
                        &format!("{:.3}", pct(s.necessary, s.executions)),
                    )
                    .field_u64("marking_idle", s.marking_idle)
                    .field_u64("null_old", s.null_old)
                    .field_u64("already_marked", s.already_marked)
                    .field_u64("duplicate", s.duplicate)
                    .field_u64("sole_witness", s.sole_witness)
                    .field_u64("shielded", s.shielded)
                    .field_u64("pre_null", s.pre_null)
                    .field_u64("receiver_escaped", s.receiver_escaped)
                    .field_bool("never_necessary", s.never_necessary())
                    .field_str("witness", &s.witness);
            });
        }
    }
    for (rank, r) in o.worklist.iter().enumerate() {
        line(&|w| {
            w.field_str("record", "worklist")
                .field_u64("rank", rank as u64 + 1)
                .field_str("workload", &r.workload)
                .field_str("site", &r.site)
                .field_str("keep_code", r.keep_code)
                .field_u64("executions", r.executions)
                .field_str("witness", &r.witness);
        });
    }
    line(&|w| {
        w.field_str("record", "suite")
            .field_u64("total_executions", o.total_executions)
            .field_u64("elided_executions", o.elided_executions)
            .field_u64("kept_executions", o.kept_executions)
            .field_u64("necessary_executions", o.necessary_executions)
            .field_u64("never_necessary_executions", o.never_necessary_executions)
            .field_u64("never_necessary_sites", o.never_necessary_sites)
            .field_raw("static_elision_pct", &format!("{:.3}", o.static_rate()))
            .field_raw(
                "dynamic_upper_bound_pct",
                &format!("{:.3}", o.dynamic_rate()),
            )
            .field_raw("headroom_points", &format!("{:.3}", o.headroom_points()));
    });
    out
}

/// Renders the run as a human-readable report.
pub fn to_text(o: &SuiteOracle) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "barrier-necessity oracle");
    for wo in &o.workloads {
        let _ = writeln!(
            out,
            "{}: {} executions ({} elided, {} kept), {} necessary, \
             {} never-necessary sites ({} executions), {} cycles audited{}",
            wo.workload,
            wo.total_executions,
            wo.elided_executions,
            wo.kept_executions,
            wo.necessary_executions,
            wo.never_necessary_sites,
            wo.never_necessary_executions,
            wo.cycles_audited,
            if wo.audit_violations > 0 {
                format!(", {} AUDIT VIOLATIONS", wo.audit_violations)
            } else {
                String::new()
            }
        );
        let _ = writeln!(
            out,
            "  witnesses: {}/{} objects escaped their allocating thread",
            wo.escaped_objects, wo.allocated_objects
        );
        for s in wo.sites.iter().filter(|s| s.necessary > 0) {
            let _ = writeln!(
                out,
                "  {:<44} {:<24} {:>8} execs {:>6.3}% necessary ({} sole, {} shielded)",
                s.site,
                s.keep_code,
                s.executions,
                pct(s.necessary, s.executions),
                s.sole_witness,
                s.shielded
            );
        }
    }
    let _ = writeln!(
        out,
        "suite: {} executions, {} elided, {} kept, {} necessary",
        o.total_executions, o.elided_executions, o.kept_executions, o.necessary_executions
    );
    let _ = writeln!(
        out,
        "  static elision rate:       {:>7.3}% (frozen baseline {STATIC_ELISION_PCT:.3}%)",
        o.static_rate()
    );
    let _ = writeln!(
        out,
        "  dynamic upper bound:       {:>7.3}% (+{:.3} points of measured headroom)",
        o.dynamic_rate(),
        o.headroom_points()
    );
    let _ = writeln!(
        out,
        "  never-necessary kept sites: {} (worklist below)",
        o.never_necessary_sites
    );
    for (rank, r) in o.worklist.iter().enumerate() {
        let _ = writeln!(
            out,
            "  #{:<2} {:<10} {:<44} {:<24} {:>8} execs — {}",
            rank + 1,
            r.workload,
            r.site,
            r.keep_code,
            r.executions,
            r.witness
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts() -> OracleOptions {
        OracleOptions {
            scale: 0.05,
            ..OracleOptions::default()
        }
    }

    #[test]
    fn every_kept_execution_carries_a_verdict() {
        let o = measure(&small_opts()).unwrap();
        assert_eq!(o.workloads.len(), 8, "six Table 1 mimics + server family");
        for wo in &o.workloads {
            let site_execs: u64 = wo.sites.iter().map(|s| s.executions).sum();
            assert_eq!(site_execs, wo.kept_executions, "{}", wo.workload);
            assert_eq!(
                wo.kept_executions + wo.elided_executions,
                wo.total_executions,
                "{}",
                wo.workload
            );
            let verdicts: u64 = wo
                .sites
                .iter()
                .map(|s| s.necessary + s.marking_idle + s.null_old + s.already_marked + s.duplicate)
                .sum();
            assert_eq!(verdicts, wo.kept_executions, "{}", wo.workload);
            assert_eq!(wo.audit_violations, 0, "{}", wo.workload);
            assert!(
                !wo.sites
                    .iter()
                    .any(|s| s.keep_code == crate::site::UNATTRIBUTED),
                "{}: verdicts lost ledger provenance",
                wo.workload
            );
        }
    }

    #[test]
    fn dynamic_upper_bound_exceeds_the_frozen_static_rate() {
        let o = measure(&OracleOptions::default()).unwrap();
        // The measured static rate reproduces the frozen headline.
        assert!(
            (o.static_rate() - STATIC_ELISION_PCT).abs() < 0.5,
            "measured static rate {:.3} drifted from the frozen {STATIC_ELISION_PCT}",
            o.static_rate()
        );
        assert!(
            o.dynamic_rate() > STATIC_ELISION_PCT,
            "dynamic upper bound {:.3} must exceed the static rate",
            o.dynamic_rate()
        );
        assert!(!o.worklist.is_empty(), "worklist must be non-empty");
        assert!(
            o.worklist
                .iter()
                .any(|r| r.keep_code == "receiver-may-escape" || r.keep_code == "array-may-escape"),
            "worklist must name escape-kept sites: {:?}",
            o.worklist
        );
        for r in &o.worklist {
            assert!(
                !r.witness.is_empty(),
                "{}: worklist rows carry evidence",
                r.site
            );
        }
    }

    #[test]
    fn ndjson_is_deterministic() {
        let mut opts = small_opts();
        opts.workloads = vec!["jbb".into(), "jess".into()];
        let first = to_ndjson(&measure(&opts).unwrap());
        let second = to_ndjson(&measure(&opts).unwrap());
        assert_eq!(first, second, "oracle NDJSON must be deterministic");
        let mut kinds = std::collections::BTreeSet::new();
        for l in first.lines() {
            let v = wbe_telemetry::json::parse(l).expect("valid JSON");
            kinds.insert(v.get("record").unwrap().as_str().unwrap().to_string());
        }
        for k in ["workload", "site", "worklist", "suite"] {
            assert!(kinds.contains(k), "missing record kind {k}");
        }
    }

    #[test]
    fn necessary_enqueues_split_into_sole_and_shielded() {
        // jbb allocates enough to run real marking cycles at small
        // scale, so some barriers fire mid-cycle.
        let mut opts = small_opts();
        opts.workloads = vec!["jbb".into()];
        let o = measure(&opts).unwrap();
        let wo = &o.workloads[0];
        assert!(wo.cycles_audited > 0, "jbb must run marking cycles");
        let (mut audited, mut necessary) = (0u64, 0u64);
        for s in &wo.sites {
            assert!(
                s.sole_witness + s.shielded <= s.necessary,
                "{}: audited enqueues cannot exceed necessary ones",
                s.site
            );
            audited += s.sole_witness + s.shielded;
            necessary += s.necessary;
        }
        assert!(
            necessary == 0 || audited > 0,
            "with marking cycles closing, some necessary enqueues get audited"
        );
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let opts = OracleOptions {
            workloads: vec!["nope".into()],
            ..OracleOptions::default()
        };
        assert!(measure(&opts).is_err());
    }
}
