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
//! Each [`WorkloadOracle`] keeps its run's [`Observed`] and the column
//! sums of its table ([`Totals`]). Every per-site figure the renderers
//! print or rank is read from a [`SiteReport`] of that table where it
//! is used, and the worklist is a sort of those reports: this module
//! has no row type of its own.
//!
//! Determinism: workloads run under the same pinned GC policy and scale
//! as the baseline gate, all aggregation goes through ordered maps, and
//! the NDJSON carries no timestamps, so equal options print equal bytes.

use wbe_heap::witness::WitnessTable;
use wbe_interp::oracle::{OracleState, SiteNecessity};
use wbe_telemetry::json::ObjWriter;

use crate::pct;

use crate::site::{observe, select_workloads, Observed, RunSpec, SiteReport, Totals};

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

/// The oracle's view of one workload run.
#[derive(Debug)]
pub struct WorkloadOracle {
    /// The run, the oracle's verdicts included; its per-site table is
    /// [`Observed::sites`].
    pub observed: Observed,
    /// Whether this workload feeds the headline rates (the six Table 1
    /// mimics do; server-family rows ride along without moving the
    /// frozen static number, exactly as in the baseline gate).
    pub headline: bool,
    /// Column sums of its per-site table.
    pub totals: Totals,
}

impl WorkloadOracle {
    /// The sites the oracle judged, those whose barrier ran, in site
    /// order, each with its verdicts.
    pub fn judged(&self) -> Vec<(SiteReport<'_>, SiteNecessity)> {
        let sites = self.observed.sites().into_iter();
        sites.filter_map(|s| s.necessity.map(|n| (s, n))).collect()
    }

    /// The oracle's half of the run: its per-site tallies and cycle
    /// audit, and the heap's witness table.
    pub fn oracle(&self) -> (&OracleState, &WitnessTable) {
        let (obs, enabled) = (&self.observed, "the spec enabled the oracle");
        let witness = obs.heap.witness.as_ref().expect(enabled);
        (obs.oracle.as_ref().expect(enabled), witness)
    }
}

/// The whole oracle run: per-workload results plus suite rollups.
#[derive(Debug)]
pub struct SuiteOracle {
    /// One result per workload, in run order.
    pub workloads: Vec<WorkloadOracle>,
    /// Column sums over the headline workloads.
    pub headline: Totals,
    /// Maximum ranked worklist rows to emit.
    pub top: usize,
}

impl SuiteOracle {
    /// The measured static elision rate (percent) of the headline
    /// workloads — should reproduce [`STATIC_ELISION_PCT`] on the
    /// default set.
    #[must_use]
    pub fn static_rate(&self) -> f64 {
        pct(self.headline.elided_executions, self.headline.executions)
    }

    /// The dynamic-upper-bound elision rate (percent): executions a
    /// perfect analysis could have elided on these runs.
    #[must_use]
    pub fn dynamic_rate(&self) -> f64 {
        let t = &self.headline;
        pct(
            t.elided_executions + t.never_necessary_executions,
            t.executions,
        )
    }

    /// Measured headroom (points) between the upper bound and the
    /// static rate.
    #[must_use]
    pub fn headroom_points(&self) -> f64 {
        self.dynamic_rate() - self.static_rate()
    }

    /// The ranked worklist, uncut: the never-necessary kept sites of
    /// every workload, each with the workload it ran in, most wasted
    /// executions first (tie: workload, then site label).
    pub fn worklist(&self) -> Vec<(&'static str, SiteReport<'_>, SiteNecessity)> {
        let mut list: Vec<_> = self
            .workloads
            .iter()
            .flat_map(|wo| {
                wo.judged()
                    .into_iter()
                    .map(|(s, n)| (wo.observed.workload, s, n))
            })
            .filter(|(_, _, n)| n.never_necessary())
            .collect();
        list.sort_by(|(wa, a, na), (wb, b, nb)| {
            nb.executions
                .cmp(&na.executions)
                .then_with(|| wa.cmp(wb))
                .then_with(|| a.site_key().cmp(&b.site_key()))
        });
        list
    }
}

/// Runs the oracle over the requested workloads. `Err` names an
/// unknown workload or a trapped run.
pub fn measure(opts: &OracleOptions) -> Result<SuiteOracle, String> {
    let _guard = crate::measuring();
    // The default set is the baseline gate's: six Table 1 mimics
    // feeding the rates, the server family riding along.
    let mut workloads = Vec::new();
    for (w, headline) in &select_workloads(&opts.workloads, wbe_workloads::server_family)? {
        workloads.push(oracle_workload(w, *headline, opts.scale)?);
    }
    Ok(SuiteOracle {
        headline: workloads
            .iter()
            .filter(|r| r.headline)
            .map(|r| r.totals)
            .sum(),
        workloads,
        top: opts.top,
    })
}

/// Runs `w` under the baseline configuration with the oracle on.
fn oracle_workload(
    w: &wbe_workloads::Workload,
    headline: bool,
    scale: f64,
) -> Result<WorkloadOracle, String> {
    let observed = observe(
        w,
        &RunSpec {
            oracle: true,
            ..RunSpec::baseline(scale)
        },
    )
    .completed()?;
    let table = observed.sites();
    let totals = Totals::of(&table);
    let judged = || table.iter().filter_map(|s| s.necessity);
    debug_assert_eq!(
        totals.kept_executions(),
        judged().map(|n| n.executions).sum::<u64>(),
        "{}: every kept execution must carry a verdict",
        w.name
    );
    // Sole/shielded are assigned at each cycle's remark audit, so a run
    // that ends inside an open marking cycle leaves that cycle's
    // necessary enqueues unaudited: sole + shielded ≤ necessary, with
    // equality when the last cycle closed before the run did.
    debug_assert!(
        judged().map(|n| n.sole_witness + n.shielded).sum::<u64>() <= totals.necessary_executions
    );
    Ok(WorkloadOracle {
        observed,
        headline,
        totals,
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
        let (t, (oracle, witness), judged) = (&wo.totals, wo.oracle(), wo.judged());
        let workload = wo.observed.workload;
        line(&|w| {
            w.field_str("record", "workload")
                .field_str("workload", workload)
                .field_bool("headline", wo.headline)
                .field_u64("total_executions", t.executions)
                .field_u64("elided_executions", t.elided_executions)
                .field_u64("kept_executions", t.kept_executions())
                .field_u64("necessary_executions", t.necessary_executions)
                .field_u64("never_necessary_executions", t.never_necessary_executions)
                .field_u64("never_necessary_sites", never_necessary_sites(&judged))
                .field_u64("cycles_audited", oracle.cycles_audited)
                .field_u64("audit_violations", oracle.audit_violations)
                .field_u64("allocated_objects", witness.allocated_objects())
                .field_u64("escaped_objects", witness.escaped_objects());
        });
        for (s, n) in &judged {
            line(&|w| {
                w.field_str("record", "site")
                    .field_str("workload", workload)
                    .field_str("site", &s.site_key())
                    .field_str("kind", s.kind_name())
                    .field_str("keep_code", s.keep_code_name())
                    .field_u64("executions", n.executions)
                    .field_u64("necessary", n.necessary)
                    .field_raw(
                        "necessity_pct",
                        &format!("{:.3}", pct(n.necessary, n.executions)),
                    )
                    .field_u64("marking_idle", n.marking_idle)
                    .field_u64("null_old", n.null_old)
                    .field_u64("already_marked", n.already_marked)
                    .field_u64("duplicate", n.duplicate)
                    .field_u64("sole_witness", n.sole_witness)
                    .field_u64("shielded", n.shielded)
                    .field_u64("pre_null", s.stats.pre_null)
                    .field_u64("receiver_escaped", n.receiver_escaped)
                    .field_bool("never_necessary", n.never_necessary())
                    .field_str("witness", &s.refuting_witness().unwrap_or_default());
            });
        }
    }
    let worklist = o.worklist();
    for (rank, (workload, s, n)) in worklist.iter().take(o.top).enumerate() {
        line(&|w| {
            w.field_str("record", "worklist")
                .field_u64("rank", rank as u64 + 1)
                .field_str("workload", workload)
                .field_str("site", &s.site_key())
                .field_str("keep_code", s.keep_code_name())
                .field_u64("executions", n.executions)
                .field_str("witness", &s.refuting_witness().unwrap_or_default());
        });
    }
    let t = &o.headline;
    line(&|w| {
        w.field_str("record", "suite")
            .field_u64("total_executions", t.executions)
            .field_u64("elided_executions", t.elided_executions)
            .field_u64("kept_executions", t.kept_executions())
            .field_u64("necessary_executions", t.necessary_executions)
            .field_u64("never_necessary_executions", t.never_necessary_executions)
            .field_u64("never_necessary_sites", worklist.len() as u64)
            .field_raw("static_elision_pct", &format!("{:.3}", o.static_rate()))
            .field_raw(
                "dynamic_upper_bound_pct",
                &format!("{:.3}", o.dynamic_rate()),
            )
            .field_raw("headroom_points", &format!("{:.3}", o.headroom_points()));
    });
    out
}

/// How many of `judged` never needed their barrier.
fn never_necessary_sites(judged: &[(SiteReport<'_>, SiteNecessity)]) -> u64 {
    judged.iter().filter(|(_, n)| n.never_necessary()).count() as u64
}

/// Renders the run as a human-readable report.
pub fn to_text(o: &SuiteOracle) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "barrier-necessity oracle");
    for wo in &o.workloads {
        let (t, (oracle, witness), judged) = (&wo.totals, wo.oracle(), wo.judged());
        let _ = writeln!(
            out,
            "{}: {} executions ({} elided, {} kept), {} necessary, \
             {} never-necessary sites ({} executions), {} cycles audited{}",
            wo.observed.workload,
            t.executions,
            t.elided_executions,
            t.kept_executions(),
            t.necessary_executions,
            never_necessary_sites(&judged),
            t.never_necessary_executions,
            oracle.cycles_audited,
            if oracle.audit_violations > 0 {
                format!(", {} AUDIT VIOLATIONS", oracle.audit_violations)
            } else {
                String::new()
            }
        );
        let _ = writeln!(
            out,
            "  witnesses: {}/{} objects escaped their allocating thread",
            witness.escaped_objects(),
            witness.allocated_objects()
        );
        for (s, n) in judged.iter().filter(|(_, n)| n.necessary > 0) {
            let _ = writeln!(
                out,
                "  {:<44} {:<24} {:>8} execs {:>6.3}% necessary ({} sole, {} shielded)",
                s.site_key(),
                s.keep_code_name(),
                n.executions,
                pct(n.necessary, n.executions),
                n.sole_witness,
                n.shielded
            );
        }
    }
    let t = &o.headline;
    let worklist = o.worklist();
    let _ = writeln!(
        out,
        "suite: {} executions, {} elided, {} kept, {} necessary",
        t.executions,
        t.elided_executions,
        t.kept_executions(),
        t.necessary_executions
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
        worklist.len()
    );
    for (rank, (workload, s, n)) in worklist.iter().take(o.top).enumerate() {
        let _ = writeln!(
            out,
            "  #{:<2} {:<10} {:<44} {:<24} {:>8} execs — {}",
            rank + 1,
            workload,
            s.site_key(),
            s.keep_code_name(),
            n.executions,
            s.refuting_witness().unwrap_or_default()
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
            let (t, name, judged) = (&wo.totals, wo.observed.workload, wo.judged());
            let site_execs: u64 = judged.iter().map(|(_, n)| n.executions).sum();
            assert_eq!(site_execs, t.kept_executions(), "{name}");
            assert_eq!(
                t.kept_executions() + t.elided_executions,
                t.executions,
                "{name}"
            );
            let verdicts: u64 = judged
                .iter()
                .map(|(_, n)| {
                    n.necessary + n.marking_idle + n.null_old + n.already_marked + n.duplicate
                })
                .sum();
            assert_eq!(verdicts, t.kept_executions(), "{name}");
            assert_eq!(wo.oracle().0.audit_violations, 0, "{name}");
            assert!(
                !judged
                    .iter()
                    .any(|(s, _)| s.keep_code_name() == crate::site::UNATTRIBUTED),
                "{name}: verdicts lost ledger provenance"
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
        let worklist = o.worklist();
        let top = &worklist[..o.top.min(worklist.len())];
        assert!(!top.is_empty(), "worklist must be non-empty");
        let codes: Vec<&str> = top.iter().map(|(_, s, _)| s.keep_code_name()).collect();
        assert!(
            codes
                .iter()
                .any(|&c| c == "receiver-may-escape" || c == "array-may-escape"),
            "worklist must name escape-kept sites: {codes:?}"
        );
        for (_, s, _) in top {
            assert!(
                s.refuting_witness().is_some(),
                "{}: worklist rows carry evidence",
                s.site_key()
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
        assert!(
            wo.oracle().0.cycles_audited > 0,
            "jbb must run marking cycles"
        );
        let (mut audited, mut necessary) = (0u64, 0u64);
        for (s, n) in &wo.judged() {
            assert!(
                n.sole_witness + n.shielded <= n.necessary,
                "{}: audited enqueues cannot exceed necessary ones",
                s.site_key()
            );
            audited += n.sole_witness + n.shielded;
            necessary += n.necessary;
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
