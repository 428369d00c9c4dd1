//! `wbe_tool` front end for the elision provenance ledger: build the
//! post-inlining ledger for a program, render the human `explain` view
//! — of a ledger alone, or of an observed run's per-site table — and
//! diff two NDJSON ledgers site-by-site.
//!
//! The diff's exit contract (enforced by `wbe_tool ledger-diff`):
//!
//! * **0** — ledgers agree, or only *improvements* changed (new sites,
//!   newly-elided sites, degraded sites that recovered).
//! * **1** — at least one **regression**: an elided site now keeps its
//!   barrier, a site flipped to degraded, or an elided site vanished.
//! * **2** — usage or I/O error (missing file, malformed NDJSON).
//!
//! [`demo_flip`] is the negative control: it deliberately flips every
//! elided record to `keep`, the same spirit as `mcheck --demo-unsound`
//! — a diff against the flipped ledger *must* report regressions.

use std::collections::BTreeMap;
use std::fmt;

use wbe_analysis::{ElisionLedger, SiteRecord, Verdict};
use wbe_ir::{BlockId, InsnAddr, Program};
use wbe_opt::{compile, OptMode, PipelineConfig};

use crate::site::SiteReport;

/// The pipeline `explain` and `ledger` show the ledger of.
pub fn ledger_pipeline(mode: OptMode, inline_limit: usize, null_or_same: bool) -> PipelineConfig {
    let mut cfg = PipelineConfig::new(mode, inline_limit).with_ledger();
    cfg.null_or_same = null_or_same;
    cfg
}

/// Compiles `program` (inlining included) and returns its ledger.
/// `None` only for [`OptMode::Baseline`], which runs no analysis.
pub fn build_ledger(
    program: &Program,
    mode: OptMode,
    inline_limit: usize,
    null_or_same: bool,
) -> Option<ElisionLedger> {
    compile(program, &ledger_pipeline(mode, inline_limit, null_or_same)).ledger
}

/// Renders the human `explain` view of `ledger`: [`explain_sites`] of
/// what the ledger alone knows — the view of a program nobody ran.
pub fn explain(ledger: &ElisionLedger, method: Option<&str>, site: Option<usize>) -> String {
    let sites: Vec<SiteReport<'_>> = ledger.records.iter().map(SiteReport::of_record).collect();
    explain_sites(&sites, method, site)
}

/// Renders one stanza per site of the ledger: verdict first, then the
/// evidence chain, then — for kept barriers — the first failing elision
/// condition, then whatever a run observed there. `method` restricts
/// to one (post-inlining) method; `site` to the n-th barrier site
/// within the selection (0-based).
pub fn explain_sites(
    sites: &[SiteReport<'_>],
    method: Option<&str>,
    site: Option<usize>,
) -> String {
    let mut out = String::new();
    // A site that ran without a ledger record has no stanza to hang
    // anything on.
    let recorded: Vec<(&SiteReport<'_>, &SiteRecord)> =
        sites.iter().filter_map(|s| Some((s, s.record?))).collect();
    let selected = recorded
        .iter()
        .filter(|(_, rec)| method.is_none_or(|m| *rec.method == *m));
    let (skip, take) = site.map_or((0, usize::MAX), |n| (n, 1));
    let mut shown = 0;
    for (s, rec) in selected.skip(skip).take(take) {
        render_site(&mut out, s, rec);
        shown += 1;
    }
    if method.is_none() && site.is_none() {
        let count = |v: Verdict| recorded.iter().filter(|(_, rec)| rec.verdict == v).count();
        out.push_str(&format!(
            "{} sites: {} elided, {} kept, {} degraded\n",
            recorded.len(),
            count(Verdict::Elide),
            count(Verdict::Keep),
            count(Verdict::Degraded)
        ));
    } else if shown == 0 {
        out.push_str("no matching barrier site\n");
    }
    out
}

fn render_site(out: &mut String, s: &SiteReport<'_>, rec: &SiteRecord) {
    use fmt::Write as _;
    let verdict = match rec.verdict {
        Verdict::Elide => "ELIDE (store overwrites null; W_none is sound)".to_string(),
        Verdict::Keep => format!("KEEP — {}", s.keep_code_name()),
        Verdict::Degraded => format!("DEGRADED ({})", rec.degraded),
    };
    let _ = writeln!(
        out,
        "{} {} {}: {verdict}",
        rec.site_key(),
        rec.kind,
        rec.target
    );
    let receiver = rec.receiver().to_string();
    if !receiver.is_empty() {
        let _ = writeln!(out, "  receiver: {receiver}");
    }
    if let [first, rest @ ..] = rec.nl() {
        let _ = write!(out, "  non-thread-local: {first}");
        for r in rest {
            let _ = write!(out, ", {r}");
        }
        out.push('\n');
    }
    for fact in rec.facts() {
        let _ = writeln!(out, "  fact: {fact}");
    }
    let detail = rec.keep_detail().to_string();
    if !detail.is_empty() {
        let _ = writeln!(out, "  first failing condition: {detail}");
    }
    if rec.null_or_same {
        let _ = writeln!(
            out,
            "  note: null-or-same (§4.3) elides this site with W_NS"
        );
    }
    if let Some(reason) = s.revoked {
        let _ = writeln!(out, "  REVOKED at runtime — {reason}");
    }
    if s.kind.is_some() {
        let _ = writeln!(
            out,
            "  ran: {} executions, {} over a null pre-value, {} barrier cycles",
            s.stats.executions, s.stats.pre_null, s.stats.cycles
        );
    }
    if let Some(n) = s.necessity {
        let _ = writeln!(
            out,
            "  oracle: {}/{} kept executions necessary ({:.3}%)",
            n.necessary,
            n.executions,
            crate::pct(n.necessary, n.executions)
        );
    }
    if let Some(witness) = s.refuting_witness() {
        let _ = writeln!(out, "  refuting witness: {witness}");
    }
}

/// Deliberately flips every `elide` record to `keep` — the ledger-diff
/// negative control. A diff of the original against the flipped ledger
/// must exit nonzero. No condition failed at a flipped site, so it
/// carries no keep-code, only a detail saying why it is kept.
pub fn demo_flip(ledger: &mut ElisionLedger) {
    for rec in &mut ledger.records {
        if rec.verdict == Verdict::Elide {
            rec.verdict = Verdict::Keep;
            rec.set_keep_detail("deliberately flipped for the negative control");
        }
    }
}

/// One parsed site from an NDJSON ledger: just what the diff needs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffSite {
    /// The verdict recorded for the site.
    pub verdict: Verdict,
    /// First failing condition code (empty for elide).
    pub keep_code: String,
}

/// Parses a ledger NDJSON document into `site_key → DiffSite`, in
/// deterministic order. `Err` carries a message naming the bad line.
pub fn parse_ledger(ndjson: &str) -> Result<BTreeMap<String, DiffSite>, String> {
    let mut sites = BTreeMap::new();
    for (lineno, line) in ndjson.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v =
            wbe_telemetry::json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let get_str = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(|f| f.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("line {}: missing string field '{k}'", lineno + 1))
        };
        let get_u64 = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(|f| f.as_u64())
                .ok_or_else(|| format!("line {}: missing integer field '{k}'", lineno + 1))
        };
        let verdict: Verdict = get_str("verdict")?
            .parse()
            .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let method = get_str("method")?;
        let block = u32::try_from(get_u64("block")?)
            .map_err(|_| format!("line {}: field 'block' out of range", lineno + 1))?;
        let key = InsnAddr::new(BlockId(block), get_u64("index")? as usize).label(&method);
        sites.insert(
            key,
            DiffSite {
                verdict,
                keep_code: get_str("keep_code")?,
            },
        );
    }
    Ok(sites)
}

/// Site-level differences between two ledgers, split into the classes
/// the exit contract cares about.
#[derive(Clone, Debug, Default)]
pub struct LedgerDiff {
    /// Regression: `elide` in the old ledger, `keep` in the new.
    pub newly_kept: Vec<String>,
    /// Regression: any verdict flipped to `degraded`.
    pub newly_degraded: Vec<String>,
    /// Regression: site was `elide` in the old ledger and is gone.
    pub removed_elided: Vec<String>,
    /// Improvement: `keep`/`degraded` in the old ledger, `elide` now.
    pub newly_elided: Vec<String>,
    /// Improvement: `degraded` in the old ledger, `keep` (converged) now.
    pub recovered: Vec<String>,
    /// Neutral: site exists only in the new ledger.
    pub added: Vec<String>,
    /// Neutral: non-elided site removed.
    pub removed_other: Vec<String>,
    /// Neutral: still kept, but the first failing condition changed.
    pub reason_changed: Vec<String>,
}

impl LedgerDiff {
    /// Number of regression entries (the exit-1 trigger).
    pub fn regressions(&self) -> usize {
        self.newly_kept.len() + self.newly_degraded.len() + self.removed_elided.len()
    }

    /// True when the two ledgers are site-for-site identical.
    pub fn is_empty(&self) -> bool {
        self.regressions() == 0
            && self.newly_elided.is_empty()
            && self.recovered.is_empty()
            && self.added.is_empty()
            && self.removed_other.is_empty()
            && self.reason_changed.is_empty()
    }
}

impl fmt::Display for LedgerDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut section = |title: &str, items: &[String]| -> fmt::Result {
            for key in items {
                writeln!(f, "{title} {key}")?;
            }
            Ok(())
        };
        section("REGRESSION newly-kept      ", &self.newly_kept)?;
        section("REGRESSION newly-degraded  ", &self.newly_degraded)?;
        section("REGRESSION removed-elided  ", &self.removed_elided)?;
        section("improvement newly-elided   ", &self.newly_elided)?;
        section("improvement recovered      ", &self.recovered)?;
        section("note        added-site     ", &self.added)?;
        section("note        removed-site   ", &self.removed_other)?;
        section("note        reason-changed ", &self.reason_changed)?;
        if self.is_empty() {
            writeln!(f, "ledgers are identical")?;
        } else {
            writeln!(
                f,
                "{} regression(s), {} improvement(s)",
                self.regressions(),
                self.newly_elided.len() + self.recovered.len()
            )?;
        }
        Ok(())
    }
}

/// Computes the site-level diff `old → new`.
pub fn diff_ledgers(
    old: &BTreeMap<String, DiffSite>,
    new: &BTreeMap<String, DiffSite>,
) -> LedgerDiff {
    let mut d = LedgerDiff::default();
    for (key, o) in old {
        match new.get(key) {
            None => match o.verdict {
                Verdict::Elide => d.removed_elided.push(key.clone()),
                _ => d.removed_other.push(key.clone()),
            },
            Some(n) => match (o.verdict, n.verdict) {
                (Verdict::Elide, Verdict::Keep) => d.newly_kept.push(key.clone()),
                (Verdict::Elide | Verdict::Keep, Verdict::Degraded) => {
                    d.newly_degraded.push(key.clone())
                }
                (Verdict::Keep | Verdict::Degraded, Verdict::Elide) => {
                    d.newly_elided.push(key.clone())
                }
                (Verdict::Degraded, Verdict::Keep) => d.recovered.push(key.clone()),
                (Verdict::Keep, Verdict::Keep) if o.keep_code != n.keep_code => {
                    d.reason_changed.push(key.clone())
                }
                _ => {}
            },
        }
    }
    for key in new.keys() {
        if !old.contains_key(key) {
            d.added.push(key.clone());
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbe_ir::builder::ProgramBuilder;
    use wbe_ir::Ty;

    fn sample_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let g = pb.static_field("g", Ty::Ref(c));
        pb.method("mixed", vec![Ty::Ref(c)], None, 1, |mb| {
            let arg = mb.local(0);
            let o = mb.local(1);
            mb.new_object(c).store(o);
            mb.load(o).load(arg).putfield(f); // elided
            mb.load(o).putstatic(g); // escape
            mb.load(o).load(arg).putfield(f); // kept
            mb.return_();
        });
        pb.finish()
    }

    fn site(verdict: Verdict, code: &str) -> DiffSite {
        DiffSite {
            verdict,
            keep_code: code.to_string(),
        }
    }

    #[test]
    fn explain_names_first_failing_condition() {
        let p = sample_program();
        let ledger = build_ledger(&p, OptMode::Full, 100, false).unwrap();
        let text = explain(&ledger, None, None);
        assert!(text.contains("ELIDE"), "{text}");
        assert!(text.contains("KEEP — receiver-may-escape"), "{text}");
        assert!(text.contains("first failing condition:"), "{text}");
        let one = explain(&ledger, Some("mixed"), Some(1));
        assert!(one.contains("KEEP"), "{one}");
        assert!(!one.contains("ELIDE ("), "{one}");
        let none = explain(&ledger, Some("nope"), None);
        assert!(none.contains("no matching barrier site"), "{none}");
    }

    #[test]
    fn explain_shows_runtime_revocations_without_diff_flips() {
        use crate::site::{observe, Chaos, RunSpec};
        // Round 1 of the soak pinned in `tests/site_views.golden`: jbb
        // heals one corrupted cycle and revokes three elisions.
        let _guard = crate::registry_lock();
        let w = wbe_workloads::by_name("jbb").unwrap();
        let obs = observe(
            &w,
            &RunSpec {
                gc: Some(crate::soak::CHAOS_GC),
                chaos: Some(Chaos {
                    faults: Some(
                        wbe_heap::FaultConfig::from_seed(0xce75_5952_d302_5da7).escalate(1),
                    ),
                    max_attempts: 8,
                }),
                ..RunSpec::baseline(0.01)
            },
        );
        let sites = obs.sites();
        assert_eq!(sites.iter().filter(|s| s.revoked.is_some()).count(), 3);
        let text = explain_sites(&sites, None, None);
        assert_eq!(
            text.matches("REVOKED at runtime — barrier panic mode")
                .count(),
            3,
            "{text}"
        );
        // Runtime revocation is provenance, not a verdict change: the
        // ledger the run carried is the static one.
        let fresh = build_ledger(&w.program, OptMode::Full, 100, false).unwrap();
        let old = parse_ledger(&fresh.to_ndjson()).unwrap();
        let new = parse_ledger(&obs.ledger().to_ndjson()).unwrap();
        let d = diff_ledgers(&old, &new);
        assert!(d.is_empty(), "{d}");
    }

    #[test]
    fn explain_shows_what_a_run_observed_under_each_executed_site() {
        use crate::site::{observe, RunSpec};
        let _guard = crate::registry_lock();
        let w = wbe_workloads::by_name("jess").unwrap();
        let obs = observe(
            &w,
            &RunSpec {
                oracle: true,
                ..RunSpec::baseline(0.05)
            },
        );
        let sites = obs.sites();
        let text = explain_sites(&sites, None, None);
        let ran = sites.iter().filter(|s| s.kind.is_some()).count();
        let kept = sites.iter().filter(|s| s.ran_kept()).count();
        assert!(ran > kept && kept > 0, "jess runs both kinds of site");
        assert_eq!(text.matches("\n  ran: ").count(), ran, "{text}");
        assert_eq!(text.matches("\n  oracle: ").count(), kept, "{text}");
        // jess at this scale never starts a marking cycle, so no kept
        // execution was necessary and every kept site has a witness.
        assert_eq!(
            text.matches("\n  refuting witness: ").count(),
            kept,
            "{text}"
        );
        assert!(
            text.contains(
                "refuting witness: enqueue vacuous in all 100 executions (dominant: marking-idle)"
            ),
            "{text}"
        );
        // Take the dynamic lines away and the static view is left.
        let stat: String = text
            .lines()
            .filter(|l| {
                !["  ran: ", "  oracle: ", "  refuting witness: "]
                    .iter()
                    .any(|p| l.starts_with(p))
            })
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(stat, explain(obs.ledger(), None, None));
        // One site of one method.
        let one = explain_sites(&sites, Some("jess_main"), Some(2));
        assert!(
            one.starts_with("jess_main@B7[12] aastore []: KEEP"),
            "{one}"
        );
        assert_eq!(one.matches("\n  ran: ").count(), 1, "{one}");
    }

    #[test]
    fn ndjson_round_trips_through_the_diff_parser() {
        let p = sample_program();
        let ledger = build_ledger(&p, OptMode::Full, 100, false).unwrap();
        let parsed = parse_ledger(&ledger.to_ndjson()).unwrap();
        assert_eq!(parsed.len(), ledger.records.len());
        let d = diff_ledgers(&parsed, &parsed);
        assert!(d.is_empty(), "{d}");
    }

    #[test]
    fn demo_flip_is_caught_as_a_regression() {
        let p = sample_program();
        let ledger = build_ledger(&p, OptMode::Full, 100, false).unwrap();
        let mut flipped = ledger.clone();
        demo_flip(&mut flipped);
        let old = parse_ledger(&ledger.to_ndjson()).unwrap();
        let new = parse_ledger(&flipped.to_ndjson()).unwrap();
        let d = diff_ledgers(&old, &new);
        assert_eq!(d.newly_kept.len(), ledger.elided());
        assert!(d.regressions() > 0, "{d}");
    }

    #[test]
    fn diff_classifies_every_flip_class() {
        let mut old = BTreeMap::new();
        let mut new = BTreeMap::new();
        // elide -> keep: regression.
        old.insert("m@B0[0]".into(), site(Verdict::Elide, ""));
        new.insert("m@B0[0]".into(), site(Verdict::Keep, "receiver-may-escape"));
        // keep -> degraded: regression.
        old.insert("m@B0[1]".into(), site(Verdict::Keep, "receiver-unknown"));
        new.insert("m@B0[1]".into(), site(Verdict::Degraded, ""));
        // elide -> degraded: regression.
        old.insert("m@B0[2]".into(), site(Verdict::Elide, ""));
        new.insert("m@B0[2]".into(), site(Verdict::Degraded, ""));
        // removed elided site: regression.
        old.insert("m@B0[3]".into(), site(Verdict::Elide, ""));
        // keep -> elide: improvement.
        old.insert(
            "m@B0[4]".into(),
            site(Verdict::Keep, "field-may-be-non-null"),
        );
        new.insert("m@B0[4]".into(), site(Verdict::Elide, ""));
        // degraded -> keep: recovery.
        old.insert("m@B0[5]".into(), site(Verdict::Degraded, ""));
        new.insert("m@B0[5]".into(), site(Verdict::Keep, "receiver-may-escape"));
        // keep -> keep with a different reason: note.
        old.insert("m@B0[6]".into(), site(Verdict::Keep, "receiver-may-escape"));
        new.insert(
            "m@B0[6]".into(),
            site(Verdict::Keep, "field-may-be-non-null"),
        );
        // removed kept site and an added site: notes.
        old.insert("m@B0[7]".into(), site(Verdict::Keep, "receiver-unknown"));
        new.insert("m@B9[0]".into(), site(Verdict::Elide, ""));

        let d = diff_ledgers(&old, &new);
        assert_eq!(d.newly_kept, vec!["m@B0[0]"]);
        assert_eq!(d.newly_degraded, vec!["m@B0[1]", "m@B0[2]"]);
        assert_eq!(d.removed_elided, vec!["m@B0[3]"]);
        assert_eq!(d.newly_elided, vec!["m@B0[4]"]);
        assert_eq!(d.recovered, vec!["m@B0[5]"]);
        assert_eq!(d.reason_changed, vec!["m@B0[6]"]);
        assert_eq!(d.removed_other, vec!["m@B0[7]"]);
        assert_eq!(d.added, vec!["m@B9[0]"]);
        assert_eq!(d.regressions(), 4);
        let text = d.to_string();
        assert!(text.contains("REGRESSION newly-kept"), "{text}");
        assert!(text.contains("4 regression(s)"), "{text}");
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_ledger("{not json").is_err());
        assert!(parse_ledger("{\"method\":\"m\"}").is_err());
        assert!(parse_ledger(
            "{\"method\":\"m\",\"block\":0,\"index\":0,\"verdict\":\"bogus\",\"keep_code\":\"\"}"
        )
        .is_err());
        assert!(parse_ledger(
            "{\"method\":\"m\",\"block\":4294967296,\"index\":0,\"verdict\":\"keep\",\"keep_code\":\"\"}"
        )
        .is_err());
        assert!(parse_ledger("\n\n").unwrap().is_empty());
    }
}
