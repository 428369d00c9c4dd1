//! The elision provenance ledger: one structured record per
//! barrier-relevant store site, saying what the analysis decided there
//! and *why*.
//!
//! The dump module answers "show me the fixed point"; the ledger
//! answers "explain this one barrier" and "did any verdict change since
//! the last run". Each [`SiteRecord`] carries the verdict
//! (elide/keep/degraded), the abstract receiver set, which receivers
//! were non-thread-local, the σ/NR/Len facts consulted by the judgment,
//! and — for kept barriers — the **first failing elision condition** in
//! the order the judgment checks them (escape before field nullness,
//! matching §2.4; escape before null-range membership for arrays, §3).
//!
//! Records come out of the same replay of the same
//! [`MethodSolution`] as the elision judgment itself
//! ([`MethodSolution::replay`]), so ledger verdicts agree with
//! [`analyze_method`](crate::analyze_method) by construction and cost
//! no second fixed point. For degraded methods the replay uses the
//! driver's *partial* (pre-convergence) states: sites in blocks reached
//! before the guardrail fired still get a best-effort reason, clearly
//! marked; everything in a degraded method has verdict `Degraded`
//! because a degraded method elides nothing.
//!
//! Serialization is NDJSON (one record per line) with no timestamps or
//! other run-varying data, so the same program and configuration
//! produce a byte-identical ledger — the property `wbe_tool
//! ledger-diff` relies on.

use wbe_ir::{Insn, InsnAddr, Program};
use wbe_telemetry::json::ObjWriter;

use crate::config::AnalysisConfig;
use crate::fixpoint::MethodSolution;
use crate::refs::singleton;
use crate::state::{AbsState, AbsValue, FieldKey, MethodCtx};
use crate::transfer::BarrierJudgment;

/// What the analysis decided about one store site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The SATB barrier is provably removable (store overwrites null).
    Elide,
    /// The barrier must stay; [`SiteRecord::keep_code`] names the first
    /// failing condition.
    Keep,
    /// The method's analysis hit a guardrail; nothing is elided
    /// regardless of what partial states suggested.
    Degraded,
}

impl Verdict {
    /// Stable lowercase name used in the NDJSON export.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Elide => "elide",
            Verdict::Keep => "keep",
            Verdict::Degraded => "degraded",
        }
    }
}

impl std::str::FromStr for Verdict {
    type Err = String;

    /// Parses the NDJSON name back into a verdict.
    fn from_str(s: &str) -> Result<Verdict, String> {
        match s {
            "elide" => Ok(Verdict::Elide),
            "keep" => Ok(Verdict::Keep),
            "degraded" => Ok(Verdict::Degraded),
            other => Err(format!("unknown verdict '{other}'")),
        }
    }
}

/// The first failing elision condition at a kept site: a stable
/// machine-readable `code` plus the human-readable `detail` the text
/// dump prints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeepReason {
    /// Stable kebab-case condition name (e.g. `receiver-may-escape`).
    pub code: &'static str,
    /// Human-readable explanation, including the offending fact.
    pub detail: String,
}

/// Provenance for one barrier-relevant store site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteRecord {
    /// Name of the (post-inlining) method containing the site.
    pub method: String,
    /// Block index of the site.
    pub block: usize,
    /// Instruction index within the block.
    pub index: usize,
    /// `"putfield"` or `"aastore"`.
    pub kind: &'static str,
    /// Field name for `putfield`; `"[]"` for `aastore`.
    pub target: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Abstract receiver set at the site (`{A0.s1}`-style), or a
    /// description like `Any` when no reference set is known.
    pub receiver: String,
    /// Receivers that are (possibly) non-thread-local at the site.
    pub nl: Vec<String>,
    /// The σ/NR/Len facts consulted by the judgment, rendered.
    pub facts: Vec<String>,
    /// First failing condition code (empty for `Elide`).
    pub keep_code: String,
    /// Human-readable first failing condition (empty for `Elide`).
    pub keep_detail: String,
    /// Degrade reason when [`Verdict::Degraded`] (empty otherwise).
    pub degraded: String,
    /// Whether the §4.3 null-or-same extension would elide this site
    /// with a `W_NS` barrier (set by the per-method pass when its
    /// [`Products`](crate::Products) ask for null-or-same too; always
    /// `false` straight out of [`ElisionLedger::build`]).
    pub null_or_same: bool,
}

impl SiteRecord {
    /// Stable identity of the site within a program:
    /// `method@B<block>[<index>]`.
    pub fn site_key(&self) -> String {
        format!("{}@B{}[{}]", self.method, self.block, self.index)
    }

    /// Renders the record as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut w = ObjWriter::new(&mut out);
        w.field_str("method", &self.method)
            .field_u64("block", self.block as u64)
            .field_u64("index", self.index as u64)
            .field_str("kind", self.kind)
            .field_str("target", &self.target)
            .field_str("verdict", self.verdict.as_str())
            .field_str("receiver", &self.receiver)
            .field_raw("nl", &str_array(&self.nl))
            .field_raw("facts", &str_array(&self.facts))
            .field_str("keep_code", &self.keep_code)
            .field_str("keep_detail", &self.keep_detail)
            .field_str("degraded", &self.degraded)
            .field_bool("null_or_same", self.null_or_same);
        w.finish();
        out
    }
}

fn str_array(items: &[String]) -> String {
    let mut out = String::from("[");
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        wbe_telemetry::json::push_str_escaped(&mut out, s);
    }
    out.push(']');
    out
}

/// The whole-program ledger: every barrier-relevant store site, in
/// deterministic (method, block, instruction) order.
#[derive(Clone, Debug, Default)]
pub struct ElisionLedger {
    /// One record per barrier-relevant store site.
    pub records: Vec<SiteRecord>,
}

impl ElisionLedger {
    /// Builds the ledger for every method of `program`. Standalone
    /// entry point: it solves each method itself. A caller that also
    /// wants the elision result should ask
    /// [`analyze_program_with`](crate::fixpoint::analyze_program_with)
    /// for both, which solves once.
    pub fn build(program: &Program, config: &AnalysisConfig) -> ElisionLedger {
        let _span = wbe_telemetry::span!("analysis.ledger");
        let records = program
            .iter_methods()
            .flat_map(|(_, method)| {
                MethodSolution::solve(program, method, config)
                    .replay(true)
                    .records
            })
            .collect();
        ElisionLedger::from_records(records)
    }

    /// Wraps records already in (method, block, instruction) order,
    /// publishing their count (`analysis.ledger.records`).
    pub(crate) fn from_records(records: Vec<SiteRecord>) -> ElisionLedger {
        wbe_telemetry::counter("analysis.ledger.records").add(records.len() as u64);
        ElisionLedger { records }
    }

    /// Serializes the ledger as NDJSON, one record per line. Contains
    /// no timestamps: the same program + config yields byte-identical
    /// output.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for rec in &self.records {
            out.push_str(&rec.to_json());
            out.push('\n');
        }
        out
    }

    /// Number of `Elide` records.
    pub fn elided(&self) -> usize {
        self.count(Verdict::Elide)
    }

    /// Number of `Keep` records.
    pub fn kept(&self) -> usize {
        self.count(Verdict::Keep)
    }

    /// Number of `Degraded` records.
    pub fn degraded(&self) -> usize {
        self.count(Verdict::Degraded)
    }

    fn count(&self, v: Verdict) -> usize {
        self.records.iter().filter(|r| r.verdict == v).count()
    }

    /// Builds a lookup keyed by `(method name, block, index)` — the
    /// join key shared with the interpreter's per-site dynamic counters
    /// (whose `InsnAddr` decomposes into the same block/index pair).
    /// Records are unique per site, so later duplicates (none in
    /// practice) would win.
    pub fn index(&self) -> std::collections::HashMap<(&str, usize, usize), &SiteRecord> {
        self.records
            .iter()
            .map(|r| ((r.method.as_str(), r.block, r.index), r))
            .collect()
    }

    /// Number of kept/degraded records per keep-code, in deterministic
    /// code order. `Elide` records (empty code) are excluded.
    pub fn keep_code_counts(&self) -> std::collections::BTreeMap<String, usize> {
        let mut counts = std::collections::BTreeMap::new();
        for r in &self.records {
            if r.verdict != Verdict::Elide && !r.keep_code.is_empty() {
                *counts.entry(r.keep_code.clone()).or_insert(0) += 1;
            }
        }
        counts
    }
}

/// Keep-code of a site in a degraded method whose partial state showed
/// no failing condition.
pub(crate) const WOULD_ELIDE: &str = "degraded-would-elide";

/// What the state before a barrier site says about it, rendered while
/// that state is still there to read: the transfer function that yields
/// the judgment consumes it.
pub(crate) struct Evidence {
    receiver: String,
    nl: Vec<String>,
    facts: Vec<String>,
    /// The first failing condition, should the site be kept.
    keep: KeepReason,
}

impl Evidence {
    /// Reads the evidence for the barrier site `insn` off its pre-state.
    pub(crate) fn gather(pre: &AbsState, ctx: &MethodCtx<'_>, insn: &Insn) -> Evidence {
        let (receiver, nl, facts) = evidence(pre, ctx, insn);
        Evidence {
            receiver,
            nl,
            facts,
            keep: keep_reason(pre, ctx, insn),
        }
    }
}

/// The record for the barrier site `insn` at `addr`: `pre` is what the
/// state before it showed (`None` = its block has no entry state),
/// `judgment` what the transfer function returned there, and `degraded`
/// the method's degrade reason, if it degraded.
pub(crate) fn site_record(
    ctx: &MethodCtx<'_>,
    addr: InsnAddr,
    insn: &Insn,
    pre: Option<Evidence>,
    judgment: BarrierJudgment,
    degraded: Option<&str>,
) -> SiteRecord {
    let (kind, target) = match insn {
        Insn::PutField(f) => ("putfield", ctx.program.field(*f).name.clone()),
        Insn::AaStore => ("aastore", "[]".to_string()),
        _ => ("", String::new()),
    };
    let mut rec = SiteRecord {
        method: ctx.method.name.clone(),
        block: addr.block.index(),
        index: addr.index,
        kind,
        target,
        verdict: Verdict::Keep,
        receiver: String::new(),
        nl: Vec::new(),
        facts: Vec::new(),
        keep_code: String::new(),
        keep_detail: String::new(),
        degraded: degraded.unwrap_or_default().to_string(),
        null_or_same: false,
    };
    let reason = |code, detail: &str| KeepReason {
        code,
        detail: detail.to_string(),
    };
    let (pre, found) = pre.map(|e| (e.keep, (e.receiver, e.nl, e.facts))).unzip();
    let keep = match (pre, degraded) {
        (None, Some(_)) => Some(reason("not-reached", "site not reached before degradation")),
        (None, None) => Some(reason(
            "unreachable-block",
            "block unreachable (no entry state)",
        )),
        (Some(_), None) if judgment == Some(true) => None,
        (Some(_), Some(_)) if judgment != Some(false) => Some(reason(
            WOULD_ELIDE,
            "no failing condition in the partial (pre-convergence) state",
        )),
        (Some(pre), _) => Some(pre),
    };
    rec.verdict = match (degraded, &keep) {
        (Some(_), _) => Verdict::Degraded,
        (None, None) => Verdict::Elide,
        (None, Some(_)) => Verdict::Keep,
    };
    if let Some(keep) = keep {
        rec.keep_code = keep.code.to_string();
        rec.keep_detail = keep.detail;
    }
    if let Some(found) = found {
        (rec.receiver, rec.nl, rec.facts) = found;
    }
    rec
}

/// The operand `depth` slots below the top of the stack. The transfer
/// function that pops it runs after the evidence is read, so this is
/// where a malformed method's underflow surfaces during a replay.
fn operand(pre: &AbsState, depth: usize) -> &AbsValue {
    let mut operands = pre.stack.iter().rev();
    operands.nth(depth).expect("verified IR never underflows")
}

/// Renders the abstract receiver set and the facts the judgment
/// consulted: σ entries for a `putfield`, NR/Len entries plus the
/// abstract index for an `aastore`.
fn evidence(
    pre: &AbsState,
    ctx: &MethodCtx<'_>,
    insn: &Insn,
) -> (String, Vec<String>, Vec<String>) {
    match insn {
        Insn::PutField(f) => {
            let obj = operand(pre, 1);
            match obj {
                AbsValue::Refs(s) => {
                    let fname = &ctx.program.field(*f).name;
                    let nl = s
                        .iter()
                        .filter(|r| pre.nl.contains(r))
                        .map(|r| r.to_string())
                        .collect();
                    let facts = s
                        .iter()
                        .map(|&r| {
                            format!(
                                "σ({r}, {fname}) = {:?}",
                                pre.sigma_lookup(ctx, r, FieldKey::Field(*f))
                            )
                        })
                        .collect();
                    (fmt_refset(s.iter()), nl, facts)
                }
                other => (format!("{other:?}"), Vec::new(), Vec::new()),
            }
        }
        Insn::AaStore => {
            let arr = operand(pre, 2);
            let idx = operand(pre, 1);
            match arr {
                AbsValue::Refs(s) => {
                    let nl = s
                        .iter()
                        .filter(|r| pre.nl.contains(r))
                        .map(|r| r.to_string())
                        .collect();
                    let mut facts: Vec<String> = Vec::new();
                    for &r in s.iter() {
                        facts.push(format!("NR({r}) = {:?}", pre.nr_lookup(r)));
                        facts.push(format!("Len({r}) = {:?}", pre.len_lookup(r)));
                    }
                    facts.push(format!("index = {idx:?}"));
                    (fmt_refset(s.iter()), nl, facts)
                }
                other => (
                    format!("{other:?}"),
                    Vec::new(),
                    vec![format!("index = {idx:?}")],
                ),
            }
        }
        _ => (String::new(), Vec::new(), Vec::new()),
    }
}

fn fmt_refset<'a, I: Iterator<Item = &'a crate::refs::Ref>>(refs: I) -> String {
    let items: Vec<String> = refs.map(|r| r.to_string()).collect();
    format!("{{{}}}", items.join(", "))
}

/// Derives the first failing elision condition at a kept site from its
/// pre-state, in judgment order: escape first, then field nullness
/// (§2.4) / null-range membership (§3). Shared with the text dump so
/// `wbe_tool explain` and `wbe_analysis::dump` never disagree.
pub(crate) fn keep_reason(pre: &AbsState, ctx: &MethodCtx<'_>, insn: &Insn) -> KeepReason {
    match insn {
        Insn::PutField(f) => {
            let obj = operand(pre, 1);
            match obj {
                AbsValue::Refs(s) => {
                    if s.iter().any(|r| pre.nl.contains(r)) {
                        KeepReason {
                            code: "receiver-may-escape",
                            detail: "receiver may be non-thread-local".to_string(),
                        }
                    } else if let Some(r) = singleton(s) {
                        KeepReason {
                            code: "field-may-be-non-null",
                            detail: format!(
                                "field may be non-null: σ = {:?}",
                                pre.sigma_lookup(ctx, r, FieldKey::Field(*f))
                            ),
                        }
                    } else {
                        KeepReason {
                            code: "field-may-be-non-null-multi",
                            detail: "field may be non-null on some receiver".to_string(),
                        }
                    }
                }
                _ => KeepReason {
                    code: "receiver-unknown",
                    detail: "receiver unknown".to_string(),
                },
            }
        }
        Insn::AaStore => {
            if !ctx.track_arrays {
                return KeepReason {
                    code: "array-analysis-disabled",
                    detail: "array analysis disabled (field-only configuration)".to_string(),
                };
            }
            let arr = operand(pre, 2);
            match arr {
                AbsValue::Refs(s) if s.iter().any(|r| pre.nl.contains(r)) => KeepReason {
                    code: "array-may-escape",
                    detail: "array may be non-thread-local".to_string(),
                },
                AbsValue::Refs(s) => match singleton(s) {
                    Some(r) => KeepReason {
                        code: "index-outside-null-range",
                        detail: format!("index not provably in null range {:?}", pre.nr_lookup(r)),
                    },
                    None => KeepReason {
                        code: "multiple-arrays",
                        detail: "multiple possible arrays".to_string(),
                    },
                },
                _ => KeepReason {
                    code: "array-unknown",
                    detail: "array unknown".to_string(),
                },
            }
        }
        _ => KeepReason {
            code: "not-a-barrier",
            detail: String::new(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixpoint::analyze_method;
    use wbe_ir::builder::ProgramBuilder;
    use wbe_ir::{CmpOp, Ty};

    fn mixed_program() -> Program {
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
            mb.load(o).load(arg).putfield(f); // kept: escaped
            mb.return_();
        });
        pb.finish()
    }

    #[test]
    fn verdicts_match_analyze_method() {
        let p = mixed_program();
        let cfg = AnalysisConfig::full();
        let ledger = ElisionLedger::build(&p, &cfg);
        let res = analyze_method(&p, &p.methods[0], &cfg);
        assert_eq!(ledger.records.len(), res.barrier_sites);
        assert_eq!(ledger.elided(), res.elided.len());
        for rec in &ledger.records {
            let addr = wbe_ir::InsnAddr::new(wbe_ir::BlockId(rec.block as u32), rec.index);
            assert_eq!(
                rec.verdict == Verdict::Elide,
                res.elided.contains(&addr),
                "{rec:?}"
            );
        }
    }

    #[test]
    fn keep_record_names_first_failing_condition() {
        let p = mixed_program();
        let ledger = ElisionLedger::build(&p, &AnalysisConfig::full());
        let kept: Vec<_> = ledger
            .records
            .iter()
            .filter(|r| r.verdict == Verdict::Keep)
            .collect();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].keep_code, "receiver-may-escape");
        assert!(!kept[0].nl.is_empty(), "escaped receiver listed: {kept:?}");
        assert!(
            kept[0].facts.iter().any(|f| f.starts_with("σ(")),
            "{kept:?}"
        );
    }

    #[test]
    fn elide_record_has_no_keep_reason() {
        let p = mixed_program();
        let ledger = ElisionLedger::build(&p, &AnalysisConfig::full());
        let elided: Vec<_> = ledger
            .records
            .iter()
            .filter(|r| r.verdict == Verdict::Elide)
            .collect();
        assert_eq!(elided.len(), 1);
        assert!(elided[0].keep_code.is_empty());
        assert!(elided[0].keep_detail.is_empty());
        assert!(elided[0].receiver.starts_with('{'), "{elided:?}");
    }

    #[test]
    fn degraded_method_reports_partial_reasons() {
        // A kept putfield in the entry block, then a loop the iteration
        // cap interrupts: the entry-block site must still carry a real
        // keep reason even though the whole method degrades.
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        pb.method("deg", vec![Ty::Ref(c), Ty::Int], None, 0, |mb| {
            let arg = mb.local(0);
            let n = mb.local(1);
            let head = mb.new_block();
            let body = mb.new_block();
            let exit = mb.new_block();
            mb.load(arg).load(arg).putfield(f); // kept: arg escapes
            mb.goto_(head);
            mb.switch_to(head).load(n).if_zero(CmpOp::Gt, body, exit);
            mb.switch_to(body)
                .load(arg)
                .load(arg)
                .putfield(f)
                .iinc(n, -1)
                .goto_(head);
            mb.switch_to(exit).return_();
        });
        let p = pb.finish();
        let cfg = AnalysisConfig::full().with_max_iterations(1);
        let ledger = ElisionLedger::build(&p, &cfg);
        assert_eq!(ledger.records.len(), 2);
        assert_eq!(ledger.degraded(), 2, "degraded method elides nothing");
        let entry_site = &ledger.records[0];
        assert_eq!(entry_site.block, 0);
        assert_eq!(
            entry_site.keep_code, "receiver-may-escape",
            "reached site keeps its real reason: {entry_site:?}"
        );
        assert!(!entry_site.degraded.is_empty());
        let loop_site = &ledger.records[1];
        assert_eq!(loop_site.keep_code, "not-reached", "{loop_site:?}");
    }

    #[test]
    fn ndjson_is_deterministic_and_parseable() {
        let p = mixed_program();
        let cfg = AnalysisConfig::full();
        let a = ElisionLedger::build(&p, &cfg).to_ndjson();
        let b = ElisionLedger::build(&p, &cfg).to_ndjson();
        assert_eq!(a, b, "same program+config must be byte-identical");
        for line in a.lines() {
            let v = wbe_telemetry::json::parse(line).expect("valid JSON");
            let verdict = v.get("verdict").unwrap().as_str().unwrap();
            assert!(verdict.parse::<Verdict>().is_ok(), "{verdict}");
        }
    }

    #[test]
    fn array_sites_record_null_ranges() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        pb.method("arr", vec![], None, 1, |mb| {
            let a = mb.local(0);
            mb.iconst(8).new_ref_array(c).store(a);
            mb.load(a).iconst(0).const_null().aastore(); // elided
            mb.load(a).iconst(5).const_null().aastore(); // elided (5 ∈ NR)
            mb.load(a).iconst(6).const_null().aastore(); // kept: NR collapsed
            mb.return_();
        });
        let p = pb.finish();
        let ledger = ElisionLedger::build(&p, &AnalysisConfig::full());
        assert_eq!(ledger.records.len(), 3);
        assert_eq!(ledger.records[0].verdict, Verdict::Elide);
        assert_eq!(ledger.records[0].kind, "aastore");
        assert!(ledger.records[0].facts.iter().any(|f| f.starts_with("NR(")));
        assert_eq!(ledger.records[2].verdict, Verdict::Keep);
        assert_eq!(ledger.records[2].keep_code, "index-outside-null-range");
    }

    #[test]
    fn index_and_keep_code_counts_cover_every_record() {
        let p = mixed_program();
        let ledger = ElisionLedger::build(&p, &AnalysisConfig::full());
        let idx = ledger.index();
        assert_eq!(idx.len(), ledger.records.len(), "sites are unique");
        for r in &ledger.records {
            let found = idx[&(r.method.as_str(), r.block, r.index)];
            assert_eq!(found, r);
        }
        let counts = ledger.keep_code_counts();
        assert_eq!(
            counts.values().sum::<usize>(),
            ledger.kept() + ledger.degraded(),
            "every non-elide record carries a keep code"
        );
        assert_eq!(counts.get("receiver-may-escape"), Some(&1));
    }

    #[test]
    fn site_keys_are_unique() {
        let p = mixed_program();
        let ledger = ElisionLedger::build(&p, &AnalysisConfig::full());
        let keys: std::collections::BTreeSet<_> =
            ledger.records.iter().map(|r| r.site_key()).collect();
        assert_eq!(keys.len(), ledger.records.len());
    }
}
