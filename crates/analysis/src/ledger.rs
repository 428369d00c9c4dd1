//! The elision provenance ledger: one structured record per
//! barrier-relevant store site, saying what the analysis decided there
//! and *why*.
//!
//! The dump module answers "show me the fixed point"; the ledger
//! answers "explain this one barrier" and "did any verdict change since
//! the last run". Each [`SiteRecord`] carries the verdict
//! (elide/keep/degraded), the abstract receiver set, which receivers
//! were non-thread-local, the σ/NR/Len facts consulted by the judgment,
//! and — for kept barriers — the **first failing elision condition**.
//! That condition is the judgment's own [`KeepCode`]: the transfer
//! function checks escape before field nullness (§2.4) and escape
//! before null-range membership (§3) and names the first that fails, so
//! the ledger derives no reason of its own; it only completes the two
//! details that quote a fact (σ of the single receiver, NR of the
//! single array) from the evidence it read.
//!
//! Records come out of the same replay of the same
//! [`MethodSolution`] as the elision judgment itself
//! ([`MethodSolution::replay`]), so ledger verdicts and codes agree with
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

use wbe_ir::{BlockId, Insn, InsnAddr, MethodId, Program};
use wbe_telemetry::json::ObjWriter;

use crate::config::AnalysisConfig;
use crate::fixpoint::MethodSolution;
use crate::refs::singleton;
use crate::state::{AbsState, AbsValue, FieldKey, MethodCtx};
use crate::transfer::{Judgment, KeepCode};

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

/// Provenance for one barrier-relevant store site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteRecord {
    /// The (post-inlining) method containing the site: with the block
    /// and index, the site's key in every runtime table. Not
    /// serialized; the NDJSON names the method.
    pub method_id: MethodId,
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
    /// The first failing condition; `None` for `Elide`.
    pub keep_code: Option<KeepCode>,
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
    /// Where in [`method_id`](Self::method_id) the site is.
    pub fn addr(&self) -> InsnAddr {
        InsnAddr::new(BlockId::from_index(self.block), self.index)
    }

    /// The site's label, `method@B<block>[<index>]`
    /// ([`InsnAddr::label`]).
    pub fn site_key(&self) -> String {
        self.addr().label(&self.method)
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
            .field_str("keep_code", self.keep_code.map_or("", KeepCode::as_str))
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

    /// Builds a lookup keyed by `(MethodId, InsnAddr)`, the key of the
    /// interpreter's per-site dynamic counters. Records are unique per
    /// site, so later duplicates (none in practice) would win.
    pub fn index(&self) -> std::collections::HashMap<(MethodId, InsnAddr), &SiteRecord> {
        self.records
            .iter()
            .map(|r| ((r.method_id, r.addr()), r))
            .collect()
    }
}

/// What the state before a barrier site says about it, rendered while
/// that state is still there to read: the transfer function that yields
/// the judgment consumes it.
#[derive(Default)]
pub(crate) struct Evidence {
    receiver: String,
    nl: Vec<String>,
    facts: Vec<String>,
    /// σ of the single receiver's field, or NR of the single array: the
    /// fact a [`KeepCode::names_fact`] detail ends in.
    fact: Option<String>,
}

impl Evidence {
    /// Reads the evidence for the barrier site `insn` off its pre-state:
    /// the abstract receiver set, which receivers are in NL, and the
    /// facts the judgment consulted — σ entries for a `putfield`, NR/Len
    /// entries plus the abstract index for an `aastore`.
    pub(crate) fn gather(pre: &AbsState, ctx: &MethodCtx<'_>, insn: &Insn) -> Evidence {
        let (receiver, index) = match insn {
            Insn::PutField(_) => (operand(pre, 1), None),
            Insn::AaStore => (operand(pre, 2), Some(operand(pre, 1))),
            _ => return Evidence::default(),
        };
        let index = index.map(|idx| format!("index = {idx:?}"));
        let AbsValue::Refs(s) = receiver else {
            return Evidence {
                receiver: format!("{receiver:?}"),
                facts: index.into_iter().collect(),
                ..Evidence::default()
            };
        };
        let single = singleton(s).is_some();
        let mut fact = None;
        let mut facts = Vec::new();
        for &r in s.iter() {
            let value = match insn {
                Insn::PutField(f) => {
                    let v = format!("{:?}", pre.sigma_lookup(ctx, r, FieldKey::Field(*f)));
                    facts.push(format!("σ({r}, {}) = {v}", ctx.program.field(*f).name));
                    v
                }
                _ => {
                    let v = format!("{:?}", pre.nr_lookup(r));
                    facts.push(format!("NR({r}) = {v}"));
                    facts.push(format!("Len({r}) = {:?}", pre.len_lookup(r)));
                    v
                }
            };
            if single {
                fact = Some(value);
            }
        }
        facts.extend(index);
        Evidence {
            receiver: fmt_refset(s.iter()),
            nl: s
                .iter()
                .filter(|r| pre.nl.contains(r))
                .map(|r| r.to_string())
                .collect(),
            facts,
            fact,
        }
    }
}

/// The record for the barrier site `insn` at `addr`: `judged` is the
/// evidence its pre-state showed and the judgment the transfer function
/// returned there (`None` = its block has no entry state), `degraded`
/// the method's degrade reason, if it degraded. The keep-code is the
/// judgment's own; only the two details that name a fact are completed
/// from the evidence.
pub(crate) fn site_record(
    ctx: &MethodCtx<'_>,
    addr: InsnAddr,
    insn: &Insn,
    judged: Option<(Evidence, Judgment)>,
    degraded: Option<&str>,
) -> SiteRecord {
    let (kind, target) = match insn {
        Insn::PutField(f) => ("putfield", ctx.program.field(*f).name.clone()),
        Insn::AaStore => ("aastore", "[]".to_string()),
        _ => ("", String::new()),
    };
    let (keep_code, evidence) = match judged {
        None if degraded.is_some() => (Some(KeepCode::NotReached), None),
        None => (Some(KeepCode::UnreachableBlock), None),
        Some((e, Judgment::Elide)) => (degraded.map(|_| KeepCode::DegradedWouldElide), Some(e)),
        Some((e, Judgment::Keep(code))) => (Some(code), Some(e)),
    };
    let verdict = match (degraded, keep_code) {
        (Some(_), _) => Verdict::Degraded,
        (None, None) => Verdict::Elide,
        (None, Some(_)) => Verdict::Keep,
    };
    let evidence = evidence.unwrap_or_default();
    let mut keep_detail = keep_code.map_or("", KeepCode::detail).to_string();
    if keep_code.is_some_and(KeepCode::names_fact) {
        keep_detail.push_str(evidence.fact.as_deref().unwrap_or_default());
    }
    SiteRecord {
        method_id: ctx.method.id,
        method: ctx.method.name.clone(),
        block: addr.block.index(),
        index: addr.index,
        kind,
        target,
        verdict,
        receiver: evidence.receiver,
        nl: evidence.nl,
        facts: evidence.facts,
        keep_code,
        keep_detail,
        degraded: degraded.unwrap_or_default().to_string(),
        null_or_same: false,
    }
}

/// The operand `depth` slots below the top of the stack. The transfer
/// function that pops it runs after the evidence is read, so this is
/// where a malformed method's underflow surfaces during a replay.
fn operand(pre: &AbsState, depth: usize) -> &AbsValue {
    let mut operands = pre.stack.iter().rev();
    operands.nth(depth).expect("verified IR never underflows")
}

fn fmt_refset<'a, I: Iterator<Item = &'a crate::refs::Ref>>(refs: I) -> String {
    let items: Vec<String> = refs.map(|r| r.to_string()).collect();
    format!("{{{}}}", items.join(", "))
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
            assert_eq!(
                rec.verdict == Verdict::Elide,
                res.elided.contains(&rec.addr()),
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
        assert_eq!(kept[0].keep_code, Some(KeepCode::ReceiverMayEscape));
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
        assert!(elided[0].keep_code.is_none());
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
            entry_site.keep_code,
            Some(KeepCode::ReceiverMayEscape),
            "reached site keeps its real reason: {entry_site:?}"
        );
        assert!(!entry_site.degraded.is_empty());
        let loop_site = &ledger.records[1];
        assert_eq!(
            loop_site.keep_code,
            Some(KeepCode::NotReached),
            "{loop_site:?}"
        );
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
        assert_eq!(
            ledger.records[2].keep_code,
            Some(KeepCode::IndexOutsideNullRange)
        );
    }

    #[test]
    fn index_and_keep_code_counts_cover_every_record() {
        let p = mixed_program();
        let ledger = ElisionLedger::build(&p, &AnalysisConfig::full());
        let idx = ledger.index();
        assert_eq!(idx.len(), ledger.records.len(), "sites are unique");
        for r in &ledger.records {
            let found = idx[&(r.method_id, r.addr())];
            assert_eq!(found, r);
        }
        let mut counts = std::collections::BTreeMap::new();
        for code in ledger.records.iter().filter_map(|r| r.keep_code) {
            *counts.entry(code).or_insert(0) += 1;
        }
        assert_eq!(
            counts.values().sum::<usize>(),
            ledger.kept() + ledger.degraded(),
            "every non-elide record carries a keep code"
        );
        assert_eq!(counts.get(&KeepCode::ReceiverMayEscape), Some(&1));
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
