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
//! A record keeps what the judgment read as values — the receiver, its
//! non-thread-local members, each member's σ entry or NR and Len, the
//! index — and renders them only when a view asks:
//! [`SiteRecord::receiver`], [`nl`](SiteRecord::nl),
//! [`facts`](SiteRecord::facts) and
//! [`keep_detail`](SiteRecord::keep_detail) are the one renderer behind
//! the NDJSON, `wbe_tool explain` and the dump's per-site lines, so
//! building records on the compile path formats nothing.
//!
//! Serialization is NDJSON (one record per line) with no timestamps or
//! other run-varying data, so the same program and configuration
//! produce a byte-identical ledger — the property `wbe_tool
//! ledger-diff` relies on.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::sync::Arc;

use wbe_ir::{BlockId, Insn, InsnAddr, MethodId, Program};
use wbe_telemetry::json::ObjWriter;

use crate::config::AnalysisConfig;
use crate::fixpoint::MethodSolution;
use crate::intval::IntLat;
use crate::range::IntRange;
use crate::refs::{Ref, RefSet};
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
    /// Name of the (post-inlining) method containing the site, shared
    /// by every record of the method.
    pub method: Arc<str>,
    /// Block index of the site.
    pub block: usize,
    /// Instruction index within the block.
    pub index: usize,
    /// `"putfield"` or `"aastore"`.
    pub kind: &'static str,
    /// Field name for `putfield`; `"[]"` for `aastore`.
    pub target: Cow<'static, str>,
    /// The verdict.
    pub verdict: Verdict,
    /// The first failing condition; `None` for `Elide`.
    pub keep_code: Option<KeepCode>,
    /// Degrade reason when [`Verdict::Degraded`] (empty otherwise).
    pub degraded: String,
    /// Whether the §4.3 null-or-same extension would elide this site
    /// with a `W_NS` barrier (set by the per-method pass when its
    /// [`Products`](crate::Products) ask for null-or-same too; always
    /// `false` straight out of [`ElisionLedger::build`]).
    pub null_or_same: bool,
    /// What the judgment read, as values.
    evidence: Evidence,
    /// A detail set by hand ([`set_keep_detail`](Self::set_keep_detail))
    /// in place of the one the keep-code and the evidence give.
    detail_override: Option<&'static str>,
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

    /// The abstract receiver set at the site (`{A0.s1}`-style), a
    /// description like `Any` when no reference set is known, or
    /// nothing when the site's block has no state.
    pub fn receiver(&self) -> impl fmt::Display + '_ {
        fmt::from_fn(move |f| match &self.evidence.receiver {
            None => Ok(()),
            Some(AbsValue::Refs(s)) => {
                f.write_char('{')?;
                for (i, r) in s.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{r}")?;
                }
                f.write_char('}')
            }
            Some(other) => write!(f, "{other:?}"),
        })
    }

    /// The receivers that are (possibly) non-thread-local at the site.
    pub fn nl(&self) -> &[Ref] {
        self.evidence.nl.as_slice()
    }

    /// The σ/NR/Len facts the judgment consulted, in order: per
    /// receiver, σ of the stored field (`putfield`) or NR and Len
    /// (`aastore`); then an `aastore`'s index.
    pub fn facts(&self) -> impl Iterator<Item = impl fmt::Display + '_> + '_ {
        let Evidence {
            receiver,
            members,
            index,
            ..
        } = &self.evidence;
        let refs = receiver.as_ref().map_or(&[][..], refs_of);
        let field = &*self.target;
        let per_member = refs
            .iter()
            .zip(members.as_slice())
            .flat_map(move |(&r, c)| {
                let facts = match c {
                    Consulted::Sigma(v) => [Some(Fact::Sigma(r, field, v)), None],
                    Consulted::Array(nr, len) => [Some(Fact::Nr(r, nr)), Some(Fact::Len(r, len))],
                };
                facts.into_iter().flatten()
            });
        per_member.chain(index.as_ref().map(Fact::Index))
    }

    /// The first failing condition, human-readable (empty for
    /// `Elide`). A detail that quotes a fact
    /// ([`KeepCode::names_fact`]) ends in the single receiver's σ
    /// entry or NR.
    pub fn keep_detail(&self) -> impl fmt::Display + '_ {
        fmt::from_fn(move |f| {
            if let Some(detail) = self.detail_override {
                return f.write_str(detail);
            }
            let Some(code) = self.keep_code else {
                return Ok(());
            };
            f.write_str(code.detail())?;
            match self.evidence.members.as_slice() {
                [Consulted::Sigma(v)] if code.names_fact() => write!(f, "{v:?}"),
                [Consulted::Array(nr, _)] if code.names_fact() => write!(f, "{nr:?}"),
                _ => Ok(()),
            }
        })
    }

    /// Replaces the rendered first failing condition with `detail`, for
    /// a record whose verdict was set by hand.
    pub fn set_keep_detail(&mut self, detail: &'static str) {
        self.detail_override = Some(detail);
    }

    /// Renders the record as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends [`to_json`](Self::to_json)'s object to `out`.
    fn write_json(&self, out: &mut String) {
        let receiver = self.receiver().to_string();
        let nl = str_array(self.nl());
        let facts = str_array(self.facts());
        let keep_detail = self.keep_detail().to_string();
        let mut w = ObjWriter::new(out);
        w.field_str("method", &self.method)
            .field_u64("block", self.block as u64)
            .field_u64("index", self.index as u64)
            .field_str("kind", self.kind)
            .field_str("target", &self.target)
            .field_str("verdict", self.verdict.as_str())
            .field_str("receiver", &receiver)
            .field_raw("nl", &nl)
            .field_raw("facts", &facts)
            .field_str("keep_code", self.keep_code.map_or("", KeepCode::as_str))
            .field_str("keep_detail", &keep_detail)
            .field_str("degraded", &self.degraded)
            .field_bool("null_or_same", self.null_or_same);
        w.finish();
    }
}

/// `items`, each rendered, as a JSON array of strings.
fn str_array(items: impl IntoIterator<Item = impl fmt::Display>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        wbe_telemetry::json::push_str_escaped(&mut out, &item.to_string());
    }
    out.push(']');
    out
}

/// One fact a judgment consulted, as [`SiteRecord::facts`] renders it.
enum Fact<'r> {
    /// σ of a receiver's field.
    Sigma(Ref, &'r str, &'r AbsValue),
    /// NR of an array.
    Nr(Ref, &'r IntRange),
    /// Len of an array.
    Len(Ref, &'r IntLat),
    /// An `aastore`'s index.
    Index(&'r AbsValue),
}

impl fmt::Display for Fact<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fact::Sigma(r, field, v) => write!(f, "σ({r}, {field}) = {v:?}"),
            Fact::Nr(r, nr) => write!(f, "NR({r}) = {nr:?}"),
            Fact::Len(r, len) => write!(f, "Len({r}) = {len:?}"),
            Fact::Index(idx) => write!(f, "index = {idx:?}"),
        }
    }
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
            rec.write_json(&mut out);
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

/// What the state before a barrier site says about it, read while that
/// state is still there (the transfer function that yields the judgment
/// consumes it) and kept as values until a view renders them. The
/// default is a site whose block has no state: nothing was read.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Evidence {
    /// The object a `putfield` stores into, the array of an `aastore`.
    receiver: Option<AbsValue>,
    /// The receiver's members in NL.
    nl: RefSet,
    /// What was consulted of each member of a reference-set receiver,
    /// in member order.
    members: Members,
    /// An `aastore`'s index.
    index: Option<AbsValue>,
}

/// What a judgment consulted of one receiver.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Consulted {
    /// σ of the stored field.
    Sigma(AbsValue),
    /// NR and Len of the array.
    Array(IntRange, IntLat),
}

/// [`Consulted`] per member, the common single member held inline.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Members {
    One(Consulted),
    Many(Vec<Consulted>),
}

impl Default for Members {
    fn default() -> Self {
        Members::Many(Vec::new())
    }
}

impl Members {
    fn as_slice(&self) -> &[Consulted] {
        match self {
            Members::One(one) => std::slice::from_ref(one),
            Members::Many(many) => many,
        }
    }
}

/// The members of a reference-set receiver; none for any other value.
fn refs_of(receiver: &AbsValue) -> &[Ref] {
    match receiver {
        AbsValue::Refs(s) => s.as_slice(),
        _ => &[],
    }
}

impl Evidence {
    /// Reads the evidence for the barrier site `insn` off its pre-state:
    /// the abstract receiver set, which receivers are in NL, and the
    /// facts the judgment consulted — σ entries for a `putfield`, NR/Len
    /// entries plus the abstract index for an `aastore`.
    pub(crate) fn gather(pre: &AbsState, ctx: &MethodCtx<'_>, insn: &Insn) -> Evidence {
        let (receiver, index) = match insn {
            Insn::PutField(_) => (operand(pre, 1), None),
            Insn::AaStore => (operand(pre, 2), Some(operand(pre, 1).clone())),
            _ => return Evidence::default(),
        };
        let refs = refs_of(receiver);
        let consult = |r: Ref| match insn {
            Insn::PutField(f) => Consulted::Sigma(pre.sigma_lookup(ctx, r, FieldKey::Field(*f))),
            _ => Consulted::Array(pre.nr_lookup(r), pre.len_lookup(r)),
        };
        Evidence {
            receiver: Some(receiver.clone()),
            nl: refs
                .iter()
                .filter(|r| pre.nl.contains(r))
                .copied()
                .collect(),
            members: match refs {
                &[one] => Members::One(consult(one)),
                _ => Members::Many(refs.iter().map(|&r| consult(r)).collect()),
            },
            index,
        }
    }
}

/// The record for the barrier site `insn` at `addr` of `ctx`'s method,
/// named `method`: `judged` is the evidence its pre-state showed and
/// the judgment the transfer function returned there (`None` = its
/// block has no entry state), `degraded` the method's degrade reason,
/// if it degraded. The keep-code is the judgment's own; only the two
/// details that name a fact are completed from the evidence.
pub(crate) fn site_record(
    ctx: &MethodCtx<'_>,
    method: &Arc<str>,
    addr: InsnAddr,
    insn: &Insn,
    judged: Option<(Evidence, Judgment)>,
    degraded: Option<&str>,
) -> SiteRecord {
    let (kind, target) = match insn {
        Insn::PutField(f) => ("putfield", ctx.program.field(*f).name.clone().into()),
        Insn::AaStore => ("aastore", "[]".into()),
        _ => ("", "".into()),
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
    SiteRecord {
        method_id: ctx.method.id,
        method: Arc::clone(method),
        block: addr.block.index(),
        index: addr.index,
        kind,
        target,
        verdict,
        keep_code,
        degraded: degraded.unwrap_or_default().to_string(),
        null_or_same: false,
        evidence: evidence.unwrap_or_default(),
        detail_override: None,
    }
}

/// The operand `depth` slots below the top of the stack. The transfer
/// function that pops it runs after the evidence is read, so this is
/// where a malformed method's underflow surfaces during a replay.
fn operand(pre: &AbsState, depth: usize) -> &AbsValue {
    let mut operands = pre.stack.iter().rev();
    operands.nth(depth).expect("verified IR never underflows")
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
        assert!(
            !kept[0].nl().is_empty(),
            "escaped receiver listed: {kept:?}"
        );
        assert!(
            kept[0].facts().any(|f| f.to_string().starts_with("σ(")),
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
        assert!(elided[0].keep_detail().to_string().is_empty());
        assert!(
            elided[0].receiver().to_string().starts_with('{'),
            "{elided:?}"
        );
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
        assert!(ledger.records[0]
            .facts()
            .any(|f| f.to_string().starts_with("NR(")));
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
