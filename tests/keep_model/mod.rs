//! The ledger's keep-codes as they were derived while the ledger read
//! each kept site's pre-state a second time, after the transfer
//! function had judged it: `keep_reason` below is that derivation,
//! unchanged, and `judged_elidable` is the judgment's boolean as the
//! transfer function returned it then. [`check`] holds a ledger's
//! verdict, code and detail to them on every record whose site has a
//! pre-state.

#![allow(dead_code)]

use std::collections::{BTreeMap, HashMap};

use wbe_repro::analysis::refs::singleton;
use wbe_repro::analysis::transfer::{is_barrier_site, transfer_insn};
use wbe_repro::analysis::{
    AbsState, AbsValue, AnalysisConfig, FieldKey, IntLat, MethodCtx, MethodSolution, SiteRecord,
    Verdict,
};
use wbe_repro::ir::{Insn, Program};

/// The first failing elision condition at a kept site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeepReason {
    /// Stable kebab-case condition name.
    pub code: &'static str,
    /// Human-readable explanation, including the offending fact.
    pub detail: String,
}

/// The operand `depth` slots below the top of the stack.
fn operand(pre: &AbsState, depth: usize) -> &AbsValue {
    let mut operands = pre.stack.iter().rev();
    operands.nth(depth).expect("verified IR never underflows")
}

/// Derives the first failing elision condition at a kept site from its
/// pre-state, in judgment order: escape first, then field nullness
/// (§2.4) / null-range membership (§3).
pub fn keep_reason(pre: &AbsState, ctx: &MethodCtx<'_>, insn: &Insn) -> KeepReason {
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

/// The reference set a slot stands for: `Any`/`Bottom`/integers are the
/// method's universe.
fn as_refs<'a>(v: &'a AbsValue, ctx: &'a MethodCtx<'_>) -> &'a wbe_repro::analysis::RefSet {
    match v {
        AbsValue::Refs(s) => s,
        _ => ctx.universe(),
    }
}

/// The judgment at the barrier site `insn`: every receiver thread-local
/// and its field null (§2.4), or the array thread-local and the index
/// in its null range (§3).
pub fn judged_elidable(pre: &AbsState, ctx: &MethodCtx<'_>, insn: &Insn) -> bool {
    match insn {
        Insn::PutField(f) => as_refs(operand(pre, 1), ctx).iter().all(|ot| {
            !pre.nl.contains(ot)
                && pre.sigma_lookup(ctx, *ot, FieldKey::Field(*f)) == AbsValue::null()
        }),
        Insn::AaStore if ctx.track_arrays => {
            let idx = match operand(pre, 1) {
                AbsValue::Int(i) => i.clone(),
                _ => IntLat::Top,
            };
            let idx_val = idx.as_val();
            as_refs(operand(pre, 2), ctx).iter().all(|at| {
                !pre.nl.contains(at) && idx_val.is_some_and(|iv| pre.nr_lookup(*at).contains(iv))
            })
        }
        _ => false,
    }
}

/// The keep-code and detail the ledger wrote for `rec` (empty for an
/// elided site).
fn recorded(rec: &SiteRecord) -> (&str, String) {
    let code = rec.keep_code.map_or("", |c| c.as_str());
    (code, rec.keep_detail().to_string())
}

/// Holds every record of `records` (a ledger of `program` under
/// `config`, in any order) whose site has a pre-state to the model:
/// the verdict to the judgment, the code and detail to `keep_reason`
/// (or to the degraded method's "would elide"). Returns how many
/// records carried each code; `Err` names the first disagreement.
pub fn check(
    program: &Program,
    config: &AnalysisConfig,
    records: &[SiteRecord],
) -> Result<BTreeMap<String, usize>, String> {
    let by_site: HashMap<(&str, usize, usize), &SiteRecord> = records
        .iter()
        .map(|r| ((&*r.method, r.block, r.index), r))
        .collect();
    let mut codes = BTreeMap::new();
    let mut sites = 0;
    for (_, method) in program.iter_methods() {
        let solution = MethodSolution::solve(program, method, config);
        let ctx = solution.ctx();
        let degraded = solution.outcome().is_degraded();
        for (bid, block) in method.iter_blocks() {
            sites += block
                .insns
                .iter()
                .filter(|i| is_barrier_site(program, i))
                .count();
            let Some(mut st) = solution.entry_states()[bid.index()].clone() else {
                continue;
            };
            for (index, insn) in block.insns.iter().enumerate() {
                if is_barrier_site(program, insn) {
                    let key = (method.name.as_str(), bid.index(), index);
                    let rec = by_site
                        .get(&key)
                        .ok_or_else(|| format!("no record for {key:?}"))?;
                    let elidable = judged_elidable(&st, ctx, insn);
                    let (verdict, code, detail) = match (degraded, elidable) {
                        (false, true) => (Verdict::Elide, "", String::new()),
                        (true, true) => (
                            Verdict::Degraded,
                            "degraded-would-elide",
                            "no failing condition in the partial (pre-convergence) state"
                                .to_string(),
                        ),
                        (_, false) => {
                            let reason = keep_reason(&st, ctx, insn);
                            let verdict = if degraded {
                                Verdict::Degraded
                            } else {
                                Verdict::Keep
                            };
                            (verdict, reason.code, reason.detail)
                        }
                    };
                    if rec.verdict != verdict || recorded(rec) != (code, detail.clone()) {
                        return Err(format!(
                            "{}: ledger says {:?} {:?}, the model {verdict:?} ({code:?}, {detail:?})",
                            rec.site_key(),
                            rec.verdict,
                            recorded(rec),
                        ));
                    }
                    if !code.is_empty() {
                        *codes.entry(code.to_string()).or_insert(0) += 1;
                    }
                }
                let _ = transfer_insn(&mut st, ctx, insn);
            }
        }
    }
    if sites != records.len() {
        return Err(format!(
            "{} records for {sites} barrier sites",
            records.len()
        ));
    }
    Ok(codes)
}
