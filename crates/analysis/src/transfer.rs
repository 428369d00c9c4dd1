//! Transfer functions: the effects of operations on the abstract state
//! (§2.4 for the field analysis, §3.3 for the array extension), and the
//! barrier judgment they take at each reference store.
//!
//! The judgment is the paper's two conditions, checked once and in a
//! fixed order: the receiver is thread-local, then the overwritten slot
//! is null — the field (§2.4) or the index's null range (§3). A kept
//! barrier carries the [`KeepCode`] of the first condition that failed,
//! and every view of a site (ledger, dump, profile, oracle) reads that
//! code rather than deriving a reason of its own.

use wbe_ir::{Insn, SiteId, Terminator};

use crate::intval::IntLat;
use crate::range::IntRange;
use crate::refs::{singleton, Ref, RefSet};
use crate::state::{AbsState, AbsValue, FieldKey, MethodCtx};

/// The paper's two elision conditions on a store site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Condition {
    /// Every receiver (the array, for an `aastore`) is thread-local.
    ThreadLocal,
    /// The overwritten slot is null: the field (§2.4), or the index lies
    /// in the array's null range (§3).
    PreNull,
}

/// Why a barrier stays: the first failing condition at a judged site,
/// or — in the ledger only — why a site without a judgment that counts
/// keeps it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum KeepCode {
    /// Some receiver may be non-thread-local.
    ReceiverMayEscape,
    /// The single receiver's field may be non-null.
    FieldMayBeNonNull,
    /// The field may be non-null on one of several receivers.
    FieldMayBeNonNullMulti,
    /// The receiver is no reference set.
    ReceiverUnknown,
    /// The field-only configuration judges no `aastore`.
    ArrayAnalysisDisabled,
    /// Some array may be non-thread-local.
    ArrayMayEscape,
    /// The index is not provably in the single array's null range.
    IndexOutsideNullRange,
    /// Several arrays may be stored into.
    MultipleArrays,
    /// The array is no reference set.
    ArrayUnknown,
    /// Ledger only: the method degraded before reaching the site.
    NotReached,
    /// Ledger only: the site's block has no entry state.
    UnreachableBlock,
    /// Ledger only: the method degraded, but its partial state showed
    /// no failing condition.
    DegradedWouldElide,
}

impl KeepCode {
    /// Stable kebab-case name, as written to the ledger's NDJSON.
    pub fn as_str(self) -> &'static str {
        match self {
            KeepCode::ReceiverMayEscape => "receiver-may-escape",
            KeepCode::FieldMayBeNonNull => "field-may-be-non-null",
            KeepCode::FieldMayBeNonNullMulti => "field-may-be-non-null-multi",
            KeepCode::ReceiverUnknown => "receiver-unknown",
            KeepCode::ArrayAnalysisDisabled => "array-analysis-disabled",
            KeepCode::ArrayMayEscape => "array-may-escape",
            KeepCode::IndexOutsideNullRange => "index-outside-null-range",
            KeepCode::MultipleArrays => "multiple-arrays",
            KeepCode::ArrayUnknown => "array-unknown",
            KeepCode::NotReached => "not-reached",
            KeepCode::UnreachableBlock => "unreachable-block",
            KeepCode::DegradedWouldElide => "degraded-would-elide",
        }
    }

    /// The human-readable detail. For the two codes about a single
    /// receiver's fact ([`names_fact`](Self::names_fact)) this is a
    /// prefix the fact completes: σ of the receiver's field, or NR of
    /// the array.
    pub fn detail(self) -> &'static str {
        match self {
            KeepCode::ReceiverMayEscape => "receiver may be non-thread-local",
            KeepCode::FieldMayBeNonNull => "field may be non-null: σ = ",
            KeepCode::FieldMayBeNonNullMulti => "field may be non-null on some receiver",
            KeepCode::ReceiverUnknown => "receiver unknown",
            KeepCode::ArrayAnalysisDisabled => "array analysis disabled (field-only configuration)",
            KeepCode::ArrayMayEscape => "array may be non-thread-local",
            KeepCode::IndexOutsideNullRange => "index not provably in null range ",
            KeepCode::MultipleArrays => "multiple possible arrays",
            KeepCode::ArrayUnknown => "array unknown",
            KeepCode::NotReached => "site not reached before degradation",
            KeepCode::UnreachableBlock => "block unreachable (no entry state)",
            KeepCode::DegradedWouldElide => {
                "no failing condition in the partial (pre-convergence) state"
            }
        }
    }

    /// True for the two codes whose detail ends in the single
    /// receiver's fact.
    pub fn names_fact(self) -> bool {
        matches!(
            self,
            KeepCode::FieldMayBeNonNull | KeepCode::IndexOutsideNullRange
        )
    }

    /// Which of the paper's two conditions failed; `None` for the
    /// ledger-only codes, which judge nothing.
    pub fn condition(self) -> Option<Condition> {
        match self {
            KeepCode::ReceiverMayEscape
            | KeepCode::ReceiverUnknown
            | KeepCode::ArrayMayEscape
            | KeepCode::ArrayUnknown => Some(Condition::ThreadLocal),
            KeepCode::FieldMayBeNonNull
            | KeepCode::FieldMayBeNonNullMulti
            | KeepCode::ArrayAnalysisDisabled
            | KeepCode::IndexOutsideNullRange
            | KeepCode::MultipleArrays => Some(Condition::PreNull),
            KeepCode::NotReached | KeepCode::UnreachableBlock | KeepCode::DegradedWouldElide => {
                None
            }
        }
    }
}

/// The judgment at a barrier-relevant store (reference-field `putfield`
/// or `aastore`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Judgment {
    /// Both conditions hold: the store overwrites null and its SATB
    /// barrier may be omitted.
    Elide,
    /// The barrier stays, for the first condition that failed.
    Keep(KeepCode),
}

fn pop(st: &mut AbsState) -> AbsValue {
    st.stack.pop().expect("verified IR never underflows")
}

fn push(st: &mut AbsState, v: AbsValue) {
    st.stack.push(v);
}

/// Coerces a slot to a reference set. `Any`/`Bottom` become the universe
/// (which contains `Global ∈ NL`, so everything downstream is
/// conservative).
fn as_refs(v: &AbsValue, ctx: &MethodCtx<'_>) -> RefSet {
    match v {
        AbsValue::Refs(s) => s.clone(),
        AbsValue::Int(_) | AbsValue::Any | AbsValue::Bottom => ctx.universe().clone(),
    }
}

/// Coerces a slot to an integer lattice value.
fn as_int(v: &AbsValue) -> IntLat {
    match v {
        AbsValue::Int(i) => i.clone(),
        _ => IntLat::Top,
    }
}

/// Normalizes a value being stored into a field of the given
/// reference-ness, so σ stays well-typed.
fn normalize_store(v: &AbsValue, is_ref: bool, ctx: &MethodCtx<'_>) -> AbsValue {
    if is_ref {
        AbsValue::Refs(as_refs(v, ctx))
    } else {
        AbsValue::Int(as_int(v))
    }
}

/// The paper's `AllNonTLCond`: if any receiver is (possibly) non-thread-
/// local, the stored value and everything reachable from it escape.
fn escape_if_receiver_escaped(
    st: &mut AbsState,
    ctx: &MethodCtx<'_>,
    receivers: &RefSet,
    val: &AbsValue,
) {
    if receivers.iter().any(|r| st.nl.contains(r)) {
        let vals = as_refs(val, ctx);
        st.escape(ctx, &vals);
    }
}

fn retire_and_push_site(st: &mut AbsState, ctx: &MethodCtx<'_>, site: SiteId) -> Ref {
    if ctx.two_refs {
        st.retire_site(ctx, site);
        let a = Ref::SiteA(site);
        if ctx.pinned_nl.contains(&a) {
            st.nl.insert(a); // classic-escape ablation: stays escaped
        }
        push(st, AbsValue::single(a));
        a
    } else {
        // Ablation: one summary reference per site; allocation only
        // weakens what is known about it (no strong updates possible).
        let b = Ref::SiteB(site);
        push(st, AbsValue::single(b));
        b
    }
}

/// §2.4's judgment at a reference `putfield` of `key` into `obj`: every
/// receiver thread-local, then its field null. A receiver that is no
/// reference set stands for the universe, whose `Global` is always in
/// NL.
fn judge_field(st: &AbsState, ctx: &MethodCtx<'_>, obj: &AbsValue, key: FieldKey) -> Judgment {
    let AbsValue::Refs(objs) = obj else {
        return Judgment::Keep(KeepCode::ReceiverUnknown);
    };
    if objs.iter().any(|r| st.nl.contains(r)) {
        Judgment::Keep(KeepCode::ReceiverMayEscape)
    } else if objs
        .iter()
        .all(|&r| st.sigma_lookup(ctx, r, key) == AbsValue::null())
    {
        Judgment::Elide
    } else if singleton(objs).is_some() {
        Judgment::Keep(KeepCode::FieldMayBeNonNull)
    } else {
        Judgment::Keep(KeepCode::FieldMayBeNonNullMulti)
    }
}

/// §3's judgment at an `aastore` into `arr` at `idx`: the array analysis
/// is on, every array thread-local, then the index in its null range.
fn judge_array(st: &AbsState, ctx: &MethodCtx<'_>, arr: &AbsValue, idx: &IntLat) -> Judgment {
    if !ctx.track_arrays {
        return Judgment::Keep(KeepCode::ArrayAnalysisDisabled);
    }
    let AbsValue::Refs(arrs) = arr else {
        return Judgment::Keep(KeepCode::ArrayUnknown);
    };
    let idx = idx.as_val();
    if arrs.iter().any(|r| st.nl.contains(r)) {
        Judgment::Keep(KeepCode::ArrayMayEscape)
    } else if arrs
        .iter()
        .all(|&a| idx.is_some_and(|iv| st.nr_lookup(a).contains(iv)))
    {
        Judgment::Elide
    } else if singleton(arrs).is_some() {
        Judgment::Keep(KeepCode::IndexOutsideNullRange)
    } else {
        Judgment::Keep(KeepCode::MultipleArrays)
    }
}

/// Applies one instruction to the state. Returns the barrier judgment
/// for reference stores, `None` for every other instruction.
pub fn transfer_insn(st: &mut AbsState, ctx: &MethodCtx<'_>, insn: &Insn) -> Option<Judgment> {
    match *insn {
        Insn::Const(v) => {
            push(st, AbsValue::Int(IntLat::constant(v)));
            None
        }
        Insn::ConstNull => {
            push(st, AbsValue::null());
            None
        }
        Insn::Load(l) => {
            let v = st.locals[l.index()].clone();
            push(st, v);
            None
        }
        Insn::Store(l) => {
            let v = pop(st);
            st.locals[l.index()] = v;
            None
        }
        Insn::IInc(l, d) => {
            let v = as_int(&st.locals[l.index()]);
            let out = v.lift2(&IntLat::constant(d), |a, b| a.add(b));
            st.locals[l.index()] = AbsValue::Int(out);
            None
        }
        Insn::Dup => {
            let v = st.stack.last().expect("verified IR").clone();
            push(st, v);
            None
        }
        Insn::DupX1 => {
            let b = pop(st);
            let a = pop(st);
            push(st, b.clone());
            push(st, a);
            push(st, b);
            None
        }
        Insn::Pop => {
            pop(st);
            None
        }
        Insn::Swap => {
            let b = pop(st);
            let a = pop(st);
            push(st, b);
            push(st, a);
            None
        }
        Insn::Add | Insn::Sub | Insn::Mul => {
            let b = as_int(&pop(st));
            let a = as_int(&pop(st));
            let out = match insn {
                Insn::Add => a.lift2(&b, |x, y| x.add(y)),
                Insn::Sub => a.lift2(&b, |x, y| x.sub(y)),
                _ => a.lift2(&b, |x, y| {
                    // Symbolic multiplication only by a literal side.
                    if let Some(k) = y.as_literal() {
                        x.mul_literal(k)
                    } else if let Some(k) = x.as_literal() {
                        y.mul_literal(k)
                    } else {
                        None
                    }
                }),
            };
            push(st, AbsValue::Int(out));
            None
        }
        Insn::Div | Insn::Rem | Insn::And | Insn::Or | Insn::Xor | Insn::Shl | Insn::Shr => {
            pop(st);
            pop(st);
            push(st, AbsValue::Int(IntLat::Top));
            None
        }
        Insn::Neg => {
            let a = as_int(&pop(st));
            let out = a.lift2(&IntLat::constant(0), |x, _| x.neg());
            push(st, AbsValue::Int(out));
            None
        }
        Insn::GetField(f) => {
            let obj = pop(st);
            let objs = as_refs(&obj, ctx);
            let key = FieldKey::Field(f);
            let mut out = AbsValue::Bottom;
            for &ot in &objs {
                out = out.merge_plain(&st.sigma_lookup(ctx, ot, key));
            }
            if objs.is_empty() {
                // Receiver is definitely null: the load traps; any value
                // is sound for the (unreachable) continuation.
                out = if ctx.program.field(f).ty.is_ref_like() {
                    AbsValue::null()
                } else {
                    AbsValue::int(0)
                };
            }
            push(st, out);
            None
        }
        Insn::PutField(f) => {
            let val = pop(st);
            let obj = pop(st);
            let fd = ctx.program.field(f);
            let is_ref = fd.ty.is_ref_like();
            let objs = as_refs(&obj, ctx);
            let key = FieldKey::Field(f);

            let judgment = is_ref.then(|| judge_field(st, ctx, &obj, key));

            let stored = normalize_store(&val, is_ref, ctx);
            match singleton(&objs) {
                Some(r) if ctx.is_unique(r) && !st.nl.contains(&r) => {
                    // Strong update: the unique receiver's field is
                    // exactly the stored value now.
                    st.sigma_set(ctx, r, key, stored);
                }
                _ => {
                    for &ot in &objs {
                        if st.nl.contains(&ot) {
                            continue; // lookups ignore σ for escaped refs
                        }
                        let merged = st.sigma_raw(ctx, ot, key).merge_plain(&stored);
                        st.sigma_set(ctx, ot, key, merged);
                    }
                }
            }
            escape_if_receiver_escaped(st, ctx, &objs, &val);
            judgment
        }
        Insn::GetStatic(s) => {
            let ty = ctx.program.static_(s).ty;
            push(
                st,
                if ty.is_ref_like() {
                    AbsValue::single(Ref::Global)
                } else {
                    AbsValue::Int(IntLat::Top)
                },
            );
            None
        }
        Insn::PutStatic(_) => {
            let val = pop(st);
            // Reference values stored into statics escape, transitively.
            if !matches!(val, AbsValue::Int(_)) {
                let vals = as_refs(&val, ctx);
                st.escape(ctx, &vals);
            }
            None
        }
        Insn::AaLoad => {
            let _idx = pop(st);
            let arr = pop(st);
            let arrs = as_refs(&arr, ctx);
            let mut out = AbsValue::Bottom;
            for &at in &arrs {
                out = out.merge_plain(&st.sigma_lookup(ctx, at, FieldKey::Elems));
            }
            if arrs.is_empty() {
                out = AbsValue::null();
            }
            push(st, out);
            None
        }
        Insn::AaStore => {
            let val = pop(st);
            let idx = as_int(&pop(st));
            let arr = pop(st);
            let arrs = as_refs(&arr, ctx);
            let judgment = Some(judge_array(st, ctx, &arr, &idx));

            // Array element writes are always weak updates (§2.4).
            let stored = normalize_store(&val, true, ctx);
            for &at in &arrs {
                if !st.nl.contains(&at) {
                    let merged = st.sigma_raw(ctx, at, FieldKey::Elems).merge_plain(&stored);
                    st.sigma_set(ctx, at, FieldKey::Elems, merged);
                }
                if ctx.track_arrays {
                    let contracted = st.nr_lookup(at).contract(&idx);
                    st.nr_set(at, contracted);
                }
            }
            escape_if_receiver_escaped(st, ctx, &arrs, &val);
            judgment
        }
        Insn::IaLoad => {
            pop(st);
            pop(st);
            push(st, AbsValue::Int(IntLat::Top));
            None
        }
        Insn::IaStore => {
            pop(st);
            pop(st);
            pop(st);
            None
        }
        Insn::ArrayLength => {
            let arr = pop(st);
            let arrs = as_refs(&arr, ctx);
            let mut out: Option<IntLat> = None;
            for &at in &arrs {
                let l = st.len_lookup(at);
                out = Some(match out {
                    None => l,
                    Some(prev) if prev == l => prev,
                    Some(_) => IntLat::Top,
                });
            }
            push(st, AbsValue::Int(out.unwrap_or(IntLat::Top)));
            None
        }
        Insn::New { site, .. } => {
            retire_and_push_site(st, ctx, site);
            // σ defaults already say "all fields null/zero" for site refs.
            None
        }
        Insn::NewRefArray { site, .. } => {
            let len = as_int(&pop(st));
            let r = retire_and_push_site(st, ctx, site);
            if ctx.track_arrays {
                st.len_set(r, len.clone());
                if ctx.two_refs {
                    st.nr_set(r, IntRange::fresh_array(&len));
                }
                // (Summary refs get no NR: several distinct arrays share
                // the name, so "all indices null" would be unsound once
                // one of them is written.)
            }
            None
        }
        Insn::NewIntArray { site } => {
            let len = as_int(&pop(st));
            let r = retire_and_push_site(st, ctx, site);
            if ctx.track_arrays {
                st.len_set(r, len);
            }
            None
        }
        Insn::Invoke(callee) => {
            let sig = &ctx.program.method(callee).sig;
            let mut escaping = RefSet::new();
            for _ in 0..sig.params.len() {
                let v = pop(st);
                if !matches!(v, AbsValue::Int(_)) {
                    escaping.union_with(&as_refs(&v, ctx));
                }
            }
            // nAllNonTL: every reference argument escapes (no
            // interprocedural analysis; constructors are expected to be
            // inlined before analysis, §2.4).
            st.escape(ctx, &escaping);
            match sig.ret {
                Some(t) if t.is_ref_like() => push(st, AbsValue::single(Ref::Global)),
                Some(_) => push(st, AbsValue::Int(IntLat::Top)),
                None => {}
            }
            None
        }
    }
}

/// Applies a terminator's stack effect (conditions consume operands; no
/// path-sensitivity is attempted, matching the paper).
pub fn transfer_term(st: &mut AbsState, term: &Terminator) {
    for _ in 0..term.pops() {
        pop(st);
    }
}

/// True if `insn` is a barrier-relevant store in `program` (reference
/// `putfield` or `aastore`).
pub fn is_barrier_site(program: &wbe_ir::Program, insn: &Insn) -> bool {
    match insn {
        Insn::PutField(f) => program.field(*f).ty.is_ref_like(),
        Insn::AaStore => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;
    use crate::intval::IntVal;
    use wbe_ir::builder::ProgramBuilder;
    use wbe_ir::{FieldId, MethodId, Program, Ty};

    fn setup() -> Program {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        pb.field(c, "f", Ty::Ref(c)); // f0
        pb.field(c, "n", Ty::Int); // f1
        pb.static_field("root", Ty::Ref(c));
        let callee = pb.method("callee", vec![Ty::Ref(c)], Some(Ty::Ref(c)), 0, |mb| {
            let a = mb.local(0);
            mb.load(a).return_value();
        });
        let _ = callee;
        // A host method with several locals and sites to play in.
        pb.method("host", vec![Ty::Ref(c), Ty::Int], None, 4, |mb| {
            let s = mb.new_block();
            mb.goto_(s);
            mb.switch_to(s)
                .new_object(c)
                .pop()
                .new_object(c)
                .pop()
                .return_();
        });
        pb.finish()
    }

    fn ctx_of(p: &Program) -> MethodCtx<'_> {
        MethodCtx::new(p, p.method(MethodId(1)), &AnalysisConfig::default())
    }

    fn f0() -> FieldKey {
        FieldKey::Field(FieldId(0))
    }

    #[test]
    fn new_object_pushes_unique_site_with_null_fields() {
        let p = setup();
        let ctx = ctx_of(&p);
        let mut st = AbsState::entry(&ctx);
        let site = ctx.sites[0];
        transfer_insn(
            &mut st,
            &ctx,
            &Insn::New {
                class: wbe_ir::ClassId(0),
                site,
            },
        );
        let AbsValue::Refs(s) = &st.stack[0] else {
            panic!()
        };
        let r = singleton(s).unwrap();
        assert_eq!(r, Ref::SiteA(site));
        assert_eq!(st.sigma_lookup(&ctx, r, f0()), AbsValue::null());
        assert!(!st.nl.contains(&r));
    }

    #[test]
    fn initializing_putfield_is_elidable_then_not() {
        let p = setup();
        let ctx = ctx_of(&p);
        let mut st = AbsState::entry(&ctx);
        let site = ctx.sites[0];
        let class = wbe_ir::ClassId(0);
        transfer_insn(&mut st, &ctx, &Insn::New { class, site });
        // obj.f = null-valued local1? push obj, push a value (arg0).
        let obj = st.stack[0].clone();
        push(&mut st, obj.clone());
        push(&mut st, AbsValue::single(Ref::Arg(0)));
        let j = transfer_insn(&mut st, &ctx, &Insn::PutField(FieldId(0)));
        assert_eq!(j, Some(Judgment::Elide), "first store overwrites null");
        // Second store to the same field: not pre-null anymore.
        push(&mut st, obj.clone());
        push(&mut st, AbsValue::null());
        let j = transfer_insn(&mut st, &ctx, &Insn::PutField(FieldId(0)));
        assert_eq!(j, Some(Judgment::Keep(KeepCode::FieldMayBeNonNull)));
        // But thanks to strong update, the field is now known-null again.
        push(&mut st, obj);
        push(&mut st, AbsValue::null());
        let j = transfer_insn(&mut st, &ctx, &Insn::PutField(FieldId(0)));
        assert_eq!(
            j,
            Some(Judgment::Elide),
            "strong update re-established null"
        );
    }

    #[test]
    fn int_putfield_is_not_a_barrier_site() {
        let p = setup();
        let ctx = ctx_of(&p);
        let mut st = AbsState::entry(&ctx);
        let site = ctx.sites[0];
        transfer_insn(
            &mut st,
            &ctx,
            &Insn::New {
                class: wbe_ir::ClassId(0),
                site,
            },
        );
        push(&mut st, AbsValue::int(3));
        let j = transfer_insn(&mut st, &ctx, &Insn::PutField(FieldId(1)));
        assert_eq!(j, None);
        assert!(!is_barrier_site(&p, &Insn::PutField(FieldId(1))));
        assert!(is_barrier_site(&p, &Insn::PutField(FieldId(0))));
        assert!(is_barrier_site(&p, &Insn::AaStore));
    }

    #[test]
    fn putfield_to_escaped_receiver_is_never_elidable() {
        let p = setup();
        let ctx = ctx_of(&p);
        let mut st = AbsState::entry(&ctx);
        // arg0 is non-thread-local on entry.
        push(&mut st, AbsValue::single(Ref::Arg(0)));
        push(&mut st, AbsValue::null());
        let j = transfer_insn(&mut st, &ctx, &Insn::PutField(FieldId(0)));
        assert_eq!(j, Some(Judgment::Keep(KeepCode::ReceiverMayEscape)));
    }

    #[test]
    fn putstatic_escapes_value_transitively() {
        let p = setup();
        let ctx = ctx_of(&p);
        let mut st = AbsState::entry(&ctx);
        let s0 = ctx.sites[0];
        let s1 = ctx.sites[1];
        let class = wbe_ir::ClassId(0);
        // x = new C (site0); y = new C (site1); x.f = y; static = x.
        transfer_insn(&mut st, &ctx, &Insn::New { class, site: s0 });
        let x = st.stack[0].clone();
        st.locals[2] = x.clone();
        pop(&mut st);
        transfer_insn(&mut st, &ctx, &Insn::New { class, site: s1 });
        let y = st.stack[0].clone();
        st.locals[3] = y.clone();
        pop(&mut st);
        push(&mut st, x.clone());
        push(&mut st, y);
        transfer_insn(&mut st, &ctx, &Insn::PutField(FieldId(0)));
        assert!(!st.nl.contains(&Ref::SiteA(s0)));
        push(&mut st, x);
        transfer_insn(&mut st, &ctx, &Insn::PutStatic(wbe_ir::StaticId(0)));
        assert!(st.nl.contains(&Ref::SiteA(s0)), "x escaped");
        assert!(
            st.nl.contains(&Ref::SiteA(s1)),
            "y reachable from x escaped"
        );
        // Stores into x after escape are not elidable (W-after-escape).
        let xv = st.locals[2].clone();
        push(&mut st, xv);
        push(&mut st, AbsValue::null());
        let j = transfer_insn(&mut st, &ctx, &Insn::PutField(FieldId(0)));
        assert_eq!(j, Some(Judgment::Keep(KeepCode::ReceiverMayEscape)));
    }

    #[test]
    fn store_before_escape_is_elidable() {
        // The property that distinguishes this analysis from classic
        // escape analysis: a store *before* the object escapes can be
        // elided even if the object escapes later.
        let p = setup();
        let ctx = ctx_of(&p);
        let mut st = AbsState::entry(&ctx);
        let s0 = ctx.sites[0];
        let class = wbe_ir::ClassId(0);
        transfer_insn(&mut st, &ctx, &Insn::New { class, site: s0 });
        let x = st.stack[0].clone();
        pop(&mut st);
        // x.f = arg0 — before escape: elidable.
        push(&mut st, x.clone());
        push(&mut st, AbsValue::single(Ref::Arg(0)));
        let j = transfer_insn(&mut st, &ctx, &Insn::PutField(FieldId(0)));
        assert_eq!(j, Some(Judgment::Elide));
        // now publish x.
        push(&mut st, x);
        transfer_insn(&mut st, &ctx, &Insn::PutStatic(wbe_ir::StaticId(0)));
        assert!(st.nl.contains(&Ref::SiteA(s0)));
    }

    #[test]
    fn invoke_escapes_reference_arguments() {
        let p = setup();
        let ctx = ctx_of(&p);
        let mut st = AbsState::entry(&ctx);
        let s0 = ctx.sites[0];
        let class = wbe_ir::ClassId(0);
        transfer_insn(&mut st, &ctx, &Insn::New { class, site: s0 });
        transfer_insn(&mut st, &ctx, &Insn::Invoke(MethodId(0)));
        assert!(st.nl.contains(&Ref::SiteA(s0)));
        // Return value of a reference-returning callee is Global.
        assert_eq!(st.stack[0], AbsValue::single(Ref::Global));
    }

    #[test]
    fn aastore_elidable_within_fresh_array_range() {
        let p = setup();
        let ctx = ctx_of(&p);
        let mut st = AbsState::entry(&ctx);
        let s0 = ctx.sites[0];
        let class = wbe_ir::ClassId(0);
        // arr = new C[10]
        push(&mut st, AbsValue::int(10));
        transfer_insn(&mut st, &ctx, &Insn::NewRefArray { class, site: s0 });
        let arr = st.stack[0].clone();
        pop(&mut st);
        // arr[0] = arg0 → elidable, contracts to [1..].
        push(&mut st, arr.clone());
        push(&mut st, AbsValue::int(0));
        push(&mut st, AbsValue::single(Ref::Arg(0)));
        let j = transfer_insn(&mut st, &ctx, &Insn::AaStore);
        assert_eq!(j, Some(Judgment::Elide));
        // arr[0] again → 0 not in [1..]: not elidable; range collapses
        // only info about 0 (store below the range leaves [1..]).
        push(&mut st, arr.clone());
        push(&mut st, AbsValue::int(0));
        push(&mut st, AbsValue::null());
        let j = transfer_insn(&mut st, &ctx, &Insn::AaStore);
        assert_eq!(j, Some(Judgment::Keep(KeepCode::IndexOutsideNullRange)));
        // arr[1] still elidable.
        push(&mut st, arr.clone());
        push(&mut st, AbsValue::int(1));
        push(&mut st, AbsValue::null());
        let j = transfer_insn(&mut st, &ctx, &Insn::AaStore);
        assert_eq!(j, Some(Judgment::Elide));
        // arr[5] out of order: not provably the boundary → not elidable
        // afterwards nothing is known.
        push(&mut st, arr.clone());
        push(&mut st, AbsValue::int(7));
        push(&mut st, AbsValue::null());
        let _ = transfer_insn(&mut st, &ctx, &Insn::AaStore);
        push(&mut st, arr);
        push(&mut st, AbsValue::int(3));
        push(&mut st, AbsValue::null());
        let j = transfer_insn(&mut st, &ctx, &Insn::AaStore);
        assert_eq!(j, Some(Judgment::Keep(KeepCode::IndexOutsideNullRange)));
    }

    #[test]
    fn aastore_without_array_analysis_is_never_elidable() {
        let p = setup();
        let cfg = AnalysisConfig::field_only();
        let ctx = MethodCtx::new(&p, p.method(MethodId(1)), &cfg);
        let mut st = AbsState::entry(&ctx);
        let s0 = ctx.sites[0];
        let class = wbe_ir::ClassId(0);
        push(&mut st, AbsValue::int(10));
        transfer_insn(&mut st, &ctx, &Insn::NewRefArray { class, site: s0 });
        let arr = st.stack[0].clone();
        pop(&mut st);
        push(&mut st, arr);
        push(&mut st, AbsValue::int(0));
        push(&mut st, AbsValue::null());
        let j = transfer_insn(&mut st, &ctx, &Insn::AaStore);
        assert_eq!(j, Some(Judgment::Keep(KeepCode::ArrayAnalysisDisabled)));
    }

    #[test]
    fn arraylength_returns_symbolic_length() {
        let p = setup();
        let ctx = ctx_of(&p);
        let mut st = AbsState::entry(&ctx);
        let s0 = ctx.sites[0];
        let class = wbe_ir::ClassId(0);
        push(
            &mut st,
            AbsValue::Int(IntLat::Val(IntVal::unknown(ctx.arg_value_unknown(1)))),
        );
        transfer_insn(&mut st, &ctx, &Insn::NewRefArray { class, site: s0 });
        transfer_insn(&mut st, &ctx, &Insn::ArrayLength);
        let AbsValue::Int(IntLat::Val(l)) = &st.stack[0] else {
            panic!("length lost: {:?}", st.stack[0]);
        };
        assert_eq!(*l, IntVal::unknown(ctx.arg_value_unknown(1)));
    }

    #[test]
    fn symbolic_arithmetic_through_stack() {
        let p = setup();
        let ctx = ctx_of(&p);
        let mut st = AbsState::entry(&ctx);
        // arg1 (int) * 2 + 1
        let a1 = st.locals[1].clone();
        push(&mut st, a1);
        push(&mut st, AbsValue::int(2));
        transfer_insn(&mut st, &ctx, &Insn::Mul);
        push(&mut st, AbsValue::int(1));
        transfer_insn(&mut st, &ctx, &Insn::Add);
        let AbsValue::Int(IntLat::Val(v)) = &st.stack[0] else {
            panic!()
        };
        assert_eq!(v.literal_part(), 1);
        // Division destroys the symbolic value.
        push(&mut st, AbsValue::int(2));
        transfer_insn(&mut st, &ctx, &Insn::Div);
        assert_eq!(st.stack[0], AbsValue::Int(IntLat::Top));
    }

    #[test]
    fn getfield_on_fresh_object_reads_null() {
        let p = setup();
        let ctx = ctx_of(&p);
        let mut st = AbsState::entry(&ctx);
        let s0 = ctx.sites[0];
        transfer_insn(
            &mut st,
            &ctx,
            &Insn::New {
                class: wbe_ir::ClassId(0),
                site: s0,
            },
        );
        transfer_insn(&mut st, &ctx, &Insn::GetField(FieldId(0)));
        assert_eq!(st.stack[0], AbsValue::null());
    }

    #[test]
    fn single_summary_ablation_prevents_strong_update() {
        let p = setup();
        let cfg = AnalysisConfig {
            two_refs_per_site: false,
            ..AnalysisConfig::default()
        };
        let ctx = MethodCtx::new(&p, p.method(MethodId(1)), &cfg);
        let mut st = AbsState::entry(&ctx);
        let s0 = ctx.sites[0];
        let class = wbe_ir::ClassId(0);
        transfer_insn(&mut st, &ctx, &Insn::New { class, site: s0 });
        let o = st.stack[0].clone();
        assert_eq!(o, AbsValue::single(Ref::SiteB(s0)));
        // First store: still elidable (summary starts null).
        push(&mut st, o.clone());
        push(&mut st, AbsValue::single(Ref::Arg(0)));
        assert_eq!(
            transfer_insn(&mut st, &ctx, &Insn::PutField(FieldId(0))),
            Some(Judgment::Elide)
        );
        // Overwrite with null: weak update keeps the old value in σ.
        push(&mut st, o.clone());
        push(&mut st, AbsValue::null());
        assert_eq!(
            transfer_insn(&mut st, &ctx, &Insn::PutField(FieldId(0))),
            Some(Judgment::Keep(KeepCode::FieldMayBeNonNull))
        );
        // Unlike the A/B scheme, null-ness is NOT re-established.
        push(&mut st, o);
        push(&mut st, AbsValue::null());
        assert_eq!(
            transfer_insn(&mut st, &ctx, &Insn::PutField(FieldId(0))),
            Some(Judgment::Keep(KeepCode::FieldMayBeNonNull))
        );
    }
}
