//! Model tests of [`AbsState`]'s representation against the one it
//! replaced: σ, `Len` and `NR` as plain maps owned by each state, and a
//! `retire_site` that rebuilt σ from scratch on every allocation.
//!
//! * The rebuild is kept here, verbatim but for going through the
//!   state's public accessors, as the model the in-place rename must
//!   agree with on every component — and leave canonical.
//! * A copy of a state shares its σ rows and maps with the original
//!   until one of them writes; whatever is then done to the copy, the
//!   original reads exactly as it did, and the copy exactly as a deep
//!   copy would.
//! * After every operation σ is in its canonical row form: entries
//!   strictly ascending by `(Ref, FieldKey)`, none equal to its
//!   default, and one row per receiver that has an entry — no empty
//!   row.
//! * `merge_from`, which walks σ row by row and skips shared rows,
//!   agrees with the merge over one flat map it replaced: every key of
//!   either side in `(Ref, FieldKey)` order, through one `MergeCtx`.

use std::collections::BTreeMap;

use proptest::prelude::*;

use wbe_analysis::intval::{merge_intvals, IntVal, MergeCtx, VarAlloc};
use wbe_analysis::{
    AbsState, AbsValue, AnalysisConfig, FieldKey, IntLat, IntRange, MethodCtx, Ref, RefSet,
};
use wbe_ir::builder::ProgramBuilder;
use wbe_ir::{FieldId, MethodId, Program, SiteId, Ty};

const SITES: u32 = 3;

/// A class with two reference fields and an integer one, and a method
/// with `SITES` allocation sites for the states to talk about.
fn program() -> Program {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C");
    pb.field(c, "f", Ty::Ref(c));
    pb.field(c, "g", Ty::Ref(c));
    pb.field(c, "n", Ty::Int);
    pb.method("host", vec![Ty::Ref(c), Ty::RefArray(c)], None, 2, |mb| {
        mb.new_object(c).pop();
        mb.new_object(c).pop();
        mb.iconst(4).new_ref_array(c).pop();
        mb.return_();
    });
    pb.finish()
}

fn any_ref() -> impl Strategy<Value = Ref> {
    prop_oneof![
        Just(Ref::Global),
        (0u16..2).prop_map(Ref::Arg),
        (0..SITES).prop_map(|s| Ref::SiteA(SiteId(s))),
        (0..SITES).prop_map(|s| Ref::SiteB(SiteId(s))),
    ]
}

fn any_refset() -> impl Strategy<Value = RefSet> {
    proptest::collection::vec(any_ref(), 0..6).prop_map(|v| v.into_iter().collect())
}

fn any_value() -> impl Strategy<Value = AbsValue> {
    prop_oneof![
        Just(AbsValue::Bottom),
        Just(AbsValue::Any),
        any_refset().prop_map(AbsValue::Refs),
        any_refset().prop_map(AbsValue::Refs),
        (0i64..3).prop_map(AbsValue::int),
        Just(AbsValue::Int(IntLat::Top)),
    ]
}

fn any_key() -> impl Strategy<Value = FieldKey> {
    prop_oneof![
        (0u32..3).prop_map(|f| FieldKey::Field(FieldId(f))),
        Just(FieldKey::Elems),
    ]
}

fn any_len() -> impl Strategy<Value = IntLat> {
    prop_oneof![Just(IntLat::Top), (0i64..3).prop_map(IntLat::constant)]
}

fn any_range() -> impl Strategy<Value = IntRange> {
    prop_oneof![
        Just(IntRange::Empty),
        (0i64..3).prop_map(|lo| IntRange::From(IntVal::constant(lo))),
    ]
}

/// The pieces of a state, before they are written into one.
#[derive(Clone, Debug)]
struct Parts {
    locals: Vec<AbsValue>,
    stack: Vec<AbsValue>,
    nl: RefSet,
    sigma: Vec<(Ref, FieldKey, AbsValue)>,
    len: Vec<(Ref, IntLat)>,
    nr: Vec<(Ref, IntRange)>,
}

fn any_parts() -> impl Strategy<Value = Parts> {
    (
        proptest::collection::vec(any_value(), 4..5),
        proptest::collection::vec(any_value(), 2..3),
        any_refset(),
        proptest::collection::vec((any_ref(), any_key(), any_value()), 0..14),
        proptest::collection::vec((any_ref(), any_len()), 0..6),
        proptest::collection::vec((any_ref(), any_range()), 0..6),
    )
        .prop_map(|(locals, stack, nl, sigma, len, nr)| Parts {
            locals,
            stack,
            nl,
            sigma,
            len,
            nr,
        })
}

/// Writes `parts` into a fresh state through the setters, the only way
/// in.
fn build(ctx: &MethodCtx<'_>, parts: &Parts) -> AbsState {
    let mut st = AbsState::default();
    st.locals.clone_from(&parts.locals);
    st.stack.clone_from(&parts.stack);
    st.nl = parts.nl.clone();
    for (r, key, v) in &parts.sigma {
        st.sigma_set(ctx, *r, *key, v.clone());
    }
    for (r, l) in &parts.len {
        st.len_set(*r, l.clone());
    }
    for (r, range) in &parts.nr {
        st.nr_set(*r, range.clone());
    }
    st
}

/// A copy of `st` that shares no map with it.
fn deep(ctx: &MethodCtx<'_>, st: &AbsState) -> AbsState {
    build(
        ctx,
        &Parts {
            locals: st.locals.clone(),
            stack: st.stack.clone(),
            nl: st.nl.clone(),
            sigma: st.sigma().map(|(r, key, v)| (r, key, v.clone())).collect(),
            len: st.len().iter().map(|(&r, l)| (r, l.clone())).collect(),
            nr: st.nr().iter().map(|(&r, n)| (r, n.clone())).collect(),
        },
    )
}

/// `retire_site` as it was while σ was rebuilt on every allocation.
fn model_retire(st: &AbsState, ctx: &MethodCtx<'_>, site: SiteId) -> AbsState {
    let a = Ref::SiteA(site);
    let b = Ref::SiteB(site);
    let subst = |slots: &[AbsValue]| slots.iter().map(|v| v.subst_ref(a, b)).collect();
    // replS on NL.
    let mut nl = st.nl.clone();
    if nl.remove(&a) {
        nl.insert(b);
    }
    // transfer on σ: move/merge A's entries into B's, substituting in
    // values everywhere.
    let mut merged_entries: BTreeMap<(Ref, FieldKey), AbsValue> = BTreeMap::new();
    for (r, key, v) in st.sigma() {
        let r2 = if r == a { b } else { r };
        let v2 = v.subst_ref(a, b);
        match merged_entries.entry((r2, key)) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(v2);
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let m = e.get().merge_plain(&v2);
                e.insert(m);
            }
        }
    }
    // Every entry goes back in through `sigma_set`.
    let sigma = merged_entries.into_iter().map(|((r, key), v)| (r, key, v));
    let mut out = build(
        ctx,
        &Parts {
            locals: subst(&st.locals),
            stack: subst(&st.stack),
            nl,
            sigma: sigma.collect(),
            len: st.len().iter().map(|(&r, l)| (r, l.clone())).collect(),
            nr: st.nr().iter().map(|(&r, n)| (r, n.clone())).collect(),
        },
    );

    // Len / NR: A's info merges into B's conservative default (⊤ /
    // empty), i.e. it is dropped; B keeps whatever it had only if it
    // agrees.
    let len_a = out.len().get(&a).cloned();
    out.len_set(a, IntLat::Top);
    if let Some(la) = len_a {
        let lb = out.len_lookup(b);
        let merged = if IntLat::Val(la.as_val().cloned().unwrap_or_default()) == lb {
            lb
        } else {
            IntLat::Top
        };
        out.len_set(b, merged);
    }
    let nr_a = out.nr().get(&a).cloned();
    out.nr_set(a, IntRange::Empty);
    if let Some(ra) = nr_a {
        let rb = out.nr_lookup(b);
        let merged = if ra == rb { rb } else { IntRange::Empty };
        out.nr_set(b, merged);
    }
    out
}

/// `merge_from` as it was while σ was one map: every key of either side
/// in order, σ then `Len` then `NR` through one `MergeCtx`, each
/// differing entry merged (absence standing for the default) and the
/// changes written back through the setters.
fn model_merge(
    st: &AbsState,
    incoming: &AbsState,
    ctx: &MethodCtx<'_>,
    alloc: &mut VarAlloc,
    widen: bool,
) -> (AbsState, bool) {
    let mut mctx = MergeCtx::new(alloc, widen || !ctx.stride_inference);
    let mut out = deep(ctx, st);
    let mut changed = false;
    let slots = out.locals.iter_mut().chain(out.stack.iter_mut());
    for (mine, theirs) in slots.zip(incoming.locals.iter().chain(&incoming.stack)) {
        changed |= mine.merge_into(theirs, &mut mctx);
    }
    changed |= out.nl.union_with(&incoming.nl);
    let flat = |s: &AbsState| -> BTreeMap<(Ref, FieldKey), AbsValue> {
        s.sigma().map(|(r, key, v)| ((r, key), v.clone())).collect()
    };
    let (a, b) = (flat(st), flat(incoming));
    let keys: std::collections::BTreeSet<_> = a.keys().chain(b.keys()).copied().collect();
    for (r, key) in keys {
        let (x, y) = (a.get(&(r, key)), b.get(&(r, key)));
        if x.is_some() && x == y {
            continue;
        }
        let default = ctx.sigma_default(r, key);
        let mut merged = x.unwrap_or(&default).clone();
        if merged.merge_into(y.unwrap_or(&default), &mut mctx) {
            out.sigma_set(ctx, r, key, merged);
            changed = true;
        }
    }
    let keys: std::collections::BTreeSet<Ref> = st
        .len()
        .keys()
        .chain(incoming.len().keys())
        .copied()
        .collect();
    for r in keys {
        match (st.len().get(&r), incoming.len().get(&r)) {
            (Some(x), Some(y)) if x != y => {
                let merged = merge_intvals(x, y, &mut mctx);
                changed |= merged != *x;
                out.len_set(r, merged);
            }
            (Some(_), None) => {
                out.len_set(r, IntLat::Top);
                changed = true;
            }
            _ => {}
        }
    }
    let keys: std::collections::BTreeSet<Ref> = st
        .nr()
        .keys()
        .chain(incoming.nr().keys())
        .copied()
        .collect();
    for r in keys {
        match (st.nr().get(&r), incoming.nr().get(&r)) {
            (Some(x), Some(y)) if x != y => {
                let merged = x.merge(y, &mut mctx);
                changed |= merged != *x;
                out.nr_set(r, merged);
            }
            (Some(_), None) => {
                out.nr_set(r, IntRange::Empty);
                changed = true;
            }
            _ => {}
        }
    }
    (out, changed)
}

/// σ in canonical row form and `Len`/`NR` without a default entry.
fn canonical(st: &AbsState, ctx: &MethodCtx<'_>) -> Result<(), TestCaseError> {
    let sigma: Vec<(Ref, FieldKey, &AbsValue)> = st.sigma().collect();
    for pair in sigma.windows(2) {
        prop_assert!(
            (pair[0].0, pair[0].1) < (pair[1].0, pair[1].1),
            "{:?}",
            pair
        );
    }
    for &(r, key, v) in &sigma {
        prop_assert_ne!(v, &ctx.sigma_default(r, key));
    }
    let mut receivers: Vec<Ref> = sigma.iter().map(|e| e.0).collect();
    receivers.dedup();
    prop_assert_eq!(st.sigma_rows(), receivers.len(), "an empty row");
    prop_assert!(st.len().values().all(|l| *l != IntLat::Top));
    prop_assert!(st.nr().values().all(|r| *r != IntRange::Empty));
    Ok(())
}

/// Every component equal, rendered the same, and both canonical.
fn agrees(got: &AbsState, want: &AbsState, ctx: &MethodCtx<'_>) -> Result<(), TestCaseError> {
    prop_assert_eq!(&got.locals, &want.locals);
    prop_assert_eq!(&got.stack, &want.stack);
    prop_assert_eq!(&got.nl, &want.nl);
    prop_assert_eq!(
        got.sigma().collect::<Vec<_>>(),
        want.sigma().collect::<Vec<_>>()
    );
    prop_assert_eq!(got.len(), want.len());
    prop_assert_eq!(got.nr(), want.nr());
    prop_assert_eq!(got, want);
    prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
    canonical(got, ctx)?;
    canonical(want, ctx)
}

/// Something done to a state.
#[derive(Clone, Debug)]
enum Op {
    SigmaSet(Ref, FieldKey, AbsValue),
    LenSet(Ref, IntLat),
    NrSet(Ref, IntRange),
    Retire(u32),
    Escape(RefSet),
    /// Merge with another state (`widen` or not).
    Merge(Parts, bool),
    /// Merge with the original the state was copied from.
    MergeOriginal,
}

fn any_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any_ref(), any_key(), any_value()).prop_map(|(r, k, v)| Op::SigmaSet(r, k, v)),
        (any_ref(), any_len()).prop_map(|(r, l)| Op::LenSet(r, l)),
        (any_ref(), any_range()).prop_map(|(r, n)| Op::NrSet(r, n)),
        (0..SITES).prop_map(Op::Retire),
        (0..SITES).prop_map(Op::Retire),
        any_refset().prop_map(Op::Escape),
        (any_parts(), 0u8..2).prop_map(|(p, w)| Op::Merge(p, w == 1)),
        Just(Op::MergeOriginal),
    ]
}

/// Applies `op` to `st`; a merge reports whether it changed the state.
fn apply(
    st: &mut AbsState,
    op: &Op,
    original: &AbsState,
    ctx: &MethodCtx<'_>,
    alloc: &mut VarAlloc,
) -> Option<bool> {
    match op {
        Op::SigmaSet(r, key, v) => st.sigma_set(ctx, *r, *key, v.clone()),
        Op::LenSet(r, l) => st.len_set(*r, l.clone()),
        Op::NrSet(r, n) => st.nr_set(*r, n.clone()),
        Op::Retire(site) => st.retire_site(ctx, SiteId(*site)),
        Op::Escape(vals) => st.escape(ctx, vals),
        Op::Merge(parts, widen) => {
            return Some(st.merge_from(&build(ctx, parts), ctx, alloc, *widen));
        }
        Op::MergeOriginal => return Some(st.merge_from(original, ctx, alloc, false)),
    }
    None
}

proptest! {
    /// The in-place rename gives what the rebuild gave, at every site,
    /// whether or not the state names the site's `A`.
    #[test]
    fn retire_site_matches_the_rebuild(parts in any_parts(), site in 0..SITES) {
        let p = program();
        let ctx = MethodCtx::new(&p, p.method(MethodId(0)), &AnalysisConfig::full());
        let st = build(&ctx, &parts);
        let want = model_retire(&st, &ctx, SiteId(site));
        let mut got = st.clone();
        got.retire_site(&ctx, SiteId(site));
        agrees(&got, &want, &ctx)?;
        // Retiring twice is retiring once: nothing names `A` any more.
        let once = deep(&ctx, &got);
        got.retire_site(&ctx, SiteId(site));
        agrees(&got, &once, &ctx)?;
    }

    /// Merges, one after another into the same state through one
    /// variable allocator per side, give what the flat-map merge gave,
    /// verdicts included — whether the incoming state shares rows with
    /// the one it merges into (a copy with a few writes) or not.
    #[test]
    fn merge_matches_the_flat_map_merge(
        parts in any_parts(),
        incoming in proptest::collection::vec(
            (any_parts(), proptest::collection::vec((any_ref(), any_key(), any_value()), 0..3)),
            1..4,
        ),
        widen in 0u8..2,
    ) {
        let p = program();
        let ctx = MethodCtx::new(&p, p.method(MethodId(0)), &AnalysisConfig::full());
        let mut got = build(&ctx, &parts);
        let mut want = deep(&ctx, &got);
        let (mut alloc_got, mut alloc_want) = (VarAlloc::new(), VarAlloc::new());
        for (i, (other, writes)) in incoming.iter().enumerate() {
            // Odd rounds merge a written copy of the state itself, which
            // still shares every row the writes did not touch.
            let mut other = if i % 2 == 1 { got.clone() } else { build(&ctx, other) };
            for (r, key, v) in writes {
                other.sigma_set(&ctx, *r, *key, v.clone());
            }
            let changed = got.merge_from(&other, &ctx, &mut alloc_got, widen == 1);
            let (merged, expected) = model_merge(&want, &other, &ctx, &mut alloc_want, widen == 1);
            want = merged;
            prop_assert_eq!(changed, expected);
            agrees(&got, &want, &ctx)?;
        }
    }

    /// Writes to a copy never show through the original, and the copy
    /// behaves as a deep copy does, merge verdicts included.
    #[test]
    fn a_written_copy_leaves_the_original_alone(
        parts in any_parts(),
        ops in proptest::collection::vec(any_op(), 1..12),
    ) {
        let p = program();
        let ctx = MethodCtx::new(&p, p.method(MethodId(0)), &AnalysisConfig::full());
        let a = build(&ctx, &parts);
        let snapshot = deep(&ctx, &a);
        let rendered = format!("{a:?}");
        // The shared copy merges with the state it shares maps with,
        // the deep one with a state it shares nothing with.
        let mut b = a.clone();
        let mut c = deep(&ctx, &a);
        let (mut alloc_b, mut alloc_c) = (VarAlloc::new(), VarAlloc::new());
        for op in &ops {
            let changed_b = apply(&mut b, op, &a, &ctx, &mut alloc_b);
            let changed_c = apply(&mut c, op, &snapshot, &ctx, &mut alloc_c);
            prop_assert_eq!(changed_b, changed_c, "{:?}", op);
            agrees(&b, &c, &ctx)?;
            agrees(&a, &snapshot, &ctx)?;
            prop_assert_eq!(&format!("{a:?}"), &rendered);
        }
    }
}
