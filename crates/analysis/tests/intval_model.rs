//! The crate's `IntVal`, whose constant-unknown terms sit inline, held
//! to the `BTreeMap`-backed one it replaced (`intval_map/`): the
//! arithmetic, substitution, Figure 1's merge and the rendered text
//! must be the same on every value. Random values carry zero to three
//! constant unknowns, so the inline form and its spill both run, and
//! coefficients near the ends of `i64`, so every overflow path does.

mod intval_map;

use std::collections::BTreeMap;

use proptest::prelude::*;

use intval_map as model;
use wbe_analysis::intval::{merge_intvals, IntLat, IntVal, MergeCtx, UnkId, VarAlloc, VarId};

/// The terms of a value, before they are summed into one.
#[derive(Clone, Debug)]
struct Parts {
    var: Option<(i64, u32)>,
    consts: Vec<(u32, i64)>,
    b: i64,
}

/// Mostly small, a few at the ends of `i64`.
fn coefficient() -> impl Strategy<Value = i64> {
    prop_oneof![
        -3i64..4,
        -3i64..4,
        -3i64..4,
        -3i64..4,
        Just(i64::MAX),
        Just(i64::MIN),
        Just(i64::MAX / 2 + 1),
    ]
}

fn any_parts() -> impl Strategy<Value = Parts> {
    let var = prop_oneof![Just(None), (coefficient(), 0u32..3).prop_map(Some)];
    let consts = proptest::collection::vec((0u32..5, coefficient()), 0..4);
    (var, consts, coefficient()).prop_map(|(var, consts, b)| {
        // One term per unknown, ascending (as the old map kept them).
        let consts: BTreeMap<u32, i64> = consts.into_iter().collect();
        Parts {
            var,
            consts: consts.into_iter().collect(),
            b,
        }
    })
}

/// Sums the parts with `IntVal`'s own operations. Every term names an
/// unknown of its own, so no sum overflows.
macro_rules! build {
    ($int:ty, $parts:expr) => {{
        let p: &Parts = $parts;
        let mut v = <$int>::constant(p.b);
        let mut add = |term: Option<$int>| {
            let term = term.expect("a unit times a coefficient");
            v = v.add(&term).expect("distinct terms do not overflow");
        };
        if let Some((a, var)) = p.var {
            add(<$int>::variable(VarId(var)).mul_literal(a));
        }
        for &(c, k) in &p.consts {
            add(<$int>::unknown(UnkId(c)).mul_literal(k));
        }
        v
    }};
}

/// A value on both sides.
#[derive(Clone, Debug)]
struct Pair {
    new: IntVal,
    old: model::IntVal,
}

fn any_pair() -> impl Strategy<Value = Pair> {
    any_parts().prop_map(|p| Pair {
        new: build!(IntVal, &p),
        old: build!(model::IntVal, &p),
    })
}

fn maybe<T: Clone + std::fmt::Debug + 'static>(
    s: impl Strategy<Value = T> + 'static,
) -> impl Strategy<Value = Option<T>> {
    prop_oneof![Just(None), s.prop_map(Some)]
}

/// The same value, read every way the crate reads one.
fn same(new: &IntVal, old: &model::IntVal) -> Result<(), TestCaseError> {
    prop_assert_eq!(format!("{new:?}"), format!("{old:?}"));
    prop_assert_eq!(new.to_string(), old.to_string());
    prop_assert_eq!(new.var_term(), old.var_term());
    prop_assert_eq!(new.as_literal(), old.as_literal());
    prop_assert_eq!(new.literal_part(), old.literal_part());
    Ok(())
}

fn same_opt(new: Option<IntVal>, old: Option<model::IntVal>) -> Result<(), TestCaseError> {
    prop_assert_eq!(new.is_some(), old.is_some());
    if let (Some(new), Some(old)) = (new, old) {
        same(&new, &old)?;
    }
    Ok(())
}

fn same_lat(new: &IntLat, old: &model::IntLat) -> Result<(), TestCaseError> {
    prop_assert_eq!(format!("{new:?}"), format!("{old:?}"));
    Ok(())
}

fn lat(p: Option<Pair>) -> (IntLat, model::IntLat) {
    match p {
        Some(p) => (IntLat::Val(p.new), model::IntLat::Val(p.old)),
        None => (IntLat::Top, model::IntLat::Top),
    }
}

/// What a merge's incoming value is, given the stored one.
#[derive(Clone, Debug)]
enum Incoming {
    /// Any value, or ⊤.
    Other(Option<Pair>),
    /// The stored value plus a literal stride: the case that names a
    /// stride variable, and reuses it when a later component moves by
    /// the same stride.
    Stride(i64),
    /// The stored value plus a literal and a multiple of a constant
    /// unknown, which `match` must divide by the variable's coefficient.
    Offset(i64, i64, u32),
}

fn any_incoming() -> impl Strategy<Value = Incoming> {
    prop_oneof![
        maybe(any_pair()).prop_map(Incoming::Other),
        (1i64..3).prop_map(Incoming::Stride),
        (-1i64..2, -2i64..3, 0u32..5).prop_map(|(d, k, c)| Incoming::Offset(d, k, c)),
    ]
}

proptest! {
    #[test]
    fn arithmetic_matches_the_map_backed_intval(
        x in any_pair(),
        y in any_pair(),
        k in coefficient(),
        v in 0u32..3,
    ) {
        same(&x.new, &x.old)?;
        same_opt(x.new.add(&y.new), x.old.add(&y.old))?;
        same_opt(x.new.sub(&y.new), x.old.sub(&y.old))?;
        same_opt(x.new.add_literal(k), x.old.add_literal(k))?;
        same_opt(x.new.mul_literal(k), x.old.mul_literal(k))?;
        same_opt(x.new.neg(), x.old.neg())?;
        same_opt(x.new.subst_var(VarId(v), &y.new), x.old.subst_var(VarId(v), &y.old))?;
        prop_assert_eq!(x.new == y.new, x.old == y.old);
        prop_assert_eq!(x.new.clone(), x.new);
    }

    /// Figure 1 over a run of merges in one context, so that strides
    /// found early are reused (`U`) and variables validated (`μ₁`, `μ₂`)
    /// later; `widen` never names a variable.
    #[test]
    fn merges_match_the_map_backed_intval(
        merges in proptest::collection::vec((maybe(any_pair()), any_incoming()), 1..12),
        widen in 0u8..2,
    ) {
        let widen = widen == 1;
        let (mut alloc_new, mut alloc_old) = (VarAlloc::new(), model::VarAlloc::new());
        let mut ctx_new = MergeCtx::new(&mut alloc_new, widen);
        let mut ctx_old = model::MergeCtx::new(&mut alloc_old, widen);
        for (a, incoming) in merges {
            let offset = |d: i64, k: i64, c: u32| {
                let a = a.as_ref()?;
                let new = IntVal::unknown(UnkId(c)).mul_literal(k)?;
                let old = model::IntVal::unknown(UnkId(c)).mul_literal(k)?;
                Some(Pair {
                    new: a.new.add_literal(d)?.add(&new)?,
                    old: a.old.add_literal(d)?.add(&old)?,
                })
            };
            let b = match incoming {
                Incoming::Other(b) => b,
                Incoming::Stride(d) => offset(d, 0, 0),
                Incoming::Offset(d, k, c) => offset(d, k, c),
            };
            let ((a_new, a_old), (b_new, b_old)) = (lat(a), lat(b));
            let merged_new = merge_intvals(&a_new, &b_new, &mut ctx_new);
            let merged_old = model::merge_intvals(&a_old, &b_old, &mut ctx_old);
            same_lat(&merged_new, &merged_old)?;
        }
    }
}
