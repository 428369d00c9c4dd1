//! Model test of [`Payload`] against `Vec<T>`, the type it replaced in
//! every [`wbe_heap::ObjKind`] variant: heap dumps, `world_digest` and
//! the golden files behind them depend on the two agreeing on length,
//! contents, equality and `Debug` rendering, whether the elements sit
//! in the slot or have spilled to a boxed slice.

use std::fmt::Debug;

use proptest::prelude::*;

use wbe_heap::object::{Payload, INLINE_FIELDS, INLINE_INTS, INLINE_REFS};
use wbe_heap::{GcRef, Value};

fn any_ref() -> impl Strategy<Value = Option<GcRef>> {
    prop_oneof![Just(None), (0u32..5).prop_map(|i| Some(GcRef(i)))]
}

fn any_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-3i64..4).prop_map(Value::Int),
        any_ref().prop_map(Value::Ref)
    ]
}

/// Lengths `0..=CAP + 2`: both sides of the spill, and the boundary.
fn items<S: Strategy>(element: S, cap: usize) -> impl Strategy<Value = Vec<S::Value>> {
    proptest::collection::vec(element, 0..cap + 3)
}

/// Everything observable about a payload agrees with the model.
fn agrees<T, const CAP: usize>(p: &Payload<T, CAP>, model: &[T]) -> Result<(), TestCaseError>
where
    T: Copy + Debug + PartialEq,
{
    prop_assert_eq!(p.len(), model.len());
    prop_assert_eq!(p.is_empty(), model.is_empty());
    prop_assert_eq!(&**p, model);
    for (i, v) in model.iter().enumerate() {
        prop_assert_eq!(p[i], *v);
        prop_assert_eq!(p.get(i), Some(v));
    }
    prop_assert_eq!(p.get(model.len()), None);
    prop_assert_eq!(format!("{p:?}"), format!("{model:?}"));
    prop_assert_eq!(format!("{p:#?}"), format!("{model:#?}"));
    Ok(())
}

/// The whole surface, for one element type and capacity: `a` and `b`
/// are contents, `fill` the value `filled` repeats, `writes` indexed
/// stores (index taken modulo the length).
fn check<T, const CAP: usize>(
    a: Vec<T>,
    b: Vec<T>,
    fill: T,
    writes: Vec<(usize, T)>,
) -> Result<(), TestCaseError>
where
    T: Copy + Default + Debug + PartialEq,
{
    let pa: Payload<T, CAP> = a.iter().copied().collect();
    let pb: Payload<T, CAP> = b.iter().copied().collect();
    agrees(&pa, &a)?;
    agrees(&pb, &b)?;
    // An iterator that cannot say how long it is spills element by
    // element instead of in one copy; same payload either way.
    let unsized_hint: Payload<T, CAP> = a.iter().copied().filter(|_| true).collect();
    agrees(&unsized_hint, &a)?;
    prop_assert_eq!(&unsized_hint, &pa);

    // Equality is the contents', across the inline/boxed boundary too:
    // `a` and `b` land on either side of it independently, and a
    // capacity-1 payload holds the same elements boxed.
    prop_assert_eq!(pa == pb, a == b);
    let boxed: Payload<T, 1> = a.iter().copied().collect();
    prop_assert_eq!(&*boxed, &*pa);
    prop_assert_eq!(format!("{boxed:?}"), format!("{pa:?}"));

    let filled = Payload::<T, CAP>::filled(fill, a.len()).expect("a short length reserves");
    agrees(&filled, &vec![fill; a.len()])?;
    prop_assert_eq!(filled == pa, a.iter().all(|v| *v == fill));

    // Writes through the slice view, and `Clone` taken before them
    // keeping the old contents.
    let before = pa.clone();
    let (mut written, mut model) = (pa, a.clone());
    for (i, v) in writes {
        if model.is_empty() {
            break;
        }
        let i = i % model.len();
        written[i] = v;
        model[i] = v;
        agrees(&written, &model)?;
    }
    agrees(&before, &a)?;
    prop_assert_eq!(written.clone(), written);
    Ok(())
}

fn writes<S: Strategy>(element: S) -> impl Strategy<Value = Vec<(usize, S::Value)>> {
    proptest::collection::vec((0usize..64, element), 0..6)
}

proptest! {
    #[test]
    fn fields_match_vec(
        a in items(any_value(), INLINE_FIELDS),
        b in items(any_value(), INLINE_FIELDS),
        fill in any_value(),
        w in writes(any_value()),
    ) {
        check::<Value, INLINE_FIELDS>(a, b, fill, w)?;
    }

    #[test]
    fn ref_elems_match_vec(
        a in items(any_ref(), INLINE_REFS),
        b in items(any_ref(), INLINE_REFS),
        fill in any_ref(),
        w in writes(any_ref()),
    ) {
        check::<Option<GcRef>, INLINE_REFS>(a, b, fill, w)?;
    }

    #[test]
    fn int_elems_match_vec(
        a in items(-3i64..4, INLINE_INTS),
        b in items(-3i64..4, INLINE_INTS),
        fill in -3i64..4,
        w in writes(-3i64..4),
    ) {
        check::<i64, INLINE_INTS>(a, b, fill, w)?;
    }
}

#[test]
fn spill_boundary_by_hand() {
    let at: Payload<i64, 3> = (1..=3).collect();
    let over: Payload<i64, 3> = (1..=4).collect();
    assert_eq!(format!("{at:?}"), "[1, 2, 3]");
    assert_eq!(format!("{over:?}"), "[1, 2, 3, 4]");
    assert_ne!(at, over);
    assert_eq!(&over[..3], &*at);
    assert_eq!(
        format!("{:?}", Payload::<i64, 3>::filled(7, 0).unwrap()),
        "[]"
    );
    // An unreservable length is an error, not a panic.
    assert!(Payload::<i64, 3>::filled(0, usize::MAX).is_err());
}
