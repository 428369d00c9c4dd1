//! Model test of [`RefSet`] against `BTreeSet<Ref>`, the type it
//! replaced: every dump, ledger line and digest depends on the two
//! agreeing on membership, iteration order and `Debug` rendering,
//! whether the set sits inline or has spilled to the heap.

use std::collections::BTreeSet;

use proptest::prelude::*;

use wbe_analysis::refs::{singleton, subst, Ref, RefSet};
use wbe_ir::SiteId;

/// A 15-element universe, so sets of up to 12 insertions cross the
/// inline capacity (4) in most cases and collide often.
fn any_ref() -> impl Strategy<Value = Ref> {
    prop_oneof![
        Just(Ref::Global),
        (0u16..4).prop_map(Ref::Arg),
        (0u32..5).prop_map(|s| Ref::SiteA(SiteId(s))),
        (0u32..5).prop_map(|s| Ref::SiteB(SiteId(s))),
    ]
}

fn refs() -> impl Strategy<Value = Vec<Ref>> {
    proptest::collection::vec(any_ref(), 0..12)
}

fn universe() -> Vec<Ref> {
    let mut u = vec![Ref::Global];
    u.extend((0..4).map(Ref::Arg));
    u.extend((0..5).map(|s| Ref::SiteA(SiteId(s))));
    u.extend((0..5).map(|s| Ref::SiteB(SiteId(s))));
    u
}

/// Everything observable about a set agrees with the model.
fn agrees(set: &RefSet, model: &BTreeSet<Ref>) -> Result<(), TestCaseError> {
    prop_assert_eq!(set.len(), model.len());
    prop_assert_eq!(set.is_empty(), model.is_empty());
    let order: Vec<Ref> = set.iter().copied().collect();
    let model_order: Vec<Ref> = model.iter().copied().collect();
    prop_assert_eq!(&order, &model_order);
    prop_assert_eq!(set.as_slice(), &model_order[..]);
    for r in universe() {
        prop_assert_eq!(set.contains(&r), model.contains(&r));
    }
    prop_assert_eq!(format!("{set:?}"), format!("{model:?}"));
    prop_assert_eq!(format!("{set:#?}"), format!("{model:#?}"));
    let single = (model.len() == 1).then(|| model_order[0]);
    prop_assert_eq!(singleton(set), single);
    Ok(())
}

proptest! {
    /// Insertion, step by step, across the spill.
    #[test]
    fn insert_matches_btreeset(items in refs()) {
        let mut set = RefSet::new();
        let mut model = BTreeSet::new();
        agrees(&set, &model)?;
        for r in items {
            prop_assert_eq!(set.insert(r), model.insert(r));
            agrees(&set, &model)?;
        }
    }

    /// Removal (the `SiteA → SiteB` retirement uses it on NL).
    #[test]
    fn remove_matches_btreeset(items in refs(), victims in refs()) {
        let mut set: RefSet = items.iter().copied().collect();
        let mut model: BTreeSet<Ref> = items.into_iter().collect();
        for r in victims {
            prop_assert_eq!(set.remove(&r), model.remove(&r));
            agrees(&set, &model)?;
        }
    }

    /// `union`, `union_with` (and its "grew" result) and `extend`.
    #[test]
    fn union_matches_btreeset(a in refs(), b in refs()) {
        let (sa, sb): (RefSet, RefSet) = (a.iter().copied().collect(), b.iter().copied().collect());
        let (ma, mb): (BTreeSet<Ref>, BTreeSet<Ref>) = (a.into_iter().collect(), b.into_iter().collect());
        let model: BTreeSet<Ref> = ma.union(&mb).copied().collect();
        agrees(&sa.union(&sb), &model)?;
        let mut grown = sa.clone();
        prop_assert_eq!(grown.union_with(&sb), model.len() != ma.len());
        agrees(&grown, &model)?;
        let mut extended = sa.clone();
        extended.extend(sb.iter().copied());
        agrees(&extended, &model)?;
        agrees(&sa, &ma)?;
    }

    /// `subst`, including the case where `to` is already a member.
    #[test]
    fn subst_matches_btreeset(items in refs(), from in any_ref(), to in any_ref()) {
        let set: RefSet = items.iter().copied().collect();
        let model: BTreeSet<Ref> = items
            .into_iter()
            .map(|r| if r == from { to } else { r })
            .collect();
        agrees(&subst(&set, from, to), &model)?;
    }

    /// Equality looks at the elements, not at where they are stored: a
    /// set that spilled and shrank back equals one that never left its
    /// inline storage.
    #[test]
    fn equality_ignores_representation(keep in refs(), extra in refs()) {
        let direct: RefSet = keep.iter().copied().collect();
        let mut detour: RefSet = keep.iter().chain(&extra).copied().collect();
        for r in &extra {
            if !keep.contains(r) {
                detour.remove(r);
            }
        }
        prop_assert_eq!(&direct, &detour);
        prop_assert_eq!(format!("{direct:?}"), format!("{detour:?}"));
        let mut other = direct.clone();
        let grew = other.insert(Ref::SiteB(SiteId(9)));
        prop_assert!(grew);
        prop_assert_ne!(&direct, &other);
    }
}

#[test]
fn spill_boundary_by_hand() {
    let five: Vec<Ref> = (0..5).map(|s| Ref::SiteA(SiteId(s))).collect();
    // Reverse insertion exercises the shift in both representations.
    let mut set = RefSet::new();
    for &r in five.iter().rev() {
        assert!(set.insert(r));
    }
    assert_eq!(set.as_slice(), &five[..]);
    assert!(!set.insert(five[2]), "duplicates are not added");
    assert_eq!(
        format!("{set:?}"),
        "{site0/A, site1/A, site2/A, site3/A, site4/A}"
    );
    assert_eq!(format!("{:?}", RefSet::new()), "{}");
    assert_eq!(RefSet::new(), RefSet::default());
}
