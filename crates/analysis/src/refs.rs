//! Abstract reference values (§2.1 of the paper).
//!
//! When analyzing a method we create two `Ref`s per allocation site
//! `id`: [`Ref::SiteA`] denotes the object *most recently* allocated at
//! the site (a single concrete object, so stores to its fields may use
//! strong update), and [`Ref::SiteB`] summarizes all *previously*
//! allocated objects (weak update only). [`Ref::Arg`] denotes an
//! argument's initial value, and [`Ref::Global`] collapses every object
//! allocated outside the method and not passed to it.

use std::fmt;

use wbe_ir::SiteId;

/// An abstract object reference.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Ref {
    /// All objects allocated outside the analyzed method.
    Global,
    /// The initial value of reference argument `i`.
    Arg(u16),
    /// The object most recently allocated at the site (unique).
    SiteA(SiteId),
    /// All objects previously allocated at the site (summary).
    SiteB(SiteId),
}

impl Ref {
    /// The paper's `unique` predicate: true iff this abstract reference
    /// denotes a single concrete object. `SiteA` is always unique;
    /// `Arg(0)` is unique *in a constructor* (the object under
    /// construction), which the caller decides via `this_is_unique`.
    pub fn is_unique(self, this_is_unique: bool) -> bool {
        match self {
            Ref::SiteA(_) => true,
            Ref::Arg(0) => this_is_unique,
            _ => false,
        }
    }
}

impl fmt::Debug for Ref {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ref::Global => write!(f, "G"),
            Ref::Arg(i) => write!(f, "arg{i}"),
            Ref::SiteA(s) => write!(f, "{s}/A"),
            Ref::SiteB(s) => write!(f, "{s}/B"),
        }
    }
}

impl fmt::Display for Ref {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// References a [`RefSet`] holds without touching the heap. Most
/// reference values in the suite are `{}`, `{G}` or one or two site
/// references; larger sets (the concretization of `Any`, merged
/// receivers) spill to a sorted vector.
const INLINE: usize = 4;

/// A *RefVal*: the set of possible non-null referents of a value. The
/// empty set means "known to contain only null" — the property barrier
/// elision needs. Sets are may-information: larger is more conservative.
///
/// Stored sorted and duplicate-free, so iteration is in `Ref`'s `Ord`
/// order (what every dump and ledger line renders) and equality is
/// slice equality whichever representation holds the elements.
pub struct RefSet(Repr);

#[derive(Clone)]
enum Repr {
    /// `items[..len]` are the elements; the rest is padding.
    Inline {
        len: u8,
        items: [Ref; INLINE],
    },
    Spilled(Vec<Ref>),
}

impl RefSet {
    /// The empty set (definitely null).
    pub const fn new() -> RefSet {
        RefSet(Repr::Inline {
            len: 0,
            items: [Ref::Global; INLINE],
        })
    }

    /// The elements in ascending order.
    pub fn as_slice(&self) -> &[Ref] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..*len as usize],
            Repr::Spilled(v) => v,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True for the empty set.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Membership test.
    pub fn contains(&self, r: &Ref) -> bool {
        self.as_slice().binary_search(r).is_ok()
    }

    /// Iterates the elements in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, Ref> {
        self.as_slice().iter()
    }

    /// Adds `r`; returns true if it was not already present.
    pub fn insert(&mut self, r: Ref) -> bool {
        let Err(pos) = self.as_slice().binary_search(&r) else {
            return false;
        };
        match &mut self.0 {
            Repr::Inline { len, items } if (*len as usize) < INLINE => {
                let n = *len as usize;
                items.copy_within(pos..n, pos + 1);
                items[pos] = r;
                *len += 1;
            }
            Repr::Inline { items, .. } => {
                let mut v = Vec::with_capacity(2 * INLINE);
                v.extend_from_slice(&items[..pos]);
                v.push(r);
                v.extend_from_slice(&items[pos..]);
                self.0 = Repr::Spilled(v);
            }
            Repr::Spilled(v) => v.insert(pos, r),
        }
        true
    }

    /// Removes `r`; returns true if it was present.
    pub fn remove(&mut self, r: &Ref) -> bool {
        let Ok(pos) = self.as_slice().binary_search(r) else {
            return false;
        };
        match &mut self.0 {
            Repr::Inline { len, items } => {
                items.copy_within(pos + 1..*len as usize, pos);
                *len -= 1;
            }
            Repr::Spilled(v) => {
                v.remove(pos);
            }
        }
        true
    }

    /// Adds every element of `other`; returns true if the set grew.
    pub fn union_with(&mut self, other: &RefSet) -> bool {
        let before = self.len();
        for &r in other {
            self.insert(r);
        }
        self.len() != before
    }

    /// The union of the two sets.
    pub fn union(&self, other: &RefSet) -> RefSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }
}

/// `clone_from` into a spilled set reuses its vector.
impl Clone for RefSet {
    fn clone(&self) -> RefSet {
        RefSet(self.0.clone())
    }

    fn clone_from(&mut self, source: &RefSet) {
        match (&mut self.0, &source.0) {
            (Repr::Spilled(v), Repr::Spilled(s)) => v.clone_from(s),
            _ => *self = source.clone(),
        }
    }
}

impl Default for RefSet {
    fn default() -> RefSet {
        RefSet::new()
    }
}

impl PartialEq for RefSet {
    fn eq(&self, other: &RefSet) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for RefSet {}

impl fmt::Debug for RefSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl Extend<Ref> for RefSet {
    fn extend<I: IntoIterator<Item = Ref>>(&mut self, iter: I) {
        for r in iter {
            self.insert(r);
        }
    }
}

impl FromIterator<Ref> for RefSet {
    fn from_iter<I: IntoIterator<Item = Ref>>(iter: I) -> RefSet {
        let mut out = RefSet::new();
        out.extend(iter);
        out
    }
}

impl<'a> IntoIterator for &'a RefSet {
    type Item = &'a Ref;
    type IntoIter = std::slice::Iter<'a, Ref>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Returns the singleton member if `s` has exactly one element.
pub fn singleton(s: &RefSet) -> Option<Ref> {
    match s.as_slice() {
        [r] => Some(*r),
        _ => None,
    }
}

/// Substitutes `from → to` in a ref set (used when an allocation retires
/// the previous `SiteA` into `SiteB`).
pub fn subst(s: &RefSet, from: Ref, to: Ref) -> RefSet {
    s.iter().map(|&r| if r == from { to } else { r }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniqueness() {
        assert!(Ref::SiteA(SiteId(0)).is_unique(false));
        assert!(!Ref::SiteB(SiteId(0)).is_unique(true));
        assert!(Ref::Arg(0).is_unique(true), "ctor this is unique");
        assert!(!Ref::Arg(0).is_unique(false));
        assert!(!Ref::Arg(1).is_unique(true));
        assert!(!Ref::Global.is_unique(true));
    }

    #[test]
    fn singleton_detection() {
        let mut s = RefSet::new();
        assert_eq!(singleton(&s), None);
        s.insert(Ref::Global);
        assert_eq!(singleton(&s), Some(Ref::Global));
        s.insert(Ref::Arg(1));
        assert_eq!(singleton(&s), None);
    }

    #[test]
    fn substitution() {
        let a = Ref::SiteA(SiteId(3));
        let b = Ref::SiteB(SiteId(3));
        let s: RefSet = [a, Ref::Global].into_iter().collect();
        let out = subst(&s, a, b);
        assert!(out.contains(&b) && out.contains(&Ref::Global) && !out.contains(&a));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Ref::SiteA(SiteId(2)).to_string(), "site2/A");
        assert_eq!(Ref::Arg(0).to_string(), "arg0");
        assert_eq!(Ref::Global.to_string(), "G");
    }
}
