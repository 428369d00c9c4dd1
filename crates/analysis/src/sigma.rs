//! σ by receiver: the abstract store as one row per abstract object,
//! each row shared between copies of a state until one of them writes
//! it (DESIGN §17).
//!
//! The index holds the rows ascending by [`Ref`]; a row holds one
//! receiver's explicit entries ascending by [`FieldKey`] and is never
//! empty. Walking the index and then each row therefore visits the
//! entries in `(Ref, FieldKey)` order, the order merges name stride
//! variables in and dumps print. What a default is, and so which
//! entries are explicit, is the caller's business
//! (`AbsState::sigma_set`).

use std::cmp::Ordering;
use std::fmt;
use std::rc::Rc;

use crate::refs::Ref;
use crate::state::{AbsValue, FieldKey};

/// One receiver's explicit entries, ascending by key, never empty.
type Row = Vec<(FieldKey, AbsValue)>;

/// The abstract store. Copies share the index and every row; a write
/// copies the index and the one row it touches, unless the copy
/// writing already owns them. An empty store costs no allocation: it
/// shares its thread's one empty index until it is written.
#[derive(Clone)]
pub(crate) struct Sigma(Rc<Vec<(Ref, Rc<Row>)>>);

thread_local! {
    static EMPTY: Rc<Vec<(Ref, Rc<Row>)>> = Rc::default();
}

impl Default for Sigma {
    fn default() -> Self {
        Sigma(EMPTY.with(Rc::clone))
    }
}

impl Sigma {
    /// `r`'s explicit entries, ascending by key (empty when it has
    /// none).
    pub(crate) fn row(&self, r: Ref) -> &[(FieldKey, AbsValue)] {
        match self.0.binary_search_by_key(&r, |e| e.0) {
            Ok(i) => &self.0[i].1,
            Err(_) => &[],
        }
    }

    /// The explicit entry at `(r, key)`.
    pub(crate) fn get(&self, r: Ref, key: FieldKey) -> Option<&AbsValue> {
        let row = self.row(r);
        let i = row.binary_search_by_key(&key, |e| e.0).ok()?;
        Some(&row[i].1)
    }

    /// The number of rows.
    pub(crate) fn row_count(&self) -> usize {
        self.0.len()
    }

    /// Every explicit entry, in `(Ref, FieldKey)` order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Ref, FieldKey, &AbsValue)> {
        let rows = self.0.iter();
        rows.flat_map(|(r, row)| row.iter().map(move |(key, v)| (*r, *key, v)))
    }

    /// Sets `(r, key)` to `value` (`None` = absent). A write that would
    /// change nothing leaves the index and every row shared.
    pub(crate) fn set(&mut self, r: Ref, key: FieldKey, value: Option<AbsValue>) {
        if self.get(r, key) == value.as_ref() {
            return;
        }
        let index = Rc::make_mut(&mut self.0);
        let at = index.binary_search_by_key(&r, |e| e.0);
        let Ok(i) = at else {
            let v = value.expect("an absent entry only differs from a present one");
            index.insert(at.unwrap_err(), (r, Rc::new(vec![(key, v)])));
            return;
        };
        let row = Rc::make_mut(&mut index[i].1);
        match (row.binary_search_by_key(&key, |e| e.0), value) {
            (Ok(j), Some(v)) => row[j].1 = v,
            (Err(j), Some(v)) => row.insert(j, (key, v)),
            (Ok(j), None) => {
                row.remove(j);
                if row.is_empty() {
                    index.remove(i);
                }
            }
            (Err(_), None) => unreachable!("an absent entry equals `None`"),
        }
    }

    /// Replaces `a` by `b` in every value that names `a`. Only the rows
    /// holding such a value are written.
    pub(crate) fn subst(&mut self, a: Ref, b: Ref) {
        let names_a = |v: &AbsValue| matches!(v, AbsValue::Refs(s) if s.contains(&a));
        for i in 0..self.0.len() {
            if !self.0[i].1.iter().any(|(_, v)| names_a(v)) {
                continue;
            }
            let row = Rc::make_mut(&mut Rc::make_mut(&mut self.0)[i].1);
            for (_, v) in row.iter_mut() {
                if let AbsValue::Refs(s) = v {
                    if s.remove(&a) {
                        s.insert(b);
                    }
                }
            }
        }
    }

    /// Removes `r`'s row and returns it.
    pub(crate) fn take_row(&mut self, r: Ref) -> Option<Rc<Row>> {
        let i = self.0.binary_search_by_key(&r, |e| e.0).ok()?;
        Some(Rc::make_mut(&mut self.0).remove(i).1)
    }

    /// Merges `other` into `self` entry by entry, in `(Ref, FieldKey)`
    /// order, skipping every row the two sides still share: no entry of
    /// it could change. `merge(r, key, mine, theirs)` returns `None` to
    /// keep `mine`, or the entry that replaces it (`Some(None)` =
    /// absent). Each row that changes is built once and swapped in;
    /// returns true if any did.
    pub(crate) fn merge_from(
        &mut self,
        other: &Sigma,
        mut merge: impl FnMut(
            Ref,
            FieldKey,
            Option<&AbsValue>,
            Option<&AbsValue>,
        ) -> Option<Option<AbsValue>>,
    ) -> bool {
        if Rc::ptr_eq(&self.0, &other.0) {
            return false;
        }
        fn rows(s: &Sigma) -> impl Iterator<Item = (Ref, &[(FieldKey, AbsValue)])> {
            s.0.iter().map(|(r, row)| (*r, &row[..]))
        }
        fn entries(row: &[(FieldKey, AbsValue)]) -> impl Iterator<Item = (FieldKey, &AbsValue)> {
            row.iter().map(|(key, v)| (*key, v))
        }
        let mut changed: Vec<(Ref, Row)> = Vec::new();
        ordered_walk(rows(self), rows(other), |r, mine, theirs| {
            let (mine, theirs) = (mine.unwrap_or(&[]), theirs.unwrap_or(&[]));
            if std::ptr::eq(mine, theirs) {
                return;
            }
            let mut new: Option<Row> = None;
            ordered_walk(entries(mine), entries(theirs), |key, x, y| {
                match merge(r, key, x, y) {
                    None => {
                        if let (Some(row), Some(x)) = (&mut new, x) {
                            row.push((key, x.clone()));
                        }
                    }
                    Some(entry) => {
                        // The row's first change: copy what came before.
                        let row = new.get_or_insert_with(|| {
                            let mut row = Row::with_capacity(mine.len() + theirs.len());
                            row.extend(mine.iter().take_while(|e| e.0 < key).cloned());
                            row
                        });
                        row.extend(entry.map(|v| (key, v)));
                    }
                }
            });
            changed.extend(new.map(|row| (r, row)));
        });
        let any = !changed.is_empty();
        for (r, row) in changed {
            let index = Rc::make_mut(&mut self.0);
            match (index.binary_search_by_key(&r, |e| e.0), row.is_empty()) {
                (Ok(i), false) => index[i].1 = Rc::new(row),
                (Ok(i), true) => drop(index.remove(i)),
                (Err(i), false) => index.insert(i, (r, Rc::new(row))),
                (Err(_), true) => {}
            }
        }
        any
    }
}

/// Equality is pointer-first, row by row: two copies that were never
/// written since they were taken are equal without reading an entry,
/// and two that differ in one row compare that row alone.
impl PartialEq for Sigma {
    fn eq(&self, other: &Sigma) -> bool {
        let (a, b) = (&self.0, &other.0);
        Rc::ptr_eq(a, b)
            || (a.len() == b.len()
                && (a.iter().zip(b.iter()))
                    .all(|(x, y)| x.0 == y.0 && (Rc::ptr_eq(&x.1, &y.1) || x.1 == y.1)))
    }
}

impl Eq for Sigma {}

/// Renders as the map from `(Ref, FieldKey)` it stands for.
impl fmt::Debug for Sigma {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entries = self.iter().map(|(r, key, v)| ((r, key), v));
        f.debug_map().entries(entries).finish()
    }
}

/// Calls `f` for every key of either ascending sequence, in ascending
/// order, with each side's entry.
pub(crate) fn ordered_walk<K: Ord, V>(
    a: impl IntoIterator<Item = (K, V)>,
    b: impl IntoIterator<Item = (K, V)>,
    mut f: impl FnMut(K, Option<V>, Option<V>),
) {
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    loop {
        let order = match (a.peek(), b.peek()) {
            (None, None) => return,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some((ka, _)), Some((kb, _))) => ka.cmp(kb),
        };
        let left = if order.is_le() { a.next() } else { None };
        let right = if order.is_ge() { b.next() } else { None };
        match (left, right) {
            (Some((key, x)), right) => f(key, Some(x), right.map(|e| e.1)),
            (None, Some((key, y))) => f(key, None, Some(y)),
            (None, None) => unreachable!("one side has a key"),
        }
    }
}
