//! The collector's one set type: a dense bit set over slot indices.
//!
//! Bit `i % 64` of word `i / 64` is slot `i`. The same type holds the
//! mark bits, the incremental-update dirty set, the §4.3 retrace set
//! and the two §4.3 trace-state sets, so a barrier or a shade costs one
//! word access, clearing a cycle's state is a `memset`, and walking a
//! set visits its members in ascending slot order. The heap verifier's
//! visited set ([`crate::verify::ReachSet`]) is the sixth use.

/// A set of slot indices. Indices past the last word are absent;
/// [`BitSet::insert`] grows the set to reach them.
#[derive(Debug, Default)]
pub(crate) struct BitSet {
    words: Vec<u64>,
    /// Number of set bits, kept current by every mutation.
    ones: usize,
}

impl BitSet {
    /// True if `i` is in the set; false for any `i` out of range.
    pub(crate) fn get(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Adds `i`, growing the set if needed. Returns true if `i` was
    /// absent.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        let word = i / 64;
        if word >= self.words.len() {
            self.grow(word);
        }
        let (w, bit) = (&mut self.words[word], 1u64 << (i % 64));
        let fresh = *w & bit == 0;
        *w |= bit;
        self.ones += usize::from(fresh);
        fresh
    }

    /// Off the shade's path: only a slot allocated since the reset.
    #[cold]
    fn grow(&mut self, word: usize) {
        self.words.resize(word + 1, 0);
    }

    /// Removes `i`; a no-op if it is absent or out of range.
    pub(crate) fn remove(&mut self, i: usize) {
        if let Some(w) = self.words.get_mut(i / 64) {
            let bit = 1u64 << (i % 64);
            self.ones -= usize::from(*w & bit != 0);
            *w &= !bit;
        }
    }

    /// Number of members.
    pub(crate) fn len(&self) -> usize {
        self.ones
    }

    /// Empties the set and sizes it for indices below `capacity`.
    pub(crate) fn reset(&mut self, capacity: usize) {
        self.words.clear();
        self.words.resize(capacity.div_ceil(64), 0);
        self.ones = 0;
    }

    /// The backing words, for word-at-a-time walks.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// The members in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(w * 64 + bit)
            })
        })
    }

    /// Removes every member, passing each to `visit` in ascending
    /// order. The set keeps its size.
    pub(crate) fn drain(&mut self, mut visit: impl FnMut(usize)) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                visit(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        self.ones = 0;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;

    #[derive(Clone, Debug)]
    enum Op {
        Insert(usize),
        Remove(usize),
        Get(usize),
        Drain,
        Reset(usize),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Indices reach past any capacity `Reset` picks, so growth and
        // out-of-range `get`/`remove` are both exercised.
        let i = 0usize..400;
        prop_oneof![
            i.clone().prop_map(Op::Insert),
            i.clone().prop_map(Op::Insert),
            i.clone().prop_map(Op::Remove),
            i.prop_map(Op::Get),
            Just(Op::Drain),
            (0usize..300).prop_map(Op::Reset),
        ]
    }

    proptest! {
        #[test]
        fn behaves_like_a_btreeset(
            capacity in 0usize..300,
            ops in proptest::collection::vec(op_strategy(), 0..120),
        ) {
            let mut set = BitSet::default();
            set.reset(capacity);
            let mut model: BTreeSet<usize> = BTreeSet::new();
            for op in ops {
                match op {
                    Op::Insert(i) => prop_assert_eq!(set.insert(i), model.insert(i)),
                    Op::Remove(i) => {
                        set.remove(i);
                        model.remove(&i);
                    }
                    Op::Get(i) => prop_assert_eq!(set.get(i), model.contains(&i)),
                    Op::Drain => {
                        let mut drained = Vec::new();
                        set.drain(|i| drained.push(i));
                        let expected: Vec<usize> = std::mem::take(&mut model).into_iter().collect();
                        prop_assert_eq!(drained, expected);
                        prop_assert!(set.words().iter().all(|&w| w == 0));
                    }
                    Op::Reset(n) => {
                        set.reset(n);
                        model.clear();
                        prop_assert_eq!(set.words().len(), n.div_ceil(64));
                    }
                }
                prop_assert_eq!(set.len(), model.len());
                prop_assert!(set.iter().eq(model.iter().copied()));
                let ones: u32 = set.words().iter().map(|w| w.count_ones()).sum();
                prop_assert_eq!(ones as usize, model.len());
            }
        }
    }

    #[test]
    fn out_of_range_reads_and_removes_do_not_grow() {
        let mut set = BitSet::default();
        set.reset(70);
        assert_eq!(set.words().len(), 2);
        assert!(!set.get(128) && !set.get(usize::MAX));
        set.remove(4096);
        assert_eq!((set.words().len(), set.len()), (2, 0));
        assert!(set.insert(130), "insert grows to reach the index");
        assert_eq!(set.words().len(), 3);
        assert!(set.get(130) && !set.get(129));
    }

    #[test]
    fn duplicate_inserts_and_removes_count_once() {
        let mut set = BitSet::default();
        assert!(set.insert(63));
        assert!(!set.insert(63));
        assert!(set.insert(64));
        assert_eq!(set.len(), 2);
        set.remove(63);
        set.remove(63);
        assert_eq!(set.len(), 1);
        let mut drained = Vec::new();
        set.drain(|i| drained.push(i));
        assert_eq!(drained, vec![64]);
        assert_eq!(set.len(), 0);
    }
}
