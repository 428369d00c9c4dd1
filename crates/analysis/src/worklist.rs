//! The worklist the fixed-point driver iterates: a set of reverse-postorder
//! positions that hands back the lowest first, so a block is revisited
//! only after everything before it in RPO has settled.

/// A set of positions `0..n`, one bit each, in words the caller owns
/// (the driver keeps them in one buffer with its merge counts).
#[derive(Debug)]
pub(crate) struct Worklist<'w> {
    words: &'w mut [u64],
}

impl<'w> Worklist<'w> {
    /// The words a set over positions `0..n` takes.
    pub(crate) fn words(n: usize) -> usize {
        n.div_ceil(64)
    }

    /// The empty set in `words`, which are zero and as many as
    /// [`words`](Self::words) gives.
    pub(crate) fn new(words: &'w mut [u64]) -> Worklist<'w> {
        debug_assert!(words.iter().all(|&w| w == 0));
        Worklist { words }
    }

    /// Adds `pos` (no effect if it is already there).
    pub(crate) fn insert(&mut self, pos: usize) {
        self.words[pos / 64] |= 1 << (pos % 64);
    }

    /// Removes and returns the lowest position.
    pub(crate) fn pop_first(&mut self) -> Option<usize> {
        let (i, word) = self.words.iter_mut().enumerate().find(|(_, w)| **w != 0)?;
        let bit = word.trailing_zeros() as usize;
        *word &= *word - 1;
        Some(i * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::Worklist;

    proptest! {
        /// The `BTreeSet<usize>` both solvers used is the model: any
        /// trace of inserts and pops gives the same positions in the
        /// same order.
        #[test]
        fn pops_in_the_order_a_btreeset_does(
            n in 1usize..200,
            ops in proptest::collection::vec((0u8..3, 0usize..200), 0..400),
        ) {
            let mut words = vec![0; Worklist::words(n)];
            let mut worklist = Worklist::new(&mut words);
            let mut model = BTreeSet::new();
            for (op, pos) in ops {
                if op > 0 {
                    worklist.insert(pos % n);
                    model.insert(pos % n);
                } else {
                    prop_assert_eq!(worklist.pop_first(), model.pop_first());
                }
            }
            while let Some(pos) = model.pop_first() {
                prop_assert_eq!(worklist.pop_first(), Some(pos));
            }
            prop_assert_eq!(worklist.pop_first(), None);
        }
    }
}
