//! Collection strategies (`proptest::collection::vec`).

use std::ops::Range;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Strategy producing `Vec`s whose length is drawn from `size` and
/// whose elements come from `element`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    VecStrategy { element, size }
}

/// The result of [`vec()`].
#[derive(Clone, Debug)]
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.size.generate(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_span_the_range() {
        let mut rng = TestRng::from_name("vec-len");
        let s = vec(0i64..3, 0..5);
        let mut lens = std::collections::BTreeSet::new();
        for _ in 0..300 {
            lens.insert(s.generate(&mut rng).len());
        }
        assert_eq!(lens, (0..5).collect());
    }
}
