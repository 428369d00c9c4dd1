//! The crate's seeded-stream and digest primitives, defined once.

/// SplitMix64: the deterministic stream generator behind every seeded
/// schedule, fault plan and arrival process in this crate.
#[derive(Clone, Debug)]
pub(crate) struct SplitMix64(pub(crate) u64);

impl SplitMix64 {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A weighted roll: index `i` with probability `weights[i]` over
    /// their sum.
    pub(crate) fn weighted(&mut self, weights: &[u16]) -> usize {
        let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        let mut roll = self.next() % total;
        for (i, &w) in weights.iter().enumerate() {
            if roll < u64::from(w) {
                return i;
            }
            roll -= u64::from(w);
        }
        0
    }
}

/// FNV-1a over a byte stream, continuing from `seed` (0 starts a fresh
/// digest): the primitive under the world, schedule and serve digests.
pub(crate) fn fnv1a(seed: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = if seed == 0 {
        0xcbf2_9ce4_8422_2325
    } else {
        seed
    };
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}
