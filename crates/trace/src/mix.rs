//! The workspace's seeded mixing primitives: the SplitMix64 finalizer
//! and stream, and FNV-1a.
//!
//! Every replayable output draws from these: the workload and Mach event
//! streams, chaos schedules, trace ids, ring placement, spec digests and
//! loadgen's key choices. SplitMix64 (Steele, Lea & Flood 2014) is not
//! cryptographic; it is *replayable*: the same state yields the same
//! stream on every platform, with no global state and no clock.

/// The Weyl increment of the SplitMix64 stream, ⌊2^64/φ⌋.
pub const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 finalizer: a bijective, full-avalanche 64-bit mix.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// 64-bit FNV-1a over `bytes`.
#[must_use]
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A SplitMix64 stream: each draw adds [`GAMMA`] to the state and
/// finalizes the sum with [`mix64`].
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The stream starting at `state`: its first draw is
    /// `mix64(state + GAMMA)`. Equal states yield equal streams.
    #[must_use]
    pub fn new(state: u64) -> SplitMix64 {
        SplitMix64 { state }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix64(self.state)
    }

    /// Uniform draw in `[0, bound)` by multiply-shift (Lemire); 0, with
    /// no draw taken, when `bound` is 0.
    pub fn range(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Bernoulli draw: `true` with probability `p`, from 53 uniform bits.
    /// A `p` of 0 or less is never true; 1 or more always is.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// Index `i` drawn with probability proportional to weight `i`, given
    /// the running totals of the weights (`cumulative[i]` is the sum of
    /// weights `0..=i`). Zero weights are never drawn.
    ///
    /// # Panics
    ///
    /// Panics when the total weight is zero.
    pub fn pick(&mut self, cumulative: &[u64]) -> usize {
        let total = cumulative.last().copied().unwrap_or(0);
        assert!(total > 0, "no positive weight to pick from");
        // Modulo bias is ~total/2^64: irrelevant for event-mix weights.
        let x = self.next_u64() % total;
        cumulative.partition_point(|&c| c <= x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_states_replay_and_different_states_diverge() {
        let draws = |state| {
            let mut rng = SplitMix64::new(state);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<u64>>()
        };
        assert_eq!(draws(42), draws(42));
        assert_ne!(draws(1), draws(2));
        assert_eq!(draws(7)[0], mix64(7u64.wrapping_add(GAMMA)));
    }

    #[test]
    fn range_stays_in_bounds() {
        let mut rng = SplitMix64::new(99);
        assert!((0..2000).all(|_| rng.range(10) < 10));
        let mut before = rng.clone();
        assert_eq!(rng.range(0), 0);
        assert_eq!(rng.next_u64(), before.next_u64(), "range(0) draws nothing");
    }

    #[test]
    fn chance_tracks_probability() {
        let mut rng = SplitMix64::new(0xC0FFEE);
        let hits = (0..10_000).filter(|_| rng.chance(0.2)).count();
        assert!((1_600..2_400).contains(&hits), "p=0.2 gave {hits}/10000");
        assert!((0..1000).all(|_| !rng.chance(0.0)));
        assert!((0..1000).all(|_| rng.chance(1.0)));
    }

    #[test]
    fn pick_never_draws_a_zero_weight() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..500 {
            let i = rng.pick(&[0, 5, 5, 10]);
            assert!(i == 1 || i == 3, "drew zero-weight index {i}");
        }
    }

    #[test]
    #[should_panic(expected = "no positive weight")]
    fn pick_refuses_a_zero_total() {
        let _ = SplitMix64::new(3).pick(&[0, 0]);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(*b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(*b"foobar"), 0x8594_4171_f739_67e8);
    }
}
