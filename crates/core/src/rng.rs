//! Deterministic pseudo-random number generation.
//!
//! Every experiment in the reproduction must be bit-for-bit repeatable,
//! so engines and workload generators use an explicit-seed SplitMix64.
//! (`rand` is used at API boundaries where distributions are handy; the
//! hot scheduler paths use this allocation-free generator directly.)

/// SplitMix64: tiny, fast, full-period 2^64 generator. Good enough for
/// victim selection and synthetic workload shapes; not cryptographic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

/// The Weyl increment: SplitMix64 is a counter generator, its state
/// advances by exactly this much per draw.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Advance past `n` draws in O(1): the state after `skip(n)` is the
    /// state after `n` calls of [`Self::next_u64`]. Every other method
    /// draws through `next_u64` a number of times fixed by its
    /// arguments ([`Self::below`] once, [`Self::shuffle`] of `m`
    /// entries `m − 1` times), so a caller that knows which calls it
    /// is leaving out can leave them out without moving any later draw.
    #[inline]
    pub fn skip(&mut self, n: u64) {
        self.state = self.state.wrapping_add(n.wrapping_mul(GAMMA));
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    /// Uses Lemire's multiply-shift reduction (slight modulo bias is
    /// irrelevant at our bounds ≪ 2^64).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Fisher–Yates shuffle of a slice: `xs.len() − 1` draws (none for
    /// an empty slice), whatever the contents.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below_usize(i + 1);
            xs.swap(i, j);
        }
    }

    /// Fork a statistically-independent child generator (e.g. one per
    /// worker) from this one.
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64() ^ 0xA5A5_A5A5_DEAD_BEEF)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(r.below(13) < 13);
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(9);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = SplitMix64::new(3);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.below_usize(8)] += 1;
        }
        for &c in &counts {
            assert!(
                (8_000..12_000).contains(&c),
                "bucket count {c} far from uniform"
            );
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SplitMix64::new(5);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left slice unchanged"
        );
    }

    #[test]
    fn skip_equals_that_many_draws() {
        for n in [0u64, 1, 126] {
            let mut drawn = SplitMix64::new(17);
            for _ in 0..n {
                drawn.next_u64();
            }
            let mut skipped = SplitMix64::new(17);
            skipped.skip(n);
            assert_eq!(skipped, drawn, "n = {n}");
            assert_eq!(skipped.next_u64(), drawn.next_u64(), "n = {n}");
        }
        // 2^40 draws cannot be made one by one: skips compose, and a
        // skip of 2^40 is 2^20 skips of 2^20, each checked above in kind.
        let mut once = SplitMix64::new(17);
        once.skip(1 << 40);
        let mut pieces = SplitMix64::new(17);
        for _ in 0..(1u32 << 20) {
            pieces.skip(1 << 20);
        }
        assert_eq!(once, pieces);
        let mut stepped = SplitMix64::new(17);
        stepped.skip((1 << 40) - 3);
        for _ in 0..3 {
            stepped.next_u64();
        }
        assert_eq!(once, stepped);
    }

    #[test]
    fn skip_matches_shuffle_draw_count_for_every_length() {
        for len in 0..=130usize {
            let mut shuffled = SplitMix64::new(len as u64);
            let mut xs: Vec<usize> = (0..len).collect();
            shuffled.shuffle(&mut xs);
            let mut skipped = SplitMix64::new(len as u64);
            skipped.skip(len.saturating_sub(1) as u64);
            assert_eq!(skipped, shuffled, "len = {len}");
        }
    }

    #[test]
    fn fork_diverges() {
        let mut a = SplitMix64::new(11);
        let mut f = a.fork();
        assert_ne!(a.next_u64(), f.next_u64());
    }
}
