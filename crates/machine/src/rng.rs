//! A tiny deterministic PRNG for tests and benchmarks.
//!
//! The workspace builds in air-gapped environments, so it cannot depend
//! on the `rand` or `proptest` crates. This SplitMix64 generator is the
//! replacement: seeded explicitly, reproducible across runs and
//! platforms, and good enough for generating randomized test schedules
//! and benchmark workloads (it passes BigCrush as the seeding stage of
//! xoshiro; we only need uncorrelated streams).

/// The SplitMix64 output finalizer: a bijective multiply-xorshift mix
/// of one 64-bit word, in which every input bit affects every output
/// bit.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64: one multiply-xorshift pipeline per output.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from an explicit seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift range reduction (Lemire); bias is < 2^-64 * bound,
        // irrelevant for test generation.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform boolean.
    pub fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Probability-`p` boolean (`p` clamped to [0, 1]).
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Picks a uniformly random element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot pick from an empty slice");
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Zipf(s) sampler over ranks `0..n` via a precomputed CDF.
///
/// Rank 0 is the most popular element; rank `k` has weight
/// `1 / (k + 1)^s`. Benchmarks use it to draw skewed callee
/// distributions (a few hot service worlds, a long cold tail), the
/// shape the switchless controller is designed around. Sampling is one
/// uniform draw plus a binary search — O(log n) and allocation-free
/// after construction.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// `cdf[k]` = P(rank <= k); the last entry is 1.0.
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precomputes the CDF for `n` ranks with exponent `s`.
    ///
    /// `s == 0.0` degenerates to the uniform distribution; `s` around
    /// 1.0 is the classic Zipf shape.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "need at least one rank");
        assert!(
            s.is_finite() && s >= 0.0,
            "exponent must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in cdf.iter_mut() {
            *c /= total;
        }
        cdf[n - 1] = 1.0;
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when there is a single rank (sampling always returns 0).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws a rank in `[0, n)` using `rng` for the uniform variate.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(r.below(13) < 13);
        }
    }

    #[test]
    fn range_is_inclusive_exclusive() {
        let mut r = SplitMix64::new(1);
        let mut seen_lo = false;
        for _ in 0..10_000 {
            let v = r.range(5, 8);
            assert!((5..8).contains(&v));
            seen_lo |= v == 5;
        }
        assert!(seen_lo, "lower bound should be reachable");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        SplitMix64::new(0).below(0);
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let z = Zipf::new(16, 1.0);
        let mut r = SplitMix64::new(0xD15C);
        let mut counts = [0u64; 16];
        for _ in 0..100_000 {
            counts[z.sample(&mut r)] += 1;
        }
        // Rank 0 carries weight 1 / H_16 ~ 0.296; rank 15 ~ 0.0185.
        assert!(counts[0] > 25_000, "rank 0 undersampled: {}", counts[0]);
        assert!(counts[0] > 10 * counts[15], "tail not suppressed");
        // Monotone-ish head: the first rank strictly dominates the next.
        assert!(counts[0] > counts[1] && counts[1] > counts[3]);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(8, 0.0);
        let mut r = SplitMix64::new(9);
        let mut counts = [0u64; 8];
        for _ in 0..80_000 {
            counts[z.sample(&mut r)] += 1;
        }
        for &c in &counts {
            // Each rank expects 10_000; allow a generous 15% band.
            assert!((8_500..=11_500).contains(&c), "not uniform: {counts:?}");
        }
    }

    #[test]
    fn zipf_single_rank_always_zero() {
        let z = Zipf::new(1, 1.2);
        let mut r = SplitMix64::new(4);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut r), 0);
        }
        assert_eq!(z.len(), 1);
        assert!(!z.is_empty());
    }

    #[test]
    fn zipf_is_deterministic() {
        let z = Zipf::new(32, 0.9);
        let mut a = SplitMix64::new(77);
        let mut b = SplitMix64::new(77);
        for _ in 0..1_000 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_zero_ranks_panics() {
        Zipf::new(0, 1.0);
    }
}
