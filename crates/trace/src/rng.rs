//! A small, dependency-free deterministic RNG.
//!
//! The sandbox builds offline, so the crates.io `rand` stack is not
//! available; every stochastic component of the simulator (synthetic
//! kernels, randomized replacement policies, test input generation) seeds
//! one of these instead. The generator is SplitMix64 (Steele, Lea &
//! Flood, OOPSLA 2014): a 64-bit counter stepped by the golden-ratio
//! increment and scrambled by a variant of the MurmurHash3 finalizer. It
//! is statistically strong for simulation purposes, trivially seedable,
//! and — crucially for reproducibility — a pure function of its seed.
//!
//! The API deliberately mirrors the subset of `rand` the repo used
//! (`seed_from_u64`, `gen_range`, `gen_bool`, `shuffle`) so call sites
//! read identically.
//!
//! ```
//! use sdbp_trace::rng::Rng64;
//! let mut a = Rng64::seed_from_u64(7);
//! let mut b = Rng64::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! assert!(a.gen_range(0u64..10) < 10);
//! ```

/// Golden-ratio increment of the SplitMix64 counter.
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Deterministic 64-bit generator (SplitMix64).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Creates a generator whose entire stream is determined by `seed`.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng64 { state: seed }
    }

    /// Produces the next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform `f64` in `[0, 1)` (53 mantissa bits of randomness).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "probability must be in [0, 1], got {p}"
        );
        self.gen_f64() < p
    }

    /// A uniform sample from `range` (`lo..hi`, half-open).
    ///
    /// Implemented for `u8`, `u16`, `u32`, `u64`, `usize` and `f64`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T: SampleRange>(&mut self, range: core::ops::Range<T>) -> T {
        T::sample(self, range.start, range.end)
    }

    /// Splits off an independent child generator for stream `stream_id`.
    ///
    /// The child's sequence is a pure function of `(seed, stream_id)`:
    /// distinct stream ids yield statistically independent streams, the
    /// parent is not advanced, and re-forking the same id always returns
    /// the same generator. This is SplitMix64's `split` operation — the
    /// stream id is spread over the counter by the golden-ratio increment
    /// and pushed through the output scrambler twice, so even adjacent ids
    /// (0, 1, 2, ...) land far apart in the state space. Use this instead
    /// of hand-XORing offsets into seeds: XOR salts can collide or cancel
    /// (`a ^ b == c ^ d`), forked streams cannot.
    ///
    /// ```
    /// use sdbp_trace::rng::Rng64;
    /// let root = Rng64::seed_from_u64(7);
    /// let mut a = root.fork(0);
    /// let mut b = root.fork(1);
    /// assert_ne!(a.next_u64(), b.next_u64());
    /// assert_eq!(root.fork(0), root.fork(0));
    /// ```
    #[must_use]
    pub fn fork(&self, stream_id: u64) -> Rng64 {
        let mut child = Rng64 {
            state: self
                .state
                .wrapping_add(stream_id.wrapping_mul(GOLDEN_GAMMA)),
        };
        // Two scrambling steps decorrelate the child from both the parent
        // stream and siblings with nearby ids.
        let s = child.next_u64();
        let t = child.next_u64();
        Rng64 {
            state: s ^ t.rotate_left(32),
        }
    }

    /// Fisher–Yates shuffle of `xs`.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(0..i + 1);
            xs.swap(i, j);
        }
    }
}

/// Types [`Rng64::gen_range`] can sample uniformly from a half-open range.
pub trait SampleRange: Copy {
    /// Draws a uniform sample from `[lo, hi)`.
    fn sample(rng: &mut Rng64, lo: Self, hi: Self) -> Self;
}

/// Unbiased integer sampling from `[0, span)` via Lemire-style widening
/// multiply with rejection.
fn uniform_u64(rng: &mut Rng64, span: u64) -> u64 {
    debug_assert!(span > 0);
    // Rejection threshold: multiples of span fit below it.
    let zone = span.wrapping_neg() % span;
    loop {
        let x = rng.next_u64();
        let m = u128::from(x) * u128::from(span);
        if (m as u64) >= zone {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn sample(rng: &mut Rng64, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "empty range {lo}..{hi}");
                let span = (hi as u64).wrapping_sub(lo as u64);
                lo.wrapping_add(uniform_u64(rng, span) as $t)
            }
        }
    )*};
}

impl_sample_int!(u8, u16, u32, u64, usize);

impl SampleRange for f64 {
    fn sample(rng: &mut Rng64, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let x = lo + rng.gen_f64() * (hi - lo);
        // Guard against rounding up to the (excluded) upper bound.
        if x < hi {
            x
        } else {
            lo
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "test-only oracles: membership and grouping checks whose iteration order never reaches an output"
)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng64::seed_from_u64(42);
        let mut b = Rng64::seed_from_u64(42);
        let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng64::seed_from_u64(1);
        let mut b = Rng64::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn ranges_are_respected() {
        let mut r = Rng64::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = r.gen_range(5u64..17);
            assert!((5..17).contains(&x));
            let y = r.gen_range(0usize..3);
            assert!(y < 3);
            let f = r.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn integer_sampling_covers_the_range_roughly_uniformly() {
        let mut r = Rng64::seed_from_u64(9);
        let mut counts = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[r.gen_range(0usize..8)] += 1;
        }
        let expect = n as f64 / 8.0;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (f64::from(c) - expect).abs() / expect;
            assert!(
                dev < 0.05,
                "bucket {i} count {c} deviates {dev:.3} from uniform"
            );
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = Rng64::seed_from_u64(11);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.gen_bool(0.3)).count() as f64;
        let rate = hits / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate} far from 0.3");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng64::seed_from_u64(13);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..50).collect::<Vec<_>>(),
            "shuffle left slice in order"
        );
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let _ = Rng64::seed_from_u64(0).gen_range(4u32..4);
    }

    #[test]
    fn fork_is_deterministic_and_does_not_advance_parent() {
        let parent = Rng64::seed_from_u64(99);
        let before = parent.clone();
        let mut a = parent.fork(3);
        let mut b = parent.fork(3);
        assert_eq!(parent, before, "fork must not mutate the parent");
        assert_eq!(
            (0..50).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..50).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn forked_streams_are_distinct_across_ids_and_seeds() {
        // All (seed, stream) pairs over a small grid must yield distinct
        // first outputs — in particular the XOR-collision pattern
        // (s^a == s'^a') that hand-offset salting is prone to must not
        // produce colliding streams.
        let mut firsts = std::collections::HashSet::new();
        for seed in 0..16u64 {
            let root = Rng64::seed_from_u64(seed);
            for stream in 0..16u64 {
                assert!(
                    firsts.insert(root.fork(stream).next_u64()),
                    "collision at seed {seed} stream {stream}"
                );
            }
        }
    }

    #[test]
    fn forked_stream_differs_from_parent_stream() {
        let root = Rng64::seed_from_u64(1234);
        let mut parent = root.clone();
        let mut child = root.fork(0);
        let p: Vec<u64> = (0..20).map(|_| parent.next_u64()).collect();
        let c: Vec<u64> = (0..20).map(|_| child.next_u64()).collect();
        assert_ne!(p, c);
    }
}
