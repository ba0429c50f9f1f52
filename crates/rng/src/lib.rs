//! # dm-rng — a self-contained deterministic random number generator
//!
//! The repository runs in fully offline environments, so it cannot depend on
//! the `rand` / `rand_chacha` crates. This crate provides the small slice of
//! their API the reproduction needs: a seedable [`ChaCha8Rng`] with uniform
//! integer and float sampling. The generator is a faithful implementation of
//! the ChaCha stream cipher core with 8 rounds (4 double-rounds, the same
//! core `rand_chacha::ChaCha8Rng` uses), so its statistical quality is far beyond
//! what the experiments require; the exact output stream differs from
//! `rand_chacha` (seed expansion and word extraction order are simplified),
//! which is irrelevant here because all baselines are regenerated by this
//! repository itself.
//!
//! Determinism is a core invariant of the whole simulator: the same seed must
//! produce the same placement decisions, workloads and therefore bit-identical
//! run reports on every platform. All arithmetic below is explicitly
//! wrapping/IEEE-754 and platform independent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// SplitMix64 — a small, high-quality 64-bit mixing function, used for seed
/// expansion here and for per-node pseudo-random derivations elsewhere in
/// the workspace.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic ChaCha-core random number generator with 8 rounds
/// (4 column/diagonal double-rounds, the ChaCha8 parameterisation).
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// Cipher input state: constants, key (from the seed), counter, nonce.
    state: [u32; 16],
    /// Current output block.
    block: [u32; 16],
    /// Next unread word of `block` (16 = exhausted).
    cursor: usize,
}

#[inline]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl ChaCha8Rng {
    /// Create a generator from a 64-bit seed (the only constructor the
    /// reproduction uses). The seed is expanded into the 256-bit ChaCha key
    /// with a SplitMix64 sequence, the standard remedy for low-entropy seeds.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut key = [0u32; 8];
        for i in 0..4 {
            // The i-th word of the SplitMix64 sequence seeded with `seed`
            // (the increment happens inside `splitmix64`).
            let w = splitmix64(seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            key[2 * i] = w as u32;
            key[2 * i + 1] = (w >> 32) as u32;
        }
        let mut state = [0u32; 16];
        // "expand 32-byte k"
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646E;
        state[2] = 0x7962_2D32;
        state[3] = 0x6B20_6574;
        state[4..12].copy_from_slice(&key);
        // words 12..13: 64-bit block counter, 14..15: nonce (zero).
        ChaCha8Rng {
            state,
            block: [0u32; 16],
            cursor: 16,
        }
    }

    /// Produce the next 16-word output block and advance the counter.
    fn refill(&mut self) {
        let mut working = self.state;
        for _ in 0..4 {
            // 8 rounds = 4 double-rounds (column round + diagonal round).
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        for i in 0..16 {
            self.block[i] = working[i].wrapping_add(self.state[i]);
        }
        let (lo, carry) = self.state[12].overflowing_add(1);
        self.state[12] = lo;
        if carry {
            self.state[13] = self.state[13].wrapping_add(1);
        }
        self.cursor = 0;
    }

    /// The next uniformly distributed 32-bit word.
    #[inline]
    pub(crate) fn next_u32(&mut self) -> u32 {
        if self.cursor >= 16 {
            self.refill();
        }
        let w = self.block[self.cursor];
        self.cursor += 1;
        w
    }

    /// The next uniformly distributed 64-bit word.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        (hi << 32) | lo
    }

    /// A uniform sample from a half-open range, e.g. `rng.gen_range(0..10)`
    /// or `rng.gen_range(-1.0..1.0)`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    pub fn gen_range<T: SampleRange>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample(self, range.start, range.end)
    }
}

/// Types that can be sampled uniformly from a half-open range by
/// [`ChaCha8Rng::gen_range`].
pub trait SampleRange: Copy + PartialOrd {
    /// Sample uniformly from `[lo, hi)`.
    fn sample(rng: &mut ChaCha8Rng, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uint {
    ($t:ty) => {
        impl SampleRange for $t {
            fn sample(rng: &mut ChaCha8Rng, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range called with an empty range");
                let span = (hi - lo) as u64;
                // Unbiased sampling by rejection from the largest multiple of
                // `span` below 2^64.
                let zone = u64::MAX - u64::MAX % span;
                loop {
                    let v = rng.next_u64();
                    if v < zone {
                        return lo + (v % span) as $t;
                    }
                }
            }
        }
    };
}

impl_sample_uint!(u32);
impl_sample_uint!(u64);
impl_sample_uint!(usize);

impl SampleRange for f64 {
    fn sample(rng: &mut ChaCha8Rng, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "gen_range called with an empty range");
        // 53 random mantissa bits → uniform in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + unit * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_respects_bounds_and_covers() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.gen_range(0u32..10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
        for _ in 0..1000 {
            let f = rng.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
        }
        let u = rng.gen_range(5usize..6);
        assert_eq!(u, 5);
    }

    #[test]
    fn mean_of_unit_floats_is_near_half() {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let n = 10_000;
        let sum: f64 = (0..n).map(|_| rng.gen_range(0.0..1.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn counter_crosses_block_boundaries() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        // Consume more than one 16-word block and check the stream stays
        // deterministic against a fresh clone that skips ahead.
        let first: Vec<u64> = (0..40).map(|_| rng.next_u64()).collect();
        let mut again = ChaCha8Rng::seed_from_u64(3);
        let second: Vec<u64> = (0..40).map(|_| again.next_u64()).collect();
        assert_eq!(first, second);
        assert_eq!(
            first.iter().collect::<std::collections::HashSet<_>>().len(),
            40
        );
    }
}
