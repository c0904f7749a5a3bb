//! The Figure 5 real-time scheduling anomaly.
//!
//! The paper (§V.A.2): *"Using real-time scheduler [...] lead to
//! unexpectedly poor and unstable performances on our ARM system. [...]
//! the second mode delivers degraded bandwidth values that are almost 5
//! times lower. One can also clearly see [...] that all degraded measures
//! occurred consecutively, which is likely caused by plainly wrong OS
//! scheduling decisions during that period of time."*
//!
//! [`RtAnomalyModel`] reproduces exactly that phenomenology: across a
//! sequence of `n` measurements, one contiguous window (whose start is
//! drawn from a seeded RNG) is *degraded* by a fixed slowdown factor.
//! Everything outside the window behaves normally. The model therefore
//! produces (a) a bimodal bandwidth histogram and (b) consecutive
//! degraded samples in sequence order — the two panels of Figure 5.

use mb_simcore::rng::{Rng, Xoshiro256};

/// A degraded-window perturbation over a measurement sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtAnomalyModel {
    n: usize,
    window_start: usize,
    window_len: usize,
    slowdown: f64,
}

impl RtAnomalyModel {
    /// Creates a model over `n` measurements in which a contiguous
    /// window covering `fraction` of the sequence is degraded by
    /// `slowdown` (×). The window position is drawn from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `fraction` is outside `(0, 1]`, or `slowdown`
    /// is less than 1.
    pub fn new(n: usize, fraction: f64, slowdown: f64, seed: u64) -> Self {
        assert!(n > 0, "need at least one measurement");
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1]"
        );
        assert!(slowdown >= 1.0, "slowdown must be at least 1");
        let window_len = ((n as f64 * fraction).round() as usize).clamp(1, n);
        let mut rng = Xoshiro256::seed_from(seed);
        let window_start = rng.gen_range((n - window_len + 1) as u64) as usize;
        RtAnomalyModel {
            n,
            window_start,
            window_len,
            slowdown,
        }
    }

    /// A model that never degrades — the non-RT baseline.
    pub fn none(n: usize) -> Self {
        assert!(n > 0, "need at least one measurement");
        RtAnomalyModel {
            n,
            window_start: 0,
            window_len: 0,
            slowdown: 1.0,
        }
    }

    /// Number of measurements covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the model covers no measurements (never true
    /// for constructed models).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether measurement `index` falls in the degraded window.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn is_degraded(&self, index: usize) -> bool {
        assert!(index < self.n, "measurement index out of range");
        index >= self.window_start && index < self.window_start + self.window_len
    }

    /// The slowdown factor applied to measurement `index` (1.0 when
    /// normal).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn slowdown_at(&self, index: usize) -> f64 {
        if self.is_degraded(index) {
            self.slowdown
        } else {
            1.0
        }
    }

    /// The degraded window as `(start, len)`.
    pub fn window(&self) -> (usize, usize) {
        (self.window_start, self.window_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_is_contiguous_and_in_range() {
        for seed in 0..20 {
            let m = RtAnomalyModel::new(2100, 0.3, 5.0, seed);
            let flags: Vec<bool> = (0..2100).map(|i| m.is_degraded(i)).collect();
            let count = flags.iter().filter(|&&d| d).count();
            assert_eq!(count, 630);
            let first = flags
                .iter()
                .position(|&d| d)
                .expect("window covers 30% of the sequence, so a degraded sample exists");
            let last = flags
                .iter()
                .rposition(|&d| d)
                .expect("window covers 30% of the sequence, so a degraded sample exists");
            assert_eq!(last - first + 1, count, "window must be contiguous");
        }
    }

    #[test]
    fn slowdown_values() {
        let m = RtAnomalyModel::new(100, 0.5, 5.0, 1);
        let (start, len) = m.window();
        assert_eq!(m.slowdown_at(start), 5.0);
        if start > 0 {
            assert_eq!(m.slowdown_at(start - 1), 1.0);
        }
        if start + len < 100 {
            assert_eq!(m.slowdown_at(start + len), 1.0);
        }
    }

    #[test]
    fn none_never_degrades() {
        let m = RtAnomalyModel::none(50);
        assert!((0..50).all(|i| !m.is_degraded(i)));
        assert!((0..50).all(|i| m.slowdown_at(i) == 1.0));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = RtAnomalyModel::new(1000, 0.2, 5.0, 7);
        let b = RtAnomalyModel::new(1000, 0.2, 5.0, 7);
        let c = RtAnomalyModel::new(1000, 0.2, 5.0, 8);
        assert_eq!(a, b);
        assert_ne!(a.window(), c.window());
    }

    #[test]
    fn produces_bimodal_bandwidths() {
        use mb_simcore::stats::Histogram;
        // Apply the model to a constant true bandwidth of 1 GB/s.
        let m = RtAnomalyModel::new(500, 0.4, 5.0, 3);
        let mut h = Histogram::new(0.0, 1.2, 12);
        for i in 0..500 {
            h.record(1.0 / m.slowdown_at(i));
        }
        assert_eq!(h.modes(10).len(), 2, "two execution modes (Figure 5a)");
    }

    #[test]
    #[should_panic(expected = "fraction must be in (0, 1]")]
    fn bad_fraction_panics() {
        let _ = RtAnomalyModel::new(10, 0.0, 5.0, 0);
    }

    #[test]
    #[should_panic(expected = "slowdown must be at least 1")]
    fn bad_slowdown_panics() {
        let _ = RtAnomalyModel::new(10, 0.5, 0.5, 0);
    }

    #[test]
    #[should_panic(expected = "measurement index out of range")]
    fn out_of_range_panics() {
        let m = RtAnomalyModel::none(10);
        let _ = m.is_degraded(10);
    }
}
