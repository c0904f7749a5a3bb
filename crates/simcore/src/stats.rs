//! Statistics used by the measurement and reporting layers.
//!
//! The paper's methodology sections (III, V) lean on repeated, randomised
//! measurements summarised by robust statistics, and Figure 1 is an
//! exponential (log-linear) fit of the TOP500 series. This module provides:
//!
//! * [`OnlineStats`] — single-pass mean/variance (Welford);
//! * [`Summary`] — a frozen view with confidence intervals and percentiles;
//! * [`Histogram`] — fixed-width binning used for bimodality detection in
//!   the Figure 5 analysis;
//! * [`LinearFit`] — ordinary least squares, plus a log-space helper for
//!   exponential trends (Figure 1).

/// Single-pass mean and variance accumulator (Welford's algorithm).
///
/// Numerically stable; suitable for millions of samples.
///
/// # Examples
///
/// ```
/// use mb_simcore::stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Unbiased sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = OnlineStats::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

/// A frozen statistical summary of a sample set, including percentiles.
///
/// Built by [`Summary::from_samples`]; keeps a sorted copy of the data so
/// arbitrary quantiles remain available.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
    stats: OnlineStats,
}

impl Summary {
    /// Builds a summary from samples.
    ///
    /// Non-finite samples are rejected.
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN or infinite.
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        assert!(
            sorted.iter().all(|x| x.is_finite()),
            "summary samples must be finite"
        );
        let stats = sorted.iter().copied().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Summary { sorted, stats }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` when the summary holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.stats.std_dev()
    }

    /// Minimum (0 when empty).
    pub fn min(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sorted[0]
        }
    }

    /// Maximum (0 when empty).
    pub fn max(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sorted[self.sorted.len() - 1]
        }
    }

    /// Linear-interpolated quantile, `q` in `[0, 1]` (0 when empty).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.sorted.is_empty() {
            return 0.0;
        }
        let pos = q * (self.sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// The median (50th percentile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Coefficient of variation (std-dev / mean); 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m
        }
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

/// A fixed-width histogram over `[lo, hi)`.
///
/// Used by the Figure 5 analysis to detect the *bimodal* bandwidth
/// distribution caused by real-time scheduling on the ARM board.
///
/// # Examples
///
/// ```
/// use mb_simcore::stats::Histogram;
/// let mut h = Histogram::new(0.0, 10.0, 10);
/// for x in [0.5, 1.5, 1.7, 9.0] {
///     h.record(x);
/// }
/// assert_eq!(h.bin_count(0), 1);
/// assert_eq!(h.bin_count(1), 2);
/// assert_eq!(h.bin_count(9), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    below: u64,
    above: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            below: 0,
            above: 0,
        }
    }

    /// Records a sample; out-of-range samples are counted in the
    /// underflow/overflow tallies.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.below += 1;
        } else if x >= self.hi {
            self.above += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_count(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// Midpoint of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + w * (i as f64 + 0.5)
    }

    /// Indices of local maxima ("modes") whose count is at least
    /// `min_count`. Two separated maxima ⇒ a bimodal distribution, the
    /// signature the Figure 5 analysis looks for.
    pub fn modes(&self, min_count: u64) -> Vec<usize> {
        let n = self.bins.len();
        let mut out = Vec::new();
        for i in 0..n {
            let c = self.bins[i];
            if c < min_count || c == 0 {
                continue;
            }
            let left_ok = i == 0 || self.bins[i - 1] < c;
            // Plateau handling: compare strictly on the left, loosely on
            // the right so a flat-topped mode is reported once.
            let right_ok = i + 1 >= n || self.bins[i + 1] <= c;
            if left_ok && right_ok {
                out.push(i);
            }
        }
        out
    }
}

/// Ordinary least-squares line fit `y = slope·x + intercept`.
///
/// [`LinearFit::fit_log`] fits in log-y space, which turns an exponential
/// trend into a line — exactly the TOP500 performance-development plot of
/// Figure 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept of the fitted line.
    pub intercept: f64,
    /// Coefficient of determination R².
    pub r2: f64,
}

impl LinearFit {
    /// Fits a line through `(x, y)` points.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two points are given or all `x` are identical.
    pub fn fit(points: &[(f64, f64)]) -> Self {
        assert!(points.len() >= 2, "need at least two points to fit a line");
        let n = points.len() as f64;
        let sx: f64 = points.iter().map(|p| p.0).sum();
        let sy: f64 = points.iter().map(|p| p.1).sum();
        let mx = sx / n;
        let my = sy / n;
        let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
        assert!(sxx > 0.0, "x values must not all be identical");
        let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
        let slope = sxy / sxx;
        let intercept = my - slope * mx;
        let ss_tot: f64 = points.iter().map(|p| (p.1 - my).powi(2)).sum();
        let ss_res: f64 = points
            .iter()
            .map(|p| (p.1 - (slope * p.0 + intercept)).powi(2))
            .sum();
        let r2 = if ss_tot == 0.0 {
            1.0
        } else {
            1.0 - ss_res / ss_tot
        };
        LinearFit {
            slope,
            intercept,
            r2,
        }
    }

    /// Fits `ln(y) = slope·x + intercept`, i.e. an exponential trend
    /// `y = exp(intercept)·exp(slope·x)`.
    ///
    /// # Panics
    ///
    /// Panics on non-positive `y` values (their logarithm is undefined) or
    /// fewer than two points.
    pub fn fit_log(points: &[(f64, f64)]) -> Self {
        let logged: Vec<(f64, f64)> = points
            .iter()
            .map(|&(x, y)| {
                assert!(y > 0.0, "log fit requires positive y values");
                (x, y.ln())
            })
            .collect();
        LinearFit::fit(&logged)
    }

    /// For a log fit: the x at which the exponential model reaches `y`.
    ///
    /// # Panics
    ///
    /// Panics if the slope is zero or `y` is not positive.
    pub fn solve_for_exp(&self, y: f64) -> f64 {
        assert!(y > 0.0, "target must be positive");
        assert!(self.slope != 0.0, "cannot invert a flat trend");
        (y.ln() - self.intercept) / self.slope
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let s: OnlineStats = data.iter().copied().collect();
        assert_eq!(s.count(), 7);
        assert!((s.mean() - 4.0).abs() < 1e-12);
        let naive_var = data.iter().map(|x| (x - 4.0f64).powi(2)).sum::<f64>() / 6.0;
        assert!((s.variance() - naive_var).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 7.0);
    }

    #[test]
    fn welford_empty_and_single() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        let mut s = OnlineStats::new();
        s.push(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn summary_quantiles() {
        let s = Summary::from_samples((1..=100).map(|i| i as f64));
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 100.0);
        assert!((s.median() - 50.5).abs() < 1e-9);
        assert!((s.quantile(0.25) - 25.75).abs() < 1e-9);
        assert!((s.quantile(0.0) - 1.0).abs() < 1e-9);
        assert!((s.quantile(1.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::from_samples(std::iter::empty());
        assert!(s.is_empty());
        assert_eq!(s.median(), 0.0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "summary samples must be finite")]
    fn summary_rejects_nan() {
        let _ = Summary::from_samples([1.0, f64::NAN]);
    }

    #[test]
    fn summary_cv() {
        let s = Summary::from_samples([10.0, 10.0, 10.0]);
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn histogram_binning_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record(-1.0);
        h.record(0.0);
        h.record(1.99);
        h.record(2.0);
        h.record(10.0);
        h.record(25.0);
        assert_eq!(h.below, 1);
        assert_eq!(h.above, 2);
        assert_eq!(h.bin_count(0), 2);
        assert_eq!(h.bin_count(1), 1);
        assert_eq!(h.bins.iter().sum::<u64>() + h.below + h.above, 6);
        assert!((h.bin_center(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_detects_bimodality() {
        // Two clusters: around 1.5 and around 8.5 — like the two execution
        // modes of Figure 5.
        let mut h = Histogram::new(0.0, 10.0, 10);
        for _ in 0..30 {
            h.record(1.5);
        }
        for _ in 0..50 {
            h.record(8.5);
        }
        let modes = h.modes(5);
        assert_eq!(modes.len(), 2, "expected two modes, got {modes:?}");
    }

    #[test]
    fn histogram_unimodal_single_mode() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..100 {
            h.record(5.0 + (i % 3) as f64 * 0.1);
        }
        assert_eq!(h.modes(5).len(), 1);
    }

    #[test]
    fn linear_fit_exact_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 2.0)).collect();
        let f = LinearFit::fit(&pts);
        assert!((f.slope - 3.0).abs() < 1e-12);
        assert!((f.intercept - 2.0).abs() < 1e-12);
        assert!((f.r2 - 1.0).abs() < 1e-12);
        assert!((f.slope * 100.0 + f.intercept - 302.0).abs() < 1e-9);
    }

    #[test]
    fn log_fit_recovers_exponential() {
        // y = 5 · e^(0.4 x)
        let pts: Vec<(f64, f64)> = (0..20)
            .map(|i| (i as f64, 5.0 * (0.4 * i as f64).exp()))
            .collect();
        let f = LinearFit::fit_log(&pts);
        assert!((f.slope - 0.4).abs() < 1e-9);
        assert!((f.intercept.exp() - 5.0).abs() < 1e-6);
        // Invert: where does the trend reach 5·e^4 (x = 10)?
        let x = f.solve_for_exp(5.0 * (4.0f64).exp());
        assert!((x - 10.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "log fit requires positive y values")]
    fn log_fit_rejects_non_positive() {
        let _ = LinearFit::fit_log(&[(0.0, 1.0), (1.0, 0.0)]);
    }
}
