//! Order statistics for every report the benchmark prints.
//!
//! Medians, means and percentiles come from
//! [`mb_simcore::stats::Summary`]. Quartiles follow the exclusive method
//! of Python's `statistics.quantiles(values, n=4)`, so a reader
//! re-deriving the spread of a set of runs with that call gets the same
//! numbers.

use mb_simcore::stats::Summary as Samples;

/// Median, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median (mean of the middle pair for an even count).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Quartile spread as a share of the median: `(q3 - q1) / median`.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The samples of `values`; `None` when empty.
fn samples(values: &[f64]) -> Option<Samples> {
    (!values.is_empty()).then(|| Samples::from_samples(values.iter().copied()))
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    samples(values).map(|s| s.median())
}

/// Arithmetic mean of `values`; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    samples(values).map(|s| s.mean())
}

/// The `q`-quantile (`0 <= q <= 1`) by linear interpolation between
/// the closest ranks; `None` when empty.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    samples(values).map(|s| s.quantile(q))
}

/// `(q1, q3)` of non-empty sorted `v` by the exclusive method; a single
/// sample is its own quartiles.
fn quartiles(v: &[f64]) -> (f64, f64) {
    let len = v.len();
    if len == 1 {
        return (v[0], v[0]);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        // Negative when the clamp moved `j` up: Python then
        // extrapolates below the first point, and so do we.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Summarises `values`; `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let s = samples(values)?;
    let (q1, q3) = quartiles(s.samples());
    Some(Summary {
        median: s.median(),
        q1,
        q3,
        n: s.count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(values: &[f64]) -> (f64, f64) {
        let s = summarize(values).expect("non-empty");
        (s.q1, s.q3)
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(q(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(q(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(q(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([3, 1, 2, 5], n=4) == [1.25, 2.5, 4.5]
        assert_eq!(q(&[3.0, 1.0, 2.0, 5.0]), (1.25, 4.5));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&[0.0, 10.0], 0.9), Some(9.0));
        let s = summarize(&[1.0, 2.0, 3.0]).expect("non-empty");
        assert_eq!((s.median, s.n), (2.0, 3));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }
}
