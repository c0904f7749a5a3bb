//! Post-processing of tuning sweeps: sweet spots and staircases.
//!
//! Figure 7's reading: the cycles-vs-unroll curves are "roughly convex",
//! the cache-access curves show "some sort of small staircase", and the
//! *sweet spot area* — where unrolling is beneficial without excessive
//! cache pressure — is `[4:12]` on Nehalem but only `[4:7]` on Tegra2.
//! This module computes those observations from a `(x, cost)` series.

/// The sweet-spot verdict over a 1-D sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweetSpot {
    /// x of the global minimum.
    pub best_x: i64,
    /// Cost at the minimum.
    pub best_cost: f64,
    /// The contiguous x-range around the minimum whose cost stays within
    /// `tolerance ×` the minimum.
    pub range: (i64, i64),
}

impl SweetSpot {
    /// Width of the sweet-spot range, in number of x steps spanned.
    pub fn width(&self) -> i64 {
        self.range.1 - self.range.0
    }
}

/// Finds the sweet spot of a `(x, cost)` sweep: the global minimum and
/// the contiguous range around it within `tolerance ×` the minimum cost.
///
/// # Panics
///
/// Panics if the sweep is empty, not sorted by `x`, contains non-finite
/// costs, or `tolerance < 1.0`.
pub fn sweet_spot(sweep: &[(i64, f64)], tolerance: f64) -> SweetSpot {
    assert!(!sweep.is_empty(), "empty sweep");
    assert!(tolerance >= 1.0, "tolerance must be at least 1.0");
    assert!(
        sweep.windows(2).all(|w| w[0].0 < w[1].0),
        "sweep must be sorted by x"
    );
    assert!(
        sweep.iter().all(|(_, c)| c.is_finite() && *c >= 0.0),
        "costs must be finite and non-negative"
    );
    let best_idx = sweep
        .iter()
        .enumerate()
        .min_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).expect("finite"))
        .map(|(i, _)| i)
        .expect("non-empty");
    let (best_x, best_cost) = sweep[best_idx];
    let limit = best_cost * tolerance;
    let mut lo = best_idx;
    while lo > 0 && sweep[lo - 1].1 <= limit {
        lo -= 1;
    }
    let mut hi = best_idx;
    while hi + 1 < sweep.len() && sweep[hi + 1].1 <= limit {
        hi += 1;
    }
    SweetSpot {
        best_x,
        best_cost,
        range: (sweep[lo].0, sweep[hi].0),
    }
}

/// Detects staircase steps: indices `i` where the value jumps by more
/// than `threshold ×` relative to `sweep[i-1]`. Figure 7's cache-access
/// curves step at unroll 9 (Nehalem) and unroll 5 (Tegra2).
///
/// # Panics
///
/// Panics if the sweep has fewer than two points or any value is
/// non-positive.
pub fn staircase_steps(sweep: &[(i64, f64)], threshold: f64) -> Vec<i64> {
    assert!(sweep.len() >= 2, "need at least two points");
    assert!(
        sweep.iter().all(|(_, v)| *v > 0.0),
        "values must be positive"
    );
    sweep
        .windows(2)
        .filter(|w| w[1].1 / w[0].1 > 1.0 + threshold)
        .map(|w| w[1].0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad(min_at: i64) -> Vec<(i64, f64)> {
        (1..=12)
            .map(|x| (x, ((x - min_at) * (x - min_at)) as f64 + 10.0))
            .collect()
    }

    #[test]
    fn sweet_spot_of_quadratic() {
        let s = sweet_spot(&quad(6), 1.5);
        assert_eq!(s.best_x, 6);
        assert_eq!(s.best_cost, 10.0);
        // Within 1.5×10 = 15: |x−6|² ≤ 5 → x ∈ [4, 8].
        assert_eq!(s.range, (4, 8));
        assert_eq!(s.width(), 4);
    }

    #[test]
    fn narrower_tolerance_narrower_range() {
        let wide = sweet_spot(&quad(6), 2.0);
        let tight = sweet_spot(&quad(6), 1.1);
        assert!(tight.width() < wide.width());
    }

    #[test]
    fn sweet_spot_at_edge() {
        let sweep: Vec<(i64, f64)> = (1..=5).map(|x| (x, x as f64)).collect();
        let s = sweet_spot(&sweep, 1.0);
        assert_eq!(s.best_x, 1);
        assert_eq!(s.range, (1, 1));
    }

    #[test]
    fn staircase_found() {
        // Flat, then a 40 % jump at x=9 (the Nehalem cache-access step).
        let sweep: Vec<(i64, f64)> = (1..=12)
            .map(|x| (x, if x < 9 { 100.0 } else { 140.0 }))
            .collect();
        assert_eq!(staircase_steps(&sweep, 0.2), vec![9]);
        assert!(staircase_steps(&sweep, 0.5).is_empty());
    }

    #[test]
    #[should_panic(expected = "sweep must be sorted")]
    fn unsorted_sweep_panics() {
        let _ = sweet_spot(&[(2, 1.0), (1, 2.0)], 1.5);
    }

    #[test]
    #[should_panic(expected = "tolerance must be at least 1.0")]
    fn bad_tolerance_panics() {
        let _ = sweet_spot(&quad(6), 0.5);
    }
}
