//! Figure 1 — the TOP500 performance-development plot and the paper's
//! exascale arithmetic.
//!
//! The figure shows the exponential growth of the #1 system, the #500
//! system and the list total since 1993, and the paper's introduction
//! projects the exaflop barrier around 2018 while noting that a 20 MW
//! budget demands 50 GFLOPS/W. We embed the historical June-list data
//! (Rmax, in GFLOPS) and refit the trend with
//! [`mb_simcore::stats::LinearFit`].

use crate::sweep::{Grid, Sweep};
use mb_simcore::stats::LinearFit;

/// One June TOP500 list snapshot (Rmax in GFLOPS).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Top500Entry {
    /// List year.
    pub year: u32,
    /// Rmax of the #1 system.
    pub first_gflops: f64,
    /// Rmax of the #500 system.
    pub last_gflops: f64,
    /// Sum over the whole list.
    pub sum_gflops: f64,
}

/// The June TOP500 history from 1993 to 2012 (the span Figure 1 plots).
/// Values are the published Rmax numbers, in GFLOPS.
pub fn history() -> Vec<Top500Entry> {
    // (year, #1, #500, sum) — June lists.
    let rows: [(u32, f64, f64, f64); 20] = [
        (1993, 59.7, 0.42, 1_170.0),
        (1994, 143.4, 0.47, 1_520.0),
        (1995, 170.0, 0.94, 2_950.0),
        (1996, 220.4, 1.3, 4_500.0),
        (1997, 1_068.0, 2.0, 7_980.0),
        (1998, 1_338.0, 3.4, 13_400.0),
        (1999, 2_121.0, 9.7, 26_500.0),
        (2000, 2_379.0, 18.2, 54_800.0),
        (2001, 7_226.0, 28.0, 89_400.0),
        (2002, 35_860.0, 48.0, 193_000.0),
        (2003, 35_860.0, 98.0, 375_000.0),
        (2004, 35_860.0, 250.0, 622_000.0),
        (2005, 136_800.0, 464.0, 1_100_000.0),
        (2006, 280_600.0, 996.0, 1_640_000.0),
        (2007, 280_600.0, 2_026.0, 2_950_000.0),
        (2008, 1_026_000.0, 4_500.0, 6_970_000.0),
        (2009, 1_105_000.0, 9_600.0, 10_500_000.0),
        (2010, 1_759_000.0, 20_100.0, 16_900_000.0),
        (2011, 8_162_000.0, 31_100.0, 32_400_000.0),
        (2012, 16_320_000.0, 50_900.0, 74_200_000.0),
    ];
    rows.iter()
        .map(|&(year, first, last, sum)| Top500Entry {
            year,
            first_gflops: first,
            last_gflops: last,
            sum_gflops: sum,
        })
        .collect()
}

/// Which Figure 1 series to fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Series {
    /// The #1 system.
    First,
    /// The #500 system.
    Last,
    /// The list total.
    Sum,
}

/// The Figure 1 analysis: a log-linear fit of one series and its
/// exaflop-crossing projection.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendReport {
    /// Which series was fitted.
    pub series: Series,
    /// The log-space fit (`ln(gflops) = slope·year + intercept`).
    pub fit: LinearFit,
    /// Average performance doubling time implied by the fit, in years.
    pub doubling_time_years: f64,
    /// The year the fitted trend reaches 1 exaflop (1e9 GFLOPS).
    pub exaflop_year: f64,
}

/// Fits a TOP500 series and projects the exaflop crossing.
///
/// # Panics
///
/// Panics if `data` has fewer than two points.
pub fn fit_trend(data: &[Top500Entry], series: Series) -> TrendReport {
    let points: Vec<(f64, f64)> = data
        .iter()
        .map(|e| {
            let y = match series {
                Series::First => e.first_gflops,
                Series::Last => e.last_gflops,
                Series::Sum => e.sum_gflops,
            };
            (e.year as f64, y)
        })
        .collect();
    let fit = LinearFit::fit_log(&points);
    TrendReport {
        series,
        fit,
        doubling_time_years: (2.0f64).ln() / fit.slope,
        exaflop_year: fit.solve_for_exp(1e9),
    }
}

/// The introduction's required-efficiency claim: an exaflop within the
/// 20 MW envelope needs 50 GFLOPS/W — a factor-of-25 improvement over
/// the 2012 state of the art (~2 GFLOPS/W).
pub fn required_improvement_factor() -> f64 {
    let needed = mb_energy::required_gflops_per_watt(1e9, mb_energy::Power::from_watts(20e6));
    needed / 2.0
}

/// The three Figure 1 series in campaign-slot order.
pub fn all_series() -> [Series; 3] {
    [Series::First, Series::Last, Series::Sum]
}

/// Short slot label of a series.
fn series_label(series: Series) -> &'static str {
    match series {
        Series::First => "first",
        Series::Last => "last",
        Series::Sum => "sum",
    }
}

/// Flattens a trend report into its digest stream:
/// `[slope, intercept, r2, doubling_time_years, exaflop_year]`.
pub fn trend_stream(report: &TrendReport) -> Vec<f64> {
    vec![
        report.fit.slope,
        report.fit.intercept,
        report.fit.r2,
        report.doubling_time_years,
        report.exaflop_year,
    ]
}

/// Measures one campaign slot: fits the given series over the full
/// history and returns its [`trend_stream`].
fn measure_series(series: Series) -> Vec<f64> {
    trend_stream(&fit_trend(&history(), series))
}

/// The Figure 1 trend fits as a sweep: one slot per series of
/// [`all_series`], each payload its [`trend_stream`]. The report is the
/// streams concatenated in slot order. The fits have no grid; every
/// payload is the five values of a [`trend_stream`].
pub struct Trends;

impl Sweep for Trends {
    type Config = ();
    type Report = Vec<f64>;
    const WIDTH: Option<usize> = Some(5);

    fn config(_: Grid) {}

    fn slot_count(_: &()) -> usize {
        all_series().len()
    }

    fn labels(_: &()) -> Vec<String> {
        all_series()
            .iter()
            .map(|&s| series_label(s).to_string())
            .collect()
    }

    fn measurer(_: &()) -> Self {
        Trends
    }

    fn payload(&self, slot: usize) -> Vec<f64> {
        measure_series(all_series()[slot])
    }

    fn report(&self, payloads: &[Vec<f64>]) -> Vec<f64> {
        payloads.concat()
    }

    fn digest_stream(report: &Vec<f64>) -> Vec<f64> {
        report.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_is_monotone_in_year() {
        let h = history();
        assert_eq!(h.len(), 20);
        assert!(h.windows(2).all(|w| w[0].year < w[1].year));
        // #1 ≥ #500 always; sum ≥ #1 always.
        assert!(h.iter().all(|e| e.first_gflops >= e.last_gflops));
        assert!(h.iter().all(|e| e.sum_gflops >= e.first_gflops));
    }

    #[test]
    fn growth_is_exponential() {
        let r = fit_trend(&history(), Series::Sum);
        assert!(
            r.fit.r2 > 0.98,
            "log-linear fit should be tight: {}",
            r.fit.r2
        );
        // The list total historically doubles roughly every year.
        assert!(
            (0.8..1.5).contains(&r.doubling_time_years),
            "doubling {} years",
            r.doubling_time_years
        );
    }

    #[test]
    fn exaflop_projection_matches_paper() {
        // "In order to break the exaflops barrier by the projected year
        // of 2018" — the sum-trend crossing should land 2017–2020.
        let r = fit_trend(&history(), Series::Sum);
        assert!(
            (2016.0..2021.0).contains(&r.exaflop_year),
            "projected {}",
            r.exaflop_year
        );
        // The #1-system trend crosses a little later.
        let r1 = fit_trend(&history(), Series::First);
        assert!(
            (2016.0..2023.0).contains(&r1.exaflop_year),
            "#1 projected {}",
            r1.exaflop_year
        );
    }

    #[test]
    fn factor_25_improvement_needed() {
        assert!((required_improvement_factor() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn slot_decomposition_is_bit_identical_to_direct_fits() {
        for series in all_series() {
            let direct = trend_stream(&fit_trend(&history(), series));
            let slot = measure_series(series);
            assert_eq!(slot.len(), 5);
            for (a, b) in slot.iter().zip(&direct) {
                assert_eq!(a.to_bits(), b.to_bits(), "{}", series_label(series));
            }
        }
    }
}
