//! # mb-energy — power and energy accounting
//!
//! The paper's Table II compares the Snowball and the Xeon not just on
//! speed but on **energy to solution**, using nameplate power figures:
//! "The results assume a full 2.5 W power consumption for the Snowball
//! board, while only 95 W of power (the TDP of the Xeon) are accounted
//! for" (§III.C). This crate reproduces exactly that accounting:
//!
//! * [`Power`] / [`Energy`] — watt and joule newtypes with the obvious
//!   arithmetic;
//! * [`PowerModel`] — nameplate models of the paper's platforms;
//! * [`energy_ratio`] — Table II's *Energy Ratio* column: the energy the
//!   embedded platform needs relative to the server platform;
//! * [`gflops_per_watt`] and [`required_gflops_per_watt`] — the
//!   Green500-style metrics of the introduction (an exaflop in 20 MW
//!   needs 50 GFLOPS/W).
//!
//! # Examples
//!
//! ```
//! use mb_energy::{energy_ratio, PowerModel};
//!
//! // Table II, LINPACK row: Snowball is 38.7× slower but 38× cheaper in
//! // power, so the energy ratio is ≈ 1.0.
//! let r = energy_ratio(
//!     38.7,
//!     PowerModel::snowball().nameplate(),
//!     PowerModel::xeon_x5550().nameplate(),
//! );
//! assert!((r - 1.02).abs() < 0.01);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mb_simcore::time::SimTime;
use std::fmt;
use std::ops::{Add, AddAssign};

/// Electrical power in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Power(f64);

impl Power {
    /// Creates a power from watts.
    ///
    /// # Panics
    ///
    /// Panics if `watts` is negative or non-finite.
    pub fn from_watts(watts: f64) -> Self {
        assert!(watts.is_finite() && watts >= 0.0, "power must be >= 0");
        Power(watts)
    }

    /// The value in watts.
    pub fn watts(self) -> f64 {
        self.0
    }

    /// Energy dissipated over a duration.
    pub fn over(self, t: SimTime) -> Energy {
        Energy::from_joules(self.0 * t.as_secs_f64())
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} W", self.0)
    }
}

impl Add for Power {
    type Output = Power;
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}

/// Energy in joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(f64);

impl Energy {
    /// Creates an energy from joules.
    ///
    /// # Panics
    ///
    /// Panics if `joules` is negative or non-finite.
    pub fn from_joules(joules: f64) -> Self {
        assert!(joules.is_finite() && joules >= 0.0, "energy must be >= 0");
        Energy(joules)
    }

    /// The value in joules.
    pub fn joules(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1000.0 {
            write!(f, "{:.2} kJ", self.0 / 1000.0)
        } else {
            write!(f, "{:.2} J", self.0)
        }
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

/// A platform's nameplate power model, after §III.C of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    name: String,
    nameplate: Power,
}

impl PowerModel {
    /// Creates a model.
    pub fn new(name: impl Into<String>, nameplate: Power) -> Self {
        PowerModel {
            name: name.into(),
            nameplate,
        }
    }

    /// The Snowball board: the paper assumes the full 2.5 W USB power
    /// budget — deliberately conservative (unfavourable to ARM).
    pub fn snowball() -> Self {
        PowerModel::new("Snowball (A9500 board)", Power::from_watts(2.5))
    }

    /// The Xeon X5550: its 95 W TDP, with the rest of the server
    /// (DRAM, board, PSU) deliberately **not** accounted — conservative
    /// in the x86 platform's favour.
    pub fn xeon_x5550() -> Self {
        PowerModel::new("Xeon X5550 (TDP only)", Power::from_watts(95.0))
    }

    /// A Tibidabo Tegra2 node including its 1 GbE NIC (the paper gives
    /// no number; ~8.5 W is BSC's published per-node figure).
    pub fn tegra2_node() -> Self {
        PowerModel::new("Tegra2 node (Tibidabo)", Power::from_watts(8.5))
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Nameplate power.
    pub fn nameplate(&self) -> Power {
        self.nameplate
    }

    /// Energy to run for `t` at nameplate power.
    pub fn energy_over(&self, t: SimTime) -> Energy {
        self.nameplate.over(t)
    }
}

/// Energy surcharge of the resilience machinery (`mb-mpi` retries and
/// timeouts) on a faulted run.
///
/// Time degradation is already charged through the longer makespan at
/// nameplate power; what that misses is the *extra wire activity*: every
/// retransmission re-serialises the message through the NIC and switch
/// port, and every exhausted retry budget burns its whole backoff window
/// with the link electrically active but useless. This model charges a
/// fixed energy per event, derived from the Tibidabo GbE numbers — it
/// deliberately mirrors the paper's nameplate style of accounting
/// (§III.C) rather than attempting per-byte microbilling.
#[derive(Debug, Clone, PartialEq)]
pub struct RetransmissionModel {
    /// Energy charged per retransmitted message.
    pub per_retry: Energy,
    /// Energy charged per message abandoned after exhausting its retry
    /// budget (the full backoff ladder was burnt).
    pub per_timeout: Energy,
}

impl RetransmissionModel {
    /// The Tibidabo commodity-GbE figures: a retransmitted HPC message
    /// (~64 KiB) occupies the wire for ~0.52 ms; NIC plus switch port
    /// draw ~2.3 W while serialising, giving ~1.2 mJ per retry. An
    /// exhausted retry budget burns the whole 8-attempt exponential
    /// backoff ladder, ~9.6 mJ.
    pub fn tibidabo_gbe() -> Self {
        RetransmissionModel {
            per_retry: Energy::from_joules(1.2e-3),
            per_timeout: Energy::from_joules(9.6e-3),
        }
    }

    /// Total surcharge for `retries` retransmissions and `timeouts`
    /// exhausted budgets.
    pub fn surcharge(&self, retries: u64, timeouts: u64) -> Energy {
        Energy::from_joules(
            self.per_retry.joules() * retries as f64 + self.per_timeout.joules() * timeouts as f64,
        )
    }
}

/// Table II's *Energy Ratio*: given a performance ratio
/// `slower_time / faster_time` (e.g. Snowball time over Xeon time) and
/// the two nameplate powers, how much energy does the slow platform use
/// relative to the fast one?
///
/// `energy_ratio = perf_ratio × P_slow / P_fast`
///
/// # Panics
///
/// Panics if `perf_ratio` is not positive or `fast_power` is zero.
pub fn energy_ratio(perf_ratio: f64, slow_power: Power, fast_power: Power) -> f64 {
    assert!(perf_ratio > 0.0, "performance ratio must be positive");
    assert!(fast_power.watts() > 0.0, "reference power must be non-zero");
    perf_ratio * slow_power.watts() / fast_power.watts()
}

/// Green500-style efficiency: GFLOPS per watt.
///
/// # Panics
///
/// Panics if `power` is zero.
pub fn gflops_per_watt(gflops: f64, power: Power) -> f64 {
    assert!(power.watts() > 0.0, "power must be non-zero");
    gflops / power.watts()
}

/// The introduction's exascale arithmetic: the efficiency (GFLOPS/W)
/// needed to reach `target_gflops` within `budget`.
///
/// # Panics
///
/// Panics if the budget is zero.
///
/// # Examples
///
/// ```
/// use mb_energy::{required_gflops_per_watt, Power};
/// // An exaflop (1e9 GFLOPS) in 20 MW needs 50 GFLOPS/W (§I).
/// let need = required_gflops_per_watt(1e9, Power::from_watts(20e6));
/// assert!((need - 50.0).abs() < 1e-9);
/// ```
pub fn required_gflops_per_watt(target_gflops: f64, budget: Power) -> f64 {
    assert!(budget.watts() > 0.0, "power budget must be non-zero");
    target_gflops / budget.watts()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_energy_arithmetic() {
        let p = Power::from_watts(2.5);
        let e = p.over(SimTime::from_secs(100));
        assert!((e.joules() - 250.0).abs() < 1e-9);
        let sum = e + Energy::from_joules(50.0);
        assert!((sum.joules() - 300.0).abs() < 1e-9);
        assert!((Power::from_watts(1.0) + Power::from_watts(2.0)).watts() == 3.0);
        let mut acc = Energy::default();
        acc += e;
        assert_eq!(acc, e);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Power::from_watts(95.0).to_string(), "95.00 W");
        assert_eq!(Energy::from_joules(2500.0).to_string(), "2.50 kJ");
        assert_eq!(Energy::from_joules(42.0).to_string(), "42.00 J");
    }

    #[test]
    fn table2_energy_ratios_reproduce() {
        // (benchmark, perf ratio, paper's energy ratio)
        let rows = [
            ("LINPACK", 38.7, 1.0),
            ("CoreMark", 7.1, 0.2),
            ("StockFish", 20.2, 0.5),
            ("SPECFEM3D", 7.9, 0.2),
            ("BigDFT", 23.2, 0.6),
        ];
        let snow = PowerModel::snowball().nameplate();
        let xeon = PowerModel::xeon_x5550().nameplate();
        for (name, perf, expect) in rows {
            let r = energy_ratio(perf, snow, xeon);
            assert!(
                (r - expect).abs() < 0.06,
                "{name}: computed {r:.3}, paper {expect}"
            );
        }
    }

    #[test]
    fn energy_to_solution_comparison() {
        // SPECFEM3D row: 186.8 s on Snowball vs 23.5 s on Xeon.
        let e_snow = PowerModel::snowball().energy_over(SimTime::from_secs_f64(186.8));
        let e_xeon = PowerModel::xeon_x5550().energy_over(SimTime::from_secs_f64(23.5));
        let ratio = e_snow.joules() / e_xeon.joules();
        assert!((ratio - 0.21).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn exascale_requirement() {
        let need = required_gflops_per_watt(1e9, Power::from_watts(20e6));
        assert!((need - 50.0).abs() < 1e-9);
        // Today's (2012) best ≈ 2 GFLOPS/W → a factor of 25 improvement
        // is required, as the paper states.
        assert!((need / 2.0 - 25.0).abs() < 1e-9);
    }

    #[test]
    fn retransmission_surcharge_scales_with_counters() {
        let m = RetransmissionModel::tibidabo_gbe();
        assert_eq!(m.surcharge(0, 0), Energy::from_joules(0.0));
        let light = m.surcharge(100, 0);
        assert!((light.joules() - 0.12).abs() < 1e-12);
        let heavy = m.surcharge(100, 10);
        assert!(heavy > light, "timeouts must add energy");
        assert!((heavy.joules() - (0.12 + 0.096)).abs() < 1e-12);
        // A timeout (a whole backoff ladder) costs more than one retry.
        assert!(m.per_timeout > m.per_retry);
    }

    #[test]
    #[should_panic(expected = "power must be >= 0")]
    fn negative_power_panics() {
        let _ = Power::from_watts(-1.0);
    }
}
