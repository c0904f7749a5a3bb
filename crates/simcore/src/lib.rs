//! # mb-simcore — simulation primitives
//!
//! Foundation crate of the Mont-Blanc DATE'13 reproduction. Every simulator
//! in the workspace (caches, CPU cost models, Ethernet switches, the MPI
//! runtime, the OS schedulers) is built on the primitives defined here:
//!
//! * [`time`] — simulated time ([`SimTime`]), durations, cycles and
//!   frequencies, with checked conversions between the cycle and wall-clock
//!   domains.
//! * [`rng`] — seedable, dependency-free pseudo-random generators
//!   (SplitMix64 and xoshiro256++) so that *every* experiment in the
//!   workspace is reproducible bit-for-bit.
//! * [`stats`] — online statistics (Welford), confidence intervals,
//!   histograms, percentiles and least-squares fits used by the analysis
//!   and reporting layers.
//! * [`json`] — the JSON string writer every hand-rolled report uses.
//! * [`error`] — the typed [`MbError`] taxonomy for *recoverable*
//!   failures (dropped messages, timeouts, crashed ranks) so library
//!   crates reserve panics for genuine contract violations.
//! * [`par`] — deterministic parallel sweep execution: scoped worker
//!   pools whose results are bit-identical to a serial run, because tasks
//!   are pure functions of their own inputs and results are reduced in
//!   input order.
//! * [`plan`] — randomised measurement plans. Section V.A.1 of the paper
//!   shows that benchmarks on the ARM boards must be "thoroughly randomized
//!   to avoid experimental bias"; [`plan::MeasurementPlan`] is that
//!   randomisation, factored out as a reusable component.
//!
//! # Examples
//!
//! ```
//! use mb_simcore::time::{Frequency, SimTime};
//!
//! let f = Frequency::from_mhz(1000);          // the Snowball's Cortex-A9
//! let t = f.cycles_to_time(1_000_000);        // 1e6 cycles @ 1 GHz
//! assert_eq!(t, SimTime::from_millis(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod json;
pub mod par;
pub mod plan;
pub mod rng;
pub mod stats;
pub mod time;

pub use error::{MbError, MbResult};
pub use plan::MeasurementPlan;
pub use rng::{Rng, SplitMix64, Xoshiro256};
pub use stats::{Histogram, LinearFit, OnlineStats, Summary};
pub use time::{Cycles, Frequency, SimTime};
