//! # mb-tuner — auto-tuning framework
//!
//! Section V.B of the paper: HPC codes are hand-optimised for one
//! platform, and those choices must be "seriously revisited when changing
//! for a radically different architecture [...] such tuning process will
//! have to be fully automated". This crate is that automation:
//!
//! * [`space`] — discrete parameter spaces (e.g. unroll degree 1..=12,
//!   element size {32, 64, 128}, unrolled {no, yes});
//! * [`search`] — search strategies over a space: exhaustive, and
//!   hill climbing deterministic from a seed;
//! * [`analysis`] — the Figure 7 post-processing: locate the optimum,
//!   extract the *sweet-spot range* (the contiguous region within a
//!   tolerance of the best), and detect the "staircase" jumps the paper
//!   sees in the cache-access counter.
//!
//! Section VI.B's two auto-tuning levels map directly onto usage:
//! *platform-specific* (static) tuning runs a search once per machine
//! model; *instance-specific* tuning re-runs it per problem size.
//!
//! # Examples
//!
//! ```
//! use mb_tuner::space::ParameterSpace;
//! use mb_tuner::search::{ExhaustiveSearch, Tuner};
//!
//! // Tune a quadratic with minimum at x = 7.
//! let space = ParameterSpace::new().with_parameter("x", (1..=12).collect::<Vec<i64>>());
//! let result = ExhaustiveSearch::new().tune(&space, |p| {
//!     let x = space.value("x", p) as f64;
//!     (x - 7.0).powi(2)
//! });
//! assert_eq!(space.value("x", &result.best_point), 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod search;
pub mod space;

pub use analysis::{staircase_steps, sweet_spot, SweetSpot};
pub use search::{ExhaustiveSearch, HillClimb, TuneResult, Tuner};
pub use space::{ParameterSpace, Point};
