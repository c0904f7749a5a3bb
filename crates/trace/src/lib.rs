//! # mb-trace — Paraver-like tracing and trace analysis
//!
//! The paper diagnoses BigDFT's scaling collapse by instrumenting the code
//! (Extrae-style) and inspecting the trace in Paraver (Figure 4): the
//! `all_to_all_v` collectives that should be short are *sometimes long and
//! delayed*, implicating the Ethernet switches. This crate provides the
//! substitute tooling:
//!
//! * [`record`] — trace record types: per-rank **states** (compute /
//!   communicate / wait), point **events**, and **communications** with
//!   matching send/receive times and an optional collective id;
//! * [`trace`] — the [`trace::Trace`] container and builder;
//! * [`writer`] — a Paraver-`.prv`-style text encoder;
//! * [`analysis`] — the Figure 4 analysis: group communications by
//!   collective, compare durations against the median, and flag
//!   **delayed collectives**; plus an ASCII Gantt renderer.
//!
//! # Examples
//!
//! ```
//! use mb_trace::record::StateKind;
//! use mb_trace::trace::Trace;
//! use mb_simcore::time::SimTime;
//!
//! let mut trace = Trace::new(2);
//! trace.push_state(0, SimTime::ZERO, SimTime::from_micros(10), StateKind::Compute);
//! trace.push_state(1, SimTime::ZERO, SimTime::from_micros(8), StateKind::Compute);
//! assert_eq!(trace.num_ranks(), 2);
//! assert_eq!(trace.states().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod reader;
pub mod record;
pub mod trace;
pub mod validate;
pub mod writer;

pub use analysis::{CollectiveReport, DelayAnalysis};
pub use reader::parse_prv;
pub use record::{CollectiveKind, CommRecord, EventRecord, StateKind, StateRecord};
pub use trace::Trace;
pub use validate::trace_violations;
pub use writer::write_prv;
