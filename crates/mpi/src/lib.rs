//! # mb-mpi — a simulated message-passing runtime
//!
//! The paper's applications are MPI codes; their scaling behaviour on
//! Tibidabo (Figure 3) and the `all_to_all_v` pathology (Figure 4) are
//! properties of *communication patterns meeting a congested fabric*.
//! This crate provides the runtime those patterns run on:
//!
//! * [`comm::Comm`] — a communicator mapping ranks onto fabric hosts
//!   (two ranks per Tegra2 node on Tibidabo), with per-rank simulated
//!   clocks;
//! * point-to-point sends with eager-protocol semantics and per-message
//!   software overhead;
//! * collectives: `barrier`, `bcast` (binomial tree), `reduce`,
//!   `allreduce`, `alltoall` and `alltoallv` (linear exchange,
//!   the algorithm whose congestion Figure 4 exposes);
//! * optional tracing: every message becomes an `mb-trace`
//!   [`mb_trace::record::CommRecord`], collectives tagged with an op id,
//!   compute phases recorded as states — ready for the Figure 4 analysis;
//! * fault tolerance ([`resilience`]): every communicator runs one
//!   fault-aware path, and [`comm::Comm::resilient`] installs the
//!   `mb-faults` plan it reacts to (`Comm::new` installs the empty
//!   one) — dropped messages retransmit with
//!   bounded exponential backoff, crashed ranks drop out and collectives
//!   shrink to the survivors, every retry/timeout/crash emitted as a
//!   trace event so delay analysis can attribute stalls to faults.
//!
//! # Examples
//!
//! ```
//! use mb_mpi::comm::{Comm, CommConfig};
//! use mb_net::builders::tibidabo_fabric;
//! use mb_simcore::time::SimTime;
//!
//! // 8 ranks on 4 Tegra2 nodes (2 cores per node).
//! let mut comm = Comm::new(tibidabo_fabric(4), CommConfig::tibidabo(8));
//! for rank in 0..8 {
//!     comm.compute(rank, SimTime::from_micros(100));
//! }
//! comm.allreduce(8);
//! assert!(comm.max_clock() > SimTime::from_micros(100));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comm;
pub mod resilience;

pub use comm::{Comm, CommConfig};
pub use resilience::{ResilienceStats, RetryPolicy};
