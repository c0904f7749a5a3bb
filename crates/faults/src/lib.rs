//! # mb-faults — deterministic fault injection
//!
//! The paper's most interesting results are failure stories: BigDFT's
//! `all_to_all_v` collapsing under switch congestion (Fig 4), the
//! RT-throttling anomaly silently corrupting measurements (Fig 5). Real
//! low-power clusters are defined by partial failure — flaky links,
//! oversubscribed switch buffers, throttled boards, dead nodes — so this
//! crate makes failure a first-class, *seeded* input to every
//! experiment.
//!
//! A [`FaultPlan`] is generated up front from `(seed, FaultConfig,
//! Topology)` — a pure function, so the same inputs always give the
//! same plan — and then threaded through the
//! stack: `mb-net` consults it per hop (link downtime/degradation,
//! switch drop windows), `mb-mpi` consults it per operation (rank
//! crashes, straggler slowdowns) and reacts with bounded
//! retry/backoff, and `mb-cluster` reports degraded-but-completed runs.
//! Because the plan is immutable data and every consumer is itself
//! deterministic, a faulted experiment replays bit-identically at any
//! worker count. A hand-written scenario lists its faults by element
//! index instead ([`FaultPlan::from_faults`]).
//!
//! There is one path, and the zero-fault case is that path with an
//! empty plan: [`FaultConfig::none`] generates no faults, and every
//! query on an empty plan answers "healthy" — a drop probability of
//! `0.0` (so no RNG draw), factors of exactly `1.0` (so no float
//! round-trip), no crash — so unfaulted digests are unchanged.
//!
//! # Examples
//!
//! ```
//! use mb_faults::{FaultConfig, FaultPlan, Topology};
//!
//! let topo = Topology { links: 64, switches: 2, hosts: 32, ranks: 64 };
//! let plan = FaultPlan::generate(0xFA017, &FaultConfig::light(), &topo);
//! // Replay is bit-identical: the plan is a pure function of its inputs.
//! assert_eq!(plan, FaultPlan::generate(0xFA017, &FaultConfig::light(), &topo));
//! // Zero-fault configs yield empty plans — the healthy run.
//! assert!(FaultPlan::generate(0xFA017, &FaultConfig::none(), &topo).is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod fault;
pub mod plan;

pub use config::FaultConfig;
pub use fault::{Fault, FaultWindow, Topology};
pub use plan::FaultPlan;
