//! # mb-cpu — CPU cost models and kernel instrumentation
//!
//! The paper compares an out-of-order x86 server core (Nehalem, Xeon
//! X5550) against an in-order embedded core (ARM Cortex-A9, in the
//! Snowball's A9500 and Tibidabo's Tegra2). We have neither machine, so
//! this crate provides the substitute: a **spec-driven cost model** that
//! converts the *operation stream* of a real Rust kernel into cycles on
//! either core.
//!
//! The pieces:
//!
//! * [`ops`] — the architecture-neutral operation vocabulary and the
//!   [`ops::Exec`] sink trait kernels are written against. A kernel
//!   generic over `E: Exec` runs at native speed with [`ops::NullExec`],
//!   counts operations with [`ops::CountingExec`], and is costed on a
//!   machine with [`exec_model::ModelExec`].
//! * [`arch`] — [`arch::CoreModel`]: issue widths, floating-point and SIMD
//!   throughputs, in-order vs out-of-order overlap, memory-level
//!   parallelism, branch prediction. Presets for Nehalem, Cortex-A9
//!   (Snowball and Tegra2 flavours) and the prospective Exynos 5.
//! * [`counters`] — PAPI-style counter sets ([`counters::CounterSet`]),
//!   the interface the paper's auto-tuning study (Figure 7) reads.
//! * [`exec_model`] — the [`exec_model::ModelExec`] sink wiring a
//!   [`arch::CoreModel`] to an [`mb_mem::hierarchy::Hierarchy`] and a TLB,
//!   with optional sampling so large kernels stay cheap to cost.
//!
//! # Examples
//!
//! ```
//! use mb_cpu::arch::CoreModel;
//! use mb_cpu::exec_model::ModelExec;
//! use mb_cpu::ops::{Exec, FlopKind, Precision};
//!
//! // A dot product, written once, costed on the Snowball's Cortex-A9.
//! fn dot<E: Exec>(a: &[f64], b: &[f64], e: &mut E) -> f64 {
//!     let mut acc = 0.0;
//!     for i in 0..a.len() {
//!         e.load(a.as_ptr() as u64 + (i * 8) as u64, 8);
//!         e.load(b.as_ptr() as u64 + (i * 8) as u64, 8);
//!         e.flop(FlopKind::Fma, Precision::F64, 1);
//!         acc += a[i] * b[i];
//!     }
//!     acc
//! }
//!
//! let a = vec![1.0; 256];
//! let b = vec![2.0; 256];
//! let mut exec = ModelExec::snowball();
//! let r = dot(&a, &b, &mut exec);
//! assert_eq!(r, 512.0);
//! let report = exec.finish();
//! assert!(report.cycles.get() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod counters;
pub mod exec_model;
pub mod gpu;
pub mod ops;
#[cfg(feature = "validate")]
pub mod validate;

pub use arch::{CoreModel, Overlap};
pub use counters::{Counter, CounterSet};
pub use exec_model::{ExecReport, ModelExec};
pub use gpu::GpuModel;
pub use ops::{CountingExec, Exec, Flop, FlopKind, NullExec, OpCounts, Precision, Stream};
#[cfg(feature = "validate")]
pub use validate::{Region, ValidatingExec};
