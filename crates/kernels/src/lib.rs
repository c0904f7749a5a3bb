//! # mb-kernels — real, instrumented HPC kernels
//!
//! The programs the paper measures, reimplemented from scratch in Rust.
//! Every kernel **computes a verifiable result** (an LU solve really
//! solves its system, the chess engine really searches legal positions,
//! the wave propagator conserves energy, the magicfilter matches a naive
//! convolution) *and* reports its operations to an
//! [`mb_cpu::ops::Exec`] sink, so the same code runs at native speed
//! under [`mb_cpu::ops::NullExec`] and is costed on the simulated
//! Snowball / Xeon / Tegra2 machines for the paper's tables and figures.
//!
//! | Module | Paper benchmark | Role |
//! |---|---|---|
//! | [`linpack`] | LINPACK | dense LU + solve, MFLOPS (Table II, Fig 3a) |
//! | [`coremark`] | CoreMark | embedded-style integer suite, ops/s (Table II) |
//! | [`chess`] | StockFish | alpha-beta chess search, nodes/s (Table II) |
//! | [`specfem`] | SPECFEM3D | spectral-element wave propagation (Table II, Fig 3b) |
//! | [`magicfilter`] | BigDFT | Daubechies magicfilter convolution (Table II, Fig 3c, Fig 7) |
//! | [`membench`] | Tikir et al. kernel | stride/array microbenchmark (Figs 5, 6) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chess;
pub mod coremark;
pub mod linpack;
pub mod linpack_blocked;
pub mod magicfilter;
pub mod membench;
pub mod protein;
pub mod specfem;
