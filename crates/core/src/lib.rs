//! # montblanc — Performance Analysis of HPC Applications on Low-Power Embedded Platforms
//!
//! A from-scratch Rust reproduction of **Stanisic et al., DATE 2013**
//! (the Mont-Blanc project's early performance study). The paper measured
//! real hardware — Snowball A9500 boards, a Xeon X5550, the Tibidabo
//! Tegra2 cluster; this crate drives the workspace's *simulated*
//! equivalents through the paper's exact experiments:
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`top500`] | Figure 1 — TOP500 exponential growth + exaflop projection |
//! | [`apps`] | Table I — the eleven selected Mont-Blanc applications |
//! | [`platform`] | Figure 2 — the platform presets and their topologies |
//! | [`table2`] | Table II — single-node performance & energy comparison |
//! | [`fig3`] | Figure 3 — strong scaling of LINPACK / SPECFEM3D / BigDFT on Tibidabo |
//! | [`fig4`] | Figure 4 — BigDFT's delayed `all_to_all_v` collectives |
//! | [`fig5`] | Figure 5 — the real-time-scheduling bandwidth anomaly |
//! | [`fig6`] | Figure 6 — element size × loop unrolling on both machines |
//! | [`fig7`] | Figure 7 — magicfilter auto-tuning (cycles & cache accesses vs unroll) |
//!
//! Every experiment type has a `quick()` configuration (seconds, used in
//! tests) and a `paper()` configuration (the full parameter grid, used by
//! the `mb-bench` binaries).
//!
//! Figures 1, 3, 5 and 7 and Table II are each a [`sweep::Sweep`]: a
//! slot measurer plus the fold of its payloads into the figure's
//! report. The figure's in-process `run` is [`sweep::run`] over it, and
//! the `mb-lab` campaigns drive the same measurer slot by slot through
//! a journal. Their pinned digests live once, in [`pins`].
//!
//! # Examples
//!
//! ```
//! use montblanc::platform::Platform;
//!
//! let snowball = Platform::snowball();
//! let xeon = Platform::xeon_x5550();
//! // The paper's headline peak-performance asymmetry.
//! assert!(xeon.peak_gflops_f64() > 20.0 * snowball.peak_gflops_f64());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod apps;
pub mod csv;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod pins;
pub mod platform;
pub mod report;
pub mod sec5a;
pub mod sec6;
pub mod sweep;
pub mod table2;
pub mod top500;

pub use platform::Platform;
