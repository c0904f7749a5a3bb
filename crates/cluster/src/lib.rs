//! # mb-cluster — cluster composition and strong-scaling studies
//!
//! Section IV runs strong-scaling experiments on Tibidabo. This crate
//! provides the pieces those experiments need on top of the fabric
//! (`mb-net`) and the message-passing runtime (`mb-mpi`):
//!
//! * [`workload`] — communication/computation skeletons of the three
//!   applications, with per-iteration phases derived from the real
//!   kernels' operation counts: HPL/LINPACK (panel broadcast + trailing
//!   update), SPECFEM (halo exchange + element kernel), BigDFT
//!   (`all_to_all_v` transposition + convolution);
//! * [`scaling`] — the strong-scaling runner: executes a workload
//!   skeleton at one core count on a chosen fabric, optionally tracing
//!   for the Figure 4 analysis, and folds per-point times into a series
//!   of speedups and parallel efficiencies (Figure 3). With
//!   [`scaling::ScalingStudy::with_faults`] each point replays a
//!   deterministic `mb-faults` plan,
//!   [`scaling::ScalingStudy::execute_outcome`] reports how degraded the
//!   run was, and [`scaling::ResilientSeries`] keeps points that died
//!   apart from the degraded-but-completed ones.
//!
//! # Examples
//!
//! ```
//! use mb_cluster::scaling::{FabricKind, ScalingPoint, ScalingSeries, ScalingStudy};
//! use mb_cluster::workload::Workload;
//!
//! let study = ScalingStudy::new(FabricKind::Tibidabo);
//! let w = Workload::specfem_tibidabo().with_iterations(4);
//! let points = [4, 8, 16]
//!     .map(|cores| ScalingPoint::measured(cores, study.execute(&w, cores, false).0));
//! let series = ScalingSeries::new(w.name.clone(), points.to_vec());
//! assert_eq!(series.baseline_cores, 4);
//! // Speedup grows with cores.
//! assert!(series.points[2].speedup > series.points[0].speedup);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scaling;
pub mod workload;

pub use scaling::{
    FabricKind, ResilientPoint, ResilientSeries, ScalingOutcome, ScalingPoint, ScalingSeries,
    ScalingStudy,
};
pub use workload::{CommPattern, Phase, Workload};
