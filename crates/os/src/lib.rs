//! # mb-os — operating-system models
//!
//! Section V.A of the paper shows that on the ARM boards the *operating
//! system* is a first-order performance factor: physical page allocation
//! changes cache behaviour (modelled in `mb-mem`), and — surprisingly —
//! **real-time scheduling** produces bimodal, degraded bandwidth
//! (Figure 5). This crate models the scheduling half:
//! [`rt_anomaly`], the Figure 5 pathology — a perturbation model in
//! which the RT scheduler enters a *degraded mode* for a contiguous
//! window of measurements, slowing them ~5×.
//!
//! # Examples
//!
//! ```
//! use mb_os::rt_anomaly::RtAnomalyModel;
//!
//! // 2100 measurements (Figure 5: 42 reps × 50 sizes); the degraded
//! // window is contiguous, exactly as the sequence plot shows.
//! let model = RtAnomalyModel::new(2100, 0.25, 5.0, 42);
//! let degraded: Vec<bool> = (0..2100).map(|i| model.is_degraded(i)).collect();
//! let first = degraded.iter().position(|&d| d).expect("window is non-empty");
//! let last = degraded.iter().rposition(|&d| d).expect("window is non-empty");
//! assert!(degraded[first..=last].iter().all(|&d| d), "contiguous");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rt_anomaly;

pub use rt_anomaly::RtAnomalyModel;
