//! The `validate`-feature smoke run — the dynamic half of mb-check's
//! acceptance gate (`cargo test -p montblanc --features validate`):
//!
//! 1. Figure 3/5/7 and Table II quick configs complete with the model's
//!    invariant asserts armed *and* reproduce the exact bit patterns
//!    pinned by the normal build (`montblanc::pins` and
//!    `tests/common/digest.rs`) — the
//!    sanitizer observes, never perturbs.
//! 2. A real generated cluster trace (Figure 4) passes every `.prv`
//!    invariant in `mb_trace::validate`.
//! 3. The membench kernel runs under [`ValidatingExec`] with its array
//!    declared as a region: zero violations, and a report bit-identical
//!    to the bare [`ModelExec`] run.

#![cfg(feature = "validate")]

#[path = "common/digest.rs"]
mod digest;

use mb_cpu::exec_model::ModelExec;
use mb_cpu::validate::ValidatingExec;
use mb_kernels::membench::{self, MembenchConfig};
use mb_trace::validate::trace_violations;
use montblanc::{fig4, pins};

#[test]
fn figures_run_bit_identical_under_validation() {
    // Identical pins to figure_digests.rs in the normal build: a pass
    // here under --features validate proves bit-identity across builds.
    assert_eq!(digest::fig3_quick(), pins::FIG3_QUICK_DIGEST);
    assert_eq!(digest::fig5_quick(), pins::FIG5_QUICK_DIGEST);
    assert_eq!(digest::fig7_quick(), pins::FIG7_QUICK_DIGEST);
    assert_eq!(digest::table2_quick(), pins::TABLE2_QUICK_DIGEST);
    assert_eq!(
        digest::fig3_faulted_quick(),
        pins::FIG3_FAULTED_QUICK_DIGEST
    );
    assert_eq!(
        digest::fig3_faulted_quick_joules().to_bits(),
        digest::FIG3_FAULTED_QUICK_JOULES_BITS
    );
    assert_eq!(digest::fig4_quick(), digest::FIG4_QUICK_DIGEST);
    assert_eq!(digest::ablation_quick(), digest::ABLATION_QUICK_DIGEST);
}

#[test]
fn paper_grids_run_bit_identical_under_validation() {
    // Same pins as figure_digests.rs for the full paper() grids — the
    // sanitizer build must reproduce the published figures bit for bit.
    assert_eq!(digest::fig3_paper(), pins::FIG3_PAPER_DIGEST);
    assert_eq!(
        digest::fig3_faulted_paper(),
        pins::FIG3_FAULTED_PAPER_DIGEST
    );
    assert_eq!(digest::fig5_paper(), pins::FIG5_PAPER_DIGEST);
    assert_eq!(digest::fig7_paper(), pins::FIG7_PAPER_DIGEST);
    assert_eq!(digest::table2_paper(), pins::TABLE2_PAPER_DIGEST);
}

#[test]
fn specfem_calibration_runs_once_per_process() {
    // The Tegra2 GFLOPS calibration is a pure deterministic measurement;
    // slot measurers and the assemble folds must share one cached result. The
    // counter only exists under the validate feature.
    let a = montblanc::fig3::tegra2_effective_gflops();
    let b = montblanc::fig3::tegra2_effective_gflops();
    assert_eq!(a.to_bits(), b.to_bits());
    assert_eq!(montblanc::fig3::tegra2_calibration_count(), 1);
}

#[test]
fn generated_cluster_trace_is_well_formed() {
    let report = fig4::run(&fig4::Fig4Config::quick());
    let violations = trace_violations(&report.trace);
    assert!(violations.is_empty(), "{violations:#?}");
    assert!(!report.trace.states().is_empty());
    assert!(report.alltoallv_total() > 0);
}

#[test]
fn membench_under_validating_exec_is_clean_and_identical() {
    let cfg = MembenchConfig::figure5(64 * 1024);
    let data = vec![7u8; cfg.array_bytes];

    let mut bare = ModelExec::snowball();
    let (accesses, checksum) = membench::run(&cfg, &data, &mut bare);
    let bare_report = bare.finish();

    let mut wrapped = ValidatingExec::new(ModelExec::snowball());
    wrapped.declare_region("membench array", 0, cfg.array_bytes as u64);
    let (v_accesses, v_checksum) = membench::run(&cfg, &data, &mut wrapped);
    let wrapped_report = wrapped.finish();
    wrapped.assert_clean();

    assert_eq!((accesses, checksum), (v_accesses, v_checksum));
    assert_eq!(bare_report, wrapped_report);
}

#[test]
fn validating_exec_catches_a_wild_access() {
    let cfg = MembenchConfig::figure5(16 * 1024);
    let data = vec![1u8; cfg.array_bytes];
    let mut wrapped = ValidatingExec::new(ModelExec::snowball());
    // Deliberately declare a region smaller than the array walked.
    wrapped.declare_region("half the array", 0, cfg.array_bytes as u64 / 2);
    membench::run(&cfg, &data, &mut wrapped);
    assert!(!wrapped.violations().is_empty());
    assert!(wrapped.violations()[0].contains("outside every declared region"));
}
