//! Parallel/serial bit-identity for the paper experiments that fan out
//! over `mb_simcore::par` — the ISSUE's acceptance gate. Every report
//! type derives `PartialEq`, so equality here means *every* number in
//! the figure agrees bit for bit.

use mb_faults::FaultConfig;
use mb_simcore::par::{with_chaos, with_threads};
use montblanc::{ablation, fig3, fig5, fig7, table2};

#[test]
fn fig5_42_reps_parallel_matches_serial() {
    // The paper's 42 randomised repetitions per size (sizes trimmed to
    // keep the test fast; the repetition count is the part that
    // exercises the plan/anomaly/allocator sequencing).
    let cfg = fig5::Fig5Config {
        reps: 42,
        ..fig5::Fig5Config::quick()
    };
    let serial = with_threads(1, || fig5::run(&cfg));
    let parallel = with_threads(4, || fig5::run(&cfg));
    assert_eq!(serial, parallel);
    assert_eq!(serial.samples.len(), cfg.sizes.len() * 42);
}

#[test]
fn fig7_unroll_sweep_parallel_matches_serial() {
    let cfg = fig7::Fig7Config::quick();
    let serial = with_threads(1, || fig7::run(&cfg));
    let parallel = with_threads(4, || fig7::run(&cfg));
    assert_eq!(serial, parallel);
    assert_eq!(serial.nehalem.points.len(), cfg.max_unroll as usize);
}

#[test]
fn table2_parallel_matches_serial() {
    let cfg = table2::Table2Config::quick();
    let serial = with_threads(1, || table2::run(&cfg));
    let parallel = with_threads(4, || table2::run(&cfg));
    assert_eq!(serial, parallel);
}

#[test]
fn fig3_scaling_parallel_matches_serial() {
    // The healthy (no fault plan) scaling run; the faulted one is below.
    let cfg = fig3::Fig3Config::quick();
    let serial = with_threads(1, || fig3::run(&cfg));
    let parallel = with_threads(4, || fig3::run(&cfg));
    assert_eq!(serial, parallel);
}

#[test]
fn faulted_fig3_serial_parallel_chaos_identical() {
    // The ISSUE's resilience acceptance gate: a fault-injected Figure 3
    // run is a pure function of (seed, FaultConfig) — serial, parallel
    // and chaos-scheduled runs agree bit for bit, retries, crashes,
    // backoff waits and all.
    let cfg = fig3::Fig3Config {
        linpack_cores: vec![8, 32],
        specfem_cores: vec![4, 48],
        bigdft_cores: vec![4, 16],
        iterations: 2,
    };
    let faults = FaultConfig::light();
    let serial = with_threads(1, || fig3::run_faulted(&cfg, faults));
    let parallel = with_threads(4, || fig3::run_faulted(&cfg, faults));
    let chaos = with_threads(4, || {
        with_chaos(0xC4A05, || fig3::run_faulted(&cfg, faults))
    });
    assert_eq!(serial, parallel);
    assert_eq!(serial, chaos);
    // And the faults really fired: degraded, not silently fault-free.
    let total = serial.total_stats();
    assert!(
        total.retries > 0 || total.crashed_ranks > 0,
        "light fault plan should cause visible degradation: {total:?}"
    );
}

#[test]
fn switch_ablation_parallel_matches_serial() {
    let serial = with_threads(1, || ablation::switch_upgrade(&[8, 16], 2));
    let parallel = with_threads(4, || ablation::switch_upgrade(&[8, 16], 2));
    assert_eq!(serial, parallel);
}
