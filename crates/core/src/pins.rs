//! The pinned digests of the figure campaigns, and the fold behind
//! them.
//!
//! A digest folds a figure's value stream (its report's
//! `digest_stream`) into one order-sensitive 64-bit word through every
//! value's bits, so any change in any bit of any value moves it. The
//! figure tests pin each figure's in-process run to these constants,
//! and the `mb-lab` registry pins each campaign's journaled fold to the
//! same constant, so the two can never disagree. A change that moves a
//! pin must say why and re-pin here.

/// Folds a value stream into the workspace's order-sensitive 64-bit
/// digest.
pub fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    values
        .into_iter()
        .fold(0u64, |h, v| h.rotate_left(7) ^ v.to_bits())
}

/// Figure 3 on the quick grid: `[speedup, efficiency]` per point, then
/// the calibrated core rate.
pub const FIG3_QUICK_DIGEST: u64 = 0xd0d5_f716_d0b3_0356;
/// Figure 3 under `FaultConfig::light` on the quick grid, with every
/// point's resilience counters.
pub const FIG3_FAULTED_QUICK_DIGEST: u64 = 0x8ce8_a81a_59cb_2163;
/// Figure 5 on the quick grid: every bandwidth sample.
pub const FIG5_QUICK_DIGEST: u64 = 0x206e_118a_c499_7a4c;
/// Figure 7 on the quick grid: both unroll panels.
pub const FIG7_QUICK_DIGEST: u64 = 0xa5a1_d292_2006_e451;
/// Extended Table II on the quick config: every row's ratio columns.
pub const TABLE2_QUICK_DIGEST: u64 = 0xe2a5_d2bf_61fb_fbcf;
/// Figure 3 over the full paper grid.
pub const FIG3_PAPER_DIGEST: u64 = 0x622e_3c14_cb8e_59b9;
/// Figure 3 under `FaultConfig::light` over the full paper grid.
pub const FIG3_FAULTED_PAPER_DIGEST: u64 = 0x7c65_dc30_f714_ac45;
/// Figure 5 over the paper grid's 2 100 RT-anomaly samples.
pub const FIG5_PAPER_DIGEST: u64 = 0xc49f_00d6_ca0a_c4ad;
/// Figure 7 over the paper grid.
pub const FIG7_PAPER_DIGEST: u64 = 0x9080_737c_78a9_66c3;
/// Extended Table II on the paper config.
pub const TABLE2_PAPER_DIGEST: u64 = 0x8bd9_f1e8_0879_d505;
/// Figure 1's TOP500 trend fits: `[slope, intercept, r2,
/// doubling_time_years, exaflop_year]` per series.
pub const TOP500_TRENDS_DIGEST: u64 = 0xe0c5_c859_2a9b_23ef;
