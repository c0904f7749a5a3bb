//! Bit-exact digests of the figure outputs, shared between the normal
//! test build (`figure_digests.rs`) and the `validate`-feature build
//! (`validate_smoke.rs`). Both assert the same pinned constants, so a
//! green run under `--features validate` *proves* the sanitizer build is
//! bit-identical to the unvalidated build. The campaign pins and the
//! fold live in `montblanc::pins`; the pins only these tests check are
//! here.

use mb_faults::FaultConfig;
use montblanc::pins::digest;
use montblanc::{ablation, fig3, fig4, fig5, fig7, table2};

/// Digest of Figure 3 quick-config output (all three scaling panels).
pub fn fig3_quick() -> u64 {
    digest(fig3::run(&fig3::Fig3Config::quick()).digest_stream())
}

/// Digest of Figure 3 over the full paper grid.
pub fn fig3_paper() -> u64 {
    digest(fig3::run(&fig3::Fig3Config::paper()).digest_stream())
}

/// Digest of the fault-injected Figure 3 quick run under
/// [`FaultConfig::light`]: every completed point's scaling numbers
/// *and* its resilience counters (retries, timeouts, skips, crashes,
/// survivors). Pinning this proves the whole fault pipeline — plan
/// generation, fabric fault windows, retry/backoff, crash degradation —
/// replays bit-identically at any worker count and in both builds.
pub fn fig3_faulted_quick() -> u64 {
    digest(fig3::run_faulted(&fig3::Fig3Config::quick(), FaultConfig::light()).digest_stream())
}

/// Digest of the fault-injected Figure 3 run over the full paper grid.
pub fn fig3_faulted_paper() -> u64 {
    digest(fig3::run_faulted(&fig3::Fig3Config::paper(), FaultConfig::light()).digest_stream())
}

/// Energy to solution of the fault-injected Figure 3 quick run, in
/// joules: nameplate node power over every point's degraded makespan
/// **plus** the retransmission surcharge for its retry/timeout
/// counters. Pinned as a single `f64` bit pattern — any drift in the
/// fault pipeline, the power model or the surcharge accounting moves
/// it.
pub fn fig3_faulted_quick_joules() -> f64 {
    fig3::run_faulted(&fig3::Fig3Config::quick(), FaultConfig::light())
        .total_energy()
        .joules()
}

/// Digest of the Figure 4 quick run: both makespans in ns, every
/// traced message's send and receive ns and bytes, in trace order, then
/// the `all_to_all_v` total and delayed counts. Pins the traced
/// transfer path and the delay analysis over it bit for bit.
pub fn fig4_quick() -> u64 {
    let r = fig4::run(&fig4::Fig4Config::quick());
    let ns = |t: mb_simcore::time::SimTime| t.as_nanos() as f64;
    digest(
        [ns(r.commodity_time), ns(r.upgraded_time)]
            .into_iter()
            .chain(
                r.trace
                    .comms()
                    .iter()
                    .flat_map(|c| [ns(c.send_time), ns(c.recv_time), c.bytes as f64]),
            )
            .chain([r.alltoallv_total() as f64, r.alltoallv_delayed() as f64]),
    )
}

/// Digest of the quick collective and switch-upgrade ablations: per
/// tree-vs-ring cell `[bytes, tree ns, ring ns]` for
/// `collective_algorithms(16, ..)` over the quick payloads, then per
/// row `[cores, commodity ns, bonded ns, upgraded ns]` for
/// `switch_upgrade(&[16, 36], 2)`.
pub fn ablation_quick() -> u64 {
    let ns = |t: mb_simcore::time::SimTime| t.as_nanos() as f64;
    let collectives = ablation::collective_algorithms(16, &[64, 64 * 1024, 4 << 20]);
    let upgrades = ablation::switch_upgrade(&[16, 36], 2);
    digest(
        collectives
            .iter()
            .flat_map(|a| a.cells.iter())
            .flat_map(|c| [c.bytes as f64, ns(c.tree), ns(c.ring)])
            .chain(upgrades.iter().flat_map(|r| {
                [
                    f64::from(r.cores),
                    ns(r.commodity),
                    ns(r.bonded),
                    ns(r.upgraded),
                ]
            })),
    )
}

/// Digest of Figure 5 quick-config output (every bandwidth sample).
pub fn fig5_quick() -> u64 {
    digest(fig5::run(&fig5::Fig5Config::quick()).digest_stream())
}

/// Digest of Figure 5 over the paper grid's 2 100 RT-anomaly samples.
pub fn fig5_paper() -> u64 {
    digest(fig5::run(&fig5::Fig5Config::paper()).digest_stream())
}

/// Digest of Figure 7 quick-config output (both unroll panels).
pub fn fig7_quick() -> u64 {
    digest(fig7::run(&fig7::Fig7Config::quick()).digest_stream())
}

/// Digest of Figure 7 over the paper grid.
pub fn fig7_paper() -> u64 {
    digest(fig7::run(&fig7::Fig7Config::paper()).digest_stream())
}

/// Digest of extended Table II quick-config output (all ratio columns).
pub fn table2_quick() -> u64 {
    digest(table2::run(&table2::Table2Config::quick()).digest_stream())
}

/// Digest of extended Table II over the paper config.
pub fn table2_paper() -> u64 {
    digest(table2::run(&table2::Table2Config::paper()).digest_stream())
}

/// Pinned bit pattern of [`fig3_faulted_quick_joules`] — the faulted
/// campaign's energy to solution including retransmissions
/// (≈ 150 115.41 J for the quick grids under light faults).
pub const FIG3_FAULTED_QUICK_JOULES_BITS: u64 = 0x4102_531b_4c71_b00a;
/// Pinned digest of [`fig4_quick`].
pub const FIG4_QUICK_DIGEST: u64 = 0xf8f8_b32c_bbd3_9b79;
/// Pinned digest of [`ablation_quick`].
pub const ABLATION_QUICK_DIGEST: u64 = 0xb729_7caf_41e2_3e57;
