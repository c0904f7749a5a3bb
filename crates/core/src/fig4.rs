//! Figure 4 — profiling BigDFT on 36 cores: delayed `all_to_all_v`
//! collectives.
//!
//! The paper instruments BigDFT (Extrae) and inspects the trace in
//! Paraver: most `all_to_all_v` operations are short, some are "longer
//! and delayed — in some cases all the nodes are delayed while in other,
//! only part of them". The origin is the Ethernet switches; upgrading
//! them is the proposed fix. Here: run the BigDFT skeleton traced on 36
//! cores, apply the `mb-trace` delay analysis, and repeat on the
//! upgraded fabric as the ablation.

use crate::fig3;
use mb_cluster::scaling::{FabricKind, ScalingStudy};
use mb_simcore::time::SimTime;
use mb_trace::analysis::DelayAnalysis;
use mb_trace::record::CollectiveKind;
use mb_trace::trace::Trace;

/// Configuration of the Figure 4 experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Config {
    /// Ranks (the paper's trace uses 36 cores).
    pub cores: u32,
    /// BigDFT outer iterations to trace.
    pub iterations: u32,
    /// Delay threshold as a multiple of the per-kind median duration.
    pub threshold: f64,
    /// Seed for fabric nondeterminism.
    pub seed: u64,
}

impl Fig4Config {
    /// Fast test configuration (fewer iterations).
    pub fn quick() -> Self {
        Fig4Config {
            cores: 36,
            iterations: 4,
            threshold: 1.5,
            seed: 0xF164,
        }
    }

    /// The configuration of the bench binary.
    pub fn paper() -> Self {
        Fig4Config {
            iterations: 10,
            ..Fig4Config::quick()
        }
    }
}

/// The Figure 4 verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Report {
    /// The recorded trace (commodity fabric).
    pub trace: Trace,
    /// Delay analysis over the trace.
    pub analysis: DelayAnalysis,
    /// Total simulated time on the commodity fabric.
    pub commodity_time: SimTime,
    /// Total simulated time on the upgraded fabric (the proposed fix).
    pub upgraded_time: SimTime,
}

impl Fig4Report {
    /// Number of `all_to_all_v` operations observed.
    pub fn alltoallv_total(&self) -> usize {
        self.analysis.total_count(CollectiveKind::Alltoallv)
    }

    /// Number flagged as delayed.
    pub fn alltoallv_delayed(&self) -> usize {
        self.analysis.delayed_count(CollectiveKind::Alltoallv)
    }
}

/// Runs the Figure 4 experiment.
pub fn run(cfg: &Fig4Config) -> Fig4Report {
    let workload = fig3::workload(fig3::Panel::BigDft, cfg.iterations);
    let commodity = ScalingStudy::new(FabricKind::Tibidabo).with_seed(cfg.seed);
    let (commodity_time, trace) = commodity.execute(&workload, cfg.cores, true);
    let upgraded = ScalingStudy::new(FabricKind::TibidaboUpgraded).with_seed(cfg.seed);
    let (upgraded_time, _) = upgraded.execute(&workload, cfg.cores, false);
    let analysis = DelayAnalysis::run(&trace, cfg.threshold);
    Fig4Report {
        trace,
        analysis,
        commodity_time,
        upgraded_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delayed_collectives_detected_and_fix_works() {
        let r = run(&Fig4Config::quick());
        let total = r.alltoallv_total();
        let delayed = r.alltoallv_delayed();
        // 6 transposes per iteration × 4 iterations.
        assert_eq!(total, 24);
        assert!(
            delayed >= 1,
            "expected at least one delayed all_to_all_v out of {total}"
        );
        assert!(
            delayed < total,
            "most operations must remain normal ({delayed}/{total})"
        );
        // The paper's fix: upgraded switches are faster.
        assert!(r.upgraded_time < r.commodity_time);
    }

    #[test]
    fn delayed_ranks_reported() {
        let r = run(&Fig4Config::quick());
        // At least one delayed op names the ranks it delayed (the
        // paper's "all the nodes ... or only part of them").
        let any_named = r.analysis.delayed().any(|op| !op.delayed_ranks.is_empty());
        assert!(any_named);
    }

    #[test]
    fn trace_is_exportable() {
        let r = run(&Fig4Config::quick());
        let prv = mb_trace::write_prv(&r.trace);
        assert!(prv.len() > 1_000);
        let text = String::from_utf8(prv).expect("ascii");
        assert!(text.contains("all_to_all_v"));
    }
}
