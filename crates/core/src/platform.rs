//! Platform presets: the machines of the paper, assembled from the
//! workspace's substrates (Figure 2, §II.B, §III.A).

use mb_cpu::arch::CoreModel;
use mb_cpu::exec_model::ModelExec;
use mb_cpu::ops::Precision;
use mb_energy::PowerModel;
use mb_mem::hierarchy::HierarchyConfig;
use mb_mem::tlb::TlbConfig;
use mb_mem::topology::Topology;

/// A complete single-node platform: cores, memory system, power model
/// and topology.
#[derive(Debug, Clone)]
pub struct Platform {
    /// Display name.
    pub name: String,
    /// Core micro-architecture model.
    pub core: CoreModel,
    /// Number of cores used for benchmarking (the paper: 2 on the
    /// Snowball, 4 on the Xeon with hyper-threading disabled).
    pub cores: u32,
    /// Cache hierarchy.
    pub hierarchy: HierarchyConfig,
    /// TLB geometry.
    pub tlb: TlbConfig,
    /// TLB miss penalty in cycles.
    pub tlb_miss_penalty_cycles: u64,
    /// Nameplate power of the whole platform.
    pub power: PowerModel,
}

impl Platform {
    /// The Snowball board: dual Cortex-A9 @ 1 GHz, 2.5 W budget.
    pub fn snowball() -> Self {
        Platform {
            name: "Snowball (ST-Ericsson A9500)".to_string(),
            core: CoreModel::cortex_a9_snowball(),
            cores: 2,
            hierarchy: HierarchyConfig::snowball_a9500(),
            tlb: TlbConfig::new(32, 4096),
            tlb_miss_penalty_cycles: 40,
            power: PowerModel::snowball(),
        }
    }

    /// The Xeon X5550 host: 4 Nehalem cores @ 2.66 GHz (hyper-threading
    /// disabled, §III.C), 95 W TDP.
    pub fn xeon_x5550() -> Self {
        Platform {
            name: "Intel Xeon X5550".to_string(),
            core: CoreModel::nehalem(),
            cores: 4,
            hierarchy: HierarchyConfig::xeon_x5550(),
            tlb: TlbConfig::new(64, 4096),
            tlb_miss_penalty_cycles: 30,
            power: PowerModel::xeon_x5550(),
        }
    }

    /// One Tibidabo node: dual Cortex-A9 (Tegra2, no NEON) @ 1 GHz.
    pub fn tegra2_node() -> Self {
        Platform {
            name: "Tibidabo node (NVIDIA Tegra2)".to_string(),
            core: CoreModel::cortex_a9_tegra2(),
            cores: 2,
            hierarchy: HierarchyConfig::tegra2(),
            tlb: TlbConfig::new(32, 4096),
            tlb_miss_penalty_cycles: 40,
            power: PowerModel::tegra2_node(),
        }
    }

    /// A fresh single-core execution model for this platform, with the
    /// given cache-sampling rate (1 = exact).
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate` is zero.
    pub fn exec(&self, sample_rate: u32) -> ModelExec {
        ModelExec::new(
            self.core.clone(),
            self.hierarchy.clone(),
            self.tlb,
            self.tlb_miss_penalty_cycles,
            sample_rate,
        )
    }

    /// Peak double-precision GFLOPS across all cores.
    pub fn peak_gflops_f64(&self) -> f64 {
        self.core.peak_gflops(Precision::F64) * self.cores as f64
    }

    /// Peak single-precision GFLOPS across all cores.
    pub fn peak_gflops_f32(&self) -> f64 {
        self.core.peak_gflops(Precision::F32) * self.cores as f64
    }

    /// The hwloc-style topology (Figure 2) for platforms the paper
    /// depicts; `None` for the prospective ones.
    pub fn topology(&self) -> Option<Topology> {
        if self.name.contains("Snowball") {
            Some(Topology::a9500())
        } else if self.name.contains("Xeon") {
            Some(Topology::xeon_x5550())
        } else if self.name.contains("Tegra2") {
            Some(Topology::tegra2())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_core_counts() {
        assert_eq!(Platform::snowball().cores, 2);
        assert_eq!(Platform::xeon_x5550().cores, 4);
    }

    #[test]
    fn peak_asymmetry() {
        let snow = Platform::snowball();
        let xeon = Platform::xeon_x5550();
        // Xeon peak DP = 4 × 10.64 = 42.6 GFLOPS; Snowball = 2 GFLOPS.
        assert!((xeon.peak_gflops_f64() - 42.56).abs() < 0.1);
        assert!((snow.peak_gflops_f64() - 2.0).abs() < 0.01);
    }

    #[test]
    fn topologies_match_figure2() {
        let snow = Platform::snowball().topology().expect("depicted");
        assert_eq!(snow.num_cores(), 2);
        let xeon = Platform::xeon_x5550().topology().expect("depicted");
        assert_eq!(xeon.num_cores(), 4);
    }

    #[test]
    fn exec_builds_and_costs() {
        use mb_cpu::ops::{Exec, FlopKind};
        let mut e = Platform::snowball().exec(1);
        e.flop(FlopKind::Add, Precision::F64, 1);
        assert!(e.finish().cycles.get() >= 1);
    }

    #[test]
    fn power_models_wired() {
        assert_eq!(Platform::snowball().power.nameplate().watts(), 2.5);
        assert_eq!(Platform::xeon_x5550().power.nameplate().watts(), 95.0);
    }
}
