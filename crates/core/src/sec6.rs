//! §VI — perspectives: hybrid embedded platforms and the road to
//! exascale efficiency.
//!
//! Two studies:
//!
//! * [`hybrid_offload`] — §VI.A's plan: extend Tibidabo with Tegra 3
//!   GPUs "for codes that can use single precision" (SPECFEM3D is such a
//!   code); double-precision codes (BigDFT) must wait for the Exynos 5's
//!   Mali-T604. We cost the real SPECFEM kernel on the Tegra2 CPU (both
//!   precisions) and compare against the coarse GPU offload model.
//! * [`efficiency_ladder`] — the GFLOPS/W ladder: the paper's platforms
//!   against the exascale requirement of 50 GFLOPS/W; the Exynos 5 node
//!   ("100 GFLOPS for 5 Watts") reaches 20 GFLOPS/W peak, and the paper
//!   calls even a *delivered* 5–7 GFLOPS/W an accomplishment.

use crate::platform::Platform;
use mb_cpu::gpu::GpuModel;
use mb_cpu::ops::Precision;
use mb_energy::{gflops_per_watt, required_gflops_per_watt, Power};
use mb_kernels::specfem::{Specfem, SpecfemConfig};
use mb_simcore::time::SimTime;

/// Verdict of one offload comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct OffloadCase {
    /// Code name.
    pub code: String,
    /// The precision the code requires.
    pub precision: Precision,
    /// Time on the node's two CPU cores.
    pub cpu_time: SimTime,
    /// Time with the GPU, if the GPU supports the precision.
    pub gpu_time: Option<SimTime>,
}

impl OffloadCase {
    /// GPU speed-up over the CPU (`None` when the GPU can't run it).
    pub fn speedup(&self) -> Option<f64> {
        self.gpu_time
            .map(|g| self.cpu_time.as_secs_f64() / g.as_secs_f64())
    }
}

/// Costs the SPECFEM kernel (per §VI.A, the single-precision-capable
/// code) and a BigDFT-like double-precision workload on a Tegra 3 hybrid
/// node.
pub fn hybrid_offload(gpu: &GpuModel) -> Vec<OffloadCase> {
    let platform = Platform::tegra2_node();
    // Characterise one SPECFEM run on the CPU model.
    let mut exec = platform.exec(1);
    exec.set_prefetch_hint(0.8);
    let mut sim = Specfem::new(SpecfemConfig::table2());
    sim.run(100, &mut exec);
    let report = exec.finish();
    let cpu_time = report.time.scale(1.0 / (platform.cores as f64 * 0.95));
    let flops = report.counts.total_flops() as f64;
    let bytes = sim.dof() as u64 * 8 * 2; // field in + field out

    // SPECFEM supports single precision (§VI.A): the same flops at f32.
    let specfem = OffloadCase {
        code: "SPECFEM3D (single precision)".to_string(),
        precision: Precision::F32,
        cpu_time,
        gpu_time: gpu.offload_time(flops, Precision::F32, bytes, bytes),
    };
    // BigDFT "only supports double precision" until the Mali-T604.
    let bigdft = OffloadCase {
        code: "BigDFT (double precision)".to_string(),
        precision: Precision::F64,
        cpu_time,
        gpu_time: gpu.offload_time(flops, Precision::F64, bytes, bytes),
    };
    vec![specfem, bigdft]
}

/// One rung of the efficiency ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct EfficiencyRung {
    /// Platform/node name.
    pub name: String,
    /// Peak GFLOPS used for the rung (DP where supported, else SP).
    pub peak_gflops: f64,
    /// Nameplate power.
    pub power: Power,
    /// Peak GFLOPS per watt.
    pub gflops_per_watt: f64,
}

/// The efficiency ladder (§I + §VI.A): every platform of the paper plus
/// the exascale requirement line.
pub fn efficiency_ladder() -> (Vec<EfficiencyRung>, f64) {
    let mut rungs = Vec::new();
    let mut push = |name: &str, gflops: f64, power: Power| {
        rungs.push(EfficiencyRung {
            name: name.to_string(),
            peak_gflops: gflops,
            power,
            gflops_per_watt: gflops_per_watt(gflops, power),
        });
    };
    let xeon = Platform::xeon_x5550();
    push(
        "Xeon X5550 (DP peak)",
        xeon.peak_gflops_f64(),
        xeon.power.nameplate(),
    );
    let snow = Platform::snowball();
    push(
        "Snowball (DP peak)",
        snow.peak_gflops_f64(),
        snow.power.nameplate(),
    );
    let tegra = Platform::tegra2_node();
    push(
        "Tibidabo node (DP peak)",
        tegra.peak_gflops_f64(),
        tegra.power.nameplate(),
    );
    // §VI.A envelope: "a peak performance of about a 100 GFLOPS for a
    // power consumption of 5 Watts" (CPU + Mali-T604, single precision).
    push(
        "Exynos 5 node (SP peak, CPU+GPU)",
        100.0,
        Power::from_watts(5.0),
    );
    let required = required_gflops_per_watt(1e9, Power::from_watts(20e6));
    (rungs, required)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sp_code_offloads_dp_code_cannot() {
        let cases = hybrid_offload(&GpuModel::tegra3_gpu());
        let specfem = &cases[0];
        let bigdft = &cases[1];
        assert!(specfem.gpu_time.is_some(), "SP code runs on the GPU");
        assert!(
            specfem.speedup().expect("supported") > 1.0,
            "offload should pay off: {:?}",
            specfem.speedup()
        );
        assert!(
            bigdft.gpu_time.is_none(),
            "DP code cannot use the Tegra3 GPU"
        );
    }

    #[test]
    fn mali_t604_unlocks_double_precision() {
        let cases = hybrid_offload(&GpuModel::mali_t604());
        assert!(cases[1].gpu_time.is_some(), "T604 runs f64");
    }

    #[test]
    fn efficiency_ladder_ordering() {
        let (rungs, required) = efficiency_ladder();
        let by_name = |n: &str| {
            rungs
                .iter()
                .find(|r| r.name.starts_with(n))
                .expect("rung present")
                .gflops_per_watt
        };
        let xeon = by_name("Xeon");
        let snowball = by_name("Snowball");
        let tegra = by_name("Tibidabo");
        let exynos = by_name("Exynos");
        // The Snowball beats the server part on peak efficiency; the
        // Tegra2 node does not (no NEON, NIC included in its power
        // budget) — consistent with Tibidabo's documented inefficiency.
        assert!(snowball > xeon);
        assert!(tegra < snowball);
        // The Exynos envelope is 20 GFLOPS/W — the paper's headline.
        assert!((exynos - 20.0).abs() < 1e-9);
        // …yet still 2.5× short of the exascale requirement.
        assert!((required - 50.0).abs() < 1e-9);
        assert!(exynos < required);
    }
}
