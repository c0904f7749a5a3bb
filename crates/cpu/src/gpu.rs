//! Embedded-GPU accelerator models (§VI.A, "Toward Hybrid Embedded
//! Platforms").
//!
//! The paper's perspective section: Tibidabo gains Tegra 3 boards with a
//! GPGPU-capable GPU so that single-precision codes (SPECFEM3D) can
//! offload, and the final prototype's Exynos 5 brings a Mali-T604. A
//! [`GpuModel`] is deliberately coarse — peak rate per precision, memory
//! bandwidth, host-transfer cost, launch overhead — because the paper
//! itself argues the offload decision hinges on exactly these envelope
//! numbers (and on whether the GPU supports the code's precision at
//! all).

use crate::ops::Precision;
use mb_simcore::time::SimTime;

/// A coarse embedded-GPU model.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuModel {
    /// Marketing name.
    pub name: String,
    /// Peak single-precision GFLOPS.
    pub peak_gflops_f32: f64,
    /// Peak double-precision GFLOPS (0 = unsupported, the common case
    /// for this generation).
    pub peak_gflops_f64: f64,
    /// Fraction of peak a tuned kernel achieves.
    pub efficiency: f64,
    /// Device memory bandwidth, GB/s.
    pub mem_bandwidth_gbps: f64,
    /// Host↔device transfer bandwidth, GB/s (shared-memory SoCs are
    /// fast here; discrete parts are not).
    pub transfer_gbps: f64,
    /// Fixed overhead per kernel launch.
    pub launch_overhead: SimTime,
}

impl GpuModel {
    /// The Snowball's Mali-400: a pre-GPGPU part — present on the board
    /// but useless for compute (the paper never offloads to it).
    pub fn mali400() -> Self {
        GpuModel {
            name: "Mali-400 (Snowball, no GPGPU)".to_string(),
            peak_gflops_f32: 0.0,
            peak_gflops_f64: 0.0,
            efficiency: 0.0,
            mem_bandwidth_gbps: 0.0,
            transfer_gbps: 0.0,
            launch_overhead: SimTime::ZERO,
        }
    }

    /// The Tegra 3 extension GPU of §VI.A: "an adjoined GPU suitable for
    /// general purpose programming … for codes that can use single
    /// precision". ~12 GFLOPS SP, no DP.
    pub fn tegra3_gpu() -> Self {
        GpuModel {
            name: "Tegra 3 GPU (SP only)".to_string(),
            peak_gflops_f32: 12.0,
            peak_gflops_f64: 0.0,
            efficiency: 0.5,
            mem_bandwidth_gbps: 6.0,
            transfer_gbps: 3.0,
            launch_overhead: SimTime::from_micros(80),
        }
    }

    /// The Mali-T604 of the final prototype (§VI.A): GPGPU via OpenCL,
    /// with the node envelope "about a 100 GFLOPS for … 5 Watts".
    pub fn mali_t604() -> Self {
        GpuModel {
            name: "Mali-T604 (Exynos 5)".to_string(),
            peak_gflops_f32: 68.0,
            peak_gflops_f64: 17.0, // native FP64 at a quarter rate
            efficiency: 0.45,
            mem_bandwidth_gbps: 12.8,
            transfer_gbps: 6.0, // shared LPDDR3
            launch_overhead: SimTime::from_micros(60),
        }
    }

    /// Whether the GPU can execute the given precision at all.
    pub fn supports(&self, prec: Precision) -> bool {
        match prec {
            Precision::F32 => self.peak_gflops_f32 > 0.0,
            Precision::F64 => self.peak_gflops_f64 > 0.0,
        }
    }

    /// Time to run an offloaded kernel: transfers in, executes
    /// (compute/bandwidth-bound, whichever is slower), transfers out.
    /// Returns `None` when the precision is unsupported — the paper's
    /// hard constraint for double-precision codes on SP-only parts.
    ///
    /// # Panics
    ///
    /// Panics if `flops` is negative or non-finite.
    pub fn offload_time(
        &self,
        flops: f64,
        prec: Precision,
        bytes_in: u64,
        bytes_out: u64,
    ) -> Option<SimTime> {
        assert!(flops.is_finite() && flops >= 0.0, "flops must be >= 0");
        if !self.supports(prec) {
            return None;
        }
        let peak = match prec {
            Precision::F32 => self.peak_gflops_f32,
            Precision::F64 => self.peak_gflops_f64,
        };
        let compute_secs = flops / (peak * 1e9 * self.efficiency);
        // Device-side traffic: assume the kernel streams its inputs once.
        let device_secs = (bytes_in + bytes_out) as f64 / (self.mem_bandwidth_gbps * 1e9);
        let transfer_secs = (bytes_in + bytes_out) as f64 / (self.transfer_gbps * 1e9);
        Some(
            self.launch_overhead
                + SimTime::from_secs_f64(compute_secs.max(device_secs) + transfer_secs),
        )
    }

    /// Peak GFLOPS at a precision (0 when unsupported).
    pub fn peak_gflops(&self, prec: Precision) -> f64 {
        match prec {
            Precision::F32 => self.peak_gflops_f32,
            Precision::F64 => self.peak_gflops_f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_support_matrix() {
        assert!(!GpuModel::mali400().supports(Precision::F32));
        assert!(GpuModel::tegra3_gpu().supports(Precision::F32));
        assert!(!GpuModel::tegra3_gpu().supports(Precision::F64));
        assert!(GpuModel::mali_t604().supports(Precision::F64));
    }

    #[test]
    fn dp_offload_refused_on_sp_parts() {
        let gpu = GpuModel::tegra3_gpu();
        assert!(gpu
            .offload_time(1e9, Precision::F64, 1 << 20, 1 << 20)
            .is_none());
        assert!(gpu
            .offload_time(1e9, Precision::F32, 1 << 20, 1 << 20)
            .is_some());
    }

    #[test]
    fn compute_bound_kernel_scales_with_flops() {
        let gpu = GpuModel::mali_t604();
        let t1 = gpu
            .offload_time(1e9, Precision::F32, 1024, 1024)
            .expect("supported");
        let t2 = gpu
            .offload_time(2e9, Precision::F32, 1024, 1024)
            .expect("supported");
        assert!(t2 > t1);
        assert!(t2.as_secs_f64() / t1.as_secs_f64() < 2.1);
    }

    #[test]
    fn transfer_dominates_tiny_kernels() {
        let gpu = GpuModel::tegra3_gpu();
        // 1 kflop on 64 MB of data: transfer-bound.
        let t = gpu
            .offload_time(1e3, Precision::F32, 32 << 20, 32 << 20)
            .expect("supported");
        let transfer_secs = (64u64 << 20) as f64 / 3e9;
        assert!(t.as_secs_f64() > transfer_secs * 0.99);
    }

    #[test]
    fn launch_overhead_floors_latency() {
        let gpu = GpuModel::mali_t604();
        let t = gpu
            .offload_time(0.0, Precision::F32, 0, 0)
            .expect("supported");
        assert_eq!(t, gpu.launch_overhead);
    }
}
