//! Core micro-architecture models.
//!
//! A [`CoreModel`] is a bag of published micro-architectural parameters —
//! issue widths, floating-point/SIMD throughputs, memory-level
//! parallelism, branch-miss penalties — plus an [`Overlap`] discipline
//! that says how compute and memory cycles combine (out-of-order cores
//! overlap them; in-order cores mostly cannot).
//!
//! The numbers in the presets come from vendor documentation and public
//! micro-benchmark literature for the three chips of the paper, **not**
//! from fitting the paper's results; see `DESIGN.md §4`.

use mb_simcore::time::Frequency;

use crate::ops::Precision;

/// How compute and memory cycle totals combine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Overlap {
    /// Out-of-order execution: compute and memory overlap, the total is
    /// `max(compute, memory)` plus un-hidable stalls.
    OutOfOrder,
    /// In-order execution: compute and memory mostly serialise. The
    /// `issue_efficiency` factor (0–1] models limited dual-issue: 1.0
    /// means perfect dual-issue of independent ops, lower values model
    /// dependency stalls typical of real code.
    InOrder {
        /// Fraction of the theoretical issue rate achieved on real code.
        issue_efficiency: f64,
    },
}

/// A cost model of one CPU core.
///
/// # Examples
///
/// ```
/// use mb_cpu::arch::CoreModel;
///
/// let xeon = CoreModel::nehalem();
/// let arm = CoreModel::cortex_a9_snowball();
/// // Peak double-precision throughput per core: SSE gives Nehalem a
/// // large advantage because the A9's NEON unit cannot do f64 at all.
/// assert!(xeon.peak_flops_per_cycle_f64() >= 4.0 * arm.peak_flops_per_cycle_f64());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CoreModel {
    /// Human-readable name.
    pub name: String,
    /// Core clock.
    pub frequency: Frequency,
    /// Scalar double-precision flops per cycle.
    pub f64_scalar_flops_per_cycle: f64,
    /// SIMD double-precision flops per cycle (equals the scalar rate when
    /// the core has no double-precision SIMD — the Cortex-A9 case).
    pub f64_simd_flops_per_cycle: f64,
    /// Scalar single-precision flops per cycle.
    pub f32_scalar_flops_per_cycle: f64,
    /// SIMD single-precision flops per cycle.
    pub f32_simd_flops_per_cycle: f64,
    /// Extra cycles charged per divide/sqrt lane.
    pub long_latency_penalty_cycles: f64,
    /// Simple integer/logic ops per cycle.
    pub int_ops_per_cycle: f64,
    /// L1 accesses that can be issued per cycle.
    pub mem_issue_per_cycle: f64,
    /// Maximum outstanding cache misses (memory-level parallelism
    /// ceiling; line-fill buffers on real hardware).
    pub max_outstanding_misses: u32,
    /// Cycles lost per mispredicted branch.
    pub branch_miss_penalty_cycles: u64,
    /// Prediction accuracy on loop-like (predictable) branches.
    pub predictable_accuracy: f64,
    /// Prediction accuracy on data-dependent branches.
    pub unpredictable_accuracy: f64,
    /// Compute/memory overlap discipline.
    pub overlap: Overlap,
    /// Native SIMD register width in bits.
    pub simd_width_bits: u32,
    /// Whether SIMD supports double precision.
    pub simd_f64: bool,
    /// Unrolling beyond this degree starts spilling registers.
    pub unroll_register_limit: u32,
    /// Cost multiplier for 128-bit memory accesses (the A9 splits them
    /// over its 64-bit bus; Nehalem does not).
    pub mem_penalty_128bit: f64,
    /// Fraction of miss stalls the hardware prefetcher hides on a fully
    /// predictable (constant-stride) access pattern, in `[0, 1]`.
    pub prefetch_efficiency: f64,
}

impl CoreModel {
    /// Intel Nehalem core as in the Xeon X5550: 2.66 GHz, out-of-order,
    /// 128-bit SSE with double precision, deep load/store unit.
    pub fn nehalem() -> Self {
        CoreModel {
            name: "Nehalem (Xeon X5550)".to_string(),
            frequency: Frequency::from_mhz(2660),
            f64_scalar_flops_per_cycle: 2.0, // 1 add + 1 mul port
            f64_simd_flops_per_cycle: 4.0,   // 2-wide SSE on both ports
            f32_scalar_flops_per_cycle: 2.0,
            f32_simd_flops_per_cycle: 8.0, // 4-wide SSE
            long_latency_penalty_cycles: 20.0,
            int_ops_per_cycle: 3.0,
            mem_issue_per_cycle: 1.5,   // 1 load + 1 store every other cycle
            max_outstanding_misses: 10, // line-fill buffers
            branch_miss_penalty_cycles: 17,
            predictable_accuracy: 0.995,
            unpredictable_accuracy: 0.85,
            overlap: Overlap::OutOfOrder,
            simd_width_bits: 128,
            simd_f64: true,
            unroll_register_limit: 8,
            mem_penalty_128bit: 1.0,
            prefetch_efficiency: 0.95,
        }
    }

    /// ARM Cortex-A9 @ 1 GHz as in the Snowball's A9500: in-order-ish
    /// dual issue, VFP double precision (no f64 SIMD — NEON is single
    /// precision only, §II.B), shallow miss queue.
    pub fn cortex_a9_snowball() -> Self {
        CoreModel {
            name: "Cortex-A9 (Snowball A9500)".to_string(),
            frequency: Frequency::from_ghz(1.0),
            f64_scalar_flops_per_cycle: 1.0, // VFPv3 pipelined MAC
            f64_simd_flops_per_cycle: 1.0,   // no DP SIMD: same as scalar
            f32_scalar_flops_per_cycle: 1.0,
            f32_simd_flops_per_cycle: 4.0, // NEON: 2 f32 MACs/cycle
            long_latency_penalty_cycles: 28.0,
            int_ops_per_cycle: 2.0,
            mem_issue_per_cycle: 1.0,
            max_outstanding_misses: 2, // tiny miss queue
            branch_miss_penalty_cycles: 9,
            predictable_accuracy: 0.98,
            unpredictable_accuracy: 0.80,
            overlap: Overlap::InOrder {
                issue_efficiency: 0.65,
            },
            simd_width_bits: 128,
            simd_f64: false,
            unroll_register_limit: 4,
            // A 16-byte access costs two slots on the A9's 64-bit LSU
            // (an LDRD/VLDM pair). NEON-specific 128-bit load overheads
            // are modelled by the kernels that explicitly vectorise.
            mem_penalty_128bit: 2.0,
            prefetch_efficiency: 0.9, // PL310 + PLD stride prefetch
        }
    }

    /// ARM Cortex-A9 @ 1 GHz as in Tibidabo's Tegra2 nodes.
    ///
    /// Identical core to the Snowball's; the Tegra2 has **no NEON unit**
    /// at all, so even single-precision SIMD falls back to VFP rates.
    pub fn cortex_a9_tegra2() -> Self {
        let mut m = CoreModel::cortex_a9_snowball();
        m.name = "Cortex-A9 (Tegra2)".to_string();
        m.f32_simd_flops_per_cycle = 1.0; // no NEON on Tegra2
        m.simd_width_bits = 64;
        m
    }

    /// Peak double-precision flops per cycle (best unit).
    pub fn peak_flops_per_cycle_f64(&self) -> f64 {
        self.f64_scalar_flops_per_cycle
            .max(self.f64_simd_flops_per_cycle)
    }

    /// Peak single-precision flops per cycle (best unit).
    pub fn peak_flops_per_cycle_f32(&self) -> f64 {
        self.f32_scalar_flops_per_cycle
            .max(self.f32_simd_flops_per_cycle)
    }

    /// Peak GFLOPS for one core at the given precision.
    pub fn peak_gflops(&self, prec: Precision) -> f64 {
        let per_cycle = match prec {
            Precision::F64 => self.peak_flops_per_cycle_f64(),
            Precision::F32 => self.peak_flops_per_cycle_f32(),
        };
        per_cycle * self.frequency.as_hz() as f64 / 1e9
    }

    /// Flops-per-cycle rate for a flop instruction with `lanes` lanes at
    /// `prec`: lanes beyond 1 use the SIMD unit only when the hardware
    /// supports that precision in SIMD.
    pub fn flop_rate(&self, prec: Precision, lanes: u32) -> f64 {
        match prec {
            Precision::F64 => {
                if lanes > 1 && self.simd_f64 {
                    self.f64_simd_flops_per_cycle
                } else {
                    self.f64_scalar_flops_per_cycle
                }
            }
            Precision::F32 => {
                if lanes > 1 && self.f32_simd_flops_per_cycle > self.f32_scalar_flops_per_cycle {
                    self.f32_simd_flops_per_cycle
                } else {
                    self.f32_scalar_flops_per_cycle
                }
            }
        }
    }

    /// Effective memory-level parallelism for a loop unrolled `unroll`
    /// times: unrolling exposes independent misses up to the hardware
    /// ceiling.
    pub fn effective_mlp(&self, unroll: u32) -> f64 {
        unroll.max(1).min(self.max_outstanding_misses) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nehalem_peaks() {
        let m = CoreModel::nehalem();
        // 4 DP flops/cycle @ 2.66 GHz = 10.64 GFLOPS per core.
        assert!((m.peak_gflops(Precision::F64) - 10.64).abs() < 0.01);
        assert!((m.peak_gflops(Precision::F32) - 21.28).abs() < 0.01);
    }

    #[test]
    fn a9_has_no_dp_simd() {
        let m = CoreModel::cortex_a9_snowball();
        assert!(!m.simd_f64);
        // DP peak is 1 flop/cycle @ 1 GHz = 1 GFLOPS per core.
        assert!((m.peak_gflops(Precision::F64) - 1.0).abs() < 1e-9);
        // SP SIMD peak is 4 GFLOPS per core.
        assert!((m.peak_gflops(Precision::F32) - 4.0).abs() < 1e-9);
        // Requesting 2 f64 lanes falls back to the scalar rate.
        assert_eq!(m.flop_rate(Precision::F64, 2), 1.0);
        assert_eq!(m.flop_rate(Precision::F32, 4), 4.0);
    }

    #[test]
    fn tegra2_lacks_neon() {
        let m = CoreModel::cortex_a9_tegra2();
        assert_eq!(m.flop_rate(Precision::F32, 4), 1.0);
    }

    #[test]
    fn nehalem_simd_rates() {
        let m = CoreModel::nehalem();
        assert_eq!(m.flop_rate(Precision::F64, 2), 4.0);
        assert_eq!(m.flop_rate(Precision::F64, 1), 2.0);
        assert_eq!(m.flop_rate(Precision::F32, 4), 8.0);
    }

    #[test]
    fn mlp_clamps_to_hardware() {
        let xeon = CoreModel::nehalem();
        let arm = CoreModel::cortex_a9_snowball();
        assert_eq!(xeon.effective_mlp(8), 8.0);
        assert_eq!(xeon.effective_mlp(16), 10.0);
        assert_eq!(arm.effective_mlp(8), 2.0);
        assert_eq!(arm.effective_mlp(0), 1.0);
    }

    #[test]
    fn branch_accuracy_selection() {
        let m = CoreModel::nehalem();
        assert!(m.predictable_accuracy > m.unpredictable_accuracy);
    }
}
