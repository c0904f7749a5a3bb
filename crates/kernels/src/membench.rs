//! The Section V memory microbenchmark (after Tikir et al.).
//!
//! "This benchmark measures the time needed to access data by looping
//! over an array of a fixed size using a fixed stride" (§V.A). The
//! configuration space is exactly the paper's: array size (Figure 5),
//! element size 32/64/128 bits and loop unrolling (Figure 6), all swept
//! on both machine models.
//!
//! The kernel really walks a real buffer and returns a checksum; the
//! *costing* details that depend on target code generation — the
//! memory-level parallelism exposed by unrolling, and register spills
//! when the unroll degree exceeds the target's register budget — are
//! applied in [`run_model`], which plays the role of "compiling the
//! variant for the target".

use mb_cpu::exec_model::{ExecReport, ModelExec};
use mb_cpu::ops::Exec;
use mb_simcore::time::SimTime;

/// One microbenchmark variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembenchConfig {
    /// Array size in bytes.
    pub array_bytes: usize,
    /// Stride between touched elements, in elements.
    pub stride: usize,
    /// Element size in bytes (4 = 32 b, 8 = 64 b, 16 = 128 b).
    pub elem_bytes: usize,
    /// Loop unroll degree (1 = not unrolled; the paper uses 8).
    pub unroll: u32,
    /// Number of sweeps over the array.
    pub sweeps: u32,
}

impl MembenchConfig {
    /// The Figure 6 configuration: 50 KB array, stride 1.
    pub fn figure6(elem_bytes: usize, unrolled: bool) -> Self {
        MembenchConfig {
            array_bytes: 50 * 1024,
            stride: 1,
            elem_bytes,
            unroll: if unrolled { 8 } else { 1 },
            sweeps: 20,
        }
    }

    /// The Figure 5 configuration: stride 1, 32-bit elements, variable
    /// array size.
    pub fn figure5(array_bytes: usize) -> Self {
        MembenchConfig {
            array_bytes,
            stride: 1,
            elem_bytes: 4,
            unroll: 1,
            sweeps: 20,
        }
    }

    fn validate(&self) {
        assert!(self.array_bytes >= self.elem_bytes, "array too small");
        assert!(self.stride > 0, "stride must be positive");
        assert!(
            matches!(self.elem_bytes, 4 | 8 | 16),
            "element size must be 4, 8 or 16 bytes"
        );
        assert!(self.unroll >= 1, "unroll degree must be at least 1");
        assert!(self.sweeps >= 1, "need at least one sweep");
    }
}

/// Result of one modelled run.
#[derive(Debug, Clone, PartialEq)]
pub struct MembenchResult {
    /// The variant measured.
    pub config: MembenchConfig,
    /// Total element accesses performed.
    pub accesses: u64,
    /// Bytes touched (accesses × element size).
    pub bytes: u64,
    /// Modelled wall-clock time.
    pub time: SimTime,
    /// Checksum of the data actually read (correctness witness).
    pub checksum: u64,
    /// The full model report.
    pub report: ExecReport,
}

impl MembenchResult {
    /// Effective bandwidth in GB/s — the paper's y-axis.
    pub fn bandwidth_gbps(&self) -> f64 {
        let secs = self.time.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.bytes as f64 / secs / 1e9
        }
    }
}

/// The raw kernel: walks `data` per `cfg` and returns
/// `(accesses, checksum)`. Architecture-neutral — no spill or MLP
/// modelling here.
///
/// Each sweep touches elements `0, stride, 2·stride, …` in order, at any
/// unroll degree, so it is reported to `exec` as one [`Exec::mem_run`]
/// of loads, plus one index-arithmetic op per access (`int_ops`) and one
/// predictable loop branch per unrolled iteration group (`branch_run`).
/// That is the same operation multiset as reporting each load, op and
/// branch in loop order.
///
/// # Panics
///
/// Panics if `data` is smaller than `cfg.array_bytes` or the
/// configuration is invalid.
pub fn run<E: Exec>(cfg: &MembenchConfig, data: &[u8], exec: &mut E) -> (u64, u64) {
    cfg.validate();
    assert!(data.len() >= cfg.array_bytes, "buffer smaller than array");
    let n_elems = cfg.array_bytes / cfg.elem_bytes;
    let per_sweep = n_elems.div_ceil(cfg.stride) as u64;
    let groups = per_sweep.div_ceil(cfg.unroll as u64);
    let mut checksum = 0u64;
    for _ in 0..cfg.sweeps {
        exec.mem_run(
            0,
            (cfg.stride * cfg.elem_bytes) as u64,
            per_sweep,
            cfg.elem_bytes as u32,
            false,
        );
        for idx in (0..n_elems).step_by(cfg.stride) {
            // Really read the element (first byte stands in for the
            // whole element in the checksum).
            checksum = checksum
                .wrapping_add(data[idx * cfg.elem_bytes] as u64)
                .rotate_left(1);
        }
        exec.int_ops(per_sweep);
        exec.branch_run(groups, true);
    }
    (per_sweep * cfg.sweeps as u64, checksum)
}

/// Runs the variant "compiled for" the machine behind `exec`:
///
/// * the unroll degree becomes the memory-level-parallelism hint;
/// * unrolling beyond the target's register budget emits spill traffic
///   (one stack store+load per excess register per iteration group) —
///   the mechanism that makes unrolling *detrimental* on the A9
///   (Figure 6b) while remaining profitable on Nehalem (Figure 6a).
///
/// The sink is reset first, so each call is an independent measurement.
pub fn run_model(cfg: &MembenchConfig, data: &[u8], exec: &mut ModelExec) -> MembenchResult {
    cfg.validate();
    exec.reset();
    exec.set_mlp_hint(cfg.unroll);
    // A fixed-stride sweep is fully prefetchable.
    exec.set_prefetch_hint(1.0);
    let spills = cfg
        .unroll
        .saturating_sub(exec.model().unroll_register_limit);
    let (accesses, checksum) = run(cfg, data, exec);
    // The 128-bit variant is an explicit NEON vectorisation. On an
    // in-order core the q-register loads stall the integer pipeline
    // while data crosses from the NEON unit back to the ALU (the A9's
    // notorious NEON-to-core transfer cost) -- the paper's observation
    // that "vectorizing with 128 is similar to using 32 bit elements"
    // (Figure 6b). Out-of-order cores hide the transfer.
    let neon_overhead_per_access: u64 = if cfg.elem_bytes == 16
        && matches!(exec.model().overlap, mb_cpu::arch::Overlap::InOrder { .. })
    {
        8
    } else {
        0
    };
    if neon_overhead_per_access > 0 {
        exec.int_ops(accesses * neon_overhead_per_access);
    }
    if spills > 0 {
        // Spill traffic: per iteration group, `spills` stores + reloads
        // to the stack (a small, hot region).
        let groups = accesses / cfg.unroll as u64;
        let stack_base = (cfg.array_bytes as u64 + 4096) & !4095;
        for g in 0..groups {
            for s in 0..spills as u64 {
                let addr = stack_base + (s % 16) * 8;
                exec.store(addr, cfg.elem_bytes as u32);
                exec.load(addr, cfg.elem_bytes as u32);
                exec.int_ops(2 * neon_overhead_per_access);
                let _ = g;
            }
        }
    }
    let report = exec.finish();
    MembenchResult {
        config: *cfg,
        accesses,
        bytes: accesses * cfg.elem_bytes as u64,
        time: report.time,
        checksum,
        report,
    }
}

/// Allocates a deterministic pseudo-random buffer for the benchmark.
pub fn make_buffer(bytes: usize, seed: u64) -> Vec<u8> {
    use mb_simcore::rng::{Rng, Xoshiro256};
    let mut rng = Xoshiro256::seed_from(seed);
    (0..bytes).map(|_| rng.next_u64() as u8).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_cpu::ops::{CountingExec, NullExec};

    #[test]
    fn checksum_is_deterministic_and_exec_independent() {
        let data = make_buffer(8192, 1);
        let cfg = MembenchConfig {
            array_bytes: 8192,
            stride: 1,
            elem_bytes: 4,
            unroll: 1,
            sweeps: 2,
        };
        let (a1, c1) = run(&cfg, &data, &mut NullExec);
        let mut count = CountingExec::new();
        let (a2, c2) = run(&cfg, &data, &mut count);
        assert_eq!((a1, c1), (a2, c2));
        assert_eq!(count.counts().loads, a2);
        assert_eq!(a1, 2 * 8192 / 4);
    }

    /// The kernel before sweeps were batched: per unrolled group, one
    /// `load` per element, then `int_ops(group)` and one branch.
    fn per_group_reference<E: Exec>(cfg: &MembenchConfig, data: &[u8], exec: &mut E) -> (u64, u64) {
        let n_elems = cfg.array_bytes / cfg.elem_bytes;
        let (mut checksum, mut accesses) = (0u64, 0u64);
        for _ in 0..cfg.sweeps {
            let mut i = 0usize;
            while i < n_elems {
                let mut grp = 0u64;
                for u in 0..cfg.unroll as usize {
                    let idx = i + u * cfg.stride;
                    if idx >= n_elems {
                        break;
                    }
                    let off = idx * cfg.elem_bytes;
                    exec.load(off as u64, cfg.elem_bytes as u32);
                    checksum = checksum.wrapping_add(data[off] as u64).rotate_left(1);
                    accesses += 1;
                    grp += 1;
                }
                exec.int_ops(grp);
                exec.branch(true);
                i += cfg.unroll as usize * cfg.stride;
            }
        }
        (accesses, checksum)
    }

    #[test]
    fn batched_sweeps_cost_exactly_the_per_group_loop() {
        let data = make_buffer(50 * 1024, 8);
        for (array_bytes, sample_rate) in [(6000, 1), (50 * 1024, 3)] {
            for stride in [1, 3, 4] {
                for unroll in [1, 3, 8] {
                    for elem_bytes in [4, 8, 16] {
                        let cfg = MembenchConfig {
                            array_bytes,
                            stride,
                            elem_bytes,
                            unroll,
                            sweeps: 2,
                        };
                        let mut batched = ModelExec::nehalem().with_sample_rate(sample_rate);
                        let mut single = batched.clone();
                        let got = run(&cfg, &data, &mut batched);
                        assert_eq!(got, per_group_reference(&cfg, &data, &mut single));
                        let (b, s) = (batched.finish(), single.finish());
                        assert_eq!(
                            (b.cycles, b.time, &b.counters, b.counts),
                            (s.cycles, s.time, &s.counters, s.counts),
                            "{cfg:?}"
                        );
                        for (x, y) in [
                            (b.compute_cycles, s.compute_cycles),
                            (b.memory_cycles, s.memory_cycles),
                            (b.branch_cycles, s.branch_cycles),
                        ] {
                            assert_eq!(x.to_bits(), y.to_bits(), "{cfg:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn unroll_does_not_change_work() {
        let data = make_buffer(4096, 2);
        let base = MembenchConfig {
            array_bytes: 4096,
            stride: 1,
            elem_bytes: 4,
            unroll: 1,
            sweeps: 1,
        };
        let (a1, c1) = run(&base, &data, &mut NullExec);
        let unrolled = MembenchConfig { unroll: 8, ..base };
        let (a8, c8) = run(&unrolled, &data, &mut NullExec);
        assert_eq!(a1, a8);
        assert_eq!(c1, c8);
    }

    #[test]
    fn stride_reduces_accesses() {
        let data = make_buffer(4096, 3);
        let cfg = MembenchConfig {
            array_bytes: 4096,
            stride: 4,
            elem_bytes: 4,
            unroll: 2,
            sweeps: 1,
        };
        let (a, _) = run(&cfg, &data, &mut NullExec);
        assert_eq!(a, 4096 / 4 / 4);
    }

    #[test]
    fn figure6_xeon_unrolling_and_vectorising_always_help() {
        let data = make_buffer(50 * 1024, 4);
        let mut exec = ModelExec::nehalem();
        let mut bw = |elem: usize, unrolled: bool| {
            run_model(&MembenchConfig::figure6(elem, unrolled), &data, &mut exec).bandwidth_gbps()
        };
        let b32 = bw(4, false);
        let b32u = bw(4, true);
        let b64 = bw(8, false);
        let _b64u = bw(8, true);
        let b128 = bw(16, false);
        let b128u = bw(16, true);
        // Figure 6a: monotone improvement with element size and unroll.
        assert!(b64 > b32 * 1.5, "{b64} vs {b32}");
        assert!(b128 > b64 * 1.1, "{b128} vs {b64}");
        assert!(b32u > b32, "unroll helps at 32 b");
        assert!(b128u > b128, "unroll helps at 128 b");
        assert!(b128u > b32 * 2.5, "best Nehalem config much faster");
    }

    #[test]
    fn figure6_arm_vector_and_unroll_can_hurt() {
        let data = make_buffer(50 * 1024, 5);
        let mut exec = ModelExec::snowball();
        let mut bw = |elem: usize, unrolled: bool| {
            run_model(&MembenchConfig::figure6(elem, unrolled), &data, &mut exec).bandwidth_gbps()
        };
        let b32 = bw(4, false);
        let b64 = bw(8, false);
        let b64u = bw(8, true);
        let b128 = bw(16, false);
        let b128u = bw(16, true);
        // 64-bit elements ≈ double the 32-bit bandwidth (paper: "doubles
        // on both architectures").
        assert!(b64 > b32 * 1.6, "{b64} vs {b32}");
        // 128-bit is NOT better than 64-bit (A9 bus splits), landing
        // near the 32-bit level.
        assert!(b128 < b64 * 1.2, "{b128} should not beat {b64}");
        // Unrolling past the register budget hurts at 128 b.
        assert!(b128u < b128, "unroll degrades 128 b: {b128u} vs {b128}");
        // Best ARM configuration is 64 b (the paper's conclusion).
        assert!(b64u >= b128u && b64 > b32);
    }

    #[test]
    fn arm_bandwidth_scale_matches_paper() {
        // Figure 6b peaks around 1–1.5 GB/s on the Snowball; Figure 6a
        // around 10–15 GB/s on the Xeon.
        let data = make_buffer(50 * 1024, 6);
        let arm = run_model(
            &MembenchConfig::figure6(8, true),
            &data,
            &mut ModelExec::snowball(),
        )
        .bandwidth_gbps();
        assert!(arm > 0.3 && arm < 3.0, "ARM bandwidth {arm} GB/s");
        let xeon = run_model(
            &MembenchConfig::figure6(16, true),
            &data,
            &mut ModelExec::nehalem(),
        )
        .bandwidth_gbps();
        assert!(xeon > 5.0 && xeon < 50.0, "Xeon bandwidth {xeon} GB/s");
        assert!(xeon / arm > 4.0, "Xeon should be several times faster");
    }

    #[test]
    fn figure5_bandwidth_drops_past_l1() {
        let mut exec = ModelExec::snowball();
        let small = {
            let data = make_buffer(16 * 1024, 7);
            run_model(&MembenchConfig::figure5(16 * 1024), &data, &mut exec).bandwidth_gbps()
        };
        let large = {
            let data = make_buffer(50 * 1024, 7);
            run_model(&MembenchConfig::figure5(50 * 1024), &data, &mut exec).bandwidth_gbps()
        };
        assert!(
            small > large,
            "bandwidth should fall past the 32 KB L1: {small} vs {large}"
        );
    }

    #[test]
    #[should_panic(expected = "element size must be 4, 8 or 16 bytes")]
    fn bad_elem_size_panics() {
        let data = make_buffer(64, 0);
        let cfg = MembenchConfig {
            array_bytes: 64,
            stride: 1,
            elem_bytes: 2,
            unroll: 1,
            sweeps: 1,
        };
        let _ = run(&cfg, &data, &mut NullExec);
    }
}
