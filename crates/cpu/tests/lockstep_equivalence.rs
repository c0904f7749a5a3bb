//! Property test: `ModelExec::lockstep_run` (line windows whose first
//! body is costed access by access, the rest charged in closed form once
//! every line and page of the body is resident, and the last body
//! replayed; sample windows skipped in one step) leaves the sink exactly
//! where the trait's per-access default expansion leaves it. After every
//! run the two sinks must agree on the whole `ExecReport` (by
//! `PartialEq`, so every `f64` too), on every hierarchy level's
//! statistics and the TLB's hits and misses, and on their whole state as
//! a `Checkpoint` — clocks, stamps, PLRU bits, last-line memos and TLB
//! hints included, which a closed form that skipped a clock advance or
//! the final replay would leave behind even where no later outcome shows
//! it.
//!
//! Covers the Nehalem, Snowball and Tegra2 presets and a pseudo-LRU and
//! a random-replacement hierarchy; sample rates 1, 3 and 4, with and
//! without a page table; streams that share a line, stride 0, strides
//! under a line, not dividing a line and over a page; bodies that
//! straddle a sample window (a random per-access prefix moves the index
//! off the window grid); more streams in one L1 set than it has ways,
//! which forces the access-by-access fallback; and a checkpoint taken
//! mid-sequence and rolled back to.

use mb_cpu::arch::CoreModel;
use mb_cpu::exec_model::ModelExec;
use mb_cpu::ops::{Exec, Flop, FlopKind, Precision, Stream};
use mb_mem::cache::{CacheConfig, Replacement};
use mb_mem::hierarchy::{HierarchyConfig, LevelConfig};
use mb_mem::pages::PageTable;
use mb_mem::tlb::TlbConfig;
use mb_simcore::rng::{Rng, Xoshiro256};
use proptest::prelude::*;

/// Forwards every report to a `ModelExec` but keeps the trait's default
/// `lockstep_run`, which expands a run into single loads, stores and
/// flops.
struct PerAccess<'a>(&'a mut ModelExec);

impl Exec for PerAccess<'_> {
    fn flop(&mut self, kind: FlopKind, prec: Precision, lanes: u32) {
        self.0.flop(kind, prec, lanes);
    }
    fn int_ops(&mut self, n: u64) {
        self.0.int_ops(n);
    }
    fn load(&mut self, addr: u64, bytes: u32) {
        self.0.load(addr, bytes);
    }
    fn store(&mut self, addr: u64, bytes: u32) {
        self.0.store(addr, bytes);
    }
    fn branch(&mut self, predictable: bool) {
        self.0.branch(predictable);
    }
}

/// A two-level hierarchy of small caches under `policy`: a 4 KB 4-way
/// L1 of 32-byte lines (32 sets) over a 32 KB L2.
fn small_hierarchy(policy: Replacement) -> HierarchyConfig {
    let level = |size, ways, latency| LevelConfig {
        cache: CacheConfig::new(size, 32, ways, policy),
        hit_latency_cycles: latency,
        fill_bytes_per_cycle: 8.0,
    };
    HierarchyConfig {
        levels: vec![level(4 * 1024, 4, 4), level(32 * 1024, 8, 20)],
        memory_latency_cycles: 150,
        memory_fill_bytes_per_cycle: 2.0,
    }
}

/// Machine `m` — the Nehalem, Snowball and Tegra2 presets, then a
/// Cortex-A9 over a pseudo-LRU and over a random-replacement hierarchy —
/// at `sample_rate`, routed through a table of `pages` random 4 KiB
/// frames when `pages > 0`. Returns two identical sinks.
fn sinks(m: usize, sample_rate: u32, pages: usize, seed: u64) -> (ModelExec, ModelExec) {
    let exec = match m {
        0 => ModelExec::nehalem(),
        1 => ModelExec::snowball(),
        2 => ModelExec::tegra2(),
        _ => ModelExec::new(
            CoreModel::cortex_a9_tegra2(),
            small_hierarchy(if m == 3 {
                Replacement::PseudoLru
            } else {
                Replacement::Random
            }),
            TlbConfig::new(8, 4096),
            40,
            1,
        ),
    };
    let mut exec = exec.with_sample_rate(sample_rate);
    if pages > 0 {
        let mut rng = Xoshiro256::seed_from(seed);
        let frames = (0..pages).map(|_| rng.gen_range(1 << 18)).collect();
        exec.set_page_table(Some(PageTable::new(4096, frames)));
    }
    (exec.clone(), exec)
}

/// Strides in bytes: zero (a spill slot), under a line, 16 (LINPACK's
/// 2-lane rows), one Snowball line, not dividing a line, one Nehalem
/// line, over a page, and minus eight (wrapping).
const STRIDES: [u64; 9] = [0, 4, 8, 16, 24, 32, 64, 4096 + 40, 8u64.wrapping_neg()];
const BYTES: [u32; 3] = [4, 8, 16];
/// Flop kinds a body may report, including a long-latency one, 2-lane
/// f64 (scalar-rate on the Cortex-A9) and 4-lane f32.
const FLOPS: [Flop; 4] = [
    Flop::new(FlopKind::Fma, Precision::F64, 2),
    Flop::new(FlopKind::Cmp, Precision::F64, 1),
    Flop::new(FlopKind::Div, Precision::F64, 1),
    Flop::new(FlopKind::Add, Precision::F32, 4),
];

/// Bytes between lines of one L1 set on every machine above: a multiple
/// of each L1's way size (4 KB on Nehalem, 8 KB on the Cortex-A9s, 1 KB
/// on the small hierarchies).
const SAME_SET: u64 = 8192;

/// One stream: `(offset, stride index, bytes index, is_store)`.
type StreamSpec = (u64, usize, usize, bool);
/// One lockstep run: `(anchor, layout, streams, flop mask,
/// iterations)`; layout 0 puts the streams in one L1 set.
type RunSpec = (u64, u8, Vec<StreamSpec>, u8, u64);

/// The streams and flops of `run`. Streams sit `offset` bytes past the
/// anchor (a few lines, so they share lines and sets), or, for a
/// same-set run, each in the next line of the anchor's L1 set.
fn body(run: &RunSpec) -> (Vec<Stream>, Vec<Flop>) {
    let (anchor, layout, ref specs, mask, _) = *run;
    let same_set = layout == 0;
    let streams = specs
        .iter()
        .enumerate()
        .map(|(j, &(offset, stride, bytes, is_store))| {
            // A same-set run's streams move together at the first one's
            // offset and a stride under a line, like matrix rows, so its
            // line windows are long enough for a closed form.
            let (base, stride) = if same_set {
                (
                    anchor + j as u64 * SAME_SET + specs[0].0 % 32,
                    specs[0].1 % 5,
                )
            } else {
                (anchor + offset, stride)
            };
            Stream {
                base,
                stride: STRIDES[stride],
                bytes: BYTES[bytes],
                is_store,
            }
        })
        .collect();
    let flops = (0..FLOPS.len())
        .filter(|i| mask >> i & 1 == 1)
        .map(|i| FLOPS[i])
        .collect();
    (streams, flops)
}

fn runs() -> impl Strategy<Value = Vec<RunSpec>> {
    let stream = (
        0u64..320,
        0usize..STRIDES.len(),
        0usize..BYTES.len(),
        prop::bool::ANY,
    );
    prop::collection::vec(
        (
            0u64..160 * 1024,
            0u8..4,
            prop::collection::vec(stream, 0..10),
            0u8..16,
            0u64..700,
        ),
        1..5,
    )
}

/// Asserts the two sinks are in the same state and report the same.
fn assert_same(batched: &mut ModelExec, single: &mut ModelExec, context: &str) {
    assert_eq!(batched.finish(), single.finish(), "report: {context}");
    let (hb, hs) = (batched.hierarchy(), single.hierarchy());
    for level in 0..hb.num_levels() {
        assert_eq!(
            hb.level_stats(level),
            hs.level_stats(level),
            "level {level} stats: {context}"
        );
    }
    assert_eq!(
        hb.accesses(),
        hs.accesses(),
        "hierarchy accesses: {context}"
    );
    assert_eq!(
        hb.total_cycles(),
        hs.total_cycles(),
        "hierarchy cycles: {context}"
    );
    let (tb, ts) = (batched.tlb(), single.tlb());
    assert_eq!(
        (tb.hits(), tb.misses()),
        (ts.hits(), ts.misses()),
        "TLB: {context}"
    );
    assert!(
        batched.checkpoint() == single.checkpoint(),
        "state: {context}"
    );
}

/// Reports `run` to both sinks — as one `lockstep_run` to `batched`,
/// through the per-access expansion to `single` — then a load of every
/// line of the anchor's L1 set that a same-set run may use, so that
/// stale stamps would pick a different victim, and compares.
fn step(batched: &mut ModelExec, single: &mut ModelExec, i: usize, run: &RunSpec) {
    let (streams, flops) = body(run);
    let n = run.4;
    batched.lockstep_run(&streams, &flops, n);
    PerAccess(single).lockstep_run(&streams, &flops, n);
    let context = format!("run {i}: n {n}, streams {streams:?}, flops {flops:?}");
    assert_same(batched, single, &context);
    for j in (0..12).rev() {
        let addr = run.0 + j * SAME_SET;
        batched.load(addr, 8);
        single.load(addr, 8);
    }
    assert_same(batched, single, &format!("probe after {context}"));
}

/// Feeds `prefix` random single accesses, then `runs`, to both sinks,
/// comparing after every step. At run `cp` both take a checkpoint; after
/// the last run both roll back to it and replay the runs from `cp` on.
fn drive(
    (mut batched, mut single): (ModelExec, ModelExec),
    seed: u64,
    prefix: u64,
    runs: &[RunSpec],
    cp: usize,
) {
    let mut rng = Xoshiro256::seed_from(seed);
    for _ in 0..prefix {
        let addr = rng.gen_range(160 * 1024);
        if rng.gen_range(4) == 0 {
            batched.store(addr, 8);
            single.store(addr, 8);
        } else {
            batched.load(addr, 4);
            single.load(addr, 4);
        }
    }
    let cp = cp % runs.len();
    let mut checkpoints = None;
    for (i, run) in runs.iter().enumerate() {
        if i == cp {
            checkpoints = Some((batched.checkpoint(), single.checkpoint()));
        }
        step(&mut batched, &mut single, i, run);
    }
    let (cb, cs) = checkpoints.expect("cp is a run index");
    batched.rollback(&cb);
    single.rollback(&cs);
    assert_same(&mut batched, &mut single, "after rollback");
    for (i, run) in runs.iter().enumerate().skip(cp) {
        step(&mut batched, &mut single, i, run);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lockstep_run_matches_per_access_expansion(
        m in 0usize..5,
        (rate, paged) in (0usize..3, prop::bool::ANY),
        (seed, prefix, pages) in (any::<u64>(), 0u64..2600, 1usize..24),
        runs in runs(),
        cp in 0usize..8,
    ) {
        let pages = if paged { pages } else { 0 };
        let rate = [1, 3, 4][rate];
        drive(sinks(m, rate, pages, seed), seed, prefix, &runs, cp);
    }
}

#[test]
fn spill_loop_matches() {
    // Figure 7's spill loop: a store and a reload of each of six stack
    // slots, over and over — stride-0 streams, two lines on a 32-byte
    // line machine.
    for m in 0..5 {
        for rate in [1, 3] {
            let streams: Vec<Stream> = (0..6)
                .flat_map(|s| {
                    [
                        Stream::store(0x9000 + s * 8, 0, 8),
                        Stream::load(0x9000 + s * 8, 0, 8),
                    ]
                })
                .collect();
            let run = |e: &mut dyn FnMut(&[Stream], u64)| {
                e(&streams, 1);
                e(&streams, 5000);
                e(&streams[2..], 777);
            };
            let (mut batched, mut single) = sinks(m, rate, 0, 0);
            run(&mut |s, n| batched.lockstep_run(s, &[], n));
            run(&mut |s, n| PerAccess(&mut single).lockstep_run(s, &[], n));
            assert_same(
                &mut batched,
                &mut single,
                &format!("machine {m}, rate {rate}"),
            );
        }
    }
}

#[test]
fn daxpy_rows_match() {
    // LINPACK's 2-lane daxpy: two 16-byte loads, a 2-lane FMA and a
    // 16-byte store per pair of columns, over rows 2 KB apart.
    let fma = [Flop::new(FlopKind::Fma, Precision::F64, 2)];
    for m in 0..5 {
        for rate in [1, 4] {
            let (mut batched, mut single) = sinks(m, rate, 0, 0);
            for k in 0..40u64 {
                for i in k + 1..40 {
                    let (x, y) = ((k * 256 + k + 1) * 8, (i * 256 + k + 1) * 8);
                    let row = [
                        Stream::load(x, 16, 16),
                        Stream::load(y, 16, 16),
                        Stream::store(y, 16, 16),
                    ];
                    let pairs = (255 - k) / 2;
                    batched.lockstep_run(&row, &fma, pairs);
                    PerAccess(&mut single).lockstep_run(&row, &fma, pairs);
                }
            }
            assert_same(
                &mut batched,
                &mut single,
                &format!("machine {m}, rate {rate}"),
            );
        }
    }
}

#[test]
fn more_lines_in_a_set_than_ways_fall_back() {
    // Nine streams in one L1 set overflow every L1 here (4 or 8 ways):
    // the body evicts its own lines, so no window may be closed form.
    for m in 0..5 {
        let streams: Vec<Stream> = (0..9).map(|j| Stream::load(j * SAME_SET, 4, 4)).collect();
        let (mut batched, mut single) = sinks(m, 1, 0, 0);
        batched.lockstep_run(&streams, &[], 64);
        PerAccess(&mut single).lockstep_run(&streams, &[], 64);
        assert_same(&mut batched, &mut single, &format!("machine {m}"));
        assert!(
            batched.hierarchy().level_stats(0).misses > 64,
            "machine {m}: the streams must evict each other"
        );
    }
}

#[test]
fn flop_cycles_match_at_rates_that_are_not_powers_of_two() {
    // A core whose rates and penalty are not dyadic: the closed-form sum
    // would round differently, so the cycles go one flop at a time.
    let mut core = CoreModel::nehalem();
    core.f64_scalar_flops_per_cycle = 3.0;
    core.f64_simd_flops_per_cycle = 5.0;
    core.long_latency_penalty_cycles = 7.3;
    let exec = ModelExec::new(
        core,
        HierarchyConfig::xeon_x5550(),
        TlbConfig::new(64, 4096),
        30,
        1,
    );
    let (mut batched, mut single) = (exec.clone(), exec);
    let body = [
        Flop::new(FlopKind::Div, Precision::F64, 1),
        FLOPS[0],
        FLOPS[1],
    ];
    for (flops, n) in [(&body[..], 999), (&body[1..2], 12345), (&body[..1], 3)] {
        batched.lockstep_run(&[Stream::load(0, 8, 8)], flops, n);
        PerAccess(&mut single).lockstep_run(&[Stream::load(0, 8, 8)], flops, n);
        assert_same(&mut batched, &mut single, &format!("{n} × {flops:?}"));
    }
}

#[test]
fn empty_runs_and_flop_only_bodies_match() {
    let (mut batched, mut single) = sinks(1, 3, 0, 0);
    let div = [Flop::new(FlopKind::Div, Precision::F64, 1), FLOPS[0]];
    for (streams, n) in [(&[][..], 1000), (&[Stream::load(64, 8, 8)][..], 0)] {
        batched.lockstep_run(streams, &div, n);
        PerAccess(&mut single).lockstep_run(streams, &div, n);
    }
    assert_same(&mut batched, &mut single, "empty runs");
}
