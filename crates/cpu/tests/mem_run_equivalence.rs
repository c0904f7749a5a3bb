//! Property test: `ModelExec::mem_run` (one TLB and hierarchy lookup per
//! L1 line, trailing accesses charged in closed form, sample windows
//! skipped in one step) produces exactly the report of the per-access
//! default loop — every counter, every count and every `f64` field bit
//! for bit. Covers strides of 0, under a line, one line, not dividing a
//! line and over a page; runs crossing several 1,024-access sample
//! windows at sample rates 1–4; 4/8/16-byte loads and stores; routing
//! with and without a page table, including runs that leave its span;
//! and runs that start mid-window behind a random per-access prefix.

use mb_cpu::exec_model::{ExecReport, ModelExec};
use mb_cpu::ops::{Exec, FlopKind, Precision};
use mb_mem::pages::PageTable;
use mb_simcore::rng::{Rng, Xoshiro256};
use proptest::prelude::*;

/// Forwards every report to a `ModelExec` but keeps the trait's default
/// `mem_run`, which expands a run into single loads and stores.
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

/// Asserts two reports are identical, comparing `f64` fields by bits.
fn assert_same(batched: &ExecReport, single: &ExecReport, context: &str) {
    assert_eq!(batched.cycles, single.cycles, "cycles: {context}");
    assert_eq!(batched.time, single.time, "time: {context}");
    assert_eq!(batched.counters, single.counters, "counters: {context}");
    assert_eq!(batched.counts, single.counts, "counts: {context}");
    for (name, b, s) in [
        ("compute", batched.compute_cycles, single.compute_cycles),
        ("memory", batched.memory_cycles, single.memory_cycles),
        ("branch", batched.branch_cycles, single.branch_cycles),
    ] {
        assert_eq!(
            b.to_bits(),
            s.to_bits(),
            "{name}_cycles {b} vs {s}: {context}"
        );
    }
}

/// Strides in bytes: zero, under a line, one Snowball and one Nehalem
/// line, not dividing a line, a page plus a bit, and two pages.
const STRIDES: [u64; 10] = [0, 4, 8, 12, 32, 64, 24, 100, 4096 + 36, 8192];
const BYTES: [u32; 3] = [4, 8, 16];

/// A sink pair: the Snowball or Nehalem model at `sample_rate`, with an
/// optional page table of `pages` random frames.
fn sinks(platform: usize, sample_rate: u32, pages: usize, seed: u64) -> (ModelExec, ModelExec) {
    let base = match platform {
        0 => ModelExec::snowball(),
        _ => ModelExec::nehalem(),
    };
    let mut exec = base.with_sample_rate(sample_rate);
    if pages > 0 {
        let mut rng = Xoshiro256::seed_from(seed);
        let frames = (0..pages).map(|_| rng.gen_range(1 << 18)).collect();
        exec.set_page_table(Some(PageTable::new(4096, frames)));
    }
    (exec.clone(), exec)
}

/// One batched run: `(stride index, base, n, bytes index, is_store)`.
type Run = (usize, u64, u64, usize, bool);

/// Feeds `prefix` single accesses and then `runs` to both sinks — as
/// `mem_run` to one and through the per-access loop to the other — and
/// compares the reports after every step.
fn drive(mut batched: ModelExec, mut single: ModelExec, seed: u64, prefix: u64, runs: &[Run]) {
    // A random per-access prefix warms the memo and moves the access
    // index off a window boundary.
    let mut rng = Xoshiro256::seed_from(seed);
    for _ in 0..prefix {
        let addr = rng.gen_range(96 * 1024);
        let bytes = BYTES[rng.gen_range(3) as usize];
        if rng.gen_range(4) == 0 {
            batched.store(addr, bytes);
            single.store(addr, bytes);
        } else {
            batched.load(addr, bytes);
            single.load(addr, bytes);
        }
    }
    for (i, &(stride, base, n, bytes, is_store)) in runs.iter().enumerate() {
        let (stride, bytes) = (STRIDES[stride], BYTES[bytes]);
        batched.mem_run(base, stride, n, bytes, is_store);
        PerAccess(&mut single).mem_run(base, stride, n, bytes, is_store);
        // Interleave a single access so the next run starts after one.
        batched.load(base / 3, 4);
        single.load(base / 3, 4);
        let context =
            format!("run {i}: base {base:#x} stride {stride} n {n} {bytes} B store {is_store}");
        assert_same(&batched.finish(), &single.finish(), &context);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mem_run_matches_per_access_loop(
        geo in 0usize..16,
        (seed, prefix, pages) in (any::<u64>(), 0u64..2600, 1usize..24),
        runs in prop::collection::vec(
            (0usize..STRIDES.len(), 0u64..120 * 1024, 0u64..4200, 0usize..3, prop::bool::ANY),
            1..5,
        ),
    ) {
        let platform = geo % 2;
        let sample_rate = (geo / 2 % 4) as u32 + 1;
        // Half the cases route through a page table whose span the runs
        // (bases up to 120 KB) regularly leave.
        let pages = if geo / 8 == 0 { 0 } else { pages };
        let (batched, single) = sinks(platform, sample_rate, pages, seed);
        drive(batched, single, seed, prefix, &runs);
    }
}

#[test]
fn runs_that_cross_the_page_table_span_match() {
    for sample_rate in 1..=4 {
        let (batched, single) = sinks(0, sample_rate, 3, 7);
        // 12 KB mapped: an 8-byte-stride run from 10 KB walks out of the span.
        drive(
            batched,
            single,
            7,
            1000,
            &[
                (2, 10 * 1024, 4000, 1, false),
                (1, 12 * 1024 - 4, 3, 0, true),
            ],
        );
    }
}

#[test]
fn runs_that_wrap_the_address_space_match() {
    for sample_rate in [1, 3] {
        let (batched, single) = sinks(1, sample_rate, 0, 11);
        let top = u64::MAX - 100;
        drive(
            batched,
            single,
            11,
            5,
            &[(1, top, 2000, 0, false), (8, top, 40, 2, true)],
        );
    }
}

#[test]
fn an_empty_run_reports_nothing() {
    let (mut batched, mut single) = sinks(0, 2, 0, 0);
    batched.mem_run(0x40, 8, 0, 8, false);
    assert_same(&batched.finish(), &single.finish(), "empty run");
}
