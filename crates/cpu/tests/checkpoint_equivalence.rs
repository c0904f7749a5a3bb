//! Property tests: `ModelExec::rollback` to a `ModelExec::checkpoint`
//! leaves the sink exactly where the checkpoint was taken. A sink runs a
//! random prefix, checkpoints, runs suffix A, rolls back and runs suffix
//! B; its report must equal (by `PartialEq`, so every `f64` too) the
//! report of a fresh sink fed the prefix and B alone — and the same holds
//! after three rollbacks in a row, for suffixes that move the hints,
//! batch runs and sample windows. The machines are the Nehalem, Tegra2
//! and Snowball presets plus a pseudo-LRU and a random-replacement
//! hierarchy, small enough that the streams evict. A twin property holds
//! `Hierarchy::restore` to the same contract on every level's
//! statistics and every later outcome.

use mb_cpu::arch::CoreModel;
use mb_cpu::exec_model::{ExecReport, ModelExec};
use mb_cpu::ops::{Exec, FlopKind, Precision};
use mb_mem::cache::{CacheConfig, Replacement};
use mb_mem::hierarchy::{Hierarchy, HierarchyConfig, LevelConfig};
use mb_mem::tlb::TlbConfig;
use proptest::prelude::*;

/// A two-level hierarchy of small caches under `policy`.
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

/// Machine `m`: the Nehalem, Tegra2 and Snowball presets, then a Cortex-A9
/// over a pseudo-LRU and over a random-replacement hierarchy.
fn machine(m: usize, sample_rate: u32) -> ModelExec {
    let exec = match m {
        0 => ModelExec::nehalem(),
        1 => ModelExec::tegra2(),
        2 => ModelExec::snowball(),
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
    exec.with_sample_rate(sample_rate)
}

/// One reported operation: `(kind, address, count)`.
type Op = (u8, u64, u64);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..8, 0u64..384 * 1024, 0u64..600), 0..160)
}

/// Reports `ops` to `exec`: loads and stores (the common case), strided
/// runs, integer, flop and branch batches, and both hints.
fn feed(exec: &mut ModelExec, ops: &[Op]) {
    for &(kind, addr, n) in ops {
        match kind {
            0 | 1 => exec.load(addr, 8),
            2 => exec.store(addr, 8),
            3 => exec.mem_run(addr, 8 + 24 * (n % 3), n, 8, n % 2 == 0),
            4 => exec.int_ops(n),
            5 => {
                exec.flop_run(FlopKind::Fma, Precision::F64, 1, n);
                exec.branch_run(n / 4, n % 5 != 0);
            }
            6 => exec.set_mlp_hint((n % 12) as u32 + 1),
            _ => exec.set_prefetch_hint((n % 11) as f64 / 10.0),
        }
    }
}

/// `suffix`, led by a load of the last address `before` loaded or stored:
/// after a rollback that line is the one a stale last-line memo would
/// wrongly report as a hit.
fn after(before: &[Op], suffix: &[Op]) -> Vec<Op> {
    let last = before.iter().rev().find(|op| op.0 <= 2);
    last.map(|&(_, addr, _)| (0, addr, 0))
        .into_iter()
        .chain(suffix.iter().copied())
        .collect()
}

/// What a fresh sink reports after `prefix` then `suffix`.
fn oracle(m: usize, rate: u32, prefix: &[Op], suffix: &[Op]) -> ExecReport {
    let mut exec = machine(m, rate);
    feed(&mut exec, prefix);
    feed(&mut exec, suffix);
    exec.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rollback_matches_a_fresh_sink(
        m in 0usize..5,
        sampled in prop::bool::ANY,
        prefix in ops(),
        a in ops(),
        b in ops(),
    ) {
        let rate = if sampled { 3 } else { 1 };
        let mut exec = machine(m, rate);
        feed(&mut exec, &prefix);
        let checkpoint = exec.checkpoint();
        prop_assert_eq!(exec.finish(), oracle(m, rate, &prefix, &[]));
        feed(&mut exec, &a);
        exec.rollback(&checkpoint);
        let b_after_a = after(&a, &b);
        feed(&mut exec, &b_after_a);
        prop_assert_eq!(exec.finish(), oracle(m, rate, &prefix, &b_after_a), "prefix + B");
        // Three rollbacks in a row, each followed by its own suffix.
        let mut previous = b_after_a;
        for (round, suffix) in [&a, &b, &a].into_iter().enumerate() {
            exec.rollback(&checkpoint);
            let suffix = after(&previous, suffix);
            feed(&mut exec, &suffix);
            prop_assert_eq!(
                exec.finish(),
                oracle(m, rate, &prefix, &suffix),
                "rollback {} in a row", round + 1
            );
            previous = suffix;
        }
        exec.rollback(&checkpoint);
        exec.rollback(&checkpoint);
        prop_assert_eq!(exec.finish(), oracle(m, rate, &prefix, &[]), "back to the checkpoint");
    }

    #[test]
    fn hierarchy_restore_matches_a_fresh_hierarchy(
        cfg in 0usize..5,
        prefix in prop::collection::vec(0u64..384 * 1024, 0..600),
        a in prop::collection::vec(0u64..384 * 1024, 0..600),
        b in prop::collection::vec(0u64..384 * 1024, 0..600),
    ) {
        let config = match cfg {
            0 => HierarchyConfig::xeon_x5550(),
            1 => HierarchyConfig::tegra2(),
            2 => HierarchyConfig::snowball_a9500(),
            3 => small_hierarchy(Replacement::PseudoLru),
            _ => small_hierarchy(Replacement::Random),
        };
        let mut fresh = Hierarchy::new(config.clone());
        let mut rolled = Hierarchy::new(config);
        for &addr in &prefix {
            fresh.access(addr);
            rolled.access(addr);
        }
        let image = rolled.image();
        for _ in 0..2 {
            for &addr in &a {
                rolled.access(addr);
            }
            rolled.restore(&image);
        }
        // Lead with `a`'s last line, which a stale last-line memo would
        // report as a hit.
        for &addr in a.last().into_iter().chain(&b) {
            prop_assert_eq!(rolled.access(addr), fresh.access(addr), "outcome at {:#x}", addr);
        }
        for level in 0..fresh.num_levels() {
            prop_assert_eq!(rolled.level_stats(level), fresh.level_stats(level), "level {}", level);
        }
        prop_assert_eq!(rolled.memory_accesses(), fresh.memory_accesses());
        prop_assert_eq!(rolled.accesses(), fresh.accesses());
        prop_assert_eq!(rolled.total_cycles(), fresh.total_cycles());
    }
}

#[test]
#[should_panic(expected = "hierarchy image of another geometry")]
fn a_checkpoint_of_another_geometry_is_refused() {
    let mut nehalem = ModelExec::nehalem();
    let checkpoint = ModelExec::tegra2().checkpoint();
    nehalem.rollback(&checkpoint);
}
