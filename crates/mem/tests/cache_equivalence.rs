//! Property tests: the fast `Cache` (dense tag/stamp arrays, PLRU tree
//! only under PLRU, last-line memo, precomputed shift/masks) behaves identically to the original nested-`Vec`
//! implementation, re-implemented here as a reference oracle — every
//! per-access outcome, the final statistics and residency probes must
//! agree across replacement policies and edge geometries, including
//! same-line runs that exercise the memo, resets between two touches of
//! one line, and tags that are 0 or span the whole address. Another
//! property checks `Hierarchy::access_run` against `k` single
//! `Hierarchy::access` calls inside one L1 line: the first outcome,
//! every level's statistics and every later outcome must agree. A last
//! property checks the shift/mask `PageTable::translate` against the
//! division/modulo form it replaced.

use mb_mem::cache::{AccessResult, Cache, CacheConfig, Replacement};
use mb_mem::hierarchy::{Hierarchy, HierarchyConfig};
use mb_mem::pages::PageTable;
use mb_simcore::rng::{Rng, Xoshiro256};
use proptest::prelude::*;

/// The pre-flattening implementation, verbatim modulo names: one `Vec`
/// of ways per set, division/modulo index extraction, two-pass
/// hit-then-free scanning.
struct RefCache {
    cfg: CacheConfig,
    sets: Vec<Vec<RefWay>>,
    clock: u64,
    rng: Xoshiro256,
    plru: Vec<u64>,
    accesses: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

#[derive(Clone)]
struct RefWay {
    tag: u64,
    valid: bool,
    stamp: u64,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        let sets = (0..cfg.num_sets())
            .map(|_| {
                vec![
                    RefWay {
                        tag: 0,
                        valid: false,
                        stamp: 0,
                    };
                    cfg.associativity
                ]
            })
            .collect();
        let plru = vec![0u64; cfg.num_sets()];
        RefCache {
            cfg,
            sets,
            clock: 0,
            rng: Xoshiro256::seed_from(0xCAC4E),
            plru,
            accesses: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.cfg.line_bytes as u64;
        let set = (line as usize) & (self.cfg.num_sets() - 1);
        let tag = line >> self.cfg.num_sets().trailing_zeros();
        (set, tag)
    }

    fn access(&mut self, addr: u64) -> AccessResult {
        self.clock += 1;
        self.accesses += 1;
        let (set_idx, tag) = self.set_and_tag(addr);
        let ways = self.cfg.associativity;

        if let Some(w) = self.sets[set_idx]
            .iter()
            .position(|w| w.valid && w.tag == tag)
        {
            self.hits += 1;
            self.sets[set_idx][w].stamp = self.clock;
            self.touch_plru(set_idx, w);
            return AccessResult::Hit;
        }

        self.misses += 1;

        if let Some(w) = self.sets[set_idx].iter().position(|w| !w.valid) {
            self.fill(set_idx, w, tag);
            return AccessResult::Miss { evicted: false };
        }

        let victim = match self.cfg.replacement {
            Replacement::Lru => {
                let set = &self.sets[set_idx];
                (0..ways)
                    .min_by_key(|&w| set[w].stamp)
                    .expect("non-empty set")
            }
            Replacement::Random => self.rng.gen_range(ways as u64) as usize,
            Replacement::PseudoLru => self.plru_victim(set_idx),
        };
        self.evictions += 1;
        self.fill(set_idx, victim, tag);
        AccessResult::Miss { evicted: true }
    }

    fn fill(&mut self, set_idx: usize, way: usize, tag: u64) {
        let w = &mut self.sets[set_idx][way];
        w.tag = tag;
        w.valid = true;
        w.stamp = self.clock;
        self.touch_plru(set_idx, way);
    }

    fn touch_plru(&mut self, set_idx: usize, way: usize) {
        let ways = self.cfg.associativity;
        if !ways.is_power_of_two() || ways < 2 {
            return;
        }
        let levels = ways.trailing_zeros();
        let bits = &mut self.plru[set_idx];
        let mut node = 1usize;
        for level in (0..levels).rev() {
            let bit = (way >> level) & 1;
            if bit == 0 {
                *bits |= 1 << node;
            } else {
                *bits &= !(1 << node);
            }
            node = node * 2 + bit;
        }
    }

    fn plru_victim(&self, set_idx: usize) -> usize {
        let ways = self.cfg.associativity;
        let levels = ways.trailing_zeros();
        let bits = self.plru[set_idx];
        let mut node = 1usize;
        let mut way = 0usize;
        for _ in 0..levels {
            let b = ((bits >> node) & 1) as usize;
            way = (way << 1) | b;
            node = node * 2 + b;
        }
        way
    }

    fn contains(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.set_and_tag(addr);
        self.sets[set_idx].iter().any(|w| w.valid && w.tag == tag)
    }

    /// Invalidates every way (tags stay behind, stale), clears the PLRU
    /// bits, statistics and clock, and keeps the RNG state.
    fn reset(&mut self) {
        for set in &mut self.sets {
            for way in set {
                way.valid = false;
                way.stamp = 0;
            }
        }
        self.plru.iter_mut().for_each(|b| *b = 0);
        self.clock = 0;
        self.accesses = 0;
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
    }
}

/// Edge geometries: direct-mapped, tiny 2-way, fully associative
/// (single set), odd non-power-of-two associativity (PLRU degrades to
/// its early-return path), realistic L1 shapes, and 1-byte lines, where
/// the tag is the whole address (one set) or nearly so.
const GEOMETRIES: usize = 8;

fn geometry(index: usize) -> CacheConfig {
    let (size, line, assoc) = match index % GEOMETRIES {
        0 => (256, 16, 1),      // direct-mapped
        1 => (128, 16, 2),      // tiny 2-way
        2 => (512, 32, 16),     // fully associative: one set
        3 => (96, 16, 3),       // 3-way: PLRU early-return path
        4 => (4 * 1024, 32, 4), // Cortex-A9 L1 shape, scaled down
        5 => (2 * 1024, 64, 8), // Nehalem L1 shape, scaled down
        6 => (4, 1, 4),         // one set, 1-byte lines: tag == addr
        _ => (16, 1, 2),        // 8 sets, 1-byte lines
    };
    let replacement = match index / GEOMETRIES % 3 {
        0 => Replacement::Lru,
        1 => Replacement::Random,
        _ => Replacement::PseudoLru,
    };
    CacheConfig::new(size, line, assoc, replacement)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn flattened_cache_matches_nested_reference(
        geo in 0usize..3 * GEOMETRIES,
        addrs in prop::collection::vec(0u64..8192, 1..400),
        with_reset in proptest::arbitrary::any::<bool>(),
    ) {
        let cfg = geometry(geo);
        let mut real = Cache::new(cfg);
        let mut oracle = RefCache::new(cfg);
        let split = addrs.len() / 2;
        for (i, &addr) in addrs.iter().enumerate() {
            if with_reset && i == split {
                // `reset` must also agree (it keeps the RNG state).
                real.reset();
                let fresh_rng = std::mem::replace(
                    &mut oracle.rng,
                    Xoshiro256::seed_from(0),
                );
                oracle = RefCache::new(cfg);
                oracle.rng = fresh_rng;
            }
            let got = real.access(addr);
            let want = oracle.access(addr);
            prop_assert_eq!(got, want, "access #{} to {:#x} under {:?}", i, addr, cfg);
        }
        let stats = *real.stats();
        prop_assert_eq!(stats.accesses, oracle.accesses);
        prop_assert_eq!(stats.hits, oracle.hits);
        prop_assert_eq!(stats.misses, oracle.misses);
        prop_assert_eq!(stats.evictions, oracle.evictions);
        // Residency probes over the whole address range agree too.
        for probe in (0..8192u64).step_by(16) {
            prop_assert_eq!(real.contains(probe), oracle.contains(probe));
        }
    }
}

/// Drives both caches through `steps` and asserts agreement after every
/// access. A step is `(kind, x, len)`:
///
/// * a fresh address, small (tag 0 on most geometries) or at the top of
///   the address space (the largest tags);
/// * a run of `len` accesses inside the current line — the memo's case;
/// * `len` alternations between the current line and the previous one,
///   so the memo keeps being replaced;
/// * the previous address again;
/// * a reset of both caches.
fn drive(cfg: CacheConfig, steps: &[(u8, u64, u64)]) {
    let mut real = Cache::new(cfg);
    let mut oracle = RefCache::new(cfg);
    let line = cfg.line_bytes as u64;
    let (mut cur, mut prev) = (0u64, 0u64);
    let mut touched = Vec::new();
    let mut n = 0usize;
    let mut check = |real: &mut Cache, oracle: &mut RefCache, addr: u64| {
        let got = real.access(addr);
        let want = oracle.access(addr);
        assert_eq!(got, want, "access #{n} to {addr:#x} under {cfg:?}");
        touched.push(addr);
        n += 1;
    };
    for &(kind, x, len) in steps {
        match kind % 8 {
            0 | 1 => {
                prev = cur;
                cur = if kind == 0 {
                    x % 8192
                } else {
                    u64::MAX - x % 8192
                };
                check(&mut real, &mut oracle, cur);
            }
            2 | 3 => {
                for i in 0..len {
                    let addr = (cur & !(line - 1)) | (x.wrapping_add(i) % line);
                    check(&mut real, &mut oracle, addr);
                }
            }
            4 | 5 => {
                for _ in 0..len {
                    check(&mut real, &mut oracle, prev);
                    check(&mut real, &mut oracle, cur);
                }
            }
            6 => check(&mut real, &mut oracle, prev),
            _ => {
                real.reset();
                oracle.reset();
            }
        }
    }
    let stats = *real.stats();
    assert_eq!(stats.accesses, oracle.accesses);
    assert_eq!(stats.hits, oracle.hits);
    assert_eq!(stats.misses, oracle.misses);
    assert_eq!(stats.evictions, oracle.evictions);
    for addr in touched {
        assert_eq!(
            real.contains(addr),
            oracle.contains(addr),
            "probe {addr:#x}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn same_line_runs_and_resets_match_nested_reference(
        geo in 0usize..3 * GEOMETRIES,
        steps in prop::collection::vec((0u8..8, any::<u64>(), 1u64..12), 1..160),
    ) {
        drive(geometry(geo), &steps);
    }
}

#[test]
fn reset_between_two_touches_of_one_line_forgets_it() {
    for geo in 0..3 * GEOMETRIES {
        let cfg = geometry(geo);
        for addr in [0, 0x40, u64::MAX] {
            let mut c = Cache::new(cfg);
            assert_eq!(c.access(addr), AccessResult::Miss { evicted: false });
            assert_eq!(c.access(addr), AccessResult::Hit);
            c.reset();
            assert_eq!(
                c.access(addr),
                AccessResult::Miss { evicted: false },
                "a stale memo answered {addr:#x} under {cfg:?}"
            );
            assert_eq!((c.stats().accesses, c.stats().hits), (1, 0));
        }
        // The same sequence against the oracle, with the reset mid-run.
        drive(
            cfg,
            &[(0, 0x40, 1), (2, 3, 4), (7, 0, 0), (2, 3, 4), (4, 0, 2)],
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn hierarchy_access_run_matches_k_single_accesses(
        preset in 0usize..3,
        steps in prop::collection::vec((any::<u64>(), 1u64..48, prop::bool::ANY), 1..300),
    ) {
        let cfg = match preset {
            0 => HierarchyConfig::snowball_a9500(),
            1 => HierarchyConfig::xeon_x5550(),
            _ => HierarchyConfig::tegra2(),
        };
        let line = cfg.l1_line_bytes() as u64;
        let mut real = Hierarchy::new(cfg.clone());
        let mut oracle = Hierarchy::new(cfg);
        for (i, &(x, k, run)) in steps.iter().enumerate() {
            // A 48 KB region (past the 32 KB L1s) keeps lines moving.
            let addr = x % (48 * 1024);
            if run {
                let got = real.access_run(addr, k);
                prop_assert_eq!(got, oracle.access(addr), "run #{} at {:#x}", i, addr);
                for j in 1..k {
                    // The rest of the run, anywhere in the same L1 line.
                    let same_line = (addr & !(line - 1)) | (x.wrapping_add(j * 4) % line);
                    oracle.access(same_line);
                }
            } else {
                prop_assert_eq!(real.access(addr), oracle.access(addr), "access #{}", i);
            }
            prop_assert_eq!(real.accesses(), oracle.accesses());
            prop_assert_eq!(real.total_cycles(), oracle.total_cycles());
            prop_assert_eq!(real.memory_accesses(), oracle.memory_accesses());
            for level in 0..real.num_levels() {
                prop_assert_eq!(real.level_stats(level), oracle.level_stats(level));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn page_table_translate_matches_div_mod(
        shift in 0u32..24,
        frames in prop::collection::vec(0u64..1 << 36, 1..64),
        offsets in prop::collection::vec(any::<u64>(), 1..64),
    ) {
        let page = 1u64 << shift;
        let table = PageTable::new(page as usize, frames.clone());
        let span = frames.len() as u64 * page;
        for raw in offsets {
            let offset = raw % span;
            let want = frames[(offset / page) as usize] * page + offset % page;
            prop_assert_eq!(table.translate(offset), want, "offset {} page {}", offset, page);
        }
    }
}
