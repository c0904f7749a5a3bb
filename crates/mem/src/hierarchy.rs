//! Multi-level cache hierarchies with per-level latencies.
//!
//! A [`Hierarchy`] stacks [`Cache`] levels (L1 closest to the core) over a
//! DRAM latency. Each access probes levels in order, charges the latency
//! of the level that hits (or memory), and installs the line in every
//! level it traversed (inclusive hierarchy, like both the Nehalem and the
//! Cortex-A9 systems of the paper).
//!
//! Preset constructors describe the paper's three machines from their
//! public specifications (Figure 2 geometry):
//!
//! * [`HierarchyConfig::xeon_x5550`] — 32 KB L1 / 256 KB L2 / 8 MB shared L3;
//! * [`HierarchyConfig::snowball_a9500`] — 32 KB L1 / 512 KB shared L2;
//! * [`HierarchyConfig::tegra2`] — 32 KB L1 / 1 MB shared L2.

use crate::cache::{Cache, CacheConfig, CacheImage, CacheStats, Replacement, WayImage};

/// One level of the hierarchy: geometry plus hit latency in cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelConfig {
    /// Cache geometry and replacement policy.
    pub cache: CacheConfig,
    /// Latency in core cycles charged when this level hits.
    pub hit_latency_cycles: u64,
    /// Sustained fill bandwidth from this level towards the core, in
    /// bytes per core cycle. Bounds streaming throughput: every line
    /// fetched from this level occupies `line_bytes / fill` cycles of
    /// transfer bandwidth that no amount of latency hiding removes.
    pub fill_bytes_per_cycle: f64,
}

/// Configuration of a whole hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyConfig {
    /// Levels ordered L1 → last-level cache.
    pub levels: Vec<LevelConfig>,
    /// Latency in core cycles charged on a full miss to DRAM.
    pub memory_latency_cycles: u64,
    /// Sustained DRAM fill bandwidth in bytes per core cycle.
    pub memory_fill_bytes_per_cycle: f64,
}

impl HierarchyConfig {
    /// Intel Xeon X5550 (Nehalem): 32 KB 8-way L1d, 256 KB 8-way L2,
    /// 8 MB 16-way shared L3, 64-byte lines. Latencies ≈ 4/10/38 cycles,
    /// DRAM ≈ 180 cycles at 2.66 GHz (~68 ns).
    pub fn xeon_x5550() -> Self {
        HierarchyConfig {
            levels: vec![
                LevelConfig {
                    cache: CacheConfig::new(32 * 1024, 64, 8, Replacement::Lru),
                    hit_latency_cycles: 4,
                    fill_bytes_per_cycle: 32.0,
                },
                LevelConfig {
                    cache: CacheConfig::new(256 * 1024, 64, 8, Replacement::Lru),
                    hit_latency_cycles: 10,
                    fill_bytes_per_cycle: 16.0,
                },
                LevelConfig {
                    cache: CacheConfig::new(8 * 1024 * 1024, 64, 16, Replacement::Lru),
                    hit_latency_cycles: 38,
                    fill_bytes_per_cycle: 8.0,
                },
            ],
            memory_latency_cycles: 180,
            memory_fill_bytes_per_cycle: 4.0,
        }
    }

    /// ST-Ericsson A9500 (Snowball): dual Cortex-A9, 32 KB 4-way L1d with
    /// 32-byte lines, 512 KB 8-way shared L2. Latencies ≈ 4/25 cycles,
    /// LP-DDR2 ≈ 160 cycles at 1 GHz.
    pub fn snowball_a9500() -> Self {
        HierarchyConfig {
            levels: vec![
                LevelConfig {
                    cache: CacheConfig::new(32 * 1024, 32, 4, Replacement::Lru),
                    hit_latency_cycles: 4,
                    fill_bytes_per_cycle: 8.0,
                },
                LevelConfig {
                    cache: CacheConfig::new(512 * 1024, 32, 8, Replacement::Lru),
                    hit_latency_cycles: 25,
                    // PL310 L2: 64-bit port at core clock.
                    fill_bytes_per_cycle: 8.0,
                },
            ],
            memory_latency_cycles: 160,
            // LP-DDR2-800 dual die: ~2 GB/s sustained at 1 GHz.
            memory_fill_bytes_per_cycle: 2.0,
        }
    }

    /// NVIDIA Tegra2 (Tibidabo node): dual Cortex-A9, 32 KB 4-way L1d,
    /// 1 MB shared L2.
    pub fn tegra2() -> Self {
        HierarchyConfig {
            levels: vec![
                LevelConfig {
                    cache: CacheConfig::new(32 * 1024, 32, 4, Replacement::Lru),
                    hit_latency_cycles: 4,
                    fill_bytes_per_cycle: 8.0,
                },
                LevelConfig {
                    cache: CacheConfig::new(1024 * 1024, 32, 8, Replacement::Lru),
                    hit_latency_cycles: 26,
                    fill_bytes_per_cycle: 8.0,
                },
            ],
            memory_latency_cycles: 170,
            memory_fill_bytes_per_cycle: 2.0,
        }
    }

    /// Line size of the innermost (L1) level.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no levels.
    pub fn l1_line_bytes(&self) -> usize {
        self.levels
            .first()
            .expect("hierarchy has levels")
            .cache
            .line_bytes
    }
}

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Satisfied by cache level `0` (L1), `1` (L2), …
    Cache(usize),
    /// Went all the way to DRAM.
    Memory,
}

/// A simulated multi-level cache hierarchy.
///
/// # Examples
///
/// ```
/// use mb_mem::hierarchy::{Hierarchy, HierarchyConfig, HitLevel};
///
/// let mut h = Hierarchy::new(HierarchyConfig::snowball_a9500());
/// let (lvl, cycles) = h.access(0x4000);
/// assert_eq!(lvl, HitLevel::Memory);          // cold miss
/// let (lvl, cycles2) = h.access(0x4000);
/// assert_eq!(lvl, HitLevel::Cache(0));        // now in L1
/// assert!(cycles2 < cycles);
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    levels: Vec<(Cache, u64)>,
    memory_latency_cycles: u64,
    memory_accesses: u64,
    total_cycles: u64,
    accesses: u64,
}

impl Hierarchy {
    /// Builds an empty hierarchy from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no levels.
    pub fn new(cfg: HierarchyConfig) -> Self {
        assert!(!cfg.levels.is_empty(), "hierarchy needs at least one level");
        Hierarchy {
            levels: cfg
                .levels
                .iter()
                .map(|l| (Cache::new(l.cache), l.hit_latency_cycles))
                .collect(),
            memory_latency_cycles: cfg.memory_latency_cycles,
            memory_accesses: 0,
            total_cycles: 0,
            accesses: 0,
        }
    }

    /// Accesses a (physical) byte address. Returns the satisfying level
    /// and the latency charged in cycles.
    // Always inlined: the single-access and run paths of
    // `ModelExec` both call it, and an out-of-line call costs the
    // per-access path about a tenth of its time.
    #[inline(always)]
    pub fn access(&mut self, addr: u64) -> (HitLevel, u64) {
        self.accesses += 1;
        for (i, (cache, latency)) in self.levels.iter_mut().enumerate() {
            if cache.access(addr).is_hit() {
                // The levels probed above this one missed, and their
                // `access` calls already installed the line (inclusive).
                self.total_cycles += *latency;
                return (HitLevel::Cache(i), *latency);
            }
        }
        self.memory_accesses += 1;
        self.total_cycles += self.memory_latency_cycles;
        (HitLevel::Memory, self.memory_latency_cycles)
    }

    /// Accesses `k` addresses of one L1 line in a row, `addr` first —
    /// equivalent to `k` calls of [`Hierarchy::access`], returning the
    /// first outcome. The other `k − 1` are L1 last-line-memo hits, so
    /// they are charged in closed form at the L1 latency.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    #[inline]
    pub fn access_run(&mut self, addr: u64, k: u64) -> (HitLevel, u64) {
        assert!(k > 0, "an access run needs at least one access");
        let first = self.access(addr);
        let rest = k - 1;
        let (l1, l1_latency) = &mut self.levels[0];
        l1.repeat_last(rest);
        self.accesses += rest;
        self.total_cycles += rest * *l1_latency;
        first
    }

    /// The L1 slot (`set * associativity + way`) holding the line of the
    /// previous access.
    #[inline]
    pub fn l1_last_slot(&self) -> usize {
        self.levels[0].0.last_slot()
    }

    /// Whether L1 slot `slot`, one of the set of `addr`'s line, holds
    /// that line.
    #[inline]
    pub fn l1_holds(&self, slot: usize, addr: u64) -> bool {
        self.levels[0].0.holds(slot, addr)
    }

    /// Whether any `lines` lines accessed in a row are all still in L1
    /// afterwards, whatever was resident before. That holds under LRU
    /// for at most `associativity` lines: a miss evicts the least recent
    /// way of its set, and while fewer than `associativity` ways hold
    /// lines of the row, that is a way the row has not touched. (The
    /// line a row may start on with a memo hit is the most recent of its
    /// set, so it outlives every other way the row has not touched.)
    pub fn l1_keeps(&self, lines: usize) -> bool {
        self.levels[0].0.keeps(lines)
    }

    /// Accesses `accesses` — `(addr, slot)` pairs, each L1 slot holding
    /// its address's line — `reps` times over, exactly as `reps` passes
    /// of [`Hierarchy::access`] over the addresses would when the L1
    /// last-line memo already holds the line of the last one. Every
    /// access is an L1 hit at the L1 latency, so no other level is
    /// probed; L1 counts all but the last pass in closed form and
    /// replays the last one to write each touched way's final stamp and
    /// PLRU bits (see `Cache::repeat_hits`).
    pub fn repeat_l1_hits<I>(&mut self, accesses: I, reps: u64)
    where
        I: ExactSizeIterator<Item = (u64, usize)> + Clone,
    {
        let n = reps * accesses.len() as u64;
        let (l1, l1_latency) = &mut self.levels[0];
        l1.repeat_hits(accesses, reps);
        self.accesses += n;
        self.total_cycles += n * *l1_latency;
    }

    /// Statistics of cache level `i` (0 = L1).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn level_stats(&self, i: usize) -> &CacheStats {
        self.levels[i].0.stats()
    }

    /// Number of cache levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Accesses that reached DRAM.
    pub fn memory_accesses(&self) -> u64 {
        self.memory_accesses
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Sum of charged latencies in cycles.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Clears contents and counters.
    pub fn reset(&mut self) {
        for (cache, _) in &mut self.levels {
            cache.reset();
        }
        self.memory_accesses = 0;
        self.total_cycles = 0;
        self.accesses = 0;
    }

    /// A compact image of the hierarchy's state for [`Hierarchy::restore`]:
    /// every level's valid ways, non-zero PLRU words, clock, statistics,
    /// RNG and last-line memo, plus the hierarchy's own counters. Its size
    /// follows the lines resident, not the capacity.
    pub fn image(&self) -> HierarchyImage {
        let mut ways = Vec::new();
        let mut plru = Vec::new();
        let caches = self
            .levels
            .iter()
            .map(|(cache, _)| cache.image(&mut ways, &mut plru))
            .collect();
        HierarchyImage {
            caches,
            ways,
            plru,
            memory_accesses: self.memory_accesses,
            total_cycles: self.total_cycles,
            accesses: self.accesses,
        }
    }

    /// Rolls the hierarchy back, in place, to the state `image` was taken
    /// in: every later access then behaves exactly as it would have from
    /// that state. Clears only the stamp and PLRU pages in use, so it
    /// writes only pages the hierarchy has already touched, and allocates
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if the image was taken from a hierarchy of another geometry.
    pub fn restore(&mut self, image: &HierarchyImage) {
        assert_eq!(
            image.caches.len(),
            self.levels.len(),
            "hierarchy image of another geometry"
        );
        for ((cache, _), level) in self.levels.iter_mut().zip(&image.caches) {
            cache.restore(level, &image.ways, &image.plru);
        }
        self.memory_accesses = image.memory_accesses;
        self.total_cycles = image.total_cycles;
        self.accesses = image.accesses;
    }
}

/// The state of a [`Hierarchy`] at one point, taken by
/// [`Hierarchy::image`] and rolled back to by [`Hierarchy::restore`]. The
/// valid ways and PLRU words of all levels share two buffers. Two
/// images are equal exactly when the hierarchies they were taken from
/// are in the same state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyImage {
    caches: Vec<CacheImage>,
    ways: Vec<WayImage>,
    plru: Vec<(usize, u64)>,
    memory_accesses: u64,
    total_cycles: u64,
    accesses: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_geometry() {
        let xeon = HierarchyConfig::xeon_x5550();
        assert_eq!(xeon.levels.len(), 3);
        assert_eq!(xeon.levels[2].cache.size_bytes, 8 * 1024 * 1024);
        let snow = HierarchyConfig::snowball_a9500();
        assert_eq!(snow.levels.len(), 2);
        assert_eq!(snow.levels[0].cache.size_bytes, 32 * 1024);
        assert_eq!(snow.l1_line_bytes(), 32);
        assert_eq!(xeon.l1_line_bytes(), 64);
    }

    #[test]
    fn miss_fills_all_levels() {
        let mut h = Hierarchy::new(HierarchyConfig::xeon_x5550());
        let (lvl, lat) = h.access(0x1234);
        assert_eq!(lvl, HitLevel::Memory);
        assert_eq!(lat, 180);
        let (lvl, lat) = h.access(0x1234);
        assert_eq!(lvl, HitLevel::Cache(0));
        assert_eq!(lat, 4);
        assert_eq!(h.memory_accesses(), 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        // Sweep > L1 but < L2 on the Snowball, then revisit: L2 hits.
        let mut h = Hierarchy::new(HierarchyConfig::snowball_a9500());
        for addr in (0..128 * 1024u64).step_by(32) {
            h.access(addr);
        }
        // Address 0 was evicted from the 32 KB L1 but lives in the 512 KB L2.
        let (lvl, lat) = h.access(0);
        assert_eq!(lvl, HitLevel::Cache(1));
        assert_eq!(lat, 25);
    }

    #[test]
    fn small_working_set_stays_in_l1() {
        let mut h = Hierarchy::new(HierarchyConfig::snowball_a9500());
        // 16 KB working set, two sweeps.
        for _ in 0..2 {
            for addr in (0..16 * 1024u64).step_by(32) {
                h.access(addr);
            }
        }
        // Second sweep: all L1 hits → L1 hit count = 512 lines.
        assert_eq!(h.level_stats(0).hits, 512);
        assert_eq!(h.memory_accesses(), 512); // only the cold misses
    }

    #[test]
    fn avg_latency_reflects_locality() {
        let mut hot = Hierarchy::new(HierarchyConfig::snowball_a9500());
        for _ in 0..1000 {
            hot.access(0);
        }
        let mut cold = Hierarchy::new(HierarchyConfig::snowball_a9500());
        for i in 0..1000u64 {
            cold.access(i * 4096); // new page every time
        }
        assert!(hot.total_cycles() < 5 * hot.accesses());
        assert!(cold.total_cycles() > 100 * cold.accesses());
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut h = Hierarchy::new(HierarchyConfig::tegra2());
        h.access(0);
        h.access(0);
        h.reset();
        assert_eq!(h.accesses(), 0);
        let (lvl, _) = h.access(0);
        assert_eq!(lvl, HitLevel::Memory);
    }

    #[test]
    fn total_cycles_accumulate() {
        let mut h = Hierarchy::new(HierarchyConfig::snowball_a9500());
        h.access(0); // 160
        h.access(0); // 4
        assert_eq!(h.total_cycles(), 164);
        assert_eq!(h.accesses(), 2);
    }
}
