//! Set-associative cache simulation.
//!
//! A [`Cache`] models one level: geometry (total size, line size,
//! associativity) plus a [`Replacement`] policy. It is deliberately a
//! *functional* model — it tracks which lines are resident and counts
//! hits/misses/evictions; latency is charged by the surrounding
//! [`crate::hierarchy::Hierarchy`].

use mb_simcore::rng::{Rng, Xoshiro256};

/// Replacement policy of a cache set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Replacement {
    /// True least-recently-used.
    Lru,
    /// Pseudo-random victim selection (seeded, deterministic).
    Random,
    /// Tree-based pseudo-LRU, as implemented by most real L1s.
    PseudoLru,
}

/// Geometry and policy of one cache level.
///
/// # Examples
///
/// ```
/// use mb_mem::cache::{CacheConfig, Replacement};
/// let cfg = CacheConfig::new(32 * 1024, 64, 8, Replacement::Lru);
/// assert_eq!(cfg.num_sets(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line (block) size in bytes; must be a power of two.
    pub line_bytes: usize,
    /// Number of ways per set.
    pub associativity: usize,
    /// Victim-selection policy.
    pub replacement: Replacement,
}

impl CacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero, `line_bytes` or the resulting
    /// number of sets is not a power of two, or the geometry is
    /// inconsistent (`size` not divisible by `line × ways`).
    pub fn new(
        size_bytes: usize,
        line_bytes: usize,
        associativity: usize,
        replacement: Replacement,
    ) -> Self {
        assert!(size_bytes > 0 && line_bytes > 0 && associativity > 0);
        assert!(line_bytes.is_power_of_two(), "line size must be 2^k");
        assert!(
            size_bytes.is_multiple_of(line_bytes * associativity),
            "size must be a multiple of line_bytes * associativity"
        );
        let cfg = CacheConfig {
            size_bytes,
            line_bytes,
            associativity,
            replacement,
        };
        assert!(
            cfg.num_sets().is_power_of_two(),
            "number of sets must be 2^k"
        );
        cfg
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.associativity)
    }
}

/// Hit/miss accounting for one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Valid lines evicted to make room.
    pub evictions: u64,
}

/// Outcome of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// The line was resident.
    Hit,
    /// The line was not resident; `evicted` reports whether a valid line
    /// had to be displaced.
    Miss {
        /// Whether a valid line was evicted to make room.
        evicted: bool,
    },
}

impl AccessResult {
    /// Returns `true` for a hit.
    pub fn is_hit(self) -> bool {
        matches!(self, AccessResult::Hit)
    }
}

/// A valid way in an image: `(slot, tag, stamp)`, the slot being
/// `set * associativity + way`.
pub(crate) type WayImage = (usize, u64, u64);

/// One cache's share of a [`crate::hierarchy::HierarchyImage`]: its
/// clock, statistics, RNG and last-line memo, plus the ranges its valid
/// ways and non-zero PLRU words occupy in the image's shared buffers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CacheImage {
    /// Geometry of the cache the image was taken from.
    cfg: CacheConfig,
    ways: std::ops::Range<usize>,
    plru: std::ops::Range<usize>,
    stats: CacheStats,
    clock: u64,
    rng: Xoshiro256,
    last_line: Option<u64>,
    last_slot: usize,
}

/// Stamp and PLRU words per chunk that [`Cache::restore`] tests for zero
/// before clearing: one 4 KiB page.
const RESTORE_CHUNK: usize = 512;

/// A set-associative cache.
///
/// Addresses are byte addresses; the cache extracts set index and tag
/// itself. Whether the addresses are *virtual* or *physical* is the
/// caller's choice — the Section V.A.1 experiments feed physical addresses
/// produced by a [`crate::pages::PageTable`], which is what makes page
/// allocation visible to the cache.
///
/// `access` is the hottest loop in the whole model (it runs once per
/// simulated memory reference), so the storage is laid out for it:
///
/// * Ways live in two dense arrays, `tags` and `stamps`, indexed by
///   `set * associativity + way`. A way is valid exactly when its LRU
///   stamp is non-zero (the clock is bumped before any stamp is written),
///   so a fresh or reset cache is all zeros.
/// * Set index and tag come from shift/mask values precomputed from the
///   power-of-two geometry.
/// * A lookup scans the set for a way with the tag and a non-zero stamp;
///   on a miss, one more pass picks the first invalid way, or else the
///   policy's victim (for LRU both are "the first way with the smallest
///   stamp", since invalid ways have stamp 0).
/// * The PLRU tree is kept only under [`Replacement::PseudoLru`], the
///   one policy that reads it.
/// * The line touched by the previous access is remembered. Touching it
///   again is a hit that changes no replacement state — it is already
///   the most recent way of its set, a PLRU re-touch is idempotent, and
///   a hit draws no random number — so it only bumps the counters.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Tag of set `s`, way `w` at `s * cfg.associativity + w`.
    tags: Vec<u64>,
    /// LRU stamp of the same way (higher = more recent); 0 = invalid.
    stamps: Vec<u64>,
    stats: CacheStats,
    clock: u64,
    rng: Xoshiro256,
    /// Per-set PLRU tree bits (one word per set suffices for ≤64 ways);
    /// empty unless the policy is [`Replacement::PseudoLru`].
    plru: Vec<u64>,
    /// Depth of the PLRU tree: `log2(associativity)` under a PLRU policy
    /// with a power-of-two associativity, else 0 (no tree to walk).
    plru_levels: u32,
    /// Line number (`addr >> line_shift`) of the previous access, which
    /// is resident and most recent in its set; `None` when there was none
    /// since construction or `reset`.
    last_line: Option<u64>,
    /// The slot holding `last_line` (0 while there is none).
    last_slot: usize,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `num_sets - 1`.
    set_mask: u64,
    /// `log2(num_sets)` — bits dropped from the line number to get the tag.
    tag_shift: u32,
}

impl Cache {
    /// Creates an empty cache with the given configuration.
    pub fn new(cfg: CacheConfig) -> Self {
        let slots = cfg.num_sets() * cfg.associativity;
        let is_plru = cfg.replacement == Replacement::PseudoLru;
        let plru_levels = if is_plru && cfg.associativity.is_power_of_two() {
            cfg.associativity.trailing_zeros()
        } else {
            0
        };
        Cache {
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: (cfg.num_sets() - 1) as u64,
            tag_shift: cfg.num_sets().trailing_zeros(),
            tags: vec![0; slots],
            stamps: vec![0; slots],
            stats: CacheStats::default(),
            clock: 0,
            rng: Xoshiro256::seed_from(0xCAC4E),
            plru: if is_plru {
                vec![0; cfg.num_sets()]
            } else {
                Vec::new()
            },
            plru_levels,
            last_line: None,
            last_slot: 0,
            cfg,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets contents and statistics.
    pub fn reset(&mut self) {
        // Every stamp write follows a clock bump, so a clock still at 0
        // means the arrays are all zeros since `new` or the last `reset`;
        // skipping the fill leaves their pages untouched.
        if self.clock != 0 {
            self.stamps.fill(0);
            self.plru.fill(0);
        }
        self.stats = CacheStats::default();
        self.clock = 0;
        self.last_line = None;
        self.last_slot = 0;
    }

    /// The first slot index of the set holding `line`, and its tag.
    #[inline]
    fn base_and_tag(&self, line: u64) -> (usize, u64) {
        let set = (line & self.set_mask) as usize;
        (set * self.cfg.associativity, line >> self.tag_shift)
    }

    /// The way of the set starting at `base` that holds `tag`, if valid.
    #[inline]
    fn find(&self, base: usize, tag: u64) -> Option<usize> {
        // Invalid ways keep a stale (or zero) tag, so a match also needs
        // a non-zero stamp.
        (0..self.cfg.associativity)
            .position(|w| self.tags[base + w] == tag && self.stamps[base + w] != 0)
    }

    /// Accesses one byte address (loads and stores are treated alike:
    /// write-allocate, and dirty write-back traffic is not modelled).
    // Always inlined into `Hierarchy::access`, which is itself inlined
    // into both of `ModelExec`'s lookup paths.
    #[inline(always)]
    pub fn access(&mut self, addr: u64) -> AccessResult {
        self.stats.accesses += 1;
        let line = addr >> self.line_shift;
        if self.last_line == Some(line) {
            self.stats.hits += 1;
            return AccessResult::Hit;
        }
        self.last_line = Some(line);
        self.clock += 1;
        let (base, tag) = self.base_and_tag(line);

        if let Some(w) = self.find(base, tag) {
            self.stats.hits += 1;
            self.stamps[base + w] = self.clock;
            self.touch_plru(base, w);
            self.last_slot = base + w;
            return AccessResult::Hit;
        }

        self.stats.misses += 1;
        let assoc = self.cfg.associativity;
        let set = &self.stamps[base..base + assoc];
        let way = match self.cfg.replacement {
            // The first way with the smallest stamp, as `min_by_key`
            // picks: an invalid way (stamp 0) if there is one.
            Replacement::Lru => {
                let mut best = 0;
                for w in 1..assoc {
                    if set[w] < set[best] {
                        best = w;
                    }
                }
                best
            }
            policy => match set.iter().position(|&s| s == 0) {
                Some(free) => free,
                None if policy == Replacement::Random => self.rng.gen_range(assoc as u64) as usize,
                None => self.plru_victim(base),
            },
        };
        let evicted = self.stamps[base + way] != 0;
        if evicted {
            self.stats.evictions += 1;
        }
        self.tags[base + way] = tag;
        self.stamps[base + way] = self.clock;
        self.touch_plru(base, way);
        self.last_slot = base + way;
        AccessResult::Miss { evicted }
    }

    /// Counts `n` more accesses to the memoised last line — the line of
    /// the previous [`Cache::access`] — as hits that change no
    /// replacement state.
    #[inline]
    pub(crate) fn repeat_last(&mut self, n: u64) {
        debug_assert!(n == 0 || self.last_line.is_some(), "no line to repeat");
        self.stats.accesses += n;
        self.stats.hits += n;
    }

    /// The slot (`set * associativity + way`) holding the line of the
    /// previous access.
    #[inline]
    pub(crate) fn last_slot(&self) -> usize {
        self.last_slot
    }

    /// Whether any `lines` lines accessed in a row are all still resident
    /// afterwards: true under LRU for at most `associativity` of them
    /// (see `Hierarchy::l1_keeps`).
    #[inline]
    pub(crate) fn keeps(&self, lines: usize) -> bool {
        self.cfg.replacement == Replacement::Lru && lines <= self.cfg.associativity
    }

    /// Whether `slot`, a slot of the set of `addr`'s line, holds that
    /// line.
    #[inline]
    pub(crate) fn holds(&self, slot: usize, addr: u64) -> bool {
        let (_, tag) = self.base_and_tag(addr >> self.line_shift);
        self.tags[slot] == tag && self.stamps[slot] != 0
    }

    /// Accesses `accesses` — `(addr, slot)` pairs, each slot holding its
    /// address's line — `reps` times over, as `reps` passes of
    /// [`Cache::access`] over the addresses would when the memo already
    /// holds the line of the last one. Hits evict nothing and draw no
    /// random number, so every pass touches the same ways in the same
    /// order: all but the last pass are counted in closed form (the
    /// statistics, and the clock by the pass's non-memo touches), and the
    /// last is replayed touch by touch, which writes each touched way's
    /// final stamp and PLRU bits.
    pub(crate) fn repeat_hits<I>(&mut self, accesses: I, reps: u64)
    where
        I: ExactSizeIterator<Item = (u64, usize)> + Clone,
    {
        if reps == 0 {
            return;
        }
        let shift = self.line_shift;
        debug_assert_eq!(
            self.last_line,
            accesses.clone().last().map(|(a, _)| a >> shift),
            "the memo must hold the body's last line"
        );
        let n = reps * accesses.len() as u64;
        self.stats.accesses += n;
        self.stats.hits += n;
        if reps > 1 {
            let mut prev = self.last_line;
            let mut touches = 0;
            for line in accesses.clone().map(|(a, _)| a >> shift) {
                touches += u64::from(prev != Some(line));
                prev = Some(line);
            }
            self.clock += (reps - 1) * touches;
        }
        let way_mask = (1 << self.plru_levels) - 1;
        for (addr, slot) in accesses {
            let line = addr >> shift;
            if self.last_line == Some(line) {
                continue;
            }
            self.last_line = Some(line);
            self.last_slot = slot;
            self.clock += 1;
            self.stamps[slot] = self.clock;
            let way = slot & way_mask;
            self.touch_plru(slot - way, way);
        }
    }

    /// Marks `way` most-recently-used in the PLRU tree of the set starting
    /// at slot `base`: set the bits on the root-to-leaf path to point
    /// *away* from it.
    #[inline]
    fn touch_plru(&mut self, base: usize, way: usize) {
        let levels = self.plru_levels;
        if levels == 0 {
            return;
        }
        let bits = &mut self.plru[base >> levels];
        let mut node = 1usize; // 1-based heap index
        for level in (0..levels).rev() {
            let bit = (way >> level) & 1;
            // Point the node away from the path taken.
            if bit == 0 {
                *bits |= 1 << node;
            } else {
                *bits &= !(1 << node);
            }
            node = node * 2 + bit;
        }
    }

    /// Follows the PLRU tree bits of the set starting at slot `base` to
    /// the current victim way (way 0 when there is no tree).
    fn plru_victim(&self, base: usize) -> usize {
        let levels = self.plru_levels;
        if levels == 0 {
            return 0;
        }
        let bits = self.plru[base >> levels];
        let mut node = 1usize;
        let mut way = 0usize;
        for _ in 0..levels {
            let b = ((bits >> node) & 1) as usize;
            way = (way << 1) | b;
            node = node * 2 + b;
        }
        way
    }

    /// Returns `true` if the line containing `addr` is resident.
    pub fn contains(&self, addr: u64) -> bool {
        let (base, tag) = self.base_and_tag(addr >> self.line_shift);
        self.find(base, tag).is_some()
    }

    /// Appends the valid ways to `ways` and the non-zero PLRU words
    /// `(set, bits)` to `plru`, and returns the rest of the state. The
    /// image is compact: a cache that touched few of its sets costs few
    /// entries, however large it is.
    pub(crate) fn image(
        &self,
        ways: &mut Vec<WayImage>,
        plru: &mut Vec<(usize, u64)>,
    ) -> CacheImage {
        let first_way = ways.len();
        ways.extend(
            (0..self.stamps.len())
                .filter(|&i| self.stamps[i] != 0)
                .map(|i| (i, self.tags[i], self.stamps[i])),
        );
        let first_word = plru.len();
        plru.extend(
            self.plru
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, w)| w != 0),
        );
        CacheImage {
            cfg: self.cfg,
            ways: first_way..ways.len(),
            plru: first_word..plru.len(),
            stats: self.stats,
            clock: self.clock,
            rng: self.rng,
            last_line: self.last_line,
            last_slot: self.last_slot,
        }
    }

    /// Rolls the cache back to `image` in place, `ways` and `plru` being
    /// the buffers [`Cache::image`] appended to. Only the stamp and PLRU
    /// chunks holding a non-zero word are cleared, so the pages of a
    /// large, sparsely used cache that were never touched stay untouched
    /// (and out of the resident set). Invalid ways keep stale tags, which
    /// no lookup reads: a way is valid exactly when its stamp is
    /// non-zero. Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if the image was taken from a cache of another geometry.
    pub(crate) fn restore(&mut self, image: &CacheImage, ways: &[WayImage], plru: &[(usize, u64)]) {
        assert_eq!(image.cfg, self.cfg, "cache image of another geometry");
        for chunk in self.stamps.chunks_mut(RESTORE_CHUNK) {
            if chunk.iter().any(|&s| s != 0) {
                chunk.fill(0);
            }
        }
        for chunk in self.plru.chunks_mut(RESTORE_CHUNK) {
            if chunk.iter().any(|&w| w != 0) {
                chunk.fill(0);
            }
        }
        for &(slot, tag, stamp) in &ways[image.ways.clone()] {
            self.tags[slot] = tag;
            self.stamps[slot] = stamp;
        }
        for &(set, bits) in &plru[image.plru.clone()] {
            self.plru[set] = bits;
        }
        self.stats = image.stats;
        self.clock = image.clock;
        self.rng = image.rng;
        self.last_line = image.last_line;
        self.last_slot = image.last_slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(repl: Replacement) -> Cache {
        // 4 sets × 2 ways × 16-byte lines = 128 bytes.
        Cache::new(CacheConfig::new(128, 16, 2, repl))
    }

    #[test]
    fn config_geometry() {
        let cfg = CacheConfig::new(32 * 1024, 32, 4, Replacement::Lru);
        assert_eq!(cfg.num_sets(), 256); // Snowball L1: 32K/4/32
        let cfg = CacheConfig::new(8 * 1024 * 1024, 64, 16, Replacement::Lru);
        assert_eq!(cfg.num_sets(), 8192); // Xeon L3
    }

    #[test]
    #[should_panic]
    fn bad_geometry_rejected() {
        let _ = CacheConfig::new(100, 16, 2, Replacement::Lru);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny(Replacement::Lru);
        assert_eq!(c.access(0), AccessResult::Miss { evicted: false });
        assert_eq!(c.access(0), AccessResult::Hit);
        assert_eq!(c.access(15), AccessResult::Hit, "same 16-byte line");
        assert_eq!(c.access(16), AccessResult::Miss { evicted: false });
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(Replacement::Lru);
        // Set 0 holds lines whose (line index % 4 == 0): addresses 0, 64, 128...
        c.access(0); // way A
        c.access(64); // way B
        c.access(0); // touch A → B is LRU
        let r = c.access(128); // must evict B
        assert_eq!(r, AccessResult::Miss { evicted: true });
        assert!(c.contains(0), "recently used line survives");
        assert!(!c.contains(64), "LRU line evicted");
    }

    #[test]
    fn working_set_within_capacity_has_no_capacity_misses() {
        // 32 KB cache, sequential sweep of 16 KB, twice.
        let mut c = Cache::new(CacheConfig::new(32 * 1024, 32, 4, Replacement::Lru));
        for round in 0..2 {
            for addr in (0..16 * 1024u64).step_by(32) {
                let r = c.access(addr);
                if round == 1 {
                    assert!(r.is_hit(), "second sweep must hit at {addr}");
                }
            }
        }
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes_with_lru() {
        // Classic LRU pathology: sweep 1.5× capacity repeatedly — every
        // access misses after warm-up.
        let mut c = Cache::new(CacheConfig::new(1024, 32, 2, Replacement::Lru));
        let span = 2048u64;
        for _ in 0..4 {
            for addr in (0..span).step_by(32) {
                c.access(addr);
            }
        }
        // After warm-up the sweep misses every time under LRU.
        let misses_before = c.stats().misses;
        for addr in (0..span).step_by(32) {
            c.access(addr);
        }
        let new_misses = c.stats().misses - misses_before;
        assert_eq!(new_misses, span / 32);
    }

    #[test]
    fn random_replacement_is_deterministic_per_seed() {
        let mut a = tiny(Replacement::Random);
        let mut b = tiny(Replacement::Random);
        let addrs: Vec<u64> = (0..1000).map(|i| (i * 37) % 4096).collect();
        let ra: Vec<bool> = addrs.iter().map(|&x| a.access(x).is_hit()).collect();
        let rb: Vec<bool> = addrs.iter().map(|&x| b.access(x).is_hit()).collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn plru_behaves_like_lru_for_two_ways() {
        // With 2 ways PLRU degenerates to exact LRU.
        let mut lru = tiny(Replacement::Lru);
        let mut plru = tiny(Replacement::PseudoLru);
        let addrs: Vec<u64> = (0..500).map(|i| (i * 61) % 1024).collect();
        for &a in &addrs {
            assert_eq!(lru.access(a).is_hit(), plru.access(a).is_hit());
        }
    }

    #[test]
    fn plru_victim_valid_range() {
        let mut c = Cache::new(CacheConfig::new(1024, 16, 8, Replacement::PseudoLru));
        for i in 0..10_000u64 {
            c.access(i * 16 % 65536);
        }
        // No panic == victims always in range; also check sanity of stats.
        assert_eq!(c.stats().accesses, 10_000);
        assert_eq!(c.stats().hits + c.stats().misses, 10_000);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = tiny(Replacement::Lru);
        c.access(0);
        c.access(0);
        c.reset();
        assert_eq!(c.stats().accesses, 0);
        assert!(!c.contains(0));
        assert_eq!(c.access(0), AccessResult::Miss { evicted: false });
    }

    #[test]
    fn stats_ratios() {
        let mut c = tiny(Replacement::Lru);
        assert_eq!(c.stats().accesses, 0);
        c.access(0);
        c.access(0);
        c.access(0);
        c.access(0);
        let s = c.stats();
        assert_eq!((s.accesses, s.misses, s.hits), (4, 1, 3));
    }

    #[test]
    fn conflict_misses_same_set() {
        // 4 sets: lines 0, 4, 8 all map to set 0 in a 2-way set — the
        // third conflicts.
        let mut c = tiny(Replacement::Lru);
        c.access(0); // line 0, set 0
        c.access(64); // line 4, set 0
        c.access(128); // line 8, set 0 → eviction
        assert_eq!(c.stats().evictions, 1);
    }
}
