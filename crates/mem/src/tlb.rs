//! A small fully-associative TLB model.
//!
//! Stride benchmarks on the A9500 with large strides incur TLB pressure
//! well before cache capacity is exhausted; the [`Tlb`] lets
//! `mb_cpu::exec_model::ModelExec` charge translation misses.

/// TLB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries (fully associative).
    pub entries: usize,
    /// Page size covered by one entry, in bytes.
    pub page_bytes: usize,
}

impl TlbConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or `page_bytes` is not a power of two.
    pub fn new(entries: usize, page_bytes: usize) -> Self {
        assert!(entries > 0, "TLB needs at least one entry");
        assert!(page_bytes.is_power_of_two(), "page size must be 2^k");
        TlbConfig {
            entries,
            page_bytes,
        }
    }
}

/// A fully-associative, LRU translation look-aside buffer.
///
/// Entries keep the slot they were installed in, and a small
/// direct-mapped hint table remembers, per `vpn & hint_mask`, the slot
/// that last held a page with those low bits. A lookup checks the hinted
/// slot first and trusts it only if that entry really holds the page;
/// otherwise it scans all entries, as it must on a miss. Hints are never
/// invalidated: a stale one only costs the scan. The LRU victim search
/// runs on misses alone, so hit/miss outcomes and victims are exactly
/// those of a plain scan-every-access LRU.
///
/// # Examples
///
/// ```
/// use mb_mem::tlb::{Tlb, TlbConfig};
/// let mut tlb = Tlb::new(TlbConfig::new(32, 4096));
/// assert!(!tlb.access(0x0));      // cold miss
/// assert!(tlb.access(0xFFF));     // same page: hit
/// assert!(!tlb.access(0x1000));   // next page: miss
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tlb {
    cfg: TlbConfig,
    /// `log2(page_bytes)`.
    page_shift: u32,
    /// (virtual page number, stamp), LRU by stamp.
    entries: Vec<(u64, u64)>,
    /// Slot hint per `vpn & hint_mask`; confirmed against `entries`.
    hints: Vec<usize>,
    /// `hints.len() - 1`.
    hint_mask: u64,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    pub fn new(cfg: TlbConfig) -> Self {
        // Four hint slots per entry keeps collisions between live pages
        // rare for the contiguous page runs the kernels sweep.
        let hint_len = (cfg.entries * 4).next_power_of_two();
        Tlb {
            cfg,
            page_shift: cfg.page_bytes.trailing_zeros(),
            entries: Vec::with_capacity(cfg.entries),
            hints: vec![0; hint_len],
            hint_mask: hint_len as u64 - 1,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TlbConfig {
        &self.cfg
    }

    /// Looks up the page of `vaddr`; returns `true` on a hit. Misses
    /// install the translation (evicting LRU if full).
    // Always inlined: the single-access and run paths of
    // `ModelExec` both call it, and an out-of-line call costs the
    // per-access path about a tenth of its time.
    #[inline(always)]
    pub fn access(&mut self, vaddr: u64) -> bool {
        self.clock += 1;
        let vpn = vaddr >> self.page_shift;
        let hint = &mut self.hints[(vpn & self.hint_mask) as usize];
        let slot = match self.entries.get(*hint) {
            Some(e) if e.0 == vpn => Some(*hint),
            _ => self.entries.iter().position(|e| e.0 == vpn),
        };
        if let Some(i) = slot {
            *hint = i;
            self.entries[i].1 = self.clock;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.entries.len() < self.cfg.entries {
            *hint = self.entries.len();
            self.entries.push((vpn, self.clock));
        } else {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.1)
                .map(|(i, _)| i)
                .expect("non-empty");
            *hint = lru;
            self.entries[lru] = (vpn, self.clock);
        }
        false
    }

    /// Looks up the page of `vaddr` `k` times in a row — equivalent to
    /// `k` calls of [`Tlb::access`] on addresses of one page, returning
    /// the first outcome. The first call leaves the page resident with
    /// its hint pointing at it, so the other `k − 1` are hits: the clock
    /// advances by `k − 1` and the entry's stamp takes its final value.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    #[inline]
    pub fn access_run(&mut self, vaddr: u64, k: u64) -> bool {
        assert!(k > 0, "an access run needs at least one access");
        let first = self.access(vaddr);
        let rest = k - 1;
        if rest > 0 {
            self.clock += rest;
            let slot = self.hints[((vaddr >> self.page_shift) & self.hint_mask) as usize];
            self.entries[slot].1 = self.clock;
            self.hits += rest;
        }
        first
    }

    /// The entry slot the hint of `vaddr`'s page points at — right
    /// after an access to the page, the slot holding it.
    #[inline]
    pub fn hinted_slot(&self, vaddr: u64) -> usize {
        self.hints[((vaddr >> self.page_shift) & self.hint_mask) as usize]
    }

    /// Whether entry slot `slot` holds the page of `vaddr`.
    #[inline]
    pub fn holds(&self, slot: usize, vaddr: u64) -> bool {
        self.entries
            .get(slot)
            .is_some_and(|e| e.0 == vaddr >> self.page_shift)
    }

    /// Whether any `pages` pages accessed in a row are all still
    /// resident afterwards: a miss evicts the least recent entry, which
    /// is one the row has not touched while it has touched fewer pages
    /// than there are entries.
    pub fn keeps(&self, pages: usize) -> bool {
        pages <= self.cfg.entries
    }

    /// Looks up `accesses` — `(vaddr, slot)` pairs, each entry slot
    /// holding its address's page — `reps` times over: the outcome of
    /// `reps` passes of [`Tlb::access`] over the addresses, all hits.
    /// All but the last pass are counted in closed form (the clock and
    /// `hits`); the last is replayed, which writes each touched entry's
    /// final stamp and hint.
    pub fn repeat_hits<I>(&mut self, accesses: I, reps: u64)
    where
        I: ExactSizeIterator<Item = (u64, usize)>,
    {
        if reps == 0 {
            return;
        }
        let n = accesses.len() as u64;
        self.clock += (reps - 1) * n;
        self.hits += reps * n;
        for (vaddr, slot) in accesses {
            debug_assert!(
                self.holds(slot, vaddr),
                "repeat_hits on a page not in its slot"
            );
            self.clock += 1;
            self.entries[slot].1 = self.clock;
            self.hints[((vaddr >> self.page_shift) & self.hint_mask) as usize] = slot;
        }
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Clears contents and counters.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.clock = 0;
        self.hits = 0;
        self.misses = 0;
    }

    /// Copies `from`'s contents, hints and counters into this TLB in
    /// place — a rollback to a clone taken earlier. Allocates nothing: a
    /// TLB built by [`Tlb::new`] holds room for every entry.
    ///
    /// # Panics
    ///
    /// Panics if `from` has another configuration.
    pub fn restore(&mut self, from: &Tlb) {
        assert_eq!(self.cfg, from.cfg, "TLB image of another configuration");
        self.entries.clone_from(&from.entries);
        self.hints.copy_from_slice(&from.hints);
        self.clock = from.clock;
        self.hits = from.hits;
        self.misses = from.misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_within_page_miss_across() {
        let mut t = Tlb::new(TlbConfig::new(4, 4096));
        assert!(!t.access(0));
        assert!(t.access(4095));
        assert!(!t.access(4096));
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 2);
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(TlbConfig::new(2, 4096));
        t.access(0); // page 0
        t.access(4096); // page 1
        t.access(0); // touch page 0
        t.access(8192); // page 2: evicts page 1
        assert!(t.access(0), "page 0 retained");
        assert!(!t.access(4096), "page 1 evicted");
    }

    #[test]
    fn capacity_working_set_all_hits() {
        let mut t = Tlb::new(TlbConfig::new(32, 4096));
        for round in 0..3 {
            for p in 0..32u64 {
                let hit = t.access(p * 4096);
                if round > 0 {
                    assert!(hit);
                }
            }
        }
    }

    #[test]
    fn reset_clears() {
        let mut t = Tlb::new(TlbConfig::new(2, 4096));
        t.access(0);
        t.reset();
        assert_eq!(t.misses(), 0);
        assert!(!t.access(0));
    }
}
