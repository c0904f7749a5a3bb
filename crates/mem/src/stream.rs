//! Drives address streams through TLB + page table + cache hierarchy.
//!
//! The [`StreamEngine`] is the measurement core of the Section V
//! microbenchmark: it walks a virtual-address stream (e.g. a strided array
//! sweep), translates through a [`PageTable`] (so physical page placement
//! matters, per §V.A.1), consults a [`Tlb`], charges cache-hierarchy
//! latencies, and reports effective bandwidth.

use crate::hierarchy::Hierarchy;
use crate::pages::PageTable;
use crate::tlb::Tlb;
use mb_simcore::time::Frequency;

/// Kind of memory access (reads and writes currently cost the same; the
/// distinction is kept for counter reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Result of running a stream: cycle and event totals plus derived
/// bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamReport {
    /// Accesses performed.
    pub accesses: u64,
    /// Bytes transferred (accesses × element size).
    pub bytes: u64,
    /// Total latency cycles charged (memory system only).
    pub cycles: u64,
    /// TLB misses encountered.
    pub tlb_misses: u64,
    /// Accesses that reached DRAM.
    pub memory_accesses: u64,
}

impl StreamReport {
    /// Effective bandwidth in bytes/second at the given core frequency,
    /// assuming the memory cycles dominate (the microbenchmark's model).
    ///
    /// Returns 0 for an empty report.
    pub fn bandwidth_bytes_per_sec(&self, f: Frequency) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let secs = self.cycles as f64 * f.period_secs();
        self.bytes as f64 / secs
    }

    /// Effective bandwidth in GB/s.
    pub fn bandwidth_gb_per_sec(&self, f: Frequency) -> f64 {
        self.bandwidth_bytes_per_sec(f) / 1e9
    }
}

/// Engine walking address streams through the full memory system.
///
/// # Examples
///
/// ```
/// use mb_mem::hierarchy::{Hierarchy, HierarchyConfig};
/// use mb_mem::pages::{PageAllocator, PagePolicy};
/// use mb_mem::stream::{AccessKind, StreamEngine};
/// use mb_mem::tlb::{Tlb, TlbConfig};
///
/// let mut alloc = PageAllocator::new(PagePolicy::Contiguous, 4096, 1 << 16, 0);
/// let table = alloc.allocate(8 * 1024);
/// let mut engine = StreamEngine::new(
///     Hierarchy::new(HierarchyConfig::snowball_a9500()),
///     Tlb::new(TlbConfig::new(32, 4096)),
///     30, // TLB miss penalty in cycles
/// );
/// let report = engine.run_strided(&table, 8 * 1024, 1, 4, 2, AccessKind::Read);
/// assert_eq!(report.accesses, 2 * (8 * 1024 / 4) as u64);
/// ```
#[derive(Debug, Clone)]
pub struct StreamEngine {
    hierarchy: Hierarchy,
    tlb: Tlb,
    tlb_miss_penalty_cycles: u64,
}

impl StreamEngine {
    /// Creates an engine from its components.
    pub fn new(hierarchy: Hierarchy, tlb: Tlb, tlb_miss_penalty_cycles: u64) -> Self {
        StreamEngine {
            hierarchy,
            tlb,
            tlb_miss_penalty_cycles,
        }
    }

    /// Access the memory system once at virtual offset `offset` within
    /// `table`'s buffer. Returns the cycles charged.
    pub fn access(&mut self, table: &PageTable, offset: u64, _kind: AccessKind) -> u64 {
        let mut cycles = 0;
        if !self.tlb.access(offset) {
            cycles += self.tlb_miss_penalty_cycles;
        }
        let paddr = table.translate(offset);
        let (_lvl, lat) = self.hierarchy.access(paddr);
        cycles + lat
    }

    /// Runs the paper's microbenchmark loop: sweep `array_bytes` with the
    /// given `stride` (in elements) and `elem_bytes` element size,
    /// `sweeps` times. Returns a [`StreamReport`].
    ///
    /// This mirrors the kernel of Tikir et al. used in Section V: "the
    /// time needed to access data by looping over an array of a fixed
    /// size using a fixed stride".
    ///
    /// # Panics
    ///
    /// Panics if `array_bytes` is smaller than one element, if `stride`
    /// or `sweeps` is zero, or if the array does not fit in `table`.
    pub fn run_strided(
        &mut self,
        table: &PageTable,
        array_bytes: usize,
        stride: usize,
        elem_bytes: usize,
        sweeps: u32,
        kind: AccessKind,
    ) -> StreamReport {
        assert!(elem_bytes > 0 && stride > 0 && sweeps > 0);
        assert!(array_bytes >= elem_bytes, "array smaller than one element");
        assert!(
            array_bytes <= table.span_bytes(),
            "array larger than its mapping"
        );
        let n_elems = array_bytes / elem_bytes;
        let mut cycles = 0u64;
        let mut accesses = 0u64;
        let tlb_misses_before = self.tlb.misses();
        let mem_before = self.hierarchy.memory_accesses();
        for _ in 0..sweeps {
            let mut i = 0usize;
            while i < n_elems {
                let offset = (i * elem_bytes) as u64;
                cycles += self.access(table, offset, kind);
                accesses += 1;
                i += stride;
            }
        }
        StreamReport {
            accesses,
            bytes: accesses * elem_bytes as u64,
            cycles,
            tlb_misses: self.tlb.misses() - tlb_misses_before,
            memory_accesses: self.hierarchy.memory_accesses() - mem_before,
        }
    }

    /// The cache hierarchy (for inspecting per-level statistics).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The TLB.
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// Resets hierarchy and TLB to cold state.
    pub fn reset(&mut self) {
        self.hierarchy.reset();
        self.tlb.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchyConfig;
    use crate::pages::{PageAllocator, PagePolicy};
    use crate::tlb::TlbConfig;

    fn engine() -> StreamEngine {
        StreamEngine::new(
            Hierarchy::new(HierarchyConfig::snowball_a9500()),
            Tlb::new(TlbConfig::new(32, 4096)),
            30,
        )
    }

    fn contiguous_table(bytes: usize) -> PageTable {
        let mut alloc = PageAllocator::new(PagePolicy::Contiguous, 4096, 1 << 18, 0);
        alloc.allocate(bytes)
    }

    #[test]
    fn small_array_is_fast_after_warmup() {
        let table = contiguous_table(8 * 1024);
        let mut e = engine();
        // Warm-up sweep, then measured sweep.
        e.run_strided(&table, 8 * 1024, 1, 4, 1, AccessKind::Read);
        let r = e.run_strided(&table, 8 * 1024, 1, 4, 1, AccessKind::Read);
        // All hits in L1 at 4 cycles, no memory traffic.
        assert_eq!(r.memory_accesses, 0);
        assert_eq!(r.cycles, r.accesses * 4);
    }

    #[test]
    fn bandwidth_drops_past_l1_capacity() {
        // The core observation of Figure 5a: bandwidth decreases when the
        // array exceeds the 32 KB L1.
        let f = Frequency::from_ghz(1.0);
        let small = {
            let table = contiguous_table(16 * 1024);
            let mut e = engine();
            e.run_strided(&table, 16 * 1024, 1, 4, 2, AccessKind::Read);
            e.run_strided(&table, 16 * 1024, 1, 4, 2, AccessKind::Read)
                .bandwidth_gb_per_sec(f)
        };
        let large = {
            let table = contiguous_table(256 * 1024);
            let mut e = engine();
            e.run_strided(&table, 256 * 1024, 1, 4, 2, AccessKind::Read);
            e.run_strided(&table, 256 * 1024, 1, 4, 2, AccessKind::Read)
                .bandwidth_gb_per_sec(f)
        };
        assert!(
            small > large * 1.5,
            "L1-resident {small} GB/s should beat L2-resident {large} GB/s"
        );
    }

    #[test]
    fn larger_elements_raise_bandwidth() {
        // Figure 6: moving from 32-bit to 64-bit elements roughly doubles
        // effective bandwidth (same latencies, twice the bytes per access).
        let f = Frequency::from_ghz(1.0);
        let table = contiguous_table(50 * 1024);
        let mut e = engine();
        e.run_strided(&table, 50 * 1024, 1, 4, 1, AccessKind::Read);
        let bw32 = e
            .run_strided(&table, 50 * 1024, 1, 4, 1, AccessKind::Read)
            .bandwidth_gb_per_sec(f);
        let mut e = engine();
        e.run_strided(&table, 50 * 1024, 1, 8, 1, AccessKind::Read);
        let bw64 = e
            .run_strided(&table, 50 * 1024, 1, 8, 1, AccessKind::Read)
            .bandwidth_gb_per_sec(f);
        assert!(bw64 > bw32 * 1.3, "bw64 {bw64} vs bw32 {bw32}");
    }

    #[test]
    fn random_pages_cause_more_misses_near_l1_size() {
        // §V.A.1: near the 32 KB L1 size, random physical pages create
        // colour conflicts that contiguous pages do not.
        let size = 32 * 1024;
        let run = |policy: PagePolicy, seed: u64| -> u64 {
            let mut alloc = PageAllocator::new(policy, 4096, 1 << 18, seed);
            let table = alloc.allocate(size);
            let mut e = engine();
            e.run_strided(&table, size, 1, 4, 1, AccessKind::Read); // warm
            let r = e.run_strided(&table, size, 1, 4, 1, AccessKind::Read);
            r.cycles
        };
        let contiguous = run(PagePolicy::Contiguous, 0);
        // Average several random runs: some seeds collide more than others.
        let random_avg: u64 =
            (0..8).map(|s| run(PagePolicy::Random, s)).sum::<u64>() / 8;
        assert!(
            random_avg >= contiguous,
            "random ({random_avg}) should never beat contiguous ({contiguous})"
        );
    }

    #[test]
    fn stride_reduces_access_count() {
        let table = contiguous_table(4096);
        let mut e = engine();
        let r = e.run_strided(&table, 4096, 4, 4, 1, AccessKind::Read);
        assert_eq!(r.accesses, (4096 / 4 / 4) as u64);
    }

    #[test]
    fn tlb_misses_counted() {
        let table = contiguous_table(64 * 4096);
        let mut e = engine();
        // Touch one element per page: every access is a fresh page, the
        // 32-entry TLB can't hold 64 pages.
        let r = e.run_strided(&table, 64 * 4096, 1024, 4, 2, AccessKind::Read);
        assert!(r.tlb_misses >= 64, "tlb misses = {}", r.tlb_misses);
    }

    #[test]
    fn report_bandwidth_zero_when_empty() {
        let r = StreamReport {
            accesses: 0,
            bytes: 0,
            cycles: 0,
            tlb_misses: 0,
            memory_accesses: 0,
        };
        assert_eq!(r.bandwidth_gb_per_sec(Frequency::from_ghz(1.0)), 0.0);
    }
}
