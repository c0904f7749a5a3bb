//! Virtual→physical page mapping and the paper's allocation pathology.
//!
//! Section V.A.1: *"In some cases, nonconsecutive pages in physical memory
//! for array size around 32KB (the size of L1 cache) are allocated, which
//! causes much more cache misses [...] during one experiment run, OS was
//! likely to reuse the same pages, as we did malloc/free repeatedly."*
//!
//! The mechanism is page colouring: a physically-indexed cache with more
//! sets than fit in one page divides physical pages into *colours*; an
//! unlucky (random) assignment of frames gives some colours twice and
//! others never, creating conflict misses for arrays near the cache size.
//! [`PagePolicy`] captures three allocators:
//!
//! * [`PagePolicy::Contiguous`] — ideal frames `0, 1, 2, …` (what x86
//!   benchmarks implicitly assume);
//! * [`PagePolicy::Random`] — each allocation draws fresh random frames
//!   (run-to-run variability, the paper's "very different global
//!   behavior");
//! * [`PagePolicy::ReuseLast`] — the first allocation draws random frames,
//!   subsequent allocations of the same size get the *same* frames back
//!   (the paper's "almost no noise inside a run").

use mb_simcore::rng::{Rng, Xoshiro256};
use std::collections::{BTreeMap, BTreeSet};

/// Physical frame allocation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PagePolicy {
    /// Frames are handed out consecutively.
    Contiguous,
    /// Every allocation draws fresh random frames.
    Random,
    /// First allocation of a given size draws random frames; later
    /// allocations of the same size reuse them (models malloc/free reuse
    /// within one OS run).
    ReuseLast,
}

/// A virtual→physical page table for one simulated buffer.
///
/// Returned by [`PageAllocator::allocate`]; translates byte offsets within
/// the buffer to physical byte addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageTable {
    page_bytes: usize,
    /// `log2(page_bytes)`.
    page_shift: u32,
    frames: Vec<u64>,
}

impl PageTable {
    /// Builds a table from explicit frame numbers.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two or `frames` is empty.
    pub fn new(page_bytes: usize, frames: Vec<u64>) -> Self {
        assert!(page_bytes.is_power_of_two(), "page size must be 2^k");
        assert!(!frames.is_empty(), "page table needs at least one frame");
        PageTable {
            page_bytes,
            page_shift: page_bytes.trailing_zeros(),
            frames,
        }
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// Number of mapped pages.
    pub fn num_pages(&self) -> usize {
        self.frames.len()
    }

    /// The mapped buffer size in bytes.
    pub fn span_bytes(&self) -> usize {
        self.frames.len() * self.page_bytes
    }

    /// The physical frame numbers, in virtual-page order.
    pub fn frames(&self) -> &[u64] {
        &self.frames
    }

    /// Translates a byte offset within the buffer to a physical address.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is outside the mapped span.
    pub fn translate(&self, offset: u64) -> u64 {
        let page = (offset >> self.page_shift) as usize;
        assert!(page < self.frames.len(), "offset {offset} beyond mapping");
        (self.frames[page] << self.page_shift) | (offset & (self.page_bytes as u64 - 1))
    }

    /// The "colour" of each page with respect to a physically-indexed
    /// cache whose per-way span covers `colours` pages, i.e.
    /// `frame % colours`. Duplicated colours are the conflict-miss
    /// mechanism of Section V.A.1.
    pub fn colours(&self, colours: u64) -> Vec<u64> {
        assert!(colours > 0, "colour count must be non-zero");
        self.frames.iter().map(|f| f % colours).collect()
    }
}

/// Allocates simulated physical frames under a [`PagePolicy`].
///
/// # Examples
///
/// ```
/// use mb_mem::pages::{PageAllocator, PagePolicy};
///
/// let mut alloc = PageAllocator::new(PagePolicy::ReuseLast, 4096, 1 << 16, 42);
/// let a = alloc.allocate(32 * 1024);
/// let b = alloc.allocate(32 * 1024);
/// assert_eq!(a.frames(), b.frames()); // the paper's malloc/free reuse
/// ```
#[derive(Debug, Clone)]
pub struct PageAllocator {
    policy: PagePolicy,
    page_bytes: usize,
    total_frames: u64,
    next_frame: u64,
    rng: Xoshiro256,
    // Key-ordered map: the reuse cache is only probed by size today, but
    // a BTreeMap keeps Debug output and any future iteration deterministic.
    reuse_cache: BTreeMap<usize, Vec<u64>>,
}

impl PageAllocator {
    /// Creates an allocator managing `total_frames` physical frames of
    /// `page_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two or `total_frames` is
    /// zero.
    pub fn new(policy: PagePolicy, page_bytes: usize, total_frames: u64, seed: u64) -> Self {
        assert!(page_bytes.is_power_of_two(), "page size must be 2^k");
        assert!(total_frames > 0, "need at least one frame");
        PageAllocator {
            policy,
            page_bytes,
            total_frames,
            next_frame: 0,
            rng: Xoshiro256::seed_from(seed),
            reuse_cache: BTreeMap::new(),
        }
    }

    /// Allocates a buffer of at least `bytes`, rounded up to whole pages.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero or the rounded size exceeds the physical
    /// memory.
    pub fn allocate(&mut self, bytes: usize) -> PageTable {
        assert!(bytes > 0, "cannot allocate zero bytes");
        let pages = bytes.div_ceil(self.page_bytes);
        assert!(
            (pages as u64) <= self.total_frames,
            "allocation exceeds physical memory"
        );
        let frames = match self.policy {
            PagePolicy::Contiguous => {
                if self.next_frame + pages as u64 > self.total_frames {
                    self.next_frame = 0; // wrap, fine for simulation
                }
                let start = self.next_frame;
                self.next_frame += pages as u64;
                (start..start + pages as u64).collect()
            }
            PagePolicy::Random => self.draw_random(pages),
            PagePolicy::ReuseLast => {
                if let Some(cached) = self.reuse_cache.get(&pages) {
                    cached.clone()
                } else {
                    let f = self.draw_random(pages);
                    self.reuse_cache.insert(pages, f.clone());
                    f
                }
            }
        };
        PageTable::new(self.page_bytes, frames)
    }

    fn draw_random(&mut self, pages: usize) -> Vec<u64> {
        // Distinct frames via rejection; frame space is much larger than
        // any allocation so this terminates quickly.
        let mut out = Vec::with_capacity(pages);
        let mut used = BTreeSet::new();
        while out.len() < pages {
            let f = self.rng.gen_range(self.total_frames);
            if used.insert(f) {
                out.push(f);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_frames_are_consecutive() {
        let mut a = PageAllocator::new(PagePolicy::Contiguous, 4096, 1024, 0);
        let t = a.allocate(3 * 4096 + 1); // rounds to 4 pages
        assert_eq!(t.num_pages(), 4);
        assert!(t.frames().windows(2).all(|w| w[1] == w[0] + 1));
        assert_eq!(t.translate(0), t.frames()[0] * 4096);
        assert_eq!(t.translate(4096), (t.frames()[0] + 1) * 4096);
    }

    #[test]
    fn contiguous_allocations_do_not_overlap() {
        let mut a = PageAllocator::new(PagePolicy::Contiguous, 4096, 1024, 0);
        let t1 = a.allocate(8192);
        let t2 = a.allocate(8192);
        assert_eq!(t1.frames(), &[0, 1]);
        assert_eq!(t2.frames(), &[2, 3]);
    }

    #[test]
    fn random_allocations_differ_between_calls() {
        let mut a = PageAllocator::new(PagePolicy::Random, 4096, 1 << 20, 7);
        let t1 = a.allocate(32 * 1024);
        let t2 = a.allocate(32 * 1024);
        assert_ne!(t1.frames(), t2.frames(), "fresh randomness per call");
    }

    #[test]
    fn random_frames_are_distinct() {
        let mut a = PageAllocator::new(PagePolicy::Random, 4096, 64, 7);
        let t = a.allocate(64 * 4096);
        let mut f = t.frames().to_vec();
        f.sort();
        f.dedup();
        assert_eq!(f.len(), 64);
    }

    #[test]
    fn reuse_last_returns_same_frames_per_size() {
        let mut a = PageAllocator::new(PagePolicy::ReuseLast, 4096, 1 << 20, 9);
        let t1 = a.allocate(32 * 1024);
        let t2 = a.allocate(32 * 1024);
        let t3 = a.allocate(16 * 1024);
        assert_eq!(t1.frames(), t2.frames(), "same size reuses frames");
        assert_ne!(&t1.frames()[..4], t3.frames(), "different size differs");
        a.reuse_cache.clear();
        let t4 = a.allocate(32 * 1024);
        assert_ne!(t1.frames(), t4.frames(), "flush models a new run");
    }

    #[test]
    fn reuse_runs_differ_by_seed() {
        // The paper: within one run measurements are stable, between runs
        // they differ. Seed = run identity.
        let mut run1 = PageAllocator::new(PagePolicy::ReuseLast, 4096, 1 << 20, 1);
        let mut run2 = PageAllocator::new(PagePolicy::ReuseLast, 4096, 1 << 20, 2);
        assert_ne!(
            run1.allocate(32 * 1024).frames(),
            run2.allocate(32 * 1024).frames()
        );
    }

    #[test]
    fn translate_preserves_offsets_within_page() {
        let t = PageTable::new(4096, vec![10, 3]);
        assert_eq!(t.translate(0), 10 * 4096);
        assert_eq!(t.translate(100), 10 * 4096 + 100);
        assert_eq!(t.translate(4095), 10 * 4096 + 4095);
        assert_eq!(t.translate(4096), 3 * 4096);
        assert_eq!(t.span_bytes(), 8192);
        assert_eq!(t.frames(), [10, 3]);
    }

    #[test]
    #[should_panic(expected = "beyond mapping")]
    fn translate_out_of_range_panics() {
        let t = PageTable::new(4096, vec![0]);
        let _ = t.translate(4096);
    }

    #[test]
    fn colours_identify_conflicts() {
        // 2 colours (e.g. 32 KB 4-way L1 with 4 KB pages: 8 KB per way =
        // 2 pages per way). Frames 0 and 2 share colour 0.
        let t = PageTable::new(4096, vec![0, 2, 5, 7]);
        assert_eq!(t.colours(2), vec![0, 0, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "allocation exceeds physical memory")]
    fn over_allocation_panics() {
        let mut a = PageAllocator::new(PagePolicy::Contiguous, 4096, 4, 0);
        let _ = a.allocate(5 * 4096);
    }

    /// Regression pin for the `HashMap` → `BTreeMap` reuse-cache swap:
    /// with `RandomState` the Debug rendering of the cache listed sizes
    /// in a per-process order; it must now always be key-sorted.
    #[test]
    fn reuse_cache_debug_is_key_ordered() {
        let mut a = PageAllocator::new(PagePolicy::ReuseLast, 4096, 1 << 16, 42);
        // Populate in deliberately non-sorted key order.
        a.allocate(3 * 4096);
        a.allocate(4096);
        a.allocate(2 * 4096);
        let dbg = format!("{a:?}");
        let p1 = dbg.find("1: [").expect("size-1 entry rendered");
        let p2 = dbg.find("2: [").expect("size-2 entry rendered");
        let p3 = dbg.find("3: [").expect("size-3 entry rendered");
        assert!(p1 < p2 && p2 < p3, "cache must render key-sorted: {dbg}");
    }
}
