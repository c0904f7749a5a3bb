//! Page-colour analysis: predicting the §V.A.1 conflict misses.
//!
//! A physically-indexed cache whose per-way span exceeds the page size
//! divides physical pages into *colours* (`way_span / page_size` of
//! them). A buffer whose pages happen to repeat some colour and skip
//! another cannot use the skipped colour's cache sets — so a buffer that
//! *should* fit in the cache starts conflict-missing. This module
//! quantifies that effect for a concrete [`PageTable`] + cache geometry,
//! which is exactly the diagnosis behind the paper's irreproducible
//! Snowball measurements.

use crate::cache::CacheConfig;
use crate::pages::PageTable;

/// Colour-balance analysis of one mapping against one cache.
#[derive(Debug, Clone, PartialEq)]
pub struct ColourAnalysis {
    /// Number of distinct colours the cache has.
    pub num_colours: usize,
    /// How many of the buffer's pages landed on each colour.
    pub histogram: Vec<u32>,
    /// Pages per colour if the mapping were perfectly balanced.
    pub ideal_per_colour: f64,
    /// The worst over-subscription: `max(histogram) / ideal` (1.0 =
    /// perfectly balanced; 2.0 = some colour carries twice its share).
    pub imbalance: f64,
    /// Fraction of the buffer's pages that exceed their colour's fair
    /// share — an estimate of the fraction of the working set exposed
    /// to conflict misses.
    pub overflow_fraction: f64,
}

impl ColourAnalysis {
    /// Whether the mapping is conflict-free for a buffer no larger than
    /// the cache (every colour at or under its fair share, rounded up).
    pub fn is_balanced(&self) -> bool {
        let cap = self.ideal_per_colour.ceil() as u32;
        self.histogram.iter().all(|&c| c <= cap)
    }
}

/// Number of page colours a cache geometry induces for a given page
/// size: `size / ways / page` (at least 1).
///
/// # Panics
///
/// Panics if `page_bytes` is zero or not a power of two.
pub fn num_colours(cache: &CacheConfig, page_bytes: usize) -> usize {
    assert!(
        page_bytes > 0 && page_bytes.is_power_of_two(),
        "page size must be a power of two"
    );
    let way_span = cache.size_bytes / cache.associativity;
    (way_span / page_bytes).max(1)
}

/// Analyses a page table's colour balance against a cache geometry.
///
/// # Examples
///
/// ```
/// use mb_mem::cache::{CacheConfig, Replacement};
/// use mb_mem::coloring::{analyse, num_colours};
/// use mb_mem::pages::PageTable;
///
/// // Snowball L1: 32 KB, 4-way → 8 KB per way → 2 colours of 4 KB pages.
/// let l1 = CacheConfig::new(32 * 1024, 32, 4, Replacement::Lru);
/// assert_eq!(num_colours(&l1, 4096), 2);
///
/// // A perfectly balanced 32 KB buffer: colours 0,1,0,1,…
/// let good = PageTable::new(4096, vec![0, 1, 2, 3, 4, 5, 6, 7]);
/// assert!(analyse(&good, &l1).is_balanced());
///
/// // An unlucky random mapping: six pages of colour 0, two of colour 1.
/// let bad = PageTable::new(4096, vec![0, 2, 4, 6, 8, 10, 1, 3]);
/// let a = analyse(&bad, &l1);
/// assert!(!a.is_balanced());
/// assert!(a.imbalance > 1.4);
/// ```
pub fn analyse(table: &PageTable, cache: &CacheConfig) -> ColourAnalysis {
    let colours = num_colours(cache, table.page_bytes());
    let mut histogram = vec![0u32; colours];
    for c in table.colours(colours as u64) {
        histogram[c as usize] += 1;
    }
    let ideal = table.num_pages() as f64 / colours as f64;
    let max = histogram.iter().copied().max().unwrap_or(0) as f64;
    let overflow_pages: f64 = histogram.iter().map(|&c| (c as f64 - ideal).max(0.0)).sum();
    ColourAnalysis {
        num_colours: colours,
        histogram,
        ideal_per_colour: ideal,
        imbalance: if ideal > 0.0 { max / ideal } else { 1.0 },
        overflow_fraction: if table.num_pages() > 0 {
            overflow_pages / table.num_pages() as f64
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Replacement;
    use crate::pages::{PageAllocator, PagePolicy};

    fn snowball_l1() -> CacheConfig {
        CacheConfig::new(32 * 1024, 32, 4, Replacement::Lru)
    }

    #[test]
    fn colour_counts() {
        // Snowball L1: 8 KB way span, 4 KB pages → 2 colours.
        assert_eq!(num_colours(&snowball_l1(), 4096), 2);
        // Xeon L1: 32 KB 8-way → 4 KB way span → 1 colour: the x86 L1 is
        // immune to page colouring, which is why the paper saw the
        // problem only on ARM.
        let xeon_l1 = CacheConfig::new(32 * 1024, 64, 8, Replacement::Lru);
        assert_eq!(num_colours(&xeon_l1, 4096), 1);
    }

    #[test]
    fn contiguous_mappings_are_balanced() {
        let mut alloc = PageAllocator::new(PagePolicy::Contiguous, 4096, 1 << 16, 0);
        let t = alloc.allocate(32 * 1024);
        let a = analyse(&t, &snowball_l1());
        assert!(a.is_balanced());
        assert!((a.imbalance - 1.0).abs() < 1e-9);
        assert_eq!(a.overflow_fraction, 0.0);
    }

    #[test]
    fn random_mappings_are_sometimes_unbalanced() {
        // Across many random runs, some draw an unbalanced colouring —
        // the run-to-run variability of §V.A.1.
        let mut unbalanced = 0;
        for seed in 0..40 {
            let mut alloc = PageAllocator::new(PagePolicy::Random, 4096, 1 << 16, seed);
            let t = alloc.allocate(32 * 1024);
            if !analyse(&t, &snowball_l1()).is_balanced() {
                unbalanced += 1;
            }
        }
        assert!(
            unbalanced > 5,
            "expected some unlucky colourings, got {unbalanced}/40"
        );
        assert!(
            unbalanced < 40,
            "expected some lucky colourings too, got {unbalanced}/40"
        );
    }

    #[test]
    fn imbalance_predicts_extra_misses() {
        use crate::hierarchy::{Hierarchy, HierarchyConfig};
        // Empirical link: mappings with higher predicted overflow incur
        // at least as many L1 misses on a repeated sweep.
        let sweep_misses = |table: &PageTable| {
            let mut h = Hierarchy::new(HierarchyConfig::snowball_a9500());
            for _ in 0..4 {
                for off in (0..32 * 1024u64).step_by(32) {
                    h.access(table.translate(off));
                }
            }
            h.level_stats(0).misses
        };
        let mut alloc = PageAllocator::new(PagePolicy::Contiguous, 4096, 1 << 16, 0);
        let balanced = alloc.allocate(32 * 1024);
        // Construct a pathological mapping: all pages share colour 0.
        let pathological = PageTable::new(4096, (0..8).map(|i| i * 2).collect());
        let a_bal = analyse(&balanced, &snowball_l1());
        let a_bad = analyse(&pathological, &snowball_l1());
        assert!(a_bad.overflow_fraction > a_bal.overflow_fraction);
        assert!(
            sweep_misses(&pathological) > 2 * sweep_misses(&balanced),
            "colour-starved mapping must thrash"
        );
    }

    #[test]
    fn histogram_sums_to_pages() {
        let mut alloc = PageAllocator::new(PagePolicy::Random, 4096, 1 << 16, 3);
        let t = alloc.allocate(24 * 1024); // 6 pages
        let a = analyse(&t, &snowball_l1());
        assert_eq!(a.histogram.iter().sum::<u32>(), 6);
        assert!((a.ideal_per_colour - 3.0).abs() < 1e-9);
    }
}
