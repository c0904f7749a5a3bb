//! Property test: the hinted `Tlb` (direct-mapped slot hints, shift/mask
//! page numbers, LRU search on misses only) behaves identically to the
//! plain linear-scan implementation, kept here verbatim as a reference
//! oracle — every per-access hit/miss and both counters must agree for
//! small and realistic entry counts, two page sizes, same-page runs,
//! sweeps wider than the TLB, hint-aliasing strides and mid-stream
//! resets. A second property checks `Tlb::access_run` against `k`
//! reference accesses to one page: the first outcome, both counters and
//! every later outcome (which the run's final LRU stamp decides) agree.

use mb_mem::tlb::{Tlb, TlbConfig};
use proptest::prelude::*;

/// The scan-every-access implementation, verbatim modulo names: a
/// linear `find` per access and a `min_by_key` LRU search per miss.
struct RefTlb {
    cfg: TlbConfig,
    /// (virtual page number, stamp), LRU by stamp.
    entries: Vec<(u64, u64)>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl RefTlb {
    fn new(cfg: TlbConfig) -> Self {
        RefTlb {
            cfg,
            entries: Vec::with_capacity(cfg.entries),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, vaddr: u64) -> bool {
        self.clock += 1;
        let vpn = vaddr / self.cfg.page_bytes as u64;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == vpn) {
            e.1 = self.clock;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.entries.len() < self.cfg.entries {
            self.entries.push((vpn, self.clock));
        } else {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.1)
                .map(|(i, _)| i)
                .expect("non-empty");
            self.entries[lru] = (vpn, self.clock);
        }
        false
    }

    fn reset(&mut self) {
        self.entries.clear();
        self.clock = 0;
        self.hits = 0;
        self.misses = 0;
    }
}

const ENTRIES: [usize; 5] = [1, 2, 3, 32, 64];
const PAGES: [usize; 2] = [4096, 64 * 1024];
/// Page strides of a sweep: neighbours, and multiples of the hint-table
/// sizes (4 × entries, rounded up to a power of two), so pages alias in
/// the hint table and the stale-hint path runs.
const STRIDES: [u64; 6] = [1, 4, 8, 128, 256, 1 << 20];

/// One step of a generated stream; see `drive`.
type Step = (u8, u64, u64);

/// Applies `steps` to both TLBs and asserts agreement after every access.
fn drive(cfg: TlbConfig, steps: &[Step]) {
    let mut real = Tlb::new(cfg);
    let mut oracle = RefTlb::new(cfg);
    let page = cfg.page_bytes as u64;
    let mut cursor = 0u64;
    let mut n = 0usize;
    let mut check = |real: &mut Tlb, oracle: &mut RefTlb, addr: u64| {
        let got = real.access(addr);
        let want = oracle.access(addr);
        assert_eq!(got, want, "access #{n} to {addr:#x} under {cfg:?}");
        n += 1;
    };
    for &(kind, x, len) in steps {
        match kind % 8 {
            // A fresh page in a small region: frequent re-use.
            0 | 1 => {
                cursor = (x % 256) * page + x % page;
                check(&mut real, &mut oracle, cursor);
            }
            // A run of accesses inside the current page.
            2 | 3 => {
                for i in 0..len {
                    let addr = (cursor & !(page - 1)) | (x.wrapping_add(i * 8) % page);
                    check(&mut real, &mut oracle, addr);
                }
            }
            // A sweep over more pages than the TLB holds, at a stride
            // that may alias in the hint table.
            4 | 5 => {
                let stride = STRIDES[(x % STRIDES.len() as u64) as usize] * page;
                let pages = cfg.entries as u64 + len;
                let start = (x >> 8) % 64 * page;
                for p in 0..pages {
                    cursor = start.wrapping_add(p.wrapping_mul(stride));
                    check(&mut real, &mut oracle, cursor);
                }
            }
            // Extreme page numbers: 0 and the top of the address space.
            6 => {
                cursor = if x & 1 == 0 {
                    x % page
                } else {
                    u64::MAX - x % (4 * page)
                };
                check(&mut real, &mut oracle, cursor);
            }
            // A mid-stream reset.
            _ => {
                real.reset();
                oracle.reset();
            }
        }
        assert_eq!(real.hits(), oracle.hits, "hits under {cfg:?}");
        assert_eq!(real.misses(), oracle.misses, "misses under {cfg:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hinted_tlb_matches_linear_scan_reference(
        geo in 0usize..10,
        steps in prop::collection::vec((0u8..8, any::<u64>(), 1u64..24), 1..120),
    ) {
        let cfg = TlbConfig::new(ENTRIES[geo % 5], PAGES[geo / 5]);
        drive(cfg, &steps);
    }
}

#[test]
fn every_geometry_survives_a_reset_between_touches_of_one_page() {
    for entries in ENTRIES {
        for page in PAGES {
            let cfg = TlbConfig::new(entries, page);
            // Touch, reset, touch the same page: the second touch must be
            // a cold miss, whatever the hint table still says.
            drive(cfg, &[(2, 0x40, 3), (7, 0, 0), (2, 0x40, 3)]);
            let mut t = Tlb::new(cfg);
            assert!(!t.access(0x40));
            assert!(t.access(0x48));
            t.reset();
            assert!(!t.access(0x48), "reset must forget the page");
            assert_eq!((t.hits(), t.misses()), (0, 1));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn access_run_matches_k_single_accesses(
        geo in 0usize..10,
        steps in prop::collection::vec((any::<u64>(), 1u64..40, prop::bool::ANY), 1..160),
    ) {
        let cfg = TlbConfig::new(ENTRIES[geo % 5], PAGES[geo / 5]);
        let page = cfg.page_bytes as u64;
        let mut real = Tlb::new(cfg);
        let mut oracle = RefTlb::new(cfg);
        for (i, &(x, k, run)) in steps.iter().enumerate() {
            // Pages from a region a little wider than the largest TLB,
            // so runs and single accesses keep evicting each other.
            let vaddr = (x % 80) * page + (x >> 32) % page;
            if run {
                let got = real.access_run(vaddr, k);
                let want = oracle.access(vaddr);
                prop_assert_eq!(got, want, "run #{} at {:#x} under {:?}", i, vaddr, cfg);
                for j in 1..k {
                    // The rest of the run, anywhere in the same page.
                    let same_page = (vaddr & !(page - 1)) | (x.wrapping_add(j * 8) % page);
                    prop_assert!(oracle.access(same_page), "run tail must hit");
                }
            } else {
                let (got, want) = (real.access(vaddr), oracle.access(vaddr));
                prop_assert_eq!(got, want, "access #{} under {:?}", i, cfg);
            }
            prop_assert_eq!(real.hits(), oracle.hits);
            prop_assert_eq!(real.misses(), oracle.misses);
        }
    }
}
