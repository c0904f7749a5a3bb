//! Property-based tests (proptest) over the workspace's core data
//! structures and invariants.

use proptest::prelude::*;

use mb_cpu::ops::{CountingExec, Exec, FlopKind, Precision};
use mb_kernels::magicfilter::{reference_3d, Grid3, MagicfilterWorkspace};
use mb_mem::cache::{Cache, CacheConfig, Replacement};
use mb_mem::pages::{PageAllocator, PagePolicy, PageTable};
use mb_simcore::plan::MeasurementPlan;
use mb_simcore::rng::{Rng, Xoshiro256};
use mb_simcore::stats::{OnlineStats, Summary};
use mb_simcore::time::{Frequency, SimTime};

proptest! {
    /// Cache bookkeeping always balances, and a just-accessed line is
    /// always resident.
    #[test]
    fn cache_invariants(addrs in prop::collection::vec(0u64..1_000_000, 1..300)) {
        let mut c = Cache::new(CacheConfig::new(4096, 32, 4, Replacement::Lru));
        for &a in &addrs {
            c.access(a);
            prop_assert!(c.contains(a), "line must be resident after access");
        }
        let s = c.stats();
        prop_assert_eq!(s.hits + s.misses, s.accesses);
        prop_assert_eq!(s.accesses, addrs.len() as u64);
        prop_assert!(s.evictions <= s.misses);
    }

    /// Page tables translate bijectively within their span and preserve
    /// in-page offsets.
    #[test]
    fn page_table_translation(
        frames in prop::collection::vec(0u64..4096, 1..32),
        offset_in_page in 0u64..4096,
    ) {
        let mut distinct = frames.clone();
        distinct.sort();
        distinct.dedup();
        let table = PageTable::new(4096, distinct.clone());
        for (page, &frame) in distinct.iter().enumerate() {
            let vaddr = page as u64 * 4096 + offset_in_page;
            let paddr = table.translate(vaddr);
            prop_assert_eq!(paddr, frame * 4096 + offset_in_page);
            prop_assert_eq!(paddr % 4096, offset_in_page);
        }
    }

    /// The allocator never hands out duplicate frames in one allocation.
    #[test]
    fn allocator_frames_distinct(seed in any::<u64>(), pages in 1usize..64) {
        let mut alloc = PageAllocator::new(PagePolicy::Random, 4096, 1 << 16, seed);
        let t = alloc.allocate(pages * 4096);
        let mut frames = t.frames().to_vec();
        frames.sort();
        frames.dedup();
        prop_assert_eq!(frames.len(), pages);
    }

    /// A randomised measurement plan is a permutation of the full
    /// factorial design.
    #[test]
    fn plan_is_permutation(levels in 1usize..12, reps in 1u32..12, seed in any::<u64>()) {
        let lv: Vec<usize> = (0..levels).collect();
        let plan = MeasurementPlan::full_factorial(&lv, reps, seed);
        let mut pairs: Vec<(usize, u32)> = plan.iter().map(|m| (m.level, m.rep)).collect();
        pairs.sort();
        pairs.dedup();
        prop_assert_eq!(pairs.len(), levels * reps as usize);
    }

    /// Welford statistics agree with the naive two-pass computation.
    #[test]
    fn welford_matches_naive(xs in prop::collection::vec(-1e6f64..1e6, 2..200)) {
        let s: OnlineStats = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() < 1e-5 * (1.0 + var.abs()));
    }

    /// Quantiles are monotone in q and bounded by min/max.
    #[test]
    fn summary_quantiles_monotone(xs in prop::collection::vec(-1e6f64..1e6, 1..100)) {
        let s = Summary::from_samples(xs.iter().copied());
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let q = s.quantile(i as f64 / 10.0);
            prop_assert!(q >= prev - 1e-12);
            prop_assert!(q >= s.min() - 1e-12 && q <= s.max() + 1e-12);
            prev = q;
        }
    }

    /// gen_range stays in bounds for arbitrary bounds and seeds.
    #[test]
    fn rng_range_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = Xoshiro256::seed_from(seed);
        for _ in 0..100 {
            prop_assert!(rng.gen_range(bound) < bound);
        }
    }

    /// Frequency round-trips cycles→time→cycles within one cycle.
    #[test]
    fn frequency_roundtrip(mhz in 100u64..5000, cycles in 0u64..1_000_000_000) {
        let f = Frequency::from_mhz(mhz);
        let t = f.cycles_to_time(cycles);
        let back = t.as_nanos() * mhz / 1000;
        // One nanosecond of rounding is worth up to ⌈mhz/1000⌉ cycles.
        let tol = (mhz / 1000 + 1) as i64;
        prop_assert!((back as i64 - cycles as i64).abs() <= tol, "{cycles} -> {back}");
    }

    /// The transposing magicfilter equals the direct reference for any
    /// grid shape, and any unroll degree leaves the numbers untouched.
    #[test]
    fn magicfilter_matches_reference(
        d0 in 1usize..7, d1 in 1usize..7, d2 in 1usize..7,
        unroll in 1u32..12, seed in any::<u64>(),
    ) {
        let grid = Grid3::random(d0, d1, d2, seed);
        let mut counter = CountingExec::new();
        let mut ws = MagicfilterWorkspace::new();
        let fast = ws.apply(&grid, unroll, &mut counter);
        let slow = reference_3d(&grid);
        for (a, b) in fast.iter().zip(&slow.data) {
            prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        // And the operation accounting scales exactly with the grid.
        prop_assert_eq!(
            counter.counts().flops_f64,
            mb_kernels::magicfilter::nominal_flops(d0, d1, d2)
        );
    }

    /// LINPACK solves correctly for arbitrary seeds and sizes.
    #[test]
    fn linpack_always_solves(n in 2usize..40, seed in any::<u64>()) {
        let mut lp = mb_kernels::linpack::Linpack::new(n, seed);
        let mut exec = CountingExec::new();
        lp.factorize(&mut exec);
        let x = lp.solve(&mut exec);
        prop_assert!(lp.residual(&x) < 50.0);
    }

    /// CountingExec's flop accounting is exact under arbitrary op mixes.
    #[test]
    fn counting_exec_balances(ops in prop::collection::vec(0u8..5, 1..200)) {
        let mut e = CountingExec::new();
        let mut expected_flops = 0u64;
        for &op in &ops {
            match op {
                0 => { e.flop(FlopKind::Add, Precision::F64, 2); expected_flops += 2; }
                1 => { e.flop(FlopKind::Fma, Precision::F32, 4); expected_flops += 8; }
                2 => e.load(0x40, 8),
                3 => e.store(0x80, 4),
                _ => e.branch(false),
            }
        }
        prop_assert_eq!(e.counts().total_flops(), expected_flops);
        prop_assert_eq!(
            e.counts().loads + e.counts().stores,
            ops.iter().filter(|&&o| o == 2 || o == 3).count() as u64
        );
    }
}

proptest! {
    /// The HP chain stays self-avoiding under arbitrary sequences,
    /// seeds and temperatures, and its energy is never positive.
    #[test]
    fn protein_chain_invariants(
        seq in prop::collection::vec(prop::bool::ANY, 4..24),
        seed in any::<u64>(),
        temp in 0.05f64..5.0,
    ) {
        use mb_kernels::protein::HpModel;
        let letters: String = seq.iter().map(|&h| if h { 'H' } else { 'P' }).collect();
        let mut m = HpModel::new(&letters, seed);
        for _ in 0..20 {
            m.sweep(temp, &mut CountingExec::new());
            prop_assert!(m.is_valid());
            prop_assert!(m.energy() <= 0);
        }
        let (acc, att) = m.acceptance();
        prop_assert!(acc <= att);
    }

    /// Blocked and unblocked LU agree on the solution for any size,
    /// block width and seed.
    #[test]
    fn blocked_lu_matches_reference(
        n in 4usize..32,
        nb_raw in 1usize..32,
        seed in any::<u64>(),
    ) {
        use mb_kernels::linpack::Linpack;
        use mb_kernels::linpack_blocked::BlockedLu;
        let nb = nb_raw.min(n);
        let mut plain = Linpack::new(n, seed);
        plain.factorize(&mut CountingExec::new());
        let xp = plain.solve(&mut CountingExec::new());
        let mut blocked = BlockedLu::new(n, nb, seed);
        blocked.factorize(&mut CountingExec::new());
        let xb = blocked.solve(&mut CountingExec::new());
        for (a, b) in xp.iter().zip(&xb) {
            prop_assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    /// Chess: alpha-beta with and without move ordering agree on the
    /// minimax value from random shallow positions, and every legal
    /// move's application keeps exactly one king per side.
    #[test]
    fn chess_search_invariants(moves in prop::collection::vec(0usize..1000, 0..6)) {
        use mb_kernels::chess::{Board, Searcher};
        // Walk a random legal line from the initial position.
        let mut b = Board::initial();
        for pick in moves {
            let legal = b.legal_moves();
            if legal.is_empty() {
                break;
            }
            b = b.apply(legal[pick % legal.len()]);
        }
        let mut ordered = Searcher::new();
        let v1 = ordered.search(&b, 2, -100_000, 100_000, &mut CountingExec::new());
        let mut unordered = Searcher::new().with_ordering(false);
        let v2 = unordered.search(&b, 2, -100_000, 100_000, &mut CountingExec::new());
        prop_assert_eq!(v1, v2);
        // Node counts may differ either way — MVV-LVA is a heuristic —
        // but both searches must have visited at least the root.
        prop_assert!(ordered.nodes() >= 1 && unordered.nodes() >= 1);
    }

    /// The `.prv` writer/parser round trip is lossless for arbitrary
    /// state records.
    #[test]
    fn prv_roundtrip(
        ranks in 1u32..8,
        spans in prop::collection::vec((0u64..1_000, 0u64..1_000, 0u32..4), 0..20),
    ) {
        use mb_trace::record::StateKind;
        use mb_trace::trace::Trace;
        let mut t = Trace::new(ranks);
        for (i, &(a, b, kind)) in spans.iter().enumerate() {
            let (lo, hi) = (a.min(b), a.max(b));
            let kind = match kind {
                0 => StateKind::Idle,
                1 => StateKind::Compute,
                2 => StateKind::Communicate,
                _ => StateKind::Wait,
            };
            t.push_state(
                i as u32 % ranks,
                SimTime::from_nanos(lo),
                SimTime::from_nanos(hi),
                kind,
            );
        }
        let text = String::from_utf8(mb_trace::write_prv(&t)).expect("ascii");
        let parsed = mb_trace::parse_prv(&text).expect("parses");
        prop_assert_eq!(parsed.states(), t.states());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fabric arrivals are causal (never before departure plus the
    /// minimum wire time) and deterministic per seed.
    #[test]
    fn fabric_causality(msgs in prop::collection::vec((0usize..8, 0usize..8, 1u64..100_000), 1..40)) {
        use mb_net::builders::tibidabo_fabric;
        let mut f1 = tibidabo_fabric(4);
        let mut f2 = tibidabo_fabric(4);
        let hosts = f1.network().hosts().to_vec();
        for &(s, d, bytes) in &msgs {
            let (src, dst) = (hosts[s % 4], hosts[d % 4]);
            let depart = SimTime::from_micros(1);
            let a1 = f1.send(src, dst, bytes, depart);
            let a2 = f2.send(src, dst, bytes, depart);
            prop_assert_eq!(a1, a2, "same seed, same fabric, same arrival");
            prop_assert!(a1 >= depart);
        }
    }

    /// Strong-scaling speedups never exceed the ideal diagonal by more
    /// than the jitter margin.
    #[test]
    fn speedup_bounded_by_ideal(seed in any::<u64>()) {
        use mb_cluster::scaling::{FabricKind, ScalingPoint, ScalingSeries, ScalingStudy};
        use mb_cluster::workload::Workload;
        let study = ScalingStudy::new(FabricKind::Tibidabo).with_seed(seed);
        let w = Workload::bigdft_tibidabo().with_iterations(1);
        let points = [2, 8, 16]
            .map(|cores| ScalingPoint::measured(cores, study.execute(&w, cores, false).0));
        let s = ScalingSeries::new(w.name.clone(), points.to_vec());
        for p in &s.points {
            prop_assert!(p.speedup <= 1.05 * p.cores as f64,
                "{} cores: speedup {}", p.cores, p.speedup);
        }
    }
}
