//! The `ModelExec` sink: costs a kernel's operation stream on a machine.
//!
//! [`ModelExec`] combines a [`CoreModel`] with an
//! [`mb_mem::hierarchy::Hierarchy`] and a [`mb_mem::tlb::Tlb`]. Kernels
//! report their operations through the [`Exec`] trait; [`ModelExec::finish`]
//! folds the accumulated evidence into cycles, wall-clock time and a
//! PAPI-style [`CounterSet`].
//!
//! ## Cost model
//!
//! * **Compute cycles** — each flop instruction costs
//!   `lanes·flops / rate(prec, lanes)` cycles (the rate honours the SIMD
//!   capability matrix, so f64 "vector" code on the A9 silently runs at
//!   scalar speed, the Figure 6 effect); divides and square roots add a
//!   long-latency penalty; integer ops cost `n / int_rate`.
//! * **Memory cycles** — every access costs issue bandwidth; misses cost
//!   the hierarchy latency divided by the effective memory-level
//!   parallelism (`min(unroll hint, hardware max)` — the Figure 6/7
//!   unrolling lever).
//! * **Combination** — out-of-order cores overlap compute with memory
//!   (`max`), in-order cores serialise (`sum / issue_efficiency`).
//! * **Branches** — expected mispredictions × penalty.
//!
//! ## Sampling
//!
//! Costing every access through the cache simulator is exact but slow for
//! billion-access kernels. With `sample_rate = k > 1` the hierarchy
//! simulates windows of 1024 consecutive accesses and skips `k−1` windows
//! between them (preserving spatial locality inside a window), then
//! scales miss counts by `k`. `sample_rate = 1` is exact and is the
//! default for every preset.
//!
//! ## Batched runs
//!
//! [`Exec::mem_run`] reports a constant-stride run of accesses in one
//! call. `ModelExec` splits it at L1-line and sample-window boundaries
//! and costs each same-line chunk with one TLB and one hierarchy lookup:
//! a page spans at least one L1 line (asserted when the sink is built
//! and when a page table is installed), so the chunk's trailing accesses
//! are TLB hits on the same page and L1 last-line-memo hits, charged in
//! closed form. The result is bit-identical to reporting each access.
//!
//! ## Lockstep runs
//!
//! [`Exec::lockstep_run`] reports `n` iterations of a loop body — `k`
//! streams of loads and stores advancing by fixed strides, plus the
//! body's flops — in one call. `ModelExec` skips unsampled windows in
//! one step and costs a simulated window in two passes, the TLB's and
//! the caches', which keep separate state and add up their charges. Each
//! pass cuts the bodies into windows in which every stream stays on one
//! page (TLB) or one L1 line (caches) and looks up the first body of
//! each access by access. Once every page or line it touched is seen to
//! be still resident, the later bodies are all hits that change no
//! residency: all but the last are counted in closed form and the last
//! is replayed into the slots the first body left, which leaves every
//! clock, stamp, PLRU bit, hint and memo where per-access lookups would.
//! A window that fails the check goes on access by access. The flops'
//! cycles are summed in one step only when no partial sum can round, so
//! the result is bit-identical to reporting each operation;
//! `tests/lockstep_equivalence.rs` holds it to the per-access expansion.
//!
//! ## Checkpoints
//!
//! [`ModelExec::checkpoint`] captures the sink's state after a run and
//! [`ModelExec::rollback`] returns to it in place, so many variants that
//! share a long prefix pay for the prefix once (Figure 7's unroll sweep
//! replays one magicfilter stream per machine). The hierarchy is kept as
//! a compact image of its valid ways; a rollback clears only the cache
//! pages in use and allocates nothing. `tests/checkpoint_equivalence.rs`
//! holds it to a fresh sink fed the prefix and the variant.

use mb_mem::hierarchy::{Hierarchy, HierarchyConfig, HierarchyImage, HitLevel};
use mb_mem::pages::PageTable;
use mb_mem::tlb::{Tlb, TlbConfig};
use mb_simcore::time::{Cycles, SimTime};

use crate::arch::{CoreModel, Overlap};
use crate::counters::{Counter, CounterSet};
use crate::ops::{Exec, Flop, FlopKind, OpCounts, Precision, Stream};

/// Size of a simulated window when sampling (accesses).
const SAMPLE_WINDOW: u64 = 1024;

/// Most streams a lockstep body may have for its later bodies to be
/// charged in closed form: the first body's TLB and L1 slots are noted
/// on the stack. Longer bodies are costed access by access.
const MAX_BODY: usize = 32;

/// The exponent of the lowest set bit of a finite, non-negative `x`:
/// `x` is an odd multiple of `2^grain(x)`. `i32::MAX` for zero, which is
/// a multiple of every power of two.
fn grain(x: f64) -> i32 {
    if x == 0.0 {
        return i32::MAX;
    }
    let bits = x.to_bits();
    let (exponent, fraction) = ((bits >> 52) as i32 & 0x7ff, bits & ((1 << 52) - 1));
    let (mantissa, scale) = match exponent {
        0 => (fraction, -1074),
        _ => (fraction | 1 << 52, exponent - 1075),
    };
    scale + mantissa.trailing_zeros() as i32
}

/// The two passes of a lockstep window: the TLB sees virtual addresses,
/// the caches physical ones.
#[derive(Debug, Clone, Copy)]
enum Pass {
    Tlb,
    Caches,
}

/// How many bodies from `body` on keep every stream within the `grain`
/// bytes (a power of two) it touches in `body` — or, for `None`, the
/// most any such window can hold. At least 1, and `u64::MAX` when no
/// stream moves. An L1 line lies in one page and one page-table frame,
/// so a line window keeps the physical line fixed too.
fn window(streams: &[Stream], grain: u64, body: Option<u64>) -> u64 {
    let mut bodies = u64::MAX;
    for s in streams.iter().filter(|s| s.stride != 0) {
        let room = body.map_or(grain, |b| grain - (s.addr(b) & (grain - 1)));
        // `(room - 1) / stride + 1`, without a division in the common
        // cases.
        let stay = if s.stride >= room {
            1
        } else if s.stride.is_power_of_two() {
            ((room - 1) >> s.stride.trailing_zeros()) + 1
        } else {
            (room - 1) / s.stride + 1
        };
        bodies = bodies.min(stay);
    }
    bodies
}

/// The physical address of `addr` under `table`: translated inside its
/// span, unchanged outside it or without a table.
fn route(table: &Option<PageTable>, addr: u64) -> u64 {
    match table {
        Some(t) if (addr as usize) < t.span_bytes() => t.translate(addr),
        _ => addr,
    }
}

/// The final verdict of a modelled run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// Total modelled cycles.
    pub cycles: Cycles,
    /// Wall-clock time at the core's frequency.
    pub time: SimTime,
    /// PAPI-style counters.
    pub counters: CounterSet,
    /// Raw operation counts.
    pub counts: OpCounts,
    /// Cycles attributed to compute issue.
    pub compute_cycles: f64,
    /// Cycles attributed to memory (issue + stalls).
    pub memory_cycles: f64,
    /// Cycles attributed to branch mispredictions.
    pub branch_cycles: f64,
}

impl ExecReport {
    /// Achieved GFLOPS (both precisions pooled) over the modelled run.
    pub fn gflops(&self) -> f64 {
        let secs = self.time.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.counts.total_flops() as f64 / secs / 1e9
        }
    }
}

/// An [`Exec`] sink that prices operations on a [`CoreModel`] backed by a
/// simulated memory hierarchy.
#[derive(Debug, Clone)]
pub struct ModelExec {
    model: CoreModel,
    hierarchy: Hierarchy,
    tlb: Tlb,
    tlb_miss_penalty_cycles: u64,
    l1_latency: u64,
    l1_line_bytes: u64,
    page_bytes: u64,
    /// Per cache level: `(line_bytes / fill_bytes_per_cycle)` — transfer
    /// cycles one line fetched *from* that level occupies.
    fill_cost: Vec<f64>,
    memory_fill_cost: f64,
    sample_rate: u32,
    page_table: Option<PageTable>,

    tally: Tally,
    mlp_hint: u32,
    prefetch_hint: f64,
}

/// The evidence a [`ModelExec`] accumulates between [`ModelExec::reset`]
/// and [`ModelExec::finish`], apart from the hierarchy and TLB state and
/// the hints.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Tally {
    counts: OpCounts,
    flop_cycles: f64,
    access_index: u64,
    sampled_accesses: u64,
    sampled_latency: u64,
    sampled_fill_cycles: f64,
    sampled_l1_misses: u64,
    sampled_l2_accesses: u64,
    sampled_l2_misses: u64,
    sampled_tlb_misses: u64,
    wide_accesses: u64,
}

/// The whole mutable state of a [`ModelExec`] at one point — the
/// hierarchy image, the TLB, every accumulator and both hints — taken
/// by [`ModelExec::checkpoint`] and rolled back to by
/// [`ModelExec::rollback`]. The model, sample rate and page table are
/// configuration and are not part of it. Two checkpoints are equal
/// exactly when the sinks they were taken from are in the same state.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    hierarchy: HierarchyImage,
    tlb: Tlb,
    tally: Tally,
    mlp_hint: u32,
    prefetch_hint: f64,
}

impl ModelExec {
    /// Creates a sink from explicit parts.
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate` is zero or a TLB page is smaller than an
    /// L1 line.
    pub fn new(
        model: CoreModel,
        hierarchy: HierarchyConfig,
        tlb: TlbConfig,
        tlb_miss_penalty_cycles: u64,
        sample_rate: u32,
    ) -> Self {
        assert!(sample_rate > 0, "sample rate must be at least 1");
        let l1_line_bytes = hierarchy.l1_line_bytes();
        assert!(
            tlb.page_bytes >= l1_line_bytes,
            "TLB page ({} B) smaller than an L1 line ({l1_line_bytes} B)",
            tlb.page_bytes
        );
        let l1_latency = hierarchy.levels[0].hit_latency_cycles;
        let line = l1_line_bytes as f64;
        let fill_cost: Vec<f64> = hierarchy
            .levels
            .iter()
            .map(|l| line / l.fill_bytes_per_cycle)
            .collect();
        let memory_fill_cost = line / hierarchy.memory_fill_bytes_per_cycle;
        let default_mlp = match model.overlap {
            Overlap::OutOfOrder => 4,
            Overlap::InOrder { .. } => 1,
        };
        ModelExec {
            model,
            hierarchy: Hierarchy::new(hierarchy),
            tlb: Tlb::new(tlb),
            tlb_miss_penalty_cycles,
            l1_latency,
            l1_line_bytes: l1_line_bytes as u64,
            page_bytes: tlb.page_bytes as u64,
            fill_cost,
            memory_fill_cost,
            sample_rate,
            page_table: None,
            tally: Tally::default(),
            mlp_hint: default_mlp,
            prefetch_hint: 0.0,
        }
    }

    /// A Nehalem core over the Xeon X5550 hierarchy (exact costing).
    pub fn nehalem() -> Self {
        ModelExec::new(
            CoreModel::nehalem(),
            HierarchyConfig::xeon_x5550(),
            TlbConfig::new(64, 4096),
            30,
            1,
        )
    }

    /// A Cortex-A9 core over the Snowball A9500 hierarchy (exact costing).
    pub fn snowball() -> Self {
        ModelExec::new(
            CoreModel::cortex_a9_snowball(),
            HierarchyConfig::snowball_a9500(),
            TlbConfig::new(32, 4096),
            40,
            1,
        )
    }

    /// A Cortex-A9 core over the Tegra2 hierarchy (exact costing).
    pub fn tegra2() -> Self {
        ModelExec::new(
            CoreModel::cortex_a9_tegra2(),
            HierarchyConfig::tegra2(),
            TlbConfig::new(32, 4096),
            40,
            1,
        )
    }

    /// Sets the window-sampling rate (1 = exact). Returns `self` for
    /// builder-style chaining.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    pub fn with_sample_rate(mut self, rate: u32) -> Self {
        assert!(rate > 0, "sample rate must be at least 1");
        self.sample_rate = rate;
        self
    }

    /// Routes virtual addresses through a page table before they reach
    /// the (physically indexed) caches — the Section V.A.1 mechanism.
    /// Addresses reported by the kernel are then interpreted as offsets
    /// into the mapped buffer.
    ///
    /// # Panics
    ///
    /// Panics if a page of `table` is smaller than an L1 line.
    pub fn with_page_table(mut self, table: PageTable) -> Self {
        self.set_page_table(Some(table));
        self
    }

    /// Replaces (or clears) the page table routing after construction —
    /// used by experiments that re-allocate their buffer per measurement
    /// (the Section V.A.1 protocol).
    ///
    /// # Panics
    ///
    /// Panics if a page of `table` is smaller than an L1 line.
    pub fn set_page_table(&mut self, table: Option<PageTable>) {
        if let Some(t) = &table {
            // Whole pages keep every L1 line inside one frame and on one
            // side of `span_bytes`, which `mem_run`'s chunks rely on.
            assert!(
                t.page_bytes() as u64 >= self.l1_line_bytes,
                "page table page ({} B) smaller than an L1 line ({} B)",
                t.page_bytes(),
                self.l1_line_bytes
            );
        }
        self.page_table = table;
    }

    /// Hints the memory-level parallelism the code shape exposes
    /// (typically the unroll degree). Clamped to the hardware ceiling at
    /// evaluation time.
    pub fn set_mlp_hint(&mut self, unroll: u32) {
        self.mlp_hint = unroll.max(1);
    }

    /// Hints how *predictable* the access pattern is for the hardware
    /// prefetcher, in `[0, 1]`: 1.0 for a constant-stride sweep (the
    /// membench kernel), 0.0 (the default) for pointer chasing. The
    /// hidden fraction of miss stalls is
    /// `predictability × prefetch_efficiency`.
    ///
    /// # Panics
    ///
    /// Panics if `predictability` is outside `[0, 1]`.
    pub fn set_prefetch_hint(&mut self, predictability: f64) {
        assert!(
            (0.0..=1.0).contains(&predictability),
            "predictability must be in [0, 1]"
        );
        self.prefetch_hint = predictability;
    }

    /// The core model being used.
    pub fn model(&self) -> &CoreModel {
        &self.model
    }

    /// The simulated cache hierarchy. Its statistics count the sampled
    /// accesses only.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The simulated TLB, which sees the sampled accesses only.
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    fn route(&self, addr: u64) -> u64 {
        route(&self.page_table, addr)
    }

    fn mem_access(&mut self, addr: u64, bytes: u32, is_store: bool) {
        // Degenerate accesses corrupt the hierarchy statistics silently;
        // trap them in `validate` builds (kernels issue 1..=4096 B).
        #[cfg(feature = "validate")]
        assert!(
            (1..=4096).contains(&bytes),
            "mem_access({addr:#x}): {bytes} B outside 1..=4096"
        );
        if bytes >= 16 {
            self.tally.wide_accesses += 1;
        }
        if self.sample_run(1).1 {
            self.tally.sampled_accesses += 1;
            let tlb_hit = self.tlb.access(addr);
            let (lvl, lat) = self.hierarchy.access(self.route(addr));
            self.charge(tlb_hit, lvl, lat, is_store);
        }
    }

    /// Costs the accesses `t..end` of a lockstep run of `streams`, which
    /// lie in one simulated sample window; access `t` is stream `t % k`
    /// of body `t / k`, and `loads` of the `k` streams load. The TLB and
    /// the caches keep separate state and their charges are sums, so each
    /// takes its own pass over the accesses, in order.
    fn lockstep_window(&mut self, streams: &[Stream], loads: u64, t: u64, end: u64) {
        self.tally.sampled_accesses += end - t;
        self.lockstep_pass(Pass::Tlb, streams, loads, t, end);
        self.lockstep_pass(Pass::Caches, streams, loads, t, end);
    }

    /// One pass of [`ModelExec::lockstep_window`]. Whole bodies go by
    /// windows: runs of bodies in which every stream stays on one page
    /// (the TLB pass) or one L1 line (the caches pass). The first body of
    /// a window is looked up access by access, noting the TLB or L1 slot
    /// each access leaves its page or line in. If every one is still
    /// there after the body, every later body of the window hits and
    /// changes no residency, so they are charged in closed form (see
    /// [`ModelExec::repeat_hits`]). Otherwise the window goes on access
    /// by access. Bodies the sample window's edges cut go access by
    /// access too.
    fn lockstep_pass(&mut self, pass: Pass, streams: &[Stream], loads: u64, t: u64, end: u64) {
        let k = streams.len();
        let (mut body, first) = (t / k as u64, (t % k as u64) as usize);
        let mut left = end - t;
        if first != 0 {
            let cut = (k - first).min(left as usize);
            for s in &streams[first..first + cut] {
                self.lookup(pass, s, body);
            }
            left -= cut as u64;
            body += 1;
        }
        let (mut whole, last) = (left / k as u64, (left % k as u64) as usize);
        let grain = match pass {
            Pass::Tlb => self.page_bytes,
            Pass::Caches => self.l1_line_bytes,
        };
        if k > MAX_BODY || window(streams, grain, None) < 2 {
            // Too long a body, or no window holds two bodies.
            for b in body..body + whole {
                for s in streams {
                    self.lookup(pass, s, b);
                }
            }
            body += whole;
            whole = 0;
        }
        // A body of no more streams than the TLB has entries, or (under
        // LRU) than an L1 set has ways, cannot evict its own pages or
        // lines.
        let kept = match pass {
            Pass::Tlb => self.tlb.keeps(k),
            Pass::Caches => self.hierarchy.l1_keeps(k),
        };
        let mut slots = [0; MAX_BODY];
        let slots = &mut slots[..k.min(MAX_BODY)];
        while whole > 0 {
            let bodies = window(streams, grain, Some(body)).min(whole);
            for (s, slot) in streams.iter().zip(slots.iter_mut()) {
                *slot = self.lookup(pass, s, body);
            }
            if bodies >= 2 && (kept || self.held(pass, streams, slots, body)) {
                self.repeat_hits(pass, streams, slots, loads, body, bodies - 1);
            } else {
                for b in body + 1..body + bodies {
                    for s in streams {
                        self.lookup(pass, s, b);
                    }
                }
            }
            body += bodies;
            whole -= bodies;
        }
        for s in &streams[..last] {
            self.lookup(pass, s, body);
        }
    }

    /// Looks up stream `s`'s access of body `body` in the TLB or the
    /// caches, charges it, and returns the TLB or L1 slot it leaves its
    /// page or line in.
    #[inline]
    fn lookup(&mut self, pass: Pass, s: &Stream, body: u64) -> usize {
        let addr = s.addr(body);
        match pass {
            Pass::Tlb => {
                let hit = self.tlb.access(addr);
                self.charge_tlb(hit);
                self.tlb.hinted_slot(addr)
            }
            Pass::Caches => {
                let (lvl, lat) = self.hierarchy.access(self.route(addr));
                self.charge_level(lvl, lat, s.is_store);
                self.hierarchy.l1_last_slot()
            }
        }
    }

    /// Whether every TLB or L1 slot `body`'s accesses left their pages or
    /// lines in still holds them.
    fn held(&self, pass: Pass, streams: &[Stream], slots: &[usize], body: u64) -> bool {
        streams.iter().zip(slots).all(|(s, &slot)| {
            let addr = s.addr(body);
            match pass {
                Pass::Tlb => self.tlb.holds(slot, addr),
                Pass::Caches => self.hierarchy.l1_holds(slot, self.route(addr)),
            }
        })
    }

    /// Charges `reps` repetitions of `body`, just looked up, whose pages
    /// or lines all still sit in the TLB or L1 `slots` it left them in:
    /// every access hits, in L1 at the L1 latency for the `loads` loads
    /// of a body. The TLB or L1 counts all but the last repetition in
    /// closed form — its clock advances by the accesses, or the non-memo
    /// touches, of each — and replays the last to leave every stamp,
    /// hint, PLRU bit and the last-line memo where the repetitions would.
    /// The L1 memo holds the body's last line, so every repetition has
    /// the same memo hits.
    fn repeat_hits(
        &mut self,
        pass: Pass,
        streams: &[Stream],
        slots: &[usize],
        loads: u64,
        body: u64,
        reps: u64,
    ) {
        let addrs = streams
            .iter()
            .map(|s| s.addr(body))
            .zip(slots.iter().copied());
        match pass {
            Pass::Tlb => self.tlb.repeat_hits(addrs, reps),
            Pass::Caches => {
                let table = &self.page_table;
                let lines = addrs.map(|(a, slot)| (route(table, a), slot));
                self.hierarchy.repeat_l1_hits(lines, reps);
                self.tally.sampled_latency += reps * loads * self.l1_latency;
            }
        }
    }

    /// The cycles one flop instruction adds to the compute total: its
    /// issue share and, for divides and square roots, the long-latency
    /// penalty, which is added after it.
    #[inline]
    fn flop_cost(&self, kind: FlopKind, prec: Precision, lanes: u32) -> (f64, Option<f64>) {
        let flops = kind.flops() * lanes as u64;
        let issue = flops as f64 / self.model.flop_rate(prec, lanes);
        let penalty = matches!(kind, FlopKind::Div | FlopKind::Sqrt)
            .then(|| self.model.long_latency_penalty_cycles * lanes as f64);
        (issue, penalty)
    }

    /// Tallies `n` instructions of each of `flops` as a lockstep body
    /// reports them. The counts are closed form. The cycle total must be
    /// bit-identical to `n` bodies of `flop` calls, each adding its
    /// costs to it in turn, for any flop rate. When the total and every
    /// cost are multiples of one power of two `2^e` and the sum stays
    /// below `2^(52+e)`, no partial sum rounds, so the sum is taken in
    /// one step (the presets' rates are all powers of two); otherwise
    /// the costs are added one at a time, in body order.
    fn lockstep_flops(&mut self, flops: &[Flop], n: u64) {
        for f in flops {
            self.tally.counts.add_flops(f.kind, f.prec, f.lanes, n);
        }
        let (mut body, mut unit) = (0.0, grain(self.tally.flop_cycles));
        for f in flops {
            let (issue, penalty) = self.flop_cost(f.kind, f.prec, f.lanes);
            body += issue + penalty.unwrap_or(0.0);
            unit = unit.min(grain(issue)).min(penalty.map_or(i32::MAX, grain));
        }
        let total = self.tally.flop_cycles + n as f64 * body;
        if n < 1 << 52 && total < 2f64.powi(unit.saturating_add(52)) {
            self.tally.flop_cycles = total;
            return;
        }
        for _ in 0..n {
            for f in flops {
                let (issue, penalty) = self.flop_cost(f.kind, f.prec, f.lanes);
                self.tally.flop_cycles += issue;
                if let Some(penalty) = penalty {
                    self.tally.flop_cycles += penalty;
                }
            }
        }
    }

    /// Advances the access index over the next `n` accesses, stopping
    /// early at the end of the current sample window when sampling.
    /// Returns how many accesses it advanced over and whether their
    /// window is simulated (window 0 of every `sample_rate`).
    #[inline]
    fn sample_run(&mut self, n: u64) -> (u64, bool) {
        let index = self.tally.access_index;
        if self.sample_rate == 1 {
            self.tally.access_index += n;
            return (n, true);
        }
        let taken = n.min(SAMPLE_WINDOW - index % SAMPLE_WINDOW);
        self.tally.access_index += taken;
        let (window, rate) = (index / SAMPLE_WINDOW, self.sample_rate as u64);
        // A mask instead of a division for the usual power-of-two rates.
        let sampled = if rate.is_power_of_two() {
            window & (rate - 1) == 0
        } else {
            window.is_multiple_of(rate)
        };
        (taken, sampled)
    }

    /// Costs `k` sampled accesses to the L1 line of `addr`, `addr`
    /// first, with one TLB and one hierarchy lookup. The trailing `k − 1`
    /// are TLB hits (a page spans at least one line) and L1
    /// last-line-memo hits at the L1 latency.
    fn line_run(&mut self, addr: u64, k: u64, is_store: bool) {
        self.tally.sampled_accesses += k;
        let tlb_hit = self.tlb.access_run(addr, k);
        let (lvl, lat) = self.hierarchy.access_run(self.route(addr), k);
        if !is_store {
            self.tally.sampled_latency += (k - 1) * self.l1_latency;
        }
        self.charge(tlb_hit, lvl, lat, is_store);
    }

    /// Charges the outcome of one sampled access's TLB and hierarchy
    /// lookups.
    #[inline]
    fn charge(&mut self, tlb_hit: bool, lvl: HitLevel, lat: u64, is_store: bool) {
        self.charge_tlb(tlb_hit);
        self.charge_level(lvl, lat, is_store);
    }

    /// Charges the outcome of a TLB lookup.
    #[inline]
    fn charge_tlb(&mut self, hit: bool) {
        if !hit {
            self.tally.sampled_tlb_misses += 1;
            self.tally.sampled_latency += self.tlb_miss_penalty_cycles;
        }
    }

    /// Charges the outcome of a hierarchy lookup.
    #[inline]
    fn charge_level(&mut self, lvl: HitLevel, lat: u64, is_store: bool) {
        // Stores retire through the write buffer on both target cores:
        // they cost issue slots and fill bandwidth but never stall the
        // pipeline on a miss. Loads pay the full latency.
        if !is_store {
            self.tally.sampled_latency += lat;
        }
        // L1 is probed first, so anything but an L1 hit is an L1 miss
        // (and an L2 access).
        match lvl {
            HitLevel::Cache(0) => return,
            HitLevel::Cache(i) => self.tally.sampled_fill_cycles += self.fill_cost[i],
            HitLevel::Memory => self.tally.sampled_fill_cycles += self.memory_fill_cost,
        }
        self.tally.sampled_l1_misses += 1;
        self.tally.sampled_l2_accesses += 1;
        if lvl != HitLevel::Cache(1) {
            self.tally.sampled_l2_misses += 1;
        }
    }

    /// Scale factor from sampled events to estimated totals.
    fn scale(&self) -> f64 {
        if self.tally.sampled_accesses == 0 {
            1.0
        } else {
            self.tally.access_index as f64 / self.tally.sampled_accesses as f64
        }
    }

    /// Folds the accumulated evidence into a report and resets nothing —
    /// call once at the end of a run. (Taking `&mut self` rather than
    /// `self` keeps the sink usable behind generic kernels; repeated
    /// calls simply re-evaluate the same totals.)
    pub fn finish(&mut self) -> ExecReport {
        let m = &self.model;
        let scale = self.scale();

        // --- compute ---
        // Branches occupy issue slots like simple ALU ops do; their
        // *misprediction* cost is charged separately below.
        let int_cycles =
            (self.tally.counts.int_ops + self.tally.counts.branches) as f64 / m.int_ops_per_cycle;
        let compute = self.tally.flop_cycles + int_cycles;

        // --- memory ---
        let wide_extra = self.tally.wide_accesses as f64 * (m.mem_penalty_128bit - 1.0);
        let issue = (self.tally.access_index as f64 + wide_extra) / m.mem_issue_per_cycle;
        let est_total_latency = self.tally.sampled_latency as f64 * scale;
        let est_baseline = self.tally.access_index as f64 * self.l1_latency as f64;
        let stall_raw = (est_total_latency - est_baseline).max(0.0);
        let prefetch_hidden = (self.prefetch_hint * m.prefetch_efficiency).clamp(0.0, 1.0);
        let mlp = m.effective_mlp(self.mlp_hint);
        let stall = stall_raw * (1.0 - prefetch_hidden) / mlp;
        // Line-transfer occupancy is pure bandwidth: neither prefetching
        // nor MLP makes the wires wider.
        let fill = self.tally.sampled_fill_cycles * scale;
        let memory = issue.max(fill) + stall;

        // --- branches ---
        let predictable = self.tally.counts.branches - self.tally.counts.unpredictable_branches;
        let expected_misses = predictable as f64 * (1.0 - m.predictable_accuracy)
            + self.tally.counts.unpredictable_branches as f64 * (1.0 - m.unpredictable_accuracy);
        let branch = expected_misses * m.branch_miss_penalty_cycles as f64;

        // --- combine ---
        let core = match m.overlap {
            Overlap::OutOfOrder => compute.max(memory),
            Overlap::InOrder { issue_efficiency } => (compute + memory) / issue_efficiency,
        };
        let total = core + branch;
        let cycles = Cycles::new(total.ceil() as u64);
        let time = m.frequency.cycles(cycles);

        let mut counters = CounterSet::new();
        counters.set(Counter::TotalCycles, cycles.get());
        counters.set(
            Counter::TotalInstructions,
            self.tally.counts.flop_instructions
                + self.tally.counts.int_ops
                + self.tally.counts.loads
                + self.tally.counts.stores
                + self.tally.counts.branches,
        );
        counters.set(Counter::FpOps, self.tally.counts.total_flops());
        counters.set(Counter::L1DataAccesses, self.tally.access_index);
        counters.set(
            Counter::L1DataMisses,
            (self.tally.sampled_l1_misses as f64 * scale) as u64,
        );
        counters.set(
            Counter::L2DataAccesses,
            (self.tally.sampled_l2_accesses as f64 * scale) as u64,
        );
        counters.set(
            Counter::L2DataMisses,
            (self.tally.sampled_l2_misses as f64 * scale) as u64,
        );
        counters.set(
            Counter::TlbDataMisses,
            (self.tally.sampled_tlb_misses as f64 * scale) as u64,
        );
        counters.set(Counter::BranchMispredictions, expected_misses as u64);
        counters.set(Counter::Loads, self.tally.counts.loads);
        counters.set(Counter::Stores, self.tally.counts.stores);

        ExecReport {
            cycles,
            time,
            counters,
            counts: self.tally.counts,
            compute_cycles: compute,
            memory_cycles: memory,
            branch_cycles: branch,
        }
    }

    /// Resets all accumulated state (hierarchy, TLB and tallies) so the
    /// sink can cost a fresh run.
    pub fn reset(&mut self) {
        self.hierarchy.reset();
        self.tlb.reset();
        self.tally = Tally::default();
    }

    /// Captures the sink's whole mutable state for [`ModelExec::rollback`].
    /// The hierarchy part is a compact image of its valid ways, so a
    /// checkpoint of a run that touched a small working set is small
    /// however large the last-level cache is.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            hierarchy: self.hierarchy.image(),
            tlb: self.tlb.clone(),
            tally: self.tally,
            mlp_hint: self.mlp_hint,
            prefetch_hint: self.prefetch_hint,
        }
    }

    /// Rolls the sink back, in place, to `checkpoint`: every operation
    /// reported afterwards costs exactly what it would have cost right
    /// after the checkpoint was taken, and [`ModelExec::finish`] reports
    /// what a fresh sink fed the checkpointed run plus those operations
    /// reports. Allocates nothing and writes only pages the sink has
    /// already touched.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoint` was taken from a sink of another memory
    /// geometry.
    pub fn rollback(&mut self, checkpoint: &Checkpoint) {
        self.hierarchy.restore(&checkpoint.hierarchy);
        self.tlb.restore(&checkpoint.tlb);
        self.tally = checkpoint.tally;
        self.mlp_hint = checkpoint.mlp_hint;
        self.prefetch_hint = checkpoint.prefetch_hint;
    }
}

impl Exec for ModelExec {
    fn flop(&mut self, kind: FlopKind, prec: Precision, lanes: u32) {
        #[cfg(feature = "validate")]
        assert!(lanes >= 1, "flop({kind:?}, {prec:?}) with zero lanes");
        self.tally.counts.add_flops(kind, prec, lanes, 1);
        let flops = kind.flops() * lanes as u64;
        let rate = self.model.flop_rate(prec, lanes);
        self.tally.flop_cycles += flops as f64 / rate;
        if matches!(kind, FlopKind::Div | FlopKind::Sqrt) {
            self.tally.flop_cycles += self.model.long_latency_penalty_cycles * lanes as f64;
        }
    }

    fn int_ops(&mut self, n: u64) {
        self.tally.counts.int_ops += n;
    }

    fn load(&mut self, addr: u64, bytes: u32) {
        self.tally.counts.add_mem(1, bytes, false);
        self.mem_access(addr, bytes, false);
    }

    fn store(&mut self, addr: u64, bytes: u32) {
        self.tally.counts.add_mem(1, bytes, true);
        self.mem_access(addr, bytes, true);
    }

    fn branch(&mut self, predictable: bool) {
        self.tally.counts.branches += 1;
        if !predictable {
            self.tally.counts.unpredictable_branches += 1;
        }
    }

    fn flop_run(&mut self, kind: FlopKind, prec: Precision, lanes: u32, n: u64) {
        // Closed-form batch accounting: one multiply instead of n trait
        // calls. (The cycle total accumulates as `n·(flops/rate)` rather
        // than n separate adds, which is the same real number; the two
        // float orderings are each deterministic.)
        self.tally.counts.add_flops(kind, prec, lanes, n);
        let flops = kind.flops() * lanes as u64;
        let rate = self.model.flop_rate(prec, lanes);
        self.tally.flop_cycles += n as f64 * (flops as f64 / rate);
        if matches!(kind, FlopKind::Div | FlopKind::Sqrt) {
            self.tally.flop_cycles +=
                self.model.long_latency_penalty_cycles * (lanes as u64 * n) as f64;
        }
    }

    fn branch_run(&mut self, n: u64, predictable: bool) {
        self.tally.counts.branches += n;
        if !predictable {
            self.tally.counts.unpredictable_branches += n;
        }
    }

    fn mem_run(&mut self, base: u64, stride: u64, n: u64, bytes: u32, is_store: bool) {
        #[cfg(feature = "validate")]
        assert!(
            (1..=4096).contains(&bytes),
            "mem_run({base:#x}): {bytes} B outside 1..=4096"
        );
        self.tally.counts.add_mem(n, bytes, is_store);
        if bytes >= 16 {
            self.tally.wide_accesses += n;
        }
        let line = self.l1_line_bytes;
        let mut i = 0;
        while i < n {
            let (taken, sampled) = self.sample_run(n - i);
            let end = i + taken;
            if !sampled {
                i = end;
                continue;
            }
            // One lookup per L1 line the window's share of the run touches.
            while i < end {
                let addr = base.wrapping_add(i.wrapping_mul(stride));
                let k = match stride {
                    0 => end - i,
                    _ => {
                        let room = line - (addr & (line - 1));
                        (end - i).min((room - 1) / stride + 1)
                    }
                };
                self.line_run(addr, k, is_store);
                i += k;
            }
        }
    }

    fn lockstep_run(&mut self, streams: &[Stream], flops: &[Flop], n: u64) {
        for s in streams {
            #[cfg(feature = "validate")]
            assert!(
                (1..=4096).contains(&s.bytes),
                "lockstep_run({:#x}): {} B outside 1..=4096",
                s.base,
                s.bytes
            );
            self.tally.counts.add_mem(n, s.bytes, s.is_store);
            if s.bytes >= 16 {
                self.tally.wide_accesses += n;
            }
        }
        #[cfg(feature = "validate")]
        for f in flops {
            assert!(f.lanes >= 1, "lockstep_run: {f:?} with zero lanes");
        }
        self.lockstep_flops(flops, n);
        let total = n
            .checked_mul(streams.len() as u64)
            .expect("a lockstep run of at most 2^64 accesses");
        let loads = streams.iter().filter(|s| !s.is_store).count() as u64;
        let mut t = 0;
        while t < total {
            let (taken, sampled) = self.sample_run(total - t);
            if sampled {
                self.lockstep_window(streams, loads, t, t + taken);
            }
            t += taken;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A simple compute-only loop: n dependent f64 FMAs.
    fn fma_loop(e: &mut ModelExec, n: u64, lanes: u32) {
        for _ in 0..n {
            e.flop(FlopKind::Fma, Precision::F64, lanes);
            e.branch(true);
        }
    }

    #[test]
    fn nehalem_beats_snowball_on_dp_compute() {
        let mut xeon = ModelExec::nehalem();
        fma_loop(&mut xeon, 100_000, 2);
        let rx = xeon.finish();
        let mut arm = ModelExec::snowball();
        fma_loop(&mut arm, 100_000, 2);
        let ra = arm.finish();
        // Same abstract work; Nehalem is faster in both cycles and time.
        assert!(ra.cycles > rx.cycles);
        let ratio = ra.time.as_secs_f64() / rx.time.as_secs_f64();
        assert!(
            ratio > 5.0 && ratio < 60.0,
            "compute ratio should be large but sane, got {ratio}"
        );
    }

    #[test]
    fn f32_simd_helps_nehalem_and_snowball_but_not_tegra2() {
        let run = |mut e: ModelExec| {
            fma_loop(&mut e, 10_000, 4);
            e.finish().cycles.get()
        };
        let run_scalar = |mut e: ModelExec| {
            let mut cycles = 0;
            for _ in 0..4 {
                cycles += 0;
            }
            fma_loop(&mut e, 40_000, 1);
            cycles + e.finish().cycles.get()
        };
        // Vectorised f64 on Snowball ≈ scalar (no DP SIMD).
        let mut v = ModelExec::snowball();
        fma_loop(&mut v, 10_000, 2);
        let vec_dp = v.finish().cycles.get();
        let mut s = ModelExec::snowball();
        fma_loop(&mut s, 20_000, 1);
        let scal_dp = s.finish().cycles.get();
        let rel = vec_dp as f64 / scal_dp as f64;
        // The 2-lane version still pays half the loop branches, so it is
        // slightly ahead — but nowhere near the 2× a real DP SIMD gives.
        assert!(rel > 0.8, "A9 f64 'vector' ≈ scalar, got {rel}");
        // Tegra2 f32 lanes don't help either (no NEON).
        let tegra_vec = run(ModelExec::tegra2());
        let tegra_scal = run_scalar(ModelExec::tegra2());
        // Again only loop-overhead savings, not a real SIMD speed-up.
        assert!(tegra_vec as f64 / tegra_scal as f64 > 0.7);
        // But Nehalem f32 SIMD is much faster than scalar.
        let xeon_vec = run(ModelExec::nehalem());
        let xeon_scal = run_scalar(ModelExec::nehalem());
        assert!((xeon_scal as f64 / xeon_vec as f64) > 2.0);
    }

    #[test]
    fn memory_stalls_dominate_strided_misses() {
        let mut e = ModelExec::snowball();
        // 1 MB sweep touching one element per cache line: mostly misses.
        for i in 0..32_768u64 {
            e.load(i * 32, 4);
        }
        let r = e.finish();
        assert!(r.memory_cycles > r.compute_cycles);
        assert!(r.counters.get(Counter::L1DataMisses) > 30_000);
    }

    #[test]
    fn mlp_hint_divides_stalls_on_ooo() {
        let run = |hint: u32| {
            let mut e = ModelExec::nehalem();
            e.set_mlp_hint(hint);
            for i in 0..100_000u64 {
                e.load(i * 64, 4);
            }
            e.finish().cycles.get()
        };
        let serial = run(1);
        let unrolled = run(8);
        assert!(
            serial as f64 / unrolled as f64 > 3.0,
            "unrolling should expose MLP: {serial} vs {unrolled}"
        );
    }

    #[test]
    fn mlp_capped_on_a9() {
        let run = |hint: u32| {
            let mut e = ModelExec::snowball();
            e.set_mlp_hint(hint);
            for i in 0..100_000u64 {
                e.load(i * 32, 4);
            }
            e.finish().cycles.get()
        };
        let u2 = run(2);
        let u8 = run(8);
        // The A9 can only keep 2 misses outstanding: unrolling past 2
        // does not help.
        assert_eq!(u2, u8);
    }

    #[test]
    fn wide_accesses_penalised_on_arm_only() {
        let run = |mut e: ModelExec, bytes: u32| {
            for i in 0..10_000u64 {
                e.load((i * 16) % 8192, bytes);
            }
            e.finish().cycles.get()
        };
        let arm_narrow = run(ModelExec::snowball(), 8);
        let arm_wide = run(ModelExec::snowball(), 16);
        assert!(arm_wide > arm_narrow, "128-bit splits on the A9 bus");
        let xeon_narrow = run(ModelExec::nehalem(), 8);
        let xeon_wide = run(ModelExec::nehalem(), 16);
        assert_eq!(xeon_wide, xeon_narrow, "no penalty on Nehalem");
    }

    #[test]
    fn branch_mispredictions_cost() {
        let mut pred = ModelExec::nehalem();
        for _ in 0..10_000 {
            pred.branch(true);
        }
        let rp = pred.finish();
        let mut unpred = ModelExec::nehalem();
        for _ in 0..10_000 {
            unpred.branch(false);
        }
        let ru = unpred.finish();
        assert!(ru.branch_cycles > 10.0 * rp.branch_cycles);
    }

    #[test]
    fn sampling_approximates_exact() {
        let run = |rate: u32| {
            let mut e = ModelExec::snowball().with_sample_rate(rate);
            // A repetitive sweep, so windows are representative.
            for sweep in 0..8u64 {
                let _ = sweep;
                for i in 0..65_536u64 {
                    e.load(i * 4 % (256 * 1024), 4);
                }
            }
            e.finish().cycles.get() as f64
        };
        let exact = run(1);
        let sampled = run(4);
        let err = (sampled - exact).abs() / exact;
        assert!(err < 0.25, "sampling error {err} too large");
    }

    #[test]
    fn exact_counters_are_the_hierarchy_and_tlb_tallies() {
        // A stream that ends at every Xeon level: a hot line (L1), a
        // 128 KB sweep (L2), a strided 1 MB sweep (L3 once the two
        // sweeps overflow L2) and cold pages (DRAM).
        let addrs: Vec<u64> = (0..4u64)
            .flat_map(|round| {
                let hot = std::iter::repeat_n(0x40, 64);
                let l2 = (0..128 * 1024u64).step_by(64);
                let l3 = (0x10_0000..0x20_0000u64).step_by(7 * 64);
                let cold = (0..64u64).map(move |i| 0x1000_0000 + (round * 64 + i) * 4096);
                hot.chain(l2).chain(l3).chain(cold)
            })
            .collect();
        let mut e = ModelExec::nehalem();
        let mut h = Hierarchy::new(HierarchyConfig::xeon_x5550());
        let mut t = Tlb::new(TlbConfig::new(64, 4096));
        for &a in &addrs {
            e.load(a, 8);
            h.access(a);
            t.access(a);
        }
        assert!(
            h.level_stats(1).misses > h.memory_accesses(),
            "the stream must hit in L3"
        );
        let c = e.finish().counters;
        assert_eq!(c.get(Counter::L1DataMisses), h.level_stats(0).misses);
        assert_eq!(c.get(Counter::L2DataAccesses), h.level_stats(1).accesses);
        assert_eq!(c.get(Counter::L2DataMisses), h.level_stats(1).misses);
        assert_eq!(c.get(Counter::TlbDataMisses), t.misses());
    }

    #[test]
    fn report_gflops_consistent() {
        let mut e = ModelExec::nehalem();
        fma_loop(&mut e, 1_000_000, 2);
        let r = e.finish();
        let g = r.gflops();
        // 4M flops; Nehalem peak 10.64 GFLOPS — must be under peak and
        // over half of it for this pure-FMA loop.
        assert!(g < 10.64 + 1e-6, "gflops {g}");
        assert!(g > 4.0, "gflops {g}");
    }

    #[test]
    fn page_table_routing_affects_caches() {
        use mb_mem::pages::{PageAllocator, PagePolicy};
        // Random pages near the L1 size produce at least as many misses
        // as contiguous ones.
        let run = |policy: PagePolicy, seed: u64| {
            let mut alloc = PageAllocator::new(policy, 4096, 1 << 18, seed);
            let table = alloc.allocate(32 * 1024);
            let mut e = ModelExec::snowball().with_page_table(table);
            for _ in 0..4 {
                for i in 0..(32 * 1024 / 4) as u64 {
                    e.load(i * 4, 4);
                }
            }
            e.finish().counters.get(Counter::L1DataMisses)
        };
        let contiguous = run(PagePolicy::Contiguous, 0);
        let random: u64 = (0..6).map(|s| run(PagePolicy::Random, s)).sum::<u64>() / 6;
        assert!(random >= contiguous);
    }

    #[test]
    fn reset_gives_fresh_run() {
        let mut e = ModelExec::snowball();
        e.load(0, 4);
        e.flop(FlopKind::Add, Precision::F64, 1);
        let r1 = e.finish();
        e.reset();
        let r2 = e.finish();
        assert!(r1.cycles.get() > 0);
        assert_eq!(r2.cycles.get(), 0);
        assert_eq!(r2.counts.loads, 0);
    }

    #[test]
    #[should_panic(expected = "sample rate must be at least 1")]
    fn zero_sample_rate_panics() {
        let _ = ModelExec::snowball().with_sample_rate(0);
    }

    #[test]
    #[should_panic(expected = "TLB page (16 B) smaller than an L1 line (32 B)")]
    fn tlb_page_smaller_than_a_line_panics() {
        let _ = ModelExec::new(
            CoreModel::cortex_a9_snowball(),
            HierarchyConfig::snowball_a9500(),
            TlbConfig::new(32, 16),
            40,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "page table page (32 B) smaller than an L1 line (64 B)")]
    fn with_page_table_smaller_than_a_line_panics() {
        let _ = ModelExec::nehalem().with_page_table(PageTable::new(32, vec![0, 1]));
    }

    #[test]
    #[should_panic(expected = "page table page (16 B) smaller than an L1 line (32 B)")]
    fn set_page_table_smaller_than_a_line_panics() {
        ModelExec::snowball().set_page_table(Some(PageTable::new(16, vec![3])));
    }

    /// Sweeps the first `array` bytes of a contiguous mapping `sweeps`
    /// times, one `mem_run` of 4-byte loads per sweep, and returns the
    /// finished report.
    fn sweep(array: u64, sweeps: u32) -> ExecReport {
        use mb_mem::pages::{PageAllocator, PagePolicy};
        let table =
            PageAllocator::new(PagePolicy::Contiguous, 4096, 1 << 18, 0).allocate(array as usize);
        let mut e = ModelExec::snowball().with_page_table(table);
        for _ in 0..sweeps {
            e.mem_run(0, 4, array / 4, 4, false);
        }
        e.finish()
    }

    fn bandwidth(array: u64, sweeps: u32) -> f64 {
        (array * sweeps as u64) as f64 / sweep(array, sweeps).time.as_secs_f64()
    }

    #[test]
    fn mem_run_small_array_hits_l1_after_warmup() {
        // An 8 KB array fits the 32 KB L1: the second sweep adds no
        // misses anywhere.
        let warm = sweep(8 * 1024, 1).counters;
        let both = sweep(8 * 1024, 2).counters;
        assert_eq!(both.get(Counter::L1DataAccesses), 2 * 2048);
        assert_eq!(
            both.get(Counter::L1DataMisses),
            warm.get(Counter::L1DataMisses)
        );
        assert_eq!(
            both.get(Counter::TlbDataMisses),
            warm.get(Counter::TlbDataMisses)
        );
    }

    #[test]
    fn mem_run_bandwidth_drops_past_l1_capacity() {
        // Figure 5a: bandwidth falls once the array outgrows the L1.
        let small = bandwidth(16 * 1024, 4);
        let large = bandwidth(256 * 1024, 4);
        assert!(
            small > large * 1.2,
            "L1-resident {small} B/s should beat L2-resident {large} B/s"
        );
    }

    #[test]
    fn mem_run_random_pages_cost_at_least_contiguous_near_l1_size() {
        use mb_mem::pages::{PageAllocator, PagePolicy};
        // Section V.A.1: near the 32 KB L1, random frames collide in
        // colour where contiguous ones do not.
        let size = 32 * 1024u64;
        let run = |policy: PagePolicy, seed: u64| {
            let table = PageAllocator::new(policy, 4096, 1 << 18, seed).allocate(size as usize);
            let mut e = ModelExec::snowball().with_page_table(table);
            for _ in 0..2 {
                e.mem_run(0, 4, size / 4, 4, false);
            }
            e.finish().cycles.get()
        };
        let contiguous = run(PagePolicy::Contiguous, 0);
        let random: u64 = (0..8).map(|s| run(PagePolicy::Random, s)).sum::<u64>() / 8;
        assert!(
            random >= contiguous,
            "random ({random}) should never beat contiguous ({contiguous})"
        );
    }

    #[test]
    fn mem_run_counts_one_access_per_element() {
        let mut e = ModelExec::nehalem();
        e.mem_run(0, 16, 4096 / 16, 4, false);
        e.mem_run(0x10_0000, 8, 10, 8, true);
        let r = e.finish();
        assert_eq!((r.counts.loads, r.counts.load_bytes), (256, 1024));
        assert_eq!((r.counts.stores, r.counts.store_bytes), (10, 80));
        assert_eq!(r.counters.get(Counter::L1DataAccesses), 266);
    }

    #[test]
    fn mem_run_counts_tlb_misses_per_page() {
        // One element per page over 64 pages overflows the 32-entry TLB
        // on every sweep.
        let mut e = ModelExec::snowball();
        for _ in 0..2 {
            e.mem_run(0, 4096, 64, 4, false);
        }
        assert_eq!(e.finish().counters.get(Counter::TlbDataMisses), 128);
    }
}
