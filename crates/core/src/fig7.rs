//! Figure 7 — auto-tuning the BigDFT magicfilter: cycles and cache
//! accesses versus unroll degree on Nehalem and Tegra2.
//!
//! The paper's tool generated the magicfilter with unroll degrees 1–12
//! and benchmarked each variant with PAPI counters. The curves are
//! "roughly convex"; the cache-access counter shows a staircase (at
//! unroll 9 on Nehalem, 5 on Tegra2); and the beneficial *sweet spot*
//! range is wider on Nehalem than on Tegra2, which is the paper's case
//! for systematic auto-tuning. Here every unroll variant of the real
//! magicfilter kernel is costed on both machine models — one slot per
//! `(machine, unroll)` pair, the exhaustive exploration the paper calls
//! for — and the fold over the slots applies the tuner's analysis:
//! minimum, sweet-spot range and staircases.

use crate::platform::Platform;
use crate::sweep::{self, Grid, Sweep};
use mb_cpu::counters::Counter;
use mb_cpu::exec_model::{Checkpoint, ModelExec};
use mb_cpu::ops::{Exec, Stream};
use mb_kernels::magicfilter::{apply_loop_groups, loop_bookkeeping, Grid3, MagicfilterWorkspace};
use mb_tuner::analysis::{staircase_steps, sweet_spot, SweetSpot};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Configuration of the Figure 7 experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7Config {
    /// Cubic grid edge for the filtered field.
    pub grid_edge: usize,
    /// Maximum unroll degree (the paper sweeps 1..=12).
    pub max_unroll: u32,
    /// Sweet-spot tolerance (multiple of the best cycles).
    pub tolerance: f64,
}

impl Fig7Config {
    /// Fast test configuration.
    pub fn quick() -> Self {
        Fig7Config {
            grid_edge: 12,
            max_unroll: 12,
            tolerance: 1.10,
        }
    }

    /// The bench binary's configuration.
    pub fn paper() -> Self {
        Fig7Config {
            grid_edge: 24,
            max_unroll: 12,
            tolerance: 1.10,
        }
    }
}

/// One measured variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig7Point {
    /// Unroll degree.
    pub unroll: u32,
    /// `PAPI_TOT_CYC`.
    pub cycles: u64,
    /// `PAPI_L1_DCA` — the paper's cache-access counter.
    pub cache_accesses: u64,
}

/// One machine's sweep plus its analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Panel {
    /// Machine name.
    pub machine: String,
    /// Points for unroll 1..=max.
    pub points: Vec<Fig7Point>,
    /// Sweet spot of the cycle curve.
    pub sweet: SweetSpot,
    /// Unroll degrees where the cache-access counter steps up ≥ 10 %.
    pub staircases: Vec<i64>,
}

/// The full Figure 7.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Report {
    /// Figure 7a: Nehalem.
    pub nehalem: Fig7Panel,
    /// Figure 7b: Tegra2.
    pub tegra2: Fig7Panel,
}

impl Fig7Report {
    /// The value stream the pinned Figure 7 digests fold: `[cycles,
    /// cache_accesses]` per point, Nehalem's points then Tegra2's.
    pub fn digest_stream(&self) -> Vec<f64> {
        [&self.nehalem, &self.tegra2]
            .into_iter()
            .flat_map(|p| {
                p.points
                    .iter()
                    .flat_map(|pt| [pt.cycles as f64, pt.cache_accesses as f64])
            })
            .collect()
    }
}

/// Slot labels of the sweep's machines, in slot order.
const MACHINES: [&str; 2] = ["nehalem", "tegra2"];

/// The platform of machine `machine` (an index into [`MACHINES`]).
fn platform(machine: usize) -> Platform {
    match machine {
        0 => Platform::xeon_x5550(),
        _ => Platform::tegra2_node(),
    }
}

/// Costs one unroll variant of the magicfilter on `exec` ("compiling for
/// the target"): the unroll degree feeds the MLP hint and, beyond the
/// target's register budget, spill traffic — the same conventions as
/// `mb_kernels::membench::run_model`. This is the slow oracle of
/// [`SlotMeasurer::measure`]: it streams the whole kernel through a
/// reset executor.
pub fn measure_variant(
    grid: &Grid3,
    unroll: u32,
    exec: &mut ModelExec,
    ws: &mut MagicfilterWorkspace,
) -> Fig7Point {
    exec.reset();
    ws.apply(grid, unroll, exec);
    finish_variant(grid, unroll, exec)
}

/// The part of a variant that follows the kernel: the unroll degree's
/// hints and register spills, then the counters.
fn finish_variant(grid: &Grid3, unroll: u32, exec: &mut ModelExec) -> Fig7Point {
    exec.set_mlp_hint(unroll);
    exec.set_prefetch_hint(0.8); // regular but transposing pattern
    let limit = exec.model().unroll_register_limit;
    spill(grid, unroll, limit, exec);
    let report = exec.finish();
    Fig7Point {
        unroll,
        cycles: report.counters.get(Counter::TotalCycles),
        cache_accesses: report.counters.get(Counter::L1DataAccesses),
    }
}

/// Stack slots the spilled accumulators cycle through.
const SPILL_SLOTS: usize = 16;

/// Reports the register spills of unroll degree `unroll` on a target of
/// `limit` registers. The unrolled accumulators beyond it spill inside the
/// 16-tap loop: one stack round trip (a store, then a reload) per excess
/// register per tap per group — 3 passes × (points / unroll) groups ×
/// 16 taps — register `s` going to stack slot `s % 16`. Every tap makes
/// the same round trips, so they are one lockstep run of stride-0
/// streams, a tap per iteration.
fn spill<E: Exec>(grid: &Grid3, unroll: u32, limit: u32, exec: &mut E) {
    let spills = unroll.saturating_sub(limit) as usize;
    if spills == 0 {
        return;
    }
    let taps = (3 * grid.len() as u64) / unroll as u64 * 16;
    let stack_base = (grid.len() as u64 * 8 + 8192) & !4095;
    let slots: [Stream; 2 * SPILL_SLOTS] = std::array::from_fn(|i| {
        let addr = stack_base + (i / 2) as u64 * 8;
        match i % 2 {
            0 => Stream::store(addr, 0, 8),
            _ => Stream::load(addr, 0, 8),
        }
    });
    // Past 16 excess registers a tap goes round every slot `laps` times
    // before the first `rest`.
    let (laps, rest) = (spills / SPILL_SLOTS, spills % SPILL_SLOTS);
    if laps == 0 {
        exec.lockstep_run(&slots[..2 * rest], &[], taps);
    } else {
        for _ in 0..taps {
            exec.lockstep_run(&slots, &[], laps as u64);
            exec.lockstep_run(&slots[..2 * rest], &[], 1);
        }
    }
}

/// Runs the Figure 7 experiment on both machines: [`sweep::run`] over a
/// [`SlotMeasurer`], so every slot is measured on the sweep worker pool
/// and folded by [`assemble`]. The workers share one measurer, which
/// streams each machine's prelude once.
pub fn run(cfg: &Fig7Config) -> Fig7Report {
    sweep::run::<SlotMeasurer>(cfg)
}

/// Folds one [`SlotMeasurer::measure`] payload per slot, in slot order,
/// into the report: each machine's points, then the auto-tuning analysis
/// of its curves (sweet spot of the cycles, staircases of the cache
/// accesses).
///
/// # Panics
///
/// Panics unless there is exactly one payload per slot.
pub fn assemble(cfg: &Fig7Config, payloads: &[[f64; 2]]) -> Fig7Report {
    assert_eq!(payloads.len(), slot_count(cfg), "one payload per slot");
    let (nehalem, tegra2) = payloads.split_at(cfg.max_unroll as usize);
    let panel = |platform: Platform, payloads: &[[f64; 2]]| {
        // Payload `i` is unroll `i + 1`; column 0 the cycles, 1 the accesses.
        let curve = |col: usize| -> Vec<(i64, f64)> {
            (1..).zip(payloads.iter().map(|p| p[col])).collect()
        };
        Fig7Panel {
            machine: platform.name,
            points: (1..)
                .zip(payloads)
                .map(|(unroll, &[cycles, cache_accesses])| Fig7Point {
                    unroll,
                    cycles: cycles as u64,
                    cache_accesses: cache_accesses as u64,
                })
                .collect(),
            sweet: sweet_spot(&curve(0), cfg.tolerance),
            staircases: staircase_steps(&curve(1), 0.10),
        }
    };
    Fig7Report {
        nehalem: panel(platform(0), nehalem),
        tegra2: panel(platform(1), tegra2),
    }
}

/// Number of campaign slots: one per `(machine, unroll)` variant,
/// Nehalem first (slots `0..max_unroll`), then Tegra2.
pub fn slot_count(cfg: &Fig7Config) -> usize {
    MACHINES.len() * cfg.max_unroll as usize
}

/// The machine index (into `MACHINES`) and unroll degree of `slot`.
fn slot_machine(cfg: &Fig7Config, slot: usize) -> (usize, u32) {
    let per_machine = cfg.max_unroll as usize;
    (slot / per_machine, (slot % per_machine) as u32 + 1)
}

/// Human-readable label of campaign slot `slot`, e.g. `"nehalem-u9"`.
fn slot_label(cfg: &Fig7Config, slot: usize) -> String {
    let (machine, unroll) = slot_machine(cfg, slot);
    format!("{}-u{unroll}", MACHINES[machine])
}

/// Measures campaign slot `slot` alone and returns
/// `[cycles, cache_accesses]` as f64 — the pair its point contributes
/// to the digest stream (slot order *is* digest order: Nehalem's points
/// then Tegra2's). A one-shot [`SlotMeasurer`]; sweeps share one.
pub fn measure_slot(cfg: &Fig7Config, slot: usize) -> [f64; 2] {
    SlotMeasurer::new(cfg).measure(slot)
}

/// The Figure 7 slot measurer. The variants of one machine stream the
/// same magicfilter accesses, FMAs and stores in the same order; only the
/// loop bookkeeping (integer sums), the hints and the spill traffic
/// after the kernel depend on the unroll degree. So the measurer costs a
/// machine's stream once — its *prelude* — checkpoints the executor, and
/// measures each variant by rolling the executor back in place, adding
/// the variant's bookkeeping and finishing it as [`measure_variant`]
/// does, bit for bit.
///
/// Each machine's prelude is streamed once, by the first of its slots,
/// and its checkpoint kept. One executor is live at a time, for the
/// machine measured last: a slot of the other machine drops it, then
/// streams that machine's prelude or, if it has been streamed already,
/// rolls a fresh executor back to its checkpoint. That keeps the
/// resident set to one machine's touched cache pages (plus the compact
/// checkpoints), and any slot order — the workers of a parallel sweep
/// take the lock in no fixed order — streams two preludes and gives the
/// same payloads.
pub struct SlotMeasurer {
    cfg: Fig7Config,
    grid: Grid3,
    state: Mutex<Machines>,
    preludes: AtomicUsize,
}

/// What a [`SlotMeasurer`] keeps between slots.
#[derive(Default)]
struct Machines {
    /// Per machine, the executor's state after its magicfilter stream,
    /// once streamed.
    checkpoints: [Option<Checkpoint>; MACHINES.len()],
    /// The live executor and the machine it models.
    live: Option<(usize, ModelExec)>,
}

impl SlotMeasurer {
    /// Builds the grid every variant filters; preludes are built on
    /// demand.
    pub fn new(cfg: &Fig7Config) -> SlotMeasurer {
        let e = cfg.grid_edge;
        SlotMeasurer {
            cfg: *cfg,
            grid: Grid3::random(e, e, e, 0xF167),
            state: Mutex::new(Machines::default()),
            preludes: AtomicUsize::new(0),
        }
    }

    /// Measures slot `slot`: `[cycles, cache_accesses]` of its variant.
    pub fn measure(&self, slot: usize) -> [f64; 2] {
        let (machine, unroll) = slot_machine(&self.cfg, slot);
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let Machines { checkpoints, live } = &mut *state;
        if live.as_ref().is_none_or(|(m, _)| *m != machine) {
            // Drop the other machine's executor before allocating this one.
            *live = None;
            let mut exec = platform(machine).exec(1);
            if checkpoints[machine].is_none() {
                self.preludes.fetch_add(1, Ordering::Relaxed);
                MagicfilterWorkspace::new().apply_stream(&self.grid, &mut exec);
                checkpoints[machine] = Some(exec.checkpoint());
            }
            *live = Some((machine, exec));
        }
        let (_, exec) = live.as_mut().expect("executor set up above");
        exec.rollback(
            checkpoints[machine]
                .as_ref()
                .expect("prelude streamed above"),
        );
        loop_bookkeeping(apply_loop_groups(&self.grid, unroll), exec);
        let point = finish_variant(&self.grid, unroll, exec);
        [point.cycles as f64, point.cache_accesses as f64]
    }

    /// Preludes streamed so far.
    #[cfg(test)]
    fn preludes(&self) -> usize {
        self.preludes.load(Ordering::Relaxed)
    }
}

/// One slot per `(machine, unroll)` variant, each payload its
/// `[cycles, cache_accesses]`.
impl Sweep for SlotMeasurer {
    type Config = Fig7Config;
    type Report = Fig7Report;
    const WIDTH: Option<usize> = Some(2);

    fn config(grid: Grid) -> Fig7Config {
        grid.pick(Fig7Config::quick(), Fig7Config::paper())
    }

    fn slot_count(cfg: &Fig7Config) -> usize {
        slot_count(cfg)
    }

    fn labels(cfg: &Fig7Config) -> Vec<String> {
        (0..slot_count(cfg))
            .map(|slot| slot_label(cfg, slot))
            .collect()
    }

    fn measurer(cfg: &Fig7Config) -> Self {
        SlotMeasurer::new(cfg)
    }

    fn payload(&self, slot: usize) -> Vec<f64> {
        self.measure(slot).to_vec()
    }

    fn report(&self, payloads: &[Vec<f64>]) -> Fig7Report {
        let payloads: Vec<[f64; 2]> = payloads.iter().map(|p| sweep::fixed(p)).collect();
        assemble(&self.cfg, &payloads)
    }

    fn digest_stream(report: &Fig7Report) -> Vec<f64> {
        report.digest_stream()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Fig7Report {
        run(&Fig7Config::quick())
    }

    #[test]
    fn unrolling_helps_then_hurts_on_tegra2() {
        let r = report();
        let t = &r.tegra2.points;
        let at = |u: u32| t.iter().find(|p| p.unroll == u).expect("point").cycles;
        assert!(at(2) < at(1), "some unrolling helps");
        assert!(
            at(12) > at(4),
            "unrolling too much degrades: {} vs {}",
            at(12),
            at(4)
        );
    }

    #[test]
    fn nehalem_tolerates_deeper_unrolling() {
        let r = report();
        // The sweet-spot range is wider on Nehalem ([4:12] vs [4:7] in
        // the paper).
        let wide = r.nehalem.sweet.range;
        let narrow = r.tegra2.sweet.range;
        assert!(
            wide.1 > narrow.1,
            "Nehalem sweet spot {wide:?} should extend past Tegra2's {narrow:?}"
        );
        assert!(
            r.nehalem.sweet.width() > r.tegra2.sweet.width(),
            "{wide:?} vs {narrow:?}"
        );
    }

    #[test]
    fn cache_access_staircase_at_register_limits() {
        let r = report();
        // Spills begin past each machine's register budget: unroll 9 on
        // Nehalem, 5 on Tegra2 (the paper's staircase positions).
        assert!(
            r.nehalem.staircases.contains(&9),
            "Nehalem staircases {:?}",
            r.nehalem.staircases
        );
        assert!(
            r.tegra2.staircases.contains(&5),
            "Tegra2 staircases {:?}",
            r.tegra2.staircases
        );
        // And the Tegra2 step comes earlier.
        assert!(r.tegra2.staircases[0] < r.nehalem.staircases[0]);
    }

    #[test]
    fn scales_differ_but_shapes_agree() {
        // "The shapes of the curves are somehow similar but differ
        // drastically in scale."
        let r = report();
        let n1 = r.nehalem.points[0].cycles as f64;
        let t1 = r.tegra2.points[0].cycles as f64;
        assert!(t1 > 2.0 * n1, "Tegra2 needs far more cycles: {t1} vs {n1}");
        // Same abstract work: identical load/store counts at unroll 1.
        assert_eq!(
            r.nehalem.points[0].cache_accesses,
            r.tegra2.points[0].cache_accesses
        );
    }

    #[test]
    fn deterministic() {
        assert_eq!(report(), report());
    }

    #[test]
    fn slot_decomposition_is_bit_identical_to_monolithic_run() {
        // One executor and workspace reused across a machine's whole
        // sweep (the serial tuning loop) must count the same cycles and
        // accesses as the measurer's slots.
        let cfg = Fig7Config::quick();
        let r = run(&cfg);
        let e = cfg.grid_edge;
        let grid = Grid3::random(e, e, e, 0xF167);
        for (platform, panel) in [
            (Platform::xeon_x5550(), &r.nehalem),
            (Platform::tegra2_node(), &r.tegra2),
        ] {
            let mut exec = platform.exec(1);
            let mut ws = MagicfilterWorkspace::new();
            for point in &panel.points {
                let serial = measure_variant(&grid, point.unroll, &mut exec, &mut ws);
                assert_eq!(
                    &serial, point,
                    "{} diverged from the serial sweep",
                    panel.machine
                );
            }
        }
        assert_eq!(slot_label(&cfg, 8), "nehalem-u9");
        assert_eq!(slot_label(&cfg, 16), "tegra2-u5");
    }

    #[test]
    fn rolled_back_variants_match_the_oracle_in_any_order() {
        // Every quick-grid slot, measured in slot order, in reverse and
        // with the machines interleaved, against `measure_variant` on a
        // fresh executor. The paper grid is covered by its pin.
        let cfg = Fig7Config::quick();
        let e = cfg.grid_edge;
        let grid = Grid3::random(e, e, e, 0xF167);
        let oracle: Vec<[f64; 2]> = (0..slot_count(&cfg))
            .map(|slot| {
                let (machine, unroll) = slot_machine(&cfg, slot);
                let mut exec = platform(machine).exec(1);
                let p = measure_variant(&grid, unroll, &mut exec, &mut MagicfilterWorkspace::new());
                [p.cycles as f64, p.cache_accesses as f64]
            })
            .collect();
        let n = slot_count(&cfg);
        let per = cfg.max_unroll as usize;
        let in_order: Vec<usize> = (0..n).collect();
        let reversed: Vec<usize> = (0..n).rev().collect();
        let interleaved: Vec<usize> = (0..per).flat_map(|u| [u, per + u]).collect();
        for (name, order) in [
            ("slot order", in_order),
            ("reversed", reversed),
            ("interleaved", interleaved),
        ] {
            let measurer = SlotMeasurer::new(&cfg);
            for &slot in &order {
                let got = measurer.measure(slot);
                assert_eq!(
                    got.map(f64::to_bits),
                    oracle[slot].map(f64::to_bits),
                    "{name}: slot {} diverged from the oracle",
                    slot_label(&cfg, slot)
                );
            }
            assert_eq!(
                measurer.preludes(),
                MACHINES.len(),
                "{name}: preludes streamed"
            );
        }
    }

    #[test]
    fn spill_runs_match_the_per_access_round_trips() {
        // The per-access round trips are the oracle, past 16 spilled
        // registers too, where a tap goes round the stack slots again.
        let grid = Grid3::random(6, 6, 6, 1);
        let limit = 4;
        for unroll in [5, 12, 20, 21, 44] {
            let mut batched = Platform::tegra2_node().exec(1);
            let mut single = batched.clone();
            spill(&grid, unroll, limit, &mut batched);
            let taps = (3 * grid.len() as u64) / unroll as u64 * 16;
            let stack_base = (grid.len() as u64 * 8 + 8192) & !4095;
            for _ in 0..taps {
                for s in 0..(unroll - limit) as u64 {
                    let addr = stack_base + (s % 16) * 8;
                    single.store(addr, 8);
                    single.load(addr, 8);
                }
            }
            assert!(
                batched.checkpoint() == single.checkpoint(),
                "unroll {unroll}"
            );
            assert_eq!(batched.finish(), single.finish(), "unroll {unroll}");
        }
    }

    #[test]
    fn run_builds_one_prelude_per_machine_at_any_thread_count() {
        let cfg = Fig7Config::quick();
        for threads in [1, 4] {
            let measurer = SlotMeasurer::new(&cfg);
            let tasks = SlotMeasurer::labels(&cfg).into_iter().zip(0..).collect();
            let payloads = mb_simcore::par::with_threads(threads, || {
                mb_simcore::par::sweep(tasks, |slot| measurer.measure(slot))
            });
            assert_eq!(payloads.len(), slot_count(&cfg));
            assert_eq!(measurer.preludes(), MACHINES.len(), "{threads} threads");
        }
    }
}
