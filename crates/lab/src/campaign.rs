//! The campaign registry: every sweep `mb-lab` can drive.
//!
//! A [`Campaign`] is a sweep decomposed into *slots* — independent
//! measurements, each a pure function of `(campaign config, slot
//! index, slot seed)` — plus a finalizer that folds the per-slot
//! payloads into the canonical value stream the figure's pinned digest
//! folds. Each figure module has one measurement path: its slot
//! measurer (`fig3::measure_scaling_slot`, `fig5::SlotMeasurer`, …),
//! an `assemble` that folds slot payloads into the figure's report,
//! and the report's `digest_stream`. The figure's own `run()` is that
//! fold over an in-process sweep; a finalizer here is the same fold
//! over journaled payloads, so the registry only routes slots and
//! streams and does no arithmetic of its own.
//!
//! Every figure campaign comes in two grids: the `-quick` test
//! configuration and the `-paper` grid behind the paper's headline
//! artifacts (Fig 3 strong scaling, Fig 5's 2 100-measurement RT
//! sweep, Fig 7, Table II). The paper campaigns are the long-running
//! sharded workload the driver was built for; `EXPERIMENTS.md` has the
//! runbook.
//!
//! The pinned digests repeated here mirror the constants in
//! `crates/core/tests/common/digest.rs`; `campaign_digests.rs` asserts
//! the two sets stay equal.

use mb_faults::FaultConfig;
use mb_simcore::par::TaskCtx;
use montblanc::{fig3, fig5, fig7, table2, top500};
use std::sync::OnceLock;

/// Pinned digest of the `fig3-quick` campaign (mirrors
/// `FIG3_QUICK_DIGEST` in the core test fixtures).
pub const FIG3_QUICK_DIGEST: u64 = 0xd0d5_f716_d0b3_0356;
/// Pinned digest of the `fig3-faulted-quick` campaign.
pub const FIG3_FAULTED_QUICK_DIGEST: u64 = 0x8ce8_a81a_59cb_2163;
/// Pinned digest of the `fig5-quick` campaign.
pub const FIG5_QUICK_DIGEST: u64 = 0x206e_118a_c499_7a4c;
/// Pinned digest of the `fig7-quick` campaign.
pub const FIG7_QUICK_DIGEST: u64 = 0xa5a1_d292_2006_e451;
/// Pinned digest of the `table2-quick` campaign.
pub const TABLE2_QUICK_DIGEST: u64 = 0xe2a5_d2bf_61fb_fbcf;
/// Pinned digest of the `fig3-paper` campaign (mirrors
/// `FIG3_PAPER_DIGEST` in the core test fixtures).
pub const FIG3_PAPER_DIGEST: u64 = 0x622e_3c14_cb8e_59b9;
/// Pinned digest of the `fig3-faulted-paper` campaign.
pub const FIG3_FAULTED_PAPER_DIGEST: u64 = 0x7c65_dc30_f714_ac45;
/// Pinned digest of the `fig5-paper` campaign.
pub const FIG5_PAPER_DIGEST: u64 = 0xc49f_00d6_ca0a_c4ad;
/// Pinned digest of the `fig7-paper` campaign.
pub const FIG7_PAPER_DIGEST: u64 = 0x9080_737c_78a9_66c3;
/// Pinned digest of the `table2-paper` campaign.
pub const TABLE2_PAPER_DIGEST: u64 = 0x8bd9_f1e8_0879_d505;
/// Pinned digest of the `top500-trends` campaign (pinned here first —
/// the trend fits had no digest guard before `mb-lab`).
pub const TOP500_TRENDS_DIGEST: u64 = 0xe0c5_c859_2a9b_23ef;

/// Folds a value stream into the workspace's order-sensitive 64-bit
/// digest — the same fold the core test fixtures pin.
pub fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    values
        .into_iter()
        .fold(0u64, |h, v| h.rotate_left(7) ^ v.to_bits())
}

/// Which configuration grid a figure campaign drives: the fast test
/// grid or the full grid behind the paper's plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// The `Config::quick()` test grid.
    Quick,
    /// The `Config::paper()` full grid.
    Paper,
}

/// Seed salt distinguishing a paper campaign's journal family from its
/// quick sibling — a paper shard can never resume into a quick journal.
const PAPER_SEED_SALT: u64 = 0x9A9E12;

impl Grid {
    /// The one grid switch: `quick` on the quick grid, `paper` on the
    /// paper grid.
    fn pick<T>(self, quick: T, paper: T) -> T {
        match self {
            Grid::Quick => quick,
            Grid::Paper => paper,
        }
    }

    fn seed(self, base: u64) -> u64 {
        self.pick(base, base ^ PAPER_SEED_SALT)
    }
}

/// A sweep the driver can run slot by slot, persist, shard and resume.
pub trait Campaign: Sync {
    /// Registry name (the CLI's campaign argument).
    fn name(&self) -> &'static str;

    /// One-line description for `mb-lab list`.
    fn description(&self) -> &'static str;

    /// Experiment seed; slot seeds derive from it via
    /// [`mb_simcore::par::slot_bindings`].
    fn seed(&self) -> u64;

    /// Labels of every slot, in canonical slot order. The length is the
    /// campaign's task count.
    fn task_labels(&self) -> Vec<String>;

    /// Measures one slot. Must be a pure function of the campaign
    /// config and `ctx` so any shard or resumed process reproduces it
    /// bit for bit.
    fn run_slot(&self, ctx: TaskCtx) -> Vec<f64>;

    /// Reassembles completed slot payloads (in slot order) into the
    /// canonical value stream whose digest identifies the campaign.
    fn finalize(&self, slots: &[Vec<f64>]) -> Vec<f64>;

    /// The pinned digest of [`Campaign::finalize`]'s stream, when this
    /// campaign has one.
    fn pinned_digest(&self) -> Option<u64>;

    /// Width every slot payload must have, when the campaign's payloads
    /// are fixed-width. The driver rejects journal records of any other
    /// width before they can reach [`Campaign::finalize`] — a short
    /// payload must surface as a journal error, never a slice panic.
    fn payload_width(&self) -> Option<usize> {
        None
    }
}

/// Fixed-width slot payloads as arrays. The driver rejects a record of
/// any other width before it reaches a finalizer
/// ([`Campaign::payload_width`]).
fn arrays<const N: usize>(slots: &[Vec<f64>]) -> Vec<[f64; N]> {
    slots
        .iter()
        .map(|p| <[f64; N]>::try_from(p.as_slice()).expect("payload width checked by the driver"))
        .collect()
}

/// Figure 3 strong scaling: one slot per `(panel, core count)` point.
struct Fig3Scaling {
    grid: Grid,
}

impl Fig3Scaling {
    fn config(&self) -> fig3::Fig3Config {
        self.grid
            .pick(fig3::Fig3Config::quick(), fig3::Fig3Config::paper())
    }
}

impl Campaign for Fig3Scaling {
    fn name(&self) -> &'static str {
        self.grid.pick("fig3-quick", "fig3-paper")
    }

    fn description(&self) -> &'static str {
        self.grid.pick(
            "Figure 3 strong scaling (LINPACK/SPECFEM3D/BigDFT on Tibidabo), quick grid",
            "Figure 3 strong scaling (LINPACK/SPECFEM3D/BigDFT on Tibidabo), full paper grid",
        )
    }

    fn seed(&self) -> u64 {
        self.grid.seed(0x5CA1E)
    }

    fn task_labels(&self) -> Vec<String> {
        let cfg = self.config();
        fig3::scaling_slots(&cfg)
            .into_iter()
            .map(|(panel, cores)| fig3::slot_label(panel, cores))
            .collect()
    }

    fn run_slot(&self, ctx: TaskCtx) -> Vec<f64> {
        let cfg = self.config();
        let (panel, cores) = fig3::scaling_slots(&cfg)[ctx.index];
        let rate = fig3::tegra2_effective_gflops();
        vec![fig3::measure_scaling_slot(&cfg, panel, cores, rate)]
    }

    fn finalize(&self, slots: &[Vec<f64>]) -> Vec<f64> {
        fig3::assemble(&self.config(), &slots.concat()).digest_stream()
    }

    fn pinned_digest(&self) -> Option<u64> {
        Some(self.grid.pick(FIG3_QUICK_DIGEST, FIG3_PAPER_DIGEST))
    }

    fn payload_width(&self) -> Option<usize> {
        Some(1)
    }
}

/// Figure 3 under `FaultConfig::light`, with resilience counters.
struct Fig3Faulted {
    grid: Grid,
}

impl Fig3Faulted {
    fn config(&self) -> fig3::Fig3Config {
        Fig3Scaling { grid: self.grid }.config()
    }
}

impl Campaign for Fig3Faulted {
    fn name(&self) -> &'static str {
        self.grid.pick("fig3-faulted-quick", "fig3-faulted-paper")
    }

    fn description(&self) -> &'static str {
        self.grid.pick(
            "Figure 3 scaling under light injected faults, with resilience counters",
            "Figure 3 full paper grid under light injected faults, with resilience counters",
        )
    }

    fn seed(&self) -> u64 {
        self.grid.seed(0x5CA1E ^ 0xFA017)
    }

    fn task_labels(&self) -> Vec<String> {
        Fig3Scaling { grid: self.grid }.task_labels()
    }

    fn run_slot(&self, ctx: TaskCtx) -> Vec<f64> {
        let cfg = self.config();
        let (panel, cores) = fig3::scaling_slots(&cfg)[ctx.index];
        let rate = fig3::tegra2_effective_gflops();
        fig3::measure_faulted_slot(&cfg, FaultConfig::light(), panel, cores, rate).to_vec()
    }

    fn finalize(&self, slots: &[Vec<f64>]) -> Vec<f64> {
        let payloads = arrays::<6>(slots).into_iter().map(Ok).collect();
        fig3::assemble_faulted(&self.config(), payloads).digest_stream()
    }

    fn pinned_digest(&self) -> Option<u64> {
        Some(
            self.grid
                .pick(FIG3_FAULTED_QUICK_DIGEST, FIG3_FAULTED_PAPER_DIGEST),
        )
    }

    fn payload_width(&self) -> Option<usize> {
        Some(6)
    }
}

/// Figure 5 RT-anomaly bandwidth sweep: one slot per measurement in
/// sequence order. The serial prelude (randomised plan, anomaly window,
/// order-dependent page allocations) is built once per process and
/// shared across slots — the paper grid has 2 100 of them, and a
/// per-slot prelude would make the campaign quadratic in the grid.
/// Sharing it also shares its measurement classes: the 2 100 slots are
/// 50 `(array size, page table)` classes, each costed by the first of
/// its slots this process runs, so a shard or a resumed run reproduces
/// every slot's bits whichever slot comes first.
struct Fig5Anomaly {
    grid: Grid,
    measurer: OnceLock<fig5::SlotMeasurer>,
}

impl Fig5Anomaly {
    fn new(grid: Grid) -> Self {
        Fig5Anomaly {
            grid,
            measurer: OnceLock::new(),
        }
    }

    fn config(&self) -> fig5::Fig5Config {
        self.grid
            .pick(fig5::Fig5Config::quick(), fig5::Fig5Config::paper())
    }

    fn measurer(&self) -> &fig5::SlotMeasurer {
        self.measurer
            .get_or_init(|| fig5::SlotMeasurer::new(&self.config()))
    }
}

impl Campaign for Fig5Anomaly {
    fn name(&self) -> &'static str {
        self.grid.pick("fig5-quick", "fig5-paper")
    }

    fn description(&self) -> &'static str {
        self.grid.pick(
            "Figure 5 Snowball bandwidth under the RT scheduling anomaly, quick grid",
            "Figure 5 Snowball bandwidth under the RT anomaly, paper grid (50 sizes x 42 reps)",
        )
    }

    fn seed(&self) -> u64 {
        self.grid.seed(0xF165)
    }

    fn task_labels(&self) -> Vec<String> {
        fig5::slot_labels(&self.config())
    }

    fn run_slot(&self, ctx: TaskCtx) -> Vec<f64> {
        vec![self.measurer().measure(ctx.index)]
    }

    fn finalize(&self, slots: &[Vec<f64>]) -> Vec<f64> {
        self.measurer().assemble(&slots.concat()).digest_stream()
    }

    fn pinned_digest(&self) -> Option<u64> {
        Some(self.grid.pick(FIG5_QUICK_DIGEST, FIG5_PAPER_DIGEST))
    }

    fn payload_width(&self) -> Option<usize> {
        Some(1)
    }
}

/// Figure 7 magicfilter auto-tuning: one slot per `(machine, unroll)`
/// variant. One measurer per process costs each machine's magicfilter
/// stream once and rolls every variant back from its checkpoint.
struct Fig7Tuning {
    grid: Grid,
    measurer: OnceLock<fig7::SlotMeasurer>,
}

impl Fig7Tuning {
    fn new(grid: Grid) -> Self {
        Fig7Tuning {
            grid,
            measurer: OnceLock::new(),
        }
    }

    fn config(&self) -> fig7::Fig7Config {
        self.grid
            .pick(fig7::Fig7Config::quick(), fig7::Fig7Config::paper())
    }

    fn measurer(&self) -> &fig7::SlotMeasurer {
        self.measurer
            .get_or_init(|| fig7::SlotMeasurer::new(&self.config()))
    }
}

impl Campaign for Fig7Tuning {
    fn name(&self) -> &'static str {
        self.grid.pick("fig7-quick", "fig7-paper")
    }

    fn description(&self) -> &'static str {
        self.grid.pick(
            "Figure 7 magicfilter unroll sweep on Nehalem and Tegra2, quick grid",
            "Figure 7 magicfilter unroll sweep on Nehalem and Tegra2, paper grid",
        )
    }

    fn seed(&self) -> u64 {
        self.grid.seed(0xF167)
    }

    fn task_labels(&self) -> Vec<String> {
        let cfg = self.config();
        (0..fig7::slot_count(&cfg))
            .map(|slot| fig7::slot_label(&cfg, slot))
            .collect()
    }

    fn run_slot(&self, ctx: TaskCtx) -> Vec<f64> {
        self.measurer().measure(ctx.index).to_vec()
    }

    fn finalize(&self, slots: &[Vec<f64>]) -> Vec<f64> {
        fig7::assemble(&self.config(), &arrays::<2>(slots)).digest_stream()
    }

    fn pinned_digest(&self) -> Option<u64> {
        Some(self.grid.pick(FIG7_QUICK_DIGEST, FIG7_PAPER_DIGEST))
    }

    fn payload_width(&self) -> Option<usize> {
        Some(2)
    }
}

/// Extended Table II: one slot per `(row, machine)` cell. One measurer
/// per process runs each row's kernel once for both machines, by the
/// first of its two cells this process runs, so a shard that owns one
/// machine's cells still reproduces their bits.
struct Table2Extended {
    grid: Grid,
    measurer: OnceLock<table2::SlotMeasurer>,
}

impl Table2Extended {
    fn new(grid: Grid) -> Self {
        Table2Extended {
            grid,
            measurer: OnceLock::new(),
        }
    }

    fn config(&self) -> table2::Table2Config {
        self.grid
            .pick(table2::Table2Config::quick(), table2::Table2Config::paper())
    }

    fn measurer(&self) -> &table2::SlotMeasurer {
        self.measurer
            .get_or_init(|| table2::SlotMeasurer::new(&self.config()))
    }
}

impl Campaign for Table2Extended {
    fn name(&self) -> &'static str {
        self.grid.pick("table2-quick", "table2-paper")
    }

    fn description(&self) -> &'static str {
        self.grid.pick(
            "Extended Table II single-node comparison (Snowball vs Xeon), quick config",
            "Extended Table II single-node comparison (Snowball vs Xeon), paper config",
        )
    }

    fn seed(&self) -> u64 {
        self.grid.seed(0x7AB1E2)
    }

    fn task_labels(&self) -> Vec<String> {
        (0..table2::extended_cell_count())
            .map(table2::cell_label)
            .collect()
    }

    fn run_slot(&self, ctx: TaskCtx) -> Vec<f64> {
        vec![self.measurer().measure(ctx.index)]
    }

    fn finalize(&self, slots: &[Vec<f64>]) -> Vec<f64> {
        table2::assemble(&self.config(), &slots.concat()).digest_stream()
    }

    fn pinned_digest(&self) -> Option<u64> {
        Some(self.grid.pick(TABLE2_QUICK_DIGEST, TABLE2_PAPER_DIGEST))
    }

    fn payload_width(&self) -> Option<usize> {
        Some(1)
    }
}

/// Figure 1 TOP500 trend fits: one slot per series.
struct Top500Trends;

impl Campaign for Top500Trends {
    fn name(&self) -> &'static str {
        "top500-trends"
    }

    fn description(&self) -> &'static str {
        "Figure 1 TOP500 log-linear trend fits and exaflop projections"
    }

    fn seed(&self) -> u64 {
        0x70500
    }

    fn task_labels(&self) -> Vec<String> {
        top500::all_series()
            .iter()
            .map(|&s| top500::series_label(s).to_string())
            .collect()
    }

    fn run_slot(&self, ctx: TaskCtx) -> Vec<f64> {
        top500::measure_series(top500::all_series()[ctx.index])
    }

    fn finalize(&self, slots: &[Vec<f64>]) -> Vec<f64> {
        slots.iter().flat_map(|p| p.iter().copied()).collect()
    }

    fn pinned_digest(&self) -> Option<u64> {
        Some(TOP500_TRENDS_DIGEST)
    }
}

/// A cheap synthetic campaign for exercising the driver itself: each
/// slot expands its SplitMix64-derived seed into three floats. Costs
/// microseconds per slot, so kill/resume and shard proptests can churn
/// through hundreds of runs.
pub struct Selftest;

/// Task count of the [`Selftest`] campaign.
pub const SELFTEST_TASKS: usize = 16;

impl Campaign for Selftest {
    fn name(&self) -> &'static str {
        // Deliberately unpinned: selftest payloads are seed-derived
        // sentinels, not figure data.
        "selftest" // mb-check: allow(digest-pin)
    }

    fn description(&self) -> &'static str {
        "Synthetic driver-validation campaign (seed-derived payloads, instant slots)"
    }

    fn seed(&self) -> u64 {
        0x5E1F
    }

    fn task_labels(&self) -> Vec<String> {
        (0..SELFTEST_TASKS).map(|i| format!("slot{i}")).collect()
    }

    fn run_slot(&self, ctx: TaskCtx) -> Vec<f64> {
        // Deterministic poison hook for the quarantine machinery: when
        // MB_SELFTEST_POISON names this slot, the slot panics on every
        // attempt — the "crashes its worker K times in a row" case the
        // supervisor must fence off instead of retrying forever. The
        // contained sweep turns the panic into TaskFailed, the driver
        // into exit code 4.
        if let Ok(poison) = std::env::var("MB_SELFTEST_POISON") {
            if poison
                .split(',')
                .any(|p| p.trim().parse::<usize>() == Ok(ctx.index))
            {
                panic!("poisoned slot {} (MB_SELFTEST_POISON)", ctx.index);
            }
        }
        // Three deterministic, finite values per slot: mantissa-spread
        // fractions of the slot seed and its index mix.
        let frac = |x: u64| (x >> 11) as f64 / (1u64 << 53) as f64;
        let mixed = ctx.seed ^ (ctx.index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        vec![frac(ctx.seed), frac(mixed), ctx.index as f64 + 0.5]
    }

    fn finalize(&self, slots: &[Vec<f64>]) -> Vec<f64> {
        slots.iter().flat_map(|p| p.iter().copied()).collect()
    }

    fn pinned_digest(&self) -> Option<u64> {
        None
    }

    fn payload_width(&self) -> Option<usize> {
        Some(3)
    }
}

/// Every registered campaign, in listing order: quick grids, the five
/// paper grids, then the unparameterised campaigns.
pub fn registry() -> Vec<Box<dyn Campaign>> {
    vec![
        Box::new(Fig3Scaling { grid: Grid::Quick }),
        Box::new(Fig3Faulted { grid: Grid::Quick }),
        Box::new(Fig5Anomaly::new(Grid::Quick)),
        Box::new(Fig7Tuning::new(Grid::Quick)),
        Box::new(Table2Extended::new(Grid::Quick)),
        Box::new(Fig3Scaling { grid: Grid::Paper }),
        Box::new(Fig3Faulted { grid: Grid::Paper }),
        Box::new(Fig5Anomaly::new(Grid::Paper)),
        Box::new(Fig7Tuning::new(Grid::Paper)),
        Box::new(Table2Extended::new(Grid::Paper)),
        Box::new(Top500Trends),
        Box::new(Selftest),
    ]
}

/// Looks a campaign up by name.
pub fn find(name: &str) -> Option<Box<dyn Campaign>> {
    registry().into_iter().find(|c| c.name() == name)
}
