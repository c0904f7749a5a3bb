//! Table II — single-node comparison of the Snowball and the Xeon X5550.
//!
//! The paper runs LINPACK, CoreMark, StockFish, SPECFEM3D and BigDFT on
//! both machines (2 Snowball cores vs 4 Xeon cores, hyper-threading off)
//! and reports a performance ratio plus an energy ratio assuming 2.5 W vs
//! 95 W (§III.C). Here the same five workloads — the real Rust kernels of
//! `mb-kernels` — are costed on both machine models.
//!
//! Multi-core scaling uses a fixed 95 % parallel efficiency for every
//! benchmark on both machines (the paper's instances are all
//! embarrassingly parallel at node scale).
//!
//! A kernel reports the same operation stream whichever machine costs
//! it, so each row runs its kernel once, tee'd into both machines'
//! executors: a five-row table is five kernel runs, each costed on two
//! machine models. [`SlotMeasurer`] makes each row one campaign slot,
//! its payload the row's `[snowball, xeon]` pair.

use crate::platform::Platform;
use crate::sweep::{self, Grid, Sweep};
use mb_cpu::exec_model::ModelExec;
use mb_cpu::ops::TeeExec;
use mb_energy::energy_ratio;
use mb_kernels::chess;
use mb_kernels::coremark::CoreMark;
use mb_kernels::linpack::Linpack;
use mb_kernels::magicfilter::{Grid3, MagicfilterWorkspace};
use mb_kernels::specfem::{Specfem, SpecfemConfig};

/// Parallel efficiency assumed when scaling single-core model times to
/// the node's core count.
const NODE_PARALLEL_EFFICIENCY: f64 = 0.95;

/// Configuration of the Table II experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table2Config {
    /// LINPACK matrix order.
    pub linpack_n: usize,
    /// CoreMark iterations.
    pub coremark_iterations: u32,
    /// Chess search depth for the StockFish-style bench.
    pub chess_depth: u32,
    /// SPECFEM time steps.
    pub specfem_steps: u32,
    /// Magicfilter grid edge (cubic grid).
    pub magicfilter_edge: usize,
    /// Magicfilter applications per run (BigDFT applies it per SCF
    /// iteration).
    pub magicfilter_iterations: u32,
    /// Cache-simulation window-sampling rate (1 = exact).
    pub sample_rate: u32,
}

impl Table2Config {
    /// A fast configuration for tests (runs in roughly a second).
    pub fn quick() -> Self {
        Table2Config {
            linpack_n: 96,
            coremark_iterations: 6,
            chess_depth: 3,
            specfem_steps: 60,
            magicfilter_edge: 16,
            magicfilter_iterations: 2,
            sample_rate: 2,
        }
    }

    /// The full configuration used by the `table2_single_node` bench
    /// binary.
    pub fn paper() -> Self {
        Table2Config {
            linpack_n: 256,
            coremark_iterations: 30,
            chess_depth: 4,
            specfem_steps: 400,
            // Per-process portion of the decomposed grid: small enough
            // that both platforms work mostly in-cache, as BigDFT's
            // blocked convolutions do.
            magicfilter_edge: 20,
            magicfilter_iterations: 4,
            sample_rate: 4,
        }
    }
}

/// One row of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Metric value on the Snowball (node total).
    pub snowball: f64,
    /// Metric value on the Xeon (node total).
    pub xeon: f64,
    /// Metric unit.
    pub unit: String,
    /// Whether larger metric values are better (rates) or worse (times).
    pub higher_is_better: bool,
    /// Performance ratio, Xeon-favouring (the paper's *Ratio* column).
    pub ratio: f64,
    /// Energy ratio (Snowball energy / Xeon energy; the paper's *Energy
    /// Ratio* column — below 1 means the ARM platform is cheaper).
    pub energy_ratio: f64,
}

/// The full Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Report {
    /// Rows in the paper's order.
    pub rows: Vec<Table2Row>,
    /// The configuration used.
    pub config: Table2Config,
}

impl Table2Report {
    /// The value stream the pinned Table II digests fold: `[snowball,
    /// xeon, ratio, energy_ratio]` per row.
    pub fn digest_stream(&self) -> Vec<f64> {
        self.rows
            .iter()
            .flat_map(|row| [row.snowball, row.xeon, row.ratio, row.energy_ratio])
            .collect()
    }

    /// The row for a given benchmark name.
    pub fn row(&self, benchmark: &str) -> Option<&Table2Row> {
        self.rows.iter().find(|r| r.benchmark == benchmark)
    }

    /// Renders the table as fixed-width text in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<22} {:>14} {:>14} {:>8} {:>13}\n",
            "Benchmark", "Snowball", "Xeon", "Ratio", "Energy Ratio"
        ));
        out.push_str(&"-".repeat(76));
        out.push('\n');
        fn sig(v: f64) -> String {
            if v >= 100.0 {
                format!("{v:.1}")
            } else if v >= 1.0 {
                format!("{v:.2}")
            } else if v >= 0.001 {
                format!("{v:.4}")
            } else {
                format!("{v:.3e}")
            }
        }
        for r in &self.rows {
            out.push_str(&format!(
                "{:<22} {:>14} {:>14} {:>8.1} {:>13.2}\n",
                format!("{} ({})", r.benchmark, r.unit),
                sig(r.snowball),
                sig(r.xeon),
                r.ratio,
                r.energy_ratio
            ));
        }
        out
    }
}

/// Seconds of a modelled single-core run scaled to the whole node.
fn node_seconds(exec: &mut ModelExec, platform: &Platform) -> f64 {
    let report = exec.finish();
    report.time.as_secs_f64() / (platform.cores as f64 * NODE_PARALLEL_EFFICIENCY)
}

/// Prefetch predictability assumed for the streaming numeric kernels
/// (LINPACK's daxpy rows, SPECFEM's element sweeps, the magicfilter's
/// row-sequential taps); the branchy integer codes get none.
const STREAMING_PREFETCH: f64 = 0.8;

/// The sink a row's kernel reports to: both machines' executors at once.
type Both<'a> = TeeExec<'a, ModelExec, ModelExec>;

/// Runs the blocked LU and returns LINPACK's nominal flop count.
fn run_hpl_blocked(cfg: &Table2Config, exec: &mut Both) -> f64 {
    use mb_kernels::linpack_blocked::BlockedLu;
    let nb = (cfg.linpack_n / 8).max(8);
    let mut lu = BlockedLu::new(cfg.linpack_n, nb, 42);
    lu.factorize(exec);
    let _x = lu.solve(exec);
    Linpack::nominal_flops(cfg.linpack_n) as f64
}

/// Runs CoreMark and returns its operation count.
fn run_coremark(cfg: &Table2Config, exec: &mut Both) -> f64 {
    let cm = CoreMark {
        iterations: cfg.coremark_iterations,
        ..CoreMark::table2()
    };
    let _crc = cm.run(exec);
    cm.operations() as f64
}

/// Runs the chess bench and returns the nodes it searched.
fn run_stockfish(cfg: &Table2Config, exec: &mut Both) -> f64 {
    chess::bench(cfg.chess_depth, exec) as f64
}

/// Runs the SPECFEM time steps and returns their count.
fn run_specfem(cfg: &Table2Config, exec: &mut Both) -> f64 {
    let mut sim = Specfem::new(SpecfemConfig::table2());
    sim.run(cfg.specfem_steps, exec);
    cfg.specfem_steps as f64
}

/// Runs the iterated magicfilter and returns its iteration count.
fn run_bigdft(cfg: &Table2Config, exec: &mut Both) -> f64 {
    let e = cfg.magicfilter_edge;
    let mut current = Grid3::random(e, e, e, 7);
    // Ping-pong the grid against one reusable workspace: the iterated
    // filter allocates nothing after the first pass.
    let mut ws = MagicfilterWorkspace::new();
    for _ in 0..cfg.magicfilter_iterations {
        ws.apply(&current, 4, exec);
        ws.swap_output(&mut current.data);
    }
    cfg.magicfilter_iterations as f64
}

/// Runs the protein Monte-Carlo anneal and returns its sweep count.
fn run_protein(cfg: &Table2Config, exec: &mut Both) -> f64 {
    use mb_kernels::protein::{HpModel, UNGER_MOULT_20};
    let mut model = HpModel::new(UNGER_MOULT_20, 0x5331);
    let sweeps = 40 * cfg.coremark_iterations; // scale with the quick/paper knob
    model.anneal(sweeps, 2.0, 0.995, exec);
    sweeps as f64
}

/// Runs unblocked dgefa and returns LINPACK's nominal flop count.
fn run_linpack(cfg: &Table2Config, exec: &mut Both) -> f64 {
    let mut lp = Linpack::new(cfg.linpack_n, 42);
    lp.factorize(exec);
    let _x = lp.solve(exec);
    Linpack::nominal_flops(cfg.linpack_n) as f64
}

/// How a row turns a kernel run into its metric.
#[derive(Clone, Copy)]
enum Metric {
    /// A rate, larger is better: `work / seconds / per` (`per` is 1e6
    /// for MFLOPS, else 1).
    Rate { per: f64 },
    /// The node seconds, smaller is better.
    Seconds,
}

/// One row's recipe: name, unit, metric, whether the kernel streams
/// (costed with MLP 4 and prefetch 0.8; the branchy integer codes get
/// neither hint) and the kernel, which returns the work count a rate
/// divides.
type Row = (
    &'static str,
    &'static str,
    Metric,
    bool,
    fn(&Table2Config, &mut Both) -> f64,
);

const MFLOPS: Metric = Metric::Rate { per: 1e6 };
const PER_SECOND: Metric = Metric::Rate { per: 1.0 };

/// Table II's rows: the paper's five in its order, then the two
/// extension rows (see [`PAPER_ROWS`]). The LINPACK row runs the
/// blocked HPL-style LU on both machines, as the paper did: "optimized
/// for Intel architecture while the code remains unchanged [...] on the
/// ARM platform".
const ROWS: [Row; 7] = [
    ("LINPACK", "MFLOPS", MFLOPS, true, run_hpl_blocked),
    ("CoreMark", "ops/s", PER_SECOND, false, run_coremark),
    ("StockFish", "nodes/s", PER_SECOND, false, run_stockfish),
    ("SPECFEM3D", "s", Metric::Seconds, true, run_specfem),
    ("BigDFT", "s", Metric::Seconds, true, run_bigdft),
    (
        "SMMP-like (protein MC)",
        "sweeps/s",
        PER_SECOND,
        false,
        run_protein,
    ),
    (
        "LINPACK (unblocked dgefa)",
        "MFLOPS",
        MFLOPS,
        true,
        run_linpack,
    ),
];

/// The two machines, in cell order within a row.
fn machines() -> [Platform; 2] {
    [Platform::snowball(), Platform::xeon_x5550()]
}

/// How many of the report's rows the paper's table has: the first
/// five. The last two are this reproduction's extensions, a
/// protein-folding Monte-Carlo kernel (the SMMP/PorFASI paradigm of
/// Table I) and the unblocked dgefa LINPACK reference, which shows what
/// cache blocking buys the headline row.
pub const PAPER_ROWS: usize = 5;

/// Runs the extended Table II experiment: [`sweep::run`] over a
/// [`SlotMeasurer`], so every row is measured on the sweep worker pool
/// and folded by [`assemble`]. Each row builds its own executors, so
/// the table is bit-identical to a serial run.
pub fn run(cfg: &Table2Config) -> Table2Report {
    sweep::run::<SlotMeasurer>(cfg)
}

/// Folds cell payloads, in [`measure_cell`] order, into the table's
/// first `cells.len() / 2` rows.
///
/// # Panics
///
/// Panics unless there are two cells per row and at most
/// [`extended_cell_count`] cells.
pub fn assemble(cfg: &Table2Config, cells: &[f64]) -> Table2Report {
    assert!(
        cells.len().is_multiple_of(2) && cells.len() <= extended_cell_count(),
        "two cells per row"
    );
    let [p_snow, p_xeon] = machines().map(|platform| platform.power.nameplate());
    let rows = ROWS
        .iter()
        .zip(cells.chunks_exact(2))
        .map(|(&(benchmark, unit, metric, ..), cell)| {
            let (s, x) = (cell[0], cell[1]);
            let higher_is_better = matches!(metric, Metric::Rate { .. });
            let ratio = if higher_is_better { x / s } else { s / x };
            Table2Row {
                benchmark: benchmark.to_string(),
                snowball: s,
                xeon: x,
                unit: unit.to_string(),
                higher_is_better,
                ratio,
                energy_ratio: energy_ratio(ratio, p_snow, p_xeon),
            }
        })
        .collect();
    Table2Report { rows, config: *cfg }
}

/// Number of campaign cells in the extended table: one per
/// `(row, machine)` pair, rows in report order, Snowball before Xeon
/// within a row.
pub fn extended_cell_count() -> usize {
    2 * ROWS.len()
}

/// Human-readable label of campaign cell `idx`, e.g. `"CoreMark/xeon"`.
pub fn cell_label(idx: usize) -> String {
    let (name, ..) = ROWS[idx / 2];
    let machine = if idx.is_multiple_of(2) {
        "snowball"
    } else {
        "xeon"
    };
    format!("{name}/{machine}")
}

/// Measures campaign cell `idx` alone: the row's metric on Snowball
/// (even `idx`) or Xeon (odd `idx`), from a run of the whole row.
pub fn measure_cell(cfg: &Table2Config, idx: usize) -> f64 {
    measure_row(cfg, idx / 2)[idx % 2]
}

/// Measures row `row` on both machines from one run of its kernel:
/// `[snowball, xeon]`. The kernel reports to both executors through a
/// [`TeeExec`], and each machine's metric comes from its own
/// [`ModelExec::finish`], as a run on that machine alone would give it:
/// the operation stream a kernel reports does not depend on the sink.
fn measure_row(cfg: &Table2Config, row: usize) -> [f64; 2] {
    let (.., metric, streaming, kernel) = ROWS[row];
    let exec = |platform: &Platform| {
        let mut exec = platform.exec(cfg.sample_rate);
        if streaming {
            exec.set_prefetch_hint(STREAMING_PREFETCH);
            exec.set_mlp_hint(4);
        }
        exec
    };
    let [snowball, xeon] = machines();
    let (mut on_snowball, mut on_xeon) = (exec(&snowball), exec(&xeon));
    let work = kernel(cfg, &mut TeeExec::new(&mut on_snowball, &mut on_xeon));
    let value = |exec: &mut ModelExec, platform: &Platform| {
        let secs = node_seconds(exec, platform);
        match metric {
            Metric::Rate { per } => work / secs / per,
            Metric::Seconds => secs,
        }
    };
    [
        value(&mut on_snowball, &snowball),
        value(&mut on_xeon, &xeon),
    ]
}

/// The Table II slot measurer: slot `row` is row `row` of the table,
/// both machines from one kernel run (see `measure_row`). A row's
/// values depend on the configuration alone, so every process, shard
/// and slot order computes the same bits.
pub struct SlotMeasurer {
    cfg: Table2Config,
}

impl SlotMeasurer {
    /// A measurer for `cfg`.
    pub fn new(cfg: &Table2Config) -> SlotMeasurer {
        SlotMeasurer { cfg: *cfg }
    }

    /// Measures row `row` on both machines: `[snowball, xeon]`.
    pub fn measure(&self, row: usize) -> [f64; 2] {
        measure_row(&self.cfg, row)
    }
}

/// One slot per row, each payload the row's `[snowball, xeon]` pair.
impl Sweep for SlotMeasurer {
    type Config = Table2Config;
    type Report = Table2Report;
    const WIDTH: Option<usize> = Some(2);

    fn config(grid: Grid) -> Table2Config {
        grid.pick(Table2Config::quick(), Table2Config::paper())
    }

    fn slot_count(_: &Table2Config) -> usize {
        ROWS.len()
    }

    fn labels(_: &Table2Config) -> Vec<String> {
        ROWS.iter().map(|&(name, ..)| name.to_string()).collect()
    }

    fn measurer(cfg: &Table2Config) -> Self {
        SlotMeasurer::new(cfg)
    }

    fn payload(&self, slot: usize) -> Vec<f64> {
        self.measure(slot).to_vec()
    }

    fn report(&self, payloads: &[Vec<f64>]) -> Table2Report {
        assemble(&self.cfg, &payloads.concat())
    }

    fn digest_stream(report: &Table2Report) -> Vec<f64> {
        report.digest_stream()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Table2Report {
        run(&Table2Config::quick())
    }

    #[test]
    fn xeon_wins_every_benchmark() {
        let r = report();
        assert_eq!(r.rows.len(), 7);
        for row in &r.rows[..PAPER_ROWS] {
            assert!(row.ratio > 1.0, "{}: ratio {}", row.benchmark, row.ratio);
        }
    }

    #[test]
    fn linpack_gap_is_largest_and_tens_of_x() {
        // The paper's key structure: LINPACK (DP SIMD) shows the largest
        // gap (38.7×); CoreMark (integer) the smallest (7.1×).
        let r = report();
        let linpack = r.row("LINPACK").expect("row").ratio;
        let coremark = r.row("CoreMark").expect("row").ratio;
        assert!(
            linpack > 15.0 && linpack < 90.0,
            "LINPACK ratio {linpack} (paper: 38.7)"
        );
        assert!(
            coremark > 3.0 && coremark < 20.0,
            "CoreMark ratio {coremark} (paper: 7.1)"
        );
        assert!(
            linpack > coremark,
            "DP-SIMD gap must exceed the integer gap"
        );
        for row in &r.rows[..PAPER_ROWS] {
            assert!(
                row.ratio <= linpack + 1e-9,
                "{} ratio {} should not exceed LINPACK's",
                row.benchmark,
                row.ratio
            );
        }
    }

    #[test]
    fn arm_wins_on_energy_for_most_benchmarks() {
        // Paper: LINPACK energy parity; everything else cheaper on ARM.
        let r = report();
        let linpack = r.row("LINPACK").expect("row").energy_ratio;
        assert!(
            (0.4..2.2).contains(&linpack),
            "LINPACK energy ratio {linpack} (paper: 1.0)"
        );
        for name in ["CoreMark", "SPECFEM3D", "StockFish", "BigDFT"] {
            let e = r.row(name).expect("row").energy_ratio;
            assert!(e < 1.0, "{name} energy ratio {e} should favour ARM");
        }
        let coremark = r.row("CoreMark").expect("row").energy_ratio;
        assert!(
            coremark < 0.45,
            "CoreMark energy ratio {coremark} (paper: 0.2)"
        );
    }

    #[test]
    fn snowball_linpack_order_of_magnitude() {
        // Paper: 620 MFLOPS on the Snowball, 24 000 on the Xeon.
        let r = report();
        let row = r.row("LINPACK").expect("row");
        assert!(
            (150.0..2_000.0).contains(&row.snowball),
            "Snowball MFLOPS {}",
            row.snowball
        );
        assert!(
            (6_000.0..60_000.0).contains(&row.xeon),
            "Xeon MFLOPS {}",
            row.xeon
        );
    }

    #[test]
    fn times_positive_and_render_works() {
        let r = report();
        for row in &r.rows {
            assert!(row.snowball > 0.0 && row.xeon > 0.0);
        }
        let text = r.render();
        assert!(text.contains("LINPACK"));
        assert!(text.contains("Energy Ratio"));
        assert_eq!(text.lines().count(), 2 + r.rows.len());
    }

    #[test]
    fn deterministic() {
        let a = report();
        let b = report();
        assert_eq!(a, b);
    }

    #[test]
    fn extended_rows_behave() {
        let r = report();
        assert_eq!(extended_cell_count(), 14);
        assert_eq!(cell_label(0), "LINPACK/snowball");
        assert_eq!(cell_label(3), "CoreMark/xeon");
        assert_eq!(cell_label(13), "LINPACK (unblocked dgefa)/xeon");
        // The Monte-Carlo kernel is integer work: its gap sits in the
        // CoreMark/StockFish band, far below LINPACK's.
        let mc = r.row("SMMP-like (protein MC)").expect("row").ratio;
        let linpack = r.row("LINPACK").expect("row").ratio;
        assert!(mc > 3.0 && mc < linpack, "MC ratio {mc}");
        // And it favours ARM on energy, like the other integer codes.
        assert!(r.row("SMMP-like (protein MC)").expect("row").energy_ratio < 1.0);
        // Blocking helps both machines: the headline (blocked) row beats
        // the unblocked reference.
        let blocked = r.row("LINPACK").expect("row");
        let plain = r.row("LINPACK (unblocked dgefa)").expect("row");
        assert!(
            blocked.snowball >= plain.snowball * 0.9,
            "blocked {} vs unblocked {} on ARM",
            blocked.snowball,
            plain.snowball
        );
        // At the quick scale the whole matrix fits the Xeon's L2, so
        // blocking buys nothing there — it must merely not cost much.
        // (Its win on cache-exceeding sizes is asserted by
        // `mb_kernels::linpack_blocked`'s miss-count ablation test.)
        assert!(
            blocked.xeon >= plain.xeon * 0.9,
            "blocked {} vs unblocked {} on Xeon",
            blocked.xeon,
            plain.xeon
        );
    }
}
