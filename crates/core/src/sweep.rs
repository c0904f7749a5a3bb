//! One interface for every figure's slot sweep.
//!
//! Each figure is a campaign of independent measurements (*slots*):
//! Table II's cells, Figure 3's core counts, Figure 5's randomised
//! repetitions, Figure 7's unroll variants. A [`Sweep`] is a figure's
//! slot measurer: it names the slots of a configuration, measures any
//! one of them on its own as an `f64` payload, and folds one payload
//! per slot into the figure's report. [`run`] is the in-process figure:
//! every slot on the [`mb_simcore::par`] worker pool, then the fold.
//! The `mb-lab` campaigns drive the same measurer slot by slot through
//! a journal, so a figure's `run` and its campaign fold the same
//! payloads.

/// Which configuration grid a figure is measured on: the fast test
/// grid or the full grid behind the paper's plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// The `quick()` test grid.
    Quick,
    /// The `paper()` full grid.
    Paper,
}

impl Grid {
    /// The one grid switch: `quick` on the quick grid, `paper` on the
    /// paper grid.
    pub fn pick<T>(self, quick: T, paper: T) -> T {
        match self {
            Grid::Quick => quick,
            Grid::Paper => paper,
        }
    }
}

/// A figure's slot measurer.
///
/// A slot's payload must be a pure function of the configuration and
/// the slot index, whichever slots the measurer measured before it and
/// on whichever thread, so that any shard or resumed process
/// reproduces it bit for bit.
pub trait Sweep: Send + Sync + Sized {
    /// The figure's configuration.
    type Config;
    /// The folded figure.
    type Report;

    /// Width of every slot payload, when it is fixed.
    const WIDTH: Option<usize>;

    /// The configuration of `grid`.
    fn config(grid: Grid) -> Self::Config;

    /// Number of slots of `cfg`, without building a measurer.
    fn slot_count(cfg: &Self::Config) -> usize;

    /// Every slot's label, in slot order.
    fn labels(cfg: &Self::Config) -> Vec<String>;

    /// A measurer for `cfg`.
    fn measurer(cfg: &Self::Config) -> Self;

    /// Measures slot `slot`.
    fn payload(&self, slot: usize) -> Vec<f64>;

    /// Folds one payload per slot, in slot order, into the report.
    fn report(&self, payloads: &[Vec<f64>]) -> Self::Report;

    /// The value stream the figure's pinned digest folds.
    fn digest_stream(report: &Self::Report) -> Vec<f64>;
}

/// Runs a figure in process: [`Sweep::payload`] of one measurer over
/// every slot on the sweep worker pool, folded by [`Sweep::report`]. The
/// report is bit-identical at any worker count.
pub fn run<S: Sweep>(cfg: &S::Config) -> S::Report {
    let measurer = S::measurer(cfg);
    let tasks = S::labels(cfg).into_iter().zip(0..).collect();
    measurer.report(&mb_simcore::par::sweep(tasks, |slot| {
        measurer.payload(slot)
    }))
}

/// A fixed-width payload as an array.
///
/// # Panics
///
/// Panics unless the payload is `N` values wide. The `mb-lab` driver
/// rejects journal records of the wrong width before they reach a fold.
pub fn fixed<const N: usize>(payload: &[f64]) -> [f64; N] {
    <[f64; N]>::try_from(payload).expect("payload width checked by the driver")
}
