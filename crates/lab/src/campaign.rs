//! The campaign registry: every sweep `mb-lab` can drive.
//!
//! A [`Campaign`] is a sweep decomposed into *slots* — independent
//! measurements, each a pure function of `(campaign config, slot
//! index)` — plus a finalizer that folds the per-slot payloads into
//! the canonical value stream the campaign's pinned digest folds.
//!
//! Every figure campaign is one generic adapter over the figure's
//! [`Sweep`] (`fig3::Healthy`, `fig3::Faulted`, `fig5::SlotMeasurer`,
//! `fig7::SlotMeasurer`, `table2::SlotMeasurer`, `top500::Trends`): it
//! routes slots to the sweep's payloads and folds journaled payloads
//! with the sweep's fold and digest stream, the same fold the figure's
//! in-process `run` applies, so the registry does no arithmetic of its
//! own. [`registry`] is one table of `(name, description, seed, pin,
//! grid)` rows. The pin is a plain `u64` read from [`montblanc::pins`],
//! so a figure campaign without a pinned digest does not compile.
//! [`Selftest`] is the one hand-written campaign.
//!
//! Every figure campaign comes in two grids: the `-quick` test
//! configuration and the `-paper` grid behind the paper's headline
//! artifacts (Fig 3 strong scaling, Fig 5's 2 100-measurement RT
//! sweep, Fig 7, Table II). The paper campaigns are the long-running
//! sharded workload the driver was built for; `EXPERIMENTS.md` has the
//! runbook.

use mb_simcore::rng::{Rng, SplitMix64};
use montblanc::pins;
use montblanc::sweep::{Grid, Sweep};
use montblanc::{fig3, fig5, fig7, table2, top500};
use std::sync::OnceLock;

/// A sweep the driver can run slot by slot, persist, shard and resume.
pub trait Campaign: Sync {
    /// Registry name (the CLI's campaign argument).
    fn name(&self) -> &'static str;

    /// One-line description for `mb-lab list`.
    fn description(&self) -> &'static str;

    /// Experiment seed: the journal header's identity, so a journal
    /// written under one seed can never resume under another.
    fn seed(&self) -> u64;

    /// The campaign's task count, without formatting a label.
    fn slot_count(&self) -> usize;

    /// Labels of every slot, in canonical slot order; there are
    /// [`Campaign::slot_count`] of them.
    fn task_labels(&self) -> Vec<String>;

    /// Measures one slot. Must be a pure function of the campaign
    /// config and `slot` so any shard or resumed process reproduces it
    /// bit for bit.
    fn run_slot(&self, slot: usize) -> Vec<f64>;

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

/// A figure campaign: one row of [`registry`] over the figure's
/// [`Sweep`]. The measurer is built by the first slot or fold this
/// process runs and shared by the rest, so a sweep's per-process
/// prelude (Fig 5's plan and page tables, Fig 7's magicfilter streams)
/// is paid once, and a shard or resumed run still reproduces every
/// slot's bits whichever slot comes first.
struct Figure<S> {
    name: &'static str,
    description: &'static str,
    seed: u64,
    pin: u64,
    grid: Grid,
    measurer: OnceLock<S>,
}

impl<S: Sweep> Figure<S> {
    fn config(&self) -> S::Config {
        S::config(self.grid)
    }

    fn measurer(&self) -> &S {
        self.measurer.get_or_init(|| S::measurer(&self.config()))
    }
}

impl<S: Sweep> Campaign for Figure<S> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn slot_count(&self) -> usize {
        S::slot_count(&self.config())
    }

    fn task_labels(&self) -> Vec<String> {
        S::labels(&self.config())
    }

    fn run_slot(&self, slot: usize) -> Vec<f64> {
        self.measurer().payload(slot)
    }

    fn finalize(&self, slots: &[Vec<f64>]) -> Vec<f64> {
        S::digest_stream(&self.measurer().report(slots))
    }

    fn pinned_digest(&self) -> Option<u64> {
        Some(self.pin)
    }

    fn payload_width(&self) -> Option<usize> {
        S::WIDTH
    }
}

/// One registry row: a figure campaign over sweep `S`.
fn figure<S: Sweep + 'static>(
    name: &'static str,
    description: &'static str,
    seed: u64,
    pin: u64,
    grid: Grid,
) -> Box<dyn Campaign> {
    Box::new(Figure::<S> {
        name,
        description,
        seed,
        pin,
        grid,
        measurer: OnceLock::new(),
    })
}

/// Seed salt distinguishing a paper campaign's journal family from its
/// quick sibling — a paper shard can never resume into a quick journal.
const PAPER: u64 = 0x9A9E12;

/// A cheap synthetic campaign for exercising the driver itself: each
/// slot expands a SplitMix64 draw from the campaign seed into three
/// floats. Costs microseconds per slot, so kill/resume and shard
/// proptests can churn through hundreds of runs.
pub struct Selftest;

/// Task count of the [`Selftest`] campaign.
pub const SELFTEST_TASKS: usize = 16;

impl Campaign for Selftest {
    fn name(&self) -> &'static str {
        "selftest"
    }

    fn description(&self) -> &'static str {
        "Synthetic driver-validation campaign (seed-derived payloads, instant slots)"
    }

    fn seed(&self) -> u64 {
        0x5E1F
    }

    fn slot_count(&self) -> usize {
        SELFTEST_TASKS
    }

    fn task_labels(&self) -> Vec<String> {
        (0..SELFTEST_TASKS).map(|i| format!("slot{i}")).collect()
    }

    fn run_slot(&self, slot: usize) -> Vec<f64> {
        // Deterministic poison hook for the quarantine machinery: when
        // MB_SELFTEST_POISON names this slot, the slot panics on every
        // attempt — the "crashes its worker K times in a row" case the
        // supervisor must fence off instead of retrying forever. The
        // contained sweep turns the panic into TaskFailed, the driver
        // into exit code 4.
        if let Ok(poison) = std::env::var("MB_SELFTEST_POISON") {
            if poison
                .split(',')
                .any(|p| p.trim().parse::<usize>() == Ok(slot))
            {
                panic!("poisoned slot {slot} (MB_SELFTEST_POISON)");
            }
        }
        // The slot's seed is the (slot + 1)-th SplitMix64 draw from the
        // campaign seed. Three deterministic, finite values per slot:
        // mantissa-spread fractions of that seed and its index mix.
        let mut stream = SplitMix64::new(self.seed());
        for _ in 0..slot {
            stream.next_u64();
        }
        let seed = stream.next_u64();
        let frac = |x: u64| (x >> 11) as f64 / (1u64 << 53) as f64;
        let mixed = seed ^ (slot as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        vec![frac(seed), frac(mixed), slot as f64 + 0.5]
    }

    fn finalize(&self, slots: &[Vec<f64>]) -> Vec<f64> {
        slots.iter().flat_map(|p| p.iter().copied()).collect()
    }

    fn pinned_digest(&self) -> Option<u64> {
        // Deliberately unpinned: selftest payloads are seed-derived
        // sentinels, not figure data.
        None
    }

    fn payload_width(&self) -> Option<usize> {
        Some(3)
    }
}

/// Every registered campaign, in listing order: quick grids, the five
/// paper grids, then the unparameterised campaigns.
pub fn registry() -> Vec<Box<dyn Campaign>> {
    use Grid::{Paper, Quick};
    const FAULTED: u64 = 0x5CA1E ^ 0xFA017;
    vec![
        figure::<fig3::Healthy>(
            "fig3-quick",
            "Figure 3 strong scaling (LINPACK/SPECFEM3D/BigDFT on Tibidabo), quick grid",
            0x5CA1E,
            pins::FIG3_QUICK_DIGEST,
            Quick,
        ),
        figure::<fig3::Faulted>(
            "fig3-faulted-quick",
            "Figure 3 scaling under light injected faults, with resilience counters",
            FAULTED,
            pins::FIG3_FAULTED_QUICK_DIGEST,
            Quick,
        ),
        figure::<fig5::SlotMeasurer>(
            "fig5-quick",
            "Figure 5 Snowball bandwidth under the RT scheduling anomaly, quick grid",
            0xF165,
            pins::FIG5_QUICK_DIGEST,
            Quick,
        ),
        figure::<fig7::SlotMeasurer>(
            "fig7-quick",
            "Figure 7 magicfilter unroll sweep on Nehalem and Tegra2, quick grid",
            0xF167,
            pins::FIG7_QUICK_DIGEST,
            Quick,
        ),
        figure::<table2::SlotMeasurer>(
            "table2-quick",
            "Extended Table II single-node comparison (Snowball vs Xeon), quick config",
            0x7AB1E2,
            pins::TABLE2_QUICK_DIGEST,
            Quick,
        ),
        figure::<fig3::Healthy>(
            "fig3-paper",
            "Figure 3 strong scaling (LINPACK/SPECFEM3D/BigDFT on Tibidabo), full paper grid",
            0x5CA1E ^ PAPER,
            pins::FIG3_PAPER_DIGEST,
            Paper,
        ),
        figure::<fig3::Faulted>(
            "fig3-faulted-paper",
            "Figure 3 full paper grid under light injected faults, with resilience counters",
            FAULTED ^ PAPER,
            pins::FIG3_FAULTED_PAPER_DIGEST,
            Paper,
        ),
        figure::<fig5::SlotMeasurer>(
            "fig5-paper",
            "Figure 5 Snowball bandwidth under the RT anomaly, paper grid (50 sizes x 42 reps)",
            0xF165 ^ PAPER,
            pins::FIG5_PAPER_DIGEST,
            Paper,
        ),
        figure::<fig7::SlotMeasurer>(
            "fig7-paper",
            "Figure 7 magicfilter unroll sweep on Nehalem and Tegra2, paper grid",
            0xF167 ^ PAPER,
            pins::FIG7_PAPER_DIGEST,
            Paper,
        ),
        figure::<table2::SlotMeasurer>(
            "table2-paper",
            "Extended Table II single-node comparison (Snowball vs Xeon), paper config",
            0x7AB1E2 ^ PAPER,
            pins::TABLE2_PAPER_DIGEST,
            Paper,
        ),
        figure::<top500::Trends>(
            "top500-trends",
            "Figure 1 TOP500 log-linear trend fits and exaflop projections",
            0x70500,
            pins::TOP500_TRENDS_DIGEST,
            Quick,
        ),
        Box::new(Selftest),
    ]
}

/// Looks a campaign up by name. Builds no measurer and formats no
/// label.
pub fn find(name: &str) -> Option<Box<dyn Campaign>> {
    registry().into_iter().find(|c| c.name() == name)
}
