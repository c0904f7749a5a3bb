//! Figure 3 — strong scaling of LINPACK, SPECFEM3D and BigDFT on
//! Tibidabo.
//!
//! Wraps `mb-cluster`'s [`ScalingStudy`] with the paper's core-count
//! grids and speedup normalisations: LINPACK up to ~104 cores (Fig 3a),
//! SPECFEM3D up to 192 cores normalised "versus a 4 core run" (Fig 3b),
//! BigDFT up to 36 cores (Fig 3c). The effective per-core rate fed to
//! the skeletons is *measured* on the Tegra2 machine model by costing
//! the real SPECFEM kernel, not assumed.

use crate::platform::Platform;
use crate::sweep::{self, Grid, Sweep};
use mb_cluster::scaling::{FabricKind, ResilientSeries, ScalingPoint, ScalingSeries, ScalingStudy};
use mb_cluster::workload::Workload;
use mb_energy::{Energy, PowerModel, RetransmissionModel};
use mb_faults::FaultConfig;
use mb_kernels::specfem::{Specfem, SpecfemConfig};
use mb_mpi::ResilienceStats;
use mb_simcore::time::SimTime;
use std::sync::OnceLock;

/// Which Figure 3 panel to reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Panel {
    /// Figure 3a: LINPACK.
    Linpack,
    /// Figure 3b: SPECFEM3D.
    Specfem,
    /// Figure 3c: BigDFT.
    BigDft,
}

/// Configuration of the Figure 3 experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig3Config {
    /// Core counts for the LINPACK panel.
    pub linpack_cores: Vec<u32>,
    /// Core counts for the SPECFEM panel (baseline 4, per the paper).
    pub specfem_cores: Vec<u32>,
    /// Core counts for the BigDFT panel.
    pub bigdft_cores: Vec<u32>,
    /// Iteration counts (scaled down for quick runs).
    pub iterations: u32,
}

impl Fig3Config {
    /// Fast test configuration.
    pub fn quick() -> Self {
        Fig3Config {
            linpack_cores: vec![8, 32, 104],
            specfem_cores: vec![4, 48, 192],
            bigdft_cores: vec![4, 16, 36],
            iterations: 4,
        }
    }

    /// The full grids of the paper's plots.
    pub fn paper() -> Self {
        Fig3Config {
            linpack_cores: vec![2, 4, 8, 16, 32, 64, 104],
            specfem_cores: vec![4, 8, 16, 32, 64, 96, 128, 192],
            bigdft_cores: vec![2, 4, 8, 12, 16, 24, 32, 36],
            iterations: 6,
        }
    }
}

/// Cached result of the one-time SPECFEM element-kernel calibration.
static TEGRA2_GFLOPS: OnceLock<f64> = OnceLock::new();

/// How many times the calibration closure actually ran in this process
/// — the `validate` build counter-asserts it stays at one no matter how
/// many slots, campaigns or figure runs ask for the rate.
#[cfg(feature = "validate")]
static TEGRA2_CALIBRATIONS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Number of times [`tegra2_effective_gflops`] has executed its
/// calibration (not merely returned the cached value). `OnceLock`
/// guarantees this never exceeds one per process.
#[cfg(feature = "validate")]
pub fn tegra2_calibration_count() -> usize {
    TEGRA2_CALIBRATIONS.load(std::sync::atomic::Ordering::Relaxed)
}

/// Measures the effective per-core double-precision rate of the Tegra2
/// model by costing the real SPECFEM element kernel, in GFLOPS.
///
/// The calibration is a pure deterministic function of the machine
/// model, so it is computed once per process and cached: campaign slot
/// streams ask for the rate per slot, and a paper-grid campaign would
/// otherwise rerun the SPECFEM kernel thousands of times for the same
/// bits.
pub fn tegra2_effective_gflops() -> f64 {
    *TEGRA2_GFLOPS.get_or_init(|| {
        #[cfg(feature = "validate")]
        TEGRA2_CALIBRATIONS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let platform = Platform::tegra2_node();
        let mut exec = platform.exec(1);
        let mut sim = Specfem::new(SpecfemConfig::table2());
        sim.run(40, &mut exec);
        let r = exec.finish();
        r.gflops()
    })
}

/// The workload for one panel, with the measured core rate injected.
pub fn workload(panel: Panel, iterations: u32) -> Workload {
    panel_workload(panel, iterations, tegra2_effective_gflops())
}

/// The one panel-to-[`Workload`] mapping every Figure 3 path uses. The
/// slot measurers take the calibrated rate as an argument, so the
/// one-time calibration stays off their hot path.
fn panel_workload(panel: Panel, iterations: u32, core_gflops: f64) -> Workload {
    match panel {
        Panel::Linpack => Workload::linpack_tibidabo(),
        Panel::Specfem => Workload::specfem_tibidabo(),
        Panel::BigDft => Workload::bigdft_tibidabo(),
    }
    .with_core_gflops(core_gflops)
    .with_iterations(iterations)
}

/// The three panels of Figure 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Report {
    /// Fig 3a.
    pub linpack: ScalingSeries,
    /// Fig 3b.
    pub specfem: ScalingSeries,
    /// Fig 3c.
    pub bigdft: ScalingSeries,
    /// The measured Tegra2 per-core rate used (GFLOPS).
    pub core_gflops: f64,
}

impl Fig3Report {
    /// The value stream the pinned Figure 3 digests fold: `[speedup,
    /// efficiency]` per point, panels in slot order, then `core_gflops`.
    pub fn digest_stream(&self) -> Vec<f64> {
        [&self.linpack, &self.specfem, &self.bigdft]
            .into_iter()
            .flat_map(|s| s.points.iter().flat_map(|p| [p.speedup, p.efficiency]))
            .chain([self.core_gflops])
            .collect()
    }
}

/// Runs the whole Figure 3 experiment on the commodity Tibidabo fabric:
/// [`sweep::run`] over [`Healthy`], so every slot is measured on the
/// sweep worker pool and folded by [`assemble`].
pub fn run(cfg: &Fig3Config) -> Fig3Report {
    sweep::run::<Healthy>(cfg)
}

/// Folds healthy slot payloads — makespans in seconds, in
/// [`scaling_slots`] order — into the report. Each panel is
/// normalised to its first point.
///
/// # Panics
///
/// Panics unless there is exactly one payload per slot.
pub fn assemble(cfg: &Fig3Config, times: &[f64]) -> Fig3Report {
    let [linpack, specfem, bigdft] = by_panel(cfg, times.to_vec()).map(|(panel, points)| {
        let points = points
            .into_iter()
            .map(|(cores, secs)| ScalingPoint::measured(cores, SimTime::from_secs_f64(secs)))
            .collect();
        ScalingSeries::new(workload(panel, cfg.iterations).name, points)
    });
    Fig3Report {
        linpack,
        specfem,
        bigdft,
        core_gflops: tegra2_effective_gflops(),
    }
}

/// Figure 3 rerun under injected faults: the same three panels, each a
/// degraded-but-completed [`ResilientSeries`] with retry/timeout/crash
/// counters per point.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3FaultReport {
    /// Fig 3a under faults.
    pub linpack: ResilientSeries,
    /// Fig 3b under faults.
    pub specfem: ResilientSeries,
    /// Fig 3c under faults.
    pub bigdft: ResilientSeries,
    /// The measured Tegra2 per-core rate used (GFLOPS).
    pub core_gflops: f64,
}

impl Fig3FaultReport {
    /// Mean parallel efficiency across every completed point of every
    /// panel — the single number the `fault_ablation` bench plots
    /// against the fault rate.
    pub fn mean_efficiency(&self) -> f64 {
        let effs: Vec<f64> = [&self.linpack, &self.specfem, &self.bigdft]
            .into_iter()
            .flat_map(|s| s.points.iter().map(|p| p.point.efficiency))
            .collect();
        if effs.is_empty() {
            return 0.0;
        }
        effs.iter().sum::<f64>() / effs.len() as f64
    }

    /// Summed resilience counters across all panels and points.
    pub fn total_stats(&self) -> ResilienceStats {
        [&self.linpack, &self.specfem, &self.bigdft]
            .into_iter()
            .flat_map(|s| s.points.iter().map(|p| p.stats))
            .sum()
    }

    /// Energy to solution of the whole faulted campaign on Tibidabo:
    /// every point charges its occupied nodes at the Tegra2 nameplate
    /// power for its (degraded) makespan, **plus** the retransmission
    /// surcharge for the retries and timeouts it recorded — closing the
    /// gap where faulted runs reported time degradation only.
    pub fn total_energy(&self) -> Energy {
        let node = PowerModel::tegra2_node().nameplate();
        let retrans = RetransmissionModel::tibidabo_gbe();
        [&self.linpack, &self.specfem, &self.bigdft]
            .into_iter()
            .fold(Energy::default(), |acc, s| {
                acc + s.total_energy(node, &retrans)
            })
    }

    /// The value stream the pinned faulted Figure 3 digests fold: per
    /// completed point `[speedup, efficiency, retries, timeouts,
    /// skipped, crashed, surviving]`, panels in slot order, then
    /// `core_gflops`.
    pub fn digest_stream(&self) -> Vec<f64> {
        [&self.linpack, &self.specfem, &self.bigdft]
            .into_iter()
            .flat_map(|s| {
                s.points.iter().flat_map(|p| {
                    [
                        p.point.speedup,
                        p.point.efficiency,
                        p.stats.retries as f64,
                        p.stats.timeouts as f64,
                        p.stats.skipped_messages as f64,
                        f64::from(p.stats.crashed_ranks),
                        f64::from(p.surviving_ranks),
                    ]
                })
            })
            .chain([self.core_gflops])
            .collect()
    }
}

/// Runs Figure 3 on the commodity Tibidabo fabric with a deterministic
/// fault plan injected at every point. With [`FaultConfig::none`] every
/// plan is empty and the points are [`run`]'s, bit for bit (the two
/// differ only in their fold); with real fault rates each panel
/// completes degraded — crashed ranks drop out, dropped messages
/// retransmit with backoff — instead of dying. Each slot runs inside
/// `mb_simcore::par::sweep_contained`, so a point that dies outright
/// lands in its series' `failed` list. Same seed, same config ⇒ same
/// report, at any worker count.
pub fn run_faulted(cfg: &Fig3Config, faults: FaultConfig) -> Fig3FaultReport {
    let measurer = SlotMeasurer::new(cfg, faults);
    let tasks = labels(cfg).into_iter().zip(0..).collect();
    let slots = mb_simcore::par::sweep_contained(tasks, |slot| measurer.measure(slot));
    assemble_faulted(
        cfg,
        slots
            .into_iter()
            .map(|slot| slot.map_err(|e| e.to_string()))
            .collect(),
    )
}

/// Folds faulted slot payloads — one [`measure_faulted_slot`] result or
/// task error per slot, in [`scaling_slots`] order — into the report.
/// Each panel is normalised to its first completed point.
///
/// # Panics
///
/// Panics unless there is exactly one entry per slot.
pub fn assemble_faulted(cfg: &Fig3Config, slots: Vec<Result<[f64; 6], String>>) -> Fig3FaultReport {
    let [linpack, specfem, bigdft] = by_panel(cfg, slots).map(|(panel, points)| {
        let outcomes = points
            .into_iter()
            .map(|(cores, slot)| {
                let outcome = slot.map(|p| {
                    let stats = ResilienceStats {
                        retries: p[1] as u64,
                        timeouts: p[2] as u64,
                        skipped_messages: p[3] as u64,
                        crashed_ranks: p[4] as u32,
                    };
                    (SimTime::from_secs_f64(p[0]), stats, p[5] as u32)
                });
                (cores, outcome)
            })
            .collect();
        ResilientSeries::from_outcomes(workload(panel, cfg.iterations).name, outcomes)
    });
    Fig3FaultReport {
        linpack,
        specfem,
        bigdft,
        core_gflops: tegra2_effective_gflops(),
    }
}

// --- Slot measurers ------------------------------------------------------
//
// One slot per (panel, core count) pair, in the canonical panel-major
// order. A persistent experiment driver cannot hold a half-finished
// report across a process restart; it persists per-slot payloads and
// folds them with `assemble` / `assemble_faulted` afterwards, the same
// fold `run` / `run_faulted` apply to an in-process sweep.

/// The campaign slots of a Figure 3 config, in canonical order:
/// LINPACK counts, then SPECFEM, then BigDFT.
pub fn scaling_slots(cfg: &Fig3Config) -> Vec<(Panel, u32)> {
    panels(cfg)
        .into_iter()
        .flat_map(|(panel, counts)| counts.iter().map(move |&cores| (panel, cores)))
        .collect()
}

/// Each panel with its core counts, in slot order.
fn panels(cfg: &Fig3Config) -> [(Panel, &[u32]); 3] {
    [
        (Panel::Linpack, &cfg.linpack_cores),
        (Panel::Specfem, &cfg.specfem_cores),
        (Panel::BigDft, &cfg.bigdft_cores),
    ]
}

/// Number of slots of `cfg`: one per point of every panel.
fn slot_count(cfg: &Fig3Config) -> usize {
    panels(cfg).iter().map(|(_, counts)| counts.len()).sum()
}

/// Splits per-slot payloads (in slot order) into the three panels,
/// pairing each with its core count.
fn by_panel<T>(cfg: &Fig3Config, payloads: Vec<T>) -> [(Panel, Vec<(u32, T)>); 3] {
    assert_eq!(payloads.len(), slot_count(cfg), "one payload per slot");
    let mut payloads = payloads.into_iter();
    panels(cfg).map(|(panel, counts)| {
        let points = counts
            .iter()
            .map(|&cores| (cores, payloads.next().expect("length checked above")))
            .collect();
        (panel, points)
    })
}

/// Every slot's label, in slot order, e.g. `"bigdft@36c"`.
fn labels(cfg: &Fig3Config) -> Vec<String> {
    scaling_slots(cfg)
        .into_iter()
        .map(|(panel, cores)| {
            let name = match panel {
                Panel::Linpack => "linpack",
                Panel::Specfem => "specfem",
                Panel::BigDft => "bigdft",
            };
            format!("{name}@{cores}c")
        })
        .collect()
}

/// The Figure 3 slot measurer under one fault configuration: the
/// config's slots and the calibrated core rate, computed once.
pub struct SlotMeasurer {
    cfg: Fig3Config,
    faults: FaultConfig,
    slots: Vec<(Panel, u32)>,
    rate: f64,
}

impl SlotMeasurer {
    /// A measurer for `cfg` under `faults`.
    pub fn new(cfg: &Fig3Config, faults: FaultConfig) -> SlotMeasurer {
        SlotMeasurer {
            cfg: cfg.clone(),
            faults,
            slots: scaling_slots(cfg),
            rate: tegra2_effective_gflops(),
        }
    }

    /// Measures slot `slot` with [`measure_faulted_slot`].
    pub fn measure(&self, slot: usize) -> [f64; 6] {
        let (panel, cores) = self.slots[slot];
        measure_faulted_slot(&self.cfg, self.faults, panel, cores, self.rate)
    }
}

/// Figure 3 on the healthy fabric. A slot's payload is its simulated
/// makespan in seconds: the faulted slot under [`FaultConfig::none`],
/// whose plan is empty.
pub struct Healthy(SlotMeasurer);

impl Sweep for Healthy {
    type Config = Fig3Config;
    type Report = Fig3Report;
    const WIDTH: Option<usize> = Some(1);

    fn config(grid: Grid) -> Fig3Config {
        grid.pick(Fig3Config::quick(), Fig3Config::paper())
    }

    fn slot_count(cfg: &Fig3Config) -> usize {
        slot_count(cfg)
    }

    fn labels(cfg: &Fig3Config) -> Vec<String> {
        labels(cfg)
    }

    fn measurer(cfg: &Fig3Config) -> Self {
        Healthy(SlotMeasurer::new(cfg, FaultConfig::none()))
    }

    fn payload(&self, slot: usize) -> Vec<f64> {
        vec![self.0.measure(slot)[0]]
    }

    fn report(&self, payloads: &[Vec<f64>]) -> Fig3Report {
        assemble(&self.0.cfg, &payloads.concat())
    }

    fn digest_stream(report: &Fig3Report) -> Vec<f64> {
        report.digest_stream()
    }
}

/// Figure 3 under injected faults, `FaultConfig::light` on a grid. A
/// slot's payload is its [`measure_faulted_slot`] result.
pub struct Faulted(SlotMeasurer);

impl Sweep for Faulted {
    type Config = (Fig3Config, FaultConfig);
    type Report = Fig3FaultReport;
    const WIDTH: Option<usize> = Some(6);

    fn config(grid: Grid) -> (Fig3Config, FaultConfig) {
        (Healthy::config(grid), FaultConfig::light())
    }

    fn slot_count((cfg, _): &(Fig3Config, FaultConfig)) -> usize {
        slot_count(cfg)
    }

    fn labels((cfg, _): &(Fig3Config, FaultConfig)) -> Vec<String> {
        labels(cfg)
    }

    fn measurer((cfg, faults): &(Fig3Config, FaultConfig)) -> Self {
        Faulted(SlotMeasurer::new(cfg, *faults))
    }

    fn payload(&self, slot: usize) -> Vec<f64> {
        self.0.measure(slot).to_vec()
    }

    fn report(&self, payloads: &[Vec<f64>]) -> Fig3FaultReport {
        let slots = payloads.iter().map(|p| Ok(sweep::fixed(p))).collect();
        assemble_faulted(&self.0.cfg, slots)
    }

    fn digest_stream(report: &Fig3FaultReport) -> Vec<f64> {
        report.digest_stream()
    }
}

/// Measures one fault-injected slot under `faults`, returning
/// `[secs, retries, timeouts, skipped, crashed, surviving]`.
pub fn measure_faulted_slot(
    cfg: &Fig3Config,
    faults: FaultConfig,
    panel: Panel,
    cores: u32,
    core_gflops: f64,
) -> [f64; 6] {
    let out = ScalingStudy::new(FabricKind::Tibidabo)
        .with_faults(faults)
        .execute_outcome(
            &panel_workload(panel, cfg.iterations, core_gflops),
            cores,
            false,
        );
    [
        out.time.as_secs_f64(),
        out.stats.retries as f64,
        out.stats.timeouts as f64,
        out.stats.skipped_messages as f64,
        f64::from(out.stats.crashed_ranks),
        f64::from(out.surviving_ranks),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tegra2_rate_is_plausible() {
        let g = tegra2_effective_gflops();
        // The Tegra2's VFP peaks at 1 GFLOPS/core; real codes achieve a
        // fraction of that.
        assert!((0.05..0.9).contains(&g), "effective rate {g} GFLOPS");
    }

    #[test]
    fn figure3_shapes() {
        let r = run(&Fig3Config::quick());
        // Fig 3a: LINPACK acceptable at ~104 cores.
        let lp = r.linpack.at(104).expect("ran").efficiency;
        assert!((0.55..0.97).contains(&lp), "LINPACK eff {lp}");
        // Fig 3b: SPECFEM excellent at 192 (vs 4-core base).
        let sf = r.specfem.at(192).expect("ran").efficiency;
        assert!(sf > 0.8, "SPECFEM eff {sf}");
        assert_eq!(r.specfem.baseline_cores, 4);
        // Fig 3c: BigDFT collapses by 36.
        let bd = r.bigdft.at(36).expect("ran").efficiency;
        assert!(bd < 0.6, "BigDFT eff {bd}");
        // Ordering: SPECFEM scales best, BigDFT worst.
        assert!(sf > lp && lp > bd);
    }

    #[test]
    fn workload_carries_measured_rate() {
        let w = workload(Panel::BigDft, 2);
        assert!((w.core_gflops - tegra2_effective_gflops()).abs() < 1e-12);
        assert_eq!(w.iterations, 2);
    }

    #[test]
    fn zero_fault_rerun_matches_plain_figure3() {
        let cfg = Fig3Config::quick();
        let plain = run(&cfg);
        let faulted = run_faulted(&cfg, FaultConfig::none());
        for (s, r) in [
            (&plain.linpack, &faulted.linpack),
            (&plain.specfem, &faulted.specfem),
            (&plain.bigdft, &faulted.bigdft),
        ] {
            assert!(r.failed.is_empty());
            for (a, b) in s.points.iter().zip(&r.points) {
                assert_eq!(
                    a, &b.point,
                    "an empty plan must leave every point as the healthy run has it"
                );
            }
        }
        assert_eq!(faulted.total_stats(), ResilienceStats::default());
    }

    #[test]
    fn slot_decomposition_is_bit_identical_to_monolithic_run() {
        // `run` folds makespans that went through f64 seconds; a series
        // built straight from `ScalingStudy::execute` keeps every
        // `SimTime` whole. The two must agree on every field, times
        // included.
        let cfg = Fig3Config::quick();
        let r = run(&cfg);
        let study = ScalingStudy::new(FabricKind::Tibidabo);
        for ((panel, counts), series) in panels(&cfg)
            .into_iter()
            .zip([&r.linpack, &r.specfem, &r.bigdft])
        {
            let w = workload(panel, cfg.iterations);
            let points = counts
                .iter()
                .map(|&cores| ScalingPoint::measured(cores, study.execute(&w, cores, false).0))
                .collect();
            assert_eq!(&ScalingSeries::new(w.name.clone(), points), series);
        }
    }

    #[test]
    fn quick_grid_points_are_a_pure_subset_of_the_paper_grid() {
        // The quick⊂paper consistency property: a slot payload is a
        // pure function of its point `(panel, cores)` plus the
        // iteration knob — never of the surrounding grid. Align the
        // iteration counts and every grid point shared between the
        // quick and paper configs must measure bit-identically.
        let paper = Fig3Config::paper();
        let quick_at_paper_iters = Fig3Config {
            iterations: paper.iterations,
            ..Fig3Config::quick()
        };
        let rate = tegra2_effective_gflops();
        let paper_slots = scaling_slots(&paper);
        let mut shared = 0usize;
        for (panel, cores) in scaling_slots(&quick_at_paper_iters) {
            if !paper_slots.contains(&(panel, cores)) {
                continue; // e.g. specfem@48c exists only in the quick grid
            }
            shared += 1;
            let healthy = |cfg| measure_faulted_slot(cfg, FaultConfig::none(), panel, cores, rate);
            assert_eq!(
                healthy(&quick_at_paper_iters)[0].to_bits(),
                healthy(&paper)[0].to_bits(),
                "{panel:?}@{cores}c diverged between the quick and paper grids"
            );
            let faulted_quick = measure_faulted_slot(
                &quick_at_paper_iters,
                FaultConfig::light(),
                panel,
                cores,
                rate,
            );
            let faulted_paper =
                measure_faulted_slot(&paper, FaultConfig::light(), panel, cores, rate);
            for (a, b) in faulted_quick.iter().zip(&faulted_paper) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "faulted {panel:?}@{cores}c diverged between the quick and paper grids"
                );
            }
        }
        assert!(
            shared >= 6,
            "only {shared} shared grid points — grids drifted apart"
        );
    }

    #[test]
    fn calibration_is_cached_across_calls() {
        let a = tegra2_effective_gflops();
        let b = tegra2_effective_gflops();
        assert_eq!(a.to_bits(), b.to_bits());
        #[cfg(feature = "validate")]
        assert_eq!(
            tegra2_calibration_count(),
            1,
            "the SPECFEM calibration must run exactly once per process"
        );
    }

    #[test]
    fn faulted_slot_decomposition_is_bit_identical() {
        // As above, against a series built straight from
        // `ScalingStudy::execute_outcome`: times, counters and survivors
        // all survive the f64 payloads.
        let cfg = Fig3Config::quick();
        let r = run_faulted(&cfg, FaultConfig::light());
        let study = ScalingStudy::new(FabricKind::Tibidabo).with_faults(FaultConfig::light());
        for ((panel, counts), series) in panels(&cfg)
            .into_iter()
            .zip([&r.linpack, &r.specfem, &r.bigdft])
        {
            let w = workload(panel, cfg.iterations);
            let outcomes = counts
                .iter()
                .map(|&cores| {
                    let out = study.execute_outcome(&w, cores, false);
                    (cores, Ok((out.time, out.stats, out.surviving_ranks)))
                })
                .collect();
            assert_eq!(
                &ResilientSeries::from_outcomes(w.name.clone(), outcomes),
                series
            );
        }
    }

    #[test]
    fn assemble_faulted_sets_a_failed_slot_apart() {
        // A slot whose task died lands in its panel's `failed` list; the
        // panel's other points normalise to its first completed point.
        let cfg = Fig3Config::quick();
        let rate = tegra2_effective_gflops();
        let mut slots: Vec<Result<[f64; 6], String>> = scaling_slots(&cfg)
            .into_iter()
            .map(|(panel, cores)| {
                Ok(measure_faulted_slot(
                    &cfg,
                    FaultConfig::none(),
                    panel,
                    cores,
                    rate,
                ))
            })
            .collect();
        // The first BigDFT slot (4 cores) dies.
        let dead = cfg.linpack_cores.len() + cfg.specfem_cores.len();
        slots[dead] = Err("sweep task 'bigdft@4c' panicked: boom".into());
        let r = assemble_faulted(&cfg, slots);
        assert_eq!(
            r.bigdft.failed,
            vec![(4, "sweep task 'bigdft@4c' panicked: boom".to_string())]
        );
        assert_eq!(r.bigdft.baseline_cores, 16);
        let cores: Vec<u32> = r.bigdft.points.iter().map(|p| p.point.cores).collect();
        assert_eq!(cores, [16, 36]);
        let (first, last) = (&r.bigdft.points[0].point, &r.bigdft.points[1].point);
        assert_eq!(first.speedup, 16.0);
        assert_eq!(first.efficiency, 1.0);
        let expect = 16.0 * first.time.as_secs_f64() / last.time.as_secs_f64();
        assert_eq!(last.speedup, expect);
        // The other panels are untouched.
        assert!(r.linpack.failed.is_empty() && r.specfem.failed.is_empty());
        assert_eq!(r.specfem.baseline_cores, 4);
    }

    #[test]
    fn faulted_energy_charges_the_retry_surcharge() {
        let cfg = Fig3Config::quick();
        let faulted = run_faulted(&cfg, FaultConfig::light());
        let stats = faulted.total_stats();
        assert!(stats.retries > 0, "quick light run must retry");
        // total_energy = Σ nodes × nameplate × makespan (the time-only
        // accounting we had before) + the per-event surcharge.
        let node = PowerModel::tegra2_node().nameplate();
        let time_only: f64 = [&faulted.linpack, &faulted.specfem, &faulted.bigdft]
            .into_iter()
            .flat_map(|s| s.points.iter())
            .map(|p| node.watts() * f64::from(p.node_count()) * p.point.time.as_secs_f64())
            .sum();
        let surcharge = RetransmissionModel::tibidabo_gbe()
            .surcharge(stats.retries, stats.timeouts)
            .joules();
        assert!(surcharge > 0.0);
        let total = faulted.total_energy().joules();
        assert!(
            (total - time_only - surcharge).abs() < 1e-6 * total,
            "total {total} J != makespan {time_only} J + surcharge {surcharge} J"
        );
    }

    #[test]
    fn faulted_figure3_completes_degraded() {
        let r = run_faulted(&Fig3Config::quick(), FaultConfig::light());
        for s in [&r.linpack, &r.specfem, &r.bigdft] {
            assert!(s.failed.is_empty(), "faults degrade, never kill: {s:?}");
            assert!(!s.points.is_empty());
        }
        let eff = r.mean_efficiency();
        assert!(eff > 0.0 && eff <= 1.5, "mean efficiency {eff}");
        let total = r.total_stats();
        assert!(total.retries > 0, "light faults should force retries");
        assert!(total.crashed_ranks > 0, "light faults should crash a rank");
    }
}
