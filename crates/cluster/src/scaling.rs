//! The strong-scaling runner (Figure 3) and traced runs (Figure 4).

use crate::workload::{CommPattern, Workload};
use mb_energy::{Energy, Power, RetransmissionModel};
use mb_faults::{FaultConfig, FaultPlan};
use mb_mpi::comm::{Comm, CommConfig};
use mb_mpi::resilience::{ResilienceStats, RetryPolicy};
use mb_net::builders::{tibidabo_fabric, tibidabo_fabric_bonded, tibidabo_fabric_upgraded};
use mb_net::fabric::Fabric;
use mb_simcore::rng::{Rng, Xoshiro256};
use mb_simcore::time::SimTime;
use mb_trace::trace::Trace;

/// Salt mixed into the study seed when deriving per-point fault-plan
/// seeds, so fault draws never correlate with fabric or jitter streams.
const FAULT_SEED_SALT: u64 = 0xFA17_5EED_0000_0001;

/// Which fabric to run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricKind {
    /// The commodity GbE Tibidabo fabric (shallow buffers, hiccups).
    Tibidabo,
    /// Commodity switches with `n`-wide 802.3ad-bonded uplinks — the
    /// cheap mitigation short of replacing the switches.
    TibidaboBonded(u32),
    /// The upgraded-switch variant (§IV's proposed fix).
    TibidaboUpgraded,
}

impl FabricKind {
    fn build(self, nodes: usize, seed: u64) -> Fabric {
        match self {
            FabricKind::Tibidabo => tibidabo_fabric(nodes).with_seed(seed),
            FabricKind::TibidaboBonded(n) => tibidabo_fabric_bonded(nodes, n).with_seed(seed),
            FabricKind::TibidaboUpgraded => tibidabo_fabric_upgraded(nodes).with_seed(seed),
        }
    }
}

/// One measured point of a scaling study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Core (rank) count.
    pub cores: u32,
    /// Simulated wall-clock of the whole run.
    pub time: SimTime,
    /// Speedup relative to the study's baseline (normalised so the
    /// baseline point has speedup = its own core count, matching the
    /// paper's "Ideal" diagonal).
    pub speedup: f64,
    /// Parallel efficiency `speedup / cores`.
    pub efficiency: f64,
}

/// A scaling series for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingSeries {
    /// Workload name.
    pub name: String,
    /// Baseline core count the speedups are normalised to.
    pub baseline_cores: u32,
    /// Measured points, in core-count order.
    pub points: Vec<ScalingPoint>,
}

impl ScalingPoint {
    /// The point measured at `cores` in `time`; its speedup and
    /// efficiency are set when it joins a series.
    pub fn measured(cores: u32, time: SimTime) -> ScalingPoint {
        ScalingPoint {
            cores,
            time,
            speedup: 0.0,
            efficiency: 0.0,
        }
    }
}

/// The one speedup normalisation of every scaling series: the first
/// point sits on the ideal diagonal (speedup = its own core count),
/// exactly how the paper normalises SPECFEM "versus a 4 core run".
///
/// # Panics
///
/// Panics unless the core counts are strictly increasing.
fn normalise<'a>(points: impl IntoIterator<Item = &'a mut ScalingPoint>) {
    let mut baseline = None;
    let mut previous = None;
    for p in points {
        assert!(
            previous < Some(p.cores),
            "core counts must be strictly increasing"
        );
        previous = Some(p.cores);
        let (baseline_cores, baseline_time) = *baseline.get_or_insert((p.cores, p.time));
        p.speedup = baseline_cores as f64 * baseline_time.as_secs_f64() / p.time.as_secs_f64();
        p.efficiency = p.speedup / p.cores as f64;
    }
}

impl ScalingSeries {
    /// Builds a series from its [`ScalingPoint::measured`] points, in
    /// core-count order, speedups normalised to the first.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or its core counts are not strictly
    /// increasing.
    pub fn new(name: String, mut points: Vec<ScalingPoint>) -> ScalingSeries {
        normalise(points.iter_mut());
        ScalingSeries {
            name,
            baseline_cores: points.first().expect("need at least one point").cores,
            points,
        }
    }

    /// The point measured at `cores`, if any.
    pub fn at(&self, cores: u32) -> Option<&ScalingPoint> {
        self.points.iter().find(|p| p.cores == cores)
    }
}

/// Everything one [`ScalingStudy::execute_outcome`] run produced:
/// makespan, trace, and how degraded the run was.
#[derive(Debug)]
pub struct ScalingOutcome {
    /// Simulated wall-clock of the whole run.
    pub time: SimTime,
    /// Execution trace (empty unless tracing was requested).
    pub trace: Trace,
    /// Retry/timeout/crash counters (all zero on a healthy run).
    pub stats: ResilienceStats,
    /// Ranks still alive at the end of the run.
    pub surviving_ranks: u32,
}

/// One point of a fault-injected scaling study: the usual scaling
/// numbers plus the degradation record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilientPoint {
    /// The scaling measurement (time, speedup, efficiency).
    pub point: ScalingPoint,
    /// Retry/timeout/crash counters for this point.
    pub stats: ResilienceStats,
    /// Ranks still alive at the end of the run.
    pub surviving_ranks: u32,
}

impl ResilientPoint {
    /// Nodes the run occupied (Tibidabo packs two ranks per node).
    pub fn node_count(&self) -> u32 {
        self.point.cores.div_ceil(2)
    }

    /// Energy to solution of this point: every occupied node at
    /// `node_power` for the (degraded) makespan, plus the
    /// retransmission surcharge for the retries and timeouts the run
    /// recorded. The makespan term already prices the *time* cost of
    /// faults; `retrans` prices the wire activity that time-only
    /// accounting misses.
    pub fn energy(&self, node_power: Power, retrans: &RetransmissionModel) -> Energy {
        let cluster = Power::from_watts(node_power.watts() * f64::from(self.node_count()));
        cluster.over(self.point.time) + retrans.surcharge(self.stats.retries, self.stats.timeouts)
    }
}

/// A degraded-but-completed scaling series: points that finished (with
/// their resilience counters) plus any points whose task died outright.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientSeries {
    /// Workload name.
    pub name: String,
    /// Core count the speedups are normalised to — the smallest core
    /// count whose point completed.
    pub baseline_cores: u32,
    /// Completed points, in core-count order.
    pub points: Vec<ResilientPoint>,
    /// Points whose sweep task failed: `(cores, error message)`.
    pub failed: Vec<(u32, String)>,
}

/// How one point of a fault-injected sweep ended: its makespan,
/// resilience counters and surviving ranks, or the error message of a
/// task that died outright.
pub type PointOutcome = Result<(SimTime, ResilienceStats, u32), String>;

impl ResilientSeries {
    /// Builds a series from one outcome per core count, in core-count
    /// order. Completed points are normalised to the first *completed*
    /// one; when none completed, the baseline is the first core count.
    ///
    /// # Panics
    ///
    /// Panics if the completed points' core counts are not strictly
    /// increasing.
    pub fn from_outcomes(name: String, outcomes: Vec<(u32, PointOutcome)>) -> ResilientSeries {
        let first_cores = outcomes.first().map_or(0, |&(cores, _)| cores);
        let mut points = Vec::new();
        let mut failed = Vec::new();
        for (cores, outcome) in outcomes {
            match outcome {
                Ok((time, stats, surviving_ranks)) => points.push(ResilientPoint {
                    point: ScalingPoint::measured(cores, time),
                    stats,
                    surviving_ranks,
                }),
                Err(e) => failed.push((cores, e)),
            }
        }
        normalise(points.iter_mut().map(|p| &mut p.point));
        ResilientSeries {
            name,
            baseline_cores: points.first().map_or(first_cores, |p| p.point.cores),
            points,
            failed,
        }
    }

    /// Summed [`ResilientPoint::energy`] over every completed point.
    pub fn total_energy(&self, node_power: Power, retrans: &RetransmissionModel) -> Energy {
        self.points.iter().fold(Energy::default(), |acc, p| {
            acc + p.energy(node_power, retrans)
        })
    }
}

/// Runs strong-scaling studies on a simulated cluster.
///
/// Per-rank compute times carry a small seeded imbalance (±1.5 %), as on
/// any real machine; collectives therefore always wait for a slightly
/// late rank.
#[derive(Debug, Clone, Copy)]
pub struct ScalingStudy {
    fabric: FabricKind,
    seed: u64,
    imbalance: f64,
    faults: FaultConfig,
}

impl ScalingStudy {
    /// Creates a study on the given fabric.
    pub fn new(fabric: FabricKind) -> Self {
        ScalingStudy {
            fabric,
            seed: 0x5CA1E,
            imbalance: 0.015,
            faults: FaultConfig::none(),
        }
    }

    /// Re-seeds the study, builder-style.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Injects faults, builder-style: every point draws a deterministic
    /// [`FaultPlan`] from the study seed, its core count and its fabric,
    /// and its communicator reacts to it ([`Comm::resilient`]). A
    /// zero-rate config (the default) draws the empty plan, under which
    /// the run is the fault-free one.
    pub fn with_faults(mut self, config: FaultConfig) -> Self {
        self.faults = config;
        self
    }

    /// The fabric every run at `ranks` cores is built on.
    fn fabric(&self, ranks: u32) -> Fabric {
        self.fabric
            .build(ranks.div_ceil(2) as usize, self.seed ^ u64::from(ranks))
    }

    /// The plan the study's fault config draws for a run at `ranks`
    /// cores on `fabric`.
    fn plan_on(&self, fabric: &Fabric, ranks: u32) -> FaultPlan {
        let topo = fabric.network().fault_topology(ranks);
        FaultPlan::generate(
            self.seed ^ FAULT_SEED_SALT ^ u64::from(ranks),
            &self.faults,
            &topo,
        )
    }

    /// Executes `workload` on `ranks` cores; returns the simulated time
    /// and, if `traced`, the execution trace.
    ///
    /// # Panics
    ///
    /// Panics if `ranks < workload.min_ranks`.
    pub fn execute(&self, workload: &Workload, ranks: u32, traced: bool) -> (SimTime, Trace) {
        let out = self.execute_outcome(workload, ranks, traced);
        (out.time, out.trace)
    }

    /// Like [`Self::execute`] but also reports how degraded the run was.
    /// With faults configured the run completes on the survivors instead
    /// of dying: crashed ranks drop out, collectives shrink, dropped
    /// messages retry with backoff.
    ///
    /// # Panics
    ///
    /// Panics if `ranks < workload.min_ranks`.
    pub fn execute_outcome(&self, workload: &Workload, ranks: u32, traced: bool) -> ScalingOutcome {
        assert!(
            ranks >= workload.min_ranks,
            "{} needs at least {} ranks",
            workload.name,
            workload.min_ranks
        );
        let fabric = self.fabric(ranks);
        let plan = self.plan_on(&fabric, ranks);
        let mut cfg = CommConfig::tibidabo(ranks);
        cfg.tracing = traced;
        let mut comm = match Comm::resilient(fabric, cfg, plan, RetryPolicy::tibidabo()) {
            Ok(comm) => comm,
            Err(e) => panic!("{e}"),
        };
        let mut rng = Xoshiro256::seed_from(self.seed ^ 0xB0B ^ u64::from(ranks));
        let rate = workload.core_gflops * 1e9;
        for iter in 0..workload.iterations {
            for phase in workload.phases(ranks, iter) {
                if phase.flops_per_rank > 0.0 {
                    let nominal = phase.flops_per_rank / rate;
                    for r in 0..ranks {
                        let jitter = 1.0 + self.imbalance * (2.0 * rng.next_f64() - 1.0);
                        comm.compute(r, SimTime::from_secs_f64(nominal * jitter));
                    }
                }
                match phase.comm {
                    CommPattern::None => {}
                    // HPL broadcasts panels with its 1-ring algorithm.
                    CommPattern::Bcast { root, bytes } => comm.bcast_ring(root, bytes),
                    CommPattern::HaloExchange { bytes } => {
                        let mut msgs = Vec::with_capacity(2 * ranks as usize);
                        for r in 0..ranks {
                            if r + 1 < ranks {
                                msgs.push((r, r + 1, bytes));
                            }
                            if r > 0 {
                                msgs.push((r, r - 1, bytes));
                            }
                        }
                        comm.exchange(&msgs);
                    }
                    CommPattern::AllToAllV { per_pair_bytes } => {
                        let m = vec![vec![per_pair_bytes; ranks as usize]; ranks as usize];
                        comm.alltoallv(&m);
                    }
                    CommPattern::Allreduce { bytes } => comm.allreduce(bytes),
                }
            }
        }
        let time = comm.max_clock();
        let stats = comm.resilience_stats();
        let surviving_ranks = comm.surviving_ranks();
        ScalingOutcome {
            time,
            trace: comm.into_trace(),
            stats,
            surviving_ranks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `workload`'s series over `counts`, one sweep task per point.
    fn series(study: &ScalingStudy, workload: &Workload, counts: &[u32]) -> ScalingSeries {
        let tasks = counts.iter().map(|&c| (format!("{c}c"), c)).collect();
        let points = mb_simcore::par::sweep(tasks, |cores| {
            ScalingPoint::measured(cores, study.execute(workload, cores, false).0)
        });
        ScalingSeries::new(workload.name.clone(), points)
    }

    /// `workload`'s degraded-but-completed series over `counts`: each
    /// point runs in a contained sweep task, so a point that panics
    /// lands in [`ResilientSeries::failed`].
    fn resilient_series(
        study: &ScalingStudy,
        workload: &Workload,
        counts: &[u32],
    ) -> ResilientSeries {
        let tasks = counts.iter().map(|&c| (format!("{c}c"), c)).collect();
        let slots = mb_simcore::par::sweep_contained(tasks, |cores| {
            let out = study.execute_outcome(workload, cores, false);
            (out.time, out.stats, out.surviving_ranks)
        });
        let outcomes = counts
            .iter()
            .copied()
            .zip(
                slots
                    .into_iter()
                    .map(|slot| slot.map_err(|e| e.to_string())),
            )
            .collect();
        ResilientSeries::from_outcomes(workload.name.clone(), outcomes)
    }

    #[test]
    fn specfem_scales_excellently() {
        let study = ScalingStudy::new(FabricKind::Tibidabo);
        let w = Workload::specfem_tibidabo().with_iterations(10);
        let s = series(&study, &w, &[4, 16, 64, 192]);
        let last = s.at(192).expect("ran at 192");
        assert!(
            last.efficiency > 0.8,
            "SPECFEM efficiency at 192 cores: {}",
            last.efficiency
        );
        // Monotone speedup.
        assert!(s.points.windows(2).all(|w| w[1].speedup > w[0].speedup));
    }

    #[test]
    fn linpack_scales_acceptably() {
        let study = ScalingStudy::new(FabricKind::Tibidabo);
        let w = Workload::linpack_tibidabo();
        let s = series(&study, &w, &[8, 32, 104]);
        let last = s.at(104).expect("ran at 104");
        assert!(
            (0.55..0.95).contains(&last.efficiency),
            "LINPACK efficiency at 104 cores: {}",
            last.efficiency
        );
        assert!(s.at(32).expect("ran").efficiency > last.efficiency);
    }

    #[test]
    fn bigdft_efficiency_collapses() {
        let study = ScalingStudy::new(FabricKind::Tibidabo);
        let w = Workload::bigdft_tibidabo();
        let s = series(&study, &w, &[4, 16, 36]);
        let small = s.at(4).expect("ran at 4");
        let large = s.at(36).expect("ran at 36");
        assert!(small.efficiency > 0.7, "4-core eff {}", small.efficiency);
        assert!(
            large.efficiency < 0.55,
            "36-core efficiency should collapse: {}",
            large.efficiency
        );
    }

    #[test]
    fn upgraded_fabric_helps_bigdft() {
        let w = Workload::bigdft_tibidabo();
        let slow = ScalingStudy::new(FabricKind::Tibidabo)
            .execute(&w, 36, false)
            .0;
        let bonded = ScalingStudy::new(FabricKind::TibidaboBonded(4))
            .execute(&w, 36, false)
            .0;
        let fast = ScalingStudy::new(FabricKind::TibidaboUpgraded)
            .execute(&w, 36, false)
            .0;
        // Bonding the uplinks barely moves BigDFT: the pathology is the
        // commodity switches' behaviour (shallow buffers, hiccups), not
        // raw uplink bandwidth — consistent with the paper proposing a
        // switch *replacement* rather than extra links.
        let rel = (bonded.as_secs_f64() - slow.as_secs_f64()).abs() / slow.as_secs_f64();
        assert!(
            rel < 0.10,
            "bonding should be near-neutral: {bonded} vs {slow}"
        );
        assert!(fast < slow, "upgraded {fast} vs commodity {slow}");
        assert!(fast < bonded, "upgraded {fast} vs bonded {bonded}");
    }

    #[test]
    fn traced_run_produces_comms() {
        let study = ScalingStudy::new(FabricKind::Tibidabo);
        let w = Workload::bigdft_tibidabo().with_iterations(2);
        let (_, trace) = study.execute(&w, 8, true);
        assert!(!trace.comms().is_empty());
        assert!(!trace.states().is_empty());
    }

    #[test]
    fn untraced_run_is_lean() {
        let study = ScalingStudy::new(FabricKind::Tibidabo);
        let w = Workload::bigdft_tibidabo().with_iterations(1);
        let (_, trace) = study.execute(&w, 4, false);
        assert!(trace.comms().is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let w = Workload::specfem_tibidabo().with_iterations(3);
        let a = ScalingStudy::new(FabricKind::Tibidabo)
            .execute(&w, 8, false)
            .0;
        let b = ScalingStudy::new(FabricKind::Tibidabo)
            .execute(&w, 8, false)
            .0;
        assert_eq!(a, b);
        let c = ScalingStudy::new(FabricKind::Tibidabo)
            .with_seed(99)
            .execute(&w, 8, false)
            .0;
        assert_ne!(a, c, "different seed, different jitter");
    }

    #[test]
    fn parallel_series_matches_serial() {
        let study = ScalingStudy::new(FabricKind::Tibidabo);
        let w = Workload::specfem_tibidabo().with_iterations(4);
        let counts = [4u32, 8, 16, 32];
        let parallel = mb_simcore::par::with_threads(4, || series(&study, &w, &counts));
        let serial = mb_simcore::par::with_threads(1, || series(&study, &w, &counts));
        assert_eq!(parallel, serial);
    }

    #[test]
    #[should_panic(expected = "core counts must be strictly increasing")]
    fn unsorted_counts_panic() {
        let t = SimTime::from_millis(1);
        let _ = ScalingSeries::new(
            "BigDFT".into(),
            vec![ScalingPoint::measured(8, t), ScalingPoint::measured(4, t)],
        );
    }

    #[test]
    fn crashes_degrade_but_complete() {
        let mut cfg = FaultConfig::none();
        cfg.rank_crash_probability = 1.0;
        // Crash times are uniform in the horizon; keep it tiny so every
        // non-root rank dies within the run's first compute phase.
        cfg.horizon = SimTime::from_micros(100);
        let study = ScalingStudy::new(FabricKind::Tibidabo).with_faults(cfg);
        let w = Workload::specfem_tibidabo().with_iterations(5);
        let out = study.execute_outcome(&w, 8, false);
        assert!(
            out.surviving_ranks < 8,
            "survivors: {}",
            out.surviving_ranks
        );
        assert!(out.surviving_ranks >= 1, "rank 0 never crashes");
        assert_eq!(out.stats.crashed_ranks, 8 - out.surviving_ranks);
        assert!(out.stats.skipped_messages > 0);
        assert!(out.time > SimTime::ZERO);
    }

    #[test]
    fn faulted_series_is_deterministic_at_any_worker_count() {
        let study = ScalingStudy::new(FabricKind::Tibidabo).with_faults(FaultConfig::light());
        let w = Workload::specfem_tibidabo().with_iterations(3);
        let counts = [4u32, 8, 16];
        let parallel = mb_simcore::par::with_threads(4, || resilient_series(&study, &w, &counts));
        let serial = mb_simcore::par::with_threads(1, || resilient_series(&study, &w, &counts));
        assert_eq!(parallel, serial);
        assert!(parallel.failed.is_empty());
        assert_eq!(parallel.points.len(), 3);
    }

    #[test]
    fn faulted_energy_charges_retransmissions() {
        // BigDFT's alltoallv traffic crosses the switch drop windows
        // reliably even at small core counts, so light faults are
        // guaranteed to force retries here.
        let w = Workload::bigdft_tibidabo().with_iterations(4);
        let counts = [4u32, 16, 36];
        let node = Power::from_watts(8.5);
        let retrans = RetransmissionModel::tibidabo_gbe();
        // Charging no per-event energy reproduces the old time-only
        // accounting; the ROADMAP gap is exactly the difference.
        let time_only = RetransmissionModel {
            per_retry: Energy::default(),
            per_timeout: Energy::default(),
        };
        let faulted = resilient_series(
            &ScalingStudy::new(FabricKind::Tibidabo).with_faults(FaultConfig::light()),
            &w,
            &counts,
        );
        let retries = faulted.points.iter().map(|p| p.stats.retries).sum();
        assert!(retries > 0, "light faults must retry");
        let e_with = faulted.total_energy(node, &retrans);
        let e_without = faulted.total_energy(node, &time_only);
        let surcharge = retrans.surcharge(
            retries,
            faulted.points.iter().map(|p| p.stats.timeouts).sum(),
        );
        assert!(surcharge.joules() > 0.0);
        assert!(
            (e_with.joules() - e_without.joules() - surcharge.joules()).abs() < 1e-9,
            "retransmissions must be charged on top of makespan energy: \
             {e_with} vs {e_without} (+{surcharge})"
        );
        // Zero counters ⇒ the surcharge term vanishes and energy is pure
        // nameplate-power × makespan × nodes.
        let clean = resilient_series(
            &ScalingStudy::new(FabricKind::Tibidabo).with_faults(FaultConfig::none()),
            &w,
            &counts,
        );
        let p0 = &clean.points[0];
        let expect =
            Power::from_watts(node.watts() * f64::from(p0.node_count())).over(p0.point.time);
        assert_eq!(p0.energy(node, &retrans), expect);
    }

    #[test]
    fn fault_plan_replays_identically() {
        let plan = |study: ScalingStudy| study.plan_on(&study.fabric(16), 16);
        let study = ScalingStudy::new(FabricKind::Tibidabo).with_faults(FaultConfig::light());
        assert_eq!(plan(study), plan(study));
        assert!(plan(ScalingStudy::new(FabricKind::Tibidabo)).is_empty());
    }

    #[test]
    fn resilient_run_contains_poisoned_points() {
        let study = ScalingStudy::new(FabricKind::Tibidabo);
        let w = Workload::specfem_tibidabo().with_iterations(1);
        // 2 cores is below SPECFEM's minimum: that task panics, is
        // contained, and the rest of the series still completes.
        let s = resilient_series(&study, &w, &[2, 4, 16]);
        assert_eq!(s.failed.len(), 1);
        assert_eq!(s.failed[0].0, 2);
        assert!(
            s.failed[0].1.contains("needs at least"),
            "{}",
            s.failed[0].1
        );
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.baseline_cores, 4);
        assert_eq!(s.points[1].point.cores, 16);
        assert!(s.points[1].point.speedup > 1.0);
    }
}
