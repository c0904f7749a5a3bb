//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Three ablations, all on the simulated Tibidabo fabric:
//!
//! * [`collective_algorithms`] — broadcast and all-reduce algorithm
//!   choice (binomial tree vs pipelined ring) across payload sizes: the
//!   latency/bandwidth crossover that makes HPL's `1ring` broadcast the
//!   right call on commodity Ethernet (§IV / our Fig 3a modelling).
//! * [`switch_upgrade`] — the paper's proposed fix: BigDFT's makespan on
//!   commodity vs upgraded switches across core counts.
//! * [`page_policies`] — §V.A.1's allocator policies: mean bandwidth and
//!   run-to-run spread under contiguous, random and reuse-last frames.

use crate::fig3;
use crate::platform::Platform;
use mb_cluster::scaling::{FabricKind, ScalingStudy};
use mb_kernels::membench::{make_buffer, MembenchConfig};
use mb_mem::pages::{PageAllocator, PagePolicy};
use mb_mpi::comm::{Comm, CommConfig};
use mb_net::builders::tibidabo_fabric;
use mb_simcore::stats::Summary;
use mb_simcore::time::SimTime;

/// Result of one collective-algorithm comparison cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveCell {
    /// Payload bytes.
    pub bytes: u64,
    /// Binomial-tree makespan.
    pub tree: SimTime,
    /// Ring makespan.
    pub ring: SimTime,
}

impl CollectiveCell {
    /// Which algorithm wins this cell.
    pub fn ring_wins(&self) -> bool {
        self.ring < self.tree
    }
}

/// Tree-vs-ring comparison for one collective across payloads.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveAblation {
    /// `"bcast"` or `"allreduce"`.
    pub collective: String,
    /// Ranks used.
    pub ranks: u32,
    /// One cell per payload size, ascending.
    pub cells: Vec<CollectiveCell>,
}

impl CollectiveAblation {
    /// The smallest payload at which the ring wins, if any.
    pub fn crossover_bytes(&self) -> Option<u64> {
        self.cells.iter().find(|c| c.ring_wins()).map(|c| c.bytes)
    }
}

/// Compares tree and ring algorithms for broadcast and all-reduce on
/// `ranks` ranks over the commodity fabric.
///
/// # Panics
///
/// Panics if `payloads` is empty or unsorted.
pub fn collective_algorithms(ranks: u32, payloads: &[u64]) -> Vec<CollectiveAblation> {
    assert!(!payloads.is_empty(), "need at least one payload");
    assert!(
        payloads.windows(2).all(|w| w[0] < w[1]),
        "payloads must be ascending"
    );
    let nodes = ranks.div_ceil(2) as usize;
    let fresh = || Comm::new(tibidabo_fabric(nodes), CommConfig::tibidabo(ranks));
    let mut out = Vec::with_capacity(2);
    for which in ["bcast", "allreduce"] {
        let mut cells = Vec::with_capacity(payloads.len());
        for &bytes in payloads {
            let mut tree = fresh();
            let mut ring = fresh();
            match which {
                "bcast" => {
                    tree.bcast(0, bytes);
                    ring.bcast_ring(0, bytes);
                }
                _ => {
                    tree.allreduce(bytes);
                    ring.allreduce_ring(bytes);
                }
            }
            cells.push(CollectiveCell {
                bytes,
                tree: tree.max_clock(),
                ring: ring.max_clock(),
            });
        }
        out.push(CollectiveAblation {
            collective: which.to_string(),
            ranks,
            cells,
        });
    }
    out
}

/// One row of the switch-upgrade ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpgradeRow {
    /// Core count.
    pub cores: u32,
    /// BigDFT makespan on commodity switches.
    pub commodity: SimTime,
    /// BigDFT makespan with 4× bonded GbE uplinks.
    pub bonded: SimTime,
    /// BigDFT makespan on upgraded switches.
    pub upgraded: SimTime,
}

impl UpgradeRow {
    /// Relative improvement from the full upgrade, in `[0, 1)`.
    pub fn improvement(&self) -> f64 {
        1.0 - self.upgraded.as_secs_f64() / self.commodity.as_secs_f64()
    }
}

/// Runs BigDFT at each core count on the three fabrics: commodity,
/// bonded-uplink (the cheap mitigation) and fully upgraded (§IV's
/// prediction that better switches fix the collectives).
pub fn switch_upgrade(core_counts: &[u32], iterations: u32) -> Vec<UpgradeRow> {
    let w = fig3::workload(fig3::Panel::BigDft, iterations);
    // One sweep task per (core count, fabric) cell; each `execute` is a
    // pure function of its inputs, and rows are reassembled in input
    // order, so the table is bit-identical to a serial run.
    let fabrics = [
        FabricKind::Tibidabo,
        FabricKind::TibidaboBonded(4),
        FabricKind::TibidaboUpgraded,
    ];
    let tasks = core_counts
        .iter()
        .flat_map(|&cores| {
            fabrics
                .iter()
                .map(move |&fabric| (format!("bigdft@{cores}c/{fabric:?}"), (cores, fabric)))
        })
        .collect();
    let cells = mb_simcore::par::sweep(tasks, |(cores, fabric)| {
        ScalingStudy::new(fabric).execute(&w, cores, false).0
    });
    core_counts
        .iter()
        .enumerate()
        .map(|(i, &cores)| UpgradeRow {
            cores,
            commodity: cells[3 * i],
            bonded: cells[3 * i + 1],
            upgraded: cells[3 * i + 2],
        })
        .collect()
}

/// One row of the page-policy ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRow {
    /// The allocator policy.
    pub policy: PagePolicy,
    /// Mean bandwidth over the runs, GB/s.
    pub mean_gbps: f64,
    /// Coefficient of variation across runs.
    pub across_run_cv: f64,
}

/// Measures the 32 KB microbenchmark on the Snowball under each
/// allocation policy, `runs` independent runs each.
///
/// # Panics
///
/// Panics if `runs` is zero.
pub fn page_policies(runs: u32) -> Vec<PolicyRow> {
    assert!(runs > 0, "need at least one run");
    let platform = Platform::snowball();
    let size = 32 * 1024;
    let data = make_buffer(size, 0xAB1);
    let policies = [
        PagePolicy::Contiguous,
        PagePolicy::Random,
        PagePolicy::ReuseLast,
    ];
    // The (policy, run) grid is embarrassingly parallel: every run
    // builds its own allocator and executor with an explicit seed.
    let tasks = policies
        .iter()
        .flat_map(|&policy| {
            (0..runs).map(move |run| (format!("{policy:?}/run{run}"), (policy, run)))
        })
        .collect();
    let bandwidths = mb_simcore::par::sweep(tasks, |(policy, run)| {
        let mut allocator = PageAllocator::new(policy, 4096, 1 << 18, 0xAB2 + run as u64);
        let table = allocator.allocate(size);
        let mut exec = platform.exec(1);
        exec.set_page_table(Some(table));
        exec.set_mlp_hint(1);
        exec.set_prefetch_hint(0.2);
        let mb = MembenchConfig {
            sweeps: 6,
            ..MembenchConfig::figure5(size)
        };
        let (accesses, _) = mb_kernels::membench::run(&mb, &data, &mut exec);
        let report = exec.finish();
        accesses as f64 * 4.0 / report.time.as_secs_f64() / 1e9
    });
    policies
        .iter()
        .enumerate()
        .map(|(i, &policy)| {
            let means = &bandwidths[i * runs as usize..(i + 1) * runs as usize];
            let s = Summary::from_samples(means.iter().copied());
            PolicyRow {
                policy,
                mean_gbps: s.mean(),
                across_run_cv: s.cv(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collectives_cross_over() {
        let ablations = collective_algorithms(16, &[64, 64 * 1024, 4 << 20]);
        for a in &ablations {
            // Tree wins the latency-bound end…
            assert!(
                !a.cells[0].ring_wins(),
                "{}: tree should win at 64 B",
                a.collective
            );
            // …ring wins the bandwidth-bound end.
            assert!(
                a.cells.last().expect("cells").ring_wins(),
                "{}: ring should win at 4 MB",
                a.collective
            );
            assert!(a.crossover_bytes().is_some());
        }
    }

    #[test]
    fn switch_upgrade_always_helps_bigdft() {
        let rows = switch_upgrade(&[16, 36], 2);
        for r in &rows {
            assert!(
                r.improvement() > 0.0,
                "{} cores: upgrade must help",
                r.cores
            );
            // The full upgrade dominates mere bonding.
            assert!(
                r.upgraded <= r.bonded,
                "{} cores: upgrade should beat bonding",
                r.cores
            );
        }
        // And it helps more (or at least comparably) at scale.
        assert!(rows[1].improvement() > 0.02);
        // Bonding alone is near-neutral: the constraint is switch
        // behaviour, not uplink width — so the full upgrade beats it.
        let bonding = 1.0 - rows[1].bonded.as_secs_f64() / rows[1].commodity.as_secs_f64();
        assert!(rows[1].improvement() > bonding);
        assert!(bonding.abs() < 0.10);
    }

    #[test]
    fn page_policy_ordering() {
        let rows = page_policies(8);
        let get = |p: PagePolicy| rows.iter().find(|r| r.policy == p).expect("row present");
        let contiguous = get(PagePolicy::Contiguous);
        let random = get(PagePolicy::Random);
        // Contiguous frames: fastest and perfectly reproducible.
        assert!(contiguous.mean_gbps >= random.mean_gbps);
        assert!(contiguous.across_run_cv < 1e-9);
        // Random frames: visible run-to-run spread (the §V.A.1 story).
        assert!(random.across_run_cv > 0.01, "cv {}", random.across_run_cv);
    }
}
