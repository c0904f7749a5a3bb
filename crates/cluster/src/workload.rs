//! Application skeletons: the compute/communicate structure of the
//! paper's codes, parameterised by problem size.
//!
//! A [`Workload`] describes one outer iteration as a sequence of
//! [`Phase`]s — a per-rank compute load (flops) followed by a
//! communication pattern. The skeletons are faithful to the real codes'
//! dominant structure:
//!
//! * **LINPACK/HPL** — right-looking LU: per panel, factorise + broadcast
//!   the panel, then update the (shrinking) trailing matrix;
//! * **SPECFEM** — explicit time stepping: per step, element kernels and
//!   a nearest-neighbour halo exchange (the pattern behind its excellent
//!   scaling, Figure 3b);
//! * **BigDFT** — per SCF iteration, several 3-D convolutions, each
//!   requiring `all_to_all_v` transpositions of the distributed grid
//!   (the pattern that melts down on commodity switches, Figures 3c/4).

/// A communication pattern closing one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommPattern {
    /// No communication.
    None,
    /// Broadcast `bytes` from `root`.
    Bcast {
        /// Broadcast root rank.
        root: u32,
        /// Payload size.
        bytes: u64,
    },
    /// Each rank exchanges `bytes` with its linear neighbours
    /// (rank ± 1).
    HaloExchange {
        /// Per-neighbour payload.
        bytes: u64,
    },
    /// Vector all-to-all: every pair exchanges `per_pair_bytes`.
    AllToAllV {
        /// Payload per (src, dst) pair.
        per_pair_bytes: u64,
    },
    /// All-reduce of `bytes`.
    Allreduce {
        /// Payload size.
        bytes: u64,
    },
}

/// One phase of an iteration: compute then communicate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Floating-point work per rank in this phase.
    pub flops_per_rank: f64,
    /// The communication closing the phase.
    pub comm: CommPattern,
}

/// Which application skeleton a [`Workload`] instantiates.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AppKind {
    /// HPL: `n` matrix order, `nb` panel width.
    Linpack { n: u64, nb: u64 },
    /// SPECFEM: element count, flops per element per step, halo bytes.
    Specfem {
        elements: u64,
        flops_per_element: f64,
        halo_bytes: u64,
    },
    /// BigDFT: grid points, flops per point, transposes per iteration.
    BigDft {
        grid_points: u64,
        flops_per_point: f64,
        transposes: u32,
    },
}

/// An application skeleton ready to run at any rank count.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Display name.
    pub name: String,
    kind: AppKind,
    /// Outer iterations (panels for HPL, time steps for SPECFEM, SCF
    /// iterations for BigDFT).
    pub iterations: u32,
    /// Effective per-core double-precision rate on the cluster's nodes,
    /// in GFLOPS (measured on the Tegra2 model by the experiment layer).
    pub core_gflops: f64,
    /// Smallest rank count the instance fits on (SPECFEM's Table II
    /// instance "cannot be run on less than 2 nodes", §IV).
    pub min_ranks: u32,
}

impl Workload {
    /// The HPL instance of the Figure 3a study: a matrix sized for the
    /// cluster's aggregate memory (N = 32 768 ≈ 8.6 GB).
    pub fn linpack_tibidabo() -> Self {
        Workload {
            name: "LINPACK (HPL)".to_string(),
            kind: AppKind::Linpack { n: 32_768, nb: 256 },
            iterations: 32_768 / 256,
            core_gflops: 0.25,
            min_ranks: 1,
        }
    }

    /// The SPECFEM instance of Figure 3b: scales to ~192 cores with
    /// nearest-neighbour halos; needs at least 4 cores (2 nodes).
    pub fn specfem_tibidabo() -> Self {
        Workload {
            name: "SPECFEM3D".to_string(),
            kind: AppKind::Specfem {
                elements: 16_384,
                flops_per_element: 20_000.0,
                halo_bytes: 8 * 1024,
            },
            iterations: 30,
            core_gflops: 0.25,
            min_ranks: 4,
        }
    }

    /// The BigDFT instance of Figure 3c: `all_to_all_v` transpositions of
    /// a 128³ grid dominate past a few nodes.
    pub fn bigdft_tibidabo() -> Self {
        Workload {
            name: "BigDFT".to_string(),
            kind: AppKind::BigDft {
                grid_points: 128 * 128 * 128,
                flops_per_point: 1_000.0,
                transposes: 6,
            },
            iterations: 6,
            core_gflops: 0.25,
            min_ranks: 1,
        }
    }

    /// Overrides the effective per-core rate (e.g. with a value measured
    /// by `mb-cpu` on the matching machine model), builder-style.
    ///
    /// # Panics
    ///
    /// Panics if `gflops` is not positive.
    pub fn with_core_gflops(mut self, gflops: f64) -> Self {
        assert!(gflops > 0.0, "core rate must be positive");
        self.core_gflops = gflops;
        self
    }

    /// Shrinks or grows the iteration count (e.g. to shorten test runs),
    /// builder-style.
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is zero.
    pub fn with_iterations(mut self, iterations: u32) -> Self {
        assert!(iterations > 0, "need at least one iteration");
        self.iterations = iterations;
        self
    }

    /// The phases of iteration `iter` when running on `ranks` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `ranks` is below [`Workload::min_ranks`] or `iter` is
    /// out of range.
    pub fn phases(&self, ranks: u32, iter: u32) -> Vec<Phase> {
        assert!(
            ranks >= self.min_ranks,
            "{} needs at least {} ranks",
            self.name,
            self.min_ranks
        );
        assert!(iter < self.iterations, "iteration out of range");
        match self.kind {
            AppKind::Linpack { n, nb } => {
                let trailing = n - u64::from(iter) * nb;
                // Panel factorisation is HPL's critical-path bottleneck:
                // only one process *column* (≈ √p ranks of the 2-D grid)
                // works on it while the rest wait at the broadcast.
                let panel_flops = (nb * nb * trailing) as f64 / (ranks as f64).sqrt();
                let update_flops = 2.0 * (nb as f64) * (trailing as f64).powi(2) / ranks as f64;
                vec![
                    Phase {
                        flops_per_rank: panel_flops,
                        comm: CommPattern::Bcast {
                            root: iter % ranks,
                            bytes: nb * trailing * 8,
                        },
                    },
                    Phase {
                        flops_per_rank: update_flops,
                        comm: CommPattern::None,
                    },
                ]
            }
            AppKind::Specfem {
                elements,
                flops_per_element,
                halo_bytes,
            } => vec![Phase {
                flops_per_rank: elements as f64 * flops_per_element / ranks as f64,
                comm: CommPattern::HaloExchange { bytes: halo_bytes },
            }],
            AppKind::BigDft {
                grid_points,
                flops_per_point,
                transposes,
            } => {
                let compute = grid_points as f64 * flops_per_point / ranks as f64;
                let per_pair = (grid_points * 8) / (ranks as u64 * ranks as u64);
                let mut phases = Vec::with_capacity(transposes as usize + 1);
                for _ in 0..transposes {
                    phases.push(Phase {
                        flops_per_rank: compute / transposes as f64,
                        comm: CommPattern::AllToAllV {
                            per_pair_bytes: per_pair.max(1),
                        },
                    });
                }
                phases.push(Phase {
                    flops_per_rank: 0.0,
                    comm: CommPattern::Allreduce { bytes: 4096 },
                });
                phases
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linpack_flops_sum_to_lu_count() {
        let w = Workload::linpack_tibidabo();
        let mut total = 0.0;
        for it in 0..w.iterations {
            for p in w.phases(1, it) {
                total += p.flops_per_rank;
            }
        }
        let n = 32_768f64;
        let nominal = 2.0 / 3.0 * n.powi(3);
        let ratio = total / nominal;
        assert!(
            (0.9..1.6).contains(&ratio),
            "skeleton flops {total:.3e} vs LU nominal {nominal:.3e}"
        );
    }

    #[test]
    fn linpack_panels_shrink() {
        let w = Workload::linpack_tibidabo();
        let first = &w.phases(4, 0)[1];
        let last = &w.phases(4, w.iterations - 1)[1];
        assert!(first.flops_per_rank > 10.0 * last.flops_per_rank);
        // Broadcast bytes shrink too.
        let b0 = match w.phases(4, 0)[0].comm {
            CommPattern::Bcast { bytes, .. } => bytes,
            _ => panic!("expected bcast"),
        };
        let b_last = match w.phases(4, w.iterations - 1)[0].comm {
            CommPattern::Bcast { bytes, .. } => bytes,
            _ => panic!("expected bcast"),
        };
        assert!(b0 > b_last);
    }

    #[test]
    fn bcast_root_rotates() {
        let w = Workload::linpack_tibidabo();
        let roots: Vec<u32> = (0..4)
            .map(|it| match w.phases(4, it)[0].comm {
                CommPattern::Bcast { root, .. } => root,
                _ => panic!("expected bcast"),
            })
            .collect();
        assert_eq!(roots, vec![0, 1, 2, 3]);
    }

    #[test]
    fn specfem_work_divides_evenly() {
        let w = Workload::specfem_tibidabo();
        let p4 = w.phases(4, 0)[0].flops_per_rank;
        let p8 = w.phases(8, 0)[0].flops_per_rank;
        assert!((p4 / p8 - 2.0).abs() < 1e-9);
        assert!(matches!(
            w.phases(4, 0)[0].comm,
            CommPattern::HaloExchange { .. }
        ));
    }

    #[test]
    fn bigdft_alltoallv_pairs_shrink_with_ranks() {
        let w = Workload::bigdft_tibidabo();
        let get = |ranks: u32| match w.phases(ranks, 0)[0].comm {
            CommPattern::AllToAllV { per_pair_bytes } => per_pair_bytes,
            _ => panic!("expected alltoallv"),
        };
        // Total volume per transpose is constant: pairs × per_pair.
        let v4 = get(4) * 4 * 4;
        let v16 = get(16) * 16 * 16;
        assert_eq!(v4, v16);
    }

    #[test]
    fn specfem_min_ranks_enforced() {
        let w = Workload::specfem_tibidabo();
        assert_eq!(w.min_ranks, 4);
    }

    #[test]
    #[should_panic(expected = "needs at least")]
    fn below_min_ranks_panics() {
        let w = Workload::specfem_tibidabo();
        let _ = w.phases(2, 0);
    }

    #[test]
    fn builders_validate() {
        let w = Workload::bigdft_tibidabo()
            .with_core_gflops(0.5)
            .with_iterations(2);
        assert_eq!(w.core_gflops, 0.5);
        assert_eq!(w.iterations, 2);
    }

    #[test]
    #[should_panic(expected = "core rate must be positive")]
    fn zero_rate_panics() {
        let _ = Workload::bigdft_tibidabo().with_core_gflops(0.0);
    }
}
