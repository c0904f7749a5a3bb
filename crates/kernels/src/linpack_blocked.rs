//! Blocked (HPL-style) LU factorisation.
//!
//! The paper's LINPACK numbers on the Xeon come from code "optimized for
//! Intel architecture" — in practice a *blocked* right-looking LU whose
//! trailing update is a cache-resident matrix–matrix product, unlike the
//! reference `dgefa`'s rank-1 sweeps. This module implements that
//! variant: panel factorisation (unblocked, with partial pivoting),
//! a triangular solve for the row panel, and a tiled GEMM update.
//!
//! It exists for the cache-blocking ablation: the same matrix, the same
//! flops, but far fewer memory misses — the difference between LINPACK
//! and HPL efficiency on both machines.

use crate::linpack::{column, daxpy, row_swap, CMP, FMA, FMA2};
use mb_cpu::ops::{Exec, FlopKind, Precision, Stream};
use mb_simcore::rng::{Rng, Xoshiro256};

/// A blocked LU instance.
#[derive(Debug, Clone)]
pub struct BlockedLu {
    n: usize,
    nb: usize,
    a: Vec<f64>,
    a0: Vec<f64>,
    b0: Vec<f64>,
    x_rhs: Vec<f64>,
    pivots: Vec<usize>,
    factorized: bool,
}

impl BlockedLu {
    /// Creates an `n × n` instance with panel width `nb` (entries match
    /// [`Linpack::new`](crate::linpack::Linpack::new)'s generator for
    /// the same seed, so the two variants factorise the *same* matrix).
    ///
    /// # Panics
    ///
    /// Panics if `n` or `nb` is zero or `nb > n`.
    pub fn new(n: usize, nb: usize, seed: u64) -> Self {
        assert!(n > 0, "matrix order must be positive");
        assert!(nb > 0 && nb <= n, "panel width must be in 1..=n");
        let mut rng = Xoshiro256::seed_from(seed);
        let a: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
        let mut b = vec![0.0; n];
        for i in 0..n {
            b[i] = a[i * n..(i + 1) * n].iter().sum();
        }
        BlockedLu {
            n,
            nb,
            a0: a.clone(),
            a,
            x_rhs: b.clone(),
            b0: b,
            pivots: vec![0; n],
            factorized: false,
        }
    }

    /// Matrix order.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Factorises in place, reporting operations to `exec`.
    ///
    /// # Panics
    ///
    /// Panics on an exactly-zero pivot.
    pub fn factorize<E: Exec>(&mut self, exec: &mut E) {
        let n = self.n;
        let mut k0 = 0;
        while k0 < n {
            let kb = self.nb.min(n - k0);
            // --- Panel factorisation (columns k0..k0+kb), unblocked ---
            for k in k0..k0 + kb {
                let mut p = k;
                let mut max = self.a[k * n + k].abs();
                column(exec, 0, n, k, k + 1..n, CMP);
                exec.branch_run((n - k - 1) as u64, false);
                for i in (k + 1)..n {
                    let v = self.a[i * n + k].abs();
                    if v > max {
                        max = v;
                        p = i;
                    }
                }
                assert!(max != 0.0, "singular matrix");
                self.pivots[k] = p;
                if p != k {
                    row_swap(exec, 0, n, k, p);
                    for j in 0..n {
                        self.a.swap(k * n + j, p * n + j);
                    }
                    self.x_rhs.swap(k, p);
                }
                let pivot = self.a[k * n + k];
                for i in (k + 1)..n {
                    exec.flop(FlopKind::Div, Precision::F64, 1);
                    let m = self.a[i * n + k] / pivot;
                    self.a[i * n + k] = m;
                    // Update only the remaining panel columns here; the
                    // trailing matrix waits for the blocked GEMM.
                    row_update(exec, n, k, i, k + 1..k0 + kb);
                    for j in (k + 1)..(k0 + kb) {
                        self.a[i * n + j] -= m * self.a[k * n + j];
                    }
                    exec.branch(true);
                }
            }
            let rest = k0 + kb;
            if rest >= n {
                break;
            }
            // --- Row panel: U12 = L11^{-1} A12 (unit lower triangular) ---
            for k in k0..rest {
                for i in (k + 1)..rest {
                    let m = self.a[i * n + k];
                    exec.load(((i * n + k) * 8) as u64, 8);
                    row_update(exec, n, k, i, rest..n);
                    for j in rest..n {
                        self.a[i * n + j] -= m * self.a[k * n + j];
                    }
                    exec.branch(true);
                }
            }
            // --- Trailing update: A22 -= L21 · U12, tiled GEMM ---
            // Tile-local k-i-j (rank-1) order: the innermost loop streams
            // one contiguous row of U12 against one contiguous row of the
            // C tile, so every cache line is consumed fully and the tile
            // stays L1-resident across the k loop.
            const TILE: usize = 32;
            let mut ii = rest;
            while ii < n {
                let imax = (ii + TILE).min(n);
                let mut jj = rest;
                while jj < n {
                    let jmax = (jj + TILE).min(n);
                    for k in k0..rest {
                        for i in ii..imax {
                            let m = self.a[i * n + k];
                            exec.load(((i * n + k) * 8) as u64, 8);
                            // 2-lane FMA over the contiguous j row, as
                            // the vectorised GEMM microkernel does: one
                            // lockstep run plus a scalar tail.
                            let pairs = (jmax - jj) / 2;
                            let x = ((k * n + jj) * 8) as u64;
                            let y = ((i * n + jj) * 8) as u64;
                            exec.lockstep_run(&daxpy(x, y, 16), &[FMA2], pairs as u64);
                            let mut j = jj;
                            while j + 1 < jmax {
                                self.a[i * n + j] -= m * self.a[k * n + j];
                                self.a[i * n + j + 1] -= m * self.a[k * n + j + 1];
                                j += 2;
                            }
                            if j < jmax {
                                let tail = (pairs * 16) as u64;
                                exec.lockstep_run(&daxpy(x + tail, y + tail, 8), &[FMA], 1);
                                self.a[i * n + j] -= m * self.a[k * n + j];
                            }
                            exec.branch(true);
                        }
                    }
                    jj = jmax;
                }
                ii = imax;
            }
            k0 = rest;
        }
        self.factorized = true;
    }

    /// Solves the factorised system; returns the solution.
    ///
    /// # Panics
    ///
    /// Panics if called before [`BlockedLu::factorize`].
    pub fn solve<E: Exec>(&mut self, exec: &mut E) -> Vec<f64> {
        assert!(self.factorized, "factorize before solving");
        let n = self.n;
        let mut x = self.x_rhs.clone();
        for k in 0..n {
            column(exec, 0, n, k, k + 1..n, FMA);
            for i in (k + 1)..n {
                x[i] -= self.a[i * n + k] * x[k];
            }
        }
        for k in (0..n).rev() {
            exec.flop(FlopKind::Div, Precision::F64, 1);
            x[k] /= self.a[k * n + k];
            column(exec, 0, n, k, 0..k, FMA);
            for i in 0..k {
                x[i] -= self.a[i * n + k] * x[k];
            }
        }
        x
    }

    /// Normalised residual against the original system (see
    /// [`Linpack::residual`](crate::linpack::Linpack::residual)).
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong length.
    pub fn residual(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n, "solution length mismatch");
        let n = self.n;
        let mut r_inf: f64 = 0.0;
        for i in 0..n {
            let ax: f64 = (0..n).map(|j| self.a0[i * n + j] * x[j]).sum();
            r_inf = r_inf.max((ax - self.b0[i]).abs());
        }
        let a_inf: f64 = (0..n)
            .map(|i| self.a0[i * n..(i + 1) * n].iter().map(|v| v.abs()).sum())
            .fold(0.0f64, f64::max);
        let x_inf = x.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
        r_inf / (a_inf * x_inf * n as f64 * f64::EPSILON)
    }
}

/// Reports the scalar update of row `i` by pivot row `k` over columns
/// `cols` of an `n × n` row-major f64 matrix at address 0: a load of row
/// `k`, an FMA and a store to row `i` per column.
fn row_update<E: Exec>(exec: &mut E, n: usize, k: usize, i: usize, cols: std::ops::Range<usize>) {
    let at = |r: usize| ((r * n + cols.start) * 8) as u64;
    exec.lockstep_run(
        &[Stream::load(at(k), 8, 8), Stream::store(at(i), 8, 8)],
        &[FMA],
        cols.len() as u64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linpack::Linpack;
    use mb_cpu::counters::Counter;
    use mb_cpu::exec_model::ModelExec;
    use mb_cpu::ops::{CountingExec, NullExec};

    #[test]
    fn solves_to_ones() {
        let mut lu = BlockedLu::new(64, 16, 42);
        lu.factorize(&mut NullExec);
        let x = lu.solve(&mut NullExec);
        for (i, v) in x.iter().enumerate() {
            assert!((v - 1.0).abs() < 1e-8, "x[{i}] = {v}");
        }
        assert!(lu.residual(&x) < 16.0);
    }

    #[test]
    fn agrees_with_unblocked_variant() {
        // Same seed ⇒ same matrix ⇒ same solution.
        let mut plain = Linpack::new(48, 7);
        plain.factorize(&mut NullExec);
        let xp = plain.solve(&mut NullExec);
        let mut blocked = BlockedLu::new(48, 12, 7);
        blocked.factorize(&mut NullExec);
        let xb = blocked.solve(&mut NullExec);
        for (a, b) in xp.iter().zip(&xb) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn block_size_does_not_change_result() {
        for nb in [1, 8, 17, 64] {
            let mut lu = BlockedLu::new(64, nb, 3);
            lu.factorize(&mut NullExec);
            let x = lu.solve(&mut NullExec);
            assert!(lu.residual(&x) < 16.0, "nb = {nb}");
        }
    }

    #[test]
    fn flop_count_matches_nominal() {
        let n = 64;
        let mut lu = BlockedLu::new(n, 16, 5);
        let mut count = CountingExec::new();
        lu.factorize(&mut count);
        let _ = lu.solve(&mut count);
        let ratio = count.counts().flops_f64 as f64 / Linpack::nominal_flops(n) as f64;
        assert!((0.85..1.2).contains(&ratio), "blocked flops ratio {ratio}");
    }

    #[test]
    fn blocking_reduces_misses_when_matrix_exceeds_l1() {
        // 160×160 f64 = 200 KB: larger than both 32 KB L1s.
        let mut exec = ModelExec::snowball();
        Linpack::new(160, 11).factorize(&mut exec);
        let unblocked = exec.finish().counters.get(Counter::L1DataMisses);
        let mut exec = ModelExec::snowball();
        BlockedLu::new(160, 32, 11).factorize(&mut exec);
        let blocked = exec.finish().counters.get(Counter::L1DataMisses);
        assert!(
            blocked * 2 < unblocked,
            "blocking should at least halve L1 misses: {blocked} vs {unblocked}"
        );
    }

    #[test]
    #[should_panic(expected = "panel width must be in 1..=n")]
    fn oversized_panel_panics() {
        let _ = BlockedLu::new(8, 16, 0);
    }
}
