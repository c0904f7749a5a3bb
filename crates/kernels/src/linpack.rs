//! LINPACK: dense LU factorisation with partial pivoting and solve.
//!
//! The standard HPC benchmark (§III.B). This implementation is a faithful
//! `dgefa`/`dgesl` pair: column-oriented right-looking LU with partial
//! pivoting, followed by forward/backward substitution, with the
//! benchmark's classic operation count `2/3·n³ + 2·n²`.
//!
//! The inner update loop (`daxpy`) reports 2-lane f64 FMAs — exactly the
//! vectorisation the x86 build gets from SSE2 and the ARM build *cannot*
//! get (NEON is single precision only), which is the root of Table II's
//! 38.7× LINPACK gap.

use mb_cpu::ops::{Exec, Flop, FlopKind, Precision, Stream};
use mb_simcore::rng::{Rng, Xoshiro256};

/// The pivot search's compare.
pub(crate) const CMP: Flop = Flop::new(FlopKind::Cmp, Precision::F64, 1);
/// A scalar update or solve step.
pub(crate) const FMA: Flop = Flop::new(FlopKind::Fma, Precision::F64, 1);
/// A 2-lane (SSE2-style) update over two consecutive columns.
pub(crate) const FMA2: Flop = Flop::new(FlopKind::Fma, Precision::F64, 2);

/// The streams of a row update `y[j] -= m·x[j]` over byte addresses `x`
/// and `y`, `bytes` per element group: load `x`, load `y`, store `y`.
pub(crate) fn daxpy(x: u64, y: u64, bytes: u32) -> [Stream; 3] {
    let stride = bytes as u64;
    [
        Stream::load(x, stride, bytes),
        Stream::load(y, stride, bytes),
        Stream::store(y, stride, bytes),
    ]
}

/// Reports column `col` of an `n × n` row-major f64 matrix at byte
/// address `base`, rows `rows`, as one strided load run with one `flop`
/// per element.
pub(crate) fn column<E: Exec>(
    exec: &mut E,
    base: u64,
    n: usize,
    col: usize,
    rows: std::ops::Range<usize>,
    flop: Flop,
) {
    let first = base + ((rows.start * n + col) * 8) as u64;
    let count = rows.len() as u64;
    exec.lockstep_run(&[Stream::load(first, (n * 8) as u64, 8)], &[flop], count);
}

/// Reports swapping rows `k` and `p` of an `n × n` row-major f64 matrix
/// at byte address `base`: a load of row `k` and a store to row `p` per
/// element.
pub(crate) fn row_swap<E: Exec>(exec: &mut E, base: u64, n: usize, k: usize, p: usize) {
    let row = |r: usize| base + (r * n * 8) as u64;
    exec.lockstep_run(
        &[Stream::load(row(k), 8, 8), Stream::store(row(p), 8, 8)],
        &[],
        n as u64,
    );
}

/// A LINPACK problem instance: `A·x = b` with a dense random matrix.
#[derive(Debug, Clone)]
pub struct Linpack {
    n: usize,
    /// Row-major matrix (mutated in place by the factorisation).
    a: Vec<f64>,
    b: Vec<f64>,
    /// Pristine copies for the residual check.
    a0: Vec<f64>,
    b0: Vec<f64>,
    pivots: Vec<usize>,
    factorized: bool,
}

impl Linpack {
    /// Creates an `n × n` instance with entries uniform in `[-0.5, 0.5]`
    /// (the classic LINPACK generator's distribution).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n > 0, "matrix order must be positive");
        let mut rng = Xoshiro256::seed_from(seed);
        let a: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
        // b = A·ones so the exact solution is all-ones — handy for tests.
        let mut b = vec![0.0; n];
        for i in 0..n {
            b[i] = a[i * n..(i + 1) * n].iter().sum();
        }
        Linpack {
            n,
            a0: a.clone(),
            b0: b.clone(),
            a,
            b,
            pivots: vec![0; n],
            factorized: false,
        }
    }

    /// Matrix order.
    pub fn order(&self) -> usize {
        self.n
    }

    /// The nominal LINPACK flop count for order `n`: `2/3·n³ + 2·n²`.
    pub fn nominal_flops(n: usize) -> u64 {
        let n = n as u64;
        (2 * n * n * n) / 3 + 2 * n * n
    }

    /// LU-factorises in place with partial pivoting (`dgefa`), reporting
    /// operations to `exec`.
    ///
    /// # Panics
    ///
    /// Panics if a pivot is exactly zero (the random matrix is singular
    /// with probability zero).
    pub fn factorize<E: Exec>(&mut self, exec: &mut E) {
        let n = self.n;
        let base = 0u64; // virtual base address of the matrix for the model
        for k in 0..n {
            // Pivot search in column k.
            let mut p = k;
            let mut max = self.a[k * n + k].abs();
            column(exec, base, n, k, k + 1..n, CMP);
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
                row_swap(exec, base, n, k, p);
                for j in 0..n {
                    self.a.swap(k * n + j, p * n + j);
                }
                self.b.swap(k, p);
            }
            // Scale the pivot column and update the trailing matrix.
            let pivot = self.a[k * n + k];
            for i in (k + 1)..n {
                exec.flop(FlopKind::Div, Precision::F64, 1);
                let m = self.a[i * n + k] / pivot;
                self.a[i * n + k] = m;
                // daxpy over the trailing row: report as 2-lane FMAs
                // (SSE2-style vectorisation over consecutive columns),
                // one lockstep run per row plus a scalar tail.
                let pairs = (n - k - 1) / 2;
                let x = base + ((k * n + k + 1) * 8) as u64;
                let y = base + ((i * n + k + 1) * 8) as u64;
                exec.lockstep_run(&daxpy(x, y, 16), &[FMA2], pairs as u64);
                let mut j = k + 1;
                while j + 1 < n {
                    self.a[i * n + j] -= m * self.a[k * n + j];
                    self.a[i * n + j + 1] -= m * self.a[k * n + j + 1];
                    j += 2;
                }
                if j < n {
                    let tail = (pairs * 16) as u64;
                    exec.lockstep_run(&daxpy(x + tail, y + tail, 8), &[FMA], 1);
                    self.a[i * n + j] -= m * self.a[k * n + j];
                }
                exec.branch(true);
            }
            exec.branch(true);
        }
        self.factorized = true;
    }

    /// Solves the factorised system (`dgesl`). Returns the solution.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Linpack::factorize`].
    pub fn solve<E: Exec>(&mut self, exec: &mut E) -> Vec<f64> {
        assert!(self.factorized, "factorize before solving");
        let n = self.n;
        let mut x = self.b.clone();
        // Forward elimination with the stored multipliers.
        for k in 0..n {
            column(exec, 0, n, k, k + 1..n, FMA);
            for i in (k + 1)..n {
                x[i] -= self.a[i * n + k] * x[k];
            }
        }
        // Back substitution.
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

    /// The normalised residual `‖A·x − b‖∞ / (‖A‖∞·‖x‖∞·n·ε)` of a
    /// candidate solution against the *original* system — LINPACK's
    /// correctness test (should be O(1), conventionally < 16).
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

#[cfg(test)]
mod tests {
    use super::*;
    use mb_cpu::ops::{CountingExec, NullExec};

    #[test]
    fn solves_to_ones() {
        let mut lp = Linpack::new(50, 42);
        lp.factorize(&mut NullExec);
        let x = lp.solve(&mut NullExec);
        for (i, v) in x.iter().enumerate() {
            assert!((v - 1.0).abs() < 1e-8, "x[{i}] = {v}");
        }
    }

    #[test]
    fn residual_is_small() {
        let mut lp = Linpack::new(100, 7);
        lp.factorize(&mut NullExec);
        let x = lp.solve(&mut NullExec);
        let r = lp.residual(&x);
        assert!(r < 16.0, "normalised residual {r} too large");
    }

    #[test]
    fn different_seeds_different_matrices() {
        let a = Linpack::new(10, 1);
        let b = Linpack::new(10, 2);
        assert_ne!(a.a0, b.a0);
    }

    #[test]
    fn flop_count_matches_nominal() {
        let n = 60;
        let mut lp = Linpack::new(n, 3);
        let mut count = CountingExec::new();
        lp.factorize(&mut count);
        let _ = lp.solve(&mut count);
        let measured = count.counts().flops_f64;
        let nominal = Linpack::nominal_flops(n);
        let ratio = measured as f64 / nominal as f64;
        // The nominal formula ignores pivot compares; measured flops
        // should be within ~15 % of it.
        assert!(
            (0.85..1.15).contains(&ratio),
            "measured {measured} vs nominal {nominal} (ratio {ratio})"
        );
    }

    #[test]
    fn nominal_flops_formula() {
        assert_eq!(
            Linpack::nominal_flops(100),
            2 * 100 * 100 * 100 / 3 + 20_000
        );
    }

    #[test]
    #[should_panic(expected = "factorize before solving")]
    fn solve_requires_factorization() {
        let mut lp = Linpack::new(4, 0);
        let _ = lp.solve(&mut NullExec);
    }

    #[test]
    fn pivoting_handles_small_leading_entries() {
        // Force a tiny leading pivot by construction.
        let mut lp = Linpack::new(8, 11);
        lp.a[0] = 1e-300;
        lp.a0[0] = 1e-300;
        // Rebuild b for the modified matrix so the solution stays ones.
        for i in 0..8 {
            lp.b[i] = lp.a0[i * 8..(i + 1) * 8].iter().sum();
            lp.b0[i] = lp.b[i];
        }
        lp.factorize(&mut NullExec);
        let x = lp.solve(&mut NullExec);
        for v in &x {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }
}
