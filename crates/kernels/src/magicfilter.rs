//! The BigDFT *magicfilter*: a 16-tap periodic convolution applied along
//! the three axes of a 3-D grid.
//!
//! "The BigDFT core function – the magicfilter – performs the electronic
//! potential computation via a three-dimensional convolution. This
//! convolution can be decomposed as three successive applications of a
//! basic operation, which consists of nested loops. Such loops can be
//! unrolled and, depending on the unrolling degree, performance may be
//! greatly improved." (§V.B)
//!
//! Exactly like BigDFT, each pass convolves along the first axis of a
//! `(n, ndat)` view and writes its output **transposed**, so three passes
//! cycle the axes back to the original orientation. The unroll degree of
//! the `ndat` loop is the Figure 7 tuning parameter (1..=12).

use mb_cpu::ops::{Exec, Flop, FlopKind, Precision, Stream};

/// BigDFT's magic-filter coefficients for Daubechies-16 wavelets,
/// indexed `l = -8..=7` (i.e. `MAGIC_FILTER[l + 8]`).
pub const MAGIC_FILTER: [f64; 16] = [
    8.433_424_733_352_934e-7,
    -1.290_557_201_342_061e-5,
    8.762_984_476_210_56e-5,
    -3.015_803_813_269_046_5e-4,
    1.747_237_136_729_939e-3,
    -9.420_470_302_010_804e-3,
    2.373_821_463_724_942_4e-2,
    6.126_258_958_312_08e-2,
    0.994_041_569_783_400_4,
    -6.048_952_891_969_835e-2,
    -2.103_025_160_930_381_6e-2,
    1.337_263_414_854_794_8e-2,
    -3.441_281_444_934_938_7e-3,
    4.944_322_768_868_992e-4,
    -5.185_986_881_173_433e-5,
    2.727_344_929_119_796_7e-6,
];

/// Lower filter offset (inclusive): `l` ranges over `LOWFIL..=UPFIL`.
pub const LOWFIL: i64 = -8;
/// Upper filter offset (inclusive).
pub const UPFIL: i64 = 7;

/// A dense 3-D grid of `f64` values, row-major `(d0, d1, d2)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid3 {
    /// Extent of axis 0 (slowest).
    pub d0: usize,
    /// Extent of axis 1.
    pub d1: usize,
    /// Extent of axis 2 (contiguous).
    pub d2: usize,
    /// Row-major data, length `d0 · d1 · d2`.
    pub data: Vec<f64>,
}

impl Grid3 {
    /// Creates a grid filled by `f(i0, i1, i2)`.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero.
    pub fn from_fn(
        d0: usize,
        d1: usize,
        d2: usize,
        mut f: impl FnMut(usize, usize, usize) -> f64,
    ) -> Self {
        assert!(d0 > 0 && d1 > 0 && d2 > 0, "grid extents must be positive");
        let mut data = Vec::with_capacity(d0 * d1 * d2);
        for i0 in 0..d0 {
            for i1 in 0..d1 {
                for i2 in 0..d2 {
                    data.push(f(i0, i1, i2));
                }
            }
        }
        Grid3 { d0, d1, d2, data }
    }

    /// A deterministic pseudo-random grid (wave-packet-like smooth field).
    pub fn random(d0: usize, d1: usize, d2: usize, seed: u64) -> Self {
        use mb_simcore::rng::{Rng, Xoshiro256};
        let mut rng = Xoshiro256::seed_from(seed);
        Grid3::from_fn(d0, d1, d2, |_, _, _| rng.next_f64() - 0.5)
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the grid has no points (never true for
    /// constructed grids).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Value at `(i0, i1, i2)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn at(&self, i0: usize, i1: usize, i2: usize) -> f64 {
        assert!(i0 < self.d0 && i1 < self.d1 && i2 < self.d2, "index range");
        self.data[(i0 * self.d1 + i1) * self.d2 + i2]
    }
}

/// One transposing pass: convolves along the first axis of the `(n,
/// ndat)` view `input` (row-major, `input[i·ndat + j]`) with periodic
/// boundaries, writing the transposed `(ndat, n)` result into `out`.
/// The `ndat` loop is unrolled by `unroll` (the Figure 7 parameter).
///
/// # Panics
///
/// Panics if buffer sizes disagree with `n·ndat` or `unroll` is zero.
pub fn magicfilter_pass<E: Exec>(
    input: &[f64],
    n: usize,
    ndat: usize,
    out: &mut [f64],
    unroll: u32,
    exec: &mut E,
) {
    assert!(unroll >= 1, "unroll degree must be at least 1");
    convolve(input, n, ndat, out, exec);
    loop_bookkeeping(loop_groups(n, ndat, unroll), exec);
}

/// Filter taps.
const TAPS: usize = (UPFIL - LOWFIL + 1) as usize;

/// The body of [`magicfilter_pass`]: per output point, 16 tap loads, the
/// transposed store and 16 FMAs, in `(i, j)` order — one lockstep run
/// of `ndat` bodies per row `i`, whose tap streams walk the 16 wrapped
/// input rows and whose store stream walks output column `i`. The
/// unroll degree does not change this stream — an unrolled group runs
/// its `unroll` points one after the other, each with an accumulator of
/// its own — only how many loop groups it is cut into.
fn convolve<E: Exec>(input: &[f64], n: usize, ndat: usize, out: &mut [f64], exec: &mut E) {
    assert_eq!(input.len(), n * ndat, "input size mismatch");
    assert_eq!(out.len(), n * ndat, "output size mismatch");
    let in_base = 0u64;
    let out_base = (n * ndat * 8) as u64;
    let fmas = [Flop::new(FlopKind::Fma, Precision::F64, 1); TAPS];
    for i in 0..n {
        // Precompute wrapped row indices for the 16 taps — a fixed
        // array, so the innermost row loop allocates nothing.
        let mut rows = [0usize; TAPS];
        // The 16 tap loads, then the transposed store.
        let mut streams = [Stream::store(out_base + (i * 8) as u64, (n * 8) as u64, 8); TAPS + 1];
        for (t, l) in (LOWFIL..=UPFIL).enumerate() {
            rows[t] = ((i as i64 + l).rem_euclid(n as i64)) as usize;
            streams[t] = Stream::load(in_base + (rows[t] * ndat * 8) as u64, 8, 8);
        }
        exec.lockstep_run(&streams, &fmas, ndat as u64);
        for j in 0..ndat {
            let mut acc = 0.0f64;
            for (t, &row) in rows.iter().enumerate() {
                acc += MAGIC_FILTER[t] * input[row * ndat + j];
            }
            out[j * n + i] = acc;
        }
    }
}

/// Loop groups of one pass over an `(n, ndat)` view unrolled by
/// `unroll`: each of the `n` rows cuts its `ndat` points into
/// `⌈ndat / unroll⌉` groups, the last one short when `unroll` does not
/// divide `ndat`.
pub fn loop_groups(n: usize, ndat: usize, unroll: u32) -> u64 {
    n as u64 * ndat.div_ceil(unroll as usize) as u64
}

/// Loop groups of the three passes of [`MagicfilterWorkspace::apply`]
/// on `grid`: the sum of [`loop_groups`] over the three views.
pub fn apply_loop_groups(grid: &Grid3, unroll: u32) -> u64 {
    pass_views(grid)
        .into_iter()
        .map(|(n, ndat)| loop_groups(n, ndat, unroll))
        .sum()
}

/// Reports the bookkeeping of `groups` loop groups: two integer ops (index
/// and bound) and one taken branch per group. Sinks tally both as
/// order-free integer sums, so reporting them in one batch costs exactly
/// what one report per group costs.
pub fn loop_bookkeeping<E: Exec>(groups: u64, exec: &mut E) {
    exec.int_ops(2 * groups);
    exec.branch_run(groups, true);
}

/// The `(n, ndat)` views of the three passes over `grid`: each pass
/// convolves along the first axis and leaves it last.
fn pass_views(grid: &Grid3) -> [(usize, usize); 3] {
    let (d0, d1, d2) = (grid.d0, grid.d1, grid.d2);
    [(d0, d1 * d2), (d1, d2 * d0), (d2, d0 * d1)]
}

/// Reusable ping-pong buffers of the full 3-D magicfilter. Slot measurers
/// sweep the same grid across many unroll variants; holding one
/// workspace hoists the two pass buffers out of that hot loop.
#[derive(Debug, Clone, Default)]
pub struct MagicfilterWorkspace {
    buf_a: Vec<f64>,
    buf_b: Vec<f64>,
}

impl MagicfilterWorkspace {
    /// Creates an empty workspace; the buffers grow on first use and
    /// keep their capacity across calls.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies the full 3-D magicfilter: three transposing passes,
    /// leaving the result (in the grid's original orientation) in the
    /// returned slice, which stays valid until the next `apply`.
    ///
    /// # Panics
    ///
    /// Panics if `unroll` is zero.
    pub fn apply<E: Exec>(&mut self, grid: &Grid3, unroll: u32, exec: &mut E) -> &[f64] {
        assert!(unroll >= 1, "unroll degree must be at least 1");
        self.apply_stream(grid, exec);
        loop_bookkeeping(apply_loop_groups(grid, unroll), exec);
        &self.buf_a
    }

    /// [`apply`](Self::apply) without the loop bookkeeping: every load,
    /// FMA report and store of the three passes, in the same order, and
    /// the same result. This is the part of `apply` that no unroll
    /// degree changes; `apply(grid, u, exec)` is this stream followed by
    /// [`loop_bookkeeping`] of [`apply_loop_groups`]`(grid, u)`.
    pub fn apply_stream<E: Exec>(&mut self, grid: &Grid3, exec: &mut E) -> &[f64] {
        let total = grid.len();
        self.buf_a.clear();
        self.buf_a.resize(total, 0.0);
        self.buf_b.clear();
        self.buf_b.resize(total, 0.0);
        let [(n1, ndat1), (n2, ndat2), (n3, ndat3)] = pass_views(grid);
        // Pass 1: view (d0, d1·d2) → (d1·d2, d0), i.e. shape (d1, d2, d0).
        convolve(&grid.data, n1, ndat1, &mut self.buf_a, exec);
        // Pass 2: view (d1, d2·d0) → shape (d2, d0, d1).
        convolve(&self.buf_a, n2, ndat2, &mut self.buf_b, exec);
        // Pass 3: view (d2, d0·d1) → shape (d0, d1, d2): home again.
        convolve(&self.buf_b, n3, ndat3, &mut self.buf_a, exec);
        &self.buf_a
    }

    /// Swaps the last `apply` result into `data` (and `data`'s old
    /// storage into the workspace, where the next `apply` reuses its
    /// capacity). Lets iterated filters ping-pong a grid against the
    /// workspace without any steady-state allocation.
    pub fn swap_output(&mut self, data: &mut Vec<f64>) {
        std::mem::swap(&mut self.buf_a, data);
    }
}

/// Direct (no-transpose) reference: convolves each axis in place with
/// explicit index arithmetic. O(16·N) per axis like the real kernel, but
/// written for obviousness rather than speed. Used to validate
/// [`MagicfilterWorkspace::apply`].
pub fn reference_3d(grid: &Grid3) -> Grid3 {
    let conv_axis = |g: &Grid3, axis: usize| -> Grid3 {
        let dims = [g.d0, g.d1, g.d2];
        let mut out = g.clone();
        for i0 in 0..g.d0 {
            for i1 in 0..g.d1 {
                for i2 in 0..g.d2 {
                    let mut acc = 0.0;
                    for l in LOWFIL..=UPFIL {
                        let mut idx = [i0 as i64, i1 as i64, i2 as i64];
                        idx[axis] = (idx[axis] + l).rem_euclid(dims[axis] as i64);
                        acc += MAGIC_FILTER[(l - LOWFIL) as usize]
                            * g.at(idx[0] as usize, idx[1] as usize, idx[2] as usize);
                    }
                    out.data[(i0 * g.d1 + i1) * g.d2 + i2] = acc;
                }
            }
        }
        out
    };
    conv_axis(&conv_axis(&conv_axis(grid, 0), 1), 2)
}

/// Nominal flop count of one 3-D application on a `d0×d1×d2` grid:
/// three passes of 16 FMAs (2 flops) per point.
pub fn nominal_flops(d0: usize, d1: usize, d2: usize) -> u64 {
    3 * 16 * 2 * (d0 * d1 * d2) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_cpu::ops::{CountingExec, NullExec};

    /// The filtered grid, through a fresh workspace.
    fn filtered<E: Exec>(grid: &Grid3, unroll: u32, exec: &mut E) -> Vec<f64> {
        MagicfilterWorkspace::new()
            .apply(grid, unroll, exec)
            .to_vec()
    }

    #[test]
    fn filter_sums_to_one() {
        // The magic filter is an interpolation filter: Σ fil ≈ 1, so a
        // constant field is (nearly) invariant.
        let s: f64 = MAGIC_FILTER.iter().sum();
        assert!((s - 1.0).abs() < 1e-9, "filter sum {s}");
    }

    #[test]
    fn constant_field_is_invariant() {
        let g = Grid3::from_fn(6, 5, 4, |_, _, _| 2.5);
        let out = filtered(&g, 3, &mut NullExec);
        for v in &out {
            assert!((v - 2.5).abs() < 1e-9, "constant drifted to {v}");
        }
    }

    #[test]
    fn matches_reference_convolution() {
        let g = Grid3::random(9, 10, 11, 42);
        let fast = filtered(&g, 4, &mut NullExec);
        let slow = reference_3d(&g);
        for (a, b) in fast.iter().zip(&slow.data) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn unroll_degree_does_not_change_result() {
        let g = Grid3::random(8, 8, 8, 7);
        let r1 = filtered(&g, 1, &mut NullExec);
        for u in 2..=12 {
            let ru = filtered(&g, u, &mut NullExec);
            assert_eq!(r1, ru, "unroll {u} changed the numbers");
        }
    }

    #[test]
    fn flop_count_matches_nominal() {
        let g = Grid3::random(8, 6, 4, 3);
        let mut count = CountingExec::new();
        let _ = filtered(&g, 2, &mut count);
        assert_eq!(count.counts().flops_f64, nominal_flops(8, 6, 4));
    }

    #[test]
    fn loads_and_stores_accounted() {
        let g = Grid3::random(4, 4, 4, 9);
        let mut count = CountingExec::new();
        let _ = filtered(&g, 1, &mut count);
        // 16 loads + 1 store per point per pass.
        assert_eq!(count.counts().loads, 3 * 16 * 64);
        assert_eq!(count.counts().stores, 3 * 64);
    }

    #[test]
    fn loop_groups_count_the_bookkeeping_apply_reports() {
        // Non-cubic shapes whose pass views (5·7 = 35, 7·3 = 21, 3·5 =
        // 15; 4·9 = 36, 9·11 = 99, 11·4 = 44) leave short last groups
        // for most unroll degrees.
        for (d0, d1, d2) in [(3, 5, 7), (11, 4, 9)] {
            let g = Grid3::random(d0, d1, d2, 5);
            for u in 1..=12u32 {
                let mut count = CountingExec::new();
                let _ = filtered(&g, u, &mut count);
                let c = count.counts();
                // An independent count: walk each row's groups.
                let walked: u64 = pass_views(&g)
                    .iter()
                    .map(|&(n, ndat)| n as u64 * (0..ndat).step_by(u as usize).count() as u64)
                    .sum();
                let groups = apply_loop_groups(&g, u);
                assert_eq!(groups, walked, "{d0}x{d1}x{d2} u{u}");
                assert_eq!(c.int_ops / 2, groups, "{d0}x{d1}x{d2} u{u}: int ops");
                assert_eq!(c.branches, groups, "{d0}x{d1}x{d2} u{u}: branches");
                let mut pass = CountingExec::new();
                let mut out = vec![0.0; g.len()];
                magicfilter_pass(&g.data, d0, d1 * d2, &mut out, u, &mut pass);
                assert_eq!(pass.counts().branches, loop_groups(d0, d1 * d2, u));
            }
        }
    }

    #[test]
    fn apply_is_its_stream_plus_the_bookkeeping() {
        let g = Grid3::random(6, 5, 7, 11);
        let mut ws = MagicfilterWorkspace::new();
        let mut stream = CountingExec::new();
        let streamed = ws.apply_stream(&g, &mut stream).to_vec();
        for u in [1, 4, 9] {
            let mut whole = CountingExec::new();
            let applied = ws.apply(&g, u, &mut whole).to_vec();
            assert_eq!(applied, streamed, "u{u}: same result");
            let mut rest = stream;
            loop_bookkeeping(apply_loop_groups(&g, u), &mut rest);
            assert_eq!(whole.counts(), rest.counts(), "u{u}: same counts");
        }
    }

    #[test]
    fn pass_transposes() {
        // A (2, 3) view convolved along n=2 produces a (3, 2) layout.
        let input = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut out = vec![0.0; 6];
        magicfilter_pass(&input, 2, 3, &mut out, 1, &mut NullExec);
        // Column j of the input becomes row j of the output; verify one
        // entry against a hand evaluation.
        let mut expect = 0.0;
        for l in LOWFIL..=UPFIL {
            let row = l.rem_euclid(2) as usize;
            expect += MAGIC_FILTER[(l - LOWFIL) as usize] * input[row * 3];
        }
        assert!((out[0] - expect).abs() < 1e-15);
    }

    #[test]
    fn grid_accessors() {
        let g = Grid3::from_fn(2, 3, 4, |a, b, c| (a * 100 + b * 10 + c) as f64);
        assert_eq!(g.len(), 24);
        assert_eq!(g.at(1, 2, 3), 123.0);
        assert!(!g.is_empty());
    }

    #[test]
    #[should_panic(expected = "unroll degree must be at least 1")]
    fn zero_unroll_panics() {
        let g = Grid3::random(4, 4, 4, 0);
        let _ = filtered(&g, 0, &mut NullExec);
    }

    #[test]
    #[should_panic(expected = "index range")]
    fn at_out_of_range_panics() {
        let g = Grid3::random(2, 2, 2, 0);
        let _ = g.at(2, 0, 0);
    }
}
