//! SPECFEM-mini: spectral-element seismic wave propagation.
//!
//! SPECFEM3D "simulates seismic wave propagation [...] using a continuous
//! Galerkin spectral-element method" (§II.A). This module implements the
//! same numerics in one dimension — degree-4 Gauss–Lobatto–Legendre
//! elements, diagonal mass matrix, explicit central-difference (Newmark)
//! time stepping — which preserves the properties that matter for the
//! paper's experiments: a genuinely assembled SEM operator, a verifiable
//! conserved energy, and the compute/halo-exchange structure whose
//! nearest-neighbour communication pattern gives SPECFEM3D its excellent
//! scaling (Figure 3b).
//!
//! The element kernel reports 2-lane f64 FMAs in its matrix–vector inner
//! loop, matching the SSE2 code the x86 compiler emits and the scalar
//! VFP code the ARM build is stuck with.

use mb_cpu::ops::{Exec, Flop, FlopKind, Precision, Stream};

/// Polynomial degree of each element (degree 4 = 5 GLL points, the
/// common SPECFEM choice).
pub const DEGREE: usize = 4;
/// GLL points per element.
pub const NGLL: usize = DEGREE + 1;

/// GLL node positions on the reference element `[-1, 1]` for degree 4.
pub const GLL_POINTS: [f64; NGLL] = [
    -1.0,
    -0.654_653_670_707_977_2,
    0.0,
    0.654_653_670_707_977_2,
    1.0,
];

/// GLL quadrature weights for degree 4.
pub const GLL_WEIGHTS: [f64; NGLL] = [
    0.1,
    0.544_444_444_444_444_4,
    0.711_111_111_111_111_2,
    0.544_444_444_444_444_4,
    0.1,
];

/// Lagrange derivative matrix `D[i][j] = l'_j(ξ_i)` on the GLL points.
pub fn derivative_matrix() -> [[f64; NGLL]; NGLL] {
    // Barycentric coefficients c_k = Π_{m≠k} (x_k − x_m).
    let x = GLL_POINTS;
    let mut c = [1.0f64; NGLL];
    for k in 0..NGLL {
        for m in 0..NGLL {
            if m != k {
                c[k] *= x[k] - x[m];
            }
        }
    }
    let mut d = [[0.0; NGLL]; NGLL];
    #[allow(clippy::needless_range_loop)] // i/j index the matrix symmetrically
    for i in 0..NGLL {
        for j in 0..NGLL {
            if i != j {
                d[i][j] = (c[i] / c[j]) / (x[i] - x[j]);
            }
        }
    }
    #[allow(clippy::needless_range_loop)]
    for i in 0..NGLL {
        d[i][i] = -(0..NGLL).filter(|&j| j != i).map(|j| d[i][j]).sum::<f64>();
    }
    d
}

/// Physical and discretisation parameters of a simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecfemConfig {
    /// Number of spectral elements.
    pub elements: usize,
    /// Domain length in metres.
    pub length: f64,
    /// Density ρ (kg/m³).
    pub density: f64,
    /// Shear modulus μ (Pa).
    pub shear_modulus: f64,
    /// Courant number (fraction of the stability limit), in `(0, 1)`.
    pub courant: f64,
}

impl SpecfemConfig {
    /// The small instance used by the Table II experiment.
    pub fn table2() -> Self {
        SpecfemConfig {
            elements: 64,
            length: 1000.0,
            density: 2700.0,
            shear_modulus: 3e10,
            courant: 0.4,
        }
    }

    /// Wave speed `c = sqrt(μ/ρ)`.
    pub fn wave_speed(&self) -> f64 {
        (self.shear_modulus / self.density).sqrt()
    }
}

/// A running SEM wave simulation.
#[derive(Debug, Clone)]
pub struct Specfem {
    cfg: SpecfemConfig,
    /// Element stiffness (uniform mesh and medium).
    k_elem: [[f64; NGLL]; NGLL],
    /// Global diagonal (lumped) mass matrix.
    mass: Vec<f64>,
    /// Displacement at step n.
    u: Vec<f64>,
    /// Displacement at step n−1.
    u_prev: Vec<f64>,
    /// Internal-force scratch, reused every step so the hot time loop
    /// allocates nothing per call.
    force: Vec<f64>,
    dt: f64,
    steps_done: u64,
}

impl Specfem {
    /// Builds the mesh, assembles mass and stiffness, and plants a
    /// Gaussian displacement pulse in the middle of the domain.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive or `courant` is not in
    /// `(0, 1)`.
    pub fn new(cfg: SpecfemConfig) -> Self {
        assert!(cfg.elements > 0, "need at least one element");
        assert!(
            cfg.length > 0.0 && cfg.density > 0.0 && cfg.shear_modulus > 0.0,
            "physical parameters must be positive"
        );
        assert!(
            cfg.courant > 0.0 && cfg.courant < 1.0,
            "courant must be in (0, 1)"
        );
        let h = cfg.length / cfg.elements as f64;
        let d = derivative_matrix();
        // K^e_ij = (2μ/h) Σ_k w_k D_ki D_kj
        let mut k_elem = [[0.0; NGLL]; NGLL];
        for i in 0..NGLL {
            for j in 0..NGLL {
                let mut acc = 0.0;
                for k in 0..NGLL {
                    acc += GLL_WEIGHTS[k] * d[k][i] * d[k][j];
                }
                k_elem[i][j] = 2.0 * cfg.shear_modulus / h * acc;
            }
        }
        let n_glob = cfg.elements * DEGREE + 1;
        let mut mass = vec![0.0; n_glob];
        for e in 0..cfg.elements {
            for i in 0..NGLL {
                mass[e * DEGREE + i] += GLL_WEIGHTS[i] * h / 2.0 * cfg.density;
            }
        }
        // Initial condition: Gaussian pulse, zero initial velocity
        // (so u_prev = u at t = 0 up to O(dt²)).
        let mut u = vec![0.0; n_glob];
        let centre = cfg.length / 2.0;
        let width = cfg.length / 20.0;
        for e in 0..cfg.elements {
            for i in 0..NGLL {
                let xi = GLL_POINTS[i];
                let x = (e as f64 + (xi + 1.0) / 2.0) * h;
                u[e * DEGREE + i] = (-((x - centre) / width).powi(2)).exp();
            }
        }
        // Fixed (Dirichlet) ends.
        u[0] = 0.0;
        u[n_glob - 1] = 0.0;
        // Stability: dt = courant · (min GLL spacing) / c.
        let min_dx = h / 2.0 * (GLL_POINTS[1] - GLL_POINTS[0]).abs();
        let dt = cfg.courant * min_dx / cfg.wave_speed();
        Specfem {
            cfg,
            k_elem,
            mass,
            u_prev: u.clone(),
            force: vec![0.0; n_glob],
            u,
            dt,
            steps_done: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SpecfemConfig {
        &self.cfg
    }

    /// Number of global degrees of freedom.
    pub fn dof(&self) -> usize {
        self.u.len()
    }

    /// Computes the internal force `f = −K·u` (assembled per element)
    /// into the reusable `force` scratch, reporting operations.
    ///
    /// Each of an element's `NGLL` matvec rows loads the element's
    /// displacements as two 16-byte pairs and an 8-byte tail (2-lane
    /// FMAs and a scalar one), then loads, updates and stores its force
    /// entry: one lockstep run of `NGLL` bodies per element.
    fn internal_force<E: Exec>(&mut self, exec: &mut E) {
        const ROW_FLOPS: [Flop; 4] = [
            Flop::new(FlopKind::Fma, Precision::F64, 2),
            Flop::new(FlopKind::Fma, Precision::F64, 2),
            Flop::new(FlopKind::Fma, Precision::F64, 1),
            Flop::new(FlopKind::Add, Precision::F64, 1),
        ];
        let n = self.u.len();
        self.force.clear();
        self.force.resize(n, 0.0);
        for e in 0..self.cfg.elements {
            let base = e * DEGREE;
            for i in 0..NGLL {
                let mut acc = 0.0;
                let mut j = 0;
                while j + 1 < NGLL {
                    acc += self.k_elem[i][j] * self.u[base + j]
                        + self.k_elem[i][j + 1] * self.u[base + j + 1];
                    j += 2;
                }
                acc += self.k_elem[i][j] * self.u[base + j];
                self.force[base + i] -= acc;
            }
            let addr = |k: usize| (k * 8) as u64;
            let force = addr(n + base);
            let rows = [
                Stream::load(addr(base), 0, 16),
                Stream::load(addr(base + 2), 0, 16),
                Stream::load(addr(base + 4), 0, 8),
                Stream::load(force, 8, 8),
                Stream::store(force, 8, 8),
            ];
            exec.lockstep_run(&rows, &ROW_FLOPS, NGLL as u64);
            exec.branch(true);
        }
    }

    /// Advances one explicit (central-difference) time step. The update
    /// is elementwise-independent, so the displacement levels rotate in
    /// place — no `u_next` buffer, and identical f64 arithmetic order to
    /// the buffered form.
    pub fn step<E: Exec>(&mut self, exec: &mut E) {
        let n = self.u.len();
        self.internal_force(exec);
        let dt2 = self.dt * self.dt;
        // Per point: load, FMA, add, divide, store.
        exec.lockstep_run(
            &[Stream::load(0, 8, 8), Stream::store(0, 8, 8)],
            &[
                Flop::new(FlopKind::Fma, Precision::F64, 1),
                Flop::new(FlopKind::Add, Precision::F64, 1),
                Flop::new(FlopKind::Div, Precision::F64, 1),
            ],
            n as u64,
        );
        for i in 0..n {
            let next = 2.0 * self.u[i] - self.u_prev[i] + dt2 * self.force[i] / self.mass[i];
            self.u_prev[i] = std::mem::replace(&mut self.u[i], next);
        }
        // Dirichlet ends.
        self.u[0] = 0.0;
        self.u[n - 1] = 0.0;
        self.steps_done += 1;
    }

    /// Runs `steps` time steps.
    pub fn run<E: Exec>(&mut self, steps: u32, exec: &mut E) {
        for _ in 0..steps {
            self.step(exec);
        }
    }

    /// Total discrete energy `½·vᵀM·v + ½·uᵀK·u` with the
    /// central-difference velocity `v ≈ (uⁿ − uⁿ⁻¹)/dt` evaluated at the
    /// half step. Conserved (to discretisation accuracy) by the scheme.
    pub fn total_energy(&self) -> f64 {
        let n = self.u.len();
        // Kinetic at the half step.
        let mut kinetic = 0.0;
        for i in 0..n {
            let v = (self.u[i] - self.u_prev[i]) / self.dt;
            kinetic += 0.5 * self.mass[i] * v * v;
        }
        // Potential averaged over the two time levels (energy of the
        // leapfrog scheme is conserved in this staggered sense).
        let pot = |u: &[f64]| {
            let mut p = 0.0;
            for e in 0..self.cfg.elements {
                let base = e * DEGREE;
                for i in 0..NGLL {
                    for j in 0..NGLL {
                        p += 0.5 * u[base + i] * self.k_elem[i][j] * u[base + j];
                    }
                }
            }
            p
        };
        kinetic + 0.5 * (pot(&self.u) + pot(&self.u_prev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_cpu::ops::{CountingExec, NullExec};

    #[test]
    fn derivative_matrix_rows_sum_to_zero() {
        // d/dξ of the constant function is zero.
        let d = derivative_matrix();
        for (i, row) in d.iter().enumerate() {
            let s: f64 = row.iter().sum();
            assert!(s.abs() < 1e-12, "row {i} sums to {s}");
        }
    }

    #[test]
    fn derivative_matrix_differentiates_linear() {
        // l'(x) of f(x) = x is 1 everywhere.
        let d = derivative_matrix();
        for (i, row) in d.iter().enumerate() {
            let s: f64 = row.iter().zip(GLL_POINTS).map(|(v, x)| v * x).sum();
            assert!((s - 1.0).abs() < 1e-12, "row {i}: {s}");
        }
    }

    #[test]
    fn gll_weights_integrate_constants_and_quadratics() {
        let total: f64 = GLL_WEIGHTS.iter().sum();
        assert!((total - 2.0).abs() < 1e-12, "∫1 dξ over [-1,1] = 2");
        let sq: f64 = (0..NGLL)
            .map(|i| GLL_WEIGHTS[i] * GLL_POINTS[i] * GLL_POINTS[i])
            .sum();
        assert!((sq - 2.0 / 3.0).abs() < 1e-12, "∫ξ² dξ = 2/3, got {sq}");
    }

    #[test]
    fn stiffness_annihilates_constants() {
        let s = Specfem::new(SpecfemConfig::table2());
        for i in 0..NGLL {
            let row_sum: f64 = s.k_elem[i].iter().sum();
            assert!(
                row_sum.abs() < 1e-3,
                "K·1 should vanish, row {i}: {row_sum}"
            );
        }
    }

    #[test]
    fn energy_is_conserved() {
        let mut s = Specfem::new(SpecfemConfig::table2());
        // Let the pulse start moving before taking the reference energy
        // (the first steps convert potential to kinetic).
        s.run(10, &mut NullExec);
        let e0 = s.total_energy();
        assert!(e0 > 0.0);
        s.run(500, &mut NullExec);
        let e1 = s.total_energy();
        let drift = ((e1 - e0) / e0).abs();
        assert!(drift < 0.02, "energy drift {drift} exceeds 2 %");
    }

    #[test]
    fn wave_propagates_outward() {
        let mut s = Specfem::new(SpecfemConfig::table2());
        let mid = s.dof() / 2;
        let initial_mid = s.u[mid];
        assert!(initial_mid > 0.9, "pulse starts at the centre");
        // After enough steps the pulse has split and moved away.
        let c = s.config().wave_speed();
        let quarter_domain_time = s.config().length / 4.0 / c;
        let steps = (quarter_domain_time / s.dt) as u32;
        s.run(steps, &mut NullExec);
        assert!(
            s.u[mid].abs() < 0.6,
            "centre should have emptied: {}",
            s.u[mid]
        );
        // And the field is still bounded (stability).
        assert!(s.u.iter().all(|v| v.abs() < 2.0));
    }

    #[test]
    fn dirichlet_ends_stay_zero() {
        let mut s = Specfem::new(SpecfemConfig::table2());
        s.run(200, &mut NullExec);
        assert_eq!(s.u[0], 0.0);
        assert_eq!(*s.u.last().expect("non-empty"), 0.0);
    }

    #[test]
    fn flop_accounting_close_to_nominal() {
        let mut s = Specfem::new(SpecfemConfig::table2());
        let mut count = CountingExec::new();
        s.step(&mut count);
        let measured = count.counts().flops_f64;
        // Nominal flops per step: the element matvec plus the update.
        let matvec = s.cfg.elements as u64 * (NGLL as u64) * (2 * NGLL as u64 + 1);
        let nominal = matvec + s.dof() as u64 * 4;
        let ratio = measured as f64 / nominal as f64;
        assert!(
            (0.7..1.3).contains(&ratio),
            "measured {measured} vs nominal {nominal}"
        );
    }

    #[test]
    fn dof_and_dt() {
        let s = Specfem::new(SpecfemConfig::table2());
        assert_eq!(s.dof(), 64 * 4 + 1);
        assert!(s.dt > 0.0);
        assert_eq!(s.steps_done, 0);
    }

    #[test]
    #[should_panic(expected = "courant must be in (0, 1)")]
    fn unstable_courant_rejected() {
        let cfg = SpecfemConfig {
            courant: 1.5,
            ..SpecfemConfig::table2()
        };
        let _ = Specfem::new(cfg);
    }
}
