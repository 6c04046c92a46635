//! FFT-based Poisson solvers.
//!
//! The Hartree potential of a density on the grid is obtained by one
//! forward 3-D FFT, a pointwise multiply with the reciprocal-space Coulomb
//! kernel, and one inverse FFT — exactly the per-pair work unit of the
//! paper's exact-exchange algorithm. Two kernels are provided:
//!
//! * [`CoulombKernel::Periodic`] — `v(G) = 4π/G²` with the `G = 0` term
//!   dropped (jellium convention), for condensed-phase cells;
//! * [`CoulombKernel::SphericalCutoff`] — `v(G) = 4π(1 − cos(G·R_c))/G²`,
//!   `v(0) = 2π R_c²`, which reproduces the *isolated* `1/r` interaction
//!   exactly for separations below `R_c`; used to validate the grid path
//!   against analytic Gaussian integrals.
//!
//! Because every density here is real, the solver works on the Hermitian
//! half-spectrum (`nz/2 + 1` bins along `z`) via `liair_math::rfft`: the
//! kernel table is laid out once over the half-spectrum bins and the
//! r2c/c2r transforms do roughly half the work of a complex path. A solver
//! is built only for a grid the transform supports (every extent
//! `2ᵃ3ᵇ5ᶜ`, `nz` even — `liair_math::rfft::supported`), so a bad grid
//! fails at [`PoissonSolver::new`], never inside a pair loop.
//!
//! There are two entry points, both on the calling thread against a
//! caller-owned [`PoissonWorkspace`], so steady-state pair loops perform
//! **zero** heap allocations:
//!
//! * [`PoissonSolver::solve_into`] — the potential (forward transform,
//!   kernel multiply, inverse transform), for callers that contract it
//!   with something else (the K-operator columns);
//! * [`PoissonSolver::exchange_pair_energy`] — the energy only, which
//!   skips the inverse transform: by Parseval,
//!   `(ij|ij) = (dV/N) Σ_k v(G_k) |ρ̂_k|²`, summed over half-spectrum bins
//!   with weight 2 off the self-conjugate planes (valid because
//!   `v(−G) = v(G)`). The sum is [`liair_math::simd::weighted_energy`],
//!   whose summation order is fixed in its source, so the contraction
//!   rounds the same on every host.
//!
//! An interaction energy `∬ ρ₁ ρ₂' v_C` is `grid.inner(ρ₁, solve_into(ρ₂))`.

use crate::grid::RealGrid;
use liair_math::rfft::{half_len, irfft3_into, rfft3_into, supported};
use liair_math::simd;
use liair_math::Complex64;
use std::f64::consts::PI;

/// Which reciprocal-space Coulomb interaction to use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoulombKernel {
    /// Fully periodic `4π/G²` (neutralizing-background `G = 0`).
    Periodic,
    /// Spherically truncated interaction with cutoff radius `R_c` (Bohr).
    SphericalCutoff(f64),
}

impl CoulombKernel {
    #[inline]
    fn eval(self, g2: f64) -> f64 {
        match self {
            CoulombKernel::Periodic => {
                if g2 < 1e-12 {
                    0.0
                } else {
                    4.0 * PI / g2
                }
            }
            CoulombKernel::SphericalCutoff(rc) => {
                if g2 < 1e-12 {
                    2.0 * PI * rc * rc
                } else {
                    4.0 * PI * (1.0 - (g2.sqrt() * rc).cos()) / g2
                }
            }
        }
    }
}

/// Wall time a workspace has spent in the two compute phases of the pair
/// kernel: the FFT transforms and the reciprocal-space kernel work
/// (pointwise multiply / Parseval contraction).
/// Accumulated into the owning [`PoissonWorkspace`] by every instrumented
/// solve; drained by the exchange engine into its per-build profile.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct KernelTimings {
    /// Seconds spent in forward/inverse FFTs.
    pub fft_s: f64,
    /// Seconds spent in kernel multiplies / energy contractions.
    pub kernel_s: f64,
}

impl KernelTimings {
    /// Add another accumulator into this one.
    pub fn merge(&mut self, other: KernelTimings) {
        self.fft_s += other.fft_s;
        self.kernel_s += other.kernel_s;
    }
}

/// Reusable scratch for the solver's zero-allocation entry points. One per
/// worker thread (grow-only buffers sized on first use); a single
/// workspace serves any number of solves on any grids.
#[derive(Debug, Default)]
pub struct PoissonWorkspace {
    /// Half-spectrum buffer for r2c/c2r solves.
    half: Vec<Complex64>,
    /// Real output field (potential) for `solve_into`.
    v: Vec<f64>,
    /// Phase timings accumulated across all solves through this workspace.
    timings: KernelTimings,
}

impl PoissonWorkspace {
    /// An empty workspace; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drain the accumulated phase timings, resetting them to zero.
    pub fn take_timings(&mut self) -> KernelTimings {
        std::mem::take(&mut self.timings)
    }

    fn ensure_half(&mut self, dims: (usize, usize, usize)) {
        let need = half_len(dims);
        if self.half.len() != need {
            self.half.resize(need, Complex64::ZERO);
        }
    }

    fn ensure_v(&mut self, n: usize) {
        if self.v.len() != n {
            self.v.resize(n, 0.0);
        }
    }
}

/// A planned Poisson solver: precomputed kernel tables over FFT bins.
#[derive(Debug, Clone)]
pub struct PoissonSolver {
    grid: RealGrid,
    /// Kernel over the Hermitian half-spectrum `(nx, ny, nz/2 + 1)`.
    kernel_half: Vec<f64>,
    /// Half-spectrum kernel with the Hermitian double-count weight folded
    /// in: `w·v(G)` with `w = 1` on the self-conjugate z-planes (`iz = 0`
    /// and `iz = nz/2`) and `w = 2` elsewhere. Multiplying by `w ∈ {1, 2}`
    /// is exact, so folding it in changes no term of the Parseval sum and
    /// leaves one flat weighted contraction, `simd::weighted_energy`.
    kernel_half_weighted: Vec<f64>,
}

impl PoissonSolver {
    /// Precompute the kernel tables for a grid.
    ///
    /// Panics unless every extent of the grid is `2ᵃ3ᵇ5ᶜ` and `nz` is even.
    pub fn new(grid: RealGrid, kernel: CoulombKernel) -> Self {
        assert!(
            supported(grid.dims),
            "grid {:?}: every extent must be 2ᵃ3ᵇ5ᶜ and nz even",
            grid.dims
        );
        let (nx, ny, nz) = grid.dims;
        let nzh = nz / 2 + 1;
        let mut table_half = Vec::with_capacity(nx * ny * nzh);
        for i in 0..nx {
            for j in 0..ny {
                // Half-spectrum bins share the full-bin frequency mapping
                // for iz ≤ nz/2.
                for k in 0..nzh {
                    table_half.push(kernel.eval(grid.g_of_bin(i, j, k).norm_sqr()));
                }
            }
        }
        let table_weighted: Vec<f64> = table_half
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let iz = i % nzh;
                // ×2 is exact, so folding the weight in here leaves every
                // term of the Parseval contraction unchanged.
                if iz == 0 || iz == nzh - 1 {
                    v
                } else {
                    2.0 * v
                }
            })
            .collect();
        Self {
            grid,
            kernel_half: table_half,
            kernel_half_weighted: table_weighted,
        }
    }

    /// A solver with the conventional isolated-system choice
    /// `R_c = L_min/2`.
    pub fn isolated(grid: RealGrid) -> Self {
        let rc = grid.cell.min_half_edge();
        Self::new(grid, CoulombKernel::SphericalCutoff(rc))
    }

    /// The grid this solver was planned for.
    pub fn grid(&self) -> &RealGrid {
        &self.grid
    }

    /// Hartree potential `v(r) = ∫ ρ(r') v_C(r, r') dr'` of a real
    /// density, on the calling thread with caller-owned scratch: no rayon,
    /// zero steady-state heap allocation. Returns the potential borrowed
    /// from the workspace.
    pub fn solve_into<'w>(&self, rho: &[f64], ws: &'w mut PoissonWorkspace) -> &'w [f64] {
        assert_eq!(rho.len(), self.grid.len());
        ws.ensure_half(self.grid.dims);
        ws.ensure_v(self.grid.len());
        let t0 = std::time::Instant::now();
        rfft3_into(rho, self.grid.dims, &mut ws.half);
        let t1 = std::time::Instant::now();
        // With ρ(G) = (dV/V)·ρ̂_k = ρ̂_k/N and the 1/N carried by the
        // inverse FFT, the synthesis v_j = Σ_G ṽ(G) ρ(G) e^{iG·r_j} reduces
        // to a bare pointwise kernel multiply.
        simd::scale_by_table(&mut ws.half, &self.kernel_half);
        let t2 = std::time::Instant::now();
        irfft3_into(&mut ws.half, self.grid.dims, &mut ws.v);
        ws.timings.fft_s += (t1 - t0).as_secs_f64() + t2.elapsed().as_secs_f64();
        ws.timings.kernel_s += (t2 - t1).as_secs_f64();
        &ws.v
    }

    /// The exchange-pair work unit of the paper: given the pair density
    /// `ρ_ij = φ_i φ_j`, return `(ij|ij) = ∬ ρ_ij ρ_ij v_C`. Energy only:
    /// one forward r2c transform, no inverse, no allocation. By Parseval,
    /// `(ij|ij) = (dV/N) Σ_k v(G_k) |ρ̂_k|²` over half-spectrum bins with
    /// weight 2 off the self-conjugate z-planes.
    pub fn exchange_pair_energy(&self, rho_ij: &[f64], ws: &mut PoissonWorkspace) -> f64 {
        assert_eq!(rho_ij.len(), self.grid.len());
        ws.ensure_half(self.grid.dims);
        let t0 = std::time::Instant::now();
        rfft3_into(rho_ij, self.grid.dims, &mut ws.half);
        let t1 = std::time::Instant::now();
        // The double-count weight is pre-folded into the table (exactly, as
        // ×1/×2), so the whole Parseval sum is one flat contraction.
        let acc = simd::weighted_energy(&ws.half, &self.kernel_half_weighted);
        ws.timings.fft_s += (t1 - t0).as_secs_f64();
        ws.timings.kernel_s += t1.elapsed().as_secs_f64();
        acc * self.grid.dvol() / self.grid.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liair_basis::Cell;
    use liair_math::special::erf;
    use liair_math::{approx_eq, Vec3};

    /// The complex-to-complex path — full-spectrum kernel table, every
    /// pencil of every axis transformed on its own through the 1-D plans —
    /// as the oracle for the r2c solver: the potential of `rho`.
    fn solve_reference(grid: &RealGrid, kernel: CoulombKernel, rho: &[f64]) -> Vec<f64> {
        let (nx, ny, nz) = grid.dims;
        let mut table = Vec::with_capacity(grid.len());
        for i in 0..nx {
            for j in 0..ny {
                for k in 0..nz {
                    table.push(kernel.eval(grid.g_of_bin(i, j, k).norm_sqr()));
                }
            }
        }
        let mut work: Vec<Complex64> = rho.iter().map(|&r| Complex64::real(r)).collect();
        c2c3(&mut work, grid.dims, false);
        for (z, &k) in work.iter_mut().zip(&table) {
            *z = z.scale(k);
        }
        c2c3(&mut work, grid.dims, true);
        work.iter().map(|z| z.re).collect()
    }

    /// 3-D c2c transform (the inverse normalized), pencil by pencil.
    fn c2c3(a: &mut [Complex64], (nx, ny, nz): (usize, usize, usize), inverse: bool) {
        for (n, stride) in [(nz, 1), (ny, nz), (nx, ny * nz)] {
            let p = liair_math::plan::plan(n);
            let mut pencil = vec![Complex64::ZERO; n];
            for start in (0..a.len()).filter(|s| s / stride % n == 0) {
                for (j, v) in pencil.iter_mut().enumerate() {
                    *v = a[start + j * stride];
                }
                if inverse {
                    p.ifft(&mut pencil);
                } else {
                    p.fft(&mut pencil);
                }
                for (j, &v) in pencil.iter().enumerate() {
                    a[start + j * stride] = v;
                }
            }
        }
    }

    /// `∬ ρ₁(r) ρ₂(r') v_C dr dr'` through the potential entry point.
    fn coulomb_energy(solver: &PoissonSolver, rho1: &[f64], rho2: &[f64]) -> f64 {
        let mut ws = PoissonWorkspace::new();
        solver.grid().inner(rho1, solver.solve_into(rho2, &mut ws))
    }

    fn gaussian_density(grid: &RealGrid, center: Vec3, alpha: f64) -> Vec<f64> {
        let norm = (alpha / PI).powf(1.5);
        (0..grid.len())
            .map(|i| {
                let d = grid.cell.min_image(center, grid.point_flat(i));
                norm * (-alpha * d.norm_sqr()).exp()
            })
            .collect()
    }

    #[test]
    fn periodic_plane_wave_eigenfunction() {
        // ρ = cos(G·x) ⇒ v = (4π/G²)cos(G·x) for the periodic kernel.
        let l = 7.0;
        let grid = RealGrid::cubic(Cell::cubic(l), 16);
        let gx = 2.0 * PI / l;
        let rho: Vec<f64> = (0..grid.len())
            .map(|i| (gx * grid.point_flat(i).x).cos())
            .collect();
        let solver = PoissonSolver::new(grid, CoulombKernel::Periodic);
        let mut ws = PoissonWorkspace::new();
        let v = solver.solve_into(&rho, &mut ws);
        let scale = 4.0 * PI / (gx * gx);
        for i in (0..grid.len()).step_by(97) {
            let want = scale * (gx * grid.point_flat(i).x).cos();
            assert!(approx_eq(v[i], want, 1e-9), "point {i}: {} vs {want}", v[i]);
        }
    }

    #[test]
    fn isolated_gaussian_self_energy() {
        // Hartree energy of a unit Gaussian charge: ½·√(2α/π)·2 = √(α/2π)·…
        // interaction of the Gaussian with itself is 2√(α/(2π))·…; the
        // closed form is E_H = ½·√(2α/π).
        let l = 24.0;
        let grid = RealGrid::cubic(Cell::cubic(l), 64);
        let alpha = 1.1;
        let rho = gaussian_density(&grid, Vec3::splat(l / 2.0), alpha);
        let solver = PoissonSolver::isolated(grid);
        let got = 0.5 * coulomb_energy(&solver, &rho, &rho);
        let want = 0.5 * (2.0 * alpha / PI).sqrt();
        assert!(approx_eq(got, want, 1e-4), "{got} vs {want}");
    }

    #[test]
    fn isolated_two_gaussian_interaction_is_erf_over_r() {
        // Two unit Gaussian charges, exponents α, separation R:
        // E = erf(√(α/2)·R)/R.
        let l = 28.0;
        let grid = RealGrid::cubic(Cell::cubic(l), 72);
        let alpha = 0.9;
        let r = 3.0;
        let c1 = Vec3::new(l / 2.0 - r / 2.0, l / 2.0, l / 2.0);
        let c2 = Vec3::new(l / 2.0 + r / 2.0, l / 2.0, l / 2.0);
        let rho1 = gaussian_density(&grid, c1, alpha);
        let rho2 = gaussian_density(&grid, c2, alpha);
        let solver = PoissonSolver::isolated(grid);
        let got = coulomb_energy(&solver, &rho1, &rho2);
        let want = erf((alpha / 2.0).sqrt() * r) / r;
        assert!(approx_eq(got, want, 1e-4), "{got} vs {want}");
    }

    #[test]
    fn solver_is_linear() {
        let grid = RealGrid::cubic(Cell::cubic(9.0), 12);
        let solver = PoissonSolver::new(grid, CoulombKernel::Periodic);
        let mut rng = liair_math::rng::SplitMix64::new(4);
        let a: Vec<f64> = (0..grid.len()).map(|_| rng.next_f64() - 0.5).collect();
        let b: Vec<f64> = (0..grid.len()).map(|_| rng.next_f64() - 0.5).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| 2.0 * x - 3.0 * y).collect();
        let mut ws = PoissonWorkspace::new();
        let va = solver.solve_into(&a, &mut ws).to_vec();
        let vb = solver.solve_into(&b, &mut ws).to_vec();
        let vs = solver.solve_into(&sum, &mut ws);
        for i in (0..grid.len()).step_by(53) {
            assert!(approx_eq(vs[i], 2.0 * va[i] - 3.0 * vb[i], 1e-10));
        }
    }

    #[test]
    fn interaction_energy_is_symmetric() {
        let grid = RealGrid::cubic(Cell::cubic(15.0), 24);
        let solver = PoissonSolver::isolated(grid);
        let rho1 = gaussian_density(&grid, Vec3::new(6.0, 7.5, 7.5), 0.7);
        let rho2 = gaussian_density(&grid, Vec3::new(9.0, 7.5, 7.5), 1.4);
        let e12 = coulomb_energy(&solver, &rho1, &rho2);
        let e21 = coulomb_energy(&solver, &rho2, &rho1);
        assert!(approx_eq(e12, e21, 1e-10));
        assert!(e12 > 0.0);
    }

    #[test]
    fn exchange_pair_energy_is_nonnegative() {
        // (ij|ij) is a self-repulsion of the pair density — always ≥ 0.
        let grid = RealGrid::cubic(Cell::cubic(12.0), 24);
        let solver = PoissonSolver::isolated(grid);
        let mut rng = liair_math::rng::SplitMix64::new(8);
        let rho: Vec<f64> = (0..grid.len()).map(|_| rng.next_f64() - 0.5).collect();
        let e = solver.exchange_pair_energy(&rho, &mut PoissonWorkspace::new());
        assert!(e >= 0.0);
    }

    #[test]
    fn solve_into_matches_c2c_reference() {
        let grid = RealGrid::new(Cell::orthorhombic(9.0, 11.0, 13.0), (15, 10, 16));
        let solver = PoissonSolver::new(grid, CoulombKernel::Periodic);
        let mut rng = liair_math::rng::SplitMix64::new(21);
        let rho: Vec<f64> = (0..grid.len()).map(|_| rng.next_f64() - 0.5).collect();
        let want = solve_reference(&grid, CoulombKernel::Periodic, &rho);
        let mut ws = PoissonWorkspace::new();
        // Run twice through the same workspace: the second pass must be
        // identical (buffers fully overwritten, no stale state).
        for _ in 0..2 {
            let got = solver.solve_into(&rho, &mut ws);
            let err = got
                .iter()
                .zip(&want)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-10, "err {err}");
        }
    }

    #[test]
    fn energy_only_path_matches_solve_based_energy() {
        for dims in [(16usize, 16usize, 16usize), (15, 10, 16)] {
            let grid = RealGrid::new(Cell::orthorhombic(9.0, 10.0, 11.0), dims);
            let solver = PoissonSolver::isolated(grid);
            let mut rng = liair_math::rng::SplitMix64::new(33);
            let rho: Vec<f64> = (0..grid.len()).map(|_| rng.next_f64() - 0.5).collect();
            let want = coulomb_energy(&solver, &rho, &rho);
            let mut ws = PoissonWorkspace::new();
            let got = solver.exchange_pair_energy(&rho, &mut ws);
            assert!(
                approx_eq(got, want, 1e-10),
                "dims {dims:?}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn energy_only_path_matches_c2c_reference() {
        // 16³ runs radix-4 passes alone, 18³, 20³ and 24³ mixed radices.
        for n in [16usize, 18, 20, 24] {
            let grid = RealGrid::cubic(Cell::cubic(10.0), n);
            let kernel = CoulombKernel::SphericalCutoff(grid.cell.min_half_edge());
            let solver = PoissonSolver::new(grid, kernel);
            let mut rng = liair_math::rng::SplitMix64::new(55);
            let rho: Vec<f64> = (0..grid.len()).map(|_| rng.next_f64() - 0.5).collect();
            let got = solver.exchange_pair_energy(&rho, &mut PoissonWorkspace::new());
            let want = grid.inner(&rho, &solve_reference(&grid, kernel, &rho));
            let rel = (got - want).abs() / want.abs();
            assert!(rel <= 1e-12, "{n}³: {got} vs c2c {want} ({rel:e})");
        }
    }

    #[test]
    #[should_panic(expected = "every extent must be 2ᵃ3ᵇ5ᶜ and nz even")]
    fn solver_rejects_a_grid_the_transform_cannot_run() {
        PoissonSolver::isolated(RealGrid::cubic(Cell::cubic(10.0), 14));
    }
}
