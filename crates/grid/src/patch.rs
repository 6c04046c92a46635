//! Pair-local grid patches — the compact representation at the heart of
//! the paper's time-to-solution win.
//!
//! Localized orbital pairs have compact support: instead of transforming
//! the full simulation cell per pair, a small cubic patch covering both
//! orbitals is cut out of the parent grid (same spacing, periodic wrap)
//! and the pair Poisson problem is solved on the patch with the isolated
//! kernel. The FFT shrinks from `N_cell³` to `N_patch³` — the ~10× the
//! abstract reports. This module *executes* that mechanism; the cost model
//! in `liair-core::simulate` prices it at scale.
//!
//! Patch shapes repeat heavily across a pair list (the extent is rounded
//! to a power of two, at most the parent's extent, and the spacing is
//! shared), so every patch grid meets the transform's rule (`2ᵃ3ᵇ5ᶜ`, even)
//! whenever its parent does, and the isolated Poisson
//! solver — whose kernel table costs an `O(N_patch³)` rebuild — is cached
//! process-wide per `(extent, edge)` shape. The one energy entry point,
//! [`patch_pair_energy_ws`], gathers through [`Patch::gather_into`] into a
//! caller-owned [`PatchScratch`] and runs the solver's energy-only path,
//! so the steady-state patched pair loop allocates nothing.

use crate::grid::RealGrid;
use crate::poisson::{PoissonSolver, PoissonWorkspace};
use liair_basis::Cell;
use liair_math::simd;
use liair_math::Vec3;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A cubic patch cut from a parent grid.
#[derive(Debug, Clone)]
pub struct Patch {
    /// Grid-index origin in the parent grid (corner, before wrapping).
    pub origin: (i64, i64, i64),
    /// Points per axis.
    pub extent: usize,
    /// The patch's own grid (isolated cell of matching physical size).
    pub grid: RealGrid,
}

impl Patch {
    /// Plan a patch of at least `extent³` parent-spacing points whose
    /// *center* lands nearest to `center`. The extent is rounded up to the
    /// next power of two and clamped to the parent, so it is a size the
    /// transform runs whenever the parent's is. The rounding is not about
    /// transform speed (every `2ᵃ3ᵇ5ᶜ` extent runs the same mixed-radix
    /// passes): the margin it adds is part of the patched path's measured
    /// accuracy bounds.
    pub fn plan(parent: &RealGrid, center: Vec3, extent: usize) -> Patch {
        let (nx, ny, nz) = parent.dims;
        assert_eq!(nx, ny, "patches require cubic parent grids");
        assert_eq!(ny, nz, "patches require cubic parent grids");
        let extent = extent.max(2).next_power_of_two().min(nx);
        let h = parent.spacing();
        let origin = (
            (center.x / h.x).round() as i64 - extent as i64 / 2,
            (center.y / h.y).round() as i64 - extent as i64 / 2,
            (center.z / h.z).round() as i64 - extent as i64 / 2,
        );
        let cell = Cell::cubic(extent as f64 * h.x);
        Patch {
            origin,
            extent,
            grid: RealGrid::cubic(cell, extent),
        }
    }

    /// Gather a field from the parent grid into this patch (periodic
    /// wrap), into caller-owned storage of `extent³` values.
    pub fn gather_into(&self, parent: &RealGrid, field: &[f64], out: &mut [f64]) {
        assert_eq!(field.len(), parent.len());
        let e = self.extent;
        assert_eq!(out.len(), e * e * e, "output does not match patch extent");
        let (nx, ny, nz) = parent.dims;
        let wrap = |v: i64, n: usize| -> usize { v.rem_euclid(n as i64) as usize };
        let mut idx = 0;
        for ix in 0..e {
            let px = wrap(self.origin.0 + ix as i64, nx);
            for iy in 0..e {
                let py = wrap(self.origin.1 + iy as i64, ny);
                for iz in 0..e {
                    let pz = wrap(self.origin.2 + iz as i64, nz);
                    out[idx] = field[(px * ny + py) * nz + pz];
                    idx += 1;
                }
            }
        }
    }

    /// Physical edge length of the patch (Bohr).
    pub fn edge(&self) -> f64 {
        self.grid.cell.lengths.x
    }
}

/// Cache key: (grid extent, cell edge bits) — cubic patches only.
type SolverCache = Mutex<HashMap<(usize, u64), Arc<PoissonSolver>>>;

static PATCH_SOLVER_CACHE: OnceLock<SolverCache> = OnceLock::new();

/// Fetch (or build and cache) the isolated Poisson solver for a cubic
/// patch grid. Patch shapes repeat across a pair list, and the kernel
/// table rebuild the seed paid per pair dominates small-patch solves.
pub fn isolated_patch_solver(grid: RealGrid) -> Arc<PoissonSolver> {
    let key = (grid.dims.0, grid.cell.lengths.x.to_bits());
    let cache = PATCH_SOLVER_CACHE.get_or_init(Default::default);
    if let Some(s) = cache.lock().unwrap().get(&key) {
        return Arc::clone(s);
    }
    let built = Arc::new(PoissonSolver::isolated(grid));
    Arc::clone(cache.lock().unwrap().entry(key).or_insert(built))
}

/// Reusable buffers for [`patch_pair_energy_ws`]: the two gathered
/// orbitals, their product density, and the Poisson workspace. Keep one
/// per worker thread.
#[derive(Debug, Default)]
pub struct PatchScratch {
    a: Vec<f64>,
    b: Vec<f64>,
    rho: Vec<f64>,
    poisson: PoissonWorkspace,
}

impl PatchScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drain the FFT/kernel phase timings accumulated by the embedded
    /// Poisson workspace across patched pair solves.
    pub fn take_timings(&mut self) -> crate::poisson::KernelTimings {
        self.poisson.take_timings()
    }

    fn ensure(&mut self, n: usize) {
        if self.a.len() != n {
            self.a.resize(n, 0.0);
            self.b.resize(n, 0.0);
            self.rho.resize(n, 0.0);
        }
    }
}

/// One exchange-pair term `(ij|ij)` evaluated on a pair-local patch:
/// gather both orbitals around the pair midpoint, form the pair density,
/// solve the isolated Poisson problem on the small box — through the
/// cached patch solver and the energy-only (forward transform only)
/// Poisson path, with caller-owned scratch: zero steady-state heap
/// allocation.
///
/// `extent` is the patch size in parent grid points; choose it to cover
/// both orbitals (`≥ (d_ij + 6σ)/h`).
pub fn patch_pair_energy_ws(
    parent: &RealGrid,
    phi_i: &[f64],
    phi_j: &[f64],
    midpoint: Vec3,
    extent: usize,
    scratch: &mut PatchScratch,
) -> f64 {
    let patch = Patch::plan(parent, midpoint, extent);
    scratch.ensure(patch.extent.pow(3));
    patch.gather_into(parent, phi_i, &mut scratch.a);
    patch.gather_into(parent, phi_j, &mut scratch.b);
    simd::mul_into(&mut scratch.rho, &scratch.a, &scratch.b);
    let solver = isolated_patch_solver(patch.grid);
    solver.exchange_pair_energy(&scratch.rho, &mut scratch.poisson)
}

#[cfg(test)]
mod tests {
    use super::*;
    use liair_math::approx_eq;
    use std::f64::consts::PI;

    fn gaussian_field(grid: &RealGrid, center: Vec3, alpha: f64) -> Vec<f64> {
        let norm = (2.0 * alpha / PI).powf(0.75);
        (0..grid.len())
            .map(|i| {
                let d = grid.cell.min_image(center, grid.point_flat(i));
                norm * (-alpha * d.norm_sqr()).exp()
            })
            .collect()
    }

    #[test]
    fn gather_reproduces_field_values() {
        let parent = RealGrid::cubic(Cell::cubic(16.0), 32);
        let field: Vec<f64> = (0..parent.len()).map(|i| i as f64).collect();
        let patch = Patch::plan(&parent, Vec3::splat(8.0), 8);
        let mut gathered = vec![0.0; 512];
        patch.gather_into(&parent, &field, &mut gathered);
        // Spot-check one point: patch (0,0,0) = parent at wrapped origin.
        let (nx, ny, nz) = parent.dims;
        let wrap = |v: i64, n: usize| v.rem_euclid(n as i64) as usize;
        let want = field[(wrap(patch.origin.0, nx) * ny + wrap(patch.origin.1, ny)) * nz
            + wrap(patch.origin.2, nz)];
        assert_eq!(gathered[0], want);
    }

    #[test]
    fn patch_wraps_across_the_boundary() {
        let parent = RealGrid::cubic(Cell::cubic(10.0), 20);
        let field: Vec<f64> = (0..parent.len()).map(|i| (i % 97) as f64).collect();
        // Patch centered at the cell corner must wrap cleanly.
        let patch = Patch::plan(&parent, Vec3::ZERO, 6);
        assert_eq!(patch.extent, 8); // rounded up to the FFT-friendly size
        let mut gathered = vec![f64::NAN; 512];
        patch.gather_into(&parent, &field, &mut gathered);
        assert!(gathered.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn patch_pair_energy_matches_full_grid() {
        // Two Gaussian orbitals near the box center: the pair energy from
        // a 24-point patch matches the full 64-point isolated solve.
        let l = 24.0;
        let parent = RealGrid::cubic(Cell::cubic(l), 64);
        let c1 = Vec3::new(l / 2.0 - 1.0, l / 2.0, l / 2.0);
        let c2 = Vec3::new(l / 2.0 + 1.0, l / 2.0, l / 2.0);
        let alpha = 1.1;
        let phi_i = gaussian_field(&parent, c1, alpha);
        let phi_j = gaussian_field(&parent, c2, alpha);
        // Full-grid reference.
        let solver = PoissonSolver::isolated(parent);
        let rho: Vec<f64> = phi_i.iter().zip(&phi_j).map(|(a, b)| a * b).collect();
        let want = solver.exchange_pair_energy(&rho, &mut PoissonWorkspace::new());
        // Patch evaluation — 24³ instead of 64³ (19× fewer points).
        let mid = (c1 + c2) * 0.5;
        let mut scratch = PatchScratch::new();
        let got = patch_pair_energy_ws(&parent, &phi_i, &phi_j, mid, 24, &mut scratch);
        assert!(
            approx_eq(got, want, 2e-3),
            "patch {got} vs full {want} (rel {:.1e})",
            (got - want).abs() / want
        );
        assert!(want > 0.0);
        // A warm scratch carries no state from one pair to the next.
        let again = patch_pair_energy_ws(&parent, &phi_i, &phi_j, mid, 24, &mut scratch);
        assert_eq!(got.to_bits(), again.to_bits());
    }

    #[test]
    fn bigger_patches_converge_to_full_grid() {
        let l = 20.0;
        let parent = RealGrid::cubic(Cell::cubic(l), 64);
        let c = Vec3::splat(l / 2.0);
        let phi = gaussian_field(&parent, c, 0.9);
        let solver = PoissonSolver::isolated(parent);
        let rho: Vec<f64> = phi.iter().map(|x| x * x).collect();
        let want = solver.exchange_pair_energy(&rho, &mut PoissonWorkspace::new());
        let mut errs = Vec::new();
        // One scratch across the three patch sizes: it regrows per shape.
        let mut scratch = PatchScratch::new();
        for extent in [12usize, 20, 32] {
            let got = patch_pair_energy_ws(&parent, &phi, &phi, c, extent, &mut scratch);
            errs.push((got - want).abs());
        }
        assert!(errs[2] < errs[0], "{errs:?}");
        assert!(errs[2] / want < 1e-3, "{errs:?}");
    }

    #[test]
    fn patch_clamps_to_parent_size() {
        let parent = RealGrid::cubic(Cell::cubic(8.0), 16);
        let patch = Patch::plan(&parent, Vec3::splat(4.0), 99);
        assert_eq!(patch.extent, 16);
        assert!(approx_eq(patch.edge(), 8.0, 1e-12));
    }

    #[test]
    fn patch_solver_is_cached_per_shape() {
        let parent = RealGrid::cubic(Cell::cubic(16.0), 32);
        let p1 = Patch::plan(&parent, Vec3::splat(5.0), 8);
        let p2 = Patch::plan(&parent, Vec3::splat(11.0), 8);
        let s1 = isolated_patch_solver(p1.grid);
        let s2 = isolated_patch_solver(p2.grid);
        assert!(
            Arc::ptr_eq(&s1, &s2),
            "same-shape patches must share a solver"
        );
        let p3 = Patch::plan(&parent, Vec3::splat(5.0), 16);
        let s3 = isolated_patch_solver(p3.grid);
        assert!(!Arc::ptr_eq(&s1, &s3), "different shapes must not collide");
    }
}
