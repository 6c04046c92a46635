//! Evaluation of Gaussian basis functions and molecular orbitals on
//! real-space grids.
//!
//! Positions are taken modulo the cell (minimum-image displacement from the
//! shell center), so the same code serves the isolated-molecule-in-a-box
//! validation path and the condensed-phase periodic path.

use crate::grid::RealGrid;
use liair_basis::shell::cart_components;
use liair_basis::{Basis, Shell};
use liair_math::{simd, Mat};
use rayon::prelude::*;

/// Grid points evaluated per block in [`ao_values`]: large enough to fill
/// the vector units, small enough that the per-block displacement/angular/
/// radial arrays stay resident in L1.
const AO_BLOCK: usize = 128;

/// Evaluate every AO at every grid point; returns `nao` fields of
/// `grid.len()` values each.
///
/// Evaluation is point-blocked: each block first gathers the min-image
/// displacements, then runs the angular and radial factors as contiguous
/// per-block loops (the `exp`-heavy radial loop iterates primitives
/// outermost so each pass over the block is a single fused
/// multiply-accumulate stream), and finally combines the factors with the
/// SIMD elementwise product. Per-point arithmetic is unchanged from the
/// straight-line form, so results are bit-identical to it.
pub fn ao_values(basis: &Basis, grid: &RealGrid) -> Vec<Vec<f64>> {
    // Precompute per-AO primitive data: (center, [(exp, normalized coef)], powers)
    struct AoData {
        center: liair_math::Vec3,
        powers: (usize, usize, usize),
        prims: Vec<(f64, f64)>,
    }
    let mut aos = Vec::with_capacity(basis.nao());
    for sh in &basis.shells {
        for powers in cart_components(sh.l) {
            let coefs = sh.normalized_coefs(powers);
            let prims = sh
                .prims
                .iter()
                .zip(coefs)
                .map(|(p, c)| (p.exp, c))
                .collect();
            aos.push(AoData {
                center: sh.center,
                powers,
                prims,
            });
        }
    }
    let n = grid.len();
    aos.par_iter()
        .map(|ao| {
            let mut out = vec![0.0; n];
            let (px, py, pz) = (ao.powers.0 as i32, ao.powers.1 as i32, ao.powers.2 as i32);
            let mut dx = [0.0f64; AO_BLOCK];
            let mut dy = [0.0f64; AO_BLOCK];
            let mut dz = [0.0f64; AO_BLOCK];
            let mut r2 = [0.0f64; AO_BLOCK];
            let mut ang = [0.0f64; AO_BLOCK];
            let mut radial = [0.0f64; AO_BLOCK];
            for (block, chunk) in out.chunks_mut(AO_BLOCK).enumerate() {
                let base = block * AO_BLOCK;
                let m = chunk.len();
                for t in 0..m {
                    let d = grid.cell.min_image(ao.center, grid.point_flat(base + t));
                    dx[t] = d.x;
                    dy[t] = d.y;
                    dz[t] = d.z;
                    r2[t] = d.norm_sqr();
                }
                for t in 0..m {
                    ang[t] = dx[t].powi(px) * dy[t].powi(py) * dz[t].powi(pz);
                }
                radial[..m].fill(0.0);
                for &(a, c) in &ao.prims {
                    for t in 0..m {
                        radial[t] += c * (-a * r2[t]).exp();
                    }
                }
                simd::mul_into(chunk, &ang[..m], &radial[..m]);
            }
            out
        })
        .collect()
}

/// Evaluate MO columns `0..nmo` of the coefficient matrix `c`
/// (`nao × nmo_total`) on the grid: `φ_k(r) = Σ_μ C_{μk} χ_μ(r)`.
pub fn orbitals_on_grid(basis: &Basis, c: &Mat, nmo: usize, grid: &RealGrid) -> Vec<Vec<f64>> {
    orbitals_from_aos(&ao_values(basis, grid), c, nmo)
}

/// [`orbitals_on_grid`] from AO fields already evaluated by
/// [`ao_values`]: a caller that keeps one geometry's fields builds every
/// SCF iteration's orbitals without re-evaluating the basis.
pub fn orbitals_from_aos(aos: &[Vec<f64>], c: &Mat, nmo: usize) -> Vec<Vec<f64>> {
    assert_eq!(c.nrows(), aos.len());
    assert!(nmo <= c.ncols());
    let npts = aos.first().map_or(0, Vec::len);
    (0..nmo)
        .into_par_iter()
        .map(|k| {
            let mut phi = vec![0.0; npts];
            for (mu, ao) in aos.iter().enumerate() {
                let coef = c[(mu, k)];
                if coef.abs() < 1e-14 {
                    continue;
                }
                simd::axpy(&mut phi, coef, ao);
            }
            phi
        })
        .collect()
}

/// Electron density of a closed-shell determinant on the grid:
/// `ρ(r) = 2 Σ_{k occ} φ_k(r)²`.
pub fn density_on_grid(orbitals: &[Vec<f64>]) -> Vec<f64> {
    assert!(!orbitals.is_empty());
    let n = orbitals[0].len();
    let mut rho = vec![0.0; n];
    for phi in orbitals {
        for (r, &p) in rho.iter_mut().zip(phi) {
            *r += 2.0 * p * p;
        }
    }
    rho
}

/// Every Cartesian AO of `basis` as its shell and `(lx, ly, lz)`.
fn cartesian_aos<'a>(basis: &'a Basis) -> Vec<(&'a Shell, (usize, usize, usize))> {
    let ao = |sh: &'a Shell| cart_components(sh.l).into_iter().map(move |l| (sh, l));
    basis.shells.iter().flat_map(ao).collect()
}

/// Evaluate every AO at an arbitrary point set (no periodic wrapping —
/// used by the atom-centered molecular quadrature). Returns `nao` rows.
pub fn ao_values_at_points(basis: &Basis, points: &[liair_math::Vec3]) -> Vec<Vec<f64>> {
    cartesian_aos(basis)
        .par_iter()
        .map(|(sh, powers)| {
            let coefs = sh.normalized_coefs(*powers);
            points
                .iter()
                .map(|&p| {
                    let d = p - sh.center;
                    let r2 = d.norm_sqr();
                    let ang = d.x.powi(powers.0 as i32)
                        * d.y.powi(powers.1 as i32)
                        * d.z.powi(powers.2 as i32);
                    let radial: f64 = sh
                        .prims
                        .iter()
                        .zip(&coefs)
                        .map(|(pr, &c)| c * (-pr.exp * r2).exp())
                        .sum();
                    ang * radial
                })
                .collect()
        })
        .collect()
}

/// Evaluate every AO *and* its Cartesian gradient at a point set.
/// Returns `(values, gradients)` with gradients as `[Vec3]` rows per AO.
pub fn ao_values_and_gradients_at_points(
    basis: &Basis,
    points: &[liair_math::Vec3],
) -> (Vec<Vec<f64>>, Vec<Vec<liair_math::Vec3>>) {
    let rows: Vec<(Vec<f64>, Vec<liair_math::Vec3>)> = cartesian_aos(basis)
        .par_iter()
        .map(|(sh, powers)| {
            let coefs = sh.normalized_coefs(*powers);
            let (lx, ly, lz) = (powers.0 as i32, powers.1 as i32, powers.2 as i32);
            let mut vals = Vec::with_capacity(points.len());
            let mut grads = Vec::with_capacity(points.len());
            for &p in points.iter() {
                let d = p - sh.center;
                let r2 = d.norm_sqr();
                let px = d.x.powi(lx);
                let py = d.y.powi(ly);
                let pz = d.z.powi(lz);
                let mut val = 0.0;
                let mut grad = liair_math::Vec3::ZERO;
                for (pr, &c) in sh.prims.iter().zip(&coefs) {
                    let g = c * (-pr.exp * r2).exp();
                    val += px * py * pz * g;
                    // ∂/∂x [x^l e^{-αr²}] = (l x^{l−1} − 2α x^{l+1}) e^{-αr²}
                    let dx = (if lx > 0 {
                        lx as f64 * d.x.powi(lx - 1)
                    } else {
                        0.0
                    } - 2.0 * pr.exp * d.x.powi(lx + 1))
                        * py
                        * pz;
                    let dy = (if ly > 0 {
                        ly as f64 * d.y.powi(ly - 1)
                    } else {
                        0.0
                    } - 2.0 * pr.exp * d.y.powi(ly + 1))
                        * px
                        * pz;
                    let dz = (if lz > 0 {
                        lz as f64 * d.z.powi(lz - 1)
                    } else {
                        0.0
                    } - 2.0 * pr.exp * d.z.powi(lz + 1))
                        * px
                        * py;
                    grad += liair_math::Vec3::new(dx, dy, dz) * g;
                }
                vals.push(val);
                grads.push(grad);
            }
            (vals, grads)
        })
        .collect();
    rows.into_iter().unzip()
}

/// Closed-shell density and gradient magnitude from an AO density matrix
/// at the points the AO values `vals` (and gradients `grads`) were
/// evaluated at: `n = Σ_{μν} D_{μν} χ_μ χ_ν`,
/// `∇n = 2 Σ_{μν} D_{μν} χ_μ ∇χ_ν`. Without `grads` the gradient
/// magnitudes are 0.
pub fn density_from_aos(
    vals: &[Vec<f64>],
    grads: Option<&[Vec<liair_math::Vec3>]>,
    dm: &Mat,
) -> (Vec<f64>, Vec<f64>) {
    let nao = vals.len();
    assert_eq!(dm.nrows(), nao);
    let npts = vals.first().map_or(0, Vec::len);
    let out: Vec<(f64, f64)> = (0..npts)
        .into_par_iter()
        .map_init(
            || vec![0.0; nao],
            |dchi, p| {
                // n = χᵀ D χ, ∇n = 2 (Dχ)·∇χ, with Dχ in per-worker scratch.
                for mu in 0..nao {
                    let mut acc = 0.0;
                    for nu in 0..nao {
                        acc += dm[(mu, nu)] * vals[nu][p];
                    }
                    dchi[mu] = acc;
                }
                let n: f64 = (0..nao).map(|mu| dchi[mu] * vals[mu][p]).sum();
                let g = grads.map_or(0.0, |grads| {
                    let mut g = liair_math::Vec3::ZERO;
                    for mu in 0..nao {
                        g += grads[mu][p] * (2.0 * dchi[mu]);
                    }
                    g.norm()
                });
                (n.max(0.0), g)
            },
        )
        .collect();
    out.into_iter().unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use liair_basis::{systems, Cell};
    use liair_math::{approx_eq, Vec3};

    fn centered_in_box(mut mol: liair_basis::Molecule, l: f64) -> liair_basis::Molecule {
        let c = mol.centroid();
        mol.translate(Vec3::splat(l / 2.0) - c);
        mol
    }

    #[test]
    fn ao_grid_norm_matches_analytic_overlap() {
        // ∫χ_μ² on the grid ≈ S_μμ = 1.
        let l = 16.0;
        let mol = centered_in_box(systems::h2(), l);
        let basis = liair_basis::Basis::sto3g(&mol);
        let grid = RealGrid::cubic(Cell::cubic(l), 64);
        let aos = ao_values(&basis, &grid);
        for (mu, ao) in aos.iter().enumerate() {
            let norm = grid.inner(ao, ao);
            assert!(approx_eq(norm, 1.0, 2e-3), "AO {mu}: {norm}");
        }
    }

    #[test]
    fn ao_grid_cross_overlap_matches_analytic() {
        let l = 16.0;
        let mol = centered_in_box(systems::h2(), l);
        let basis = liair_basis::Basis::sto3g(&mol);
        let s = liair_integrals::overlap_matrix(&basis);
        let grid = RealGrid::cubic(Cell::cubic(l), 64);
        let aos = ao_values(&basis, &grid);
        let s01 = grid.inner(&aos[0], &aos[1]);
        assert!(approx_eq(s01, s[(0, 1)], 2e-3), "{s01} vs {}", s[(0, 1)]);
    }

    #[test]
    fn density_integrates_to_electron_count() {
        // Two electrons in the normalized bonding combination of H2.
        let l = 16.0;
        let mol = centered_in_box(systems::h2(), l);
        let basis = liair_basis::Basis::sto3g(&mol);
        let s = liair_integrals::overlap_matrix(&basis);
        let norm = 1.0 / (2.0 + 2.0 * s[(0, 1)]).sqrt();
        let mut c = Mat::zeros(2, 1);
        c[(0, 0)] = norm;
        c[(1, 0)] = norm;
        let grid = RealGrid::cubic(Cell::cubic(l), 64);
        let phi = orbitals_on_grid(&basis, &c, 1, &grid);
        let rho = density_on_grid(&phi);
        assert!(approx_eq(grid.integrate(&rho), 2.0, 5e-3));
        // Density is nonnegative everywhere.
        assert!(rho.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn point_values_match_grid_values() {
        let l = 10.0;
        let mol = centered_in_box(systems::water(), l);
        let basis = liair_basis::Basis::sto3g(&mol);
        let grid = RealGrid::cubic(Cell::cubic(l), 8);
        let pts: Vec<Vec3> = (0..grid.len()).map(|i| grid.point_flat(i)).collect();
        let on_grid = ao_values(&basis, &grid);
        let at_pts = ao_values_at_points(&basis, &pts);
        // Min-image equals the direct displacement only for points within
        // half a box of the shell center along every axis; compare those.
        for (mu, ao) in basis.aos.iter().enumerate() {
            let c = basis.shells[ao.shell].center;
            for i in (0..pts.len()).step_by(37) {
                let p = pts[i];
                if (0..3).all(|k| (p[k] - c[k]).abs() < l / 2.0 - 1e-9) {
                    assert!(
                        approx_eq(on_grid[mu][i], at_pts[mu][i], 1e-10),
                        "AO {mu} point {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn ao_gradients_match_finite_difference() {
        let mol = systems::water();
        let basis = liair_basis::Basis::sto3g(&mol);
        let p0 = Vec3::new(0.4, 0.3, 0.2);
        let h = 1e-6;
        let (_, grads) = ao_values_and_gradients_at_points(&basis, &[p0]);
        for axis in 0..3 {
            let mut pp = p0;
            pp[axis] += h;
            let mut pm = p0;
            pm[axis] -= h;
            let vp = ao_values_at_points(&basis, &[pp]);
            let vm = ao_values_at_points(&basis, &[pm]);
            for mu in 0..basis.nao() {
                let fd = (vp[mu][0] - vm[mu][0]) / (2.0 * h);
                assert!(
                    approx_eq(grads[mu][0][axis], fd, 1e-5),
                    "AO {mu} axis {axis}: {} vs {fd}",
                    grads[mu][0][axis]
                );
            }
        }
    }

    #[test]
    fn density_from_dm_integrates_to_nelec() {
        // D = 2 c cᵀ for the bonding orbital of H2; integrate n over a
        // Becke grid → 2 electrons.
        let mol = systems::h2();
        let basis = liair_basis::Basis::sto3g(&mol);
        let s = liair_integrals::overlap_matrix(&basis);
        let norm = 1.0 / (2.0 + 2.0 * s[(0, 1)]).sqrt();
        let mut dm = Mat::zeros(2, 2);
        for i in 0..2 {
            for j in 0..2 {
                dm[(i, j)] = 2.0 * norm * norm;
            }
        }
        let mg = crate::molgrid::MolGrid::becke(&mol, 40, 8);
        let (vals, grads) = ao_values_and_gradients_at_points(&basis, &mg.points);
        let (n, grad) = density_from_aos(&vals, Some(&grads), &dm);
        let total = mg.integrate(&n);
        assert!(approx_eq(total, 2.0, 1e-4), "{total}");
        assert!(grad.iter().all(|&g| g >= 0.0));
    }

    #[test]
    fn p_orbital_has_node_at_center() {
        let l = 12.0;
        let mut mol = liair_basis::Molecule::new();
        mol.push(liair_basis::Element::O, Vec3::splat(l / 2.0));
        let basis = liair_basis::Basis::sto3g(&mol);
        let grid = RealGrid::cubic(Cell::cubic(l), 32);
        let aos = ao_values(&basis, &grid);
        // AO 2 is 2px; at the center point (16,16,16) its value is 0.
        let center_idx = grid.len() / 2 + grid.dims.2 / 2 + grid.dims.1 / 2 * grid.dims.2;
        // Instead of index gymnastics, scan for the max |value| point of
        // the s AO — that is the nucleus — and check px vanishes there.
        let (imax, _) = aos[0]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap();
        let _ = center_idx;
        assert!(aos[2][imax].abs() < 1e-10);
    }
}
