//! Evaluation of Gaussian basis functions and molecular orbitals on
//! real-space grids.
//!
//! Positions are taken modulo the cell (minimum-image displacement from the
//! shell center), so the same code serves the isolated-molecule-in-a-box
//! validation path and the condensed-phase periodic path.

use crate::grid::RealGrid;
use liair_basis::shell::cart_components;
use liair_basis::{Basis, Shell};
use liair_math::{simd, Mat, Vec3};
use rayon::prelude::*;

/// Evaluate every AO at every grid point; returns `nao` fields of
/// `grid.len()` values each: [`SeparableAos::values`].
pub fn ao_values(basis: &Basis, grid: &RealGrid) -> Vec<Vec<f64>> {
    SeparableAos::new(basis, grid).values()
}

/// A basis on a uniform grid in factored form. On an orthorhombic grid a
/// Cartesian Gaussian primitive factors per axis, `x^lx e^{−αx²}·
/// y^ly e^{−αy²}·z^lz e^{−αz²}`, with each axis displacement the minimum
/// image that [`liair_basis::Cell::min_image`] takes. Per AO, primitive
/// and axis this holds the value row `d^l e^{−αd²}` and the derivative
/// row `(l d^{l−1} − 2α d^{l+1}) e^{−αd²}` over the grid planes, the
/// contraction coefficient folded into both x rows: `nx + ny + nz`
/// exponentials per primitive, not one per grid point.
pub struct SeparableAos {
    dims: (usize, usize, usize),
    aos: Vec<AxisRows>,
}

/// One AO's rows: per axis `k`, `nprim` value (`val[k]`) and derivative
/// (`der[k]`) rows of `n_k` entries, primitive-major.
struct AxisRows {
    nprim: usize,
    val: [Vec<f64>; 3],
    der: [Vec<f64>; 3],
}

impl SeparableAos {
    /// The factored AOs of `basis` (in the grid's box frame) on `grid`.
    pub fn new(basis: &Basis, grid: &RealGrid) -> Self {
        let (nx, ny, nz) = grid.dims;
        let h = grid.spacing();
        let lengths = grid.cell.lengths;
        let aos = cartesian_aos(basis)
            .par_iter()
            .map(|(sh, powers)| {
                let coefs = sh.normalized_coefs(*powers);
                let axis = |n: usize, k: usize, l: usize| -> (Vec<f64>, Vec<f64>) {
                    let disp: Vec<f64> = (0..n)
                        .map(|i| {
                            let mut d = i as f64 * h[k] - sh.center[k];
                            d -= lengths[k] * (d / lengths[k]).round();
                            d
                        })
                        .collect();
                    let (mut val, mut der) = (Vec::new(), Vec::new());
                    for p in &sh.prims {
                        for &d in &disp {
                            let e = (-p.exp * d * d).exp();
                            let lower = if l > 0 {
                                l as f64 * d.powi(l as i32 - 1)
                            } else {
                                0.0
                            };
                            val.push(d.powi(l as i32) * e);
                            der.push((lower - 2.0 * p.exp * d.powi(l as i32 + 1)) * e);
                        }
                    }
                    (val, der)
                };
                let (mut vx, mut dx) = axis(nx, 0, powers.0);
                for (rows, &c) in vx.chunks_mut(nx).zip(dx.chunks_mut(nx)).zip(&coefs) {
                    let (v, d) = rows;
                    v.iter_mut().for_each(|x| *x *= c);
                    d.iter_mut().for_each(|x| *x *= c);
                }
                let (vy, dy) = axis(ny, 1, powers.1);
                let (vz, dz) = axis(nz, 2, powers.2);
                AxisRows {
                    nprim: sh.prims.len(),
                    val: [vx, vy, vz],
                    der: [dx, dy, dz],
                }
            })
            .collect();
        SeparableAos {
            dims: grid.dims,
            aos,
        }
    }

    /// Every AO's field on the grid, streaming `Σ_prim x·y·z` along the
    /// contiguous z rows. The values differ from the per-point form
    /// `(x^lx y^ly z^lz)·Σ c e^{−αr²}` only by rounding: the bound is
    /// 1e-14 of the field's largest magnitude, and the test cases
    /// (STO-3G and 6-31G, periodic wrap, non-cubic cells) stay below
    /// 2.2·`f64::EPSILON` of it
    /// (`tests::separable_collocation_matches_per_point_oracle`).
    pub fn values(&self) -> Vec<Vec<f64>> {
        let (nx, ny, nz) = self.dims;
        self.aos
            .par_iter()
            .map(|ao| {
                let [gx, gy, gz] = &ao.val;
                let mut out = vec![0.0; nx * ny * nz];
                for (ix, plane) in out.chunks_mut(ny * nz).enumerate() {
                    for (iy, row) in plane.chunks_mut(nz).enumerate() {
                        for p in 0..ao.nprim {
                            let s = gx[p * nx + ix] * gy[p * ny + iy];
                            simd::axpy(row, s, &gz[p * nz..(p + 1) * nz]);
                        }
                    }
                }
                out
            })
            .collect()
    }

    /// `out[3μ + k] = Σ_p ∂_k χ_μ(r_p) f(r_p)` for every AO `μ` and axis
    /// `k`, the field's projections onto the AO gradients (no volume
    /// element). Each primitive contracts `f` with its z rows first, then
    /// y, then x, so no gradient field is formed. Serial, with a fixed
    /// summation order: the bits depend on `f` alone.
    pub fn gradient_projections(&self, f: &[f64], out: &mut [f64]) {
        let (nx, ny, nz) = self.dims;
        assert_eq!(f.len(), nx * ny * nz);
        assert_eq!(out.len(), 3 * self.aos.len());
        for (ao, o) in self.aos.iter().zip(out.chunks_exact_mut(3)) {
            let mut g = [0.0; 3];
            for p in 0..ao.nprim {
                let [gx, gy, gz] =
                    [(0, nx), (1, ny), (2, nz)].map(|(k, n)| &ao.val[k][p * n..][..n]);
                let [dgx, dgy, dgz] =
                    [(0, nx), (1, ny), (2, nz)].map(|(k, n)| &ao.der[k][p * n..][..n]);
                for (ix, plane) in f.chunks_exact(ny * nz).enumerate() {
                    let (mut sy, mut sdy, mut sdz) = (0.0, 0.0, 0.0);
                    for (iy, line) in plane.chunks_exact(nz).enumerate() {
                        let (mut a, mut b) = (0.0, 0.0);
                        for ((&v, &z), &dz) in line.iter().zip(gz).zip(dgz) {
                            a += v * z;
                            b += v * dz;
                        }
                        sy += gy[iy] * a;
                        sdy += dgy[iy] * a;
                        sdz += gy[iy] * b;
                    }
                    g[0] += dgx[ix] * sy;
                    g[1] += gx[ix] * sdy;
                    g[2] += gx[ix] * sdz;
                }
            }
            o.copy_from_slice(&g);
        }
    }
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

/// Evaluate every AO of `basis` at `points` (no periodic wrapping: the
/// atom-centered molecular quadrature) into the caller's AO-major
/// buffers: `vals[μ·m + i] = χ_μ(r_i)` for the `m` points, and with
/// `grads` the Cartesian gradient `∇χ_μ(r_i)` at the same index. A value
/// is `(x^lx y^ly z^lz)·Σ c e^{−αr²}`; each primitive's exponential serves
/// the value and the gradient. Serial: callers stream fixed batches of
/// points through it (in parallel over batches), so no whole-grid array
/// need be held.
pub fn aos_at_points(basis: &Basis, points: &[Vec3], vals: &mut [f64], grads: Option<&mut [Vec3]>) {
    let m = points.len();
    let aos = cartesian_aos(basis);
    assert_eq!(vals.len(), aos.len() * m, "one value per AO and point");
    let rows = vals.chunks_exact_mut(m.max(1));
    match grads {
        None => {
            for ((sh, powers), row) in aos.into_iter().zip(rows) {
                let coefs = sh.normalized_coefs(powers);
                for (v, &p) in row.iter_mut().zip(points) {
                    *v = ao_at::<false>(sh, &coefs, powers, p).0;
                }
            }
        }
        Some(grads) => {
            assert_eq!(grads.len(), aos.len() * m, "one gradient per AO and point");
            let grad_rows = grads.chunks_exact_mut(m.max(1));
            for (((sh, powers), row), grad_row) in aos.into_iter().zip(rows).zip(grad_rows) {
                let coefs = sh.normalized_coefs(powers);
                for ((v, g), &p) in row.iter_mut().zip(grad_row).zip(points) {
                    (*v, *g) = ao_at::<true>(sh, &coefs, powers, p);
                }
            }
        }
    }
}

/// One AO's value at `p`, and its gradient when `GRAD` (else zero), from
/// its shell's normalized coefficients for `powers`.
fn ao_at<const GRAD: bool>(
    sh: &Shell,
    coefs: &[f64],
    powers: (usize, usize, usize),
    p: Vec3,
) -> (f64, Vec3) {
    let (lx, ly, lz) = (powers.0 as i32, powers.1 as i32, powers.2 as i32);
    let d = p - sh.center;
    let r2 = d.norm_sqr();
    let px = d.x.powi(lx);
    let py = d.y.powi(ly);
    let pz = d.z.powi(lz);
    // −0.0 is where `Iterator::sum` starts, so an all-zero tail keeps the
    // sign the per-point form gave it.
    let mut radial = -0.0;
    let mut grad = Vec3::ZERO;
    for (pr, &c) in sh.prims.iter().zip(coefs) {
        let g = c * (-pr.exp * r2).exp();
        radial += g;
        if GRAD {
            // ∂/∂x [x^l e^{-αr²}] = (l x^{l−1} − 2α x^{l+1}) e^{-αr²}
            let lower = |l: i32, x: f64| if l > 0 { l as f64 * x.powi(l - 1) } else { 0.0 };
            let dx = (lower(lx, d.x) - 2.0 * pr.exp * d.x.powi(lx + 1)) * py * pz;
            let dy = (lower(ly, d.y) - 2.0 * pr.exp * d.y.powi(ly + 1)) * px * pz;
            let dz = (lower(lz, d.z) - 2.0 * pr.exp * d.z.powi(lz + 1)) * px * py;
            grad += Vec3::new(dx, dy, dz) * g;
        }
    }
    (px * py * pz * radial, grad)
}

/// Contract the AO density matrix `dm` over one batch of `m = n.len()`
/// points whose AO values `vals` (and gradients) [`aos_at_points`] wrote:
/// `(Dχ)_μ = Σ_ν D_μν χ_ν` into `dchi` (AO-major, like `vals`), the
/// closed-shell density `n = Σ_μ (Dχ)_μ χ_μ` clamped at 0, and with
/// `grad = Some((grads, grad_n))` the gradient magnitude
/// `|∇n| = |Σ_μ 2(Dχ)_μ ∇χ_μ|`. Every point's sums run over `ν` and `μ`
/// in ascending order, so its bits do not depend on the batch it is in.
pub fn density_at_points(
    dm: &Mat,
    vals: &[f64],
    grad: Option<(&[Vec3], &mut [f64])>,
    n: &mut [f64],
    dchi: &mut [f64],
) {
    let (nao, m) = (dm.nrows(), n.len());
    assert_eq!(vals.len(), nao * m, "one value per AO and point");
    assert_eq!(dchi.len(), nao * m, "one (Dχ) per AO and point");
    let row = |mu: usize| mu * m..(mu + 1) * m;
    for mu in 0..nao {
        let out = &mut dchi[row(mu)];
        out.fill(0.0);
        for nu in 0..nao {
            let d = dm[(mu, nu)];
            for (o, &v) in out.iter_mut().zip(&vals[row(nu)]) {
                *o += d * v;
            }
        }
    }
    // −0.0 is where `Iterator::sum` starts (see `ao_at`).
    n.fill(-0.0);
    for mu in 0..nao {
        for ((n, &dc), &v) in n.iter_mut().zip(&dchi[row(mu)]).zip(&vals[row(mu)]) {
            *n += dc * v;
        }
    }
    n.iter_mut().for_each(|n| *n = n.max(0.0));
    if let Some((grads, grad_n)) = grad {
        assert_eq!(grads.len(), nao * m, "one gradient per AO and point");
        for (i, out) in grad_n.iter_mut().enumerate() {
            let mut g = Vec3::ZERO;
            for mu in 0..nao {
                g += grads[mu * m + i] * (2.0 * dchi[mu * m + i]);
            }
            *out = g.norm();
        }
    }
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

    /// The per-point collocation `ao_values` replaced: the min-image
    /// displacement of every grid point, then `(x^lx y^ly z^lz)·Σ c e^{−αr²}`.
    fn ao_values_per_point(basis: &Basis, grid: &RealGrid) -> Vec<Vec<f64>> {
        cartesian_aos(basis)
            .iter()
            .map(|(sh, powers)| {
                let coefs = sh.normalized_coefs(*powers);
                (0..grid.len())
                    .map(|i| {
                        let d = grid.cell.min_image(sh.center, grid.point_flat(i));
                        let ang = d.x.powi(powers.0 as i32)
                            * d.y.powi(powers.1 as i32)
                            * d.z.powi(powers.2 as i32);
                        let radial: f64 = sh
                            .prims
                            .iter()
                            .zip(&coefs)
                            .map(|(p, &c)| c * (-p.exp * d.norm_sqr()).exp())
                            .sum();
                        ang * radial
                    })
                    .collect()
            })
            .collect()
    }

    /// The per-point value formula [`aos_at_points`] replaced:
    /// `(x^lx y^ly z^lz)·Σ c e^{−αr²}`.
    fn value_oracle(sh: &Shell, coefs: &[f64], powers: (usize, usize, usize), p: Vec3) -> f64 {
        let d = p - sh.center;
        let r2 = d.norm_sqr();
        let ang = d.x.powi(powers.0 as i32) * d.y.powi(powers.1 as i32) * d.z.powi(powers.2 as i32);
        let radial: f64 = sh
            .prims
            .iter()
            .zip(coefs)
            .map(|(pr, &c)| c * (-pr.exp * r2).exp())
            .sum();
        ang * radial
    }

    /// The per-point gradient formula [`aos_at_points`] replaced.
    fn gradient_oracle(sh: &Shell, coefs: &[f64], powers: (usize, usize, usize), p: Vec3) -> Vec3 {
        let (lx, ly, lz) = (powers.0 as i32, powers.1 as i32, powers.2 as i32);
        let d = p - sh.center;
        let r2 = d.norm_sqr();
        let px = d.x.powi(lx);
        let py = d.y.powi(ly);
        let pz = d.z.powi(lz);
        let mut grad = Vec3::ZERO;
        for (pr, &c) in sh.prims.iter().zip(coefs) {
            let g = c * (-pr.exp * r2).exp();
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
            grad += Vec3::new(dx, dy, dz) * g;
        }
        grad
    }

    /// The per-point density contraction [`density_at_points`] replaced,
    /// at point `i` of a batch of `m`: `(n, |∇n|)`.
    fn density_oracle(dm: &Mat, vals: &[f64], grads: &[Vec3], m: usize, i: usize) -> (f64, f64) {
        let nao = dm.nrows();
        let mut dchi = vec![0.0; nao];
        for mu in 0..nao {
            let mut acc = 0.0;
            for nu in 0..nao {
                acc += dm[(mu, nu)] * vals[nu * m + i];
            }
            dchi[mu] = acc;
        }
        let n: f64 = (0..nao).map(|mu| dchi[mu] * vals[mu * m + i]).sum();
        let mut g = Vec3::ZERO;
        for mu in 0..nao {
            g += grads[mu * m + i] * (2.0 * dchi[mu]);
        }
        (n.max(0.0), g.norm())
    }

    /// Linear Li₂O at r(Li–O) = 1.62 Å.
    fn li2o() -> liair_basis::Molecule {
        let mut m = liair_basis::Molecule::new();
        for (el, x) in [
            (liair_basis::Element::O, 0.0),
            (liair_basis::Element::Li, 1.62),
            (liair_basis::Element::Li, -1.62),
        ] {
            m.push(el, Vec3::new(x, 0.0, 0.0) * liair_basis::ANGSTROM);
        }
        m
    }

    #[test]
    fn point_evaluator_and_contraction_are_bit_equal_to_the_per_point_oracles() {
        // Every point of a coarse Becke grid (far tails included), in
        // batches of 1, 7 and 128 with a ragged last batch; values alone
        // and with gradients; then a density matrix contracted over each
        // batch.
        let (water, lih, li2o) = (systems::water(), systems::lih(), li2o());
        for (mol, basis) in [
            (&water, Basis::sto3g(&water)),
            (&water, Basis::b631g(&water)),
            (&lih, Basis::sto3g(&lih)),
            (&li2o, Basis::sto3g(&li2o)),
        ] {
            let grid = crate::molgrid::MolGrid::becke(mol, &crate::GridSpec::uniform(13, 4));
            let nao = basis.nao();
            let aos = cartesian_aos(&basis);
            let coefs: Vec<Vec<f64>> = aos
                .iter()
                .map(|(sh, pw)| sh.normalized_coefs(*pw))
                .collect();
            // A symmetric density-like matrix with no structure to hide
            // an index mix-up.
            let mut rng = liair_math::rng::SplitMix64::new(11);
            let mut dm = Mat::zeros(nao, nao);
            for mu in 0..nao {
                for nu in 0..=mu {
                    let x = rng.next_f64() - 0.3;
                    dm[(mu, nu)] = x;
                    dm[(nu, mu)] = x;
                }
            }
            // Drop one point where the pruned grid would split evenly.
            let len = grid.len();
            let points =
                &grid.points[..len - usize::from(len.is_multiple_of(7) || len.is_multiple_of(128))];
            for batch in [1, 7, 128] {
                assert!(
                    batch == 1 || !points.len().is_multiple_of(batch),
                    "a ragged last batch"
                );
                for points in points.chunks(batch) {
                    let m = points.len();
                    let (mut vals, mut alone) = (vec![0.0; nao * m], vec![0.0; nao * m]);
                    let mut grads = vec![Vec3::ZERO; nao * m];
                    aos_at_points(&basis, points, &mut vals, Some(&mut grads));
                    aos_at_points(&basis, points, &mut alone, None);
                    for (mu, (sh, pw)) in aos.iter().enumerate() {
                        for (i, &p) in points.iter().enumerate() {
                            let want = value_oracle(sh, &coefs[mu], *pw, p);
                            let want_g = gradient_oracle(sh, &coefs[mu], *pw, p);
                            let k = mu * m + i;
                            assert_eq!(vals[k].to_bits(), want.to_bits(), "AO {mu} at {p:?}");
                            assert_eq!(alone[k].to_bits(), want.to_bits(), "AO {mu} at {p:?}");
                            for a in 0..3 {
                                assert_eq!(grads[k][a].to_bits(), want_g[a].to_bits(), "∇AO {mu}");
                            }
                        }
                    }
                    let (mut n, mut grad_n, mut dchi) =
                        (vec![0.0; m], vec![0.0; m], vec![0.0; nao * m]);
                    density_at_points(&dm, &vals, Some((&grads, &mut grad_n)), &mut n, &mut dchi);
                    for i in 0..m {
                        let (want_n, want_g) = density_oracle(&dm, &vals, &grads, m, i);
                        assert_eq!(n[i].to_bits(), want_n.to_bits(), "n at batch point {i}");
                        assert_eq!(grad_n[i].to_bits(), want_g.to_bits(), "|∇n| at {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn separable_collocation_matches_per_point_oracle() {
        let l = 12.0;
        let cubic = RealGrid::cubic(Cell::cubic(l), 24);
        let boxed = |mol| centered_in_box(mol, l);
        // Water with its oxygen 0.3 Bohr inside the x = 0 face: the
        // hydrogens' fields wrap through the periodic boundary.
        let mut straddling = systems::water();
        let o = straddling.atoms[0].pos;
        straddling.translate(Vec3::new(0.3, l / 2.0, l / 2.0) - o);
        let ortho = Cell::orthorhombic(10.0, 12.0, 14.0);
        let in_ortho = {
            let mut m = systems::water();
            let c = m.centroid();
            m.translate(Vec3::new(5.0, 6.0, 7.0) - c);
            m
        };
        let cases = [
            (Basis::sto3g(&boxed(systems::h2())), cubic),
            (Basis::sto3g(&boxed(systems::lih())), cubic),
            (Basis::sto3g(&boxed(systems::water())), cubic),
            (Basis::b631g(&boxed(systems::water())), cubic),
            (Basis::sto3g(&straddling), cubic),
            (Basis::b631g(&in_ortho), RealGrid::cubic(ortho, 20)),
            (Basis::b631g(&in_ortho), RealGrid::cubic(ortho, 24)),
        ];
        for (case, (basis, grid)) in cases.iter().enumerate() {
            let got = ao_values(basis, grid);
            let want = ao_values_per_point(basis, grid);
            for (mu, (g, w)) in got.iter().zip(&want).enumerate() {
                let scale = w.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                let err = g
                    .iter()
                    .zip(w)
                    .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
                assert!(
                    err <= 1e-14 * scale,
                    "case {case} AO {mu}: {err:e} of {scale:e}"
                );
            }
        }
    }

    #[test]
    fn gradient_projections_match_the_per_point_gradients() {
        // Σ_p ∇χ_μ(p) f(p) from the factored rows against the per-point
        // AO gradient at each minimum-image displacement, on a field with
        // no structure to hide an axis mix-up; periodic wrap included.
        let l = 10.0;
        let mut straddling = systems::water();
        let o = straddling.atoms[0].pos;
        straddling.translate(Vec3::new(0.3, l / 2.0, l / 2.0) - o);
        let grid = RealGrid::new(Cell::orthorhombic(l, 11.0, 12.0), (16, 18, 20));
        let mut rng = liair_math::rng::SplitMix64::new(7);
        let f: Vec<f64> = (0..grid.len()).map(|_| rng.next_f64() - 0.5).collect();
        for basis in [
            Basis::sto3g(&centered_in_box(systems::lih(), l)),
            Basis::sto3g(&straddling),
        ] {
            let mut got = vec![0.0; 3 * basis.nao()];
            SeparableAos::new(&basis, &grid).gradient_projections(&f, &mut got);
            for (mu, (sh, powers)) in cartesian_aos(&basis).into_iter().enumerate() {
                let coefs = sh.normalized_coefs(powers);
                let (mut want, mut scale) = (Vec3::ZERO, 0.0);
                for (p, &v) in f.iter().enumerate() {
                    let at = sh.center + grid.cell.min_image(sh.center, grid.point_flat(p));
                    let g = gradient_oracle(sh, &coefs, powers, at);
                    want += g * v;
                    scale += g.norm() * v.abs();
                }
                for k in 0..3 {
                    let err = (got[3 * mu + k] - want[k]).abs();
                    assert!(
                        err <= 1e-13 * scale,
                        "AO {mu} axis {k}: {err:e} of {scale:e}"
                    );
                }
            }
        }
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
        let mut at_pts = vec![0.0; basis.nao() * pts.len()];
        aos_at_points(&basis, &pts, &mut at_pts, None);
        // Min-image equals the direct displacement only for points within
        // half a box of the shell center along every axis; compare those.
        for (mu, ao) in basis.aos.iter().enumerate() {
            let c = basis.shells[ao.shell].center;
            for i in (0..pts.len()).step_by(37) {
                let p = pts[i];
                if (0..3).all(|k| (p[k] - c[k]).abs() < l / 2.0 - 1e-9) {
                    assert!(
                        approx_eq(on_grid[mu][i], at_pts[mu * pts.len() + i], 1e-10),
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
        let nao = basis.nao();
        let values = |p: Vec3| {
            let mut v = vec![0.0; nao];
            aos_at_points(&basis, &[p], &mut v, None);
            v
        };
        let mut grads = vec![Vec3::ZERO; nao];
        aos_at_points(&basis, &[p0], &mut vec![0.0; nao], Some(&mut grads));
        for axis in 0..3 {
            let mut pp = p0;
            pp[axis] += h;
            let mut pm = p0;
            pm[axis] -= h;
            let (vp, vm) = (values(pp), values(pm));
            for mu in 0..nao {
                let fd = (vp[mu] - vm[mu]) / (2.0 * h);
                assert!(
                    approx_eq(grads[mu][axis], fd, 1e-5),
                    "AO {mu} axis {axis}: {} vs {fd}",
                    grads[mu][axis]
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
        let mg = crate::molgrid::MolGrid::becke(&mol, &crate::GridSpec::uniform(40, 8));
        let npts = mg.len();
        let (mut vals, mut grads) = (vec![0.0; 2 * npts], vec![Vec3::ZERO; 2 * npts]);
        aos_at_points(&basis, &mg.points, &mut vals, Some(&mut grads));
        let (mut n, mut grad, mut dchi) = (vec![0.0; npts], vec![0.0; npts], vec![0.0; 2 * npts]);
        density_at_points(&dm, &vals, Some((&grads, &mut grad)), &mut n, &mut dchi);
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
