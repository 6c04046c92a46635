//! Atom-centered molecular quadrature (Becke fuzzy-cell grids).
//!
//! Uniform plane-wave grids cannot resolve all-electron Gaussian cores
//! (STO-3G oxygen has exponents ≈ 130 Bohr⁻²), so DFT exchange–correlation
//! integrals use the standard molecular quadrature instead:
//!
//! * per atom, a radial Gauss–Chebyshev grid mapped to `[0, ∞)` by
//!   Becke's `r = r_m (1+x)/(1−x)` transformation;
//! * an angular product grid — Gauss–Legendre in `cos θ` × uniform in `φ`
//!   (exact for spherical harmonics up to the chosen degree; chosen over
//!   Lebedev to stay table-free);
//! * Becke's fuzzy Voronoi partition (three iterations of the smoothing
//!   polynomial) to assemble atomic cells into a molecular weight.
//!
//! Each point belongs to the atom whose radial × angular grid it came
//! from and moves with it; [`MolGrid::weight_gradients`] gives the
//! derivatives of the Becke weights with respect to every nucleus
//! (Johnson–Gill–Pople), so a quadrature energy can be differentiated
//! exactly.

use liair_basis::Molecule;
use liair_math::quadrature::gauss_legendre;
use liair_math::Vec3;
use std::ops::Range;

/// A molecular integration grid: points with weights such that
/// `∫ f ≈ Σ_p w_p f(x_p)`.
#[derive(Debug, Clone)]
pub struct MolGrid {
    /// Quadrature points (Bohr).
    pub points: Vec<Vec3>,
    /// Quadrature weights (Bohr³).
    pub weights: Vec<f64>,
    /// Points are stored atom by atom: those of atom `a`'s radial ×
    /// angular grid are `atom_starts[a]..atom_starts[a + 1]`.
    pub atom_starts: Vec<usize>,
}

/// Becke smoothing polynomial iterated three times.
fn becke_smooth(mu: f64) -> f64 {
    let f = |x: f64| 1.5 * x - 0.5 * x * x * x;
    f(f(f(mu)))
}

/// Derivative of the Becke cell function `s(μ) = ½(1 − f(f(f(μ))))`,
/// `f(x) = 1.5x − 0.5x³`: `−½ f′(f₂) f′(f₁) f′(μ)` with `f′(x) = 1.5(1 − x²)`.
fn becke_cell_derivative(mu: f64) -> f64 {
    let f = |x: f64| 1.5 * x - 0.5 * x * x * x;
    let (f1, f2) = (f(mu), f(f(mu)));
    -27.0 / 16.0 * (1.0 - f2 * f2) * (1.0 - f1 * f1) * (1.0 - mu * mu)
}

/// Map radius scale per element: half the Bragg–Slater-ish radius works
/// well; hydrogen gets a larger share.
fn radial_scale(z: u32) -> f64 {
    match z {
        1 => 1.0,
        2 => 0.6,
        3..=10 => 1.2,
        _ => 1.5,
    }
}

impl MolGrid {
    /// Build a Becke grid with `n_rad` radial shells and an
    /// `n_theta × 2·n_theta` angular product grid per shell.
    pub fn becke(mol: &Molecule, n_rad: usize, n_theta: usize) -> MolGrid {
        let natoms = mol.natoms();
        // Inter-atomic distances once per grid; point–atom distances once
        // per point, into scratch reused by every point.
        let rij: Vec<f64> = (0..natoms * natoms)
            .map(|k| {
                mol.atoms[k / natoms]
                    .pos
                    .distance(mol.atoms[k % natoms].pos)
            })
            .collect();
        let mut dist = vec![0.0; natoms];
        let mut cell = vec![0.0; natoms];
        Self::assemble(mol, n_rad, n_theta, |a, p| {
            for (d, atom) in dist.iter_mut().zip(&mol.atoms) {
                *d = p.distance(atom.pos);
            }
            cell.fill(1.0);
            for i1 in 0..natoms {
                for j1 in 0..natoms {
                    if i1 == j1 {
                        continue;
                    }
                    let mu = (dist[i1] - dist[j1]) / rij[i1 * natoms + j1];
                    cell[i1] *= 0.5 * (1.0 - becke_smooth(mu));
                }
            }
            let total: f64 = cell.iter().sum();
            (total > 1e-300).then(|| cell[a] / total)
        })
    }

    /// Every atom's radial × angular product points, in atom, shell,
    /// direction order; a point is kept with weight `w_rad·w_ang·w` when
    /// `partition(atom, point)` gives a Becke weight `w` and the product
    /// exceeds 1e-16.
    fn assemble(
        mol: &Molecule,
        n_rad: usize,
        n_theta: usize,
        mut partition: impl FnMut(usize, Vec3) -> Option<f64>,
    ) -> MolGrid {
        assert!(n_rad >= 2 && n_theta >= 2);
        let n_phi = 2 * n_theta;
        // Angular product grid on the unit sphere.
        let (ct_nodes, ct_weights) = gauss_legendre(n_theta);
        let mut sphere: Vec<(Vec3, f64)> = Vec::with_capacity(n_theta * n_phi);
        for (i, &ct) in ct_nodes.iter().enumerate() {
            let st = (1.0 - ct * ct).sqrt();
            for k in 0..n_phi {
                let phi = 2.0 * std::f64::consts::PI * (k as f64 + 0.5) / n_phi as f64;
                let dir = Vec3::new(st * phi.cos(), st * phi.sin(), ct);
                // Solid-angle weight: w_θ · (2π/n_phi).
                let w = ct_weights[i] * 2.0 * std::f64::consts::PI / n_phi as f64;
                sphere.push((dir, w));
            }
        }

        // At most every product point is kept: sized once, so the grid
        // holds no spare capacity.
        let most = mol.natoms() * n_rad * sphere.len();
        let mut points = Vec::with_capacity(most);
        let mut weights = Vec::with_capacity(most);
        let mut atom_starts = Vec::with_capacity(mol.natoms() + 1);
        for (a, atom) in mol.atoms.iter().enumerate() {
            atom_starts.push(points.len());
            let rm = radial_scale(atom.element.z());
            // Gauss–Chebyshev (2nd kind) nodes mapped by r = rm(1+x)/(1−x).
            for i in 1..=n_rad {
                let xi = (i as f64 * std::f64::consts::PI / (n_rad as f64 + 1.0)).cos();
                let sin_i = (i as f64 * std::f64::consts::PI / (n_rad as f64 + 1.0)).sin();
                let w_cheb = std::f64::consts::PI / (n_rad as f64 + 1.0) * sin_i * sin_i;
                // dx weight: Chebyshev-2 weight includes √(1−x²); divide out.
                let w_x = w_cheb / (1.0 - xi * xi).sqrt();
                let r = rm * (1.0 + xi) / (1.0 - xi);
                let dr_dx = 2.0 * rm / ((1.0 - xi) * (1.0 - xi));
                let w_rad = w_x * dr_dx * r * r;
                if !w_rad.is_finite() || r > 40.0 {
                    continue; // outermost mapped points carry negligible density
                }
                for &(dir, w_ang) in &sphere {
                    let p = atom.pos + dir * r;
                    let Some(w_becke) = partition(a, p) else {
                        continue;
                    };
                    let w = w_rad * w_ang * w_becke;
                    if w > 1e-16 {
                        points.push(p);
                        weights.push(w);
                    }
                }
            }
        }
        atom_starts.push(points.len());
        MolGrid {
            points,
            weights,
            atom_starts,
        }
    }

    /// `∂w_p/∂R_B` for the points `range` of a grid built by
    /// [`MolGrid::becke`] for `mol`, into `out` row-major (`[p][B]`,
    /// `range.len() × natoms`). The point moves with its atom `A`; for
    /// `B ≠ A` the derivative is that of the Becke partition `P_A / Σ_C P_C`
    /// at the fixed point, and `∂w_p/∂R_A = −Σ_{B≠A} ∂w_p/∂R_B` because
    /// translating every nucleus and the point together leaves the weight
    /// unchanged (Johnson, Gill and Pople, J. Chem. Phys. 98, 5612, 1993).
    pub fn weight_gradients(&self, mol: &Molecule, range: Range<usize>, out: &mut Vec<Vec3>) {
        let natoms = mol.natoms();
        let pos: Vec<Vec3> = mol.atoms.iter().map(|a| a.pos).collect();
        // R_CD per ordered atom pair.
        let rij: Vec<f64> = (0..natoms * natoms)
            .map(|k| pos[k / natoms].distance(pos[k % natoms]))
            .collect();
        let (mut dist, mut unit) = (vec![0.0; natoms], vec![Vec3::ZERO; natoms]);
        let (mut cell, mut dcell) = (vec![0.0; natoms], vec![Vec3::ZERO; natoms]);
        let (mut dz, mut dpa) = (vec![Vec3::ZERO; natoms], vec![Vec3::ZERO; natoms]);
        out.clear();
        out.resize(range.len() * natoms, Vec3::ZERO);
        for (p, row) in range.zip(out.chunks_exact_mut(natoms.max(1))) {
            let (r, owner) = (self.points[p], self.atom_of(p));
            // r_C = |r − R_C| and u_C = (r − R_C)/r_C.
            for c in 0..natoms {
                let d = r - pos[c];
                dist[c] = d.norm();
                unit[c] = d / dist[c];
            }
            // P_C = Π_{D≠C} s(μ_CD), μ_CD = (r_C − r_D)/R_CD, and the sum
            // of their gradients over B ≠ owner. A zero factor has μ = 1,
            // where s′ vanishes too, so a zero P_C has a zero gradient;
            // otherwise ∂P_C = P_C Σ_D (s′/s) ∂μ_CD. A kept point's own
            // cell P_A is nonzero.
            dz.fill(Vec3::ZERO);
            for c in 0..natoms {
                let mut prod = 1.0;
                for d in (0..natoms).filter(|&d| d != c) {
                    let mu = (dist[c] - dist[d]) / rij[c * natoms + d];
                    prod *= 0.5 * (1.0 - becke_smooth(mu));
                }
                cell[c] = prod;
                dcell.fill(Vec3::ZERO);
                if prod == 0.0 {
                    continue;
                }
                for d in (0..natoms).filter(|&d| d != c) {
                    let r_cd = rij[c * natoms + d];
                    let mu = (dist[c] - dist[d]) / r_cd;
                    let s = 0.5 * (1.0 - becke_smooth(mu));
                    let g = prod * becke_cell_derivative(mu) / s;
                    let e_cd = (pos[c] - pos[d]) / r_cd;
                    // ∂μ_CD/∂R_C = −(u_C + μ e_CD)/R_CD, ∂μ_CD/∂R_D = (u_D + μ e_CD)/R_CD.
                    dcell[c] -= (unit[c] + e_cd * mu) * (g / r_cd);
                    dcell[d] += (unit[d] + e_cd * mu) * (g / r_cd);
                }
                for b in 0..natoms {
                    dz[b] += dcell[b];
                }
                if c == owner {
                    dpa.copy_from_slice(&dcell);
                }
            }
            let z: f64 = cell.iter().sum();
            // w = w_rad w_ang P_A / Z, so ∂w = w (∂P_A / P_A − ∂Z / Z).
            let w = self.weights[p];
            let mut own = Vec3::ZERO;
            for b in (0..natoms).filter(|&b| b != owner) {
                row[b] = (dpa[b] / cell[owner] - dz[b] / z) * w;
                own -= row[b];
            }
            row[owner] = own;
        }
    }

    /// The atom point `p` belongs to (and moves with).
    pub fn atom_of(&self, p: usize) -> usize {
        self.atom_starts.partition_point(|&start| start <= p) - 1
    }

    /// Number of quadrature points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Integrate sampled values.
    pub fn integrate(&self, f: &[f64]) -> f64 {
        assert_eq!(f.len(), self.len());
        f.iter().zip(&self.weights).map(|(a, w)| a * w).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liair_basis::{systems, Element, Molecule};
    use liair_math::approx_eq;
    use std::f64::consts::PI;

    #[test]
    fn integrates_single_gaussian() {
        let mut mol = Molecule::new();
        mol.push(Element::H, Vec3::ZERO);
        let grid = MolGrid::becke(&mol, 40, 8);
        // Sharp and diffuse Gaussians both integrate to (π/α)^{3/2}.
        for &alpha in &[0.2, 1.0, 30.0, 500.0] {
            let f: Vec<f64> = grid
                .points
                .iter()
                .map(|p| (-alpha * p.norm_sqr()).exp())
                .collect();
            let want = (PI / alpha).powf(1.5);
            let got = grid.integrate(&f);
            assert!(approx_eq(got, want, 1e-6), "alpha={alpha}: {got} vs {want}");
        }
    }

    #[test]
    fn integrates_offcenter_gaussian_with_becke_partition() {
        // Gaussian centred on one atom of a diatomic — the fuzzy cells must
        // hand the integrand over smoothly.
        let mol = systems::lih();
        let grid = MolGrid::becke(&mol, 50, 10);
        let c = mol.atoms[1].pos;
        let alpha = 2.0;
        let f: Vec<f64> = grid
            .points
            .iter()
            .map(|p| (-alpha * (*p - c).norm_sqr()).exp())
            .collect();
        let want = (PI / alpha).powf(1.5);
        let got = grid.integrate(&f);
        assert!(approx_eq(got, want, 1e-4), "{got} vs {want}");
    }

    #[test]
    fn weights_are_positive() {
        let grid = MolGrid::becke(&systems::water(), 30, 6);
        assert!(grid.weights.iter().all(|&w| w > 0.0));
        assert!(grid.len() > 1000);
    }

    #[test]
    fn polynomial_times_gaussian() {
        // ∫ x² e^{-αr²} = (1/2α)(π/α)^{3/2} — tests angular accuracy.
        let mut mol = Molecule::new();
        mol.push(Element::O, Vec3::ZERO);
        let grid = MolGrid::becke(&mol, 40, 10);
        let alpha = 1.3;
        let f: Vec<f64> = grid
            .points
            .iter()
            .map(|p| p.x * p.x * (-alpha * p.norm_sqr()).exp())
            .collect();
        let want = 0.5 / alpha * (PI / alpha).powf(1.5);
        let got = grid.integrate(&f);
        assert!(approx_eq(got, want, 1e-6), "{got} vs {want}");
    }

    #[test]
    fn weight_gradients_match_finite_differences() {
        // Every point moves with its atom, so a displaced grid keeps the
        // point order (when it keeps the same points) and point p's weight
        // is differenced directly.
        for mol in [systems::lih(), systems::water()] {
            let grid = MolGrid::becke(&mol, 20, 6);
            let mut dw = Vec::new();
            grid.weight_gradients(&mol, 0..grid.len(), &mut dw);
            let natoms = mol.natoms();
            let h = 1e-5;
            let mut worst: f64 = 0.0;
            for atom in 0..natoms {
                for axis in 0..3 {
                    let at = |step: f64| {
                        let mut m = mol.clone();
                        m.atoms[atom].pos[axis] += step;
                        MolGrid::becke(&m, 20, 6)
                    };
                    let (plus, minus) = (at(h), at(-h));
                    assert_eq!((plus.len(), minus.len()), (grid.len(), grid.len()));
                    assert_eq!(plus.atom_starts, grid.atom_starts);
                    for p in 0..grid.len() {
                        let fd = (plus.weights[p] - minus.weights[p]) / (2.0 * h);
                        let err = (dw[p * natoms + atom][axis] - fd).abs();
                        worst = worst.max(err / (1.0 + fd.abs()));
                    }
                }
            }
            assert!(
                worst < 1e-6,
                "{}: worst relative error {worst:e}",
                mol.formula()
            );
            assert!(
                dw.iter().any(|v| v.norm() > 1e-3),
                "{}: no weight moves",
                mol.formula()
            );
        }
    }

    #[test]
    fn becke_is_bit_identical_to_the_per_point_allocating_partition() {
        // The partition as it was: a fresh cell vector per point, every
        // distance recomputed inside the atom-pair loop.
        for mol in [systems::h2(), systems::water(), systems::li2o2()] {
            let natoms = mol.natoms();
            let oracle = MolGrid::assemble(&mol, 30, 6, |a, p| {
                let mut cell = vec![1.0; natoms];
                for i1 in 0..natoms {
                    for j1 in 0..natoms {
                        if i1 == j1 {
                            continue;
                        }
                        let ri = p.distance(mol.atoms[i1].pos);
                        let rj = p.distance(mol.atoms[j1].pos);
                        let rij = mol.atoms[i1].pos.distance(mol.atoms[j1].pos);
                        let mu = (ri - rj) / rij;
                        cell[i1] *= 0.5 * (1.0 - becke_smooth(mu));
                    }
                }
                let total: f64 = cell.iter().sum();
                if total <= 1e-300 {
                    return None;
                }
                Some(cell[a] / total)
            });
            let grid = MolGrid::becke(&mol, 30, 6);
            assert_eq!(grid.len(), oracle.len(), "{}", mol.formula());
            for (p, q) in grid.points.iter().zip(&oracle.points) {
                assert!((0..3).all(|k| p[k].to_bits() == q[k].to_bits()));
            }
            for (w, v) in grid.weights.iter().zip(&oracle.weights) {
                assert_eq!(w.to_bits(), v.to_bits(), "{}", mol.formula());
            }
        }
    }
}
