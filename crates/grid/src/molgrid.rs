//! Atom-centered molecular quadrature (Becke fuzzy-cell grids).
//!
//! Uniform plane-wave grids cannot resolve all-electron Gaussian cores
//! (STO-3G oxygen has exponents ≈ 130 Bohr⁻²), so DFT exchange–correlation
//! integrals use the standard molecular quadrature instead:
//!
//! * per atom, a radial Gauss–Chebyshev grid mapped to `[0, ∞)` by
//!   Becke's `r = r_m (1+x)/(1−x)` transformation;
//! * per radial shell, an angular product grid — Gauss–Legendre in
//!   `cos θ` × uniform in `φ` (exact for spherical harmonics up to the
//!   chosen degree; chosen over Lebedev to stay table-free), whose order
//!   a [`GridSpec`] prunes by SG-1 radial region (Gill, Johnson and Pople,
//!   Chem. Phys. Lett. 209, 506, 1993): few directions near the nucleus
//!   and far out, the most in the valence shell;
//! * Becke's fuzzy Voronoi partition (three iterations of the smoothing
//!   polynomial) to assemble atomic cells into a molecular weight.
//!
//! Each point belongs to the atom whose radial × angular grid it came
//! from and moves with it: a shell's radius and angular order depend only
//! on the element and the radial index, so a displaced grid keeps its
//! point order. [`MolGrid::weight_gradients`] gives the derivatives of
//! the Becke weights with respect to every nucleus (Johnson–Gill–Pople),
//! so a quadrature energy can be differentiated exactly.

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

/// The output of [`MolGrid::weight_gradients`] and its per-point scratch,
/// reused call after call.
#[derive(Debug, Default, Clone)]
pub struct WeightGradients {
    /// `∂w_p/∂R_B` of the last call's points, row-major (`[p][B]`).
    pub dw: Vec<Vec3>,
    pos: Vec<Vec3>,
    rij: Vec<f64>,
    dist: Vec<f64>,
    unit: Vec<Vec3>,
    cell: Vec<f64>,
    dcell: Vec<Vec3>,
    dz: Vec<Vec3>,
    dpa: Vec<Vec3>,
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

/// SG-1's atomic radii `R` (Bohr) for H–Ar, the unit of its region bounds.
const SG1_RADII: [f64; 18] = [
    1.0000, 0.5882, 3.0769, 2.0513, 1.5385, 1.2308, 1.0256, 0.8791, 0.7692, 0.6838, 4.0909, 3.1579,
    2.5714, 2.1687, 1.8750, 1.6514, 1.4754, 1.3318,
];

/// SG-1's region bounds `α_k` (in units of `R`) per element row: H–He,
/// Li–Ne, Na–Ar.
const SG1_ALPHAS: [[f64; 4]; 3] = [
    [0.25, 0.5, 1.0, 4.5],
    [0.1667, 0.5, 0.9, 3.5],
    [0.1, 0.4, 0.8, 2.5],
];

/// The quadrature of one element row: its radial shells, and the angular
/// product-rule order `n_θ` (`φ` uses `2·n_θ`) of a shell in each of
/// SG-1's five radial regions, innermost first. A shell at radius `r`
/// lies in region `k` when `k` of the row's bounds `α·R` are below `r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowSpec {
    /// Radial shells per atom.
    pub n_rad: usize,
    /// `n_θ` per SG-1 radial region.
    pub n_theta: [usize; 5],
}

/// The sizes of a Becke grid, per element row (H–He, Li–Ne, Na–Ar).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridSpec {
    /// One [`RowSpec`] per element row.
    pub rows: [RowSpec; 3],
}

impl GridSpec {
    /// `n_rad` shells of one `n_theta × 2·n_theta` product grid for every
    /// element: the unpruned grid.
    pub const fn uniform(n_rad: usize, n_theta: usize) -> GridSpec {
        let row = RowSpec {
            n_rad,
            n_theta: [n_theta; 5],
        };
        GridSpec { rows: [row; 3] }
    }

    /// Atomic number `z`'s row index and row quadrature.
    fn row(&self, z: u32) -> (usize, &RowSpec) {
        let row = match z {
            1..=2 => 0,
            3..=10 => 1,
            11..=18 => 2,
            _ => panic!("no Becke grid row for Z = {z}"),
        };
        (row, &self.rows[row])
    }

    /// The radial shells of an atom of atomic number `z`, outermost first
    /// (the Chebyshev nodes' order): `(r, w_rad, n_θ)` per kept shell.
    fn shells(&self, z: u32) -> impl Iterator<Item = (f64, f64, usize)> + '_ {
        let (row, spec) = self.row(z);
        let (rm, n_rad) = (radial_scale(z), spec.n_rad);
        let bounds = SG1_ALPHAS[row].map(|alpha| alpha * SG1_RADII[z as usize - 1]);
        // Gauss–Chebyshev (2nd kind) nodes mapped by r = rm(1+x)/(1−x).
        (1..=n_rad).filter_map(move |i| {
            let xi = (i as f64 * std::f64::consts::PI / (n_rad as f64 + 1.0)).cos();
            let sin_i = (i as f64 * std::f64::consts::PI / (n_rad as f64 + 1.0)).sin();
            let w_cheb = std::f64::consts::PI / (n_rad as f64 + 1.0) * sin_i * sin_i;
            // dx weight: Chebyshev-2 weight includes √(1−x²); divide out.
            let w_x = w_cheb / (1.0 - xi * xi).sqrt();
            let r = rm * (1.0 + xi) / (1.0 - xi);
            let dr_dx = 2.0 * rm / ((1.0 - xi) * (1.0 - xi));
            let w_rad = w_x * dr_dx * r * r;
            let region = bounds.iter().filter(|&&b| r > b).count();
            // The outermost mapped points carry negligible density.
            (w_rad.is_finite() && r <= 40.0).then_some((r, w_rad, spec.n_theta[region]))
        })
    }
}

/// The `n_theta × 2·n_theta` product grid on the unit sphere:
/// `(direction, solid-angle weight)` in `θ`, then `φ`, order.
fn sphere(n_theta: usize) -> Vec<(Vec3, f64)> {
    assert!(n_theta >= 2);
    let n_phi = 2 * n_theta;
    let (ct_nodes, ct_weights) = gauss_legendre(n_theta);
    let mut sphere = Vec::with_capacity(n_theta * n_phi);
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
    sphere
}

impl MolGrid {
    /// Build a Becke grid of the sizes `spec` gives each element.
    pub fn becke(mol: &Molecule, spec: &GridSpec) -> MolGrid {
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
        Self::assemble(mol, spec, |a, p| {
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
        spec: &GridSpec,
        mut partition: impl FnMut(usize, Vec3) -> Option<f64>,
    ) -> MolGrid {
        assert!(spec.rows.iter().all(|row| row.n_rad >= 2));
        // One product grid per angular order the spec names.
        let mut spheres: Vec<(usize, Vec<(Vec3, f64)>)> = Vec::new();
        for &n_theta in spec.rows.iter().flat_map(|row| &row.n_theta) {
            if spheres.iter().all(|&(n, _)| n != n_theta) {
                spheres.push((n_theta, sphere(n_theta)));
            }
        }
        let sphere_of = |n_theta: usize| {
            let (_, dirs) = spheres
                .iter()
                .find(|(n, _)| *n == n_theta)
                .expect("one sphere per order the spec names");
            dirs
        };

        // At most every product point is kept: sized once, so the grid
        // never reallocates.
        let most: usize = mol
            .atoms
            .iter()
            .flat_map(|atom| spec.shells(atom.element.z()))
            .map(|(_, _, n_theta)| 2 * n_theta * n_theta)
            .sum();
        let mut points = Vec::with_capacity(most);
        let mut weights = Vec::with_capacity(most);
        let mut atom_starts = Vec::with_capacity(mol.natoms() + 1);
        for (a, atom) in mol.atoms.iter().enumerate() {
            atom_starts.push(points.len());
            for (r, w_rad, n_theta) in spec.shells(atom.element.z()) {
                for &(dir, w_ang) in sphere_of(n_theta) {
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
    /// [`MolGrid::becke`] for `mol`, into `out.dw` row-major (`[p][B]`,
    /// `range.len() × natoms`). The point moves with its atom `A`; for
    /// `B ≠ A` the derivative is that of the Becke partition `P_A / Σ_C P_C`
    /// at the fixed point, and `∂w_p/∂R_A = −Σ_{B≠A} ∂w_p/∂R_B` because
    /// translating every nucleus and the point together leaves the weight
    /// unchanged (Johnson, Gill and Pople, J. Chem. Phys. 98, 5612, 1993).
    pub fn weight_gradients(&self, mol: &Molecule, range: Range<usize>, out: &mut WeightGradients) {
        let natoms = mol.natoms();
        let WeightGradients {
            dw,
            pos,
            rij,
            dist,
            unit,
            cell,
            dcell,
            dz,
            dpa,
        } = out;
        pos.clear();
        pos.extend(mol.atoms.iter().map(|a| a.pos));
        // R_CD per ordered atom pair.
        rij.clear();
        rij.extend((0..natoms * natoms).map(|k| pos[k / natoms].distance(pos[k % natoms])));
        for v in [&mut *dist, &mut *cell] {
            v.resize(natoms, 0.0);
        }
        for v in [&mut *unit, &mut *dcell, &mut *dz, &mut *dpa] {
            v.resize(natoms, Vec3::ZERO);
        }
        dw.clear();
        dw.resize(range.len() * natoms, Vec3::ZERO);
        for (p, row) in range.zip(dw.chunks_exact_mut(natoms.max(1))) {
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
                    dpa.copy_from_slice(dcell);
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
        let grid = MolGrid::becke(&mol, &GridSpec::uniform(40, 8));
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
        let grid = MolGrid::becke(&mol, &GridSpec::uniform(50, 10));
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
        let grid = MolGrid::becke(&systems::water(), &GridSpec::uniform(30, 6));
        assert!(grid.weights.iter().all(|&w| w > 0.0));
        assert!(grid.len() > 1000);
    }

    #[test]
    fn polynomial_times_gaussian() {
        // ∫ x² e^{-αr²} = (1/2α)(π/α)^{3/2} — tests angular accuracy.
        let mut mol = Molecule::new();
        mol.push(Element::O, Vec3::ZERO);
        let grid = MolGrid::becke(&mol, &GridSpec::uniform(40, 10));
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

    /// A pruned spec whose shells mix five sphere sizes per row.
    const PRUNED: GridSpec = GridSpec {
        rows: [
            RowSpec {
                n_rad: 16,
                n_theta: [2, 4, 6, 5, 3],
            },
            RowSpec {
                n_rad: 20,
                n_theta: [2, 3, 6, 7, 4],
            },
            RowSpec {
                n_rad: 20,
                n_theta: [2, 4, 5, 6, 4],
            },
        ],
    };

    #[test]
    fn weight_gradients_match_finite_differences() {
        // Every point moves with its atom, so a displaced grid keeps the
        // point order (when it keeps the same points) and point p's weight
        // is differenced directly: a shell's angular order depends only on
        // the element and the radial index, so pruning keeps this too.
        for spec in [GridSpec::uniform(20, 6), PRUNED] {
            for mol in [systems::lih(), systems::water()] {
                let grid = MolGrid::becke(&mol, &spec);
                let mut wg = WeightGradients::default();
                grid.weight_gradients(&mol, 0..grid.len(), &mut wg);
                let natoms = mol.natoms();
                let h = 1e-5;
                let mut worst: f64 = 0.0;
                for atom in 0..natoms {
                    for axis in 0..3 {
                        let at = |step: f64| {
                            let mut m = mol.clone();
                            m.atoms[atom].pos[axis] += step;
                            MolGrid::becke(&m, &spec)
                        };
                        let (plus, minus) = (at(h), at(-h));
                        assert_eq!((plus.len(), minus.len()), (grid.len(), grid.len()));
                        assert_eq!(plus.atom_starts, grid.atom_starts);
                        for p in 0..grid.len() {
                            let fd = (plus.weights[p] - minus.weights[p]) / (2.0 * h);
                            let err = (wg.dw[p * natoms + atom][axis] - fd).abs();
                            worst = worst.max(err / (1.0 + fd.abs()));
                        }
                    }
                }
                let name = format!("{} {spec:?}", mol.formula());
                assert!(worst < 1e-6, "{name}: worst relative error {worst:e}");
                assert!(
                    wg.dw.iter().any(|v| v.norm() > 1e-3),
                    "{name}: no weight moves"
                );
            }
        }
    }

    #[test]
    fn weight_gradients_in_reused_scratch_are_bit_equal_to_one_call() {
        // Batches of 128 through one scratch, against one call over the
        // whole grid: no state leaks from one call into the next.
        let mol = systems::water();
        let grid = MolGrid::becke(&mol, &PRUNED);
        let (mut whole, mut batch) = (WeightGradients::default(), WeightGradients::default());
        grid.weight_gradients(&mol, 0..grid.len(), &mut whole);
        let natoms = mol.natoms();
        for start in (0..grid.len()).step_by(128) {
            let range = start..grid.len().min(start + 128);
            grid.weight_gradients(&mol, range.clone(), &mut batch);
            let want = &whole.dw[range.start * natoms..range.end * natoms];
            assert_eq!(batch.dw.len(), want.len());
            for (a, b) in batch.dw.iter().zip(want) {
                assert!((0..3).all(|k| a[k].to_bits() == b[k].to_bits()));
            }
        }
    }

    #[test]
    fn pruned_shells_follow_the_sg1_regions() {
        // One atom: every Becke weight is 1, so each shell keeps all of
        // its product points, and a shell's size is 2·n_θ² of its region.
        for (element, row) in [(Element::H, 0), (Element::O, 1), (Element::S, 2)] {
            let mut mol = Molecule::new();
            mol.push(element, Vec3::ZERO);
            let grid = MolGrid::becke(&mol, &PRUNED);
            let want: usize = PRUNED
                .shells(element.z())
                .map(|(_, _, n_theta)| 2 * n_theta * n_theta)
                .sum();
            assert_eq!(grid.len(), want, "{element:?}");
            // Every region is populated, outermost shells first.
            let orders: Vec<usize> = PRUNED.shells(element.z()).map(|s| s.2).collect();
            let mut regions = PRUNED.rows[row].n_theta.to_vec();
            regions.reverse();
            regions.dedup();
            let mut seen = orders.clone();
            seen.dedup();
            assert_eq!(seen, regions, "{element:?}: {orders:?}");
        }
    }

    #[test]
    fn becke_is_bit_identical_to_the_per_point_allocating_partition() {
        // The partition as it was: a fresh cell vector per point, every
        // distance recomputed inside the atom-pair loop.
        let spec = GridSpec::uniform(30, 6);
        for mol in [systems::h2(), systems::water(), systems::li2o2()] {
            let natoms = mol.natoms();
            let oracle = MolGrid::assemble(&mol, &spec, |a, p| {
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
            let grid = MolGrid::becke(&mol, &spec);
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
