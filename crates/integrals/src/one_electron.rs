//! One-electron integral matrices (overlap, kinetic, nuclear attraction,
//! dipole and second moments) and the nuclear gradients of `Tr(W S)` and
//! `Tr(D H)`.
//!
//! Every term walks the same records: one `PrimPair` per primitive pair
//! of every ordered AO pair. A matrix takes the `col ≤ row` half of the
//! walk and mirrors it; a gradient takes every record. The 1-D factors
//! and the attraction sum below are each written once and shared by both.

use crate::hermite::{hermite_aux_into, hermite_index, AuxScratch, ECoefs};
use liair_basis::shell::cart_components;
use liair_basis::{Basis, Molecule};
use liair_math::{Mat, Vec3};
use std::f64::consts::PI;

/// One primitive pair of an ordered AO pair.
struct PrimPair {
    /// Atom of the bra AO (the center the bra derivative moves).
    atom: usize,
    /// The AO pair `(row, col)`.
    row: usize,
    col: usize,
    /// Cartesian powers of the bra and the ket.
    pa: [usize; 3],
    pb: [usize; 3],
    a: f64,
    b: f64,
    ra: Vec3,
    rb: Vec3,
    /// Product of the two normalized contraction coefficients.
    coef: f64,
}

impl PrimPair {
    fn p(&self) -> f64 {
        self.a + self.b
    }

    /// The Gaussian product center `P = (a A + b B) / p`.
    fn big_p(&self) -> Vec3 {
        (self.ra * self.a + self.rb * self.b) / self.p()
    }

    /// `√(π/p)`, the 1-D Gaussian integral every 1-D factor carries.
    fn sqrt_pi_p(&self) -> f64 {
        (PI / self.p()).sqrt()
    }

    /// The `E` tables per axis, `raise_i` orders above the bra's power (for
    /// the raise/lower identity) and `raise_j` above the ket's.
    fn tables(&self, raise_i: usize, raise_j: usize) -> [ECoefs; 3] {
        let d = self.ra - self.rb;
        std::array::from_fn(|k| {
            ECoefs::new(
                self.pa[k] + raise_i,
                self.pb[k] + raise_j,
                d[k],
                self.a,
                self.b,
            )
        })
    }

    /// The pair's Hermite order `Σ_k (i_k + j_k)`.
    fn order(&self) -> usize {
        (0..3).map(|k| self.pa[k] + self.pb[k]).sum()
    }

    /// Per axis, the row `E_t^{ij}`, `t = 0..=i+j`, of the pair's powers in
    /// `e = tables(..)`.
    fn e_rows<'e>(&self, e: &'e [ECoefs; 3]) -> [&'e [f64]; 3] {
        std::array::from_fn(|k| e[k].row(self.pa[k], self.pb[k]))
    }

    /// The bra-center derivative of a 1-D factor `f(i)` of bra power `i`
    /// along `axis`: `∂/∂A_x [x_A^i e^{−a x_A²}] = (2a x_A^{i+1} −
    /// i x_A^{i−1}) e^{−a x_A²}`.
    fn bra_derivative(&self, axis: usize, f: impl Fn(usize) -> f64) -> f64 {
        let i = self.pa[axis];
        let lower = if i > 0 { i as f64 * f(i - 1) } else { 0.0 };
        2.0 * self.a * f(i + 1) - lower
    }
}

/// Visit every primitive pair of every *ordered* AO pair `(row, col)`, or
/// of those with `col ≤ row` when `lower` is set, in (shell pair,
/// component pair, primitive pair) order.
fn for_each_prim_pair(basis: &Basis, lower: bool, mut visit: impl FnMut(&PrimPair)) {
    // Per shell, its Cartesian components with their normalized
    // contraction coefficients.
    let comps: Vec<Vec<([usize; 3], Vec<f64>)>> = basis
        .shells
        .iter()
        .map(|sh| {
            cart_components(sh.l)
                .into_iter()
                .map(|p| ([p.0, p.1, p.2], sh.normalized_coefs(p)))
                .collect()
        })
        .collect();
    for (si, sa) in basis.shells.iter().enumerate() {
        let nj = if lower { si + 1 } else { basis.shells.len() };
        for (sj, sb) in basis.shells[..nj].iter().enumerate() {
            let (oa, ob) = (basis.shell_offsets[si], basis.shell_offsets[sj]);
            for (ca, (pa, coefs_a)) in comps[si].iter().enumerate() {
                for (cb, (pb, coefs_b)) in comps[sj].iter().enumerate() {
                    if lower && ob + cb > oa + ca {
                        continue;
                    }
                    for (prim_a, &c_a) in sa.prims.iter().zip(coefs_a) {
                        for (prim_b, &c_b) in sb.prims.iter().zip(coefs_b) {
                            visit(&PrimPair {
                                atom: sa.atom,
                                row: oa + ca,
                                col: ob + cb,
                                pa: *pa,
                                pb: *pb,
                                a: prim_a.exp,
                                b: prim_b.exp,
                                ra: sa.center,
                                rb: sb.center,
                                coef: c_a * c_b,
                            });
                        }
                    }
                }
            }
        }
    }
}

/// `N` symmetric matrices from the walk's lower half: each AO pair
/// `col ≤ row` sums `coef · value` over its primitive pairs, and the upper
/// triangle mirrors the lower. `value` returns the *unnormalized
/// primitive* integrals.
fn symmetric_matrices<const N: usize>(
    basis: &Basis,
    mut value: impl FnMut(&PrimPair) -> [f64; N],
) -> [Mat; N] {
    let n = basis.nao();
    let mut m: [Mat; N] = std::array::from_fn(|_| Mat::zeros(n, n));
    for_each_prim_pair(basis, true, |g| {
        for (mk, v) in m.iter_mut().zip(value(g)) {
            mk[(g.row, g.col)] += g.coef * v;
        }
    });
    for mk in &mut m {
        for row in 0..n {
            for col in 0..row {
                mk[(col, row)] = mk[(row, col)];
            }
        }
    }
    m
}

/// 1-D overlap factor `S(i,j) = E_0^{ij} √(π/p)`.
fn s1d(e: &ECoefs, i: usize, j: usize, sqrt_pi_p: f64) -> f64 {
    e.get(i, j, 0) * sqrt_pi_p
}

/// 1-D kinetic factor acting on the ket, from a table extended by 2 in `j`:
/// `T(i,j) = −2b²S(i,j+2) + b(2j+1)S(i,j) − ½ j(j−1) S(i,j−2)`.
fn t1d(e: &ECoefs, i: usize, j: usize, b: f64, sqrt_pi_p: f64) -> f64 {
    let lower = if j >= 2 {
        0.5 * (j * (j - 1)) as f64 * e.get(i, j - 2, 0)
    } else {
        0.0
    };
    (-2.0 * b * b * e.get(i, j + 2, 0) + b * (2 * j + 1) as f64 * e.get(i, j, 0) - lower)
        * sqrt_pi_p
}

/// The McMurchie–Davidson attraction sum
/// `Σ_{t,u,v} x_t y_u z_v R_{t+s_x, u+s_y, v+s_z}` over the three axes'
/// coefficient rows (the pair's `E_t^{ij}`, or the bra derivative's), with
/// `shift` the nucleus derivative's raised order.
fn attraction_sum(rows: [&[f64]; 3], r: &[f64], shift: [usize; 3]) -> f64 {
    let mut acc = 0.0;
    for (t, &x) in rows[0].iter().enumerate() {
        for (u, &y) in rows[1].iter().enumerate() {
            for (v, &z) in rows[2].iter().enumerate() {
                acc += x * y * z * r[hermite_index(t + shift[0], u + shift[1], v + shift[2])];
            }
        }
    }
    acc
}

/// The nuclei of `mol` as `(Z, position)`.
fn nuclei(mol: &Molecule) -> impl Iterator<Item = (f64, Vec3)> + '_ {
    mol.atoms.iter().map(|at| (at.element.z() as f64, at.pos))
}

/// Overlap matrix `S_{μν} = ⟨μ|ν⟩`.
pub fn overlap_matrix(basis: &Basis) -> Mat {
    let [s] = symmetric_matrices(basis, |g| {
        let (e, sq) = (g.tables(0, 0), g.sqrt_pi_p());
        let s: [f64; 3] = std::array::from_fn(|k| s1d(&e[k], g.pa[k], g.pb[k], sq));
        [s[0] * s[1] * s[2]]
    });
    s
}

/// Kinetic-energy matrix `T_{μν} = ⟨μ| −½∇² |ν⟩`.
pub fn kinetic_matrix(basis: &Basis) -> Mat {
    let [t] = symmetric_matrices(basis, |g| {
        let (e, sq) = (g.tables(0, 2), g.sqrt_pi_p());
        let s: [f64; 3] = std::array::from_fn(|k| s1d(&e[k], g.pa[k], g.pb[k], sq));
        let t: [f64; 3] = std::array::from_fn(|k| t1d(&e[k], g.pa[k], g.pb[k], g.b, sq));
        [t[0] * s[1] * s[2] + s[0] * t[1] * s[2] + s[0] * s[1] * t[2]]
    });
    t
}

/// Nuclear-attraction matrix `V_{μν} = ⟨μ| Σ_A −Z_A/|r−R_A| |ν⟩`.
pub fn nuclear_matrix(basis: &Basis, mol: &Molecule) -> Mat {
    // One `R` table per nucleus per primitive pair, in one buffer.
    let mut aux = AuxScratch::default();
    let [v] = symmetric_matrices(basis, |g| {
        let (p, big_p) = (g.p(), g.big_p());
        let e = g.tables(0, 0);
        let rows = g.e_rows(&e);
        let mut total = 0.0;
        for (z, rc) in nuclei(mol) {
            hermite_aux_into(g.order(), p, big_p - rc, &mut aux);
            total -= z * attraction_sum(rows, &aux.r, [0; 3]);
        }
        [total * 2.0 * PI / p]
    });
    v
}

/// `g[A] = Σ_{μν} W_{μν} ∂S_{μν}/∂R_A` for a symmetric weight `W` (the
/// Pulay term of a gradient, with `W` the energy-weighted density), per
/// atom of an `natoms`-atom molecule.
///
/// Summing `2 W_μν ∂_A O_μν` over every ordered pair gives both centers'
/// derivatives of `Σ W_μν O_μν` for a symmetric `W` and a symmetric
/// two-center `O`: the ket derivative of `O_μν` is the bra derivative of
/// `O_νμ`.
pub fn overlap_gradient(basis: &Basis, natoms: usize, w: &Mat) -> Vec<Vec3> {
    let mut grad = vec![Vec3::ZERO; natoms];
    for_each_prim_pair(basis, false, |g| {
        let weight = 2.0 * w[(g.row, g.col)] * g.coef;
        if weight == 0.0 {
            return;
        }
        let (e, sq) = (g.tables(1, 0), g.sqrt_pi_p());
        let s = |k: usize, i: usize| s1d(&e[k], i, g.pb[k], sq);
        for k in 0..3 {
            let (k1, k2) = ((k + 1) % 3, (k + 2) % 3);
            let ds = g.bra_derivative(k, |i| s(k, i));
            grad[g.atom][k] += weight * ds * s(k1, g.pa[k1]) * s(k2, g.pa[k2]);
        }
    });
    grad
}

/// `g[A] = Σ_{μν} D_{μν} ∂H_{μν}/∂R_A` for a symmetric density `D`, with
/// `H = T + V` the core Hamiltonian of `mol`: the basis functions' centers
/// move (kinetic and attraction integrals) and so do the nuclei
/// (`∂R_{tuv}(P − C)/∂C_x = −R_{t+1,u,v}`, the Hellmann–Feynman term).
pub fn core_hamiltonian_gradient(basis: &Basis, mol: &Molecule, d: &Mat) -> Vec<Vec3> {
    let mut grad = vec![Vec3::ZERO; mol.natoms()];
    let mut aux = AuxScratch::default();
    for_each_prim_pair(basis, false, |g| {
        let weight = d[(g.row, g.col)] * g.coef;
        if weight == 0.0 {
            return;
        }
        let (e, sq) = (g.tables(1, 2), g.sqrt_pi_p());
        // Kinetic: T = Tx Sy Sz + Sx Ty Sz + Sx Sy Tz, differentiated along
        // each axis through that axis's factors.
        let s_at = |k: usize, i: usize| s1d(&e[k], i, g.pb[k], sq);
        let t_at = |k: usize, i: usize| t1d(&e[k], i, g.pb[k], g.b, sq);
        let s: [f64; 3] = std::array::from_fn(|k| s_at(k, g.pa[k]));
        let t: [f64; 3] = std::array::from_fn(|k| t_at(k, g.pa[k]));
        for k in 0..3 {
            let (k1, k2) = ((k + 1) % 3, (k + 2) % 3);
            let ds = g.bra_derivative(k, |i| s_at(k, i));
            let dt = g.bra_derivative(k, |i| t_at(k, i));
            let dkin = dt * s[k1] * s[k2] + ds * (t[k1] * s[k2] + s[k1] * t[k2]);
            grad[g.atom][k] += 2.0 * weight * dkin;
        }
        // Attraction, V = −Z (2π/p) Σ_tuv E_t E_u E_v R_tuv(P − C) per
        // nucleus C: one R table one order above the pair's. The bra
        // derivative raises the differentiated axis's E; the nucleus's
        // takes R_{tuv + 1_k} with the opposite sign.
        let (p, big_p) = (g.p(), g.big_p());
        let rows = g.e_rows(&e);
        // Per axis, the bra derivative of that axis's row, one order longer.
        let d_rows: [Vec<f64>; 3] = std::array::from_fn(|k| {
            (0..=rows[k].len())
                .map(|t| g.bra_derivative(k, |i| e[k].get(i, g.pb[k], t)))
                .collect()
        });
        for (c, (z, rc)) in nuclei(mol).enumerate() {
            hermite_aux_into(g.order() + 1, p, big_p - rc, &mut aux);
            let (r, scale) = (&aux.r, z * 2.0 * PI / p * weight);
            for k in 0..3 {
                let mut bra = rows;
                bra[k] = &d_rows[k];
                let d_bra = attraction_sum(bra, r, [0; 3]);
                let unit = std::array::from_fn(|m| usize::from(m == k));
                let d_nuc = attraction_sum(rows, r, unit);
                grad[g.atom][k] -= 2.0 * scale * d_bra;
                grad[c][k] += scale * d_nuc;
            }
        }
    });
    grad
}

/// The three axes' `⟨μ| f((r − C)_k) |ν⟩` from one walk, for a 1-D moment
/// factor `m1d(e, i, j, X_PC, p)` given without its `√(π/p)`.
fn moment_matrices(
    basis: &Basis,
    c: Vec3,
    m1d: impl Fn(&ECoefs, usize, usize, f64, f64) -> f64,
) -> [Mat; 3] {
    symmetric_matrices(basis, |g| {
        let (p, sq, pc) = (g.p(), g.sqrt_pi_p(), g.big_p() - c);
        let e = g.tables(0, 0);
        let s: [f64; 3] = std::array::from_fn(|k| s1d(&e[k], g.pa[k], g.pb[k], sq));
        std::array::from_fn(|axis| {
            let mut f = s;
            f[axis] = m1d(&e[axis], g.pa[axis], g.pb[axis], pc[axis], p) * sq;
            f[0] * f[1] * f[2]
        })
    })
}

/// Dipole-moment matrices `D^k_{μν} = ⟨μ| (r − C)_k |ν⟩` for `k = x, y, z`
/// about the origin `c` (used by the Foster–Boys localization).
pub fn dipole_matrices(basis: &Basis, c: Vec3) -> [Mat; 3] {
    // ⟨i|(x − Cx)|j⟩ = (E_1^{ij} + X_PC E_0^{ij})√(π/p).
    moment_matrices(basis, c, |e, i, j, xpc, _| {
        e.get(i, j, 1) + xpc * e.get(i, j, 0)
    })
}

/// Second-moment matrices `Q^k_{μν} = ⟨μ| (r − C)_k² |ν⟩` (diagonal
/// Cartesian quadrupole components), used for orbital spreads
/// `σ² = ⟨r²⟩ − ⟨r⟩²` in the exact-exchange screening model.
pub fn second_moment_matrices(basis: &Basis, c: Vec3) -> [Mat; 3] {
    // ⟨i|(x−Cx)²|j⟩ = [2E_2 + 2X_PC E_1 + (X_PC² + 1/(2p)) E_0]√(π/p).
    moment_matrices(basis, c, |e, i, j, xpc, p| {
        2.0 * e.get(i, j, 2) + 2.0 * xpc * e.get(i, j, 1) + (xpc * xpc + 0.5 / p) * e.get(i, j, 0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use liair_basis::systems;
    use liair_math::approx_eq;

    #[test]
    fn overlap_diagonal_is_one() {
        let mol = systems::water();
        let basis = Basis::sto3g(&mol);
        let s = overlap_matrix(&basis);
        for i in 0..basis.nao() {
            assert!(
                approx_eq(s[(i, i)], 1.0, 1e-10),
                "S[{i}][{i}] = {}",
                s[(i, i)]
            );
        }
        assert!(s.asymmetry() < 1e-14);
    }

    #[test]
    fn h2_sto3g_szabo_ostlund_values() {
        // Szabo & Ostlund, Table 3.5-ish (ζ = 1.24, R = 1.4 a₀):
        // S₁₂ = 0.6593, T₁₁ = 0.7600, T₁₂ = 0.2365,
        // V₁₁ (both nuclei) = −1.8804 = −1.2266 − 0.6538,
        // V₁₂ = −1.1948 = 2 × (−0.5974).
        let mol = systems::h2();
        let basis = Basis::sto3g(&mol);
        let s = overlap_matrix(&basis);
        let t = kinetic_matrix(&basis);
        let v = nuclear_matrix(&basis, &mol);
        assert!(approx_eq(s[(0, 1)], 0.6593, 2e-4), "S12 {}", s[(0, 1)]);
        assert!(approx_eq(t[(0, 0)], 0.7600, 2e-4), "T11 {}", t[(0, 0)]);
        assert!(approx_eq(t[(0, 1)], 0.2365, 2e-4), "T12 {}", t[(0, 1)]);
        assert!(approx_eq(v[(0, 0)], -1.8804, 5e-4), "V11 {}", v[(0, 0)]);
        assert!(approx_eq(v[(0, 1)], -1.1948, 5e-4), "V12 {}", v[(0, 1)]);
    }

    #[test]
    fn kinetic_is_positive_definite() {
        let mol = systems::water();
        let basis = Basis::sto3g(&mol);
        let t = kinetic_matrix(&basis);
        let (vals, _) = liair_math::linalg::eigh(&t);
        assert!(vals[0] > 0.0, "min kinetic eigenvalue {}", vals[0]);
    }

    #[test]
    fn nuclear_attraction_is_negative_on_diagonal() {
        let mol = systems::water();
        let basis = Basis::sto3g(&mol);
        let v = nuclear_matrix(&basis, &mol);
        for i in 0..basis.nao() {
            assert!(v[(i, i)] < 0.0);
        }
    }

    #[test]
    fn dipole_of_s_function_is_its_center() {
        // ⟨φ|r|φ⟩ = R for a normalized function centered at R.
        let mut mol = Molecule::new();
        mol.push(liair_basis::Element::H, Vec3::new(0.5, -1.0, 2.0));
        let basis = Basis::sto3g(&mol);
        let d = dipole_matrices(&basis, Vec3::ZERO);
        assert!(approx_eq(d[0][(0, 0)], 0.5, 1e-10));
        assert!(approx_eq(d[1][(0, 0)], -1.0, 1e-10));
        assert!(approx_eq(d[2][(0, 0)], 2.0, 1e-10));
    }

    #[test]
    fn dipole_origin_shift_rule() {
        // D(C) = D(0) − C·S.
        let mol = systems::water();
        let basis = Basis::sto3g(&mol);
        let s = overlap_matrix(&basis);
        let d0 = dipole_matrices(&basis, Vec3::ZERO);
        let c = Vec3::new(0.3, 0.7, -0.2);
        let dc = dipole_matrices(&basis, c);
        for k in 0..3 {
            let shift = s.scale(c[k]);
            let diff = d0[k].sub(&shift).sub(&dc[k]).fro_norm();
            assert!(diff < 1e-10, "axis {k}: {diff}");
        }
    }

    #[test]
    fn second_moment_of_s_primitive() {
        // For a single normalized s primitive with exponent α centred at C:
        // ⟨x²⟩ = 1/(4α). Use an artificial one-primitive shell.
        use liair_basis::shell::{Primitive, Shell};
        let alpha = 0.8;
        let center = Vec3::new(0.2, -0.4, 1.0);
        let sh = Shell::new(
            0,
            0,
            center,
            vec![Primitive {
                exp: alpha,
                coef: 1.0,
            }],
        );
        let basis = Basis::from_shells(vec![sh]);
        let q = second_moment_matrices(&basis, center);
        for k in 0..3 {
            assert!(
                approx_eq(q[k][(0, 0)], 1.0 / (4.0 * alpha), 1e-12),
                "axis {k}: {}",
                q[k][(0, 0)]
            );
        }
        // Shifted origin: ⟨(x−C'x)²⟩ = ⟨x²⟩ + (Cx−C'x)² for the same function.
        let q2 = second_moment_matrices(&basis, Vec3::ZERO);
        assert!(approx_eq(q2[0][(0, 0)], 1.0 / (4.0 * alpha) + 0.04, 1e-12));
    }

    #[test]
    fn spreads_are_positive() {
        // σ² = ⟨r²⟩ − |⟨r⟩|² > 0 for every AO of water.
        let mol = systems::water();
        let basis = Basis::sto3g(&mol);
        let d = dipole_matrices(&basis, Vec3::ZERO);
        let q = second_moment_matrices(&basis, Vec3::ZERO);
        for i in 0..basis.nao() {
            let mean_sq: f64 = (0..3).map(|k| q[k][(i, i)]).sum();
            let sq_mean: f64 = (0..3).map(|k| d[k][(i, i)] * d[k][(i, i)]).sum();
            assert!(mean_sq - sq_mean > 0.0, "AO {i}");
        }
    }

    /// The per-term walk these builders replaced, kept verbatim as the
    /// values' bit oracle: one lower-triangle walk per matrix (per axis
    /// for the moments), each kernel building its own `E` tables.
    mod oracle {
        use crate::hermite::{hermite_aux, hermite_index, ECoefs};
        use liair_basis::shell::cart_components;
        use liair_basis::{Basis, Molecule};
        use liair_math::{Mat, Vec3};
        use std::f64::consts::PI;

        /// Per-(shell, component) normalized contraction coefficients, precomputed
        /// once per matrix build.
        fn shell_coefs(basis: &Basis) -> Vec<Vec<Vec<f64>>> {
            basis
                .shells
                .iter()
                .map(|sh| {
                    cart_components(sh.l)
                        .into_iter()
                        .map(|powers| sh.normalized_coefs(powers))
                        .collect()
                })
                .collect()
        }

        /// Iterate a closure over every AO pair `(row, col, value)` of a symmetric
        /// one-electron operator defined by a per-primitive-pair kernel.
        ///
        /// The kernel receives
        /// `(powers_a, powers_b, a, b, center_a, center_b)` and returns the
        /// *unnormalized primitive* integral; contraction and normalization are
        /// applied here.
        fn build_symmetric<K>(basis: &Basis, kernel: K) -> Mat
        where
            K: Fn((usize, usize, usize), (usize, usize, usize), f64, f64, Vec3, Vec3) -> f64,
        {
            let n = basis.nao();
            let coefs = shell_coefs(basis);
            let mut m = Mat::zeros(n, n);
            for (si, sa) in basis.shells.iter().enumerate() {
                for (sj, sb) in basis.shells.iter().enumerate() {
                    if sj > si {
                        continue;
                    }
                    let oa = basis.shell_offsets[si];
                    let ob = basis.shell_offsets[sj];
                    for (ca, pa) in cart_components(sa.l).into_iter().enumerate() {
                        for (cb, pb) in cart_components(sb.l).into_iter().enumerate() {
                            let row = oa + ca;
                            let col = ob + cb;
                            if col > row {
                                continue;
                            }
                            let mut acc = 0.0;
                            for (ia, prim_a) in sa.prims.iter().enumerate() {
                                for (ib, prim_b) in sb.prims.iter().enumerate() {
                                    let c = coefs[si][ca][ia] * coefs[sj][cb][ib];
                                    acc += c * kernel(
                                        pa, pb, prim_a.exp, prim_b.exp, sa.center, sb.center,
                                    );
                                }
                            }
                            m[(row, col)] = acc;
                            m[(col, row)] = acc;
                        }
                    }
                }
            }
            m
        }

        /// 1-D overlap factor `S(i,j) = E_0^{ij} √(π/p)`.
        #[inline]
        fn s1d(e: &ECoefs, i: usize, j: usize, p: f64) -> f64 {
            e.get(i, j, 0) * (PI / p).sqrt()
        }

        /// Overlap matrix `S_{μν} = ⟨μ|ν⟩`.
        pub fn overlap_matrix(basis: &Basis) -> Mat {
            build_symmetric(basis, |pa, pb, a, b, ra, rb| {
                let p = a + b;
                let ex = ECoefs::new(pa.0, pb.0, ra.x - rb.x, a, b);
                let ey = ECoefs::new(pa.1, pb.1, ra.y - rb.y, a, b);
                let ez = ECoefs::new(pa.2, pb.2, ra.z - rb.z, a, b);
                s1d(&ex, pa.0, pb.0, p) * s1d(&ey, pa.1, pb.1, p) * s1d(&ez, pa.2, pb.2, p)
            })
        }

        /// Kinetic-energy matrix `T_{μν} = ⟨μ| −½∇² |ν⟩`.
        pub fn kinetic_matrix(basis: &Basis) -> Mat {
            build_symmetric(basis, |pa, pb, a, b, ra, rb| {
                let p = a + b;
                // Tables extended by 2 in j for the second-derivative terms.
                let ex = ECoefs::new(pa.0, pb.0 + 2, ra.x - rb.x, a, b);
                let ey = ECoefs::new(pa.1, pb.1 + 2, ra.y - rb.y, a, b);
                let ez = ECoefs::new(pa.2, pb.2 + 2, ra.z - rb.z, a, b);
                let s = [|i: usize, j: i64, e: &ECoefs| -> f64 {
                    if j < 0 {
                        0.0
                    } else {
                        e.get(i, j as usize, 0)
                    }
                }; 1][0];
                let sqrt_pi_p = (PI / p).sqrt();
                // 1-D kinetic factor acting on the ket:
                // T(i,j) = −2b²S(i,j+2) + b(2j+1)S(i,j) − ½ j(j−1) S(i,j−2).
                let t1d = |i: usize, j: usize, e: &ECoefs| -> f64 {
                    let jj = j as i64;
                    (-2.0 * b * b * s(i, jj + 2, e) + b * (2 * j + 1) as f64 * s(i, jj, e)
                        - 0.5 * (j * j.saturating_sub(1)) as f64 * s(i, jj - 2, e))
                        * sqrt_pi_p
                };
                let sx = s1d(&ex, pa.0, pb.0, p);
                let sy = s1d(&ey, pa.1, pb.1, p);
                let sz = s1d(&ez, pa.2, pb.2, p);
                t1d(pa.0, pb.0, &ex) * sy * sz
                    + sx * t1d(pa.1, pb.1, &ey) * sz
                    + sx * sy * t1d(pa.2, pb.2, &ez)
            })
        }

        /// Nuclear-attraction matrix `V_{μν} = ⟨μ| Σ_A −Z_A/|r−R_A| |ν⟩`.
        pub fn nuclear_matrix(basis: &Basis, mol: &Molecule) -> Mat {
            let nuclei: Vec<(f64, Vec3)> = mol
                .atoms
                .iter()
                .map(|at| (at.element.z() as f64, at.pos))
                .collect();
            build_symmetric(basis, |pa, pb, a, b, ra, rb| {
                let p = a + b;
                let big_p = (ra * a + rb * b) / p;
                let ex = ECoefs::new(pa.0, pb.0, ra.x - rb.x, a, b);
                let ey = ECoefs::new(pa.1, pb.1, ra.y - rb.y, a, b);
                let ez = ECoefs::new(pa.2, pb.2, ra.z - rb.z, a, b);
                let (tmax, umax, vmax) = (pa.0 + pb.0, pa.1 + pb.1, pa.2 + pb.2);
                let mut total = 0.0;
                for &(z, rc) in &nuclei {
                    let r = hermite_aux(tmax + umax + vmax, p, big_p - rc);
                    let mut acc = 0.0;
                    for t in 0..=tmax {
                        for u in 0..=umax {
                            for v in 0..=vmax {
                                acc += ex.get(pa.0, pb.0, t)
                                    * ey.get(pa.1, pb.1, u)
                                    * ez.get(pa.2, pb.2, v)
                                    * r[hermite_index(t, u, v)];
                            }
                        }
                    }
                    total -= z * acc;
                }
                total * 2.0 * PI / p
            })
        }

        /// Dipole-moment matrices `D^k_{μν} = ⟨μ| (r − C)_k |ν⟩` for `k = x, y, z`
        /// about the origin `c` (used by the Foster–Boys localization).
        pub fn dipole_matrices(basis: &Basis, c: Vec3) -> [Mat; 3] {
            let make = |axis: usize| {
                build_symmetric(basis, |pa, pb, a, b, ra, rb| {
                    let p = a + b;
                    let big_p = (ra * a + rb * b) / p;
                    let ex = ECoefs::new(pa.0, pb.0, ra.x - rb.x, a, b);
                    let ey = ECoefs::new(pa.1, pb.1, ra.y - rb.y, a, b);
                    let ez = ECoefs::new(pa.2, pb.2, ra.z - rb.z, a, b);
                    let sqrt_pi_p = (PI / p).sqrt();
                    // Moment 1-D factor: ⟨i|(x − Cx)|j⟩ = (E_1^{ij} + X_PC E_0^{ij})√(π/p).
                    let m1d = |i: usize, j: usize, e: &ECoefs, xpc: f64| -> f64 {
                        (e.get(i, j, 1) + xpc * e.get(i, j, 0)) * sqrt_pi_p
                    };
                    let sx = s1d(&ex, pa.0, pb.0, p);
                    let sy = s1d(&ey, pa.1, pb.1, p);
                    let sz = s1d(&ez, pa.2, pb.2, p);
                    match axis {
                        0 => m1d(pa.0, pb.0, &ex, big_p.x - c.x) * sy * sz,
                        1 => sx * m1d(pa.1, pb.1, &ey, big_p.y - c.y) * sz,
                        _ => sx * sy * m1d(pa.2, pb.2, &ez, big_p.z - c.z),
                    }
                })
            };
            [make(0), make(1), make(2)]
        }

        /// Second-moment matrices `Q^k_{μν} = ⟨μ| (r − C)_k² |ν⟩` (diagonal
        /// Cartesian quadrupole components), used for orbital spreads
        /// `σ² = ⟨r²⟩ − ⟨r⟩²` in the exact-exchange screening model.
        pub fn second_moment_matrices(basis: &Basis, c: Vec3) -> [Mat; 3] {
            let make = |axis: usize| {
                build_symmetric(basis, |pa, pb, a, b, ra, rb| {
                    let p = a + b;
                    let big_p = (ra * a + rb * b) / p;
                    let ex = ECoefs::new(pa.0, pb.0, ra.x - rb.x, a, b);
                    let ey = ECoefs::new(pa.1, pb.1, ra.y - rb.y, a, b);
                    let ez = ECoefs::new(pa.2, pb.2, ra.z - rb.z, a, b);
                    let sqrt_pi_p = (PI / p).sqrt();
                    // ⟨i|(x−Cx)²|j⟩ = [2E_2 + 2X_PC E_1 + (X_PC² + 1/(2p)) E_0]√(π/p)
                    let q1d = |i: usize, j: usize, e: &ECoefs, xpc: f64| -> f64 {
                        (2.0 * e.get(i, j, 2)
                            + 2.0 * xpc * e.get(i, j, 1)
                            + (xpc * xpc + 0.5 / p) * e.get(i, j, 0))
                            * sqrt_pi_p
                    };
                    let sx = s1d(&ex, pa.0, pb.0, p);
                    let sy = s1d(&ey, pa.1, pb.1, p);
                    let sz = s1d(&ez, pa.2, pb.2, p);
                    match axis {
                        0 => q1d(pa.0, pb.0, &ex, big_p.x - c.x) * sy * sz,
                        1 => sx * q1d(pa.1, pb.1, &ey, big_p.y - c.y) * sz,
                        _ => sx * sy * q1d(pa.2, pb.2, &ez, big_p.z - c.z),
                    }
                })
            };
            [make(0), make(1), make(2)]
        }
    }

    /// Linear Li₂O at r(Li–O) = 1.62 Å.
    fn li2o() -> Molecule {
        let mut li2o = Molecule::new();
        for (element, x) in [
            (liair_basis::Element::O, 0.0),
            (liair_basis::Element::Li, 1.62),
            (liair_basis::Element::Li, -1.62),
        ] {
            li2o.push(element, Vec3::new(x, 0.0, 0.0) * liair_basis::ANGSTROM);
        }
        li2o
    }

    #[test]
    fn values_are_bit_equal_to_the_per_term_walk_oracle() {
        use liair_basis::shell::{Primitive, Shell};
        let water = systems::water();
        let pc = systems::li2o2_complex(systems::Solvent::PropyleneCarbonate, 3.6);
        // Water/6-31G with a d shell on O and a two-primitive one on an H:
        // the only kets that reach the kinetic factor's `j ≥ 2` term.
        let mut with_d = Basis::b631g(&water).shells;
        for (atom, exps) in [(0, &[0.8][..]), (1, &[1.1, 0.3][..])] {
            let prims = exps
                .iter()
                .map(|&exp| Primitive { exp, coef: 1.0 })
                .collect();
            with_d.push(Shell::new(2, atom, water.atoms[atom].pos, prims));
        }
        let cases = [
            (systems::lih(), Basis::sto3g(&systems::lih())),
            (li2o(), Basis::sto3g(&li2o())),
            (water.clone(), Basis::b631g(&water)),
            (water, Basis::from_shells(with_d)),
            (pc.clone(), Basis::sto3g(&pc)),
        ];
        let c = Vec3::new(0.3, -0.7, 0.2);
        for (mol, basis) in &cases {
            let d = dipole_matrices(basis, c);
            let q = second_moment_matrices(basis, c);
            let (d_ref, q_ref) = (
                oracle::dipole_matrices(basis, c),
                oracle::second_moment_matrices(basis, c),
            );
            let pairs = [
                ("S", overlap_matrix(basis), oracle::overlap_matrix(basis)),
                ("T", kinetic_matrix(basis), oracle::kinetic_matrix(basis)),
                (
                    "V",
                    nuclear_matrix(basis, mol),
                    oracle::nuclear_matrix(basis, mol),
                ),
            ]
            .into_iter()
            .chain((0..3).map(|k| ("D", d[k].clone(), d_ref[k].clone())))
            .chain((0..3).map(|k| ("Q", q[k].clone(), q_ref[k].clone())));
            for (name, got, want) in pairs {
                let n = basis.nao();
                for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{} ({n} AOs) {name}[{}][{}]: {x:e} vs oracle {y:e}",
                        mol.formula(),
                        i / n,
                        i % n
                    );
                }
            }
        }
    }

    /// A symmetric matrix of `n × n` entries in `[−0.5, 0.5)`.
    fn symmetric(n: usize, seed: u64) -> Mat {
        let mut rng = liair_math::rng::SplitMix64::new(seed);
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = rng.next_f64() - 0.5;
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        m
    }

    #[test]
    fn overlap_and_core_gradients_match_finite_differences() {
        // Tr(W S) and Tr(D H) at fixed AO matrices, differenced over the
        // nuclei (the basis and, for V, the charges move with them).
        let water = systems::water();
        for (mol, basis_of) in [
            (systems::lih(), Basis::sto3g as fn(&Molecule) -> Basis),
            (water.clone(), Basis::sto3g),
            (water, Basis::b631g),
        ] {
            let n = basis_of(&mol).nao();
            let (w, d) = (symmetric(n, 3), symmetric(n, 5));
            let basis = basis_of(&mol);
            let gs = overlap_gradient(&basis, mol.natoms(), &w);
            let gh = core_hamiltonian_gradient(&basis, &mol, &d);
            let energies = |m: &Molecule| {
                let b = basis_of(m);
                let h = kinetic_matrix(&b).add(&nuclear_matrix(&b, m));
                (w.trace_product(&overlap_matrix(&b)), d.trace_product(&h))
            };
            let h = 1e-4;
            for atom in 0..mol.natoms() {
                for axis in 0..3 {
                    let at = |step: f64| {
                        let mut m = mol.clone();
                        m.atoms[atom].pos[axis] += step;
                        energies(&m)
                    };
                    let ((sp, hp), (sm, hm)) = (at(h), at(-h));
                    for (name, got, fd) in [
                        ("S", gs[atom][axis], (sp - sm) / (2.0 * h)),
                        ("H", gh[atom][axis], (hp - hm) / (2.0 * h)),
                    ] {
                        assert!(
                            (got - fd).abs() < 1e-7,
                            "{} {name} atom {atom} axis {axis}: {got:.12e} vs FD {fd:.12e}",
                            mol.formula()
                        );
                    }
                }
            }
            for (name, g) in [("S", &gs), ("H", &gh)] {
                let total = g.iter().fold(Vec3::ZERO, |a, v| a + *v);
                assert!(
                    total.norm() < 1e-11,
                    "{} {name}: Σ = {total:?}",
                    mol.formula()
                );
            }
        }
    }

    #[test]
    fn p_shell_overlap_block_is_identity_on_center() {
        // The 3 p functions on one atom are orthonormal.
        let mut mol = Molecule::new();
        mol.push(liair_basis::Element::O, Vec3::ZERO);
        let basis = Basis::sto3g(&mol);
        let s = overlap_matrix(&basis);
        // AOs: 1s, 2s, 2px, 2py, 2pz
        for i in 2..5 {
            for j in 2..5 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(approx_eq(s[(i, j)], want, 1e-10), "S[{i}][{j}]");
            }
        }
        // s–p on the same center vanish by symmetry.
        assert!(s[(0, 2)].abs() < 1e-12);
        assert!(s[(1, 3)].abs() < 1e-12);
    }
}
