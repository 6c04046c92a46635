//! One-electron integral matrices: overlap, kinetic, nuclear attraction,
//! and dipole moments.

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
                            acc += c * kernel(pa, pb, prim_a.exp, prim_b.exp, sa.center, sb.center);
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

/// One primitive pair of an ordered AO pair, as the gradient loops see it.
struct GradPair {
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

impl GradPair {
    /// The `E` tables per axis, one order above the bra's power (for the
    /// raise/lower identity) and `extra_j` above the ket's.
    fn tables(&self, extra_j: usize) -> [ECoefs; 3] {
        let d = self.ra - self.rb;
        std::array::from_fn(|k| {
            ECoefs::new(self.pa[k] + 1, self.pb[k] + extra_j, d[k], self.a, self.b)
        })
    }

    /// The bra-center derivative of a 1-D factor `f(i)` of bra power `i`
    /// along `axis`: `∂/∂A_x [x_A^i e^{−a x_A²}] = (2a x_A^{i+1} −
    /// i x_A^{i−1}) e^{−a x_A²}`.
    fn bra_derivative(&self, axis: usize, f: impl Fn(usize) -> f64) -> f64 {
        let i = self.pa[axis];
        let lower = if i > 0 { i as f64 * f(i - 1) } else { 0.0 };
        2.0 * self.a * f(i + 1) - lower
    }

    /// The 1-D overlap and kinetic factors along `axis` as functions of the
    /// bra power, from `e = tables(2)[axis]`.
    fn s_and_t<'e>(
        &self,
        axis: usize,
        e: &'e ECoefs,
    ) -> (impl Fn(usize) -> f64 + 'e, impl Fn(usize) -> f64 + 'e) {
        let (j, b) = (self.pb[axis], self.b);
        let sqrt_pi_p = (PI / (self.a + b)).sqrt();
        let s = move |i: usize, j: usize| e.get(i, j, 0) * sqrt_pi_p;
        // T(i, j) = −2b² S(i, j+2) + b(2j+1) S(i, j) − ½ j(j−1) S(i, j−2).
        let t = move |i: usize| {
            let lower = if j >= 2 {
                0.5 * (j * (j - 1)) as f64 * s(i, j - 2)
            } else {
                0.0
            };
            -2.0 * b * b * s(i, j + 2) + b * (2 * j + 1) as f64 * s(i, j) - lower
        };
        (move |i: usize| s(i, j), t)
    }
}

/// Visit every primitive pair of every *ordered* AO pair. Summing
/// `2 W_μν ∂_A O_μν` over them gives both centers' derivatives of
/// `Σ W_μν O_μν` for a symmetric `W` and a symmetric two-center `O`: the
/// ket derivative of `O_μν` is the bra derivative of `O_νμ`.
fn for_each_ordered_prim_pair(basis: &Basis, mut visit: impl FnMut(&GradPair)) {
    let coefs = shell_coefs(basis);
    let arr = |p: (usize, usize, usize)| [p.0, p.1, p.2];
    for (si, sa) in basis.shells.iter().enumerate() {
        for (sj, sb) in basis.shells.iter().enumerate() {
            let (oa, ob) = (basis.shell_offsets[si], basis.shell_offsets[sj]);
            for (ca, pa) in cart_components(sa.l).into_iter().enumerate() {
                for (cb, pb) in cart_components(sb.l).into_iter().enumerate() {
                    for (ia, prim_a) in sa.prims.iter().enumerate() {
                        for (ib, prim_b) in sb.prims.iter().enumerate() {
                            visit(&GradPair {
                                atom: sa.atom,
                                row: oa + ca,
                                col: ob + cb,
                                pa: arr(pa),
                                pb: arr(pb),
                                a: prim_a.exp,
                                b: prim_b.exp,
                                ra: sa.center,
                                rb: sb.center,
                                coef: coefs[si][ca][ia] * coefs[sj][cb][ib],
                            });
                        }
                    }
                }
            }
        }
    }
}

/// `Σ f(t, u, v)` over `t ≤ top[0]`, `u ≤ top[1]`, `v ≤ top[2]`.
fn box_sum(top: [usize; 3], f: impl Fn([usize; 3]) -> f64) -> f64 {
    let mut acc = 0.0;
    for t in 0..=top[0] {
        for u in 0..=top[1] {
            for v in 0..=top[2] {
                acc += f([t, u, v]);
            }
        }
    }
    acc
}

/// `g[A] = Σ_{μν} W_{μν} ∂S_{μν}/∂R_A` for a symmetric weight `W` (the
/// Pulay term of a gradient, with `W` the energy-weighted density), per
/// atom of an `natoms`-atom molecule.
pub fn overlap_gradient(basis: &Basis, natoms: usize, w: &Mat) -> Vec<Vec3> {
    let mut grad = vec![Vec3::ZERO; natoms];
    for_each_ordered_prim_pair(basis, |g| {
        let weight = 2.0 * w[(g.row, g.col)] * g.coef;
        if weight == 0.0 {
            return;
        }
        let tables = g.tables(0);
        let s: [_; 3] = std::array::from_fn(|k| g.s_and_t(k, &tables[k]).0);
        for k in 0..3 {
            let (k1, k2) = ((k + 1) % 3, (k + 2) % 3);
            let ds = g.bra_derivative(k, &s[k]);
            grad[g.atom][k] += weight * ds * s[k1](g.pa[k1]) * s[k2](g.pa[k2]);
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
    for_each_ordered_prim_pair(basis, |g| {
        let weight = d[(g.row, g.col)] * g.coef;
        if weight == 0.0 {
            return;
        }
        let tables = g.tables(2);
        // Kinetic: T = Tx Sy Sz + Sx Ty Sz + Sx Sy Tz, differentiated along
        // each axis through that axis's factors.
        let st: [_; 3] = std::array::from_fn(|k| g.s_and_t(k, &tables[k]));
        let s: [f64; 3] = std::array::from_fn(|k| st[k].0(g.pa[k]));
        let t: [f64; 3] = std::array::from_fn(|k| st[k].1(g.pa[k]));
        for k in 0..3 {
            let (k1, k2) = ((k + 1) % 3, (k + 2) % 3);
            let ds = g.bra_derivative(k, &st[k].0);
            let dt = g.bra_derivative(k, &st[k].1);
            let dkin = dt * s[k1] * s[k2] + ds * (t[k1] * s[k2] + s[k1] * t[k2]);
            grad[g.atom][k] += 2.0 * weight * dkin;
        }
        // Attraction, V = −Z (2π/p) Σ_tuv E_t E_u E_v R_tuv(P − C) per
        // nucleus C: one R table one order above the pair's. The bra
        // derivative raises the differentiated axis's E; the nucleus's
        // takes R_{tuv + 1_k} with the opposite sign.
        let p = g.a + g.b;
        let big_p = (g.ra * g.a + g.rb * g.b) / p;
        let top: [usize; 3] = std::array::from_fn(|k| g.pa[k] + g.pb[k]);
        let e = |k: usize, i: usize, t: usize| tables[k].get(i, g.pb[k], t);
        let r_index = |tuv: [usize; 3]| hermite_index(tuv[0], tuv[1], tuv[2]);
        for (c, atom) in mol.atoms.iter().enumerate() {
            let r = hermite_aux(top.iter().sum::<usize>() + 1, p, big_p - atom.pos);
            let scale = atom.element.z() as f64 * 2.0 * PI / p * weight;
            for k in 0..3 {
                let mut raised = top;
                raised[k] += 1;
                let d_bra = box_sum(raised, |tuv| {
                    let factor = |m: usize| {
                        if m == k {
                            g.bra_derivative(m, |i| e(m, i, tuv[m]))
                        } else {
                            e(m, g.pa[m], tuv[m])
                        }
                    };
                    factor(0) * factor(1) * factor(2) * r[r_index(tuv)]
                });
                let d_nuc = box_sum(top, |tuv| {
                    let eee: f64 = (0..3).map(|m| e(m, g.pa[m], tuv[m])).product();
                    eee * r[r_index(std::array::from_fn(|m| tuv[m] + usize::from(m == k)))]
                });
                grad[g.atom][k] -= 2.0 * scale * d_bra;
                grad[c][k] += scale * d_nuc;
            }
        }
    });
    grad
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
