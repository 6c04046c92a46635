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
