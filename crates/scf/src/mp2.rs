//! Second-order Møller–Plesset perturbation theory (closed shell).
//!
//! `E_MP2 = Σ_{ijab} (ia|jb)·[2(ia|jb) − (ib|ja)] / (ε_i + ε_j − ε_a − ε_b)`
//!
//! over occupied `i, j` and virtual `a, b`, with MO integrals from an
//! O(N⁵) quarter-wise transform of the dense AO tensor. Small systems
//! only (the dense tensor is capped at 96 AOs) — this is a *validation*
//! tool for the integral/SCF stack, not a production correlation method;
//! the paper's correlation comes from the PBE0 functional.

use crate::driver::ScfResult;
use liair_basis::Basis;
use liair_integrals::eri_tensor;

/// MP2 correlation energy on a converged closed-shell reference.
pub fn mp2_correlation(basis: &Basis, scf: &ScfResult) -> f64 {
    let n = basis.nao();
    let nocc = scf.nocc;
    let nvirt = n - nocc;
    assert!(nvirt > 0, "no virtual orbitals — MP2 undefined");
    let eri = eri_tensor(basis);
    let c = &scf.c;

    // Quarter transforms: (μν|λσ) → (iν|λσ) → (ia|λσ) → (ia|jσ) → (ia|jb).
    // Stored as dense 4-index arrays over the required ranges.
    let full = |m: &Vec<f64>, d: [usize; 4], i: usize, j: usize, k: usize, l: usize| {
        m[((i * d[1] + j) * d[2] + k) * d[3] + l]
    };
    // Step 1: T1[i, ν, λ, σ]
    let mut t1 = vec![0.0; nocc * n * n * n];
    for i in 0..nocc {
        for nu in 0..n {
            for lam in 0..n {
                for sig in 0..n {
                    let mut acc = 0.0;
                    for mu in 0..n {
                        acc += c[(mu, i)] * eri.get(mu, nu, lam, sig);
                    }
                    t1[((i * n + nu) * n + lam) * n + sig] = acc;
                }
            }
        }
    }
    // Step 2: T2[i, a, λ, σ]
    let mut t2 = vec![0.0; nocc * nvirt * n * n];
    for i in 0..nocc {
        for a in 0..nvirt {
            for lam in 0..n {
                for sig in 0..n {
                    let mut acc = 0.0;
                    for nu in 0..n {
                        acc += c[(nu, nocc + a)] * full(&t1, [nocc, n, n, n], i, nu, lam, sig);
                    }
                    t2[((i * nvirt + a) * n + lam) * n + sig] = acc;
                }
            }
        }
    }
    drop(t1);
    // Step 3: T3[i, a, j, σ]
    let mut t3 = vec![0.0; nocc * nvirt * nocc * n];
    for i in 0..nocc {
        for a in 0..nvirt {
            for j in 0..nocc {
                for sig in 0..n {
                    let mut acc = 0.0;
                    for lam in 0..n {
                        acc += c[(lam, j)] * full(&t2, [nocc, nvirt, n, n], i, a, lam, sig);
                    }
                    t3[((i * nvirt + a) * nocc + j) * n + sig] = acc;
                }
            }
        }
    }
    drop(t2);
    // Step 4: (ia|jb)
    let mut mo = vec![0.0; nocc * nvirt * nocc * nvirt];
    for i in 0..nocc {
        for a in 0..nvirt {
            for j in 0..nocc {
                for b in 0..nvirt {
                    let mut acc = 0.0;
                    for sig in 0..n {
                        acc += c[(sig, nocc + b)] * full(&t3, [nocc, nvirt, nocc, n], i, a, j, sig);
                    }
                    mo[((i * nvirt + a) * nocc + j) * nvirt + b] = acc;
                }
            }
        }
    }
    drop(t3);

    let iajb =
        |i: usize, a: usize, j: usize, b: usize| mo[((i * nvirt + a) * nocc + j) * nvirt + b];
    let eps = &scf.orbital_energies;
    let mut e2 = 0.0;
    for i in 0..nocc {
        for j in 0..nocc {
            for a in 0..nvirt {
                for b in 0..nvirt {
                    let v = iajb(i, a, j, b);
                    let x = iajb(i, b, j, a);
                    let denom = eps[i] + eps[j] - eps[nocc + a] - eps[nocc + b];
                    e2 += v * (2.0 * v - x) / denom;
                }
            }
        }
    }
    e2
}

/// Convenience: RHF + MP2 total energy.
pub fn rhf_mp2_energy(
    mol: &liair_basis::Molecule,
    basis: &Basis,
    opts: &crate::driver::ScfOptions,
) -> (f64, f64) {
    let scf = crate::driver::rhf(mol, basis, opts);
    assert!(scf.converged, "RHF failed for {}", mol.formula());
    let corr = mp2_correlation(basis, &scf);
    (scf.energy, corr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{rhf, ScfOptions};
    use liair_basis::systems;
    use liair_math::approx_eq;

    #[test]
    fn h2_mp2_is_negative_and_small() {
        let mol = systems::h2();
        let basis = Basis::sto3g(&mol);
        let scf = rhf(&mol, &basis, &ScfOptions::default());
        let corr = mp2_correlation(&basis, &scf);
        assert!(corr < 0.0, "MP2 correlation must be negative: {corr}");
        assert!(corr > -0.05, "unreasonably large: {corr}");
        // Minimal-basis H2 has a single double excitation: the MP2 pair
        // energy equals (ov|ov)²·1/(2(ε_o − ε_v)) exactly — spot value
        // ≈ −0.013 Ha at R = 1.4.
        assert!(approx_eq(corr, -0.0131, 2e-3), "corr = {corr}");
    }

    #[test]
    fn water_mp2_matches_reference_scale() {
        // H2O/STO-3G MP2 correlation is a few tens of mHa (−0.035 at the
        // experimental geometry; geometry-sensitive — stretched tutorial
        // geometries give up to −0.049).
        let mol = systems::water();
        let basis = Basis::sto3g(&mol);
        let scf = rhf(&mol, &basis, &ScfOptions::default());
        let corr = mp2_correlation(&basis, &scf);
        assert!(
            corr < -0.025 && corr > -0.060,
            "H2O MP2 correlation = {corr}"
        );
    }

    #[test]
    fn mp2_is_size_consistent() {
        // Two H2 far apart: E_corr(2×H2) = 2·E_corr(H2).
        let mol1 = systems::h2();
        let basis1 = Basis::sto3g(&mol1);
        let scf1 = rhf(&mol1, &basis1, &ScfOptions::default());
        let corr1 = mp2_correlation(&basis1, &scf1);

        let mut dimer = systems::h2();
        let mut far = systems::h2();
        far.translate(liair_math::Vec3::new(0.0, 40.0, 0.0));
        dimer.merge(&far);
        let basis2 = Basis::sto3g(&dimer);
        let scf2 = rhf(&dimer, &basis2, &ScfOptions::default());
        let corr2 = mp2_correlation(&basis2, &scf2);
        assert!(approx_eq(corr2, 2.0 * corr1, 1e-6), "{corr2} vs 2×{corr1}");
    }

    #[test]
    fn bigger_basis_recovers_more_correlation() {
        let mol = systems::h2();
        let sto = Basis::sto3g(&mol);
        let dz = Basis::b631g(&mol);
        let scf_sto = rhf(&mol, &sto, &ScfOptions::default());
        let scf_dz = rhf(&mol, &dz, &ScfOptions::default());
        let c_sto = mp2_correlation(&sto, &scf_sto);
        let c_dz = mp2_correlation(&dz, &scf_dz);
        assert!(
            c_dz < c_sto,
            "6-31G {c_dz} should recover more than STO-3G {c_sto}"
        );
    }
}
