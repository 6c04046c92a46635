//! The analytic nuclear gradient of a converged RKS-LDA energy, or of an
//! RHF energy whose exchange a caller's operator supplies, from the context
//! its session holds.
//!
//! `dE/dR_A = Σ D·∂H − Σ W·∂S + ½ Σ D_μν D_λσ ∂(μν|λσ) + ∂E_xc + ∂E_nn`
//!
//! with `D = 2 C_occ C_occᵀ` and the energy-weighted density
//! `W = 2 C_occ (C_occᵀ F C_occ) C_occᵀ` of the session's latest orbitals
//! and its last Fock matrix before DIIS (the Pulay term: the basis
//! functions move with their atoms). The XC term is the exact derivative
//! of the quadrature energy `E_xc = Σ_p w_p n_p ε_xc(n_p)` on the
//! session's Becke grid: every point moves with its atom, so
//! `∂n_p/∂R_B = −2 Σ_{μ∈B} (Dχ)_μ ∇χ_μ + δ_{B,A(p)} ∇n_p`, and the Becke
//! weights have their own derivatives (`MolGrid::weight_gradients`).
//! Every term is translation-invariant, so the forces sum to zero.
//!
//! For the RHF session `∂E_xc` is the operator's exchange term `∂E_x` at
//! fixed AO coefficients, which its owner computes and passes in. The
//! grid's comes from the K build's pair items (`liair-core`'s `kpath`);
//! its grid does not move with the atoms, so those forces do not sum to
//! zero.
//!
//! The AO values and gradients are streamed over fixed batches of
//! `XC_BATCH` points through [`PointBatch`], so no `3·nao·npts` array is
//! held; the batch partials are summed in batch order, and the Coulomb
//! term's group partials in group order, so the bits do not depend on the
//! thread count. A point's `n` and `Dχ` come from the same contraction as
//! the SCF's, so its bits are the ones the energy was evaluated with.

use crate::driver::XC_BATCH;
use liair_basis::{Basis, Molecule};
use liair_grid::{aos_at_points, density_at_points, MolGrid, WeightGradients};
use liair_math::{Mat, Vec3};
use liair_xc::lda::lda_exc_vxc;
use rayon::prelude::*;

/// One batch of Becke points, in caller-owned buffers reused batch after
/// batch: the AO values and gradients there (AO-major), and a density
/// matrix contracted over them.
#[derive(Default)]
pub(crate) struct PointBatch {
    vals: Vec<f64>,
    pub(crate) grads: Vec<Vec3>,
    /// `(Dχ)_μ` per point, AO-major.
    pub(crate) dchi: Vec<f64>,
    pub(crate) n: Vec<f64>,
    /// `|∇n|` per point; zero unless asked for.
    pub(crate) grad_n: Vec<f64>,
}

impl PointBatch {
    /// Evaluate the basis and its gradient at `points` and contract `d`
    /// over them, with `|∇n|` when `grad_n`.
    pub(crate) fn evaluate(&mut self, basis: &Basis, points: &[Vec3], d: &Mat, grad_n: bool) {
        let (nao, m) = (basis.nao(), points.len());
        self.vals.resize(nao * m, 0.0);
        self.grads.resize(nao * m, Vec3::ZERO);
        self.dchi.resize(nao * m, 0.0);
        self.n.resize(m, 0.0);
        self.grad_n.resize(m, 0.0);
        aos_at_points(basis, points, &mut self.vals, Some(&mut self.grads));
        let grad = grad_n.then_some((&self.grads[..], &mut self.grad_n[..]));
        density_at_points(d, &self.vals, grad, &mut self.n, &mut self.dchi);
    }
}

/// The terms of a gradient, per atom, in the order they are summed.
pub(crate) struct GradientTerms {
    pub(crate) nuclear: Vec<Vec3>,
    pub(crate) core: Vec<Vec3>,
    /// `−Σ W·∂S`.
    pub(crate) pulay: Vec<Vec3>,
    pub(crate) coulomb: Vec<Vec3>,
    /// `∂E_xc` of RKS-LDA, or the caller's exchange term of an RHF.
    pub(crate) xc: Vec<Vec3>,
}

impl GradientTerms {
    /// The gradient: the terms summed per atom in field order.
    pub(crate) fn total(&self) -> Vec<Vec3> {
        let terms = [
            &self.nuclear,
            &self.core,
            &self.pulay,
            &self.coulomb,
            &self.xc,
        ];
        (0..self.nuclear.len())
            .map(|a| terms.iter().fold(Vec3::ZERO, |g, t| g + t[a]))
            .collect()
    }
}

/// `∂E_xc/∂R_B` of the LDA quadrature energy of `d` on `grid`.
pub(crate) fn xc_gradient(mol: &Molecule, basis: &Basis, grid: &MolGrid, d: &Mat) -> Vec<Vec3> {
    let (natoms, nao, npts) = (mol.natoms(), basis.nao(), grid.len());
    let ao_atom: Vec<usize> = basis
        .aos
        .iter()
        .map(|ao| basis.shells[ao.shell].atom)
        .collect();
    let partials: Vec<Vec<Vec3>> = (0..npts.div_ceil(XC_BATCH))
        .into_par_iter()
        .map_init(
            || (PointBatch::default(), WeightGradients::default()),
            |(batch, wg), b| {
                let range = b * XC_BATCH..npts.min((b + 1) * XC_BATCH);
                let m = range.len();
                batch.evaluate(basis, &grid.points[range.clone()], d, false);
                grid.weight_gradients(mol, range.clone(), wg);
                let (grads, dchi) = (&batch.grads, &batch.dchi);
                let mut g = vec![Vec3::ZERO; natoms];
                for (i, p) in range.enumerate() {
                    let n = batch.n[i];
                    let (exc, vxc) = lda_exc_vxc(n);
                    let owner = grid.atom_of(p);
                    // w v ∂n/∂R: the AO's atom loses 2(Dχ)_μ ∇χ_μ and the
                    // point's atom gains it, so an AO on the owner adds 0.
                    let wv2 = 2.0 * grid.weights[p] * vxc;
                    for mu in (0..nao).filter(|&mu| ao_atom[mu] != owner) {
                        let f = grads[mu * m + i] * (wv2 * dchi[mu * m + i]);
                        g[ao_atom[mu]] -= f;
                        g[owner] += f;
                    }
                    let e = n * exc;
                    for (gb, dwb) in g.iter_mut().zip(&wg.dw[i * natoms..(i + 1) * natoms]) {
                        *gb += *dwb * e;
                    }
                }
                g
            },
        )
        .collect();
    let mut grad = vec![Vec3::ZERO; natoms];
    for partial in &partials {
        for (g, p) in grad.iter_mut().zip(partial) {
            *g += *p;
        }
    }
    grad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{rks_lda, ScfOptions, XC_GRID};
    use crate::session::ScfSession;
    use crate::Method;
    use liair_basis::systems;
    use liair_grid::GridSpec;
    use liair_integrals::{build_jk, kinetic_matrix, nuclear_matrix, overlap_matrix};
    use liair_xc::lda::lda_exc;

    /// Central-difference step (Bohr) of the oracles.
    const H: f64 = 1e-4;

    /// The SCF options of the oracles: converged far below the finite
    /// differences' resolution.
    fn tight() -> ScfOptions {
        ScfOptions {
            energy_tol: 1e-12,
            ..ScfOptions::default()
        }
    }

    /// `−dE/dR` by central differences of `energy`, per atom.
    fn central_difference(mol: &Molecule, energy: &dyn Fn(&Molecule) -> f64) -> Vec<Vec3> {
        (0..mol.natoms())
            .map(|atom| {
                let mut g = Vec3::ZERO;
                for axis in 0..3 {
                    let at = |step: f64| {
                        let mut m = mol.clone();
                        m.atoms[atom].pos[axis] += step;
                        energy(&m)
                    };
                    g[axis] = (at(H) - at(-H)) / (2.0 * H);
                }
                g
            })
            .collect()
    }

    /// Largest component difference between two per-atom gradients.
    fn max_diff(a: &[Vec3], b: &[Vec3]) -> f64 {
        a.iter()
            .zip(b)
            .flat_map(|(x, y)| (0..3).map(move |k| (x[k] - y[k]).abs()))
            .fold(0.0, f64::max)
    }

    /// A converged tight RKS-LDA session's gradient terms, and its
    /// density and energy-weighted density `W = 2 Σ_i ε_i c_i c_iᵀ`.
    fn converged_terms(mol: &Molecule, basis: &Basis) -> (GradientTerms, Mat, Mat) {
        let mut session = ScfSession::new(mol, basis, &tight(), Method::RksLda);
        while session.step() {}
        assert!(session.converged(), "{}", mol.formula());
        let terms = session.gradient_terms(None);
        let res = session.into_result();
        let n = basis.nao();
        let w = Mat::from_fn(n, n, |mu, nu| {
            2.0 * (0..res.nocc)
                .map(|i| res.orbital_energies[i] * res.c[(mu, i)] * res.c[(nu, i)])
                .sum::<f64>()
        });
        (terms, res.density, w)
    }

    #[test]
    fn every_term_matches_finite_differences_at_fixed_densities() {
        // Each term differenced alone, at the converged D and W held fixed
        // in the AO basis while the atoms (and with them the basis, the
        // nuclei and the Becke grid) move.
        for mol in [systems::h2(), systems::lih(), systems::water()] {
            let (terms, d, w) = converged_terms(&mol, &Basis::sto3g(&mol));
            let xc_energy = |m: &Molecule| {
                let b = Basis::sto3g(m);
                let grid = MolGrid::becke(m, &XC_GRID);
                let mut batch = PointBatch::default();
                batch.evaluate(&b, &grid.points, &d, false);
                batch
                    .n
                    .iter()
                    .zip(&grid.weights)
                    .map(|(&n, &w)| w * n * lda_exc(n))
                    .sum()
            };
            let check = |name: &str, analytic: &[Vec3], energy: &dyn Fn(&Molecule) -> f64| {
                let err = max_diff(analytic, &central_difference(&mol, energy));
                assert!(err < 1e-7, "{} {name}: {err:e} Ha/Bohr", mol.formula());
            };
            check("E_nn", &terms.nuclear, &|m| m.nuclear_repulsion());
            check("Tr(DH)", &terms.core, &|m| {
                let b = Basis::sto3g(m);
                d.trace_product(&kinetic_matrix(&b).add(&nuclear_matrix(&b, m)))
            });
            check("−Tr(WS)", &terms.pulay, &|m| {
                -w.trace_product(&overlap_matrix(&Basis::sto3g(m)))
            });
            check("½Tr(DJ)", &terms.coulomb, &|m| {
                0.5 * d.trace_product(&build_jk(&Basis::sto3g(m), &d, 0.0).0)
            });
            check("E_xc", &terms.xc, &xc_energy);
        }
    }

    #[test]
    fn gradient_matches_finite_differences_of_the_scf_energy_and_sums_to_zero() {
        // The total against central differences of converged RKS-LDA
        // energies (H = 1e-4 Bohr, energy_tol 1e-12 Ha): within 1e-7
        // Ha/Bohr on H₂, LiH and water (2.5e-9, 3.7e-9 and 4.1e-9 when
        // recorded, the differences' own truncation error: E_nn's alone
        // differs by 1e-8 on water).
        for mol in [systems::h2(), systems::lih(), systems::water()] {
            let basis = Basis::sto3g(&mol);
            let grad = converged_terms(&mol, &basis).0.total();
            let fd = central_difference(&mol, &|m| {
                let res = rks_lda(m, &Basis::sto3g(m), &tight());
                assert!(res.converged);
                res.energy
            });
            let err = max_diff(&grad, &fd);
            assert!(err < 1e-7, "{}: {err:e} Ha/Bohr", mol.formula());
            let total = grad.iter().fold(Vec3::ZERO, |a, g| a + *g);
            assert!(total.norm() < 1e-10, "{}: Σ = {total:?}", mol.formula());
        }
    }

    #[test]
    fn gradient_bits_do_not_depend_on_thread_count() {
        let mol = systems::water();
        let basis = Basis::sto3g(&mol);
        let on = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| converged_terms(&mol, &basis).0.total())
        };
        let one = on(1);
        for threads in 2..=4 {
            let g = on(threads);
            for (a, b) in g.iter().zip(&one) {
                assert!(
                    (0..3).all(|k| a[k].to_bits() == b[k].to_bits()),
                    "{threads} threads"
                );
            }
        }
    }

    #[test]
    fn weight_gradients_match_finite_differences_on_the_xc_grid() {
        // `liair-grid`'s oracle at the crate's pruned grid, whose shells
        // mix sphere sizes: point p's weight differenced directly.
        for mol in [systems::lih(), systems::water()] {
            let grid = MolGrid::becke(&mol, &XC_GRID);
            let mut wg = WeightGradients::default();
            grid.weight_gradients(&mol, 0..grid.len(), &mut wg);
            let (natoms, h) = (mol.natoms(), 1e-5);
            let mut worst: f64 = 0.0;
            for atom in 0..natoms {
                for axis in 0..3 {
                    let at = |step: f64| {
                        let mut m = mol.clone();
                        m.atoms[atom].pos[axis] += step;
                        MolGrid::becke(&m, &XC_GRID)
                    };
                    let (plus, minus) = (at(h), at(-h));
                    assert_eq!(plus.atom_starts, grid.atom_starts);
                    assert_eq!(minus.atom_starts, grid.atom_starts);
                    for p in 0..grid.len() {
                        let fd = (plus.weights[p] - minus.weights[p]) / (2.0 * h);
                        let err = (wg.dw[p * natoms + atom][axis] - fd).abs();
                        worst = worst.max(err / (1.0 + fd.abs()));
                    }
                }
            }
            assert!(
                worst < 1e-6,
                "{}: worst relative error {worst:e}",
                mol.formula()
            );
        }
    }

    #[test]
    fn xc_grid_rks_energies_and_forces_are_as_close_to_the_dense_grid_as_the_unpruned_one() {
        // RKS-LDA on stretched H₂ (the MTS force's molecule), LiH and
        // water at the crate's grid and at the unpruned 40 × 8 it replaced,
        // each against a dense 80 × 16 reference: the pruned grid's error
        // is at most the unpruned one's, or 1e-5 Ha and 1e-4 Ha/Bohr.
        let mut h2 = systems::h2();
        h2.atoms[1].pos.x = 1.5;
        for mol in [h2, systems::lih(), systems::water()] {
            let basis = Basis::sto3g(&mol);
            let at = |spec: &GridSpec| {
                let mut scf = ScfSession::on_xc_grid(&mol, &basis, &tight(), Method::RksLda, spec);
                while scf.step() {}
                assert!(scf.converged(), "{} {spec:?}", mol.formula());
                (scf.energy(), scf.gradient(None))
            };
            let (e_ref, g_ref) = at(&GridSpec::uniform(80, 16));
            let (e_old, g_old) = at(&GridSpec::uniform(40, 8));
            let (e_new, g_new) = at(&XC_GRID);
            let (de_old, de_new) = ((e_old - e_ref).abs(), (e_new - e_ref).abs());
            let (dg_old, dg_new) = (max_diff(&g_old, &g_ref), max_diff(&g_new, &g_ref));
            eprintln!(
                "{}: |ΔE| {de_old:.2e} → {de_new:.2e} Ha, max |ΔF| {dg_old:.2e} → {dg_new:.2e} Ha/Bohr",
                mol.formula()
            );
            assert!(
                de_new <= de_old.max(1e-5),
                "{}: |ΔE| {de_new:e}",
                mol.formula()
            );
            assert!(
                dg_new <= dg_old.max(1e-4),
                "{}: |ΔF| {dg_new:e}",
                mol.formula()
            );
        }
    }
}
