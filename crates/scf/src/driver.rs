//! RHF / RKS(LDA) SCF drivers: sessions run to completion. Post-SCF
//! functional energies come from the converged session itself
//! ([`ScfSession::functional_energies`](crate::ScfSession::functional_energies)).

use liair_basis::{Basis, Molecule};
use liair_grid::{GridSpec, RowSpec};
use liair_math::Mat;

/// Which self-consistent method to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Restricted Hartree–Fock (100 % exact exchange).
    Rhf,
    /// Restricted Kohn–Sham with the LDA potential.
    RksLda,
}

/// DIIS error (∞-norm of FDS−SDF) below which an SCF may converge.
pub(crate) const DIIS_ERROR_TOL: f64 = 1e-6;
/// DIIS history depth.
pub(crate) const DIIS_DEPTH: usize = 8;
/// The Becke XC grid of every caller: the RKS-LDA context, its gradient
/// and the post-SCF functionals. Radial shells per element row, and the
/// angular order per SG-1 region, tuned against a uniform 80 × 16 grid:
/// RKS-LDA energies and forces of stretched H₂, LiH and water, and the
/// four reactions' E_int(PBE0), are no farther from it than the unpruned
/// 40 × 8 grid this replaced (or within 1e-5 Ha, 1e-4 Ha/Bohr and 6e-4 Ha
/// of it), with 2,270 points per H against 4,608.
pub(crate) const XC_GRID: GridSpec = GridSpec {
    rows: [
        RowSpec {
            n_rad: 31,
            n_theta: [2, 3, 7, 10, 5],
        },
        RowSpec {
            n_rad: 35,
            n_theta: [4, 6, 9, 12, 8],
        },
        RowSpec {
            n_rad: 40,
            n_theta: [2, 5, 8, 12, 8],
        },
    ],
};
/// Becke points per batch wherever the XC grid is walked: the RKS AO
/// values, the XC gradient and the post-SCF functionals all evaluate and
/// contract the basis one batch at a time, and sum batch partials in
/// batch order.
pub(crate) const XC_BATCH: usize = 128;
/// Full (non-incremental) Fock rebuild every N iterations under
/// `incremental_fock`, resetting the accumulated screening error.
pub(crate) const FOCK_REBUILD_EVERY: usize = 8;

/// SCF controls. The DIIS depth and error threshold, the XC grid and the
/// incremental-Fock rebuild cadence are constants of this crate.
#[derive(Debug, Clone, Copy)]
pub struct ScfOptions {
    /// Maximum iterations before declaring non-convergence.
    pub max_iter: usize,
    /// Energy convergence threshold (Hartree).
    pub energy_tol: f64,
    /// Schwarz screening threshold for the integral-direct build.
    pub schwarz_tol: f64,
    /// Build J/K incrementally from difference densities `ΔD = D_n −
    /// D_{n−1}` (density-weighted Schwarz screening drops most quartets
    /// as ΔD shrinks toward convergence), with a full rebuild every 8
    /// iterations. Exact up to `schwarz_tol`. Every build replays the
    /// quartets the session's J/K builder evaluated once, so a ΔD build
    /// saves scatter work, not integral evaluation.
    pub incremental_fock: bool,
}

impl Default for ScfOptions {
    fn default() -> Self {
        Self {
            max_iter: 100,
            energy_tol: 1e-9,
            schwarz_tol: 1e-11,
            incremental_fock: false,
        }
    }
}

/// Energy decomposition of a converged calculation.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnergyBreakdown {
    /// Nuclear–nuclear repulsion.
    pub e_nuc: f64,
    /// One-electron (kinetic + nuclear attraction) energy `Tr(D·H)`.
    pub e_core: f64,
    /// Classical Coulomb `½ Tr(D·J)`.
    pub e_coulomb: f64,
    /// Exact-exchange contribution actually included in the total
    /// (`−c_x·¼ Tr(D·K)`).
    pub e_exchange: f64,
    /// DFT exchange–correlation energy included in the total.
    pub e_xc: f64,
}

/// Converged SCF state.
#[derive(Debug, Clone)]
pub struct ScfResult {
    /// Total energy (Hartree).
    pub energy: f64,
    /// Orbital energies, ascending.
    pub orbital_energies: Vec<f64>,
    /// MO coefficients (AO × MO), columns ordered with the energies.
    pub c: Mat,
    /// Closed-shell density matrix `D = 2 C_occ C_occᵀ`.
    pub density: Mat,
    /// Number of doubly-occupied orbitals.
    pub nocc: usize,
    /// Iterations used.
    pub iterations: usize,
    /// Whether both convergence criteria were met.
    pub converged: bool,
    /// Energy components.
    pub breakdown: EnergyBreakdown,
    /// Which method produced it.
    pub method: Method,
}

impl ScfResult {
    /// Energy of the highest occupied molecular orbital, `None` before
    /// the first iteration or for an empty system.
    pub fn homo(&self) -> Option<f64> {
        if self.nocc == 0 || self.orbital_energies.len() < self.nocc {
            return None;
        }
        Some(self.orbital_energies[self.nocc - 1])
    }

    /// Energy of the lowest unoccupied molecular orbital, `None` when the
    /// basis has no virtual orbitals.
    pub fn lumo(&self) -> Option<f64> {
        self.orbital_energies.get(self.nocc).copied()
    }

    /// HOMO–LUMO gap `ε_LUMO − ε_HOMO` — the screening study's proxy for
    /// oxidative stability (a wider gap resists electron transfer to the
    /// peroxide). `None` when either frontier orbital is unavailable.
    pub fn homo_lumo_gap(&self) -> Option<f64> {
        Some(self.lumo()? - self.homo()?)
    }
}

/// Run restricted Hartree–Fock.
pub fn rhf(mol: &Molecule, basis: &Basis, opts: &ScfOptions) -> ScfResult {
    scf(mol, basis, opts, Method::Rhf)
}

/// Run restricted Kohn–Sham LDA.
pub fn rks_lda(mol: &Molecule, basis: &Basis, opts: &ScfOptions) -> ScfResult {
    scf(mol, basis, opts, Method::RksLda)
}

fn scf(mol: &Molecule, basis: &Basis, opts: &ScfOptions, method: Method) -> ScfResult {
    // The iteration itself lives in `session`: one `ScfSession::step` per
    // SCF cycle, checkpointable between cycles. Running a fresh session to
    // completion is the uninterrupted special case.
    crate::session::ScfSession::new(mol, basis, opts, method).run_to_completion()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScfSession;
    use liair_basis::systems::Solvent;
    use liair_basis::{systems, Element};
    use liair_grid::{aos_at_points, density_at_points, MolGrid};
    use liair_integrals::{build_jk, kinetic_matrix, nuclear_matrix, overlap_matrix};
    use liair_math::{approx_eq, Vec3};
    use liair_xc::lda::lda_exc;
    use liair_xc::Functional;

    const FUNCTIONALS: [Functional; 4] = [
        Functional::Hf,
        Functional::Lda,
        Functional::Pbe,
        Functional::Pbe0,
    ];

    /// A fresh RHF session stepped to the end, still holding its context.
    fn converged_session<'a>(mol: &Molecule, basis: &'a Basis) -> ScfSession<'a> {
        let mut scf = ScfSession::new(mol, basis, &ScfOptions::default(), Method::Rhf);
        while scf.step() {}
        assert!(
            scf.converged(),
            "RHF did not converge for {}",
            mol.formula()
        );
        scf
    }

    /// The one-shot post-SCF energy that `ScfSession::functional_energies`
    /// replaced, kept as its oracle: a fresh `H`, a `build_jk` that computes
    /// every quartet again, and a Becke grid per functional, walked in
    /// batches of `XC_BATCH` points whose sums are added in batch order.
    fn functional_energy_oracle(
        mol: &Molecule,
        basis: &Basis,
        res: &ScfResult,
        functional: Functional,
        opts: &ScfOptions,
    ) -> f64 {
        let h = kinetic_matrix(basis).add(&nuclear_matrix(basis, mol));
        let (j, k) = build_jk(basis, &res.density, opts.schwarz_tol);
        let e_core = res.density.trace_product(&h);
        let e_coul = 0.5 * res.density.trace_product(&j);
        let e_hfx = -0.25 * res.density.trace_product(&k);
        let e_dft = if functional == Functional::Hf {
            0.0
        } else {
            let grid = MolGrid::becke(mol, &XC_GRID);
            let nao = basis.nao();
            let batches = grid
                .points
                .chunks(XC_BATCH)
                .zip(grid.weights.chunks(XC_BATCH));
            let partials: Vec<f64> = batches
                .map(|(points, weights)| {
                    let m = points.len();
                    let (mut vals, mut grads) = (vec![0.0; nao * m], vec![Vec3::ZERO; nao * m]);
                    aos_at_points(basis, points, &mut vals, Some(&mut grads));
                    let (mut nvals, mut g, mut dchi) =
                        (vec![0.0; m], vec![0.0; m], vec![0.0; nao * m]);
                    let grad = Some((&grads[..], &mut g[..]));
                    density_at_points(&res.density, &vals, grad, &mut nvals, &mut dchi);
                    match functional {
                        Functional::Lda => nvals
                            .iter()
                            .zip(weights)
                            .map(|(&d, &w)| w * d * lda_exc(d))
                            .sum(),
                        Functional::Pbe => nvals
                            .iter()
                            .zip(&g)
                            .zip(weights)
                            .map(|((&d, &g), &w)| w * d * liair_xc::pbe::pbe_exc(d, g))
                            .sum(),
                        Functional::Pbe0 => nvals
                            .iter()
                            .zip(&g)
                            .zip(weights)
                            .map(|((&d, &g), &w)| {
                                w * d
                                    * (0.75 * liair_xc::pbe::pbe_ex(d, g)
                                        + liair_xc::pbe::pbe_ec(d, g))
                            })
                            .sum(),
                        Functional::Hf => unreachable!(),
                    }
                })
                .collect();
            partials.iter().sum()
        };
        mol.nuclear_repulsion() + e_core + e_coul + functional.hfx_fraction() * e_hfx + e_dft
    }

    fn run_rhf(mol: &Molecule) -> (Basis, ScfResult) {
        let basis = Basis::sto3g(mol);
        let res = rhf(mol, &basis, &ScfOptions::default());
        assert!(res.converged, "RHF did not converge for {}", mol.formula());
        (basis, res)
    }

    #[test]
    fn h2_sto3g_energy() {
        // Szabo & Ostlund: E(H2/STO-3G, R = 1.4) = −1.1167 Ha.
        let (_, res) = run_rhf(&systems::h2());
        assert!(approx_eq(res.energy, -1.1167, 2e-4), "E = {}", res.energy);
        // One doubly-occupied orbital at ε ≈ −0.578.
        assert!(approx_eq(res.orbital_energies[0], -0.578, 5e-3));
    }

    #[test]
    fn helium_sto3g_energy() {
        // HF/STO-3G He: −2.8078 Ha.
        let (_, res) = run_rhf(&systems::helium());
        assert!(approx_eq(res.energy, -2.8078, 1e-3), "E = {}", res.energy);
    }

    #[test]
    fn water_sto3g_energy() {
        // HF/STO-3G water near experimental geometry: ≈ −74.96 Ha.
        let (_, res) = run_rhf(&systems::water());
        assert!(
            res.energy < -74.90 && res.energy > -75.05,
            "E = {}",
            res.energy
        );
        assert_eq!(res.nocc, 5);
    }

    #[test]
    fn lih_sto3g_energy() {
        // The LiH/STO-3G setup of an independent small HF code: Li at the
        // origin, H at z = 3.0141129518 Bohr (1.595 Å).
        let mut mol = Molecule::new();
        mol.push(Element::Li, Vec3::ZERO);
        mol.push(Element::H, Vec3::new(0.0, 0.0, 3.014_112_951_8));
        let (_, res) = run_rhf(&mol);
        // Pinned: the converged value agrees to 10 digits for energy_tol
        // 1e-8, 1e-10 and 1e-12, so 1e-8 guards the physics, not the
        // stopping rule ...
        let pinned = -7.862_023_877_574;
        assert!((res.energy - pinned).abs() < 1e-8, "E = {}", res.energy);
        // ... and it is the textbook HF/STO-3G LiH energy, −7.862 Ha.
        assert!(approx_eq(res.energy, -7.862, 1e-3), "E = {}", res.energy);

        // A rigidly moved copy (Rodrigues rotation, then a shift) has the
        // same energy: Cartesian p shells rotate into each other.
        let (axis, angle) = (Vec3::new(1.0, 2.0, 0.5).normalized(), 1.1f64);
        let shift = Vec3::new(0.7, -1.3, 2.9);
        let mut moved = mol.clone();
        for a in &mut moved.atoms {
            let v = a.pos;
            a.pos = v * angle.cos()
                + axis.cross(v) * angle.sin()
                + axis * (axis.dot(v) * (1.0 - angle.cos()))
                + shift;
        }
        let (_, res_moved) = run_rhf(&moved);
        assert!(
            (res_moved.energy - res.energy).abs() < 1e-9,
            "moved {} vs {}",
            res_moved.energy,
            res.energy
        );
    }

    #[test]
    fn h2_and_water_631g_energies() {
        // Split-valence basis: H2/6-31G ~ -1.1268 Ha; H2O/6-31G ~ -75.98 Ha.
        let mol = systems::h2();
        let basis = Basis::b631g(&mol);
        let res = rhf(&mol, &basis, &ScfOptions::default());
        assert!(res.converged);
        assert!(
            approx_eq(res.energy, -1.1268, 2e-3),
            "H2/6-31G E = {}",
            res.energy
        );
        // 6-31G lies below STO-3G (variational improvement).
        let sto = rhf(&mol, &Basis::sto3g(&mol), &ScfOptions::default());
        assert!(res.energy < sto.energy);

        let water = systems::water();
        let b = Basis::b631g(&water);
        assert_eq!(b.nao(), 13);
        let wres = rhf(&water, &b, &ScfOptions::default());
        assert!(wres.converged);
        assert!(
            wres.energy < -75.90 && wres.energy > -76.05,
            "H2O/6-31G E = {}",
            wres.energy
        );
    }

    #[test]
    fn incremental_fock_matches_full_rebuild() {
        // Difference-density Fock builds must land on the same converged
        // energy as full rebuilds, for both a small and a heavier system.
        for mol in [systems::h2(), systems::water()] {
            let basis = Basis::sto3g(&mol);
            let full = rhf(&mol, &basis, &ScfOptions::default());
            let inc = rhf(
                &mol,
                &basis,
                &ScfOptions {
                    incremental_fock: true,
                    ..ScfOptions::default()
                },
            );
            assert!(full.converged && inc.converged, "{}", mol.formula());
            assert!(
                approx_eq(full.energy, inc.energy, 1e-7),
                "{}: {} vs {}",
                mol.formula(),
                full.energy,
                inc.energy
            );
        }
    }

    #[test]
    fn frontier_orbitals_and_gap() {
        // H2/STO-3G: two orbitals, σ occupied below zero, σ* virtual
        // above, so the gap is positive and equals ε₁ − ε₀.
        let (_, res) = run_rhf(&systems::h2());
        let homo = res.homo().unwrap();
        let lumo = res.lumo().unwrap();
        assert!(approx_eq(homo, -0.578, 5e-3));
        assert!(lumo > 0.0);
        assert!(approx_eq(res.homo_lumo_gap().unwrap(), lumo - homo, 1e-15));
        // Helium/STO-3G has a single AO: no virtual orbital, no gap.
        let (_, he) = run_rhf(&systems::helium());
        assert!(he.homo().is_some());
        assert!(he.lumo().is_none());
        assert!(he.homo_lumo_gap().is_none());
    }

    #[test]
    fn virial_ratio_near_two() {
        // |V/T| ≈ 2 at convergence (loose: finite basis, non-equilibrium).
        let mol = systems::water();
        let basis = Basis::sto3g(&mol);
        let res = rhf(&mol, &basis, &ScfOptions::default());
        let t = kinetic_matrix(&basis);
        let e_kin = res.density.trace_product(&t);
        let e_pot = res.energy - e_kin;
        let ratio = -e_pot / e_kin;
        assert!((ratio - 2.0).abs() < 0.1, "virial ratio {ratio}");
    }

    #[test]
    fn energy_breakdown_sums_to_total() {
        let (_, res) = run_rhf(&systems::water());
        let b = res.breakdown;
        let total = b.e_nuc + b.e_core + b.e_coulomb + b.e_exchange + b.e_xc;
        assert!(approx_eq(total, res.energy, 1e-8));
        assert!(b.e_exchange < 0.0);
        assert!(b.e_coulomb > 0.0);
    }

    #[test]
    fn density_is_idempotent() {
        // DSD = 2D for a converged closed-shell density.
        let mol = systems::h2();
        let basis = Basis::sto3g(&mol);
        let res = rhf(&mol, &basis, &ScfOptions::default());
        let s = overlap_matrix(&basis);
        let dsd = res.density.matmul(&s).matmul(&res.density);
        let err = dsd.sub(&res.density.scale(2.0)).fro_norm();
        assert!(err < 1e-6, "idempotency error {err}");
    }

    #[test]
    fn hf_functional_energy_reproduces_rhf() {
        let mol = systems::h2();
        let basis = Basis::sto3g(&mol);
        let scf = converged_session(&mol, &basis);
        let e = scf.functional_energies(&[Functional::Hf])[0];
        assert!(approx_eq(e, scf.energy(), 1e-8));
    }

    #[test]
    fn pbe0_lowers_h2_energy_vs_rhf() {
        // Correlation is attractive: E(PBE0) < E(RHF) for H2, by a few
        // tens of mHa.
        let mol = systems::h2();
        let basis = Basis::sto3g(&mol);
        let scf = converged_session(&mol, &basis);
        let diff = scf.functional_energies(&[Functional::Pbe0])[0] - scf.energy();
        assert!(diff < -0.005 && diff > -0.3, "E(PBE0)−E(RHF) = {diff}");
    }

    #[test]
    fn functional_energies_are_bit_equal_to_the_one_shot_oracle() {
        // The replay at `schwarz_tol` has the one-shot build's bits, `H` is
        // the context's, and the grid, AO evaluator and sums are the
        // oracle's, once for all four functionals.
        let (h2, lih, water, li2o) = (systems::h2(), systems::lih(), systems::water(), li2o());
        let opts = ScfOptions::default();
        for (mol, basis) in [
            (&h2, Basis::sto3g(&h2)),
            (&lih, Basis::sto3g(&lih)),
            (&water, Basis::sto3g(&water)),
            (&water, Basis::b631g(&water)),
            (&li2o, Basis::sto3g(&li2o)),
        ] {
            let scf = converged_session(mol, &basis);
            let energies = scf.functional_energies(&FUNCTIONALS);
            let res = scf.into_result();
            for (&f, e) in FUNCTIONALS.iter().zip(energies) {
                let want = functional_energy_oracle(mol, &basis, &res, f, &opts);
                assert_eq!(
                    e.to_bits(),
                    want.to_bits(),
                    "{} {}: {e:e} vs {want:e}",
                    mol.formula(),
                    f.name()
                );
            }
        }
    }

    #[test]
    fn rks_lda_converges_h2() {
        let mol = systems::h2();
        let basis = Basis::sto3g(&mol);
        let opts = ScfOptions {
            energy_tol: 1e-8,
            ..ScfOptions::default()
        };
        let res = rks_lda(&mol, &basis, &opts);
        assert!(res.converged, "LDA SCF did not converge");
        // LDA H2 sits above the HF value in a minimal basis but in the
        // same ballpark.
        assert!(res.energy < -0.9 && res.energy > -1.3, "E = {}", res.energy);
        assert!(res.breakdown.e_xc < 0.0);
    }

    #[test]
    fn rks_lda_sto3g_energies_and_iterations_are_pinned() {
        // Within 1e-12 Ha rather than bitwise: a rounding-level change of
        // the AO evaluator or of the quadrature sums keeps these pins. The
        // pruned XC grid moved them by +3.8e-6, −5.4e-6 and −7.0e-6 Ha
        // from the unpruned 40 × 8 grid's values, less than that grid's
        // own distance from the dense 80 × 16 one on LiH and water.
        for (mol, energy, iterations) in [
            (systems::h2(), -1.121_019_014_007_668_8, 2),
            (systems::lih(), -7.791_336_890_529_201, 7),
            (systems::water(), -74.728_879_224_833_92, 9),
        ] {
            let res = rks_lda(&mol, &Basis::sto3g(&mol), &ScfOptions::default());
            assert!(res.converged, "{}", mol.formula());
            assert!(
                (res.energy - energy).abs() <= 1e-12,
                "{}: E = {:.17e}",
                mol.formula(),
                res.energy
            );
            assert_eq!(res.iterations, iterations, "{}", mol.formula());
        }
    }

    /// Linear Li₂O at r(Li–O) = 1.62 Å, the benchmark's `scf-direct`
    /// molecule.
    fn li2o() -> Molecule {
        let mut li2o = Molecule::new();
        for (element, x) in [(Element::O, 0.0), (Element::Li, 1.62), (Element::Li, -1.62)] {
            li2o.push(element, Vec3::new(x, 0.0, 0.0) * liair_basis::ANGSTROM);
        }
        li2o
    }

    #[test]
    fn rhf_energies_and_iterations_are_pinned() {
        // Li₂O/STO-3G's 2s/2p shells share exponents; water/6-31G has two
        // sp pairs on O and split s shells on H.
        let li2o = li2o();
        let water = systems::water();
        for (mol, basis, energy, iterations) in [
            (&li2o, Basis::sto3g(&li2o), -88.571_614_784_988, 13),
            (&water, Basis::b631g(&water), -75.983_997_467_418_7, 11),
        ] {
            let res = rhf(mol, &basis, &ScfOptions::default());
            assert!(res.converged, "{}", mol.formula());
            assert!(
                (res.energy - energy).abs() <= 1e-9,
                "{}: E = {:.15e}",
                mol.formula(),
                res.energy
            );
            assert_eq!(res.iterations, iterations, "{}", mol.formula());
        }
    }

    #[test]
    fn rhf_energy_bits_do_not_depend_on_thread_count() {
        // Li₂O₂ too slow for an unoptimized test build four times over;
        // its J/K bits are pinned across thread counts in `fock`'s tests.
        // Each SCF fills its quartet store under the pool it runs in and
        // replays it in every iteration and once more for the post-SCF
        // energies, which are compared too.
        let (li2o, water) = (li2o(), systems::water());
        for (mol, basis) in [
            (&li2o, Basis::sto3g(&li2o)),
            (&water, Basis::sto3g(&water)),
            (&water, Basis::b631g(&water)),
        ] {
            let mol = mol.clone();
            let on = |threads: usize| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap()
                    .install(|| {
                        let scf = converged_session(&mol, &basis);
                        let mut energies = vec![scf.energy()];
                        energies.extend(scf.functional_energies(&FUNCTIONALS));
                        (energies, scf.iterations())
                    })
            };
            let bits = |energies: &[f64]| energies.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            let one = on(1);
            for threads in 2..=4 {
                let res = on(threads);
                assert_eq!(
                    (bits(&res.0), res.1),
                    (bits(&one.0), one.1),
                    "{} at {threads} threads: {:?} vs {:?}",
                    mol.formula(),
                    res.0,
                    one.0
                );
            }
        }
    }

    #[test]
    fn converges_quickly_with_diis() {
        let (_, res) = run_rhf(&systems::water());
        assert!(res.iterations < 30, "took {} iterations", res.iterations);
    }

    #[test]
    fn xc_grid_points_per_atom_are_pinned() {
        // A lone atom keeps every product point (its Becke weight is 1):
        // the grid's size per element. The unpruned 40 × 8 grid gave each
        // 4,608 (36 of its 40 shells lie inside 40 Bohr).
        for (element, points) in [
            (Element::H, 2_270),
            (Element::Li, 3_574),
            (Element::C, 4_214),
            (Element::O, 4_526),
            (Element::S, 4_222),
        ] {
            let mut mol = Molecule::new();
            mol.push(element, Vec3::ZERO);
            assert_eq!(MolGrid::becke(&mol, &XC_GRID).len(), points, "{element:?}");
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "reaction complexes: release only")]
    fn xc_grid_pbe0_interaction_energies_are_as_close_to_the_dense_grid_as_the_unpruned_one() {
        // E_int(PBE0) of the four solvent·Li₂O₂ reactions (the campaign's
        // complexes, RHF densities at the reaction jobs' options) at the
        // crate's grid and at the unpruned 40 × 8, each against a dense
        // 80 × 16 reference: the pruned error is at most the unpruned one
        // or 6e-4 Ha, and EC − PC keeps the reference's sign.
        let opts = ScfOptions {
            energy_tol: 1e-7,
            max_iter: 150,
            ..ScfOptions::default()
        };
        let specs = [GridSpec::uniform(80, 16), GridSpec::uniform(40, 8), XC_GRID];
        let e_int = |solvent: Solvent| -> [f64; 3] {
            let parts = [
                systems::li2o2_complex(solvent, 3.6),
                solvent.molecule(),
                systems::li2o2(),
            ];
            let e: Vec<[f64; 3]> = parts
                .iter()
                .map(|mol| {
                    let basis = Basis::sto3g(mol);
                    let mut scf = ScfSession::new(mol, &basis, &opts, Method::Rhf);
                    while scf.step() {}
                    assert!(scf.converged(), "{}", mol.formula());
                    specs.map(|spec| scf.functional_energies_on(&spec, &[Functional::Pbe0])[0])
                })
                .collect();
            std::array::from_fn(|k| e[0][k] - e[1][k] - e[2][k])
        };
        let mut by_solvent = Vec::new();
        for solvent in [
            Solvent::PropyleneCarbonate,
            Solvent::EthyleneCarbonate,
            Solvent::Dmso,
            Solvent::Dme,
        ] {
            let [reference, old, new] = e_int(solvent);
            let (err_old, err_new) = ((old - reference).abs(), (new - reference).abs());
            eprintln!(
                "{solvent:?}: E_int {reference:.6e} Ha, |ΔE_int| {err_old:.2e} → {err_new:.2e} Ha"
            );
            assert!(err_new <= err_old.max(6e-4), "{solvent:?}: {err_new:e} Ha");
            by_solvent.push([reference, new]);
        }
        let (pc, ec) = (by_solvent[0], by_solvent[1]);
        assert_eq!(
            (ec[1] - pc[1]).signum(),
            (ec[0] - pc[0]).signum(),
            "EC − PC: {:e} against the reference's {:e} Ha",
            ec[1] - pc[1],
            ec[0] - pc[0]
        );
    }
}
