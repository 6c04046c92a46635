//! RHF / RKS(LDA) SCF drivers and post-SCF functional energies.

use liair_basis::{Basis, Molecule};
use liair_grid::orbital::{ao_values_and_gradients_at_points, density_from_aos};
use liair_grid::MolGrid;
use liair_integrals::{build_jk, kinetic_matrix, nuclear_matrix};
use liair_math::Mat;
use liair_xc::functional::Functional;
use liair_xc::lda::lda_exc;

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
/// Radial points of the Becke XC grid (RKS and post-SCF functionals).
pub(crate) const XC_GRID_RADIAL: usize = 40;
/// θ points of the Becke XC grid's angular product grid (φ uses 2×this).
pub(crate) const XC_GRID_THETA: usize = 8;
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
    /// iterations. Exact up to `schwarz_tol`.
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

/// Post-SCF total energy of `functional` on a converged density:
/// `E = E_nn + Tr(DH) + ½Tr(DJ) + c_x·(−¼Tr(DK)) + E_xc^{DFT}[n]`,
/// with the DFT part integrated on a Becke grid. For `Functional::Hf`
/// this reproduces the RHF energy expression exactly.
pub fn functional_energy(
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
        let grid = MolGrid::becke(mol, XC_GRID_RADIAL, XC_GRID_THETA);
        let (vals, grads) = ao_values_and_gradients_at_points(basis, &grid.points);
        let (nvals, grads) = density_from_aos(&vals, Some(&grads), &res.density);
        match functional {
            Functional::Lda => nvals
                .iter()
                .zip(&grid.weights)
                .map(|(&d, &w)| w * d * lda_exc(d))
                .sum(),
            Functional::Pbe => nvals
                .iter()
                .zip(&grads)
                .zip(&grid.weights)
                .map(|((&d, &g), &w)| w * d * liair_xc::pbe::pbe_exc(d, g))
                .sum(),
            Functional::Pbe0 => nvals
                .iter()
                .zip(&grads)
                .zip(&grid.weights)
                .map(|((&d, &g), &w)| {
                    w * d * (0.75 * liair_xc::pbe::pbe_ex(d, g) + liair_xc::pbe::pbe_ec(d, g))
                })
                .sum(),
            Functional::Hf => unreachable!(),
        }
    };
    mol.nuclear_repulsion() + e_core + e_coul + functional.hfx_fraction() * e_hfx + e_dft
}

#[cfg(test)]
mod tests {
    use super::*;
    use liair_basis::{systems, Element};
    use liair_integrals::overlap_matrix;
    use liair_math::{approx_eq, Vec3};

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
        let opts = ScfOptions::default();
        let res = rhf(&mol, &basis, &opts);
        let e = functional_energy(&mol, &basis, &res, Functional::Hf, &opts);
        assert!(approx_eq(e, res.energy, 1e-8));
    }

    #[test]
    fn pbe0_lowers_h2_energy_vs_rhf() {
        // Correlation is attractive: E(PBE0) < E(RHF) for H2, by a few
        // tens of mHa.
        let mol = systems::h2();
        let basis = Basis::sto3g(&mol);
        let opts = ScfOptions::default();
        let res = rhf(&mol, &basis, &opts);
        let e0 = functional_energy(&mol, &basis, &res, Functional::Pbe0, &opts);
        let diff = e0 - res.energy;
        assert!(diff < -0.005 && diff > -0.3, "E(PBE0)−E(RHF) = {diff}");
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
        // Within 1e-12 Ha rather than bitwise: the two AO evaluators at
        // points (values; values and gradients) agree only to rounding.
        for (mol, energy, iterations) in [
            (systems::h2(), -1.121_022_781_142_925_4, 2),
            (systems::lih(), -7.791_331_539_627_74, 7),
            (systems::water(), -74.728_872_261_139_22, 9),
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

    #[test]
    fn rhf_energies_and_iterations_are_pinned() {
        // Linear Li₂O/STO-3G at r(Li–O) = 1.62 Å is the benchmark's
        // `scf-direct` molecule (its 2s/2p shells share exponents); water
        // /6-31G has two sp pairs on O and split s shells on H.
        let mut li2o = Molecule::new();
        for (element, x) in [(Element::O, 0.0), (Element::Li, 1.62), (Element::Li, -1.62)] {
            li2o.push(element, Vec3::new(x, 0.0, 0.0) * liair_basis::ANGSTROM);
        }
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
        let water = systems::water();
        for (mol, basis) in [
            (&water, Basis::sto3g(&water)),
            (&water, Basis::b631g(&water)),
        ] {
            let mol = mol.clone();
            let on = |threads: usize| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap()
                    .install(|| rhf(&mol, &basis, &ScfOptions::default()))
            };
            let one = on(1);
            assert!(one.converged, "{}", mol.formula());
            for threads in 2..=4 {
                let res = on(threads);
                assert_eq!(
                    (res.energy.to_bits(), res.iterations),
                    (one.energy.to_bits(), one.iterations),
                    "{} at {threads} threads: {:e} vs {:e}",
                    mol.formula(),
                    res.energy,
                    one.energy
                );
            }
        }
    }

    #[test]
    fn converges_quickly_with_diis() {
        let (_, res) = run_rhf(&systems::water());
        assert!(res.iterations < 30, "took {} iterations", res.iterations);
    }
}
