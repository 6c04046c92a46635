//! The grid exact-exchange *operator* — the full coupling of the paper's
//! pair-Poisson exchange into the self-consistent field.
//!
//! The energy-only path (`crate::hfx`) evaluates `Σ w_ij (ij|ij)`; an SCF
//! additionally needs the AO-basis exchange matrix
//!
//! `K_{μν} = Σ_{j occ} (μ j | j ν)
//!         = Σ_j ∬ χ_μ(r) φ_j(r) v_C(r,r') φ_j(r') χ_ν(r')`,
//!
//! built as one Poisson solve per `(occupied j, AO ν)` pair density — the
//! same work unit the parallel scheme distributes (in CPMD terms: the
//! exchange potentials `v_jν` acting back on the orbitals). The build
//! itself is [`crate::ExchangeEngine::k_operator`]; this module holds the
//! [`rhf_with_grid_exchange_in_cell`] driver, which converges an SCF in
//! which *all* exact exchange comes from the grid path, validating the
//! full pipeline against the purely analytic RHF. Its one tunable is the
//! screening threshold ε; every K build goes through the caller's
//! [`IncrementalExchange`], and the iteration cap and energy tolerance are
//! constants.

use crate::engine::BuildProfile;
use crate::incremental::IncrementalExchange;
use liair_basis::{Basis, Molecule};
use liair_grid::{PoissonSolver, RealGrid};
use liair_integrals::{kinetic_matrix, nuclear_matrix, overlap_matrix, JkBuilder};
use liair_math::linalg::sym_inv_sqrt;
use liair_math::Mat;
use liair_scf::session::{assemble_density, orbitals_from_fock};

/// Result of the grid-exchange SCF.
#[derive(Debug, Clone)]
pub struct GridScfResult {
    /// Total energy (Hartree).
    pub energy: f64,
    /// Iterations used.
    pub iterations: usize,
    /// Converged flag.
    pub converged: bool,
    /// Final occupied coefficients (box-centered basis).
    pub c_occ: Mat,
    /// Per-phase build instrumentation accumulated over every K build of
    /// the SCF (times and counters sum across iterations): `(j, ν)` tasks
    /// solved, reused from the incremental cache, and dropped by the ε
    /// screen.
    pub profile: BuildProfile,
}

/// Iteration cap of [`rhf_with_grid_exchange_in_cell`].
const MAX_ITER: usize = 40;
/// Energy change (Hartree) below which [`rhf_with_grid_exchange_in_cell`]
/// stops.
const ENERGY_TOL: f64 = 1e-8;

/// Restricted Hartree–Fock in which the exchange matrix is built on the
/// grid every iteration (Coulomb and one-electron parts stay analytic —
/// exactly the split of the paper's plane-wave code, where the Hartree
/// term rides the density FFT and exchange is the expensive pair loop).
/// Suitable for small valence-only-friendly systems (H-based molecules);
/// heavier atoms need core filtering as in
/// [`crate::hfx::grid_exchange_for_molecule`].
///
/// The loop runs in a caller-fixed frame: `mol_c` must already sit inside
/// the cell `grid` discretizes. A fixed box keeps orbital fields
/// comparable across MD steps, which is what lets the
/// [`IncrementalExchange`] passed in `inc` carry its cache from one step to
/// the next — each K build recomputes only the orbitals that moved since
/// their cached contribution, within the tolerance `inc` was built with.
/// `eps` screens every iteration's `(j, ν)` tasks. An `inc` built with
/// `eps_inc = 0` reuses nothing: every K build is the from-scratch one, bit
/// for bit. The loop stops once the energy moves less than 1e-8 Ha, or
/// after 40 iterations.
pub fn rhf_with_grid_exchange_in_cell(
    mol_c: &Molecule,
    grid: &RealGrid,
    solver: &PoissonSolver,
    eps: f64,
    inc: &mut IncrementalExchange,
    guess: Option<&Mat>,
) -> GridScfResult {
    let basis = Basis::sto3g(mol_c);
    let nocc = mol_c.nocc();
    let nao = basis.nao();

    let s = overlap_matrix(&basis);
    let h = kinetic_matrix(&basis).add(&nuclear_matrix(&basis, mol_c));
    let x = sym_inv_sqrt(&s);
    let e_nuc = mol_c.nuclear_repulsion();
    let jk = JkBuilder::new(&basis);
    // The `nocc` lowest orbitals of a Fock matrix.
    let occupied = |f: &Mat| {
        let (_, c) = orbitals_from_fock(f, &x);
        Mat::from_fn(nao, nocc, |mu, k| c[(mu, k)])
    };

    // Core guess, unless the caller warm-starts from a previous step's
    // converged orbitals (an MD loop: iteration 1 then starts next to the
    // cached fingerprints instead of at the delocalized core guess).
    let mut c_occ = match guess {
        Some(c) => c.clone(),
        None => occupied(&h),
    };
    let mut energy = 0.0;
    let mut converged = false;
    let mut iterations = 0;
    let mut profile = BuildProfile::default();
    for it in 1..=MAX_ITER {
        iterations = it;
        let density = assemble_density(&c_occ, nocc);
        let (j, _unused_k) = jk.build(&density, 1e-11);
        // K here is Σ_j (μj|jν) = K(D)/2, so the RHF Fock term −½K(D)
        // becomes −K and the exchange energy −¼Tr(D·K(D)) becomes
        // −½Tr(D·K).
        let out = inc.exchange_operator(&basis, &c_occ, nocc, grid, solver, eps);
        profile.merge(&out.profile);
        let mut f = h.clone();
        f.axpy(1.0, &j);
        f.axpy(-1.0, &out.k);
        let e_elec = density.trace_product(&h) + 0.5 * density.trace_product(&j)
            - 0.5 * density.trace_product(&out.k);
        let new_energy = e_elec + e_nuc;
        let de = (new_energy - energy).abs();
        energy = new_energy;
        c_occ = occupied(&f);
        if it > 1 && de < ENERGY_TOL {
            converged = true;
            break;
        }
    }
    GridScfResult {
        energy,
        iterations,
        converged,
        c_occ,
        profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExchangeEngine;
    use liair_basis::{systems, Cell};
    use liair_math::approx_eq;
    use liair_scf::{rhf, ScfOptions};

    /// The grid-exchange SCF on `mol` centered in a cubic box sized to its
    /// extent plus `padding` on each side, with an `n³` grid and an
    /// isolated Poisson solver.
    fn scf_in_box(
        mol: &Molecule,
        n: usize,
        padding: f64,
        eps: f64,
        inc: &mut IncrementalExchange,
    ) -> GridScfResult {
        let (lo, hi) = mol.bounding_box();
        let extent = (hi - lo).x.max((hi - lo).y).max((hi - lo).z);
        let edge = extent + 2.0 * padding;
        let shift = liair_math::Vec3::splat(edge / 2.0) - (lo + hi) * 0.5;
        let mut mol_c = mol.clone();
        mol_c.translate(shift);
        let grid = RealGrid::cubic(Cell::cubic(edge), n);
        let solver = PoissonSolver::isolated(grid);
        rhf_with_grid_exchange_in_cell(&mol_c, &grid, &solver, eps, inc, None)
    }

    #[test]
    fn grid_k_matches_analytic_k() {
        // Build K on the grid for the converged H2 density and compare to
        // the analytic K(D)/2 (K(D) contracts the doubled density).
        let mol = systems::h2();
        let basis0 = Basis::sto3g(&mol);
        let scf = rhf(&mol, &basis0, &ScfOptions::default());
        // Center everything in a box.
        let edge = 16.0;
        let shift = liair_math::Vec3::splat(edge / 2.0) - mol.centroid();
        let mut mol_c = mol.clone();
        mol_c.translate(shift);
        let basis = Basis::sto3g(&mol_c);
        let grid = RealGrid::cubic(Cell::cubic(edge), 64);
        let solver = PoissonSolver::isolated(grid);
        let k_grid = ExchangeEngine::new(&grid, &solver)
            .k_operator(&basis, &scf.c, scf.nocc, 0.0)
            .k;
        // Analytic: K(D) with D = 2CCᵀ equals 2 × Σ_j (μj|jν).
        let (_, k_an) = liair_integrals::build_jk(&basis, &scf.density, 0.0);
        let err = k_grid.scale(2.0).sub(&k_an).fro_norm() / k_an.fro_norm();
        assert!(err < 5e-3, "relative K error {err}");
    }

    #[test]
    fn grid_exchange_scf_reproduces_analytic_rhf() {
        // The full loop: SCF where exchange comes from the grid path must
        // land on the analytic RHF energy to grid accuracy.
        let mol = systems::h2();
        let basis = Basis::sto3g(&mol);
        let reference = rhf(&mol, &basis, &ScfOptions::default());
        let grid_scf = scf_in_box(&mol, 64, 7.0, 0.0, &mut IncrementalExchange::new(0.0, 0));
        assert!(grid_scf.converged, "grid-exchange SCF did not converge");
        assert!(
            approx_eq(grid_scf.energy, reference.energy, 2e-3),
            "grid SCF {} vs analytic {}",
            grid_scf.energy,
            reference.energy
        );
        assert!(
            grid_scf.profile.is_populated(),
            "SCF must accumulate build profiles: {:?}",
            grid_scf.profile
        );
        let p = &grid_scf.profile;
        let nao = Basis::sto3g(&mol).nao();
        assert_eq!(
            p.pairs_computed + p.pairs_screened,
            grid_scf.iterations * mol.nocc() * nao
        );
    }

    #[test]
    fn incremental_scf_matches_scheduled_and_reuses_tasks() {
        // Same molecule, same screening: the incremental SCF must land on
        // the from-scratch SCF's energy (reuse tolerance only perturbs
        // mid-convergence iterations) while skipping Poisson solves.
        let mol = systems::h2();
        let plain = scf_in_box(&mol, 48, 6.0, 1e-4, &mut IncrementalExchange::new(0.0, 0));
        let mut inc = IncrementalExchange::new(1e-3, 0);
        let incr = scf_in_box(&mol, 48, 6.0, 1e-4, &mut inc);
        assert!(plain.converged && incr.converged);
        assert!(
            approx_eq(plain.energy, incr.energy, 2e-3),
            "{} vs {}",
            plain.energy,
            incr.energy
        );
        assert!(incr.profile.pairs_reused > 0, "no tasks reused: {incr:?}");
        assert_eq!(incr.profile.pairs_reused, inc.totals.pairs_reused);
        assert_eq!(incr.profile.pairs_computed, inc.totals.pairs_recomputed);
    }

    #[test]
    fn grid_k_is_symmetric_and_psd_on_diagonal() {
        let mol = systems::h2();
        let basis0 = Basis::sto3g(&mol);
        let scf = rhf(&mol, &basis0, &ScfOptions::default());
        let edge = 14.0;
        let shift = liair_math::Vec3::splat(edge / 2.0) - mol.centroid();
        let mut mol_c = mol.clone();
        mol_c.translate(shift);
        let basis = Basis::sto3g(&mol_c);
        let grid = RealGrid::cubic(Cell::cubic(edge), 48);
        let solver = PoissonSolver::isolated(grid);
        let k = ExchangeEngine::new(&grid, &solver)
            .k_operator(&basis, &scf.c, scf.nocc, 0.0)
            .k;
        assert!(k.asymmetry() < 1e-12); // symmetrized by construction
        for i in 0..basis.nao() {
            assert!(k[(i, i)] > 0.0, "K[{i},{i}] = {}", k[(i, i)]);
        }
    }
}
