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
//! itself is [`ExchangeEngine::k_operator`]; this module holds the
//! [`rhf_with_grid_exchange_in_cell`] driver, which converges an SCF in
//! which *all* exact exchange comes from the grid path, validating the
//! full pipeline against the purely analytic RHF.

use crate::engine::{BuildProfile, ExchangeEngine};
use liair_basis::{Basis, Molecule};
use liair_grid::{PoissonSolver, RealGrid};
use liair_integrals::{kinetic_matrix, nuclear_matrix, overlap_matrix, JkBuilder};
use liair_math::linalg::{eigh, sym_inv_sqrt};
use liair_math::Mat;

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
    /// schedule.
    pub profile: BuildProfile,
}

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
/// comparable across MD steps, which is what lets an
/// [`crate::incremental::IncrementalExchange`] passed in `inc` carry its
/// cache from one step to the next — each K build recomputes only the
/// orbitals that moved since their cached contribution (tolerance from the
/// [`crate::screening::IncSchedule`]). `schedule` is the ε schedule: early
/// iterations may screen aggressively (fewer exchange tasks), tightening
/// toward convergence.
#[allow(clippy::too_many_arguments)]
pub fn rhf_with_grid_exchange_in_cell(
    mol_c: &Molecule,
    grid: &RealGrid,
    solver: &PoissonSolver,
    max_iter: usize,
    tol: f64,
    schedule: crate::screening::EpsSchedule,
    mut inc: Option<(
        &mut crate::incremental::IncrementalExchange,
        crate::screening::IncSchedule,
    )>,
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
    let engine = ExchangeEngine::new(grid, solver);

    // Core guess, unless the caller warm-starts from a previous step's
    // converged orbitals (an MD loop: iteration 1 then starts next to the
    // cached fingerprints instead of at the delocalized core guess).
    let mut c_occ = match guess {
        Some(c) => c.clone(),
        None => occupied_from(&h, &x, nao, nocc),
    };
    let mut energy = 0.0;
    let mut converged = false;
    let mut iterations = 0;
    let mut profile = BuildProfile::default();
    for it in 1..=max_iter {
        iterations = it;
        let density = density_of(&c_occ, nocc);
        let (j, _unused_k) = jk.build(&density, 1e-11);
        // K here is Σ_j (μj|jν) = K(D)/2, so the RHF Fock term −½K(D)
        // becomes −K and the exchange energy −¼Tr(D·K(D)) becomes
        // −½Tr(D·K).
        let eps = schedule.eps_for(it - 1);
        let out = match inc.as_mut() {
            Some((state, inc_schedule)) => {
                state.eps_inc = inc_schedule.eps_for(it - 1);
                state.rebuild_every = inc_schedule.rebuild_every;
                state.exchange_operator(&basis, &c_occ, nocc, grid, solver, eps)
            }
            None => engine.k_operator(&basis, &c_occ, nocc, eps),
        };
        profile.merge(&out.profile);
        let mut f = h.clone();
        f.axpy(1.0, &j);
        f.axpy(-1.0, &out.k);
        let e_elec = density.trace_product(&h) + 0.5 * density.trace_product(&j)
            - 0.5 * density.trace_product(&out.k);
        let new_energy = e_elec + e_nuc;
        let de = (new_energy - energy).abs();
        energy = new_energy;
        c_occ = occupied_from(&f, &x, nao, nocc);
        if it > 1 && de < tol {
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

fn occupied_from(f: &Mat, x: &Mat, nao: usize, nocc: usize) -> Mat {
    let fp = x.transpose().matmul(f).matmul(x);
    let (_, cp) = eigh(&fp);
    let c = x.matmul(&cp);
    let mut out = Mat::zeros(nao, nocc);
    for mu in 0..nao {
        for k in 0..nocc {
            out[(mu, k)] = c[(mu, k)];
        }
    }
    out
}

fn density_of(c_occ: &Mat, nocc: usize) -> Mat {
    let nao = c_occ.nrows();
    let mut d = Mat::zeros(nao, nao);
    for mu in 0..nao {
        for nu in 0..nao {
            let mut acc = 0.0;
            for k in 0..nocc {
                acc += c_occ[(mu, k)] * c_occ[(nu, k)];
            }
            d[(mu, nu)] = 2.0 * acc;
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::IncrementalExchange;
    use crate::screening::{EpsSchedule, IncSchedule};
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
        schedule: EpsSchedule,
        inc: Option<(&mut IncrementalExchange, IncSchedule)>,
    ) -> GridScfResult {
        let (lo, hi) = mol.bounding_box();
        let extent = (hi - lo).x.max((hi - lo).y).max((hi - lo).z);
        let edge = extent + 2.0 * padding;
        let shift = liair_math::Vec3::splat(edge / 2.0) - (lo + hi) * 0.5;
        let mut mol_c = mol.clone();
        mol_c.translate(shift);
        let grid = RealGrid::cubic(Cell::cubic(edge), n);
        let solver = PoissonSolver::isolated(grid);
        rhf_with_grid_exchange_in_cell(&mol_c, &grid, &solver, 40, 1e-8, schedule, inc, None)
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
        let grid_scf = scf_in_box(&mol, 64, 7.0, EpsSchedule::fixed(0.0), None);
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
    fn adaptive_schedule_converges_to_same_energy_with_fewer_tasks() {
        // Two well-separated H2 molecules: distant (j, ν) tasks are
        // screenable; the scheduled SCF must hit the same energy while
        // evaluating fewer exchange tasks.
        let mut mol = systems::h2();
        let mut far = systems::h2();
        far.translate(liair_math::Vec3::new(0.0, 9.0, 0.0));
        mol.merge(&far);
        let plain = scf_in_box(&mol, 48, 6.0, EpsSchedule::fixed(0.0), None);
        let tightening = EpsSchedule {
            eps_start: 1e-2,
            eps_final: 1e-5,
            tighten_over: 5,
        };
        let scheduled = scf_in_box(&mol, 48, 6.0, tightening, None);
        assert!(plain.converged && scheduled.converged);
        assert!(
            approx_eq(plain.energy, scheduled.energy, 1e-4),
            "{} vs {}",
            plain.energy,
            scheduled.energy
        );
        assert!(
            scheduled.profile.pairs_screened > 0,
            "schedule skipped nothing"
        );
        assert!(scheduled.profile.pairs_computed < plain.profile.pairs_computed);
    }

    #[test]
    fn incremental_scf_matches_scheduled_and_reuses_tasks() {
        // Same molecule, same screening: the incremental SCF must land on
        // the scheduled SCF's energy (reuse tolerance only perturbs
        // mid-convergence iterations) while skipping Poisson solves.
        let mol = systems::h2();
        let sched = EpsSchedule::fixed(1e-4);
        let plain = scf_in_box(&mol, 48, 6.0, sched, None);
        let mut inc = IncrementalExchange::new(1e-3, 0);
        let reuse = Some((&mut inc, IncSchedule::fixed(1e-3, 0)));
        let incr = scf_in_box(&mol, 48, 6.0, sched, reuse);
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
