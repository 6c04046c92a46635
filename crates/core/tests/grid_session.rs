//! The grid-exchange SCF: an `ScfSession` whose K comes from the
//! pair-Poisson operator through an `IncrementalExchange`, checked against
//! analytic RHF, against itself with and without task reuse, and across
//! checkpoint/resume at every iteration.

use liair_basis::{systems, Basis, Cell, Molecule};
use liair_core::{BasisOnGrid, BuildProfile, IncrementalExchange};
use liair_grid::{PoissonSolver, RealGrid};
use liair_math::{approx_eq, Mat};
use liair_scf::{rhf, ScfOptions, ScfResult, ScfSession};

/// H₂ centered in a cubic box of `edge` Bohr with an `n³` grid and an
/// isolated Poisson solver.
fn h2_in_box(edge: f64, n: usize) -> (Molecule, RealGrid, PoissonSolver) {
    let mut mol = systems::h2();
    mol.translate(liair_math::Vec3::splat(edge / 2.0) - mol.centroid());
    let grid = RealGrid::cubic(Cell::cubic(edge), n);
    (mol, grid, PoissonSolver::isolated(grid))
}

/// The session's exchange term: the grid `Σ_j (μj|jν)` at screening `eps`,
/// doubled into the analytic `K(D)` convention, with every build's profile
/// merged into `profile`. The basis is evaluated on the grid once, here.
fn grid_k<'a>(
    basis: &'a Basis,
    nocc: usize,
    grid: &'a RealGrid,
    solver: &'a PoissonSolver,
    eps: f64,
    inc: &'a mut IncrementalExchange,
    profile: &'a mut BuildProfile,
) -> impl FnMut(&Mat) -> Mat + 'a {
    let on_grid = BasisOnGrid::new(basis, grid);
    move |c_occ: &Mat| {
        let out = inc.exchange_operator(&on_grid, c_occ, nocc, solver, eps);
        profile.merge(&out.profile);
        out.k.scale(2.0)
    }
}

/// A grid-exchange SCF run to completion from the core guess.
fn grid_scf(
    edge: f64,
    n: usize,
    eps: f64,
    inc: &mut IncrementalExchange,
    profile: &mut BuildProfile,
) -> ScfResult {
    let (mol, grid, solver) = h2_in_box(edge, n);
    let basis = Basis::sto3g(&mol);
    let mut k = grid_k(&basis, mol.nocc(), &grid, &solver, eps, inc, profile);
    ScfSession::with_exchange(&mol, &basis, &ScfOptions::default(), &mut k, None)
        .run_to_completion()
}

fn same_bits(a: &ScfResult, b: &ScfResult) -> bool {
    a.energy.to_bits() == b.energy.to_bits()
        && a.iterations == b.iterations
        && a.density
            .as_slice()
            .iter()
            .zip(b.density.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn grid_exchange_scf_reproduces_analytic_rhf() {
    // SCF where exchange comes from the grid path must land on the
    // analytic RHF energy to grid accuracy.
    let mol = systems::h2();
    let basis = Basis::sto3g(&mol);
    let reference = rhf(&mol, &basis, &ScfOptions::default());
    let mut profile = BuildProfile::default();
    // Padding 7 Bohr around the 1.4-Bohr bond, as the analytic checks use.
    let edge = 1.4 + 2.0 * 7.0;
    let grid_scf = grid_scf(
        edge,
        64,
        0.0,
        &mut IncrementalExchange::new(0.0, 0),
        &mut profile,
    );
    assert!(grid_scf.converged, "grid-exchange SCF did not converge");
    assert!(
        approx_eq(grid_scf.energy, reference.energy, 2e-3),
        "grid SCF {} vs analytic {}",
        grid_scf.energy,
        reference.energy
    );
    assert!(
        profile.is_populated(),
        "SCF must accumulate build profiles: {profile:?}"
    );
    assert_eq!(
        profile.pairs_computed + profile.pairs_screened,
        grid_scf.iterations * mol.nocc() * basis.nao()
    );
}

#[test]
fn incremental_scf_matches_scheduled_and_reuses_tasks() {
    // Same molecule, same screening: the incremental SCF must land on the
    // from-scratch SCF's energy (the reuse tolerance only perturbs
    // mid-convergence iterations) while skipping Poisson solves.
    let edge = 1.4 + 2.0 * 6.0;
    let mut plain_profile = BuildProfile::default();
    let plain = grid_scf(
        edge,
        48,
        1e-4,
        &mut IncrementalExchange::new(0.0, 0),
        &mut plain_profile,
    );
    let mut inc = IncrementalExchange::new(1e-3, 0);
    let mut profile = BuildProfile::default();
    let incr = grid_scf(edge, 48, 1e-4, &mut inc, &mut profile);
    assert!(plain.converged && incr.converged);
    assert!(
        approx_eq(plain.energy, incr.energy, 2e-3),
        "{} vs {}",
        plain.energy,
        incr.energy
    );
    assert!(profile.pairs_reused > 0, "no tasks reused: {profile:?}");
    assert_eq!(profile.pairs_reused, inc.totals.pairs_reused);
    assert_eq!(profile.pairs_computed, inc.totals.pairs_recomputed);
}

#[test]
fn grid_session_resumes_after_every_iteration() {
    // The checkpoint carries the loop state, not the incremental cache.
    // With reuse off (eps_inc = 0) a fresh cache resumes bit-identically;
    // with reuse on, handing the same cache back does too, and a cold
    // cache lands within the 2e-3 Ha the incremental-vs-scratch test
    // grants.
    let eps = 1e-4;
    for (edge, n) in [(10.0, 16), (12.0, 24)] {
        let (mol, grid, solver) = h2_in_box(edge, n);
        let basis = Basis::sto3g(&mol);
        let nocc = mol.nocc();
        let opts = ScfOptions::default();
        for eps_inc in [0.0, 1e-3] {
            let mut sink = BuildProfile::default();
            let reference = {
                let mut inc = IncrementalExchange::new(eps_inc, 0);
                let mut k = grid_k(&basis, nocc, &grid, &solver, eps, &mut inc, &mut sink);
                ScfSession::with_exchange(&mol, &basis, &opts, &mut k, None).run_to_completion()
            };
            assert!(reference.converged, "{n}³, eps_inc {eps_inc}");
            for cut in 1..reference.iterations {
                let mut inc = IncrementalExchange::new(eps_inc, 0);
                let ck = {
                    let mut k = grid_k(&basis, nocc, &grid, &solver, eps, &mut inc, &mut sink);
                    let mut live = ScfSession::with_exchange(&mol, &basis, &opts, &mut k, None);
                    for _ in 0..cut {
                        live.step();
                    }
                    live.checkpoint()
                };
                // eps_inc = 0 reuses nothing, so a fresh cache is the
                // same cache; otherwise hand back the one that ran.
                let mut fresh = IncrementalExchange::new(eps_inc, 0);
                let handed_back = if eps_inc == 0.0 { &mut fresh } else { &mut inc };
                let resumed = {
                    let mut k = grid_k(&basis, nocc, &grid, &solver, eps, handed_back, &mut sink);
                    ScfSession::resume_with_exchange(&mol, &basis, &ck, &mut k)
                        .expect("own checkpoint resumes")
                        .run_to_completion()
                };
                assert!(
                    same_bits(&resumed, &reference),
                    "{n}³, eps_inc {eps_inc}, cut {cut}: {} in {} vs {} in {}",
                    resumed.energy,
                    resumed.iterations,
                    reference.energy,
                    reference.iterations
                );
                if eps_inc > 0.0 {
                    let mut cold = IncrementalExchange::new(eps_inc, 0);
                    let mut k = grid_k(&basis, nocc, &grid, &solver, eps, &mut cold, &mut sink);
                    let resumed = ScfSession::resume_with_exchange(&mol, &basis, &ck, &mut k)
                        .expect("own checkpoint resumes")
                        .run_to_completion();
                    assert!(resumed.converged);
                    assert!(
                        approx_eq(resumed.energy, reference.energy, 2e-3),
                        "{n}³ cold cache, cut {cut}: {} vs {}",
                        resumed.energy,
                        reference.energy
                    );
                }
            }
        }
    }
}
