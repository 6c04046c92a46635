//! The grid-exchange SCF: an `ScfSession` whose K comes from the
//! pair-Poisson operator through an `IncrementalExchange`, checked against
//! analytic RHF, against itself with and without task reuse, and across
//! checkpoint/resume at every iteration; and its analytic nuclear gradient
//! against central differences of its converged energy.

use liair_basis::{systems, Basis, Cell, Molecule};
use liair_core::{BasisOnGrid, BuildProfile, IncrementalExchange};
use liair_grid::{PoissonSolver, RealGrid};
use liair_math::{approx_eq, Mat, Vec3};
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
        let out = inc
            .exchange_operator(&on_grid, c_occ, nocc, solver, eps)
            .expect("the rayon backend has no messages to lose, and the occupied exchange matrix of real orbitals is positive");
        profile.merge(&out.profile);
        out.k.scale(2.0)
    }
}

/// A grid-exchange SCF of H₂ run to completion from the core guess.
fn grid_scf(
    edge: f64,
    n: usize,
    eps: f64,
    inc: &mut IncrementalExchange,
    profile: &mut BuildProfile,
) -> ScfResult {
    let (mol, grid, solver) = h2_in_box(edge, n);
    molecule_grid_scf(&mol, &grid, &solver, eps, inc, profile)
}

/// A grid-exchange SCF of `mol` (already in the grid's box frame) run to
/// completion from the core guess.
fn molecule_grid_scf(
    mol: &Molecule,
    grid: &RealGrid,
    solver: &PoissonSolver,
    eps: f64,
    inc: &mut IncrementalExchange,
    profile: &mut BuildProfile,
) -> ScfResult {
    let basis = Basis::sto3g(mol);
    let mut k = grid_k(&basis, mol.nocc(), grid, solver, eps, inc, profile);
    ScfSession::with_exchange(mol, &basis, &ScfOptions::default(), &mut k, None).run_to_completion()
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
    // One K build per iteration, each over the nocc(nocc+1)/2 pairs.
    let nocc = mol.nocc();
    assert_eq!(
        profile.pairs_computed + profile.pairs_screened,
        grid_scf.iterations * nocc * (nocc + 1) / 2
    );
}

#[test]
fn grid_scf_energies_are_pinned() {
    // ε = 0, eps_inc = 0, default options. The values were recorded from
    // the `(j, ν)` column build the ACE operator replaced: ACE is exact on
    // the occupied space, so the fixed point is the same. The LiH and water
    // values check consistency only — a uniform grid aliases their cores,
    // so they are not physics.
    let cases = [
        ("H2", systems::h2(), 12.0, 24, -1.117050557598053),
        ("H2", systems::h2(), 12.0, 32, -1.116617269872203),
        ("H2", systems::h2(), 12.0, 48, -1.116605959857193),
        ("LiH", systems::lih(), 14.0, 32, -7.9705582713373),
        ("water", systems::water(), 14.0, 32, -80.2090997112767),
    ];
    for (name, mut mol, edge, n, want) in cases {
        mol.translate(liair_math::Vec3::splat(edge / 2.0) - mol.centroid());
        let grid = RealGrid::cubic(Cell::cubic(edge), n);
        let solver = PoissonSolver::isolated(grid);
        let mut profile = BuildProfile::default();
        let mut inc = IncrementalExchange::new(0.0, 0);
        let r = molecule_grid_scf(&mol, &grid, &solver, 0.0, &mut inc, &mut profile);
        assert!(r.converged, "{name} {n}³");
        assert!(
            (r.energy - want).abs() < 1e-8,
            "{name} {n}³: {:.13} vs {want:.13}",
            r.energy
        );
        // One Poisson solve per occupied pair per iteration.
        let nocc = mol.nocc();
        assert_eq!(
            profile.pairs_computed,
            r.iterations * nocc * (nocc + 1) / 2,
            "{name} {n}³"
        );
    }
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

/// A grid-exchange SCF of `mol` (in the grid's box frame) with K from
/// `inc` at screening `eps`, run from `guess` to `energy_tol`, and its
/// analytic gradient: the session's terms plus the exchange term of one
/// more K build at its converged orbitals. Returns the energy, the
/// gradient, that exchange term and the orbitals.
fn grid_gradient(
    mol: &Molecule,
    grid: &RealGrid,
    solver: &PoissonSolver,
    eps: f64,
    inc: &mut IncrementalExchange,
    energy_tol: f64,
    guess: Option<&Mat>,
) -> (f64, Vec<Vec3>, Vec<Vec3>, Mat) {
    let basis = Basis::sto3g(mol);
    let on_grid = BasisOnGrid::new(&basis, grid);
    let inc = std::cell::RefCell::new(inc);
    let build = |c_occ: &Mat| {
        inc.borrow_mut()
            .exchange_operator(&on_grid, c_occ, mol.nocc(), solver, eps)
            .expect("the rayon backend has no messages to lose, and the occupied exchange matrix of real orbitals is positive")
    };
    let mut k = |c_occ: &Mat| build(c_occ).k.scale(2.0);
    let opts = ScfOptions {
        energy_tol,
        ..ScfOptions::default()
    };
    let mut scf = ScfSession::with_exchange(mol, &basis, &opts, &mut k, guess);
    while scf.step() {}
    assert!(scf.converged(), "{}", mol.formula());
    let exchange = build(&scf.occupied_orbitals()).gradient;
    let grad = scf.gradient(Some(&exchange));
    (scf.energy(), grad, exchange, scf.into_result().c)
}

/// [`grid_gradient`] at ε = 0 with reuse off, converged to 1e-12 Ha: the
/// oracles' reference.
fn exact_grid_gradient(
    mol: &Molecule,
    grid: &RealGrid,
    solver: &PoissonSolver,
    guess: Option<&Mat>,
) -> (f64, Vec<Vec3>, Vec<Vec3>, Mat) {
    let mut inc = IncrementalExchange::new(0.0, 0);
    grid_gradient(mol, grid, solver, 0.0, &mut inc, 1e-12, guess)
}

/// `mol` centered in a cubic box of `edge` Bohr, then moved off the grid's
/// planes of symmetry (an AO tail half a box away has a kink there, where
/// the minimum image flips), with an `n³` grid and its isolated solver.
fn off_center(mut mol: Molecule, edge: f64, n: usize) -> (Molecule, RealGrid, PoissonSolver) {
    mol.translate(Vec3::splat(edge / 2.0) - mol.centroid() + Vec3::new(0.11, 0.07, 0.05));
    let grid = RealGrid::cubic(Cell::cubic(edge), n);
    (mol, grid, PoissonSolver::isolated(grid))
}

#[test]
fn grid_scf_gradient_matches_finite_differences_of_the_energy() {
    // ε = 0, eps_inc = 0, energy_tol 1e-12 Ha. Richardson-extrapolated
    // central differences (1e-5 and 2e-5 Bohr) of the converged energy,
    // each displaced SCF warm-started from the reference orbitals: every
    // component on H₂ and LiH, two on water (its oxygen's x and a
    // hydrogen's y). The grid's egg-box makes a core far narrower than
    // its spacing vary on that scale, so plain central differences at
    // 1e-5 Bohr are off by 1.9e-6 Ha/Bohr on water. The largest component
    // errors read 2.5e-10, 6.6e-9 and 8.5e-9 Ha/Bohr when recorded. The
    // forces do not sum to zero: |Σ_A ∂E/∂R_A| read 4.0e-3, 4.6 and 4.6e2,
    // all of it the exchange term's (the other terms cancel to 1e-13).
    let cases = [
        ("H2", systems::h2(), 12.0, 24, 1e-2, 6),
        ("LiH", systems::lih(), 14.0, 32, 10.0, 6),
        ("water", systems::water(), 14.0, 32, 1e3, 2),
    ];
    let h = 1e-5;
    for (name, mol, edge, n, sum_bound, ncomp) in cases {
        let (mol, grid, solver) = off_center(mol, edge, n);
        let (_, grad, exchange, c) = exact_grid_gradient(&mol, &grid, &solver, None);
        let mut worst: f64 = 0.0;
        for (atom, axis) in [(0, 0), (1, 1), (0, 1), (0, 2), (1, 0), (1, 2)]
            .into_iter()
            .take(ncomp)
        {
            let at = |step: f64| {
                let mut m = mol.clone();
                m.atoms[atom].pos[axis] += step;
                exact_grid_gradient(&m, &grid, &solver, Some(&c)).0
            };
            let central = |h: f64| (at(h) - at(-h)) / (2.0 * h);
            let fd = (4.0 * central(h) - central(2.0 * h)) / 3.0;
            worst = worst.max((grad[atom][axis] - fd).abs());
        }
        let total = |g: &[Vec3]| g.iter().fold(Vec3::ZERO, |a, g| a + *g);
        let (sum, sum_x) = (total(&grad), total(&exchange));
        eprintln!(
            "{name}: largest |∂E − FD| {worst:.2e} Ha/Bohr, |Σ| {:.2e}, |Σ − Σ_x| {:.1e}",
            sum.norm(),
            (sum - sum_x).norm()
        );
        assert!(worst < 1e-7, "{name}: {worst:e} Ha/Bohr");
        assert!(sum.norm() < sum_bound, "{name}: |Σ| {:e}", sum.norm());
        assert!(
            (sum - sum_x).norm() < 1e-10 * sum_bound,
            "{name}: {sum:?} vs {sum_x:?}"
        );
    }
}

#[test]
fn production_screening_and_reuse_bound_the_gradient_as_the_energy() {
    // The settings `IncrementalGridForces` runs at: ε = 1e-4, eps_inc =
    // 1e-4, energy_tol 1e-9. A first SCF warms the cache, then an atom
    // moves 0.02 Bohr (an MD step) and the next SCF starts from the first's
    // orbitals and reuses its clean pairs, for its iterations and for the
    // gradient's K build. Against the exact reference at the moved
    // geometry, the energy is within 1e-6 of itself and the largest force
    // component within 1e-5 of the largest force. Recorded (H₂, LiH,
    // water): energy 3.9e-10, 1.3e-7 and 6.3e-7 relative; force 2.6e-7,
    // 3.8e-6 and 5.6e-6 of the largest; with eps_inc = 0 the force errors
    // read 2e-8 relative or less, so the rest is reuse.
    for (name, mol, edge, n) in [
        ("H2", systems::h2(), 12.0, 24),
        ("LiH", systems::lih(), 14.0, 32),
        ("water", systems::water(), 14.0, 32),
    ] {
        let (mol, grid, solver) = off_center(mol, edge, n);
        let mut inc = IncrementalExchange::new(1e-4, 0);
        let c = grid_gradient(&mol, &grid, &solver, 1e-4, &mut inc, 1e-9, None).3;
        let mut moved = mol.clone();
        moved.atoms[1].pos.x += 0.02;
        let before = inc.totals;
        let (e, g, _, _) = grid_gradient(&moved, &grid, &solver, 1e-4, &mut inc, 1e-9, Some(&c));
        assert!(inc.totals.since(&before).pairs_reused > 0, "{name}");
        let (e_ref, g_ref, _, _) = exact_grid_gradient(&moved, &grid, &solver, Some(&c));
        let components =
            |g: &[Vec3]| -> Vec<f64> { g.iter().flat_map(|v| [v.x, v.y, v.z]).collect() };
        let (got, want) = (components(&g), components(&g_ref));
        let df = got
            .iter()
            .zip(&want)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        let fmax = want.iter().fold(0.0f64, |m, b| m.max(b.abs()));
        let de = ((e - e_ref) / e_ref).abs();
        eprintln!(
            "{name}: energy {de:.1e} relative, force {:.1e} of the largest",
            df / fmax
        );
        assert!(de < 1e-6, "{name}: energy off by {de:e} relative");
        assert!(df < 1e-5 * fmax, "{name}: force off by {df:e} of {fmax:e}");
    }
}

#[test]
fn warm_started_orbital_energies_are_those_of_the_converged_scf() {
    // H₂ one MD step (0.02 Bohr) from where its orbitals were converged:
    // the SCF warm-started from them converges in 3 steps, but DIIS weighs
    // only the occupied–virtual block, so the extrapolated Fock's occupied
    // eigenvalue is no orbital energy (it read −0.573477 Ha here, 6.8e-4
    // off). `(CᵀFC)_ii` of the last Fock before DIIS is within 1e-5 Ha of
    // the cold converged SCF's.
    let (mol, grid, solver) = off_center(systems::h2(), 12.0, 24);
    let run = |mol: &Molecule, guess: Option<&Mat>| {
        let basis = Basis::sto3g(mol);
        let (mut inc, mut profile) = (IncrementalExchange::new(0.0, 0), BuildProfile::default());
        let mut k = grid_k(
            &basis,
            mol.nocc(),
            &grid,
            &solver,
            0.0,
            &mut inc,
            &mut profile,
        );
        let res = ScfSession::with_exchange(mol, &basis, &ScfOptions::default(), &mut k, guess)
            .run_to_completion();
        assert!(res.converged, "{}", mol.formula());
        res
    };
    let mut moved = mol.clone();
    moved.atoms[1].pos.x += 0.02;
    let warm = run(&moved, Some(&run(&mol, None).c));
    let cold = run(&moved, None);
    assert_eq!(warm.iterations, 3);
    let (got, want) = (warm.homo().unwrap(), cold.homo().unwrap());
    assert!((got - want).abs() < 1e-5, "ε_HOMO {got} vs {want}");
}
