//! Integration: the engine's message-passing backend against its
//! shared-memory default, with *real* molecular orbitals (not synthetic
//! fields) — crossing scf, grid, runtime and core.

use liair::grid::orbitals_on_grid;
use liair::prelude::*;

fn setup() -> (
    RealGrid,
    PoissonSolver,
    Vec<Vec<f64>>,
    liair::core::PairList,
) {
    // An H2 trimer: 3 localized orbitals with nontrivial pair structure.
    let mut mol = systems::h2();
    for k in 1..3 {
        let mut m = systems::h2();
        m.translate(Vec3::new(0.0, k as f64 * 4.0, 0.0));
        mol.merge(&m);
    }
    let basis = Basis::sto3g(&mol);
    let scf = rhf(&mol, &basis, &ScfOptions::default());
    assert!(scf.converged);

    // Center in a box and localize.
    let edge = 22.0;
    let shift = Vec3::splat(edge / 2.0) - mol.centroid();
    let mut mol_c = mol.clone();
    mol_c.translate(shift);
    let mut basis_c = basis.clone();
    basis_c.update_centers(&mol_c);
    let loc = foster_boys(&basis_c, &scf.c, scf.nocc, 60);

    let grid = RealGrid::cubic(Cell::cubic(edge), 40);
    let solver = PoissonSolver::isolated(grid);
    let fields = orbitals_on_grid(&basis_c, &loc.c_loc, scf.nocc, &grid);
    let infos: Vec<OrbitalInfo> = loc
        .centers
        .iter()
        .zip(&loc.spreads)
        .map(|(&c, &s)| OrbitalInfo {
            center: c,
            spread: s.max(0.3),
        })
        .collect();
    let pairs = build_pair_list(&infos, 0.0, None);
    (grid, solver, fields, pairs)
}

#[test]
fn message_passing_matches_shared_memory_on_real_orbitals() {
    let (grid, solver, fields, pairs) = setup();
    let serial = ExchangeEngine::new(&grid, &solver).energy(&fields, &pairs);
    assert!(serial.energy < 0.0);
    for nranks in [2, 4] {
        for strategy in [BalanceStrategy::RoundRobin, BalanceStrategy::GreedyLpt] {
            let dist = ExchangeEngine::builder(&grid, &solver)
                .backend(ExecBackend::Comm { nranks, strategy })
                .build()
                .unwrap()
                .energy(&fields, &pairs);
            assert_eq!(
                dist.energy.to_bits(),
                serial.energy.to_bits(),
                "nranks={nranks} {strategy:?}: {} vs {}",
                dist.energy,
                serial.energy
            );
        }
    }
}

#[test]
fn partial_sums_cover_every_pair_exactly_once() {
    // The assignment underlying the distributed run partitions the task
    // list — no pair computed twice, none dropped.
    let (_, _, _, pairs) = setup();
    for nranks in [1, 3, 7] {
        let a = liair::core::assign_pairs(&pairs, nranks, BalanceStrategy::GreedyLpt);
        let mut seen = vec![false; pairs.len()];
        for tasks in &a.per_rank {
            for &t in tasks {
                assert!(!seen[t]);
                seen[t] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
