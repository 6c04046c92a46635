//! Sharded-vs-global engine identity: a pair list built by the
//! domain-sharded source (per-domain halo import + local windowed build +
//! canonical merge — [`build_pair_list_sharded`]) and one built by the
//! real SPMD halo-exchange protocol ([`sharded_pair_list_spmd`]) must
//! drive the [`ExchangeEngine`] to **bit-identical** energies and K
//! matrices against the global O(N²) list, on every execution backend —
//! and under injected message faults. The sharded source
//! reassembles the canonical (i, j) pair order exactly, so the engine
//! cannot tell the lists apart; these tests pin that guarantee at the
//! energy level, not just the list level.

use liair_basis::{Basis, Cell};
use liair_core::screening::{build_pair_list, OrbitalInfo, PairList};
use liair_core::{
    build_pair_list_sharded, sharded_pair_list_spmd, BalanceStrategy, BasisOnGrid, ExchangeEngine,
    ExecBackend, FaultPlan,
};
use liair_grid::{PoissonSolver, RealGrid};
use liair_math::rng::SplitMix64;
use liair_math::Vec3;
use liair_scf::ScfOptions;

/// A finite screening threshold loose enough to keep most pairs: the
/// sharded builders need `0 < ε ≤ 1`, and the point here is engine
/// identity, not survivor counts.
const EPS: f64 = 1e-9;

/// Smooth synthetic orbitals in a periodic cell, plus the three pair
/// lists under test (global reference, sharded, SPMD halo-exchange).
#[allow(clippy::type_complexity)]
fn setup(
    norb: usize,
    n: usize,
    dims: [usize; 3],
) -> (
    RealGrid,
    PoissonSolver,
    Vec<Vec<f64>>,
    PairList,
    PairList,
    PairList,
) {
    let l = 14.0;
    let grid = RealGrid::cubic(Cell::cubic(l), n);
    let solver = PoissonSolver::isolated(grid);
    let mut rng = SplitMix64::new(424242);
    let centers: Vec<Vec3> = (0..norb)
        .map(|_| {
            Vec3::new(
                rng.range_f64(2.0, 12.0),
                rng.range_f64(2.0, 12.0),
                rng.range_f64(2.0, 12.0),
            )
        })
        .collect();
    let fields: Vec<Vec<f64>> = centers
        .iter()
        .map(|&c| {
            let alpha: f64 = 1.1;
            let norm = (2.0 * alpha / std::f64::consts::PI).powf(0.75);
            (0..grid.len())
                .map(|i| {
                    let d = grid.cell.min_image(c, grid.point_flat(i));
                    norm * (-alpha * d.norm_sqr()).exp()
                })
                .collect()
        })
        .collect();
    let infos: Vec<OrbitalInfo> = centers
        .iter()
        .map(|&c| OrbitalInfo {
            center: c,
            spread: 0.7,
        })
        .collect();
    let global = build_pair_list(&infos, EPS, Some(&grid.cell));
    let sharded = build_pair_list_sharded(&infos, EPS, &grid.cell, dims).unwrap();
    let spmd = sharded_pair_list_spmd(&infos, EPS, &grid.cell, dims).unwrap();
    (grid, solver, fields, global, sharded, spmd)
}

fn assert_same_list(a: &PairList, b: &PairList, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: pair count");
    for (pa, pb) in a.pairs.iter().zip(&b.pairs) {
        assert_eq!((pa.i, pa.j), (pb.i, pb.j), "{what}: order");
        assert_eq!(pa.weight.to_bits(), pb.weight.to_bits(), "{what}: weight");
        assert_eq!(pa.bound.to_bits(), pb.bound.to_bits(), "{what}: bound");
    }
}

#[test]
fn sharded_energy_bit_identical_across_backends() {
    let (grid, solver, fields, global, sharded, spmd) = setup(4, 20, [2, 2, 2]);
    assert_same_list(&global, &sharded, "sharded");
    assert_same_list(&global, &spmd, "spmd");
    let base = ExchangeEngine::builder(&grid, &solver);
    let reference = base
        .backend(ExecBackend::Serial)
        .build()
        .unwrap()
        .energy(&fields, &global);
    assert!(reference.energy < 0.0);
    for (list, what) in [(&sharded, "sharded"), (&spmd, "spmd")] {
        for backend in [
            ExecBackend::Serial,
            ExecBackend::Rayon,
            ExecBackend::Comm {
                nranks: 3,
                strategy: BalanceStrategy::GreedyLpt,
            },
        ] {
            let out = base.backend(backend).build().unwrap().energy(&fields, list);
            assert_eq!(
                reference.energy.to_bits(),
                out.energy.to_bits(),
                "{what} differs on {backend:?}"
            );
        }
    }
}

#[test]
fn sharded_energy_bit_identical_under_injected_faults() {
    // The sharded list must survive the fault-tolerant distributed path
    // too: retransmission and chunk re-issue replay identical kernels on
    // an identical task list, so not one bit may move.
    let (grid, solver, fields, global, sharded, _spmd) = setup(4, 16, [3, 2, 1]);
    assert_same_list(&global, &sharded, "sharded");
    let clean = ExchangeEngine::builder(&grid, &solver)
        .backend(ExecBackend::Serial)
        .build()
        .unwrap()
        .energy(&fields, &global);
    for seed in [7u64, 42] {
        for plan in [FaultPlan::messages_only(seed), FaultPlan::with_stalls(seed)] {
            let faulty = ExchangeEngine::builder(&grid, &solver)
                .backend(ExecBackend::Comm {
                    nranks: 4,
                    strategy: BalanceStrategy::GreedyLpt,
                })
                .fault_plan(plan)
                .build()
                .unwrap()
                .energy(&fields, &sharded);
            assert_eq!(
                clean.energy.to_bits(),
                faulty.energy.to_bits(),
                "seed {seed}: sharded list drifted under faults"
            );
        }
    }
}

#[test]
fn sharded_list_drives_k_operator_identically() {
    // K build sourcing goes through the engine's own cross-pair screening,
    // but the occupied-side orbital lists feeding it are the sharded
    // residents; pin the simplest end-to-end surface — an H2 K operator is
    // identical whether the engine's helpers saw global or sharded lists.
    let edge = 14.0;
    let mut mol = liair_basis::systems::h2();
    mol.translate(Vec3::splat(edge / 2.0) - mol.centroid());
    let basis = Basis::sto3g(&mol);
    let scf = liair_scf::rhf(&mol, &basis, &ScfOptions::default());
    let grid = RealGrid::cubic(Cell::cubic(edge), 24);
    let solver = PoissonSolver::isolated(grid);
    let on_grid = BasisOnGrid::new(&basis, &grid);
    let reference = ExchangeEngine::builder(&grid, &solver)
        .backend(ExecBackend::Serial)
        .build()
        .unwrap()
        .k_operator(&on_grid, &scf.c, scf.nocc, 0.0);
    for nranks in [1, 3] {
        let comm = ExchangeEngine::builder(&grid, &solver)
            .backend(ExecBackend::Comm {
                nranks,
                strategy: BalanceStrategy::RoundRobin,
            })
            .build()
            .unwrap()
            .k_operator(&on_grid, &scf.c, scf.nocc, 0.0);
        assert_eq!(
            comm.k.sub(&reference.k).fro_norm(),
            0.0,
            "K differs at nranks={nranks}"
        );
    }
}
