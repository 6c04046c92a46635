//! The pair-distributed exchange over the message-passing runtime — thin
//! configurations of [`crate::engine::ExchangeEngine`] on the
//! [`ExecBackend::Comm`] backend.
//!
//! Every rank holds the (replicated) orbital fields, claims its share of
//! the balanced chunk list, computes its contributions with the node-local
//! kernel, and a single gather per build lands them on the root — the
//! communication-avoiding structure of the paper. Run over
//! `liair-runtime`'s threaded backend, this is the *correctness* proof of
//! the distributed algorithm; the BG/Q-scale behaviour of the identical
//! task lists is priced in [`crate::simulate`]. Because the engine
//! distributes whole pair chunks and reassembles canonical order before
//! the ordered reduction, the distributed energies and K matrices are
//! bit-identical to the serial backend.

use crate::balance::BalanceStrategy;
use crate::engine::{ExchangeEngine, ExecBackend};
use crate::hfx::HfxResult;
use crate::screening::PairList;
use liair_grid::{PoissonSolver, RealGrid};

/// Compute the exchange energy with `nranks` virtual ranks.
///
/// Deterministic: every rank derives the same static chunk assignment
/// from the shared pair list, so only the stolen tail needs
/// task-coordination messages. Each rank owns one grow-once pair-density
/// scratch and runs the same pair kernel, so the per-pair loop is
/// allocation-free in steady state — the same hot path as the threaded
/// executor.
pub fn distributed_exchange(
    grid: &RealGrid,
    solver: &PoissonSolver,
    orbitals: &[Vec<f64>],
    pairs: &PairList,
    nranks: usize,
    strategy: BalanceStrategy,
) -> HfxResult {
    ExchangeEngine::builder(grid, solver)
        .backend(ExecBackend::Comm { nranks, strategy })
        .build()
        .unwrap_or_else(|e| panic!("distributed exchange configuration rejected: {e}"))
        .energy(orbitals, pairs)
}

/// Distributed build of the grid exchange *operator*: the `(occupied j,
/// AO ν)` solve tasks are split round-robin over ranks; per-task output
/// columns combine on the root in canonical task order — the
/// message-passing twin of [`crate::operator::exchange_operator_grid`],
/// bit-identical to it. Each rank reuses one grow-once density buffer and
/// Poisson workspace across its whole share of tasks (the per-task
/// allocations of the earlier implementation are gone).
pub fn distributed_exchange_operator(
    basis: &liair_basis::Basis,
    c_occ: &liair_math::Mat,
    nocc: usize,
    grid: &RealGrid,
    solver: &PoissonSolver,
    nranks: usize,
) -> liair_math::Mat {
    ExchangeEngine::builder(grid, solver)
        .backend(ExecBackend::Comm {
            nranks,
            strategy: BalanceStrategy::RoundRobin,
        })
        .build()
        .unwrap_or_else(|e| panic!("distributed K-build configuration rejected: {e}"))
        .k_operator(basis, c_occ, nocc, 0.0)
        .k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hfx::exchange_energy;
    use crate::screening::{source_pairs, OrbitalInfo};
    use liair_basis::Cell;
    use liair_math::approx_eq;
    use liair_math::rng::SplitMix64;
    use liair_math::Vec3;

    /// Synthetic smooth "orbitals": normalized Gaussians on grid points.
    fn synthetic_setup(
        norb: usize,
        n: usize,
    ) -> (RealGrid, PoissonSolver, Vec<Vec<f64>>, PairList) {
        let l = 14.0;
        let grid = RealGrid::cubic(Cell::cubic(l), n);
        let solver = PoissonSolver::isolated(grid);
        let mut rng = SplitMix64::new(42);
        let mut centers = Vec::new();
        for _ in 0..norb {
            centers.push(Vec3::new(
                rng.range_f64(4.0, 10.0),
                rng.range_f64(4.0, 10.0),
                rng.range_f64(4.0, 10.0),
            ));
        }
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
        // Route the distributed drivers through the canonical cell-list
        // source (finite ε + periodic cell) — serial and distributed run
        // the identical canonical list.
        let pairs = source_pairs(&infos, 1e-9, Some(&grid.cell));
        (grid, solver, fields, pairs)
    }

    #[test]
    fn distributed_matches_serial() {
        let (grid, solver, fields, pairs) = synthetic_setup(4, 24);
        let serial = exchange_energy(&grid, &solver, &fields, &pairs);
        for nranks in [1, 2, 3, 5] {
            for strat in [BalanceStrategy::RoundRobin, BalanceStrategy::GreedyLpt] {
                let dist = distributed_exchange(&grid, &solver, &fields, &pairs, nranks, strat);
                assert!(
                    approx_eq(dist.energy, serial.energy, 1e-10),
                    "nranks={nranks} {strat:?}: {} vs {}",
                    dist.energy,
                    serial.energy
                );
            }
        }
    }

    #[test]
    fn more_ranks_than_pairs_is_fine() {
        let (grid, solver, fields, pairs) = synthetic_setup(2, 16);
        let serial = exchange_energy(&grid, &solver, &fields, &pairs);
        let dist = distributed_exchange(
            &grid,
            &solver,
            &fields,
            &pairs,
            8,
            BalanceStrategy::GreedyLpt,
        );
        assert!(approx_eq(dist.energy, serial.energy, 1e-10));
    }

    #[test]
    fn distributed_operator_matches_shared_memory() {
        use liair_basis::{systems, Basis};
        use liair_scf::{rhf, ScfOptions};
        let mol = systems::h2();
        let basis0 = Basis::sto3g(&mol);
        let scf = rhf(&mol, &basis0, &ScfOptions::default());
        let edge = 14.0;
        let mut mol_c = mol.clone();
        mol_c.translate(liair_math::Vec3::splat(edge / 2.0) - mol.centroid());
        let basis = Basis::sto3g(&mol_c);
        let grid = RealGrid::cubic(Cell::cubic(edge), 32);
        let solver = PoissonSolver::isolated(grid);
        let serial =
            crate::operator::exchange_operator_grid(&basis, &scf.c, scf.nocc, &grid, &solver);
        for nranks in [1, 3] {
            let dist =
                distributed_exchange_operator(&basis, &scf.c, scf.nocc, &grid, &solver, nranks);
            let err = dist.sub(&serial).fro_norm();
            assert!(err < 1e-12, "nranks={nranks}: K error {err}");
        }
    }

    #[test]
    fn energy_is_negative_definite() {
        let (grid, solver, fields, pairs) = synthetic_setup(3, 16);
        let dist = distributed_exchange(&grid, &solver, &fields, &pairs, 2, BalanceStrategy::Block);
        assert!(dist.energy < 0.0);
        assert_eq!(dist.pairs_evaluated, pairs.len());
        assert!(dist.profile.is_populated(), "Comm build must fill profile");
        assert!(dist.profile.bytes_reduced > 0, "gather bytes unaccounted");
    }
}
