//! Property tests of the `Comm` backend's bitwise contract:
//!
//! * for **any** rank count and workload the pipelined schedule produces
//!   the serial reference's energy bit for bit — streamed results and the
//!   steal queue move bits, they never combine them;
//! * **any** seeded fault schedule — drops, delays, duplicates, stalled
//!   ranks — still yields the bit-identical result, run after run:
//!   retransmission recovers payloads verbatim, and chunks re-issued for
//!   lost ranks replay the identical kernel;
//! * the steal counters are replayable for a fixed fault seed.

use liair_core::screening::{build_pair_list, OrbitalInfo, PairList};
use liair_core::{BalanceStrategy, ExchangeEngine, ExecBackend, FaultPlan};
use liair_grid::{PoissonSolver, RealGrid};
use liair_math::rng::SplitMix64;
use liair_math::Vec3;
use proptest::prelude::*;

fn setup(seed: u64, norb: usize) -> (RealGrid, PoissonSolver, Vec<Vec<f64>>, PairList) {
    let l = 12.0;
    let grid = RealGrid::cubic(liair_basis::Cell::cubic(l), 16);
    let solver = PoissonSolver::isolated(grid);
    let mut rng = SplitMix64::new(seed);
    let centers: Vec<Vec3> = (0..norb)
        .map(|_| {
            Vec3::new(
                rng.range_f64(3.0, 9.0),
                rng.range_f64(3.0, 9.0),
                rng.range_f64(3.0, 9.0),
            )
        })
        .collect();
    let fields: Vec<Vec<f64>> = centers
        .iter()
        .map(|&c| {
            (0..grid.len())
                .map(|i| {
                    let d = grid.cell.min_image(c, grid.point_flat(i));
                    (-1.2 * d.norm_sqr()).exp()
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
    let pairs = build_pair_list(&infos, 0.0, Some(&grid.cell));
    (grid, solver, fields, pairs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any seeded fault schedule yields the bit-identical energy, run
    /// after run. The degradation *counters* may differ between replays
    /// (a delayed retransmission racing the recv timeout can demote a
    /// slow rank to "lost") — but every lost rank's chunks are re-issued
    /// through the identical kernel, so the energy never moves.
    #[test]
    fn seeded_fault_schedules_are_bitwise_and_deterministic(
        fseed in 0u64..10_000,
        stall_idx in 0usize..2,
    ) {
        let (grid, solver, fields, pairs) = setup(17, 3);
        let plan = if stall_idx == 1 {
            FaultPlan::with_stalls(fseed)
        } else {
            FaultPlan::messages_only(fseed)
        };
        let clean = ExchangeEngine::builder(&grid, &solver)
            .backend(ExecBackend::Serial)
            .build()
            .unwrap()
            .energy(&fields, &pairs);
        let build = || {
            ExchangeEngine::builder(&grid, &solver)
                .backend(ExecBackend::Comm { nranks: 4, strategy: BalanceStrategy::RoundRobin })
                .fault_plan(plan)
                .build()
                .unwrap()
                .energy(&fields, &pairs)
        };
        let a = build();
        let b = build();
        prop_assert_eq!(clean.energy.to_bits(), a.energy.to_bits());
        prop_assert_eq!(a.energy.to_bits(), b.energy.to_bits());
        // Re-issue only ever happens in response to a lost rank.
        for out in [&a, &b] {
            if out.profile.ranks_stalled == 0 {
                prop_assert_eq!(out.profile.chunks_reissued, 0);
            }
        }
    }

    /// The pipelined backend is bit-identical to the serial reference for
    /// every workload, rank count, and (optional) fault seed: dynamic
    /// stealing and out-of-order streamed arrival never change the
    /// canonical reassembly, only who computed each chunk and when it
    /// landed.
    #[test]
    fn pipelined_and_serial_are_bitwise_equal(
        wseed in 0u64..1000,
        fseed in 0u64..10_000,
        faulty in 0usize..2,
        nranks in 1usize..6,
        norb in 2usize..5,
    ) {
        let (grid, solver, fields, pairs) = setup(wseed, norb);
        let build = |backend| {
            let mut b = ExchangeEngine::builder(&grid, &solver)
                .backend(backend);
            if faulty == 1 {
                b = b.fault_plan(FaultPlan::with_stalls(fseed));
            }
            b.build().unwrap().energy(&fields, &pairs)
        };
        let serial = build(ExecBackend::Serial);
        let pipelined = build(ExecBackend::Comm { nranks, strategy: BalanceStrategy::GreedyLpt });
        prop_assert_eq!(serial.energy.to_bits(), pipelined.energy.to_bits());
        // The steal queue only ever exists on the Comm backend.
        prop_assert_eq!(serial.profile.chunks_stolen, 0);
        prop_assert_eq!(serial.profile.steal_requests, 0);
        if nranks == 1 {
            // A single rank has nobody to steal from: all-static schedule.
            prop_assert_eq!(pipelined.profile.chunks_stolen, 0);
        }
    }

    /// For a fixed fault seed the steal protocol is replayable: the stall
    /// set is a pure function of the seed, every queued chunk moves
    /// through exactly one grant, and the root serves the queue itself
    /// only when no live worker remains — so the steal counters (not just
    /// the energy) are identical run after run, even though which *rank*
    /// wins each chunk races.
    #[test]
    fn steal_counters_are_deterministic_for_fixed_seed(
        fseed in 0u64..10_000,
        nranks in 2usize..6,
    ) {
        let (grid, solver, fields, pairs) = setup(23, 4);
        let nchunks = pairs.len().div_ceil(2);
        let ntail = nchunks / 4;
        let build = || {
            ExchangeEngine::builder(&grid, &solver)
                .backend(ExecBackend::Comm { nranks, strategy: BalanceStrategy::Block })
                .fault_plan(FaultPlan::with_stalls(fseed))
                .build()
                .unwrap()
                .energy(&fields, &pairs)
        };
        let a = build();
        let b = build();
        prop_assert_eq!(a.profile.chunks_stolen, b.profile.chunks_stolen);
        prop_assert_eq!(a.profile.steal_requests, b.profile.steal_requests);
        prop_assert_eq!(a.profile.ranks_stalled, b.profile.ranks_stalled);
        prop_assert_eq!(a.profile.chunks_reissued, b.profile.chunks_reissued);
        // Every queue entry — the dynamic tail plus each re-issued chunk —
        // is dispatched exactly once.
        prop_assert_eq!(a.profile.chunks_stolen, ntail + a.profile.chunks_reissued);
        // One grant per stolen chunk plus one final `done` per live
        // worker — unless every worker stalled, where the root serves the
        // whole queue itself and no grant is ever issued.
        if a.profile.ranks_stalled == nranks - 1 {
            prop_assert_eq!(a.profile.steal_requests, 0);
        } else {
            prop_assert_eq!(
                a.profile.steal_requests,
                a.profile.chunks_stolen + (nranks - 1 - a.profile.ranks_stalled)
            );
        }
    }
}
