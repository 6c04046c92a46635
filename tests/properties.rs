//! Cross-crate property-based tests (proptest) on the core invariants.

use liair::bgq::Torus5D;
use liair::core::{assign_pairs, build_pair_list, BalanceStrategy, OrbitalInfo};
use liair::grid::{CoulombKernel, PoissonSolver, PoissonWorkspace, RealGrid};
use liair::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Screening never drops diagonal pairs and the kept count is monotone
    /// non-increasing in ε.
    #[test]
    fn screening_monotone_in_eps(
        seed in 0u64..1000,
        norb in 2usize..20,
        eps1 in 1e-10f64..1e-2,
        ratio in 1.0f64..1e6,
    ) {
        let mut rng = liair::math::rng::SplitMix64::new(seed);
        let orbitals: Vec<OrbitalInfo> = (0..norb)
            .map(|_| OrbitalInfo {
                center: Vec3::new(
                    rng.range_f64(0.0, 25.0),
                    rng.range_f64(0.0, 25.0),
                    rng.range_f64(0.0, 25.0),
                ),
                spread: rng.range_f64(0.5, 2.0),
            })
            .collect();
        let eps2 = (eps1 * ratio).min(1.0);
        let loose = build_pair_list(&orbitals, eps1, None);
        let tight = build_pair_list(&orbitals, eps2, None);
        prop_assert!(tight.len() <= loose.len());
        // Diagonals always survive.
        prop_assert!(tight.pairs.iter().filter(|p| p.i == p.j).count() == norb);
    }

    /// LPT makespan obeys the 4/3·OPT-lower-bound witness for arbitrary
    /// positive costs and rank counts.
    #[test]
    fn lpt_within_four_thirds_of_witness(
        seed in 0u64..1000,
        ntasks in 1usize..200,
        nranks in 1usize..32,
    ) {
        let mut rng = liair::math::rng::SplitMix64::new(seed);
        let costs: Vec<f64> = (0..ntasks).map(|_| rng.range_f64(0.01, 10.0)).collect();
        let a = liair::core::balance::assign(&costs, nranks, BalanceStrategy::GreedyLpt);
        let total: f64 = costs.iter().sum();
        let witness = (total / nranks as f64)
            .max(costs.iter().copied().fold(0.0, f64::max));
        prop_assert!(a.makespan() <= 4.0 / 3.0 * witness + 1e-9);
    }

    /// Torus hop distance is a metric and never exceeds the diameter.
    #[test]
    fn torus_metric_properties(
        d0 in 1usize..6, d1 in 1usize..6, d2 in 1usize..6,
        d3 in 1usize..6, d4 in 1usize..3,
        sa in 0usize..1000, sb in 0usize..1000, sc in 0usize..1000,
    ) {
        let t = Torus5D::new([d0, d1, d2, d3, d4]);
        let n = t.nodes();
        let (a, b, c) = (sa % n, sb % n, sc % n);
        prop_assert_eq!(t.hops(a, a), 0);
        prop_assert_eq!(t.hops(a, b), t.hops(b, a));
        prop_assert!(t.hops(a, c) <= t.hops(a, b) + t.hops(b, c));
        prop_assert!(t.hops(a, b) <= t.diameter());
    }

    /// The periodic Poisson solver is linear and produces zero-mean
    /// potentials (G = 0 projected out).
    #[test]
    fn poisson_linearity_and_zero_mean(seed in 0u64..200) {
        let grid = RealGrid::cubic(Cell::cubic(8.0), 8);
        let solver = PoissonSolver::new(grid, CoulombKernel::Periodic);
        let mut rng = liair::math::rng::SplitMix64::new(seed);
        let a: Vec<f64> = (0..grid.len()).map(|_| rng.next_f64() - 0.5).collect();
        let b: Vec<f64> = (0..grid.len()).map(|_| rng.next_f64() - 0.5).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + 2.0 * y).collect();
        let mut ws = PoissonWorkspace::new();
        let va = solver.solve_into(&a, &mut ws).to_vec();
        let vb = solver.solve_into(&b, &mut ws).to_vec();
        let vs = solver.solve_into(&sum, &mut ws);
        for i in (0..grid.len()).step_by(41) {
            prop_assert!((vs[i] - (va[i] + 2.0 * vb[i])).abs() < 1e-10);
        }
        let mean: f64 = va.iter().sum::<f64>() / va.len() as f64;
        prop_assert!(mean.abs() < 1e-10);
    }

    /// Exchange-pair energies are non-negative for any real field
    /// (positive-definiteness of the Coulomb kernel).
    #[test]
    fn pair_energy_nonnegative(seed in 0u64..200) {
        let grid = RealGrid::cubic(Cell::cubic(10.0), 8);
        let solver = PoissonSolver::isolated(grid);
        let mut rng = liair::math::rng::SplitMix64::new(seed);
        let rho: Vec<f64> = (0..grid.len()).map(|_| rng.next_f64() - 0.5).collect();
        let e = solver.exchange_pair_energy(&rho, &mut PoissonWorkspace::new());
        prop_assert!(e >= -1e-10);
    }

    /// Pair assignment is a partition for any strategy.
    #[test]
    fn assignment_is_partition(
        seed in 0u64..500,
        norb in 2usize..16,
        nranks in 1usize..9,
        strat_pick in 0usize..3,
    ) {
        let mut rng = liair::math::rng::SplitMix64::new(seed);
        let orbitals: Vec<OrbitalInfo> = (0..norb)
            .map(|_| OrbitalInfo {
                center: Vec3::new(rng.range_f64(0.0, 10.0), 0.0, 0.0),
                spread: 1.0,
            })
            .collect();
        let pl = build_pair_list(&orbitals, 1e-4, None);
        let strat = [
            BalanceStrategy::RoundRobin,
            BalanceStrategy::Block,
            BalanceStrategy::GreedyLpt,
        ][strat_pick];
        let a = assign_pairs(&pl, nranks, strat);
        let assigned: usize = a.per_rank.iter().map(|v| v.len()).sum();
        prop_assert_eq!(assigned, pl.len());
    }
}
