//! Property tests of the incremental-exchange contract:
//!
//! * `eps_inc = 0` disables reuse, and the resulting K build (operator
//!   and exchange gradient) is **bit-identical** to the from-scratch
//!   `ExchangeEngine::k_operator` (same per-pair kernel, same
//!   canonical-order ACE assembly);
//! * the energy error of a stale-cache rebuild is **monotone** in
//!   `eps_inc`: loosening the tolerance can only enlarge the reused set,
//!   and every reused pair contributes an error of the same sign here by
//!   construction.

use liair_basis::{systems, Basis, Cell};
use liair_core::screening::{build_pair_list, OrbitalInfo};
use liair_core::{BasisOnGrid, ExchangeEngine, IncrementalExchange};
use liair_grid::{PoissonSolver, RealGrid};
use proptest::prelude::*;

fn gaussian_field(grid: &RealGrid, center: liair_math::Vec3, sigma: f64) -> Vec<f64> {
    (0..grid.len())
        .map(|p| {
            let r = grid.point_flat(p);
            let d2 = r.distance(center).powi(2);
            (-d2 / (2.0 * sigma * sigma)).exp()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// With `eps_inc = 0` every orbital is dirty and the incremental K is
    /// the from-scratch K down to the last bit, for any bond length and
    /// with or without screening — even when the cache was primed with a
    /// different geometry first.
    #[test]
    fn eps_inc_zero_k_build_is_bit_identical(
        bond in 1.1f64..1.9,
        eps_idx in 0usize..2,
        prime_idx in 0usize..2,
    ) {
        let eps = [0.0, 1e-3][eps_idx];
        let mut mol = systems::h2();
        mol.atoms[1].pos.x = bond;
        let edge = 12.0;
        let shift = liair_math::Vec3::splat(edge / 2.0) - mol.centroid();
        mol.translate(shift);
        let basis = Basis::sto3g(&mol);
        let scf = liair_scf::rhf(&mol, &basis, &liair_scf::ScfOptions::default());
        let grid = RealGrid::cubic(Cell::cubic(edge), 16);
        let solver = PoissonSolver::isolated(grid);
        let on_grid = BasisOnGrid::new(&basis, &grid);

        let reference = ExchangeEngine::new(&grid, &solver)
            .k_operator(&on_grid, &scf.c, scf.nocc, eps)
            .expect("fault-free build");
        let (k_ref, g_ref, p_ref) = (reference.k, reference.gradient, reference.profile);
        let mut inc = IncrementalExchange::new(0.0, 0);
        if prime_idx == 1 {
            // A warm cache from another geometry must not leak through.
            let mut other = systems::h2();
            other.translate(liair_math::Vec3::splat(edge / 2.0) - other.centroid());
            let b2 = Basis::sto3g(&other);
            let s2 = liair_scf::rhf(&other, &b2, &liair_scf::ScfOptions::default());
            inc.exchange_operator(&BasisOnGrid::new(&b2, &grid), &s2.c, s2.nocc, &solver, eps)
                .expect("fault-free build");
        }
        let out = inc
            .exchange_operator(&on_grid, &scf.c, scf.nocc, &solver, eps)
            .expect("fault-free build");
        let k_inc = out.k;
        for (a, b) in out.gradient.iter().zip(&g_ref) {
            prop_assert!((0..3).all(|k| a[k].to_bits() == b[k].to_bits()), "gradient {:?} vs {:?}", a, b);
        }
        prop_assert_eq!(out.profile.pairs_computed, p_ref.pairs_computed);
        prop_assert_eq!(out.profile.pairs_screened, p_ref.pairs_screened);
        prop_assert_eq!(out.profile.pairs_reused, 0);
        for mu in 0..basis.nao() {
            for nu in 0..basis.nao() {
                let (a, b) = (k_inc[(mu, nu)], k_ref[(mu, nu)]);
                prop_assert!(
                    a == b,
                    "K[{},{}] differs: {:e} vs {:e} (bond {}, eps {})",
                    mu, nu, a, b, bond, eps
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Monotonicity: prime a cache, scale every orbital by its own
    /// `1 + γ_j > 1`, and rebuild at increasing `eps_inc`. Every reused
    /// (stale) pair then under-binds by `w_ij ((1+γ_i)²(1+γ_j)² − 1)
    /// (ij|ij) > 0`, so the signed energy error can only grow as the
    /// tolerance loosens and more pairs stay clean. `eps_inc = 0` is the
    /// exact floor.
    #[test]
    fn energy_error_is_monotone_in_eps_inc(gamma0 in 1e-3f64..5e-3, seed in 0u64..100) {
        let grid = RealGrid::cubic(Cell::cubic(12.0), 16);
        let solver = PoissonSolver::isolated(grid);
        let mut rng = liair_math::rng::SplitMix64::new(seed);
        let centers: Vec<liair_math::Vec3> = (0..4)
            .map(|_| {
                liair_math::Vec3::new(
                    rng.range_f64(4.0, 8.0),
                    rng.range_f64(4.0, 8.0),
                    rng.range_f64(4.0, 8.0),
                )
            })
            .collect();
        let base: Vec<Vec<f64>> = centers.iter().map(|&c| gaussian_field(&grid, c, 1.0)).collect();
        let infos: Vec<OrbitalInfo> = centers
            .iter()
            .map(|&c| OrbitalInfo { center: c, spread: 1.0 })
            .collect();
        let pairs = build_pair_list(&infos, 0.0, None);
        // Per-orbital uniform scaling: fingerprint distance grows with j,
        // so the eps_inc sweep peels orbitals from clean to dirty one by
        // one.
        let scaled: Vec<Vec<f64>> = base
            .iter()
            .enumerate()
            .map(|(j, f)| {
                let g = 1.0 + gamma0 * (j + 1) as f64;
                f.iter().map(|v| g * v).collect()
            })
            .collect();
        let exact = ExchangeEngine::new(&grid, &solver)
            .energy(&scaled, &pairs)
            .energy;

        let mut prev_err = -1e-12;
        let mut prev_reused = 0;
        for (step, eps_inc) in [0.0, 1.0, 2.0, 4.0, 16.0]
            .iter()
            .map(|m| m * gamma0)
            .enumerate()
        {
            // Fresh state per tolerance, primed with the same stale fields.
            let mut inc = IncrementalExchange::new(eps_inc, 0);
            inc.exchange_energy(&grid, &solver, &base, &infos, &pairs).expect("fault-free build");
            let r = inc.exchange_energy(&grid, &solver, &scaled, &infos, &pairs).expect("fault-free build");
            // Stale reuse under-binds: signed error ≥ 0 (up to FP noise).
            let err = r.energy - exact;
            prop_assert!(
                err >= -1e-10,
                "step {}: negative error {:e} at eps_inc {:e}",
                step, err, eps_inc
            );
            prop_assert!(
                err >= prev_err - 1e-10,
                "step {}: error fell from {:e} to {:e} as eps_inc grew to {:e}",
                step, prev_err, err, eps_inc
            );
            prop_assert!(
                r.profile.pairs_reused >= prev_reused,
                "step {}: reuse fell from {} to {}",
                step, prev_reused, r.profile.pairs_reused
            );
            prev_err = err;
            prev_reused = r.profile.pairs_reused;
        }
        // The loosest tolerance must actually have reused something, or
        // the property is vacuous.
        prop_assert!(prev_reused > 0, "sweep never reused a pair");
    }
}
