//! Property-based test of the energy contraction: its fixed four-accumulator
//! order stays within the O(n·ε) reassociation bound of the strictly
//! sequential sum. (Its exact bits are pinned in `simd.rs`; the transform's
//! bit-identity properties are in `stockham.rs`.)

use liair_math::rng::SplitMix64;
use liair_math::simd;
use liair_math::Complex64;
use proptest::prelude::*;

fn random_real(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_f64() - 0.5).collect()
}

fn random_signal(n: usize, seed: u64) -> Vec<Complex64> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| Complex64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Against the reference implementation — one accumulator, bin by bin
    /// — the reassociated sum is bounded by 4·n·ε relative on these
    /// non-negative sums (weights shifted into `[0.1, 1.1)`, like `v(G)`).
    #[test]
    fn weighted_energy_agreement(n in 0usize..2000, seed in 0u64..1000) {
        let z = random_signal(n, seed);
        let wk: Vec<f64> = random_real(n, seed ^ 0x5).iter().map(|v| v + 0.6).collect();
        let mut sequential = 0.0;
        for (zi, &k) in z.iter().zip(&wk) {
            sequential += k * zi.norm_sqr();
        }
        let e = simd::weighted_energy(&z, &wk);
        let tol = 4.0 * n.max(1) as f64 * f64::EPSILON * sequential.abs().max(1e-300);
        prop_assert!((e - sequential).abs() <= tol, "sequential {sequential} vs {e}");
    }
}
