//! Property-based tests of the runtime-dispatched SIMD kernel layer: the
//! elementwise primitives are *bit-identical* across every level the host
//! supports, and the reassociating energy contraction is bounded by O(n·ε)
//! against the sequential `off` baseline. (The transform does not dispatch
//! on a level; its own bit-identity properties are in `stockham.rs`.)

use liair_math::rng::SplitMix64;
use liair_math::simd::{self, SimdLevel};
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

    /// Every elementwise primitive produces bit-identical output at every
    /// available level, for lengths exercising remainders of every lane
    /// count.
    #[test]
    fn elementwise_primitives_bit_identical(n in 0usize..300, seed in 0u64..1000) {
        let a = random_real(n, seed);
        let b = random_real(n, seed ^ 0xb);
        let z = random_signal(n, seed ^ 0x2);
        let table = random_real(n, seed ^ 0x7);
        let mut mul_ref = vec![0.0; n];
        let mut axpy_ref = a.clone();
        let mut tab_ref = z.clone();
        simd::mul_into_with(SimdLevel::Off, &mut mul_ref, &a, &b);
        simd::axpy_with(SimdLevel::Off, &mut axpy_ref, 0.37, &b);
        simd::scale_by_table_with(SimdLevel::Off, &mut tab_ref, &table);
        for &level in &simd::available_levels() {
            let mut mul = vec![0.0; n];
            let mut axpy = a.clone();
            let mut tab = z.clone();
            simd::mul_into_with(level, &mut mul, &a, &b);
            simd::axpy_with(level, &mut axpy, 0.37, &b);
            simd::scale_by_table_with(level, &mut tab, &table);
            prop_assert!(mul == mul_ref, "mul_into diverges at {:?}", level);
            prop_assert!(axpy == axpy_ref, "axpy diverges at {:?}", level);
            for i in 0..n {
                prop_assert!(
                    tab[i].re.to_bits() == tab_ref[i].re.to_bits()
                        && tab[i].im.to_bits() == tab_ref[i].im.to_bits(),
                    "scale_by_table diverges at {:?} index {}", level, i
                );
            }
        }
    }

    /// The energy contraction: the vector level reassociates the
    /// sequential `off` sum and is bounded by 4·n·ε relative on these
    /// non-negative sums.
    #[test]
    fn weighted_energy_agreement(n in 0usize..2000, seed in 0u64..1000) {
        let z = random_signal(n, seed);
        let wk: Vec<f64> = random_real(n, seed ^ 0x5).iter().map(|v| v + 0.6).collect();
        let e_off = simd::weighted_energy_with(SimdLevel::Off, &z, &wk);
        let tol = 4.0 * n.max(1) as f64 * f64::EPSILON * e_off.abs().max(1e-300);
        for &level in &simd::available_levels() {
            let e = simd::weighted_energy_with(level, &z, &wk);
            prop_assert!((e - e_off).abs() <= tol, "off {e_off} vs {:?} {e}", level);
        }
    }
}
