//! Property-based tests of the runtime-dispatched SIMD kernel layer: the
//! elementwise and butterfly primitives are *bit-identical* across every
//! level the host supports, and the reassociating energy contraction is
//! bounded by O(n·ε) against the sequential `off` baseline.

use liair_math::rfft::{half_len, rfft3_into_with};
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

/// Shapes covering the packed even r2c path and the odd/Bluestein fallback.
const RFFT_DIMS: [(usize, usize, usize); 6] = [
    (4, 4, 4),
    (8, 8, 8),
    (2, 3, 5),
    (3, 5, 7),
    (8, 4, 6),
    (16, 2, 8),
];

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
        let mut sc_ref = z.clone();
        let mut tab_ref = z.clone();
        simd::mul_into_with(SimdLevel::Off, &mut mul_ref, &a, &b);
        simd::axpy_with(SimdLevel::Off, &mut axpy_ref, 0.37, &b);
        simd::scale_complex_with(SimdLevel::Off, &mut sc_ref, 1.0 / 3.0);
        simd::scale_by_table_with(SimdLevel::Off, &mut tab_ref, &table);
        for &level in &simd::available_levels() {
            let mut mul = vec![0.0; n];
            let mut axpy = a.clone();
            let mut sc = z.clone();
            let mut tab = z.clone();
            simd::mul_into_with(level, &mut mul, &a, &b);
            simd::axpy_with(level, &mut axpy, 0.37, &b);
            simd::scale_complex_with(level, &mut sc, 1.0 / 3.0);
            simd::scale_by_table_with(level, &mut tab, &table);
            prop_assert!(mul == mul_ref, "mul_into diverges at {:?}", level);
            prop_assert!(axpy == axpy_ref, "axpy diverges at {:?}", level);
            for i in 0..n {
                prop_assert!(
                    sc[i].re.to_bits() == sc_ref[i].re.to_bits()
                        && sc[i].im.to_bits() == sc_ref[i].im.to_bits(),
                    "scale_complex diverges at {:?} index {}", level, i
                );
                prop_assert!(
                    tab[i].re.to_bits() == tab_ref[i].re.to_bits()
                        && tab[i].im.to_bits() == tab_ref[i].im.to_bits(),
                    "scale_by_table diverges at {:?} index {}", level, i
                );
            }
        }
    }

    /// pack/unpack are bit-identical across levels and invert each other.
    #[test]
    fn pack_unpack_bit_identical(half in 0usize..150, seed in 0u64..1000) {
        let reals = random_real(2 * half, seed);
        let mut packed_ref = vec![Complex64::ZERO; half];
        simd::pack_complex_with(SimdLevel::Off, &mut packed_ref, &reals);
        for &level in &simd::available_levels() {
            let mut packed = vec![Complex64::ZERO; half];
            let mut unpacked = vec![0.0; 2 * half];
            simd::pack_complex_with(level, &mut packed, &reals);
            simd::unpack_complex_with(level, &mut unpacked, &packed);
            for i in 0..half {
                prop_assert!(
                    packed[i].re.to_bits() == packed_ref[i].re.to_bits()
                        && packed[i].im.to_bits() == packed_ref[i].im.to_bits(),
                    "pack diverges at {:?} index {}", level, i
                );
            }
            prop_assert!(unpacked == reals, "pack/unpack roundtrip at {:?}", level);
        }
    }

    /// Radix-2 butterfly passes are bit-identical across levels for every
    /// (len, step) stage of a power-of-two transform.
    #[test]
    fn butterfly_pass_bit_identical(logn in 1u32..7, seed in 0u64..1000) {
        let n = 1usize << logn;
        let data0 = random_signal(n, seed);
        let tw = random_signal(n / 2, seed ^ 0x77);
        let mut len = 2;
        while len <= n {
            let step = n / len;
            let mut reference = data0.clone();
            simd::butterfly_pass_with(SimdLevel::Off, &mut reference, &tw, len, step);
            for &level in &simd::available_levels() {
                let mut data = data0.clone();
                simd::butterfly_pass_with(level, &mut data, &tw, len, step);
                for i in 0..n {
                    prop_assert!(
                        data[i].re.to_bits() == reference[i].re.to_bits()
                            && data[i].im.to_bits() == reference[i].im.to_bits(),
                        "butterfly len={} step={} diverges at {:?} index {}",
                        len, step, level, i
                    );
                }
            }
            len *= 2;
        }
    }

    /// The full 3-D r2c transform — pack, butterflies, twiddles, untangle —
    /// is bit-identical at every level, on even and odd grid shapes.
    #[test]
    fn rfft3_bit_identical_across_levels(pick in 0usize..6, seed in 0u64..1000) {
        let dims = RFFT_DIMS[pick];
        let x = random_real(dims.0 * dims.1 * dims.2, seed);
        let mut reference = vec![Complex64::ZERO; half_len(dims)];
        rfft3_into_with(SimdLevel::Off, &x, dims, &mut reference);
        for &level in &simd::available_levels() {
            let mut half = vec![Complex64::ZERO; half_len(dims)];
            rfft3_into_with(level, &x, dims, &mut half);
            for i in 0..half.len() {
                prop_assert!(
                    half[i].re.to_bits() == reference[i].re.to_bits()
                        && half[i].im.to_bits() == reference[i].im.to_bits(),
                    "rfft3 {:?} diverges at {:?} bin {}", dims, level, i
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
