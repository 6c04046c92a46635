//! Property-based tests of the numerical kernels.

use liair_math::fft::{dft_reference, fft, ifft};
use liair_math::fft3::{fft3, to_complex};
use liair_math::linalg::{eigh, try_solve, Mat};
use liair_math::rfft::{half_len, irfft3_into, rfft3_into};
use liair_math::rng::SplitMix64;
use liair_math::special::{boys, erf};
use liair_math::Complex64;
use proptest::prelude::*;

fn random_signal(n: usize, seed: u64) -> Vec<Complex64> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| Complex64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
        .collect()
}

fn random_real(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_f64() - 0.5).collect()
}

fn rfft3_vec(x: &[f64], dims: (usize, usize, usize)) -> Vec<Complex64> {
    let mut half = vec![Complex64::ZERO; half_len(dims)];
    rfft3_into(x, dims, &mut half);
    half
}

/// Mix of power-of-two and odd/mixed grid shapes, indexed so proptest can
/// pick one: both the packed even r2c path and the odd fallback run.
const RFFT_DIMS: [(usize, usize, usize); 8] = [
    (4, 4, 4),
    (8, 8, 8),
    (2, 3, 5),
    (3, 5, 7),
    (8, 4, 6),
    (5, 5, 5),
    (4, 6, 9),
    (16, 2, 8),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// FFT round-trip is the identity for any length (mixed-radix and
    /// Bluestein paths both covered).
    #[test]
    fn fft_roundtrip_any_length(n in 1usize..200, seed in 0u64..1000) {
        let x = random_signal(n, seed);
        let mut y = x.clone();
        fft(&mut y);
        ifft(&mut y);
        let err = x.iter().zip(&y).map(|(a, b)| (*a - *b).abs()).fold(0.0, f64::max);
        prop_assert!(err < 1e-9, "n={n}: err {err}");
    }

    /// Parseval's theorem for arbitrary length.
    #[test]
    fn fft_parseval(n in 2usize..128, seed in 0u64..1000) {
        let x = random_signal(n, seed);
        let te: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let mut y = x.clone();
        fft(&mut y);
        let fe: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((te - fe).abs() < 1e-8 * te.max(1.0));
    }

    /// FFT matches the O(n²) reference DFT on awkward (prime) lengths.
    #[test]
    fn fft_matches_reference_on_primes(pick in 0usize..8, seed in 0u64..500) {
        let primes = [3usize, 7, 11, 13, 17, 19, 23, 29];
        let n = primes[pick];
        let x = random_signal(n, seed);
        let want = dft_reference(&x, false);
        let mut got = x;
        fft(&mut got);
        let err = got.iter().zip(&want).map(|(a, b)| (*a - *b).abs()).fold(0.0, f64::max);
        prop_assert!(err < 1e-9, "n={n}: err {err}");
    }

    /// The real-FFT round-trip irfft3_into ∘ rfft3_into is the identity
    /// for any grid shape (even pack-trick and odd fallback paths both
    /// covered).
    #[test]
    fn rfft3_roundtrip_is_identity(pick in 0usize..8, seed in 0u64..1000) {
        let dims = RFFT_DIMS[pick];
        let n = dims.0 * dims.1 * dims.2;
        let x = random_real(n, seed);
        let mut half = rfft3_vec(&x, dims);
        let mut back = vec![0.0; n];
        irfft3_into(&mut half, dims, &mut back);
        let err = x.iter().zip(&back).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        prop_assert!(err < 1e-10, "dims {dims:?}: err {err}");
    }

    /// The half-spectrum bins of rfft3_into agree with the matching bins
    /// of the complex fft3 on random real fields.
    #[test]
    fn rfft3_matches_fft3(pick in 0usize..8, seed in 0u64..1000) {
        let dims = RFFT_DIMS[pick];
        let (nx, ny, nz) = dims;
        let x = random_real(nx * ny * nz, seed);
        let half = rfft3_vec(&x, dims);
        let mut full = to_complex(&x, dims);
        fft3(&mut full);
        let nzh = nz / 2 + 1;
        for ix in 0..nx {
            for iy in 0..ny {
                for iz in 0..nzh {
                    let err = (half[(ix * ny + iy) * nzh + iz] - *full.get(ix, iy, iz)).abs();
                    prop_assert!(
                        err < 1e-9 * ((nx * ny * nz) as f64).max(8.0),
                        "dims {dims:?} bin ({ix},{iy},{iz}): err {err}"
                    );
                }
            }
        }
    }

    /// Parseval on the half-spectrum: Σ x² = (1/N)·Σ w_k |X_k|² with
    /// weight 1 on the self-conjugate z-planes and 2 elsewhere.
    #[test]
    fn rfft3_parseval_half_spectrum(pick in 0usize..8, seed in 0u64..1000) {
        let dims = RFFT_DIMS[pick];
        let (nx, ny, nz) = dims;
        let n = nx * ny * nz;
        let x = random_real(n, seed);
        let time: f64 = x.iter().map(|v| v * v).sum();
        let half = rfft3_vec(&x, dims);
        let nzh = nz / 2 + 1;
        let mut freq = 0.0;
        for (i, h) in half.iter().enumerate() {
            let iz = i % nzh;
            let w = if iz == 0 || (nz % 2 == 0 && iz == nzh - 1) { 1.0 } else { 2.0 };
            freq += w * h.norm_sqr();
        }
        freq /= n as f64;
        prop_assert!((time - freq).abs() < 1e-9 * time.max(1.0), "dims {dims:?}: {time} vs {freq}");
    }

    /// The Jacobi eigensolver reconstructs any symmetric matrix.
    #[test]
    fn eigh_reconstruction(n in 1usize..12, seed in 0u64..500) {
        let mut rng = SplitMix64::new(seed);
        let mut a = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = rng.next_f64() * 2.0 - 1.0;
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let (vals, vecs) = eigh(&a);
        let mut lam = Mat::zeros(n, n);
        for i in 0..n {
            lam[(i, i)] = vals[i];
        }
        let rec = vecs.matmul(&lam).matmul(&vecs.transpose());
        prop_assert!(rec.sub(&a).fro_norm() < 1e-9 * (1.0 + a.fro_norm()));
        // Eigenvalues ascending.
        for w in vals.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-12);
        }
    }

    /// LU solve inverts any well-conditioned random system.
    #[test]
    fn solve_recovers_solution(n in 1usize..15, seed in 0u64..500) {
        let mut rng = SplitMix64::new(seed);
        let mut a = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = rng.next_f64() - 0.5;
            }
            a[(i, i)] += 3.0; // diagonal dominance → well-conditioned
        }
        let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 2.0).collect();
        let b = a.matvec(&x_true);
        let x = try_solve(&a, &b).expect("well-conditioned");
        for (g, w) in x.iter().zip(&x_true) {
            prop_assert!((g - w).abs() < 1e-8);
        }
    }

    /// Boys values are positive, decreasing in m, and satisfy the
    /// downward recursion everywhere.
    #[test]
    fn boys_recursion_everywhere(x in 0.0f64..200.0) {
        let f = boys(8, x);
        for m in 0..8 {
            prop_assert!(f[m] > 0.0);
            prop_assert!(f[m + 1] <= f[m] + 1e-15);
            if x > 1e-10 {
                let rhs = ((2 * m + 1) as f64 * f[m] - (-x).exp()) / (2.0 * x);
                prop_assert!((f[m + 1] - rhs).abs() < 1e-8 * (1.0 + f[m]), "m={m} x={x}");
            }
        }
    }

    /// erf is odd, bounded, and monotone.
    #[test]
    fn erf_properties(x in -6.0f64..6.0, dx in 1e-6f64..0.5) {
        prop_assert!((erf(x) + erf(-x)).abs() < 1e-13);
        prop_assert!(erf(x).abs() <= 1.0);
        prop_assert!(erf(x + dx) >= erf(x));
    }
}
