//! Property-based tests of the numerical kernels.

use liair_math::linalg::{eigh, try_solve, Mat};
use liair_math::plan::plan;
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

/// Mix of power-of-two and mixed-radix grid shapes (odd `x` and `y`
/// included), indexed so proptest can pick one.
const RFFT_DIMS: [(usize, usize, usize); 8] = [
    (4, 4, 4),
    (8, 8, 8),
    (2, 3, 10),
    (3, 5, 6),
    (8, 4, 6),
    (5, 5, 10),
    (4, 9, 12),
    (16, 2, 8),
];

/// Every `2ᵃ3ᵇ5ᶜ` length below 200, the lengths a plan accepts.
fn smooth_lengths() -> Vec<usize> {
    (1..200)
        .filter(|&n| {
            let mut m = n;
            for p in [2, 3, 5] {
                while m % p == 0 {
                    m /= p;
                }
            }
            m == 1
        })
        .collect()
}

/// The naive 3-D DFT of a real field, on the stored half-spectrum bins.
fn naive_rdft3(x: &[f64], (nx, ny, nz): (usize, usize, usize)) -> Vec<Complex64> {
    let mut out = Vec::with_capacity(half_len((nx, ny, nz)));
    for kx in 0..nx {
        for ky in 0..ny {
            for kz in 0..nz / 2 + 1 {
                let mut acc = Complex64::ZERO;
                for (j, &v) in x.iter().enumerate() {
                    let (jx, jy, jz) = (j / (ny * nz), j / nz % ny, j % nz);
                    let turns = (kx * jx % nx) as f64 / nx as f64
                        + (ky * jy % ny) as f64 / ny as f64
                        + (kz * jz % nz) as f64 / nz as f64;
                    acc += Complex64::cis(-2.0 * std::f64::consts::PI * turns).scale(v);
                }
                out.push(acc);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// FFT round-trip is the identity for any length a plan accepts.
    #[test]
    fn fft_roundtrip_any_length(pick in 0usize..1000, seed in 0u64..1000) {
        let lengths = smooth_lengths();
        let n = lengths[pick % lengths.len()];
        let x = random_signal(n, seed);
        let mut y = x.clone();
        let p = plan(n);
        p.fft(&mut y);
        p.ifft(&mut y);
        let err = x.iter().zip(&y).map(|(a, b)| (*a - *b).abs()).fold(0.0, f64::max);
        prop_assert!(err < 1e-9, "n={n}: err {err}");
    }

    /// Parseval's theorem for any length a plan accepts.
    #[test]
    fn fft_parseval(pick in 0usize..1000, seed in 0u64..1000) {
        let lengths = smooth_lengths();
        let n = lengths[pick % lengths.len()];
        let x = random_signal(n, seed);
        let te: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let mut y = x.clone();
        plan(n).fft(&mut y);
        let fe: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((te - fe).abs() < 1e-8 * te.max(1.0));
    }

    /// The real-FFT round-trip irfft3_into ∘ rfft3_into is the identity
    /// for any grid shape.
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

    /// The half-spectrum bins of rfft3_into agree with the naive 3-D DFT
    /// on random real fields.
    #[test]
    fn rfft3_matches_the_naive_dft(pick in 0usize..8, seed in 0u64..1000) {
        let dims = RFFT_DIMS[pick];
        let n = dims.0 * dims.1 * dims.2;
        let x = random_real(n, seed);
        let half = rfft3_vec(&x, dims);
        let want = naive_rdft3(&x, dims);
        for (i, (a, b)) in half.iter().zip(&want).enumerate() {
            let err = (*a - *b).abs();
            prop_assert!(
                err < 1e-9 * (n as f64).max(8.0),
                "dims {dims:?} bin {i}: err {err}"
            );
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
            let w = if iz == 0 || iz == nzh - 1 { 1.0 } else { 2.0 };
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
