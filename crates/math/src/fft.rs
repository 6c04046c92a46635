//! 1-D complex FFTs (convenience entry points).
//!
//! These free functions delegate to the process-wide plan cache in
//! [`crate::plan`]: the first transform of a given length builds its pass
//! twiddles — mixed-radix (4, 2, 3, 5) Stockham passes for `2ᵃ3ᵇ5ᶜ`
//! lengths, the Bluestein chirp plus its precomputed spectrum for lengths
//! with a prime factor ≥ 7 — and every later call reuses them. Hot loops
//! should fetch the plan once with [`crate::plan::plan`], and hand it
//! many pencils at a time ([`crate::plan::FftPlan::fft_rows`]).
//!
//! Convention: [`fft`] is unnormalized, [`ifft`] applies the `1/n` factor,
//! so `ifft(fft(x)) == x`.

use crate::complex::Complex64;
use crate::plan::plan;

/// In-place forward DFT: `X_k = Σ_j x_j e^{-2πijk/n}`.
pub fn fft(data: &mut [Complex64]) {
    if data.len() <= 1 {
        return;
    }
    plan(data.len()).fft(data);
}

/// In-place inverse DFT with `1/n` normalization.
pub fn ifft(data: &mut [Complex64]) {
    if data.len() <= 1 {
        return;
    }
    plan(data.len()).ifft(data);
}

/// Out-of-place naive DFT — O(n²), used as the oracle in tests and for tiny
/// transforms where set-up cost dominates.
pub fn dft_reference(input: &[Complex64], inverse: bool) -> Vec<Complex64> {
    let n = input.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    (0..n)
        .map(|k| {
            let mut acc = Complex64::ZERO;
            for (j, &x) in input.iter().enumerate() {
                let ang = sign * 2.0 * std::f64::consts::PI * (j * k % n) as f64 / n as f64;
                acc += x * Complex64::cis(ang);
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn random_signal(n: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| Complex64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
            .collect()
    }

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_reference_pow2() {
        for &n in &[1usize, 2, 4, 8, 64, 256] {
            let x = random_signal(n, n as u64);
            let want = dft_reference(&x, false);
            let mut got = x.clone();
            fft(&mut got);
            assert!(max_err(&got, &want) < 1e-9 * n as f64, "n={n}");
        }
    }

    #[test]
    fn matches_reference_arbitrary() {
        for &n in &[3usize, 5, 6, 7, 12, 15, 30, 100, 125] {
            let x = random_signal(n, 31 + n as u64);
            let want = dft_reference(&x, false);
            let mut got = x.clone();
            fft(&mut got);
            assert!(max_err(&got, &want) < 1e-8 * n as f64, "n={n}");
        }
    }

    #[test]
    fn roundtrip_identity() {
        for &n in &[16usize, 60, 128, 81] {
            let x = random_signal(n, 7 + n as u64);
            let mut y = x.clone();
            fft(&mut y);
            ifft(&mut y);
            assert!(max_err(&y, &x) < 1e-10, "n={n}");
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 128;
        let x = random_signal(n, 99);
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let mut y = x.clone();
        fft(&mut y);
        let freq_energy: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-10 * time_energy);
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let mut x = vec![Complex64::ZERO; 32];
        x[0] = Complex64::ONE;
        fft(&mut x);
        for z in &x {
            assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn pure_tone_has_single_bin() {
        // x_j = e^{2πi·3j/32} should transform to n·δ_{k,3} (with the e^{-..}
        // convention the +3 tone lands in bin 3).
        let n = 32;
        let mut x: Vec<Complex64> = (0..n)
            .map(|j| Complex64::cis(2.0 * std::f64::consts::PI * 3.0 * j as f64 / n as f64))
            .collect();
        fft(&mut x);
        for (k, z) in x.iter().enumerate() {
            let expect = if k == 3 { n as f64 } else { 0.0 };
            assert!((z.re - expect).abs() < 1e-9 && z.im.abs() < 1e-9, "bin {k}");
        }
    }
}
