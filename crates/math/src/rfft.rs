//! Real-input FFTs (r2c / c2r), 1-D and 3-D.
//!
//! The pair densities in the exchange kernel are real fields, so their
//! spectra are Hermitian: `X(-k) = conj(X(k))`. Storing only the
//! non-redundant half — `nz/2 + 1` bins along the contiguous `z` axis —
//! halves both the transform work on that axis and the memory traffic of
//! every later axis, which together buy roughly a 2× speedup of a full
//! pair-Poisson solve versus the complex-to-complex path.
//!
//! * Even lengths use the classic pack-and-untangle trick: the `n` reals
//!   are packed as `z_j = x_{2j} + i·x_{2j+1}`, one `n/2`-point complex FFT
//!   runs, and the even/odd sub-spectra are untangled with a twiddle.
//! * Odd lengths fall back through the complex plan and keep the first
//!   `n/2 + 1` bins (the c2r side reconstructs the rest by symmetry), so
//!   every grid size remains supported.
//!
//! Conventions match [`crate::fft`]: the forward transform is
//! unnormalized — bin `(ix, iy, iz)` of [`rfft3_into`] equals bin
//! `(ix, iy, iz)` of [`crate::fft3::fft3`] for `iz < nz/2 + 1` — and the
//! inverse is exact (`irfft3_into ∘ rfft3_into` is the identity).
//!
//! The 3-D transforms run on the calling thread: in the per-pair exchange
//! loop each task owns one whole transform, and the parallelism is over
//! pairs. All plans live in a process-wide cache and the scratch is
//! thread-local and grow-only, so a transform performs zero steady-state
//! heap allocations. (The threaded 3-D driver is the c2c one in
//! [`crate::fft3`].)

use crate::complex::Complex64;
use crate::plan::{plan, FftPlan};
use crate::simd::{self, SimdLevel};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

thread_local! {
    /// Grow-only pack/untangle scratch for 1-D r2c/c2r rows.
    static PACK_SCRATCH: RefCell<Vec<Complex64>> = const { RefCell::new(Vec::new()) };
    /// Grow-only strided-line scratch for the y/x axes of the 3-D variants.
    static AXIS_SCRATCH: RefCell<Vec<Complex64>> = const { RefCell::new(Vec::new()) };
}

/// A planned 1-D real transform of fixed length.
#[derive(Debug)]
pub struct RealFftPlan {
    n: usize,
    /// `n/2` — the packed sub-transform length (even `n`) and the index of
    /// the Nyquist-or-last stored bin.
    h: usize,
    even: bool,
    /// Untangle twiddles `e^{-2πik/n}` for `k ≤ n/2` (even lengths only).
    w: Vec<Complex64>,
    /// Complex sub-plan: length `n/2` when even, length `n` when odd.
    sub: Arc<FftPlan>,
}

impl RealFftPlan {
    fn build(n: usize) -> RealFftPlan {
        assert!(n >= 1, "real FFT length must be positive");
        let even = n.is_multiple_of(2) && n >= 2;
        let h = n / 2;
        let sub = if even { plan(h.max(1)) } else { plan(n) };
        let w = if even {
            let step = -2.0 * std::f64::consts::PI / n as f64;
            (0..=h).map(|k| Complex64::cis(step * k as f64)).collect()
        } else {
            Vec::new()
        };
        RealFftPlan { n, h, even, w, sub }
    }

    /// The real-signal length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for the degenerate length-1 plan.
    pub fn is_empty(&self) -> bool {
        self.n == 1
    }

    /// Number of stored spectrum bins: `n/2 + 1`.
    pub fn half_len(&self) -> usize {
        self.h + 1
    }

    /// Forward r2c: `out[k] = Σ_j x_j e^{-2πijk/n}` for `k ≤ n/2`
    /// (unnormalized; identical to the first `n/2 + 1` bins of [`crate::fft::fft`]).
    pub fn rfft(&self, input: &[f64], out: &mut [Complex64]) {
        self.rfft_with(simd::level(), input, out);
    }

    /// [`RealFftPlan::rfft`] at an explicit SIMD level.
    pub fn rfft_with(&self, level: SimdLevel, input: &[f64], out: &mut [Complex64]) {
        assert_eq!(input.len(), self.n, "input length does not match plan");
        assert_eq!(out.len(), self.half_len(), "output must hold n/2 + 1 bins");
        if self.n == 1 {
            out[0] = Complex64::real(input[0]);
            return;
        }
        PACK_SCRATCH.with(|cell| {
            let mut buf = cell.borrow_mut();
            let need = if self.even { self.h } else { self.n };
            if buf.len() < need {
                buf.resize(need, Complex64::ZERO);
            }
            let z = &mut buf[..need];
            if self.even {
                let h = self.h;
                simd::pack_complex_with(level, z, input);
                self.sub.fft_with(level, z);
                // Untangle: E_k + W_k·O_k with Z_h ≡ Z_0 (periodicity).
                for (k, ok) in out.iter_mut().enumerate() {
                    let zk = z[k % h];
                    let zc = z[(h - k) % h].conj();
                    let e = (zk + zc).scale(0.5);
                    let o = (zk - zc) * Complex64::new(0.0, -0.5);
                    *ok = e + self.w[k] * o;
                }
            } else {
                for (zj, &xj) in z.iter_mut().zip(input) {
                    *zj = Complex64::real(xj);
                }
                self.sub.fft_with(level, z);
                out.copy_from_slice(&z[..self.half_len()]);
            }
        });
    }

    /// Inverse c2r: exact inverse of [`Self::rfft`] (the `1/n` lives here).
    /// Only the stored half-spectrum is read; the redundant half is implied
    /// by Hermitian symmetry.
    pub fn irfft(&self, spec: &[Complex64], out: &mut [f64]) {
        self.irfft_with(simd::level(), spec, out);
    }

    /// [`RealFftPlan::irfft`] at an explicit SIMD level.
    pub fn irfft_with(&self, level: SimdLevel, spec: &[Complex64], out: &mut [f64]) {
        assert_eq!(
            spec.len(),
            self.half_len(),
            "spectrum must hold n/2 + 1 bins"
        );
        assert_eq!(out.len(), self.n, "output length does not match plan");
        if self.n == 1 {
            out[0] = spec[0].re;
            return;
        }
        PACK_SCRATCH.with(|cell| {
            let mut buf = cell.borrow_mut();
            let need = if self.even { self.h } else { self.n };
            if buf.len() < need {
                buf.resize(need, Complex64::ZERO);
            }
            let z = &mut buf[..need];
            if self.even {
                let h = self.h;
                for (k, zk) in z.iter_mut().enumerate() {
                    let xk = spec[k];
                    let xc = spec[h - k].conj();
                    let e = (xk + xc).scale(0.5);
                    let o = (xk - xc).scale(0.5) * self.w[k].conj();
                    *zk = e + Complex64::I * o;
                }
                // The sub-plan's 1/h normalization is exactly the inverse of
                // the packed forward transform — no extra scale.
                self.sub.ifft_with(level, z);
                simd::unpack_complex_with(level, out, z);
            } else {
                let n = self.n;
                z[..spec.len()].copy_from_slice(spec);
                for k in self.half_len()..n {
                    z[k] = spec[n - k].conj();
                }
                self.sub.ifft_with(level, z);
                for (o, zj) in out.iter_mut().zip(z.iter()) {
                    *o = zj.re;
                }
            }
        });
    }
}

static REAL_PLAN_CACHE: OnceLock<Mutex<HashMap<usize, Arc<RealFftPlan>>>> = OnceLock::new();

/// Fetch (or build and cache) the real-transform plan for length `n`.
pub fn real_plan(n: usize) -> Arc<RealFftPlan> {
    let cache = REAL_PLAN_CACHE.get_or_init(Default::default);
    if let Some(p) = cache.lock().unwrap().get(&n) {
        return Arc::clone(p);
    }
    let built = Arc::new(RealFftPlan::build(n));
    Arc::clone(cache.lock().unwrap().entry(n).or_insert(built))
}

/// Dimensions of the stored half-spectrum for a real field of `dims`:
/// `(nx, ny, nz/2 + 1)`, still `z`-contiguous.
pub fn half_dims(dims: (usize, usize, usize)) -> (usize, usize, usize) {
    (dims.0, dims.1, dims.2 / 2 + 1)
}

/// Number of complex bins in the stored half-spectrum.
pub fn half_len(dims: (usize, usize, usize)) -> usize {
    let (hx, hy, hz) = half_dims(dims);
    hx * hy * hz
}

/// Forward 3-D r2c on the calling thread, writing the `(nx, ny, nz/2+1)`
/// half-spectrum into `half`. Zero steady-state heap allocation.
pub fn rfft3_into(real: &[f64], dims: (usize, usize, usize), half: &mut [Complex64]) {
    rfft3_into_with(simd::level(), real, dims, half);
}

/// [`rfft3_into`] at an explicit SIMD level.
pub fn rfft3_into_with(
    level: SimdLevel,
    real: &[f64],
    dims: (usize, usize, usize),
    half: &mut [Complex64],
) {
    let (nx, ny, nz) = dims;
    let nzh = nz / 2 + 1;
    assert_eq!(real.len(), nx * ny * nz, "real field does not match dims");
    assert_eq!(half.len(), nx * ny * nzh, "half buffer does not match dims");

    // z axis: r2c row by row.
    let rp = real_plan(nz);
    for (row_in, row_out) in real.chunks_exact(nz).zip(half.chunks_exact_mut(nzh)) {
        rp.rfft_with(level, row_in, row_out);
    }
    // y and x axes: ordinary complex transforms over the half array.
    complex_axes_serial(level, half, (nx, ny, nzh), false);
}

/// Inverse of [`rfft3_into`]: consumes (destroys) the half-spectrum and
/// writes the recovered real field. Zero steady-state heap allocation.
pub fn irfft3_into(half: &mut [Complex64], dims: (usize, usize, usize), real_out: &mut [f64]) {
    irfft3_into_with(simd::level(), half, dims, real_out);
}

/// [`irfft3_into`] at an explicit SIMD level.
pub fn irfft3_into_with(
    level: SimdLevel,
    half: &mut [Complex64],
    dims: (usize, usize, usize),
    real_out: &mut [f64],
) {
    let (nx, ny, nz) = dims;
    let nzh = nz / 2 + 1;
    assert_eq!(
        real_out.len(),
        nx * ny * nz,
        "real field does not match dims"
    );
    assert_eq!(half.len(), nx * ny * nzh, "half buffer does not match dims");

    complex_axes_serial(level, half, (nx, ny, nzh), true);
    let rp = real_plan(nz);
    for (row_in, row_out) in half.chunks_exact(nzh).zip(real_out.chunks_exact_mut(nz)) {
        rp.irfft_with(level, row_in, row_out);
    }
}

/// Complex transforms along the `y` then `x` axes of a `z`-contiguous
/// array (serial, thread-local scratch). The `z` axis is untouched. This is
/// the strided-axis loop of the pair kernel: gather a pencil, run the 1-D
/// plan, scatter it back.
fn complex_axes_serial(
    level: SimdLevel,
    data: &mut [Complex64],
    dims: (usize, usize, usize),
    inverse: bool,
) {
    let (nx, ny, nzc) = dims;
    let (px, py) = (plan(nx), plan(ny));
    AXIS_SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        let need = nx.max(ny);
        if buf.len() < need {
            buf.resize(need, Complex64::ZERO);
        }
        // y axis: per-x slab, strided by nzc.
        let line = &mut buf[..ny];
        for slab in data.chunks_exact_mut(ny * nzc) {
            for iz in 0..nzc {
                for iy in 0..ny {
                    line[iy] = slab[iy * nzc + iz];
                }
                py.line(level, inverse, line);
                for iy in 0..ny {
                    slab[iy * nzc + iz] = line[iy];
                }
            }
        }
        // x axis: strided by ny·nzc.
        if nx > 1 {
            let plane = ny * nzc;
            let line = &mut buf[..nx];
            for p in 0..plane {
                for ix in 0..nx {
                    line[ix] = data[ix * plane + p];
                }
                px.line(level, inverse, line);
                for ix in 0..nx {
                    data[ix * plane + p] = line[ix];
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{dft_reference, fft};
    use crate::fft3::{fft3, to_complex};
    use crate::rng::SplitMix64;

    fn random_real(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() - 0.5).collect()
    }

    #[test]
    fn rfft_matches_complex_fft_1d() {
        for &n in &[1usize, 2, 4, 8, 9, 15, 16, 48, 63, 64, 100] {
            let x = random_real(n, n as u64);
            let rp = real_plan(n);
            let mut half = vec![Complex64::ZERO; rp.half_len()];
            rp.rfft(&x, &mut half);
            let mut full: Vec<Complex64> = x.iter().map(|&r| Complex64::real(r)).collect();
            fft(&mut full);
            for (k, h) in half.iter().enumerate() {
                let err = (*h - full[k]).abs();
                assert!(err < 1e-10 * n.max(8) as f64, "n={n} bin {k}: err {err}");
            }
        }
    }

    #[test]
    fn irfft_is_exact_inverse_1d() {
        for &n in &[1usize, 2, 6, 8, 9, 27, 32, 48, 81, 96] {
            let x = random_real(n, 7 + n as u64);
            let rp = real_plan(n);
            let mut half = vec![Complex64::ZERO; rp.half_len()];
            rp.rfft(&x, &mut half);
            let mut back = vec![0.0; n];
            rp.irfft(&half, &mut back);
            let err = x
                .iter()
                .zip(&back)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-10, "n={n}: roundtrip err {err}");
        }
    }

    #[test]
    fn odd_length_fallback_matches_reference() {
        let n = 45;
        let x = random_real(n, 3);
        let rp = real_plan(n);
        let mut half = vec![Complex64::ZERO; rp.half_len()];
        rp.rfft(&x, &mut half);
        let full: Vec<Complex64> = x.iter().map(|&r| Complex64::real(r)).collect();
        let want = dft_reference(&full, false);
        for (k, h) in half.iter().enumerate() {
            assert!((*h - want[k]).abs() < 1e-9, "bin {k}");
        }
    }

    fn rfft3_vec(x: &[f64], dims: (usize, usize, usize)) -> Vec<Complex64> {
        let mut half = vec![Complex64::ZERO; half_len(dims)];
        rfft3_into(x, dims, &mut half);
        half
    }

    /// The c2c transform is the oracle: the serial r2c path shares no 3-D
    /// driver with it (12³ and 24³ run Bluestein lines, 16³ radix-2).
    #[test]
    fn rfft3_matches_fft3_half_spectrum() {
        let cubes = [12usize, 16, 24].map(|n| (n, n, n));
        for dims in [(4, 4, 4), (2, 3, 5), (8, 4, 6), (3, 5, 7)]
            .into_iter()
            .chain(cubes)
        {
            let (nx, ny, nz) = dims;
            let x = random_real(nx * ny * nz, 11);
            let half = rfft3_vec(&x, dims);
            let mut full = to_complex(&x, dims);
            fft3(&mut full);
            let nzh = nz / 2 + 1;
            for ix in 0..nx {
                for iy in 0..ny {
                    for iz in 0..nzh {
                        let a = half[(ix * ny + iy) * nzh + iz];
                        let b = *full.get(ix, iy, iz);
                        let err = (a - b).abs();
                        assert!(err < 1e-9, "dims {dims:?} bin ({ix},{iy},{iz}): err {err}");
                    }
                }
            }
        }
    }

    #[test]
    fn irfft3_roundtrip() {
        let cubes = [12usize, 16, 24].map(|n| (n, n, n));
        for dims in [(4, 4, 4), (2, 3, 5), (8, 4, 6), (5, 5, 5), (6, 5, 8)]
            .into_iter()
            .chain(cubes)
        {
            let (nx, ny, nz) = dims;
            let x = random_real(nx * ny * nz, 13);
            let mut half = rfft3_vec(&x, dims);
            let mut back = vec![0.0; nx * ny * nz];
            irfft3_into(&mut half, dims, &mut back);
            let err = x
                .iter()
                .zip(&back)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-10, "dims {dims:?}: err {err}");
        }
    }

    #[test]
    fn parseval_on_half_spectrum() {
        // Σ_r x(r)² == (1/N) Σ_k w_k |X_k|² with w = 1 on the self-conjugate
        // z-planes (iz == 0, and iz == nz/2 for even nz) and w = 2 elsewhere.
        for dims in [(4, 4, 8), (3, 5, 7)] {
            let (nx, ny, nz) = dims;
            let n = nx * ny * nz;
            let x = random_real(n, 19);
            let time: f64 = x.iter().map(|v| v * v).sum();
            let half = rfft3_vec(&x, dims);
            let nzh = nz / 2 + 1;
            let mut freq = 0.0;
            for (i, h) in half.iter().enumerate() {
                let iz = i % nzh;
                let w = if iz == 0 || (nz % 2 == 0 && iz == nzh - 1) {
                    1.0
                } else {
                    2.0
                };
                freq += w * h.norm_sqr();
            }
            freq /= n as f64;
            assert!(
                (time - freq).abs() < 1e-10 * time,
                "dims {dims:?}: {time} vs {freq}"
            );
        }
    }
}
