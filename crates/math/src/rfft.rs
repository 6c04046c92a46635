//! Real-input 3-D FFTs (r2c / c2r) over the Hermitian half-spectrum.
//!
//! The pair densities in the exchange kernel are real fields, so their
//! spectra are Hermitian: `X(-k) = conj(X(k))`. Storing only the
//! non-redundant half — `nz/2 + 1` bins along the contiguous `z` axis —
//! halves both the transform work on that axis and the memory traffic of
//! every later axis, which together buy roughly a 2× speedup of a full
//! pair-Poisson solve versus the complex-to-complex path.
//!
//! Every axis runs the row-batched plans of [`crate::plan`]:
//!
//! * **z** is r2c/c2r on a *block* of rows at once. Even lengths use the
//!   pack-and-untangle trick — the `nz` reals of a row are packed as
//!   `z_j = x_{2j} + i·x_{2j+1}`, one `nz/2`-point complex transform runs,
//!   and the even/odd sub-spectra are untangled with a twiddle — with the
//!   rows of the block side by side, so the transform streams across rows
//!   and the untangle broadcasts one twiddle per bin. Odd lengths go
//!   through the full-length complex plan and keep the first `nz/2 + 1`
//!   bins (the c2r side reconstructs the rest by symmetry). A 1-D real
//!   transform is the `(1, 1, n)` case.
//! * **y** and **x** are the complex axis routine [`crate::fft3`] also
//!   uses; `y` runs right behind `z` on each `x`-slab while it is hot.
//!
//! Conventions match [`crate::fft`]: the forward transform is
//! unnormalized — bin `(ix, iy, iz)` of [`rfft3_into`] equals bin
//! `(ix, iy, iz)` of [`crate::fft3::fft3`] for `iz < nz/2 + 1` — and the
//! inverse is exact (`irfft3_into ∘ rfft3_into` is the identity; the whole
//! `1/(nx·ny·nz)` rides on the c2r pre-untangle).
//!
//! The transforms run on the calling thread: in the per-pair exchange loop
//! each task owns one whole transform, and the parallelism is over pairs.
//! All plans live in the one process-wide cache and the work space is
//! thread-local and grow-only, so a transform performs zero steady-state
//! heap allocations.

use crate::complex::Complex64;
use crate::fft3::{axis, axis_work_len, block_width};
use crate::plan::{plan, with_scratch, FftPlan};
use std::sync::Arc;

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

/// The plans of one 3-D real transform and the work space it needs.
struct Plans {
    x: Arc<FftPlan>,
    y: Arc<FftPlan>,
    /// Length `nz/2` (packed) for even `nz`, `nz` itself for odd.
    z: Arc<FftPlan>,
    /// Rows per z block.
    rows: usize,
    work_len: usize,
}

impl Plans {
    fn new((nx, ny, nz): (usize, usize, usize)) -> Plans {
        let nzh = nz / 2 + 1;
        let (x, y) = (plan(nx), plan(ny));
        let z = plan(if nz.is_multiple_of(2) { nz / 2 } else { nz });
        let rows = block_width(z.len(), ny);
        let work_len = (z.len() * rows + z.work_len(rows))
            .max(axis_work_len(&y, nzh))
            .max(axis_work_len(&x, ny * nzh));
        Plans {
            x,
            y,
            z,
            rows,
            work_len,
        }
    }
}

/// Forward 3-D r2c on the calling thread, writing the `(nx, ny, nz/2+1)`
/// half-spectrum into `half`. Zero steady-state heap allocation.
pub fn rfft3_into(real: &[f64], dims: (usize, usize, usize), half: &mut [Complex64]) {
    let (nx, ny, nz) = dims;
    let nzh = nz / 2 + 1;
    assert_eq!(real.len(), nx * ny * nz, "real field does not match dims");
    assert_eq!(half.len(), nx * ny * nzh, "half buffer does not match dims");
    let p = Plans::new(dims);
    with_scratch(p.work_len, |work| {
        let slabs = real
            .chunks_exact(ny * nz)
            .zip(half.chunks_exact_mut(ny * nzh));
        for (slab_in, slab_out) in slabs {
            let blocks = slab_in
                .chunks(p.rows * nz)
                .zip(slab_out.chunks_mut(p.rows * nzh));
            for (rows_in, rows_out) in blocks {
                r2c_rows(&p.z, nz, rows_in, rows_out, work);
            }
            axis(&p.y, false, 1.0, slab_out, nzh, work);
        }
        axis(&p.x, false, 1.0, half, ny * nzh, work);
    });
}

/// Inverse of [`rfft3_into`]: consumes (destroys) the half-spectrum and
/// writes the recovered real field. Zero steady-state heap allocation.
pub fn irfft3_into(half: &mut [Complex64], dims: (usize, usize, usize), real_out: &mut [f64]) {
    let (nx, ny, nz) = dims;
    let nzh = nz / 2 + 1;
    assert_eq!(
        real_out.len(),
        nx * ny * nz,
        "real field does not match dims"
    );
    assert_eq!(half.len(), nx * ny * nzh, "half buffer does not match dims");
    let p = Plans::new(dims);
    let scale = 1.0 / (nx * ny * nz) as f64;
    with_scratch(p.work_len, |work| {
        axis(&p.x, true, 1.0, half, ny * nzh, work);
        let slabs = half
            .chunks_exact_mut(ny * nzh)
            .zip(real_out.chunks_exact_mut(ny * nz));
        for (slab_in, slab_out) in slabs {
            axis(&p.y, true, 1.0, slab_in, nzh, work);
            let blocks = slab_in
                .chunks(p.rows * nzh)
                .zip(slab_out.chunks_mut(p.rows * nz));
            for (rows_in, rows_out) in blocks {
                c2r_rows(&p.z, nz, scale, rows_in, rows_out, work);
            }
        }
    });
}

/// r2c of a block of rows: `real` is `b` rows of `nz` reals, `half` the
/// same rows' `nz/2 + 1` bins. The rows sit side by side in `work` (bin
/// `j` of row `r` at `j·b + r`) so `pz` transforms them all at once.
fn r2c_rows(pz: &FftPlan, nz: usize, real: &[f64], half: &mut [Complex64], work: &mut [Complex64]) {
    let (h, nzh, b) = (nz / 2, nz / 2 + 1, real.len() / nz);
    let (z, work) = work.split_at_mut(pz.len() * b);
    if nz.is_multiple_of(2) {
        for (r, row) in real.chunks_exact(nz).enumerate() {
            for (j, x) in row.chunks_exact(2).enumerate() {
                z[j * b + r] = Complex64::new(x[0], x[1]);
            }
        }
        pz.rows(false, 1.0, z, b, work);
        // Untangle, two bins per butterfly: X_k = E_k + W_k·O_k and
        // X_{h−k} = conj(E_k − W_k·O_k), with Z_h ≡ Z_0 (periodicity).
        for (k, &w) in pz.untangle()[..=h / 2].iter().enumerate() {
            let (zk, zc) = (&z[k * b..][..b], &z[(h - k) % h * b..][..b]);
            for (r, out) in half.chunks_exact_mut(nzh).enumerate() {
                let (s, d) = (zk[r] + zc[r].conj(), zk[r] - zc[r].conj());
                let (e, o) = (s.scale(0.5), Complex64::new(0.5 * d.im, -0.5 * d.re));
                let wo = w * o;
                out[h - k] = (e - wo).conj();
                out[k] = e + wo;
            }
        }
    } else {
        for (r, row) in real.chunks_exact(nz).enumerate() {
            for (j, &x) in row.iter().enumerate() {
                z[j * b + r] = Complex64::real(x);
            }
        }
        pz.rows(false, 1.0, z, b, work);
        for (r, out) in half.chunks_exact_mut(nzh).enumerate() {
            for (k, o) in out.iter_mut().enumerate() {
                *o = z[k * b + r];
            }
        }
    }
}

/// c2r of a block of rows, the exact inverse of [`r2c_rows`] times
/// `nz·scale`. Only the stored half-spectrum is read; the redundant half
/// is implied by Hermitian symmetry.
fn c2r_rows(
    pz: &FftPlan,
    nz: usize,
    scale: f64,
    half: &[Complex64],
    real: &mut [f64],
    work: &mut [Complex64],
) {
    let (h, nzh, b) = (nz / 2, nz / 2 + 1, real.len() / nz);
    let (z, work) = work.split_at_mut(pz.len() * b);
    if nz.is_multiple_of(2) {
        // The forward untangle halves; undoing it and the packed
        // transform's `h` leaves exactly `scale` on each of e and o. Two
        // bins per butterfly again: Z_k = e + i·o, Z_{h−k} = conj(e − i·o).
        for (k, &w) in pz.untangle()[..=h / 2].iter().enumerate() {
            let w = w.conj().scale(scale);
            for (r, row) in half.chunks_exact(nzh).enumerate() {
                let (xk, xc) = (row[k], row[h - k].conj());
                let (e, o) = ((xk + xc).scale(scale), (xk - xc) * w);
                let io = Complex64::new(-o.im, o.re);
                z[(h - k) % h * b + r] = (e - io).conj();
                z[k * b + r] = e + io;
            }
        }
        pz.rows(true, 1.0, z, b, work);
        for (r, row) in real.chunks_exact_mut(nz).enumerate() {
            for (j, x) in row.chunks_exact_mut(2).enumerate() {
                (x[0], x[1]) = (z[j * b + r].re, z[j * b + r].im);
            }
        }
    } else {
        for (r, row) in half.chunks_exact(nzh).enumerate() {
            for k in 0..nz {
                let x = if k <= h { row[k] } else { row[nz - k].conj() };
                z[k * b + r] = x.scale(scale);
            }
        }
        pz.rows(true, 1.0, z, b, work);
        for (r, row) in real.chunks_exact_mut(nz).enumerate() {
            for (j, x) in row.iter_mut().enumerate() {
                *x = z[j * b + r].re;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::dft_reference;
    use crate::fft3::{fft3, to_complex};
    use crate::rng::SplitMix64;

    fn random_real(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() - 0.5).collect()
    }

    /// 1-D real transforms are the `(1, 1, n)` case of the 3-D entry points.
    fn rfft_1d(x: &[f64]) -> Vec<Complex64> {
        rfft3_vec(x, (1, 1, x.len()))
    }

    #[test]
    fn rfft_matches_complex_fft_1d() {
        for &n in &[1usize, 2, 4, 8, 9, 14, 15, 16, 45, 48, 63, 64, 100] {
            let x = random_real(n, n as u64);
            let half = rfft_1d(&x);
            let full: Vec<Complex64> = x.iter().map(|&r| Complex64::real(r)).collect();
            let want = dft_reference(&full, false);
            for (k, h) in half.iter().enumerate() {
                let err = (*h - want[k]).abs();
                assert!(err < 1e-12 * n as f64, "n={n} bin {k}: err {err}");
            }
        }
    }

    #[test]
    fn irfft_is_exact_inverse_1d() {
        for &n in &[1usize, 2, 6, 8, 9, 14, 27, 32, 48, 81, 96] {
            let x = random_real(n, 7 + n as u64);
            let mut half = rfft_1d(&x);
            let mut back = vec![0.0; n];
            irfft3_into(&mut half, (1, 1, n), &mut back);
            let err = x
                .iter()
                .zip(&back)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-13, "n={n}: roundtrip err {err}");
        }
    }

    fn rfft3_vec(x: &[f64], dims: (usize, usize, usize)) -> Vec<Complex64> {
        let mut half = vec![Complex64::ZERO; half_len(dims)];
        rfft3_into(x, dims, &mut half);
        half
    }

    /// Against the c2c transform, which shares the y/x axis routine but not
    /// the z stage: 12³ and 24³ run mixed-radix passes, 16³ radix 4 alone,
    /// 14³ the Bluestein fallback; (2, 180, 100) splits the z rows, the y
    /// slabs and the x planes into several blocks each.
    #[test]
    fn rfft3_matches_fft3_half_spectrum() {
        let cubes = [12usize, 14, 16, 24].map(|n| (n, n, n));
        for dims in [(4, 4, 4), (2, 3, 5), (8, 4, 6), (3, 5, 7), (2, 180, 100)]
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
        let cubes = [12usize, 14, 16, 24].map(|n| (n, n, n));
        for dims in [
            (4, 4, 4),
            (2, 3, 5),
            (8, 4, 6),
            (5, 5, 5),
            (6, 5, 8),
            (2, 180, 100),
        ]
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
