//! Threaded 3-D complex FFTs over [`Array3`] grids.
//!
//! The transform is applied axis by axis:
//!
//! * the `z` axis is contiguous in memory, so rows are transformed in place
//!   (one rayon task per batch of rows);
//! * the `y` axis is handled per `x`-slab — each slab is a disjoint `&mut`
//!   chunk, gathered into a thread-local scratch line;
//! * the `x` axis is the long stride: the array is transposed into an
//!   `(ny·nz) × nx` row-major scratch, rows transformed, and transposed back.
//!
//! This mirrors the node-local threaded FFT the paper runs with 64 hardware
//! threads per BG/Q node; here the threading is rayon. It is the only
//! threaded 3-D driver in the crate, and it stays for two callers: one
//! whole-grid transform at a time with nothing else to parallelize over
//! (`liair-xc`'s spectral density gradient), and the tests of
//! [`crate::rfft`] and `liair-grid`, which use the c2c result as the
//! oracle for the r2c path. The per-pair exchange loop, where each task
//! owns one whole transform and must not allocate or nest parallelism,
//! runs the serial r2c path of [`crate::rfft`] instead.
//!
//! Plans are fetched once per axis from the process-wide cache.

use crate::array3::Array3;
use crate::complex::Complex64;
use crate::plan::plan;
use crate::simd;
use rayon::prelude::*;

/// Forward 3-D FFT, unnormalized.
pub fn fft3(a: &mut Array3<Complex64>) {
    transform3(a, false);
}

/// Inverse 3-D FFT with `1/(nx·ny·nz)` normalization.
pub fn ifft3(a: &mut Array3<Complex64>) {
    transform3(a, true);
}

fn transform3(a: &mut Array3<Complex64>, inverse: bool) {
    let (nx, ny, nz) = a.dims();
    // One cache lookup per axis, not one per line; one SIMD-level resolve.
    let (px, py, pz) = (plan(nx), plan(ny), plan(nz));
    let level = simd::level();

    // --- z axis: contiguous rows ---
    {
        let pz = &pz;
        a.as_mut_slice()
            .par_chunks_mut(nz)
            .for_each(|row| pz.line(level, inverse, row));
    }

    // --- y axis: per-x slab, strided by nz ---
    {
        let py = &py;
        a.as_mut_slice().par_chunks_mut(ny * nz).for_each_init(
            || vec![Complex64::ZERO; ny],
            |scratch, slab| {
                for iz in 0..nz {
                    for iy in 0..ny {
                        scratch[iy] = slab[iy * nz + iz];
                    }
                    py.line(level, inverse, scratch);
                    for iy in 0..ny {
                        slab[iy * nz + iz] = scratch[iy];
                    }
                }
            },
        );
    }

    // --- x axis: transpose to (ny·nz) × nx, transform rows, transpose back ---
    if nx > 1 {
        let plane = ny * nz;
        let mut t = vec![Complex64::ZERO; nx * plane];
        {
            let src = a.as_slice();
            t.par_chunks_mut(nx).enumerate().for_each(|(p, row)| {
                for (ix, v) in row.iter_mut().enumerate() {
                    *v = src[ix * plane + p];
                }
            });
        }
        {
            let px = &px;
            t.par_chunks_mut(nx)
                .for_each(|row| px.line(level, inverse, row));
        }
        {
            let dst = a.as_mut_slice();
            // Scatter back: parallelize over x-slabs of the destination so
            // each task writes a disjoint chunk.
            dst.par_chunks_mut(plane)
                .enumerate()
                .for_each(|(ix, slab)| {
                    for (p, v) in slab.iter_mut().enumerate() {
                        *v = t[p * nx + ix];
                    }
                });
        }
    }
}

/// Convert a real field into a complex work array.
pub fn to_complex(real: &[f64], dims: (usize, usize, usize)) -> Array3<Complex64> {
    let data = real.iter().map(|&r| Complex64::real(r)).collect();
    Array3::from_vec(dims, data)
}

/// Extract the real parts of a complex grid (imaginary parts are discarded —
/// callers assert they are negligible where that is an invariant).
pub fn to_real(c: &Array3<Complex64>) -> Vec<f64> {
    c.as_slice().iter().map(|z| z.re).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::dft_reference;
    use crate::rng::SplitMix64;

    fn random_grid(dims: (usize, usize, usize), seed: u64) -> Array3<Complex64> {
        let mut rng = SplitMix64::new(seed);
        let n = dims.0 * dims.1 * dims.2;
        let data = (0..n)
            .map(|_| Complex64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
            .collect();
        Array3::from_vec(dims, data)
    }

    /// Brute-force 3-D DFT by applying the 1-D reference along each axis.
    fn reference3(a: &Array3<Complex64>) -> Array3<Complex64> {
        let (nx, ny, nz) = a.dims();
        let mut out = a.clone();
        // z axis
        for ix in 0..nx {
            for iy in 0..ny {
                let row: Vec<_> = (0..nz).map(|iz| *out.get(ix, iy, iz)).collect();
                let tr = dft_reference(&row, false);
                for iz in 0..nz {
                    *out.get_mut(ix, iy, iz) = tr[iz];
                }
            }
        }
        // y axis
        for ix in 0..nx {
            for iz in 0..nz {
                let row: Vec<_> = (0..ny).map(|iy| *out.get(ix, iy, iz)).collect();
                let tr = dft_reference(&row, false);
                for iy in 0..ny {
                    *out.get_mut(ix, iy, iz) = tr[iy];
                }
            }
        }
        // x axis
        for iy in 0..ny {
            for iz in 0..nz {
                let row: Vec<_> = (0..nx).map(|ix| *out.get(ix, iy, iz)).collect();
                let tr = dft_reference(&row, false);
                for ix in 0..nx {
                    *out.get_mut(ix, iy, iz) = tr[ix];
                }
            }
        }
        out
    }

    #[test]
    fn matches_separable_reference() {
        for dims in [(4, 4, 4), (2, 3, 5), (8, 4, 2)] {
            let a = random_grid(dims, 17);
            let want = reference3(&a);
            let mut got = a.clone();
            fft3(&mut got);
            let err = got
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .map(|(x, y)| (*x - *y).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-9, "dims {dims:?}: err {err}");
        }
    }

    #[test]
    fn roundtrip_identity() {
        let a = random_grid((8, 8, 8), 5);
        let mut b = a.clone();
        fft3(&mut b);
        ifft3(&mut b);
        let err = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-11);
    }

    #[test]
    fn real_field_has_hermitian_spectrum() {
        let dims = (4, 4, 4);
        let mut rng = SplitMix64::new(23);
        let real: Vec<f64> = (0..64).map(|_| rng.next_f64()).collect();
        let mut c = to_complex(&real, dims);
        fft3(&mut c);
        // X(-k) = conj(X(k)) for a real input.
        let (nx, ny, nz) = dims;
        for ix in 0..nx {
            for iy in 0..ny {
                for iz in 0..nz {
                    let a = *c.get(ix, iy, iz);
                    let b = *c.get((nx - ix) % nx, (ny - iy) % ny, (nz - iz) % nz);
                    assert!((a.re - b.re).abs() < 1e-10 && (a.im + b.im).abs() < 1e-10);
                }
            }
        }
    }
}
