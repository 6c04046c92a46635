//! 3-D complex FFTs over [`Array3`] grids, and the axis routine every 3-D
//! transform in the crate runs.
//!
//! A 3-D transform is three sweeps of `axis`, one per dimension. A sweep
//! views the array as `[outer][n][inner]` and hands the plan **rows**: an
//! `[n][inner]` slab that is small enough is transformed where it lies (the
//! `y` axis: each `x`-slab is `ny` rows of `nz` values); a wider one (the
//! `x` axis, whose rows are whole planes) goes block by block — about
//! `BLOCK_ELEMS / n` columns are copied as contiguous runs into the
//! thread-local work space, transformed there so every pass stays in cache,
//! and copied back. No pencil is ever gathered on its own; the contiguous
//! `z` axis of the c2c transform is the `inner = 1` case.
//!
//! [`fft3`]/[`ifft3`] serve one whole-grid transform at a time
//! (`liair-xc`'s spectral density gradient) and are the oracle the tests of
//! [`crate::rfft`] and `liair-grid` hold the r2c path against. The per-pair
//! exchange loop runs [`crate::rfft`], which shares `axis` for `y` and
//! `x`. Everything runs on the calling thread.

use crate::array3::Array3;
use crate::complex::Complex64;
use crate::plan::{plan, with_scratch, FftPlan};

/// Target size, in complex values, of one block of rows (128 KiB: the
/// block and its two work buffers stay in L2). Measured on 16³–64³, longer
/// runs beat a smaller footprint up to here.
const BLOCK_ELEMS: usize = 8192;

/// Columns per block when `inner` pencils of length `n` are transformed:
/// all of them if they fit [`BLOCK_ELEMS`], else an even split.
pub(crate) fn block_width(n: usize, inner: usize) -> usize {
    let cap = (BLOCK_ELEMS / n).max(1);
    inner.div_ceil(inner.div_ceil(cap))
}

/// Work space [`axis`] needs for `plan` over `inner` columns.
pub(crate) fn axis_work_len(plan: &FftPlan, inner: usize) -> usize {
    let bw = block_width(plan.len(), inner);
    let block = if bw == inner { 0 } else { plan.len() * bw };
    block + plan.work_len(bw)
}

/// Transform (and scale) every length-`n` pencil of `data` viewed as
/// `[outer][n][inner]`, `n = plan.len()`.
pub(crate) fn axis(
    plan: &FftPlan,
    inverse: bool,
    scale: f64,
    data: &mut [Complex64],
    inner: usize,
    work: &mut [Complex64],
) {
    let n = plan.len();
    let bw = block_width(n, inner);
    for slab in data.chunks_exact_mut(n * inner) {
        if bw == inner {
            plan.rows(inverse, scale, slab, inner, work);
            continue;
        }
        let (block, work) = work.split_at_mut(n * bw);
        for c0 in (0..inner).step_by(bw) {
            let w = bw.min(inner - c0);
            let block = &mut block[..n * w];
            for (run, row) in block.chunks_exact_mut(w).zip(slab[c0..].chunks(inner)) {
                run.copy_from_slice(&row[..w]);
            }
            plan.rows(inverse, scale, block, w, work);
            for (run, row) in block.chunks_exact(w).zip(slab[c0..].chunks_mut(inner)) {
                row[..w].copy_from_slice(run);
            }
        }
    }
}

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
    // One cache lookup per axis, not one per slab.
    let axes = [(plan(nz), 1), (plan(ny), nz), (plan(nx), ny * nz)];
    let need = axes.iter().map(|(p, inner)| axis_work_len(p, *inner)).max();
    with_scratch(need.unwrap_or(0), |work| {
        for (p, inner) in &axes {
            let scale = if inverse { 1.0 / p.len() as f64 } else { 1.0 };
            axis(p, inverse, scale, a.as_mut_slice(), *inner, work);
        }
    });
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
