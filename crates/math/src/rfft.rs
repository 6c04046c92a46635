//! Real-input 3-D FFTs (r2c / c2r) over the Hermitian half-spectrum — the
//! one 3-D transform family of the workspace.
//!
//! The pair densities in the exchange kernel are real fields, so their
//! spectra are Hermitian: `X(-k) = conj(X(k))`. Storing only the
//! non-redundant half — `nz/2 + 1` bins along the contiguous `z` axis —
//! halves both the transform work on that axis and the memory traffic of
//! every later axis.
//!
//! **One admissibility rule:** every extent is `2ᵃ3ᵇ5ᶜ` and `nz` is even
//! ([`supported`]). Both entry points assert it, and so does the grid
//! layer's Poisson solver when it is built; every grid the workspace
//! builds (16³ … 96³, and power-of-two patches) satisfies it.
//!
//! Every axis runs the row-batched plans of [`crate::plan`]:
//!
//! * **z** is r2c/c2r on a *block* of rows at once, by the
//!   pack-and-untangle trick — the `nz` reals of a row are packed as
//!   `z_j = x_{2j} + i·x_{2j+1}`, one `nz/2`-point complex transform runs,
//!   and the even/odd sub-spectra are untangled with a twiddle — with the
//!   rows of the block side by side, so the transform streams across rows
//!   and the untangle broadcasts one twiddle per bin. A 1-D real transform
//!   is the `(1, 1, n)` case.
//! * **y** and **x** are one complex axis routine (`axis`). A sweep views
//!   the array as `[outer][n][inner]` and hands the plan **rows**: an
//!   `[n][inner]` slab that is small enough is transformed where it lies
//!   (`y`: each `x`-slab is `ny` rows of `nz/2 + 1` bins, run right behind
//!   `z` while it is hot); a wider one (`x`, whose rows are whole planes)
//!   goes block by block — about `BLOCK_ELEMS / n` columns are copied as
//!   contiguous runs into the work space, transformed there so every pass
//!   stays in cache, and copied back. No pencil is ever gathered alone.
//!
//! Conventions: the forward transform is unnormalized — bin
//! `(ix, iy, iz)` of [`rfft3_into`] is bin `(ix, iy, iz)` of the full 3-D
//! DFT for `iz < nz/2 + 1` — and the inverse is exact
//! (`irfft3_into ∘ rfft3_into` is the identity; the whole `1/(nx·ny·nz)`
//! rides on the c2r pre-untangle).
//!
//! The transforms run on the calling thread: in the per-pair exchange loop
//! each task owns one whole transform, and the parallelism is over pairs.
//! All plans live in the one process-wide cache and the work space is
//! thread-local and grow-only, so a transform performs zero steady-state
//! heap allocations.

use crate::complex::Complex64;
use crate::plan::{is_smooth, plan, with_scratch, FftPlan};
use std::sync::Arc;

/// The admissibility rule of every 3-D transform: each extent is
/// `2ᵃ3ᵇ5ᶜ` and `nz` is even (`nx`, `ny` may be odd).
pub fn supported((nx, ny, nz): (usize, usize, usize)) -> bool {
    is_smooth(nx) && is_smooth(ny) && is_smooth(nz) && nz.is_multiple_of(2)
}

/// Target size, in complex values, of one block of rows (128 KiB: the
/// block and its two work buffers stay in L2). Measured on 16³–64³, longer
/// runs beat a smaller footprint up to here.
const BLOCK_ELEMS: usize = 8192;

/// Columns per block when `inner` pencils of length `n` are transformed:
/// all of them if they fit [`BLOCK_ELEMS`], else an even split.
fn block_width(n: usize, inner: usize) -> usize {
    let cap = (BLOCK_ELEMS / n).max(1);
    inner.div_ceil(inner.div_ceil(cap))
}

/// Work space [`axis`] needs for `plan` over `inner` columns.
fn axis_work_len(plan: &FftPlan, inner: usize) -> usize {
    let bw = block_width(plan.len(), inner);
    let block = if bw == inner { 0 } else { plan.len() * bw };
    block + plan.work_len(bw)
}

/// Transform (and scale) every length-`n` pencil of `data` viewed as
/// `[outer][n][inner]`, `n = plan.len()`.
fn axis(
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

fn assert_supported(dims: (usize, usize, usize)) {
    assert!(
        supported(dims),
        "grid {dims:?}: every extent must be 2ᵃ3ᵇ5ᶜ and nz even"
    );
}

/// The plans of one 3-D real transform and the work space it needs.
struct Plans {
    x: Arc<FftPlan>,
    y: Arc<FftPlan>,
    /// The packed length `nz/2`.
    z: Arc<FftPlan>,
    /// Rows per z block.
    rows: usize,
    work_len: usize,
}

impl Plans {
    fn new((nx, ny, nz): (usize, usize, usize)) -> Plans {
        let nzh = nz / 2 + 1;
        let (x, y) = (plan(nx), plan(ny));
        let z = plan(nz / 2);
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
///
/// Panics unless `dims` is [`supported`].
pub fn rfft3_into(real: &[f64], dims: (usize, usize, usize), half: &mut [Complex64]) {
    assert_supported(dims);
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
///
/// Panics unless `dims` is [`supported`].
pub fn irfft3_into(half: &mut [Complex64], dims: (usize, usize, usize), real_out: &mut [f64]) {
    assert_supported(dims);
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
    // The forward untangle halves; undoing it and the packed transform's
    // `h` leaves exactly `scale` on each of e and o. Two bins per
    // butterfly again: Z_k = e + i·o, Z_{h−k} = conj(e − i·o).
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::dft_reference;
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
        for &n in &[2usize, 4, 6, 8, 10, 12, 16, 18, 30, 48, 64, 90, 100] {
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
        for &n in &[2usize, 6, 8, 10, 18, 32, 48, 54, 96] {
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

    /// The full complex 3-D DFT of a real field, one pencil at a time
    /// through the 1-D plans: the oracle shares no code with the r2c `z`
    /// stage or the blocked `y`/`x` axes.
    fn c2c3(x: &[f64], (nx, ny, nz): (usize, usize, usize)) -> Vec<Complex64> {
        let mut a: Vec<Complex64> = x.iter().map(|&r| Complex64::real(r)).collect();
        for (n, stride) in [(nz, 1), (ny, nz), (nx, ny * nz)] {
            let p = plan(n);
            let mut pencil = vec![Complex64::ZERO; n];
            for start in (0..a.len()).filter(|s| s / stride % n == 0) {
                for (j, v) in pencil.iter_mut().enumerate() {
                    *v = a[start + j * stride];
                }
                p.fft(&mut pencil);
                for (j, &v) in pencil.iter().enumerate() {
                    a[start + j * stride] = v;
                }
            }
        }
        a
    }

    /// 12³ and 24³ run mixed-radix passes, 16³ radix 4 alone, 20³ radices
    /// 4 and 5, (3, 5, 8) odd `x` and `y`; (2, 180, 100) splits the z rows,
    /// the y slabs and the x planes into several blocks each.
    #[test]
    fn rfft3_matches_c2c_half_spectrum() {
        let cubes = [12usize, 16, 20, 24].map(|n| (n, n, n));
        for dims in [(4, 4, 4), (2, 3, 10), (8, 4, 6), (3, 5, 8), (2, 180, 100)]
            .into_iter()
            .chain(cubes)
        {
            let (nx, ny, nz) = dims;
            let x = random_real(nx * ny * nz, 11);
            let half = rfft3_vec(&x, dims);
            let full = c2c3(&x, dims);
            let nzh = nz / 2 + 1;
            for (row, full_row) in half.chunks_exact(nzh).zip(full.chunks_exact(nz)) {
                for (iz, (&a, &b)) in row.iter().zip(full_row).enumerate() {
                    let err = (a - b).abs();
                    assert!(err < 1e-9, "dims {dims:?} bin z={iz}: err {err}");
                }
            }
        }
    }

    #[test]
    fn irfft3_roundtrip() {
        let cubes = [12usize, 16, 20, 24].map(|n| (n, n, n));
        for dims in [
            (4, 4, 4),
            (2, 3, 10),
            (8, 4, 6),
            (5, 5, 6),
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
        // z-planes (iz == 0 and iz == nz/2) and w = 2 elsewhere.
        for dims in [(4, 4, 8), (3, 5, 6)] {
            let (nx, ny, nz) = dims;
            let n = nx * ny * nz;
            let x = random_real(n, 19);
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
            assert!(
                (time - freq).abs() < 1e-10 * time,
                "dims {dims:?}: {time} vs {freq}"
            );
        }
    }

    #[test]
    fn the_rule_admits_smooth_extents_with_even_z() {
        assert!(supported((1, 1, 2)));
        assert!(supported((15, 45, 96)));
        assert!(!supported((16, 16, 15)), "odd nz");
        assert!(!supported((14, 16, 16)), "a prime factor 7");
        assert!(!supported((16, 16, 0)));
    }
}
