//! The row-batched mixed-radix engine behind every transform: accuracy
//! against the naive DFT (1-D, every smooth length, and 3-D r2c directly),
//! the bit-identity of a pencil's result whatever rows, block or position
//! it is transformed in — what the cross-backend bit-identity of the
//! exchange engine rests on — the one bounded, counted plan cache, and the
//! one admissibility rule (`2ᵃ3ᵇ5ᶜ` extents, even `nz`).

use liair_math::plan::{dft_reference, plan, plan_cache_stats};
use liair_math::rfft::{half_len, irfft3_into, rfft3_into};
use liair_math::rng::SplitMix64;
use liair_math::Complex64;
use std::f64::consts::PI;

type Dims = (usize, usize, usize);

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

fn max_abs(a: &[Complex64]) -> f64 {
    a.iter().map(|z| z.abs()).fold(0.0, f64::max)
}

fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
}

fn bits(a: &[Complex64]) -> Vec<(u64, u64)> {
    a.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

fn is_smooth(mut n: usize) -> bool {
    for p in [2, 3, 5] {
        while n.is_multiple_of(p) {
            n /= p;
        }
    }
    n == 1
}

fn rfft3_vec(x: &[f64], dims: Dims) -> Vec<Complex64> {
    let mut half = vec![Complex64::ZERO; half_len(dims)];
    rfft3_into(x, dims, &mut half);
    half
}

/// Column `c` of an `n × row_len` row-major matrix.
fn column(m: &[Complex64], row_len: usize, c: usize) -> Vec<Complex64> {
    m.chunks_exact(row_len).map(|row| row[c]).collect()
}

#[test]
fn every_length_matches_the_naive_dft_in_both_directions() {
    for n in (1..=128usize).filter(|&n| is_smooth(n)) {
        let p = plan(n);
        let x = random_signal(n, n as u64);
        for inverse in [false, true] {
            let mut want = dft_reference(&x, inverse);
            let mut got = x.clone();
            if inverse {
                want.iter_mut().for_each(|z| *z = z.scale(1.0 / n as f64));
                p.ifft(&mut got);
            } else {
                p.fft(&mut got);
            }
            let tol = 1e-12 * n as f64 * max_abs(&want);
            let err = max_err(&got, &want);
            assert!(err <= tol, "n={n} inverse={inverse}: err {err:e} > {tol:e}");
        }
    }
}

#[test]
#[should_panic(expected = "FFT length 7 is not 2ᵃ3ᵇ5ᶜ")]
fn plan_rejects_a_prime_factor_of_seven() {
    plan(7);
}

#[test]
#[should_panic(expected = "every extent must be 2ᵃ3ᵇ5ᶜ and nz even")]
fn rfft3_rejects_an_odd_z_extent() {
    let dims = (4, 4, 5);
    rfft3_into(&[0.0; 80], dims, &mut vec![Complex64::ZERO; half_len(dims)]);
}

/// `X[k] = Σ_j x[j] e^{-2πi(kx·jx/nx + ky·jy/ny + kz·jz/nz)}` by definition,
/// on the stored half-spectrum bins.
fn naive_rdft3(x: &[f64], (nx, ny, nz): Dims) -> Vec<Complex64> {
    let nzh = nz / 2 + 1;
    let mut out = Vec::with_capacity(nx * ny * nzh);
    for kx in 0..nx {
        for ky in 0..ny {
            for kz in 0..nzh {
                let mut acc = Complex64::ZERO;
                for jx in 0..nx {
                    for jy in 0..ny {
                        for jz in 0..nz {
                            let turns = (kx * jx % nx) as f64 / nx as f64
                                + (ky * jy % ny) as f64 / ny as f64
                                + (kz * jz % nz) as f64 / nz as f64;
                            let v = x[(jx * ny + jy) * nz + jz];
                            acc += Complex64::cis(-2.0 * PI * turns).scale(v);
                        }
                    }
                }
                out.push(acc);
            }
        }
    }
    out
}

#[test]
fn rfft3_matches_the_naive_3d_dft() {
    // Every radix on each axis, odd x and y, and the 1-D case.
    for dims in [
        (3, 4, 6),
        (4, 6, 10),
        (5, 3, 8),
        (6, 5, 18),
        (2, 9, 6),
        (15, 2, 4),
        (2, 3, 30),
        (1, 1, 12),
    ] {
        let n = dims.0 * dims.1 * dims.2;
        let x = random_real(n, 3 + n as u64);
        let want = naive_rdft3(&x, dims);
        let got = rfft3_vec(&x, dims);
        let tol = 1e-12 * n as f64 * max_abs(&want);
        let err = max_err(&got, &want);
        assert!(err <= tol, "dims {dims:?}: err {err:e} > {tol:e}");
        let mut half = got;
        let mut back = vec![0.0; n];
        irfft3_into(&mut half, dims, &mut back);
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() <= 1e-10, "dims {dims:?} roundtrip");
        }
    }
}

#[test]
fn a_pencil_is_bit_identical_in_any_row_length_and_column() {
    for n in [5usize, 12, 15, 16, 24, 45, 48] {
        let p = plan(n);
        let pencil = random_signal(n, 100 + n as u64);
        for inverse in [false, true] {
            let mut alone = pencil.clone();
            if inverse {
                p.ifft(&mut alone);
            } else {
                p.fft(&mut alone);
            }
            for row_len in [1usize, 2, 3, 7, 8, 32, 33] {
                for c in [0, row_len / 2, row_len - 1] {
                    let mut m = random_signal(n * row_len, (row_len * 64 + c) as u64);
                    for (row, &v) in m.chunks_exact_mut(row_len).zip(&pencil) {
                        row[c] = v;
                    }
                    if inverse {
                        p.ifft_rows(&mut m, row_len);
                    } else {
                        p.fft_rows(&mut m, row_len);
                    }
                    assert_eq!(
                        bits(&column(&m, row_len, c)),
                        bits(&alone),
                        "n={n} inverse={inverse} row_len={row_len} column {c}"
                    );
                }
            }
        }
    }
}

/// Transform every pencil of one axis of a `z`-contiguous array on its own
/// through the 1-D plan: no rows, no blocks. The inverse is unnormalized,
/// as `conj ∘ fft ∘ conj` — bit for bit the inverse kernels, which differ
/// from the forward ones only by conjugated twiddles and rotations.
fn pencil_by_pencil(a: &mut [Complex64], dims: Dims, axis: usize, inverse: bool) {
    let (n, stride) = match axis {
        0 => (dims.0, dims.1 * dims.2),
        1 => (dims.1, dims.2),
        _ => (dims.2, 1),
    };
    let p = plan(n);
    let conj_if = |z: Complex64| if inverse { z.conj() } else { z };
    for start in 0..a.len() {
        if start / stride % n != 0 {
            continue;
        }
        let mut pencil: Vec<Complex64> = (0..n).map(|j| conj_if(a[start + j * stride])).collect();
        p.fft(&mut pencil);
        for (j, v) in pencil.into_iter().enumerate() {
            a[start + j * stride] = conj_if(v);
        }
    }
}

/// The small shapes cover every radix and odd `x` and `y`; the last two
/// are wide enough that the `z` rows, the `y` slabs and the `x` planes are
/// split into several blocks (all three at once in the first, with odd `x`
/// and `y` in the second).
const SHAPES: [Dims; 9] = [
    (4, 4, 4),
    (8, 8, 8),
    (2, 3, 10),
    (3, 5, 6),
    (8, 4, 6),
    (16, 2, 8),
    (20, 20, 20),
    (2, 180, 100),
    (3, 75, 90),
];

#[test]
fn rfft3_is_bit_identical_to_pencil_by_pencil_transforms() {
    for dims in SHAPES {
        let (nx, ny, nz) = dims;
        let nzh = nz / 2 + 1;
        let x = random_real(nx * ny * nz, 77);
        let got = rfft3_vec(&x, dims);
        // z: each row alone, as a (1, 1, nz) transform; then y and x.
        let mut want = Vec::with_capacity(got.len());
        for row in x.chunks_exact(nz) {
            want.extend(rfft3_vec(row, (1, 1, nz)));
        }
        pencil_by_pencil(&mut want, (nx, ny, nzh), 1, false);
        pencil_by_pencil(&mut want, (nx, ny, nzh), 0, false);
        assert_eq!(bits(&got), bits(&want), "dims {dims:?}");
    }
}

/// The inverse x and y axes leave all of `1/N` to the c2r stage, so a
/// row's `z` transform alone (scaled `1/nz`) matches the blocked one
/// (scaled `1/N`) up to the exact factor `nx·ny` only when that is a power
/// of two: these shapes cover every `z` radix, in-place and blocked `y`
/// slabs, and — in the last — blocked `z` rows, `y` slabs and `x` planes.
#[test]
fn irfft3_is_bit_identical_to_pencil_by_pencil_transforms() {
    for dims in [
        (4, 4, 4),
        (8, 8, 8),
        (8, 4, 6),
        (16, 2, 8),
        (2, 2, 30),
        (4, 256, 100),
    ] {
        let (nx, ny, nz) = dims;
        let nzh = nz / 2 + 1;
        // A valid half-spectrum: the forward transform of a real field.
        let mut half = rfft3_vec(&random_real(nx * ny * nz, 91), dims);
        let mut want = half.clone();
        let mut got = vec![0.0; nx * ny * nz];
        irfft3_into(&mut half, dims, &mut got);
        // x and y: each pencil alone; then z: each row alone.
        pencil_by_pencil(&mut want, (nx, ny, nzh), 0, true);
        pencil_by_pencil(&mut want, (nx, ny, nzh), 1, true);
        let mut rows = vec![0.0; nz];
        for (r, row) in want.chunks_exact_mut(nzh).enumerate() {
            irfft3_into(row, (1, 1, nz), &mut rows);
            for (j, (&v, &w)) in got[r * nz..][..nz].iter().zip(&rows).enumerate() {
                let v = v * (nx * ny) as f64;
                assert_eq!(v.to_bits(), w.to_bits(), "dims {dims:?} row {r} point {j}");
            }
        }
    }
}

#[test]
fn c2r_rows_do_not_depend_on_their_block() {
    // A half-spectrum whose only non-zero `y` row is `A` comes out of the
    // inverse `y` axis as 256 bit-identical copies of `A`, which the c2r
    // stage then transforms in several blocks of rows: every output row
    // must carry the same bits, and — the normalizations differing by the
    // exact factor 256 — the bits of `A` transformed on its own.
    let (ny, nz) = (256usize, 100usize);
    let nzh = nz / 2 + 1;
    let a = rfft3_vec(&random_real(nz, 5), (1, 1, nz));
    let mut alone = vec![0.0; nz];
    irfft3_into(&mut a.clone(), (1, 1, nz), &mut alone);

    let mut half = vec![Complex64::ZERO; ny * nzh];
    half[..nzh].copy_from_slice(&a);
    let mut field = vec![0.0; ny * nz];
    irfft3_into(&mut half, (1, ny, nz), &mut field);
    for (r, row) in field.chunks_exact(nz).enumerate() {
        for (j, (&v, &w)) in row.iter().zip(&alone).enumerate() {
            assert_eq!((v * ny as f64).to_bits(), w.to_bits(), "row {r} point {j}");
        }
    }
}

#[test]
fn real_transforms_are_counted_and_bounded_by_the_one_plan_cache() {
    // A real transform keeps its untangle twiddles in the complex plan of
    // half its length, so every new real length is a counted miss of the
    // one cache, and more lengths than the bound are evicted from it.
    let before = plan_cache_stats();
    let lengths = before.capacity + 6;
    let packed = (300usize..).filter(|&h| is_smooth(h)).take(lengths);
    for (seed, h) in packed.enumerate() {
        let nz = 2 * h;
        let x = random_real(nz, seed as u64);
        let half = rfft3_vec(&x, (1, 1, nz));
        let dc: f64 = x.iter().sum();
        assert!((half[0].re - dc).abs() < 1e-9 && half[0].im == 0.0);
    }
    let after = plan_cache_stats();
    let delta = after.since(&before);
    assert!(delta.misses >= lengths as u64, "{delta:?}");
    assert!(after.plans <= after.capacity, "{after:?}");
    assert!(delta.evictions >= 6, "{delta:?}");
}
