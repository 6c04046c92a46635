//! Runtime-dispatched short-vector SIMD kernels for the exchange hot path.
//!
//! The paper's node-level performance rests on the 4-wide QPX unit; this
//! module is the host-side equivalent: the elementwise inner loops around
//! the transform in a pair-Poisson exchange build — the pointwise
//! complex×real kernel-table multiply, the half-spectrum weighted `|ρ̂|²`
//! energy contraction, the real pair-density product `φ_i·φ_j`, and axpy
//! accumulation — each available as
//!
//! * an **AVX2+FMA** implementation (`x86_64` only, `std::arch`
//!   intrinsics behind `is_x86_feature_detected!` — no new dependencies),
//!   and
//! * an **off** path: the portable scalar loops, the only path off
//!   `x86_64` and the regression baseline on it.
//!
//! [`level()`] resolves the process-wide level once (hardware detection +
//! the `LIAIR_SIMD` override); no crate above `liair-grid` names a level.
//! Every primitive also has a `*_with` form taking an explicit
//! [`SimdLevel`] — the seam the cross-level tests and the node-model
//! calibration (`repro fig-node-threading`) use. The transform itself
//! ([`crate::plan`]) is plain Rust over rows of pencils and does not
//! dispatch on a level, so it is bit-identical across them by construction.
//!
//! ## Numerical contract
//!
//! Every *elementwise* primitive (kernel multiply, pair density, axpy)
//! performs the same per-element operations in the same rounding order at
//! both levels — the AVX2 variants deliberately use unfused multiply +
//! add — so their results are **bit-identical** across `off`/`avx2`. Only
//! the energy *contraction* re-associates the sum (sixteen accumulator
//! lanes); its terms are non-negative, so the two levels agree to the
//! O(n·ε) reassociation bound (property-tested).
//!
//! `LIAIR_SIMD=off|avx2` forces a level; requesting `avx2` on hardware
//! without it falls back to `off` rather than failing, so the same test
//! matrix runs everywhere. Any other non-empty value is reported on
//! stderr once and ignored.

use crate::complex::Complex64;
use std::sync::OnceLock;

/// Which kernel implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// The portable scalar loops, bit-identical to the seed code paths.
    Off,
    /// Explicit AVX2+FMA intrinsics (`x86_64` with runtime detection).
    Avx2,
}

impl SimdLevel {
    /// Stable lowercase name (the `LIAIR_SIMD` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Off => "off",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// f64 lanes the level's vector unit processes at once.
    pub fn lanes(self) -> usize {
        match self {
            SimdLevel::Off => 1,
            SimdLevel::Avx2 => 4,
        }
    }
}

/// `true` when the running CPU can execute the AVX2+FMA kernels.
pub fn avx2_available() -> bool {
    static AVAIL: OnceLock<bool> = OnceLock::new();
    *AVAIL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// The best level the hardware supports (ignores the env override).
pub fn detect() -> SimdLevel {
    if avx2_available() {
        SimdLevel::Avx2
    } else {
        SimdLevel::Off
    }
}

/// Parse a `LIAIR_SIMD` value: `off`/`avx2` force that level, empty means
/// auto-detect, and anything else (the retired `scalar` included) is an
/// error naming the accepted values.
fn parse_level(raw: &str) -> Result<Option<SimdLevel>, String> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "" => Ok(None),
        "off" => Ok(Some(SimdLevel::Off)),
        "avx2" => Ok(Some(SimdLevel::Avx2)),
        other => Err(format!(
            "LIAIR_SIMD={other}: not one of off|avx2, using the detected level"
        )),
    }
}

/// The process-wide level, resolved once: the `LIAIR_SIMD` override if it
/// names a level (a forced `avx2` on hardware without it degrades to
/// `off`), otherwise the best detected level. An unrecognised value costs
/// one stderr line and is otherwise ignored.
pub fn level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        let raw = std::env::var("LIAIR_SIMD").unwrap_or_default();
        let forced = parse_level(&raw).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            None
        });
        effective(forced.unwrap_or_else(detect))
    })
}

/// Every level runnable on this machine, in increasing capability order —
/// what the cross-level tests sweep.
pub fn available_levels() -> Vec<SimdLevel> {
    let mut v = vec![SimdLevel::Off];
    if avx2_available() {
        v.push(SimdLevel::Avx2);
    }
    v
}

/// Resolve a requested level to one that is safe to execute here: `Avx2`
/// without hardware support degrades to `Off`. Keeps the `*_with` entry
/// points sound even for a hand-constructed [`SimdLevel::Avx2`].
#[inline]
fn effective(level: SimdLevel) -> SimdLevel {
    if level == SimdLevel::Avx2 && !avx2_available() {
        SimdLevel::Off
    } else {
        level
    }
}

// ---------------------------------------------------------------------------
// Pair-density product: out = a ⊙ b
// ---------------------------------------------------------------------------

/// Elementwise real product `out[i] = a[i]·b[i]` — the pair-density
/// formation `ρ_ij = φ_i φ_j`. Bit-identical across levels.
pub fn mul_into(out: &mut [f64], a: &[f64], b: &[f64]) {
    mul_into_with(level(), out, a, b);
}

/// [`mul_into`] at an explicit level.
pub fn mul_into_with(level: SimdLevel, out: &mut [f64], a: &[f64], b: &[f64]) {
    assert_eq!(out.len(), a.len());
    assert_eq!(out.len(), b.len());
    match effective(level) {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { avx2::mul_into(out, a, b) },
        _ => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = x * y;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// axpy: y += alpha · x
// ---------------------------------------------------------------------------

/// `y[i] += alpha·x[i]` — the orbital accumulation `φ += C_μk χ_μ`.
/// Unfused multiply-then-add at every level: bit-identical results.
pub fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    axpy_with(level(), y, alpha, x);
}

/// [`axpy`] at an explicit level.
pub fn axpy_with(level: SimdLevel, y: &mut [f64], alpha: f64, x: &[f64]) {
    assert_eq!(y.len(), x.len());
    match effective(level) {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { avx2::axpy(y, alpha, x) },
        _ => {
            for (yi, &xi) in y.iter_mut().zip(x) {
                *yi += alpha * xi;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel-table multiply: z[i] *= table[i] (complex × real, pointwise)
// ---------------------------------------------------------------------------

/// Pointwise complex×real product `z[i] = z[i]·table[i]` — the
/// reciprocal-space Coulomb kernel application. Bit-identical across
/// levels.
pub fn scale_by_table(z: &mut [Complex64], table: &[f64]) {
    scale_by_table_with(level(), z, table);
}

/// [`scale_by_table`] at an explicit level.
pub fn scale_by_table_with(level: SimdLevel, z: &mut [Complex64], table: &[f64]) {
    assert_eq!(z.len(), table.len());
    match effective(level) {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { avx2::scale_by_table(z, table) },
        _ => {
            for (zi, &k) in z.iter_mut().zip(table) {
                *zi = zi.scale(k);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Energy contraction: Σ_i wk[i] · |z[i]|²
// ---------------------------------------------------------------------------

/// Weighted half-spectrum energy `Σ_i wk[i]·|z[i]|²` with the Hermitian
/// double-count weights pre-folded into `wk` — the Parseval contraction
/// of the energy-only exchange path.
///
/// `Off` accumulates strictly sequentially (bit-identical to the seed
/// loop); `Avx2` accumulates in sixteen fused lanes, so it agrees with
/// `Off` to the usual reassociation error of a non-negative sum.
pub fn weighted_energy(z: &[Complex64], wk: &[f64]) -> f64 {
    weighted_energy_with(level(), z, wk)
}

/// [`weighted_energy`] at an explicit level.
pub fn weighted_energy_with(level: SimdLevel, z: &[Complex64], wk: &[f64]) -> f64 {
    assert_eq!(z.len(), wk.len());
    match effective(level) {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { avx2::weighted_energy(z, wk) },
        _ => {
            let mut acc = 0.0;
            for (zi, &k) in z.iter().zip(wk) {
                acc += k * zi.norm_sqr();
            }
            acc
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2+FMA kernels (x86_64, runtime-gated)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! Callers guarantee AVX2+FMA via [`super::avx2_available`] before
    //! entering any function here. `Complex64` is `repr(C)`, so complex
    //! slices are interleaved `re, im` f64 sequences and a 256-bit vector
    //! holds two complex numbers.

    use super::Complex64;
    use std::arch::x86_64::*;

    /// `[k0, k1]` (128-bit) → `[k0, k0, k1, k1]` — one real weight per
    /// complex lane pair.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dup_weights(k: __m128d) -> __m256d {
        _mm256_permute4x64_pd(_mm256_castpd128_pd256(k), 0b01_01_00_00)
    }

    /// `(a[0]+a[1]) + (a[2]+a[3])`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum4(v: __m256d) -> f64 {
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), v);
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn mul_into(out: &mut [f64], a: &[f64], b: &[f64]) {
        let n = out.len();
        let n4 = n / 4 * 4;
        let (op, ap, bp) = (out.as_mut_ptr(), a.as_ptr(), b.as_ptr());
        let mut i = 0;
        while i < n4 {
            let va = _mm256_loadu_pd(ap.add(i));
            let vb = _mm256_loadu_pd(bp.add(i));
            _mm256_storeu_pd(op.add(i), _mm256_mul_pd(va, vb));
            i += 4;
        }
        for i in n4..n {
            out[i] = a[i] * b[i];
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
        let n = y.len();
        let n4 = n / 4 * 4;
        let va = _mm256_set1_pd(alpha);
        let (yp, xp) = (y.as_mut_ptr(), x.as_ptr());
        let mut i = 0;
        while i < n4 {
            let vx = _mm256_loadu_pd(xp.add(i));
            let vy = _mm256_loadu_pd(yp.add(i));
            // Unfused mul + add: bit-identical to the scalar path.
            _mm256_storeu_pd(yp.add(i), _mm256_add_pd(vy, _mm256_mul_pd(va, vx)));
            i += 4;
        }
        for i in n4..n {
            y[i] += alpha * x[i];
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn scale_by_table(z: &mut [Complex64], table: &[f64]) {
        let n = z.len();
        let n2 = n / 2 * 2;
        let zp = z.as_mut_ptr() as *mut f64;
        let kp = table.as_ptr();
        let mut i = 0;
        while i < n2 {
            let kd = dup_weights(_mm_loadu_pd(kp.add(i)));
            let v = _mm256_loadu_pd(zp.add(2 * i));
            _mm256_storeu_pd(zp.add(2 * i), _mm256_mul_pd(v, kd));
            i += 2;
        }
        if n2 < n {
            z[n2] = z[n2].scale(table[n2]);
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn weighted_energy(z: &[Complex64], wk: &[f64]) -> f64 {
        let n = z.len();
        let n8 = n / 8 * 8;
        let zp = z.as_ptr() as *const f64;
        let kp = wk.as_ptr();
        // Four independent accumulator chains: the FMA latency of a single
        // chain is exactly what bounds the sequential `Off` loop, so the
        // chain count — not the lane width — sets the speedup here.
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut acc2 = _mm256_setzero_pd();
        let mut acc3 = _mm256_setzero_pd();
        let mut i = 0;
        while i < n8 {
            let v0 = _mm256_loadu_pd(zp.add(2 * i));
            let v1 = _mm256_loadu_pd(zp.add(2 * i + 4));
            let v2 = _mm256_loadu_pd(zp.add(2 * i + 8));
            let v3 = _mm256_loadu_pd(zp.add(2 * i + 12));
            let k0 = dup_weights(_mm_loadu_pd(kp.add(i)));
            let k1 = dup_weights(_mm_loadu_pd(kp.add(i + 2)));
            let k2 = dup_weights(_mm_loadu_pd(kp.add(i + 4)));
            let k3 = dup_weights(_mm_loadu_pd(kp.add(i + 6)));
            acc0 = _mm256_fmadd_pd(_mm256_mul_pd(v0, v0), k0, acc0);
            acc1 = _mm256_fmadd_pd(_mm256_mul_pd(v1, v1), k1, acc1);
            acc2 = _mm256_fmadd_pd(_mm256_mul_pd(v2, v2), k2, acc2);
            acc3 = _mm256_fmadd_pd(_mm256_mul_pd(v3, v3), k3, acc3);
            i += 8;
        }
        let mut acc = (hsum4(acc0) + hsum4(acc1)) + (hsum4(acc2) + hsum4(acc3));
        while i < n {
            acc += wk[i] * z[i].norm_sqr();
            i += 1;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn randf(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() - 0.5).collect()
    }

    fn randc(n: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| Complex64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
            .collect()
    }

    #[test]
    fn parse_level_vocabulary() {
        assert_eq!(parse_level(" Off "), Ok(Some(SimdLevel::Off)));
        assert_eq!(parse_level("AVX2"), Ok(Some(SimdLevel::Avx2)));
        assert_eq!(parse_level(""), Ok(None));
        assert_eq!(parse_level("  "), Ok(None));
        // Anything else — the retired `scalar` included — is reported with
        // the accepted vocabulary instead of being silently ignored.
        for bad in ["scalar", "auto", "avx512"] {
            let msg = parse_level(bad).unwrap_err();
            assert!(msg.contains(bad) && msg.contains("off|avx2"), "{msg}");
            assert_eq!(msg.lines().count(), 1);
        }
    }

    #[test]
    fn detection_is_consistent() {
        let d = detect();
        assert_eq!(d == SimdLevel::Avx2, avx2_available());
        let avail = available_levels();
        assert_eq!(avail[0], SimdLevel::Off);
        assert_eq!(avail.contains(&SimdLevel::Avx2), avx2_available());
        // level() resolves to something runnable.
        assert!(avail.contains(&level()));
    }

    #[test]
    fn elementwise_primitives_bit_identical_across_levels() {
        for n in [0usize, 1, 3, 4, 7, 64, 129] {
            let a = randf(n, 1 + n as u64);
            let b = randf(n, 2 + n as u64);
            let z0 = randc(n, 3 + n as u64);
            let table = randf(n, 4 + n as u64);

            let mut want_mul = vec![0.0; n];
            mul_into_with(SimdLevel::Off, &mut want_mul, &a, &b);
            let mut want_axpy = b.clone();
            axpy_with(SimdLevel::Off, &mut want_axpy, 0.73, &a);
            let mut want_table = z0.clone();
            scale_by_table_with(SimdLevel::Off, &mut want_table, &table);

            for lvl in available_levels() {
                let mut got = vec![0.0; n];
                mul_into_with(lvl, &mut got, &a, &b);
                assert_eq!(got, want_mul, "mul_into {lvl:?} n={n}");

                let mut got = b.clone();
                axpy_with(lvl, &mut got, 0.73, &a);
                assert_eq!(got, want_axpy, "axpy {lvl:?} n={n}");

                let mut got = z0.clone();
                scale_by_table_with(lvl, &mut got, &table);
                assert_eq!(got, want_table, "scale_by_table {lvl:?} n={n}");
            }
        }
    }

    #[test]
    fn weighted_energy_agreement_bounds() {
        for n in [0usize, 1, 3, 4, 6, 17, 256, 1000] {
            let z = randc(n, 11 + n as u64);
            // Non-negative weights, like the Coulomb kernel table.
            let wk: Vec<f64> = randf(n, 13 + n as u64).iter().map(|v| v.abs()).collect();
            let off = weighted_energy_with(SimdLevel::Off, &z, &wk);
            // The vector level re-associates the sequential sum; for a sum
            // of non-negative terms the drift is bounded by n·eps relatively.
            let tol = 4.0 * n.max(1) as f64 * f64::EPSILON;
            for lvl in available_levels() {
                let got = weighted_energy_with(lvl, &z, &wk);
                assert!(
                    (got - off).abs() <= tol * off.abs().max(1.0),
                    "{lvl:?} n={n}: {got} vs off {off}"
                );
            }
        }
    }

    #[test]
    fn avx2_requests_degrade_gracefully() {
        // Passing Avx2 explicitly must be safe even where unsupported:
        // `effective` falls back to the portable loops.
        let a = randf(9, 1);
        let b = randf(9, 2);
        let mut got = vec![0.0; 9];
        mul_into_with(SimdLevel::Avx2, &mut got, &a, &b);
        let mut want = vec![0.0; 9];
        mul_into_with(SimdLevel::Off, &mut want, &a, &b);
        assert_eq!(got, want);
    }
}
