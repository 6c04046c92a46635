//! # liair-math
//!
//! Self-contained numerical kernels used throughout the `liair` workspace:
//!
//! * [`Complex64`] — a minimal complex number type (no external dependency).
//! * [`plan`] — the FFT engine and its process-wide, bounded plan cache:
//!   mixed-radix (4, 2, 3, 5) Stockham passes over *rows of pencils*, for
//!   `2ᵃ3ᵇ5ᶜ` lengths only, plus the naive-DFT test oracle.
//! * [`rfft`] — the one 3-D transform family: real-input r2c/c2r over the
//!   Hermitian half-spectrum, the pair-Poisson exact-exchange kernel's
//!   transform. [`rfft::supported`] is the one admissibility rule of every
//!   grid: each extent `2ᵃ3ᵇ5ᶜ`, `nz` even.
//! * [`linalg`] — dense real linear algebra: symmetric Jacobi eigensolver,
//!   LU solves, and matrix products sized for quantum-chemistry workloads.
//! * [`special`] — the Boys function (the workhorse of Gaussian integral
//!   evaluation), `erf`/`erfc` read from its grid, and factorial tables.
//! * [`simd`] — the exchange hot loops around the transform (kernel
//!   multiplies, the energy contraction, pair-density products and axpy),
//!   one portable loop each with a summation order fixed in the source.
//! * [`quadrature`] — Gauss–Legendre nodes/weights.
//! * [`rng`] — a deterministic SplitMix64 generator for reproducible
//!   workload construction.
//!
//! Everything here is written from scratch (the reproduction environment has
//! no quantum-chemistry or FFT libraries available) and validated against
//! closed forms in the unit/property tests.

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index loops are the clearer idiom in this numeric code

pub mod codec;
pub mod complex;
pub mod linalg;
pub mod plan;
pub mod quadrature;
pub mod rfft;
pub mod rng;
pub mod simd;
pub mod special;
pub mod vec3;

pub use complex::Complex64;
pub use linalg::Mat;
pub use vec3::Vec3;

/// Machine-tolerance helper: `true` when `a` and `b` agree to `tol`
/// absolutely or relatively (whichever is looser).
#[inline]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_and_relative() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-10));
        assert!(approx_eq(1e12, 1e12 + 1.0, 1e-10));
        assert!(!approx_eq(1.0, 1.1, 1e-3));
        assert!(approx_eq(0.0, 0.0, 1e-15));
    }
}
