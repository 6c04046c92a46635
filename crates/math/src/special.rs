//! Special functions for Gaussian integral evaluation.
//!
//! The centrepiece is the Boys function
//! `F_m(x) = ∫₀¹ t^{2m} e^{-x t²} dt`, which every Coulomb-type Gaussian
//! integral reduces to, once per primitive quartet. We use the standard
//! numerically-stable split:
//!
//! * `x < 35`: the highest requested order comes from a precomputed grid
//!   (spacing 1/40, orders up to [`BOYS_MAX_ORDER`] + 5) by a 6-term Taylor
//!   step from the nearest grid point, `F_m(x₀+δ) = Σ_k F_{m+k}(x₀)(−δ)^k/k!`
//!   (|δ| ≤ 1/80, so the first dropped term is below 6e-15 of `F_m`); lower
//!   orders follow by the *downward* recursion
//!   `F_m = (2x·F_{m+1} + e^{-x}) / (2m+1)`, which is stable in this
//!   direction. The grid itself is built once, by the same recursion started
//!   far above the orders it keeps, where the start value is damped away;
//! * `x ≥ 35`: `F₀ ≈ ½√(π/x)` (the `erfc(√x)` correction is below machine
//!   epsilon here) followed by the *upward* recursion, stable for large `x`.
//!
//! The error function reads the same grid, `erf(x) = 2x/√π · F₀(x²)`, so
//! the force field's per-pair `erfc` is one Taylor step, not an
//! incomplete-gamma series. That series stays as the test oracle.

use std::f64::consts::{FRAC_2_SQRT_PI, PI};
use std::sync::OnceLock;

/// Error function, `erf(x) = 2x/√π · F₀(x²)` with `F₀` read from the Boys
/// grid below `x² = 35`, and `±1` at and above it (`erfc(√35) ≈ 3e-17`).
/// Within 5e-15 relative of the incomplete-gamma series `P(½, x²)`; the
/// grid's last-bit noise is clamped so that `|erf| ≤ 1`. Past `|x| ≈ 4.6`,
/// where `erfc < 1e-10`, that noise can also break monotonicity in the
/// last bits.
pub fn erf(x: f64) -> f64 {
    let x2 = x * x;
    if x2 >= BOYS_ASYMPTOTIC_X {
        return x.signum();
    }
    let mut f0 = [0.0];
    boys_into(&mut f0, x2);
    (FRAC_2_SQRT_PI * x * f0[0]).clamp(-1.0, 1.0)
}

/// Complementary error function, `1 − erf(x)`.
///
/// Accurate in absolute terms (within 2e-15 of the series), not in
/// relative terms: once `erfc(x) ≪ 1` the subtraction cancels, and at
/// `x ≥ √35` it returns exactly 0. The force field's damped shifted-force
/// Coulomb term stays below `α·r_c = 0.12 × 18 ≈ 2.2`, where `erfc > 2e-3`.
pub fn erfc(x: f64) -> f64 {
    1.0 - erf(x)
}

/// Boys function values `F_0(x) .. F_mmax(x)` (inclusive), written into a
/// freshly returned vector of length `mmax + 1`.
pub fn boys(mmax: usize, x: f64) -> Vec<f64> {
    let mut f = vec![0.0; mmax + 1];
    boys_into(&mut f, x);
    f
}

/// Highest Boys order [`boys_into`] evaluates: `L = 16` is a (gg|gg)
/// quartet; the Cartesian s/p bases of this workspace reach 4.
pub const BOYS_MAX_ORDER: usize = 16;
/// Below this argument the grid is used, at or above it the asymptotic form.
const BOYS_ASYMPTOTIC_X: f64 = 35.0;
/// Grid points per unit of `x`.
const BOYS_GRID_DENSITY: f64 = 40.0;
/// Terms of the Taylor step (and orders the grid keeps above the top one).
const BOYS_TAYLOR_TERMS: usize = 6;
/// Orders stored per grid point.
const BOYS_GRID_ORDERS: usize = BOYS_MAX_ORDER + BOYS_TAYLOR_TERMS;
/// Order the grid's downward recursion starts from (with `F = 0`): at
/// `x ≤ 35` the start error is damped by more than 1e-25 on its way down
/// to the kept orders.
const BOYS_GRID_START_ORDER: usize = 128;
/// `1/k!` for the Taylor step.
const INV_FACTORIAL: [f64; BOYS_TAYLOR_TERMS] = [1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0, 1.0 / 120.0];

/// Grid abscissa of point `i`.
fn boys_grid_x(i: usize) -> f64 {
    i as f64 / BOYS_GRID_DENSITY
}

/// `F_0 … F_{BOYS_GRID_ORDERS−1}` at every grid point of `[0, 35]`, point
/// major (one Taylor step reads six adjacent values). Built on first use.
fn boys_grid() -> &'static [f64] {
    static GRID: OnceLock<Vec<f64>> = OnceLock::new();
    GRID.get_or_init(|| {
        let npoints = (BOYS_ASYMPTOTIC_X * BOYS_GRID_DENSITY) as usize + 1;
        let mut grid = vec![0.0; npoints * BOYS_GRID_ORDERS];
        for (i, row) in grid.chunks_exact_mut(BOYS_GRID_ORDERS).enumerate() {
            let x = boys_grid_x(i);
            let emx = (-x).exp();
            let mut f = 0.0;
            for m in (0..BOYS_GRID_START_ORDER).rev() {
                f = (2.0 * x * f + emx) / (2 * m + 1) as f64;
                if m < BOYS_GRID_ORDERS {
                    row[m] = f;
                }
            }
        }
        grid
    })
}

/// As [`boys`], writing into a caller-provided slice (hot paths reuse the
/// buffer). `out.len() - 1` is the maximum order, at most
/// [`BOYS_MAX_ORDER`].
pub fn boys_into(out: &mut [f64], x: f64) {
    assert!(!out.is_empty());
    let mmax = out.len() - 1;
    assert!(
        mmax <= BOYS_MAX_ORDER,
        "Boys order {mmax} above BOYS_MAX_ORDER = {BOYS_MAX_ORDER}"
    );
    if x < BOYS_ASYMPTOTIC_X {
        // Nearest grid point x₀, then F_m(x₀ + δ) = Σ_k F_{m+k}(x₀)(−δ)^k/k!
        // (dF_m/dx = −F_{m+1}), in Horner form.
        let i = (x * BOYS_GRID_DENSITY + 0.5) as usize;
        let nd = boys_grid_x(i) - x;
        let f = &boys_grid()[i * BOYS_GRID_ORDERS + mmax..][..BOYS_TAYLOR_TERMS];
        let mut top = f[BOYS_TAYLOR_TERMS - 1] * INV_FACTORIAL[BOYS_TAYLOR_TERMS - 1];
        for k in (0..BOYS_TAYLOR_TERMS - 1).rev() {
            top = f[k] * INV_FACTORIAL[k] + nd * top;
        }
        out[mmax] = top;
        if mmax > 0 {
            let emx = (-x).exp();
            for m in (0..mmax).rev() {
                out[m] = (2.0 * x * out[m + 1] + emx) / (2 * m + 1) as f64;
            }
        }
    } else {
        // Large-x asymptotics: erfc(√35) ≈ 3e-17 so the correction vanishes.
        let emx = (-x).exp();
        out[0] = 0.5 * (PI / x).sqrt();
        for m in 0..mmax {
            out[m + 1] = ((2 * m + 1) as f64 * out[m] - emx) / (2.0 * x);
        }
    }
}

/// Double factorial `n!! = n (n-2)(n-4)…` with the conventions
/// `(-1)!! = 0!! = 1`.
pub fn double_factorial(n: i64) -> f64 {
    if n <= 0 {
        return 1.0;
    }
    let mut acc = 1.0;
    let mut k = n;
    while k > 1 {
        acc *= k as f64;
        k -= 2;
    }
    acc
}

/// Factorial as `f64` (exact through 22!).
pub fn factorial(n: usize) -> f64 {
    (1..=n).fold(1.0, |acc, k| acc * k as f64)
}

/// Binomial coefficient as `f64`.
pub fn binomial(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut acc = 1.0;
    for i in 0..k {
        acc = acc * (n - i) as f64 / (i + 1) as f64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    /// The grid's oracle: the convergent series
    /// `F_m(x) = e^{-x} Σ_k (2x)^k / ((2m+1)(2m+3)…(2m+2k+1))` for the top
    /// order, then the downward recursion.
    fn boys_series(mmax: usize, x: f64) -> Vec<f64> {
        let mut out = vec![0.0; mmax + 1];
        let emx = (-x).exp();
        let mut term = 1.0 / (2 * mmax + 1) as f64;
        let mut sum = term;
        let mut k = 0usize;
        loop {
            term *= 2.0 * x / (2 * mmax + 2 * k + 3) as f64;
            sum += term;
            k += 1;
            if term < sum * 1e-17 || k > 10_000 {
                break;
            }
        }
        out[mmax] = emx * sum;
        for m in (0..mmax).rev() {
            out[m] = (2.0 * x * out[m + 1] + emx) / (2 * m + 1) as f64;
        }
        out
    }

    /// Natural log of the gamma function (Lanczos, g = 7, 9 coefficients);
    /// |relative error| < 1e-13 for x > 0.
    fn ln_gamma(x: f64) -> f64 {
        assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
        const G: f64 = 7.0;
        const COEF: [f64; 9] = [
            0.999_999_999_999_809_9,
            676.5203681218851,
            -1259.1392167224028,
            771.323_428_777_653_1,
            -176.615_029_162_140_6,
            12.507343278686905,
            -0.13857109526572012,
            9.984_369_578_019_572e-6,
            1.5056327351493116e-7,
        ];
        if x < 0.5 {
            // Reflection formula.
            return (PI / (PI * x).sin()).ln() - ln_gamma(1.0 - x);
        }
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        0.5 * (2.0 * PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
    }

    /// Regularized lower incomplete gamma `P(a, x)` by series expansion
    /// (valid/fast for `x < a + 1`).
    fn gamma_p_series(a: f64, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let gln = ln_gamma(a);
        let mut ap = a;
        let mut sum = 1.0 / a;
        let mut del = sum;
        for _ in 0..500 {
            ap += 1.0;
            del *= x / ap;
            sum += del;
            if del.abs() < sum.abs() * 1e-16 {
                break;
            }
        }
        sum * (-x + a * x.ln() - gln).exp()
    }

    /// Regularized upper incomplete gamma `Q(a, x)` by continued fraction
    /// (valid/fast for `x ≥ a + 1`).
    fn gamma_q_cf(a: f64, x: f64) -> f64 {
        let gln = ln_gamma(a);
        let fpmin = 1e-300;
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / fpmin;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < fpmin {
                d = fpmin;
            }
            c = b + an / c;
            if c.abs() < fpmin {
                c = fpmin;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() < 1e-16 {
                break;
            }
        }
        (-x + a * x.ln() - gln).exp() * h
    }

    /// Regularized lower incomplete gamma `P(a, x)`.
    fn gamma_p(a: f64, x: f64) -> f64 {
        assert!(a > 0.0 && x >= 0.0, "gamma_p domain: a={a}, x={x}");
        if x < a + 1.0 {
            gamma_p_series(a, x)
        } else {
            1.0 - gamma_q_cf(a, x)
        }
    }

    /// The error function's oracle: `erf(x) = P(½, x²)`, the regularized
    /// lower incomplete gamma function by series or continued fraction.
    fn erf_series(x: f64) -> f64 {
        let p = gamma_p(0.5, x * x);
        if x < 0.0 {
            -p
        } else {
            p
        }
    }

    #[test]
    fn boys_grid_matches_series() {
        // Every top order the grid serves, at grid points, at midpoints
        // (the longest Taylor step), at off-grid points and on both sides
        // of the switch to the asymptotic form at 35.
        let mut xs: Vec<f64> = (0..=2400).map(|i| i as f64 / 40.0).collect();
        xs.extend((0..2400).map(|i| (i as f64 + 0.5) / 40.0));
        xs.extend((0..4380).map(|i| i as f64 * 0.013_7));
        xs.extend([1e-300, 1e-14, 1e-3, 35.0 - 1e-12, 35.0, 35.0 + 1e-12, 60.0]);
        let mut worst = 0.0f64;
        for mmax in 0..=BOYS_MAX_ORDER {
            for &x in &xs {
                let got = boys(mmax, x);
                let want = boys_series(mmax, x);
                for m in 0..=mmax {
                    let rel = (got[m] - want[m]).abs() / want[m];
                    worst = worst.max(rel);
                    assert!(
                        rel <= 1e-14,
                        "F_{m}({x}) with top order {mmax}: {} vs series {} (rel {rel:e})",
                        got[m],
                        want[m]
                    );
                }
            }
        }
        eprintln!("largest relative deviation from the series: {worst:e}");
    }

    #[test]
    #[should_panic(expected = "BOYS_MAX_ORDER")]
    fn boys_refuses_orders_above_the_grid() {
        let _ = boys(BOYS_MAX_ORDER + 1, 1.0);
    }

    #[test]
    fn ln_gamma_known_values() {
        assert!(approx_eq(ln_gamma(1.0), 0.0, 1e-13));
        assert!(approx_eq(ln_gamma(2.0), 0.0, 1e-13));
        assert!(approx_eq(ln_gamma(5.0), (24.0f64).ln(), 1e-12));
        assert!(approx_eq(ln_gamma(0.5), (PI.sqrt()).ln(), 1e-12));
    }

    #[test]
    fn erf_reference_values() {
        // Values from Abramowitz & Stegun tables / mpmath.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.5204998778130465),
            (1.0, 0.8427007929497149),
            (2.0, 0.9953222650189527),
            (-1.0, -0.8427007929497149),
            (3.0, 0.9999779095030014),
        ];
        for (x, want) in cases {
            assert!(approx_eq(erf(x), want, 1e-12), "erf({x})");
        }
    }

    #[test]
    fn erf_matches_incomplete_gamma_series() {
        // The argument range of every caller and then some: the DSF
        // Coulomb term stops at α·r ≈ 2.2, `erf` saturates at √35 ≈ 5.92.
        let (mut worst_erf, mut worst_erfc) = (0.0f64, 0.0f64);
        for k in 1..=65_000 {
            let x = k as f64 * 1e-4;
            let want = erf_series(x);
            let rel = (erf(x) - want).abs() / want;
            let abs = (erfc(x) - (1.0 - want)).abs();
            worst_erf = worst_erf.max(rel);
            worst_erfc = worst_erfc.max(abs);
            assert!(
                rel <= 5e-15,
                "erf({x}) = {} vs series {want} (rel {rel:e})",
                erf(x)
            );
            assert!(
                abs <= 2e-15,
                "erfc({x}) = {} vs series {} (abs {abs:e})",
                erfc(x),
                1.0 - want
            );
        }
        eprintln!(
            "erf: largest relative deviation {worst_erf:e}; erfc: largest absolute {worst_erfc:e}"
        );
    }

    #[test]
    fn erf_is_odd_and_bounded() {
        for k in 0..60 {
            let x = -3.0 + 0.1 * k as f64;
            assert!(approx_eq(erf(x), -erf(-x), 1e-14));
            assert!(erf(x).abs() <= 1.0);
        }
    }

    #[test]
    fn boys_zero_argument() {
        let f = boys(6, 0.0);
        for (m, &v) in f.iter().enumerate() {
            assert!(approx_eq(v, 1.0 / (2 * m + 1) as f64, 1e-15));
        }
    }

    #[test]
    fn boys_f0_is_erf_formula() {
        // F_0(x) = (1/2)·√(π/x)·erf(√x)
        for &x in &[0.1, 0.5, 1.0, 3.0, 10.0, 30.0, 40.0, 100.0] {
            let f = boys(0, x);
            let want = 0.5 * (PI / x).sqrt() * erf_series(x.sqrt());
            assert!(approx_eq(f[0], want, 1e-12), "x={x}: {} vs {want}", f[0]);
        }
    }

    #[test]
    fn boys_satisfies_recursion() {
        // F_{m+1}(x) = ((2m+1) F_m(x) − e^{-x}) / (2x)
        for &x in &[0.25, 2.0, 8.0, 20.0, 50.0] {
            let f = boys(8, x);
            for m in 0..8 {
                let rhs = ((2 * m + 1) as f64 * f[m] - (-x).exp()) / (2.0 * x);
                assert!(approx_eq(f[m + 1], rhs, 1e-10), "x={x} m={m}");
            }
        }
    }

    #[test]
    fn boys_quadrature_oracle() {
        // Compare against direct Gauss–Legendre integration of the defining
        // integral.
        use crate::quadrature::gauss_legendre;
        let (nodes, weights) = gauss_legendre(80);
        for &x in &[0.3, 1.7, 5.0, 12.0] {
            let f = boys(4, x);
            for m in 0..=4 {
                // map [-1,1] -> [0,1]
                let mut val = 0.0;
                for (&t, &w) in nodes.iter().zip(&weights) {
                    let u: f64 = 0.5 * (t + 1.0);
                    val += 0.5 * w * u.powi(2 * m as i32) * (-x * u * u).exp();
                }
                assert!(approx_eq(f[m], val, 1e-11), "x={x}, m={m}");
            }
        }
    }

    #[test]
    fn boys_continuous_across_regime_switch() {
        let below = boys(10, 35.0 - 1e-9);
        let above = boys(10, 35.0 + 1e-9);
        for m in 0..=10 {
            assert!(approx_eq(below[m], above[m], 1e-10), "m={m}");
        }
    }

    #[test]
    fn combinatorics() {
        assert_eq!(double_factorial(-1), 1.0);
        assert_eq!(double_factorial(0), 1.0);
        assert_eq!(double_factorial(5), 15.0);
        assert_eq!(double_factorial(6), 48.0);
        assert_eq!(factorial(5), 120.0);
        assert_eq!(binomial(6, 2), 15.0);
        assert_eq!(binomial(10, 0), 1.0);
        assert_eq!(binomial(4, 7), 0.0);
    }
}
