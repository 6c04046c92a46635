//! Local-density approximation, closed shell (spin-unpolarized):
//! Slater–Dirac exchange and Perdew–Wang 1992 correlation. Per-point
//! functions for each term, and [`lda_exc_vxc`], which an SCF loop calls to
//! get energy density and potential together from one `cbrt`, `sqrt` and
//! `ln`.

use std::f64::consts::PI;

/// Density floor below which XC contributions are treated as zero (the
/// functionals are singular at n → 0⁺ only in their *potentials*; cutting
/// at this floor changes energies by far less than grid error).
pub const DENSITY_FLOOR: f64 = 1e-12;

/// Slater exchange energy per particle `ε_x(n) = −(3/4)(3n/π)^{1/3}`.
#[inline]
pub fn slater_ex(n: f64) -> f64 {
    if n < DENSITY_FLOOR {
        return 0.0;
    }
    -0.75 * (3.0 * n / PI).powf(1.0 / 3.0)
}

/// Slater exchange potential `v_x = ∂(n ε_x)/∂n = −(3n/π)^{1/3}`.
#[inline]
pub fn slater_vx(n: f64) -> f64 {
    if n < DENSITY_FLOOR {
        return 0.0;
    }
    -(3.0 * n / PI).powf(1.0 / 3.0)
}

/// Wigner–Seitz radius `r_s = (3/4πn)^{1/3}`.
#[inline]
pub fn rs_of(n: f64) -> f64 {
    (3.0 / (4.0 * PI * n)).powf(1.0 / 3.0)
}

// PW92 unpolarized parameters (Perdew & Wang, PRB 45, 13244 (1992), Table I,
// ε_c(rs, ζ=0) fit).
const A: f64 = 0.031_090_7;
const ALPHA1: f64 = 0.213_70;
const BETA1: f64 = 7.595_7;
const BETA2: f64 = 3.587_6;
const BETA3: f64 = 1.638_2;
const BETA4: f64 = 0.492_94;

/// PW92 correlation energy per particle (ζ = 0) as a function of `r_s`.
pub fn pw92_ec_rs(rs: f64) -> f64 {
    let sqrt_rs = rs.sqrt();
    let q0 = -2.0 * A * (1.0 + ALPHA1 * rs);
    let q1 = 2.0 * A * (BETA1 * sqrt_rs + BETA2 * rs + BETA3 * rs * sqrt_rs + BETA4 * rs * rs);
    q0 * (1.0 + 1.0 / q1).ln()
}

/// Analytic `dε_c/dr_s` for the PW92 fit.
pub fn pw92_dec_drs(rs: f64) -> f64 {
    let sqrt_rs = rs.sqrt();
    let q0 = -2.0 * A * (1.0 + ALPHA1 * rs);
    let dq0 = -2.0 * A * ALPHA1;
    let q1 = 2.0 * A * (BETA1 * sqrt_rs + BETA2 * rs + BETA3 * rs * sqrt_rs + BETA4 * rs * rs);
    let dq1 = A * (BETA1 / sqrt_rs + 2.0 * BETA2 + 3.0 * BETA3 * sqrt_rs + 4.0 * BETA4 * rs);
    dq0 * (1.0 + 1.0 / q1).ln() - q0 * dq1 / (q1 * q1 + q1)
}

/// PW92 correlation energy per particle as a function of density.
#[inline]
pub fn pw92_ec(n: f64) -> f64 {
    if n < DENSITY_FLOOR {
        return 0.0;
    }
    pw92_ec_rs(rs_of(n))
}

/// PW92 correlation potential `v_c = ε_c − (r_s/3) dε_c/dr_s`.
#[inline]
pub fn pw92_vc(n: f64) -> f64 {
    if n < DENSITY_FLOOR {
        return 0.0;
    }
    let rs = rs_of(n);
    pw92_ec_rs(rs) - rs / 3.0 * pw92_dec_drs(rs)
}

/// LDA exchange–correlation energy per particle.
#[inline]
pub fn lda_exc(n: f64) -> f64 {
    slater_ex(n) + pw92_ec(n)
}

/// LDA exchange–correlation potential.
#[inline]
pub fn lda_vxc(n: f64) -> f64 {
    slater_vx(n) + pw92_vc(n)
}

/// `(3/π)^{1/3}`.
const CBRT_3_OVER_PI: f64 = 0.984_745_021_842_696_5;
/// `(3/4π)^{1/3}`.
const CBRT_3_OVER_4PI: f64 = 0.620_350_490_899_4;

/// LDA energy per particle and potential at one density, `(ε_xc, v_xc)`,
/// for a loop that needs both at every point: one `cbrt` gives both
/// `(3n/π)^{1/3}` and `r_s`, and PW92's `ε_c` and `dε_c/dr_s` share one
/// `sqrt` and one `ln`. Equal to `(lda_exc(n), lda_vxc(n))` up to
/// rounding (1e-13 relative from `n = 1e-12` to `1e4`); `(0, 0)` below
/// [`DENSITY_FLOOR`].
#[inline]
pub fn lda_exc_vxc(n: f64) -> (f64, f64) {
    if n < DENSITY_FLOOR {
        return (0.0, 0.0);
    }
    let t = n.cbrt();
    let vx = -CBRT_3_OVER_PI * t;
    let rs = CBRT_3_OVER_4PI / t;
    let sqrt_rs = rs.sqrt();
    let q0 = -2.0 * A * (1.0 + ALPHA1 * rs);
    let q1 = 2.0 * A * (BETA1 * sqrt_rs + BETA2 * rs + BETA3 * rs * sqrt_rs + BETA4 * rs * rs);
    let dq1 = A * (BETA1 / sqrt_rs + 2.0 * BETA2 + 3.0 * BETA3 * sqrt_rs + 4.0 * BETA4 * rs);
    let log = (1.0 + 1.0 / q1).ln();
    let ec = q0 * log;
    let dec_drs = -2.0 * A * ALPHA1 * log - q0 * dq1 / (q1 * q1 + q1);
    (0.75 * vx + ec, vx + ec - rs / 3.0 * dec_drs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use liair_math::approx_eq;

    #[test]
    fn slater_uniform_gas_scaling() {
        // ε_x scales like n^{1/3}: ε_x(8n) = 2 ε_x(n).
        let n = 0.37;
        assert!(approx_eq(slater_ex(8.0 * n), 2.0 * slater_ex(n), 1e-12));
        // v_x = (4/3) ε_x for the LDA.
        assert!(approx_eq(slater_vx(n), 4.0 / 3.0 * slater_ex(n), 1e-12));
    }

    #[test]
    fn pw92_reference_point() {
        // Widely tabulated value: ε_c(rs = 1, ζ = 0) ≈ −0.05966 Ha (e.g.
        // libxc LDA_C_PW). Loose tolerance covers fit-constant rounding.
        let ec = pw92_ec_rs(1.0);
        assert!(approx_eq(ec, -0.05966, 2e-4), "{ec}");
        // rs = 2: ≈ −0.04477? check against monotonic window instead.
        let ec2 = pw92_ec_rs(2.0);
        assert!(ec2 > ec && ec2 < 0.0, "{ec2}");
    }

    #[test]
    fn pw92_is_negative_and_monotone() {
        let mut prev = f64::NEG_INFINITY;
        for k in 1..100 {
            let rs = 0.1 * k as f64;
            let ec = pw92_ec_rs(rs);
            assert!(ec < 0.0);
            assert!(ec > prev, "not monotone at rs = {rs}");
            prev = ec;
        }
    }

    #[test]
    fn pw92_derivative_matches_finite_difference() {
        for &rs in &[0.5, 1.0, 2.0, 5.0, 10.0] {
            let h = 1e-6;
            let fd = (pw92_ec_rs(rs + h) - pw92_ec_rs(rs - h)) / (2.0 * h);
            let an = pw92_dec_drs(rs);
            assert!(approx_eq(an, fd, 1e-6), "rs={rs}: {an} vs {fd}");
        }
    }

    #[test]
    fn potentials_vanish_below_floor() {
        assert_eq!(lda_vxc(0.0), 0.0);
        assert_eq!(lda_exc(1e-20), 0.0);
    }

    #[test]
    fn vxc_from_energy_derivative() {
        // v_xc = d(n ε_xc)/dn, finite-difference check.
        for &n in &[0.01, 0.1, 0.5, 2.0] {
            let h = 1e-7 * n;
            let fd = ((n + h) * lda_exc(n + h) - (n - h) * lda_exc(n - h)) / (2.0 * h);
            assert!(approx_eq(lda_vxc(n), fd, 1e-5), "n={n}");
        }
    }

    #[test]
    fn fused_kernel_matches_separate_functions() {
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs();
        for k in 0..=1600 {
            let n = 1e-12 * 10f64.powf(k as f64 / 100.0);
            let (exc, vxc) = lda_exc_vxc(n);
            let want_exc = slater_ex(n) + pw92_ec(n);
            let want_vxc = slater_vx(n) + pw92_vc(n);
            assert!(
                rel(exc, want_exc) <= 1e-13,
                "n={n:e}: {exc:e} vs {want_exc:e}"
            );
            assert!(
                rel(vxc, want_vxc) <= 1e-13,
                "n={n:e}: {vxc:e} vs {want_vxc:e}"
            );
        }
        for n in [0.0, 1e-20, 0.999e-12] {
            assert_eq!(lda_exc_vxc(n), (0.0, 0.0), "n={n:e}");
        }
    }
}
