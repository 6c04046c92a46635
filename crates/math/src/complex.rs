//! A minimal double-precision complex number.
//!
//! The standard library has no complex type and `num-complex` is not in the
//! allowed dependency set, so we carry our own. Only the operations needed by
//! the FFT and reciprocal-space kernels are provided.

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Construct from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// A purely real value.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// `e^{iθ} = cos θ + i sin θ`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Self { re: c, im: s }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared modulus `|z|²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Scale by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Self {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for Complex64 {
    type Output = Self;
    #[inline]
    fn add(self, o: Self) -> Self {
        Self::new(self.re + o.re, self.im + o.im)
    }
}

impl Sub for Complex64 {
    type Output = Self;
    #[inline]
    fn sub(self, o: Self) -> Self {
        Self::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for Complex64 {
    type Output = Self;
    #[inline]
    fn mul(self, o: Self) -> Self {
        Self::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Mul<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn mul(self, s: f64) -> Self {
        self.scale(s)
    }
}

impl Div for Complex64 {
    type Output = Self;
    #[inline]
    fn div(self, o: Self) -> Self {
        let d = o.norm_sqr();
        Self::new(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )
    }
}

impl Div<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn div(self, s: f64) -> Self {
        Self::new(self.re / s, self.im / s)
    }
}

impl Neg for Complex64 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, o: Self) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, o: Self) {
        self.re -= o.re;
        self.im -= o.im;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, o: Self) {
        *self = *self * o;
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Self::real(re)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(3.0, -4.0);
        assert_eq!(z + Complex64::ZERO, z);
        assert_eq!(z * Complex64::ONE, z);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.conj().im, 4.0);
        assert_eq!((z - z), Complex64::ZERO);
    }

    #[test]
    fn multiplication_and_division_invert() {
        let a = Complex64::new(1.5, -2.5);
        let b = Complex64::new(-0.25, 3.0);
        let q = (a * b) / b;
        assert!(approx_eq(q.re, a.re, 1e-14));
        assert!(approx_eq(q.im, a.im, 1e-14));
    }

    #[test]
    fn cis_lies_on_unit_circle() {
        for k in 0..32 {
            let t = k as f64 * 0.3;
            let z = Complex64::cis(t);
            assert!(approx_eq(z.abs(), 1.0, 1e-14));
        }
        // Euler's identity.
        let z = Complex64::cis(std::f64::consts::PI);
        assert!(approx_eq(z.re, -1.0, 1e-14));
        assert!(z.im.abs() < 1e-14);
    }

    #[test]
    fn i_squared_is_minus_one() {
        let z = Complex64::I * Complex64::I;
        assert!(approx_eq(z.re, -1.0, 1e-15));
        assert!(z.im.abs() < 1e-15);
    }
}
