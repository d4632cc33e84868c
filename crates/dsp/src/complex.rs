//! A minimal double-precision complex number.
//!
//! The offline dependency set has no `num-complex`, and the FFT only needs a
//! handful of operations, so we implement exactly those. The layout is
//! `repr(C)` (two `f64`s) so slices of [`Complex64`] are cache-friendly.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// `e^{iθ}` — a unit phasor at angle `theta` (radians).
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex64::new(theta.cos(), theta.sin())
    }

    /// Complex conjugate `re − im·i`.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64::new(self.re, -self.im)
    }

    /// Squared magnitude `re² + im²` (avoids the square root of [`norm`]).
    ///
    /// [`norm`]: Complex64::norm
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `√(re² + im²)`.
    #[inline]
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex64::new(self.re * k, self.im * k)
    }

    /// Complex exponential `e^{self}`.
    #[inline]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        Complex64::new(r * self.im.cos(), r * self.im.sin())
    }

    /// Returns `true` if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// Returns `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Complex64::from_real(re)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: Complex64) -> Complex64 {
        let d = rhs.norm_sqr();
        Complex64::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex64) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex64) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Complex64) {
        *self = *self / rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn close(a: Complex64, b: Complex64) -> bool {
        (a.re - b.re).abs() < EPS && (a.im - b.im).abs() < EPS
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Complex64::new(1.5, -2.5);
        let b = Complex64::new(-0.25, 4.0);
        assert!(close(a + b - b, a));
    }

    #[test]
    fn mul_matches_manual_expansion() {
        let a = Complex64::new(2.0, 3.0);
        let b = Complex64::new(4.0, -5.0);
        // (2+3i)(4−5i) = 8 −10i +12i −15i² = 23 + 2i
        assert!(close(a * b, Complex64::new(23.0, 2.0)));
    }

    #[test]
    fn div_is_mul_inverse() {
        let a = Complex64::new(2.0, 3.0);
        let b = Complex64::new(4.0, -5.0);
        assert!(close(a * b / b, a));
    }

    #[test]
    fn conj_negates_imaginary() {
        let a = Complex64::new(1.0, 2.0);
        assert_eq!(a.conj(), Complex64::new(1.0, -2.0));
        assert!((a * a.conj()).im.abs() < EPS);
        assert!(((a * a.conj()).re - a.norm_sqr()).abs() < EPS);
    }

    #[test]
    fn cis_is_unit() {
        for k in 0..16 {
            let theta = k as f64 * 0.3;
            assert!((Complex64::cis(theta).norm() - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn exp_of_i_pi_is_minus_one() {
        let e = Complex64::new(0.0, std::f64::consts::PI).exp();
        assert!(close(e, Complex64::new(-1.0, 0.0)));
    }

    #[test]
    fn sum_folds_over_zero() {
        let v = [Complex64::new(1.0, 1.0), Complex64::new(2.0, -3.0)];
        let s: Complex64 = v.iter().copied().sum();
        assert!(close(s, Complex64::new(3.0, -2.0)));
    }

    #[test]
    fn nan_and_finite_checks() {
        assert!(Complex64::new(f64::NAN, 0.0).is_nan());
        assert!(!Complex64::ONE.is_nan());
        assert!(Complex64::ONE.is_finite());
        assert!(!Complex64::new(f64::INFINITY, 0.0).is_finite());
    }

    #[test]
    fn assign_ops_match_binary_ops() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -4.0);
        let mut x = a;
        x += b;
        assert!(close(x, a + b));
        x -= b;
        assert!(close(x, a));
        x *= b;
        assert!(close(x, a * b));
        x /= b;
        assert!(close(x, a));
    }
}
