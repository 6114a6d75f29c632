//! Complex scalar type and tolerance-aware comparisons.
//!
//! All of qclab works in double precision. The toolbox the paper describes
//! emphasizes numerical stability, so comparisons throughout the workspace
//! go through the helpers here rather than ad-hoc `==` on floats.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Sub};

/// The complex scalar used throughout qclab (MATLAB `double` analog):
/// `re + i·im` in double precision. It carries the arithmetic the
/// workspace uses and no more.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(C)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

// The SIMD kernels (`qclab-core`'s `sim/simd.rs`) read a `[C64]` as
// interleaved `[re, im]` `f64` pairs: `#[repr(C)]` fixes the field order,
// and this fixes the size and alignment that cast relies on.
const _: () = assert!(std::mem::size_of::<C64>() == 16 && std::mem::align_of::<C64>() == 8);

impl C64 {
    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    /// Modulus `|z| = sqrt(re² + im²)`.
    #[inline]
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared modulus `re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Complex conjugate `re − i·im`.
    #[inline]
    pub fn conj(self) -> Self {
        C64::new(self.re, -self.im)
    }

    /// Multiplies by the real scalar `t`.
    #[inline]
    pub fn scale(self, t: f64) -> Self {
        C64::new(self.re * t, self.im * t)
    }
}

impl Add for C64 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        C64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for C64 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        C64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for C64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        C64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for C64 {
    type Output = Self;
    /// `z / w = z · w⁻¹`, with `w⁻¹ = conj(w) / |w|²`.
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Self) -> Self {
        let d = rhs.norm_sqr();
        self * C64::new(rhs.re / d, -rhs.im / d)
    }
}

// by-reference forms of `+`, `-` and `*`
macro_rules! forward_ref_binop {
    ($($trait:ident :: $method:ident),*) => {$(
        impl $trait<&C64> for C64 {
            type Output = C64;
            #[inline]
            fn $method(self, rhs: &C64) -> C64 {
                $trait::$method(self, *rhs)
            }
        }
        impl $trait<C64> for &C64 {
            type Output = C64;
            #[inline]
            fn $method(self, rhs: C64) -> C64 {
                $trait::$method(*self, rhs)
            }
        }
        impl $trait<&C64> for &C64 {
            type Output = C64;
            #[inline]
            fn $method(self, rhs: &C64) -> C64 {
                $trait::$method(*self, *rhs)
            }
        }
    )*};
}

forward_ref_binop!(Add::add, Sub::sub, Mul::mul);

impl Mul<f64> for C64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl AddAssign for C64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl AddAssign<&C64> for C64 {
    #[inline]
    fn add_assign(&mut self, rhs: &C64) {
        *self = *self + *rhs;
    }
}

impl MulAssign for C64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl MulAssign<f64> for C64 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = self.scale(rhs);
    }
}

impl Sum for C64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(C64::new(0.0, 0.0), |a, b| a + b)
    }
}

/// Default absolute tolerance for floating-point comparisons.
///
/// Chosen as `1e-12`: far above the `f64` epsilon accumulated by the deepest
/// circuits exercised in the test suite, far below any physically meaningful
/// amplitude difference.
pub const DEFAULT_TOL: f64 = 1e-12;

/// Returns the imaginary unit `i`.
#[inline]
pub fn im() -> C64 {
    C64::new(0.0, 1.0)
}

/// Returns `1 + 0i`.
#[inline]
pub fn one() -> C64 {
    C64::new(1.0, 0.0)
}

/// Returns `0 + 0i`.
#[inline]
pub fn zero() -> C64 {
    C64::new(0.0, 0.0)
}

/// Shorthand constructor for a complex number from real and imaginary parts.
#[inline]
pub fn c(re: f64, im: f64) -> C64 {
    C64::new(re, im)
}

/// Shorthand constructor for a purely real complex number.
#[inline]
pub fn cr(re: f64) -> C64 {
    C64::new(re, 0.0)
}

/// `exp(i theta)` — the unit phase factor used by rotation and phase gates.
#[inline]
pub fn cis(theta: f64) -> C64 {
    C64::new(theta.cos(), theta.sin())
}

/// Absolute comparison of two real numbers within `tol`.
#[inline]
pub fn approx_eq_f(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

/// Absolute comparison of two complex numbers within `tol` (per component).
#[inline]
pub fn approx_eq_c(a: C64, b: C64, tol: f64) -> bool {
    approx_eq_f(a.re, b.re, tol) && approx_eq_f(a.im, b.im, tol)
}

/// Rounds denormal noise to zero: any component with magnitude below `tol`
/// is clamped to exactly `0.0`.
///
/// This mirrors MATLAB-style "chop" output cleaning used when printing
/// state vectors, and keeps deterministic text output stable across
/// backends that accumulate rounding differently.
#[inline]
pub fn chop(a: C64, tol: f64) -> C64 {
    let re = if a.re.abs() < tol { 0.0 } else { a.re };
    let im = if a.im.abs() < tol { 0.0 } else { a.im };
    C64::new(re, im)
}

/// Formats a complex number the way MATLAB's command window does:
/// `0.7071 + 0.0000i`, with a fixed number of decimal places.
pub fn format_matlab(a: C64, decimals: usize) -> String {
    let sign = if a.im.is_sign_negative() { '-' } else { '+' };
    format!(
        "{:.*} {} {:.*}i",
        decimals,
        a.re,
        sign,
        decimals,
        a.im.abs()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let z = c(3.0, -4.0);
        assert_eq!(z.norm(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.conj(), c(3.0, 4.0));
        assert_eq!(c(1.0, 2.0) * c(3.0, 4.0), c(-5.0, 10.0));
        assert!(approx_eq_c(c(-5.0, 10.0) / c(3.0, 4.0), c(1.0, 2.0), 1e-15));
    }

    #[test]
    fn cis_matches_euler() {
        let theta = 0.7342;
        let z = cis(theta);
        assert!(approx_eq_f(z.re, theta.cos(), 1e-15));
        assert!(approx_eq_f(z.im, theta.sin(), 1e-15));
        assert!(approx_eq_f(z.norm(), 1.0, 1e-15));
    }

    #[test]
    fn chop_clamps_small_components() {
        let z = chop(c(1e-14, 0.5), 1e-12);
        assert_eq!(z.re, 0.0);
        assert_eq!(z.im, 0.5);
    }

    #[test]
    fn chop_keeps_large_components() {
        let z = chop(c(0.3, -0.4), 1e-12);
        assert_eq!(z, c(0.3, -0.4));
    }

    #[test]
    fn approx_eq_c_componentwise() {
        assert!(approx_eq_c(c(1.0, 2.0), c(1.0 + 1e-13, 2.0 - 1e-13), 1e-12));
        assert!(!approx_eq_c(c(1.0, 2.0), c(1.0 + 1e-10, 2.0), 1e-12));
    }

    #[test]
    fn matlab_format_positive_and_negative_imag() {
        assert_eq!(
            format_matlab(c(std::f64::consts::FRAC_1_SQRT_2, 0.0), 4),
            "0.7071 + 0.0000i"
        );
        assert_eq!(format_matlab(c(0.0, -0.5), 4), "0.0000 - 0.5000i");
    }
}
