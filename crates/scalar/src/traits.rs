//! The [`Scalar`] trait: the precision axis of the whole workspace.

use core::fmt::{Debug, Display};
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::half16::Half;
use crate::precision::Precision;

/// A real floating-point scalar usable as the working precision of a solver.
///
/// Implemented for [`f64`], [`f32`], and the software binary16 [`Half`].
/// All solver and kernel code in the workspace is generic over this trait,
/// mirroring how Belos templates its solvers on a scalar type (paper §IV).
pub trait Scalar:
    Copy
    + Clone
    + Default
    + Send
    + Sync
    + 'static
    + PartialEq
    + PartialOrd
    + Debug
    + Display
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum<Self>
{
    /// Human-readable precision name, e.g. `"fp64"`.
    const NAME: &'static str;
    /// Storage size in bytes (what the memory-traffic model charges).
    const BYTES: usize;
    /// Machine epsilon (distance from 1.0 to the next representable value).
    const EPS: f64;
    /// Largest finite value, as `f64`.
    const MAX_FINITE: f64;
    /// Runtime precision descriptor.
    const PRECISION: Precision;

    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Round an `f64` into this precision (single correctly-rounded step).
    fn from_f64(v: f64) -> Self;
    /// Exact widening to `f64`.
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Fused `self * a + b`.
    ///
    /// `f64` and `f32` round exactly once, whether the CPU's FMA
    /// instruction or libm's software `fma` computes it, so kernels give
    /// the same bits on either path. `Half` rounds twice: an f32 FMA,
    /// then one rounding to binary16.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// `true` when neither NaN nor infinite.
    fn is_finite(self) -> bool;

    /// Reciprocal `1 / self`.
    #[inline]
    fn recip(self) -> Self {
        Self::one() / self
    }

    /// Convenience: `from_f64(v as f64)` for usize counters.
    #[inline]
    fn from_usize(v: usize) -> Self {
        Self::from_f64(v as f64)
    }
}

impl Scalar for f64 {
    const NAME: &'static str = "fp64";
    const BYTES: usize = 8;
    const EPS: f64 = f64::EPSILON;
    const MAX_FINITE: f64 = f64::MAX;
    const PRECISION: Precision = Precision::Fp64;

    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
}

impl Scalar for f32 {
    const NAME: &'static str = "fp32";
    const BYTES: usize = 4;
    const EPS: f64 = f32::EPSILON as f64;
    const MAX_FINITE: f64 = f32::MAX as f64;
    const PRECISION: Precision = Precision::Fp32;

    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    #[inline]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }
    #[inline]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
}

impl Sum<Half> for Half {
    fn sum<I: Iterator<Item = Half>>(iter: I) -> Half {
        // Accumulate in f32 with a single final rounding: strictly more
        // accurate than chained binary16 additions, matching how a GPU
        // would accumulate a reduction in registers.
        Half::from_f32(iter.map(Half::to_f32).sum())
    }
}

impl Scalar for Half {
    const NAME: &'static str = "fp16";
    const BYTES: usize = 2;
    // eps(binary16) = 2^-10.
    const EPS: f64 = 9.765_625e-4;
    const MAX_FINITE: f64 = 65504.0;
    const PRECISION: Precision = Precision::Fp16;

    #[inline]
    fn zero() -> Self {
        Half::ZERO
    }
    #[inline]
    fn one() -> Self {
        Half::ONE
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        Half::from_f64(v)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        Half::to_f64(self)
    }
    #[inline]
    fn abs(self) -> Self {
        Half::abs(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        Half::sqrt(self)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        // Emulated with an f32 FMA and one rounding back to half.
        Half::from_f32(self.to_f32().mul_add(a.to_f32(), b.to_f32()))
    }
    #[inline]
    fn is_finite(self) -> bool {
        Half::is_finite(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eps_is_gap_to_next<S: Scalar>() {
        // EPS must equal the gap between 1.0 and the next representable value.
        let one = S::one();
        let next = S::from_f64(1.0 + S::EPS);
        assert!(next.to_f64() > 1.0, "{}: 1+eps must be > 1", S::NAME);
        let half_eps = S::from_f64(1.0 + S::EPS / 2.0);
        assert_eq!(
            half_eps.to_f64(),
            one.to_f64(),
            "{}: 1+eps/2 rounds to 1",
            S::NAME
        );
    }

    #[test]
    fn eps_consistency_all_precisions() {
        eps_is_gap_to_next::<f64>();
        eps_is_gap_to_next::<f32>();
        eps_is_gap_to_next::<Half>();
    }

    #[test]
    fn bytes_match_precision() {
        assert_eq!(f64::BYTES, 8);
        assert_eq!(f32::BYTES, 4);
        assert_eq!(Half::BYTES, 2);
        assert_eq!(f64::PRECISION.bytes(), 8);
        assert_eq!(f32::PRECISION.bytes(), 4);
        assert_eq!(Half::PRECISION.bytes(), 2);
    }

    fn generic_quadratic<S: Scalar>(x: S) -> S {
        // (x+1)^2 - x^2 - 2x == 1 in exact arithmetic.
        let one = S::one();
        (x + one) * (x + one) - x * x - (one + one) * x
    }

    #[test]
    fn generic_code_runs_in_all_precisions() {
        assert_eq!(generic_quadratic(3.0f64), 1.0);
        assert_eq!(generic_quadratic(3.0f32), 1.0);
        assert_eq!(generic_quadratic(Half::from_f32(3.0)).to_f32(), 1.0);
    }

    #[test]
    fn sum_impl_for_half_uses_wide_accumulation() {
        // 4096 copies of 1.0: naive chained half additions would stall at
        // 2048 (swamping); the wide accumulator must reach the correctly
        // rounded result, which is Inf-free and equals 4096.
        let total: Half = (0..4096).map(|_| Half::ONE).sum();
        assert_eq!(total.to_f32(), 4096.0);
    }

    #[test]
    fn max_finite_roundtrips() {
        assert_eq!(f32::from_f64(f32::MAX_FINITE).to_f64(), f32::MAX_FINITE);
        assert_eq!(Half::from_f64(Half::MAX_FINITE).to_f64(), 65504.0);
    }
}
