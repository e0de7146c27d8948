//! The [`Lanes`] trait, which every transcendental body in this crate is
//! written against once, and which `f64` (the scalar API),
//! `finbench_simd::F64v<N>` (the paper's `F64vec4`/`F64vec8`) and
//! [`crate::CountedF64`] (the op-count audit) implement. Same operations in
//! the same order, so a lane gets the same bits whatever the instance and
//! whatever its neighbours hold. A body has no per-lane branch: choices are
//! a mask and a [`Lanes::select`], and a rare case (a subnormal `ln`, the
//! far tail of `cnd`) sits behind a whole-vector `if mask.all()`, so the
//! common path is straight-line code a vector instance packs.
//!
//! [`Pair`] steps two instances as one, op by op: a body that is one long
//! dependency chain per vector gives the core two to overlap.

use core::fmt::Debug;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub};

/// Lane-wise comparison result of a [`Lanes`] type.
pub trait LaneMask: Copy {
    /// True if every lane is set.
    fn all(self) -> bool;
    /// True if any lane is set.
    fn any(self) -> bool;
    /// Lane-wise AND.
    fn and(self, other: Self) -> Self;
}

/// One or more `f64` lanes with lane-wise IEEE arithmetic. The
/// transcendental methods default to this crate's bodies;
/// [`crate::CountedF64`] overrides them to tally each as one call, so a
/// body's nested call (`cnd`'s Gaussian `exp`) is charged once.
pub trait Lanes:
    Copy
    + Debug
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + Add<f64, Output = Self>
    + Sub<f64, Output = Self>
    + Mul<f64, Output = Self>
    + Div<f64, Output = Self>
    + AddAssign
    + MulAssign
{
    /// Lane-wise comparison result.
    type Mask: LaneMask;

    /// Broadcast `x` into every lane.
    fn splat(x: f64) -> Self;
    /// Fused multiply-add `self * a + b`, rounded once.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Lane-wise floor.
    fn floor(self) -> Self;
    /// Lane-wise absolute value.
    fn abs(self) -> Self;
    /// Lane-wise square root.
    fn sqrt(self) -> Self;
    /// Lane-wise maximum (the payoff / early-exercise clamp).
    fn max(self, other: Self) -> Self;
    /// Lane-wise `<`.
    fn lt(self, other: Self) -> Self::Mask;
    /// Lane-wise `<=`.
    fn le(self, other: Self) -> Self::Mask;
    /// Lane-wise `>`.
    #[inline(always)]
    fn gt(self, other: Self) -> Self::Mask {
        other.lt(self)
    }
    /// Lane-wise `>=`.
    #[inline(always)]
    fn ge(self, other: Self) -> Self::Mask {
        other.le(self)
    }
    /// Blend: `a` in the lanes where `mask` is set, `b` elsewhere.
    fn select(mask: Self::Mask, a: Self, b: Self) -> Self;
    /// `2^n` of integer-valued lanes `n ∈ [−1022, 1023]`, built in the
    /// exponent field; other lanes get unspecified bits.
    fn pow2i(self) -> Self;
    /// `(m, e)` with `self = m · 2^e`, `m ∈ [√½, √2)` and `e` an integer,
    /// for positive normal lanes; other lanes get unspecified bits.
    fn frexp(self) -> (Self, Self);

    /// Natural exponential ([`crate::exp::exp`]).
    #[inline(always)]
    fn exp(self) -> Self {
        crate::exp::exp(self)
    }
    /// Natural logarithm ([`crate::log::ln`]).
    #[inline(always)]
    fn ln(self) -> Self {
        crate::log::ln(self)
    }
    /// Cumulative standard normal, the paper's `cnd`
    /// ([`crate::norm::norm_cdf`]).
    #[inline(always)]
    fn norm_cdf(self) -> Self {
        crate::norm::norm_cdf(self)
    }
    /// Error function ([`crate::erf::erf`]).
    #[inline(always)]
    fn erf(self) -> Self {
        crate::erf::erf(self)
    }
}

impl LaneMask for bool {
    #[inline(always)]
    fn all(self) -> bool {
        self
    }
    #[inline(always)]
    fn any(self) -> bool {
        self
    }
    #[inline(always)]
    fn and(self, other: Self) -> Self {
        self & other
    }
}

/// `2^52`: added to an integer-valued double below `2^51` in magnitude, it
/// leaves the integer in the low mantissa bits (the ulp there is 1).
const TWO_52: f64 = 4_503_599_627_370_496.0;
const FRAC_MASK: u64 = (1 << 52) - 1;

impl Lanes for f64 {
    type Mask = bool;

    #[inline(always)]
    fn splat(x: f64) -> Self {
        x
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
    #[inline(always)]
    fn floor(self) -> Self {
        f64::floor(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline(always)]
    fn lt(self, other: Self) -> bool {
        self < other
    }
    #[inline(always)]
    fn le(self, other: Self) -> bool {
        self <= other
    }
    #[inline(always)]
    fn select(mask: bool, a: Self, b: Self) -> Self {
        if mask {
            a
        } else {
            b
        }
    }
    /// Adding `2^52 + 1023` leaves the biased exponent `n + 1023` in the low
    /// mantissa bits and the shift moves it into the exponent field: one add
    /// and one integer shift, where `n as i64` has no packed form before
    /// AVX-512DQ and scalarised every vector instance.
    #[inline(always)]
    fn pow2i(self) -> Self {
        f64::from_bits((self + (TWO_52 + 1023.0)).to_bits() << 52)
    }
    /// The biased exponent becomes a double by [`pow2i`](Lanes::pow2i)'s
    /// `2^52` trick run backwards: OR-ed into the mantissa of `2^52` it *is*
    /// `2^52 + field`, and one subtraction leaves `field − 1023` exactly.
    #[inline(always)]
    fn frexp(self) -> (Self, Self) {
        let bits = self.to_bits();
        let m = f64::from_bits((bits & FRAC_MASK) | (1023 << 52));
        let e = f64::from_bits((bits >> 52) | TWO_52.to_bits()) - (TWO_52 + 1023.0);
        // m in [1, 2); shift it into [sqrt(1/2), sqrt(2)).
        let big = m >= std::f64::consts::SQRT_2;
        (Self::select(big, m * 0.5, m), Self::select(big, e + 1.0, e))
    }
}

/// Two `L`s stepped as one `Lanes` value: every operation runs on both
/// halves, one after the other, so a body instantiated at `Pair<L>`
/// interleaves two independent dependency chains op by op where two calls
/// at `L` would run them one after the other. Lanes do not interact, so
/// each half has the bits its own `L` call would; the whole-vector tests
/// (`all`, `any`) span both halves, so a rare path runs for both or neither.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pair<L>(pub L, pub L);

macro_rules! pair_op {
    ($trait:ident, $method:ident, $op:tt) => {
        impl<L: Lanes> $trait for Pair<L> {
            type Output = Self;
            #[inline(always)]
            fn $method(self, rhs: Self) -> Self {
                Pair(self.0 $op rhs.0, self.1 $op rhs.1)
            }
        }
        impl<L: Lanes> $trait<f64> for Pair<L> {
            type Output = Self;
            #[inline(always)]
            fn $method(self, rhs: f64) -> Self {
                Pair(self.0 $op rhs, self.1 $op rhs)
            }
        }
    };
}

pair_op!(Add, add, +);
pair_op!(Sub, sub, -);
pair_op!(Mul, mul, *);
pair_op!(Div, div, /);

impl<L: Lanes> Neg for Pair<L> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Pair(-self.0, -self.1)
    }
}

impl<L: Lanes> AddAssign for Pair<L> {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<L: Lanes> MulAssign for Pair<L> {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

/// `&`, not `&&`, as every mask here: one test of both halves.
impl<M: LaneMask> LaneMask for Pair<M> {
    #[inline(always)]
    fn all(self) -> bool {
        self.0.all() & self.1.all()
    }
    #[inline(always)]
    fn any(self) -> bool {
        self.0.any() | self.1.any()
    }
    #[inline(always)]
    fn and(self, other: Self) -> Self {
        Pair(self.0.and(other.0), self.1.and(other.1))
    }
}

/// Each method on both halves; the transcendentals are the crate's bodies
/// at `Pair<L>` (the trait defaults), which is what interleaves them.
impl<L: Lanes> Lanes for Pair<L> {
    type Mask = Pair<L::Mask>;

    #[inline(always)]
    fn splat(x: f64) -> Self {
        Pair(L::splat(x), L::splat(x))
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        Pair(self.0.mul_add(a.0, b.0), self.1.mul_add(a.1, b.1))
    }
    #[inline(always)]
    fn floor(self) -> Self {
        Pair(self.0.floor(), self.1.floor())
    }
    #[inline(always)]
    fn abs(self) -> Self {
        Pair(self.0.abs(), self.1.abs())
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        Pair(self.0.sqrt(), self.1.sqrt())
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        Pair(self.0.max(other.0), self.1.max(other.1))
    }
    #[inline(always)]
    fn lt(self, other: Self) -> Self::Mask {
        Pair(self.0.lt(other.0), self.1.lt(other.1))
    }
    #[inline(always)]
    fn le(self, other: Self) -> Self::Mask {
        Pair(self.0.le(other.0), self.1.le(other.1))
    }
    #[inline(always)]
    fn select(mask: Self::Mask, a: Self, b: Self) -> Self {
        Pair(L::select(mask.0, a.0, b.0), L::select(mask.1, a.1, b.1))
    }
    #[inline(always)]
    fn pow2i(self) -> Self {
        Pair(self.0.pow2i(), self.1.pow2i())
    }
    #[inline(always)]
    fn frexp(self) -> (Self, Self) {
        let ((m0, e0), (m1, e1)) = (self.0.frexp(), self.1.frexp());
        (Pair(m0, m1), Pair(e0, e1))
    }
}
