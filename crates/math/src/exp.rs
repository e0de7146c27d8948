//! Double-precision `exp` from scratch.
//!
//! Algorithm (after Cephes `exp.c`, the same family of kernel Intel's SVML
//! uses for its vector `exp`):
//!
//! 1. Range-reduce `x = n*ln2 + r` with `|r| <= ln2/2`, subtracting `n*ln2`
//!    in two parts (`C1` exact in double, `C2` the residual) to keep `r`
//!    accurate to the last bit.
//! 2. Approximate `e^r` with the rational form
//!    `e^r = 1 + 2r·P(r²) / (Q(r²) − r·P(r²))`.
//! 3. Reconstruct with an exponent-field [`ldexp`] by `n`.
//!
//! Inputs past the overflow / underflow thresholds give `+inf` / `0` by
//! select; NaN propagates.

use crate::lanes::Lanes;
use crate::poly::{ldexp, polevl};

/// Numerator coefficients `P` of the `e^r` rational approximation,
/// descending powers of `r²`.
const EXP_P: [f64; 3] = [
    1.261_771_930_748_105_9e-4,
    3.029_944_077_074_419_6e-2,
    #[allow(clippy::excessive_precision)] // Cephes coefficient, kept verbatim
    9.999_999_999_999_999_9e-1,
];

/// Denominator coefficients `Q`, descending powers of `r²`.
const EXP_Q: [f64; 4] = [
    3.001_985_051_386_644_6e-6,
    2.524_483_403_496_841e-3,
    2.272_655_482_081_550_3e-1,
    2.000_000_000_000_000_0,
];

/// `log2(e)` used to compute the reduction integer `n`.
const LOG2E: f64 = std::f64::consts::LOG2_E;
/// High part of `ln 2` (exactly representable, 32 significant bits).
const LN2_C1: f64 = 6.931_457_519_531_25e-1;
/// Low (residual) part of `ln 2`; `LN2_C1 + LN2_C2 == ln 2` to full
/// double-double precision.
const LN2_C2: f64 = 1.428_606_820_309_417_2e-6;

/// Input above which `exp` overflows to `+inf`.
pub const EXP_OVERFLOW: f64 = 709.782_712_893_384;
/// Input below which `exp` underflows to `0`.
pub const EXP_UNDERFLOW: f64 = -745.133_219_101_941_1;

/// Compute `e^x` lane-wise in double precision.
///
/// Relative error is within a few ulp of the correctly rounded result over
/// the whole finite range; the unit tests compare against `f64::exp` at
/// `<= 4e-16` relative tolerance. IEEE edges: NaN in, NaN out,
/// `x > EXP_OVERFLOW` gives `+inf`, `x < EXP_UNDERFLOW` gives `0`.
///
/// ```
/// let y = finbench_math::exp(1.0);
/// assert!((y - std::f64::consts::E).abs() < 1e-15);
/// ```
#[inline(always)]
pub fn exp<L: Lanes>(x: L) -> L {
    // n = round(x / ln2)
    let n = (x * LOG2E + 0.5).floor();
    let r = x - n * LN2_C1 - n * LN2_C2;

    // Rational approximation of e^r.
    let rr = r * r;
    let p = r * polevl(rr, &EXP_P);
    let e = p * 2.0 / (polevl(rr, &EXP_Q) - p) + 1.0;

    // The edges as selects, not behind a whole-vector test: where LLVM
    // interleaves a loop of `exp`s it if-converts such a test and runs the
    // rare path for every vector (Monte-Carlo's sweep lost 17 %).
    let y = ldexp(e, n);
    let y = L::select(x.gt(L::splat(EXP_OVERFLOW)), L::splat(f64::INFINITY), y);
    L::select(x.lt(L::splat(EXP_UNDERFLOW)), L::splat(0.0), y)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_err(a: f64, b: f64) -> f64 {
        if b == 0.0 {
            a.abs()
        } else {
            ((a - b) / b).abs()
        }
    }

    #[test]
    fn matches_std_over_typical_range() {
        // Option-pricing exponents live in roughly [-50, 10]; sweep wider.
        let mut worst = 0.0f64;
        let mut i = -70000;
        while i <= 70000 {
            let x = i as f64 * 0.01; // [-700, 700]
            let e = rel_err(exp(x), x.exp());
            worst = worst.max(e);
            i += 7;
        }
        assert!(worst < 4e-16, "worst rel err {worst}");
    }

    #[test]
    fn special_values() {
        assert_eq!(exp(0.0), 1.0);
        assert!((exp(1.0) - std::f64::consts::E).abs() < 1e-15);
        assert_eq!(exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp(f64::NEG_INFINITY), 0.0);
        assert!(exp(f64::NAN).is_nan());
    }

    #[test]
    fn overflow_and_underflow() {
        assert_eq!(exp(710.0), f64::INFINITY);
        assert_eq!(exp(-746.0), 0.0);
        assert!(exp(709.0).is_finite());
        assert!(exp(-744.0) > 0.0);
    }

    #[test]
    fn subnormal_results() {
        // exp of a very negative number lands in the subnormal range but
        // must still be positive and close to std.
        let x = -708.5;
        let got = exp(x);
        let want = x.exp();
        assert!(got > 0.0);
        assert!(rel_err(got, want) < 1e-12);
    }

    #[test]
    fn monotone_on_grid() {
        let mut prev = exp(-20.0);
        let mut i = 1;
        while i <= 4000 {
            let x = -20.0 + i as f64 * 0.01;
            let cur = exp(x);
            assert!(cur >= prev, "non-monotone at x={x}");
            prev = cur;
            i += 1;
        }
    }

    #[test]
    fn reduction_identity() {
        // exp(a+b) == exp(a)*exp(b) to tight tolerance for moderate args.
        for (a, b) in [(0.3, 0.7), (-1.25, 2.5), (5.0, -3.0), (-0.001, 0.002)] {
            let lhs = exp(a + b);
            let rhs = exp(a) * exp(b);
            assert!(rel_err(lhs, rhs) < 1e-14);
        }
    }
}
