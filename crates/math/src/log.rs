//! Double-precision natural logarithm from scratch.
//!
//! Algorithm:
//!
//! 1. Decompose `x = m · 2^e` with `m ∈ [√½, √2)` by exponent-field
//!    extraction (a branch-light `frexp`).
//! 2. Let `t = (m−1)/(m+1)`; then `ln m = 2·atanh t` and `|t| ≤ 3−2√2 ≈
//!    0.1716`, so the odd series `2t·(1 + t²/3 + t⁴/5 + …)` converges to
//!    double precision within ten terms.
//! 3. Reconstruct `ln x = e·ln2 + ln m` with a hi/lo split of `ln 2`.
//!
//! Zero, negatives, infinities, NaN and subnormals are the rare lanes:
//! fixed up behind one whole-vector test, a subnormal by scaling it into the
//! normal range by `2^54` first.

use crate::lanes::{LaneMask, Lanes};
use crate::poly::polevl;

/// High part of `ln 2` for the reconstruction step.
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
/// Low part of `ln 2`; `LN2_HI + LN2_LO == ln 2` in double-double.
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;

/// Odd-series coefficients of `atanh t / t` in `t²`, descending powers:
/// `1/19, 1/17, ..., 1/3, 1`.
const LOG_SERIES: [f64; 10] = [
    1.0 / 19.0,
    1.0 / 17.0,
    1.0 / 15.0,
    1.0 / 13.0,
    1.0 / 11.0,
    1.0 / 9.0,
    1.0 / 7.0,
    1.0 / 5.0,
    1.0 / 3.0,
    1.0,
];

/// `ln(m · 2^e)` from [`Lanes::frexp`]'s split: `ln m = 2·atanh t` by
/// the series, plus `e·ln 2` in two parts.
#[inline(always)]
fn ln_split<L: Lanes>(m: L, e: L) -> L {
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let lnm = t * 2.0 * polevl(t2, &LOG_SERIES);
    e * LN2_HI + (lnm + e * LN2_LO)
}

/// Compute `ln x` lane-wise in double precision.
///
/// Domain handling matches `f64::ln`: `ln 0 = −inf`, `ln` of a negative
/// number is NaN, `ln inf = inf`, NaN is handed back.
///
/// ```
/// assert!((finbench_math::ln(std::f64::consts::E) - 1.0).abs() < 1e-15);
/// ```
#[inline(always)]
pub fn ln<L: Lanes>(x: L) -> L {
    let normal = x
        .ge(L::splat(f64::MIN_POSITIVE))
        .and(x.le(L::splat(f64::MAX)));
    let (m, e) = if normal.all() {
        x.frexp()
    } else {
        const TWO_54: f64 = 18_014_398_509_481_984.0;
        let tiny = x.lt(L::splat(f64::MIN_POSITIVE));
        let (m, e) = L::select(tiny, x * TWO_54, x).frexp();
        (m, L::select(tiny, e - 54.0, e))
    };
    let y = ln_split(m, e);
    if normal.all() {
        return y;
    }
    // +inf and NaN are handed back, zeros give −inf, negatives NaN.
    let y = L::select(x.le(L::splat(f64::MAX)), y, x);
    let y = L::select(x.le(L::splat(0.0)), L::splat(f64::NEG_INFINITY), y);
    L::select(x.lt(L::splat(0.0)), L::splat(f64::NAN), y)
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
    fn frexp_reconstructs() {
        for &x in &[1e-300, 1e-10, 0.5, 0.9, 1.0, 1.5, 2.0, 3.25, 1e10, 1e300] {
            let (m, e) = x.frexp();
            assert!((std::f64::consts::FRAC_1_SQRT_2..std::f64::consts::SQRT_2).contains(&m));
            assert_eq!(e, e.floor(), "x={x}");
            let back = m * 2f64.powi(e as i32);
            assert!(rel_err(back, x) < 1e-15, "x={x}");
        }
    }

    #[test]
    fn matches_std_over_wide_range() {
        let mut worst = 0.0f64;
        // Geometric sweep over ~30 decades.
        let mut x = 1e-15;
        while x < 1e15 {
            let e = (ln(x) - x.ln()).abs() / x.ln().abs().max(1.0);
            worst = worst.max(e);
            x *= 1.000_937;
        }
        assert!(worst < 5e-16, "worst err {worst}");
    }

    #[test]
    fn accurate_near_one() {
        // ln is delicate near 1 where the result passes through zero; the
        // atanh form is specifically good here.
        for i in 1..2000 {
            let d = i as f64 * 1e-6;
            for x in [1.0 + d, 1.0 - d] {
                let got = ln(x);
                let want = x.ln();
                assert!(
                    (got - want).abs() <= want.abs() * 1e-13 + 1e-18,
                    "x={x} got={got} want={want}"
                );
            }
        }
    }

    #[test]
    fn special_values() {
        assert_eq!(ln(1.0), 0.0);
        assert_eq!(ln(0.0), f64::NEG_INFINITY);
        assert!(ln(-1.0).is_nan());
        assert_eq!(ln(f64::INFINITY), f64::INFINITY);
        assert!(ln(f64::NAN).is_nan());
    }

    #[test]
    fn subnormal_inputs() {
        let x = f64::MIN_POSITIVE / 1024.0;
        assert!(rel_err(ln(x), x.ln()) < 1e-15);
    }

    #[test]
    fn inverse_of_exp() {
        for &x in &[-30.0, -1.0, -1e-3, 0.0, 1e-3, 1.0, 10.0, 300.0] {
            let y = crate::exp(x);
            assert!((ln(y) - x).abs() < 1e-13 * x.abs().max(1.0), "x={x}");
        }
    }

    #[test]
    fn log_of_ratio_matches_difference() {
        // qlog = ln(S/X) is the first operation of the Black-Scholes kernel.
        for (s, x) in [(100.0, 90.0), (55.0, 260.0), (1.0, 1.0), (3.7, 3.6999)] {
            let lhs = ln(s / x);
            let rhs = s.ln() - x.ln();
            assert!((lhs - rhs).abs() < 1e-12);
        }
    }
}
