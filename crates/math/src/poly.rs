//! Polynomial evaluation and exponent scaling over [`Lanes`]. One Horner
//! rule keeps the op-count audit exact: a degree-`n` evaluation is `n`
//! multiplies and `n` adds, in every instance.

use crate::lanes::Lanes;

/// Evaluate a polynomial with coefficients in *descending* degree order
/// using Horner's rule: `c[0]*x^(n-1) + c[1]*x^(n-2) + ... + c[n-1]`.
///
/// Matches Cephes' `polevl`.
#[inline(always)]
pub fn polevl<L: Lanes>(x: L, coeffs: &[f64]) -> L {
    let mut acc = L::splat(coeffs[0]);
    for &c in &coeffs[1..] {
        acc = acc * x + c;
    }
    acc
}

/// `x · 2^n` for integer-valued `n ∈ [−2043, 2046]` and `x` in `exp`'s
/// `[√½, √2]`, rounded once: as `(x · 2^k) · 2^(n − k)` with `k` = `n`
/// clamped to `[−1021, 1023]`, so `x · 2^k` is an exact normal double even
/// where `2^n` alone would be subnormal or overflow. For `n` in that range,
/// `n − k = 0` and the second factor is 1.
#[inline(always)]
pub fn ldexp<L: Lanes>(x: L, n: L) -> L {
    let (lo, hi) = (L::splat(-1021.0), L::splat(1023.0));
    let k = L::select(n.lt(lo), lo, L::select(n.gt(hi), hi, n));
    x * k.pow2i() * (n - k).pow2i()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polevl_constant() {
        assert_eq!(polevl(123.0, &[7.0]), 7.0);
    }

    #[test]
    fn polevl_quadratic() {
        // 2x^2 + 3x + 4 at x = 5 -> 69
        assert_eq!(polevl(5.0, &[2.0, 3.0, 4.0]), 69.0);
    }

    #[test]
    fn ldexp_basic() {
        assert_eq!(ldexp(1.0, 0.0), 1.0);
        assert_eq!(ldexp(1.0, 3.0), 8.0);
        assert_eq!(ldexp(3.0, -2.0), 0.75);
        assert_eq!(ldexp(1.5, 10.0), 1536.0);
    }

    #[test]
    fn ldexp_extremes() {
        // Near the top of the normal range.
        assert_eq!(ldexp(1.0, 1023.0), 2f64.powi(1023));
        // Descend into subnormals and back.
        let tiny = ldexp(1.0, -1040.0);
        assert!(tiny > 0.0 && tiny < f64::MIN_POSITIVE);
        assert_eq!(ldexp(tiny, 1040.0), 1.0);
    }

    #[test]
    fn ldexp_matches_std_scale() {
        for n in -600..600 {
            let want = 1.7 * 2f64.powi(n);
            let got = ldexp(1.7, n as f64);
            assert!(
                (got - want).abs() <= want.abs() * 1e-15,
                "n={n} got={got} want={want}"
            );
        }
    }
}
