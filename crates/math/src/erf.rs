//! Error function `erf` and its complement `erfc`.
//!
//! The paper replaces `cnd` with `erf` ("erf is less computationally
//! intensive than cnd") via `cnd(x) = (1 + erf(x/√2))/2`; we provide both
//! directions so either kernel formulation can be benchmarked.
//!
//! * For `|x| < 0.5` the Maclaurin series
//!   `erf x = (2/√π) Σ (−1)^k x^{2k+1} / (k! (2k+1))`
//!   is used — the region where the CDF-based route would cancel.
//! * Elsewhere `erf x = 2·Φ(x√2) − 1` (for `x ≥ ½`) and
//!   `erfc x = 2·Φ(−x√2)` delegate to the Hart/West CDF, whose tail form
//!   keeps `erfc` relatively accurate out to `x ≈ 26`.

use crate::norm::norm_cdf;

/// `2/sqrt(pi)` — the erf series prefactor.
pub const FRAC_2_SQRT_PI: f64 = std::f64::consts::FRAC_2_SQRT_PI;
const SQRT_2: f64 = std::f64::consts::SQRT_2;

/// Number of Maclaurin terms used for `|x| < 0.5`; term 14 is below
/// `0.5^29 / (14! · 29) ≈ 7e-22`, comfortably under one ulp.
const ERF_SERIES_TERMS: u32 = 14;

/// The exact series coefficient `(−1)^k / (k! (2k+1))`; exposed for the
/// op-count audit and the SIMD crate's table generation.
pub fn erf_series_coeff(k: u32) -> f64 {
    let mut fact = 1.0f64;
    for i in 1..=k {
        fact *= i as f64;
    }
    let sign = if k.is_multiple_of(2) { 1.0 } else { -1.0 };
    sign / (fact * (2 * k + 1) as f64)
}

/// Maclaurin evaluation for `|x| < 0.5`, accurate to ~1 ulp *relative*.
#[inline(always)]
fn erf_small(x: f64) -> f64 {
    let x2 = x * x;
    let mut pow = x; // x^{2k+1}
    let mut fact = 1.0; // k!
    let mut acc = x; // k = 0 term
    for k in 1..ERF_SERIES_TERMS {
        let kf = k as f64;
        fact *= kf;
        pow *= x2;
        let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
        acc += sign * pow / (fact * (2.0 * kf + 1.0));
    }
    FRAC_2_SQRT_PI * acc
}

/// Error function.
///
/// ```
/// assert!((finbench_math::erf(1.0) - 0.8427007929497149).abs() < 1e-14);
/// ```
#[inline(always)]
pub fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    let ax = x.abs();
    if ax < 0.5 {
        erf_small(x)
    } else {
        let y = 2.0 * norm_cdf(ax * SQRT_2) - 1.0;
        if x < 0.0 {
            -y
        } else {
            y
        }
    }
}

/// Complementary error function `erfc x = 1 − erf x`, computed without
/// cancellation in the right tail.
///
/// ```
/// assert!((finbench_math::erfc(0.0) - 1.0).abs() < 1e-15);
/// ```
#[inline]
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    if x < 0.5 {
        1.0 - erf(x)
    } else {
        2.0 * norm_cdf(-x * SQRT_2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_coefficients() {
        assert!((erf_series_coeff(0) - 1.0).abs() < 1e-18);
        assert!((erf_series_coeff(1) + 1.0 / 3.0).abs() < 1e-18);
        assert!((erf_series_coeff(2) - 0.1).abs() < 1e-18);
        assert!((erf_series_coeff(3) + 1.0 / 42.0).abs() < 1e-18);
        assert!((erf_series_coeff(4) - 1.0 / 216.0).abs() < 1e-18);
    }

    #[test]
    fn known_values() {
        let cases = [
            (0.0, 0.0),
            (0.5, 0.520_499_877_813_046_5),
            (1.0, 0.842_700_792_949_714_9),
            (2.0, 0.995_322_265_018_952_7),
            (3.0, 0.999_977_909_503_001_4),
            (-1.0, -0.842_700_792_949_714_9),
        ];
        for (x, want) in cases {
            let got = erf(x);
            assert!((got - want).abs() < 2e-15, "x={x} got={got} want={want}");
        }
    }

    #[test]
    fn small_x_relative_accuracy() {
        // Near zero erf(x) ~ 2x/sqrt(pi); relative accuracy matters. Use a
        // 25-term series as the oracle (truncation far below one ulp for
        // |x| < 0.5).
        for &x in &[1e-300f64, 1e-20, 1e-10, 1e-5, 0.01, 0.1, 0.49] {
            let mut want = 0.0;
            for k in (0..25u32).rev() {
                want += erf_series_coeff(k) * x.powi(2 * k as i32 + 1);
            }
            want *= FRAC_2_SQRT_PI;
            let got = erf(x);
            assert!(
                ((got - want) / want).abs() < 1e-13,
                "x={x} got={got} want={want}"
            );
        }
    }

    #[test]
    fn odd_symmetry() {
        let mut i = 0;
        while i <= 600 {
            let x = i as f64 * 0.01;
            assert_eq!(erf(x), -erf(-x), "x={x}");
            i += 1;
        }
    }

    #[test]
    fn erfc_complements_erf() {
        let mut i = -300;
        while i <= 300 {
            let x = i as f64 * 0.01;
            let s = erf(x) + erfc(x);
            assert!((s - 1.0).abs() < 4e-15, "x={x} sum={s}");
            i += 1;
        }
    }

    #[test]
    fn erfc_tail_relative() {
        // erfc(5) = 1.5374597944280348e-12 (mpmath)
        let want = 1.537_459_794_428_034_8e-12;
        let got = erfc(5.0);
        assert!(((got - want) / want).abs() < 1e-11, "got={got}");
    }

    #[test]
    fn cnd_equivalence_from_paper() {
        // cnd(x) = (1 + erf(x/sqrt(2)))/2 must reproduce norm_cdf.
        let mut i = -500;
        while i <= 500 {
            let x = i as f64 * 0.01;
            let via_erf = 0.5 * (1.0 + erf(x * std::f64::consts::FRAC_1_SQRT_2));
            let direct = norm_cdf(x);
            assert!((via_erf - direct).abs() < 4e-15, "x={x}");
            i += 1;
        }
    }

    #[test]
    fn continuity_at_half() {
        // The series/Hart switchover at |x| = 0.5 must be seamless.
        let below = erf(0.5 - 1e-12);
        let above = erf(0.5 + 1e-12);
        assert!((above - below).abs() < 1e-11);
    }

    #[test]
    fn monotone() {
        let mut prev = erf(-6.0);
        let mut i = 1;
        while i <= 1200 {
            let x = -6.0 + i as f64 * 0.01;
            let cur = erf(x);
            assert!(cur >= prev, "x={x}");
            prev = cur;
            i += 1;
        }
    }
}
