//! Error function `erf`.
//!
//! The paper replaces `cnd` with `erf` ("erf is less computationally
//! intensive than cnd") via `cnd(x) = (1 + erf(x/√2))/2`; we provide both
//! directions so either kernel formulation can be benchmarked.
//!
//! * For `|x| < 0.5` the Maclaurin series
//!   `erf x = (2/√π) Σ (−1)^k x^{2k+1} / (k! (2k+1))`
//!   is used — the region where the CDF-based route would cancel.
//! * Elsewhere `erf x = 2·Φ(x√2) − 1` (for `x ≥ ½`, sign restored below)
//!   delegates to the Hart/West CDF.

use crate::lanes::Lanes;

const FRAC_2_SQRT_PI: f64 = std::f64::consts::FRAC_2_SQRT_PI;
const SQRT_2: f64 = std::f64::consts::SQRT_2;

/// Number of Maclaurin terms used for `|x| < 0.5`; term 14 is below
/// `0.5^29 / (14! · 29) ≈ 7e-22`, comfortably under one ulp.
const ERF_SERIES_TERMS: usize = 14;

/// The exact series coefficient `(−1)^k / (k! (2k+1))`.
const fn erf_series_coeff(k: u32) -> f64 {
    let mut fact = 1.0f64;
    let mut i = 1;
    while i <= k {
        fact *= i as f64;
        i += 1;
    }
    let sign = if k.is_multiple_of(2) { 1.0 } else { -1.0 };
    sign / (fact * (2 * k + 1) as f64)
}

/// [`erf_series_coeff`] for `k = 0 .. ERF_SERIES_TERMS`, as literals: the
/// series has no division.
const ERF_SERIES: [f64; ERF_SERIES_TERMS] = {
    let mut c = [0.0; ERF_SERIES_TERMS];
    let mut k = 0;
    while k < ERF_SERIES_TERMS {
        c[k] = erf_series_coeff(k as u32);
        k += 1;
    }
    c
};

/// Error function, lane-wise; NaN in, NaN out.
///
/// Both forms are evaluated for every lane and blended: `|x| < 0.5` is
/// neither rare nor common in a pricing batch, so a whole-vector branch
/// on it would be a coin flip per vector.
///
/// ```
/// assert!((finbench_math::erf(1.0) - 0.8427007929497149).abs() < 1e-14);
/// ```
#[inline(always)]
pub fn erf<L: Lanes>(x: L) -> L {
    let ax = x.abs();
    // CDF-based evaluation for |x| >= 0.5, with sign restored.
    let mag = (ax * SQRT_2).norm_cdf() * 2.0 - 1.0;
    let big = L::select(x.lt(L::splat(0.0)), -mag, mag);
    L::select(ax.lt(L::splat(0.5)), erf_series(x), big)
}

/// The Maclaurin series, `x^{2k+1} · c_k` summed upward.
#[inline(always)]
fn erf_series<L: Lanes>(x: L) -> L {
    let x2 = x * x;
    let mut pow = x;
    let mut sum = x;
    for &c in &ERF_SERIES[1..] {
        pow *= x2;
        sum += pow * c;
    }
    sum * FRAC_2_SQRT_PI
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
    fn cnd_equivalence_from_paper() {
        // cnd(x) = (1 + erf(x/sqrt(2)))/2 must reproduce norm_cdf.
        let mut i = -500;
        while i <= 500 {
            let x = i as f64 * 0.01;
            let via_erf = 0.5 * (1.0 + erf(x * std::f64::consts::FRAC_1_SQRT_2));
            let direct = crate::norm_cdf(x);
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
