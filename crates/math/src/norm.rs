//! Standard normal distribution functions: `norm_cdf` (the paper's `cnd`),
//! `norm_pdf`, and the inverse CDF used by the RNG's inverse-transform
//! normal generator.
//!
//! `norm_cdf` uses the Hart (1968) double-precision rational approximation
//! in the form given by West, *Better approximations to cumulative normal
//! functions* (Wilmott, 2005): a degree-6/degree-7 rational times the
//! Gaussian density for `|x| < 7.07`, and a short continued fraction in the
//! far tail. Absolute error is below 1e-15 across the real line, and the
//! *relative* error of the small tail values is also ~1e-15 — important
//! because deep out-of-the-money option prices are exactly such tails.
//!
//! `inv_norm_cdf` uses Acklam's rational approximation (~1.15e-9 relative)
//! polished with one Halley iteration, giving ~1e-15.

use crate::exp::exp;
use crate::log::ln;
use crate::SQRT_2PI;

/// Density of the standard normal distribution.
///
/// ```
/// let top = finbench_math::norm_pdf(0.0);
/// assert!((top - 0.3989422804014327).abs() < 1e-15);
/// ```
#[inline(always)]
pub fn norm_pdf(x: f64) -> f64 {
    exp(-0.5 * x * x) / SQRT_2PI
}

/// Hart/West numerator coefficients (applied to `|x|`, descending for
/// Horner evaluation). Public so `finbench-simd` evaluates the identical
/// rational lane-wise.
pub const CND_NUM: [f64; 7] = [
    0.035_262_496_599_891_1,
    0.700_383_064_443_688,
    6.373_962_203_531_65,
    33.912_866_078_383,
    112.079_291_497_871,
    221.213_596_169_931,
    220.206_867_912_376,
];

/// Hart/West denominator coefficients.
pub const CND_DEN: [f64; 8] = [
    0.088_388_347_648_318_4,
    1.755_667_163_182_64,
    16.064_177_579_207,
    86.780_732_202_946_1,
    296.564_248_779_674,
    637.333_633_378_831,
    793.826_512_519_948,
    440.413_735_824_752,
];

/// Cumulative distribution function of the standard normal; the paper's
/// `cnd`.
///
/// ```
/// assert!((finbench_math::norm_cdf(0.0) - 0.5).abs() < 1e-15);
/// assert!((finbench_math::norm_cdf(1.0) - 0.8413447460685429).abs() < 1e-14);
/// ```
#[inline(always)]
pub fn norm_cdf(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    let ax = x.abs();
    let cumulative = if ax > 37.0 {
        0.0
    } else {
        let e = exp(-0.5 * ax * ax);
        if ax < 7.071_067_811_865_475 {
            let mut num = CND_NUM[0];
            for &c in &CND_NUM[1..] {
                num = num * ax + c;
            }
            let mut den = CND_DEN[0];
            for &c in &CND_DEN[1..] {
                den = den * ax + c;
            }
            e * num / den
        } else {
            // Far tail: Laplace continued fraction for the Mills ratio,
            // Phi(-x) = phi(x) / (x + 1/(x + 2/(x + 3/(...)))).
            // West (2005) truncates at depth 4, which is only ~1e-9
            // accurate right at the 7.07 switch point; depth 12 brings the
            // truncation error below 1e-12 everywhere past the switch.
            let mut b = ax + 0.65;
            let mut k = 12.0;
            while k >= 1.0 {
                b = ax + k / b;
                k -= 1.0;
            }
            e / (b * SQRT_2PI)
        }
    };
    if x > 0.0 {
        1.0 - cumulative
    } else {
        cumulative
    }
}

// ---------------------------------------------------------------------------
// Inverse CDF (Acklam + Halley)
// ---------------------------------------------------------------------------

/// Acklam's central-region numerator (in `r = (p − ½)²`, descending for
/// Horner). The four tables, the region bounds and [`INV_NO_POLISH`] are
/// public so `finbench-simd` and [`crate::generic`] evaluate the identical
/// rationals.
pub const INV_A: [f64; 6] = [
    -3.969_683_028_665_376e1,
    2.209_460_984_245_205e2,
    -2.759_285_104_469_687e2,
    1.383_577_518_672_69e2,
    -3.066_479_806_614_716e1,
    2.506_628_277_459_239,
];
/// Central-region denominator; the trailing `·r + 1` is applied by hand.
pub const INV_B: [f64; 5] = [
    -5.447_609_879_822_406e1,
    1.615_858_368_580_409e2,
    -1.556_989_798_598_866e2,
    6.680_131_188_771_972e1,
    -1.328_068_155_288_572e1,
];
/// Tail numerator, in `q = √(−2 ln p)`.
pub const INV_C: [f64; 6] = [
    -7.784_894_002_430_293e-3,
    -3.223_964_580_411_365e-1,
    -2.400_758_277_161_838,
    -2.549_732_539_343_734,
    4.374_664_141_464_968,
    2.938_163_982_698_783,
];
/// Tail denominator; the trailing `·q + 1` is applied by hand.
pub const INV_D: [f64; 4] = [
    7.784_695_709_041_462e-3,
    3.224_671_290_700_398e-1,
    2.445_134_137_142_996,
    3.754_408_661_907_416,
];

/// Below this probability Acklam switches to the lower-tail rational.
pub const P_LOW: f64 = 0.02425;
/// Above this probability Acklam switches to the (mirrored) upper-tail rational.
pub const P_HIGH: f64 = 1.0 - P_LOW;
/// Past this `|x|` the density underflows and the Halley correction would
/// be 0/0; Acklam alone is ~1e-9 relative there, which the deep tail does
/// not improve on anyway (`norm_cdf` itself clamps at 37).
pub const INV_NO_POLISH: f64 = 36.0;

/// Acklam's rational approximation to the inverse normal CDF *without*
/// the Halley polish: ~1.15e-9 relative error, roughly twice as fast as
/// [`inv_norm_cdf`]. Plenty for Monte-Carlo sampling, where the
/// discretization error dwarfs 1e-9 (the statistical tests in
/// `finbench-rng` pass with either transform).
#[inline(always)]
pub fn inv_norm_cdf_acklam(p: f64) -> f64 {
    if p.is_nan() {
        return p;
    }
    if p <= 0.0 {
        return f64::NEG_INFINITY;
    }
    if p >= 1.0 {
        return f64::INFINITY;
    }
    acklam_guess(p)
}

#[inline(always)]
fn acklam_guess(p: f64) -> f64 {
    if p < P_LOW {
        let q = (-2.0 * ln(p)).sqrt();
        (((((INV_C[0] * q + INV_C[1]) * q + INV_C[2]) * q + INV_C[3]) * q + INV_C[4]) * q
            + INV_C[5])
            / ((((INV_D[0] * q + INV_D[1]) * q + INV_D[2]) * q + INV_D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((INV_A[0] * r + INV_A[1]) * r + INV_A[2]) * r + INV_A[3]) * r + INV_A[4]) * r
            + INV_A[5])
            * q
            / (((((INV_B[0] * r + INV_B[1]) * r + INV_B[2]) * r + INV_B[3]) * r + INV_B[4]) * r
                + 1.0)
    } else {
        let q = (-2.0 * ln(1.0 - p)).sqrt();
        -(((((INV_C[0] * q + INV_C[1]) * q + INV_C[2]) * q + INV_C[3]) * q + INV_C[4]) * q
            + INV_C[5])
            / ((((INV_D[0] * q + INV_D[1]) * q + INV_D[2]) * q + INV_D[3]) * q + 1.0)
    }
}

/// Inverse of [`norm_cdf`]: returns `x` such that `norm_cdf(x) = p`.
///
/// Accurate to ~1e-15 relative over `p ∈ (0, 1)`; `p = 0` and `p = 1` map
/// to `-inf`/`+inf`.
///
/// ```
/// let x = finbench_math::inv_norm_cdf(0.975);
/// assert!((x - 1.959963984540054).abs() < 1e-12);
/// ```
#[inline(always)]
pub fn inv_norm_cdf(p: f64) -> f64 {
    if p.is_nan() {
        return p;
    }
    if p <= 0.0 {
        return f64::NEG_INFINITY;
    }
    if p >= 1.0 {
        return f64::INFINITY;
    }

    let x = acklam_guess(p);
    if x.abs() >= INV_NO_POLISH {
        return x;
    }
    // One Halley iteration: e = Phi(x) - p, u = e / phi(x),
    // x <- x - u / (1 + x*u/2).
    let e = norm_cdf(x) - p;
    let u = e / norm_pdf(x);
    x - u / (1.0 + 0.5 * x * u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pdf_known_values() {
        assert!((norm_pdf(0.0) - 0.398_942_280_401_432_7).abs() < 1e-15);
        assert!((norm_pdf(1.0) - 0.241_970_724_519_143_37).abs() < 1e-15);
        assert!((norm_pdf(-1.0) - norm_pdf(1.0)).abs() == 0.0);
    }

    #[test]
    fn cdf_known_values() {
        // Reference values computed with mpmath at 50 digits.
        let cases = [
            (0.0, 0.5),
            (1.0, 0.841_344_746_068_542_9),
            (-1.0, 0.158_655_253_931_457_05),
            (2.0, 0.977_249_868_051_820_8),
            (0.5, 0.691_462_461_274_013_1),
            (-1.96, 0.024_997_895_148_220_435),
            (1.96, 0.975_002_104_851_779_5),
            (3.0, 0.998_650_101_968_369_9),
            (-3.0, 1.349_898_031_630_094_6e-3),
        ];
        for (x, want) in cases {
            let got = norm_cdf(x);
            assert!(
                (got - want).abs() < 2e-15,
                "x={x} got={got} want={want} diff={}",
                (got - want).abs()
            );
        }
    }

    #[test]
    fn cdf_deep_tail_relative_accuracy() {
        // Phi(-8) = 6.22096057427178e-16 * ... ; reference from mpmath:
        let want = 6.220_960_574_271_786e-16;
        let got = norm_cdf(-8.0);
        assert!(((got - want) / want).abs() < 1e-12, "got={got}");
        // Phi(-10)
        let want10 = 7.619_853_024_160_527e-24;
        let got10 = norm_cdf(-10.0);
        assert!(((got10 - want10) / want10).abs() < 1e-12, "got={got10}");
    }

    #[test]
    fn cdf_symmetry() {
        let mut i = 0;
        while i <= 800 {
            let x = i as f64 * 0.01;
            let s = norm_cdf(x) + norm_cdf(-x);
            assert!((s - 1.0).abs() < 2e-15, "x={x}");
            i += 1;
        }
    }

    #[test]
    fn cdf_monotone() {
        let mut prev = norm_cdf(-12.0);
        let mut i = 1;
        while i <= 2400 {
            let x = -12.0 + i as f64 * 0.01;
            let cur = norm_cdf(x);
            assert!(cur >= prev, "x={x}");
            prev = cur;
            i += 1;
        }
    }

    #[test]
    fn cdf_extremes() {
        assert_eq!(norm_cdf(40.0), 1.0);
        assert_eq!(norm_cdf(-40.0), 0.0);
        assert!(norm_cdf(f64::NAN).is_nan());
    }

    #[test]
    fn inverse_round_trip() {
        let mut i = 1;
        while i < 10000 {
            let p = i as f64 / 10000.0;
            let x = inv_norm_cdf(p);
            let back = norm_cdf(x);
            assert!((back - p).abs() < 1e-13, "p={p} x={x} back={back}");
            i += 7;
        }
    }

    #[test]
    fn inverse_tails() {
        for &p in &[1e-250f64, 1e-100, 1e-20, 1e-10, 1e-5] {
            let x = inv_norm_cdf(p);
            let back = norm_cdf(x);
            assert!(((back - p) / p).abs() < 1e-9, "p={p} x={x} back={back}");
            // Symmetry of the inverse.
            let xq = inv_norm_cdf(1.0 - p);
            if p >= 1e-16 {
                assert!((x + xq).abs() < 1e-6 * x.abs(), "p={p}");
            }
        }
    }

    #[test]
    fn acklam_fast_path_within_stated_error() {
        let mut i = 1;
        while i < 100_000 {
            let p = i as f64 / 100_000.0;
            let fast = inv_norm_cdf_acklam(p);
            let exact = inv_norm_cdf(p);
            let err = (fast - exact).abs() / exact.abs().max(1.0);
            assert!(err < 1.5e-9, "p={p}: {err}");
            i += 37;
        }
        assert_eq!(inv_norm_cdf_acklam(0.0), f64::NEG_INFINITY);
        assert_eq!(inv_norm_cdf_acklam(1.0), f64::INFINITY);
        assert!(inv_norm_cdf_acklam(f64::NAN).is_nan());
    }

    #[test]
    fn inverse_known_values() {
        assert_eq!(inv_norm_cdf(0.5), 0.0);
        assert!((inv_norm_cdf(0.975) - 1.959_963_984_540_054).abs() < 1e-12);
        assert!((inv_norm_cdf(0.841_344_746_068_542_9) - 1.0).abs() < 1e-12);
        assert_eq!(inv_norm_cdf(0.0), f64::NEG_INFINITY);
        assert_eq!(inv_norm_cdf(1.0), f64::INFINITY);
    }
}
