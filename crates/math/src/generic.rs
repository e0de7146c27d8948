//! [`Real`]-generic transcendental kernels.
//!
//! Each `*_r` function mirrors its scalar `f64` sibling *operation for
//! operation* — same reduction, same polynomial, same evaluation order —
//! so instantiated with `f64` it is bit-identical to the scalar path
//! (the tests assert `to_bits` equality across sweeps), and instantiated
//! with [`crate::CountedF64`] it exposes the *interior* arithmetic of a
//! transcendental to the op-count audit. That interior mix is what the
//! paper's "~200 ops per Black-Scholes option" figure counts: the
//! polynomial flops inside `exp`/`log`/`cnd`, not just one opaque call.
//!
//! Exponent bookkeeping (the range-reduction integer `n`, `frexp`
//! mantissa extraction, `2^n` reconstruction scales) runs on plain
//! doubles and is deliberately *not* counted — the machine model charges
//! it to the int pipe, not the FP pipe.

use crate::exp::{EXP_OVERFLOW, EXP_P, EXP_Q, EXP_UNDERFLOW, LN2_C1, LN2_C2, LOG2E};
use crate::log::{frexp_sqrt2, LN2_HI, LN2_LO, LOG_SERIES};
use crate::norm::{
    CND_DEN, CND_NUM, CND_TAIL_DEN, CND_TAIL_FROM, CND_TAIL_NUM, INV_A, INV_B, INV_C, INV_D,
    INV_NO_POLISH, P_HIGH, P_LOW,
};
use crate::poly::pow2i;
use crate::real::Real;
use crate::SQRT_2PI;

/// Horner evaluation over an abstract scalar; the generic twin of
/// [`crate::poly::polevl`].
#[inline]
pub fn polevl_r<R: Real>(x: R, coeffs: &[f64]) -> R {
    let mut acc = R::of(coeffs[0]);
    for &c in &coeffs[1..] {
        acc = acc * x + R::of(c);
    }
    acc
}

/// Generic twin of [`crate::exp`]. Bit-identical for finite in-range
/// inputs; NaN/overflow/underflow fall back to the scalar path.
#[inline]
pub fn exp_r<R: Real>(x: R) -> R {
    let xf = x.into_f64();
    if xf.is_nan() || !(EXP_UNDERFLOW..=EXP_OVERFLOW).contains(&xf) {
        return R::of(crate::exp(xf));
    }

    // Range-reduction integer (uncounted exponent bookkeeping).
    let n = (LOG2E * xf + 0.5).floor();
    let nr = R::of(n);
    let mut r = x - nr * R::of(LN2_C1);
    r -= nr * R::of(LN2_C2);

    let rr = r * r;
    let p = r * polevl_r(rr, &EXP_P);
    let e = R::of(1.0) + R::of(2.0) * p / (polevl_r(rr, &EXP_Q) - p);

    // ldexp by n, mirroring crate::poly::ldexp's two-part scale.
    let n = (n as i32).clamp(-2 * 1023, 2 * 1023);
    let half = n / 2;
    let rest = n - half;
    e * R::of(pow2i(half)) * R::of(pow2i(rest))
}

/// Generic twin of [`crate::ln`]. Bit-identical for positive finite
/// inputs; domain edges fall back to the scalar path.
#[inline]
pub fn ln_r<R: Real>(x: R) -> R {
    let xf = x.into_f64();
    // `xf <= 0.0` alone would miss NaN, which must also take the fallback.
    if xf <= 0.0 || xf.is_nan() || xf == f64::INFINITY {
        return R::of(crate::ln(xf));
    }

    let (m, e) = frexp_sqrt2(xf); // uncounted mantissa/exponent split
    let m = R::of(m);
    let t = (m - R::of(1.0)) / (m + R::of(1.0));
    let t2 = t * t;
    let lnm = R::of(2.0) * t * polevl_r(t2, &LOG_SERIES);
    let ef = R::of(e as f64);
    ef * R::of(LN2_HI) + (lnm + ef * R::of(LN2_LO))
}

/// Generic twin of [`crate::norm_cdf`] (Hart/West rational plus the
/// far-tail continued fraction as one rational). The interior Gaussian
/// `exp` goes through [`Real::exp`], so with [`crate::CountedF64`] it is
/// tallied as one nested transcendental call.
#[inline]
pub fn norm_cdf_r<R: Real>(x: R) -> R {
    let xf = x.into_f64();
    if xf.is_nan() {
        return R::of(xf);
    }
    let ax = x.abs();
    let axf = ax.into_f64();
    let cumulative = if axf > 37.0 {
        R::of(0.0)
    } else {
        let e = (R::of(-0.5) * ax * ax).exp();
        if axf < CND_TAIL_FROM {
            e * polevl_r(ax, &CND_NUM) / polevl_r(ax, &CND_DEN)
        } else {
            e * polevl_r(ax, &CND_TAIL_DEN) / (polevl_r(ax, &CND_TAIL_NUM) * R::of(SQRT_2PI))
        }
    };
    if xf > 0.0 {
        R::of(1.0) - cumulative
    } else {
        cumulative
    }
}

/// Generic twin of [`crate::inv_norm_cdf`]: Acklam's three-region rational,
/// then one Halley step whose Φ and φ go through [`Real::norm_cdf`] and
/// [`Real::exp`] (the tail's `ln`/`sqrt` likewise), so with
/// [`crate::CountedF64`] each is tallied as one nested call.
#[inline]
pub fn inv_norm_cdf_r<R: Real>(p: R) -> R {
    let pf = p.into_f64();
    if pf.is_nan() {
        return p;
    }
    if pf <= 0.0 {
        return R::of(f64::NEG_INFINITY);
    }
    if pf >= 1.0 {
        return R::of(f64::INFINITY);
    }
    let tail = |t: R| {
        let q = (R::of(-2.0) * t.ln()).sqrt();
        polevl_r(q, &INV_C) / (polevl_r(q, &INV_D) * q + R::of(1.0))
    };
    let x = if pf < P_LOW {
        tail(p)
    } else if pf <= P_HIGH {
        let q = p - R::of(0.5);
        let r = q * q;
        polevl_r(r, &INV_A) * q / (polevl_r(r, &INV_B) * r + R::of(1.0))
    } else {
        -tail(R::of(1.0) - p)
    };
    if x.into_f64().abs() >= INV_NO_POLISH {
        return x;
    }
    let e = x.norm_cdf() - p;
    let u = e / ((R::of(-0.5) * x * x).exp() / R::of(SQRT_2PI));
    x - u / (R::of(1.0) + R::of(0.5) * x * u)
}

/// Number of Maclaurin terms in the small-|x| erf branch (mirrors
/// `crate::erf::ERF_SERIES_TERMS`).
const ERF_SERIES_TERMS: u32 = 14;

/// Generic twin of [`crate::erf`]: Maclaurin series for `|x| < 0.5`,
/// `2·Φ(x√2) − 1` elsewhere (the Φ going through [`Real::norm_cdf`]).
#[inline]
pub fn erf_r<R: Real>(x: R) -> R {
    let xf = x.into_f64();
    if xf.is_nan() {
        return R::of(xf);
    }
    let ax = x.abs();
    if ax.into_f64() < 0.5 {
        let x2 = x * x;
        let mut pow = x;
        let mut fact = 1.0f64;
        let mut acc = x;
        for k in 1..ERF_SERIES_TERMS {
            let kf = k as f64;
            fact *= kf;
            pow *= x2;
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            // Divisor built in plain f64 exactly as the scalar path does.
            let d = fact * (2.0 * kf + 1.0);
            acc += R::of(sign) * pow / R::of(d);
        }
        R::of(crate::erf::FRAC_2_SQRT_PI) * acc
    } else {
        let y = R::of(2.0) * (ax * R::of(std::f64::consts::SQRT_2)).norm_cdf() - R::of(1.0);
        if xf < 0.0 {
            -y
        } else {
            y
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_r_bit_identical_to_scalar() {
        let mut i = -60_000;
        while i <= 60_000 {
            let x = i as f64 * 0.01; // [-600, 600]
            assert_eq!(exp_r::<f64>(x).to_bits(), crate::exp(x).to_bits(), "x={x}");
            i += 13;
        }
        assert_eq!(exp_r::<f64>(800.0), f64::INFINITY);
        assert_eq!(exp_r::<f64>(-800.0), 0.0);
        assert!(exp_r::<f64>(f64::NAN).is_nan());
    }

    #[test]
    fn ln_r_bit_identical_to_scalar() {
        let mut x = 1e-12;
        while x < 1e12 {
            assert_eq!(ln_r::<f64>(x).to_bits(), crate::ln(x).to_bits(), "x={x}");
            x *= 1.017;
        }
        assert_eq!(ln_r::<f64>(0.0), f64::NEG_INFINITY);
        assert!(ln_r::<f64>(-1.0).is_nan());
        assert_eq!(ln_r::<f64>(f64::INFINITY), f64::INFINITY);
    }

    #[test]
    fn norm_cdf_r_bit_identical_to_scalar() {
        let mut i = -1200;
        while i <= 1200 {
            let x = i as f64 * 0.01; // [-12, 12], both Hart and tail branches
            assert_eq!(
                norm_cdf_r::<f64>(x).to_bits(),
                crate::norm_cdf(x).to_bits(),
                "x={x}"
            );
            i += 1;
        }
        assert_eq!(norm_cdf_r::<f64>(40.0), 1.0);
        assert_eq!(norm_cdf_r::<f64>(-40.0), 0.0);
    }

    #[test]
    fn erf_r_bit_identical_to_scalar() {
        let mut i = -600;
        while i <= 600 {
            let x = i as f64 * 0.01;
            assert_eq!(erf_r::<f64>(x).to_bits(), crate::erf(x).to_bits(), "x={x}");
            i += 1;
        }
    }

    #[test]
    fn inv_norm_cdf_r_bit_identical_to_scalar() {
        let mut ps: Vec<f64> = (1..20_000).map(|i| i as f64 / 20_000.0).collect();
        ps.extend([
            -1.0,
            0.0,
            5e-324,
            1e-310,
            1e-300,
            1e-20,
            P_LOW.next_down(),
            P_LOW,
            P_LOW.next_up(),
            P_HIGH.next_down(),
            P_HIGH,
            P_HIGH.next_up(),
            1.0 - f64::EPSILON / 2.0,
            1.0,
            2.0,
            f64::NAN,
        ]);
        for p in ps {
            let (got, want) = (inv_norm_cdf_r::<f64>(p), crate::inv_norm_cdf(p));
            assert_eq!(got.to_bits(), want.to_bits(), "p={p:e}");
            let counted = inv_norm_cdf_r(crate::CountedF64(p)).0;
            assert_eq!(counted.to_bits(), want.to_bits(), "counted p={p:e}");
        }
    }

    #[test]
    fn counted_instantiation_matches_values() {
        use crate::counted::CountedF64;
        for x in [-3.0, -0.3, 0.0, 0.4, 1.7, 5.0] {
            assert_eq!(exp_r(CountedF64(x)).0.to_bits(), crate::exp(x).to_bits());
            assert_eq!(
                norm_cdf_r(CountedF64(x)).0.to_bits(),
                crate::norm_cdf(x).to_bits()
            );
            assert_eq!(erf_r(CountedF64(x)).0.to_bits(), crate::erf(x).to_bits());
            if x > 0.0 {
                assert_eq!(ln_r(CountedF64(x)).0.to_bits(), crate::ln(x).to_bits());
            }
        }
    }
}
