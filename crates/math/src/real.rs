//! The [`Real`] scalar abstraction. The pricing kernels in `finbench-core`
//! ship a *generic scalar* variant written against it: with `f64` the
//! paper's reference ("basic") code path, with [`crate::CountedF64`] an
//! exact dynamic operation count that the machine-model tests audit against
//! the paper's flop formulas (binomial tree `3·N(N+1)/2` flops per option,
//! Black-Scholes ≈ 200 ops per option).

use crate::lanes::Lanes;

/// One [`Lanes`] lane: the arithmetic and transcendentals are [`Lanes`]'s,
/// plus what only a scalar has — an ordering and a plain `f64` out.
pub trait Real: Lanes<Mask = bool> + PartialOrd {
    /// Lower back to a plain double (for output buffers and assertions).
    fn into_f64(self) -> f64;
}

impl Real for f64 {
    #[inline(always)]
    fn into_f64(self) -> f64 {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_bs_d1<R: Real>(s: R, x: R, t: R, r: R, sig: R) -> R {
        let sig22 = sig * sig * 0.5;
        let qlog = (s / x).ln();
        let denom = R::splat(1.0) / (sig * t.sqrt());
        (qlog + (r + sig22) * t) * denom
    }

    #[test]
    fn f64_impl_round_trips() {
        assert_eq!(f64::splat(2.5).into_f64(), 2.5);
        assert_eq!(Lanes::max(3.0f64, 4.0), 4.0);
        assert_eq!(Lanes::abs(-3.0f64), 3.0);
        assert!((Lanes::mul_add(2.0f64, 3.0, 1.0) - 7.0).abs() < 1e-15);
    }

    #[test]
    fn generic_kernel_matches_direct_f64() {
        let d1 = generic_bs_d1(100.0, 95.0, 0.5, 0.02, 0.25);
        let sig22 = 0.25 * 0.25 * 0.5;
        let want = ((100.0f64 / 95.0).ln() + (0.02 + sig22) * 0.5) / (0.25 * 0.5f64.sqrt());
        assert!((d1 - want).abs() < 1e-12);
    }

    #[test]
    fn transcendentals_delegate_to_crate() {
        assert_eq!(Lanes::exp(1.0f64), crate::exp(1.0));
        assert_eq!(Lanes::ln(2.0f64), crate::ln(2.0));
        assert_eq!(Lanes::erf(0.3f64), crate::erf(0.3));
        assert_eq!(Lanes::norm_cdf(0.7f64), crate::norm_cdf(0.7));
    }
}
