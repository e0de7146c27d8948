//! Black-Scholes closed-form European option pricing (paper §IV-A, Lis. 1,
//! Fig. 4).
//!
//! Optimization ladder:
//!
//! * **Basic** — [`reference::price_aos`]: the paper's Lis. 1, scalar loop
//!   over an AOS batch, four `cnd` evaluations per option.
//! * **Intermediate** — [`soa::price_soa_simd`]: AOS→SOA conversion plus
//!   SIMD across options, one option per lane, two registers per step
//!   (the paper's manual unrolling), and the four `cnd` as two
//!   `norm_cdf_pair`s — `Φ(d)` and `Φ(−d)` from one Gaussian, one rational
//!   and one division, the bits of the four calls
//!   ([`reference::price_aos_simd_gather`] shows the gather-bound AOS+SIMD
//!   middle ground whose cost motivates the conversion). The fastest rung
//!   on an AVX-512 host.
//! * **Advanced** — [`soa::price_soa_simd_erf_parity`]: `cnd → erf`
//!   substitution and call/put parity, halving the transcendental count of
//!   the paper's library; here `erf` is built on `cnd`, so the rung costs
//!   more than the paired Intermediate one (see [`soa`]);
//!   [`vml::price_soa_vml`] is the VML-style array-batch alternative with
//!   its larger cache footprint.
//!
//! The inner formula (with the sign typo of the paper's Lis. 1 line 8
//! corrected):
//!
//! ```text
//! d1 = (ln(S/X) + (r + σ²/2)T) / (σ√T)
//! d2 = (ln(S/X) + (r − σ²/2)T) / (σ√T)
//! call = S·Φ(d1) − X·e^(−rT)·Φ(d2)
//! put  = X·e^(−rT)·Φ(−d2) − S·Φ(−d1)
//! ```

pub mod reference;
pub mod soa;
pub mod vml;

use crate::workload::MarketParams;
use finbench_math::Real;

/// Price one European call/put pair with the closed form, generic over the
/// scalar type (instantiate with `CountedF64` for the op-count audit).
///
/// Always inlined: the scalar SOA sweep calls it per option, and LLVM
/// vectorises that loop across options only when the body is in it (through
/// an out-of-line call the rung ran 4.4x slower).
#[inline(always)]
pub fn price_single<R: Real>(s: R, x: R, t: R, market: MarketParams) -> (R, R) {
    let r = R::splat(market.r);
    let sig = R::splat(market.sigma);
    let sig22 = sig * sig * R::splat(0.5);
    let qlog = (s / x).ln();
    let denom = R::splat(1.0) / (sig * t.sqrt());
    let d1 = (qlog + (r + sig22) * t) * denom;
    let d2 = (qlog + (r - sig22) * t) * denom;
    let xexp = x * (-(r * t)).exp();
    let call = s * d1.norm_cdf() - xexp * d2.norm_cdf();
    let put = xexp * (-d2).norm_cdf() - s * (-d1).norm_cdf();
    (call, put)
}

#[cfg(test)]
mod tests {
    use super::*;
    use finbench_math::CountedF64;

    /// The canonical textbook case: S=100, X=100, T=1, r=5%, σ=20%.
    pub const HULL_CALL: f64 = 10.450_583_572_185_565;
    pub const HULL_PUT: f64 = 5.573_526_022_256_971;

    #[test]
    fn textbook_value() {
        let (c, p) = price_single(
            100.0,
            100.0,
            1.0,
            MarketParams {
                r: 0.05,
                sigma: 0.2,
            },
        );
        assert!((c - HULL_CALL).abs() < 1e-12, "call {c}");
        assert!((p - HULL_PUT).abs() < 1e-12, "put {p}");
    }

    #[test]
    fn put_call_parity() {
        let m = MarketParams {
            r: 0.03,
            sigma: 0.4,
        };
        for (s, x, t) in [(10.0, 12.0, 0.5), (25.0, 20.0, 3.0), (7.0, 7.0, 10.0)] {
            let (c, p) = price_single(s, x, t, m);
            let parity = s - x * (-m.r * t).exp();
            assert!((c - p - parity).abs() < 1e-12, "s={s} x={x} t={t}");
        }
    }

    #[test]
    fn arbitrage_bounds() {
        let m = MarketParams::PAPER;
        for (s, x, t) in [(5.0, 100.0, 0.25), (30.0, 1.0, 10.0), (15.0, 15.0, 1.0)] {
            let (c, p) = price_single(s, x, t, m);
            let disc_x = x * (-m.r * t).exp();
            assert!(c >= (s - disc_x).max(0.0) - 1e-12);
            assert!(c <= s + 1e-12);
            assert!(p >= (disc_x - s).max(0.0) - 1e-12);
            assert!(p <= disc_x + 1e-12);
        }
    }

    #[test]
    fn deep_itm_call_approaches_forward() {
        let m = MarketParams {
            r: 0.02,
            sigma: 0.2,
        };
        let (c, _) = price_single(1000.0, 1.0, 1.0, m);
        let fwd = 1000.0 - 1.0 * (-0.02f64).exp();
        assert!((c - fwd).abs() < 1e-9);
    }

    #[test]
    fn op_count_is_about_200_ops() {
        // The paper: "The total computation performed is about 200 ops"
        // per option (counting transcendental interiors). Our counted run
        // tallies calls, not interiors: 1 ln, 1 exp, 1 sqrt, 4 cnd and a
        // dozen flops. With each cnd≈20 ops, exp/ln/sqrt≈20-30, the total
        // is in the 150-250 range; assert the call-level mix exactly.
        let (_, counts) = finbench_math::counted::counting(|| {
            price_single(
                CountedF64(100.0),
                CountedF64(95.0),
                CountedF64(2.0),
                MarketParams::PAPER,
            )
        });
        assert_eq!(counts.logs, 1);
        assert_eq!(counts.exps, 1);
        assert_eq!(counts.sqrts, 1);
        assert_eq!(counts.cnds, 4);
        assert!(counts.flops() >= 15 && counts.flops() <= 30, "{counts:?}");
    }
}
