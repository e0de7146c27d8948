//! Black-Scholes sensitivities ("greeks") and implied volatility — the
//! market-risk workload plane layered over the paper's pricing kernels
//! (the paper's intro motivates risk management and model calibration as
//! the driving workloads; greeks and implied vol are exactly those).
//!
//! Three estimator families, matching how production risk desks compute
//! sensitivities against each pricing model:
//!
//! * **analytic** (this module) — the closed forms, scalar and SIMD-SOA
//!   ([`greeks_batch_simd`], all five greeks for both sides per lane);
//! * **bump-and-reprice** ([`bump`]) — central finite differences around
//!   any repricer (closed form, binomial lattice, Crank-Nicolson grid);
//! * **Monte-Carlo** ([`mc`]) — pathwise estimators and central finite
//!   differences under common random numbers.

pub mod bump;
pub mod fused;
pub mod mc;

pub use fused::price_and_greeks_into;

use crate::workload::MarketParams;
use finbench_math::norm::{norm_cdf_pair, norm_cdf_pair_given_gauss};
use finbench_math::{exp, ln, norm_cdf, norm_pdf};
use finbench_simd::{isa_fn, paired_end, Block, F64v, Pair};

/// The five first-order sensitivities of a European option.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Greeks {
    /// ∂V/∂S.
    pub delta: f64,
    /// ∂²V/∂S².
    pub gamma: f64,
    /// ∂V/∂σ (per 1.0 of vol, not per percentage point).
    pub vega: f64,
    /// ∂V/∂t (calendar decay, per year; negative of ∂V/∂T).
    pub theta: f64,
    /// ∂V/∂r.
    pub rho: f64,
}

/// Which side of the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptionType {
    /// Right to buy.
    Call,
    /// Right to sell.
    Put,
}

fn d1_d2(s: f64, x: f64, t: f64, m: MarketParams) -> (f64, f64) {
    let denom = 1.0 / (m.sigma * t.sqrt());
    let d1 = (ln(s / x) + (m.r + 0.5 * m.sigma * m.sigma) * t) * denom;
    (d1, d1 - m.sigma * t.sqrt())
}

/// Closed-form greeks for a European option.
pub fn greeks(kind: OptionType, s: f64, x: f64, t: f64, m: MarketParams) -> Greeks {
    let (d1, d2) = d1_d2(s, x, t, m);
    let pdf1 = norm_pdf(d1);
    let disc = exp(-m.r * t);
    let gamma = pdf1 / (s * m.sigma * t.sqrt());
    let vega = s * pdf1 * t.sqrt();
    match kind {
        OptionType::Call => Greeks {
            delta: norm_cdf(d1),
            gamma,
            vega,
            theta: -(s * pdf1 * m.sigma) / (2.0 * t.sqrt()) - m.r * x * disc * norm_cdf(d2),
            rho: x * t * disc * norm_cdf(d2),
        },
        OptionType::Put => Greeks {
            delta: norm_cdf(d1) - 1.0,
            gamma,
            vega,
            theta: -(s * pdf1 * m.sigma) / (2.0 * t.sqrt()) + m.r * x * disc * norm_cdf(-d2),
            rho: -x * t * disc * norm_cdf(-d2),
        },
    }
}

/// Invert Black-Scholes for volatility by safeguarded Newton iteration.
///
/// Returns `None` if `price` lies outside the arbitrage bounds for the
/// contract (no vol can reproduce it).
pub fn implied_vol(kind: OptionType, price: f64, s: f64, x: f64, t: f64, r: f64) -> Option<f64> {
    let disc = exp(-r * t);
    let (lo_bound, hi_bound) = match kind {
        OptionType::Call => ((s - x * disc).max(0.0), s),
        OptionType::Put => ((x * disc - s).max(0.0), x * disc),
    };
    if !(price > lo_bound && price < hi_bound) {
        return None;
    }

    let value = |sigma: f64| {
        let m = MarketParams { r, sigma };
        let (c, p) = crate::black_scholes::price_single(s, x, t, m);
        match kind {
            OptionType::Call => c,
            OptionType::Put => p,
        }
    };

    // Bracket then Newton with bisection fallback.
    let (mut lo, mut hi) = (1e-6, 6.0);
    if value(lo) > price || value(hi) < price {
        return None;
    }
    let mut sigma = 0.3f64;
    for _ in 0..100 {
        let m = MarketParams { r, sigma };
        let v = value(sigma);
        let err = v - price;
        if err.abs() < 1e-12 * price.max(1.0) {
            return Some(sigma);
        }
        if err > 0.0 {
            hi = sigma;
        } else {
            lo = sigma;
        }
        let vega = greeks(kind, s, x, t, m).vega;
        let newton = sigma - err / vega;
        sigma = if vega > 1e-12 && newton > lo && newton < hi {
            newton
        } else {
            0.5 * (lo + hi)
        };
    }
    Some(sigma)
}

/// SOA block of all five greeks for one side of the contract.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GreeksSoa {
    /// ∂V/∂S per option.
    pub delta: Vec<f64>,
    /// ∂²V/∂S² per option.
    pub gamma: Vec<f64>,
    /// ∂V/∂σ per option.
    pub vega: Vec<f64>,
    /// ∂V/∂t (calendar decay) per option.
    pub theta: Vec<f64>,
    /// ∂V/∂r per option.
    pub rho: Vec<f64>,
}

impl GreeksSoa {
    /// Allocate an all-zero block for `n` options.
    pub fn zeroed(n: usize) -> Self {
        Self {
            delta: vec![0.0; n],
            gamma: vec![0.0; n],
            vega: vec![0.0; n],
            theta: vec![0.0; n],
            rho: vec![0.0; n],
        }
    }

    /// Resize to `n` options in place, zero-filling new tail slots.
    /// Capacity only grows, so reuse across batches stops allocating.
    pub fn resize(&mut self, n: usize) {
        self.delta.resize(n, 0.0);
        self.gamma.resize(n, 0.0);
        self.vega.resize(n, 0.0);
        self.theta.resize(n, 0.0);
        self.rho.resize(n, 0.0);
    }

    /// Number of options.
    pub fn len(&self) -> usize {
        self.delta.len()
    }

    /// True when the block holds no options.
    pub fn is_empty(&self) -> bool {
        self.delta.is_empty()
    }

    /// The `i`-th option's greeks as a struct.
    pub fn at(&self, i: usize) -> Greeks {
        Greeks {
            delta: self.delta[i],
            gamma: self.gamma[i],
            vega: self.vega[i],
            theta: self.theta[i],
            rho: self.rho[i],
        }
    }
}

/// Full risk sweep for a batch: all five greeks for **both** the call and
/// the put side, SOA layout (what the serving plane scatters back).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GreeksBatchSoa {
    /// Call-side greeks.
    pub call: GreeksSoa,
    /// Put-side greeks.
    pub put: GreeksSoa,
}

impl GreeksBatchSoa {
    /// Allocate an all-zero sweep for `n` options.
    pub fn zeroed(n: usize) -> Self {
        Self {
            call: GreeksSoa::zeroed(n),
            put: GreeksSoa::zeroed(n),
        }
    }

    /// Resize both sides to `n` options in place; capacity only grows.
    pub fn resize(&mut self, n: usize) {
        self.call.resize(n);
        self.put.resize(n);
    }

    /// Number of options.
    pub fn len(&self) -> usize {
        self.call.len()
    }

    /// True when the sweep holds no options.
    pub fn is_empty(&self) -> bool {
        self.call.is_empty()
    }
}

/// One block of the analytic sweep at `offset`: an `F64v<W>`, a [`Pair`]
/// of them, or the width-one tail. Factored out so the paired steps, the
/// single step and the tail of [`greeks_batch_simd`] run the *same* lane
/// arithmetic: the lane math is lane-wise, so every output element is
/// bit-identical across vector widths and step shapes.
#[inline(always)]
fn greeks_lane_block<L: Block>(
    batch: &crate::workload::OptionBatchSoa,
    m: MarketParams,
    out: &mut GreeksBatchSoa,
    offset: usize,
) {
    let inv_sqrt_2pi = 1.0 / finbench_math::SQRT_2PI;
    let s = L::load(&batch.s, offset);
    let x = L::load(&batch.x, offset);
    let t = L::load(&batch.t, offset);
    let sqrt_t = t.sqrt();
    let denom = L::splat(1.0) / (sqrt_t * m.sigma);
    let d1 = ((s / x).ln() + t * (m.r + 0.5 * m.sigma * m.sigma)) * denom;
    let d2 = d1 - sqrt_t * m.sigma;
    // One Gaussian serves the density and N(d1): `d1·d1` and `|d1|·|d1|`
    // round alike, so N(d1) has the bits of its own `cnd` call.
    let gauss1 = (d1 * d1 * -0.5).exp();
    let pdf1 = gauss1 * inv_sqrt_2pi;
    let nd1 = norm_cdf_pair_given_gauss(d1, gauss1).0;
    // N(−d2) is the pair's other half: both come from `Φ(−|d2|)`, as two
    // `cnd` calls would, so whichever is a deep tail stays accurate (no
    // `1 − N(d2)` cancellation) and the bits are the calls'.
    let (nd2, nmd2) = norm_cdf_pair(d2);
    let disc = (t * -m.r).exp();

    let gamma = pdf1 / (s * m.sigma * sqrt_t);
    let vega = s * pdf1 * sqrt_t;
    let theta_carry = (s * pdf1 * (m.sigma * -0.5)) / sqrt_t;
    let x_disc = x * disc;

    nd1.store(&mut out.call.delta, offset);
    (nd1 - 1.0).store(&mut out.put.delta, offset);
    gamma.store(&mut out.call.gamma, offset);
    gamma.store(&mut out.put.gamma, offset);
    vega.store(&mut out.call.vega, offset);
    vega.store(&mut out.put.vega, offset);
    (theta_carry - x_disc * nd2 * m.r).store(&mut out.call.theta, offset);
    (theta_carry + x_disc * nmd2 * m.r).store(&mut out.put.theta, offset);
    (x_disc * nd2 * t).store(&mut out.call.rho, offset);
    (-(x_disc * nmd2 * t)).store(&mut out.put.rho, offset);
}

isa_fn! {
    /// Analytic greeks for every option in the batch, all five sensitivities
    /// for both contract sides, one option per SIMD lane: two `W`-lane
    /// registers per step ([`Pair`]), one more `W` step, then the tail past
    /// the last full `W`-block through the same lane function at width 1,
    /// so the full output is **bit-identical for every `W`** — the property
    /// the engine ladder declares as `Check::BitExact`.
    pub fn greeks_batch_simd<const W: usize>(
        batch: &crate::workload::OptionBatchSoa,
        m: MarketParams,
        out: &mut GreeksBatchSoa,
    ) {
        let n = batch.len();
        assert!(out.len() == n, "output sweep must match the batch");
        let (pairs, main) = (paired_end::<W>(n), n - n % W);
        let mut i = 0;
        while i < pairs {
            greeks_lane_block::<Pair<F64v<W>>>(batch, m, out, i);
            i += 2 * W;
        }
        while i < main {
            greeks_lane_block::<F64v<W>>(batch, m, out, i);
            i += W;
        }
        for j in main..n {
            greeks_lane_block::<F64v<1>>(batch, m, out, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::black_scholes::price_single;

    const M: MarketParams = MarketParams {
        r: 0.05,
        sigma: 0.2,
    };

    #[test]
    fn call_delta_matches_finite_difference() {
        let h = 1e-5;
        for (s, x, t) in [(100.0, 100.0, 1.0), (80.0, 100.0, 0.5), (120.0, 100.0, 2.0)] {
            let g = greeks(OptionType::Call, s, x, t, M);
            let up = price_single(s + h, x, t, M).0;
            let dn = price_single(s - h, x, t, M).0;
            assert!((g.delta - (up - dn) / (2.0 * h)).abs() < 1e-6, "s={s}");
        }
    }

    #[test]
    fn gamma_matches_finite_difference() {
        let h = 1e-4;
        let (s, x, t) = (100.0, 95.0, 1.5);
        let g = greeks(OptionType::Call, s, x, t, M);
        let up = price_single(s + h, x, t, M).0;
        let mid = price_single(s, x, t, M).0;
        let dn = price_single(s - h, x, t, M).0;
        let fd = (up - 2.0 * mid + dn) / (h * h);
        assert!((g.gamma - fd).abs() < 1e-5);
    }

    #[test]
    fn vega_matches_finite_difference() {
        let h = 1e-6;
        let (s, x, t) = (100.0, 105.0, 1.0);
        let g = greeks(OptionType::Put, s, x, t, M);
        let up = price_single(
            s,
            x,
            t,
            MarketParams {
                r: M.r,
                sigma: M.sigma + h,
            },
        )
        .1;
        let dn = price_single(
            s,
            x,
            t,
            MarketParams {
                r: M.r,
                sigma: M.sigma - h,
            },
        )
        .1;
        assert!((g.vega - (up - dn) / (2.0 * h)).abs() < 1e-5);
    }

    #[test]
    fn rho_and_theta_match_finite_difference() {
        let h = 1e-6;
        let (s, x, t) = (100.0, 100.0, 1.0);
        for kind in [OptionType::Call, OptionType::Put] {
            let g = greeks(kind, s, x, t, M);
            let pick = |c: f64, p: f64| match kind {
                OptionType::Call => c,
                OptionType::Put => p,
            };
            let (cu, pu) = price_single(
                s,
                x,
                t,
                MarketParams {
                    r: M.r + h,
                    sigma: M.sigma,
                },
            );
            let (cd, pd) = price_single(
                s,
                x,
                t,
                MarketParams {
                    r: M.r - h,
                    sigma: M.sigma,
                },
            );
            let fd_rho = (pick(cu, pu) - pick(cd, pd)) / (2.0 * h);
            assert!((g.rho - fd_rho).abs() < 1e-5, "{kind:?} rho");

            let (cu, pu) = price_single(s, x, t + h, M);
            let (cd, pd) = price_single(s, x, t - h, M);
            // theta is calendar decay: dV/dt = -dV/dT.
            let fd_theta = -(pick(cu, pu) - pick(cd, pd)) / (2.0 * h);
            assert!((g.theta - fd_theta).abs() < 1e-4, "{kind:?} theta");
        }
    }

    #[test]
    fn put_call_delta_parity() {
        let g_c = greeks(OptionType::Call, 90.0, 100.0, 2.0, M);
        let g_p = greeks(OptionType::Put, 90.0, 100.0, 2.0, M);
        assert!((g_c.delta - g_p.delta - 1.0).abs() < 1e-12);
        assert!((g_c.gamma - g_p.gamma).abs() < 1e-12);
        assert!((g_c.vega - g_p.vega).abs() < 1e-12);
    }

    #[test]
    fn implied_vol_round_trip() {
        for sigma in [0.05, 0.2, 0.6, 1.5] {
            let m = MarketParams { r: 0.03, sigma };
            for (s, x, t) in [(100.0, 100.0, 1.0), (100.0, 130.0, 0.5), (50.0, 40.0, 3.0)] {
                let (c, p) = price_single(s, x, t, m);
                // The vol information lives in the *time value*
                // (price − intrinsic bound); when it underflows, no solver
                // can recover sigma from the price at double precision —
                // skip those quotes, as any production quoter would.
                let disc = (-0.03f64 * t).exp();
                let c_tv = c - (s - x * disc).max(0.0);
                let p_tv = p - (x * disc - s).max(0.0);
                if c_tv > 1e-8 {
                    let iv_c = implied_vol(OptionType::Call, c, s, x, t, 0.03).unwrap();
                    assert!((iv_c - sigma).abs() < 1e-8, "call sigma={sigma} got {iv_c}");
                }
                if p_tv > 1e-8 {
                    let iv_p = implied_vol(OptionType::Put, p, s, x, t, 0.03).unwrap();
                    assert!((iv_p - sigma).abs() < 1e-8, "put sigma={sigma} got {iv_p}");
                }
            }
        }
    }

    #[test]
    fn implied_vol_rejects_arbitrage_prices() {
        assert!(implied_vol(OptionType::Call, 101.0, 100.0, 100.0, 1.0, 0.05).is_none());
        assert!(implied_vol(OptionType::Call, 0.0, 100.0, 100.0, 1.0, 0.05).is_none());
        // Below intrinsic for a deep ITM call.
        assert!(implied_vol(OptionType::Call, 10.0, 100.0, 50.0, 1.0, 0.05).is_none());
    }

    #[test]
    fn full_sweep_matches_scalar_closed_form() {
        use crate::workload::{OptionBatchSoa, WorkloadRanges};
        let b = OptionBatchSoa::random(123, 9, WorkloadRanges::default());
        let mut out = GreeksBatchSoa::zeroed(b.len());
        greeks_batch_simd::<8>(&b, M, &mut out);
        for i in 0..b.len() {
            for (side, kind) in [(&out.call, OptionType::Call), (&out.put, OptionType::Put)] {
                let want = greeks(kind, b.s[i], b.x[i], b.t[i], M);
                let got = side.at(i);
                for (name, g, w) in [
                    ("delta", got.delta, want.delta),
                    ("gamma", got.gamma, want.gamma),
                    ("vega", got.vega, want.vega),
                    ("theta", got.theta, want.theta),
                    ("rho", got.rho, want.rho),
                ] {
                    assert!(
                        (g - w).abs() < 1e-10 * w.abs().max(1.0),
                        "{kind:?} {name} {i}: {g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn full_sweep_is_bit_identical_across_widths() {
        use crate::workload::{OptionBatchSoa, WorkloadRanges};
        // 37 is deliberately not a multiple of any width: the tail path
        // must produce the same bits as the full-lane path.
        let b = OptionBatchSoa::random(37, 21, WorkloadRanges::default());
        let mut w1 = GreeksBatchSoa::zeroed(b.len());
        let mut w4 = GreeksBatchSoa::zeroed(b.len());
        let mut w8 = GreeksBatchSoa::zeroed(b.len());
        greeks_batch_simd::<1>(&b, M, &mut w1);
        greeks_batch_simd::<4>(&b, M, &mut w4);
        greeks_batch_simd::<8>(&b, M, &mut w8);
        assert_sweep_bits(&w1, &w4, "W=1 vs W=4");
        assert_sweep_bits(&w1, &w8, "W=1 vs W=8");
    }

    /// Every column of two sweeps, bit for bit.
    pub(super) fn assert_sweep_bits(a: &GreeksBatchSoa, b: &GreeksBatchSoa, label: &str) {
        for (side_a, side_b, side) in [(&a.call, &b.call, "call"), (&a.put, &b.put, "put")] {
            for (va, vb, name) in [
                (&side_a.delta, &side_b.delta, "delta"),
                (&side_a.gamma, &side_b.gamma, "gamma"),
                (&side_a.vega, &side_b.vega, "vega"),
                (&side_a.theta, &side_b.theta, "theta"),
                (&side_a.rho, &side_b.rho, "rho"),
            ] {
                assert_eq!(va.len(), vb.len(), "{label} {side} {name} length");
                for i in 0..va.len() {
                    assert_eq!(
                        va[i].to_bits(),
                        vb[i].to_bits(),
                        "{label} {side} {name} {i}: {} vs {}",
                        va[i],
                        vb[i]
                    );
                }
            }
        }
    }

    /// [`greeks_batch_simd`] as it stepped before pairs: one `W`-lane
    /// register per step, then the width-one tail.
    fn one_register_per_step<const W: usize>(
        b: &crate::workload::OptionBatchSoa,
        m: MarketParams,
        out: &mut GreeksBatchSoa,
    ) {
        let main = b.len() - b.len() % W;
        for i in (0..main).step_by(W) {
            greeks_lane_block::<F64v<W>>(b, m, out, i);
        }
        for j in main..b.len() {
            greeks_lane_block::<F64v<1>>(b, m, out, j);
        }
    }

    #[test]
    fn paired_sweep_has_the_bits_of_one_register_per_step() {
        use crate::black_scholes::soa::tests::LENGTHS;
        use crate::workload::{OptionBatchSoa, WorkloadRanges};
        for n in LENGTHS {
            let b = OptionBatchSoa::random(n, 17 + n as u64, WorkloadRanges::default());
            let mut want = GreeksBatchSoa::zeroed(n);
            let mut got = GreeksBatchSoa::zeroed(n);
            one_register_per_step::<8>(&b, M, &mut want);
            greeks_batch_simd::<8>(&b, M, &mut got);
            assert_sweep_bits(&want, &got, &format!("W=8 n={n}"));
            one_register_per_step::<4>(&b, M, &mut want);
            greeks_batch_simd::<4>(&b, M, &mut got);
            assert_sweep_bits(&want, &got, &format!("W=4 n={n}"));
        }
    }

    #[test]
    #[should_panic(expected = "output sweep must match")]
    fn full_sweep_rejects_short_outputs() {
        use crate::workload::{OptionBatchSoa, WorkloadRanges};
        let b = OptionBatchSoa::random(8, 1, WorkloadRanges::default());
        let mut out = GreeksBatchSoa::zeroed(4);
        greeks_batch_simd::<8>(&b, M, &mut out);
    }
}
