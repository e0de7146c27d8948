//! Fused price + full-greeks sweep: call/put prices **and** all ten
//! sensitivities in one SOA pass over the batch.
//!
//! The separate servable passes ([`price_soa_simd`] then
//! [`greeks_batch_simd`]) each recompute the shared Black-Scholes
//! subexpressions and each stream `s/x/t` through the cache once. One
//! fused pass shares `ln(s/x)`, `√t`, the common denominator, `d1`, the
//! discount factor and `exp(−d1²/2)` between the price and greeks formulas
//! (that Gaussian is the density and both halves of `N(±d1)`, and each
//! `d2` gets one [`norm_cdf_pair`]): per block it runs 1 `ln` + 1 `sqrt` +
//! 4 `exp` + 3 `cnd` rationals (one division each) against the separate
//! passes' 2 + 2 + 6 + 4, and reads the inputs once instead of twice.
//!
//! **Equivalence contract.** Every output is bit-identical to the
//! separate passes (the engine rung declares `Check::BitExact`):
//!
//! * the price-path `d1 = (ln(s/x) + t·(r + σ²/2))/(σ√t)` and the
//!   greeks-path `d1 = (ln(s/x) + t·(r + 0.5·σ·σ))/(√t·σ)` round to the
//!   same bits — multiplying by 0.5 is exact and scaling by powers of
//!   two commutes with rounding, so `(σ·σ)·0.5` and `(0.5·σ)·σ` agree;
//! * the two passes' discount inputs `−(t·r)` and `t·(−r)` differ only
//!   by an exact sign flip, so one `vexp` serves both;
//! * `d2` genuinely differs between the passes — the price path derives
//!   it from the quotient log, the greeks path as `d1 − σ√t` — so the
//!   fused block computes **both** forms rather than pretending they
//!   round identically;
//! * the ragged tail mirrors each pass's own tail: scalar
//!   [`price_single`] for the prices and the width-1 lane block for the
//!   greeks.
//!
//! [`price_soa_simd`]: crate::black_scholes::soa::price_soa_simd
//! [`greeks_batch_simd`]: super::greeks_batch_simd
//! [`price_single`]: crate::black_scholes::price_single

use super::GreeksBatchSoa;
use crate::workload::{MarketParams, OptionBatchSoa};
use finbench_math::norm::{norm_cdf_pair, norm_cdf_pair_given_gauss};
use finbench_simd::{isa_fn, paired_end, Block, F64v, Pair};

/// One fused block at `offset` (an `F64v<W>` or a [`Pair`] of them):
/// prices into `batch.call/put`, all ten greeks into `out`.
#[inline(always)]
fn fused_lane_block<L: Block>(
    batch: &mut OptionBatchSoa,
    m: MarketParams,
    out: &mut GreeksBatchSoa,
    offset: usize,
) {
    let r = m.r;
    let sig = m.sigma;
    let sig22 = sig * sig * 0.5;
    let inv_sqrt_2pi = 1.0 / finbench_math::SQRT_2PI;

    let s = L::load(&batch.s, offset);
    let x = L::load(&batch.x, offset);
    let t = L::load(&batch.t, offset);

    // Shared between the price and greeks formulas.
    let qlog = (s / x).ln();
    let sqrt_t = t.sqrt();
    let denom = L::splat(1.0) / (sqrt_t * sig);
    let d1 = (qlog + t * (r + sig22)) * denom;
    let disc = (-(t * r)).exp();
    let x_disc = x * disc;
    let gauss1 = (d1 * d1 * -0.5).exp();
    let (nd1, nmd1) = norm_cdf_pair_given_gauss(d1, gauss1);

    // Price side: its own d2 derivation (see module docs).
    let d2p = (qlog + t * (r - sig22)) * denom;
    let (nd2p, nmd2p) = norm_cdf_pair(d2p);
    let call = s * nd1 - x_disc * nd2p;
    let put = x_disc * nmd2p - s * nmd1;
    call.store(&mut batch.call, offset);
    put.store(&mut batch.put, offset);

    // Greeks side: d2 as the greeks pass computes it.
    let d2g = d1 - sqrt_t * sig;
    let pdf1 = gauss1 * inv_sqrt_2pi;
    let (nd2, nmd2) = norm_cdf_pair(d2g);
    let gamma = pdf1 / (s * sig * sqrt_t);
    let vega = s * pdf1 * sqrt_t;
    let theta_carry = (s * pdf1 * (sig * -0.5)) / sqrt_t;

    nd1.store(&mut out.call.delta, offset);
    (nd1 - 1.0).store(&mut out.put.delta, offset);
    gamma.store(&mut out.call.gamma, offset);
    gamma.store(&mut out.put.gamma, offset);
    vega.store(&mut out.call.vega, offset);
    vega.store(&mut out.put.vega, offset);
    (theta_carry - x_disc * nd2 * r).store(&mut out.call.theta, offset);
    (theta_carry + x_disc * nmd2 * r).store(&mut out.put.theta, offset);
    (x_disc * nd2 * t).store(&mut out.call.rho, offset);
    (-(x_disc * nmd2 * t)).store(&mut out.put.rho, offset);
}

isa_fn! {
    /// Price **and** risk the whole batch in one SOA pass: call/put prices
    /// into `batch.call`/`batch.put`, all five greeks for both sides into
    /// the caller-owned `out`. Allocation-free; bit-identical to running
    /// [`price_soa_simd::<W>`] and [`greeks_batch_simd::<W>`] separately,
    /// for every `W` and every batch length. Steps as they do: two `W`-lane
    /// registers at a time, one more `W` step, then the scalar tail.
    ///
    /// Break-even: fusing pays off once the batch no longer fits in L1/L2
    /// (one input sweep instead of two); below a few thousand options the
    /// separate passes are just as fast, so the serve ladder keeps them as
    /// the degradation fallback rather than replacing them.
    ///
    /// [`price_soa_simd::<W>`]: crate::black_scholes::soa::price_soa_simd
    /// [`greeks_batch_simd::<W>`]: super::greeks_batch_simd
    pub fn price_and_greeks_into<const W: usize>(
        batch: &mut OptionBatchSoa,
        m: MarketParams,
        out: &mut GreeksBatchSoa,
    ) {
        let n = batch.len();
        assert!(out.len() == n, "output sweep must match the batch");
        let (pairs, main) = (paired_end::<W>(n), n - n % W);
        let mut i = 0;
        while i < pairs {
            fused_lane_block::<Pair<F64v<W>>>(batch, m, out, i);
            i += 2 * W;
        }
        while i < main {
            fused_lane_block::<F64v<W>>(batch, m, out, i);
            i += W;
        }
        for j in main..n {
            let (c, p) = crate::black_scholes::price_single(batch.s[j], batch.x[j], batch.t[j], m);
            batch.call[j] = c;
            batch.put[j] = p;
            super::greeks_lane_block::<F64v<1>>(batch, m, out, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::black_scholes::soa::price_soa_simd;
    use crate::black_scholes::soa::tests::LENGTHS;
    use crate::greeks::greeks_batch_simd;
    use crate::greeks::tests::assert_sweep_bits;
    use crate::workload::WorkloadRanges;

    const M: MarketParams = MarketParams {
        r: 0.05,
        sigma: 0.2,
    };

    fn assert_bits(a: &[f64], b: &[f64], label: &str) {
        assert_eq!(a.len(), b.len(), "{label} length");
        for i in 0..a.len() {
            assert_eq!(
                a[i].to_bits(),
                b[i].to_bits(),
                "{label} element {i}: {} vs {}",
                a[i],
                b[i]
            );
        }
    }

    fn check_against_separate_passes<const W: usize>(n: usize, seed: u64) {
        let base = OptionBatchSoa::random(n, seed, WorkloadRanges::default());

        let mut fused_batch = base.clone();
        let mut fused_out = GreeksBatchSoa::zeroed(n);
        price_and_greeks_into::<W>(&mut fused_batch, M, &mut fused_out);

        let mut price_batch = base.clone();
        price_soa_simd::<W>(&mut price_batch, M);
        let mut greeks_out = GreeksBatchSoa::zeroed(n);
        greeks_batch_simd::<W>(&base, M, &mut greeks_out);

        assert_bits(&fused_batch.call, &price_batch.call, "call price");
        assert_bits(&fused_batch.put, &price_batch.put, "put price");
        assert_sweep_bits(&fused_out, &greeks_out, "fused vs greeks pass");
    }

    #[test]
    fn fused_matches_separate_passes_bitwise_w8() {
        // Ragged lengths so both the main loop and the tail are covered.
        for n in [0, 1, 7, 8, 64, 123] {
            check_against_separate_passes::<8>(n, 21 + n as u64);
        }
    }

    #[test]
    fn fused_matches_separate_passes_bitwise_w4() {
        for n in [3, 4, 37, 100] {
            check_against_separate_passes::<4>(n, 5 + n as u64);
        }
    }

    #[test]
    fn fused_matches_separate_passes_bitwise_w1() {
        for n in [1, 17] {
            check_against_separate_passes::<1>(n, n as u64);
        }
    }

    #[test]
    fn fused_is_bit_identical_across_widths() {
        // 37 is not a multiple of either width: tails must agree too.
        let base = OptionBatchSoa::random(37, 11, WorkloadRanges::default());
        let mut b1 = base.clone();
        let mut b8 = base.clone();
        let mut o1 = GreeksBatchSoa::zeroed(37);
        let mut o8 = GreeksBatchSoa::zeroed(37);
        price_and_greeks_into::<1>(&mut b1, M, &mut o1);
        price_and_greeks_into::<8>(&mut b8, M, &mut o8);
        assert_bits(&b1.call, &b8.call, "call price");
        assert_bits(&b1.put, &b8.put, "put price");
        assert_sweep_bits(&o1, &o8, "W=1 vs W=8");
    }

    /// [`price_and_greeks_into`] as it stepped before pairs: one `W`-lane
    /// register per step, then the scalar tail.
    fn one_register_per_step<const W: usize>(b: &mut OptionBatchSoa, out: &mut GreeksBatchSoa) {
        let n = b.len();
        let main = n - n % W;
        for i in (0..main).step_by(W) {
            fused_lane_block::<F64v<W>>(b, M, out, i);
        }
        for j in main..n {
            (b.call[j], b.put[j]) = crate::black_scholes::price_single(b.s[j], b.x[j], b.t[j], M);
            crate::greeks::greeks_lane_block::<F64v<1>>(b, M, out, j);
        }
    }

    fn check_stepping<const W: usize>(n: usize) {
        let base = OptionBatchSoa::random(n, 29 + n as u64, WorkloadRanges::default());
        let (mut want, mut got) = (base.clone(), base.clone());
        let mut want_out = GreeksBatchSoa::zeroed(n);
        let mut got_out = GreeksBatchSoa::zeroed(n);
        one_register_per_step::<W>(&mut want, &mut want_out);
        price_and_greeks_into::<W>(&mut got, M, &mut got_out);
        assert_bits(&want.call, &got.call, &format!("W={W} n={n} call price"));
        assert_bits(&want.put, &got.put, &format!("W={W} n={n} put price"));
        assert_sweep_bits(&want_out, &got_out, &format!("W={W} n={n}"));
    }

    #[test]
    fn paired_fused_pass_has_the_bits_of_one_register_per_step() {
        for n in LENGTHS {
            check_stepping::<8>(n);
            check_stepping::<4>(n);
        }
    }

    #[test]
    #[should_panic(expected = "output sweep must match")]
    fn fused_rejects_short_outputs() {
        let mut b = OptionBatchSoa::random(8, 1, WorkloadRanges::default());
        let mut out = GreeksBatchSoa::zeroed(4);
        price_and_greeks_into::<8>(&mut b, M, &mut out);
    }
}
