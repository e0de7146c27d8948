//! 1D binomial-tree option pricing (paper §IV-B, Lis. 2–3, Figs. 2 & 5).
//!
//! The Cox-Ross-Rubinstein lattice: over `N` steps the underlying moves up
//! by `u = e^(σ√Δt)` or down by `d = 1/u`; leaves hold the payoff and the
//! tree is reduced backwards with the discounted risk-neutral weights
//! `puByDf = p/e^(rΔt)`, `pdByDf = (1−p)/e^(rΔt)` — 3 flops per node,
//! `3·N(N+1)/2` flops per option (the paper's compute bound for Fig. 5).
//!
//! Optimization ladder:
//! * **Basic** — [`reference::price_european`]: the paper's Lis. 2, inner
//!   `j` loop over nodes (what the autovectorizer reaches).
//! * **Intermediate** — [`simd::price_batch_simd`]: one option per SIMD
//!   lane, vectorizing the *outer* loop so every access is aligned and
//!   full-width.
//! * **Advanced** — [`tiled::price_batch_tiled`]: the paper's novel
//!   register-tiling (Lis. 3 / Fig. 2b): a `TS`-deep wavefront lives in
//!   the register file, so each `Call` element is loaded and stored once
//!   per `TS` time steps instead of once per step.
//! * [`american`] extends the lattice with early exercise (the case the
//!   method exists for; the paper prices European for benchmark parity).
//!
//! The leaf fill ([`fill_leaves`]) and the plain recurrence
//! ([`reference::reduce`]) are one body each, generic over [`Lanes`]: `f64`
//! for the reference, `F64v<W>` for the vector rungs. Every lane carries its
//! own lattice — the batch driver gathers each option's scalar
//! [`CrrParams`] into the vector weights — so a lane performs exactly the
//! reference's operations on its own expiry, and the vector rungs are
//! bit-identical to [`reference::price_european`] on any batch.

pub mod american;
pub mod reference;
pub mod simd;
pub mod tiled;

use crate::workload::{MarketParams, OptionBatchSoa};
use finbench_simd::{isa_fn, F64v, Lanes};

/// Precomputed Cox-Ross-Rubinstein lattice parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrrParams {
    /// Up factor `e^(σ√Δt)`.
    pub u: f64,
    /// Down factor `1/u`.
    pub d: f64,
    /// Discounted up probability `p / e^(rΔt)` — the paper's `puByDf`.
    pub pu_by_df: f64,
    /// Discounted down probability `(1−p) / e^(rΔt)` — the paper's `pdByDf`.
    pub pd_by_df: f64,
    /// Time step `T/N`.
    pub dt: f64,
    /// `d^N`: the lowest leaf's price over the spot.
    pub d_pow_n: f64,
    /// `u² = u/d`: the ratio of neighbouring leaf prices.
    pub u2: f64,
}

impl CrrParams {
    /// Lattice parameters for expiry `t` over `n` steps.
    ///
    /// # Panics
    /// If `n == 0` or `t <= 0`.
    pub fn new(market: MarketParams, t: f64, n: usize) -> Self {
        assert!(n > 0, "binomial tree needs at least one step");
        assert!(t > 0.0, "expiry must be positive");
        let dt = t / n as f64;
        let u = finbench_math::exp(market.sigma * dt.sqrt());
        let d = 1.0 / u;
        let a = finbench_math::exp(market.r * dt);
        let p = (a - d) / (u - d);
        Self {
            u,
            d,
            pu_by_df: p / a,
            pd_by_df: (1.0 - p) / a,
            dt,
            d_pow_n: d.powi(n as i32),
            u2: u * u,
        }
    }
}

/// Fill `out[j] = max(S·u^j·d^(N−j) − X, 0)` for a call (or the mirrored
/// put payoff), for `j = 0..=n`; lane `l` of `out[j]` gets the leaf payoff
/// of option `l`, from that option's `d^N` and `u²` ([`CrrParams`]).
///
/// `u^j d^(n−j) = e^((2j−n)σ√Δt)` is built incrementally by repeated
/// multiplication with `u² = u/d`.
#[inline(always)]
pub fn fill_leaves<R: Lanes>(out: &mut [R], s: R, x: R, d_pow_n: R, u2: R, is_call: bool) {
    let mut price = s * d_pow_n;
    for slot in out.iter_mut() {
        *slot = if is_call {
            (price - x).max(R::splat(0.0))
        } else {
            (x - price).max(R::splat(0.0))
        };
        price *= u2;
    }
}

/// An in-place lattice reduction over a vector-of-options leaf array:
/// `(call, n, pu_by_df, pd_by_df) → root`, lane `l` = option `l` with its
/// own weights.
type ReduceFn<const W: usize> = fn(&mut [F64v<W>], usize, F64v<W>, F64v<W>) -> F64v<W>;

isa_fn! {
    /// Price a full batch `W` options per pass with the given lattice
    /// reduction — the one driver behind [`simd::price_batch_simd`] and
    /// [`tiled::price_batch_tiled`]. Each lane gets its own lattice: the
    /// option's scalar [`CrrParams`] are gathered into the vector weights,
    /// so any mix of expiries prices to the reference's bits. The scalar
    /// reference handles any ragged tail. `reduce` dispatches itself, so it
    /// is an ordinary call here.
    fn price_batch_groups<const W: usize>(
        batch: &mut OptionBatchSoa,
        market: MarketParams,
        n: usize,
        is_call: bool,
        reduce: ReduceFn<W>,
    ) {
        let total = batch.len();
        let main = total - total % W;
        let mut call: Vec<F64v<W>> = vec![F64v::zero(); n + 1];

        let mut g = 0;
        while g < main {
            let crr: [CrrParams; W] =
                core::array::from_fn(|l| CrrParams::new(market, batch.t[g + l], n));
            let (s, x) = (F64v::load(&batch.s, g), F64v::load(&batch.x, g));
            let (d_pow_n, u2) = (F64v(crr.map(|c| c.d_pow_n)), F64v(crr.map(|c| c.u2)));
            fill_leaves(&mut call, s, x, d_pow_n, u2, is_call);
            let (pu, pd) = (F64v(crr.map(|c| c.pu_by_df)), F64v(crr.map(|c| c.pd_by_df)));
            let root = reduce(&mut call, n, pu, pd);
            let out = if is_call {
                &mut batch.call
            } else {
                &mut batch.put
            };
            root.store(out, g);
            g += W;
        }
        for i in main..total {
            let price = reference::price_european(
                batch.s[i], batch.x[i], batch.t[i], market, n, is_call,
            );
            if is_call {
                batch.call[i] = price;
            } else {
                batch.put[i] = price;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crr_params_sane() {
        let crr = CrrParams::new(MarketParams::PAPER, 1.0, 1000);
        assert!(crr.u > 1.0 && crr.d < 1.0);
        assert!((crr.u * crr.d - 1.0).abs() < 1e-14);
        // Discounted probabilities sum to the one-step discount factor.
        let df = finbench_math::exp(-MarketParams::PAPER.r * crr.dt);
        assert!((crr.pu_by_df + crr.pd_by_df - df).abs() < 1e-14);
        assert!(crr.pu_by_df > 0.0 && crr.pd_by_df > 0.0, "no-arbitrage");
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_steps_panics() {
        CrrParams::new(MarketParams::PAPER, 1.0, 0);
    }

    #[test]
    fn leaves_match_direct_formula() {
        let crr = CrrParams::new(MarketParams::PAPER, 2.0, 64);
        let mut buf = vec![0.0; 65];
        fill_leaves(&mut buf, 100.0, 95.0, crr.d_pow_n, crr.u2, true);
        for (j, &v) in buf.iter().enumerate() {
            let price = 100.0 * crr.u.powi(j as i32) * crr.d.powi(64 - j as i32);
            let want = (price - 95.0f64).max(0.0);
            assert!((v - want).abs() < 1e-9 * want.max(1.0), "j={j}");
        }
        // Put leaves mirror.
        let mut put = vec![0.0; 65];
        fill_leaves(&mut put, 100.0, 95.0, crr.d_pow_n, crr.u2, false);
        for j in 0..=64 {
            assert!(put[j] == 0.0 || buf[j] == 0.0, "payoffs overlap at {j}");
        }
    }

    #[test]
    fn simd_leaves_match_scalar() {
        // One expiry per lane: lane `l` of the vector fill has the bits of
        // the scalar fill of option `l`.
        let s = [90.0, 100.0, 110.0, 120.0];
        let crr = [0.25, 1.5, 3.0, 10.0].map(|t| CrrParams::new(MarketParams::PAPER, t, 32));
        let (d_pow_n, u2) = (F64v(crr.map(|c| c.d_pow_n)), F64v(crr.map(|c| c.u2)));
        let mut v = vec![F64v::<4>::zero(); 33];
        fill_leaves(&mut v, F64v(s), F64v::splat(100.0), d_pow_n, u2, true);
        for lane in 0..4 {
            let mut scalar = vec![0.0; 33];
            let c = crr[lane];
            fill_leaves(&mut scalar, s[lane], 100.0, c.d_pow_n, c.u2, true);
            for j in 0..=32 {
                assert_eq!(
                    v[j][lane].to_bits(),
                    scalar[j].to_bits(),
                    "lane {lane} j {j}"
                );
            }
        }
    }
}
