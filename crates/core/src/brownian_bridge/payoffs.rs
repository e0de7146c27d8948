//! Path-functional payoffs over bridge-constructed Wiener paths —
//! the "next compute stage" the paper's cache-to-cache optimization
//! feeds ("the computed Brownian sequence is to be used immediately and
//! discarded"). Each functional maps a group of `W` Wiener paths
//! (`path[k]` = `W(t_k)`, lane = path) to one value per lane, and is
//! designed to compose with [`super::interleaved::simulate_fused`].

use finbench_simd::math::vexp;
use finbench_simd::{F64v, Lanes};

/// Market/contract constants shared by the money-space functionals.
#[derive(Debug, Clone, Copy)]
pub struct GbmPath {
    /// Spot at time 0.
    pub s0: f64,
    /// Volatility.
    pub sigma: f64,
    /// Drift `r − σ²/2`.
    pub mu: f64,
    /// Horizon.
    pub t: f64,
}

impl GbmPath {
    /// Constants from market parameters.
    pub fn new(s0: f64, market: crate::workload::MarketParams, t: f64) -> Self {
        Self {
            s0,
            sigma: market.sigma,
            mu: market.r - 0.5 * market.sigma * market.sigma,
            t,
        }
    }

    /// Spot at monitoring date `k` (1-based over `steps` dates) given the
    /// Wiener values `w` for a lane group.
    #[inline(always)]
    pub fn spot_at<const W: usize>(&self, w: F64v<W>, k: usize, steps: usize) -> F64v<W> {
        let tk = self.t * k as f64 / steps as f64;
        vexp(w * self.sigma + self.mu * tk) * self.s0
    }
}

/// Terminal call payoff `max(S_T − K, 0)`.
pub fn european_call<const W: usize>(g: GbmPath, strike: f64, path: &[F64v<W>]) -> F64v<W> {
    let steps = path.len() - 1;
    let st = g.spot_at(path[steps], steps, steps);
    (st - F64v::splat(strike)).max(F64v::zero())
}

/// Arithmetic-average Asian call payoff `max(mean(S) − K, 0)` over the
/// non-origin monitoring dates.
pub fn asian_call<const W: usize>(g: GbmPath, strike: f64, path: &[F64v<W>]) -> F64v<W> {
    let steps = path.len() - 1;
    let mut acc = F64v::<W>::zero();
    for (k, w) in path[1..].iter().enumerate() {
        acc += g.spot_at(*w, k + 1, steps);
    }
    let avg = acc * (1.0 / steps as f64);
    (avg - F64v::splat(strike)).max(F64v::zero())
}

/// Up-and-out barrier call: the terminal call payoff, knocked out to zero
/// on any lane whose running maximum touches `barrier` at a monitoring
/// date.
pub fn up_and_out_call<const W: usize>(
    g: GbmPath,
    strike: f64,
    barrier: f64,
    path: &[F64v<W>],
) -> F64v<W> {
    let steps = path.len() - 1;
    // The knock decision must be taken in money space date-by-date (the
    // drift term makes the spot a date-dependent transform of W).
    let mut knocked = F64v::<W>::zero(); // 0 = alive, 1 = knocked out
    let bar = F64v::<W>::splat(barrier);
    for (k, w) in path[1..].iter().enumerate() {
        let s = g.spot_at(*w, k + 1, steps);
        knocked = s.ge(bar).select(F64v::splat(1.0), knocked);
    }
    let payoff = european_call(g, strike, path);
    knocked.gt(F64v::zero()).select(F64v::zero(), payoff)
}

/// Up-and-in barrier call: pays the terminal call only if the barrier
/// *was* touched. By construction `up_and_in + up_and_out = vanilla`
/// path-by-path (in-out parity).
pub fn up_and_in_call<const W: usize>(
    g: GbmPath,
    strike: f64,
    barrier: f64,
    path: &[F64v<W>],
) -> F64v<W> {
    let steps = path.len() - 1;
    let mut knocked = F64v::<W>::zero();
    let bar = F64v::<W>::splat(barrier);
    for (k, w) in path[1..].iter().enumerate() {
        let s = g.spot_at(*w, k + 1, steps);
        knocked = s.ge(bar).select(F64v::splat(1.0), knocked);
    }
    let payoff = european_call(g, strike, path);
    knocked.gt(F64v::zero()).select(payoff, F64v::zero())
}

/// Lookback (floating-strike) call: `S_T − min(S)` — always non-negative.
pub fn lookback_call<const W: usize>(g: GbmPath, path: &[F64v<W>]) -> F64v<W> {
    let steps = path.len() - 1;
    let mut min_s = F64v::<W>::splat(f64::INFINITY);
    for (k, w) in path[1..].iter().enumerate() {
        min_s = min_s.min(g.spot_at(*w, k + 1, steps));
    }
    // Include the origin spot in the minimum.
    min_s = min_s.min(F64v::splat(g.s0));
    let st = g.spot_at(path[steps], steps, steps);
    st - min_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brownian_bridge::{interleaved::simulate_fused, BridgePlan};
    use crate::workload::MarketParams;
    use finbench_rng::StreamFamily;

    const M: MarketParams = MarketParams {
        r: 0.05,
        sigma: 0.2,
    };
    const N_PATHS: usize = 65_536;

    fn price<F>(f: F) -> f64
    where
        F: Fn(&[F64v<8>]) -> F64v<8>,
    {
        let plan = BridgePlan::new(6, 1.0);
        let fam = StreamFamily::new(321);
        let mut payoffs = vec![0.0; N_PATHS];
        simulate_fused::<8>(&plan, &fam, N_PATHS, &mut payoffs, f);
        let disc = (-M.r * 1.0f64).exp();
        disc * payoffs.iter().sum::<f64>() / N_PATHS as f64
    }

    #[test]
    fn terminal_payoff_matches_black_scholes() {
        let g = GbmPath::new(100.0, M, 1.0);
        let mc = price(|p| european_call(g, 100.0, p));
        let (bs, _) = crate::black_scholes::price_single(100.0, 100.0, 1.0, M);
        // se ~ 14/sqrt(65536) ~ 0.055.
        assert!((mc - bs).abs() < 0.25, "mc {mc} vs bs {bs}");
    }

    #[test]
    fn in_out_parity_is_exact_path_by_path() {
        let g = GbmPath::new(100.0, M, 1.0);
        let barrier = 120.0;
        let plan = BridgePlan::new(5, 1.0);
        let fam = StreamFamily::new(5);
        let n = 4096;
        let mut vanilla = vec![0.0; n];
        let mut out = vec![0.0; n];
        let mut inn = vec![0.0; n];
        simulate_fused::<8>(&plan, &fam, n, &mut vanilla, |p| european_call(g, 100.0, p));
        simulate_fused::<8>(&plan, &fam, n, &mut out, |p| {
            up_and_out_call(g, 100.0, barrier, p)
        });
        simulate_fused::<8>(&plan, &fam, n, &mut inn, |p| {
            up_and_in_call(g, 100.0, barrier, p)
        });
        for i in 0..n {
            assert!(
                (out[i] + inn[i] - vanilla[i]).abs() < 1e-12,
                "path {i}: {} + {} != {}",
                out[i],
                inn[i],
                vanilla[i]
            );
        }
    }

    #[test]
    fn knockout_price_below_vanilla_and_monotone_in_barrier() {
        let g = GbmPath::new(100.0, M, 1.0);
        let vanilla = price(|p| european_call(g, 100.0, p));
        let mut prev = 0.0;
        for barrier in [110.0, 130.0, 160.0, 250.0] {
            let ko = price(|p| up_and_out_call(g, 100.0, barrier, p));
            assert!(ko <= vanilla + 1e-12, "B={barrier}: {ko} > {vanilla}");
            assert!(ko >= prev - 1e-9, "knockout must grow with the barrier");
            prev = ko;
        }
        // A barrier far above any reachable spot is the vanilla.
        let far = price(|p| up_and_out_call(g, 100.0, 1e6, p));
        assert!((far - vanilla).abs() < 1e-12);
    }

    #[test]
    fn tight_barrier_kills_the_option() {
        let g = GbmPath::new(100.0, M, 1.0);
        // Barrier below the strike: any ITM path has necessarily touched.
        let ko = price(|p| up_and_out_call(g, 100.0, 100.0, p));
        assert!(ko.abs() < 1e-12, "{ko}");
    }

    #[test]
    fn asian_below_european() {
        let g = GbmPath::new(100.0, M, 1.0);
        let asian = price(|p| asian_call(g, 100.0, p));
        let euro = price(|p| european_call(g, 100.0, p));
        assert!(asian < euro, "asian {asian} vs euro {euro}");
        assert!(asian > 0.0);
    }

    #[test]
    fn lookback_dominates_atm_call() {
        // S_T - min(S) >= max(S_T - S_0, 0) path-by-path.
        let g = GbmPath::new(100.0, M, 1.0);
        let lb = price(|p| lookback_call(g, p));
        let atm = price(|p| european_call(g, 100.0, p));
        assert!(lb >= atm, "lookback {lb} vs atm {atm}");
        assert!(lb > 0.0);
    }
}
