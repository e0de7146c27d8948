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

    /// Terminal call payoff `max(S_T − K, 0)`: the bridge's endpoint
    /// alone, so its price is the Black-Scholes call.
    fn terminal_call(g: GbmPath, strike: f64, path: &[F64v<8>]) -> F64v<8> {
        let steps = path.len() - 1;
        (g.spot_at(path[steps], steps, steps) - F64v::splat(strike)).max(F64v::zero())
    }

    #[test]
    fn terminal_payoff_matches_black_scholes() {
        let g = GbmPath::new(100.0, M, 1.0);
        let mc = price(|p| terminal_call(g, 100.0, p));
        let (bs, _) = crate::black_scholes::price_single(100.0, 100.0, 1.0, M);
        // se ~ 14/sqrt(65536) ~ 0.055.
        assert!((mc - bs).abs() < 0.25, "mc {mc} vs bs {bs}");
    }

    #[test]
    fn asian_below_european() {
        // Averaging lowers the variance of the underlying the call sees, so
        // the Asian call is worth less than the European one.
        let g = GbmPath::new(100.0, M, 1.0);
        let asian = price(|p| asian_call(g, 100.0, p));
        let (euro, _) = crate::black_scholes::price_single(100.0, 100.0, 1.0, M);
        assert!(asian < euro, "asian {asian} vs euro {euro}");
        assert!(asian > 0.0);
    }
}
