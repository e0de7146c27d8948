//! Monte-Carlo European option pricing (paper §IV-D, Lis. 5, Tab. II).
//!
//! Each path draws one standard normal `Z` and evaluates the terminal
//! payoff of geometric Brownian motion directly:
//!
//! ```text
//! S_T = S · exp(σ√T·Z + (r − σ²/2)·T),   payoff = max(S_T − X, 0)
//! ```
//!
//! accumulating the payoff sum `v0` and square sum `v1` (for the
//! confidence interval). Per the paper, `vol` and `mu = r − σ²/2` are
//! batch constants, `npath ≫ nopt`, and the `exp` call dominates.
//!
//! Two RNG regimes from Lis. 5's `STREAM` flag:
//! * **streamed** — pre-generated normals are read from memory and shared
//!   by all options (bandwidth pressure, still compute-bound per paper);
//! * **computed** — normals are generated on the fly per option (RNG
//!   dominates; Tab. II's second row).
//!
//! Optimization ladder: the scalar reference ([`mod@reference`]) is the basic
//! level (the paper notes autovectorization already handles the
//! reduction); [`simd`] adds explicit `W`-wide lanes with dual unrolled
//! accumulators; antithetic variates
//! ([`simd::paths_antithetic`]) extend the kernel with classic
//! variance reduction; [`lsm`] extends simulation to American exercise
//! via Longstaff-Schwartz least-squares regression.

pub mod lsm;
pub mod reference;
pub mod simd;

use crate::workload::MarketParams;

/// Accumulated payoff statistics for one option.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PathSums {
    /// Payoff sum (the paper's `v0`).
    pub v0: f64,
    /// Payoff square sum (the paper's `v1`).
    pub v1: f64,
    /// Paths accumulated.
    pub n: u64,
}

impl PathSums {
    /// Merge two partial accumulations.
    pub fn merge(self, other: Self) -> Self {
        Self {
            v0: self.v0 + other.v0,
            v1: self.v1 + other.v1,
            n: self.n + other.n,
        }
    }

    /// Mean (undiscounted) payoff.
    pub fn mean(&self) -> f64 {
        self.v0 / self.n as f64
    }

    /// Standard error of the mean payoff.
    pub fn std_error(&self) -> f64 {
        let n = self.n as f64;
        let mean = self.mean();
        let var = (self.v1 / n - mean * mean).max(0.0);
        (var / n).sqrt()
    }

    /// Discounted price estimate and its standard error.
    pub fn price(&self, r: f64, t: f64) -> (f64, f64) {
        let disc = finbench_math::exp(-r * t);
        (disc * self.mean(), disc * self.std_error())
    }
}

/// Per-option drift/diffusion constants of the terminal-value formula.
#[derive(Debug, Clone, Copy)]
pub struct GbmTerminal {
    /// `σ√T` — the paper's `v_rt_t`.
    pub v_rt_t: f64,
    /// `(r − σ²/2)·T` — the paper's `mu_t`.
    pub mu_t: f64,
}

impl GbmTerminal {
    /// Constants for expiry `t` under `market`.
    pub fn new(t: f64, market: MarketParams) -> Self {
        let mu = market.r - 0.5 * market.sigma * market.sigma;
        Self {
            v_rt_t: market.sigma * t.sqrt(),
            mu_t: mu * t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_sums_statistics() {
        let s = PathSums {
            v0: 10.0,
            v1: 30.0,
            n: 5,
        };
        assert!((s.mean() - 2.0).abs() < 1e-15);
        // var = 30/5 - 4 = 2; se = sqrt(2/5).
        assert!((s.std_error() - (2.0f64 / 5.0).sqrt()).abs() < 1e-15);
        let (p, se) = s.price(0.0, 1.0);
        assert_eq!(p, 2.0);
        assert!(se > 0.0);
    }

    #[test]
    fn merge_is_additive() {
        let a = PathSums {
            v0: 1.0,
            v1: 2.0,
            n: 3,
        };
        let b = PathSums {
            v0: 4.0,
            v1: 5.0,
            n: 6,
        };
        let m = a.merge(b);
        assert_eq!(
            m,
            PathSums {
                v0: 5.0,
                v1: 7.0,
                n: 9
            }
        );
    }

    #[test]
    fn gbm_constants() {
        let g = GbmTerminal::new(
            4.0,
            MarketParams {
                r: 0.05,
                sigma: 0.3,
            },
        );
        assert!((g.v_rt_t - 0.6).abs() < 1e-15);
        assert!((g.mu_t - (0.05 - 0.045) * 4.0).abs() < 1e-15);
    }

    #[test]
    fn degenerate_variance_clamped() {
        // All-equal payoffs can give tiny negative variance from rounding;
        // std_error must clamp to zero, not NaN.
        let s = PathSums {
            v0: 3.0,
            v1: 3.0,
            n: 3,
        };
        assert_eq!(s.std_error(), 0.0);
    }
}
