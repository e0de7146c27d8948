//! Crank-Nicolson American option pricing with Projected SOR
//! (paper §II-C & §IV-E, Lis. 6–7, Figs. 7–8).
//!
//! ## Formulation
//!
//! Following the paper's references (Wilmott/Howison/Dewynne; Kerman), the
//! Black-Scholes PDE is transformed to the heat equation `u_τ = u_xx` via
//! `S = K·e^x`, `t = T − 2τ/σ²`, `V = K·e^(−(k−1)x/2 − (k+1)²τ/4)·u`,
//! with `k = 2r/σ²`. The American put becomes a linear complementarity
//! problem: `u ≥ g` everywhere, where the transformed payoff is
//!
//! ```text
//! g(x, τ) = e^((k+1)²τ/4) · max(e^((k−1)x/2) − e^((k+1)x/2), 0)
//! ```
//!
//! Each Crank-Nicolson step splits into an explicit half
//! (`B = (1−α)U + (α/2)(U₊ + U₋)`, `α = Δτ/Δx²`) and an implicit half
//! solved by **projected Gauss-Seidel SOR**:
//!
//! ```text
//! y  = (B[j] + (α/2)(u[j−1] + u[j+1])) / (1 + α)
//! u[j] ← max(g[j], u[j] + ω(y − u[j]))        (projection for American)
//! ```
//!
//! iterated until the summed squared update drops below `eps`, with the
//! over-relaxation factor ω adapted across time steps (Lis. 6).
//!
//! ## Optimization ladder
//!
//! * **Basic** — [`mod@reference`]: scalar PSOR exactly as Lis. 7 (the loop
//!   the compiler cannot vectorize because both the space and the
//!   convergence loop carry dependencies).
//! * **Advanced (manual SIMD)** — [`wavefront::psor_solve_wavefront`]: the
//!   paper's novel scheme (Fig. 7): the convergence loop is unrolled by
//!   the vector width and `W` consecutive SOR iterations advance along a
//!   skewed wavefront, lane `w` computing iteration `k+w+1` at position
//!   `j−2w`; convergence is checked every `W` iterations. One dispatched
//!   pass carries two `W = 8` registers, iterations `k+1 ..= k+16`.
//! * **Advanced (data transform)** —
//!   [`wavefront::psor_solve_wavefront_soa`]: the `B`/`G` arrays are
//!   physically re-skewed per time step, into buffers the solve owns, so
//!   each wavefront step reads unit stride instead of stride-2 gathers.

pub mod reference;
pub mod wavefront;

use crate::workload::MarketParams;
use finbench_math::{exp, ln};

/// Which PSOR implementation a solve should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PsorKind {
    /// Scalar Lis. 7 (basic level).
    Reference,
    /// Skewed wavefront, strided loads (advanced: manual SIMD).
    Wavefront,
    /// Skewed wavefront over re-skewed contiguous arrays (advanced:
    /// manual SIMD + data-structure transform).
    WavefrontSoa,
}

/// A Crank-Nicolson pricing problem for one option (strike-normalized
/// grid; one `CnProblem` prices any spot via [`CnSolution::price`]).
#[derive(Debug, Clone)]
pub struct CnProblem {
    /// Market parameters.
    pub market: MarketParams,
    /// Expiry in years.
    pub expiry: f64,
    /// Grid points (the paper's figure uses 256).
    pub n_points: usize,
    /// Time steps (the paper's figure uses 1000).
    pub n_steps: usize,
    /// Log-moneyness grid bounds `x = ln(S/K)`.
    pub xmin: f64,
    /// Upper grid bound.
    pub xmax: f64,
    /// PSOR convergence threshold on the summed squared update.
    pub eps: f64,
    /// `true` prices American exercise (projection on); `false` European.
    pub american: bool,
}

impl CnProblem {
    /// The paper's Fig. 8 configuration: 256 underlying prices, 1000 time
    /// steps, American exercise.
    pub fn paper(market: MarketParams, expiry: f64) -> Self {
        Self {
            market,
            expiry,
            n_points: 256,
            n_steps: 1000,
            xmin: -2.5,
            xmax: 2.5,
            eps: 1e-16,
            american: true,
        }
    }

    /// `k = 2r/σ²`.
    pub fn k(&self) -> f64 {
        2.0 * self.market.r / (self.market.sigma * self.market.sigma)
    }

    /// Grid spacing.
    pub fn dx(&self) -> f64 {
        (self.xmax - self.xmin) / (self.n_points - 1) as f64
    }

    /// Heat-time step (`τ` runs to `σ²T/2`).
    pub fn dtau(&self) -> f64 {
        0.5 * self.market.sigma * self.market.sigma * self.expiry / self.n_steps as f64
    }

    /// The CN ratio `α = Δτ/Δx²`.
    pub fn alpha(&self) -> f64 {
        self.dtau() / (self.dx() * self.dx())
    }

    /// Transformed put payoff `g(x, τ) = growth(τ) · intrinsic_u(x)`.
    pub fn payoff_u(&self, x: f64, tau: f64) -> f64 {
        self.growth(tau) * self.intrinsic_u(x)
    }

    /// The time factor `e^((k+1)²τ/4)` of [`CnProblem::payoff_u`].
    fn growth(&self, tau: f64) -> f64 {
        let k = self.k();
        exp(0.25 * (k + 1.0) * (k + 1.0) * tau)
    }

    /// The time-invariant factor `max(e^((k−1)x/2) − e^((k+1)x/2), 0)` of
    /// [`CnProblem::payoff_u`].
    fn intrinsic_u(&self, x: f64) -> f64 {
        let k = self.k();
        (exp(0.5 * (k - 1.0) * x) - exp(0.5 * (k + 1.0) * x)).max(0.0)
    }

    /// Solve the marching problem with the chosen PSOR kernel.
    pub fn solve(&self, kind: PsorKind) -> CnSolution {
        assert!(self.n_points >= 3, "need at least 3 grid points");
        let m = self.n_points - 1; // jmax
        let dx = self.dx();
        let dtau = self.dtau();
        let alpha = self.alpha();
        let alphah = 0.5 * alpha;
        let coeff = 1.0 / (1.0 + alpha);

        let x_of = |j: usize| self.xmin + j as f64 * dx;

        let mut u: Vec<f64> = (0..=m).map(|j| self.payoff_u(x_of(j), 0.0)).collect();
        // The payoff's two `exp`s per point do not depend on τ: evaluated
        // per time step they were half of a step's cycles. The boundary
        // rows sit at the grid bounds themselves, which `x_of(m)` can miss
        // by an ulp.
        let mut intrinsic: Vec<f64> = (0..=m).map(|j| self.intrinsic_u(x_of(j))).collect();
        intrinsic[0] = self.intrinsic_u(self.xmin);
        intrinsic[m] = self.intrinsic_u(self.xmax);
        let mut b = vec![0.0; m + 1];
        let mut g = vec![0.0; m + 1];
        let mut scratch = wavefront::WavefrontScratch::default();

        // Lis. 6 omega adaptation state.
        let mut omega = 1.0f64;
        let domega = 0.05;
        let mut oldloops = usize::MAX;
        let mut total_iters = 0usize;

        for n in 1..=self.n_steps {
            let tau = n as f64 * dtau;
            // Payoff refresh + explicit half step (uses the old U).
            let growth = self.growth(tau);
            for (slot, d) in g.iter_mut().zip(&intrinsic) {
                *slot = growth * d;
            }
            for j in 1..m {
                b[j] = (1.0 - alpha) * u[j] + alphah * (u[j + 1] + u[j - 1]);
            }
            u[0] = g[0];
            u[m] = g[m];

            let loops = match kind {
                PsorKind::Reference => reference::psor_solve(
                    &mut u,
                    &b,
                    &g,
                    1,
                    m - 1,
                    alphah,
                    coeff,
                    omega,
                    self.american,
                    self.eps,
                ),
                PsorKind::Wavefront => wavefront::psor_solve_wavefront::<8>(
                    &mut u,
                    &b,
                    &g,
                    1,
                    m - 1,
                    alphah,
                    coeff,
                    omega,
                    self.american,
                    self.eps,
                    &mut scratch,
                ),
                PsorKind::WavefrontSoa => wavefront::psor_solve_wavefront_soa::<8>(
                    &mut u,
                    &b,
                    &g,
                    1,
                    m - 1,
                    alphah,
                    coeff,
                    omega,
                    self.american,
                    self.eps,
                    &mut scratch,
                ),
            };
            total_iters += loops;

            // Lis. 6: nudge omega when the iteration count grows.
            if loops > oldloops && omega < 1.9 {
                omega += domega;
            }
            oldloops = loops;
        }

        CnSolution {
            problem: self.clone(),
            u,
            psor_iterations: total_iters,
        }
    }
}

/// A finished Crank-Nicolson solve: the `u(x, τ_final)` grid plus
/// bookkeeping.
#[derive(Debug, Clone)]
pub struct CnSolution {
    /// The problem this solves.
    pub problem: CnProblem,
    /// `u` at the final heat time (= present date).
    pub u: Vec<f64>,
    /// Total PSOR iterations across all time steps.
    pub psor_iterations: usize,
}

impl CnSolution {
    /// Price the put for spot `s` and strike `strike` by transforming the
    /// linearly interpolated `u(ln(S/K))` back to money space.
    ///
    /// # Panics
    /// If `ln(S/K)` falls outside the grid.
    pub fn price(&self, s: f64, strike: f64) -> f64 {
        let p = &self.problem;
        let x0 = ln(s / strike);
        assert!(x0 >= p.xmin && x0 <= p.xmax, "spot outside grid: x0={x0}");
        let dx = p.dx();
        let f = (x0 - p.xmin) / dx;
        let j = (f.floor() as usize).min(p.n_points - 2);
        let w = f - j as f64;
        let u0 = self.u[j] * (1.0 - w) + self.u[j + 1] * w;

        let k = p.k();
        let tau_fin = 0.5 * p.market.sigma * p.market.sigma * p.expiry;
        strike * u0 * exp(-0.5 * (k - 1.0) * x0 - 0.25 * (k + 1.0) * (k + 1.0) * tau_fin)
    }
}

/// Convenience wrapper: price one American (or European) put.
pub fn price_put(
    s: f64,
    strike: f64,
    expiry: f64,
    market: MarketParams,
    kind: PsorKind,
    american: bool,
) -> f64 {
    let mut prob = CnProblem::paper(market, expiry);
    prob.american = american;
    prob.solve(kind).price(s, strike)
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: MarketParams = MarketParams {
        r: 0.05,
        sigma: 0.2,
    };

    #[test]
    fn problem_parameters() {
        let p = CnProblem::paper(M, 1.0);
        assert_eq!(p.n_points, 256);
        assert!((p.k() - 2.5).abs() < 1e-15);
        assert!(p.alpha() > 0.0);
        // tau_final = sigma^2 T / 2 = 0.02.
        assert!((p.dtau() * p.n_steps as f64 - 0.02).abs() < 1e-15);
    }

    #[test]
    fn payoff_transform_matches_money_space_at_tau_zero() {
        // V(S, expiry) from u(x, 0) must be the put payoff max(K-S, 0).
        let p = CnProblem::paper(M, 1.0);
        let strike = 100.0;
        for x in [-1.0, -0.5, -0.1, 0.0, 0.1, 1.0] {
            let s = strike * exp(x);
            let k = p.k();
            let v = strike * p.payoff_u(x, 0.0) * exp(-0.5 * (k - 1.0) * x);
            let want = (strike - s).max(0.0);
            assert!(
                (v - want).abs() < 1e-9 * want.max(1.0),
                "x={x}: {v} vs {want}"
            );
        }
    }

    #[test]
    fn hoisted_payoff_has_the_bits_of_the_per_point_formula() {
        let p = CnProblem::paper(M, 1.0);
        let k = p.k();
        for n in [0usize, 1, 7, 100, 999, 1000] {
            let tau = n as f64 * p.dtau();
            let growth = p.growth(tau);
            for j in [0, 1, 2, 100, 127, 128, 129, 200, 254, 255] {
                let x = p.xmin + j as f64 * p.dx();
                // What `solve` evaluated per grid point per time step
                // before the `exp`s were hoisted.
                let want = exp(0.25 * (k + 1.0) * (k + 1.0) * tau)
                    * (exp(0.5 * (k - 1.0) * x) - exp(0.5 * (k + 1.0) * x)).max(0.0);
                let hoisted = growth * p.intrinsic_u(x);
                assert_eq!(hoisted.to_bits(), want.to_bits(), "n={n} j={j}");
            }
        }
    }

    #[test]
    fn paper_problem_iteration_counts_are_pinned() {
        // Any change to `g`, `b` or a PSOR iterate moves these.
        let mut p = CnProblem::paper(M, 1.0);
        p.n_steps = 100;
        for (kind, iterations) in [
            (PsorKind::Reference, 589),
            (PsorKind::Wavefront, 808),
            (PsorKind::WavefrontSoa, 808),
        ] {
            assert_eq!(p.solve(kind).psor_iterations, iterations, "{kind:?}");
        }
    }

    #[test]
    fn european_put_matches_black_scholes() {
        let (_, bs_put) = crate::black_scholes::price_single(100.0, 100.0, 1.0, M);
        let cn = price_put(100.0, 100.0, 1.0, M, PsorKind::Reference, false);
        assert!((cn - bs_put).abs() < 0.01, "cn {cn} vs bs {bs_put}");
    }

    #[test]
    fn american_put_matches_binomial() {
        let bin =
            crate::binomial::american::price_american::<f64>(100.0, 100.0, 1.0, M, 2000, false);
        let cn = price_put(100.0, 100.0, 1.0, M, PsorKind::Reference, true);
        assert!((cn - bin).abs() < 0.02, "cn {cn} vs binomial {bin}");
    }

    #[test]
    fn american_dominates_european_and_intrinsic() {
        let prob_a = CnProblem::paper(M, 1.0);
        let mut prob_e = prob_a.clone();
        prob_e.american = false;
        let sol_a = prob_a.solve(PsorKind::Reference);
        let sol_e = prob_e.solve(PsorKind::Reference);
        for s in [70.0, 85.0, 100.0, 115.0, 130.0] {
            let a = sol_a.price(s, 100.0);
            let e = sol_e.price(s, 100.0);
            assert!(a >= e - 1e-9, "s={s}: american {a} < european {e}");
            // u >= g holds at the nodes; linear interpolation between
            // nodes can undershoot the (convex) obstacle by O(dx²).
            let interp_tol = 100.0 * prob_a.dx() * prob_a.dx();
            assert!(
                a >= (100.0 - s).max(0.0) - interp_tol,
                "s={s} below intrinsic: {a}"
            );
        }
    }

    #[test]
    fn solution_respects_constraint_everywhere() {
        let p = CnProblem::paper(M, 1.0);
        let sol = p.solve(PsorKind::Reference);
        let tau_fin = 0.02;
        let dx = p.dx();
        for j in 0..p.n_points {
            let x = p.xmin + j as f64 * dx;
            let g = p.payoff_u(x, tau_fin);
            assert!(sol.u[j] >= g - 1e-9, "j={j}: u={} g={g}", sol.u[j]);
        }
    }

    #[test]
    #[should_panic(expected = "spot outside grid")]
    fn out_of_grid_spot_panics() {
        let p = CnProblem::paper(M, 1.0);
        let sol = p.solve(PsorKind::Reference);
        sol.price(0.001, 100.0);
    }
}
