//! Quasi-Monte-Carlo path construction — why the Brownian bridge exists.
//!
//! The depth-level bridge assigns the path's *largest-variance* degrees of
//! freedom (the endpoint, then midpoints of ever-shorter spans) to the
//! *first* coordinates of the random point — precisely the coordinates
//! where low-discrepancy sequences are most uniform. Driving the bridge
//! with a Halton point set therefore converts the sequence's
//! low-dimensional quality into fast convergence for path-dependent
//! payoffs (Glasserman ch. 5; the paper's ref. \[12\]).
//!
//! [`build_paths_qmc`] is the drop-in QMC counterpart of
//! [`super::reference::build_paths`]. [`geometric_asian_exact`] and
//! [`geometric_asian_price`] are the yardstick: a geometric Asian call
//! whose exact price is known in closed form, so a path set's pricing
//! error is measured, not estimated.

use super::BridgePlan;
use crate::black_scholes::price_single;
use crate::workload::MarketParams;
use finbench_math::{exp, ln};
use finbench_rng::Halton;

/// Build `n_paths` Wiener paths driven by consecutive Halton points
/// (starting at point index `offset`; pass the count of previously drawn
/// points to continue a stream). `out` is row-major `[path][point]`.
///
/// The bridge depth may not exceed 6 (64 normals = 64 Halton dimensions).
pub fn build_paths_qmc(plan: &BridgePlan, offset: u64, out: &mut [f64], n_paths: usize) {
    let per = plan.randoms_per_path();
    assert!(
        per <= 64,
        "Halton driver supports up to 64 dimensions (depth <= 6)"
    );
    let points = plan.points();
    assert_eq!(out.len(), n_paths * points, "output buffer size mismatch");

    let mut halton = Halton::new(per);
    halton.seek(offset);
    let mut normals = vec![0.0; per];
    for p in 0..n_paths {
        halton.fill_normal(&mut normals, 1);
        super::reference::build_path::<f64>(plan, &normals, &mut out[p * points..(p + 1) * points]);
    }
}

/// Closed-form price of the geometric Asian call struck at `k` on `s0`,
/// monitored at the plan's `steps()` uniform dates over its horizon:
/// Black-Scholes under the adjusted vol and drift.
pub fn geometric_asian_exact(plan: &BridgePlan, s0: f64, k: f64, m: MarketParams) -> f64 {
    let t = plan.horizon;
    let nf = plan.steps() as f64;
    let sig_g = m.sigma * ((nf + 1.0) * (2.0 * nf + 1.0) / (6.0 * nf * nf)).sqrt();
    let mu_g = 0.5 * (m.r - 0.5 * m.sigma * m.sigma) * (nf + 1.0) / nf + 0.5 * sig_g * sig_g;
    let m_g = MarketParams {
        r: mu_g,
        sigma: sig_g,
    };
    let (raw, _) = price_single(s0, k, t, m_g);
    raw * exp((mu_g - m.r) * t)
}

/// Price the same geometric Asian call from a row-major `[path][point]`
/// set of Wiener paths built on `plan` (by [`build_paths_qmc`] or
/// [`super::reference::build_paths`]): the discounted mean payoff.
pub fn geometric_asian_price(
    paths: &[f64],
    plan: &BridgePlan,
    s0: f64,
    k: f64,
    m: MarketParams,
) -> f64 {
    let t = plan.horizon;
    let points = plan.points();
    let steps = plan.steps();
    let dt = t / steps as f64;
    let drift = m.r - 0.5 * m.sigma * m.sigma;
    let n_paths = paths.len() / points;
    let mut sum = 0.0;
    for row in paths.chunks_exact(points) {
        // Geometric mean of S over monitoring dates = exp(mean log S).
        let mut mean_log = 0.0;
        for (kk, w) in row[1..].iter().enumerate() {
            mean_log += drift * ((kk + 1) as f64 * dt) + m.sigma * w;
        }
        mean_log = mean_log / steps as f64 + ln(s0);
        sum += (exp(mean_log) - k).max(0.0);
    }
    exp(-m.r * t) * sum / n_paths as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use finbench_rng::{normal::fill_standard_normal_icdf, Mt19937_64};

    const M: MarketParams = MarketParams {
        r: 0.05,
        sigma: 0.2,
    };

    #[test]
    fn qmc_paths_have_brownian_marginals() {
        let plan = BridgePlan::new(6, 2.0);
        let n_paths = 8192;
        let mut out = vec![0.0; n_paths * plan.points()];
        build_paths_qmc(&plan, 0, &mut out, n_paths);
        // Var[W(T)] = T and Var[W(T/2)] = T/2, estimated over the QMC set
        // (a deterministic, equidistributed sample).
        for (idx, t_k) in [(plan.points() - 1, 2.0), (plan.steps() / 2, 1.0)] {
            let mut var = 0.0;
            for p in 0..n_paths {
                let v = out[p * plan.points() + idx];
                var += v * v;
            }
            var /= n_paths as f64;
            assert!((var - t_k).abs() < 0.05 * t_k, "t={t_k} var={var}");
        }
    }

    #[test]
    fn qmc_beats_mc_on_geometric_asian() {
        let plan = BridgePlan::new(6, 1.0);
        let (s0, k) = (100.0, 100.0);
        let exact = geometric_asian_exact(&plan, s0, k, M);
        let n_paths = 8192;
        let points = plan.points();

        let mut qmc_paths = vec![0.0; n_paths * points];
        build_paths_qmc(&plan, 0, &mut qmc_paths, n_paths);
        let qmc_err = (geometric_asian_price(&qmc_paths, &plan, s0, k, M) - exact).abs();

        // Plain MC with the same path budget, averaged over a few seeds
        // so a lucky draw cannot flip the comparison.
        let per = plan.randoms_per_path();
        let mut mc_err_sum = 0.0;
        let seeds = [1u64, 2, 3, 4, 5];
        for &seed in &seeds {
            let mut rng = Mt19937_64::new(seed);
            let mut randoms = vec![0.0; n_paths * per];
            fill_standard_normal_icdf(&mut rng, &mut randoms);
            let mut paths = vec![0.0; n_paths * points];
            super::super::reference::build_paths::<f64>(&plan, &randoms, &mut paths, n_paths);
            mc_err_sum += (geometric_asian_price(&paths, &plan, s0, k, M) - exact).abs();
        }
        let mc_err = mc_err_sum / seeds.len() as f64;

        assert!(qmc_err < 0.02, "qmc err {qmc_err}");
        assert!(
            qmc_err < mc_err,
            "QMC ({qmc_err:.5}) should beat MC ({mc_err:.5}) at {n_paths} paths"
        );
    }

    #[test]
    fn offset_continues_the_sequence() {
        let plan = BridgePlan::new(4, 1.0);
        let points = plan.points();
        let mut whole = vec![0.0; 64 * points];
        build_paths_qmc(&plan, 0, &mut whole, 64);
        let mut tail = vec![0.0; 32 * points];
        build_paths_qmc(&plan, 32, &mut tail, 32);
        assert_eq!(&whole[32 * points..], &tail[..]);
    }

    #[test]
    #[should_panic(expected = "up to 64 dimensions")]
    fn depth_beyond_halton_dims_panics() {
        let plan = BridgePlan::new(7, 1.0); // 128 normals
        let mut out = vec![0.0; 8 * plan.points()];
        build_paths_qmc(&plan, 0, &mut out, 8);
    }
}
