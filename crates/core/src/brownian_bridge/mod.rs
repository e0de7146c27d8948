//! Brownian-bridge path construction (paper §IV-C, Lis. 4, Figs. 3 & 6).
//!
//! The depth-level bridge builds a discrete Wiener path hierarchically:
//! level 0 fixes the endpoint `W(T) = √T·Z₀`; each subsequent level `d`
//! fills in the midpoints of the `2^d` spans of the previous level using
//! the bridge identity — conditional on neighbours `v_l, v_r` the midpoint
//! is Gaussian with mean `(v_l + v_r)/2` and standard deviation `√Δ_d/2`
//! (`Δ_d = T/2^d` is the span length at level `d`).
//!
//! A *depth-`D`* bridge therefore has `2^D` steps (`2^D + 1` points
//! including the pinned origin) and consumes exactly `2^D` normal
//! variates per path; the paper's 64-step Fig. 6 configuration is
//! `depth = 6`.
//!
//! Optimization ladder:
//! * **Basic** — [`reference::build_path`]: the paper's Lis. 4, scalar,
//!   ping-ponging `src`/`dst` buffers.
//! * **Intermediate** — [`simd::build_paths_simd`]: one path per SIMD
//!   lane; randoms are consumed in vector-width chunks (the "minor
//!   modification" of §IV-C2).
//! * **Advanced** — [`interleaved::build_paths_interleaved`]: random
//!   generation interleaved chunk-wise so the stream stays cache-resident;
//!   [`interleaved::simulate_fused`] keeps even the *output* in cache by
//!   fusing the consumer ("cache-to-cache").
//! * **Extension** — [`qmc::build_paths_qmc`]: Halton-driven quasi-Monte
//!   Carlo, exploiting the bridge's variance concentration; [`payoffs`]:
//!   the arithmetic-average Asian call, a path functional for the fused
//!   consumer.

pub mod interleaved;
pub mod payoffs;
pub mod qmc;
pub mod reference;
pub mod simd;

/// Precomputed bridge coefficients (the paper's `w_l`, `w_r`, `sig`
/// arrays — "constant and depend only on the length of the simulation").
#[derive(Debug, Clone)]
pub struct BridgePlan {
    /// Number of levels; the path has `2^depth` steps.
    pub depth: usize,
    /// Time horizon `T`.
    pub horizon: f64,
    /// Left-neighbour weights per level (uniform grid: all `0.5`).
    pub w_l: Vec<Vec<f64>>,
    /// Right-neighbour weights per level.
    pub w_r: Vec<Vec<f64>>,
    /// Conditional standard deviations per level midpoint.
    pub sig: Vec<Vec<f64>>,
    /// Standard deviation of the endpoint, `√T`.
    pub last_sig: f64,
}

impl BridgePlan {
    /// Build the plan for a `2^depth`-step bridge over `[0, horizon]`.
    ///
    /// # Panics
    /// If `horizon <= 0`.
    pub fn new(depth: usize, horizon: f64) -> Self {
        assert!(horizon > 0.0, "horizon must be positive");
        let mut w_l = Vec::with_capacity(depth);
        let mut w_r = Vec::with_capacity(depth);
        let mut sig = Vec::with_capacity(depth);
        for d in 0..depth {
            let spans = 1usize << d;
            let delta = horizon / spans as f64;
            w_l.push(vec![0.5; spans]);
            w_r.push(vec![0.5; spans]);
            sig.push(vec![0.5 * delta.sqrt(); spans]);
        }
        Self {
            depth,
            horizon,
            w_l,
            w_r,
            sig,
            last_sig: horizon.sqrt(),
        }
    }

    /// Steps per path (`2^depth`).
    pub fn steps(&self) -> usize {
        1 << self.depth
    }

    /// Points per path including the pinned origin (`2^depth + 1`).
    pub fn points(&self) -> usize {
        self.steps() + 1
    }

    /// Normal variates consumed per path (`2^depth`: one for the endpoint
    /// plus one per midpoint).
    pub fn randoms_per_path(&self) -> usize {
        self.steps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_shapes() {
        let p = BridgePlan::new(6, 2.0);
        assert_eq!(p.steps(), 64);
        assert_eq!(p.points(), 65);
        assert_eq!(p.randoms_per_path(), 64);
        assert_eq!(p.w_l.len(), 6);
        for d in 0..6 {
            assert_eq!(p.w_l[d].len(), 1 << d);
            assert_eq!(p.sig[d].len(), 1 << d);
        }
    }

    #[test]
    fn conditional_std_follows_span_halving() {
        let p = BridgePlan::new(5, 1.0);
        for d in 0..5 {
            let delta = 1.0 / (1 << d) as f64;
            let want = 0.5 * delta.sqrt();
            assert!((p.sig[d][0] - want).abs() < 1e-15, "level {d}");
            // Every midpoint on a uniform grid shares the std.
            assert!(p.sig[d].iter().all(|&s| (s - want).abs() < 1e-15));
        }
        assert!((p.last_sig - 1.0).abs() < 1e-15);
    }

    #[test]
    fn total_variance_telescopes_to_horizon() {
        // Sum over all injected variances must reconstruct the variance of
        // an unconstrained walk: Var[W(T)] + sum of conditional variances
        // at interior points equals the sum of per-step variances.
        let t = 3.5;
        let p = BridgePlan::new(4, t);
        let injected: f64 = p.last_sig * p.last_sig
            + p.sig
                .iter()
                .flat_map(|lvl| lvl.iter())
                .map(|s| s * s)
                .sum::<f64>();
        // Sequential construction injects delta per step, totalling
        // steps * (T/steps) = T... the bridge injects T + sum(delta_d/4 *
        // 2^d) = T + depth*T/4. The comparison is not equality of sums —
        // assert instead the defining per-level relation.
        assert!(injected > t);
        for d in 0..4 {
            let delta = t / (1 << d) as f64;
            assert!((p.sig[d][0] * p.sig[d][0] - delta / 4.0).abs() < 1e-15);
        }
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn bad_horizon_panics() {
        BridgePlan::new(3, 0.0);
    }
}
