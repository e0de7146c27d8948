//! Native measurements: run the real Rust kernels on the build host at
//! every optimization level, reporting items/second.
//!
//! These are the "did the optimization ladder actually help on real
//! silicon" numbers that complement the machine model's SNB-EP/KNC
//! regeneration. Absolute values depend on the host; the *ladder shape*
//! (SOA beats AOS, tiling beats plain SIMD, fused beats streamed) is the
//! reproducible part and is what the integration tests assert.
//!
//! There are no per-kernel driver functions here: the eight kernels
//! implement [`finbench_engine::Kernel`] in `finbench_core::engine`, and
//! one shared [`Engine`] drives every ladder through the same generic
//! loop, [`Engine::run_ladder_samples`] — spans (`native.<kernel>.<slug>`
//! with label, workload size, trial, per-rep throughput summary, pool
//! imbalance) and the planner's `plan.<kernel>` decision span come with it.

use finbench_core::engine::registry;
use finbench_engine::Engine;
use std::sync::OnceLock;

/// The process-wide engine: the eight-kernel registry plus a planner for
/// the build host.
pub fn engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| Engine::new(registry()))
}

/// Registered kernel names, registration (paper-artifact) order.
pub fn kernel_names() -> Vec<&'static str> {
    engine().registry().names()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_exposes_all_eight_kernels() {
        assert_eq!(
            kernel_names(),
            [
                "black_scholes",
                "binomial",
                "brownian_bridge",
                "monte_carlo",
                "crank_nicolson",
                "rng",
                "greeks",
                "portfolio"
            ]
        );
    }

    #[test]
    fn all_ladders_produce_positive_rates() {
        for k in engine().registry().kernels() {
            let rungs = engine().run_ladder_samples(k, true, 1);
            assert!(!rungs.is_empty(), "{}", k.name());
            for r in &rungs {
                let rate = r.samples.best();
                assert!(
                    rate.is_finite() && rate > 0.0,
                    "{}/{}: {rate}",
                    k.name(),
                    r.label
                );
            }
        }
    }
}
