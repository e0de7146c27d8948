//! The central contract of the benchmark: **optimization never changes
//! the answer**. Every intermediate/advanced variant must reproduce its
//! reference level — bit-for-bit where the arithmetic is identical
//! (binomial tiling, PSOR wavefront, bridge SIMD), to tight tolerance
//! where the operation order legitimately differs (transcendental-heavy
//! Black-Scholes, Monte-Carlo reductions).
//!
//! The per-kernel equivalence sweeps that used to live here (one
//! hand-written comparison per variant) are now a single property test:
//! every [`Rung`](finbench::engine::Rung) declares its check and baseline,
//! and [`Engine::validate_all`] runs the whole §6 strategy over random
//! workloads. What remains below are the shapes the ladder does not
//! exercise (odd tile sizes, odd step counts, raw wavefront blocks).

use finbench::core::binomial;
use finbench::core::black_scholes::soa;
use finbench::core::crank_nicolson::reference::psor_sweep;
use finbench::core::crank_nicolson::wavefront;
use finbench::core::engine::registry;
use finbench::core::workload::{MarketParams, OptionBatchSoa, WorkloadRanges};
use finbench::engine::{Engine, Planner, WorkloadSpec};
use finbench::machine::SNB_EP;
use proptest::prelude::*;

const M: MarketParams = MarketParams::PAPER;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every rung of every registered kernel reproduces its baseline rung
    /// on randomized workloads — sizes and seeds drawn here, clamping and
    /// SIMD-width rounding done by each kernel's `make_workload`.
    #[test]
    fn every_rung_matches_its_baseline_on_random_workloads(
        seed in 0u64..1_000_000,
        n_hint in 1usize..96,
    ) {
        let engine = Engine::with_planner(registry(), Planner::new(SNB_EP));
        let errs = engine.validate_all(&WorkloadSpec::validation(seed, n_hint));
        prop_assert!(errs.is_empty(), "{errs:?}");
    }
}

#[test]
fn binomial_tiling_is_bit_exact_for_many_shapes() {
    // Mixed expiries and a ragged length: every lane has its own lattice.
    let batch = OptionBatchSoa::random(27, 5, WorkloadRanges::default());
    type Driver = fn(&mut OptionBatchSoa, MarketParams, usize, bool);
    let drivers: [(&str, Driver); 3] = [
        ("SIMD", binomial::simd::price_batch_simd::<8>),
        ("TS=4", binomial::tiled::price_batch_tiled::<8, 4>),
        ("TS=16", binomial::tiled::price_batch_tiled::<8, 16>),
    ];
    for n_steps in [63usize, 64, 65, 200, 511, 513] {
        let mut reference_b = batch.clone();
        binomial::reference::price_batch(&mut reference_b, M, n_steps);
        for (label, driver) in drivers {
            let mut b = batch.clone();
            driver(&mut b, M, n_steps, true);
            for i in 0..batch.len() {
                assert_eq!(
                    reference_b.call[i].to_bits(),
                    b.call[i].to_bits(),
                    "{label} n={n_steps} i={i}"
                );
            }
        }
    }
}

#[test]
fn psor_wavefront_blocks_are_bit_exact_vs_scalar_sweeps() {
    // A CN-like system at several sizes and omega values.
    for n in [16usize, 64, 256, 1024] {
        for omega in [1.0, 1.3, 1.7] {
            let mut state = 0xC0FFEE ^ n as u64;
            let mut draw = || {
                state = finbench::rng::SplitMix64::mix(state);
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let u0: Vec<f64> = (0..n).map(|_| draw()).collect();
            let b: Vec<f64> = (0..n).map(|_| draw()).collect();
            let g: Vec<f64> = (0..n).map(|_| draw() * 0.8).collect();
            let (alphah, coeff) = (0.35, 1.0 / 1.7);

            let mut us = u0.clone();
            for _ in 0..16 {
                psor_sweep(&mut us, &b, &g, 1, n - 2, alphah, coeff, omega, true);
            }

            // 2 blocks of 8 lanes = exactly 16 wavefront iterations.
            let mut uw = u0.clone();
            wavefront::psor_solve_wavefront_fixed_blocks::<8>(
                &mut uw,
                &b,
                &g,
                1,
                n - 2,
                alphah,
                coeff,
                omega,
                true,
                2,
            );
            for j in 0..n {
                assert_eq!(
                    us[j].to_bits(),
                    uw[j].to_bits(),
                    "n={n} omega={omega} j={j}"
                );
            }
        }
    }
}

#[test]
fn workload_transposition_does_not_change_prices() {
    // AOS->SOA->AOS->price == price->AOS path: layout is orthogonal to
    // values.
    let soa_batch = OptionBatchSoa::random(513, 77, WorkloadRanges::default());
    let mut direct = soa_batch.clone();
    soa::price_soa_scalar(&mut direct, M);

    let mut round_trip = soa_batch.to_aos().to_soa();
    soa::price_soa_scalar(&mut round_trip, M);
    assert_eq!(direct.call, round_trip.call);
    assert_eq!(direct.put, round_trip.put);
}
