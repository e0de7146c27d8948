//! Property-based tests (proptest) over the suite's core invariants:
//! no-arbitrage relations, distributional identities, and the
//! equivalence of optimization levels on *random* inputs rather than the
//! hand-picked ones of the unit tests.

use finbench::core::binomial;
use finbench::core::black_scholes::{price_single, soa};
use finbench::core::brownian_bridge::{reference::build_path, BridgePlan};
use finbench::core::greeks::{greeks, OptionType};
use finbench::core::monte_carlo::{reference::paths_streamed, GbmTerminal};
use finbench::core::portfolio::var_es;
use finbench::core::workload::{MarketParams, OptionBatchSoa};
use finbench::math as fm;
use finbench::simd::{math as vmath, F64v};
use finbench::telemetry::nearest_rank;
use proptest::prelude::*;

fn market() -> impl Strategy<Value = MarketParams> {
    (0.0f64..0.12, 0.05f64..0.8).prop_map(|(r, sigma)| MarketParams { r, sigma })
}

fn contract() -> impl Strategy<Value = (f64, f64, f64)> {
    (5.0f64..300.0, 5.0f64..300.0, 0.05f64..10.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn put_call_parity_always_holds((s, k, t) in contract(), m in market()) {
        let (c, p) = price_single(s, k, t, m);
        let parity = s - k * fm::exp(-m.r * t);
        prop_assert!((c - p - parity).abs() < 1e-9 * s.max(k));
    }

    #[test]
    fn arbitrage_bounds_always_hold((s, k, t) in contract(), m in market()) {
        let (c, p) = price_single(s, k, t, m);
        let disc_k = k * fm::exp(-m.r * t);
        prop_assert!(c >= (s - disc_k).max(0.0) - 1e-9);
        prop_assert!(c <= s * (1.0 + 1e-12));
        prop_assert!(p >= (disc_k - s).max(0.0) - 1e-9);
        prop_assert!(p <= disc_k * (1.0 + 1e-12));
    }

    #[test]
    fn call_price_monotone_in_spot(k in 20.0f64..200.0, t in 0.1f64..5.0, m in market()) {
        let mut prev = -1.0;
        for i in 0..20 {
            let s = 10.0 + i as f64 * 15.0;
            let (c, _) = price_single(s, k, t, m);
            prop_assert!(c >= prev - 1e-10, "s={s}");
            prev = c;
        }
    }

    #[test]
    fn vega_always_positive((s, k, t) in contract(), m in market()) {
        let g = greeks(OptionType::Call, s, k, t, m);
        prop_assert!(g.vega >= 0.0);
        prop_assert!(g.gamma >= 0.0);
        prop_assert!((0.0..=1.0).contains(&g.delta));
    }

    #[test]
    fn simd_black_scholes_equals_scalar_on_random_batches(seed in 0u64..1_000_000) {
        let base = OptionBatchSoa::random(64, seed, Default::default());
        let mut a = base.clone();
        soa::price_soa_scalar(&mut a, MarketParams::PAPER);
        let mut b = base;
        soa::price_soa_simd::<8>(&mut b, MarketParams::PAPER);
        for i in 0..64 {
            prop_assert!((a.call[i] - b.call[i]).abs() <= 1e-12 * a.call[i].abs().max(1.0));
        }
    }

    #[test]
    fn binomial_tiling_bit_exact_on_random_leaves(
        seed in 0u64..1_000_000,
        n in 1usize..128,
    ) {
        let mut state = seed;
        let mut draw = || {
            state = finbench::rng::SplitMix64::mix(state);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 40.0
        };
        let leaves: Vec<F64v<4>> = (0..=n)
            .map(|_| F64v([draw(), draw(), draw(), draw()]))
            .collect();
        let mut a = leaves.clone();
        let ra = binomial::simd::reduce_simd(&mut a, n, 0.5012, 0.4979);
        let mut b = leaves;
        let rb = binomial::tiled::reduce_tiled::<4, 8>(&mut b, n, 0.5012, 0.4979);
        for l in 0..4 {
            prop_assert_eq!(ra[l].to_bits(), rb[l].to_bits());
        }
    }

    #[test]
    fn american_dominates_european_on_lattice((s, k, t) in contract(), m in market()) {
        let n = 128;
        let eur = binomial::reference::price_european(s, k, t, m, n, false);
        let amer = binomial::american::price_american::<f64>(s, k, t, m, n, false);
        prop_assert!(amer >= eur - 1e-9, "eur {eur} amer {amer}");
        prop_assert!(amer >= (k - s).max(0.0) - 1e-9);
    }

    #[test]
    fn bridge_endpoint_is_exact(seed in 0u64..1_000_000, depth in 1usize..8) {
        // Whatever the interior randoms, the endpoint is pinned to
        // r0 * sqrt(T) by construction.
        let plan = BridgePlan::new(depth, 1.7);
        let mut state = seed;
        let randoms: Vec<f64> = (0..plan.randoms_per_path())
            .map(|_| {
                state = finbench::rng::SplitMix64::mix(state);
                ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 4.0
            })
            .collect();
        let mut out = vec![0.0; plan.points()];
        build_path::<f64>(&plan, &randoms, &mut out);
        let want = randoms[0] * 1.7f64.sqrt();
        prop_assert!((out[plan.points() - 1] - want).abs() < 1e-12);
        prop_assert_eq!(out[0], 0.0);
    }

    #[test]
    fn vector_math_matches_scalar_on_random_lanes(
        a in -30.0f64..30.0, b in -30.0f64..30.0,
        c in -30.0f64..30.0, d in -30.0f64..30.0,
    ) {
        let v = F64v([a, b, c, d]);
        let e = vmath::vexp(v);
        let n = vmath::vnorm_cdf(v);
        for (i, &x) in [a, b, c, d].iter().enumerate() {
            prop_assert_eq!(e[i].to_bits(), fm::exp(x).to_bits());
            prop_assert_eq!(n[i].to_bits(), fm::norm_cdf(x).to_bits());
        }
    }

    #[test]
    fn inverse_cdf_round_trip(p in 1e-10f64..1.0) {
        let p = p.min(1.0 - 1e-10);
        let x = fm::inv_norm_cdf(p);
        prop_assert!((fm::norm_cdf(x) - p).abs() < 1e-11, "p={p} x={x}");
    }

    #[test]
    fn mc_payoff_sums_are_finite_and_ordered(
        (s, k, t) in contract(), m in market(), seed in 0u64..100_000,
    ) {
        let mut state = seed;
        let randoms: Vec<f64> = (0..256)
            .map(|_| {
                state = finbench::rng::SplitMix64::mix(state);
                fm::inv_norm_cdf(((state >> 11) as f64 + 0.5) / (1u64 << 53) as f64)
            })
            .collect();
        let sums = paths_streamed::<f64>(s, k, GbmTerminal::new(t, m), &randoms);
        prop_assert!(sums.v0.is_finite() && sums.v0 >= 0.0);
        prop_assert!(sums.v1 >= 0.0);
        // Cauchy-Schwarz: (sum x)^2 <= n * sum x^2.
        prop_assert!(sums.v0 * sums.v0 <= 256.0 * sums.v1 * (1.0 + 1e-12) + 1e-12);
    }

    #[test]
    fn nearest_rank_matches_the_brute_force_oracle(
        mut sample in proptest::collection::vec(-1e6f64..1e6, 1..200),
        q in 0.0f64..1.0,
    ) {
        sample.sort_by(f64::total_cmp);
        let got = nearest_rank(&sample, q);
        // Oracle straight from the definition: the smallest sample value
        // whose cumulative count covers at least ceil(q·n) elements
        // (rank floored at 1 so q = 0 still selects the minimum).
        let threshold = ((q * sample.len() as f64).ceil() as usize).max(1);
        let want = sample
            .iter()
            .copied()
            .find(|&v| sample.iter().filter(|&&e| e <= v).count() >= threshold)
            .expect("threshold <= n, so some value always covers it");
        prop_assert_eq!(got.to_bits(), want.to_bits(), "q={} n={}", q, sample.len());
    }

    #[test]
    fn extreme_quantiles_pin_to_the_sample_edges(
        mut sample in proptest::collection::vec(-1e6f64..1e6, 1..100),
    ) {
        sample.sort_by(f64::total_cmp);
        let (min, max) = (sample[0], sample[sample.len() - 1]);
        // q just above zero is the minimum (rank clamps up to 1), and q
        // just below one is already the maximum (ceil((1-ε)·n) = n for
        // any sample this size) — the edges where off-by-one rank
        // conventions historically diverged.
        for q in [0.0, 1e-12, 1.0 / (sample.len() as f64 * 2.0)] {
            prop_assert_eq!(nearest_rank(&sample, q).to_bits(), min.to_bits(), "q={}", q);
        }
        for q in [1.0 - 1e-12, 1.0] {
            prop_assert_eq!(nearest_rank(&sample, q).to_bits(), max.to_bits(), "q={}", q);
        }
    }

    #[test]
    fn expected_shortfall_dominates_var_on_random_pnl(
        pnl in proptest::collection::vec(-1e4f64..1e4, 4..200),
        c in 0.5f64..0.999,
    ) {
        // ES averages the tail at/beyond the VaR cut, so it can never
        // sit below VaR; both are finite on finite P&L.
        let risk = var_es(&pnl, &[c]);
        prop_assert_eq!(risk.len(), 1);
        prop_assert!(risk[0].var.is_finite());
        prop_assert!(risk[0].es >= risk[0].var - 1e-12, "{:?}", risk[0]);
        prop_assert!(risk[0].var_ci.0 <= risk[0].var && risk[0].var <= risk[0].var_ci.1);
    }
}

/// The same numbers anchor `var_es_on_a_known_distribution` in
/// `crates/core/src/portfolio/mod.rs` — change both together. Losses
/// 1..=100 make every rank arithmetic error visible: VaR95 must be
/// exactly the 95th element, and the 95% tail is {95..=100} (6 values,
/// mean 97.5).
#[test]
fn var_es_pins_the_known_distribution_through_the_shared_percentile() {
    let pnl: Vec<f64> = (1..=100).map(|l| -(l as f64)).collect();
    let risk = var_es(&pnl, &[0.95, 0.99]);
    assert_eq!(risk.len(), 2);
    assert_eq!(risk[0].var, 95.0);
    assert_eq!(risk[0].es, 97.5);
    assert_eq!(risk[0].tail_len, 6);
    assert_eq!(risk[1].var, 99.0);
    assert_eq!(risk[1].es, 99.5);
    assert_eq!(risk[1].tail_len, 2);
    // VaR is definitionally the shared nearest-rank percentile of the
    // loss distribution — the same function the latency reports use.
    let losses: Vec<f64> = (1..=100).map(|l| l as f64).collect();
    assert_eq!(risk[0].var, nearest_rank(&losses, 0.95));
    assert_eq!(risk[1].var, nearest_rank(&losses, 0.99));
}
