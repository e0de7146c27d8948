//! Path-dependent pricing: an arithmetic-average Asian option priced by
//! Monte Carlo over Brownian-bridge-constructed paths, exercising the
//! bridge's cache-to-cache fusion and the independent stream family.
//!
//! The asset path is geometric Brownian motion sampled at 64 dates; the
//! payoff depends on the *average* price, so the whole path matters —
//! exactly the workload the paper says the bridge kernel feeds
//! ("the computed Brownian sequence is to be used immediately and
//! discarded").
//!
//! ```text
//! cargo run --release --example asian_option_mc
//! ```

use finbench::core::black_scholes::price_single;
use finbench::core::brownian_bridge::payoffs::{asian_call, GbmPath};
use finbench::core::brownian_bridge::{interleaved::simulate_fused, BridgePlan};
use finbench::core::workload::MarketParams;
use finbench::rng::StreamFamily;

fn main() {
    let market = MarketParams {
        r: 0.05,
        sigma: 0.2,
    };
    let (s0, k, t) = (100.0, 100.0, 1.0);
    let n_paths = 262_144;

    let plan = BridgePlan::new(6, t); // 64 monitoring dates
    let fam = StreamFamily::new(20260707);

    // Fused consumer: map each Wiener path to the Asian call payoff.
    // Lane-parallel: path[k] holds W(t_k) for 8 paths at once.
    let steps = plan.steps();
    let gbm = GbmPath::new(s0, market, t);

    let mut payoffs = vec![0.0; n_paths];
    let t0 = std::time::Instant::now();
    simulate_fused::<8>(&plan, &fam, n_paths, &mut payoffs, |path| {
        asian_call(gbm, k, path)
    });
    let elapsed = t0.elapsed().as_secs_f64();

    let disc = (-market.r * t).exp();
    let mean: f64 = payoffs.iter().sum::<f64>() / n_paths as f64;
    let var: f64 = payoffs.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / n_paths as f64;
    let price = disc * mean;
    let se = disc * (var / n_paths as f64).sqrt();

    println!("Arithmetic Asian call, S0={s0} K={k} T={t}, 64 monitoring dates");
    println!("  paths            : {n_paths}");
    println!("  price            : {price:.4} +/- {:.4} (1 sigma)", se);
    println!(
        "  throughput       : {:.2} Mpaths/s (bridge + payoff fused)",
        n_paths as f64 / elapsed / 1e6
    );

    // Sanity anchors: the Asian call is worth less than the European call
    // (averaging reduces volatility) but is positive.
    let (euro, _) = price_single(s0, k, t, market);
    println!("\n  European call    : {euro:.4}  (Asian must be below)");
    assert!(price > 0.0 && price < euro);

    // A second anchor: the *geometric* Asian call has a closed form
    // (Black-Scholes with adjusted vol/drift); the arithmetic price must
    // exceed it (AM-GM).
    let sig_g = market.sigma
        * ((steps as f64 + 1.0) * (2.0 * steps as f64 + 1.0) / (6.0 * steps as f64 * steps as f64))
            .sqrt();
    let mu_g = 0.5 * (market.r - 0.5 * market.sigma * market.sigma) * (steps as f64 + 1.0)
        / steps as f64
        + 0.5 * sig_g * sig_g;
    // Closed form: Call_geo = e^{(mu_g - r)T} * BS_call(S0, K, T; r=mu_g,
    // sigma=sig_g) — Black-Scholes under the adjusted drift, re-discounted
    // at the real rate.
    let m_g = MarketParams {
        r: mu_g,
        sigma: sig_g,
    };
    let (geo_raw, _) = price_single(s0, k, t, m_g);
    let geo = geo_raw * ((mu_g - market.r) * t).exp();
    println!("  Geometric anchor : {geo:.4}  (arithmetic should exceed)");
    assert!(price > geo - 3.0 * se);
}
