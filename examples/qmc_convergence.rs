//! Quasi-Monte-Carlo convergence study: price a geometric Asian call
//! (exact closed form available) with scrambled-Halton-driven Brownian
//! bridges versus plain pseudo-random Monte Carlo, sweeping the path
//! budget. QMC through the bridge converges visibly faster — the reason
//! the bridge kernel earns its place in the paper's benchmark.
//!
//! ```text
//! cargo run --release --example qmc_convergence
//! ```

use finbench::core::brownian_bridge::qmc::{
    build_paths_qmc, geometric_asian_exact, geometric_asian_price,
};
use finbench::core::brownian_bridge::{reference::build_paths, BridgePlan};
use finbench::core::workload::MarketParams;
use finbench::rng::{normal::fill_standard_normal_icdf, Mt19937_64};

const M: MarketParams = MarketParams {
    r: 0.05,
    sigma: 0.2,
};
const S0: f64 = 100.0;
const K: f64 = 100.0;
const T: f64 = 1.0;

fn main() {
    let plan = BridgePlan::new(6, T); // 64 monitoring dates
    let exact = geometric_asian_exact(&plan, S0, K, M);
    println!("Geometric Asian call, 64 dates; exact price {exact:.6}\n");
    println!(
        "{:>9} {:>14} {:>14} {:>8}",
        "paths", "|QMC error|", "|MC error|", "ratio"
    );

    let per = plan.randoms_per_path();
    for exp2 in [9usize, 11, 13, 15] {
        let n = 1usize << exp2;
        let mut qmc_paths = vec![0.0; n * plan.points()];
        build_paths_qmc(&plan, 0, &mut qmc_paths, n);
        let qmc_err = (geometric_asian_price(&qmc_paths, &plan, S0, K, M) - exact).abs();

        // MC error averaged over 5 seeds (a single draw is too noisy to
        // display).
        let mut mc_err = 0.0;
        for seed in 1..=5u64 {
            let mut rng = Mt19937_64::new(seed);
            let mut randoms = vec![0.0; n * per];
            fill_standard_normal_icdf(&mut rng, &mut randoms);
            let mut paths = vec![0.0; n * plan.points()];
            build_paths::<f64>(&plan, &randoms, &mut paths, n);
            mc_err += (geometric_asian_price(&paths, &plan, S0, K, M) - exact).abs();
        }
        mc_err /= 5.0;

        println!(
            "{n:>9} {qmc_err:>14.6} {mc_err:>14.6} {:>7.1}x",
            mc_err / qmc_err.max(1e-12)
        );
    }

    println!("\nQMC error decays ~n^-1 (vs n^-1/2 for MC) thanks to the bridge's");
    println!("variance concentration into the leading Halton dimensions.");
}
