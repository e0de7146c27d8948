//! Integration tests for the beyond-the-paper extensions that examples and
//! experiments run: the American engines (binomial lattice, Crank-Nicolson
//! PSOR, Longstaff-Schwartz) cross-checked on shared contracts, the served
//! Greeks sweep, and the quasi-Monte-Carlo bridge.

use finbench::core::binomial::{self, american};
use finbench::core::black_scholes::price_single;
use finbench::core::crank_nicolson::{self, PsorKind};
use finbench::core::monte_carlo::lsm;
use finbench::core::workload::MarketParams;

const M: MarketParams = MarketParams {
    r: 0.05,
    sigma: 0.2,
};

#[test]
fn four_american_engines_agree() {
    // Binomial, Crank-Nicolson PSOR and Longstaff-Schwartz all price the
    // same 1-year ATM American put. Three engines, not the four of the
    // name: the fourth lattice ran in no rung, lane or example, so it went.
    let (s, k, t) = (100.0, 100.0, 1.0);
    let bin = american::price_american::<f64>(s, k, t, M, 2000, false);
    let cn = crank_nicolson::price_put(s, k, t, M, PsorKind::WavefrontSoa, true);
    let mc = lsm::price_american_put_lsm(s, k, t, M, 100_000, 50, 2026);

    assert!((cn - bin).abs() < 0.02, "cn {cn} vs binomial {bin}");
    assert!(
        (mc.price - bin).abs() < 4.0 * mc.std_error + 0.01 * bin,
        "lsm {} ± {} vs binomial {bin}",
        mc.price,
        mc.std_error
    );
}

#[test]
fn exercise_right_ordering_across_engines() {
    // European <= American on the same lattice, and the closed-form
    // European put below the Crank-Nicolson American one.
    let (s, k, t, n) = (95.0, 100.0, 1.0, 520);
    let eur = binomial::reference::price_european(s, k, t, M, n, false);
    let amer = american::price_american::<f64>(s, k, t, M, n, false);
    assert!(eur <= amer + 1e-10);
    assert!(amer > eur, "exercise right must carry value for an ITM put");
    let (_, bs_put) = price_single(s, k, t, M);
    let cn = crank_nicolson::price_put(s, k, t, M, PsorKind::WavefrontSoa, true);
    assert!(bs_put < cn, "European {bs_put} vs CN American {cn}");
}

#[test]
fn lsm_tracks_lattice_across_moneyness() {
    for s in [80.0, 90.0, 100.0, 110.0] {
        let lattice = american::price_american::<f64>(s, 100.0, 1.0, M, 1000, false);
        let mc = lsm::price_american_put_lsm(s, 100.0, 1.0, M, 60_000, 50, 7);
        assert!(
            (mc.price - lattice).abs() < 4.0 * mc.std_error + 0.015 * lattice.max(1.0),
            "s={s}: lsm {} ± {} vs lattice {lattice}",
            mc.price,
            mc.std_error
        );
    }
}

#[test]
fn batch_greeks_aggregate_sanity() {
    // The served sweep: both contract sides per lane.
    use finbench::core::greeks::{greeks_batch_simd, GreeksBatchSoa};
    use finbench::core::workload::{OptionBatchSoa, WorkloadRanges};
    let b = OptionBatchSoa::random(4096, 17, WorkloadRanges::default());
    let mut out = GreeksBatchSoa::zeroed(b.len());
    greeks_batch_simd::<8>(&b, M, &mut out);
    let (call, put) = (&out.call, &out.put);
    // Call deltas in [0,1], gamma/vega non-negative, all finite.
    assert!(call.delta.iter().all(|d| (0.0..=1.0).contains(d)));
    assert!(call.gamma.iter().all(|g| *g >= 0.0 && g.is_finite()));
    assert!(call.vega.iter().all(|v| *v >= 0.0 && v.is_finite()));

    // Put deltas are call deltas minus one, lane for lane.
    for i in 0..b.len() {
        assert!((call.delta[i] - put.delta[i] - 1.0).abs() < 1e-12, "i={i}");
        assert_eq!(
            call.gamma[i].to_bits(),
            put.gamma[i].to_bits(),
            "gamma parity i={i}"
        );
    }
}

#[test]
fn halton_bridge_and_streams_compose() {
    // The QMC driver, the Philox stream family and the plain MT route all
    // estimate the same Brownian functional (terminal variance).
    use finbench::core::brownian_bridge::{
        interleaved::build_paths_interleaved, qmc::build_paths_qmc, BridgePlan,
    };
    use finbench::rng::StreamFamily;
    let plan = BridgePlan::new(6, 2.0);
    let n = 8192;
    let points = plan.points();

    let terminal_var = |paths: &[f64]| {
        let mut v = 0.0;
        for p in 0..n {
            let w = paths[p * points + points - 1];
            v += w * w;
        }
        v / n as f64
    };

    let mut qmc = vec![0.0; n * points];
    build_paths_qmc(&plan, 0, &mut qmc, n);
    let mut mc = vec![0.0; n * points];
    build_paths_interleaved::<8>(&plan, &StreamFamily::new(3), &mut mc, n);

    let vq = terminal_var(&qmc);
    let vm = terminal_var(&mc);
    assert!((vq - 2.0).abs() < 0.05, "qmc var {vq}");
    assert!((vm - 2.0).abs() < 0.15, "mc var {vm}");
}
