//! Reproducibility contract: every result in the suite is a pure function
//! of its seed — across reruns, across thread counts, across scheduling.

use finbench::core::black_scholes::soa;
use finbench::core::brownian_bridge::{interleaved, BridgePlan};
use finbench::core::workload::{MarketParams, OptionBatchSoa, WorkloadRanges};
use finbench::parallel::parallel_for_chunks;
use finbench::rng::{Mt19937_64, Philox4x32, RngCore64, StreamFamily};

const M: MarketParams = MarketParams::PAPER;

#[test]
fn workloads_are_seed_deterministic() {
    let a = OptionBatchSoa::random(1000, 1, WorkloadRanges::default());
    let b = OptionBatchSoa::random(1000, 1, WorkloadRanges::default());
    assert_eq!(a.s, b.s);
    assert_eq!(a.x, b.x);
    assert_eq!(a.t, b.t);
}

#[test]
fn generators_replay_exactly() {
    let seq = |seed: u64| -> Vec<u64> {
        let mut r = Mt19937_64::new(seed);
        (0..1000).map(|_| r.next_u64()).collect()
    };
    assert_eq!(seq(123), seq(123));
    assert_ne!(seq(123), seq(124));

    let pseq = |key: u64| -> Vec<u64> {
        let mut r = Philox4x32::new(key);
        (0..1000).map(|_| r.next_u64()).collect()
    };
    assert_eq!(pseq(9), pseq(9));
}

#[test]
fn parallel_pricing_is_worker_count_invariant() {
    let base = OptionBatchSoa::random(20_000, 3, WorkloadRanges::default());
    let mut serial = base.clone();
    soa::price_soa_simd_erf_parity::<8>(&mut serial, M);

    let mut par = base.clone();
    soa::par_price_soa::<8>(&mut par, M, 1024);

    for i in 0..base.len() {
        assert_eq!(serial.call[i].to_bits(), par.call[i].to_bits(), "i={i}");
        assert_eq!(serial.put[i].to_bits(), par.put[i].to_bits(), "i={i}");
    }
}

#[test]
fn interleaved_bridge_is_group_addressed_not_order_addressed() {
    // Stream ids are derived from the group index, so the output is a
    // pure function of (seed, W, n_paths) regardless of execution order.
    let plan = BridgePlan::new(5, 1.0);
    let fam = StreamFamily::new(404);
    let mut a = vec![0.0; 64 * plan.points()];
    let mut b = vec![0.0; 64 * plan.points()];
    interleaved::build_paths_interleaved::<8>(&plan, &fam, &mut a, 64);
    interleaved::build_paths_interleaved::<8>(&plan, &fam, &mut b, 64);
    assert_eq!(a, b);
    // Extending the path count must not change earlier groups.
    let mut c = vec![0.0; 128 * plan.points()];
    interleaved::build_paths_interleaved::<8>(&plan, &fam, &mut c, 128);
    assert_eq!(&a[..], &c[..64 * plan.points()]);
}

#[test]
fn own_pool_for_chunks_is_deterministic_in_output() {
    // Each element's final value depends only on its index, whatever the
    // interleaving of workers.
    for trial in 0..5 {
        let mut v = vec![0u64; 8192];
        parallel_for_chunks(&mut v, 64, 4, |start, chunk| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = finbench::rng::SplitMix64::mix((start + i) as u64);
            }
        });
        let want: Vec<u64> = (0..8192)
            .map(|i| finbench::rng::SplitMix64::mix(i as u64))
            .collect();
        assert_eq!(v, want, "trial {trial}");
    }
}
