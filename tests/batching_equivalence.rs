//! The serving plane's core contract, as properties: **micro-batching is
//! invisible in the bits**. However requests are interleaved, whatever
//! batch sizes and flush triggers fire, each request's price is
//! bit-identical to pricing that request alone through the same serving
//! rung — because batches are padded to the rung's SIMD width and the
//! vector math is lane-wise.
//!
//! Two layers:
//!
//! * a *pure* replay of the [`MicroBatcher`] flush logic with synthetic
//!   clocks and a synthetic queue (every servable rung, arbitrary
//!   size/delay/idle interleavings),
//! * an end-to-end pass through the threaded [`Server`] with real
//!   queueing and scatter-back — over a random shard count and a random
//!   client pacing (bursts that batch up, waits that leave the queue dry
//!   so the idle trigger flushes near-empty batches), so router
//!   placement, cross-shard spills, work stealing and every flush
//!   trigger are exercised under the same bit-identity contract, for
//!   prices, greeks and portfolio chunks alike.

use finbench::core::engine::registry;
use finbench::core::greeks::{greeks_batch_simd, price_and_greeks_into, GreeksBatchSoa};
use finbench::core::portfolio::{revalue_into, Book, RevalScratch, ScenarioConfig};
use finbench::core::OptionBatchSoa;
use finbench::engine::Engine;
use finbench::faults::{FaultKind, FaultPlan, FaultSpec, Faults};
use finbench::serve::batcher::{BatchPolicy, FlushCounts, FlushReason, MicroBatcher};
use finbench::serve::pricer::{self, padded_batch_into, PricerConfig};
use finbench::serve::{
    greeks_ladder, GreeksRequest, LoadMode, OptionScratch, PortfolioRequest, PriceRequest,
    ServeConfig, ServeSnapshot, Server,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::time::{Duration, Instant};

fn contract() -> impl Strategy<Value = (f64, f64, f64)> {
    // The paper's workload ranges.
    (5.0f64..30.0, 1.0f64..100.0, 0.25f64..10.0)
}

fn pricer_config() -> PricerConfig {
    PricerConfig {
        binomial_steps: 32,
        ..PricerConfig::default()
    }
}

/// Every batch-safe (kernel, rung) pair, resolved independently of the
/// host planner so the property covers the whole servable set, not just
/// the rung planned for this machine.
fn servable_rungs() -> Vec<pricer::ServingRung> {
    let cfg = pricer_config();
    let engine = Engine::new(registry());
    let mut out = Vec::new();
    for kernel in ["black_scholes", "binomial"] {
        let any = engine.registry().resolve(kernel).unwrap();
        for info in any.rungs() {
            if let Some(rung) = pricer::servable(kernel, &info.slug, &cfg) {
                out.push(rung);
            }
        }
    }
    assert!(out.len() >= 5, "servable set shrank: {}", out.len());
    out
}

/// One option contract: `(spot, strike, expiry)`.
type Contract = (f64, f64, f64);

/// Replay `opts` through a [`MicroBatcher`] under an arbitrary
/// interleaving: `gaps[i]` is the synthetic time step before request `i`
/// arrives and `dry[i] == 0` says the synthetic admission queue is empty
/// once request `i` is admitted, so the size, delay and idle triggers all
/// fire at data-dependent points. Returns the flushed batches in dispatch
/// order and the tally of what flushed them.
fn replay_batches(
    opts: &[Contract],
    gaps: &[u32],
    dry: &[u32],
    max_batch: usize,
    max_delay_us: u64,
) -> (Vec<Vec<Contract>>, FlushCounts) {
    let mut batcher: MicroBatcher<Contract> = MicroBatcher::new(BatchPolicy {
        max_batch,
        max_delay: Duration::from_micros(max_delay_us),
    });
    let t0 = Instant::now();
    let mut now = t0;
    let mut batches = Vec::new();
    let mut counts = FlushCounts::default();
    for (i, &opt) in opts.iter().enumerate() {
        now += Duration::from_micros(u64::from(gaps[i % gaps.len()]));
        // A lane that sat out `max_delay` while the (busy) worker was
        // elsewhere flushes before the new arrival joins it.
        if let Some(reason) = batcher.trigger(now, false) {
            counts.record(reason);
            batches.push(batcher.flush());
        }
        batcher.push(opt, now);
        // Size fires at admission; idle once the queue has run dry.
        if let Some(reason) = batcher.trigger(now, dry[i % dry.len()] == 0) {
            counts.record(reason);
            batches.push(batcher.flush());
        }
    }
    let tail = batcher.flush();
    if !tail.is_empty() {
        counts.record(FlushReason::Drain);
        batches.push(tail);
    }
    (batches, counts)
}

/// Submit-side pacing for the threaded tests: with `pace > 0` the client
/// waits for everything outstanding after every `pace`-th submit, so the
/// workers' queues run dry mid-stream and near-empty batches flush on the
/// idle trigger; `pace == 0` is one uninterrupted burst. Returns every
/// response.
fn drive_paced<R>(
    n: usize,
    pace: usize,
    rx: &std::sync::mpsc::Receiver<R>,
    mut submit: impl FnMut(usize),
) -> Vec<R> {
    let mut responses = Vec::with_capacity(n);
    for i in 0..n {
        submit(i);
        if pace > 0 && (i + 1) % pace == 0 {
            while responses.len() <= i {
                responses.push(
                    rx.recv_timeout(Duration::from_secs(30))
                        .expect("one response per request"),
                );
            }
        }
    }
    while responses.len() < n {
        responses.push(
            rx.recv_timeout(Duration::from_secs(30))
                .expect("one response per request"),
        );
    }
    responses
}

/// Every dispatched batch is attributed to exactly one flush trigger.
fn flushes_account_for_every_batch(snap: &ServeSnapshot) -> bool {
    snap.kernels.iter().all(|k| k.flushes.total() == k.batches)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_interleaving_prices_bit_identical_to_solo(
        opts in vec(contract(), 1..40usize),
        gaps in vec(0u32..200, 8usize),
        dry in vec(0u32..3, 8usize),
        max_batch in 1usize..17,
        max_delay_us in 1u64..150,
    ) {
        for rung in servable_rungs() {
            let (batches, counts) = replay_batches(&opts, &gaps, &dry, max_batch, max_delay_us);
            prop_assert_eq!(counts.total(), batches.len() as u64);
            // Every request dispatched exactly once, order preserved
            // within the stream.
            let replayed: Vec<(f64, f64, f64)> =
                batches.iter().flatten().copied().collect();
            prop_assert_eq!(&replayed, &opts);
            for batch in &batches {
                prop_assert!(batch.len() <= max_batch);
                let mut soa = OptionBatchSoa::zeroed(0);
                padded_batch_into(&mut soa, batch, rung.width);
                prop_assert_eq!(soa.len() % rung.width.max(1), 0);
                rung.price(&mut soa);
                for (i, &(s, x, t)) in batch.iter().enumerate() {
                    let (call, put) = rung.price_one(s, x, t);
                    prop_assert_eq!(
                        soa.call[i].to_bits(), call.to_bits(),
                        "{}: call diverges at {} (batch of {})", &rung.slug, i, batch.len()
                    );
                    prop_assert_eq!(
                        soa.put[i].to_bits(), put.to_bits(),
                        "{}: put diverges at {} (batch of {})", &rung.slug, i, batch.len()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn threaded_server_matches_the_solo_oracle_bit_for_bit(
        opts in vec(contract(), 1..60usize),
        kernel_picks in vec(0usize..2, 1..60usize),
        shards in 1usize..5,
        pace in 0usize..5,
    ) {
        let cfg = pricer_config();
        let engine = Engine::new(registry());
        let kernels = ["black_scholes", "binomial"];
        let oracles: Vec<_> = kernels
            .iter()
            .map(|k| pricer::resolve(&engine, k, &cfg).unwrap())
            .collect();

        let server = Server::start(ServeConfig {
            queue_capacity: opts.len().max(1),
            max_delay: Duration::from_micros(100),
            max_batch: 16,
            shards,
            pricer: cfg,
            ..ServeConfig::default()
        });
        let (tx, rx) = std::sync::mpsc::channel();
        let mut responses = drive_paced(opts.len(), pace, &rx, |i| {
            let (s, x, t) = opts[i];
            let which = kernel_picks[i % kernel_picks.len()];
            server.submit_with(
                PriceRequest::new(i as u64, kernels[which], s, x, t),
                &tx,
            );
        });
        let snap = server.shutdown();
        prop_assert_eq!(snap.total_shed(), 0);
        prop_assert!(flushes_account_for_every_batch(&snap), "{:?}", snap.kernels);
        if pace == 1 && shards == 1 {
            // One request in flight at a time on one worker: every batch
            // is a lone request the idle trigger flushed.
            for k in &snap.kernels {
                prop_assert_eq!(k.flushes.idle, k.served, "{:?}", k);
            }
        }
        // The merged snapshot accounts for every request exactly once
        // across the shard set, however the router placed them.
        prop_assert_eq!(snap.shards.len(), shards);
        let submitted: u64 = snap.shards.iter().map(|s| s.submitted).sum();
        let served: u64 = snap.shards.iter().map(|s| s.served).sum();
        prop_assert_eq!(submitted, opts.len() as u64);
        prop_assert_eq!(served, opts.len() as u64);
        responses.sort_by_key(|r| r.id);
        for resp in responses {
            let i = resp.id as usize;
            let which = kernel_picks[i % kernel_picks.len()];
            let (s, x, t) = opts[i];
            let priced = resp.outcome.expect("nothing rejected");
            let (call, put) = oracles[which].price_one(s, x, t);
            prop_assert_eq!(
                priced.call.to_bits(), call.to_bits(),
                "{} call for request {} (batch of {})",
                kernels[which], i, priced.batch_len
            );
            prop_assert_eq!(
                priced.put.to_bits(), put.to_bits(),
                "{} put for request {}", kernels[which], i
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // The same invisibility contract for the greeks lane: every
    // GreeksRequest that rides a micro-batch scatters back all ten
    // sensitivities (five per contract side) bit-identical to computing
    // that option alone on the rung that served it.
    #[test]
    fn greeks_through_the_server_match_the_solo_oracle_bit_for_bit(
        opts in vec(contract(), 1..60usize),
        shards in 1usize..4,
        pace in 0usize..5,
    ) {
        let cfg = pricer_config();
        let oracles: std::collections::BTreeMap<String, _> = greeks_ladder(cfg.market)
            .into_iter()
            .map(|r| (r.slug.clone(), r))
            .collect();

        let server = Server::start(ServeConfig {
            queue_capacity: opts.len().max(1),
            max_delay: Duration::from_micros(100),
            max_batch: 16,
            shards,
            pricer: cfg,
            ..ServeConfig::default()
        });
        let (tx, rx) = std::sync::mpsc::channel();
        let mut responses = drive_paced(opts.len(), pace, &rx, |i| {
            let (s, x, t) = opts[i];
            server.submit_greeks_with(GreeksRequest::new(i as u64, s, x, t), &tx);
        });
        let snap = server.shutdown();
        prop_assert_eq!(snap.total_shed(), 0);
        prop_assert!(flushes_account_for_every_batch(&snap), "{:?}", snap.kernels);
        responses.sort_by_key(|r| r.id);
        for resp in responses {
            let i = resp.id as usize;
            let (s, x, t) = opts[i];
            let out = resp.outcome.expect("nothing rejected");
            let rung = oracles.get(&out.rung).expect("served on a ladder rung");
            let (call, put) = rung.compute_one(s, x, t);
            for (name, got, want) in [
                ("call delta", out.call.delta, call.delta),
                ("call gamma", out.call.gamma, call.gamma),
                ("call vega", out.call.vega, call.vega),
                ("call theta", out.call.theta, call.theta),
                ("call rho", out.call.rho, call.rho),
                ("put delta", out.put.delta, put.delta),
                ("put gamma", out.put.gamma, put.gamma),
                ("put vega", out.put.vega, put.vega),
                ("put theta", out.put.theta, put.theta),
                ("put rho", out.put.rho, put.rho),
            ] {
                prop_assert_eq!(
                    got.to_bits(), want.to_bits(),
                    "{} diverges for request {} on {} (batch of {})",
                    name, i, &out.rung, out.batch_len
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // And for the portfolio plane: one request fans scenario chunks over
    // the shards, chunks ride whatever micro-batches the flush triggers
    // cut (a paced client leaves lone chunks to the idle trigger, a burst
    // of requests fills batches), and the merged P&L must equal the
    // native single-threaded sweep bit for bit.
    #[test]
    fn portfolio_chunks_through_the_server_match_the_native_sweep_bit_for_bit(
        books in vec((1usize..20, 8usize..72, 1usize..24, 0u64..1_000), 1..4usize),
        shards in 1usize..4,
        pace in 0usize..2,
    ) {
        let cfg = pricer_config();
        let server = Server::start(ServeConfig {
            queue_capacity: 256,
            max_delay: Duration::from_micros(100),
            max_batch: 8,
            shards,
            pricer: cfg,
            ..ServeConfig::default()
        });
        let (tx, rx) = std::sync::mpsc::channel();
        let mut responses = drive_paced(books.len(), pace, &rx, |i| {
            let (positions, scenarios, chunk, seed) = books[i];
            server.submit_portfolio_with(
                PortfolioRequest::new(i as u64, seed, positions, scenarios).with_chunk(chunk),
                &tx,
            );
        });
        let snap = server.shutdown();
        prop_assert_eq!(snap.total_shed(), 0);
        prop_assert!(flushes_account_for_every_batch(&snap), "{:?}", snap.kernels);
        responses.sort_by_key(|r| r.id);
        for resp in responses {
            let (positions, scenarios, chunk, seed) = books[resp.id as usize];
            let out = resp.outcome.expect("nothing rejected");
            prop_assert_eq!(out.chunks, scenarios.div_ceil(chunk.min(scenarios)));
            let book = Book::random(positions, seed);
            let grid = ScenarioConfig::standard(scenarios, seed).grid();
            let mut want = Vec::new();
            revalue_into::<1>(&book, cfg.market, &grid, &mut RevalScratch::new(), &mut want);
            prop_assert_eq!(out.pnl.len(), want.len());
            for (j, (got, native)) in out.pnl.iter().zip(&want).enumerate() {
                prop_assert_eq!(
                    got.to_bits(), native.to_bits(),
                    "request {} scenario {} ({} chunks on {:?})",
                    resp.id, j, out.chunks, &out.rungs
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    // Sharding under duress: random seeded stalls hold work in shard
    // queues at data-dependent points, so the router spills between
    // shards and idle shards steal from deep siblings — interleavings
    // the happy path never produces. The contract is unchanged: every
    // response bit-identical to solo pricing on the rung that served
    // it, nothing shed, every request accounted for exactly once in
    // the merged shard telemetry.
    #[test]
    fn sharded_routing_and_stealing_stay_bit_invisible(
        opts in vec(contract(), 1..48usize),
        kernel_picks in vec(0usize..2, 1..48usize),
        shards in 2usize..5,
        stall_rate in 0.05f64..0.6,
        seed in 0u64..1_000,
    ) {
        let stalls = Faults::new(FaultPlan::new().with(
            FaultSpec::at_rate("queue", FaultKind::StallQueue, stall_rate).seeded(seed),
        ));
        let cfg = pricer_config();
        let engine = Engine::new(registry());
        let kernels = ["black_scholes", "binomial"];
        let oracles: Vec<_> = kernels
            .iter()
            .map(|k| pricer::resolve(&engine, k, &cfg).unwrap())
            .collect();

        let config = ServeConfig {
            queue_capacity: opts.len().max(1),
            max_delay: Duration::from_micros(100),
            max_batch: 8,
            shards,
            pricer: cfg,
            ..ServeConfig::default()
        };
        let server = Server::start_with_faults(config, stalls);
        let (tx, rx) = std::sync::mpsc::channel();
        for (i, &(s, x, t)) in opts.iter().enumerate() {
            let which = kernel_picks[i % kernel_picks.len()];
            server.submit_with(
                PriceRequest::new(i as u64, kernels[which], s, x, t),
                &tx,
            );
        }
        drop(tx);
        let mut responses: Vec<_> = rx.iter().collect();
        let snap = server.shutdown();
        prop_assert_eq!(snap.total_shed(), 0);
        prop_assert_eq!(responses.len(), opts.len());
        prop_assert_eq!(snap.shards.len(), shards);
        // Stolen work is served at the thief but submitted at the
        // victim; both tallies still sum to the request count.
        let submitted: u64 = snap.shards.iter().map(|s| s.submitted).sum();
        let served: u64 = snap.shards.iter().map(|s| s.served).sum();
        prop_assert_eq!(submitted, opts.len() as u64);
        prop_assert_eq!(served, opts.len() as u64);
        responses.sort_by_key(|r| r.id);
        for resp in responses {
            let i = resp.id as usize;
            let which = kernel_picks[i % kernel_picks.len()];
            let (s, x, t) = opts[i];
            let priced = resp.outcome.expect("nothing rejected");
            let (call, put) = oracles[which].price_one(s, x, t);
            prop_assert_eq!(
                priced.call.to_bits(), call.to_bits(),
                "{} call for request {} under stalls (batch of {})",
                kernels[which], i, priced.batch_len
            );
            prop_assert_eq!(
                priced.put.to_bits(), put.to_bits(),
                "{} put for request {} under stalls", kernels[which], i
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The zero-allocation redesign's core contract: running flush after
    // flush through ONE reused [`OptionScratch`] — dirty buffers, shrinking and
    // growing batch sizes — yields prices and all ten greeks bit-identical
    // to staging every flush into freshly allocated buffers. And the fused
    // single-pass kernel (prices + greeks together) agrees with the two
    // separate sweeps bit-for-bit, so the serve plane can swap it in
    // without changing a single answer.
    #[test]
    fn pooled_scratch_reuse_and_fused_pass_are_bit_identical(
        rounds in vec(vec(contract(), 0..33usize), 1..6usize),
        width_pick in 0usize..2,
    ) {
        let market = pricer_config().market;
        let width = [4usize, 8][width_pick];
        let mut scratch = OptionScratch::new();
        for opts in &rounds {
            // Oracle: fresh allocations for this flush, separate passes.
            let mut fresh = OptionBatchSoa::zeroed(0);
            padded_batch_into(&mut fresh, opts, width);
            let mut fresh_g = GreeksBatchSoa::zeroed(fresh.len());
            // Pooled: the same flush through the reused scratch.
            scratch.opts.clear();
            scratch.opts.extend_from_slice(opts);
            scratch.stage(width);
            scratch.greeks.resize(scratch.soa.len());
            // Fused: one pass computing prices + greeks together.
            let mut fused = OptionBatchSoa::zeroed(0);
            padded_batch_into(&mut fused, opts, width);
            let mut fused_g = GreeksBatchSoa::zeroed(fused.len());
            match width {
                4 => {
                    finbench::core::black_scholes::soa::price_soa_simd::<4>(&mut fresh, market);
                    greeks_batch_simd::<4>(&fresh, market, &mut fresh_g);
                    finbench::core::black_scholes::soa::price_soa_simd::<4>(
                        &mut scratch.soa, market,
                    );
                    greeks_batch_simd::<4>(&scratch.soa, market, &mut scratch.greeks);
                    price_and_greeks_into::<4>(&mut fused, market, &mut fused_g);
                }
                _ => {
                    finbench::core::black_scholes::soa::price_soa_simd::<8>(&mut fresh, market);
                    greeks_batch_simd::<8>(&fresh, market, &mut fresh_g);
                    finbench::core::black_scholes::soa::price_soa_simd::<8>(
                        &mut scratch.soa, market,
                    );
                    greeks_batch_simd::<8>(&scratch.soa, market, &mut scratch.greeks);
                    price_and_greeks_into::<8>(&mut fused, market, &mut fused_g);
                }
            }
            for i in 0..opts.len() {
                prop_assert_eq!(
                    scratch.soa.call[i].to_bits(), fresh.call[i].to_bits(),
                    "pooled call diverges at {} (w={})", i, width
                );
                prop_assert_eq!(
                    scratch.soa.put[i].to_bits(), fresh.put[i].to_bits(),
                    "pooled put diverges at {} (w={})", i, width
                );
                prop_assert_eq!(
                    fused.call[i].to_bits(), fresh.call[i].to_bits(),
                    "fused call diverges at {} (w={})", i, width
                );
                prop_assert_eq!(
                    fused.put[i].to_bits(), fresh.put[i].to_bits(),
                    "fused put diverges at {} (w={})", i, width
                );
                for (name, pooled, fused_v, want) in [
                    ("call delta", scratch.greeks.call.at(i).delta, fused_g.call.at(i).delta, fresh_g.call.at(i).delta),
                    ("call gamma", scratch.greeks.call.at(i).gamma, fused_g.call.at(i).gamma, fresh_g.call.at(i).gamma),
                    ("call vega", scratch.greeks.call.at(i).vega, fused_g.call.at(i).vega, fresh_g.call.at(i).vega),
                    ("call theta", scratch.greeks.call.at(i).theta, fused_g.call.at(i).theta, fresh_g.call.at(i).theta),
                    ("call rho", scratch.greeks.call.at(i).rho, fused_g.call.at(i).rho, fresh_g.call.at(i).rho),
                    ("put delta", scratch.greeks.put.at(i).delta, fused_g.put.at(i).delta, fresh_g.put.at(i).delta),
                    ("put gamma", scratch.greeks.put.at(i).gamma, fused_g.put.at(i).gamma, fresh_g.put.at(i).gamma),
                    ("put vega", scratch.greeks.put.at(i).vega, fused_g.put.at(i).vega, fresh_g.put.at(i).vega),
                    ("put theta", scratch.greeks.put.at(i).theta, fused_g.put.at(i).theta, fresh_g.put.at(i).theta),
                    ("put rho", scratch.greeks.put.at(i).rho, fused_g.put.at(i).rho, fresh_g.put.at(i).rho),
                ] {
                    prop_assert_eq!(
                        pooled.to_bits(), want.to_bits(),
                        "pooled {} diverges at {} (w={})", name, i, width
                    );
                    prop_assert_eq!(
                        fused_v.to_bits(), want.to_bits(),
                        "fused {} diverges at {} (w={})", name, i, width
                    );
                }
            }
        }
    }
}

// Exercise the loadgen-driven path once too: the serve_bench experiment's
// zero-shed guarantee holds whenever capacity covers the offered load.
#[test]
fn closed_loop_with_ample_capacity_sheds_nothing() {
    let server = Server::start(ServeConfig {
        queue_capacity: 256,
        max_delay: Duration::from_micros(200),
        max_batch: 64,
        pricer: pricer_config(),
        ..ServeConfig::default()
    });
    let report = finbench::serve::run_load(
        &server,
        "black_scholes",
        LoadMode::Closed {
            clients: 2,
            requests_per_client: 50,
        },
        3,
        None,
    );
    assert_eq!(report.served, 100);
    assert_eq!(report.total_shed(), 0);
    assert_eq!(server.shutdown().total_shed(), 0);
}
