//! The zero-allocation steady-state contract, asserted directly: once a
//! serve lane's [`OptionScratch`] buffers have grown to the largest flush they
//! will see, executing further batches — staging, padding, pricing,
//! greeks, the fused price+greeks pass — performs **zero** heap
//! allocations; and so does a portfolio chunk (scenario grid + full-book
//! revaluation) through a recycled grid and [`RevalScratch`]; and so do
//! the serving ledger's metric handles with telemetry **on** — a counted
//! event is atomics, never a name lookup; and so does a price request
//! named by a literal or a registry name, built by hand or by the load
//! generator's kernel-name source.
//!
//! This binary holds exactly one test: the counting allocator (installed
//! below) tallies process-wide, so sharing a process with concurrently
//! running tests (cargo's default parallel test threads) would make the
//! "no allocations happened" assertion meaningless. It is the whole allocation gate for the served paths:
//! the price lane's top rung, the greeks lane's top rung and the fused
//! pass are each run here, through the scratch a lane reuses.

use finbench::core::black_scholes::soa::par_price_soa;
use finbench::core::engine::registry;
use finbench::core::greeks::price_and_greeks_into;
use finbench::core::portfolio::{revalue_into, Book, RevalScratch, ScenarioConfig, ScenarioGrid};
use finbench::core::MarketParams;
use finbench::engine::Engine;
use finbench::parallel::available_parallelism;
use finbench::serve::pricer::{self, PricerConfig};
use finbench::serve::{greeks_ladder, OptionScratch, OptionStream, PriceRequest, RequestSource};
use finbench::telemetry::{self, Counter, Gauge};

#[global_allocator]
static ALLOC: telemetry::CountingAlloc = telemetry::CountingAlloc;

const M: MarketParams = MarketParams::PAPER;

/// A deterministic option stream without allocating.
fn opt(i: usize) -> (f64, f64, f64) {
    let k = i as f64;
    (
        5.0 + (k * 7.3) % 25.0,
        1.0 + (k * 13.7) % 99.0,
        0.25 + (k * 0.61) % 9.5,
    )
}

#[test]
fn steady_state_serve_batches_allocate_nothing() {
    assert!(
        telemetry::counting_allocator_active(),
        "counting allocator must be installed in this test binary"
    );
    let mut scratch = OptionScratch::new();
    // What a Black-Scholes lane on *this* host serves with: the planner's
    // pick walked down to the top servable rung.
    let served = pricer::resolve(
        &Engine::new(registry()),
        "black_scholes",
        &PricerConfig::default(),
    )
    .expect("black_scholes is servable");
    // And what a greeks lane serves with: the top of its ladder.
    let greeks = &greeks_ladder(M)[0];

    // Warmup: the largest flush this "lane" will see grows every buffer
    // to capacity; smaller and ragged flushes afterwards must reuse it.
    let sizes = [128usize, 37, 93, 128, 1, 64];
    let run = |scratch: &mut OptionScratch, n: usize, round: usize| {
        scratch.opts.clear();
        for i in 0..n {
            scratch.opts.push(opt(round * 131 + i));
        }
        scratch.stage(8);
        scratch.greeks.resize(scratch.soa.len());
        // The three steady-state serve paths: price sweep, the greeks
        // lane's rung, and the fused single pass.
        finbench::core::black_scholes::soa::price_soa_simd::<8>(&mut scratch.soa, M);
        greeks.compute(&scratch.soa, &mut scratch.greeks);
        price_and_greeks_into::<8>(&mut scratch.soa, M, &mut scratch.greeks);
        std::hint::black_box(&scratch.greeks);
        // The served rung itself, and the pool under a batch that fits
        // one chunk: the calling thread runs it, nothing is spawned.
        scratch.stage(served.width);
        served.price(&mut scratch.soa);
        par_price_soa::<8>(&mut scratch.soa, M, 4096);
        std::hint::black_box(&scratch.soa);
    };
    for (round, &n) in sizes.iter().enumerate() {
        run(&mut scratch, n, round);
    }

    // Steady state: the same flush mix again, under the counter.
    let before = telemetry::alloc_stats();
    for (round, &n) in sizes.iter().enumerate() {
        run(&mut scratch, n, round + sizes.len());
    }
    // The CPU count is asked of the OS once (the warm-up did), not per step.
    for _ in 0..100 {
        std::hint::black_box(available_parallelism());
    }
    let d = telemetry::alloc_stats().since(before);
    assert_eq!(
        d.allocs, 0,
        "steady-state serve batches must not allocate (saw {} allocs / {} bytes)",
        d.allocs, d.bytes
    );
    assert_eq!(d.bytes, 0);

    // A portfolio lane's steady state: the scenario chunk's grid and the
    // revaluation — staged book, invariants, base and call values — through
    // buffers that have seen their largest book and chunk once.
    let books = [256, 29, 256].map(|n| Book::random(n, n as u64));
    let cfg = ScenarioConfig::standard(64, 5);
    let (mut grid, mut reval, mut pnl) = (ScenarioGrid::default(), RevalScratch::new(), Vec::new());
    let mut revalue = |lo: usize| {
        for book in &books {
            cfg.fill_grid(lo, lo + 32, &mut grid);
            revalue_into::<8>(book, M, &grid, &mut reval, &mut pnl);
            std::hint::black_box(&pnl);
        }
    };
    revalue(0);
    let before = telemetry::alloc_stats();
    revalue(32);
    let d = telemetry::alloc_stats().since(before);
    assert_eq!(
        (d.allocs, d.bytes),
        (0, 0),
        "steady-state portfolio revaluation must not allocate"
    );

    // The ledger's handles: the first recorded event finds the name's
    // process-wide cell, every later one is relaxed atomics only.
    let (events, depth) = (
        Counter::named("zero_alloc.events"),
        Gauge::named("zero_alloc.depth"),
    );
    events.add(1);
    depth.set(0.0);
    let before = telemetry::alloc_stats();
    for i in 0..10_000u64 {
        events.add(i & 3);
        depth.set(i as f64);
    }
    let d = telemetry::alloc_stats().since(before);
    assert_eq!(
        (d.allocs, d.bytes),
        (0, 0),
        "metric handles must not allocate"
    );
    assert_eq!(events.get(), telemetry::counter_value("zero_alloc.events"));

    // A price request borrows its kernel name: building, cloning and
    // dropping one never touches the allocator, whether a caller writes the
    // literal or the load generator resolves the name against the registry.
    let mut stream = OptionStream::new(7);
    std::hint::black_box("black_scholes".request(0, None, &mut stream));
    let before = telemetry::alloc_stats();
    for i in 0..10_000u64 {
        let (s, x, t) = opt(i as usize);
        let req = PriceRequest::new(i, "black_scholes", s, x, t);
        std::hint::black_box(req.clone());
        std::hint::black_box(req);
        std::hint::black_box("black_scholes".request(i, None, &mut stream));
    }
    let d = telemetry::alloc_stats().since(before);
    assert_eq!(
        (d.allocs, d.bytes),
        (0, 0),
        "a price request named by a literal or registry name must not allocate"
    );
}
