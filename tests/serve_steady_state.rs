//! The serving plane's long-run memory contract, asserted through a real
//! server with telemetry **enabled**: the span registry stays pinned at
//! its ring capacity however many batches run, and once it is full a lone
//! idle-flushed request costs the lane nothing — the only allocations per
//! round trip are the response's own (its rung `String`, the channel's
//! amortized blocks), none per batch. Driven through the greeks lane: its
//! rungs are single-threaded sweeps, whereas the pricing lane's planned
//! rung may be the pool-threaded one, whose task dispatch allocates
//! inside the kernel.
//!
//! This binary holds exactly one test: the counting allocator and the
//! span registry are both process-wide, so sharing a process with
//! concurrently running tests would make either assertion meaningless.

use finbench::serve::{GreeksRequest, PricerConfig, ServeConfig, Server};
use finbench::telemetry::{self, SPAN_RING_CAPACITY};
use std::sync::mpsc;
use std::time::Duration;

#[test]
fn span_memory_is_bounded_and_steady_state_batches_allocate_nothing_lane_side() {
    assert!(
        telemetry::counting_allocator_active(),
        "counting allocator must be installed in this test binary"
    );
    telemetry::set_filter("all");
    let server = Server::start(ServeConfig {
        queue_capacity: 64,
        // Far beyond the test's patience: every flush below is the idle
        // trigger's, one batch per request.
        max_delay: Duration::from_secs(10),
        pricer: PricerConfig::default(),
        ..ServeConfig::default()
    });
    let (tx, rx) = mpsc::channel();
    let round_trip = |req: GreeksRequest| {
        server.submit_greeks_with(req, &tx);
        let resp = rx.recv_timeout(Duration::from_secs(10)).expect("answered");
        let out = resp.outcome.expect("computed");
        assert_eq!(out.batch_len, 1);
    };
    let request = |i: usize| {
        let k = i as f64;
        GreeksRequest::new(
            i as u64,
            5.0 + (k * 7.3) % 25.0,
            1.0 + (k * 13.7) % 99.0,
            0.25 + (k * 0.61) % 9.5,
        )
    };

    // Bounded memory: more than four rings' worth of batches, one span
    // each, and the registry holds exactly one ring.
    let batches = 4 * SPAN_RING_CAPACITY + 100;
    for i in 0..batches {
        round_trip(request(i));
    }
    assert_eq!(telemetry::snapshot().len(), SPAN_RING_CAPACITY);
    let dropped = telemetry::counter_value("telemetry.spans_dropped") as usize;
    // (The lane's first batch also recorded a few planner spans.)
    assert!(dropped >= batches - SPAN_RING_CAPACITY, "{dropped}");

    // Steady state: requests built up front, then counted round trips.
    const N: usize = 2_000;
    let requests: Vec<GreeksRequest> = (0..N).map(|i| request(batches + i)).collect();
    let before = telemetry::alloc_stats();
    for req in requests {
        round_trip(req);
    }
    let d = telemetry::alloc_stats().since(before);
    // One rung `String` per response plus a channel block every few dozen
    // sends. A single allocation per *batch* — a span name, an attribute
    // key, a metric name looked up instead of held — would double this.
    assert!(
        d.allocs >= N as u64 && d.allocs < (N + N / 8) as u64,
        "{} allocations over {N} lone-request batches",
        d.allocs
    );
    assert_eq!(telemetry::snapshot().len(), SPAN_RING_CAPACITY);

    let snap = server.shutdown();
    let lane = &snap.kernels[0];
    assert_eq!(lane.batches as usize, batches + N);
    assert_eq!(lane.flushes.idle, lane.batches);
}
