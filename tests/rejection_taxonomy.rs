//! One end-to-end test per [`Rejected`] variant: each drives the real
//! threaded server into that rejection and asserts the *matching* tally
//! of the server's ledger increments exactly once per rejected request —
//! the taxonomy and the metrics must never drift apart.
//!
//! A server's tallies are its own (`ServeSnapshot::planes`: one
//! [`PlaneSnapshot`] per request plane, read from handles the server
//! owns), so these tests run as parallel threads of one process with no
//! lock between them. The process-wide counters of the same names, which
//! every server in the process adds to, are checked once, by the
//! two-server test at the end.

use finbench::faults::{self, FaultKind, FaultPlan, FaultSpec, Faults};
use finbench::serve::{
    BreakerPolicy, GreeksRequest, PlaneSnapshot, PortfolioRequest, PriceRequest, PricerConfig,
    Rejected, Response, ServeConfig, ServeRequest, ServeWorkload, Server, PLANES,
};
use finbench::telemetry::counter_value;
use std::time::{Duration, Instant};

fn quick_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 64,
        max_delay: Duration::from_micros(200),
        max_batch: 64,
        pricer: PricerConfig {
            binomial_steps: 16,
            ..PricerConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// Every black_scholes batch panics.
fn always_panic() -> Faults {
    Faults::new(FaultPlan::new().with(FaultSpec::always("batch.black_scholes", FaultKind::Panic)))
}

fn recv(server: &Server, req: PriceRequest) -> Result<finbench::serve::Priced, Rejected> {
    server
        .submit(req)
        .recv_timeout(Duration::from_secs(10))
        .expect("one response per request")
        .outcome
}

#[test]
fn queue_full_increments_the_queue_full_counter_once() {
    let server = Server::start(ServeConfig {
        queue_capacity: 1,
        max_delay: Duration::from_millis(50),
        ..quick_config()
    });
    let (tx, rx) = std::sync::mpsc::channel();
    for i in 0..100 {
        server.submit_with(PriceRequest::new(i, "black_scholes", 30.0, 35.0, 1.0), &tx);
    }
    drop(tx);
    let full = rx
        .iter()
        .filter(|r| matches!(r.outcome, Err(Rejected::QueueFull { .. })))
        .count();
    let snap = server.shutdown();
    assert!(full > 0, "flooding a capacity-1 queue must overflow");
    assert_eq!(snap.shed_queue_full as usize, full);
    assert_eq!(
        snap.planes[0].shed_queue_full, full as u64,
        "exactly one price-plane increment per QueueFull rejection"
    );
}

#[test]
fn deadline_exceeded_increments_the_deadline_counter_once() {
    let server = Server::start(quick_config());
    let mut req = PriceRequest::new(1, "black_scholes", 30.0, 35.0, 1.0);
    req.deadline = Some(Instant::now() - Duration::from_millis(1));
    assert!(matches!(
        recv(&server, req),
        Err(Rejected::DeadlineExceeded { .. })
    ));
    let snap = server.shutdown();
    assert_eq!(snap.shed_deadline, 1);
    assert_eq!(snap.planes[0].shed_deadline, 1);
}

#[test]
fn unknown_kernel_increments_the_rejected_counter_once() {
    let server = Server::start(quick_config());
    assert!(matches!(
        recv(
            &server,
            PriceRequest::new(1, "no_such_kernel", 30.0, 35.0, 1.0)
        ),
        Err(Rejected::UnknownKernel { .. })
    ));
    let snap = server.shutdown();
    assert_eq!(snap.rejected, 1);
    assert_eq!(snap.planes[0].rejected, 1);
}

#[test]
fn an_owned_kernel_name_is_served_or_rejected_like_a_borrowed_one() {
    let server = Server::start(quick_config());
    let owned = |name: &str| PriceRequest::new(1, name.to_owned(), 30.0, 35.0, 1.0);
    let borrowed = recv(
        &server,
        PriceRequest::new(1, "black_scholes", 30.0, 35.0, 1.0),
    );
    let served = recv(&server, owned("black_scholes"));
    assert_eq!(
        served.as_ref().map(|p| (p.call, p.put)),
        borrowed.as_ref().map(|p| (p.call, p.put)),
        "an owned name prices on the same lane as the literal"
    );
    assert!(matches!(
        recv(&server, owned("no_such_kernel")),
        Err(Rejected::UnknownKernel { .. })
    ));
    let snap = server.shutdown();
    assert_eq!((snap.planes[0].served, snap.planes[0].rejected), (2, 1));
}

#[test]
fn unservable_kernel_increments_the_rejected_counter_once() {
    let server = Server::start(quick_config());
    // `rng` is registered but has no batch-safe serving rung.
    assert!(matches!(
        recv(&server, PriceRequest::new(1, "rng", 30.0, 35.0, 1.0)),
        Err(Rejected::Unservable { .. })
    ));
    let snap = server.shutdown();
    assert_eq!(snap.rejected, 1);
    assert_eq!(snap.planes[0].rejected, 1);
}

#[test]
fn shutting_down_is_typed_and_not_counted_as_shedding() {
    let server = Server::start(quick_config());
    let snap_before = server.snapshot();
    // Drop closes the queue; races with submit are answered ShuttingDown.
    // Exercise the variant through the closed-queue path directly: close
    // happens inside shutdown, so submit afterwards is not possible on
    // the same handle — instead verify the rendered taxonomy is stable.
    assert_eq!(
        Rejected::ShuttingDown.to_string(),
        "server is shutting down"
    );
    let snap = server.shutdown();
    assert_eq!(snap.shed_queue_full, snap_before.shed_queue_full);
}

#[test]
fn invalid_input_increments_the_invalid_input_counter_once() {
    let server = Server::start(quick_config());
    assert!(matches!(
        recv(
            &server,
            PriceRequest::new(1, "black_scholes", f64::NAN, 35.0, 1.0)
        ),
        Err(Rejected::InvalidInput { .. })
    ));
    let snap = server.shutdown();
    assert_eq!(snap.invalid_input, 1);
    assert_eq!(snap.planes[0].invalid_input, 1);
}

#[test]
fn internal_increments_the_internal_counter_once_per_request() {
    faults::silence_injected_panics();
    let server = Server::start_with_faults(quick_config(), always_panic());
    match recv(
        &server,
        PriceRequest::new(1, "black_scholes", 30.0, 35.0, 1.0),
    ) {
        Err(Rejected::Internal { reason }) => {
            assert!(reason.contains("panic"), "{reason}");
        }
        other => panic!("expected Internal, got {other:?}"),
    }
    let snap = server.shutdown();
    assert_eq!(snap.internal, 1);
    assert_eq!(snap.planes[0].internal, 1);
}

#[test]
fn internal_from_an_open_breaker_counts_each_rejected_request() {
    faults::silence_injected_panics();
    // open_after 1 with a long cooldown: once the lane hits the ladder
    // bottom the breaker opens and stays open for the rest of the test.
    let config = ServeConfig {
        breaker: BreakerPolicy {
            open_after: 1,
            cooldown: Duration::from_secs(60),
            ..BreakerPolicy::default()
        },
        ..quick_config()
    };
    let server = Server::start_with_faults(config, always_panic());
    // Walk the ladder to the bottom; every response is Internal.
    for i in 0..8u64 {
        let out = recv(
            &server,
            PriceRequest::new(i, "black_scholes", 30.0, 35.0, 1.0),
        );
        assert!(matches!(out, Err(Rejected::Internal { .. })), "{out:?}");
    }
    let snap = server.shutdown();
    assert_eq!(snap.internal, 8);
    let k = &snap.kernels[0];
    assert_eq!(k.breaker, "open");
    assert!(k.breaker_open >= 1);
    assert_eq!(
        snap.planes[0].breaker_open, k.breaker_open,
        "the plane's breaker_open tally matches the lane's"
    );
}

#[test]
fn served_requests_increment_only_the_served_counter() {
    let server = Server::start(quick_config());
    assert!(recv(
        &server,
        PriceRequest::new(1, "black_scholes", 30.0, 35.0, 1.0)
    )
    .is_ok());
    let snap = server.shutdown();
    let price = &snap.planes[0];
    assert_eq!(price.served, 1);
    assert_eq!((price.internal, price.invalid_input), (0, 0));
}

/// Run `f` against `server`; of its three planes' `pick` tallies only
/// `R`'s plane's may have moved, by exactly `by`.
fn moves_only<R: ServeRequest, T>(
    server: &Server,
    pick: fn(&PlaneSnapshot) -> u64,
    by: u64,
    f: impl FnOnce() -> T,
) -> T {
    let read = || server.snapshot().planes.map(|p| pick(&p));
    let before = read();
    let out = f();
    for (i, (now, was)) in read().into_iter().zip(before).enumerate() {
        let want = if i == R::Plane::PLANE { by } else { 0 };
        assert_eq!(
            now - was,
            want,
            "{} while driving {}",
            PLANES[i],
            PLANES[R::Plane::PLANE]
        );
    }
    out
}

/// Submit `req` and collect until every sender is gone: exactly one
/// terminal response, whatever it is.
fn one_answer<R: ServeRequest>(server: &Server, req: R) -> Result<R::Out, Rejected> {
    let (tx, rx) = std::sync::mpsc::channel();
    server.submit_with(req, &tx);
    drop(tx);
    let mut got: Vec<Response<R::Out>> = rx.iter().collect();
    assert_eq!(got.len(), 1, "exactly one terminal response");
    got.remove(0).outcome
}

/// The four counted rejections the generic `submit_with` and `Work`
/// paths can answer, on one plane: each moves that plane's tally by one
/// and neither other plane's. (`ShuttingDown`, which counts nothing,
/// needs the server's private fields and is checked in `server.rs`.)
/// `valid` must queue as a single work item; `spoil` makes it invalid and
/// `expire` gives it a deadline.
fn counts_on_its_own_plane<R: ServeRequest + Clone>(
    valid: R,
    spoil: fn(&mut R),
    expire: fn(&mut R, Instant),
) where
    R::Out: std::fmt::Debug,
{
    let stall = FaultSpec::always("queue", FaultKind::StallQueue);
    // Workers sleep out a stall this long before they first look at their
    // queue, and stay dead once killed.
    let stalled = |shards: usize| ServeConfig {
        shards,
        max_delay: Duration::from_millis(200),
        respawn: false,
        ..quick_config()
    };
    let (mut invalid, mut expired) = (valid.clone(), valid.clone());
    spoil(&mut invalid);
    expire(&mut expired, Instant::now() - Duration::from_millis(1));

    let server = Server::start(quick_config());
    let out = moves_only::<R, _>(
        &server,
        |p| p.invalid_input,
        1,
        || one_answer(&server, invalid),
    );
    assert!(matches!(out, Err(Rejected::InvalidInput { .. })), "{out:?}");
    let out = moves_only::<R, _>(
        &server,
        |p| p.shed_deadline,
        1,
        || one_answer(&server, expired),
    );
    assert!(
        matches!(out, Err(Rejected::DeadlineExceeded { .. })),
        "{out:?}"
    );
    server.shutdown();

    // QueueFull: the worker sleeps out its first stall, so the first
    // request sits in the one-slot queue and the second finds it full.
    let config = ServeConfig {
        queue_capacity: 1,
        ..stalled(1)
    };
    let once = Faults::new(FaultPlan::new().with(stall.clone().limited(1)));
    let server = Server::start_with_faults(config, once);
    let occupant = server.submit(valid.clone());
    let out = moves_only::<R, _>(
        &server,
        |p| p.shed_queue_full,
        1,
        || one_answer(&server, valid.clone()),
    );
    assert!(
        matches!(out, Err(Rejected::QueueFull { capacity: 1 })),
        "{out:?}"
    );
    assert!(occupant.recv().unwrap().is_ok());
    server.shutdown();

    // Internal: both workers die at the end of their first stall with the
    // request stranded; whichever path answers, it counts on this plane.
    let kill = FaultSpec::always("serve.shard", FaultKind::Kill);
    let plan = FaultPlan::new().with(stall).with(kill);
    let server = Server::start_with_faults(stalled(2), Faults::new(plan));
    match moves_only::<R, _>(&server, |p| p.internal, 1, || one_answer(&server, valid)) {
        Err(Rejected::Internal { reason }) => {
            assert!(reason.starts_with("shard killed"), "{reason}")
        }
        other => panic!("expected Internal, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn every_plane_counts_each_rejection_on_its_own_counters_only() {
    counts_on_its_own_plane(
        PriceRequest::new(1, "black_scholes", 30.0, 35.0, 1.0),
        |r| r.s = f64::NAN,
        |r, at| r.deadline = Some(at),
    );
    counts_on_its_own_plane(
        GreeksRequest::new(2, 30.0, 35.0, 1.0),
        |r| r.t = -1.0,
        |r, at| r.deadline = Some(at),
    );
    // One chunk, so the fan-out is one work item like the others.
    counts_on_its_own_plane(
        PortfolioRequest::new(3, 7, 8, 16).with_chunk(16),
        |r| r.positions = 0,
        |r, at| r.deadline = Some(at),
    );
}

/// Two servers, driven at the same time from two threads into different
/// rejections: each ledger shows only its own server's events, and the
/// process-wide counter of each name — which other tests of this binary
/// may be adding to as well — moved by at least the two servers' sum.
#[test]
fn two_servers_in_one_process_read_disjoint_ledgers() {
    const NAMES: [&str; 2] = ["serve.shed.queue_full", "greeks.invalid_input"];
    let before = NAMES.map(counter_value);
    // Server A's one worker sleeps out a stall while its one-slot queue
    // takes the first request and refuses the second.
    let stall = FaultSpec::always("queue", FaultKind::StallQueue).limited(1);
    let a = Server::start_with_faults(
        ServeConfig {
            queue_capacity: 1,
            max_delay: Duration::from_millis(200),
            ..quick_config()
        },
        Faults::new(FaultPlan::new().with(stall)),
    );
    let b = Server::start(quick_config());
    let go = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            go.wait();
            let occupant = a.submit(PriceRequest::new(1, "black_scholes", 30.0, 35.0, 1.0));
            let out = one_answer(&a, PriceRequest::new(2, "black_scholes", 30.0, 35.0, 1.0));
            assert!(matches!(out, Err(Rejected::QueueFull { .. })), "{out:?}");
            assert!(occupant.recv().unwrap().is_ok());
        });
        s.spawn(|| {
            go.wait();
            let out = one_answer(&b, GreeksRequest::new(3, 30.0, 35.0, -1.0));
            assert!(matches!(out, Err(Rejected::InvalidInput { .. })), "{out:?}");
        });
    });
    let (a, b) = (a.shutdown(), b.shutdown());
    assert_eq!((a.shed_queue_full, a.invalid_input), (1, 0), "{a:?}");
    assert_eq!((b.shed_queue_full, b.invalid_input), (0, 1), "{b:?}");
    assert_eq!(a.planes[0].shed_queue_full, 1);
    assert_eq!(b.planes[1].invalid_input, 1);
    assert_eq!(b.planes.each_ref().map(|p| p.served), [0, 0, 0]);
    let moved = [0, 1].map(|i| counter_value(NAMES[i]) - before[i]);
    assert!(
        moved.iter().all(|&by| by >= 1),
        "{NAMES:?} moved by {moved:?}"
    );
}
