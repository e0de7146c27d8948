//! The self-healing contract of the serving plane: **under any rolling
//! kill schedule, every admitted request gets exactly one terminal
//! response, every killed seat is respawned, and every `Priced`
//! response stays bit-identical to pricing that option alone on the
//! rung that served it.** Kills may shed (typed rejections) and redrive
//! stranded work to siblings — they must never drop a request silently,
//! answer it twice, or corrupt a price.
//!
//! Each server owns its kill plan ([`Server::start_with_faults`]), so
//! the tests here run side by side.

use finbench::core::engine::registry;
use finbench::faults::{self, FaultKind, FaultPlan, FaultSpec, Faults};
use finbench::serve::pricer::{self, PricerConfig, ServingRung};
use finbench::serve::{mix_seed, BreakerPolicy, PriceRequest, Rejected, ServeConfig, Server};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::mpsc;
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

fn oracle_rungs(kernel: &str) -> Vec<ServingRung> {
    pricer::servable_ladder(&registry(), kernel, &pricer_config()).unwrap()
}

fn healing_config(shards: usize, capacity: usize) -> ServeConfig {
    ServeConfig {
        queue_capacity: capacity,
        max_delay: Duration::from_micros(200),
        max_batch: 64,
        shards,
        pricer: pricer_config(),
        breaker: BreakerPolicy {
            cooldown: Duration::from_millis(1),
            promote_after: 4,
            ..BreakerPolicy::default()
        },
        respawn: true,
    }
}

/// Rolling kill: every seat dies exactly once, each one's worker
/// respawns, and the respawned fleet serves a full drive bit-exactly.
#[test]
fn every_killed_seat_respawns_and_the_healed_fleet_serves_bit_exactly() {
    faults::silence_injected_panics();
    let shards = 3usize;
    let mut plan = FaultPlan::new();
    for i in 0..shards {
        plan = plan.with(FaultSpec::always(format!("serve.shard.{i}"), FaultKind::Kill).limited(1));
    }
    let server = Server::start_with_faults(healing_config(shards, 4096), Faults::new(plan));

    // Each shard's first loop iteration hits its armed kill; wait for
    // every seat's worker to come back.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = server.snapshot();
        if snap.alive_shards() == shards && snap.total_respawns() >= shards as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "seats failed to respawn within 10s: {} alive, {} respawns",
            snap.alive_shards(),
            snap.total_respawns()
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let oracles = oracle_rungs("black_scholes");
    let opts: Vec<(f64, f64, f64)> = (0..200)
        .map(|i| (5.0 + (i as f64) * 0.1, 10.0 + (i as f64) * 0.4, 1.5))
        .collect();
    let (tx, rx) = std::sync::mpsc::channel();
    for (i, &(s, x, t)) in opts.iter().enumerate() {
        server.submit_with(PriceRequest::new(i as u64, "black_scholes", s, x, t), &tx);
    }
    drop(tx);
    let mut responses: Vec<_> = rx.iter().collect();
    let snap = server.shutdown();

    assert_eq!(
        responses.len(),
        opts.len(),
        "every request answers exactly once"
    );
    responses.sort_by_key(|r| r.id);
    for (i, resp) in responses.iter().enumerate() {
        assert_eq!(resp.id, i as u64, "response ids are unique and complete");
        let (s, x, t) = opts[i];
        let p = resp
            .outcome
            .as_ref()
            .expect("healed fleet sheds nothing (kill budgets exhausted)");
        let rung = oracles
            .iter()
            .find(|r| *r.slug == p.rung)
            .expect("response names a servable rung");
        let (call, put) = rung.price_one(s, x, t);
        assert_eq!(
            p.call.to_bits(),
            call.to_bits(),
            "call bit-exact after respawn"
        );
        assert_eq!(
            p.put.to_bits(),
            put.to_bits(),
            "put bit-exact after respawn"
        );
    }
    assert_eq!(snap.total_respawns(), shards as u64, "one respawn per seat");
    assert_eq!(snap.alive_shards(), shards, "every seat healed");
    let mttr = snap
        .mean_mttr()
        .expect("MTTR reported once anything respawned");
    assert!(mttr > Duration::ZERO);
    assert_eq!(snap.internal, 0, "nothing rejected after recovery");
}

/// A one-shard server whose seat is killed on every incarnation: with
/// respawn on, it crash-loops for as long as it runs.
fn crash_looping() -> Server {
    let plan = FaultPlan::new().with(FaultSpec::always("serve.shard.0", FaultKind::Kill));
    Server::start_with_faults(healing_config(1, 16), Faults::new(plan))
}

/// Shut `server` down on a thread of its own and return how long that
/// took — failing after 10 s instead of hanging the test binary.
fn shutdown_time(server: Server) -> Duration {
    let (tx, rx) = mpsc::channel();
    let stopper = std::thread::spawn(move || {
        let t0 = Instant::now();
        server.shutdown();
        let _ = tx.send(t0.elapsed());
    });
    let took = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown returns: no worker is left serving a reopened queue");
    stopper.join().expect("shutdown does not panic");
    took
}

/// The backoff paces a crash loop: its waits double from 1 ms to the
/// 250 ms cap (1 + 2 + … + 128 = 255 ms), so 300 ms hold about eight
/// respawns, never a hot loop. Shutdown then finds the seat inside its
/// 250 ms wait and cuts it short instead of waiting it out.
#[test]
fn a_crash_looping_seat_backs_off_and_shutdown_cuts_its_cooldown_short() {
    let server = crash_looping();
    std::thread::sleep(Duration::from_millis(300));
    let snap = server.snapshot();
    let respawns = snap.shards[0].respawns;
    assert!((3..=12).contains(&respawns), "{respawns} respawns");
    assert!(!snap.shards[0].alive, "mid-cooldown, the seat is dead");
    let took = shutdown_time(server);
    assert!(took < Duration::from_millis(100), "shutdown took {took:?}");
}

/// Shutdown returns from any point of a crash loop — mid-kill,
/// mid-cooldown, just after a reopen. 50 start → crash-loop → shutdown
/// cycles, each shutting down after a seeded 0–5 ms delay.
#[test]
fn shutdown_returns_from_any_point_of_a_crash_loop() {
    for cycle in 0..50 {
        let server = crash_looping();
        std::thread::sleep(Duration::from_micros(mix_seed(0x5EED, cycle) % 5_001));
        shutdown_time(server);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The acceptance property: across random kill/respawn/redrive
    /// interleavings — any shard count, kill rates, and kill budgets —
    /// every admitted request gets **exactly one** terminal response
    /// (redrive is at-most-once, never a duplicate, never a silent
    /// drop), and every `Priced` response bit-matches its rung's solo
    /// oracle.
    #[test]
    fn exactly_one_terminal_response_under_random_kill_interleavings(
        opts in vec(contract(), 1..60usize),
        shards in 1usize..5,
        kill_rates in vec(0.0f64..0.08, 4),
        budgets in vec(1u64..4, 4),
        respawn_bit in 0u64..2,
        seed in 0usize..65_536,
    ) {
        let respawn = respawn_bit == 1;
        faults::silence_injected_panics();
        let oracles = oracle_rungs("black_scholes");
        let mut plan = FaultPlan::new();
        for i in 0..shards {
            plan = plan.with(
                FaultSpec::at_rate(format!("serve.shard.{i}"), FaultKind::Kill, kill_rates[i])
                    .limited(budgets[i])
                    .seeded(seed as u64 ^ (i as u64) << 8),
            );
        }
        let mut config = healing_config(shards, opts.len().max(16));
        config.respawn = respawn;
        let server = Server::start_with_faults(config, Faults::new(plan));
        let (tx, rx) = std::sync::mpsc::channel();
        for (i, &(s, x, t)) in opts.iter().enumerate() {
            server.submit_with(PriceRequest::new(i as u64, "black_scholes", s, x, t), &tx);
        }
        drop(tx);
        let mut responses: Vec<_> = rx.iter().collect();
        let snap = server.shutdown();

        // Exactly one terminal response per admitted request: no silent
        // drops and no duplicate delivery, whatever got killed, respawned,
        // stolen, or redriven in between.
        prop_assert_eq!(responses.len(), opts.len());
        responses.sort_by_key(|r| r.id);
        for (i, resp) in responses.iter().enumerate() {
            prop_assert_eq!(resp.id, i as u64, "ids unique and complete");
            let (s, x, t) = opts[i];
            match &resp.outcome {
                Ok(p) => {
                    let rung = oracles.iter().find(|r| *r.slug == p.rung);
                    prop_assert!(rung.is_some(), "unknown serving rung {}", &p.rung);
                    let (call, put) = rung.unwrap().price_one(s, x, t);
                    prop_assert_eq!(
                        p.call.to_bits(), call.to_bits(),
                        "call diverges from solo pricing on rung {}", &p.rung
                    );
                    prop_assert_eq!(
                        p.put.to_bits(), put.to_bits(),
                        "put diverges from solo pricing on rung {}", &p.rung
                    );
                }
                // Kill chaos may shed work (typed): a queue closed by a
                // kill, a redrive with no live sibling, or an exhausted
                // redrive budget all answer `Internal`.
                Err(Rejected::Internal { .. }) | Err(Rejected::QueueFull { .. }) => {}
                Err(other) => prop_assert!(false, "unexpected rejection {other:?}"),
            }
        }
        // Redrive is bounded by the kill budgets: at most one redrive per
        // stranded item, and respawn-off runs never resurrect a seat.
        if !respawn {
            prop_assert_eq!(snap.total_respawns(), 0);
        }
    }
}
