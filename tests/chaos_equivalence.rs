//! The chaos contract of the serving plane, as a property: **under any
//! fault plan and any interleaving, a `Priced` response is bit-identical
//! to pricing that option alone on the rung the response says served
//! it.** Faults may shed requests (typed rejections) or degrade lanes
//! down the rung ladder — they must never corrupt a price.
//!
//! A fault plan belongs to the server started with it
//! ([`Server::start_with_faults`]), so these tests run side by side: the
//! last one drives an armed and a fault-free server at the same time and
//! requires that neither notices the other.

use finbench::core::engine::registry;
use finbench::engine::Engine;
use finbench::faults::{self, Corruption, FaultKind, FaultPlan, FaultSpec, Faults};
use finbench::serve::pricer::{self, PricerConfig, ServingRung};
use finbench::serve::{BreakerPolicy, PriceRequest, Rejected, ServeConfig, Server};
use proptest::collection::vec;
use proptest::prelude::*;
use std::time::Duration;

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

/// Every servable rung of `kernel` — the oracle set. Responses name the
/// rung that priced them, which under chaos may be any ladder level, so
/// the check looks up the *reported* slug.
fn oracle_rungs(kernel: &str) -> Vec<ServingRung> {
    pricer::servable_ladder(&registry(), kernel, &pricer_config()).unwrap()
}

/// A random fault plan aimed at the serving plane's hook sites.
fn fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        0.0f64..0.6,    // panic rate at the batch site
        0.0f64..0.4,    // corruption rate at the admit site
        0.0f64..0.3,    // stall rate at the queue site
        0usize..2,      // add batch latency too?
        0..3usize,      // which corruption
        0usize..65_536, // fault seed
    )
        .prop_map(
            |(panic_rate, corrupt_rate, stall_rate, latency, which, seed)| {
                let latency = latency == 1;
                let seed = seed as u16;
                let corruption = [Corruption::NaN, Corruption::Inf, Corruption::Negative][which];
                let mut plan = FaultPlan::new()
                    .with(
                        FaultSpec::at_rate("batch.black_scholes", FaultKind::Panic, panic_rate)
                            .seeded(u64::from(seed)),
                    )
                    .with(
                        FaultSpec::at_rate(
                            "admit.black_scholes",
                            FaultKind::CorruptInput(corruption),
                            corrupt_rate,
                        )
                        .seeded(u64::from(seed) ^ 0xABCD),
                    )
                    .with(
                        FaultSpec::at_rate("queue", FaultKind::StallQueue, stall_rate)
                            .seeded(u64::from(seed) ^ 0x1234),
                    );
                if latency {
                    plan = plan.with(FaultSpec::always(
                        "batch.black_scholes",
                        FaultKind::Latency(Duration::from_micros(50)),
                    ));
                }
                plan
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn no_fault_plan_ever_corrupts_a_priced_response(
        opts in vec(contract(), 1..50usize),
        plan in fault_plan(),
        max_batch in 1usize..24,
        max_delay_us in 20u64..300,
    ) {
        faults::silence_injected_panics();
        let oracles = oracle_rungs("black_scholes");
        let config = ServeConfig {
            queue_capacity: opts.len().max(1),
            max_delay: Duration::from_micros(max_delay_us),
            max_batch,
            shards: 1,
            pricer: pricer_config(),
            breaker: BreakerPolicy {
                cooldown: Duration::from_millis(1),
                promote_after: 4,
                ..BreakerPolicy::default()
            },
            // Pin terminal-loss semantics: a killed shard stays dead and
            // the router sheds (typed). Respawn interleavings get their own
            // property coverage in `tests/supervision.rs`.
            respawn: false,
        };
        let server = Server::start_with_faults(config, Faults::new(plan));
        let (tx, rx) = std::sync::mpsc::channel();
        for (i, &(s, x, t)) in opts.iter().enumerate() {
            server.submit_with(PriceRequest::new(i as u64, "black_scholes", s, x, t), &tx);
        }
        drop(tx);
        let mut responses: Vec<_> = rx.iter().collect();
        server.shutdown();
        // Exactly one response per request, no silent drops even under
        // panics, stalls, and corruption.
        prop_assert_eq!(responses.len(), opts.len());
        responses.sort_by_key(|r| r.id);
        for resp in responses {
            let (s, x, t) = opts[resp.id as usize];
            match resp.outcome {
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
                // Shedding and typed failure are allowed outcomes under
                // chaos; corruption of a Priced response is not.
                Err(Rejected::Internal { .. })
                | Err(Rejected::InvalidInput { .. })
                | Err(Rejected::QueueFull { .. }) => {}
                Err(other) => prop_assert!(false, "unexpected rejection {other:?}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A server started without a plan is exactly the no-chaos plane,
    /// whatever its neighbours in the process are armed with:
    /// everything is served, nothing degrades, and the bits match the
    /// planned rung's solo oracle.
    #[test]
    fn disarmed_faults_change_nothing(
        opts in vec(contract(), 1..30usize),
    ) {
        let engine = Engine::new(registry());
        let oracle = pricer::resolve(&engine, "black_scholes", &pricer_config()).unwrap();
        let server = Server::start(ServeConfig {
            queue_capacity: opts.len().max(1),
            max_delay: Duration::from_micros(100),
            max_batch: 16,
            pricer: pricer_config(),
            ..ServeConfig::default()
        });
        let (tx, rx) = std::sync::mpsc::channel();
        for (i, &(s, x, t)) in opts.iter().enumerate() {
            server.submit_with(PriceRequest::new(i as u64, "black_scholes", s, x, t), &tx);
        }
        drop(tx);
        let responses: Vec<_> = rx.iter().collect();
        let snap = server.shutdown();
        prop_assert_eq!(responses.len(), opts.len());
        prop_assert_eq!(snap.internal, 0);
        prop_assert_eq!(snap.invalid_input, 0);
        prop_assert_eq!(snap.total_degraded(), 0);
        for resp in responses {
            let (s, x, t) = opts[resp.id as usize];
            let p = resp.outcome.expect("nothing rejected without faults");
            prop_assert_eq!(&*p.rung, &*oracle.slug);
            let (call, put) = oracle.price_one(s, x, t);
            prop_assert_eq!(p.call.to_bits(), call.to_bits());
            prop_assert_eq!(p.put.to_bits(), put.to_bits());
        }
    }
}

/// Two servers in one process, driven at once: every batch of the armed
/// one panics, the other has no plan. The clean one serves everything,
/// the armed one answers everything `Internal`, and only the armed
/// handle's tally moves.
#[test]
fn a_fault_plan_fires_only_in_the_server_started_with_it() {
    faults::silence_injected_panics();
    let plan = FaultPlan::new().with(FaultSpec::always("batch.black_scholes", FaultKind::Panic));
    let (armed, clean) = (Faults::new(plan), Faults::none());
    let config = ServeConfig {
        queue_capacity: 256,
        max_delay: Duration::from_micros(100),
        pricer: pricer_config(),
        // This test is about whose plan fires, not about the breaker: a
        // lane whose every batch panics must keep reaching the kernel.
        // With the default policy it opens after `ladder length + 2`
        // failed batches, which 200 requests reach or not by timing.
        breaker: BreakerPolicy {
            open_after: u32::MAX,
            ..BreakerPolicy::default()
        },
        ..ServeConfig::default()
    };
    let n = 200u64;
    let drive = |faults: &Faults| {
        let server = Server::start_with_faults(config, faults.clone());
        let (tx, rx) = std::sync::mpsc::channel();
        for i in 0..n {
            server.submit_with(PriceRequest::new(i, "black_scholes", 30.0, 35.0, 1.0), &tx);
        }
        drop(tx);
        let responses: Vec<_> = rx.iter().collect();
        (responses, server.shutdown())
    };
    let ((hit, hit_snap), (ok, ok_snap)) = std::thread::scope(|s| {
        let armed = s.spawn(|| drive(&armed));
        let clean = s.spawn(|| drive(&clean));
        (armed.join().unwrap(), clean.join().unwrap())
    });
    assert_eq!((ok.len() as u64, ok_snap.internal), (n, 0));
    assert!(ok.iter().all(|r| r.outcome.is_ok()), "{ok:?}");
    assert_eq!((hit.len() as u64, hit_snap.internal), (n, n));
    for r in &hit {
        assert!(
            matches!(&r.outcome, Err(Rejected::Internal { reason }) if reason.contains("injected panic")),
            "{r:?}"
        );
    }
    assert!(armed.fired_total() > 0);
    assert_eq!(clean.fired_total(), 0);
}
