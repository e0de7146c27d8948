//! Counter atomicity under the pool, and imbalance reporting. Lives in
//! its own integration-test binary because it pins the process-global
//! telemetry filter.

use finbench_parallel::{parallel_for_chunks, parallel_map_reduce};
use finbench_telemetry as telemetry;

#[test]
fn counters_are_exact_under_eight_workers() {
    telemetry::set_filter("all");

    // 10_000 elements in chunks of 7 across 8 workers; every element adds
    // 1 to a shared counter. Any lost update breaks the exact total.
    const N: usize = 10_000;
    let mut data = vec![0u8; N];
    parallel_for_chunks(&mut data, 7, 8, |_, chunk| {
        telemetry::counter_add("par_test.items", chunk.len() as u64);
        for x in chunk.iter_mut() {
            *x = 1;
        }
    });
    assert_eq!(telemetry::counter_value("par_test.items"), N as u64);
    assert!(data.iter().all(|&x| x == 1));

    // Pool bookkeeping recorded the dispatch.
    assert!(telemetry::counter_value("pool.dispatches") >= 1);
    assert!(telemetry::counter_value("pool.chunks") >= N.div_ceil(7) as u64);
}

#[test]
fn imbalance_attr_lands_on_open_span() {
    telemetry::set_filter("all");
    {
        let _g = telemetry::span("par_test.dispatch");
        let mut data = vec![0u64; 4096];
        parallel_for_chunks(&mut data, 64, 8, |start, chunk| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = (start + i) as u64;
            }
        });
    }
    let spans = telemetry::snapshot();
    let rec = spans
        .iter()
        .find(|s| s.name == "par_test.dispatch")
        .unwrap();
    let imb = rec
        .attrs
        .iter()
        .find(|(k, _)| *k == "pool_imbalance")
        .map(|(_, v)| match v {
            telemetry::AttrValue::Float(f) => *f,
            _ => panic!("pool_imbalance must be a float"),
        })
        .expect("dispatch span carries pool_imbalance");
    // Perfect balance is 1.0; one worker doing everything is 8.0.
    assert!((1.0..=8.0).contains(&imb), "imbalance {imb}");
}

#[test]
fn map_reduce_counters_survive_contention() {
    telemetry::set_filter("all");
    let total = parallel_map_reduce(
        5_000,
        13,
        8,
        |r| {
            telemetry::counter_add("par_test.mapped", r.len() as u64);
            r.map(|i| i as u64).sum::<u64>()
        },
        |a, b| a + b,
        0u64,
    );
    assert_eq!(total, (0..5_000u64).sum());
    assert_eq!(telemetry::counter_value("par_test.mapped"), 5_000);
}
