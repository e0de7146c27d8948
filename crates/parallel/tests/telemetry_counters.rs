//! Counter atomicity under the pool, and imbalance reporting.

use finbench_parallel::parallel_for_chunks;
use finbench_telemetry as telemetry;

#[test]
fn counters_are_exact_under_eight_workers() {
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
    // Map: 385 uneven chunks of 13 across 8 workers, each counting its
    // elements; reduce: the caller sums what the chunks wrote.
    let mut data = vec![0u64; 5_000];
    parallel_for_chunks(&mut data, 13, 8, |start, chunk| {
        telemetry::counter_add("par_test.mapped", chunk.len() as u64);
        for (i, x) in chunk.iter_mut().enumerate() {
            *x = (start + i) as u64;
        }
    });
    assert_eq!(data.iter().sum::<u64>(), (0..5_000u64).sum());
    assert_eq!(telemetry::counter_value("par_test.mapped"), 5_000);
}
