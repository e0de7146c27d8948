//! Single-test file: fills the process-global span ring past capacity,
//! so it must not share a process with other telemetry tests.

use finbench_telemetry as telemetry;
use telemetry::SPAN_RING_CAPACITY;

#[test]
fn the_ring_keeps_the_newest_spans_and_counts_the_rest() {
    telemetry::set_filter("all");
    const EXTRA: usize = 37;
    let total = SPAN_RING_CAPACITY + EXTRA;
    for i in 0..total {
        let _g = telemetry::span("ring_test.span");
        telemetry::set_attr("seq", i);
    }
    assert_eq!(
        telemetry::counter_value("telemetry.spans_dropped"),
        EXTRA as u64
    );
    let spans = telemetry::snapshot();
    assert_eq!(spans.len(), SPAN_RING_CAPACITY);
    // The survivors are exactly the newest, oldest first.
    for (k, rec) in spans.iter().enumerate() {
        assert_eq!(rec.name, "ring_test.span");
        assert_eq!(
            rec.attrs,
            vec![("seq", telemetry::AttrValue::Int((EXTRA + k) as i64))]
        );
    }
    // Sequential spans on one thread: completion order is already the
    // exporters' `(start_ns, id)` document order.
    assert!(spans
        .windows(2)
        .all(|w| (w[0].start_ns, w[0].id) < (w[1].start_ns, w[1].id)));

    // `drain` hands back the same records in the same order and empties
    // the ring; the next span starts a fresh one.
    let drained = telemetry::drain();
    assert_eq!(drained.len(), SPAN_RING_CAPACITY);
    assert_eq!(drained[0].id, spans[0].id);
    assert_eq!(drained.last().map(|r| r.id), spans.last().map(|r| r.id));
    assert!(telemetry::snapshot().is_empty());
    drop(telemetry::span("ring_test.after_drain"));
    assert_eq!(telemetry::snapshot().len(), 1);
    assert_eq!(
        telemetry::counter_value("telemetry.spans_dropped"),
        EXTRA as u64
    );
}
