//! The two scopes of a counter handle, read as before/after deltas: a
//! process-wide counter only counts up, so nothing here depends on what
//! else the process has counted.

use finbench_telemetry::{self as telemetry, Counter, Gauge};

#[test]
fn a_counter_handle_counts_in_its_own_scope_and_in_the_process_wide_one() {
    let (a, b) = (
        Counter::named("handles_test.ops"),
        Counter::named("handles_test.ops"),
    );
    // Nothing recorded yet: the name is not in the registry.
    assert!(telemetry::counter_snapshot()
        .iter()
        .all(|(name, _)| name != "handles_test.ops"));
    a.add(3);
    b.add(4);
    telemetry::counter_add("handles_test.ops", 10);
    // Each handle reads its own count; the name reads the sum over the
    // handles plus the by-name adds.
    assert_eq!((a.get(), b.get()), (3, 4));
    assert_eq!(telemetry::counter_value("handles_test.ops"), 17);

    // Later events move both scopes by the same amount.
    let before = (a.get(), telemetry::counter_value("handles_test.ops"));
    a.add(5);
    b.add(0);
    let after = (a.get(), telemetry::counter_value("handles_test.ops"));
    assert_eq!((after.0 - before.0, after.1 - before.1), (5, 5));
    assert_eq!(b.get(), 4);

    let g = Gauge::named("handles_test.g");
    g.set(1.5);
    assert_eq!(telemetry::gauge_value("handles_test.g"), 1.5);
    g.set(9.0);
    assert_eq!(telemetry::gauge_value("handles_test.g"), 9.0);
}
