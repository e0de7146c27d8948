//! Single-test file: mutates the process-global filter and resets the
//! registry, so it must not share a process with other telemetry tests.

use finbench_telemetry::{self as telemetry, Counter, Gauge};

#[test]
fn a_counter_handle_counts_in_its_own_scope_and_in_the_process_wide_one() {
    telemetry::set_filter("all");
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

    // The registry is the process's to reset; a handle's count is not.
    telemetry::reset_metrics();
    assert_eq!(telemetry::counter_value("handles_test.ops"), 0);
    assert_eq!((a.get(), b.get()), (3, 4));

    // Filtered out, the process-wide cell stands still and the own cell
    // still counts.
    let g = Gauge::named("handles_test.g");
    g.set(1.5);
    telemetry::set_filter("off");
    a.add(5);
    g.set(9.0);
    assert_eq!(a.get(), 8);
    telemetry::set_filter("all");
    assert_eq!(telemetry::counter_value("handles_test.ops"), 0);
    assert_eq!(telemetry::gauge_value("handles_test.g"), 1.5);
    a.add(1);
    assert_eq!(
        (a.get(), telemetry::counter_value("handles_test.ops")),
        (9, 1)
    );
}
