//! End-to-end tests through the public API: span nesting, attribute
//! attachment, and the JSON-lines round trip via the built-in parser.

use finbench_telemetry as telemetry;
use std::sync::{Mutex, MutexGuard};
use telemetry::json;

/// The span registry is process-global and one of these tests drains it;
/// each holds this lock from its first span to its last registry read.
fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn spans_nest_export_and_round_trip() {
    let _registry = registry_lock();

    {
        let _outer = telemetry::span("it.experiment");
        telemetry::set_attr("kernel", "black_scholes");
        {
            let _rung = telemetry::span("it.rung");
            telemetry::set_attr("reps", 5u64);
            telemetry::set_attr("median_rate", 2.0e8f64);
            telemetry::set_attr("p95_rate", 2.2e8f64);
        }
        {
            let _rung = telemetry::span("it.rung2");
            telemetry::set_attr("reps", 9u64);
        }
    }
    telemetry::counter_add("it.ops", 123);

    let spans = telemetry::snapshot();
    let outer = spans.iter().find(|s| s.name == "it.experiment").unwrap();
    let rung = spans.iter().find(|s| s.name == "it.rung").unwrap();
    let rung2 = spans.iter().find(|s| s.name == "it.rung2").unwrap();
    assert_eq!(rung.parent, outer.id);
    assert_eq!(rung2.parent, outer.id);
    assert_eq!(rung.depth, outer.depth + 1);
    // The outer span covers both rungs.
    assert!(outer.dur_ns >= rung.dur_ns + rung2.dur_ns);

    // JSONL round trip: every line parses, and the rung record carries
    // its attributes through serialization intact.
    let text = telemetry::to_jsonl(&spans);
    let mut parsed = Vec::new();
    for line in text.lines() {
        parsed.push(json::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}")));
    }
    let rung_line = parsed
        .iter()
        .find(|v| v.get("name").and_then(|n| n.as_str()) == Some("it.rung"))
        .unwrap();
    assert_eq!(rung_line.get("type").unwrap().as_str(), Some("span"));
    assert_eq!(rung_line.get("id").unwrap().as_f64(), Some(rung.id as f64));
    assert_eq!(
        rung_line.get("parent").unwrap().as_f64(),
        Some(outer.id as f64)
    );
    let attrs = rung_line.get("attrs").unwrap();
    assert_eq!(attrs.get("reps").unwrap().as_f64(), Some(5.0));
    assert_eq!(attrs.get("median_rate").unwrap().as_f64(), Some(2.0e8));
    assert_eq!(attrs.get("p95_rate").unwrap().as_f64(), Some(2.2e8));

    let counter_line = parsed
        .iter()
        .find(|v| v.get("name").and_then(|n| n.as_str()) == Some("it.ops"))
        .unwrap();
    assert_eq!(counter_line.get("type").unwrap().as_str(), Some("counter"));
    assert_eq!(counter_line.get("value").unwrap().as_f64(), Some(123.0));

    // Tree render mentions the spans and the counter.
    let tree = telemetry::render_tree();
    assert!(tree.contains("it.experiment"));
    assert!(tree.contains("it.rung"));
    assert!(tree.contains("it.ops"));
}

#[test]
fn write_jsonl_drains_registry_to_file() {
    let _registry = registry_lock();
    {
        let _s = telemetry::span("it.file_span");
    }
    let dir = std::env::temp_dir().join("finbench_telemetry_it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("out.jsonl");
    telemetry::write_jsonl(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.lines().any(|l| l.contains("it.file_span")));
    for line in text.lines() {
        json::parse(line).unwrap();
    }
    // Drained: a second export has no spans from before.
    assert!(telemetry::snapshot()
        .iter()
        .all(|s| s.name != "it.file_span"));
    std::fs::remove_file(&path).ok();
}
