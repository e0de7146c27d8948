//! End-to-end exercise of the perf-trajectory pipeline: run a real (tiny)
//! `bench-report`, check the snapshot is every kernel's full rung ladder
//! beside the host and cycle-timer fields, and drive the comparison gate
//! over it — identical snapshots must be clean, a synthetically degraded
//! one must fail, and unknown schema versions must come back as typed
//! errors rather than panics.

use finbench_harness::report::{
    bench_compare, bench_report, compare_metrics, gate_self_test, load_bench, BenchReportOptions,
    CompareError, BENCH_SCHEMA_VERSION,
};
use finbench_telemetry::json::{self, Json};
use std::path::PathBuf;
use std::sync::OnceLock;

/// One shared real run for the whole test binary — bench-report sweeps
/// every kernel ladder twice (active and portable tier), so even the
/// quick mode takes seconds.
fn snapshot_path() -> &'static PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let dir = std::env::temp_dir().join("finbench_bench_report_it");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("BENCH_it.json");
        let opts = BenchReportOptions {
            quick: true,
            out: Some(out.display().to_string()),
        };
        bench_report(&opts).expect("bench-report run")
    })
}

fn snapshot_doc() -> Json {
    let text = std::fs::read_to_string(snapshot_path()).unwrap();
    json::parse(&text).expect("snapshot parses")
}

fn arr<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("{key}: expected array, got {other:?}"),
    }
}

#[test]
fn snapshot_is_every_kernel_ladder_and_the_host() {
    let doc = snapshot_doc();
    assert_eq!(
        doc.get("schema_version").and_then(Json::as_f64),
        Some(BENCH_SCHEMA_VERSION as f64)
    );
    assert_eq!(doc.get("quick"), Some(&Json::Bool(true)));
    assert!(doc.get("cycle_source").and_then(Json::as_str).is_some());
    assert!(doc.get("tsc_ghz").and_then(Json::as_f64).unwrap() > 0.0);

    // Every registry kernel appears, and each of its rungs carries a
    // positive median rate.
    let kernels = arr(&doc, "kernels");
    let mut names: Vec<&str> = kernels
        .iter()
        .map(|k| k.get("name").and_then(Json::as_str).unwrap())
        .collect();
    names.sort_unstable();
    let mut expected = finbench_harness::native::kernel_names();
    expected.sort_unstable();
    assert_eq!(names, expected, "all registry kernels in the snapshot");
    for kernel in kernels {
        let rungs = match kernel.get("rungs") {
            Some(Json::Arr(r)) => r,
            other => panic!("rungs: {other:?}"),
        };
        assert!(!rungs.is_empty());
        for rung in rungs {
            let slug = rung.get("slug").and_then(Json::as_str).unwrap();
            let median = rung.get("median_rate").and_then(Json::as_f64).unwrap();
            assert!(median > 0.0, "{slug} median_rate");
            assert!(rung.get("p95_rate").and_then(Json::as_f64).unwrap() > 0.0);
            assert!(rung.get("median_cpi").and_then(Json::as_f64).is_some());
        }
    }

    // The kernel ladders, the host and the cycle timer: nothing else.
    let Json::Obj(fields) = &doc else {
        panic!("snapshot is not an object: {doc:?}")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "schema_version",
            "tool",
            "quick",
            "trials",
            "cycle_source",
            "tsc_ghz",
            "cycle_overhead",
            "host",
            "kernels"
        ]
    );
}

#[test]
fn identical_snapshots_compare_clean_end_to_end() {
    let path = snapshot_path();
    let report = bench_compare(path, path, 10.0).expect("self-compare");
    assert_eq!(report.gated_regressions(), 0, "{}", report.render());
    assert!(report.added.is_empty() && report.removed.is_empty());
    assert!(!report.deltas.is_empty(), "snapshot produced no metrics");
    assert!(report.deltas.iter().any(|d| d.gated), "no gated metrics");
}

#[test]
fn degraded_snapshot_fails_the_gate_end_to_end() {
    let (flagged, gated_total, report) = gate_self_test(snapshot_path(), 10.0).expect("self-test");
    assert!(gated_total > 0);
    assert_eq!(flagged, gated_total, "{}", report.render());
    assert!(report.render().contains("REGRESSED"));
}

#[test]
fn unknown_schema_version_is_a_typed_error_on_a_real_snapshot() {
    let text = std::fs::read_to_string(snapshot_path()).unwrap();
    let bumped = text.replacen(
        &format!("\"schema_version\":{BENCH_SCHEMA_VERSION}"),
        "\"schema_version\":999",
        1,
    );
    assert_ne!(text, bumped, "snapshot should carry its schema version");
    let dir = std::env::temp_dir().join("finbench_bench_report_it");
    let path = dir.join("BENCH_future.json");
    std::fs::write(&path, bumped).unwrap();
    match load_bench(&path) {
        Err(CompareError::UnknownSchema {
            found, supported, ..
        }) => {
            assert_eq!(found, "999");
            assert_eq!(supported, BENCH_SCHEMA_VERSION);
        }
        other => panic!("expected UnknownSchema, got {other:?}"),
    }
}

#[test]
fn quick_full_mismatch_is_refused_end_to_end() {
    let text = std::fs::read_to_string(snapshot_path()).unwrap();
    let full = text.replacen("\"quick\":true", "\"quick\":false", 1);
    assert_ne!(text, full);
    let dir = std::env::temp_dir().join("finbench_bench_report_it");
    let path = dir.join("BENCH_full.json");
    std::fs::write(&path, full).unwrap();
    match bench_compare(snapshot_path(), &path, 10.0) {
        Err(CompareError::Malformed { what, .. }) => {
            assert!(what.contains("mode mismatch"), "{what}")
        }
        other => panic!("expected Malformed mode mismatch, got {other:?}"),
    }
}

#[test]
fn threaded_rungs_are_advisory_everything_else_on_median_is_gated() {
    let doc = load_bench(snapshot_path()).unwrap();
    let medians: Vec<_> = doc
        .metrics
        .iter()
        .filter(|m| m.path.starts_with("native.") && m.path.ends_with(".median_rate"))
        .collect();
    assert!(!medians.is_empty());
    // Gated and advisory medians both exist (the ladders have threaded
    // top rungs), and comparing the snapshot against itself stays clean
    // either way.
    assert!(medians.iter().any(|m| m.gated));
    assert!(medians.iter().any(|m| !m.gated));
    let report = compare_metrics(&doc.metrics, &doc.metrics, 0.0);
    assert_eq!(report.gated_regressions(), 0);
}
