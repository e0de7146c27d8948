//! Exporters: human-readable span tree and JSON-lines.
//!
//! All exporters read the span registry (the newest
//! [`SPAN_RING_CAPACITY`](crate::SPAN_RING_CAPACITY) finished spans) and
//! the metric registries; only [`write_jsonl`] drains the span registry
//! (so a run can be exported exactly once to a file and the in-memory
//! state reclaimed).

use crate::json::Json;
use crate::metrics::{counter_snapshot, gauge_snapshot};
use crate::span::{snapshot, AttrValue, SpanRecord};
use std::fmt::Write as _;
use std::io::Write as _;

/// Schema version stamped on the leading `meta` line of every JSONL
/// export. Bump when the line shapes change incompatibly; consumers
/// (`finbench bench-compare` and external tooling) reject versions they
/// don't know.
pub const JSONL_SCHEMA_VERSION: u64 = 1;

fn attr_json(v: &AttrValue) -> Json {
    match v {
        AttrValue::Int(i) => Json::Num(*i as f64),
        AttrValue::Float(f) => Json::Num(*f),
        AttrValue::Str(s) => Json::Str(s.to_string()),
    }
}

/// One span as a JSON-lines record.
pub fn span_to_json(rec: &SpanRecord) -> Json {
    let attrs = Json::Obj(
        rec.attrs
            .iter()
            .map(|(k, v)| (k.to_string(), attr_json(v)))
            .collect(),
    );
    Json::Obj(vec![
        ("type".into(), Json::Str("span".into())),
        ("id".into(), Json::Num(rec.id as f64)),
        ("parent".into(), Json::Num(rec.parent as f64)),
        ("name".into(), Json::Str(rec.name.clone())),
        ("depth".into(), Json::Num(rec.depth as f64)),
        ("start_ns".into(), Json::Num(rec.start_ns as f64)),
        ("dur_ns".into(), Json::Num(rec.dur_ns as f64)),
        ("attrs".into(), attrs),
    ])
}

/// Serialize the given spans plus all counters and gauges as JSON lines.
///
/// The output is deterministic for a deterministic run: a `meta` line
/// carrying [`JSONL_SCHEMA_VERSION`] comes first, spans follow in
/// document order (`start_ns`, then id — not the racy completion order
/// the registry stores), then counters and gauges sorted by name.
pub fn to_jsonl(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    let meta = Json::Obj(vec![
        ("type".into(), Json::Str("meta".into())),
        (
            "schema_version".into(),
            Json::Num(JSONL_SCHEMA_VERSION as f64),
        ),
        (
            "format".into(),
            Json::Str("finbench-telemetry-jsonl".into()),
        ),
    ]);
    out.push_str(&meta.to_json());
    out.push('\n');
    let mut ordered: Vec<&SpanRecord> = spans.iter().collect();
    ordered.sort_by_key(|r| (r.start_ns, r.id));
    for rec in ordered {
        out.push_str(&span_to_json(rec).to_json());
        out.push('\n');
    }
    for (name, value) in counter_snapshot() {
        let line = Json::Obj(vec![
            ("type".into(), Json::Str("counter".into())),
            ("name".into(), Json::Str(name)),
            ("value".into(), Json::Num(value as f64)),
        ]);
        out.push_str(&line.to_json());
        out.push('\n');
    }
    for (name, value) in gauge_snapshot() {
        let line = Json::Obj(vec![
            ("type".into(), Json::Str("gauge".into())),
            ("name".into(), Json::Str(name)),
            ("value".into(), Json::Num(value)),
        ]);
        out.push_str(&line.to_json());
        out.push('\n');
    }
    out
}

/// Drain the span registry and write everything (spans, counters,
/// gauges) as JSON lines to `path`.
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<()> {
    let spans = crate::span::drain();
    let mut file = std::fs::File::create(path)?;
    file.write_all(to_jsonl(&spans).as_bytes())?;
    Ok(())
}

fn fmt_dur(ns: u64) -> String {
    let s = ns as f64 / 1e9;
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

fn fmt_attr(v: &AttrValue) -> String {
    match v {
        AttrValue::Int(i) => i.to_string(),
        AttrValue::Float(f) => {
            if f.abs() >= 1e5 {
                format!("{f:.3e}")
            } else {
                format!("{f:.3}")
            }
        }
        AttrValue::Str(s) => s.to_string(),
    }
}

/// Render the finished spans as an indented tree, children under their
/// parents, with durations and attributes. Counters and gauges follow.
pub fn render_tree() -> String {
    let spans = snapshot();
    let mut out = String::new();
    if !spans.is_empty() {
        out.push_str("spans:\n");
        // Completion order has children before parents; rebuild document
        // order by emitting each root then its subtree by start time.
        let mut by_start: Vec<&SpanRecord> = spans.iter().collect();
        by_start.sort_by_key(|r| (r.start_ns, r.id));
        for rec in by_start {
            let indent = "  ".repeat(rec.depth as usize + 1);
            let _ = write!(out, "{indent}{} [{}]", rec.name, fmt_dur(rec.dur_ns));
            for (k, v) in &rec.attrs {
                let _ = write!(out, " {k}={}", fmt_attr(v));
            }
            out.push('\n');
        }
    }
    let counters = counter_snapshot();
    if !counters.is_empty() {
        out.push_str("counters:\n");
        for (name, value) in counters {
            let _ = writeln!(out, "  {name} = {value}");
        }
    }
    let gauges = gauge_snapshot();
    if !gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, value) in gauges {
            let _ = writeln!(out, "  {name} = {value:.4}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_span() -> SpanRecord {
        SpanRecord {
            id: 7,
            parent: 3,
            name: "native.black_scholes.basic".into(),
            depth: 1,
            start_ns: 1000,
            dur_ns: 2_500_000,
            attrs: vec![
                ("reps", AttrValue::Int(12)),
                ("median_rate", AttrValue::Float(1.5e8)),
                ("label", AttrValue::Str("Basic scalar".into())),
            ],
        }
    }

    #[test]
    fn span_json_round_trips() {
        let rec = sample_span();
        let line = span_to_json(&rec).to_json();
        let back = json::parse(&line).unwrap();
        assert_eq!(back.get("type").unwrap().as_str(), Some("span"));
        assert_eq!(back.get("id").unwrap().as_f64(), Some(7.0));
        assert_eq!(
            back.get("name").unwrap().as_str(),
            Some("native.black_scholes.basic")
        );
        let attrs = back.get("attrs").unwrap();
        assert_eq!(attrs.get("reps").unwrap().as_f64(), Some(12.0));
        assert_eq!(attrs.get("median_rate").unwrap().as_f64(), Some(1.5e8));
        assert_eq!(attrs.get("label").unwrap().as_str(), Some("Basic scalar"));
    }

    #[test]
    fn jsonl_lines_each_parse() {
        let recs = vec![sample_span(), sample_span()];
        let text = to_jsonl(&recs);
        let mut n = 0;
        for line in text.lines() {
            json::parse(line).unwrap();
            n += 1;
        }
        assert!(n >= 2);
    }

    #[test]
    fn jsonl_leads_with_a_versioned_meta_line() {
        let text = to_jsonl(&[sample_span()]);
        let first = json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("type").unwrap().as_str(), Some("meta"));
        assert_eq!(
            first.get("schema_version").unwrap().as_f64(),
            Some(JSONL_SCHEMA_VERSION as f64)
        );
    }

    #[test]
    fn jsonl_orders_spans_by_start_time_not_completion_order() {
        // Completion order (children first) feeds spans in reverse start
        // order; the export must re-sort to document order.
        let mut child = sample_span();
        child.id = 9;
        child.start_ns = 5000;
        let mut parent = sample_span();
        parent.id = 8;
        parent.start_ns = 100;
        let text = to_jsonl(&[child, parent]);
        let ids: Vec<f64> = text
            .lines()
            .map(|l| json::parse(l).unwrap())
            .filter(|v| v.get("type").and_then(|t| t.as_str()) == Some("span"))
            .map(|v| v.get("id").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(ids, vec![8.0, 9.0]);
    }

    #[test]
    fn jsonl_counters_and_gauges_come_out_sorted_by_name() {
        crate::filter::set_filter("all");
        // Register deliberately out of alphabetical order.
        crate::metrics::counter_add("export_order_test.zz", 1);
        crate::metrics::counter_add("export_order_test.aa", 1);
        crate::metrics::gauge_set("export_order_test.gz", 2.0);
        crate::metrics::gauge_set("export_order_test.ga", 1.0);
        let text = to_jsonl(&[]);
        let names_of = |kind: &str| -> Vec<String> {
            text.lines()
                .map(|l| json::parse(l).unwrap())
                .filter(|v| v.get("type").and_then(|t| t.as_str()) == Some(kind))
                .filter_map(|v| {
                    v.get("name")
                        .and_then(|n| n.as_str())
                        .filter(|n| n.starts_with("export_order_test."))
                        .map(str::to_string)
                })
                .collect()
        };
        for kind in ["counter", "gauge"] {
            let names = names_of(kind);
            let mut sorted = names.clone();
            sorted.sort();
            assert!(!names.is_empty(), "{kind}");
            assert_eq!(names, sorted, "{kind}: {names:?}");
        }
    }
}
