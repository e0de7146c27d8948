//! The metric names and units the runner emits, and the one result line the
//! driver reads. `BENCHMARK.json` (compiled in) must list exactly these; a
//! test holds the two together.

use finbench_telemetry::json::{parse, Json};
use std::collections::HashMap;

/// `BENCHMARK.json`, as committed next to this package.
pub const SPEC: &str = include_str!("../../BENCHMARK.json");

pub const WORKLOADS: [&str; 4] = [
    "native_ladder",
    "serve_steady",
    "serve_saturate",
    "serve_portfolio",
];

/// Registry kernels, registration order.
pub const KERNELS: [&str; 8] = [
    "black_scholes",
    "binomial",
    "brownian_bridge",
    "monte_carlo",
    "crank_nicolson",
    "rng",
    "greeks",
    "portfolio",
];

/// Reported by every workload's untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics that are not per kernel: native summaries, the probes,
/// the served-phase numbers and the generator's own health.
const LAYERS: [(&str, &str); 48] = [
    ("engine.ninja_gap_geomean", "ratio"),
    ("engine.plan_us", "us"),
    ("simd.vd_exp_per_s", "1/s"),
    ("simd.vd_ln_per_s", "1/s"),
    ("simd.vd_norm_cdf_per_s", "1/s"),
    ("simd.vd_erf_per_s", "1/s"),
    ("simd.speedup_geomean", "ratio"),
    ("math.exp_per_s", "1/s"),
    ("math.ln_per_s", "1/s"),
    ("math.norm_cdf_per_s", "1/s"),
    ("rng.uniform_mt_per_s", "1/s"),
    ("rng.uniform_philox_per_s", "1/s"),
    ("rng.normal_icdf_per_s", "1/s"),
    ("rng.normal_polar_per_s", "1/s"),
    ("parallel.dispatch_us", "us"),
    ("parallel.bs_pool_speedup", "ratio"),
    ("parallel.portfolio_pool_speedup", "ratio"),
    ("telemetry.counter_add_ns", "ns"),
    ("telemetry.gauge_set_ns", "ns"),
    ("telemetry.span_ns", "ns"),
    ("serve.queue.push_pop_ns", "ns"),
    ("serve.batcher.offer_flush_ns", "ns"),
    ("serve.pricer.pad_ns", "ns"),
    ("serve.pricer.bs_ns_b64", "ns"),
    ("serve.pricer.bs_ns_b1024", "ns"),
    ("serve.pricer.bs_ns_b4096", "ns"),
    ("serve.pricer.binomial_us", "us"),
    ("serve.greeks.ns_b1024", "ns"),
    ("serve.portfolio.book_us", "us"),
    ("serve.portfolio.grid_ns", "ns"),
    ("serve.portfolio.revalue_ns", "ns"),
    ("serve.portfolio.var_es_us", "us"),
    ("serve.server.submit_ns", "ns"),
    ("serve.server.server_latency_p50_us", "us"),
    ("serve.server.client_gap_p50_us", "us"),
    ("serve.server.batch_len_p50", "count"),
    ("serve.server.batch_len_mean", "count"),
    ("serve.server.batches", "count"),
    ("serve.server.op_p99_us", "us"),
    ("serve.server.op_p999_us", "us"),
    ("serve.server.allocs_per_op", "count"),
    ("serve.server.shed", "count"),
    ("serve.shards2.portfolio_speedup", "ratio"),
    ("serve.shards2.steals", "count"),
    ("serve.shards2.spills", "count"),
    ("bench.lag_p99_us", "us"),
    ("bench.disturbed_windows", "count"),
    ("bench.trace_overhead_share", "ratio"),
];

/// Reported by every workload's traced run; a metric the workload does not
/// exercise (a kernel rate in a served run, a server count in the native
/// one) reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for k in KERNELS {
        v.push((format!("core.{k}.ref_per_s"), "1/s"));
        v.push((format!("core.{k}.best_per_s"), "1/s"));
        v.push((format!("engine.plan_regret.{k}"), "ratio"));
        v.push((format!("machine.model_error.{k}"), "ratio"));
    }
    v.extend(LAYERS.iter().map(|&(n, u)| (n.to_string(), u)));
    v
}

/// Named values on their way to the result line.
#[derive(Default)]
pub struct Values(HashMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(
            self.0.insert(name.clone(), value).is_none(),
            "metric {name} set twice"
        );
    }

    /// The `metrics` object: every name of `table`, in order. End-to-end
    /// values must all be present; an absent per-layer value reads 0.
    fn to_json(&self, table: &[(String, &'static str)], require: bool) -> Json {
        for name in self.0.keys() {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "metric {name} is not declared"
            );
        }
        Json::Obj(
            table
                .iter()
                .map(|(name, unit)| {
                    let value = match self.0.get(name) {
                        Some(&v) => v,
                        None if require => panic!("metric {name} was not measured"),
                        None => 0.0,
                    };
                    assert!(value.is_finite(), "metric {name} is {value}");
                    let entry = Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(unit.to_string())),
                    ]);
                    (name.clone(), entry)
                })
                .collect(),
        )
    }
}

/// The driver's result object: exactly `correct` (nothing failed),
/// `attempted`, `failed`, `metrics` (end-to-end when untraced, per-layer when
/// traced).
pub fn result_json(values: &Values, traced: bool, attempted: u64, failed: u64) -> Json {
    let metrics = if traced {
        values.to_json(&per_layer(), false)
    } else {
        let table: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        values.to_json(&table, true)
    };
    Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), metrics),
    ])
}

/// `(name, bound, lower is better)` of each end-to-end metric in
/// `BENCHMARK.json`.
pub fn bounds() -> Vec<(String, f64, bool)> {
    let spec = parse(SPEC).expect("BENCHMARK.json parses");
    let Some(Json::Arr(list)) = spec.get("end_to_end") else {
        panic!("BENCHMARK.json has no end_to_end list");
    };
    list.iter()
        .map(|m| {
            let text = |key| m.get(key).and_then(Json::as_str).expect("metric field");
            let bound = m.get("bound").and_then(Json::as_f64).expect("metric bound");
            (text("name").to_string(), bound, text("better") == "lower")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list<'a>(spec: &'a Json, key: &str) -> &'a [Json] {
        match spec.get(key) {
            Some(Json::Arr(items)) => items,
            other => panic!("{key}: {other:?}"),
        }
    }

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn pairs(items: &[Json]) -> Vec<(String, String)> {
        items
            .iter()
            .map(|m| {
                let get = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("{k}: {m:?}"))
                };
                (get("name").to_string(), get("unit").to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_runner_emits() {
        let spec = parse(SPEC).unwrap();
        let workloads = list(&spec, "workloads");
        assert!((2..=8).contains(&workloads.len()));
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
        for w in workloads {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{why}"
            );
        }

        let e2e = pairs(list(&spec, "end_to_end"));
        assert!(e2e.len() <= 16);
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(e2e, want);

        let layers = pairs(list(&spec, "per_layer"));
        assert!(layers.len() <= 128);
        let want: Vec<_> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(layers, want);

        let mut all: Vec<&String> = e2e.iter().chain(&layers).map(|(n, _)| n).collect();
        assert!(all.iter().all(|n| name_ok(n)), "{all:?}");
        assert!(names.iter().all(|n| name_ok(n)));
        all.sort();
        all.dedup();
        assert_eq!(all.len(), e2e.len() + layers.len(), "names are used once");
    }

    #[test]
    fn bounds_and_directions_are_within_the_contract() {
        let spec = parse(SPEC).unwrap();
        for (name, bound, _) in bounds() {
            assert!(bound > 0.0 && bound <= 0.25, "{name}: {bound}");
        }
        let setup = bounds().into_iter().find(|b| b.0 == "setup_s").unwrap();
        assert!(setup.2, "set-up time is better lower");
        assert!(
            bounds().iter().all(|b| b.1 <= setup.1),
            "setup_s has the largest bound"
        );
        for key in ["end_to_end", "per_layer"] {
            for m in list(&spec, key) {
                let better = m.get("better").and_then(Json::as_str).unwrap();
                assert!(better == "lower" || better == "higher", "{m:?}");
            }
        }
        assert_eq!(
            spec.get("paths"),
            Some(&Json::Arr(vec![Json::Str("benchmark".into())]))
        );
        let secs = spec.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_declared_names() {
        let mut v = Values::default();
        for (name, _) in END_TO_END {
            v.set(name, 1.5);
        }
        let line = result_json(&v, false, 10, 0);
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!()
        };
        let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(got, END_TO_END.map(|(n, _)| n));
        let Json::Obj(keys) = &line else { panic!() };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);

        let mut v = Values::default();
        v.set("core.rng.best_per_s", 2.0);
        let line = result_json(&v, true, 1, 0);
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!()
        };
        assert_eq!(metrics.len(), per_layer().len());
        let value = |n: &str| line.get("metrics")?.get(n)?.get("value")?.as_f64();
        assert_eq!(value("core.rng.best_per_s"), Some(2.0));
        assert_eq!(
            value("serve.server.shed"),
            Some(0.0),
            "not exercised reads 0"
        );
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_undeclared_metric_is_a_bug() {
        let mut v = Values::default();
        v.set("made.up", 1.0);
        result_json(&v, true, 1, 0);
    }
}
