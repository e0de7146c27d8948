//! `finbench bench-report` / `bench-compare`: the machine-readable perf
//! trajectory.
//!
//! `bench-report` runs the full engine registry (all kernels × all rungs
//! through [`Engine::run_ladder_samples`]'s interleaved trials), a quick
//! serve + greeks load sweep (closed-loop latency percentiles beside the
//! batch fill and flush-trigger mix that explain them, plus an open-loop
//! peak-sustainable-load search), and an allocations-per-batch
//! measurement on the hot pricing paths, then writes one schema-versioned
//! `BENCH_<n>.json` at the repo root — the trajectory point every future
//! PR compares against.
//!
//! `bench-compare` diffs two such snapshots into a per-metric delta table
//! with a fixed noise threshold ([`DEFAULT_THRESHOLD_PCT`]). Metrics are
//! **gated** (a harmful move beyond the threshold fails CI: per-rung median
//! rates on non-threaded rungs, serve shed counts, allocations/iter) or
//! **advisory** (reported, never fatal: latency percentiles, peak load,
//! best-of rates, cycle counts, threaded rungs). `--self-test` degrades
//! every gated metric of a snapshot synthetically and verifies the gate
//! actually fires — the regression gate's own regression test.

use crate::native;
use crate::render::{fmt_num, section, table};
use finbench_core::greeks::GreeksBatchSoa;
use finbench_engine::RungSamples;
use finbench_serve::{
    padded_batch_into, FlushCounts, GreeksSource, LoadMode, LoadReport, OptionScratch, PeakReport,
    PeakSearchConfig, PortfolioSource, PricerConfig, RequestSource, ServeConfig, Server,
};
use finbench_simd::isa::{dispatch_as, Isa};
use finbench_telemetry as telemetry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;
use telemetry::json::{self, Json};

/// Schema version stamped into every `BENCH_<n>.json`; [`load_bench`]
/// rejects versions it doesn't know with a typed [`CompareError`].
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Noise threshold for gated metrics, percent: the one `bench-compare`,
/// its self-test and the gate's trajectory check use.
pub const DEFAULT_THRESHOLD_PCT: f64 = 10.0;

/// Options for `bench-report`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchReportOptions {
    /// Shrink workloads and sweep sizes (CI-friendly).
    pub quick: bool,
    /// Output path (default: next free `BENCH_<n>.json` in the cwd).
    pub out: Option<String>,
}

/// How `bench-compare` was invoked.
#[derive(Debug, Clone, PartialEq)]
pub enum CompareMode {
    /// Diff two snapshot files.
    Files {
        /// Baseline snapshot path.
        old: String,
        /// Candidate snapshot path.
        new: String,
    },
    /// Degrade `snapshot` synthetically and verify the gate fires.
    SelfTest {
        /// Snapshot to degrade.
        snapshot: String,
    },
}

// ---------------------------------------------------------------------------
// bench-report
// ---------------------------------------------------------------------------

struct LaneStats {
    rung: String,
    /// The closed-loop run: counts, throughput and latency percentiles.
    closed: LoadReport,
    /// Mean requests (portfolio: chunks) per batch over the closed-loop run.
    batch_fill: f64,
    /// The closed-loop run's batches by flush trigger.
    flushes: FlushCounts,
    peak: PeakReport,
}

struct AllocLane {
    lane: String,
    rung: String,
    batch: usize,
    iters: usize,
    allocs_per_iter: f64,
    bytes_per_iter: f64,
}

/// Run the full bench sweep and write the snapshot; returns the path
/// written. Errors are I/O only — measurement itself cannot fail.
pub fn bench_report(opts: &BenchReportOptions) -> Result<PathBuf, String> {
    // Counters only count up: the snapshot carries what this sweep added.
    let counters_before = telemetry::counter_snapshot();
    let quick = opts.quick;
    // Interleaved trials per kernel ladder.
    let trials = if quick { 2 } else { 3 };
    let engine = native::engine();

    println!(
        "{}",
        section(&format!(
            "bench-report (schema v{BENCH_SCHEMA_VERSION}, {} mode, {trials} trials, {} timer @ {:.2} GHz)",
            if quick { "quick" } else { "full" },
            telemetry::cycles::cycle_source(),
            telemetry::cycles::tsc_ghz(),
        ))
    );

    println!("  {}", Isa::describe());

    // 1. Native ladders: every kernel × every rung, interleaved trials —
    // and once more with every sweep forced onto the portable
    // instantiation, so the snapshot carries what the active tier bought.
    let active = Isa::active();
    let mut kernels_json = Vec::new();
    let mut rows = Vec::new();
    let mut simd_rows = Vec::new();
    for kernel in engine.registry().kernels() {
        let rungs = engine.run_ladder_samples(kernel, quick, trials);
        let portable = (active != Isa::Portable).then(|| {
            dispatch_as(Isa::Portable, || {
                engine.run_ladder_samples(kernel, quick, trials)
            })
        });
        for r in &rungs {
            rows.push(vec![
                kernel.name().to_string(),
                r.slug.clone(),
                r.samples.count().to_string(),
                fmt_num(r.samples.median()),
                fmt_num(r.samples.p95()),
                fmt_num(r.samples.median_cycles_per_item()),
            ]);
        }
        let ratios = simd_ratios(&rungs, portable.as_deref().unwrap_or(&rungs));
        for r in &ratios {
            simd_rows.push(vec![
                kernel.name().to_string(),
                r.slug.clone(),
                r.sibling.clone(),
                format!("{:.2}x", r.active),
                format!("{:.2}x", r.portable),
            ]);
        }
        kernels_json.push(kernel_json(kernel.name(), kernel.unit(), &rungs, &ratios));
    }
    println!(
        "{}",
        table(
            &["kernel", "rung", "reps", "median", "p95", "cycles/item"],
            &rows
        )
    );
    let active_col = format!("x scalar ({})", active.name());
    println!(
        "{}",
        table(
            &[
                "kernel",
                "SIMD rung",
                "scalar sibling",
                active_col.as_str(),
                "x scalar (portable)"
            ],
            &simd_rows
        )
    );

    // 2. Serve + greeks lanes: closed-loop latency, open-loop peak.
    let pricer = PricerConfig {
        binomial_steps: if quick { 64 } else { 256 },
        ..PricerConfig::default()
    };
    let per_client = if quick { 150 } else { 600 };
    let price_rung = finbench_serve::pricer::resolve(engine, "black_scholes", &pricer)
        .map(|r| r.slug.to_string())
        .unwrap_or_default();
    let greeks_rung = finbench_serve::greeks_ladder(pricer.market)[0]
        .slug
        .to_string();
    let book_rung = finbench_serve::portfolio_ladder(pricer.market)[0]
        .slug
        .to_string();
    // Each portfolio request fans a multi-chunk scenario sweep across the
    // shards and merges VaR/ES back, so "one request" there is a thousand
    // pricings — the lane's req/s is necessarily far below the others'.
    let book = PortfolioSource {
        positions: 16,
        scenarios: 64,
        chunk: 16,
    };
    let book_requests = if quick { 20 } else { 60 };
    let lanes = vec![
        lane("black_scholes", price_rung, (4, per_client), pricer, quick),
        lane(&GreeksSource, greeks_rung, (4, per_client), pricer, quick),
        lane(&book, book_rung, (2, book_requests), pricer, quick),
    ];
    let lane_rows: Vec<Vec<String>> = lanes
        .iter()
        .map(|l| {
            vec![
                l.closed.kernel.clone(),
                l.closed.served.to_string(),
                l.closed.total_shed().to_string(),
                fmt_num(l.closed.throughput),
                format!("{:.0}", l.closed.p50_us),
                format!("{:.0}", l.closed.p95_us),
                format!("{:.0}", l.closed.p99_us),
                format!("{:.1}", l.batch_fill),
                l.flushes.to_string(),
                fmt_num(l.peak.sustained_hz()),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "lane",
                "served",
                "shed",
                "req/s",
                "p50 µs",
                "p95 µs",
                "p99 µs",
                "fill",
                "flush s/d/i/dr %",
                "peak req/s"
            ],
            &lane_rows
        )
    );
    println!(
        "  (fill = mean requests per batch; flush = % of the closed-loop run's batches cut by \
         the size / delay / idle / shutdown-drain trigger)"
    );

    // 3. Allocations per batch iteration on the hot pricing paths (all
    // servers above have shut down, so no other thread is allocating).
    let allocs = alloc_lanes(pricer);
    if telemetry::counting_allocator_active() {
        let alloc_rows: Vec<Vec<String>> = allocs
            .iter()
            .map(|a| {
                vec![
                    a.lane.clone(),
                    a.batch.to_string(),
                    format!("{:.1}", a.allocs_per_iter),
                    fmt_num(a.bytes_per_iter),
                ]
            })
            .collect();
        println!(
            "{}",
            table(
                &["alloc lane", "batch", "allocs/iter", "bytes/iter"],
                &alloc_rows
            )
        );
    } else {
        println!("  (counting allocator not installed; allocs/iter unavailable)");
    }

    // 4. Shed/degradation counters accumulated by the sweep above.
    let counters: Vec<(String, u64)> =
        counter_deltas(&counters_before, telemetry::counter_snapshot())
            .into_iter()
            .filter(|(name, _)| {
                ["serve.", "greeks.", "portfolio.", "loadgen."]
                    .iter()
                    .any(|p| name.starts_with(p))
            })
            .collect();

    let doc = assemble_json(opts, trials, kernels_json, &lanes, &allocs, &counters);
    let path = match &opts.out {
        Some(p) => PathBuf::from(p),
        None => next_bench_path(Path::new(".")),
    };
    std::fs::write(&path, doc.to_json() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("  snapshot written to {}", path.display());
    Ok(path)
}

/// One SIMD-labelled rung's median rate over its scalar sibling's, under
/// the active ISA tier and under the portable instantiation.
struct SimdRatio {
    slug: String,
    sibling: String,
    active: f64,
    portable: f64,
}

/// A rung is labelled SIMD when its label says `SIMD` or names a lane
/// width (`W=`); its scalar sibling is the closest rung before it whose
/// label says `scalar`. Thread-pool rungs measure the pool, not the lanes,
/// and are left out. `portable` is the same ladder measured under
/// [`Isa::Portable`].
fn simd_ratios(active: &[RungSamples], portable: &[RungSamples]) -> Vec<SimdRatio> {
    let mut out = Vec::new();
    for (i, rung) in active.iter().enumerate() {
        let simd = rung.label.contains("SIMD") || rung.label.contains("W=");
        let sibling = active[..i].iter().rposition(|r| r.label.contains("scalar"));
        if let (true, false, Some(s)) = (simd, rung.threaded, sibling) {
            out.push(SimdRatio {
                slug: rung.slug.clone(),
                sibling: active[s].slug.clone(),
                active: rung.samples.median() / active[s].samples.median(),
                portable: portable[i].samples.median() / portable[s].samples.median(),
            });
        }
    }
    out
}

fn kernel_json(name: &str, unit: &str, rungs: &[RungSamples], ratios: &[SimdRatio]) -> Json {
    let ratios_json: Vec<Json> = ratios
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("slug".into(), Json::Str(r.slug.clone())),
                ("sibling".into(), Json::Str(r.sibling.clone())),
                ("active".into(), Json::Num(r.active)),
                ("portable".into(), Json::Num(r.portable)),
            ])
        })
        .collect();
    let rungs_json: Vec<Json> = rungs
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("slug".into(), Json::Str(r.slug.clone())),
                ("label".into(), Json::Str(r.label.to_string())),
                ("level".into(), Json::Str(r.level.to_string())),
                ("threaded".into(), Json::Bool(r.threaded)),
                ("items".into(), Json::Num(r.items as f64)),
                ("reps".into(), Json::Num(r.samples.count() as f64)),
                ("median_rate".into(), Json::Num(r.samples.median())),
                ("p95_rate".into(), Json::Num(r.samples.p95())),
                ("best_rate".into(), Json::Num(r.samples.best())),
                (
                    "median_cpi".into(),
                    Json::Num(r.samples.median_cycles_per_item()),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("name".into(), Json::Str(name.to_string())),
        ("unit".into(), Json::Str(unit.to_string())),
        ("rungs".into(), Json::Arr(rungs_json)),
        ("simd_vs_scalar".into(), Json::Arr(ratios_json)),
    ])
}

fn serve_config(pricer: PricerConfig, queue_capacity: usize) -> ServeConfig {
    ServeConfig {
        queue_capacity,
        max_delay: Duration::from_micros(500),
        max_batch: 4096,
        pricer,
        ..ServeConfig::default()
    }
}

fn peak_schedule(closed_rps: f64, quick: bool) -> PeakSearchConfig {
    PeakSearchConfig {
        // Start well under the closed-loop throughput so the first steps
        // establish a sustained floor before the search rides into shed.
        start_hz: (closed_rps * 0.25).max(200.0),
        growth: 1.7,
        max_steps: if quick { 5 } else { 8 },
        window_secs: if quick { 0.12 } else { 0.3 },
        seed: 0xBEA7,
    }
}

/// Closed-loop latency + open-loop peak for one request plane: `clients`
/// x `per_client` requests from `source` against a queue that covers
/// them all, then a peak search seeded from that throughput. `rung` is
/// the slug the plane is planned to serve on.
fn lane<S: RequestSource + ?Sized>(
    source: &S,
    rung: String,
    (clients, per_client): (usize, usize),
    pricer: PricerConfig,
    quick: bool,
) -> LaneStats {
    let server = Server::start(serve_config(pricer, clients * per_client));
    let closed = finbench_serve::run_load(
        &server,
        source,
        LoadMode::Closed {
            clients,
            requests_per_client: per_client,
        },
        0xC0FFEE,
        None,
    );
    let snap = server.shutdown();
    // Peak search against a realistically bounded queue: overload must
    // shed, not buffer forever.
    let peak = finbench_serve::find_peak_sustained(
        || Server::start(serve_config(pricer, 256)),
        source,
        &peak_schedule(closed.throughput, quick),
    );
    LaneStats {
        rung,
        closed,
        batch_fill: snap.mean_batch_fill(),
        flushes: snap.total_flushes(),
        peak,
    }
}

const ALLOC_BATCH: usize = 128;
const ALLOC_ITERS: usize = 64;

/// Allocations per batch iteration on the hot pricing paths. Zeros mean
/// either a genuinely allocation-free path or an uninstalled counting
/// allocator — the snapshot records which via `alloc_counter_active`.
///
/// Two families per kernel: the historical *allocating* lane (fresh
/// batch per iteration, the pre-`*_into` serve path) and a `_pooled`
/// lane that reuses one [`OptionScratch`] across iterations the way a serve
/// lane does at steady state. The pooled SOA lanes must report **0**
/// allocs/iter ([`crate::gate::snapshot`]).
fn alloc_lanes(pricer: PricerConfig) -> Vec<AllocLane> {
    let mut stream = finbench_serve::OptionStream::new(0xA110C);
    let opts: Vec<(f64, f64, f64)> = (0..ALLOC_BATCH).map(|_| stream.next_option()).collect();
    let mut out = Vec::new();
    let mut lane = |lane: &str, rung: &str, per_iter: &mut dyn FnMut()| {
        for _ in 0..4 {
            per_iter(); // warmup: lazy statics, pool spin-up
        }
        let before = telemetry::alloc_stats();
        for _ in 0..ALLOC_ITERS {
            per_iter();
        }
        let d = telemetry::alloc_stats().since(before);
        out.push(AllocLane {
            lane: lane.to_string(),
            rung: rung.to_string(),
            batch: ALLOC_BATCH,
            iters: ALLOC_ITERS,
            allocs_per_iter: d.allocs as f64 / ALLOC_ITERS as f64,
            bytes_per_iter: d.bytes as f64 / ALLOC_ITERS as f64,
        });
    };
    // A lane's steady state: the flush staged into one reused scratch.
    let stage = |scratch: &mut OptionScratch, width: usize| {
        scratch.opts.clear();
        scratch.opts.extend_from_slice(&opts);
        scratch.stage(width);
    };
    for kernel in ["black_scholes", "binomial"] {
        let Ok(rung) = finbench_serve::pricer::resolve(native::engine(), kernel, &pricer) else {
            continue;
        };
        lane(kernel, &rung.slug, &mut || {
            let mut batch = finbench_core::OptionBatchSoa::zeroed(0);
            padded_batch_into(&mut batch, &opts, rung.width);
            rung.price(&mut batch);
            std::hint::black_box(&batch);
        });
        // Pooled Black-Scholes: the steady-state serve price path (binomial
        // is excluded — its lattice kernel allocates internally by design).
        if kernel == "black_scholes" {
            let mut scratch = OptionScratch::new();
            lane("black_scholes_pooled", &rung.slug, &mut || {
                stage(&mut scratch, rung.width);
                rung.price(&mut scratch.soa);
                std::hint::black_box(&scratch.soa);
            });
        }
    }
    if let Some(rung) = finbench_serve::greeks_ladder(pricer.market).first() {
        lane("greeks", &rung.slug, &mut || {
            let mut batch = finbench_core::OptionBatchSoa::zeroed(0);
            padded_batch_into(&mut batch, &opts, rung.width);
            let mut greeks = GreeksBatchSoa::zeroed(batch.len());
            rung.compute(&batch, &mut greeks);
            std::hint::black_box(&greeks);
        });
        // Pooled greeks: the steady-state serve greeks path.
        let mut scratch = OptionScratch::new();
        lane("greeks_pooled", &rung.slug, &mut || {
            stage(&mut scratch, rung.width);
            scratch.greeks.resize(scratch.soa.len());
            rung.compute(&scratch.soa, &mut scratch.greeks);
            std::hint::black_box(&scratch.greeks);
        });
    }
    // Pooled fused pass: prices + all ten greeks in one sweep over the
    // same reused scratch — the cheapest way to serve both planes.
    let mut scratch = OptionScratch::new();
    let fused = "advanced_fused_price_greeks_w_8";
    lane("fused_pooled", fused, &mut || {
        stage(&mut scratch, 8);
        scratch.greeks.resize(scratch.soa.len());
        let (soa, greeks) = (&mut scratch.soa, &mut scratch.greeks);
        finbench_core::greeks::price_and_greeks_into::<8>(soa, pricer.market, greeks);
        std::hint::black_box(&scratch.greeks);
    });
    out
}

/// Each counter of `after` less its count in `before` (0 for a name
/// first seen since), sorted by name: what the work between the two
/// snapshots counted. A name the work did not touch reads 0.
fn counter_deltas(before: &[(String, u64)], after: Vec<(String, u64)>) -> Vec<(String, u64)> {
    let prior: BTreeMap<&str, u64> = before.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let mut out: Vec<(String, u64)> = after
        .into_iter()
        .map(|(k, v)| {
            let d = v - prior.get(k.as_str()).unwrap_or(&0);
            (k, d)
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

fn assemble_json(
    opts: &BenchReportOptions,
    trials: usize,
    kernels: Vec<Json>,
    lanes: &[LaneStats],
    allocs: &[AllocLane],
    counters: &[(String, u64)],
) -> Json {
    let lanes_json: Vec<Json> = lanes
        .iter()
        .map(|l| {
            let c = &l.closed;
            let other_rejected = c.rejected_total() + c.invalid_input + c.internal;
            Json::Obj(vec![
                ("lane".into(), Json::Str(c.kernel.clone())),
                ("rung".into(), Json::Str(l.rung.clone())),
                ("offered".into(), Json::Num(c.offered as f64)),
                ("served".into(), Json::Num(c.served as f64)),
                ("shed".into(), Json::Num(c.total_shed() as f64)),
                ("other_rejected".into(), Json::Num(other_rejected as f64)),
                ("throughput_rps".into(), Json::Num(c.throughput)),
                ("p50_us".into(), Json::Num(c.p50_us)),
                ("p95_us".into(), Json::Num(c.p95_us)),
                ("p99_us".into(), Json::Num(c.p99_us)),
                ("batch_fill_mean".into(), Json::Num(l.batch_fill)),
                ("flush_size".into(), Json::Num(l.flushes.size as f64)),
                ("flush_delay".into(), Json::Num(l.flushes.delay as f64)),
                ("flush_idle".into(), Json::Num(l.flushes.idle as f64)),
                ("flush_drain".into(), Json::Num(l.flushes.drain as f64)),
                ("peak_sustained_hz".into(), Json::Num(l.peak.sustained_hz())),
                (
                    "peak_last_attempted_hz".into(),
                    Json::Num(l.peak.last_attempted_hz),
                ),
                ("peak_steps".into(), Json::Num(l.peak.steps.len() as f64)),
            ])
        })
        .collect();
    let allocs_json: Vec<Json> = allocs
        .iter()
        .map(|a| {
            Json::Obj(vec![
                ("lane".into(), Json::Str(a.lane.clone())),
                ("rung".into(), Json::Str(a.rung.clone())),
                ("batch".into(), Json::Num(a.batch as f64)),
                ("iters".into(), Json::Num(a.iters as f64)),
                ("allocs_per_iter".into(), Json::Num(a.allocs_per_iter)),
                ("bytes_per_iter".into(), Json::Num(a.bytes_per_iter)),
            ])
        })
        .collect();
    let counters_json: Vec<(String, Json)> = counters
        .iter()
        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
        .collect();
    Json::Obj(vec![
        (
            "schema_version".into(),
            Json::Num(BENCH_SCHEMA_VERSION as f64),
        ),
        ("tool".into(), Json::Str("finbench bench-report".into())),
        ("quick".into(), Json::Bool(opts.quick)),
        ("trials".into(), Json::Num(trials as f64)),
        (
            "cycle_source".into(),
            Json::Str(telemetry::cycles::cycle_source().into()),
        ),
        ("tsc_ghz".into(), Json::Num(telemetry::cycles::tsc_ghz())),
        (
            "cycle_overhead".into(),
            Json::Num(telemetry::cycles::overhead_cycles()),
        ),
        (
            "alloc_counter_active".into(),
            Json::Bool(telemetry::counting_allocator_active()),
        ),
        ("host".into(), HostFingerprint::current().to_json()),
        ("kernels".into(), Json::Arr(kernels)),
        ("serve".into(), Json::Arr(lanes_json)),
        ("allocs".into(), Json::Arr(allocs_json)),
        ("counters".into(), Json::Obj(counters_json)),
    ])
}

/// The machine a snapshot was taken on. Rates are only comparable
/// between identical hosts; `bench-compare` downgrades gated metrics to
/// advisory when fingerprints differ.
#[derive(Debug, Clone, PartialEq)]
pub struct HostFingerprint {
    /// CPU model string (`/proc/cpuinfo` "model name"; "unknown" when
    /// unavailable).
    pub cpu_model: String,
    /// Logical core count.
    pub logical_cores: u64,
    /// Calibrated TSC frequency, GHz.
    pub tsc_ghz: f64,
    /// The ISA tier the sweeps were instantiated for ([`Isa::name`]).
    /// Snapshots that predate run-time dispatch load as `"portable"`,
    /// which is what those builds ran.
    pub isa: String,
}

impl HostFingerprint {
    /// Fingerprint of the machine running this process.
    pub fn current() -> Self {
        Self {
            cpu_model: cpu_model_string(),
            logical_cores: finbench_parallel::available_parallelism() as u64,
            tsc_ghz: telemetry::cycles::tsc_ghz(),
            isa: Isa::active().name().to_string(),
        }
    }

    /// Whether two fingerprints describe different machines: model, core
    /// count or ISA tier differs (the same part running a different
    /// instantiation of every sweep is a different machine as far as
    /// rates go), or the calibrated TSC differs by more than 5%
    /// (calibration wobbles a little between boots; a different part
    /// doesn't).
    pub fn differs_from(&self, other: &Self) -> bool {
        if self.cpu_model != other.cpu_model
            || self.logical_cores != other.logical_cores
            || self.isa != other.isa
        {
            return true;
        }
        let base = self.tsc_ghz.abs().max(1e-9);
        (self.tsc_ghz - other.tsc_ghz).abs() / base > 0.05
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cpu_model".into(), Json::Str(self.cpu_model.clone())),
            ("logical_cores".into(), Json::Num(self.logical_cores as f64)),
            ("tsc_ghz".into(), Json::Num(self.tsc_ghz)),
            ("isa".into(), Json::Str(self.isa.clone())),
        ])
    }
}

impl std::fmt::Display for HostFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} × {} @ {:.2} GHz, isa {}",
            self.logical_cores, self.cpu_model, self.tsc_ghz, self.isa
        )
    }
}

/// First `model name` line of `/proc/cpuinfo` (Linux); "unknown"
/// elsewhere or when the file is unreadable.
fn cpu_model_string() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Next free `BENCH_<n>.json` in `dir`: one past the highest committed
/// trajectory point.
pub fn next_bench_path(dir: &Path) -> PathBuf {
    let max_n = bench_snapshots(dir).last().map_or(0, |(n, _)| *n);
    dir.join(format!("BENCH_{}.json", max_n + 1))
}

// ---------------------------------------------------------------------------
// bench-compare
// ---------------------------------------------------------------------------

/// Typed failure modes of snapshot loading/comparison — never a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum CompareError {
    /// The file couldn't be read.
    Io {
        /// Offending path.
        path: String,
        /// OS error text.
        msg: String,
    },
    /// The file isn't valid JSON.
    Parse {
        /// Offending path.
        path: String,
        /// Parser error text.
        msg: String,
    },
    /// The snapshot declares a schema version this binary doesn't know
    /// (or none at all).
    UnknownSchema {
        /// Offending path.
        path: String,
        /// What the file declared (`"missing"` when absent).
        found: String,
        /// The version this binary supports.
        supported: u64,
    },
    /// The snapshot parses but doesn't have the expected shape, or the
    /// two snapshots aren't comparable (quick vs. full).
    Malformed {
        /// Offending path (or both, for comparability errors).
        path: String,
        /// What was wrong.
        what: String,
    },
}

impl std::fmt::Display for CompareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompareError::Io { path, msg } => write!(f, "{path}: {msg}"),
            CompareError::Parse { path, msg } => write!(f, "{path}: invalid JSON: {msg}"),
            CompareError::UnknownSchema {
                path,
                found,
                supported,
            } => write!(
                f,
                "{path}: unknown schema_version {found} (this binary supports {supported})"
            ),
            CompareError::Malformed { path, what } => write!(f, "{path}: {what}"),
        }
    }
}

impl std::error::Error for CompareError {}

/// One comparable scalar extracted from a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted metric path, e.g. `native.black_scholes.simd_soa_w_8.median_rate`.
    pub path: String,
    /// The value.
    pub value: f64,
    /// Gated metrics fail CI on a harmful move beyond threshold;
    /// advisory metrics only report.
    pub gated: bool,
    /// Direction of "good".
    pub higher_is_better: bool,
    /// Minimum harmful delta that counts, in metric units — lets
    /// count-like metrics sitting at 0 gate on "any increase" while
    /// ignoring float dust.
    pub abs_floor: f64,
}

/// A loaded, flattened snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// Whether the snapshot was taken in `--quick` mode.
    pub quick: bool,
    /// The machine the snapshot was taken on (absent in snapshots
    /// predating the fingerprint field).
    pub host: Option<HostFingerprint>,
    /// All comparable metrics, document order.
    pub metrics: Vec<Metric>,
}

/// Load and flatten one `BENCH_<n>.json`.
pub fn load_bench(path: &Path) -> Result<BenchDoc, CompareError> {
    let label = path.display().to_string();
    let text = std::fs::read_to_string(path).map_err(|e| CompareError::Io {
        path: label.clone(),
        msg: e.to_string(),
    })?;
    let doc = json::parse(&text).map_err(|e| CompareError::Parse {
        path: label.clone(),
        msg: e,
    })?;
    flatten(&doc, &label)
}

/// `obj[field]`, when it is a number, as the metric `{base}.{field}`.
fn metric(
    obj: &Json,
    base: &str,
    field: &str,
    gated: bool,
    higher: bool,
    floor: f64,
) -> Option<Metric> {
    Some(Metric {
        path: format!("{base}.{field}"),
        value: obj.get(field)?.as_f64()?,
        gated,
        higher_is_better: higher,
        abs_floor: floor,
    })
}

pub(crate) fn flatten(doc: &Json, label: &str) -> Result<BenchDoc, CompareError> {
    match doc.get("schema_version") {
        Some(Json::Num(v)) if *v == BENCH_SCHEMA_VERSION as f64 => {}
        Some(other) => {
            return Err(CompareError::UnknownSchema {
                path: label.to_string(),
                found: other.to_json(),
                supported: BENCH_SCHEMA_VERSION,
            })
        }
        None => {
            return Err(CompareError::UnknownSchema {
                path: label.to_string(),
                found: "missing".to_string(),
                supported: BENCH_SCHEMA_VERSION,
            })
        }
    }
    let quick = matches!(doc.get("quick"), Some(Json::Bool(true)));
    let host = doc.get("host").map(|h| HostFingerprint {
        cpu_model: h
            .get("cpu_model")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string(),
        logical_cores: h.get("logical_cores").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        tsc_ghz: h.get("tsc_ghz").and_then(Json::as_f64).unwrap_or(0.0),
        isa: h
            .get("isa")
            .and_then(Json::as_str)
            .unwrap_or(Isa::Portable.name())
            .to_string(),
    });
    let mut metrics = Vec::new();

    let arr = |key: &str| -> Result<&[Json], CompareError> {
        match doc.get(key) {
            Some(Json::Arr(items)) => Ok(items),
            _ => Err(CompareError::Malformed {
                path: label.to_string(),
                what: format!("missing or non-array {key:?} section"),
            }),
        }
    };
    let str_of = |obj: &Json, key: &str| -> Result<String, CompareError> {
        obj.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| CompareError::Malformed {
                path: label.to_string(),
                what: format!("entry missing string {key:?}"),
            })
    };

    for kernel in arr("kernels")? {
        let name = str_of(kernel, "name")?;
        let Some(Json::Arr(rungs)) = kernel.get("rungs") else {
            return Err(CompareError::Malformed {
                path: label.to_string(),
                what: format!("kernel {name:?} has no rungs array"),
            });
        };
        for rung in rungs {
            let slug = str_of(rung, "slug")?;
            let threaded = matches!(rung.get("threaded"), Some(Json::Bool(true)));
            let base = format!("native.{name}.{slug}");
            let mut push = |field: &str, gated: bool, higher: bool| {
                metrics.extend(metric(rung, &base, field, gated, higher, 0.0));
            };
            // Thread-pool rungs wobble with scheduler load; advisory.
            push("median_rate", !threaded, true);
            push("p95_rate", false, true);
            push("best_rate", false, true);
            push("median_cpi", false, false);
        }
        // A SIMD-labelled rung's rate over its scalar sibling's under the
        // active tier (absent before the snapshots carried it): advisory.
        if let Some(Json::Arr(ratios)) = kernel.get("simd_vs_scalar") {
            for ratio in ratios {
                let base = format!("simd.{name}.{}", str_of(ratio, "slug")?);
                metrics.extend(metric(ratio, &base, "active", false, true, 0.0));
            }
        }
    }

    for lane in arr("serve")? {
        let name = str_of(lane, "lane")?;
        let base = format!("serve.{name}");
        let mut push = |field: &str, gated: bool, higher: bool, floor: f64| {
            metrics.extend(metric(lane, &base, field, gated, higher, floor));
        };
        // A closed-loop lane with ample queue must not shed at all: any
        // increase (floor 0.5 ⇒ ≥ 1 whole request) is a gated regression.
        push("shed", true, false, 0.5);
        push("other_rejected", true, false, 0.5);
        push("throughput_rps", false, true, 0.0);
        push("p50_us", false, false, 0.0);
        push("p95_us", false, false, 0.0);
        push("p99_us", false, false, 0.0);
        push("peak_sustained_hz", false, true, 0.0);
    }

    for lane in arr("allocs")? {
        let name = str_of(lane, "lane")?;
        let base = format!("allocs.{name}");
        let mut push = |field: &str, gated: bool, floor: f64| {
            metrics.extend(metric(lane, &base, field, gated, false, floor));
        };
        // Floor of 4 allocs/iter on the allocating lanes: the hot path
        // gate triggers on real regressions (a new Vec per batch = +1.0),
        // not allocator jitter around tiny counts. Pooled lanes promise
        // exactly zero, so any allocation at all (≥ 1/iter) is gated.
        let floor = if name.ends_with("_pooled") { 0.5 } else { 4.0 };
        push("allocs_per_iter", true, floor);
        push("bytes_per_iter", false, 0.0);
    }

    if let Some(Json::Obj(counters)) = doc.get("counters") {
        for (name, v) in counters {
            let Some(v) = v.as_f64() else { continue };
            // Only failure-ish counters are comparable (advisory): raw
            // served/offered totals scale with sweep size, not health.
            let failure_ish = [
                "shed",
                "degraded",
                "restart",
                "internal",
                "unmatched",
                "rejected",
            ]
            .iter()
            .any(|s| name.contains(s));
            if failure_ish {
                metrics.push(Metric {
                    path: format!("counters.{name}"),
                    value: v,
                    gated: false,
                    higher_is_better: false,
                    abs_floor: 0.5,
                });
            }
        }
    }

    Ok(BenchDoc {
        quick,
        host,
        metrics,
    })
}

/// One metric's old-vs-new delta.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Dotted metric path.
    pub path: String,
    /// Baseline value.
    pub old: f64,
    /// Candidate value.
    pub new: f64,
    /// Signed relative change, percent (NaN when old == 0).
    pub pct: f64,
    /// Whether this metric is gated.
    pub gated: bool,
    /// Gated and harmfully past threshold.
    pub regressed: bool,
    /// Beneficially past threshold (any metric).
    pub improved: bool,
}

/// A finished comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareReport {
    /// Per-metric deltas for paths present in both snapshots, baseline
    /// order.
    pub deltas: Vec<Delta>,
    /// Paths only in the candidate.
    pub added: Vec<String>,
    /// Paths only in the baseline.
    pub removed: Vec<String>,
    /// The noise threshold used, percent.
    pub threshold_pct: f64,
    /// Printed warning when the snapshots came from different machines
    /// and gated metrics were downgraded to advisory.
    pub note: Option<String>,
}

impl CompareReport {
    /// Number of gated regressions (CI fails when > 0).
    pub fn gated_regressions(&self) -> usize {
        self.deltas.iter().filter(|d| d.regressed).count()
    }

    /// Render the delta table: every gated metric, plus advisory metrics
    /// that moved past the threshold, plus a summary.
    pub fn render(&self) -> String {
        let mut rows = Vec::new();
        for d in &self.deltas {
            if !d.gated && !d.regressed && !d.improved {
                continue;
            }
            let status = if d.regressed {
                "REGRESSED"
            } else if d.improved {
                "improved"
            } else {
                "ok"
            };
            let pct = if d.pct.is_nan() {
                "n/a".to_string()
            } else {
                format!("{:+.1}%", d.pct)
            };
            rows.push(vec![
                d.path.clone(),
                fmt_num(d.old),
                fmt_num(d.new),
                pct,
                (if d.gated { "gated" } else { "advisory" }).to_string(),
                status.to_string(),
            ]);
        }
        let mut out = String::new();
        if let Some(note) = &self.note {
            out.push_str(&format!("  warning: {note}\n"));
        }
        out.push_str(&table(
            &["metric", "old", "new", "delta", "class", "status"],
            &rows,
        ));
        if !self.added.is_empty() || !self.removed.is_empty() {
            out.push_str(&format!(
                "  metrics added: {}, removed: {}\n",
                self.added.len(),
                self.removed.len()
            ));
        }
        out.push_str(&format!(
            "  gated regressions: {} (threshold {:.1}%)\n",
            self.gated_regressions(),
            self.threshold_pct
        ));
        out
    }
}

/// Compare two flattened metric sets. A gated metric regresses when its
/// harmful delta exceeds `max(threshold% × |old|, abs_floor)`.
pub fn compare_metrics(old: &[Metric], new: &[Metric], threshold_pct: f64) -> CompareReport {
    let new_by_path: BTreeMap<&str, &Metric> = new.iter().map(|m| (m.path.as_str(), m)).collect();
    let old_paths: std::collections::BTreeSet<&str> = old.iter().map(|m| m.path.as_str()).collect();
    let mut deltas = Vec::new();
    for o in old {
        let Some(n) = new_by_path.get(o.path.as_str()) else {
            continue;
        };
        let harmful = if o.higher_is_better {
            o.value - n.value
        } else {
            n.value - o.value
        };
        let allowed = (threshold_pct / 100.0 * o.value.abs()).max(o.abs_floor);
        let pct = if o.value == 0.0 {
            f64::NAN
        } else {
            (n.value - o.value) / o.value.abs() * 100.0
        };
        deltas.push(Delta {
            path: o.path.clone(),
            old: o.value,
            new: n.value,
            pct,
            gated: o.gated,
            regressed: o.gated && harmful > allowed,
            improved: harmful < -allowed,
        });
    }
    CompareReport {
        deltas,
        added: new
            .iter()
            .filter(|m| !old_paths.contains(m.path.as_str()))
            .map(|m| m.path.clone())
            .collect(),
        removed: old
            .iter()
            .filter(|m| !new_by_path.contains_key(m.path.as_str()))
            .map(|m| m.path.clone())
            .collect(),
        threshold_pct,
        note: None,
    }
}

/// Load two snapshots and compare. Quick and full snapshots are not
/// comparable (different workload sizes) — that's a typed error, not a
/// wall of bogus regressions.
pub fn bench_compare(
    old_path: &Path,
    new_path: &Path,
    threshold_pct: f64,
) -> Result<CompareReport, CompareError> {
    let old = load_bench(old_path)?;
    let new = load_bench(new_path)?;
    if old.quick != new.quick {
        return Err(CompareError::Malformed {
            path: format!("{} vs {}", old_path.display(), new_path.display()),
            what: format!(
                "mode mismatch: baseline quick={}, candidate quick={} (re-run bench-report with matching --quick)",
                old.quick, new.quick
            ),
        });
    }
    // Rates from different machines don't gate: downgrade every gated
    // metric to advisory and say so. A missing fingerprint (pre-schema
    // snapshot) keeps the gate armed — same-host is the safe assumption
    // for a trajectory committed to one repo.
    let mut old_metrics = old.metrics;
    let mut note = None;
    if let (Some(a), Some(b)) = (&old.host, &new.host) {
        if a.differs_from(b) {
            for m in &mut old_metrics {
                m.gated = false;
            }
            note = Some(format!(
                "host fingerprint mismatch (baseline: {a}; candidate: {b}); \
                 gated metrics downgraded to advisory"
            ));
        }
    }
    let mut rep = compare_metrics(&old_metrics, &new.metrics, threshold_pct);
    rep.note = note;
    Ok(rep)
}

/// Degrade every gated metric of `doc` harmfully past `threshold_pct`.
fn degrade(metrics: &[Metric], threshold_pct: f64) -> Vec<Metric> {
    let rel = (2.0 * threshold_pct / 100.0).min(0.99);
    metrics
        .iter()
        .map(|m| {
            let mut out = m.clone();
            if m.gated {
                out.value = if m.higher_is_better {
                    m.value * (1.0 - rel)
                } else {
                    m.value * (1.0 + rel) + 2.0 * m.abs_floor + 1.0
                };
            }
            out
        })
        .collect()
}

/// The regression gate's own regression test: synthetically degrade
/// every gated metric of `snapshot` and verify the gate flags each one.
/// Returns `(flagged, gated_total, report)`; the gate is healthy iff
/// `flagged == gated_total > 0`.
pub fn gate_self_test(
    snapshot: &Path,
    threshold_pct: f64,
) -> Result<(usize, usize, CompareReport), CompareError> {
    let doc = load_bench(snapshot)?;
    let degraded = degrade(&doc.metrics, threshold_pct);
    let report = compare_metrics(&doc.metrics, &degraded, threshold_pct);
    let gated_total = doc.metrics.iter().filter(|m| m.gated).count();
    Ok((report.gated_regressions(), gated_total, report))
}

// ---------------------------------------------------------------------------
// bench-trend
// ---------------------------------------------------------------------------

/// All `BENCH_<n>.json` files in `dir`, ascending by `n`.
pub(crate) fn bench_snapshots(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut files = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(n) = name
                .strip_prefix("BENCH_")
                .and_then(|s| s.strip_suffix(".json"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                files.push((n, entry.path()));
            }
        }
    }
    files.sort_by_key(|(n, _)| *n);
    files
}

/// Render the gated-metric trajectory across every committed
/// `BENCH_<n>.json` in `dir`: one row per (metric, snapshot) with the
/// value and its delta against the previous snapshot carrying that
/// metric. Mixed quick/full trajectories are rendered with a mode column
/// (deltas across a mode switch reflect the workload change, not a
/// regression).
pub fn bench_trend(dir: &Path) -> Result<String, CompareError> {
    let files = bench_snapshots(dir);
    if files.is_empty() {
        return Err(CompareError::Malformed {
            path: dir.display().to_string(),
            what: "no BENCH_<n>.json snapshots found".to_string(),
        });
    }
    let mut snaps: Vec<(u64, BenchDoc)> = Vec::with_capacity(files.len());
    for (n, path) in &files {
        snaps.push((*n, load_bench(path)?));
    }
    // Gated metric paths in first-appearance order across the trajectory.
    let mut order: Vec<String> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (_, doc) in &snaps {
        for m in doc.metrics.iter().filter(|m| m.gated) {
            if seen.insert(m.path.clone()) {
                order.push(m.path.clone());
            }
        }
    }
    let mut rows = Vec::new();
    for path in &order {
        let mut prev: Option<f64> = None;
        for (n, doc) in &snaps {
            let Some(m) = doc.metrics.iter().find(|m| m.gated && &m.path == path) else {
                continue;
            };
            let delta = match prev {
                Some(p) if p != 0.0 => format!("{:+.1}%", (m.value - p) / p.abs() * 100.0),
                Some(p) => {
                    // From an exact zero (e.g. shed counts) percentages
                    // are meaningless; show the absolute move.
                    format!("{:+}", m.value - p)
                }
                None => "-".to_string(),
            };
            rows.push(vec![
                path.clone(),
                n.to_string(),
                (if doc.quick { "quick" } else { "full" }).to_string(),
                fmt_num(m.value),
                delta,
            ]);
            prev = Some(m.value);
        }
    }
    let mut out = section(&format!(
        "bench-trend ({} snapshots, {} gated metrics)",
        snaps.len(),
        order.len()
    ));
    out.push('\n');
    out.push_str(&table(&["metric", "n", "mode", "value", "delta"], &rows));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature but schema-complete snapshot document.
    fn sample_doc(quick: bool, rate: f64, shed: f64, allocs: f64) -> String {
        format!(
            r#"{{
              "schema_version": 1,
              "quick": {quick},
              "kernels": [
                {{"name": "black_scholes", "unit": "options/s", "rungs": [
                  {{"slug": "simd_w8", "threaded": false,
                    "median_rate": {rate}, "p95_rate": {rate}, "best_rate": {rate}, "median_cpi": 4.0}},
                  {{"slug": "threads", "threaded": true, "median_rate": 99.0}}
                ]}}
              ],
              "serve": [
                {{"lane": "black_scholes", "shed": {shed}, "other_rejected": 0,
                  "throughput_rps": 1000.0, "p50_us": 50.0, "p95_us": 80.0, "p99_us": 120.0,
                  "peak_sustained_hz": 2000.0}}
              ],
              "allocs": [
                {{"lane": "black_scholes", "allocs_per_iter": {allocs}, "bytes_per_iter": 4096.0}}
              ],
              "counters": {{"serve.shed.queue_full": {shed}, "serve.served": 600}}
            }}"#
        )
    }

    fn write_tmp(name: &str, text: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("finbench_report_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn flatten_classifies_gated_and_advisory() {
        let doc = json::parse(&sample_doc(true, 100.0, 0.0, 2.0)).unwrap();
        let bench = flatten(&doc, "x").unwrap();
        assert!(bench.quick);
        let by_path: BTreeMap<&str, &Metric> =
            bench.metrics.iter().map(|m| (m.path.as_str(), m)).collect();
        assert!(by_path["native.black_scholes.simd_w8.median_rate"].gated);
        assert!(!by_path["native.black_scholes.simd_w8.p95_rate"].gated);
        // Threaded rungs are advisory even on median.
        assert!(!by_path["native.black_scholes.threads.median_rate"].gated);
        assert!(by_path["serve.black_scholes.shed"].gated);
        assert!(!by_path["serve.black_scholes.p99_us"].gated);
        assert!(by_path["allocs.black_scholes.allocs_per_iter"].gated);
        // Only failure-ish counters flatten, advisory.
        assert!(!by_path["counters.serve.shed.queue_full"].gated);
        assert!(!by_path.contains_key("counters.serve.served"));
    }

    #[test]
    fn identical_snapshots_have_zero_gated_regressions() {
        let a = load_bench(&write_tmp(
            "ident_a.json",
            &sample_doc(true, 100.0, 0.0, 2.0),
        ))
        .unwrap();
        let report = compare_metrics(&a.metrics, &a.metrics, DEFAULT_THRESHOLD_PCT);
        assert_eq!(report.gated_regressions(), 0);
        assert!(report.added.is_empty() && report.removed.is_empty());
        assert!(report.render().contains("gated regressions: 0"));
    }

    #[test]
    fn noise_inside_threshold_does_not_gate() {
        let old = flatten(
            &json::parse(&sample_doc(true, 100.0, 0.0, 2.0)).unwrap(),
            "o",
        )
        .unwrap();
        let new = flatten(
            &json::parse(&sample_doc(true, 93.0, 0.0, 2.0)).unwrap(),
            "n",
        )
        .unwrap();
        let report = compare_metrics(&old.metrics, &new.metrics, 10.0);
        assert_eq!(report.gated_regressions(), 0, "{report:?}");
    }

    #[test]
    fn rate_drop_past_threshold_gates() {
        let old = flatten(
            &json::parse(&sample_doc(true, 100.0, 0.0, 2.0)).unwrap(),
            "o",
        )
        .unwrap();
        let new = flatten(
            &json::parse(&sample_doc(true, 80.0, 0.0, 2.0)).unwrap(),
            "n",
        )
        .unwrap();
        let report = compare_metrics(&old.metrics, &new.metrics, 10.0);
        assert_eq!(report.gated_regressions(), 1);
        let bad = report.deltas.iter().find(|d| d.regressed).unwrap();
        assert_eq!(bad.path, "native.black_scholes.simd_w8.median_rate");
        assert!(report.render().contains("REGRESSED"), "{}", report.render());
    }

    #[test]
    fn new_shed_gates_via_abs_floor_even_from_zero() {
        let old = flatten(
            &json::parse(&sample_doc(true, 100.0, 0.0, 2.0)).unwrap(),
            "o",
        )
        .unwrap();
        let new = flatten(
            &json::parse(&sample_doc(true, 100.0, 3.0, 2.0)).unwrap(),
            "n",
        )
        .unwrap();
        let report = compare_metrics(&old.metrics, &new.metrics, 10.0);
        assert!(report
            .deltas
            .iter()
            .any(|d| d.path == "serve.black_scholes.shed" && d.regressed));
    }

    #[test]
    fn alloc_jitter_under_floor_does_not_gate_but_real_growth_does() {
        let old = flatten(
            &json::parse(&sample_doc(true, 100.0, 0.0, 2.0)).unwrap(),
            "o",
        )
        .unwrap();
        // +3 allocs/iter is under the floor of 4: noise.
        let small = flatten(
            &json::parse(&sample_doc(true, 100.0, 0.0, 5.0)).unwrap(),
            "n",
        )
        .unwrap();
        assert_eq!(
            compare_metrics(&old.metrics, &small.metrics, 10.0).gated_regressions(),
            0
        );
        // +40 allocs/iter is a real hot-path regression.
        let big = flatten(
            &json::parse(&sample_doc(true, 100.0, 0.0, 42.0)).unwrap(),
            "n",
        )
        .unwrap();
        assert_eq!(
            compare_metrics(&old.metrics, &big.metrics, 10.0).gated_regressions(),
            1
        );
    }

    #[test]
    fn unknown_schema_version_is_a_typed_error() {
        let text = sample_doc(true, 100.0, 0.0, 2.0)
            .replace("\"schema_version\": 1", "\"schema_version\": 99");
        let err = load_bench(&write_tmp("schema99.json", &text)).unwrap_err();
        assert!(
            matches!(err, CompareError::UnknownSchema { ref found, supported, .. }
                if found == "99" && supported == BENCH_SCHEMA_VERSION),
            "{err:?}"
        );
        // Missing entirely is also UnknownSchema, not a panic.
        let text = sample_doc(true, 100.0, 0.0, 2.0).replace("\"schema_version\": 1,", "");
        let err = load_bench(&write_tmp("schema_none.json", &text)).unwrap_err();
        assert!(matches!(err, CompareError::UnknownSchema { ref found, .. } if found == "missing"));
    }

    #[test]
    fn io_and_parse_errors_are_typed() {
        let err = load_bench(Path::new("/nonexistent/bench.json")).unwrap_err();
        assert!(matches!(err, CompareError::Io { .. }), "{err:?}");
        let err = load_bench(&write_tmp("garbage.json", "{not json")).unwrap_err();
        assert!(matches!(err, CompareError::Parse { .. }), "{err:?}");
        let err = load_bench(&write_tmp("shapeless.json", "{\"schema_version\": 1}")).unwrap_err();
        assert!(matches!(err, CompareError::Malformed { .. }), "{err:?}");
    }

    #[test]
    fn quick_vs_full_snapshots_refuse_to_compare() {
        let q = write_tmp("mode_q.json", &sample_doc(true, 100.0, 0.0, 2.0));
        let f = write_tmp("mode_f.json", &sample_doc(false, 100.0, 0.0, 2.0));
        let err = bench_compare(&q, &f, 10.0).unwrap_err();
        assert!(
            matches!(err, CompareError::Malformed { ref what, .. } if what.contains("mode mismatch")),
            "{err:?}"
        );
        assert!(bench_compare(&q, &q, 10.0).is_ok());
    }

    #[test]
    fn self_test_flags_every_gated_metric() {
        let path = write_tmp("selftest.json", &sample_doc(true, 100.0, 0.0, 2.0));
        let (flagged, gated_total, report) = gate_self_test(&path, 10.0).unwrap();
        assert!(gated_total > 0);
        assert_eq!(flagged, gated_total, "{}", report.render());
        // And an un-degraded comparison stays clean at the same threshold.
        let doc = load_bench(&path).unwrap();
        assert_eq!(
            compare_metrics(&doc.metrics, &doc.metrics, 10.0).gated_regressions(),
            0
        );
    }

    #[test]
    fn added_and_removed_paths_are_reported_not_fatal() {
        let old = flatten(
            &json::parse(&sample_doc(true, 100.0, 0.0, 2.0)).unwrap(),
            "o",
        )
        .unwrap();
        let mut new = old.clone();
        new.metrics.remove(0);
        new.metrics.push(Metric {
            path: "native.new_kernel.rung.median_rate".into(),
            value: 1.0,
            gated: true,
            higher_is_better: true,
            abs_floor: 0.0,
        });
        let report = compare_metrics(&old.metrics, &new.metrics, 10.0);
        assert_eq!(report.removed.len(), 1);
        assert_eq!(report.added.len(), 1);
        assert_eq!(report.gated_regressions(), 0);
    }

    /// Inject a host fingerprint into a [`sample_doc`] snapshot.
    fn with_host(doc: &str, model: &str, cores: u64, ghz: f64) -> String {
        doc.replacen(
            "\"quick\":",
            &format!(
                "\"host\": {{\"cpu_model\": \"{model}\", \"logical_cores\": {cores}, \
                 \"tsc_ghz\": {ghz}}},\n              \"quick\":"
            ),
            1,
        )
    }

    #[test]
    fn simd_ratios_pair_each_simd_rung_with_the_scalar_rung_before_it() {
        let rung = |label: &'static str, threaded: bool, rate: f64| RungSamples {
            slug: finbench_engine::slug(label),
            label,
            level: "basic",
            threaded,
            items: 1,
            samples: finbench_engine::Samples::from_rates(vec![rate]),
        };
        let active = [
            rung("Basic: scalar AOS reference", false, 1.0),
            rung("Intermediate: scalar SOA", false, 2.0),
            rung("Intermediate: SIMD SOA (W=4)", false, 5.0),
            rung("Advanced: VML-style batch", false, 3.0),
            rung("Advanced: erf + parity (W=8)", false, 8.0),
            rung("Advanced: SIMD + own-pool threads", true, 9.0),
        ];
        let mut portable = active.clone();
        portable[2].samples = finbench_engine::Samples::from_rates(vec![1.0]);
        let ratios = simd_ratios(&active, &portable);
        let got: Vec<_> = ratios
            .iter()
            .map(|r| (r.slug.as_str(), r.sibling.as_str(), r.active, r.portable))
            .collect();
        assert_eq!(
            got,
            [
                (
                    "intermediate_simd_soa_w_4",
                    "intermediate_scalar_soa",
                    2.5,
                    0.5
                ),
                (
                    "advanced_erf_parity_w_8",
                    "intermediate_scalar_soa",
                    4.0,
                    4.0
                ),
            ]
        );
        // A ladder with no scalar rung before its SIMD rung has no pairs.
        assert!(simd_ratios(&active[2..3], &active[2..3]).is_empty());
    }

    #[test]
    fn host_fingerprint_round_trips_and_detects_difference() {
        let doc = json::parse(&with_host(
            &sample_doc(true, 100.0, 0.0, 2.0),
            "Xeon E5-2670",
            32,
            2.6,
        ))
        .unwrap();
        let bench = flatten(&doc, "x").unwrap();
        let host = bench.host.expect("host fingerprint parsed");
        assert_eq!(host.cpu_model, "Xeon E5-2670");
        assert_eq!(host.logical_cores, 32);
        assert!(!host.differs_from(&host.clone()));
        // TSC wobble inside 5% is the same machine; beyond it isn't.
        let mut wobble = host.clone();
        wobble.tsc_ghz = 2.65;
        assert!(!host.differs_from(&wobble));
        wobble.tsc_ghz = 3.2;
        assert!(host.differs_from(&wobble));
        let mut other = host.clone();
        other.cpu_model = "Xeon Phi 7120".into();
        assert!(host.differs_from(&other));
        // A snapshot without an `isa` field predates dispatch: it ran the
        // portable instantiation, and the same part on another tier is a
        // different machine for rates.
        assert_eq!(host.isa, "portable");
        let mut dispatched = host.clone();
        dispatched.isa = "avx2+fma".into();
        assert!(host.differs_from(&dispatched));
        let round_trip = flatten(
            &json::parse(&sample_doc(true, 100.0, 0.0, 2.0).replacen(
                "\"quick\":",
                &format!("\"host\": {},\n\"quick\":", dispatched.to_json().to_json()),
                1,
            ))
            .unwrap(),
            "x",
        )
        .unwrap();
        assert_eq!(round_trip.host, Some(dispatched));
        // Pre-fingerprint snapshots load with no host at all.
        let legacy = flatten(
            &json::parse(&sample_doc(true, 100.0, 0.0, 2.0)).unwrap(),
            "x",
        )
        .unwrap();
        assert_eq!(legacy.host, None);
        // And the fingerprint of this machine is at least well-formed.
        let cur = HostFingerprint::current();
        assert!(!cur.cpu_model.is_empty());
    }

    #[test]
    fn fingerprint_mismatch_downgrades_gated_metrics_with_a_warning() {
        // A 20% rate drop that would normally gate...
        let old = write_tmp(
            "fp_old.json",
            &with_host(&sample_doc(true, 100.0, 0.0, 2.0), "Xeon E5-2670", 32, 2.6),
        );
        let new_other_host = write_tmp(
            "fp_new_other.json",
            &with_host(&sample_doc(true, 80.0, 0.0, 2.0), "Xeon Phi 7120", 244, 1.2),
        );
        let rep = bench_compare(&old, &new_other_host, 10.0).unwrap();
        assert_eq!(rep.gated_regressions(), 0, "{}", rep.render());
        let rendered = rep.render();
        assert!(rendered.contains("warning:"), "{rendered}");
        assert!(rendered.contains("fingerprint mismatch"), "{rendered}");
        // ...still gates on the same machine...
        let new_same_host = write_tmp(
            "fp_new_same.json",
            &with_host(&sample_doc(true, 80.0, 0.0, 2.0), "Xeon E5-2670", 32, 2.6),
        );
        let rep = bench_compare(&old, &new_same_host, 10.0).unwrap();
        assert_eq!(rep.gated_regressions(), 1);
        assert_eq!(rep.note, None);
        // ...and a missing baseline fingerprint keeps the gate armed, so
        // pre-fingerprint trajectory points don't lose their teeth.
        let legacy_old = write_tmp("fp_legacy.json", &sample_doc(true, 100.0, 0.0, 2.0));
        let rep = bench_compare(&legacy_old, &new_other_host, 10.0).unwrap();
        assert_eq!(rep.gated_regressions(), 1);
        assert_eq!(rep.note, None);
    }

    #[test]
    fn bench_trend_renders_per_metric_deltas_in_snapshot_order() {
        let dir = std::env::temp_dir().join("finbench_bench_trend");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(
            bench_trend(&dir).is_err(),
            "empty dir must be a typed error"
        );
        std::fs::write(dir.join("BENCH_1.json"), sample_doc(true, 100.0, 0.0, 2.0)).unwrap();
        std::fs::write(dir.join("BENCH_2.json"), sample_doc(true, 110.0, 0.0, 2.0)).unwrap();
        std::fs::write(dir.join("BENCH_10.json"), sample_doc(true, 99.0, 0.0, 2.0)).unwrap();
        let out = bench_trend(&dir).unwrap();
        assert!(out.contains("3 snapshots"), "{out}");
        assert!(
            out.contains("native.black_scholes.simd_w8.median_rate"),
            "{out}"
        );
        assert!(out.contains("+10.0%"), "{out}");
        assert!(out.contains("-10.0%"), "{out}");
        // Advisory metrics stay out of the trend table.
        assert!(!out.contains("p99_us"), "{out}");
        // A broken snapshot is a typed error, not a panic.
        std::fs::write(dir.join("BENCH_11.json"), "{nope").unwrap();
        assert!(matches!(bench_trend(&dir), Err(CompareError::Parse { .. })));
    }

    #[test]
    fn next_bench_path_increments_past_the_highest() {
        let dir = std::env::temp_dir().join("finbench_bench_numbering");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(next_bench_path(&dir), dir.join("BENCH_1.json"));
        std::fs::write(dir.join("BENCH_2.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_10.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_x.json"), "{}").unwrap();
        assert_eq!(next_bench_path(&dir), dir.join("BENCH_11.json"));
    }

    #[test]
    fn counter_deltas_keep_only_what_the_sweep_counted() {
        let named = |v: &[(&str, u64)]| -> Vec<(String, u64)> {
            v.iter().map(|(k, n)| (k.to_string(), *n)).collect()
        };
        let before = named(&[("serve.shed", 5), ("serve.served", 40)]);
        // Unsorted on purpose: the output is ordered by name regardless.
        let after = named(&[
            ("serve.shed", 5),
            ("loadgen.hedges", 3),
            ("serve.served", 52),
        ]);
        assert_eq!(
            counter_deltas(&before, after),
            named(&[
                ("loadgen.hedges", 3),
                ("serve.served", 12),
                ("serve.shed", 0)
            ])
        );
    }
}
