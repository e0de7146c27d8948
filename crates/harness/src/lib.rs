//! # finbench-harness
//!
//! The experiment driver: one experiment per table/figure of the paper,
//! each rendering (a) the machine-model regeneration of the paper's bars
//! and (b) native measurements of this crate's real Rust kernels on the
//! build host.
//!
//! Run via the `finbench` binary:
//!
//! ```text
//! finbench run all                # every experiment
//! finbench run fig4 fig5          # specific artifacts
//! finbench run table2 --quick     # reduced native workload sizes
//! finbench run native             # native kernel ladders only
//! finbench run native --only rng  # just some kernels' ladders
//! finbench run audit              # dynamic op-count audit (paper Table III)
//! finbench run all --csv out/     # also write CSV series
//! finbench run all --json t.jsonl # export the telemetry trace as JSON lines
//! finbench run all --report       # print the telemetry span tree after the run
//! ```
//!
//! Every experiment runs inside a telemetry span (`experiment.<id>`), and
//! the native ladders open one child span per rung carrying the per-rep
//! throughput distribution — see `finbench_telemetry` and the `--json` /
//! `--report` flags. The native ladders themselves are driven by the
//! engine plane (`finbench_engine`): the kernel registry lives in
//! `finbench_core::engine`, and this crate contains no per-kernel rung
//! drivers.

pub mod cli;
pub mod experiments;
pub mod gate;
pub mod native;
pub mod render;
pub mod report;

use finbench_telemetry as telemetry;

/// Every harness process (the `finbench` binary and this crate's tests)
/// allocates through the counting allocator, so `bench-report` can put
/// allocations-per-batch numbers in the snapshot. The counters are two
/// relaxed atomics per call — noise next to a real `malloc`.
#[global_allocator]
static COUNTING_ALLOC: telemetry::CountingAlloc = telemetry::CountingAlloc;

/// Global run options.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOptions {
    /// Shrink native workloads (CI-friendly).
    pub quick: bool,
    /// Directory for CSV exports (none = skip).
    pub csv_dir: Option<String>,
    /// File for the JSON-lines telemetry export (none = skip).
    pub json: Option<String>,
    /// Print the telemetry span tree after the run.
    pub report: bool,
    /// Restrict `native` to these registry kernels (none = all).
    pub only: Option<Vec<String>>,
    /// Top of the serving-plane shard sweep (`serve_bench`): shard counts
    /// double 1, 2, … up to this value (none = mode default).
    pub shards: Option<usize>,
}

/// All experiment ids, in paper order (plus the op-count audit).
pub const EXPERIMENTS: &[&str] = &[
    "table1",
    "fig4",
    "fig5",
    "fig6",
    "table2",
    "fig8",
    "ninja",
    "qmc",
    "audit",
    "native",
    "serve_bench",
    "chaos_bench",
    "greeks_bench",
    "portfolio_bench",
];

/// Run one experiment by id; returns false for an unknown id.
///
/// Each run is wrapped in a telemetry span named `experiment.<id>`, so
/// ladder rungs executed inside nest under it in `--report` / `--json`
/// output.
pub fn run_experiment(id: &str, opts: &RunOptions) -> bool {
    if !EXPERIMENTS.contains(&id) {
        return false;
    }
    let _g = telemetry::span(format!("experiment.{id}"));
    match id {
        "table1" => experiments::table1(opts),
        "fig4" => experiments::fig4(opts),
        "fig5" => experiments::fig5(opts),
        "fig6" => experiments::fig6(opts),
        "table2" => experiments::table2(opts),
        "fig8" => experiments::fig8(opts),
        "ninja" => experiments::ninja(opts),
        "qmc" => experiments::qmc(opts),
        "audit" => experiments::audit(opts),
        "native" => experiments::native_all(opts),
        "serve_bench" => drop(experiments::serve_bench(opts)),
        "chaos_bench" => drop(experiments::chaos_bench(opts)),
        "greeks_bench" => drop(experiments::greeks_bench(opts)),
        "portfolio_bench" => drop(experiments::portfolio_bench(opts)),
        _ => unreachable!("id validated against EXPERIMENTS"),
    }
    true
}
