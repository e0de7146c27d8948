//! # finbench-telemetry
//!
//! Zero-dependency tracing, metrics, and profiling for the finbench
//! workspace. Everything lives in-process and in-memory; exporters turn
//! the collected state into a human-readable tree or JSON lines.
//!
//! Four building blocks:
//!
//! - **Spans** ([`span`], [`set_attr`]): hierarchical RAII-timed regions.
//!   `let _g = telemetry::span("experiment.fig4");` opens a span that
//!   closes when the guard drops; nesting follows lexical scope per
//!   thread, and key/value attributes attach to the innermost open span.
//!   Finished spans land in a ring of [`SPAN_RING_CAPACITY`] records
//!   (newest win, evictions counted in `telemetry.spans_dropped`).
//! - **Counters and gauges**: named process-wide atomics, safe to bump
//!   from worker threads. Cold call sites go by name ([`counter_add`],
//!   [`gauge_set`]: a registry lock and a hash per call); a hot path
//!   resolves a [`Counter`] / [`Gauge`] handle once and then pays relaxed
//!   atomics only. A `Counter` also keeps the handle's *own* count beside
//!   the process-wide one, which is how one component reads its share of
//!   a name that several bump (see [`metrics`]).
//! - **Histograms** ([`Histogram`]): streaming log-bucketed distribution
//!   sketches (the serving plane's per-lane latency and occupancy).
//! - **Exporters** ([`render_tree`], [`to_jsonl`], [`write_jsonl`]): pull
//!   everything recorded so far out of the registries.
//!
//! Two measurement substrates ride along for the bench-report plane:
//! [`cycles`] (fenced RDTSC timestamps with calibrated overhead
//! subtraction, nanosecond fallback off x86_64) and [`alloc`] (a counting
//! global allocator binaries may install to get allocations-per-iteration
//! numbers).
//!
//! Instrumentation cost is governed by the `FINBENCH_LOG` environment
//! variable (see [`filter`]): every hot-path call first does one relaxed
//! atomic load and returns immediately when its signal class is filtered
//! out.

pub mod alloc;
pub mod cycles;
pub mod export;
pub mod filter;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod span;
pub mod stats;

pub use alloc::{alloc_stats, counting_allocator_active, AllocStats, CountingAlloc};
pub use export::{render_tree, span_to_json, to_jsonl, write_jsonl, JSONL_SCHEMA_VERSION};
pub use filter::{enabled, set_filter, Kind};
pub use hist::Histogram;
pub use metrics::{
    counter_add, counter_snapshot, counter_value, gauge_set, gauge_snapshot, gauge_value,
    reset_metrics, Counter, Gauge,
};
pub use span::{
    drain, set_attr, snapshot, span, AttrValue, SpanGuard, SpanRecord, SPAN_RING_CAPACITY,
};
pub use stats::{nearest_rank, nearest_rank_unsorted};
