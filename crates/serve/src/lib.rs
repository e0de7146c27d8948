//! # finbench-serve — the batched pricing-request plane
//!
//! Turns the workspace's batch-oriented pricing engine into a
//! request-oriented service: callers submit typed [`PriceRequest`]s one
//! option at a time; the server gathers them into dynamic micro-batches
//! shaped like the SOA workloads the paper's kernels want, prices each
//! batch on the [`Planner`](finbench_engine::Planner)-chosen ladder rung,
//! and scatters per-request [`PriceResponse`]s back.
//!
//! The pipeline, stage by stage:
//!
//! 1. **Admission** ([`queue`]) — a bounded queue; overflow answers a
//!    typed [`Rejected::QueueFull`] synchronously. Backpressure is
//!    explicit, never a silent drop.
//! 2. **Micro-batching** ([`batcher`]) — per-kernel accumulation with
//!    three flush triggers: a size trigger derived from the planner's
//!    predicted throughput, a `max_delay` bound on added latency, and an
//!    idle trigger that flushes as soon as the admission queue runs dry —
//!    so a lightly loaded server answers at the system's latency, and the
//!    timer only ever bounds a backlogged one.
//! 3. **Pricing** ([`pricer`]) — the most advanced *batch-safe* rung at
//!    or below the planned one, with batches padded to the SIMD width so
//!    every request's price is bit-identical to pricing it alone
//!    (verified by property tests). Every plane's degradation ladder is
//!    a `Vec<`[`Rung`]`<K>>`: slug, width, and a batch body of the
//!    plane's own signature.
//! 4. **Scatter-back** ([`server`]) — one response per request, with
//!    latency SLO enforcement ([`Rejected::DeadlineExceeded`]) and full
//!    telemetry (queue-depth gauge, occupancy + latency histograms, shed
//!    counters).
//!
//! The same plane also serves risk: [`GreeksRequest`]s ride the shared
//! admission queue into a dedicated [`greeks`] lane that computes all
//! five sensitivities for both contract sides on the analytic SIMD sweep
//! (W=8 → W=4 → scalar degradation ladder, every level bit-identical).
//! [`PortfolioRequest`]s go further: one request **fans out** scenario
//! chunks of a full-book revaluation across the live shards (riding
//! spill, steal, and redrive like any work item), and the last chunk to
//! land in the request's [`PortfolioFanIn`](portfolio::PortfolioFanIn)
//! stitches the partial P&L tallies back into VaR / expected-shortfall
//! summaries — bit-identical to a native single-threaded sweep, because
//! scenario grids are split-invariant and revaluation is padded
//! lane-wise ([`portfolio`]).
//!
//! All three request types are [`ServeRequest`]s: [`Server::submit`] is one
//! generic path (validate → route → reject), and each plane adds only how
//! its validated request becomes queued work.
//!
//! [`loadgen`] adds closed- and open-loop synthetic load, written once
//! over a [`RequestSource`] so every plane is driven, hedged, tallied and
//! peak-searched by the same code; the harness exposes it as the
//! `serve_bench` experiment (`finbench run serve_bench`), with the greeks
//! lane measured by `greeks_bench`.
//!
//! ## Fault tolerance
//!
//! The server survives its own kernels: batch execution runs under
//! `catch_unwind` with a per-lane [`Breaker`] supervising. Failures
//! first **degrade down the rung ladder** (serving a cheaper but still
//! bit-exact rung), and only open the breaker once the scalar reference
//! rung itself keeps failing; restarts probe half-open with capped
//! exponential backoff. Admission validates every request
//! ([`Rejected::InvalidInput`]) so NaN/Inf/negative parameters never
//! reach a SIMD lane, and the queue/stats mutexes recover from poison
//! instead of cascading one panic across threads. A
//! [`finbench_faults::Faults`] handle given to
//! [`Server::start_with_faults`] injects panics, latency, corruption,
//! queue stalls and shard kills at that server's compiled-in hook sites
//! for chaos testing — a plan is owned by the server that asked for it,
//! so two servers in one process never see each other's faults.
//!
//! The plane also survives losing whole workers: with
//! [`ServeConfig::respawn`] on, a killed shard's worker heals its own seat
//! after a capped exponential backoff — no monitor thread — and reports
//! per-seat MTTR; a kill's stranded
//! work is redriven at-most-once to a live sibling with its reply
//! intact; deadline sheds are split first-attempt vs
//! post-redrive; and [`loadgen`] can hedge slow closed-loop requests
//! client-side ([`HedgePolicy`], first-response-wins on [`HEDGE_BIT`]).

pub mod batcher;
pub mod breaker;
pub mod greeks;
pub mod ledger;
pub mod loadgen;
pub mod portfolio;
pub mod pricer;
pub mod queue;
pub mod request;
pub mod rung;
pub mod server;
mod shard;
pub mod workload;

pub use batcher::{target_batch, BatchPolicy, FlushCounts, FlushReason, MicroBatcher};
pub use breaker::{Breaker, BreakerPolicy, BreakerState, FailureAction, Gate};
pub use greeks::{greeks_ladder, GreeksKernel, GreeksRung};
pub use ledger::{PlaneSnapshot, PLANES};
pub use loadgen::{
    drive, find_peak_sustained, last_sustained_hz, mix_seed, run_load, search_peak, window_total,
    Driven, Exchange, GreeksSource, HedgePolicy, LoadMode, LoadReport, OptionStream, PeakReport,
    PeakSearchConfig, PeakStep, PortfolioSource, RequestSource, HEDGE_BIT, MAX_WINDOW_TOTAL,
};
pub use portfolio::{
    portfolio_ladder, PortfolioChunkOut, PortfolioChunkRequest, PortfolioRung, RevalKernel,
};
pub use pricer::{padded_batch_into, servable_ladder, PriceKernel, PricerConfig, ServingRung};
pub use queue::AdmissionQueue;
pub use request::{
    GreeksOut, GreeksRequest, GreeksResponse, PortfolioOut, PortfolioRequest, PortfolioResponse,
    PriceRequest, PriceResponse, Priced, Rejected, Response, ServeRequest, MAX_PORTFOLIO_PRICINGS,
};
pub use rung::Rung;
pub use server::{KernelSnapshot, ServeConfig, ServeSnapshot, Server, ShardSnapshot};
pub use workload::{
    GreeksWorkload, OptionScratch, PortfolioWorkload, PriceWorkload, ServeWorkload,
};
