//! # finbench
//!
//! A Rust reproduction of the SC 2012 financial-analytics benchmark
//! *"Analysis and Optimization of Financial Analytics Benchmark on Modern
//! Multi- and Many-core IA-Based Architectures"* (Smelyanskiy et al.):
//! six derivative-pricing kernels, each implemented at the paper's
//! basic/intermediate/advanced optimization levels, plus the architecture
//! models that regenerate every figure and table.
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! * [`math`] — scalar special functions (`exp`, `ln`, `erf`, normal CDF
//!   and its inverse) built from scratch, plus op-counting audit types.
//! * [`simd`] — the `F64vec4`/`F64vec8` vector classes and vectorized
//!   (SVML-style) + batch (VML-style) math.
//! * [`rng`] — MT19937(-64) and Philox4x32 generators, uniform/normal
//!   transforms, independent parallel streams.
//! * [`parallel`] — the chunk-dispenser thread pool.
//! * [`core`] — the kernels: Black-Scholes, binomial tree, Brownian
//!   bridge, Monte Carlo, Crank-Nicolson, and greeks/implied vol.
//! * [`machine`] — SNB-EP/KNC architecture models and the figure
//!   regeneration.
//! * [`engine`] — the unified pricing-engine plane: the `Kernel` trait,
//!   the type-erased registry, the generic measure/validate loops, and
//!   the cost-model-driven rung planner.
//! * [`serve`] — the batched pricing-request plane: typed requests, a
//!   bounded admission queue, dynamic micro-batching onto planner-chosen
//!   rungs, latency SLOs, synthetic load generation, and fault-tolerant
//!   lane supervision (circuit breakers + graceful rung degradation).
//! * [`faults`] — deterministic fault injection behind the chaos
//!   experiments: an owned `Faults` handle per server, armed with a
//!   `FaultPlan` built in code (panics, latency, input corruption, queue
//!   stalls, shard kills).
//! * [`harness`] — the experiment drivers behind the `finbench` CLI.
//! * [`telemetry`] — zero-dependency spans, counters, and histograms
//!   wired through the pool, RNG, serving plane and harness, always on.
//!
//! ## Quickstart
//!
//! ```
//! use finbench::core::black_scholes::price_single;
//! use finbench::core::workload::MarketParams;
//!
//! let market = MarketParams { r: 0.05, sigma: 0.2 };
//! let (call, put) = price_single(100.0, 100.0, 1.0, market);
//! assert!((call - 10.4505835).abs() < 1e-6);
//! assert!((put - 5.5735260).abs() < 1e-6);
//! ```

pub use finbench_core as core;
pub use finbench_engine as engine;
pub use finbench_faults as faults;
pub use finbench_harness as harness;
pub use finbench_machine as machine;
pub use finbench_math as math;
pub use finbench_parallel as parallel;
pub use finbench_rng as rng;
pub use finbench_serve as serve;
pub use finbench_simd as simd;
pub use finbench_telemetry as telemetry;
