//! # finbench-engine — the unified pricing-engine plane
//!
//! Everything the eight kernels have in common, factored into one
//! crate: the [`Kernel`] trait (a named paper artifact with a typed
//! workload, an optimization [ladder](Rung), and machine-model cost
//! descriptors), the type-erased [`Registry`] the harness and CLI iterate,
//! the [`Engine`]'s generic measure/validate loops, and the cost-model
//! driven [`Planner`] that picks a rung per kernel for the figures.
//!
//! The dependency direction is deliberate: this crate knows nothing about
//! the concrete kernels. `finbench-core` implements [`Kernel`] for each of
//! them in thin adapters, and `finbench-harness` drives the lot through
//! [`Engine::run_ladder_samples`] — no per-kernel driver functions anywhere.
//!
//! ```text
//!  finbench-machine ──► finbench-engine
//!        (cost model)        │    ▲
//!                            ▼    │ implements Kernel
//!                      finbench-core ◄── finbench-harness (drives Engine)
//! ```

pub mod engine;
pub mod error;
pub mod kernel;
pub mod planner;
pub mod registry;
pub mod slug;
pub mod timing;

pub use engine::{Engine, RungSamples};
pub use error::EngineError;
pub use kernel::{fn_body, Check, Kernel, OptLevel, Rung, RungBody, WorkloadSpec};
pub use planner::{Bound, Plan, Planner};
pub use registry::{AnyKernel, LadderSession, Registry, RungInfo};
pub use slug::{min_secs, slug};
pub use timing::{throughput_samples, Samples};
