//! # finbench-parallel
//!
//! Thread-level parallelism substrate — the stand-in for the paper's
//! `#pragma omp parallel for` (§III-B lists OpenMP pragmas as a *basic*
//! optimization every kernel receives).
//!
//! The backend is a from-scratch dynamic scheduler
//! ([`parallel_for_chunks`], [`parallel_for_chunks2`]): scoped
//! `std::thread` workers pulling fixed-size chunks off a single
//! `AtomicUsize` work index (the textbook chunk-dispenser from *Rust
//! Atomics and Locks*). This matches OpenMP's `schedule(dynamic, chunk)`
//! semantics and keeps the dependency surface at zero — the whole
//! workspace builds offline. Both are typed wrappers over one private
//! dispatch body in [`pool`], the only place the crate starts a thread.
//! The team is *spawned per dispatch*, not parked (why the threaded
//! ladder rungs lose to one thread on 2 cores); a dispatch that fits one
//! chunk runs on the caller and allocates nothing.
//!
//! Scheduling must never change output bits: the kernels are
//! embarrassingly parallel across options/paths and each chunk writes
//! only its own elements, so results are identical for any worker count
//! (the equivalence tests assert this).
//!
//! Every dispatch reports to `finbench-telemetry`: per-worker chunk
//! tallies roll up into a load-imbalance figure
//! (`max_chunks_per_worker × workers / n_chunks`, 1.0 = perfectly even)
//! recorded as the `pool_imbalance` attribute on the caller's open span
//! and the `pool.last_imbalance` gauge, plus `pool.chunks` /
//! `pool.dispatches` counters — handles resolved once per process, so a
//! dispatch never looks a name up and pays relaxed atomics only.

pub mod pool;

pub use pool::{parallel_for_chunks, parallel_for_chunks2};

/// An execution policy no rung reads: a rung's threading is a property of
/// the rung. Kept only as the ignored argument of the engine's
/// `LadderSession::body`, which `benchmark/` calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPolicy {
    /// The crate's own chunk-dispenser pool with the given worker count
    /// (0 = one worker per available CPU).
    OwnPool(usize),
}

/// Number of CPUs the OS reports as available (≥ 1), **fixed at the first
/// call** — like an OpenMP team size, which the runtime sizes once. On
/// Linux `std::thread::available_parallelism` re-reads the cgroup files
/// every time (≈ 14 µs and 4 allocations; a served batch of 64 options is
/// 1.6 µs of pricing). A process that narrows its own affinity mask must
/// do so before the first call (`benchmark/` pins first in every child).
pub fn available_parallelism() -> usize {
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}
