//! # finbench-rng
//!
//! Random-number substrate for the finbench suite — the stand-in for the
//! Intel MKL generators the paper benchmarks in Table II ("We use the
//! Intel MKL Mersenne twister (2203 variant) as the basis for our random
//! number generation (this is ultimately transformed into the appropriate
//! normal distribution)").
//!
//! ## Substitution note (see DESIGN.md)
//!
//! MKL's MT2203 is a *family* of 6024 small Mersenne twisters whose
//! parameter sets come from the Dynamic Creator; those tables are not
//! recoverable from the paper. We preserve the two properties the
//! benchmark actually exercises:
//!
//! * a Mersenne-twister base generator — [`Mt19937`] and [`Mt19937_64`]
//!   implemented from scratch and validated against the canonical output
//!   vectors for seed 5489;
//! * many provably independent parallel streams — [`Philox4x32`], a
//!   counter-based generator (Salmon et al., SC 2011) where every
//!   `(key, counter)` pair is an independent 128-bit block, exposed
//!   through [`streams::StreamFamily`].
//!
//! Uniform doubles use the 53-bit mantissa construction; normal variates
//! come from the inverse-CDF transform (vectorizable, the MKL default for
//! this workload) or the Marsaglia polar method (branchy scalar baseline).
//!
//! ```
//! use finbench_rng::{Mt19937_64, RngCore64, normal::fill_standard_normal_icdf};
//! let mut rng = Mt19937_64::new(42);
//! let mut buf = vec![0.0; 1000];
//! fill_standard_normal_icdf(&mut rng, &mut buf);
//! let mean: f64 = buf.iter().sum::<f64>() / 1000.0;
//! assert!(mean.abs() < 0.2);
//! ```

pub mod mt19937;
pub mod mt19937_64;
pub mod normal;
pub mod philox;
pub mod quasi;
pub mod splitmix;
pub mod streams;
pub mod uniform;

pub use mt19937::Mt19937;
pub use mt19937_64::Mt19937_64;
pub use philox::Philox4x32;
pub use quasi::Halton;
pub use splitmix::SplitMix64;
pub use streams::StreamFamily;

/// The crate's generation tallies, one `Counter` handle per name: the
/// registry lookup is paid once per process, so a scenario grid's
/// one-stream-per-scenario draws cost relaxed atomics, not a lock and a
/// hash each.
pub mod counters {
    use finbench_telemetry::Counter;
    use std::sync::LazyLock;

    /// `rng.streams_created`: one per [`StreamFamily::stream`](crate::StreamFamily::stream).
    pub static STREAMS_CREATED: LazyLock<Counter> =
        LazyLock::new(|| Counter::named("rng.streams_created"));
    /// `rng.uniform_draws`: every double of a [`uniform`](crate::uniform) fill.
    pub static UNIFORM_DRAWS: LazyLock<Counter> =
        LazyLock::new(|| Counter::named("rng.uniform_draws"));
    /// `rng.normal_draws`: every variate of a [`normal`](crate::normal) fill.
    pub static NORMAL_DRAWS: LazyLock<Counter> =
        LazyLock::new(|| Counter::named("rng.normal_draws"));
}

/// Minimal core trait for the suite's 64-bit generators.
///
/// Everything above raw bits (uniform doubles, normal variates, batch
/// fills) is provided generically in [`uniform`] and [`normal`].
pub trait RngCore64 {
    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform double in `[0, 1)` with 53-bit resolution.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        uniform::u64_to_f64_co(self.next_u64())
    }

    /// Uniform double in the *open* interval `(0, 1)` — safe to pass to
    /// the inverse normal CDF.
    #[inline]
    fn next_f64_open(&mut self) -> f64 {
        uniform::u64_to_f64_oo(self.next_u64())
    }

    /// Fill `out` with `convert(self.next_u64())`, in order — the block
    /// primitive under the [`uniform`] fills. A generator that holds a
    /// block of state overrides it to sweep the block at once
    /// ([`Mt19937_64`] does); the values written and the state left behind
    /// must be exactly those of this per-element loop.
    fn fill_with<F: Fn(u64) -> f64>(&mut self, out: &mut [f64], convert: F) {
        for slot in out {
            *slot = convert(self.next_u64());
        }
    }
}
