//! # finbench-math
//!
//! Special-function substrate for the finbench derivative-pricing
//! benchmark suite (SC 2012, Smelyanskiy et al.).
//!
//! The paper's kernels lean on a small set of transcendental functions —
//! `exp`, `log`, `erf`, the cumulative normal distribution `cnd` and its
//! inverse — supplied there by Intel's SVML/MKL. This crate reimplements
//! them from scratch in pure Rust:
//!
//! * [`fn@exp`] — Cephes-style rational approximation after two-part
//!   `ln 2` range reduction.
//! * [`fn@ln`] — atanh-series evaluation after mantissa/exponent reduction.
//! * [`fn@erf`] — Maclaurin series near zero, `2·Φ(x√2) − 1` elsewhere.
//! * [`fn@norm_cdf`] / [`norm_pdf`] — double-precision cumulative normal
//!   (Hart 1968 rational approximation as popularized by West 2005).
//! * [`fn@inv_norm_cdf`] — Acklam's rational initial guess polished with a
//!   Halley step to near machine precision.
//!
//! `exp`, `ln`, `erf`, `norm_cdf` and `inv_norm_cdf` are each written
//! **once**, over the [`Lanes`] trait;
//! the functions here are its one-lane `f64` instance, `finbench-simd`'s
//! vector math its `F64v<N>` instance, and the op-count audit its
//! [`CountedF64`] instance — one body, so one set of bits.
//!
//! For the op-count audit of the machine model's cost descriptors,
//! [`Real`] is [`Lanes`] plus what only a scalar has, implemented by `f64`
//! and [`CountedF64`], an instrumented double that tallies every operation
//! into a thread-local [`OpCounts`]; [`counting_expanded`] also tallies the
//! arithmetic *inside* each `exp`/`ln`/`cnd`, the basis of the paper's
//! "~200 ops per Black-Scholes option" figure.

pub mod counted;
pub mod erf;
pub mod exp;
pub mod lanes;
pub mod log;
pub mod norm;
pub mod poly;
pub mod real;

pub use counted::{counting, counting_expanded, CountedF64, OpCounts};
pub use lanes::{LaneMask, Lanes};
pub use norm::{inv_norm_cdf_acklam, norm_pdf};
pub use real::Real;

/// `e^x`: the `f64` instance of [`exp::exp`].
#[inline(always)]
pub fn exp(x: f64) -> f64 {
    exp::exp(x)
}

/// `ln x`: the `f64` instance of [`log::ln`].
#[inline(always)]
pub fn ln(x: f64) -> f64 {
    log::ln(x)
}

/// `erf x`: the `f64` instance of [`erf::erf`].
#[inline(always)]
pub fn erf(x: f64) -> f64 {
    erf::erf(x)
}

/// `Φ(x)`, the paper's `cnd`: the `f64` instance of [`norm::norm_cdf`].
#[inline(always)]
pub fn norm_cdf(x: f64) -> f64 {
    norm::norm_cdf(x)
}

/// `Φ⁻¹(p)`: the `f64` instance of [`norm::inv_norm_cdf`].
#[inline(always)]
pub fn inv_norm_cdf(p: f64) -> f64 {
    norm::inv_norm_cdf(p)
}

/// `1/sqrt(2)`, used to map `cnd(x)` onto `erf` per the paper:
/// `cnd(x) = (1 + erf(x/sqrt(2)))/2`.
pub const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// `sqrt(2*pi)`; normalizing constant of the standard normal density.
pub const SQRT_2PI: f64 = 2.506_628_274_631_000_5;
