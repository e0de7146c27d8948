//! # finbench-math
//!
//! Scalar special-function substrate for the finbench derivative-pricing
//! benchmark suite (SC 2012, Smelyanskiy et al.).
//!
//! The paper's kernels lean on a small set of transcendental functions —
//! `exp`, `log`, `erf`, the cumulative normal distribution `cnd` and its
//! inverse — supplied there by Intel's SVML/MKL. This crate reimplements
//! them from scratch in pure Rust:
//!
//! * [`fn@exp`] — Cephes-style rational approximation after two-part
//!   `ln 2` range reduction.
//! * [`ln`] — atanh-series evaluation after mantissa/exponent reduction.
//! * [`fn@erf`] / [`erfc`] — Maclaurin series near zero, Hart/West rational
//!   form elsewhere.
//! * [`norm_cdf`] / [`norm_pdf`] — double-precision cumulative normal
//!   (Hart 1968 rational approximation as popularized by West 2005).
//! * [`inv_norm_cdf`] — Acklam's rational initial guess polished with a
//!   Halley step to near machine precision.
//! * [`sincos`] — Cody-Waite-reduced Taylor kernels (for Box-Muller).
//!
//! All kernels are **branch-light** by construction so the same algorithm
//! can be lifted lane-wise into the SIMD vector classes of `finbench-simd`
//! (the paper's `F64vec4`/`F64vec8`).
//!
//! The crate also provides the op-counting scaffolding used to audit the
//! machine model's cost descriptors:
//!
//! * [`Real`] — a scalar-arithmetic abstraction implemented by `f64` and
//!   by [`CountedF64`].
//! * [`CountedF64`] — an instrumented double that tallies every arithmetic
//!   and transcendental operation into a thread-local [`OpCounts`].
//! * [`counting_expanded`] — op counting with one-level transcendental
//!   expansion: the [`generic`] `*_r` kernels expose the polynomial
//!   arithmetic *inside* `exp`/`log`/`cnd`, the basis of the paper's
//!   "~200 ops per Black-Scholes option" figure.

pub mod counted;
pub mod erf;
pub mod exp;
pub mod generic;
pub mod log;
pub mod norm;
pub mod poly;
pub mod real;
pub mod trig;

pub use counted::{counting, counting_expanded, CountedF64, OpCounts};
pub use erf::{erf, erfc};
pub use exp::exp;
pub use generic::{erf_r, exp_r, inv_norm_cdf_r, ln_r, norm_cdf_r, polevl_r};
pub use log::ln;
pub use norm::{inv_norm_cdf, inv_norm_cdf_acklam, norm_cdf, norm_pdf};
pub use real::Real;
pub use trig::{cos, sin, sincos};

/// `1/sqrt(2)`, used to map `cnd(x)` onto `erf` per the paper:
/// `cnd(x) = (1 + erf(x/sqrt(2)))/2`.
pub const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// `sqrt(2*pi)`; normalizing constant of the standard normal density.
pub const SQRT_2PI: f64 = 2.506_628_274_631_000_5;
