//! # finbench-simd
//!
//! Portable SIMD vector classes for the finbench suite — the Rust analog
//! of the `F64vec4`/`F64vec8` C++ classes the paper builds its
//! intermediate- and advanced-level kernels on (§III-B: "replacing scalar
//! types with C++ classes for SIMD operations ... the resulting code
//! appears practically identical to the scalar code").
//!
//! ## Design
//!
//! * [`F64v<N>`](F64v) is a `#[repr(transparent)]` wrapper over `[f64; N]`
//!   with infix operator overloads. Every lane loop is a fixed-trip-count,
//!   branch-free loop over `N` elements (`std::simd` is still unstable on
//!   stable rustc, so we own this substrate; see DESIGN.md).
//! * **One generic body, instantiated per ISA at run time.** What those
//!   lane loops compile to depends on the instruction set they are
//!   compiled *for*, and the workspace builds for baseline x86-64 (SSE2)
//!   so that one binary runs everywhere: there an `F64v<8>` is eight
//!   doubles through 2-lane `mulpd`, `floor` is a libm call (no
//!   `roundsd` before SSE4.1) and `mul_add` is a libm `fma` call —
//!   which is why the W=4/W=8 rungs used to trail their scalar siblings.
//!   [`isa`] fixes that without a build flag: every sweep is written once
//!   as an `#[inline(always)]` body, and [`isa::dispatch`] runs it inside a
//!   `#[target_feature]` wrapper for the tier detected on the host
//!   (AVX2+FMA or AVX-512), where the same loops become `ymm`/`zmm`
//!   arithmetic, `vroundpd` and `vfmadd`. The portable instantiation is
//!   the bit-exact oracle (`tests/isa_identity.rs`). `-C target-cpu` is
//!   deliberately not used: it forks the binary per host and changes what
//!   every snapshot measured.
//! * **A sweep must store what it computes.** An instantiation is only
//!   packed code if LLVM's SLP vectorizer turns the `[f64; N]` lane loops
//!   into vector operations, and SLP grows its trees from *stores* of
//!   adjacent lanes. A sweep whose results live only in register
//!   accumulators — a reduction such as Monte-Carlo's `v0 += payoff` —
//!   gives it no seed, and stays lane-at-a-time scalar code under every
//!   tier, `exp` chain included (331 scalar against 6 `zmm` operations in
//!   the AVX-512 instantiation, before). Anchor such a sweep with a store:
//!   write each block of results to a small stack buffer with
//!   [`F64v::store`], then reduce from the buffer in the original order —
//!   the bits do not change, the code does. `ci.sh` disassembles the
//!   release binary and fails when a listed sweep has fewer packed than
//!   scalar arithmetic instructions.
//! * **A sweep's dependency chain must be short enough to overlap.** A body
//!   that is one long chain per vector (the fused [`math::vinv_norm_cdf`]:
//!   ~250 cycles) runs at the chain's latency; cut into two sweeps over a
//!   cache-resident block ([`batch::vd_inv_norm_cdf_in_place`]) it ran 2.5×
//!   faster. Rare per-lane edge cases go behind a whole-vector branch, not
//!   into the blend, or SLP leaves lanes of the hot path scalar.
//! * [`F64vec4`]/[`F64vec8`] are the paper's two widths: 4 double lanes
//!   (SNB-EP, 256-bit AVX) and 8 double lanes (KNC, 512-bit). Kernels are
//!   generic over `N`, exactly as the paper swaps one class for the other
//!   between platforms. Their lane-wise arithmetic, comparisons into a
//!   [`Mask<N>`](Mask) and [`Mask::select`] blends are `finbench-math`'s
//!   [`Lanes`] trait, so [`math`] — the stand-in for Intel SVML — is that
//!   crate's one body per transcendental at width `N`. [`batch`] provides
//!   array-at-a-time entry points — the stand-in for Intel VML (larger
//!   cache footprint, amortized call overhead), letting the Black-Scholes
//!   experiment reproduce the paper's SVML-vs-VML comparison.
//! * Gather/scatter emulation ([`F64v::gather`], [`F64v::scatter`]) models
//!   the strided AOS accesses whose cost the paper's Fig. 4 analysis
//!   hinges on.

// Lane loops are written as explicit index loops over fixed-size arrays —
// the shape LLVM's auto-vectorizer handles most reliably — so the
// `needless_range_loop` suggestion (iterator zips) would actively hurt here.
#![allow(clippy::needless_range_loop)]

pub mod batch;
pub mod isa;
pub mod math;
pub mod vec;

pub use finbench_math::{LaneMask, Lanes};
pub use isa::Isa;
pub use vec::{F64v, F64vec4, F64vec8, Mask};
