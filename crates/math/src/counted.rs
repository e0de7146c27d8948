//! Operation-counting instrumented scalar.
//!
//! [`CountedF64`] behaves exactly like `f64` but tallies every arithmetic
//! and transcendental operation into a thread-local [`OpCounts`]. Running
//! the generic scalar kernels of `finbench-core` with it yields the *exact*
//! dynamic operation mix of each benchmark, which the machine-model tests
//! compare against the analytic cost formulas the paper reasons with
//! ("about 200 ops" per Black-Scholes option, `3·N(N+1)/2` flops per
//! binomial option, and so on).

use crate::lanes::Lanes;
use crate::real::Real;
use core::cell::Cell;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A tally of scalar operations, grouped the way the machine model charges
/// them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpCounts {
    /// Additions and subtractions (including negations).
    pub adds: u64,
    /// Multiplications.
    pub muls: u64,
    /// Divisions.
    pub divs: u64,
    /// Square roots.
    pub sqrts: u64,
    /// `exp` calls.
    pub exps: u64,
    /// `ln` calls.
    pub logs: u64,
    /// `erf` calls.
    pub erfs: u64,
    /// `norm_cdf` calls.
    pub cnds: u64,
    /// `max` / comparison-select operations.
    pub maxs: u64,
    /// Fused multiply-adds.
    pub fmas: u64,
}

impl OpCounts {
    /// Plain floating-point operations, counting an FMA as two flops and a
    /// max as one — the convention of the paper's flop formulas, which
    /// exclude transcendental interiors.
    pub fn flops(&self) -> u64 {
        self.adds + self.muls + self.divs + self.sqrts + self.maxs + 2 * self.fmas
    }

    /// Total operations including each transcendental counted as one call.
    pub fn total_with_transcendentals(&self) -> u64 {
        self.flops() + self.exps + self.logs + self.erfs + self.cnds
    }

    /// Transcendental call count.
    pub fn transcendentals(&self) -> u64 {
        self.exps + self.logs + self.erfs + self.cnds
    }
}

thread_local! {
    static COUNTS: Cell<OpCounts> = Cell::new(OpCounts::default());
    /// When true, each transcendental call runs its [`Lanes`] body on
    /// `CountedF64` so the *interior* polynomial arithmetic is tallied too.
    /// Expansion is one level deep: the flag is cleared while an interior
    /// runs, so transcendentals nested inside an interior (e.g. the Gaussian
    /// `exp` inside `norm_cdf`) are charged as single calls.
    static EXPAND: Cell<bool> = const { Cell::new(false) };
}

#[inline]
fn bump(f: impl FnOnce(&mut OpCounts)) {
    COUNTS.with(|c| {
        let mut v = c.get();
        f(&mut v);
        c.set(v);
    });
}

/// Reset the thread-local counters to zero.
pub fn reset_counts() {
    COUNTS.with(|c| c.set(OpCounts::default()));
}

/// Read the thread-local counters.
pub fn read_counts() -> OpCounts {
    COUNTS.with(|c| c.get())
}

/// Turn one-level transcendental expansion on or off for this thread
/// (see [`counting_expanded`]).
pub fn set_expand_transcendentals(on: bool) {
    EXPAND.with(|e| e.set(on));
}

/// Run `f` with fresh counters and return `(result, counts)`.
pub fn counting<T>(f: impl FnOnce() -> T) -> (T, OpCounts) {
    reset_counts();
    let out = f();
    (out, read_counts())
}

/// Like [`counting`], but with one-level transcendental expansion: each
/// `exp`/`ln`/`erf`/`norm_cdf` call is still tallied as a call *and* its
/// interior polynomial arithmetic lands in the flop counters. This is the
/// mode behind the paper's "~200 operations per Black-Scholes option"
/// figure, which counts the work inside the SVML-style kernels rather
/// than treating them as free.
pub fn counting_expanded<T>(f: impl FnOnce() -> T) -> (T, OpCounts) {
    set_expand_transcendentals(true);
    let out = counting(f);
    set_expand_transcendentals(false);
    out
}

/// One transcendental call on `x`: the `f64` instance of `body`, or —
/// expanding — its `CountedF64` instance with expansion suppressed, so
/// nested transcendentals count as single calls. Same body, same bits.
#[inline]
fn call(x: CountedF64, body: fn(CountedF64) -> CountedF64, plain: fn(f64) -> f64) -> CountedF64 {
    if !EXPAND.with(Cell::get) {
        return CountedF64(plain(x.0));
    }
    EXPAND.with(|e| e.set(false));
    let y = body(x);
    EXPAND.with(|e| e.set(true));
    y
}

/// An `f64` wrapper that records every operation performed on it.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct CountedF64(pub f64);

macro_rules! counted_op {
    ($trait:ident, $method:ident, $assign:ident, $assign_method:ident, $op:tt, $tally:ident) => {
        impl $trait for CountedF64 {
            type Output = Self;
            #[inline]
            #[allow(clippy::suspicious_arithmetic_impl)] // op *counter* increments
            fn $method(self, rhs: Self) -> Self {
                bump(|c| c.$tally += 1);
                Self(self.0 $op rhs.0)
            }
        }
        impl $trait<f64> for CountedF64 {
            type Output = Self;
            #[inline]
            fn $method(self, rhs: f64) -> Self {
                self $op Self(rhs)
            }
        }
        impl $assign for CountedF64 {
            #[inline]
            fn $assign_method(&mut self, rhs: Self) {
                *self = *self $op rhs;
            }
        }
    };
}

counted_op!(Add, add, AddAssign, add_assign, +, adds);
counted_op!(Sub, sub, SubAssign, sub_assign, -, adds);
counted_op!(Mul, mul, MulAssign, mul_assign, *, muls);
counted_op!(Div, div, DivAssign, div_assign, /, divs);

impl Neg for CountedF64 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        bump(|c| c.adds += 1);
        Self(-self.0)
    }
}

/// Arithmetic, `sqrt`, `max`, `abs` (as a max) and FMA are counted; masks,
/// selects, `floor` and the exponent-field operations are bookkeeping and
/// are not.
impl Lanes for CountedF64 {
    type Mask = bool;

    #[inline]
    fn splat(x: f64) -> Self {
        Self(x)
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        bump(|c| c.fmas += 1);
        Self(self.0.mul_add(a.0, b.0))
    }
    #[inline]
    fn floor(self) -> Self {
        Self(self.0.floor())
    }
    #[inline]
    fn abs(self) -> Self {
        bump(|c| c.maxs += 1);
        Self(self.0.abs())
    }
    #[inline]
    fn sqrt(self) -> Self {
        bump(|c| c.sqrts += 1);
        Self(self.0.sqrt())
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        bump(|c| c.maxs += 1);
        Self(self.0.max(other.0))
    }
    #[inline]
    fn lt(self, other: Self) -> bool {
        self.0 < other.0
    }
    #[inline]
    fn le(self, other: Self) -> bool {
        self.0 <= other.0
    }
    #[inline]
    fn select(mask: bool, a: Self, b: Self) -> Self {
        Self(f64::select(mask, a.0, b.0))
    }
    #[inline]
    fn pow2i(self) -> Self {
        Self(self.0.pow2i())
    }
    #[inline]
    fn frexp(self) -> (Self, Self) {
        let (m, e) = self.0.frexp();
        (Self(m), Self(e))
    }
    #[inline]
    fn exp(self) -> Self {
        bump(|c| c.exps += 1);
        call(self, crate::exp::exp, crate::exp)
    }
    #[inline]
    fn ln(self) -> Self {
        bump(|c| c.logs += 1);
        call(self, crate::log::ln, crate::ln)
    }
    #[inline]
    fn erf(self) -> Self {
        bump(|c| c.erfs += 1);
        call(self, crate::erf::erf, crate::erf)
    }
    #[inline]
    fn norm_cdf(self) -> Self {
        bump(|c| c.cnds += 1);
        call(self, crate::norm::norm_cdf, crate::norm_cdf)
    }
}

impl Real for CountedF64 {
    #[inline]
    fn into_f64(self) -> f64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_simple_expression() {
        let (val, counts) = counting(|| {
            let a = CountedF64(2.0);
            let b = CountedF64(3.0);
            let c = a * b + a - b / a;
            c.into_f64()
        });
        assert_eq!(val, 2.0 * 3.0 + 2.0 - 3.0 / 2.0);
        assert_eq!(counts.muls, 1);
        assert_eq!(counts.adds, 2); // one add, one sub
        assert_eq!(counts.divs, 1);
        assert_eq!(counts.flops(), 4);
    }

    #[test]
    fn counts_transcendentals_as_calls() {
        let (_, counts) = counting(|| {
            let x = CountedF64(0.5);
            let _ = x.exp();
            let _ = x.ln();
            let _ = x.erf();
            let _ = x.norm_cdf();
            let _ = x.sqrt();
        });
        assert_eq!(counts.exps, 1);
        assert_eq!(counts.logs, 1);
        assert_eq!(counts.erfs, 1);
        assert_eq!(counts.cnds, 1);
        assert_eq!(counts.sqrts, 1);
        assert_eq!(counts.transcendentals(), 4);
    }

    #[test]
    fn reset_clears() {
        let _ = counting(|| CountedF64(1.0) + CountedF64(2.0));
        reset_counts();
        assert_eq!(read_counts(), OpCounts::default());
    }

    #[test]
    fn fma_counts_two_flops() {
        let (_, counts) = counting(|| CountedF64(2.0).mul_add(CountedF64(3.0), CountedF64(4.0)));
        assert_eq!(counts.fmas, 1);
        assert_eq!(counts.flops(), 2);
    }

    #[test]
    fn values_track_f64_semantics() {
        let (v, _) = counting(|| {
            let x = CountedF64(-2.0);
            (x.abs() * x.abs()).sqrt().into_f64()
        });
        assert_eq!(v, 2.0);
    }

    #[test]
    fn expanded_counting_preserves_values_and_adds_interior_flops() {
        let x = 0.7;
        let (plain_v, plain) = counting(|| CountedF64(x).norm_cdf().into_f64());
        let (exp_v, expanded) = counting_expanded(|| CountedF64(x).norm_cdf().into_f64());
        // Expansion never changes the numerical result.
        assert_eq!(plain_v.to_bits(), exp_v.to_bits());
        assert_eq!(plain.cnds, 1);
        assert_eq!(plain.flops(), 0);
        assert_eq!(expanded.cnds, 1);
        // One level deep: the Gaussian exp inside cnd is a single call...
        assert_eq!(expanded.exps, 1);
        // ...while cnd's own rational interior lands in the flop counters.
        assert!(expanded.flops() > 20, "flops = {}", expanded.flops());
    }

    #[test]
    fn expansion_flag_resets_after_counting_expanded() {
        let _ = counting_expanded(|| CountedF64(1.0).exp());
        let (_, counts) = counting(|| CountedF64(1.0).exp());
        assert_eq!(counts.exps, 1);
        assert_eq!(
            counts.flops(),
            0,
            "expansion leaked out of counting_expanded"
        );
    }

    #[test]
    fn binomial_inner_step_cost() {
        // One binomial-tree inner step is pu*a + pd*b: 2 muls + 1 add = 3
        // flops — the basis of the paper's 3N(N+1)/2 formula.
        let (_, counts) = counting(|| {
            let pu = CountedF64(0.6);
            let pd = CountedF64(0.4);
            let a = CountedF64(10.0);
            let b = CountedF64(11.0);
            pu * a + pd * b
        });
        assert_eq!(counts.flops(), 3);
    }
}
