//! The `F64v<N>` vector class and its lane mask.

use core::ops::{
    Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign,
};
use finbench_math::{LaneMask, Lanes, Pair};

/// An `N`-lane vector of `f64`, the Rust analog of the paper's
/// `F64vec4`/`F64vec8` classes.
///
/// All arithmetic is lane-wise. The in-memory layout is exactly `[f64; N]`
/// (`#[repr(transparent)]`), so slices of `F64v<N>` reinterpret cleanly as
/// slices of doubles for I/O with SOA buffers.
///
/// ```
/// use finbench_simd::F64vec4;
/// let a = F64vec4::splat(2.0);
/// let b = F64vec4::new([1.0, 2.0, 3.0, 4.0]);
/// let c = a * b + b;
/// assert_eq!(c.to_array(), [3.0, 6.0, 9.0, 12.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(transparent)]
pub struct F64v<const N: usize>(pub [f64; N]);

/// The SNB-EP width: 4 doubles per 256-bit AVX register.
pub type F64vec4 = F64v<4>;
/// The KNC width: 8 doubles per 512-bit register.
pub type F64vec8 = F64v<8>;

/// Lane-wise boolean mask produced by the comparison methods of
/// [`F64v`] and consumed by [`Mask::select`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct Mask<const N: usize>(pub [bool; N]);

impl<const N: usize> F64v<N> {
    /// Construct from an array of lanes.
    #[inline(always)]
    pub const fn new(lanes: [f64; N]) -> Self {
        Self(lanes)
    }

    /// Broadcast a scalar into every lane.
    #[inline(always)]
    pub fn splat(x: f64) -> Self {
        Self([x; N])
    }

    /// The all-zeros vector.
    #[inline(always)]
    pub fn zero() -> Self {
        Self::splat(0.0)
    }

    /// Load `N` consecutive doubles from `src` starting at `offset`.
    ///
    /// # Panics
    /// If `src[offset..offset + N]` is out of bounds.
    #[inline(always)]
    pub fn load(src: &[f64], offset: usize) -> Self {
        let mut out = [0.0; N];
        out.copy_from_slice(&src[offset..offset + N]);
        Self(out)
    }

    /// Store the lanes to `dst` starting at `offset`.
    #[inline(always)]
    pub fn store(self, dst: &mut [f64], offset: usize) {
        dst[offset..offset + N].copy_from_slice(&self.0);
    }

    /// Gather lanes from arbitrary indices — the emulated `vgather` whose
    /// cache-line cost the machine model charges for AOS layouts.
    #[inline(always)]
    pub fn gather(src: &[f64], idx: [usize; N]) -> Self {
        let mut out = [0.0; N];
        for i in 0..N {
            out[i] = src[idx[i]];
        }
        Self(out)
    }

    /// Gather with a base offset and constant stride, the pattern produced
    /// by an array-of-structures field access.
    #[inline(always)]
    pub fn gather_strided(src: &[f64], base: usize, stride: usize) -> Self {
        let mut out = [0.0; N];
        for i in 0..N {
            out[i] = src[base + i * stride];
        }
        Self(out)
    }

    /// Scatter lanes to arbitrary indices.
    #[inline(always)]
    pub fn scatter(self, dst: &mut [f64], idx: [usize; N]) {
        for i in 0..N {
            dst[idx[i]] = self.0[i];
        }
    }

    /// Scatter with a base offset and constant stride.
    #[inline(always)]
    pub fn scatter_strided(self, dst: &mut [f64], base: usize, stride: usize) {
        for i in 0..N {
            dst[base + i * stride] = self.0[i];
        }
    }

    /// Whole-vector shift by one lane: lane `i` of the result is lane
    /// `i − 1` of `self`, `first` enters lane 0 and lane `N − 1` drops out
    /// — one register permute in a dispatched sweep, never a store and a
    /// reload one lane over (which misses store forwarding).
    #[inline(always)]
    pub fn shift_up(self, first: f64) -> Self {
        let mut out = [first; N];
        out[1..].copy_from_slice(&self.0[..N - 1]);
        Self(out)
    }

    /// Copy of the lanes as a plain array.
    #[inline(always)]
    pub fn to_array(self) -> [f64; N] {
        self.0
    }

    /// Lane-wise minimum.
    #[inline(always)]
    pub fn min(self, other: Self) -> Self {
        self.zip(other, f64::min)
    }

    /// Horizontal sum of all lanes.
    #[inline(always)]
    pub fn hsum(self) -> f64 {
        let mut s = 0.0;
        for i in 0..N {
            s += self.0[i];
        }
        s
    }

    /// Horizontal maximum of all lanes.
    #[inline(always)]
    pub fn hmax(self) -> f64 {
        let mut m = f64::NEG_INFINITY;
        for i in 0..N {
            m = m.max(self.0[i]);
        }
        m
    }

    /// Horizontal minimum of all lanes.
    #[inline(always)]
    pub fn hmin(self) -> f64 {
        let mut m = f64::INFINITY;
        for i in 0..N {
            m = m.min(self.0[i]);
        }
        m
    }

    #[inline(always)]
    fn map(self, f: impl Fn(f64) -> f64) -> Self {
        let mut out = [0.0; N];
        for i in 0..N {
            out[i] = f(self.0[i]);
        }
        Self(out)
    }

    #[inline(always)]
    fn zip(self, other: Self, f: impl Fn(f64, f64) -> f64) -> Self {
        let mut out = [0.0; N];
        for i in 0..N {
            out[i] = f(self.0[i], other.0[i]);
        }
        Self(out)
    }

    #[inline(always)]
    fn cmp(self, other: Self, f: impl Fn(f64, f64) -> bool) -> Mask<N> {
        let mut out = [false; N];
        for i in 0..N {
            out[i] = f(self.0[i], other.0[i]);
        }
        Mask(out)
    }
}

impl<const N: usize> Default for F64v<N> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<const N: usize> Index<usize> for F64v<N> {
    type Output = f64;
    #[inline(always)]
    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl<const N: usize> IndexMut<usize> for F64v<N> {
    #[inline(always)]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.0[i]
    }
}

macro_rules! binop {
    ($trait:ident, $method:ident, $op:tt, $assign_trait:ident, $assign_method:ident) => {
        impl<const N: usize> $trait for F64v<N> {
            type Output = Self;
            #[inline(always)]
            fn $method(self, rhs: Self) -> Self {
                let mut out = [0.0; N];
                for i in 0..N {
                    out[i] = self.0[i] $op rhs.0[i];
                }
                Self(out)
            }
        }
        impl<const N: usize> $trait<f64> for F64v<N> {
            type Output = Self;
            #[inline(always)]
            fn $method(self, rhs: f64) -> Self {
                let mut out = [0.0; N];
                for i in 0..N {
                    out[i] = self.0[i] $op rhs;
                }
                Self(out)
            }
        }
        impl<const N: usize> $trait<F64v<N>> for f64 {
            type Output = F64v<N>;
            #[inline(always)]
            fn $method(self, rhs: F64v<N>) -> F64v<N> {
                let mut out = [0.0; N];
                for i in 0..N {
                    out[i] = self $op rhs.0[i];
                }
                F64v(out)
            }
        }
        impl<const N: usize> $assign_trait for F64v<N> {
            #[inline(always)]
            fn $assign_method(&mut self, rhs: Self) {
                *self = *self $op rhs;
            }
        }
        impl<const N: usize> $assign_trait<f64> for F64v<N> {
            #[inline(always)]
            fn $assign_method(&mut self, rhs: f64) {
                *self = *self $op rhs;
            }
        }
    };
}

binop!(Add, add, +, AddAssign, add_assign);
binop!(Sub, sub, -, SubAssign, sub_assign);
binop!(Mul, mul, *, MulAssign, mul_assign);
binop!(Div, div, /, DivAssign, div_assign);

impl<const N: usize> Neg for F64v<N> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        let mut out = [0.0; N];
        for i in 0..N {
            out[i] = -self.0[i];
        }
        Self(out)
    }
}

impl<const N: usize> Mask<N> {
    /// Blend: lane `i` of the result is `a[i]` where the mask is set,
    /// `b[i]` otherwise.
    #[inline(always)]
    pub fn select(self, a: F64v<N>, b: F64v<N>) -> F64v<N> {
        let mut out = [0.0; N];
        for i in 0..N {
            out[i] = if self.0[i] { a.0[i] } else { b.0[i] };
        }
        F64v(out)
    }

    /// Lane-wise OR.
    #[inline(always)]
    pub fn or(self, other: Self) -> Self {
        let mut out = [false; N];
        for i in 0..N {
            out[i] = self.0[i] | other.0[i];
        }
        Self(out)
    }
}

/// The `N`-lane instance of `finbench-math`'s one body per transcendental:
/// each method is a fixed-trip lane loop, and the two exponent-field
/// operations map the `f64` instance's over the lanes.
impl<const N: usize> Lanes for F64v<N> {
    type Mask = Mask<N>;

    #[inline(always)]
    fn splat(x: f64) -> Self {
        F64v::splat(x)
    }
    /// A libm `fma` call per lane in the portable instantiation, one
    /// `vfmadd` in an [`isa::dispatch`](crate::isa::dispatch)ed AVX2+FMA
    /// sweep; both round once, which keeps the tiers bit-identical — do not
    /// "optimise" this into `self * a + b` (two roundings, other bits).
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        let mut out = [0.0; N];
        for i in 0..N {
            out[i] = self.0[i].mul_add(a.0[i], b.0[i]);
        }
        Self(out)
    }
    /// A libm `floor` call per lane on baseline x86-64 (no rounding
    /// instruction before SSE4.1), `vroundpd` in a dispatched sweep.
    #[inline(always)]
    fn floor(self) -> Self {
        self.map(f64::floor)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        self.map(f64::abs)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        self.map(f64::sqrt)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        self.zip(other, f64::max)
    }
    #[inline(always)]
    fn lt(self, other: Self) -> Mask<N> {
        self.cmp(other, |a, b| a < b)
    }
    #[inline(always)]
    fn le(self, other: Self) -> Mask<N> {
        self.cmp(other, |a, b| a <= b)
    }
    #[inline(always)]
    fn select(mask: Mask<N>, a: Self, b: Self) -> Self {
        mask.select(a, b)
    }
    #[inline(always)]
    fn pow2i(self) -> Self {
        self.map(<f64 as Lanes>::pow2i)
    }
    #[inline(always)]
    fn frexp(self) -> (Self, Self) {
        let (mut m, mut e) = ([0.0; N], [0.0; N]);
        for i in 0..N {
            (m[i], e[i]) = self.0[i].frexp();
        }
        (Self(m), Self(e))
    }
}

/// A [`Lanes`] value a sweep moves to and from a column of doubles: one
/// `F64v<N>` register, or a [`Pair`] of them stepped as `2N` lanes.
pub trait Block: Lanes {
    /// One lane per consecutive double of `src` from `offset`.
    fn load(src: &[f64], offset: usize) -> Self;
    /// The lanes to `dst` from `offset`.
    fn store(self, dst: &mut [f64], offset: usize);
}

impl<const N: usize> Block for F64v<N> {
    #[inline(always)]
    fn load(src: &[f64], offset: usize) -> Self {
        F64v::load(src, offset)
    }
    #[inline(always)]
    fn store(self, dst: &mut [f64], offset: usize) {
        F64v::store(self, dst, offset)
    }
}

/// Lanes `offset..offset + N` in the first register, the next `N` in the
/// second.
impl<const N: usize> Block for Pair<F64v<N>> {
    #[inline(always)]
    fn load(src: &[f64], offset: usize) -> Self {
        Pair(F64v::load(src, offset), F64v::load(src, offset + N))
    }
    #[inline(always)]
    fn store(self, dst: &mut [f64], offset: usize) {
        self.0.store(dst, offset);
        self.1.store(dst, offset + N);
    }
}

/// Where a sweep over `n` lanes stops stepping [`Pair`]s of `F64v<W>`: `n`
/// rounded down to a multiple of `2W`. From there it steps single
/// registers up to `n − n % W`, then its scalar tail. At `W = 1` there are
/// no pairs: a width-one sweep is a ladder's scalar rung and stays one
/// lane per step.
#[inline(always)]
pub fn paired_end<const W: usize>(n: usize) -> usize {
    if W > 1 {
        n - n % (2 * W)
    } else {
        0
    }
}

/// `all` and `any` fold every lane rather than short-circuit, and `and` is
/// `&`, not `&&`: the short-circuit forms compiled to a branch per lane,
/// these to one mask test (`kortest`) — they guard every body's rare path.
impl<const N: usize> LaneMask for Mask<N> {
    #[inline(always)]
    fn all(self) -> bool {
        let mut all = true;
        for i in 0..N {
            all &= self.0[i];
        }
        all
    }
    #[inline(always)]
    fn any(self) -> bool {
        let mut any = false;
        for i in 0..N {
            any |= self.0[i];
        }
        any
    }
    #[inline(always)]
    fn and(self, other: Self) -> Self {
        let mut out = [false; N];
        for i in 0..N {
            out[i] = self.0[i] & other.0[i];
        }
        Self(out)
    }
}

impl<const N: usize> core::ops::Not for Mask<N> {
    type Output = Self;
    /// Lane-wise NOT.
    #[inline(always)]
    fn not(self) -> Self {
        let mut out = [false; N];
        for i in 0..N {
            out[i] = !self.0[i];
        }
        Self(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_extract() {
        let v = F64vec4::new([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v.to_array(), [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v[2], 3.0);
        assert_eq!(F64vec8::splat(7.0).to_array(), [7.0; 8]);
    }

    #[test]
    fn arithmetic_lanewise() {
        let a = F64vec4::new([1.0, 2.0, 3.0, 4.0]);
        let b = F64vec4::new([4.0, 3.0, 2.0, 1.0]);
        assert_eq!((a + b).to_array(), [5.0; 4]);
        assert_eq!((a - b).to_array(), [-3.0, -1.0, 1.0, 3.0]);
        assert_eq!((a * b).to_array(), [4.0, 6.0, 6.0, 4.0]);
        assert_eq!((a / b).to_array(), [0.25, 2.0 / 3.0, 1.5, 4.0]);
        assert_eq!((-a).to_array(), [-1.0, -2.0, -3.0, -4.0]);
    }

    #[test]
    fn scalar_mixed_ops() {
        let a = F64vec4::new([1.0, 2.0, 3.0, 4.0]);
        assert_eq!((a * 2.0).to_array(), [2.0, 4.0, 6.0, 8.0]);
        assert_eq!((2.0 * a).to_array(), [2.0, 4.0, 6.0, 8.0]);
        assert_eq!((a + 1.0).to_array(), [2.0, 3.0, 4.0, 5.0]);
        assert_eq!((1.0 - a).to_array(), [0.0, -1.0, -2.0, -3.0]);
        assert_eq!((1.0 / F64vec4::splat(4.0)).to_array(), [0.25; 4]);
    }

    #[test]
    fn assign_ops() {
        let mut a = F64vec4::splat(1.0);
        a += F64vec4::splat(2.0);
        a *= 3.0;
        a -= 1.0;
        a /= F64vec4::splat(2.0);
        assert_eq!(a.to_array(), [4.0; 4]);
    }

    #[test]
    fn load_store_round_trip() {
        let src: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let v = F64vec4::load(&src, 3);
        assert_eq!(v.to_array(), [3.0, 4.0, 5.0, 6.0]);
        let mut dst = vec![0.0; 12];
        v.store(&mut dst, 5);
        assert_eq!(&dst[5..9], &[3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn gather_scatter() {
        let src: Vec<f64> = (0..20).map(|i| i as f64 * 10.0).collect();
        let v = F64vec4::gather(&src, [0, 5, 10, 15]);
        assert_eq!(v.to_array(), [0.0, 50.0, 100.0, 150.0]);
        let s = F64vec4::gather_strided(&src, 1, 5);
        assert_eq!(s.to_array(), [10.0, 60.0, 110.0, 160.0]);
        let mut dst = vec![0.0; 20];
        v.scatter(&mut dst, [1, 2, 4, 8]);
        assert_eq!(dst[1], 0.0);
        assert_eq!(dst[2], 50.0);
        assert_eq!(dst[4], 100.0);
        assert_eq!(dst[8], 150.0);
        s.scatter_strided(&mut dst, 0, 3);
        assert_eq!(dst[0], 10.0);
        assert_eq!(dst[3], 60.0);
        assert_eq!(dst[6], 110.0);
        assert_eq!(dst[9], 160.0);
    }

    #[test]
    fn fma_and_unary() {
        let a = F64vec4::splat(2.0);
        let b = F64vec4::splat(3.0);
        let c = F64vec4::splat(4.0);
        assert_eq!(a.mul_add(b, c).to_array(), [10.0; 4]);
        assert_eq!(F64vec4::splat(9.0).sqrt().to_array(), [3.0; 4]);
        assert_eq!(F64vec4::splat(-2.5).abs().to_array(), [2.5; 4]);
        assert_eq!(F64vec4::splat(1.7).floor().to_array(), [1.0; 4]);
    }

    #[test]
    fn minmax_lanewise() {
        let a = F64vec4::new([1.0, 5.0, 3.0, 7.0]);
        let b = F64vec4::new([2.0, 4.0, 6.0, 0.0]);
        assert_eq!(a.max(b).to_array(), [2.0, 5.0, 6.0, 7.0]);
        assert_eq!(a.min(b).to_array(), [1.0, 4.0, 3.0, 0.0]);
    }

    fn shift_up_moves_every_lane_one_up<const N: usize>() {
        let v = F64v::<N>::new(core::array::from_fn(|i| i as f64 + 1.0));
        let got = v.shift_up(-7.5).to_array();
        assert_eq!(got[0], -7.5, "N={N}");
        for i in 1..N {
            assert_eq!(got[i], i as f64, "N={N} lane {i}");
        }
        // N shifts push every original lane out.
        let mut w = v;
        for k in 0..N {
            w = w.shift_up(-(k as f64));
        }
        assert_eq!(
            w.to_array(),
            core::array::from_fn(|i| -((N - 1 - i) as f64))
        );
    }

    #[test]
    fn shift_up_at_every_width() {
        shift_up_moves_every_lane_one_up::<1>();
        shift_up_moves_every_lane_one_up::<4>();
        shift_up_moves_every_lane_one_up::<8>();
        shift_up_moves_every_lane_one_up::<16>();
    }

    #[test]
    fn horizontal_reductions() {
        let a = F64vec8::new([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.hsum(), 36.0);
        assert_eq!(a.hmax(), 8.0);
        assert_eq!(a.hmin(), 1.0);
    }

    #[test]
    fn masks_and_select() {
        let a = F64vec4::new([1.0, 5.0, 3.0, 7.0]);
        let b = F64vec4::new([2.0, 4.0, 6.0, 0.0]);
        let m = a.lt(b);
        assert_eq!(m.0, [true, false, true, false]);
        assert_eq!(m.select(a, b).to_array(), [1.0, 4.0, 3.0, 0.0]);
        assert!(m.any());
        assert!(!m.all());
        assert!(Mask([true; 4]).all());
        assert_eq!((!m).0, [false, true, false, true]);
        assert_eq!(m.and(a.le(b)).0, [true, false, true, false]);
        assert_eq!(m.or(a.ge(b)).0, [true, true, true, true]);
        assert_eq!(a.gt(b).0, [false, true, false, true]);
    }

    #[test]
    fn layout_is_transparent() {
        // SOA buffers must reinterpret as vectors without copying.
        assert_eq!(core::mem::size_of::<F64vec4>(), 4 * 8);
        assert_eq!(core::mem::size_of::<F64vec8>(), 8 * 8);
        assert_eq!(
            core::mem::align_of::<F64vec4>(),
            core::mem::align_of::<f64>()
        );
    }
}
