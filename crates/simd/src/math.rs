//! Vectorized transcendental math — the SVML stand-in.
//!
//! Each function evaluates the *same* polynomial/rational kernel as its
//! scalar counterpart in `finbench-math`, lane-wise and branch-free:
//! data-dependent control flow is replaced with mask/select blends so the
//! whole body is straight-line code over `F64v<N>`. This mirrors how the
//! paper's kernels obtain vector `exp`/`erf` ("the highly-tuned
//! transcendental math functions are unrolled and inlined by the
//! autovectorizing compiler in SVML").
//!
//! Accuracy: within a few ulp of the scalar versions everywhere except the
//! extreme clamped edges noted per function; the unit tests assert
//! lane-for-lane agreement with `finbench-math` at `<= 2` ulp.
//! [`vinv_norm_cdf`] is held to more: the same bits as the scalar
//! `inv_norm_cdf` on every `f64`, because every seeded normal stream in the
//! suite comes out of it.

use crate::vec::F64v;
use finbench_math::exp::{EXP_OVERFLOW, EXP_P, EXP_Q, EXP_UNDERFLOW, LN2_C1, LN2_C2, LOG2E};
use finbench_math::log::{LN2_HI, LN2_LO, LOG_SERIES};
use finbench_math::norm::{
    CND_DEN, CND_NUM, CND_TAIL_DEN, CND_TAIL_FROM, CND_TAIL_NUM, INV_A, INV_B, INV_C, INV_D,
    INV_NO_POLISH, P_HIGH, P_LOW,
};
use finbench_math::SQRT_2PI;

const SQRT_2: f64 = std::f64::consts::SQRT_2;
const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;
const FRAC_2_SQRT_PI: f64 = std::f64::consts::FRAC_2_SQRT_PI;

/// Lane-wise `2^n` for integer-valued lanes of `n` (−1023 ≤ n ≤ 1023;
/// [`vldexp`] halves `vexp`'s clamped exponent, so it stays within ±538).
///
/// Adding `2^52 + 1023` leaves the biased exponent `n + 1023` in the low
/// mantissa bits (the ulp at `2^52` is 1) and the shift moves it into the
/// exponent field, dropping everything else — the same bits as
/// `((1023 + n as i64) as u64) << 52`, from one `f64` add and one integer
/// shift. `n as i64` saturates and has no packed form before AVX-512DQ, so
/// it scalarised on every tier; this vectorises on all of them.
#[inline(always)]
fn vpow2i<const N: usize>(n: F64v<N>) -> F64v<N> {
    const BIAS_AT_2_52: f64 = 4_503_599_627_370_496.0 + 1023.0;
    let mut out = [0.0; N];
    for i in 0..N {
        out[i] = f64::from_bits((n.0[i] + BIAS_AT_2_52).to_bits() << 52);
    }
    F64v(out)
}

/// Lane-wise `x * 2^n` with the two-step scaling of the scalar `ldexp`.
#[inline(always)]
fn vldexp<const N: usize>(x: F64v<N>, n: F64v<N>) -> F64v<N> {
    let half = (n * 0.5).floor();
    let rest = n - half;
    x * vpow2i(half) * vpow2i(rest)
}

#[inline(always)]
fn vpolevl<const N: usize>(x: F64v<N>, coeffs: &[f64]) -> F64v<N> {
    let mut acc = F64v::splat(coeffs[0]);
    for &c in &coeffs[1..] {
        acc = acc * x + c;
    }
    acc
}

/// Lane-wise `e^x`.
///
/// Inputs are clamped to the finite range `[-745.1, 709.78]`; lanes below
/// the clamp produce a subnormal (≈0) rather than exactly 0, which is
/// inconsequential for pricing payoffs.
///
/// ```
/// use finbench_simd::{F64vec4, math::vexp};
/// let y = vexp(F64vec4::new([0.0, 1.0, -1.0, 2.0]));
/// assert!((y[1] - std::f64::consts::E).abs() < 1e-15);
/// ```
#[inline(always)]
pub fn vexp<const N: usize>(x: F64v<N>) -> F64v<N> {
    let x = x.clamp(EXP_UNDERFLOW, EXP_OVERFLOW);
    let n = (x * LOG2E + 0.5).floor();
    let r = x - n * LN2_C1 - n * LN2_C2;
    let rr = r * r;
    let p = r * vpolevl(rr, &EXP_P);
    let e = 1.0 + 2.0 * p / (vpolevl(rr, &EXP_Q) - p);
    vldexp(e, n)
}

/// Lane-wise natural logarithm for strictly positive, finite lanes.
///
/// Domain edges (0, negatives, infinities) are *not* given IEEE semantics —
/// lanes are clamped into the normal range first, matching how the paper's
/// kernels only ever take `ln` of prices and ratios that are positive by
/// construction.
///
/// ```
/// use finbench_simd::{F64vec4, math::vln};
/// let y = vln(F64vec4::splat(std::f64::consts::E));
/// assert!((y[0] - 1.0).abs() < 1e-15);
/// ```
#[inline(always)]
pub fn vln<const N: usize>(x: F64v<N>) -> F64v<N> {
    vln_unbiased(x.clamp(f64::MIN_POSITIVE, f64::MAX), F64v::splat(1023.0))
}

/// `ln` of positive normal lanes whose exponent field carries `bias`: 1023
/// for a lane that is its own value, `1023 + k` for a subnormal the caller
/// pre-scaled by `2^k` (the scalar `frexp_sqrt2`'s route, with `k = 54`).
///
/// The biased exponent becomes an `f64` by the `2^52` trick of [`vpow2i`]
/// run backwards: OR-ed into the mantissa of `2^52` it *is* `2^52 + e`,
/// and one subtraction leaves `e − bias` exactly. `e as i64 … as f64` has
/// no packed form before AVX-512DQ and scalarised on the AVX2 tier.
#[inline(always)]
fn vln_unbiased<const N: usize>(x: F64v<N>, bias: F64v<N>) -> F64v<N> {
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    // frexp: m in [1, 2), e unbiased.
    let mut m = [0.0; N];
    let mut e = [0.0; N];
    for i in 0..N {
        let bits = x.0[i].to_bits();
        e[i] = f64::from_bits(((bits >> 52) & 0x7ff) | TWO_52.to_bits());
        m[i] = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52));
    }
    let mut m = F64v(m);
    let mut e = F64v(e) - (bias + TWO_52);
    // Shift mantissa into [sqrt(1/2), sqrt(2)).
    let adjust = m.ge(F64v::splat(SQRT_2));
    m = adjust.select(m * 0.5, m);
    e = adjust.select(e + 1.0, e);

    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let lnm = 2.0 * t * vpolevl(t2, &LOG_SERIES);
    e * LN2_HI + (lnm + e * LN2_LO)
}

/// Lane-wise cumulative standard normal (the paper's vector `cnd`).
///
/// Hart/West evaluation, blended by mask rather than branched per lane:
/// the central rational is computed for every lane, and the far-tail
/// rational for every lane of a vector that has at least one lane past
/// 7.07σ; a vector with none skips it, and the blend would have discarded
/// all of its lanes, so the result has the same bits either way. Such
/// vectors are not rare: with the paper's ranges (S 5–30, X 1–100,
/// T 0.25–10) 2.2 % of `d1`/`d2` lanes but 17 % of W=8 vectors of the
/// 20 000-option Black-Scholes workload have a lane out there, 2.6 % / 19 %
/// of the 256 × 2048 portfolio request and 2.6 % / 20 % of the quick 64 × 128
/// one (means over seeds 1–16; a 64-position book swings 0.3–6 % / 3–42 %
/// with the seed). A tail vector costs two more Horner chains and one
/// division — the continued fraction it replaces was twelve dependent ones.
///
/// ```
/// use finbench_simd::{F64vec4, math::vnorm_cdf};
/// let p = vnorm_cdf(F64vec4::new([0.0, 1.0, -1.0, 2.0]));
/// assert!((p[0] - 0.5).abs() < 1e-15);
/// ```
#[inline(always)]
pub fn vnorm_cdf<const N: usize>(x: F64v<N>) -> F64v<N> {
    let ax = x.abs();
    vnorm_cdf_given_gauss(x, ax, vexp(ax * ax * -0.5))
}

/// [`vnorm_cdf`] of `x` given `ax = |x|` and `e = exp(−x²/2)`, for a caller
/// that needs that Gaussian itself ([`vinv_norm_cdf`]'s Halley step).
#[inline(always)]
fn vnorm_cdf_given_gauss<const N: usize>(x: F64v<N>, ax: F64v<N>, e: F64v<N>) -> F64v<N> {
    // Central region rational (valid |x| < 7.07; harmless garbage beyond,
    // masked out below).
    let central = e * vpolevl(ax, &CND_NUM) / vpolevl(ax, &CND_DEN);

    let in_central = ax.lt(F64v::splat(CND_TAIL_FROM));
    let cum = if in_central.all() {
        central
    } else {
        // The depth-12 tail fraction as one rational.
        let tail = e * vpolevl(ax, &CND_TAIL_DEN) / (vpolevl(ax, &CND_TAIL_NUM) * SQRT_2PI);
        in_central.select(central, tail)
    };
    // Past 37 sigma the tail underflows to exactly zero.
    let cum = ax.gt(F64v::splat(37.0)).select(F64v::zero(), cum);
    x.gt(F64v::zero()).select(1.0 - cum, cum)
}

/// Lane-wise error function, the paper's preferred Black-Scholes primitive
/// (`cnd(x) = (1 + erf(x/√2))/2`).
///
/// ```
/// use finbench_simd::{F64vec4, math::verf};
/// let y = verf(F64vec4::splat(1.0));
/// assert!((y[0] - 0.8427007929497149).abs() < 1e-14);
/// ```
#[inline(always)]
pub fn verf<const N: usize>(x: F64v<N>) -> F64v<N> {
    let ax = x.abs();

    // Maclaurin series for small |x| (14 terms, same as scalar).
    let x2 = x * x;
    let mut pow = x;
    let mut fact = 1.0;
    let mut acc = x;
    for k in 1..14u32 {
        let kf = k as f64;
        fact *= kf;
        pow *= x2;
        let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
        acc += pow * (sign / (fact * (2.0 * kf + 1.0)));
    }
    let small = acc * FRAC_2_SQRT_PI;

    // CDF-based evaluation for |x| >= 0.5, with sign restored.
    let big_mag = 2.0 * vnorm_cdf(ax * SQRT_2) - 1.0;
    let big = x.lt(F64v::zero()).select(-big_mag, big_mag);

    ax.lt(F64v::splat(0.5)).select(small, big)
}

/// Lane-wise `cnd` via `erf`, the paper's "advanced" Black-Scholes route.
#[inline(always)]
pub fn vnorm_cdf_via_erf<const N: usize>(x: F64v<N>) -> F64v<N> {
    (verf(x * FRAC_1_SQRT_2) + 1.0) * 0.5
}

/// Lane-wise inverse normal CDF (Acklam + one Halley step) — the transform
/// of Table II's uniform → normal stage, behind every computed-RNG rung.
///
/// **Bit-identical to the scalar `finbench_math::inv_norm_cdf` on every
/// `f64`** (`p ≤ 0 → −∞`, `p ≥ 1 → +∞`, NaN handed back, subnormals
/// included), lane by lane and whatever the neighbouring lanes hold: every
/// region is the scalar's arithmetic in the scalar's order, blended by mask
/// instead of branched per lane.
///
/// It is [`vinv_norm_cdf_guess`] then [`vinv_norm_cdf_polish`]. An array
/// transform should run those as two sweeps (`batch::vd_inv_norm_cdf` does):
/// fused, one vector is a ~250-cycle dependency chain too long for the core
/// to overlap with the next one, and measures half the rate.
///
/// ```
/// use finbench_simd::{F64vec4, math::vinv_norm_cdf};
/// let x = vinv_norm_cdf(F64vec4::new([0.0, 0.5, 0.975, 1.0]));
/// assert_eq!(x[0], f64::NEG_INFINITY);
/// assert_eq!(x[1], 0.0);
/// assert_eq!(x[2].to_bits(), finbench_math::inv_norm_cdf(0.975).to_bits());
/// assert_eq!(x[3], f64::INFINITY);
/// ```
#[inline(always)]
pub fn vinv_norm_cdf<const N: usize>(p: F64v<N>) -> F64v<N> {
    vinv_norm_cdf_polish(p, vinv_norm_cdf_guess(p))
}

/// Acklam's rational approximation to the inverse normal CDF (~1.15e-9
/// relative), for lanes in `(0, 1)`; lanes outside hold garbage that
/// [`vinv_norm_cdf_polish`] replaces.
///
/// The central rational is computed for every lane; the `ln`/`sqrt` tail
/// rational only for a vector with a lane outside `[P_LOW, P_HIGH]` (4.85 %
/// of uniform draws, so about a third of W=8 vectors — the blend would
/// discard it from all the others).
#[inline(always)]
pub fn vinv_norm_cdf_guess<const N: usize>(p: F64v<N>) -> F64v<N> {
    let q = p - 0.5;
    let r = q * q;
    let central = vpolevl(r, &INV_A) * q / (vpolevl(r, &INV_B) * r + 1.0);

    let in_central = p.ge(F64v::splat(P_LOW)).and(p.le(F64v::splat(P_HIGH)));
    if in_central.all() {
        return central;
    }
    // Tail rational in sqrt(-2 ln t), t the distance to the nearer end,
    // mirrored for the upper tail. A subnormal t is scaled into the normal
    // range first, as the scalar frexp does.
    const TWO_54: f64 = 18_014_398_509_481_984.0;
    let lower = p.lt(F64v::splat(P_LOW));
    let t = lower.select(p, 1.0 - p);
    let tiny = t.lt(F64v::splat(f64::MIN_POSITIVE));
    let ln_t = vln_unbiased(
        tiny.select(t * TWO_54, t),
        tiny.select(F64v::splat(1023.0 + 54.0), F64v::splat(1023.0)),
    );
    let q = (-2.0 * ln_t).sqrt();
    let tail = vpolevl(q, &INV_C) / (vpolevl(q, &INV_D) * q + 1.0);
    in_central.select(central, lower.select(tail, -tail))
}

/// One Halley step on the guess `x` at the root of `Φ(x) = p` —
/// `e = Φ(x) − p`, `u = e / φ(x)`, `x ← x − u / (1 + x·u/2)`, with Φ and φ
/// sharing one `exp(−x²/2)` — then the scalar function's edges: a lane with
/// `|x| ≥ 36` keeps its guess (φ underflows there), `p ≤ 0 → −∞`,
/// `p ≥ 1 → +∞`, NaN handed back.
#[inline(always)]
pub fn vinv_norm_cdf_polish<const N: usize>(p: F64v<N>, x: F64v<N>) -> F64v<N> {
    let ax = x.abs();
    let gauss = vexp(-0.5 * ax * ax);
    let e = vnorm_cdf_given_gauss(x, ax, gauss) - p;
    let u = e / (gauss / SQRT_2PI);
    let polished = x - u / (1.0 + 0.5 * x * u);
    let y = ax.ge(F64v::splat(INV_NO_POLISH)).select(x, polished);

    // Edge lanes by whole vector, as the tails above: blended
    // unconditionally, these three selects on `y` keep LLVM from packing
    // the body (lanes 0 and 3 stayed scalar under AVX-512). NaN fails both
    // comparisons here and every one below, `p >= p` included.
    if p.gt(F64v::zero()).and(p.lt(F64v::splat(1.0))).all() {
        return y;
    }
    let y = p.le(F64v::zero()).select(F64v::splat(f64::NEG_INFINITY), y);
    let y = p.ge(F64v::splat(1.0)).select(F64v::splat(f64::INFINITY), y);
    p.ge(p).select(y, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec::F64vec4;
    use finbench_math as fm;

    fn assert_lanes_close<const N: usize>(
        v: F64v<N>,
        scalar: impl Fn(f64) -> f64,
        x: F64v<N>,
        tol: f64,
    ) {
        for i in 0..N {
            let want = scalar(x.0[i]);
            let got = v.0[i];
            let err = if want == 0.0 {
                got.abs()
            } else {
                ((got - want) / want).abs()
            };
            assert!(err <= tol, "lane {i}: x={} got={got} want={want}", x.0[i]);
        }
    }

    #[test]
    fn vpow2i_matches_the_integer_conversion_it_replaced() {
        for n in -1023i64..=1023 {
            let want = f64::from_bits(((1023 + n) as u64) << 52);
            let got = vpow2i(F64vec4::splat(n as f64));
            assert_eq!(got[0].to_bits(), want.to_bits(), "n={n}");
        }
    }

    #[test]
    fn vexp_matches_scalar() {
        let mut x = -700.0;
        while x < 700.0 {
            let v = F64vec4::new([x, x + 0.1, x + 0.2, x + 0.3]);
            assert_lanes_close(vexp(v), fm::exp, v, 1e-15);
            x += 13.37;
        }
    }

    #[test]
    fn vexp_edge_lanes() {
        let v = F64vec4::new([0.0, 709.0, -744.0, 1.0]);
        let y = vexp(v);
        assert_eq!(y[0], 1.0);
        assert!(y[1].is_finite());
        assert!(y[2] > 0.0);
        assert!((y[3] - std::f64::consts::E).abs() < 1e-15);
    }

    #[test]
    fn vln_matches_scalar() {
        let mut x = 1e-12;
        while x < 1e12 {
            let v = F64vec4::new([x, x * 1.5, x * 2.7, x * 9.1]);
            assert_lanes_close(vln(v), fm::ln, v, 1e-14);
            x *= 31.7;
        }
    }

    #[test]
    fn vln_near_one() {
        let v = F64vec4::new([0.999_999, 1.000_001, 1.0, 1.5]);
        let y = vln(v);
        for i in 0..4 {
            assert!((y[i] - fm::ln(v[i])).abs() < 1e-16 + fm::ln(v[i]).abs() * 1e-13);
        }
    }

    #[test]
    fn vnorm_cdf_matches_scalar() {
        let mut x = -12.0;
        while x <= 12.0 {
            let v = F64vec4::new([x, x + 0.05, x + 0.1, x + 0.15]);
            let y = vnorm_cdf(v);
            for i in 0..4 {
                let want = fm::norm_cdf(v[i]);
                assert!(
                    (y[i] - want).abs() < 4e-15 && ((y[i] - want) / want.max(1e-300)).abs() < 1e-11,
                    "x={} got={} want={}",
                    v[i],
                    y[i],
                    want
                );
            }
            x += 0.37;
        }
    }

    #[test]
    fn vnorm_cdf_mixed_region_lanes() {
        // Lanes straddling the central/tail switch and both signs at once —
        // the case that punishes incorrect blending.
        let v = F64vec4::new([-9.0, -0.5, 3.0, 8.5]);
        let y = vnorm_cdf(v);
        for i in 0..4 {
            let want = fm::norm_cdf(v[i]);
            assert!(((y[i] - want) / want).abs() < 1e-11, "lane {i}");
        }
    }

    #[test]
    fn vnorm_cdf_tail_skip_never_changes_a_lane() {
        // No lane, one lane and every lane past the 7.07σ switch (and past
        // the 37σ one, at ±∞, NaN): the vector takes the tail branch or
        // skips it as a whole, a lane evaluated alone decides for itself —
        // same bits, at every width, and the bits of the scalar `norm_cdf`
        // and of its `Real`-generic twin.
        fn assert_lanes_are_the_scalar<const N: usize>(v: [f64; 8]) {
            for chunk in v.chunks(N) {
                let got = vnorm_cdf(F64v::<N>(chunk.try_into().unwrap()));
                for (lane, &x) in chunk.iter().enumerate() {
                    let want = fm::norm_cdf(x);
                    assert!(
                        got[lane].to_bits() == want.to_bits() || (x.is_nan() && got[lane].is_nan()),
                        "N={N} x={x:e} of {v:?}: got {:e}, scalar {want:e}",
                        got[lane]
                    );
                }
            }
        }
        let seam = CND_TAIL_FROM;
        let central = [-7.0, -3.2, -0.5, 0.0, 0.3, 1.7, 5.5, seam.next_down()];
        let far = [-40.0, -37.5, -12.0, -7.08, seam, 9.0, 37.0, 38.0];
        let edges = [
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NAN,
            -37.0,
            37.0f64.next_up(),
            -seam,
            -25.0,
            30.0,
        ];
        let mut vectors = vec![central, far, edges];
        for x in far.into_iter().chain(edges) {
            let mut one_far = central;
            one_far[5] = x;
            vectors.push(one_far);
        }
        // A sweep of both tails through vectors that mix them with central
        // lanes in every position.
        for i in 0..4_000 {
            let t = seam + (37.5 - seam) * i as f64 / 4_000.0;
            let mut mixed = central;
            mixed[i % 8] = t;
            mixed[(i + 3) % 8] = -t;
            vectors.push(mixed);
        }
        for v in vectors {
            assert_lanes_are_the_scalar::<1>(v);
            assert_lanes_are_the_scalar::<4>(v);
            assert_lanes_are_the_scalar::<8>(v);
            for x in v {
                let want = fm::norm_cdf(x).to_bits();
                assert_eq!(fm::norm_cdf_r::<f64>(x).to_bits(), want, "x={x:e}");
                assert_eq!(
                    fm::norm_cdf_r(fm::CountedF64(x)).0.to_bits(),
                    want,
                    "x={x:e}"
                );
            }
        }
    }

    #[test]
    fn verf_matches_scalar() {
        let mut x = -6.0;
        while x <= 6.0 {
            let v = F64vec4::new([x, x + 0.01, x + 0.02, x + 0.03]);
            let y = verf(v);
            for i in 0..4 {
                let want = fm::erf(v[i]);
                assert!(
                    (y[i] - want).abs() < 4e-15,
                    "x={} got={} want={}",
                    v[i],
                    y[i],
                    want
                );
            }
            x += 0.11;
        }
    }

    #[test]
    fn verf_small_lane_relative() {
        let v = F64vec4::new([1e-8, -1e-8, 0.25, -0.25]);
        let y = verf(v);
        for i in 0..4 {
            let want = fm::erf(v[i]);
            assert!(((y[i] - want) / want).abs() < 1e-13);
        }
    }

    #[test]
    fn cnd_via_erf_matches_direct() {
        let v = F64vec4::new([-2.0, -0.1, 0.3, 1.7]);
        let a = vnorm_cdf_via_erf(v);
        let b = vnorm_cdf(v);
        for i in 0..4 {
            assert!((a[i] - b[i]).abs() < 4e-15);
        }
    }

    #[test]
    fn vinv_round_trip() {
        let v = F64vec4::new([0.01, 0.3, 0.5, 0.99]);
        let x = vinv_norm_cdf(v);
        let back = vnorm_cdf(x);
        for i in 0..4 {
            assert!((back[i] - v[i]).abs() < 1e-12);
        }
    }

    /// `vinv_norm_cdf::<N>` over `ps` (padded with 0.5 to a whole number of
    /// vectors) against the scalar, by bits.
    fn assert_vinv_is_the_scalar<const N: usize>(ps: &[f64]) {
        for chunk in ps.chunks(N) {
            let mut v = [0.5; N];
            v[..chunk.len()].copy_from_slice(chunk);
            let got = vinv_norm_cdf(F64v::<N>(v));
            for lane in 0..N {
                let want = fm::inv_norm_cdf(v[lane]);
                assert_eq!(
                    got[lane].to_bits(),
                    want.to_bits(),
                    "N={N} lane {lane} p={:e}: got {:e}, scalar {want:e}",
                    v[lane],
                    got[lane]
                );
            }
        }
    }

    #[test]
    fn vinv_norm_cdf_is_bit_identical_to_the_scalar() {
        use finbench_math::norm::{P_HIGH, P_LOW};
        // A dense sweep of (0, 1), a log sweep down each tail (to the
        // subnormals below, to the last ulp under 1 above), then the edges.
        let mut ps: Vec<f64> = (1..40_000).map(|i| i as f64 / 40_000.0).collect();
        let mut t = 0.03;
        while t > 1e-323 {
            ps.push(t);
            if t > 1e-16 {
                ps.push(1.0 - t);
            }
            t *= 0.37;
        }
        ps.extend([
            -f64::INFINITY,
            -1.0,
            -0.0,
            0.0,
            5e-324,
            1e-310,
            f64::MIN_POSITIVE,
            1e-300,
            P_LOW.next_down(),
            P_LOW,
            P_LOW.next_up(),
            0.5,
            P_HIGH.next_down(),
            P_HIGH,
            P_HIGH.next_up(),
            1.0 - f64::EPSILON / 2.0,
            1.0,
            1.0f64.next_up(),
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_dead_beef), // signalling, with a payload
        ]);
        assert_vinv_is_the_scalar::<1>(&ps);
        assert_vinv_is_the_scalar::<4>(&ps);
        assert_vinv_is_the_scalar::<8>(&ps);
    }

    #[test]
    fn vinv_norm_cdf_tail_skip_never_changes_a_lane() {
        // No lane, one lane and every lane in a tail region — and out of the
        // domain, and past the |x| >= 36 no-polish switch (p = 1e-300): the
        // vector takes the tail branch or skips it as a whole, a lane
        // evaluated alone decides for itself — same bits.
        let central = [0.02425, 0.1, 0.3, 0.5, 0.6, 0.8, 0.9, 0.97575];
        let tails = [1e-300, 5e-324, 1e-12, 0.024, 0.976, 1.0 - 1e-13, 0.0, 1.0];
        let mut vectors = vec![central, tails];
        vectors.extend(tails.map(|p| {
            let mut one_tail = central;
            one_tail[5] = p;
            one_tail
        }));
        let mut nan_lane = central;
        nan_lane[2] = f64::NAN;
        vectors.push(nan_lane);
        for v in vectors {
            let together = vinv_norm_cdf(F64v::<8>(v));
            for lane in 0..8 {
                let alone = vinv_norm_cdf(F64v::<1>([v[lane]]));
                assert_eq!(
                    together[lane].to_bits(),
                    alone[0].to_bits(),
                    "lane {lane} of {v:?}"
                );
                assert_eq!(
                    alone[0].to_bits(),
                    fm::inv_norm_cdf(v[lane]).to_bits(),
                    "lane {lane} of {v:?} alone"
                );
            }
        }
        // The no-polish lane really is one.
        assert!(fm::inv_norm_cdf(1e-300).abs() >= finbench_math::norm::INV_NO_POLISH);
    }

    #[test]
    fn vln_is_the_scalar_ln_at_every_exponent() {
        // Every exponent field a normal double can carry (the 2^52 trick
        // replaced an `as i64 … as f64` here), at a mantissa on each side
        // of the sqrt(2) adjust.
        const FRAC: u64 = (1 << 52) - 1;
        let sqrt2 = SQRT_2.to_bits() & FRAC;
        for biased in 1u64..=2046 {
            for frac in [0, sqrt2 - 1, sqrt2, FRAC] {
                let x = f64::from_bits((biased << 52) | frac);
                let got = vln(F64vec4::splat(x))[0];
                assert_eq!(got.to_bits(), fm::ln(x).to_bits(), "x={x:e}");
            }
        }
    }

    #[test]
    fn vexp_vln_inverse() {
        let v = F64vec4::new([0.5, 1.0, 42.0, 123.456]);
        let y = vexp(vln(v));
        for i in 0..4 {
            assert!(((y[i] - v[i]) / v[i]).abs() < 1e-13);
        }
    }
}
