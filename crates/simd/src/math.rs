//! Vectorized transcendental math — the SVML stand-in.
//!
//! No vector code lives here: each name is `finbench-math`'s one body for
//! that function, and an `F64v<N>` call is its `N`-lane instance, lane for
//! lane the bits of the scalar `finbench_math` function whatever the
//! neighbouring lanes hold (the tests below check every instance). This
//! mirrors how the paper's kernels obtain vector `exp`/`erf` ("the
//! highly-tuned transcendental math functions are unrolled and inlined by
//! the autovectorizing compiler in SVML").

/// Lane-wise `e^x`: [`finbench_math::exp::exp`].
///
/// ```
/// use finbench_simd::{F64vec4, math::vexp};
/// let y = vexp(F64vec4::new([0.0, 1.0, -1.0, 800.0]));
/// assert_eq!(y[1].to_bits(), finbench_math::exp(1.0).to_bits());
/// assert_eq!(y[3], f64::INFINITY);
/// ```
pub use finbench_math::exp::exp as vexp;

/// Lane-wise natural logarithm: [`finbench_math::log::ln`].
///
/// ```
/// use finbench_simd::{F64vec4, math::vln};
/// let y = vln(F64vec4::new([std::f64::consts::E, 0.0, -1.0, 1e-310]));
/// assert!((y[0] - 1.0).abs() < 1e-15 && y[1] == f64::NEG_INFINITY && y[2].is_nan());
/// assert_eq!(y[3].to_bits(), finbench_math::ln(1e-310).to_bits());
/// ```
pub use finbench_math::log::ln as vln;

/// Lane-wise cumulative standard normal, the paper's vector `cnd`:
/// [`finbench_math::norm::norm_cdf`].
///
/// ```
/// use finbench_simd::{F64vec4, math::vnorm_cdf};
/// let p = vnorm_cdf(F64vec4::new([0.0, 1.0, -1.0, 2.0]));
/// assert!((p[0] - 0.5).abs() < 1e-15);
/// ```
pub use finbench_math::norm::norm_cdf as vnorm_cdf;

/// Lane-wise error function, the paper's preferred Black-Scholes primitive
/// (`cnd(x) = (1 + erf(x/√2))/2`): [`finbench_math::erf::erf`].
///
/// ```
/// use finbench_simd::{F64vec4, math::verf};
/// let y = verf(F64vec4::splat(1.0));
/// assert!((y[0] - 0.8427007929497149).abs() < 1e-14);
/// ```
pub use finbench_math::erf::erf as verf;

/// Lane-wise inverse normal CDF (Acklam + one Halley step) — the transform
/// of Table II's uniform → normal stage, behind every computed-RNG rung:
/// [`finbench_math::norm::inv_norm_cdf`], [`vinv_norm_cdf_guess`] then
/// [`vinv_norm_cdf_polish`].
///
/// ```
/// use finbench_simd::{F64vec4, math::vinv_norm_cdf};
/// let x = vinv_norm_cdf(F64vec4::new([0.0, 0.5, 0.975, 1.0]));
/// assert_eq!(x[0], f64::NEG_INFINITY);
/// assert_eq!(x[1], 0.0);
/// assert_eq!(x[2].to_bits(), finbench_math::inv_norm_cdf(0.975).to_bits());
/// assert_eq!(x[3], f64::INFINITY);
/// ```
pub use finbench_math::norm::inv_norm_cdf as vinv_norm_cdf;

pub use finbench_math::norm::{
    inv_norm_cdf_guess as vinv_norm_cdf_guess, inv_norm_cdf_polish as vinv_norm_cdf_polish,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec::{F64v, F64vec4};
    use finbench_math::exp::{EXP_OVERFLOW, EXP_UNDERFLOW};
    use finbench_math::norm::{CND_TAIL_FROM, INV_NO_POLISH, P_HIGH, P_LOW};
    use finbench_math::{self as fm, counting_expanded, CountedF64, Lanes};

    /// One of the five bodies, callable at every [`Lanes`] instance.
    trait Body {
        fn at<L: Lanes>(x: L) -> L;
    }

    macro_rules! bodies {
        ($($name:ident = $f:ident),*) => {$(
            struct $name;
            impl Body for $name {
                fn at<L: Lanes>(x: L) -> L {
                    $f(x)
                }
            }
        )*};
    }
    bodies!(
        Exp = vexp,
        Ln = vln,
        Cnd = vnorm_cdf,
        Erf = verf,
        InvCnd = vinv_norm_cdf
    );

    /// The one bit-identity suite: every instance of `B` against its `f64`
    /// instance, by `to_bits`, at each of `xs` — alone (`F64v<1>`,
    /// `CountedF64` plain and expanded), in every lane of an `F64v<8>` whose
    /// other lanes are `neighbours` (chosen to send the vector down the
    /// body's rare branches: tails, edges, NaN) and in every lane of an
    /// `F64v<4>` of `neighbours[0]`, a common-path value.
    fn assert_one_body<B: Body>(xs: &[f64], neighbours: [f64; 8]) {
        for &x in xs {
            let want = B::at(x);
            let check = |got: f64, instance: &str| {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{instance} at x={x:e}: {got:e}, f64 instance {want:e}"
                );
            };
            check(B::at(F64v([x]))[0], "F64v<1>");
            check(B::at(CountedF64(x)).0, "CountedF64");
            let (expanded, _) = counting_expanded(|| B::at(CountedF64(x)));
            check(expanded.0, "CountedF64 expanded");
            for lane in 0..8 {
                let mut v = neighbours;
                v.rotate_left(lane);
                v[lane] = x;
                check(B::at(F64v(v))[lane], "F64v<8>");
                let mut v4 = [neighbours[0]; 4];
                v4[lane % 4] = x;
                check(B::at(F64v(v4))[lane % 4], "F64v<4>");
            }
        }
    }

    /// `n + 1` points from `lo` to `hi`.
    fn sweep(lo: f64, hi: f64, n: usize) -> Vec<f64> {
        let step = (hi - lo) / n as f64;
        (0..=n).map(|i| lo + step * i as f64).collect()
    }

    const INF: f64 = f64::INFINITY;
    const NAN: f64 = f64::NAN;
    const MIN: f64 = f64::MIN_POSITIVE;
    /// The edges every function meets: infinities, NaN, signed zeros, the
    /// subnormals and the smallest normal.
    const EDGES: [f64; 9] = [INF, -INF, NAN, 0.0, -0.0, 5e-324, 1e-310, MIN, -MIN];

    #[test]
    fn vpow2i_matches_the_integer_conversion_it_replaced() {
        for n in -1022i64..=1023 {
            let want = f64::from_bits(((1023 + n) as u64) << 52);
            let got = F64vec4::splat(n as f64).pow2i();
            assert_eq!(got[0].to_bits(), want.to_bits(), "n={n}");
        }
    }

    #[test]
    fn vexp_matches_scalar() {
        let mut xs = sweep(-750.0, 715.0, 2_930);
        xs.extend(EDGES);
        for edge in [EXP_OVERFLOW, EXP_UNDERFLOW] {
            xs.extend([edge.next_down(), edge, edge.next_up()]);
        }
        let neighbours = [0.5, NAN, 800.0, -3.0, -800.0, INF, 1e-300, 709.0];
        assert_one_body::<Exp>(&xs, neighbours);
    }

    #[test]
    fn vln_matches_scalar() {
        let mut xs: Vec<f64> = (0..2_000).map(|i| 1e-320 * 2.06f64.powi(i)).collect();
        xs.retain(|x| x.is_finite());
        xs.extend(EDGES);
        xs.extend([-1.0, 0.5, std::f64::consts::SQRT_2, f64::MAX]);
        let neighbours = [2.0, 0.0, 1e-310, -1.0, INF, NAN, 0.5, f64::MAX];
        assert_one_body::<Ln>(&xs, neighbours);
    }

    #[test]
    fn vln_near_one() {
        let (below, above) = (1.0f64.next_down(), 1.0f64.next_up());
        assert_one_body::<Ln>(&[0.999_999, 1.000_001, 1.0, 1.5, below, above], [1.0; 8]);
    }

    #[test]
    fn vnorm_cdf_matches_scalar() {
        let mut xs = sweep(-40.0, 40.0, 2_000);
        xs.extend(sweep(-CND_TAIL_FROM - 0.01, -CND_TAIL_FROM + 0.01, 40));
        xs.extend(EDGES);
        let seam = CND_TAIL_FROM;
        for x in [
            seam.next_down(),
            seam,
            seam.next_up(),
            37.0,
            37.0f64.next_up(),
        ] {
            xs.extend([x, -x]);
        }
        let neighbours = [0.3, NAN, 40.0, -8.0, seam, -37.5, INF, 1.0];
        assert_one_body::<Cnd>(&xs, neighbours);
    }

    #[test]
    fn norm_cdf_pair_is_two_cnd_calls_bit_for_bit() {
        use finbench_math::norm::{norm_cdf_pair, norm_cdf_pair_given_gauss};
        use finbench_math::Pair;
        let seam = CND_TAIL_FROM;
        let mut xs = sweep(-40.0, 40.0, 4_000);
        xs.extend([0.0, -0.0, NAN, INF, -INF, 37.0, 37.0f64.next_up()]);
        xs.extend([seam.next_down(), seam, seam.next_up()]);
        xs.extend([
            -37.0,
            (-37.0f64).next_up(),
            -seam.next_down(),
            -seam,
            -seam.next_up(),
        ]);
        let neighbours = [0.3, NAN, 40.0, -8.0, seam, -37.5, INF, 1.0];
        for &x in &xs {
            let want = (fm::norm_cdf(x), fm::norm_cdf(-x));
            let check = |got: (f64, f64), instance: &str| {
                assert_eq!(
                    (got.0.to_bits(), got.1.to_bits()),
                    (want.0.to_bits(), want.1.to_bits()),
                    "{instance} at x={x:e}: {got:?}, two calls {want:?}"
                );
            };
            check(norm_cdf_pair(x), "f64");
            check(
                norm_cdf_pair_given_gauss(x, fm::exp(x * x * -0.5)),
                "f64 given x·x",
            );
            for lane in 0..8 {
                let mut v = neighbours;
                v[lane] = x;
                let (up, down) = norm_cdf_pair(F64v(v));
                check((up[lane], down[lane]), "F64v<8>");
                let (up, down) = norm_cdf_pair(Pair(F64v(v), F64v(neighbours)));
                check((up.0[lane], down.0[lane]), "Pair<F64v<8>>");
                let mut v4 = [neighbours[0]; 4];
                v4[lane % 4] = x;
                let (up, down) = norm_cdf_pair(F64v(v4));
                check((up[lane % 4], down[lane % 4]), "F64v<4>");
            }
        }
    }

    #[test]
    fn vnorm_cdf_tail_skip_never_changes_a_lane() {
        // A vector with no lane past the 7.07σ seam skips the tail rational,
        // one tail lane brings it back for all: the same bits either way.
        let seam = CND_TAIL_FROM;
        let central = [-7.0, -3.2, -0.5, 0.0, 0.3, 1.7, 5.5, seam.next_down()];
        assert_one_body::<Cnd>(&central, central);
        assert_one_body::<Cnd>(&[-40.0, -9.0, seam, 37.5, NAN], central);
    }

    #[test]
    fn vnorm_cdf_mixed_region_lanes() {
        // Lanes straddling the central/tail switch and both signs at once —
        // the case that punishes incorrect blending.
        let v = [-9.0, -0.5, 3.0, 8.5];
        assert_one_body::<Cnd>(&v, [v, v].concat().try_into().unwrap());
    }

    #[test]
    fn verf_matches_scalar() {
        // Dense through the series region |x| < 0.5, whose bits moved once.
        let mut xs = sweep(-7.0, 7.0, 1_400);
        xs.extend(sweep(-0.5, 0.5, 2_000));
        xs.extend(EDGES);
        let below_half = 0.5f64.next_down();
        xs.extend([below_half, -below_half, 1e-8, -1e-8, 30.0, -30.0]);
        let neighbours = [0.1, 3.0, NAN, -0.2, 40.0, -INF, 0.5, -0.49];
        assert_one_body::<Erf>(&xs, neighbours);
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

    #[test]
    fn vinv_norm_cdf_is_bit_identical_to_the_scalar() {
        // A sweep of (0, 1), a log sweep down each tail (to the subnormals
        // below, to the last ulp under 1 above), then the edges.
        let mut ps = sweep(0.0, 1.0, 4_000);
        let mut t = 0.03;
        while t > 1e-323 {
            ps.push(t);
            if t > 1e-16 {
                ps.push(1.0 - t);
            }
            t *= 0.37;
        }
        ps.extend(EDGES);
        ps.extend([
            -1.0,
            1e-300,
            P_LOW.next_down(),
            P_LOW,
            P_LOW.next_up(),
            P_HIGH.next_down(),
            P_HIGH,
            P_HIGH.next_up(),
            1.0 - f64::EPSILON / 2.0,
            1.0f64.next_up(),
            -NAN,
            f64::from_bits(0x7ff0_0000_dead_beef), // signalling, with a payload
        ]);
        let neighbours = [0.5, 1e-300, 0.0, 1.0, NAN, 0.01, 0.99, 5e-324];
        assert_one_body::<InvCnd>(&ps, neighbours);
        // The no-polish lane really is one.
        assert!(fm::inv_norm_cdf(1e-300).abs() >= INV_NO_POLISH);
    }

    #[test]
    fn vinv_norm_cdf_tail_skip_never_changes_a_lane() {
        // As for `cnd`: no lane outside [P_LOW, P_HIGH], or one.
        let central = [P_LOW, 0.1, 0.3, 0.5, 0.6, 0.8, 0.9, P_HIGH];
        assert_one_body::<InvCnd>(&central, central);
        let tails = [1e-300, 5e-324, 1e-12, 0.024, 0.976, 0.0, 1.0, NAN];
        assert_one_body::<InvCnd>(&tails, central);
    }

    #[test]
    fn vln_is_the_scalar_ln_at_every_exponent() {
        // Every exponent field a normal double can carry (the 2^52 trick
        // replaced an `as i64 … as f64` here), at a mantissa on each side
        // of the sqrt(2) adjust.
        const FRAC: u64 = (1 << 52) - 1;
        let sqrt2 = std::f64::consts::SQRT_2.to_bits() & FRAC;
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
