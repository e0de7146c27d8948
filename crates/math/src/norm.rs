//! Standard normal distribution functions: `norm_cdf` (the paper's `cnd`),
//! `norm_pdf`, and the inverse CDF used by the RNG's inverse-transform
//! normal generator.
//!
//! `norm_cdf` uses the Hart (1968) double-precision rational approximation
//! in the form given by West, *Better approximations to cumulative normal
//! functions* (Wilmott, 2005): a degree-6/degree-7 rational times the
//! Gaussian density for `|x| < 7.07`, and a depth-12 continued fraction —
//! evaluated as one degree-12/degree-13 rational, [`CND_TAIL_DEN`] over
//! [`CND_TAIL_NUM`] — in the far tail. Absolute error is below 1e-15 across
//! the real line. The *relative* error of the small tail values — deep
//! out-of-the-money option prices are exactly such tails — is not uniform.
//! Hart's central rational is accurate *absolutely* (~2e-17), so measured
//! against a 60-digit reference `Φ(−x)` reads 1e-14 by 3σ, 3e-13 by 4σ,
//! 4e-11 by 5σ, 5e-10 by 6σ, 2.6e-9 at 7.0σ and 2.9e-9 just inside the 7.071
//! seam (an absolute error of 2e-21 there). The tail form reads 1.3e-14 just
//! outside the seam (the fraction's truncation) and ≤ 1e-15 past 9σ at an
//! `x` whose square is exact; for a general `x` the rounding of `x²/2` in
//! the Gaussian's argument adds up to `x²/2 · 2⁻⁵³` (5.7e-14 at 37σ).
//! `tail_relative_error_by_region` pins ≤ 5e-9 on [6, 7.071) and ≤ 5e-14 on
//! [7.071, 37].
//!
//! `inv_norm_cdf` uses Acklam's rational approximation (~1.15e-9 relative)
//! polished with one Halley iteration, giving ~1e-15.

use crate::lanes::{LaneMask, Lanes};
use crate::poly::polevl;
use crate::SQRT_2PI;

/// Density of the standard normal distribution.
///
/// ```
/// let top = finbench_math::norm_pdf(0.0);
/// assert!((top - 0.3989422804014327).abs() < 1e-15);
/// ```
#[inline(always)]
pub fn norm_pdf(x: f64) -> f64 {
    crate::exp(-0.5 * x * x) / SQRT_2PI
}

/// Hart/West numerator coefficients (applied to `|x|`, descending for
/// Horner evaluation).
const CND_NUM: [f64; 7] = [
    0.035_262_496_599_891_1,
    0.700_383_064_443_688,
    6.373_962_203_531_65,
    33.912_866_078_383,
    112.079_291_497_871,
    221.213_596_169_931,
    220.206_867_912_376,
];

/// Hart/West denominator coefficients.
const CND_DEN: [f64; 8] = [
    0.088_388_347_648_318_4,
    1.755_667_163_182_64,
    16.064_177_579_207,
    86.780_732_202_946_1,
    296.564_248_779_674,
    637.333_633_378_831,
    793.826_512_519_948,
    440.413_735_824_752,
];

/// `|x|` from which [`norm_cdf`] leaves Hart's central rational for the
/// far-tail fraction (`10/√2`).
pub const CND_TAIL_FROM: f64 = 7.071_067_811_865_475;

/// Far-tail Mills ratio: the Laplace continued fraction
/// `b = |x| + 1/(|x| + 2/(… + 12/(|x| + 0.65)))` written as the ratio of its
/// two convergent polynomials, `b = NUM(|x|) / DEN(|x|)` (recurrence
/// `N_k = x·N_{k+1} + k·D_{k+1}`, `D_k = N_{k+1}` from `N_13 = x + 0.65`,
/// `D_13 = 1`), so the tail is two independent Horner chains and one
/// division instead of twelve dependent ones: `Φ(−x) = φ(x) · DEN / NUM`.
/// Descending; every coefficient is an integer or a multiple of 0.65
/// (`tail_tables_are_the_continued_fraction` re-derives both exactly).
pub const CND_TAIL_NUM: [f64; 14] = [
    1.0, 0.65, 78.0, 42.9, 2145.0, 965.25, 25740.0, 9009.0, 135135.0, 33783.75, 270270.0, 40540.5,
    135135.0, 6756.75,
];

/// Denominator of the far-tail fraction; see [`CND_TAIL_NUM`].
pub const CND_TAIL_DEN: [f64; 13] = [
    1.0, 0.65, 77.0, 42.25, 2070.0, 924.3, 23814.0, 8162.7, 114765.0, 27095.25, 187425.0, 23195.25,
    46080.0,
];

/// `|x|` past which [`norm_cdf`] reads exactly 0 or 1: `Φ(−37)` is
/// 5.7e-300, and [`cnd_rational`] answers `(0, 1)` there.
pub const CND_ZERO_FROM: f64 = 37.0;

/// Φ's rational for `ax = |x|`, as the pair `(num, den)` with
/// `Φ(−ax) = exp(−x²/2) · num / den`: Hart's central pair below
/// [`CND_TAIL_FROM`], the far-tail pair (`CND_TAIL_DEN`,
/// `CND_TAIL_NUM · √(2π)`) from there to [`CND_ZERO_FROM`], and `(0, 1)`
/// past it. NaN lanes get a NaN pair.
///
/// The pair is chosen per lane by select, *before* any division, so a
/// caller divides once whichever rational a lane needs, and every `den`
/// lies in [440, 7e20]: a product of two stays finite. A vector with no
/// lane at or past 7.07σ returns the central pair without evaluating the
/// tail; that skip is the compiler's to keep, though — where LLVM
/// if-converts it (the AVX-512 portfolio sweep) the tail's two Horner
/// chains and four selects run for every vector. The bits are the same
/// either way, and either way there is no second division.
///
/// The far tail is the Laplace continued fraction for the Mills ratio,
/// `Φ(−x) = φ(x) / (x + 1/(x + 2/(x + 3/(…))))`, at depth 12 as one
/// rational. West (2005) truncates at depth 4, which is only ~1e-9
/// accurate right at the 7.07 switch point; depth 12 brings the truncation
/// error to ~1e-14 there and below 1e-15 past 9.
#[inline(always)]
pub fn cnd_rational<L: Lanes>(ax: L) -> (L, L) {
    let num = polevl(ax, &CND_NUM);
    let den = polevl(ax, &CND_DEN);
    let in_central = ax.lt(L::splat(CND_TAIL_FROM));
    if in_central.all() {
        return (num, den);
    }
    let past = ax.gt(L::splat(CND_ZERO_FROM));
    let tail_num = L::select(past, L::splat(0.0), polevl(ax, &CND_TAIL_DEN));
    let tail_den = L::select(past, L::splat(1.0), polevl(ax, &CND_TAIL_NUM) * SQRT_2PI);
    (
        L::select(in_central, num, tail_num),
        L::select(in_central, den, tail_den),
    )
}

/// Cumulative distribution function of the standard normal, the paper's
/// `cnd`, lane-wise; NaN in, NaN out: the first half of [`norm_cdf_pair`].
///
/// `exp(−x²/2) · num / den` over [`cnd_rational`]'s pair, mirrored for
/// `x > 0`: one `exp` and one division per lane whichever rational it
/// needs. Vectors with a lane past 7.07σ are not rare — 17 % of the W=8
/// vectors of the paper's Black-Scholes workload (DESIGN.md §2) — and cost
/// two more Horner chains and four selects.
///
/// ```
/// assert!((finbench_math::norm_cdf(0.0) - 0.5).abs() < 1e-15);
/// assert!((finbench_math::norm_cdf(1.0) - 0.8413447460685429).abs() < 1e-14);
/// ```
#[inline(always)]
pub fn norm_cdf<L: Lanes>(x: L) -> L {
    norm_cdf_pair(x).0
}

/// `(Φ(x), Φ(−x))`, lane-wise, for one `exp`, one rational and one
/// division: both halves share `|x|`, its Gaussian and `cum = Φ(−|x|)`, and
/// differ only in which of `cum` and `1 − cum` they pick. Each half has the
/// bits of its own [`norm_cdf`] call (`±0` and NaN lanes read `cum` in
/// both).
///
/// ```
/// use finbench_math::norm::{norm_cdf, norm_cdf_pair};
/// let (up, down) = norm_cdf_pair(1.5);
/// assert_eq!((up.to_bits(), down.to_bits()), (norm_cdf(1.5).to_bits(), norm_cdf(-1.5).to_bits()));
/// ```
#[inline(always)]
pub fn norm_cdf_pair<L: Lanes>(x: L) -> (L, L) {
    let ax = x.abs();
    norm_cdf_pair_given_gauss(x, (ax * ax * -0.5).exp())
}

/// [`norm_cdf_pair`] of `x` given `e = exp(−x²/2)`, for a caller that needs
/// that Gaussian itself (the density in the Greeks sweeps,
/// [`inv_norm_cdf_polish`]'s Halley step). `x·x` and `|x|·|x|` round to
/// the same bits, so any finite or infinite `x` gets [`norm_cdf_pair`]'s.
#[inline(always)]
pub fn norm_cdf_pair_given_gauss<L: Lanes>(x: L, e: L) -> (L, L) {
    let (num, den) = cnd_rational(x.abs());
    // `e ≥ 0`, so a lane past 37σ reads `e · 0 / 1 = +0` exactly.
    let cum = e * num / den;
    let (zero, far) = (L::splat(0.0), L::splat(1.0) - cum);
    (
        L::select(x.gt(zero), far, cum),
        L::select(x.lt(zero), far, cum),
    )
}

// ---------------------------------------------------------------------------
// Inverse CDF (Acklam + Halley)
// ---------------------------------------------------------------------------

/// Acklam's central-region numerator (in `r = (p − ½)²`, descending for
/// Horner).
const INV_A: [f64; 6] = [
    -3.969_683_028_665_376e1,
    2.209_460_984_245_205e2,
    -2.759_285_104_469_687e2,
    1.383_577_518_672_69e2,
    -3.066_479_806_614_716e1,
    2.506_628_277_459_239,
];
/// Central-region denominator; the trailing `·r + 1` is applied by hand.
const INV_B: [f64; 5] = [
    -5.447_609_879_822_406e1,
    1.615_858_368_580_409e2,
    -1.556_989_798_598_866e2,
    6.680_131_188_771_972e1,
    -1.328_068_155_288_572e1,
];
/// Tail numerator, in `q = √(−2 ln p)`.
const INV_C: [f64; 6] = [
    -7.784_894_002_430_293e-3,
    -3.223_964_580_411_365e-1,
    -2.400_758_277_161_838,
    -2.549_732_539_343_734,
    4.374_664_141_464_968,
    2.938_163_982_698_783,
];
/// Tail denominator; the trailing `·q + 1` is applied by hand.
const INV_D: [f64; 4] = [
    7.784_695_709_041_462e-3,
    3.224_671_290_700_398e-1,
    2.445_134_137_142_996,
    3.754_408_661_907_416,
];

/// Below this probability Acklam switches to the lower-tail rational.
pub const P_LOW: f64 = 0.02425;
/// Above this probability Acklam switches to the (mirrored) upper-tail rational.
pub const P_HIGH: f64 = 1.0 - P_LOW;
/// Past this `|x|` the density underflows and the Halley correction would
/// be 0/0; Acklam alone is ~1e-9 relative there, which the deep tail does
/// not improve on anyway (`norm_cdf` itself clamps at 37).
pub const INV_NO_POLISH: f64 = 36.0;

/// Acklam's rational approximation to the inverse normal CDF *without*
/// the Halley polish: ~1.15e-9 relative error, roughly twice as fast as
/// [`inv_norm_cdf`]. Plenty for Monte-Carlo sampling, where the
/// discretization error dwarfs 1e-9 (the statistical tests in
/// `finbench-rng` pass with either transform).
#[inline(always)]
pub fn inv_norm_cdf_acklam(p: f64) -> f64 {
    if p > 0.0 && p < 1.0 {
        inv_norm_cdf_guess(p)
    } else {
        inv_norm_cdf(p) // −∞, +∞ or NaN
    }
}

/// Inverse of [`norm_cdf`], lane-wise: returns `x` such that
/// `norm_cdf(x) = p`.
///
/// Accurate to ~1e-15 relative over `p ∈ (0, 1)`; `p ≤ 0` maps to `-inf`,
/// `p ≥ 1` to `+inf`, NaN is handed back. An array transform should run
/// the two halves as two sweeps (`finbench_simd::batch::vd_inv_norm_cdf`
/// does): fused, one vector is a ~250-cycle dependency chain the core
/// cannot overlap with the next, and measures half the rate.
///
/// ```
/// let x = finbench_math::inv_norm_cdf(0.975);
/// assert!((x - 1.959963984540054).abs() < 1e-12);
/// ```
#[inline(always)]
pub fn inv_norm_cdf<L: Lanes>(p: L) -> L {
    inv_norm_cdf_polish(p, inv_norm_cdf_guess(p))
}

/// Acklam's rational approximation to the inverse normal CDF (~1.15e-9
/// relative), for lanes in `(0, 1)`; lanes outside hold garbage that
/// [`inv_norm_cdf_polish`] replaces.
///
/// The central rational is computed for every lane; the `ln`/`sqrt` tail
/// rational only for a vector with a lane outside `[P_LOW, P_HIGH]` (4.85 %
/// of uniform draws, so about a third of W=8 vectors — the blend would
/// discard it from all the others).
#[inline(always)]
pub fn inv_norm_cdf_guess<L: Lanes>(p: L) -> L {
    let q = p - 0.5;
    let r = q * q;
    let central = polevl(r, &INV_A) * q / (polevl(r, &INV_B) * r + 1.0);

    let in_central = p.ge(L::splat(P_LOW)).and(p.le(L::splat(P_HIGH)));
    if in_central.all() {
        return central;
    }
    // Tail rational in sqrt(-2 ln t), t the distance to the nearer end,
    // mirrored for the upper tail.
    let lower = p.lt(L::splat(P_LOW));
    let t = L::select(lower, p, L::splat(1.0) - p);
    let q = (t.ln() * -2.0).sqrt();
    let tail = polevl(q, &INV_C) / (polevl(q, &INV_D) * q + 1.0);
    L::select(in_central, central, L::select(lower, tail, -tail))
}

/// One Halley step on the guess `x` at the root of `Φ(x) = p` —
/// `e = Φ(x) − p`, `u = e / φ(x)`, `x ← x − u / (1 + x·u/2)`, with Φ and φ
/// sharing one `exp(−x²/2)` — then the function's edges: a lane with
/// `|x| ≥ 36` keeps its guess (φ underflows there), `p ≤ 0 → −∞`,
/// `p ≥ 1 → +∞`, NaN handed back.
#[inline(always)]
pub fn inv_norm_cdf_polish<L: Lanes>(p: L, x: L) -> L {
    let ax = x.abs();
    let gauss = (ax * ax * -0.5).exp();
    let e = norm_cdf_pair_given_gauss(x, gauss).0 - p;
    let u = e / (gauss / SQRT_2PI);
    let polished = x - u / (x * 0.5 * u + 1.0);
    let y = L::select(ax.ge(L::splat(INV_NO_POLISH)), x, polished);

    // Edge lanes by whole vector, as the tails above: blended
    // unconditionally, these three selects on `y` keep LLVM from packing
    // the body (lanes 0 and 3 stayed scalar under AVX-512). NaN fails both
    // comparisons here and every one below, `p >= p` included.
    if p.gt(L::splat(0.0)).and(p.lt(L::splat(1.0))).all() {
        return y;
    }
    let y = L::select(p.le(L::splat(0.0)), L::splat(f64::NEG_INFINITY), y);
    let y = L::select(p.ge(L::splat(1.0)), L::splat(f64::INFINITY), y);
    L::select(p.ge(p), y, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pdf_known_values() {
        assert!((norm_pdf(0.0) - 0.398_942_280_401_432_7).abs() < 1e-15);
        assert!((norm_pdf(1.0) - 0.241_970_724_519_143_37).abs() < 1e-15);
        assert!((norm_pdf(-1.0) - norm_pdf(1.0)).abs() == 0.0);
    }

    #[test]
    fn cdf_known_values() {
        // Reference values computed with mpmath at 50 digits.
        let cases = [
            (0.0, 0.5),
            (1.0, 0.841_344_746_068_542_9),
            (-1.0, 0.158_655_253_931_457_05),
            (2.0, 0.977_249_868_051_820_8),
            (0.5, 0.691_462_461_274_013_1),
            (-1.96, 0.024_997_895_148_220_435),
            (1.96, 0.975_002_104_851_779_5),
            (3.0, 0.998_650_101_968_369_9),
            (-3.0, 1.349_898_031_630_094_6e-3),
        ];
        for (x, want) in cases {
            let got = norm_cdf(x);
            assert!(
                (got - want).abs() < 2e-15,
                "x={x} got={got} want={want} diff={}",
                (got - want).abs()
            );
        }
    }

    #[test]
    fn cdf_deep_tail_relative_accuracy() {
        // Phi(-8) = 6.22096057427178e-16 * ... ; reference from mpmath:
        let want = 6.220_960_574_271_786e-16;
        let got = norm_cdf(-8.0);
        assert!(((got - want) / want).abs() < 1e-12, "got={got}");
        // Phi(-10)
        let want10 = 7.619_853_024_160_527e-24;
        let got10 = norm_cdf(-10.0);
        assert!(((got10 - want10) / want10).abs() < 1e-12, "got={got10}");
    }

    /// The far tail as it was evaluated before it became one rational: the
    /// depth-12 continued fraction, twelve dependent divisions.
    fn tail_by_continued_fraction(ax: f64) -> f64 {
        let mut b = ax + 0.65;
        let mut k = 12.0;
        while k >= 1.0 {
            b = ax + k / b;
            k -= 1.0;
        }
        crate::exp(-0.5 * ax * ax) / (b * SQRT_2PI)
    }

    fn rel(got: f64, want: f64) -> f64 {
        ((got - want) / want).abs()
    }

    #[test]
    fn tail_tables_are_the_continued_fraction() {
        // N_k = x N_{k+1} + k D_{k+1}, D_k = N_{k+1} from N_13 = x + 0.65,
        // D_13 = 1, in integers: everything scaled by 20 (0.65 = 13/20).
        // Ascending coefficients.
        let mut n: Vec<u64> = vec![13, 20];
        let mut d: Vec<u64> = vec![20];
        for k in (1..=12).rev() {
            let mut next = vec![0; n.len() + 1];
            for (i, &c) in n.iter().enumerate() {
                next[i + 1] = c;
            }
            for (i, &c) in d.iter().enumerate() {
                next[i] += k * c;
            }
            d = std::mem::replace(&mut n, next);
        }
        let descending = |p: &[u64]| p.iter().rev().map(|&c| c as f64 / 20.0).collect::<Vec<_>>();
        assert_eq!(descending(&n), CND_TAIL_NUM);
        assert_eq!(descending(&d), CND_TAIL_DEN);
    }

    #[test]
    fn tail_rational_agrees_with_the_continued_fraction() {
        let (lo, hi, n) = (CND_TAIL_FROM, 37.0, 60_000);
        let mut worst = 0.0f64;
        for i in 0..=n {
            let x = lo + (hi - lo) * i as f64 / n as f64;
            worst = worst.max(rel(norm_cdf(-x), tail_by_continued_fraction(x)));
        }
        assert!(worst <= 4e-15, "worst={worst:e}");
    }

    #[test]
    fn tail_strictly_decreasing_and_the_seam_steps_down() {
        let mut prev = norm_cdf(-6.9);
        for i in 1..=301_000 {
            let x = 6.9 + i as f64 * 1e-4;
            let cur = norm_cdf(-x);
            assert!(cur < prev, "x={x}: {cur:e} !< {prev:e}");
            prev = cur;
        }
        // Across the seam itself: Hart's rational over-reads by 2.9e-9
        // relative just inside, so the one-ulp step is a drop that size.
        let inside = norm_cdf(-CND_TAIL_FROM.next_down());
        let outside = norm_cdf(-CND_TAIL_FROM);
        assert!(outside < inside, "{inside:e} -> {outside:e}");
        assert!(rel(outside, inside) <= 5e-9, "{inside:e} -> {outside:e}");
    }

    #[test]
    #[allow(clippy::excessive_precision)] // the references as computed, 20 digits
    fn tail_relative_error_by_region() {
        // (x, Phi(-x)) from mpmath at 60 digits, 20 kept; apart from the two
        // seam points every x has an exact square (see the module doc).
        #[rustfmt::skip]
        let reference = [
            (6.0, 9.865876450376981407e-10),
            (6.125, 4.5341803266952844889e-10),
            (6.25, 2.0522634252189388816e-10),
            (6.375, 9.1481475836086101718e-11),
            (6.5, 4.0160005838591178083e-11),
            (6.625, 1.7362408953520568751e-11),
            (6.75, 7.3922577780178224195e-12),
            (6.875, 3.0994929517572154306e-12),
            (7.0, 1.2798125438858350044e-12),
            (7.0703125, 7.7292588826839031575e-13),
            (7.071067811865474, 7.6872989721402581914e-13),
            (7.071067811865475, 7.687298972140208982e-13),
            (7.078125, 7.3058950420605198153e-13),
            (7.125, 5.204034400316781493e-13),
            (7.25, 2.0838581586720694312e-13),
            (7.375, 8.2172526075843372513e-14),
            (7.5, 3.1908916729108962278e-14),
            (7.625, 1.2201719317899234759e-14),
            (7.75, 4.5946274357785954602e-15),
            (7.875, 1.7037142916328732075e-15),
            (8.0, 6.2209605742717841235e-16),
            (8.5, 9.4795348222033183542e-18),
            (9.0, 1.1285884059538406477e-19),
            (9.5, 1.0494515075362607493e-21),
            (10.0, 7.619853024160526066e-24),
            (10.5, 4.3190063178092303465e-26),
            (11.0, 1.9106595744986757112e-28),
            (11.5, 6.5957714461136750791e-31),
            (12.0, 1.7764821120776789977e-33),
            (12.5, 3.7325642988777133772e-36),
            (13.0, 6.1171643995498796823e-39),
            (13.5, 7.8188073056578912157e-42),
            (14.0, 7.7935368191928002544e-45),
            (14.5, 6.0574947644152207796e-48),
            (15.0, 3.6709661993127508858e-51),
            (15.5, 1.7344607917938700513e-54),
            (16.0, 6.3887544005380872813e-58),
            (16.5, 1.83446300316473111e-61),
            (17.0, 4.1059962020989062896e-65),
            (17.5, 7.1634587662350358454e-69),
            (18.0, 9.7409489189371504826e-73),
            (18.5, 1.0323698689563289609e-76),
            (19.0, 8.5272239526309765105e-81),
            (19.5, 5.4891154756604099475e-85),
            (20.0, 2.7536241186062336951e-89),
            (20.5, 1.0764673258790960335e-93),
            (21.0, 3.2792780189790359397e-98),
            (21.5, 7.7843970771826337687e-103),
            (22.0, 1.4398924351450790457e-107),
            (22.5, 2.075310799066354583e-112),
            (23.0, 2.3306370062206487986e-117),
            (23.5, 2.0393675632499762305e-122),
            (24.0, 1.3903921185497030596e-127),
            (24.5, 7.3857068614894077943e-133),
            (25.0, 3.0566967063825609164e-138),
            (25.5, 9.8562365189639287943e-144),
            (26.0, 2.4760633155033892858e-149),
            (26.5, 4.8461626603033202928e-155),
            (27.0, 7.3894810068850182575e-161),
            (27.5, 8.7781705568780837723e-167),
            (28.0, 8.1238694696594265936e-173),
            (28.5, 5.8571412538063375481e-179),
            (29.0, 3.2897852667043801617e-185),
            (29.5, 1.4394745522291791686e-191),
            (30.0, 4.9067139271481870595e-198),
            (30.5, 1.3029379131780763509e-204),
            (31.0, 2.6952500812005000786e-211),
            (31.5, 4.3432326010317719588e-218),
            (32.0, 5.452080603512396092e-225),
            (32.5, 5.3314243596788040993e-232),
            (33.0, 4.0611856209158550885e-239),
            (33.5, 2.4098386951203853937e-246),
            (34.0, 1.1138987855743793866e-253),
            (34.5, 4.0107289665772619693e-261),
            (35.0, 1.124910706472406244e-268),
            (35.5, 2.4576915406619369142e-276),
            (36.0, 4.1826240657972833317e-284),
            (36.5, 5.5447257130748445538e-292),
            (37.0, 5.7255712225245768227e-300),
        ];
        for (x, want) in reference {
            let bound = if x < CND_TAIL_FROM { 5e-9 } else { 5e-14 };
            let got = norm_cdf(-x);
            assert!(rel(got, want) <= bound, "x={x} got={got:e} want={want:e}");
            assert_eq!(norm_cdf(x), 1.0 - got, "x={x}");
        }
    }

    #[test]
    fn cdf_symmetry() {
        let mut i = 0;
        while i <= 800 {
            let x = i as f64 * 0.01;
            let s = norm_cdf(x) + norm_cdf(-x);
            assert!((s - 1.0).abs() < 2e-15, "x={x}");
            i += 1;
        }
    }

    #[test]
    fn cdf_monotone() {
        let mut prev = norm_cdf(-12.0);
        let mut i = 1;
        while i <= 2400 {
            let x = -12.0 + i as f64 * 0.01;
            let cur = norm_cdf(x);
            assert!(cur >= prev, "x={x}");
            prev = cur;
            i += 1;
        }
    }

    #[test]
    fn cdf_bits_are_pinned_on_a_dense_grid() {
        // FNV-1a over the bits of Φ at 1 600 001 points spanning [-40, 40]:
        // both tail seams, both 37σ clamps and the centre. The value is the
        // checksum of the two-division form this body replaced, so every
        // kernel that calls `norm_cdf` keeps its bits.
        let n = 1_600_000u64;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..=n {
            let x = -40.0 + 80.0 * i as f64 / n as f64;
            h = (h ^ norm_cdf(x).to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(h, 0xff8e_60e7_644f_af00, "{h:#018x}");
    }

    #[test]
    fn rational_pair_is_zero_over_one_past_the_clamp() {
        for ax in [37.000_000_000_000_01, 40.0, 1e30, f64::INFINITY] {
            assert_eq!(cnd_rational(ax), (0.0, 1.0), "{ax}");
        }
        // The largest `den` there is: the one at 37σ.
        let (num, den) = cnd_rational(CND_ZERO_FROM);
        assert!(
            num > 0.0 && (6e20..7e20).contains(&den),
            "{num:e} / {den:e}"
        );
        let (num, den) = cnd_rational(f64::NAN);
        assert!(num.is_nan() && den.is_nan());
    }

    #[test]
    fn cdf_extremes() {
        assert_eq!(norm_cdf(40.0), 1.0);
        assert_eq!(norm_cdf(-40.0), 0.0);
        assert!(norm_cdf(f64::NAN).is_nan());
    }

    #[test]
    fn inverse_round_trip() {
        let mut i = 1;
        while i < 10000 {
            let p = i as f64 / 10000.0;
            let x = inv_norm_cdf(p);
            let back = norm_cdf(x);
            assert!((back - p).abs() < 1e-13, "p={p} x={x} back={back}");
            i += 7;
        }
    }

    #[test]
    fn inverse_tails() {
        for &p in &[1e-250f64, 1e-100, 1e-20, 1e-10, 1e-5] {
            let x = inv_norm_cdf(p);
            let back = norm_cdf(x);
            assert!(((back - p) / p).abs() < 1e-9, "p={p} x={x} back={back}");
            // Symmetry of the inverse.
            let xq = inv_norm_cdf(1.0 - p);
            if p >= 1e-16 {
                assert!((x + xq).abs() < 1e-6 * x.abs(), "p={p}");
            }
        }
    }

    #[test]
    fn acklam_fast_path_within_stated_error() {
        let mut i = 1;
        while i < 100_000 {
            let p = i as f64 / 100_000.0;
            let fast = inv_norm_cdf_acklam(p);
            let exact = inv_norm_cdf(p);
            let err = (fast - exact).abs() / exact.abs().max(1.0);
            assert!(err < 1.5e-9, "p={p}: {err}");
            i += 37;
        }
        assert_eq!(inv_norm_cdf_acklam(0.0), f64::NEG_INFINITY);
        assert_eq!(inv_norm_cdf_acklam(1.0), f64::INFINITY);
        assert!(inv_norm_cdf_acklam(f64::NAN).is_nan());
    }

    #[test]
    fn inverse_known_values() {
        assert_eq!(inv_norm_cdf(0.5), 0.0);
        assert!((inv_norm_cdf(0.975) - 1.959_963_984_540_054).abs() < 1e-12);
        assert!((inv_norm_cdf(0.841_344_746_068_542_9) - 1.0).abs() < 1e-12);
        assert_eq!(inv_norm_cdf(0.0), f64::NEG_INFINITY);
        assert_eq!(inv_norm_cdf(1.0), f64::INFINITY);
    }
}
