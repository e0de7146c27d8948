//! Normally-distributed variate generation.
//!
//! The paper's Monte-Carlo and Brownian-bridge kernels consume streams of
//! standard normal doubles; Table II reports the generation rate
//! ("normally-dist. DP RNG/sec"). Two transforms are provided:
//!
//! * **Inverse CDF** ([`fill_standard_normal_icdf`]) — one uniform in, one
//!   normal out, no rejection, so it runs as two vector sweeps per
//!   cache-resident block: the generator's block uniform fill, then the
//!   array-at-a-time inverse CDF over the same doubles in place — how
//!   MKL's `vdRngGaussian(ICDF)` pipeline works. The output is, bit for
//!   bit, `inv_norm_cdf(rng.next_f64_open())` per draw.
//! * **Marsaglia polar** ([`fill_standard_normal_polar`]) — the classic
//!   branchy rejection method, kept as the scalar baseline (acceptance
//!   ratio π/4; hostile to SIMD, which is precisely why the vector-math
//!   route matters).

use crate::uniform::{u64_to_f64_oo, u64_to_f64_symmetric};
use crate::RngCore64;
use finbench_math::{inv_norm_cdf_acklam, ln};
use finbench_simd::batch::vd_inv_norm_cdf_in_place;
use finbench_simd::isa_fn;

/// Draws per uniform-then-transform block of [`fill_standard_normal_icdf`]:
/// 8 KiB, so the transform reads the uniforms back out of L1.
const ICDF_BLOCK: usize = 1024;

isa_fn! {
    /// Fill `out` with standard normal variates via the inverse-CDF
    /// transform: `out[i] = inv_norm_cdf(rng.next_f64_open())`, in order.
    pub fn fill_standard_normal_icdf<R: RngCore64>(rng: &mut R, out: &mut [f64]) {
        crate::counters::NORMAL_DRAWS.add(out.len() as u64);
        for block in out.chunks_mut(ICDF_BLOCK) {
            rng.fill_with(block, u64_to_f64_oo);
            vd_inv_norm_cdf_in_place(block);
        }
    }
}

isa_fn! {
    /// Fill `out` via the *fast* inverse-CDF transform (Acklam without the
    /// Halley polish, ~1.15e-9 relative): the right choice when the normals
    /// feed a Monte-Carlo estimator whose own error is orders of magnitude
    /// larger.
    pub fn fill_standard_normal_icdf_fast<R: RngCore64>(rng: &mut R, out: &mut [f64]) {
        crate::counters::NORMAL_DRAWS.add(out.len() as u64);
        for slot in out {
            *slot = inv_norm_cdf_acklam(rng.next_f64_open());
        }
    }
}

/// Fill `out` with standard normal variates via the classic Box-Muller
/// transform: each pair of uniforms `(u1, u2)` yields
/// `√(−2 ln u1)·(cos 2πu2, sin 2πu2)`. Branch-free (no rejection) like
/// the inverse-CDF route, but costs a `ln`, a `sqrt` and a `sincos` per
/// pair — the trade the paper's RNG discussion weighs against the ICDF.
pub fn fill_standard_normal_box_muller<R: RngCore64>(rng: &mut R, out: &mut [f64]) {
    const TWO_PI: f64 = 2.0 * std::f64::consts::PI;
    crate::counters::NORMAL_DRAWS.add(out.len() as u64);
    let mut i = 0;
    while i + 1 < out.len() {
        let u1 = rng.next_f64_open();
        let u2 = rng.next_f64();
        let radius = (-2.0 * ln(u1)).sqrt();
        let (s, c) = finbench_math::sincos(TWO_PI * u2);
        out[i] = radius * c;
        out[i + 1] = radius * s;
        i += 2;
    }
    if i < out.len() {
        let u1 = rng.next_f64_open();
        let u2 = rng.next_f64();
        let radius = (-2.0 * ln(u1)).sqrt();
        out[i] = radius * finbench_math::cos(TWO_PI * u2);
    }
}

/// One standard normal via the Marsaglia polar method.
#[inline]
pub fn standard_normal_polar<R: RngCore64>(rng: &mut R, spare: &mut Option<f64>) -> f64 {
    if let Some(z) = spare.take() {
        return z;
    }
    loop {
        let u = u64_to_f64_symmetric(rng.next_u64());
        let v = u64_to_f64_symmetric(rng.next_u64());
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            let f = (-2.0 * ln(s) / s).sqrt();
            *spare = Some(v * f);
            return u * f;
        }
    }
}

/// Fill `out` with standard normal variates via the polar method.
pub fn fill_standard_normal_polar<R: RngCore64>(rng: &mut R, out: &mut [f64]) {
    crate::counters::NORMAL_DRAWS.add(out.len() as u64);
    let mut spare = None;
    for slot in out {
        *slot = standard_normal_polar(rng, &mut spare);
    }
}

/// Summary statistics used by the distributional tests and the harness's
/// self-checks.
#[derive(Debug, Clone, Copy)]
pub struct Moments {
    /// Sample mean.
    pub mean: f64,
    /// Sample variance (biased, 1/n).
    pub variance: f64,
    /// Sample skewness.
    pub skewness: f64,
    /// Sample excess kurtosis.
    pub excess_kurtosis: f64,
}

/// Compute the first four standardized sample moments of `xs`.
pub fn moments(xs: &[f64]) -> Moments {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let mut m2 = 0.0;
    let mut m3 = 0.0;
    let mut m4 = 0.0;
    for &x in xs {
        let d = x - mean;
        let d2 = d * d;
        m2 += d2;
        m3 += d2 * d;
        m4 += d2 * d2;
    }
    m2 /= n;
    m3 /= n;
    m4 /= n;
    Moments {
        mean,
        variance: m2,
        skewness: m3 / m2.powf(1.5),
        excess_kurtosis: m4 / (m2 * m2) - 3.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mt19937_64, Philox4x32};

    fn assert_standard_normal(xs: &[f64], label: &str) {
        let m = moments(xs);
        let n = xs.len() as f64;
        // Standard errors: mean ~ 1/sqrt(n), var ~ sqrt(2/n),
        // skew ~ sqrt(6/n), kurt ~ sqrt(24/n). Use 5-sigma bands.
        assert!(m.mean.abs() < 5.0 / n.sqrt(), "{label}: mean {}", m.mean);
        assert!(
            (m.variance - 1.0).abs() < 5.0 * (2.0 / n).sqrt(),
            "{label}: var {}",
            m.variance
        );
        assert!(
            m.skewness.abs() < 5.0 * (6.0 / n).sqrt(),
            "{label}: skew {}",
            m.skewness
        );
        assert!(
            m.excess_kurtosis.abs() < 5.0 * (24.0 / n).sqrt(),
            "{label}: kurt {}",
            m.excess_kurtosis
        );
    }

    #[test]
    fn icdf_moments() {
        let mut rng = Mt19937_64::new(2026);
        let mut buf = vec![0.0; 200_000];
        fill_standard_normal_icdf(&mut rng, &mut buf);
        assert_standard_normal(&buf, "icdf");
    }

    #[test]
    fn box_muller_moments_and_pair_structure() {
        let mut rng = Mt19937_64::new(31415);
        let mut buf = vec![0.0; 200_000];
        fill_standard_normal_box_muller(&mut rng, &mut buf);
        assert_standard_normal(&buf, "box-muller");
        // Pairs (z0, z1) lie on circles of radius sqrt(-2 ln u1): both
        // members share the radius, so z0^2 + z1^2 is chi-squared(2) =
        // Exp(1/2) with mean 2.
        let mean_r2: f64 = buf
            .chunks_exact(2)
            .map(|p| p[0] * p[0] + p[1] * p[1])
            .sum::<f64>()
            / (buf.len() / 2) as f64;
        assert!((mean_r2 - 2.0).abs() < 0.03, "mean r^2 {mean_r2}");
        // Odd-length fill works.
        let mut odd = vec![0.0; 101];
        fill_standard_normal_box_muller(&mut rng, &mut odd);
        assert!(odd.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn box_muller_agrees_with_icdf_distributionally() {
        let mut rng = Mt19937_64::new(9);
        let mut a = vec![0.0; 100_000];
        fill_standard_normal_icdf(&mut rng, &mut a);
        let mut b = vec![0.0; 100_000];
        fill_standard_normal_box_muller(&mut rng, &mut b);
        for probe in [-1.5, -0.5, 0.0, 1.0, 2.0] {
            let fa = a.iter().filter(|&&x| x <= probe).count() as f64 / a.len() as f64;
            let fb = b.iter().filter(|&&x| x <= probe).count() as f64 / b.len() as f64;
            assert!((fa - fb).abs() < 0.01, "probe {probe}");
        }
    }

    #[test]
    fn polar_moments() {
        let mut rng = Mt19937_64::new(2027);
        let mut buf = vec![0.0; 200_000];
        fill_standard_normal_polar(&mut rng, &mut buf);
        assert_standard_normal(&buf, "polar");
    }

    #[test]
    fn batch_icdf_matches_scalar_icdf() {
        // The blocked fill is the per-draw loop, bit for bit, and leaves the
        // generator where that loop leaves it — over ragged vector tails
        // and block seams.
        fn check<R: RngCore64 + Clone>(start: R, label: &str) {
            for len in [0, 1, 7, 8, 9, 1023, 1024, 1025, 10_007] {
                let (mut blocked, mut single) = (start.clone(), start.clone());
                let mut got = vec![0.0; len];
                fill_standard_normal_icdf(&mut blocked, &mut got);
                for (i, g) in got.iter().enumerate() {
                    let want = finbench_math::inv_norm_cdf(single.next_f64_open());
                    assert_eq!(g.to_bits(), want.to_bits(), "{label} len={len} i={i}");
                }
                assert_eq!(blocked.next_u64(), single.next_u64(), "{label} len={len}");
            }
        }
        check(Mt19937_64::new(5), "mt19937-64");
        check(Philox4x32::new(5), "philox");
    }

    #[test]
    fn fast_icdf_matches_accurate_icdf() {
        let mut a = Mt19937_64::new(12);
        let mut b = Mt19937_64::new(12);
        let mut ya = vec![0.0; 50_000];
        let mut yb = vec![0.0; 50_000];
        fill_standard_normal_icdf(&mut a, &mut ya);
        fill_standard_normal_icdf_fast(&mut b, &mut yb);
        let mut max_err = 0.0f64;
        for i in 0..ya.len() {
            max_err = max_err.max((ya[i] - yb[i]).abs());
        }
        assert!(max_err < 1e-7, "max err {max_err}");
        assert_standard_normal(&yb, "fast icdf");
    }

    #[test]
    fn icdf_tail_coverage() {
        // With 400k draws we expect values past +-3.5 sigma but none past
        // ~5.7 sigma (prob ~ 1e-8 per draw).
        let mut rng = Mt19937_64::new(31337);
        let mut buf = vec![0.0; 400_000];
        fill_standard_normal_icdf(&mut rng, &mut buf);
        let max = buf.iter().cloned().fold(f64::MIN, f64::max);
        let min = buf.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > 3.5 && max < 7.0, "max {max}");
        assert!(min < -3.5 && min > -7.0, "min {min}");
        assert!(buf.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn polar_and_icdf_agree_distributionally() {
        let mut rng = Mt19937_64::new(1);
        let mut a = vec![0.0; 100_000];
        fill_standard_normal_icdf(&mut rng, &mut a);
        let mut b = vec![0.0; 100_000];
        fill_standard_normal_polar(&mut rng, &mut b);
        // Compare empirical CDF at a few probe points (two-sample band).
        for probe in [-2.0, -1.0, 0.0, 0.5, 1.5] {
            let fa = a.iter().filter(|&&x| x <= probe).count() as f64 / a.len() as f64;
            let fb = b.iter().filter(|&&x| x <= probe).count() as f64 / b.len() as f64;
            assert!((fa - fb).abs() < 0.01, "probe {probe}: {fa} vs {fb}");
        }
    }

    #[test]
    fn moments_helper_on_known_data() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let m = moments(&xs);
        assert!((m.mean - 2.5).abs() < 1e-15);
        assert!((m.variance - 1.25).abs() < 1e-15);
        assert!(m.skewness.abs() < 1e-12);
    }
}
