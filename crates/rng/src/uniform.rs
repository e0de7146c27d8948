//! Bit-to-double conversions and batch uniform fills.
//!
//! Table II of the paper reports raw uniform-generation rates
//! ("uniform DP RNG/sec"); [`fill_uniform`] is the kernel behind that row.

use crate::RngCore64;

/// Scale factor `2^-53`.
pub const TWO_NEG_53: f64 = 1.0 / (1u64 << 53) as f64;

/// Map 64 random bits to a double in the half-open interval `[0, 1)`,
/// using the top 53 bits (every representable value is equally likely).
#[inline(always)]
pub fn u64_to_f64_co(x: u64) -> f64 {
    (x >> 11) as f64 * TWO_NEG_53
}

/// Scale factor `2^-52`.
pub const TWO_NEG_52: f64 = 1.0 / (1u64 << 52) as f64;

/// Map 64 random bits to a double in the *open* interval `(0, 1)`:
/// `(n + 0.5) * 2^-52` with `n` the top 52 bits. Never returns 0 or 1
/// (the maximum, `1 − 2^-53`, is exactly representable because the f64
/// spacing just below 1.0 is `2^-53`), so it is safe to feed the inverse
/// normal CDF.
#[inline(always)]
pub fn u64_to_f64_oo(x: u64) -> f64 {
    ((x >> 12) as f64 + 0.5) * TWO_NEG_52
}

/// Map 64 random bits to a double in the interval `(-1, 1)` (used by the
/// Marsaglia polar method).
#[inline(always)]
pub fn u64_to_f64_symmetric(x: u64) -> f64 {
    u64_to_f64_co(x) * 2.0 - 1.0
}

/// Fill `out` with uniform doubles in `[0, 1)`.
pub fn fill_uniform<R: RngCore64>(rng: &mut R, out: &mut [f64]) {
    crate::counters::UNIFORM_DRAWS.add(out.len() as u64);
    rng.fill_with(out, u64_to_f64_co);
}

/// Fill `out` with uniform doubles in the open interval `(0, 1)`.
pub fn fill_uniform_open<R: RngCore64>(rng: &mut R, out: &mut [f64]) {
    crate::counters::UNIFORM_DRAWS.add(out.len() as u64);
    rng.fill_with(out, u64_to_f64_oo);
}

/// Fill `out` with uniform doubles in `[lo, hi)`.
pub fn fill_uniform_range<R: RngCore64>(rng: &mut R, out: &mut [f64], lo: f64, hi: f64) {
    assert!(hi > lo, "empty uniform range");
    crate::counters::UNIFORM_DRAWS.add(out.len() as u64);
    let scale = hi - lo;
    rng.fill_with(out, move |x| lo + scale * u64_to_f64_co(x));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mt19937_64;

    #[test]
    fn conversion_endpoints() {
        assert_eq!(u64_to_f64_co(0), 0.0);
        let max = u64_to_f64_co(u64::MAX);
        assert!(max < 1.0 && max > 1.0 - 1e-15);
        let lo = u64_to_f64_oo(0);
        assert!(lo > 0.0);
        let hi = u64_to_f64_oo(u64::MAX);
        assert!(hi < 1.0);
        assert_eq!(u64_to_f64_symmetric(0), -1.0);
        assert!(u64_to_f64_symmetric(u64::MAX) < 1.0);
    }

    #[test]
    fn conversion_has_53_bit_resolution() {
        // Consecutive 53-bit integers map to adjacent representable values.
        let a = u64_to_f64_co(1 << 11);
        let b = u64_to_f64_co(2 << 11);
        assert_eq!(a, TWO_NEG_53);
        assert_eq!(b, 2.0 * TWO_NEG_53);
        // Bits below the top 53 are ignored.
        assert_eq!(u64_to_f64_co(0x7FF), 0.0);
    }

    #[test]
    fn fill_functions_cover_slice() {
        let mut rng = Mt19937_64::new(1);
        let mut buf = vec![-1.0; 1000];
        fill_uniform(&mut rng, &mut buf);
        assert!(buf.iter().all(|&x| (0.0..1.0).contains(&x)));

        let mut rng = Mt19937_64::new(1);
        let mut buf2 = vec![0.0; 1000];
        fill_uniform(&mut rng, &mut buf2);
        assert_eq!(buf, buf2, "fill must be deterministic in the seed");

        fill_uniform_open(&mut rng, &mut buf);
        assert!(buf.iter().all(|&x| x > 0.0 && x < 1.0));

        fill_uniform_range(&mut rng, &mut buf, 10.0, 20.0);
        assert!(buf.iter().all(|&x| (10.0..20.0).contains(&x)));
    }

    #[test]
    #[should_panic(expected = "empty uniform range")]
    fn degenerate_range_panics() {
        let mut rng = Mt19937_64::new(1);
        let mut buf = [0.0; 4];
        fill_uniform_range(&mut rng, &mut buf, 1.0, 1.0);
    }

    #[test]
    fn range_fill_moments() {
        let mut rng = Mt19937_64::new(99);
        let mut buf = vec![0.0; 100_000];
        fill_uniform_range(&mut rng, &mut buf, -2.0, 6.0);
        let mean = buf.iter().sum::<f64>() / buf.len() as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }
}
