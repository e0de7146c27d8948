//! Quasi-random (low-discrepancy) sequences — the "quasi-random numbers"
//! branch of the paper's Fig. 1 taxonomy, and the reason the Brownian
//! bridge matters in practice: the bridge concentrates a path's variance
//! in its first coordinates, which is exactly where low-discrepancy
//! sequences are strongest (Glasserman, the paper's ref. \[12\], ch. 5).
//!
//! [`Halton`] implements the Halton sequence: dimension `d` is the
//! van der Corput radical-inverse in the `d`-th prime base. Simple,
//! table-free, and effective up to a few dozen dimensions — enough for
//! the 64-date bridge workloads here when paired with the bridge's
//! variance concentration.

/// The first 64 primes (bases for up to 64 Halton dimensions).
pub const PRIMES: [u32; 64] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307,
    311,
];

/// Radical-inverse of `n` in base `b`: reflect the base-`b` digits of `n`
/// about the radix point. The classic van der Corput construction.
///
/// ```
/// use finbench_rng::quasi::radical_inverse;
/// assert_eq!(radical_inverse(1, 2), 0.5);
/// assert_eq!(radical_inverse(2, 2), 0.25);
/// assert_eq!(radical_inverse(3, 2), 0.75);
/// ```
#[inline]
pub fn radical_inverse(mut n: u64, b: u32) -> f64 {
    let base = b as f64;
    let inv = 1.0 / base;
    let mut f = inv;
    let mut x = 0.0;
    while n > 0 {
        x += (n % b as u64) as f64 * f;
        n /= b as u64;
        f *= inv;
    }
    x
}

/// Scrambled radical-inverse: digit `d` is replaced by `perm[d]` before
/// reflection. `perm` must be a permutation of `0..b` with `perm[0] == 0`
/// (otherwise the implicit infinite tail of zero digits would contribute
/// a divergent geometric correction).
#[inline]
pub fn radical_inverse_scrambled(mut n: u64, b: u32, perm: &[u32]) -> f64 {
    debug_assert_eq!(perm.len(), b as usize);
    debug_assert_eq!(perm[0], 0, "perm must fix 0");
    let base = b as f64;
    let inv = 1.0 / base;
    let mut f = inv;
    let mut x = 0.0;
    while n > 0 {
        x += perm[(n % b as u64) as usize] as f64 * f;
        n /= b as u64;
        f *= inv;
    }
    x
}

/// Build the per-dimension digit permutations for scrambled Halton:
/// a seeded Fisher-Yates shuffle of `1..b` per base (0 stays fixed).
fn scramble_tables(dim: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut tables = Vec::with_capacity(dim);
    let mut state = seed;
    let mut next = || {
        state = crate::SplitMix64::mix(state.wrapping_add(0x9E37_79B9_7F4A_7C15));
        state
    };
    for &b in PRIMES.iter().take(dim) {
        let mut perm: Vec<u32> = (0..b).collect();
        // Shuffle positions 1..b, leaving perm[0] = 0.
        for i in (2..b as usize).rev() {
            let j = 1 + (next() % i as u64) as usize;
            perm.swap(i, j);
        }
        tables.push(perm);
    }
    tables
}

/// A `dim`-dimensional Halton sequence generator.
///
/// Points are returned with the customary index offset (point `i` uses
/// integer `i + 1`, so the all-zeros point is skipped — it would map to
/// −∞ under the inverse normal CDF).
///
/// [`Halton::new`] applies deterministic digit scrambling, which repairs
/// the notorious cross-dimension correlations of the plain sequence in
/// high dimensions (large prime bases produce long monotone digit runs).
#[derive(Debug, Clone)]
pub struct Halton {
    dim: usize,
    next_index: u64,
    /// Per-dimension digit permutations.
    scramble: Vec<Vec<u32>>,
}

impl Halton {
    /// A scrambled generator of `dim`-dimensional points (`1 ≤ dim ≤ 64`)
    /// with a fixed, documented scramble seed — runs are reproducible.
    pub fn new(dim: usize) -> Self {
        assert!((1..=PRIMES.len()).contains(&dim), "supported dims: 1..=64");
        Self {
            dim,
            next_index: 0,
            scramble: scramble_tables(dim, 0x5EED_5EED_5EED_5EED),
        }
    }

    /// Dimensionality of the sequence.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Skip ahead to absolute point index `i` (O(1)).
    pub fn seek(&mut self, i: u64) {
        self.next_index = i;
    }

    /// Write the next point into `out` (length `dim`); coordinates lie in
    /// the open interval `(0, 1)`.
    pub fn next_point(&mut self, out: &mut [f64]) {
        assert_eq!(out.len(), self.dim, "point buffer must match dim");
        let n = self.next_index + 1;
        self.next_index += 1;
        for (d, slot) in out.iter_mut().enumerate() {
            *slot = radical_inverse_scrambled(n, PRIMES[d], &self.scramble[d]);
        }
    }

    /// Fill `out` (length `count × dim`, point-major) with the next
    /// `count` points.
    pub fn fill(&mut self, out: &mut [f64], count: usize) {
        assert_eq!(out.len(), count * self.dim, "buffer must hold count points");
        for p in 0..count {
            let (lo, hi) = (p * self.dim, (p + 1) * self.dim);
            self.next_point(&mut out[lo..hi]);
        }
    }

    /// Fill `out` with the next `count` points transformed to standard
    /// normals through the inverse CDF — the quasi-Monte-Carlo drop-in
    /// for a normal stream.
    pub fn fill_normal(&mut self, out: &mut [f64], count: usize) {
        self.fill(out, count);
        finbench_simd::batch::vd_inv_norm_cdf_in_place(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn van_der_corput_base2_prefix() {
        // 1/2, 1/4, 3/4, 1/8, 5/8, 3/8, 7/8 ...
        let want = [0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875];
        for (i, &w) in want.iter().enumerate() {
            assert_eq!(radical_inverse(i as u64 + 1, 2), w, "i={i}");
        }
    }

    #[test]
    fn base3_prefix() {
        let want = [1.0 / 3.0, 2.0 / 3.0, 1.0 / 9.0, 4.0 / 9.0, 7.0 / 9.0];
        for (i, &w) in want.iter().enumerate() {
            assert!(
                (radical_inverse(i as u64 + 1, 3) - w).abs() < 1e-15,
                "i={i}"
            );
        }
    }

    #[test]
    fn points_in_open_unit_cube() {
        let mut h = Halton::new(8);
        let mut p = [0.0; 8];
        for _ in 0..10_000 {
            h.next_point(&mut p);
            assert!(p.iter().all(|&x| x > 0.0 && x < 1.0));
        }
    }

    #[test]
    fn low_discrepancy_beats_random_striping() {
        // Star-discrepancy proxy in 1D: max gap between sorted points.
        // Halton base 2 over n points has max gap ~ 2/n; uniform random
        // has expected max gap ~ ln(n)/n — noticeably worse.
        let n = 4096;
        let mut h = Halton::new(1);
        let mut pts = vec![0.0; n];
        h.fill(&mut pts, n);
        pts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut max_gap = pts[0];
        for w in pts.windows(2) {
            max_gap = max_gap.max(w[1] - w[0]);
        }
        max_gap = max_gap.max(1.0 - pts[n - 1]);
        assert!(max_gap < 3.0 / n as f64, "gap {max_gap}");
    }

    #[test]
    fn seek_is_consistent_with_sequential() {
        let mut a = Halton::new(3);
        let mut pa = [0.0; 3];
        for _ in 0..100 {
            a.next_point(&mut pa);
        }
        let mut b = Halton::new(3);
        b.seek(99);
        let mut pb = [0.0; 3];
        b.next_point(&mut pb);
        assert_eq!(pa, pb);
    }

    #[test]
    fn qmc_integrates_smooth_function_faster_than_mc() {
        // Integrate f(x,y) = x*y over [0,1]^2 (exact: 1/4). At n = 2^12
        // the Halton error should beat a seeded MC estimate by a wide
        // margin.
        use crate::{Mt19937_64, RngCore64};
        let n = 4096;
        let mut h = Halton::new(2);
        let mut p = [0.0; 2];
        let mut qmc = 0.0;
        for _ in 0..n {
            h.next_point(&mut p);
            qmc += p[0] * p[1];
        }
        qmc /= n as f64;

        let mut rng = Mt19937_64::new(777);
        let mut mc = 0.0;
        for _ in 0..n {
            mc += rng.next_f64() * rng.next_f64();
        }
        mc /= n as f64;

        let qmc_err = (qmc - 0.25).abs();
        let mc_err = (mc - 0.25).abs();
        assert!(qmc_err < 1e-3, "qmc err {qmc_err}");
        assert!(qmc_err < mc_err, "qmc {qmc_err} vs mc {mc_err}");
    }

    #[test]
    fn normal_transform_has_normal_moments() {
        let mut h = Halton::new(4);
        let mut buf = vec![0.0; 4 * 20_000];
        h.fill_normal(&mut buf, 20_000);
        let m = crate::normal::moments(&buf);
        assert!(m.mean.abs() < 0.01, "mean {}", m.mean);
        assert!((m.variance - 1.0).abs() < 0.02, "var {}", m.variance);
    }

    #[test]
    #[should_panic(expected = "supported dims")]
    fn too_many_dims_panics() {
        Halton::new(65);
    }
}
