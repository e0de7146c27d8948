//! Streaming log-bucketed histograms.
//!
//! Buckets are geometric with ratio [`GROWTH`] (2% wide), so quantile
//! estimates carry at most ~1% relative error from bucketing while the
//! memory footprint stays bounded by the dynamic range of the data, not
//! the sample count. Exact `min`/`max`/`count`/`sum` are tracked on the
//! side, and quantile estimates are clamped into `[min, max]`.

use std::collections::BTreeMap;

/// Geometric bucket growth factor.
pub const GROWTH: f64 = 1.02;

/// A streaming histogram over positive doubles (non-positive and
/// non-finite samples land in a single underflow bucket).
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    buckets: BTreeMap<i32, u64>,
    underflow: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(v: f64) -> i32 {
        (v.ln() / GROWTH.ln()).floor() as i32
    }

    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        if v.is_finite() && v > 0.0 {
            *self.buckets.entry(Self::bucket_of(v)).or_insert(0) += 1;
        } else {
            self.underflow += 1;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact minimum (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) by walking the buckets
    /// and reporting the geometric midpoint of the bucket containing the
    /// target rank, clamped to the exact `[min, max]`. Underflow samples
    /// rank below every bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // The endpoints are tracked exactly.
        if q == 0.0 {
            return self.min;
        }
        if q == 1.0 {
            return self.max;
        }
        // Nearest-rank (1-based) target.
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        if target <= self.underflow {
            return self.min;
        }
        let mut seen = self.underflow;
        for (&b, &n) in &self.buckets {
            seen += n;
            if seen >= target {
                let lo = GROWTH.powi(b);
                let mid = lo * GROWTH.sqrt();
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        self.underflow += other.underflow;
        for (&b, &n) in &other.buckets {
            *self.buckets.entry(b).or_insert(0) += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest-rank quantile on a sorted vector — the oracle (the shared
    /// definition in [`crate::stats`]).
    fn oracle(sorted: &[f64], q: f64) -> f64 {
        crate::stats::nearest_rank(sorted, q)
    }

    #[test]
    fn quantiles_match_sorted_vector_oracle() {
        // Deterministic log-uniform samples over three decades.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut samples = Vec::new();
        let mut h = Histogram::new();
        for _ in 0..10_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            let v = 10f64.powf(u * 3.0); // [1, 1000)
            samples.push(v);
            h.record(v);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99] {
            let want = oracle(&samples, q);
            let got = h.quantile(q);
            let rel = ((got - want) / want).abs();
            assert!(rel < 0.025, "q={q}: got {got} want {want} rel {rel}");
        }
        assert_eq!(h.min(), samples[0]);
        assert_eq!(h.max(), *samples.last().unwrap());
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn small_sample_quantiles_clamp_to_extremes() {
        let mut h = Histogram::new();
        for v in [5.0, 7.0, 9.0] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 5.0);
        assert!(h.quantile(1.0) <= 9.0 + 1e-12);
        assert!((h.mean() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn underflow_bucket_holds_nonpositive() {
        let mut h = Histogram::new();
        h.record(-1.0);
        h.record(0.0);
        h.record(2.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), -1.0);
        // Low quantiles resolve to min via the underflow bucket.
        assert_eq!(h.quantile(0.3), -1.0);
    }

    #[test]
    fn merge_equals_combined_stream() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for i in 1..500 {
            let v = i as f64 * 0.37;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
        for q in [0.1, 0.5, 0.9] {
            assert_eq!(a.quantile(q), both.quantile(q));
        }
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.median(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }
}
