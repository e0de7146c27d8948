//! The benchmark's own estimators. They are deliberately not the product's
//! (`finbench_telemetry::stats`, `finbench_engine::timing`): the measuring
//! stick must not move when the thing it measures is rewritten.

/// Nearest-rank quantile: the element of rank `ceil(q * n)` (1-based,
/// clamped to `[1, n]`). Reorders `samples`; NaN for an empty sample.
pub fn nearest_rank(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let rank = (q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable_by(idx, f64::total_cmp).1
}

/// How a run's repeated measurements (step times, per-window latency medians;
/// `1 - FAST_SIDE` for per-window rates) collapse into its reported value: the
/// decile on the fast side. On a shared host a neighbour slows the code by
/// 40-60 % for seconds at a time (no steal time shows it) and never speeds
/// anything up. The median over a run then tracks how long the neighbour was
/// busy; a low quantile reads what the code does when left alone as long as a
/// tenth of the run was, and unlike the minimum it does not hang on one lucky
/// sample. A regression in the code moves every sample, so the decile sees it.
pub const FAST_SIDE: f64 = 0.1;

/// Conventional median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Geometric mean of positive values; NaN for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The three quartile cut points, exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them — the
/// acceptance rule for this benchmark is stated in those terms.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Interquartile range as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs()
}

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const LINEAR: usize = 2 * SUB;
const MAX_EXP: u32 = 47;

/// Fixed-size log-linear histogram of `u64` values (nanoseconds, batch
/// lengths): exact below 256, then 128 sub-buckets per power of two, so a
/// reported quantile is within 1/256 of the sample it stands for. Keeps the
/// generator's memory constant no matter how many requests a window holds,
/// so `peak_rss_mb` measures the product and not the latency log.
#[derive(Clone)]
pub struct Hist {
    buckets: Vec<u32>,
    count: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            buckets: vec![0; LINEAR + (MAX_EXP as usize - SUB_BITS as usize) * SUB],
            count: 0,
        }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < LINEAR as u64 {
            return v as usize;
        }
        let exp = (63 - v.leading_zeros()).min(MAX_EXP);
        let v = v.min((1u64 << (MAX_EXP + 1)) - 1);
        let sub = (v >> (exp - SUB_BITS)) as usize & (SUB - 1);
        LINEAR + (exp - SUB_BITS - 1) as usize * SUB + sub
    }

    /// Smallest value of bucket `idx` and how many values it spans.
    fn bounds(idx: usize) -> (f64, f64) {
        if idx < LINEAR {
            return (idx as f64, 1.0);
        }
        let exp = ((idx - LINEAR) / SUB) as u32 + SUB_BITS + 1;
        let width = 1u64 << (exp - SUB_BITS);
        let lo = (1u64 << exp) + ((idx - LINEAR) % SUB) as u64 * width;
        (lo as f64, width as f64)
    }

    pub fn record(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    /// Nearest-rank quantile over the recorded values; NaN when empty. In a
    /// bucket wider than one the `c` values it holds are taken to lie evenly
    /// across it (the `k`-th at `(k - 1/2) / c` of its width), so the result
    /// moves with the sample instead of jumping from midpoint to midpoint.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if seen + c as u64 >= rank {
                let (lo, width) = Self::bounds(idx);
                let within = ((rank - seen) as f64 - 0.5) / c as f64;
                return lo + within * (width - 1.0);
            }
            seen += c as u64;
        }
        unreachable!("rank <= count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_an_element_of_the_sample() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(nearest_rank(&mut v, 0.5), 3.0);
        assert_eq!(nearest_rank(&mut v, 0.0), 1.0);
        assert_eq!(nearest_rank(&mut v, 1.0), 5.0);
        // rank = ceil(0.99 * 5) = 5
        assert_eq!(nearest_rank(&mut v, 0.99), 5.0);
        let mut even = vec![4.0, 1.0, 3.0, 2.0];
        // rank = ceil(0.5 * 4) = 2: no interpolation.
        assert_eq!(nearest_rank(&mut even, 0.5), 2.0);
        assert!(nearest_rank(&mut [], 0.5).is_nan());
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn fast_decile_of_windows_ignores_the_disturbed_majority() {
        // Thirty window latencies, twenty-four of them disturbed: the fast
        // decile still reads the undisturbed level, the median does not.
        let mut lat: Vec<f64> = (0..30)
            .map(|i| if i < 6 { 100.0 + i as f64 } else { 160.0 })
            .collect();
        assert_eq!(nearest_rank(&mut lat, FAST_SIDE), 102.0);
        assert_eq!(median(&lat), 160.0);
        // For rates the fast side is the upper decile.
        let mut rate: Vec<f64> = lat.iter().map(|l| 1e6 / l).collect();
        assert_eq!(nearest_rank(&mut rate, 1.0 - FAST_SIDE), 1e6 / 103.0);
    }

    #[test]
    fn geomean_is_scale_free() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        // Doubling one of eight rates moves the mean by 2^(1/8).
        let base = geomean(&[3.0; 8]);
        let mut v = [3.0; 8];
        v[0] = 6.0;
        assert!((geomean(&v) / base - 2f64.powf(0.125)).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hist_is_exact_when_small_and_within_a_256th_when_large() {
        let mut h = Hist::default();
        for v in 0..256 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 127.0);
        assert_eq!(h.quantile(1.0), 255.0);
        for v in [1_000u64, 123_456, 2_000_000, 987_654_321, 40_000_000_000] {
            let mut h = Hist::default();
            h.record(v);
            let got = h.quantile(0.5);
            assert!((got - v as f64).abs() <= v as f64 / 256.0, "{v}: {got}");
        }
        // Beyond the top bucket values clamp instead of indexing out of range.
        let mut h = Hist::default();
        h.record(u64::MAX);
        assert!(h.quantile(0.5) > 1e14);
    }

    #[test]
    fn hist_interpolates_within_a_wide_bucket() {
        // 1 000 000 and its neighbours share a bucket 4 096 wide: one value
        // reads as the midpoint, several spread evenly, in rank order.
        let (lo, width) = Hist::bounds(Hist::index(1_000_000));
        assert_eq!(width, 4096.0);
        let mut h = Hist::default();
        h.record(1_000_000);
        assert_eq!(h.quantile(0.5), lo + 0.5 * (width - 1.0));
        for _ in 0..3 {
            h.record(1_000_000);
        }
        let q: Vec<f64> = [0.25, 0.5, 0.75, 1.0].map(|q| h.quantile(q)).to_vec();
        assert_eq!(q[0], lo + 0.125 * (width - 1.0));
        assert!(q.windows(2).all(|w| w[0] < w[1]), "{q:?}");
        assert!(q[3] < lo + width);
    }

    #[test]
    fn hist_quantiles_are_nearest_rank_and_merge_adds() {
        let mut a = Hist::default();
        let mut b = Hist::default();
        for v in 1..=100 {
            if v % 2 == 0 { &mut a } else { &mut b }.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.quantile(0.5), 50.0);
        assert_eq!(a.quantile(0.99), 99.0);
        assert!(Hist::default().quantile(0.5).is_nan());
    }
}
