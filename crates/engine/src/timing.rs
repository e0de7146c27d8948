//! Wall-clock throughput measurement for the native runs.
//!
//! [`throughput`] keeps the classic best-of contract; [`throughput_samples`]
//! returns the full per-rep distribution as a [`Samples`] and attaches a
//! summary (rep count, best/median/p95 rates) to the innermost open
//! telemetry span.

use finbench_telemetry as telemetry;
use std::time::Instant;

/// Per-rep throughput samples from one [`throughput_samples`] run.
///
/// Rates are `items/second`, one entry per *timed* repetition (the warmup
/// call is excluded). Quantiles use the nearest-rank convention on the
/// exact sorted rates.
#[derive(Debug, Clone)]
pub struct Samples {
    /// Per-rep rates in measurement order.
    pub rates: Vec<f64>,
    /// Per-rep overhead-compensated cycles per item, same order as
    /// `rates` (empty when built via [`from_rates`](Self::from_rates)).
    /// "Cycles" are nanoseconds on hosts without an RDTSC source — see
    /// [`telemetry::cycles::cycle_source`].
    pub cycles_per_item: Vec<f64>,
}

impl Samples {
    /// Build from raw per-rep rates (also used by tests).
    pub fn from_rates(rates: Vec<f64>) -> Self {
        Self::from_parts(rates, Vec::new())
    }

    /// Build from per-rep rates plus matching cycles-per-item samples.
    pub fn from_parts(rates: Vec<f64>, cycles_per_item: Vec<f64>) -> Self {
        Self {
            rates,
            cycles_per_item,
        }
    }

    /// Fold another run's samples into this one (used to merge
    /// interleaved trials of the same rung).
    pub fn merge(&mut self, other: &Samples) {
        self.rates.extend_from_slice(&other.rates);
        self.cycles_per_item
            .extend_from_slice(&other.cycles_per_item);
    }

    /// Median cycles per item (NaN when no cycle samples were taken).
    pub fn median_cycles_per_item(&self) -> f64 {
        telemetry::nearest_rank_unsorted(&self.cycles_per_item, 0.5)
    }

    /// Number of timed repetitions.
    pub fn count(&self) -> usize {
        self.rates.len()
    }

    /// Best (maximum) per-rep rate — what [`throughput`] reports.
    pub fn best(&self) -> f64 {
        self.rates.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Worst (minimum) per-rep rate.
    pub fn worst(&self) -> f64 {
        self.rates.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Nearest-rank quantile of the per-rep rates, `q` in `[0, 1]`
    /// (the shared [`telemetry::nearest_rank`] definition).
    pub fn quantile(&self, q: f64) -> f64 {
        telemetry::nearest_rank_unsorted(&self.rates, q)
    }

    /// Median per-rep rate.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// 95th-percentile per-rep rate.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }
}

/// Measure `items/second` for `body` and return every per-rep rate.
///
/// The body runs once untimed (warmup), then repeatedly until at least
/// `min_secs` of *accounted* wall time accumulates, with at least 2 and at
/// most 1000 timed reps. Each rep's contribution to the accounted budget is
/// capped at `min_secs / 4`, so one scheduler-stalled outlier cannot eat
/// the whole budget and leave the distribution with a single sample; a
/// separate wall-clock guard (`3 * min_secs + 50ms`) still bounds the
/// total run time.
///
/// When a telemetry span is open on this thread, the summary lands on it
/// as attributes: `reps`, `best_rate`, `median_rate`, `p95_rate`,
/// `min_rate`, `max_rate`, `median_cpi` (overhead-compensated cycles per
/// item, nanoseconds on non-x86_64 hosts).
pub fn throughput_samples(items: usize, min_secs: f64, mut body: impl FnMut()) -> Samples {
    body(); // warmup
    let cap = (min_secs / 4.0).max(1e-9);
    let wall_limit = 3.0 * min_secs + 0.05;
    let started = Instant::now();
    let mut rates = Vec::new();
    let mut cycles_per_item = Vec::new();
    let mut spent = 0.0;
    loop {
        // The cycle window nests inside the wall window so the Instant
        // reads never land in the cycle count.
        let t0 = Instant::now();
        let c0 = telemetry::cycles::start();
        body();
        let cyc = c0.elapsed_cycles();
        let dt = t0.elapsed().as_secs_f64().max(1e-9);
        let rate = items as f64 / dt;
        rates.push(rate);
        cycles_per_item.push(cyc / items.max(1) as f64);
        spent += dt.min(cap);
        let reps = rates.len();
        if reps >= 2
            && (spent >= min_secs || started.elapsed().as_secs_f64() >= wall_limit || reps >= 1000)
        {
            break;
        }
    }
    let s = Samples::from_parts(rates, cycles_per_item);
    telemetry::set_attr("reps", s.count());
    telemetry::set_attr("best_rate", s.best());
    telemetry::set_attr("median_rate", s.median());
    telemetry::set_attr("p95_rate", s.p95());
    telemetry::set_attr("min_rate", s.worst());
    telemetry::set_attr("max_rate", s.best());
    telemetry::set_attr("median_cpi", s.median_cycles_per_item());
    s
}

/// Measure `items/second` for `body`, which processes `items` work units
/// per call, and report the best per-call rate — the usual defense against
/// scheduler noise on a shared host. See [`throughput_samples`] for the
/// full distribution.
pub fn throughput(items: usize, min_secs: f64, body: impl FnMut()) -> f64 {
    throughput_samples(items, min_secs, body).best()
}

/// Measure a one-shot duration in seconds.
pub fn time_once(body: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    body();
    t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_positive_and_sane() {
        let mut acc = 0u64;
        let rate = throughput(1000, 0.01, || {
            for i in 0..1000u64 {
                acc = acc.wrapping_add(i * i);
            }
        });
        assert!(rate > 0.0);
        std::hint::black_box(acc);
    }

    #[test]
    fn time_once_measures_something() {
        let t = time_once(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        assert!(t >= 0.004, "{t}");
    }

    #[test]
    fn throughput_runs_at_least_twice() {
        let mut count = 0;
        throughput(1, 0.0, || count += 1);
        assert!(count >= 3); // warmup + >= 2 timed
    }

    #[test]
    fn samples_quantiles_match_sorted_oracle() {
        let s = Samples::from_rates(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.count(), 5);
        assert_eq!(s.best(), 5.0);
        assert_eq!(s.worst(), 1.0);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.p95(), 5.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
    }

    #[test]
    fn timed_reps_carry_cycle_samples() {
        let s = throughput_samples(1000, 0.005, || {
            std::hint::black_box((0..2000u64).sum::<u64>());
        });
        assert_eq!(s.cycles_per_item.len(), s.rates.len());
        for &c in &s.cycles_per_item {
            assert!(c.is_finite() && c >= 0.0, "{c}");
        }
        let med = s.median_cycles_per_item();
        assert!(med.is_finite() && med >= 0.0, "{med}");
    }

    #[test]
    fn merge_concatenates_samples() {
        let mut a = Samples::from_parts(vec![1.0, 2.0], vec![10.0, 20.0]);
        let b = Samples::from_parts(vec![3.0], vec![30.0]);
        a.merge(&b);
        assert_eq!(a.rates, vec![1.0, 2.0, 3.0]);
        assert_eq!(a.cycles_per_item, vec![10.0, 20.0, 30.0]);
        assert_eq!(a.best(), 3.0);
    }

    #[test]
    fn from_rates_has_no_cycle_samples() {
        let s = Samples::from_rates(vec![1.0]);
        assert!(s.cycles_per_item.is_empty());
        assert!(s.median_cycles_per_item().is_nan());
    }

    #[test]
    fn samples_single_rep_is_its_own_median() {
        let s = Samples::from_rates(vec![7.5]);
        assert_eq!(s.median(), 7.5);
        assert_eq!(s.p95(), 7.5);
    }

    #[test]
    fn throughput_samples_orders_summary_stats() {
        let s = throughput_samples(1000, 0.01, || {
            std::hint::black_box((0..500u64).sum::<u64>());
        });
        assert!(s.count() >= 2);
        assert!(s.worst() <= s.median());
        assert!(s.median() <= s.p95());
        assert!(s.p95() <= s.best());
        assert!(s.best().is_finite() && s.best() > 0.0);
    }

    #[test]
    fn outlier_rep_does_not_consume_whole_budget() {
        // First timed rep sleeps ~10x the budget; with uncapped accounting
        // the loop would stop at exactly 2 reps. The cap keeps sampling.
        let min_secs = 0.004;
        let mut calls = 0u32;
        let s = throughput_samples(1, min_secs, || {
            calls += 1;
            if calls == 2 {
                // calls==1 is the warmup; this is the first timed rep.
                std::thread::sleep(std::time::Duration::from_millis(40));
            }
        });
        assert!(
            s.count() >= 4,
            "outlier ate the budget: only {} reps",
            s.count()
        );
    }
}
