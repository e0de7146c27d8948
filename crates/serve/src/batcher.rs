//! The dynamic micro-batcher: pure accumulation logic, no threads, no
//! clocks of its own.
//!
//! Each shard worker owns one [`MicroBatcher`] per kernel and feeds it
//! admitted requests. A batch flushes on whichever trigger fires first
//! ([`MicroBatcher::trigger`] checks them in this order):
//!
//! * **size** — the pending set reaches the target batch size (chosen
//!   from the planner's predicted rate, see [`target_batch`]),
//! * **delay** — the oldest pending request has waited `max_delay`, or
//! * **idle** — the worker's admission queue has run dry: nothing more
//!   can join the batch without waiting for it, so waiting only adds
//!   latency.
//!
//! Idle makes the worker work-conserving: a lightly loaded lane answers
//! in the time the work takes, not the time the timer takes. Size and
//! delay govern the backlogged worker, whose queue never runs dry — size
//! caps the batch, delay bounds how long a sparse lane waits beside a
//! busy one. `max_delay` is therefore an upper bound on batching wait,
//! reached only under backlog.
//!
//! Every time decision takes `now` as an argument, and the idle trigger
//! takes the queue's state as one, so the flush logic is deterministic
//! and the batching property tests can replay arbitrary interleavings
//! without real sleeps.

use std::time::{Duration, Instant};

/// Why a micro-batch was flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The pending set reached the target batch size.
    Size,
    /// The oldest pending request had waited `max_delay`.
    Delay,
    /// The worker's admission queue ran dry.
    Idle,
    /// The worker was shutting down and emptied its lanes.
    Drain,
}

/// Flushes tallied by [`FlushReason`] — the batching attribution a lane
/// reports: mostly `idle` means the lane is answering at the system's
/// latency, mostly `size` that it is saturated, and `delay` that requests
/// sat out the timer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushCounts {
    /// Size-triggered flushes.
    pub size: u64,
    /// Delay-triggered flushes.
    pub delay: u64,
    /// Idle-triggered flushes.
    pub idle: u64,
    /// Shutdown drains.
    pub drain: u64,
}

impl FlushCounts {
    /// Tally one flush.
    pub fn record(&mut self, reason: FlushReason) {
        match reason {
            FlushReason::Size => self.size += 1,
            FlushReason::Delay => self.delay += 1,
            FlushReason::Idle => self.idle += 1,
            FlushReason::Drain => self.drain += 1,
        }
    }

    /// All flushes, whatever the reason.
    pub fn total(&self) -> u64 {
        self.size + self.delay + self.idle + self.drain
    }
}

impl std::ops::AddAssign for FlushCounts {
    fn add_assign(&mut self, other: Self) {
        self.size += other.size;
        self.delay += other.delay;
        self.idle += other.idle;
        self.drain += other.drain;
    }
}

/// The mix as whole percentages of all flushes, `size/delay/idle/drain`
/// (`-` before the first flush) — the column the bench tables print.
impl std::fmt::Display for FlushCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let total = self.total();
        if total == 0 {
            return f.write_str("-");
        }
        let pct = |n: u64| (n as f64 * 100.0 / total as f64).round();
        write!(
            f,
            "{}/{}/{}/{}",
            pct(self.size),
            pct(self.delay),
            pct(self.idle),
            pct(self.drain)
        )
    }
}

/// Size/delay policy for one kernel's batcher.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Flush as soon as this many requests are pending.
    pub max_batch: usize,
    /// Flush once the oldest pending request has waited this long.
    pub max_delay: Duration,
}

/// Pick the size trigger from the planner's predicted throughput: the
/// batch a rung can chew through in one `max_delay` window, clamped to
/// `[width, cap]` and rounded up to a multiple of the SIMD width (so a
/// size-triggered flush needs no padding at all). The window is still
/// `max_delay` with the idle trigger in place: the size trigger only
/// matters to a backlogged worker, and a larger batch would hold that
/// worker's other lanes past the wait `max_delay` promises them.
pub fn target_batch(predicted_rate: f64, max_delay: Duration, width: usize, cap: usize) -> usize {
    let width = width.max(1);
    let cap = cap.max(width);
    let ideal = predicted_rate * max_delay.as_secs_f64();
    let ideal = if ideal.is_nan() {
        // A broken prediction (0/0, uninitialized model): the smallest
        // legal batch keeps latency bounded while the planner recovers.
        width
    } else if ideal >= cap as f64 {
        // Covers +inf: an absurdly fast prediction saturates at the cap
        // instead of falling through a finiteness check to `width`.
        cap
    } else if ideal < 1.0 {
        width
    } else {
        ideal.ceil() as usize
    };
    let clamped = ideal.clamp(width, cap);
    let rounded = clamped.div_ceil(width) * width;
    // Rounding up to a lane multiple must never exceed the cap (the
    // queue could not hold the batch); round down to the largest
    // multiple that fits instead.
    if rounded <= cap {
        rounded
    } else {
        (cap / width) * width
    }
}

/// One kernel's pending micro-batch. Generic over the queued item so
/// the server can batch request envelopes while the property tests batch
/// bare requests.
#[derive(Debug)]
pub struct MicroBatcher<T> {
    policy: BatchPolicy,
    pending: Vec<T>,
    /// Arrival time of the oldest pending request.
    oldest: Option<Instant>,
}

impl<T> MicroBatcher<T> {
    /// An empty batcher with the given policy (`max_batch >= 1`).
    pub fn new(policy: BatchPolicy) -> Self {
        Self {
            policy: BatchPolicy {
                max_batch: policy.max_batch.max(1),
                max_delay: policy.max_delay,
            },
            pending: Vec::new(),
            oldest: None,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Pending request count.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Accept one request at time `now` without flushing — the
    /// allocation-free half of [`offer`](Self::offer). Pair with
    /// [`full`](Self::full) and [`flush_into`](Self::flush_into) so the
    /// flushed batch lands in a reused buffer.
    pub fn push(&mut self, req: T, now: Instant) {
        if self.pending.is_empty() {
            self.oldest = Some(now);
        }
        self.pending.push(req);
    }

    /// True when the size trigger has fired.
    pub fn full(&self) -> bool {
        self.pending.len() >= self.policy.max_batch
    }

    /// Accept one request at time `now`. Returns the full batch when this
    /// arrival fires the size trigger.
    pub fn offer(&mut self, req: T, now: Instant) -> Option<Vec<T>> {
        self.push(req, now);
        self.full().then(|| self.flush())
    }

    /// True when the delay trigger has fired at `now`.
    pub fn due(&self, now: Instant) -> bool {
        match self.oldest {
            Some(t0) => !self.pending.is_empty() && now.duration_since(t0) >= self.policy.max_delay,
            None => false,
        }
    }

    /// Which trigger, if any, fires at `now`: size, then delay, then —
    /// when the caller reports its admission queue empty (`idle`) —
    /// idle. `None` on an empty batcher.
    pub fn trigger(&self, now: Instant, idle: bool) -> Option<FlushReason> {
        if self.pending.is_empty() {
            None
        } else if self.full() {
            Some(FlushReason::Size)
        } else if self.due(now) {
            Some(FlushReason::Delay)
        } else if idle {
            Some(FlushReason::Idle)
        } else {
            None
        }
    }

    /// Drain everything pending (possibly empty) into `out`, which is
    /// cleared first. Neither the pending buffer nor `out` give up their
    /// capacity, so a lane flushing into its reusable scratch allocates
    /// nothing once both have grown to the largest batch seen.
    pub fn flush_into(&mut self, out: &mut Vec<T>) {
        self.oldest = None;
        out.clear();
        out.append(&mut self.pending);
    }

    /// Take everything pending (possibly empty).
    pub fn flush(&mut self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.pending.len());
        self.flush_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64) -> u64 {
        id
    }

    fn policy(max_batch: usize, max_delay_ms: u64) -> BatchPolicy {
        BatchPolicy {
            max_batch,
            max_delay: Duration::from_millis(max_delay_ms),
        }
    }

    #[test]
    fn size_trigger_fires_exactly_at_max_batch() {
        let mut b = MicroBatcher::new(policy(3, 1000));
        let now = Instant::now();
        assert!(b.offer(req(1), now).is_none());
        assert!(b.offer(req(2), now).is_none());
        let batch = b.offer(req(3), now).unwrap();
        assert_eq!(batch, [1, 2, 3]);
        assert!(b.is_empty());
        assert!(
            !b.due(now + Duration::from_secs(10)),
            "nothing left to be due"
        );
    }

    #[test]
    fn delay_trigger_counts_from_the_oldest_request() {
        let mut b = MicroBatcher::new(policy(100, 10));
        let t0 = Instant::now();
        b.offer(req(1), t0);
        // A later arrival must not push the deadline out.
        b.offer(req(2), t0 + Duration::from_millis(9));
        assert!(!b.due(t0 + Duration::from_millis(9)));
        assert!(b.due(t0 + Duration::from_millis(10)));
        assert_eq!(b.flush().len(), 2);
        assert!(!b.due(t0 + Duration::from_secs(1)));
    }

    #[test]
    fn triggers_fire_in_size_delay_idle_order() {
        let mut b = MicroBatcher::new(policy(2, 10));
        let t0 = Instant::now();
        let late = t0 + Duration::from_millis(10);
        // Empty: nothing fires, whatever the clock or the queue say.
        assert_eq!(b.trigger(late, true), None);
        b.push(req(1), t0);
        // One pending, young, queue busy: keep accumulating.
        assert_eq!(b.trigger(t0, false), None);
        // The queue ran dry: idle. Past max_delay: delay wins over idle.
        assert_eq!(b.trigger(t0, true), Some(FlushReason::Idle));
        assert_eq!(b.trigger(late, true), Some(FlushReason::Delay));
        assert_eq!(b.trigger(late, false), Some(FlushReason::Delay));
        // At the target: size wins over both.
        b.push(req(2), t0);
        assert_eq!(b.trigger(late, true), Some(FlushReason::Size));
        b.flush();
        assert_eq!(b.trigger(late, true), None);
    }

    #[test]
    fn flush_counts_tally_by_reason() {
        let mut counts = FlushCounts::default();
        for reason in [
            FlushReason::Idle,
            FlushReason::Size,
            FlushReason::Idle,
            FlushReason::Delay,
            FlushReason::Drain,
            FlushReason::Idle,
        ] {
            counts.record(reason);
        }
        assert_eq!(
            counts,
            FlushCounts {
                size: 1,
                delay: 1,
                idle: 3,
                drain: 1
            }
        );
        assert_eq!(counts.total(), 6);
        assert_eq!(counts.to_string(), "17/17/50/17");
        assert_eq!(FlushCounts::default().to_string(), "-");
        let mut sum = counts;
        sum += FlushCounts {
            size: 4,
            ..FlushCounts::default()
        };
        assert_eq!((sum.size, sum.idle, sum.total()), (5, 3, 10));
    }

    #[test]
    fn flush_into_drains_in_place_and_keeps_capacity() {
        let mut b = MicroBatcher::new(policy(100, 10));
        let mut out: Vec<u64> = Vec::new();
        let t0 = Instant::now();
        for round in 0..3u64 {
            for i in 0..10 {
                b.push(req(round * 10 + i), t0);
            }
            assert!(!b.full());
            b.flush_into(&mut out);
            assert_eq!(out.len(), 10, "round {round}");
            assert_eq!(out[0], round * 10, "round {round}");
            assert!(b.is_empty());
        }
        // Steady state: neither the pending buffer nor the flush target
        // reallocates once both have grown.
        let cap = out.capacity();
        for i in 0..10 {
            b.push(req(i), t0);
        }
        b.flush_into(&mut out);
        assert_eq!(out.capacity(), cap);
    }

    #[test]
    fn push_full_flush_into_agrees_with_offer() {
        let mut a = MicroBatcher::new(policy(3, 1000));
        let mut b = MicroBatcher::new(policy(3, 1000));
        let now = Instant::now();
        let mut flushed = Vec::new();
        for i in 1..=3 {
            let via_offer = a.offer(req(i), now);
            b.push(req(i), now);
            if b.full() {
                b.flush_into(&mut flushed);
                let via_offer = via_offer.expect("offer flushes at max_batch");
                assert_eq!(flushed, via_offer);
            } else {
                assert!(via_offer.is_none());
            }
        }
    }

    #[test]
    fn target_batch_scales_with_rate_and_rounds_to_width() {
        let d = Duration::from_millis(1);
        // 1e6 items/s * 1ms = 1000 → rounded up to a multiple of 8.
        assert_eq!(target_batch(1.0e6, d, 8, 4096), 1000usize.div_ceil(8) * 8);
        // Slow rung: clamps up to the width.
        assert_eq!(target_batch(100.0, d, 8, 4096), 8);
        // Fast rung: clamps down to the cap (already a multiple).
        assert_eq!(target_batch(1.0e12, d, 8, 4096), 4096);
        // Degenerate inputs stay sane.
        assert_eq!(target_batch(f64::NAN, d, 4, 64), 4);
        assert_eq!(target_batch(0.0, d, 1, 1), 1);
    }

    #[test]
    fn target_batch_survives_degenerate_predictions() {
        let d = Duration::from_millis(1);
        // An infinite prediction saturates at the cap instead of
        // collapsing to a single lane's width.
        assert_eq!(target_batch(f64::INFINITY, d, 8, 4096), 4096);
        // Negative or -inf predictions clamp up to one full lane.
        assert_eq!(target_batch(f64::NEG_INFINITY, d, 8, 4096), 8);
        assert_eq!(target_batch(-5.0e6, d, 8, 4096), 8);
        // A zero-length delay window still yields a non-empty batch.
        assert_eq!(target_batch(1.0e6, Duration::ZERO, 8, 4096), 8);
        assert!(target_batch(f64::NAN, d, 8, 4096) >= 1);
    }

    #[test]
    fn target_batch_never_exceeds_the_cap() {
        let d = Duration::from_millis(1);
        // cap = 10 is not a lane multiple: rounding 10 up to 16 would
        // overflow the queue, so the target rounds down to 8 instead.
        assert_eq!(target_batch(9.0e3, d, 8, 10), 8);
        assert_eq!(target_batch(1.0e12, d, 8, 10), 8);
        for rate in [0.0, 1.0, 1.0e3, 1.0e6, 1.0e9, f64::INFINITY] {
            let t = target_batch(rate, d, 8, 100);
            assert!((1..=100).contains(&t), "rate={rate}: target {t}");
            assert_eq!(t % 8, 0, "rate={rate}: target {t} not a lane multiple");
        }
    }
}
