//! The per-lane circuit breaker: Closed → Open → HalfOpen, with the rung
//! ladder as an intermediate stage *before* opening.
//!
//! A classic breaker trips straight from "failing" to "unavailable". The
//! serving plane has something better in between: the paper's ladder of
//! progressively cheaper rungs with declared equivalence. The supervisor
//! therefore degrades a faulting lane *down* its servable ladder first —
//! serving the scalar reference rung is strictly better than shedding,
//! and bit-exactness per rung means degraded answers are still exactly
//! the answers that rung gives when healthy. Only when the **bottom**
//! rung keeps failing does the breaker open.
//!
//! State machine (driven by the lane's batch outcomes; all transitions
//! take `now` so tests replay them with synthetic clocks):
//!
//! ```text
//!           failure && !at_bottom ──────────► Degrade (one ladder level)
//!           failure && at_bottom, streak < N ► Tolerate
//! Closed ── failure && at_bottom, streak ≥ N ► Open(cooldown)
//!   ▲                                            │ cooldown elapses
//!   │ probe batch succeeds                       ▼ (lane restart)
//!   └───────────────────────────────────── HalfOpen ── probe fails ──►
//!                                                Open(2x cooldown, capped)
//! ```
//!
//! Successes climb back: `promote_after` consecutive successful batches
//! promote the lane one ladder level toward the ladder's top (degrade
//! fast, recover slowly — the asymmetry that keeps a flapping kernel from
//! oscillating at full speed).

use std::time::{Duration, Instant};

/// Breaker tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerPolicy {
    /// Consecutive failures *at the bottom ladder level* before the
    /// breaker opens (failures above the bottom degrade instead).
    pub open_after: u32,
    /// Initial Open → HalfOpen cooldown; doubles on every failed probe.
    pub cooldown: Duration,
    /// Upper bound for the doubling cooldown.
    pub max_cooldown: Duration,
    /// Consecutive successful batches before the lane promotes one
    /// ladder level back toward the ladder's top.
    pub promote_after: u32,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        Self {
            open_after: 3,
            cooldown: Duration::from_millis(25),
            max_cooldown: Duration::from_secs(2),
            promote_after: 32,
        }
    }
}

/// The breaker's public state (surfaced as a gauge/snapshot field).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: batches flow.
    #[default]
    Closed,
    /// Tripped: batches are rejected until the cooldown elapses.
    Open,
    /// Post-cooldown trial: batches flow as probes; one failure reopens.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name (snapshot/telemetry).
    pub fn as_str(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }

    /// Numeric encoding for the breaker-state gauge (0/1/2).
    pub fn as_gauge(&self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::HalfOpen => 1.0,
            BreakerState::Open => 2.0,
        }
    }
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What the lane may do with a flushed batch right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Closed: price normally.
    Proceed,
    /// Just restarted (Open → HalfOpen edge): this batch is the probe,
    /// and the caller should count a lane restart.
    Restarted,
    /// Already HalfOpen: further probe batches.
    Probe,
}

/// What a failure means for the lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureAction {
    /// Stay at the current level (streak below the open threshold).
    Tolerate,
    /// Move one ladder level down and keep serving.
    Degrade,
    /// The breaker opened; reject batches until the cooldown elapses.
    Opened,
}

/// One lane's breaker.
#[derive(Debug, Clone)]
pub struct Breaker {
    policy: BreakerPolicy,
    state: BreakerState,
    failures: u32,
    successes: u32,
    cooldown: Duration,
    open_until: Option<Instant>,
}

impl Breaker {
    /// A closed breaker with the given policy.
    pub fn new(policy: BreakerPolicy) -> Self {
        Self {
            policy,
            state: BreakerState::Closed,
            failures: 0,
            successes: 0,
            cooldown: policy.cooldown,
            open_until: None,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// The cooldown the *next* opening would use (tests pin the capped
    /// exponential backoff through this).
    pub fn current_cooldown(&self) -> Duration {
        self.cooldown
    }

    /// May a batch be dispatched at `now`? `Err(remaining)` while open.
    pub fn allow(&mut self, now: Instant) -> Result<Gate, Duration> {
        match self.state {
            BreakerState::Closed => Ok(Gate::Proceed),
            BreakerState::HalfOpen => Ok(Gate::Probe),
            BreakerState::Open => {
                let until = self.open_until.expect("open breaker has a deadline");
                if now >= until {
                    // Supervised restart: the lane comes back half-open
                    // and the next batch probes it.
                    self.state = BreakerState::HalfOpen;
                    self.open_until = None;
                    Ok(Gate::Restarted)
                } else {
                    Err(until - now)
                }
            }
        }
    }

    /// Record a successful batch. Returns `true` when the success streak
    /// says the lane should promote one ladder level up (the caller
    /// ignores it at level 0).
    pub fn on_success(&mut self) -> bool {
        self.failures = 0;
        if self.state == BreakerState::HalfOpen {
            // Probe passed: close, and forgive the backoff history.
            self.state = BreakerState::Closed;
            self.cooldown = self.policy.cooldown;
        }
        self.successes += 1;
        if self.successes >= self.policy.promote_after {
            self.successes = 0;
            true
        } else {
            false
        }
    }

    /// Record a failed batch. `at_bottom` tells the breaker whether the
    /// lane has a cheaper rung left to degrade to.
    pub fn on_failure(&mut self, now: Instant, at_bottom: bool) -> FailureAction {
        self.successes = 0;
        if self.state == BreakerState::HalfOpen {
            // Failed probe: reopen with doubled (capped) cooldown.
            return self.open(now);
        }
        self.failures += 1;
        if !at_bottom {
            // Degrade fast: any failure with a fallback available moves
            // the lane down one level; the streak restarts there.
            self.failures = 0;
            return FailureAction::Degrade;
        }
        if self.failures >= self.policy.open_after {
            self.open(now)
        } else {
            FailureAction::Tolerate
        }
    }

    fn open(&mut self, now: Instant) -> FailureAction {
        self.state = BreakerState::Open;
        self.open_until = Some(now + self.cooldown);
        self.cooldown = (self.cooldown * 2).min(self.policy.max_cooldown);
        self.failures = 0;
        FailureAction::Opened
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> BreakerPolicy {
        BreakerPolicy {
            open_after: 3,
            cooldown: Duration::from_millis(10),
            max_cooldown: Duration::from_millis(40),
            promote_after: 4,
        }
    }

    #[test]
    fn failures_above_the_bottom_degrade_immediately() {
        let mut b = Breaker::new(policy());
        let now = Instant::now();
        assert_eq!(b.on_failure(now, false), FailureAction::Degrade);
        assert_eq!(b.state(), BreakerState::Closed);
        // Streak reset: the next bottom failure starts from one.
        assert_eq!(b.on_failure(now, true), FailureAction::Tolerate);
    }

    #[test]
    fn bottom_failures_open_after_the_threshold() {
        let mut b = Breaker::new(policy());
        let now = Instant::now();
        assert_eq!(b.on_failure(now, true), FailureAction::Tolerate);
        assert_eq!(b.on_failure(now, true), FailureAction::Tolerate);
        assert_eq!(b.on_failure(now, true), FailureAction::Opened);
        assert_eq!(b.state(), BreakerState::Open);
        // While open, batches are rejected with the remaining cooldown.
        let rem = b.allow(now).unwrap_err();
        assert!(rem <= Duration::from_millis(10));
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut b = Breaker::new(policy());
        let now = Instant::now();
        b.on_failure(now, true);
        b.on_failure(now, true);
        b.on_success();
        assert_eq!(b.on_failure(now, true), FailureAction::Tolerate);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn open_transitions_to_half_open_after_cooldown_and_counts_a_restart() {
        let mut b = Breaker::new(policy());
        let t0 = Instant::now();
        for _ in 0..3 {
            b.on_failure(t0, true);
        }
        assert!(b.allow(t0).is_err());
        let later = t0 + Duration::from_millis(11);
        assert_eq!(b.allow(later), Ok(Gate::Restarted));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Further batches while half-open are probes, not restarts.
        assert_eq!(b.allow(later), Ok(Gate::Probe));
    }

    #[test]
    fn failed_probe_reopens_with_doubled_capped_cooldown() {
        let mut b = Breaker::new(policy());
        let mut now = Instant::now();
        // Trip, restart, fail the probe — three times; cooldown 10 → 20
        // → 40 → capped at 40.
        let mut seen = Vec::new();
        for _ in 0..3 {
            for _ in 0..3 {
                b.on_failure(now, true);
            }
            let rem = b.allow(now).unwrap_err();
            seen.push(rem);
            now += rem + Duration::from_millis(1);
            assert_eq!(b.allow(now), Ok(Gate::Restarted));
            assert_eq!(b.on_failure(now, true), FailureAction::Opened);
            now += Duration::from_millis(1);
        }
        assert!(seen[0] <= Duration::from_millis(10));
        // After the first failed probe the cooldown has doubled twice
        // (trip + probe failure), capped at max_cooldown.
        assert_eq!(b.current_cooldown(), Duration::from_millis(40));
    }

    #[test]
    fn successful_probe_closes_and_resets_the_backoff() {
        let mut b = Breaker::new(policy());
        let t0 = Instant::now();
        for _ in 0..3 {
            b.on_failure(t0, true);
        }
        let later = t0 + Duration::from_millis(11);
        assert_eq!(b.allow(later), Ok(Gate::Restarted));
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.current_cooldown(), Duration::from_millis(10));
    }

    #[test]
    fn promotion_fires_every_promote_after_successes() {
        let mut b = Breaker::new(policy());
        let mut promotions = 0;
        for _ in 0..12 {
            if b.on_success() {
                promotions += 1;
            }
        }
        assert_eq!(promotions, 3);
    }

    #[test]
    fn concurrent_post_cooldown_probes_count_exactly_one_restart() {
        use std::sync::{Arc, Barrier, Mutex};
        // The Open → HalfOpen edge must be observed by exactly one
        // caller no matter how many threads race `allow` after the
        // cooldown: `Restarted` is what the lane counts as a restart, so
        // a duplicate would double-count supervision telemetry (and a
        // miss would lose the probe batch). Deterministic stress: each
        // round seeds a different racer count.
        for round in 0..32u64 {
            let threads = 2 + (round % 6) as usize;
            let mut b = Breaker::new(policy());
            let t0 = Instant::now();
            for _ in 0..3 {
                b.on_failure(t0, true);
            }
            assert!(b.allow(t0).is_err(), "round {round}: must start open");
            let after = t0 + Duration::from_millis(11);
            let b = Arc::new(Mutex::new(b));
            let barrier = Arc::new(Barrier::new(threads));
            let gates: Vec<Gate> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let b = Arc::clone(&b);
                        let barrier = Arc::clone(&barrier);
                        scope.spawn(move || {
                            barrier.wait();
                            b.lock().unwrap().allow(after).expect("cooldown elapsed")
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("probe thread"))
                    .collect()
            });
            let restarted = gates
                .iter()
                .filter(|g| matches!(g, Gate::Restarted))
                .count();
            assert_eq!(restarted, 1, "round {round}: {gates:?}");
            assert!(
                gates
                    .iter()
                    .all(|g| matches!(g, Gate::Restarted | Gate::Probe)),
                "round {round}: {gates:?}"
            );
            assert_eq!(b.lock().unwrap().state(), BreakerState::HalfOpen);
        }
    }

    #[test]
    fn state_names_and_gauges_are_stable() {
        assert_eq!(BreakerState::Closed.as_str(), "closed");
        assert_eq!(BreakerState::Open.to_string(), "open");
        assert_eq!(BreakerState::HalfOpen.as_str(), "half-open");
        assert_eq!(BreakerState::Closed.as_gauge(), 0.0);
        assert_eq!(BreakerState::HalfOpen.as_gauge(), 1.0);
        assert_eq!(BreakerState::Open.as_gauge(), 2.0);
    }
}
