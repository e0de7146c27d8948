//! The benchmark's own load generator: one thread that paces (open loop) or
//! keeps a fixed number of requests in flight (closed loop), drains replies
//! inline, and sorts every request into a window. It knows nothing about the
//! server's types — a [`Target`] submits by id and hands back [`Reply`]s —
//! so it stays put when `finbench_serve::loadgen` is rewritten.

use crate::stats::Hist;
use crate::trace::{now_ns, SpanId, Tracer, ROOT};

/// One request's outcome as the generator needs it.
pub struct Reply {
    pub id: u64,
    pub ok: bool,
    /// Latency the server reports for the request (submit to scatter).
    pub server_ns: u64,
    /// Size of the batch the request rode in; 0 when the reply has none.
    pub batch_len: u64,
}

pub trait Target {
    fn submit(&mut self, id: u64);
    /// The next reply if there is one; with `block`, wait for it. `None`
    /// from a blocking poll means the reply is not coming.
    fn poll(&mut self, block: bool) -> Option<Reply>;
}

#[derive(Default)]
pub struct Window {
    /// Requests sent (open loop) or answered (closed loop) in the window.
    pub attempted: u64,
    pub ok: u64,
    pub secs: f64,
    /// Client-visible latency, ns: due time (open) or submit (closed) to
    /// reply received.
    pub latency: Hist,
    /// How late the generator sent, ns behind the schedule (open loop).
    pub lag: Hist,
}

/// What one measurement phase produced. The discarded warm-up window is
/// already gone from `windows`; the pooled histograms skip it too.
#[derive(Default)]
pub struct Phase {
    pub windows: Vec<Window>,
    pub server_ns: Hist,
    /// Client latency minus server latency, ns: channel, wake-up, drain.
    pub gap_ns: Hist,
    pub batch_len: Hist,
    /// Requests still unanswered when the phase gave up waiting.
    pub unanswered: u64,
}

/// A window whose generator ran more than this far behind schedule at the
/// 99th percentile is reported as disturbed (never dropped: the decile over
/// windows absorbs it).
pub const DISTURBED_LAG_NS: f64 = 1_000_000.0;

/// Requests get a `request` span tree when their id hashes into 1 in 64.
pub fn sampled(id: u64) -> bool {
    id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58 == 0
}

/// Due time of request `k` on a fixed-rate schedule, ns after its start.
pub fn due_ns(k: u64, rate_hz: f64) -> u64 {
    (k as f64 * 1e9 / rate_hz) as u64
}

// More requests than any queue in the plane can hold, so a slot is never
// reused while its request is in flight.
const RING: usize = 1 << 16;
const GIVE_UP_NS: u64 = 5_000_000_000;

struct Flight {
    clock_start: Vec<u64>,
    span: Vec<SpanId>,
    outstanding: u64,
    phase: Phase,
}

impl Flight {
    fn new(windows: usize) -> Self {
        Self {
            clock_start: vec![0; RING],
            span: vec![ROOT; RING],
            outstanding: 0,
            phase: Phase {
                windows: (0..windows).map(|_| Window::default()).collect(),
                ..Phase::default()
            },
        }
    }

    /// Submit request `id`, whose latency clock started at `clock_start`.
    /// A sampled request records `request` > `serve.submit`, `serve.inflight`.
    fn send(&mut self, target: &mut impl Target, id: u64, clock_start: u64, tracer: &mut Tracer) {
        let slot = id as usize % RING;
        self.clock_start[slot] = clock_start;
        self.outstanding += 1;
        if tracer.on() && sampled(id) {
            let root = tracer.begin_at("request", ROOT, id, clock_start);
            let submit = tracer.begin("serve.submit", root, id);
            target.submit(id);
            let now = now_ns();
            tracer.end_at(submit, now);
            tracer.begin_at("serve.inflight", root, id, now);
            self.span[slot] = root;
        } else {
            target.submit(id);
        }
    }

    fn receive(&mut self, reply: Reply, now: u64, window: usize, tracer: &mut Tracer) {
        let slot = reply.id as usize % RING;
        self.outstanding -= 1;
        let latency = now.saturating_sub(self.clock_start[slot]);
        let w = &mut self.phase.windows[window];
        w.latency.record(latency);
        w.ok += reply.ok as u64;
        if window > 0 {
            self.phase.server_ns.record(reply.server_ns);
            self.phase
                .gap_ns
                .record(latency.saturating_sub(reply.server_ns));
            if reply.batch_len > 0 {
                self.phase.batch_len.record(reply.batch_len);
            }
        }
        if self.span[slot] != ROOT {
            // `send` pushed root, submit, inflight back to back.
            tracer.end_at(self.span[slot] + 2, now);
            tracer.end_at(self.span[slot], now);
            self.span[slot] = ROOT;
        }
    }

    /// Take one reply if there is one and file it under the window its
    /// request was due in (`per_window` requests each).
    fn drain_one(
        &mut self,
        target: &mut impl Target,
        per_window: u64,
        tracer: &mut Tracer,
    ) -> bool {
        let Some(reply) = target.poll(false) else {
            return false;
        };
        let window = (reply.id / per_window) as usize;
        self.receive(reply, now_ns(), window, tracer);
        true
    }

    fn finish(mut self) -> Phase {
        self.phase.unanswered = self.outstanding;
        self.phase.windows.remove(0);
        self.phase
    }
}

/// Open loop: send request `k` at `k / rate_hz` whatever the server does,
/// for one warm-up window plus `windows` measured ones. The thread polls
/// against the schedule and drains replies while it waits, offering the CPU
/// (`yield_now`) whenever there is nothing to drain: a lane worker that shares
/// the generator's CPU then runs the moment its batch timer fires instead of
/// when the scheduler next preempts a spinning thread (p50 523 us against
/// 616 us on one CPU), and with nothing else runnable the call returns at
/// once. Latency runs from the *due* time, so a stall is charged to every
/// request it delays. A request belongs to the window it was due in.
///
/// At most `max_outstanding` requests are ever unanswered: past that the
/// generator waits for replies before it sends on (the wait is in the
/// latency, which started at the due time). A host stall then shows as
/// latency and lag, never as a burst that overflows the admission queue.
pub fn open_loop(
    target: &mut impl Target,
    rate_hz: f64,
    max_outstanding: u64,
    windows: usize,
    window_secs: f64,
    tracer: &mut Tracer,
) -> Phase {
    let per_window = ((rate_hz * window_secs).round() as u64).max(1);
    let total = per_window * (windows as u64 + 1);
    let mut fl = Flight::new(windows + 1);
    let mut opened = vec![0u64; windows + 2];
    let start = now_ns();
    for k in 0..total {
        let due = start + due_ns(k, rate_hz);
        let mut now = now_ns();
        while now < due || fl.outstanding >= max_outstanding {
            if !fl.drain_one(target, per_window, tracer) {
                std::thread::yield_now();
            }
            now = now_ns();
        }
        let w = (k / per_window) as usize;
        if k % per_window == 0 {
            opened[w] = now;
        }
        fl.phase.windows[w].lag.record(now - due);
        fl.phase.windows[w].attempted += 1;
        fl.send(target, k, due, tracer);
        // Also drain when behind schedule, or replies would age unread.
        while fl.drain_one(target, per_window, tracer) {}
    }
    opened[windows + 1] = start + due_ns(total, rate_hz).max(now_ns() - start);
    let give_up = now_ns() + GIVE_UP_NS;
    while fl.outstanding > 0 && now_ns() < give_up {
        fl.drain_one(target, per_window, tracer);
    }
    for (w, win) in fl.phase.windows.iter_mut().enumerate() {
        win.secs = (opened[w + 1] - opened[w]) as f64 * 1e-9;
    }
    fl.finish()
}

/// Closed loop: keep `in_flight` requests outstanding for one warm-up window
/// plus `windows` measured ones. A reply belongs to the window it arrived
/// in; a window closes on the first reply at or after its nominal end, so
/// its length is measured between two replies and few large requests do not
/// quantize the rate.
pub fn closed_loop(
    target: &mut impl Target,
    in_flight: u64,
    windows: usize,
    window_secs: f64,
    tracer: &mut Tracer,
) -> Phase {
    let window_ns = (window_secs * 1e9) as u64;
    let mut fl = Flight::new(windows + 1);
    let start = now_ns();
    let (mut next_id, mut w, mut opened) = (0u64, 0usize, start);
    'phase: while w <= windows {
        while fl.outstanding < in_flight {
            fl.send(target, next_id, now_ns(), tracer);
            next_id += 1;
        }
        let mut reply = target.poll(true);
        if reply.is_none() {
            break;
        }
        while let Some(r) = reply {
            let now = now_ns();
            fl.receive(r, now, w, tracer);
            fl.phase.windows[w].attempted += 1;
            if now >= start + (w as u64 + 1) * window_ns {
                fl.phase.windows[w].secs = (now - opened) as f64 * 1e-9;
                opened = now;
                w += 1;
                if w > windows {
                    break 'phase;
                }
            }
            reply = target.poll(false);
        }
    }
    // Collect the tail so the server is idle afterwards; it is not counted.
    let mut tail = fl.outstanding;
    while tail > 0 && target.poll(true).is_some() {
        tail -= 1;
    }
    fl.outstanding = tail;
    fl.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Answers after `delay_ns`; records what the generator did to it.
    struct Fake {
        delay_ns: u64,
        pending: VecDeque<(u64, u64)>,
        sent_at: Vec<u64>,
        max_outstanding: usize,
    }

    impl Fake {
        fn new(delay_ns: u64) -> Self {
            Self {
                delay_ns,
                pending: VecDeque::new(),
                sent_at: Vec::new(),
                max_outstanding: 0,
            }
        }
    }

    impl Target for Fake {
        fn submit(&mut self, id: u64) {
            assert_eq!(id as usize, self.sent_at.len(), "ids are sequential");
            let now = now_ns();
            self.sent_at.push(now);
            self.pending.push_back((id, now + self.delay_ns));
            self.max_outstanding = self.max_outstanding.max(self.pending.len());
        }
        fn poll(&mut self, block: bool) -> Option<Reply> {
            let &(id, ready) = self.pending.front()?;
            while block && now_ns() < ready {
                std::hint::spin_loop();
            }
            (now_ns() >= ready).then(|| {
                self.pending.pop_front();
                Reply {
                    id,
                    ok: id % 10 != 3,
                    server_ns: self.delay_ns / 2,
                    batch_len: 8,
                }
            })
        }
    }

    #[test]
    fn schedule_due_times() {
        assert_eq!(due_ns(0, 10_000.0), 0);
        assert_eq!(due_ns(1, 10_000.0), 100_000);
        assert_eq!(due_ns(10_000, 10_000.0), 1_000_000_000);
        assert_eq!(due_ns(3, 4.0), 750_000_000);
    }

    #[test]
    fn open_loop_follows_the_schedule_and_times_from_due() {
        let mut fake = Fake::new(200_000);
        // 2 000 req/s, 3 measured windows of 50 ms (+1 warm-up): 400 sends.
        let phase = open_loop(&mut fake, 2_000.0, 64, 3, 0.05, &mut Tracer::default());
        assert_eq!(fake.sent_at.len(), 400);
        assert_eq!(phase.windows.len(), 3);
        assert_eq!(phase.unanswered, 0);
        // Never ahead of the schedule; how far behind is what lag reports.
        // (The first send is itself a little late, hence the slack.)
        let t0 = fake.sent_at[0];
        for (k, &t) in fake.sent_at.iter().enumerate() {
            let due = t0 + due_ns(k as u64, 2_000.0);
            assert!(
                t + 2_000_000 >= due,
                "request {k} sent {} ns early",
                due - t
            );
        }
        for w in &phase.windows {
            assert_eq!(w.attempted, 100);
            assert_eq!(w.ok, 90, "ids ending in 3 fail");
            assert_eq!(w.latency.count(), 100);
            assert_eq!(w.lag.count(), 100);
            assert!(w.secs > 0.03 && w.secs < 0.2, "{}", w.secs);
            // Latency >= the fake's delay, and includes lag by construction.
            assert!(w.latency.quantile(0.0) >= 199_000.0);
        }
        assert_eq!(phase.batch_len.quantile(0.5), 8.0);
        assert_eq!(phase.server_ns.count(), 300, "warm-up is not pooled");
    }

    #[test]
    fn open_loop_never_exceeds_its_outstanding_cap() {
        // 20 000 req/s against 1 ms replies wants 20 in flight; the cap of
        // 4 holds the generator back, and the hold shows as lag and latency.
        let mut fake = Fake::new(1_000_000);
        let phase = open_loop(&mut fake, 20_000.0, 4, 1, 0.02, &mut Tracer::default());
        assert_eq!(fake.max_outstanding, 4);
        assert_eq!(phase.unanswered, 0);
        let w = &phase.windows[0];
        assert_eq!(w.attempted, 400);
        assert!(w.lag.quantile(0.5) > 1_000_000.0, "{}", w.lag.quantile(0.5));
        assert!(w.latency.quantile(0.5) > w.lag.quantile(0.5));
    }

    #[test]
    fn closed_loop_keeps_the_window_full_and_counts_by_arrival() {
        let mut fake = Fake::new(100_000);
        let phase = closed_loop(&mut fake, 16, 2, 0.02, &mut Tracer::default());
        assert_eq!(fake.max_outstanding, 16);
        assert_eq!(phase.windows.len(), 2);
        assert_eq!(phase.unanswered, 0);
        for w in &phase.windows {
            assert!(w.attempted > 100, "{}", w.attempted);
            assert_eq!(w.latency.count(), w.attempted);
            assert!(w.ok < w.attempted && w.ok > w.attempted * 8 / 10);
            assert!(w.secs > 0.005 && w.secs < 0.2, "{}", w.secs);
            assert_eq!(w.lag.count(), 0, "a closed loop has no schedule");
        }
    }

    #[test]
    fn sampled_requests_get_a_three_span_tree() {
        let mut fake = Fake::new(50_000);
        let mut tracer = Tracer::default();
        tracer.set_on(true);
        closed_loop(&mut fake, 4, 1, 0.02, &mut tracer);
        let requests = tracer.durations("request");
        let sent = fake.sent_at.len() as u64;
        let answered_samples = (0..sent - 4).filter(|&id| sampled(id)).count();
        assert!(requests.len() >= answered_samples && !requests.is_empty());
        assert_eq!(tracer.durations("serve.submit").len(), requests.len());
        assert_eq!(tracer.durations("serve.inflight").len(), requests.len());
        // About 1 in 64.
        let share = (0..64_000).filter(|&id| sampled(id)).count();
        assert!((900..1100).contains(&share), "{share}");
    }
}
