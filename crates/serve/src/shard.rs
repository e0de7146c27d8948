//! A shard: what one seat's worker decides, as plain methods over plain
//! data. Its lanes admit and batch work, a fired trigger executes a lane,
//! a kill strands what it holds, and the respawn backoff is a function of
//! when the seat died and last came back. No method blocks or sleeps, and
//! time enters only through the [`Clock`] the shard is built with. The
//! seat's driver thread (`server::shard_loop`) does all the waiting and
//! calls one method here per event it meets, so a test can replay any
//! interleaving by calling the same methods in its own order.

use crate::batcher::{target_batch, BatchPolicy, FlushReason, MicroBatcher};
use crate::breaker::{Breaker, BreakerState, FailureAction, Gate};
use crate::ledger::Ledger;
use crate::request::Rejected;
use crate::rung::Rung;
use crate::server::{Plane, ShardSeat};
use crate::workload::{Envelope, GreeksWorkload, PortfolioWorkload, PriceWorkload, ServeWorkload};
use finbench_core::engine::registry;
use finbench_engine::Engine;
use finbench_telemetry::{self as telemetry, Gauge};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a shard reads the time.
pub(crate) type Clock = fn() -> Instant;

/// A killed seat's first wait before its worker respawns.
pub(crate) const RESPAWN_COOLDOWN: Duration = Duration::from_millis(1);

/// The cap on the doubling wait: a seat killed as fast as it comes back
/// respawns once per this long, never in a hot loop.
const RESPAWN_MAX_COOLDOWN: Duration = Duration::from_millis(250);

/// A seat that lives this long after a respawn has healed: its next
/// death waits [`RESPAWN_COOLDOWN`] again instead of twice its last wait.
const RESPAWN_HEAL_AFTER: Duration = Duration::from_millis(50);

/// Shortest steal poll of a sharded worker with nothing to do, whatever
/// `max_delay` says — a zero `max_delay` must not spin the poll.
const STEAL_POLL_FLOOR: Duration = Duration::from_micros(50);

/// One admitted unit of work: every request plane rides the same bounded
/// queue, so backpressure is shared and admission order is global.
pub(crate) enum Work {
    Price(Envelope<PriceWorkload>),
    Greeks(Envelope<GreeksWorkload>),
    Portfolio(Envelope<PortfolioWorkload>),
}

/// Evaluate `$body` on the envelope `$work` holds, whichever plane's it
/// is — the one place the three arms are spelled out.
macro_rules! on_envelope {
    ($work:expr, $env:ident => $body:expr) => {
        match $work {
            Work::Price($env) => $body,
            Work::Greeks($env) => $body,
            Work::Portfolio($env) => $body,
        }
    };
}
pub(crate) use on_envelope;

impl Work {
    /// The request's absolute deadline, which every hop spends from.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        on_envelope!(self, env => env.deadline())
    }

    /// Spend this item's single shard-loss redrive: false if it was
    /// already spent.
    pub(crate) fn mark_redriven(&mut self) -> bool {
        on_envelope!(self, env => !std::mem::replace(&mut env.redriven, true))
    }

    /// Answer this item `Rejected::Internal` and tally it.
    pub(crate) fn reject_internal(self, reason: &'static str, ledger: &Ledger) {
        on_envelope!(self, env => reject_internal(&[env], &Cow::Borrowed(reason), ledger))
    }

    /// Shed this item `Rejected::DeadlineExceeded` and tally it.
    pub(crate) fn shed_deadline(self, late_by: Duration, ledger: &Ledger) {
        on_envelope!(self, env => shed_deadline(&env, late_by, ledger))
    }
}

/// One lane of a shard: its degradation ladder (index 0 = planned rung,
/// last = scalar reference), the level it serves at, its breaker, and
/// batch buffers recycled across flushes, so that a lane at steady state
/// executes without allocating.
struct Lane<W: ServeWorkload> {
    /// Lane key: the kernel name (telemetry `<key>`).
    key: String,
    /// Index of this lane's record among its seat's.
    record: usize,
    ladder: Vec<Rung<W::Kernel>>,
    level: usize,
    breaker: Breaker,
    batcher: MicroBatcher<Envelope<W>>,
    target: usize,
    /// The flushed batch being executed, reused across flushes.
    flush: Vec<Envelope<W>>,
    /// Reusable staging + output buffers for batch execution.
    scratch: W::Scratch,
    /// Telemetry names and handles, made once: the hot path looks none up.
    span_name: String,
    fault_site: String,
    breaker_gauge: Gauge,
    degradation_gauge: Gauge,
    /// Breaker state and level as last published (`None` until the
    /// first batch): health is republished only when it changes.
    published: Option<(BreakerState, usize)>,
}

/// One shard's micro-batcher lanes, per request plane and lane key.
#[derive(Default)]
struct Lanes {
    price: BTreeMap<String, Lane<PriceWorkload>>,
    greeks: BTreeMap<String, Lane<GreeksWorkload>>,
    portfolio: BTreeMap<String, Lane<PortfolioWorkload>>,
}

/// Evaluate `$body` once per request plane, with `$map` bound to that
/// plane's lane map and `$wrap` to its [`Work`] constructor — the one
/// place the three planes' lanes are spelled out.
macro_rules! each_plane {
    ($lanes:expr, $map:ident, $wrap:pat => $body:expr) => {{
        let ($map, $wrap) = (&mut $lanes.price, Work::Price);
        $body;
        let ($map, $wrap) = (&mut $lanes.greeks, Work::Greeks);
        $body;
        let ($map, $wrap) = (&mut $lanes.portfolio, Work::Portfolio);
        $body;
    }};
}

/// What one seat's worker decides: its lanes, its respawn backoff, and
/// the kill step. Built by the seat's driver thread, or by a test.
pub(crate) struct Shard {
    pub(crate) index: usize,
    pub(crate) plane: Arc<Plane>,
    clock: Clock,
    /// The engine lanes resolve their ladders on, kept across
    /// incarnations.
    engine: Engine,
    lanes: Lanes,
    /// How long the last kill's seat waits before it respawns; when it
    /// died, and when it last came back.
    pub(crate) cooldown: Duration,
    killed_at: Option<Instant>,
    respawned_at: Option<Instant>,
}

impl Shard {
    /// Seat `index`'s shard on `plane`, empty, reading time from `clock`.
    pub(crate) fn new(plane: Arc<Plane>, index: usize, clock: Clock) -> Self {
        Self {
            index,
            plane,
            clock,
            engine: Engine::new(registry()),
            lanes: Lanes::default(),
            cooldown: RESPAWN_COOLDOWN,
            killed_at: None,
            respawned_at: None,
        }
    }

    /// The shard's clock, read once.
    pub(crate) fn now(&self) -> Instant {
        (self.clock)()
    }

    /// How long the seat's next pop may wait: not at all while lanes
    /// hold work (so the idle trigger fires the moment the queue runs
    /// dry), one steal poll on a sharded plane, or until a push or close
    /// (`None`) with no sibling to steal from.
    pub(crate) fn next_wait(&mut self) -> Option<Duration> {
        let mut pending = false;
        each_plane!(self.lanes, map, _ => pending |= map.values().any(|l| !l.batcher.is_empty()));
        if pending {
            Some(Duration::ZERO)
        } else if self.plane.queues.len() > 1 {
            Some(self.plane.config.max_delay.max(STEAL_POLL_FLOOR))
        } else {
            None
        }
    }

    /// Route one work item into its lane, resolving the lane on first
    /// use (a bad kernel answers at once with a typed rejection); a lane
    /// that reaches its size target executes on the spot.
    pub(crate) fn admit(&mut self, work: Work) {
        match work {
            Work::Price(env) => self.admit_to(env, |l| &mut l.price),
            Work::Greeks(env) => self.admit_to(env, |l| &mut l.greeks),
            Work::Portfolio(env) => self.admit_to(env, |l| &mut l.portfolio),
        }
    }

    fn admit_to<W: ServeWorkload>(
        &mut self,
        env: Envelope<W>,
        lanes: fn(&mut Lanes) -> &mut BTreeMap<String, Lane<W>>,
    ) {
        if !lanes(&mut self.lanes).contains_key(W::lane_key(&env.req)) {
            let key = W::lane_key(&env.req).to_string();
            match self.make_lane::<W>(&key) {
                Ok(lane) => {
                    lanes(&mut self.lanes).insert(key, lane);
                }
                Err(reason) => {
                    self.plane.ledger.of::<W>().rejected.add(1);
                    env.answer(Err(reason));
                    return;
                }
            }
        }
        let now = self.now();
        let lane = lanes(&mut self.lanes)
            .get_mut(W::lane_key(&env.req))
            .expect("lane just ensured");
        lane.batcher.push(env, now);
        if lane.batcher.full() {
            execute(lane, FlushReason::Size, &self.plane, self.index, self.clock);
        }
    }

    fn make_lane<W: ServeWorkload>(&self, key: &str) -> Result<Lane<W>, Rejected> {
        let (engine, config) = (&self.engine, &self.plane.config);
        let ladder = W::ladder(engine, key, &config.pricer)?;
        // Size the batch to what the planned rung can chew through in one
        // delay window; the planner's predicted rate is per-item. A batch
        // can never hold more than the queue can admit, so the cap is the
        // tighter of `max_batch` and the queue capacity.
        let predicted = engine
            .plan(key)
            .map(|p| p.predicted_rate)
            .unwrap_or(f64::NAN);
        let target = target_batch(
            predicted,
            config.max_delay,
            ladder[0].width,
            config.max_batch.min(config.queue_capacity),
        );
        let seat = &self.plane.seats[self.index];
        Ok(Lane {
            record: seat.open_record::<W>(key, &ladder[0].slug, target),
            batcher: MicroBatcher::new(BatchPolicy {
                max_batch: target,
                max_delay: config.max_delay,
            }),
            published: None,
            ladder,
            level: 0,
            breaker: Breaker::new(config.breaker),
            target,
            flush: Vec::new(),
            scratch: W::Scratch::default(),
            span_name: format!("serve.batch.{key}"),
            fault_site: format!("batch.{key}"),
            breaker_gauge: Gauge::named(format!("serve.breaker.{key}")),
            degradation_gauge: Gauge::named(format!("serve.degradation.{key}")),
            key: key.to_string(),
        })
    }

    /// Execute every lane a trigger has fired for now: the delay trigger,
    /// and, when the queue is `idle`, every lane that holds anything (the
    /// size trigger fires at admission).
    pub(crate) fn flush(&mut self, idle: bool) {
        self.execute_lanes(Some(idle));
    }

    /// Shutdown: execute whatever the lanes still hold.
    pub(crate) fn drain(&mut self) {
        self.execute_lanes(None);
    }

    /// [`flush`](Self::flush) with `Some(idle)`, [`drain`](Self::drain)
    /// with `None`.
    fn execute_lanes(&mut self, idle: Option<bool>) {
        let now = self.now();
        let (lanes, plane, index, clock) = (&mut self.lanes, &self.plane, self.index, self.clock);
        each_plane!(lanes, map, _ => for lane in map.values_mut() {
            let fired = match idle {
                Some(idle) => lane.batcher.trigger(now, idle),
                None => (!lane.batcher.is_empty()).then_some(FlushReason::Drain),
            };
            if let Some(reason) = fired {
                execute(lane, reason, plane, index, clock);
            }
        });
    }

    /// This incarnation dies: mark the seat dead (the router stops
    /// routing here), close its queue, pick the respawn wait, and hand
    /// back everything pending, unexecuted and oldest-first — the lanes'
    /// batches, admitted before anything still queued, then the queue.
    /// The next incarnation starts with fresh lanes.
    pub(crate) fn kill(&mut self) -> Vec<Work> {
        let now = self.now();
        let plane = &*self.plane;
        let (queue, seat) = (&plane.queues[self.index], &plane.seats[self.index]);
        seat.dead.store(true, Ordering::Release);
        queue.close();
        plane.ledger.shard_kills.add(1);
        seat.alive_gauge.set(0.0);
        self.cooldown = backoff(self.cooldown, self.respawned_at, now);
        self.killed_at = Some(now);
        let mut stranded = Vec::new();
        each_plane!(self.lanes, map, wrap => for lane in map.values_mut() {
            let Lane { batcher, flush, .. } = lane;
            batcher.flush_into(flush);
            stranded.extend(flush.drain(..).map(wrap));
        });
        self.lanes = Lanes::default();
        stranded.extend(queue.steal_up_to(usize::MAX));
        stranded
    }

    /// The seat's thread reopened the killed seat's queue: record the MTTR
    /// (kill → now), count the respawn, and publish the seat as alive.
    pub(crate) fn respawned(&mut self) {
        let now = self.now();
        let seat = &self.plane.seats[self.index];
        let killed_at = self.killed_at.expect("a respawn follows a kill");
        let mttr = now.duration_since(killed_at).as_nanos() as u64;
        seat.mttr_nanos.fetch_add(mttr, Ordering::Relaxed);
        seat.mttr_gauge.set(mttr as f64 / 1e6);
        seat.respawns.add(1);
        seat.respawns_by_seat.add(1);
        seat.alive_gauge.set(1.0);
        // Last: flipping liveness publishes the seat to the router.
        seat.dead.store(false, Ordering::Release);
        self.respawned_at = Some(now);
    }
}

/// The respawn wait of a seat killed at `killed_at`, given its last wait
/// and when it last came back: a seat that dies on probation (within
/// [`RESPAWN_HEAL_AFTER`] of its respawn) waits twice its last wait,
/// capped at [`RESPAWN_MAX_COOLDOWN`]; one that outlived probation, or
/// never died before, starts over at [`RESPAWN_COOLDOWN`].
pub(crate) fn backoff(
    last: Duration,
    respawned_at: Option<Instant>,
    killed_at: Instant,
) -> Duration {
    match respawned_at {
        Some(at) if killed_at.duration_since(at) < RESPAWN_HEAL_AFTER => {
            (last * 2).min(RESPAWN_MAX_COOLDOWN)
        }
        _ => RESPAWN_COOLDOWN,
    }
}

/// Answer every envelope in `live` with `Rejected::Internal` and tally
/// them. Borrowed reasons are cloned for free; owned (formatted) reasons
/// pay one clone per envelope.
// `&str` would defeat exactly that: it forces an owned clone per envelope.
#[allow(clippy::ptr_arg)]
fn reject_internal<W: ServeWorkload>(
    live: &[Envelope<W>],
    reason: &Cow<'static, str>,
    ledger: &Ledger,
) {
    ledger.of::<W>().internal.add(live.len() as u64);
    for env in live {
        env.answer(Err(Rejected::Internal {
            reason: reason.clone(),
        }));
    }
}

/// Shed `env` with `Rejected::DeadlineExceeded`. Sheds of redriven work
/// land in their own bucket: the retry arrived, but the client's budget
/// had already run out.
fn shed_deadline<W: ServeWorkload>(env: &Envelope<W>, late_by: Duration, ledger: &Ledger) {
    let tallies = ledger.of::<W>();
    if env.redriven {
        tallies.shed_deadline_redrive.add(1);
    } else {
        tallies.shed_deadline.add(1);
    }
    env.answer(Err(Rejected::DeadlineExceeded { late_by }));
}

/// Render a caught panic payload for the `Rejected::Internal` reason.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Flush the lane's micro-batch and execute it, for every request plane:
/// shed blown deadlines, gate on the breaker, stage the batch into the
/// lane's [`Scratch`](ServeWorkload::Scratch), run the kernel under
/// `catch_unwind`, and scatter results back. Panics reject the batch and
/// degrade/open the breaker; successes climb back. `reason` is the
/// trigger that fired, tallied with the batch. Buffers, span records and
/// the seat's record are reused or found by index, so a lane at steady
/// state executes whole batches without allocating.
fn execute<W: ServeWorkload>(
    lane: &mut Lane<W>,
    reason: FlushReason,
    plane: &Plane,
    index: usize,
    clock: Clock,
) {
    let (ledger, seat, faults) = (&plane.ledger, &*plane.seats[index], &plane.faults);
    let tallies = ledger.of::<W>();
    {
        let Lane { batcher, flush, .. } = lane;
        batcher.flush_into(flush);
    }
    let now = clock();
    lane.flush.retain(|env| match env.deadline() {
        Some(d) if now > d => {
            shed_deadline(env, now.duration_since(d), ledger);
            false
        }
        _ => true,
    });
    if lane.flush.is_empty() {
        return;
    }

    // The breaker gates the batch before any kernel work happens.
    match lane.breaker.allow(now) {
        Err(remaining) => {
            let reason = format!("circuit open for {} (retry in {remaining:?})", lane.key);
            reject_internal(&lane.flush, &Cow::Owned(reason), ledger);
            lane.flush.clear();
            publish_lane_health(lane, seat);
            return;
        }
        Ok(Gate::Restarted) => {
            // Supervised restart after the cooldown: count it and probe.
            seat.lock_records()[lane.record].events.lane_restarts.add(1);
        }
        Ok(Gate::Proceed | Gate::Probe) => {}
    }

    let level = lane.level;
    let width = lane.ladder[level].width;

    let span = telemetry::span(lane.span_name.as_str());
    telemetry::set_attr("rung", Arc::clone(&lane.ladder[level].slug));
    telemetry::set_attr("occupancy", lane.flush.len());
    telemetry::set_attr("target", lane.target);
    telemetry::set_attr("degradation_level", level);

    W::stage(
        &mut lane.scratch,
        lane.flush.iter().map(|env| &env.req),
        width,
    );

    let outcome = {
        let Lane {
            ladder,
            scratch,
            fault_site,
            ..
        } = lane;
        let rung = &ladder[level];
        catch_unwind(AssertUnwindSafe(|| {
            // Fault injection for this batch: added latency and/or a
            // panic, inside the unwind boundary so it exercises the real
            // breaker.
            if faults.armed() {
                faults.fire_compute(fault_site);
            }
            W::compute(rung, scratch);
        }))
    };
    let done = clock();

    match outcome {
        Ok(()) => {
            if lane.breaker.on_success() && lane.level > 0 {
                // Sustained health: promote one level back toward the
                // planned rung.
                lane.level -= 1;
                tallies.promotions.add(1);
            }
            let slug = &lane.ladder[level].slug;
            let batch_len = lane.flush.len();
            // The seat's own lock, held across the scatter: only a
            // snapshot ever waits for it, and then sees whole batches.
            let mut records = seat.lock_records();
            let r = &mut records[lane.record];
            r.stats.counts.batches += 1;
            r.stats.counts.flushes.record(reason);
            if level > 0 {
                r.events.degraded_batches.add(1);
            }
            r.stats.occupancy.record(batch_len as f64);
            // Tally, and close the batch's span, before scattering: a
            // client that holds its response must see both in the next
            // snapshot (loadgen deltas rely on this ordering).
            r.events.served.add(batch_len as u64);
            drop(span);
            for (i, env) in lane.flush.iter().enumerate() {
                let latency = done.duration_since(env.submitted);
                r.stats.latency_us.record(latency.as_secs_f64() * 1e6);
                env.answer(Ok(W::payload(&lane.scratch, i, slug, batch_len, latency)));
            }
            drop(records);
            lane.flush.clear();
        }
        Err(payload) => {
            let reason = panic_reason(payload.as_ref());
            telemetry::set_attr("panic", reason.as_str());
            let at_bottom = lane.level + 1 >= lane.ladder.len();
            match lane.breaker.on_failure(clock(), at_bottom) {
                FailureAction::Degrade => {
                    lane.level += 1;
                    tallies.degradations.add(1);
                }
                FailureAction::Opened => {
                    seat.lock_records()[lane.record].events.breaker_open.add(1);
                }
                FailureAction::Tolerate => {}
            }
            drop(span);
            reject_internal(
                &lane.flush,
                &Cow::Owned(format!("kernel panic: {reason}")),
                ledger,
            );
            lane.flush.clear();
        }
    }
    publish_lane_health(lane, seat);
}

/// Push the lane's breaker state and degradation level into its seat's
/// record and the telemetry gauges — when they changed since the last
/// push, which on a healthy lane is once.
fn publish_lane_health<W: ServeWorkload>(lane: &mut Lane<W>, seat: &ShardSeat) {
    let state = lane.breaker.state();
    let health = Some((state, lane.level));
    if lane.published == health {
        return;
    }
    lane.published = health;
    let stats = &mut seat.lock_records()[lane.record].stats;
    stats.breaker = state;
    stats.counts.degradation_level = lane.level;
    stats.counts.rung = lane.ladder[lane.level].slug.to_string();
    lane.breaker_gauge.set(state.as_gauge());
    lane.degradation_gauge.set(lane.level as f64);
}
