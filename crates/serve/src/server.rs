//! The sharded pricing service: a front-end **router** that validates
//! and distributes admission across `N` **worker shards**, each a seat
//! with its own bounded admission queue, per-kernel micro-batcher lanes,
//! circuit breakers and degradation ladders (DESIGN.md §9 draws the
//! request path, §10 the fault model).
//!
//! The router talks to a shard only through its [`AdmissionQueue`] (work
//! in) and the reply inside each envelope (answers out). What a seat's
//! worker decides — admit, batch, flush, kill, respawn backoff — is a
//! `Shard` (`shard.rs`), whose methods never block and read the time
//! only through the clock they were built with. `shard_loop` is the
//! seat's thread and the only code that waits: it pops the queue the way
//! `Shard::next_wait` says, sleeps out a stall or latency fault, fires
//! the kill site, steals, redrives and waits out a respawn. A running
//! server builds its shards on `Instant::now`; a test steps a clock and
//! the shards itself. [`Server::shutdown`] joins the drivers, so when it
//! returns every admitted request has been answered.
//!
//! The loop is work-conserving: a popped request joins its lane (a full
//! lane executes at once), and whenever the queue is empty every
//! non-empty lane executes, so no request waits on a timer while the
//! worker has nothing else to do; only a backlogged worker accumulates,
//! bounded by the size and delay triggers. With its lanes empty a lone
//! shard parks until a push or close; sharded workers wake every
//! `max_delay` to steal from the deepest sibling.
//!
//! ## Shard loss, redrive, and supervision
//!
//! When the `serve.shard.<i>=kill` fault fires, `Shard::kill` marks the
//! seat dead (the router stops routing to it), closes its queue, picks
//! the respawn wait, and hands back what the incarnation held, oldest
//! first. The seat's thread **redrives** each item once to a live
//! sibling, reply intact; an envelope's `redriven` flag makes a second
//! loss answer [`Rejected::Internal`] instead of re-routing, and work
//! whose deadline passed is shed. With [`ServeConfig::respawn`] on (the
//! default) it then waits out the backoff on the plane's closing signal,
//! reopens the queue under the lock shutdown closes it under, and
//! `Shard::respawned` records the MTTR and marks the seat alive.
//!
//! ## Faults and telemetry
//!
//! A batch runs under `catch_unwind`: a panic answers it
//! [`Rejected::Internal`] and feeds the lane's breaker, which walks the
//! lane down its servable ladder and opens only at the bottom. Fault
//! hooks fire the [`Faults`] handle the server was started with
//! ([`Server::start_with_faults`]), in that server only. Every counted
//! event is one [`Counter`] handle bumped at one call site: the
//! [`Ledger`]'s per-plane and server-level tallies, each seat's steals,
//! redrives and respawns, and — under a mutex only its driver and
//! `snapshot()` take — the seat's record of each lane, whose handles
//! count that lane's served requests, degraded batches, breaker opens and
//! restarts for the kernel's view and the plane's at once.
//! [`ServeSnapshot`] reads the handles' own cells, so two servers in one
//! process read disjoint ledgers.

use crate::batcher::FlushCounts;
use crate::breaker::{BreakerPolicy, BreakerState};
use crate::ledger::{LaneTallies, Ledger, PlaneSnapshot};
use crate::portfolio::{PortfolioChunkRequest, PortfolioFanIn};
use crate::pricer::PricerConfig;
use crate::queue::AdmissionQueue;
use crate::request::{
    GreeksRequest, GreeksResponse, PortfolioRequest, PortfolioResponse, Rejected, Response,
    ServeRequest,
};
use crate::shard::{on_envelope, Shard, Work};
use crate::workload::{Envelope, ServeWorkload};
use finbench_faults::{FaultKind, Faults};
use finbench_telemetry::{Counter, Gauge, Histogram};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server construction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Admission queue capacity **per shard** — the backpressure bound.
    pub queue_capacity: usize,
    /// Micro-batch delay trigger: the longest a request waits for
    /// companions before its batch flushes anyway. An upper bound that
    /// only a backlogged worker reaches — a worker whose queue runs dry
    /// flushes at once. Also the sharded workers' steal-poll interval.
    pub max_delay: Duration,
    /// Upper clamp for the planner-derived size trigger.
    pub max_batch: usize,
    /// Worker shard count (`>= 1`; clamped up). One shard reproduces the
    /// original single-dispatcher plane exactly.
    pub shards: usize,
    /// Pricer configuration (market params, binomial steps).
    pub pricer: PricerConfig,
    /// Per-lane circuit-breaker tuning.
    pub breaker: BreakerPolicy,
    /// A killed shard's worker respawns in its seat after a backoff
    /// (`false`: a killed shard stays dead for the process lifetime).
    pub respawn: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 4096,
            max_delay: Duration::from_millis(1),
            max_batch: 4096,
            shards: 1,
            pricer: PricerConfig::default(),
            breaker: BreakerPolicy::default(),
            respawn: true,
        }
    }
}

/// One lane's statistics as a snapshot merges them. `counts` holds what
/// is not a handle; `breaker` and the percentiles are filled in by
/// [`finish`](Self::finish).
#[derive(Clone, Default)]
pub(crate) struct LaneStats {
    pub(crate) counts: KernelSnapshot,
    pub(crate) breaker: BreakerState,
    pub(crate) latency_us: Histogram,
    pub(crate) occupancy: Histogram,
}

impl LaneStats {
    /// Fold another seat's record of the same lane into this one: counts
    /// and histograms add up, health is the more degraded of the two.
    fn merge(&mut self, other: &LaneStats) {
        let health = |r: &LaneStats| (r.counts.degradation_level, r.breaker.as_gauge());
        let worse = health(other) > health(self);
        let (c, o) = (&mut self.counts, &other.counts);
        c.served += o.served;
        c.batches += o.batches;
        c.degraded_batches += o.degraded_batches;
        c.restarts += o.restarts;
        c.breaker_open += o.breaker_open;
        c.flushes += o.flushes;
        if worse {
            c.rung.clone_from(&o.rung);
            c.degradation_level = o.degradation_level;
            self.breaker = other.breaker;
        }
        self.latency_us.merge(&other.latency_us);
        self.occupancy.merge(&other.occupancy);
    }

    fn finish(self) -> KernelSnapshot {
        KernelSnapshot {
            breaker: self.breaker.as_str().to_string(),
            p50_us: self.latency_us.median(),
            p95_us: self.latency_us.p95(),
            p99_us: self.latency_us.quantile(0.99),
            mean_occupancy: self.occupancy.mean(),
            max_occupancy: self.occupancy.max(),
            ..self.counts
        }
    }
}

/// One seat's record of one lane, kept on the [`ShardSeat`] so that a
/// respawned worker continues the record its predecessor left.
pub(crate) struct LaneRecord {
    /// The lane's plane, as a [`PLANES`](crate::ledger::PLANES) index.
    plane: usize,
    pub(crate) events: LaneTallies,
    pub(crate) stats: LaneStats,
}

impl LaneRecord {
    /// The record as it stands, its event counts read out of the handles.
    fn read(&self) -> LaneStats {
        let mut stats = self.stats.clone();
        let (c, e) = (&mut stats.counts, &self.events);
        c.served = e.served.get();
        c.degraded_batches = e.degraded_batches.get();
        c.breaker_open = e.breaker_open.get();
        c.restarts = e.lane_restarts.get();
        stats
    }
}

/// One seat's half of the ledger, shared by the router, the seat's
/// driver and `snapshot()`: monotonic tallies, gauges, lane records and
/// the liveness flag.
pub(crate) struct ShardSeat {
    /// False once the shard has been killed (fault) or exited.
    pub(crate) dead: AtomicBool,
    /// Work items the router pushed to this shard.
    submitted: AtomicU64,
    /// `serve.steals`: work items stolen from sibling queues while idle.
    stolen: Counter,
    /// `serve.respawns`, and the same event as `serve.shard.<i>.respawns`:
    /// times the seat's killed worker came back and served again.
    pub(crate) respawns: Counter,
    pub(crate) respawns_by_seat: Counter,
    /// `serve.redriven`: stranded work items redriven to siblings on kill.
    redriven: Counter,
    /// Cumulative kill → respawned-and-serving time, nanoseconds
    /// (divide by `respawns` for mean MTTR).
    pub(crate) mttr_nanos: AtomicU64,
    /// `serve.shard.<i>.alive` / `.queue_depth` / `.mttr_ms`.
    pub(crate) alive_gauge: Gauge,
    depth_gauge: Gauge,
    pub(crate) mttr_gauge: Gauge,
    /// This seat's record of each lane it has run.
    records: Mutex<Vec<LaneRecord>>,
}

impl ShardSeat {
    fn new(i: usize) -> Self {
        Self {
            dead: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            stolen: Counter::named("serve.steals"),
            respawns: Counter::named("serve.respawns"),
            respawns_by_seat: Counter::named(format!("serve.shard.{i}.respawns")),
            redriven: Counter::named("serve.redriven"),
            mttr_nanos: AtomicU64::new(0),
            alive_gauge: Gauge::named(format!("serve.shard.{i}.alive")),
            depth_gauge: Gauge::named(format!("serve.shard.{i}.queue_depth")),
            mttr_gauge: Gauge::named(format!("serve.shard.{i}.mttr_ms")),
            records: Mutex::default(),
        }
    }

    fn alive(&self) -> bool {
        !self.dead.load(Ordering::Acquire)
    }

    /// Poison is recovered from: the records are monotonic tallies with
    /// no cross-field invariant a panicking thread can break.
    pub(crate) fn lock_records(&self) -> MutexGuard<'_, Vec<LaneRecord>> {
        self.records.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Index of this seat's record of workload `W`'s lane `key`, opened on
    /// first use; a respawned worker's lane carries its predecessor's on.
    pub(crate) fn open_record<W: ServeWorkload>(
        &self,
        key: &str,
        rung: &str,
        target_batch: usize,
    ) -> usize {
        let mut records = self.lock_records();
        if let Some(i) = records.iter().position(|r| r.stats.counts.kernel == key) {
            return i;
        }
        records.push(LaneRecord {
            plane: W::PLANE,
            events: LaneTallies::of::<W>(),
            stats: LaneStats {
                counts: KernelSnapshot {
                    kernel: key.to_string(),
                    rung: rung.to_string(),
                    target_batch,
                    ..KernelSnapshot::default()
                },
                ..LaneStats::default()
            },
        });
        records.len() - 1
    }
}

/// Point-in-time statistics for one worker shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Shard index (stable; `serve.shard.<index>.*` telemetry names).
    pub index: usize,
    /// False once the shard was killed by a fault or has exited.
    pub alive: bool,
    /// Work items routed to this shard.
    pub submitted: u64,
    /// Requests this shard served.
    pub served: u64,
    /// Work items this shard stole from siblings while idle.
    pub stolen: u64,
    /// Times this seat's killed worker respawned and served again.
    pub respawns: u64,
    /// Stranded work items this seat redrove to live siblings on kill.
    pub redriven: u64,
    /// Cumulative kill → respawned-and-serving time across this seat's
    /// respawns (divide by `respawns` for the seat's mean MTTR).
    pub mttr: Duration,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
}

impl ShardSnapshot {
    /// Served / submitted for this shard (1.0 when it saw no work —
    /// an idle shard is healthy, not unavailable). Stolen work is served
    /// here but submitted elsewhere, so per-shard availability can
    /// exceed 1; clamp when aggregating.
    pub fn availability(&self) -> f64 {
        if self.submitted == 0 {
            1.0
        } else {
            self.served as f64 / self.submitted as f64
        }
    }
}

/// Point-in-time statistics for one kernel lane.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelSnapshot {
    /// Kernel name.
    pub kernel: String,
    /// Slug of the rung the lane is serving on *right now* — with more
    /// than one shard, on the most degraded seat (as are
    /// `degradation_level` and `breaker`).
    pub rung: String,
    /// Planner-derived size trigger.
    pub target_batch: usize,
    /// Requests priced.
    pub served: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// The dispatched batches by flush trigger (`total()` = `batches`).
    pub flushes: FlushCounts,
    /// Batches priced below the planned rung (degraded mode).
    pub degraded_batches: u64,
    /// Current degradation level (0 = planned serving rung).
    pub degradation_level: usize,
    /// Supervised lane restarts (breaker Open → HalfOpen transitions).
    pub restarts: u64,
    /// Times the lane's breaker opened.
    pub breaker_open: u64,
    /// Breaker state at snapshot time (`closed`/`half-open`/`open`).
    pub breaker: String,
    /// Median request latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile request latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// Mean batch occupancy (requests per dispatched batch).
    pub mean_occupancy: f64,
    /// Largest batch dispatched.
    pub max_occupancy: f64,
}

/// Point-in-time server statistics: a view over the server's ledger.
/// Kernel stats are merged across the seats' records, `shards` carries
/// the per-shard split and `planes` the per-plane one; the six rejection
/// totals are sums over `planes`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSnapshot {
    /// Per-kernel lane statistics, kernel-name order, summed over shards.
    pub kernels: Vec<KernelSnapshot>,
    /// Per-shard statistics, shard-index order.
    pub shards: Vec<ShardSnapshot>,
    /// Per-plane tallies, [`PLANES`](crate::ledger::PLANES) order.
    pub planes: [PlaneSnapshot; 3],
    /// Requests shed at admission (every alive shard's queue full).
    pub shed_queue_full: u64,
    /// Requests shed at dispatch (deadline already blown), first
    /// attempt — the request had not been redriven.
    pub shed_deadline: u64,
    /// Requests shed on a blown deadline *after* a shard-loss redrive:
    /// the retry reached a live sibling but its end-to-end budget ran
    /// out first.
    pub shed_deadline_redrive: u64,
    /// Requests rejected for unknown/unservable kernels.
    pub rejected: u64,
    /// Requests rejected by admission-side input validation.
    pub invalid_input: u64,
    /// Requests answered `Rejected::Internal` (caught panic, open
    /// breaker, or killed shard).
    pub internal: u64,
}

impl ServeSnapshot {
    /// Total load-shedding rejections (excludes bad-kernel and
    /// bad-input rejections, which are caller errors, not overload).
    pub fn total_shed(&self) -> u64 {
        self.shed_queue_full + self.shed_deadline + self.shed_deadline_redrive
    }

    /// Total supervised lane restarts across kernels.
    pub fn total_restarts(&self) -> u64 {
        self.kernels.iter().map(|k| k.restarts).sum()
    }

    /// Total degraded batches across kernels.
    pub fn total_degraded(&self) -> u64 {
        self.kernels.iter().map(|k| k.degraded_batches).sum()
    }

    /// Every dispatched batch by flush trigger, summed over kernels.
    pub fn total_flushes(&self) -> FlushCounts {
        let mut total = FlushCounts::default();
        for k in &self.kernels {
            total += k.flushes;
        }
        total
    }

    /// Mean requests per dispatched batch across kernels (0 before the
    /// first batch).
    pub fn mean_batch_fill(&self) -> f64 {
        let batches: u64 = self.kernels.iter().map(|k| k.batches).sum();
        let served: u64 = self.kernels.iter().map(|k| k.served).sum();
        if batches == 0 {
            0.0
        } else {
            served as f64 / batches as f64
        }
    }

    /// Total work items stolen between shards.
    pub fn total_stolen(&self) -> u64 {
        self.shards.iter().map(|s| s.stolen).sum()
    }

    /// Shards still alive at snapshot time.
    pub fn alive_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.alive).count()
    }

    /// Total shard respawns across seats.
    pub fn total_respawns(&self) -> u64 {
        self.shards.iter().map(|s| s.respawns).sum()
    }

    /// Total stranded work items redriven to live siblings on kill.
    pub fn total_redriven(&self) -> u64 {
        self.shards.iter().map(|s| s.redriven).sum()
    }

    /// Mean time-to-recovery across every respawn (kill →
    /// respawned-and-serving); `None` when nothing has respawned.
    pub fn mean_mttr(&self) -> Option<Duration> {
        let respawns = self.total_respawns();
        if respawns == 0 {
            return None;
        }
        let total: Duration = self.shards.iter().map(|s| s.mttr).sum();
        Some(total / respawns as u32)
    }
}

/// The batched pricing service: the front-end router and its worker
/// shards. Dropping it shuts every shard down (pending work is still
/// flushed and answered).
pub struct Server {
    plane: Arc<Plane>,
    /// One driver thread per seat, for the server's lifetime: a killed
    /// worker respawns on its own thread.
    workers: Vec<JoinHandle<()>>,
    /// Round-robin admission cursor.
    rr: AtomicUsize,
}

/// What one server's router and drivers share, behind one `Arc` — and
/// nothing outside that server sees, the fault plan included.
pub(crate) struct Plane {
    /// Per-seat admission queues (the message seam), seat-index order.
    /// Each queue and seat keeps its own allocation: shards share no
    /// cache line through this struct.
    pub(crate) queues: Vec<Arc<AdmissionQueue<Work>>>,
    /// Per-seat shared tallies + liveness, seat-index order.
    pub(crate) seats: Vec<Arc<ShardSeat>>,
    /// The server-level half of the ledger (each seat holds its own);
    /// portfolio fan-ins share it to count how their request ended.
    pub(crate) ledger: Arc<Ledger>,
    /// True once shutdown started. Shutdown closes the queues under this
    /// lock and a respawning driver reopens its queue under it, so no
    /// queue is reopened after shutdown closed it.
    closing: Mutex<bool>,
    /// Signalled when `closing` is set: wakes drivers in a backoff.
    closed: Condvar,
    pub(crate) config: ServeConfig,
    /// The plan this server was started with ([`Server::start`]: none).
    pub(crate) faults: Faults,
}

impl Plane {
    /// `config.shards` empty seats and open queues, and a fresh ledger.
    fn new(config: ServeConfig, faults: Faults) -> Self {
        let n = config.shards.max(1);
        Self {
            queues: (0..n)
                .map(|_| Arc::new(AdmissionQueue::new(config.queue_capacity)))
                .collect(),
            seats: (0..n).map(|i| Arc::new(ShardSeat::new(i))).collect(),
            ledger: Arc::new(Ledger::new()),
            closing: Mutex::new(false),
            closed: Condvar::new(),
            config,
            faults,
        }
    }

    fn lock_closing(&self) -> MutexGuard<'_, bool> {
        self.closing.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn is_closing(&self) -> bool {
        *self.lock_closing()
    }

    /// Start shutdown: set `closing`, close every queue, wake every
    /// driver waiting out a respawn backoff. Idempotent.
    fn close(&self) {
        let mut closing = self.lock_closing();
        *closing = true;
        for q in &self.queues {
            q.close();
        }
        drop(closing);
        self.closed.notify_all();
    }

    /// Wait `cooldown` (less if shutdown starts first), then reopen seat
    /// `i`'s queue. False, with the queue left closed, once shutdown has
    /// started.
    fn reopen_after(&self, i: usize, cooldown: Duration) -> bool {
        let closing = self.lock_closing();
        let (closing, _) = self
            .closed
            .wait_timeout_while(closing, cooldown, |closing| !*closing)
            .unwrap_or_else(|e| e.into_inner());
        if *closing {
            return false;
        }
        self.queues[i].reopen();
        true
    }
}

impl Server {
    /// Start a fault-free server over the workspace's kernel registry,
    /// planning rungs for the build host: `config.shards` worker shards
    /// behind one router.
    pub fn start(config: ServeConfig) -> Self {
        Self::start_with_faults(config, Faults::none())
    }

    /// [`start`](Self::start) a server whose admit, queue, batch and
    /// shard-kill sites fire `faults`, in this server only.
    pub fn start_with_faults(config: ServeConfig, faults: Faults) -> Self {
        let plane = Arc::new(Plane::new(config, faults));
        let workers = (0..plane.queues.len())
            .map(|index| {
                let plane = Arc::clone(&plane);
                std::thread::Builder::new()
                    .name(format!("finbench-serve-{index}"))
                    .spawn(move || shard_loop(plane, index))
                    .expect("spawn shard worker")
            })
            .collect();
        Self {
            plane,
            workers,
            rr: AtomicUsize::new(0),
        }
    }

    /// Route one admitted work item: round-robin over alive shards, then
    /// spill to the least-loaded alive shard before giving up. Returns
    /// the item with a typed rejection when no shard can take it.
    // The Err carries the Work back by value so the caller can scatter
    // the rejection without a clone; the size is fine off the hot path.
    #[allow(clippy::result_large_err)]
    fn route(&self, work: Work) -> Result<(), (Work, Rejected)> {
        let plane = &*self.plane;
        let (queues, seats) = (&plane.queues, &plane.seats);
        let n = queues.len();
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        let mut work = work;
        // Pass 1: the round-robin pick — the first alive shard at or
        // after the cursor.
        let Some(primary) = (0..n).map(|k| (start + k) % n).find(|&i| seats[i].alive()) else {
            let reason = if plane.is_closing() {
                Rejected::ShuttingDown
            } else {
                // `Cow::Borrowed`: rejecting under total shard loss must
                // not allocate on the submit path.
                Rejected::Internal {
                    reason: "no alive shards".into(),
                }
            };
            return Err((work, reason));
        };
        match queues[primary].try_push(work) {
            Ok(()) => {
                seats[primary].submitted.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            Err(back) => work = back,
        }
        // Pass 2 (cross-shard backpressure): spill to alive shards in
        // ascending queue-depth order before rejecting QueueFull.
        let mut full = !queues[primary].is_closed();
        let mut by_depth: Vec<usize> = (0..n)
            .filter(|&i| i != primary && seats[i].alive())
            .collect();
        by_depth.sort_by_key(|&i| queues[i].len());
        for i in by_depth {
            match queues[i].try_push(work) {
                Ok(()) => {
                    seats[i].submitted.fetch_add(1, Ordering::Relaxed);
                    plane.ledger.spills.add(1);
                    return Ok(());
                }
                Err(back) => {
                    work = back;
                    full = full || !queues[i].is_closed();
                }
            }
        }
        let reason = if plane.is_closing() {
            Rejected::ShuttingDown
        } else if full {
            // At least one alive shard rejected on capacity, not closure.
            Rejected::QueueFull {
                capacity: plane.config.queue_capacity.max(1),
            }
        } else {
            Rejected::Internal {
                reason: "no alive shards".into(),
            }
        };
        Err((work, reason))
    }

    /// Submit one request of any plane; the response arrives on the
    /// returned channel.
    pub fn submit<R: ServeRequest>(&self, req: R) -> Receiver<Response<R::Out>> {
        let (tx, rx) = mpsc::channel();
        self.submit_with(req, &tx);
        rx
    }

    /// Submit one request, delivering the response on `tx` (load
    /// generators fan many requests into one channel). Backpressure and
    /// validation are synchronous: a full queue answers
    /// `Rejected::QueueFull` and a domain-invalid request answers
    /// `Rejected::InvalidInput` right here, on the caller's thread —
    /// invalid parameters never reach a batch. What happens to a valid
    /// request is its plane's [`ServeRequest::admit`]: price and greeks
    /// requests queue as one envelope, a portfolio request fans out.
    pub fn submit_with<R: ServeRequest>(&self, mut req: R, tx: &Sender<Response<R::Out>>) {
        let id = req.id();
        if self.plane.faults.armed() {
            req.corrupt(&self.plane.faults);
        }
        if let Err(reason) = req.validate() {
            self.plane.ledger.of::<R::Plane>().invalid_input.add(1);
            let _ = tx.send(Response {
                id,
                outcome: Err(reason),
            });
            return;
        }
        req.admit(Admitted(self), tx);
    }

    /// [`submit_with`](Self::submit_with) under its old per-plane name:
    /// `benchmark/` and `tests/` call it, and neither may change with the
    /// serving plane.
    pub fn submit_greeks_with(&self, req: GreeksRequest, tx: &Sender<GreeksResponse>) {
        self.submit_with(req, tx);
    }

    /// [`submit_with`](Self::submit_with) under its old per-plane name:
    /// `benchmark/` and `tests/` call it, and neither may change with the
    /// serving plane.
    pub fn submit_portfolio_with(&self, req: PortfolioRequest, tx: &Sender<PortfolioResponse>) {
        self.submit_with(req, tx);
    }

    /// Current admission-queue depth, summed over all shards.
    pub fn queue_depth(&self) -> usize {
        self.plane.queues.iter().map(|q| q.len()).sum()
    }

    /// Number of worker shards (alive or not).
    pub fn shard_count(&self) -> usize {
        self.plane.queues.len()
    }

    /// Point-in-time statistics: the ledger read out. Tallies are relaxed
    /// loads; the seats' lane records are taken one seat at a time, merged
    /// by lane key, and their event handles added into their planes.
    pub fn snapshot(&self) -> ServeSnapshot {
        let plane = &*self.plane;
        let mut planes = plane.ledger.snapshot();
        let mut lanes: Vec<LaneStats> = Vec::new();
        let mut shards = Vec::with_capacity(plane.seats.len());
        for (i, seat) in plane.seats.iter().enumerate() {
            let records = seat.lock_records();
            shards.push(ShardSnapshot {
                index: i,
                alive: seat.alive(),
                submitted: seat.submitted.load(Ordering::Relaxed),
                served: records.iter().map(|r| r.events.served.get()).sum(),
                stolen: seat.stolen.get(),
                respawns: seat.respawns.get(),
                redriven: seat.redriven.get(),
                mttr: Duration::from_nanos(seat.mttr_nanos.load(Ordering::Relaxed)),
                queue_depth: plane.queues[i].len(),
            });
            for r in records.iter() {
                planes[r.plane].add_lane(&r.events);
                let stats = r.read();
                match lanes
                    .iter_mut()
                    .find(|m| m.counts.kernel == stats.counts.kernel)
                {
                    Some(merged) => merged.merge(&stats),
                    None => lanes.push(stats),
                }
            }
        }
        lanes.sort_by(|a, b| a.counts.kernel.cmp(&b.counts.kernel));
        let sum = |pick: fn(&PlaneSnapshot) -> u64| planes.iter().map(pick).sum();
        ServeSnapshot {
            kernels: lanes.into_iter().map(LaneStats::finish).collect(),
            shards,
            shed_queue_full: sum(|p| p.shed_queue_full),
            shed_deadline: sum(|p| p.shed_deadline),
            shed_deadline_redrive: sum(|p| p.shed_deadline_redrive),
            rejected: sum(|p| p.rejected),
            invalid_input: sum(|p| p.invalid_input),
            internal: sum(|p| p.internal),
            planes,
        }
    }

    /// Stop the plane: close the queues, then join the drivers (each
    /// drains its queue and lanes first). Idempotent.
    fn stop(&mut self) {
        self.plane.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Stop accepting work, drain and answer everything pending, and
    /// return the final statistics.
    pub fn shutdown(mut self) -> ServeSnapshot {
        self.stop();
        self.snapshot()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The way into the queues for a request that passed admission-side
/// validation. Only [`Server::submit_with`] makes one, so
/// [`ServeRequest::admit`] cannot be reached with an unvalidated request.
#[derive(Clone, Copy)]
pub struct Admitted<'a>(&'a Server);

impl Admitted<'_> {
    /// Route one admitted work item — a request's envelope or a fan-out's
    /// chunk — or answer the router's rejection on its own reply.
    pub(crate) fn one(self, work: Work) {
        if let Err((work, reason)) = self.0.route(work) {
            let ledger = &self.0.plane.ledger;
            on_envelope!(work, env => refuse(env, reason, ledger));
        }
    }

    /// Fan a portfolio request out: scenario-range chunks routed like any
    /// work item, all answering into one [`PortfolioFanIn`] that answers
    /// the request once, on whichever thread lands its last chunk.
    pub(crate) fn portfolio(self, req: PortfolioRequest, tx: &Sender<PortfolioResponse>) {
        let server = self.0;
        server.plane.ledger.portfolio_requests.add(1);
        // Chunk size: explicit, or a few chunks per shard so every live
        // worker sees fan-out (and work stealing has grains to move).
        let chunk = if req.chunk > 0 {
            req.chunk
        } else {
            req.scenarios.div_ceil(server.shard_count() * 4).max(16)
        }
        .min(req.scenarios)
        .max(1);
        let chunks = req.scenarios.div_ceil(chunk);
        let fan_in = Arc::new(PortfolioFanIn::new(&req, chunks, tx, &server.plane.ledger));
        for lo in (0..req.scenarios).step_by(chunk) {
            let chunk = PortfolioChunkRequest {
                seed: req.seed,
                positions: req.positions,
                scenarios: req.scenarios,
                lo,
                hi: (lo + chunk).min(req.scenarios),
                deadline: req.deadline,
            };
            self.one(Work::Portfolio(Envelope::new(chunk, &fan_in)));
        }
    }
}

/// Answer `env` the router's rejection, tallying a `QueueFull` shed.
fn refuse<W: ServeWorkload>(env: Envelope<W>, reason: Rejected, ledger: &Ledger) {
    if matches!(reason, Rejected::QueueFull { .. }) {
        ledger.of::<W>().shed_queue_full.add(1);
    }
    env.answer(Err(reason));
}

/// Most work items an idle shard steals from one sibling in one pass —
/// enough to refill a micro-batch, small enough to keep the victim warm.
const STEAL_MAX: usize = 64;

/// Seat `index`'s driver thread: its shard on the real clock, one
/// incarnation per pass. A killed incarnation's work is redriven; with
/// respawn on, it waits out the backoff, reopens the queue and
/// serves again, and the seat's ledger and lane records carry on.
fn shard_loop(plane: Arc<Plane>, index: usize) {
    let mut shard = Shard::new(plane, index, Instant::now);
    while serve(&mut shard) {
        let stranded = shard.kill();
        redrive(&shard, stranded);
        let plane = &*shard.plane;
        if !plane.config.respawn || !plane.reopen_after(index, shard.cooldown) {
            return;
        }
        shard.respawned();
    }
}

/// Drive one incarnation of `shard`: `false` once its queue is closed and
/// it has drained, `true` when the kill fault fires.
fn serve(shard: &mut Shard) -> bool {
    let plane = Arc::clone(&shard.plane);
    let (queues, config, faults) = (&plane.queues, &plane.config, &plane.faults);
    let (queue, seat) = (&*queues[shard.index], &plane.seats[shard.index]);
    let kill_site = format!("serve.shard.{}", shard.index);
    loop {
        // Fault injection: a stalled (or slowed) worker — its queue backs
        // up and spill/steal/shedding take over.
        if faults.armed() {
            for kind in faults.fire("queue") {
                match kind {
                    FaultKind::StallQueue => {
                        std::thread::sleep(config.max_delay.max(Duration::from_micros(200)));
                    }
                    FaultKind::Latency(d) => std::thread::sleep(d),
                    _ => {}
                }
            }
            // Shard-kill fault: this incarnation dies. Availability
            // degrades; correctness and the rest of the fleet do not.
            if faults
                .fire(&kill_site)
                .iter()
                .any(|k| matches!(k, FaultKind::Kill))
            {
                return true;
            }
        }
        let wait = shard.next_wait();
        let popped = match wait {
            Some(wait) => queue.pop_timeout(wait),
            None => queue.pop_wait(),
        };
        match popped {
            Some(work) => {
                seat.depth_gauge.set(queue.len() as f64);
                let total: usize = queues.iter().map(|q| q.len()).sum();
                plane.ledger.queue_depth.set(total as f64);
                shard.admit(work);
            }
            None if queue.is_closed() && queue.is_empty() => break,
            // A steal poll that found nothing of our own: take queued work
            // from the deepest sibling.
            None if wait > Some(Duration::ZERO) && queue.is_empty() => {
                for work in steal(&plane, shard.index) {
                    shard.admit(work);
                }
            }
            None => {}
        }
        // A closed queue ends the loop once it is drained; what the lanes
        // hold by then is the shutdown drain's, not an idle flush.
        shard.flush(queue.is_empty() && !queue.is_closed());
    }
    shard.drain();
    false
}

/// Steal up to [`STEAL_MAX`] work items from the back of the deepest
/// sibling queue: its newest, so the victim keeps its oldest,
/// deadline-critical work. Padded lane-wise batching makes the move
/// bit-invisible.
fn steal(plane: &Plane, index: usize) -> Vec<Work> {
    let queues = &plane.queues;
    let victim = (0..queues.len())
        .filter(|&i| i != index)
        .max_by_key(|&i| queues[i].len());
    let Some(victim) = victim else {
        return Vec::new();
    };
    let depth = queues[victim].len();
    if depth < 2 {
        // Leave a lone item with its owner: the wakeup it already
        // triggered there is about to consume it.
        return Vec::new();
    }
    let stolen = queues[victim].steal_up_to((depth / 2).min(STEAL_MAX));
    plane.seats[index].stolen.add(stolen.len() as u64);
    stolen
}

/// Redrive what killed `shard` stranded, each item to the live sibling
/// with the shallowest queue, reply intact (bit-invisible, like a steal).
/// At most once: an item stranded by a *second* kill is answered
/// `Rejected::Internal` instead, so every request gets exactly one
/// terminal response; one whose deadline passed (on the shard's clock)
/// is shed. Redriven items stay counted as `submitted` at the killed seat.
fn redrive(shard: &Shard, stranded: Vec<Work>) {
    if stranded.is_empty() {
        return;
    }
    let (plane, index) = (&*shard.plane, shard.index);
    let (queues, seats, ledger) = (&plane.queues, &plane.seats, &plane.ledger);
    // Live siblings in ascending queue-depth order, recomputed once per
    // kill (not per item: the kill path should finish fast so the seat
    // can respawn).
    let mut order: Vec<usize> = (0..queues.len())
        .filter(|&i| i != index && seats[i].alive())
        .collect();
    order.sort_by_key(|&i| queues[i].len());
    let now = shard.now();
    for mut work in stranded {
        if let Some(d) = work.deadline() {
            if now > d {
                work.shed_deadline(now.duration_since(d), ledger);
                continue;
            }
        }
        if !work.mark_redriven() {
            work.reject_internal("shard killed; redrive budget exhausted", ledger);
            continue;
        }
        let mut item = Some(work);
        for &i in &order {
            match queues[i].try_push(item.take().expect("item present until placed")) {
                Ok(()) => {
                    seats[index].redriven.add(1);
                    break;
                }
                Err(back) => item = Some(back),
            }
        }
        if let Some(unplaced) = item {
            unplaced.reject_internal("shard killed; no live sibling to redrive to", ledger);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pricer;
    use crate::request::{PriceRequest, PriceResponse};
    use crate::shard::{backoff, RESPAWN_COOLDOWN};
    use crate::workload::PortfolioWorkload;
    use finbench_core::engine::registry;
    use finbench_engine::Engine;
    use finbench_faults::{self as faults, FaultPlan, FaultSpec};
    use std::cell::Cell;
    use std::fmt::Debug;

    fn quick_config() -> ServeConfig {
        ServeConfig {
            queue_capacity: 64,
            max_delay: Duration::from_micros(200),
            max_batch: 64,
            shards: 1,
            pricer: PricerConfig {
                binomial_steps: 32,
                ..PricerConfig::default()
            },
            breaker: BreakerPolicy::default(),
            respawn: true,
        }
    }

    /// [`quick_config`] with `edit` applied.
    fn quick(edit: impl FnOnce(&mut ServeConfig)) -> ServeConfig {
        let mut config = quick_config();
        edit(&mut config);
        config
    }

    fn start_with(config: ServeConfig, plan: FaultPlan) -> Server {
        Server::start_with_faults(config, Faults::new(plan))
    }

    /// Panic on batches of `kernel`'s lane, the first `fires` of them.
    fn panics(kernel: &str, fires: u64) -> FaultPlan {
        let site = format!("batch.{kernel}");
        FaultPlan::new().with(FaultSpec::always(site, FaultKind::Panic).limited(fires))
    }

    fn bs(id: u64) -> PriceRequest {
        PriceRequest::new(id, "black_scholes", 30.0, 35.0, 1.0)
    }

    /// `req`'s answer from a driven server, within ten seconds.
    fn ask<R: ServeRequest>(server: &Server, req: R) -> Result<R::Out, Rejected> {
        let rx = server.submit(req);
        rx.recv_timeout(Duration::from_secs(10))
            .expect("answered")
            .outcome
    }

    fn internal<T: Debug>(out: &Result<T, Rejected>) -> &str {
        match out {
            Err(Rejected::Internal { reason }) => reason,
            other => panic!("expected Internal, got {other:?}"),
        }
    }

    fn bs_ladder() -> Vec<pricer::ServingRung> {
        let engine = Engine::new(registry());
        pricer::servable_ladder(&engine, "black_scholes", &quick_config().pricer).unwrap()
    }

    fn kernel<'a>(snap: &'a ServeSnapshot, name: &str) -> &'a KernelSnapshot {
        snap.kernels
            .iter()
            .find(|k| k.kernel == name)
            .unwrap_or_else(|| panic!("no {name} lane in {snap:?}"))
    }

    thread_local! {
        /// The instant this test's shards read: every test runs on its
        /// own thread, and time moves only when the test [`step`]s it.
        static NOW: Cell<Option<Instant>> = const { Cell::new(None) };
    }

    fn stepped() -> Instant {
        NOW.with(|now| {
            let at = now.get().unwrap_or_else(Instant::now);
            now.set(Some(at));
            at
        })
    }

    fn step(by: Duration) {
        let at = stepped() + by;
        NOW.with(|now| now.set(Some(at)));
    }

    /// A server on [`quick`] with no drivers: nothing pops its queues until the test
    /// steps a seat's shard by hand, on the stepped clock.
    fn undriven(edit: impl FnOnce(&mut ServeConfig)) -> Server {
        let plane = Arc::new(Plane::new(quick(edit), Faults::none()));
        let (workers, rr) = (Vec::new(), AtomicUsize::new(0));
        Server { plane, workers, rr }
    }

    fn shard(server: &Server, index: usize) -> Shard {
        Shard::new(Arc::clone(&server.plane), index, stepped)
    }

    /// Turn `shard` the way its driver does until its queue is empty:
    /// pop, admit, flush — on idle once the queue has run dry.
    fn run_dry(shard: &mut Shard) {
        let queue = Arc::clone(&shard.plane.queues[shard.index]);
        while let Some(work) = queue.pop_timeout(Duration::ZERO) {
            shard.admit(work);
            shard.flush(queue.is_empty());
        }
    }

    /// Take the shard's next queued item into its lanes, unflushed.
    fn admit_one(shard: &mut Shard) {
        let work = shard.plane.queues[shard.index].pop_timeout(Duration::ZERO);
        shard.admit(work.expect("a queued item"));
    }

    /// Push price requests `ids` straight into seat `i`'s queue, past the
    /// router; their answers arrive on the returned channel.
    fn queued(server: &Server, i: usize, ids: std::ops::Range<u64>) -> Receiver<PriceResponse> {
        let (tx, rx) = mpsc::channel();
        for id in ids {
            let work = Work::Price(Envelope::new(bs(id), &tx));
            let pushed = server.plane.queues[i].try_push(work).is_ok();
            assert!(pushed, "queue {i} full");
        }
        rx
    }

    /// Kill `shard` and redrive what it stranded, as its driver does.
    fn kill(shard: &mut Shard) {
        let stranded = shard.kill();
        redrive(shard, stranded);
    }

    fn ids<T>(got: &[Response<T>]) -> Vec<u64> {
        got.iter().map(|r| r.id).collect()
    }

    #[test]
    fn prices_requests_and_echoes_ids() {
        let server = Server::start(quick_config());
        let rx1 = server.submit(bs(1));
        let rx2 = server.submit(PriceRequest::new(2, "binomial", 30.0, 35.0, 1.0));
        let r1 = rx1.recv_timeout(Duration::from_secs(10)).unwrap();
        let r2 = rx2.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!((r1.id, r2.id), (1, 2));
        let (p1, p2) = (r1.outcome.unwrap(), r2.outcome.unwrap());
        assert!(p1.call > 0.0 && p1.put > 0.0, "{p1:?}");
        assert!(p2.call > 0.0 && p2.put > 0.0, "{p2:?}");
        // Different engines, same option: prices agree loosely (binomial
        // converges to Black-Scholes).
        assert!((p1.call - p2.call).abs() < 0.5, "{p1:?} vs {p2:?}");
        let snap = server.shutdown();
        assert_eq!((snap.total_shed(), snap.kernels.len()), (0, 2));
        // Healthy run: breakers closed, nothing degraded or restarted.
        for k in &snap.kernels {
            assert_eq!(k.breaker, "closed");
            let health = (k.degradation_level, k.degraded_batches, k.restarts);
            assert_eq!(health, (0, 0, 0));
        }
        assert_eq!((snap.internal, snap.invalid_input), (0, 0));
    }

    #[test]
    fn portfolio_fan_out_merges_bit_identically_to_native() {
        use finbench_core::portfolio::{revalue_into, Book, RevalScratch, ScenarioConfig};
        let config = quick(|c| c.shards = 2);
        let server = Server::start(config);
        let rx = server.submit(PortfolioRequest::new(9, 42, 24, 96).with_chunk(16));
        let resp = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(resp.id, 9);
        let out = resp.outcome.unwrap();
        assert_eq!((out.scenarios, out.pnl.len(), out.chunks), (96, 96, 6));
        // Served on the planned (W=8) rung only — no degradation here.
        assert_eq!(out.rungs, ["intermediate_simd_revaluation_w_8"]);
        // Native replay of the same book + grid at the same rung.
        let book = Book::random(24, 42);
        let grid = ScenarioConfig::standard(96, 42).grid();
        let mut scratch = RevalScratch::new();
        let mut want = Vec::new();
        revalue_into::<8>(&book, config.pricer.market, &grid, &mut scratch, &mut want);
        for (j, (got, native)) in out.pnl.iter().zip(&want).enumerate() {
            assert_eq!(got.to_bits(), native.to_bits(), "scenario {j}");
        }
        // Default confidences, losses ordering: VaR99 >= VaR95, ES >= VaR.
        assert_eq!(out.risk.len(), 2);
        assert_eq!(out.risk[0].confidence, 0.95);
        assert!(out.risk[1].var >= out.risk[0].var, "{:?}", out.risk);
        assert!(out.risk[0].es >= out.risk[0].var, "{:?}", out.risk);
        let snap = server.shutdown();
        assert_eq!((snap.total_shed(), snap.internal), (0, 0));
        assert!(snap.kernels.iter().any(|k| k.kernel == "portfolio"));
    }

    #[test]
    fn portfolio_rejects_invalid_requests_synchronously() {
        let server = Server::start(quick_config());
        match ask(&server, PortfolioRequest::new(1, 7, 0, 64)) {
            Err(Rejected::InvalidInput { reason }) => assert!(reason.contains("non-empty")),
            other => panic!("expected InvalidInput, got {other:?}"),
        }
        let req = PortfolioRequest::new(2, 7, 16, 32).with_confidence(vec![2.0]);
        let out = ask(&server, req);
        assert!(matches!(out, Err(Rejected::InvalidInput { .. })));
        assert_eq!(server.shutdown().invalid_input, 2);
    }

    #[test]
    fn portfolio_requests_are_deterministic_across_chunkings() {
        // Different fan-out shapes (chunk sizes, shard counts) must merge
        // to bit-identical P&L — the split-invariance contract end to end.
        let run = |shards: usize, chunk: usize| {
            let server = Server::start(quick(|c| c.shards = shards));
            let req = PortfolioRequest::new(1, 11, 16, 80).with_chunk(chunk);
            ask(&server, req).unwrap().pnl
        };
        let (a, b, c) = (run(1, 80), run(2, 13), run(3, 7));
        assert_eq!(a.len(), 80);
        for j in 0..80 {
            assert_eq!(a[j].to_bits(), b[j].to_bits(), "scenario {j}");
            assert_eq!(a[j].to_bits(), c[j].to_bits(), "scenario {j}");
        }
    }

    #[test]
    fn a_portfolio_request_is_answered_by_the_time_shutdown_returns() {
        // No merge thread outlives the workers: the last chunk's worker
        // answers the request, and shutdown joins every worker.
        let server = Server::start(quick(|c| c.shards = 2));
        let rx = server.submit(PortfolioRequest::new(4, 21, 16, 64).with_chunk(8));
        server.shutdown();
        let resp = rx.try_recv().expect("answered before shutdown returned");
        assert_eq!(resp.outcome.expect("served").chunks, 8);
        assert_eq!(rx.try_recv(), Err(mpsc::TryRecvError::Disconnected));
    }

    #[test]
    fn a_fan_out_partly_refused_is_answered_once_with_queue_full() {
        // Nothing pops while the four chunks are routed, so the first two
        // fill the two-slot queue and the router refuses the other two.
        let server = undriven(|c| c.queue_capacity = 2);
        let (tx, rx) = mpsc::channel();
        server.submit_with(PortfolioRequest::new(5, 3, 8, 64).with_chunk(16), &tx);
        drop(tx);
        assert_eq!(server.queue_depth(), 2);
        run_dry(&mut shard(&server, 0));
        let got: Vec<PortfolioResponse> = rx.try_iter().collect();
        assert_eq!(got.len(), 1, "exactly one terminal response");
        let out = &got[0].outcome;
        assert!(matches!(out, Err(Rejected::QueueFull { capacity: 2 })));
        let l = &server.plane.ledger;
        let ends = [
            &l.portfolio_requests,
            &l.portfolio_failed,
            &l.portfolio_merged,
        ];
        assert_eq!(ends.map(Counter::get), [1, 1, 0]);
        let snap = server.shutdown();
        let p = &snap.planes[PortfolioWorkload::PLANE];
        assert_eq!((p.shed_queue_full, p.served), (2, 2), "{p:?}");
        assert_eq!((p.internal, p.shed_deadline, p.rejected), (0, 0, 0));
    }

    #[test]
    fn greeks_requests_ride_the_same_plane() {
        let server = Server::start(quick_config());
        let rx = server.submit(GreeksRequest::new(11, 30.0, 35.0, 1.0));
        let resp = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(resp.id, 11);
        let out = resp.outcome.unwrap();
        // Call delta in (0,1), put delta = call delta − 1, shared gamma.
        assert!(out.call.delta > 0.0 && out.call.delta < 1.0, "{out:?}");
        assert!((out.put.delta - (out.call.delta - 1.0)).abs() < 1e-15);
        assert_eq!(out.call.gamma.to_bits(), out.put.gamma.to_bits());
        assert_eq!(out.rung, "intermediate_simd_soa_greeks_w_8");
        let snap = server.shutdown();
        let k = kernel(&snap, "greeks");
        assert_eq!((k.served, k.breaker.as_str()), (1, "closed"));
        assert_eq!(snap.total_shed(), 0);
    }

    #[test]
    fn greeks_invalid_inputs_and_deadlines_get_typed_answers() {
        let server = Server::start(quick_config());
        let out = ask(&server, GreeksRequest::new(1, f64::NAN, 35.0, 1.0));
        assert!(matches!(out, Err(Rejected::InvalidInput { .. })));
        let mut req = GreeksRequest::new(2, 30.0, 35.0, 1.0);
        req.deadline = Some(Instant::now() - Duration::from_millis(1));
        let out = ask(&server, req);
        assert!(matches!(out, Err(Rejected::DeadlineExceeded { .. })));
        let snap = server.shutdown();
        assert_eq!((snap.invalid_input, snap.shed_deadline), (1, 1));
    }

    #[test]
    fn greeks_lane_survives_an_injected_panic_and_degrades() {
        faults::silence_injected_panics();
        // Panic on the first greeks batch only.
        let server = start_with(quick_config(), panics("greeks", 1));
        let out = ask(&server, GreeksRequest::new(1, 30.0, 35.0, 1.0));
        assert!(internal(&out).contains("injected panic"), "{out:?}");
        // Still alive; the next request is served on a degraded rung that
        // answers bit-identically to the planned one.
        let out = ask(&server, GreeksRequest::new(2, 30.0, 35.0, 1.0))
            .expect("greeks lane must keep serving after a caught panic");
        let (want_c, _) = crate::greeks::greeks_ladder(quick_config().pricer.market)[0]
            .compute_one(30.0, 35.0, 1.0);
        assert_eq!(out.call.delta.to_bits(), want_c.delta.to_bits());
        let snap = server.shutdown();
        let k = kernel(&snap, "greeks");
        assert!(k.degradation_level >= 1, "{k:?}");
        assert_eq!(snap.internal, 1);
    }

    /// Submit `n` price and `n` greeks requests interleaved: every one is
    /// answered once, and served.
    fn serves_mixed_load(server: &Server, n: u64) {
        let (ptx, prx) = mpsc::channel();
        let (gtx, grx) = mpsc::channel();
        for i in 0..n {
            server.submit_with(bs(i), &ptx);
            server.submit_greeks_with(GreeksRequest::new(i, 25.0, 20.0, 0.5), &gtx);
        }
        drop((ptx, gtx));
        let priced: Vec<PriceResponse> = prx.iter().collect();
        let greeked: Vec<GreeksResponse> = grx.iter().collect();
        assert_eq!((priced.len() as u64, greeked.len() as u64), (n, n));
        assert!(priced.iter().all(PriceResponse::is_ok));
        assert!(greeked.iter().all(|g| g.is_ok()));
    }

    #[test]
    fn mixed_price_and_greeks_load_shares_the_queue_without_cross_talk() {
        let server = Server::start(quick_config());
        serves_mixed_load(&server, 20);
        let snap = server.shutdown();
        assert_eq!(snap.total_shed(), 0);
        let names: Vec<&str> = snap.kernels.iter().map(|k| k.kernel.as_str()).collect();
        assert!(names.contains(&"black_scholes") && names.contains(&"greeks"));
    }

    #[test]
    fn bad_kernels_get_typed_rejections_not_panics() {
        let server = Server::start(quick_config());
        let typo = PriceRequest::new(9, "black_sholes", 30.0, 35.0, 1.0);
        match ask(&server, typo) {
            Err(Rejected::UnknownKernel { reason }) => assert!(reason.contains("black_sholes")),
            other => panic!("expected UnknownKernel, got {other:?}"),
        }
        let rng = PriceRequest::new(10, "rng", 30.0, 35.0, 1.0);
        let out = ask(&server, rng);
        assert!(matches!(out, Err(Rejected::Unservable { .. })));
        assert_eq!(server.shutdown().rejected, 2);
    }

    #[test]
    fn invalid_inputs_are_rejected_synchronously_before_any_batch() {
        let server = Server::start(quick_config());
        for (id, s, x, t) in [
            (1u64, f64::NAN, 35.0, 1.0),
            (2, 30.0, f64::INFINITY, 1.0),
            (3, 30.0, 35.0, -1.0),
            (4, 0.0, 35.0, 1.0),
        ] {
            let out = ask(&server, PriceRequest::new(id, "black_scholes", s, x, t));
            assert!(matches!(out, Err(Rejected::InvalidInput { .. })), "{id}");
        }
        let snap = server.shutdown();
        assert_eq!(snap.invalid_input, 4);
        // No lane was ever created for them: nothing served or batched.
        assert!(snap.kernels.is_empty(), "{:?}", snap.kernels);
    }

    #[test]
    fn queue_overflow_is_a_synchronous_typed_rejection() {
        // Capacity 1 and nothing popping: every request after the first is
        // refused on the caller's thread.
        let server = undriven(|c| c.queue_capacity = 1);
        let (tx, rx) = mpsc::channel();
        for i in 0..200 {
            server.submit_with(bs(i), &tx);
        }
        drop(tx);
        run_dry(&mut shard(&server, 0));
        let outcomes: Vec<PriceResponse> = rx.try_iter().collect();
        assert_eq!(outcomes.len(), 200, "every request got exactly one answer");
        let full = outcomes
            .iter()
            .filter(|r| matches!(r.outcome, Err(Rejected::QueueFull { capacity: 1 })))
            .count();
        assert_eq!(full, 199);
        assert_eq!(server.shutdown().shed_queue_full as usize, full);
    }

    #[test]
    fn expired_deadlines_shed_instead_of_pricing_late() {
        let server = Server::start(quick_config());
        let mut req = bs(5);
        // A deadline in the past: the dispatcher must shed it.
        req.deadline = Some(Instant::now() - Duration::from_millis(1));
        let out = ask(&server, req);
        assert!(matches!(out, Err(Rejected::DeadlineExceeded { .. })));
        assert_eq!(server.shutdown().shed_deadline, 1);
    }

    #[test]
    fn a_lone_request_on_an_idle_server_does_not_wait_for_the_timer() {
        let server = Server::start(quick(|c| c.max_delay = Duration::from_secs(10)));
        let rx = server.submit(bs(1));
        let priced = rx
            .recv_timeout(Duration::from_secs(1))
            .expect("answered long before max_delay")
            .outcome
            .expect("priced");
        assert_eq!(priced.batch_len, 1);
        assert!(priced.latency < Duration::from_secs(1), "{priced:?}");
        let snap = server.shutdown();
        let k = kernel(&snap, "black_scholes");
        assert_eq!((k.flushes.idle, k.flushes.total(), k.batches), (1, 1, 1));
    }

    #[test]
    fn shutdown_answers_everything_pending() {
        // Ten requests are still queued when shutdown closes the queue;
        // the seat's loop runs on.
        let server = undriven(|_| {});
        let (tx, rx) = mpsc::channel();
        for i in 0..10 {
            server.submit_with(bs(i), &tx);
        }
        drop(tx);
        server.plane.close();
        let killed = serve(&mut shard(&server, 0));
        assert!(!killed, "a closed queue ends the loop");
        // Everything still queued when the queue closed is priced, not
        // dropped or rejected — by the shutdown drain, since a closed
        // queue no longer counts as idle.
        let got: Vec<PriceResponse> = rx.try_iter().collect();
        assert_eq!(got.len(), 10);
        assert!(got.iter().all(PriceResponse::is_ok), "{got:?}");
        let snap = server.shutdown();
        let k = kernel(&snap, "black_scholes");
        assert_eq!((k.served, k.flushes.total()), (10, k.batches));
        assert_eq!(k.flushes.drain, 1, "{k:?}");
    }

    #[test]
    fn a_backlogged_worker_batches_up_to_the_size_trigger() {
        // The queue holds more than two size targets when the worker
        // looks, so what it pops flushes on size, and only the remainder
        // on idle.
        let server = undriven(|c| c.max_batch = 8);
        let (tx, rx) = mpsc::channel();
        for i in 1..=17 {
            server.submit_with(bs(i), &tx);
        }
        drop(tx);
        run_dry(&mut shard(&server, 0));
        let got: Vec<PriceResponse> = rx.try_iter().collect();
        assert_eq!(got.len(), 17);
        assert!(got.iter().all(PriceResponse::is_ok), "{got:?}");
        let snap = server.shutdown();
        let k = kernel(&snap, "black_scholes");
        assert_eq!(k.target_batch, 8);
        assert_eq!((k.flushes.size, k.flushes.idle), (2, 1), "{k:?}");
        assert!(k.max_occupancy <= 8.0, "{k:?}");
        assert_eq!(k.flushes.total(), k.batches);
    }

    #[test]
    fn a_kernel_panic_rejects_the_batch_and_degrades_instead_of_crashing() {
        faults::silence_injected_panics();
        // Panic on the first black_scholes batch only.
        let server = start_with(quick_config(), panics("black_scholes", 1));
        let out = ask(&server, bs(1));
        assert!(internal(&out).contains("injected panic"), "{out:?}");
        // The server is still alive and prices the next request — on a
        // degraded rung (the panic pushed the lane one level down).
        let priced = ask(&server, bs(2)).expect("server must keep serving after a caught panic");
        assert!(priced.call > 0.0);
        let snap = server.shutdown();
        let k = &snap.kernels[0];
        assert_eq!(snap.internal, 1);
        assert!(k.degradation_level >= 1, "{k:?}");
        assert!(k.degraded_batches >= 1, "{k:?}");
        assert_eq!(k.breaker, "closed");
    }

    #[test]
    fn a_lane_degraded_on_one_seat_is_not_reported_healthy_by_its_sibling() {
        faults::silence_injected_panics();
        let config = quick(|c| (c.shards, c.respawn) = (2, false));
        let server = start_with(config, panics("black_scholes", 1));
        // Answered one at a time, so round-robin places them on seats 0,
        // 1, 0 and nothing is stolen (a lone queued item never is): seat
        // 0 absorbs the panic and degrades, seat 1 serves at the planned
        // rung, seat 0 serves one level down.
        let first = ask(&server, bs(1));
        assert!(matches!(first, Err(Rejected::Internal { .. })), "{first:?}");
        let ladder = bs_ladder();
        assert_eq!(ask(&server, bs(2)).unwrap().rung, *ladder[0].slug);
        assert_eq!(ask(&server, bs(3)).unwrap().rung, *ladder[1].slug);
        let snap = server.shutdown();
        let served: Vec<u64> = snap.shards.iter().map(|s| s.served).collect();
        assert_eq!(served, [1, 1]);
        // Health is the most degraded seat's, whichever published last;
        // counts are the sums over both seats' records.
        let k = kernel(&snap, "black_scholes");
        assert_eq!((k.degradation_level, &*k.rung), (1, &*ladder[1].slug));
        assert_eq!((k.served, k.batches, k.degraded_batches), (2, 2, 1));
        assert_eq!((snap.internal, snap.planes[0].degradations), (1, 1));
    }

    #[test]
    fn persistent_panics_walk_the_ladder_down_then_open_the_breaker() {
        faults::silence_injected_panics();
        let cooldown = Duration::from_secs(30);
        let config = quick(|c| (c.breaker.open_after, c.breaker.cooldown) = (2, cooldown));
        let server = start_with(config, panics("black_scholes", u64::MAX));
        // Enough sequential batches to fall through every ladder level
        // and trip the breaker at the bottom: levels + open_after.
        let ladder_len = bs_ladder().len();
        let batches = ladder_len + 3;
        for i in 0..batches {
            let out = ask(&server, bs(i as u64));
            assert!(matches!(out, Err(Rejected::Internal { .. })), "batch {i}");
        }
        let snap = server.shutdown();
        let k = &snap.kernels[0];
        assert_eq!(k.breaker, "open", "{k:?}");
        assert_eq!(k.degradation_level, ladder_len - 1, "bottom of the ladder");
        assert!(k.breaker_open >= 1);
        assert_eq!(snap.internal, batches as u64);
    }

    #[test]
    fn lane_restarts_after_cooldown_and_recovers_when_faults_stop() {
        faults::silence_injected_panics();
        let ladder_len = bs_ladder().len();
        let breaker = BreakerPolicy {
            open_after: 1,
            cooldown: Duration::from_millis(5),
            promote_after: 2,
            ..BreakerPolicy::default()
        };
        // One panic per ladder level: fall to the bottom and open the
        // breaker, and the faults stop there.
        let mut server = undriven(|c| c.breaker = breaker);
        let plan = panics("black_scholes", ladder_len as u64);
        Arc::get_mut(&mut server.plane).unwrap().faults = Faults::new(plan);
        let mut s = shard(&server, 0);
        let mut price = |id: u64| {
            let rx = server.submit(bs(id));
            run_dry(&mut s);
            rx.try_recv().expect("answered").outcome
        };
        for i in 0..ladder_len as u64 {
            assert!(matches!(price(i), Err(Rejected::Internal { .. })));
        }
        // Inside the cooldown the open breaker rejects without a probe.
        step(Duration::from_millis(4));
        assert!(internal(&price(98)).contains("circuit open"));
        // Past it, the next batch is the half-open probe, which succeeds,
        // closes the breaker, and serves.
        step(Duration::from_millis(2));
        let priced = price(99).expect("probe batch should be served");
        assert!(priced.call > 0.0);
        let snap = server.shutdown();
        let k = &snap.kernels[0];
        assert_eq!((k.restarts, k.breaker.as_str()), (1, "closed"), "{k:?}");
        assert_eq!(snap.total_restarts(), 1);
        assert_eq!(snap.planes[0].lane_restarts, 1);
    }

    #[test]
    fn corrupt_input_faults_are_caught_by_validation_not_priced() {
        let corrupt = FaultKind::CorruptInput(finbench_faults::Corruption::NaN);
        let plan = FaultPlan::new().with(FaultSpec::always("admit.black_scholes", corrupt));
        let server = start_with(quick_config(), plan);
        match ask(&server, bs(7)) {
            Err(Rejected::InvalidInput { reason }) => assert!(reason.contains("spot"), "{reason}"),
            other => panic!("expected InvalidInput, got {other:?}"),
        }
        assert_eq!(server.shutdown().invalid_input, 1);
    }

    #[test]
    fn multi_shard_server_serves_everything_and_merges_telemetry() {
        let server = Server::start(quick(|c| c.shards = 4));
        assert_eq!(server.shard_count(), 4);
        serves_mixed_load(&server, 100);
        let snap = server.shutdown();
        assert_eq!((snap.shards.len(), snap.alive_shards()), (4, 4));
        assert_eq!(snap.total_shed(), 0);
        // Every admitted request was routed to exactly one shard and
        // answered by exactly one shard (possibly a thief).
        let submitted: u64 = snap.shards.iter().map(|s| s.submitted).sum();
        let served: u64 = snap.shards.iter().map(|s| s.served).sum();
        assert_eq!((submitted, served), (200, 200));
        // Round-robin admission: no shard was starved of submissions.
        assert!(snap.shards.iter().all(|s| s.submitted > 0), "{snap:?}");
    }

    #[test]
    fn router_spills_to_a_less_loaded_sibling_before_rejecting() {
        // Nothing pops: what the router places stays where it put it.
        let server = undriven(|c| (c.shards, c.queue_capacity) = (2, 1));
        // Occupy shard 0's queue directly, so the round-robin primary is
        // full while shard 1 has room.
        let occupant = queued(&server, 0, 0..1);
        server.rr.store(0, Ordering::Relaxed);
        // The router's primary (shard 0) is full: this must spill to
        // shard 1 and be served, not answer QueueFull.
        let rx = server.submit(bs(1));
        assert_eq!(server.plane.queues[1].len(), 1);
        assert_eq!(server.plane.ledger.spills.get(), 1);
        for i in 0..2 {
            run_dry(&mut shard(&server, i));
        }
        let resp = rx.try_recv().unwrap();
        assert!(resp.is_ok(), "{:?}", resp.outcome);
        let occupant = occupant.try_recv().unwrap();
        assert!(occupant.is_ok(), "{:?}", occupant.outcome);
        let snap = server.shutdown();
        // The spilled request is the only *routed* submission; the
        // occupant bypassed the router.
        assert_eq!(snap.shards[1].submitted, 1, "{snap:?}");
        assert_eq!(snap.shed_queue_full, 0);
    }

    #[test]
    fn idle_shards_steal_queued_work_from_the_deepest_sibling() {
        let server = undriven(|c| c.shards = 2);
        let rx = queued(&server, 0, 0..9);
        // Shard 1 holds nothing on a sharded plane, so its driver polls;
        // its own queue is empty, so it steals from the deepest sibling:
        // half of it, from the back.
        let mut thief = shard(&server, 1);
        assert!(thief.next_wait() > Some(Duration::ZERO));
        for work in steal(&server.plane, 1) {
            thief.admit(work);
        }
        thief.flush(true);
        run_dry(&mut shard(&server, 0));
        let got: Vec<PriceResponse> = rx.try_iter().collect();
        assert!(got.iter().all(PriceResponse::is_ok));
        // Every request got exactly one answer: the thief took the newest
        // four, the victim kept its oldest.
        assert_eq!(ids(&got), [5, 6, 7, 8, 0, 1, 2, 3, 4]);
        // A lone queued item stays with its owner.
        let _lone = queued(&server, 0, 9..10);
        assert!(steal(&server.plane, 1).is_empty());
        let snap = server.shutdown();
        assert_eq!((snap.shards[1].stolen, snap.total_stolen()), (4, 4));
        let served: u64 = snap.shards.iter().map(|s| s.served).sum();
        assert_eq!(served, 9);
    }

    #[test]
    fn a_killed_shard_degrades_availability_never_correctness() {
        // Respawn off: this test pins down the *terminal* loss behavior.
        let server = undriven(|c| (c.shards, c.respawn) = (2, false));
        kill(&mut shard(&server, 0));
        let (tx, rx) = mpsc::channel();
        for i in 0..40u64 {
            server.submit_with(bs(i), &tx);
        }
        drop(tx);
        run_dry(&mut shard(&server, 1));
        let got: Vec<PriceResponse> = rx.try_iter().collect();
        // Correctness never degrades: everything routed to the surviving
        // shard is served, nothing answers corrupt prices.
        assert_eq!(got.len(), 40);
        assert!(got.iter().all(PriceResponse::is_ok));
        let snap = server.shutdown();
        assert_eq!(snap.alive_shards(), 1);
        assert!(!snap.shards[0].alive);
        assert_eq!((snap.shards[1].submitted, snap.shards[1].served), (40, 40));
        assert!((snap.shards[1].availability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn the_respawn_backoff_doubles_on_probation_and_starts_over_after_a_long_life() {
        let ms = Duration::from_millis;
        let t0 = stepped();
        // The first kill waits the floor; each later one comes 10 ms into
        // the seat's new life, inside probation, and doubles up to the cap.
        let mut wait = backoff(RESPAWN_COOLDOWN, None, t0);
        let mut respawned = t0 + wait;
        let mut waits = vec![wait];
        for _ in 0..9 {
            let killed = respawned + ms(10);
            wait = backoff(wait, Some(respawned), killed);
            respawned = killed + wait;
            waits.push(wait);
        }
        let want = [1, 2, 4, 8, 16, 32, 64, 128, 250, 250].map(ms);
        assert_eq!(waits, want);
        // A seat that outlived probation starts over.
        assert_eq!(backoff(wait, Some(respawned), respawned + ms(60)), ms(1));
        assert_eq!(backoff(wait, Some(respawned), respawned + ms(50)), ms(1));
        assert_eq!(backoff(wait, Some(respawned), respawned + ms(49)), ms(250));
    }

    #[test]
    fn a_killed_shard_is_respawned_and_serves_again() {
        let server = undriven(|c| c.shards = 2);
        let mut s0 = shard(&server, 0);
        kill(&mut s0);
        assert!(!server.snapshot().shards[0].alive);
        // The seat's thread waits out the backoff (here the clock steps over
        // it), reopens the seat's queue, and the shard comes back.
        let cooldown = s0.cooldown;
        assert_eq!(cooldown, Duration::from_millis(1));
        step(cooldown);
        assert!(server.plane.reopen_after(0, Duration::ZERO));
        s0.respawned();
        // Full capacity is restored: the router round-robins across both
        // seats again and everything is served.
        let (tx, rx) = mpsc::channel();
        for i in 0..40u64 {
            server.submit_with(bs(i), &tx);
        }
        drop(tx);
        run_dry(&mut s0);
        run_dry(&mut shard(&server, 1));
        let got: Vec<PriceResponse> = rx.try_iter().collect();
        assert_eq!(got.len(), 40);
        assert!(got.iter().all(PriceResponse::is_ok));
        let snap = server.shutdown();
        assert_eq!(snap.alive_shards(), 2);
        assert_eq!((snap.total_respawns(), snap.shards[0].respawns), (1, 1));
        assert_eq!(snap.shards[0].submitted, 20, "{snap:?}");
        // MTTR runs from the kill to the respawn: the backoff.
        assert_eq!(snap.mean_mttr(), Some(cooldown));
        assert_eq!(snap.shards[0].mttr, cooldown);
    }

    #[test]
    fn stranded_work_is_redriven_to_a_live_sibling_with_its_channel_intact() {
        let server = undriven(|c| (c.shards, c.respawn) = (2, false));
        let rx = queued(&server, 0, 0..4);
        // Shard 0 batches two (its queue is not dry, so nothing flushes)
        // and dies: it strands its lanes' two, then the two still queued.
        let mut s0 = shard(&server, 0);
        admit_one(&mut s0);
        admit_one(&mut s0);
        kill(&mut s0);
        run_dry(&mut shard(&server, 1));
        // The original response channels survive the redrive: every
        // request is priced by shard 1 and answered exactly once, in the
        // order it was admitted.
        let got: Vec<PriceResponse> = rx.try_iter().collect();
        assert!(got.iter().all(PriceResponse::is_ok), "{got:?}");
        assert_eq!(ids(&got), [0, 1, 2, 3]);
        let snap = server.shutdown();
        assert_eq!(snap.alive_shards(), 1);
        // Redrives are attributed to the seat that lost them.
        assert_eq!(snap.total_redriven(), 4, "{snap:?}");
        assert_eq!((snap.shards[0].redriven, snap.shards[1].redriven), (4, 0));
        assert_eq!((snap.internal, snap.shed_deadline_redrive), (0, 0));
    }

    #[test]
    fn stranded_work_with_no_live_sibling_is_rejected_not_dropped() {
        let server = undriven(|c| c.respawn = false);
        let rx = queued(&server, 0, 0..4);
        kill(&mut shard(&server, 0));
        let got: Vec<PriceResponse> = rx.try_iter().collect();
        assert_eq!(got.len(), 4, "no silent drops even with nowhere to redrive");
        for r in &got {
            assert!(internal(&r.outcome).contains("no live sibling"), "{r:?}");
        }
        // The router also answers (never hangs) once the fleet is empty.
        let out = server.submit(bs(99)).try_recv().unwrap().outcome;
        assert!(internal(&out).contains("no alive shards"));
        let snap = server.shutdown();
        assert_eq!(snap.alive_shards(), 0);
        // The 4 stranded rejections are worker-side and tallied; the
        // router's answer is synchronous on the caller's thread.
        assert_eq!((snap.internal, snap.total_redriven()), (4, 0));
    }

    #[test]
    fn a_redriven_request_stranded_again_is_answered_once_with_internal() {
        let server = undriven(|c| (c.shards, c.respawn) = (2, false));
        let rx = queued(&server, 0, 0..4);
        kill(&mut shard(&server, 0));
        // Shard 1 batches two of the redriven requests, then dies too: a
        // second loss answers instead of redriving again.
        let mut s1 = shard(&server, 1);
        admit_one(&mut s1);
        admit_one(&mut s1);
        kill(&mut s1);
        let got: Vec<PriceResponse> = rx.try_iter().collect();
        assert_eq!(ids(&got), [0, 1, 2, 3], "exactly one answer each");
        for r in &got {
            let reason = internal(&r.outcome);
            assert_eq!(reason, "shard killed; redrive budget exhausted");
        }
        let snap = server.shutdown();
        assert_eq!((snap.internal, snap.planes[0].internal), (4, 4));
        assert_eq!((snap.shards[0].redriven, snap.shards[1].redriven), (4, 0));
    }

    #[test]
    fn both_kill_orders_answer_every_admitted_request_exactly_once() {
        for (first, second) in [(0, 1), (1, 0)] {
            let server = undriven(|c| (c.shards, c.respawn) = (2, false));
            let (tx, rx) = mpsc::channel();
            // Round-robin: four requests queued on each seat, one of them
            // batched.
            for id in 0..8u64 {
                server.submit_with(bs(id), &tx);
            }
            drop(tx);
            let mut shards = [shard(&server, 0), shard(&server, 1)];
            shards.iter_mut().for_each(admit_one);
            kill(&mut shards[first]);
            kill(&mut shards[second]);
            // The first seat's four were redriven and stranded again; the
            // second's own four had nowhere left to go.
            let got: Vec<PriceResponse> = rx.try_iter().collect();
            let mut answered = ids(&got);
            answered.sort_unstable();
            assert_eq!(answered, [0, 1, 2, 3, 4, 5, 6, 7], "{first}, {second}");
            let twice = got
                .iter()
                .filter(|r| internal(&r.outcome).contains("exhausted"));
            assert_eq!(twice.count(), 4, "order {first}, {second}");
            let snap = server.shutdown();
            assert_eq!(snap.internal, 8);
            let redriven = (snap.shards[first].redriven, snap.shards[second].redriven);
            assert_eq!(redriven, (4, 0));
        }
    }

    /// `ShuttingDown` on one plane: a server that has begun to stop answers
    /// it once, typed, and counts nothing — it is neither a shed nor a
    /// failure of the plane. (The counted rejections are driven through
    /// the public API, per plane, in `tests/rejection_taxonomy.rs`; this
    /// one needs the server's private fields.)
    fn shutting_down<R: ServeRequest<Out: Debug>>(valid: R) {
        let server = Server::start(quick_config());
        server.plane.close();
        let (tx, rx) = mpsc::channel();
        server.submit_with(valid, &tx);
        drop(tx);
        let got: Vec<Response<R::Out>> = rx.iter().collect();
        assert_eq!(got.len(), 1, "exactly one terminal response");
        assert!(matches!(got[0].outcome, Err(Rejected::ShuttingDown)));
        let snap = server.shutdown();
        assert_eq!((snap.total_shed(), snap.internal, snap.rejected), (0, 0, 0));
    }

    #[test]
    fn every_plane_answers_shutting_down_once_and_counts_nothing() {
        shutting_down(bs(1));
        shutting_down(GreeksRequest::new(2, 30.0, 35.0, 1.0));
        shutting_down(PortfolioRequest::new(3, 7, 8, 16).with_chunk(16));
    }
}
