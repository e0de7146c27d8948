//! The sharded pricing service: a front-end **router** that validates
//! and distributes admission across `N` **worker shards**, each a thread
//! owning its own bounded admission queue, per-kernel micro-batcher
//! lanes, circuit breakers, and degradation ladders.
//!
//! ```text
//! submit() ──► validate ── invalid ⇒ Rejected::InvalidInput (synchronous)
//!                   │
//!                   ▼ route (round-robin over alive shards,
//!                   │        spill to least-loaded before QueueFull)
//!     ┌─────────────┼──────────────┐
//!     ▼             ▼              ▼
//!  shard 0       shard 1   …    shard N-1      (each: AdmissionQueue +
//!     │ pop         │ pop          │ pop        worker thread)
//!     ▼             ▼              ▼
//!  per-kernel MicroBatcher lanes, one set per shard; a lane flushes
//!     │                    when full, when its oldest request has waited
//!     │                    `max_delay`, or when the queue has run dry
//!     │ padded SOA batch   idle shards steal queued work from the
//!     ▼                    busiest sibling (bit-invisible: any shard
//!  catch_unwind(rung.price)        prices the same rung identically)
//!     │ scatter-back │ panic ⇒ Rejected::Internal, breaker feeds back
//!     └────► one answer per envelope (its reply) ◄─────┘
//! ```
//!
//! ## The shard boundary is a message-passing seam
//!
//! The router talks to a shard **only** through its [`AdmissionQueue`]
//! (owned work messages in) and the reply carried inside each envelope
//! (results out: a request's `mpsc` response channel, or a portfolio
//! request's [`PortfolioFanIn`]); shared-memory state is limited to
//! monotonic telemetry tallies. Shards could therefore move behind a
//! socket/IPC transport by serializing `Work` at this seam without
//! touching lane logic.
//!
//! A portfolio fan-out needs no thread of its own: its last chunk answer
//! to land — on a worker, or on the router for a chunk it could not
//! place — merges the parts and answers the request. The only threads a
//! [`Server`] runs are its shard workers, and [`Server::shutdown`] joins
//! them, so when it returns every admitted request has been answered.
//!
//! ## The worker loop is work-conserving
//!
//! A worker pops a request, admits it into its lane — a lane that
//! reaches its size target executes on the spot — and then, if the
//! queue is empty, executes every non-empty lane at once: no request
//! waits on a timer while the worker has nothing else to do. Only a
//! backlogged worker (its queue never empty when it looks) keeps
//! accumulating, and there the size and delay triggers bound the batch
//! and the wait. With its lanes empty a lone shard parks until a push or
//! close notifies it; sharded workers wake every `max_delay` to look for
//! work to steal. Every flush is tallied by reason (size / delay / idle
//! / drain) in [`KernelSnapshot::flushes`].
//!
//! ## Cross-shard backpressure and work stealing
//!
//! Admission round-robins over *alive* shards; when the chosen shard's
//! queue is full the router spills to the least-loaded alive shard and
//! only answers [`Rejected::QueueFull`] once every alive shard is full.
//! On the worker side an idle shard (its own queue empty at a steal
//! poll) steals queued work from the back of the deepest sibling
//! queue into its own same-kernel lanes. Both mechanisms are
//! bit-invisible: batching is padded and lane-wise, so a request prices
//! identically on whichever shard executes it (property-tested in
//! `tests/batching_equivalence.rs`).
//!
//! ## Shard loss, redrive, and supervision
//!
//! A shard killed by the `serve.shard.<i>=kill` fault marks itself dead,
//! closes its queue, and exits; the router stops routing to it. Work
//! stranded in its lanes and queue is **redriven** once to a live
//! sibling — the reply rides inside the envelope, and padded
//! lane-wise batching makes the move bit-invisible, exactly like a
//! steal. Each envelope carries a `redriven` flag, so a request caught
//! in a *second* shard loss is answered [`Rejected::Internal`] instead
//! of re-routed again: at most one redelivery per request, never a
//! ping-pong and never a duplicate response. Requests whose deadline
//! passed while stranded are shed (`shed_deadline` for first attempts,
//! `shed_deadline_redrive` for already-redriven work), so a retry never
//! serves a request its client has given up on.
//!
//! When [`ServeConfig::respawn`] is on (the default), the killed worker
//! **heals its own seat**: no other thread watches it. It waits out a
//! backoff, reopens its queue, marks the seat alive again and keeps
//! serving with fresh lanes — full capacity comes back instead of
//! shrinking for the rest of the process. The backoff is capped
//! exponential: 1 ms, doubled (up to 250 ms) for a seat that dies within
//! 50 ms of its last respawn, back to 1 ms for one that lived longer. The
//! wait parks on the plane's closing signal, and shutdown closes the
//! queues under the same lock the worker reopens its queue under, so a
//! respawn never reopens a queue shutdown closed and shutdown never waits
//! out a cooldown. Each recovery is counted (`serve.shard.<i>.respawns`)
//! with its MTTR (kill → respawned-and-serving) recorded in the shard
//! snapshot. Availability degrades during the outage window, correctness
//! never does.
//!
//! ## Fault tolerance
//!
//! Every lane's batch execution runs under `catch_unwind`: a kernel
//! panic answers the in-flight batch with [`Rejected::Internal`] and
//! feeds the lane's [`Breaker`] instead of killing the dispatcher. A
//! failing lane first **degrades down its servable rung ladder** (the
//! paper's own equivalence ladder: a cheaper rung still prices
//! bit-identically to itself, so fidelity of the contract survives —
//! only throughput is sacrificed). Only when the bottom (scalar
//! reference) rung keeps failing does the breaker open; reopening uses
//! capped exponential backoff, and recovery probes half-open before
//! closing. Sustained success promotes the lane back up one level at a
//! time. Fault-injection hooks ([`finbench_faults`]) are compiled into
//! the admit, queue, and batch paths and fire the [`Faults`] handle the
//! server was started with ([`Server::start_with_faults`]; [`Server::start`]
//! carries none) — invisible to every other server in the process.
//!
//! ## Telemetry: one ledger per server
//!
//! Every counted event is one [`Counter`] handle, made with its owner and
//! bumped at one call site — no name is formatted or looked up on the
//! request path. The `Plane`'s [`Ledger`] holds the per-plane `serve.*` /
//! `greeks.*` / `portfolio.*` tallies and the server-level events; each
//! `ShardSeat` its own steals, redrives, respawns, `serve.shard.<i>.*`
//! gauges and — under a mutex only that seat's worker and `snapshot()`
//! take — its record of every lane it has run; each lane its
//! `serve.breaker.<kernel>` + `serve.degradation.<kernel>` gauges and
//! `serve.batch.<kernel>` spans (allocation-free once the span ring is
//! full — see [`finbench_telemetry::span`]). [`ServeSnapshot`] is a view
//! over the handles' own cells, so two servers in one process read
//! disjoint ledgers; the process-wide cells of the same names sum over
//! them (see [`finbench_telemetry::metrics`]).

use crate::batcher::{target_batch, BatchPolicy, FlushCounts, FlushReason, MicroBatcher};
use crate::breaker::{Breaker, BreakerPolicy, BreakerState, FailureAction, Gate};
use crate::ledger::{Ledger, PlaneSnapshot, Tallies};
use crate::portfolio::{PortfolioChunkRequest, PortfolioFanIn};
use crate::pricer::PricerConfig;
use crate::queue::AdmissionQueue;
use crate::request::{
    GreeksRequest, GreeksResponse, PortfolioRequest, PortfolioResponse, Rejected, Response,
    ServeRequest,
};
use crate::workload::{Envelope, GreeksWorkload, PortfolioWorkload, PriceWorkload, ServeWorkload};
use finbench_core::engine::registry;
use finbench_engine::Engine;
use finbench_faults::{FaultKind, Faults};
use finbench_telemetry::{self as telemetry, Counter, Gauge, Histogram};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
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
    /// Pricer configuration (market params, binomial steps, pool chunk).
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

/// A killed seat's first wait before its worker respawns.
const RESPAWN_COOLDOWN: Duration = Duration::from_millis(1);

/// The cap on the doubling wait: a seat killed as fast as it comes back
/// respawns once per this long, never in a hot loop.
const RESPAWN_MAX_COOLDOWN: Duration = Duration::from_millis(250);

/// A seat that lives this long after a respawn has healed: its next
/// death waits [`RESPAWN_COOLDOWN`] again instead of twice its last wait.
const RESPAWN_HEAL_AFTER: Duration = Duration::from_millis(50);

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

impl Work {
    /// The request's absolute deadline — the end-to-end budget every
    /// hop (admission wait, spill, steal, redrive, batch execution)
    /// draws from, because it never moves once the client set it.
    fn deadline(&self) -> Option<Instant> {
        on_envelope!(self, env => env.deadline())
    }

    /// The tallies of the plane this item belongs to.
    fn tallies<'a>(&self, ledger: &'a Ledger) -> &'a Tallies<Counter> {
        fn of<'a, W: ServeWorkload>(_: &Envelope<W>, l: &'a Ledger) -> &'a Tallies<Counter> {
            l.of::<W>()
        }
        on_envelope!(self, env => of(env, ledger))
    }

    /// True once this item has burned its single shard-loss redrive.
    fn redriven(&self) -> bool {
        on_envelope!(self, env => env.redriven)
    }

    fn mark_redriven(&mut self) {
        on_envelope!(self, env => env.redriven = true)
    }

    /// Answer this item `Rejected::Internal` and tally it. The terminal
    /// path for stranded work that cannot be redriven.
    fn reject_internal(self, reason: &'static str, ledger: &Ledger) {
        on_envelope!(self, env => reject_internal(&[env], &Cow::Borrowed(reason), ledger))
    }

    /// Shed this item `Rejected::DeadlineExceeded`, tallying into the
    /// first-attempt or post-redrive bucket by its `redriven` flag.
    fn shed_deadline(self, late_by: Duration, ledger: &Ledger) {
        on_envelope!(self, env => shed_deadline(&env, late_by, ledger))
    }
}

/// One lane's serving state inside the dispatcher, generic over the
/// request plane it runs ([`ServeWorkload`]): its degradation ladder
/// (index 0 = planned serving rung, last = scalar reference), the level
/// it currently serves at, its supervising breaker, and its reusable
/// batch buffers. The flush target and the plane's
/// [`Scratch`](ServeWorkload::Scratch) are recycled across batches —
/// grown to the largest flush seen, never shrunk — so steady-state batch
/// execution allocates nothing.
struct Lane<W: ServeWorkload> {
    /// Lane key: the kernel name (telemetry `<key>`).
    key: String,
    /// Index of this lane's [`LaneRecord`] among its seat's.
    record: usize,
    ladder: Vec<W::Rung>,
    level: usize,
    breaker: Breaker,
    batcher: MicroBatcher<Envelope<W>>,
    target: usize,
    /// The flushed batch being executed, reused across flushes.
    flush: Vec<Envelope<W>>,
    /// Reusable staging + output buffers for batch execution.
    scratch: W::Scratch,
    /// Telemetry names and gauge handles, made once at lane construction
    /// so the hot path never builds or looks up a metric name.
    span_name: String,
    fault_site: String,
    breaker_gauge: Gauge,
    degradation_gauge: Gauge,
    /// The ladder's slugs, index-aligned, shared with each batch span's
    /// `rung` attribute by reference count instead of by copy.
    rung_attrs: Vec<Arc<str>>,
    /// Breaker state and level as last pushed to the seat's record and
    /// the gauges (`None` until the first batch): health is republished
    /// only when it changes.
    published: Option<(BreakerState, usize)>,
}

impl<W: ServeWorkload> Lane<W> {
    fn at_bottom(&self) -> bool {
        self.level + 1 >= self.ladder.len()
    }
}

/// One seat's record of one lane: what cannot be a bare atomic. It lives
/// on the [`ShardSeat`], so only that seat's worker and
/// [`Server::snapshot`] ever take its lock, and a respawned worker
/// continues the record its predecessor left.
#[derive(Clone, Default)]
struct LaneRecord {
    /// The snapshot's counts and health as they stand; `breaker` and the
    /// percentiles are filled in by [`finish`](Self::finish).
    counts: KernelSnapshot,
    breaker: BreakerState,
    latency_us: Histogram,
    occupancy: Histogram,
}

impl LaneRecord {
    /// Fold another seat's record of the same lane into this one: counts
    /// and histograms add up, health is the more degraded of the two.
    fn merge(&mut self, other: &LaneRecord) {
        let health = |r: &LaneRecord| (r.counts.degradation_level, r.breaker.as_gauge());
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

/// One seat's half of the ledger, shared between the router and the
/// seat's worker thread: monotonic tallies (handles where
/// the event has a process-wide name, bare atomics where it has none),
/// gauges, per-lane records, and the liveness flag — the only shared
/// state crossing the router/shard seam besides the queue itself.
struct ShardSeat {
    /// False once the shard has been killed (fault) or exited.
    dead: AtomicBool,
    /// Work items the router successfully pushed to this shard.
    submitted: AtomicU64,
    /// `serve.steals`: work items stolen from sibling queues while idle.
    stolen: Counter,
    /// `serve.respawns`, and the same event as `serve.shard.<i>.respawns`:
    /// times the seat's killed worker came back and served again.
    respawns: Counter,
    respawns_by_seat: Counter,
    /// `serve.redriven`: stranded work items redriven to siblings on kill.
    redriven: Counter,
    /// Cumulative kill → respawned-and-serving time, nanoseconds
    /// (divide by `respawns` for mean MTTR).
    mttr_nanos: AtomicU64,
    /// `serve.shard.<i>.alive` / `.queue_depth` / `.mttr_ms`.
    alive_gauge: Gauge,
    depth_gauge: Gauge,
    mttr_gauge: Gauge,
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
    fn lock_records(&self) -> MutexGuard<'_, Vec<LaneRecord>> {
        self.records.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Index of this seat's record of lane `key`, opened on first use. A
    /// respawned worker's lane finds its predecessor's record: the counts
    /// carry on, and the health left in it is overwritten by the new
    /// lane's first batch ([`publish_lane_health`]).
    fn open_record(&self, key: &str, rung: &str, target_batch: usize) -> usize {
        let mut records = self.lock_records();
        if let Some(i) = records.iter().position(|r| r.counts.kernel == key) {
            return i;
        }
        records.push(LaneRecord {
            counts: KernelSnapshot {
                kernel: key.to_string(),
                rung: rung.to_string(),
                target_batch,
                ..KernelSnapshot::default()
            },
            ..LaneRecord::default()
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
    /// One worker thread per seat, for the server's lifetime: a killed
    /// worker respawns on its own thread.
    workers: Vec<JoinHandle<()>>,
    /// Round-robin admission cursor.
    rr: AtomicUsize,
}

/// What one server's router and workers share, behind one `Arc` — and
/// nothing outside that server sees, the fault plan included.
struct Plane {
    /// Per-seat admission queues (the message seam), seat-index order.
    /// Each queue and seat keeps its own allocation: shards share no
    /// cache line through this struct.
    queues: Vec<Arc<AdmissionQueue<Work>>>,
    /// Per-seat shared tallies + liveness, seat-index order.
    seats: Vec<Arc<ShardSeat>>,
    /// The server-level half of the ledger (each seat holds its own);
    /// portfolio fan-ins share it to count how their request ended.
    ledger: Arc<Ledger>,
    /// True once shutdown started (distinguishes `ShuttingDown` from a
    /// dead-shard rejection). Shutdown closes the queues under this lock
    /// and a respawning worker reopens its queue under it, so no queue
    /// is reopened after shutdown closed it.
    closing: Mutex<bool>,
    /// Signalled when `closing` is set: wakes workers waiting out a
    /// respawn backoff.
    closed: Condvar,
    config: ServeConfig,
    /// The plan this server was started with ([`Server::start`]: none).
    faults: Faults,
}

impl Plane {
    fn lock_closing(&self) -> MutexGuard<'_, bool> {
        self.closing.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn is_closing(&self) -> bool {
        *self.lock_closing()
    }

    /// Start shutdown: set `closing`, close every queue, wake every
    /// worker waiting out a respawn backoff. Idempotent.
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
        let n = config.shards.max(1);
        let plane = Arc::new(Plane {
            queues: (0..n)
                .map(|_| Arc::new(AdmissionQueue::new(config.queue_capacity)))
                .collect(),
            seats: (0..n).map(|i| Arc::new(ShardSeat::new(i))).collect(),
            ledger: Arc::new(Ledger::new()),
            closing: Mutex::new(false),
            closed: Condvar::new(),
            config,
            faults,
        });
        let workers = (0..n)
            .map(|index| {
                let ctx = ShardCtx {
                    index,
                    plane: Arc::clone(&plane),
                };
                std::thread::Builder::new()
                    .name(format!("finbench-serve-{index}"))
                    .spawn(move || shard_loop(ctx))
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
    /// loads; the seats' lane records are taken one seat at a time and
    /// merged by lane key.
    pub fn snapshot(&self) -> ServeSnapshot {
        let plane = &*self.plane;
        let mut lanes: Vec<LaneRecord> = Vec::new();
        let mut shards = Vec::with_capacity(plane.seats.len());
        for (i, seat) in plane.seats.iter().enumerate() {
            let records = seat.lock_records();
            shards.push(ShardSnapshot {
                index: i,
                alive: seat.alive(),
                submitted: seat.submitted.load(Ordering::Relaxed),
                served: records.iter().map(|r| r.counts.served).sum(),
                stolen: seat.stolen.get(),
                respawns: seat.respawns.get(),
                redriven: seat.redriven.get(),
                mttr: Duration::from_nanos(seat.mttr_nanos.load(Ordering::Relaxed)),
                queue_depth: plane.queues[i].len(),
            });
            for r in records.iter() {
                match lanes
                    .iter_mut()
                    .find(|m| m.counts.kernel == r.counts.kernel)
                {
                    Some(merged) => merged.merge(r),
                    None => lanes.push(r.clone()),
                }
            }
        }
        lanes.sort_by(|a, b| a.counts.kernel.cmp(&b.counts.kernel));
        let planes = plane.ledger.snapshot();
        let sum = |pick: fn(&PlaneSnapshot) -> u64| planes.iter().map(pick).sum();
        ServeSnapshot {
            kernels: lanes.into_iter().map(LaneRecord::finish).collect(),
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

    /// Stop the plane: close the queues, then join the workers (each
    /// drains its queue and lanes first). Idempotent (`shutdown` runs it,
    /// then `Drop` runs it again on the same instance).
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
    /// The tail every admitted work item goes through — a price or greeks
    /// request's one envelope, each chunk of a portfolio fan-out: route
    /// it, or tally the `QueueFull` shed and answer the typed rejection
    /// on the envelope's own reply.
    pub(crate) fn one(self, work: Work) {
        if let Err((work, reason)) = self.0.route(work) {
            if matches!(reason, Rejected::QueueFull { .. }) {
                work.tallies(&self.0.plane.ledger).shed_queue_full.add(1);
            }
            on_envelope!(work, env => env.answer(Err(reason)));
        }
    }

    /// Fan a portfolio request out: the scenario range is split into
    /// chunks routed across the live shards (each chunk spills, is
    /// stolen, and is redriven like any work item), all answering into
    /// one [`PortfolioFanIn`] that answers the request exactly once, on
    /// whichever thread lands its last chunk.
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

/// Everything one worker shard needs: its index and the plane (its own
/// queue and seat plus the siblings', for stealing and redrive). Moved
/// into the worker thread.
struct ShardCtx {
    index: usize,
    plane: Arc<Plane>,
}

/// Most work items an idle shard steals from one sibling in one pass —
/// enough to refill a micro-batch, small enough to keep the victim warm.
const STEAL_MAX: usize = 64;

/// Shortest steal poll of a sharded worker with nothing to do, whatever
/// `max_delay` says — a zero `max_delay` must not spin the poll.
const STEAL_POLL_FLOOR: Duration = Duration::from_micros(50);

/// What lane code needs from its worker: the engine lanes resolve their
/// ladders on, the plane (stats, config, faults), and the worker's seat.
struct LaneCtx<'a> {
    engine: &'a Engine,
    plane: &'a Plane,
    seat: &'a ShardSeat,
}

/// One worker's micro-batcher lanes, per request plane and lane key.
#[derive(Default)]
struct Lanes {
    price: BTreeMap<String, Lane<PriceWorkload>>,
    greeks: BTreeMap<String, Lane<GreeksWorkload>>,
    portfolio: BTreeMap<String, Lane<PortfolioWorkload>>,
}

impl Lanes {
    fn admit(&mut self, work: Work, cx: &LaneCtx) {
        match work {
            Work::Price(env) => admit(env, &mut self.price, cx),
            Work::Greeks(env) => admit(env, &mut self.greeks, cx),
            Work::Portfolio(env) => admit(env, &mut self.portfolio, cx),
        }
    }

    /// True when any lane holds an unflushed request.
    fn pending(&self) -> bool {
        fn any<W: ServeWorkload>(lanes: &BTreeMap<String, Lane<W>>) -> bool {
            lanes.values().any(|l| !l.batcher.is_empty())
        }
        any(&self.price) || any(&self.greeks) || any(&self.portfolio)
    }

    /// Execute every lane a trigger has fired for at `now`: the delay
    /// trigger, and, when the worker's queue is `idle`, every lane that
    /// holds anything (the size trigger fires at admission).
    fn flush(&mut self, cx: &LaneCtx, now: Instant, idle: bool) {
        fn each<W: ServeWorkload>(
            lanes: &mut BTreeMap<String, Lane<W>>,
            cx: &LaneCtx,
            now: Instant,
            idle: bool,
        ) {
            for lane in lanes.values_mut() {
                if let Some(reason) = lane.batcher.trigger(now, idle) {
                    execute(lane, reason, cx);
                }
            }
        }
        each(&mut self.price, cx, now, idle);
        each(&mut self.greeks, cx, now, idle);
        each(&mut self.portfolio, cx, now, idle);
    }

    /// Shutdown: execute whatever the lanes still hold.
    fn drain(&mut self, cx: &LaneCtx) {
        fn each<W: ServeWorkload>(lanes: &mut BTreeMap<String, Lane<W>>, cx: &LaneCtx) {
            for lane in lanes.values_mut() {
                if !lane.batcher.is_empty() {
                    execute(lane, FlushReason::Drain, cx);
                }
            }
        }
        each(&mut self.price, cx);
        each(&mut self.greeks, cx);
        each(&mut self.portfolio, cx);
    }

    /// Kill: hand back everything the lanes hold, unexecuted.
    fn strand(mut self) -> Vec<Work> {
        fn each<W: ServeWorkload>(
            lanes: &mut BTreeMap<String, Lane<W>>,
            wrap: fn(Envelope<W>) -> Work,
            out: &mut Vec<Work>,
        ) {
            for lane in lanes.values_mut() {
                let Lane { batcher, flush, .. } = lane;
                batcher.flush_into(flush);
                out.extend(flush.drain(..).map(wrap));
            }
        }
        let mut out = Vec::new();
        each(&mut self.price, Work::Price, &mut out);
        each(&mut self.greeks, Work::Greeks, &mut out);
        each(&mut self.portfolio, Work::Portfolio, &mut out);
        out
    }
}

/// A seat's worker thread: one incarnation per pass, until shutdown
/// drains it. A killed incarnation's work is redriven ([`kill_shard`]);
/// with respawn on, the worker then waits out its backoff, reopens its
/// queue and serves again with fresh lanes and the same engine, and the
/// seat's ledger and lane records carry on.
fn shard_loop(ctx: ShardCtx) {
    let engine = Engine::new(registry());
    let plane = &*ctx.plane;
    let seat = &*plane.seats[ctx.index];
    let cx = LaneCtx {
        engine: &engine,
        plane,
        seat,
    };
    let mut cooldown = RESPAWN_COOLDOWN;
    let mut respawned_at: Option<Instant> = None;
    while let Some(killed_at) = incarnation(&ctx, &cx) {
        if !plane.config.respawn {
            return;
        }
        // A seat that dies on probation waits twice its last wait
        // (capped); one that outlived probation starts over.
        cooldown = match respawned_at {
            Some(at) if killed_at.duration_since(at) < RESPAWN_HEAL_AFTER => {
                (cooldown * 2).min(RESPAWN_MAX_COOLDOWN)
            }
            _ => RESPAWN_COOLDOWN,
        };
        if !plane.reopen_after(ctx.index, cooldown) {
            return;
        }
        let mttr = killed_at.elapsed().as_nanos() as u64;
        seat.mttr_nanos.fetch_add(mttr, Ordering::Relaxed);
        seat.mttr_gauge.set(mttr as f64 / 1e6);
        seat.respawns.add(1);
        seat.respawns_by_seat.add(1);
        seat.alive_gauge.set(1.0);
        // Last: flipping liveness publishes the seat to the router.
        seat.dead.store(false, Ordering::Release);
        respawned_at = Some(Instant::now());
    }
}

/// Serve one incarnation of a seat's worker: until its queue is closed
/// and drained (`None`), or until the kill fault fires (`Some(kill
/// instant)`, once [`kill_shard`] has redriven what it held).
fn incarnation(ctx: &ShardCtx, cx: &LaneCtx) -> Option<Instant> {
    let plane = cx.plane;
    let (queues, config, faults) = (&plane.queues, &plane.config, &plane.faults);
    let (queue, seat) = (&*queues[ctx.index], cx.seat);
    let mut lanes = Lanes::default();
    let sharded = queues.len() > 1;
    let kill_site = format!("serve.shard.{}", ctx.index);
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
            // Shard-kill fault: this incarnation dies. Stranded work is
            // redriven once to live siblings (or answered with typed
            // rejections when it can't be). Availability degrades;
            // correctness and the rest of the fleet do not.
            if faults
                .fire(&kill_site)
                .iter()
                .any(|k| matches!(k, FaultKind::Kill))
            {
                return Some(kill_shard(ctx, lanes));
            }
        }
        // The idle trigger empties the lanes whenever the queue is empty,
        // so the worker normally waits with nothing batched: a lone shard
        // parks until a push or close wakes it, a sharded one polls for
        // work to steal. Lanes hold work here only while the queue keeps
        // refilling — take the next request without waiting.
        let popped = if lanes.pending() {
            queue.pop_timeout(Duration::ZERO)
        } else if sharded {
            queue.pop_timeout(config.max_delay.max(STEAL_POLL_FLOOR))
        } else {
            queue.pop_wait()
        };
        match popped {
            Some(work) => {
                seat.depth_gauge.set(queue.len() as f64);
                let total: usize = queues.iter().map(|q| q.len()).sum();
                plane.ledger.queue_depth.set(total as f64);
                lanes.admit(work, cx);
            }
            None if queue.is_closed() && queue.is_empty() => break,
            None => {
                // Nothing of our own: steal queued work from the deepest
                // sibling queue (newest items, so the victim keeps its
                // oldest, deadline-critical work).
                if sharded && !lanes.pending() && queue.is_empty() {
                    for work in steal_from_siblings(ctx, seat) {
                        lanes.admit(work, cx);
                    }
                }
            }
        }
        // A closed queue ends the loop once it is drained; what the lanes
        // hold by then is the shutdown drain's, not an idle flush.
        let idle = queue.is_empty() && !queue.is_closed();
        lanes.flush(cx, Instant::now(), idle);
    }
    lanes.drain(cx);
    None
}

/// Steal up to [`STEAL_MAX`] work items from the deepest sibling queue.
/// Stolen items land in this shard's own same-kernel lanes; padding and
/// lane-wise rungs make the move bit-invisible to every response.
fn steal_from_siblings(ctx: &ShardCtx, seat: &ShardSeat) -> Vec<Work> {
    let queues = &ctx.plane.queues;
    let victim = (0..queues.len())
        .filter(|&i| i != ctx.index)
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
    seat.stolen.add(stolen.len() as u64);
    stolen
}

/// Tear one shard down under the kill fault: mark it dead (the router
/// stops routing here), close its queue, and redrive everything pending
/// — batched in lanes or still queued — to live siblings (see
/// [`redrive_stranded`]). Returns the kill instant, where the seat's
/// MTTR starts.
fn kill_shard(ctx: &ShardCtx, lanes: Lanes) -> Instant {
    let killed_at = Instant::now();
    let index = ctx.index;
    let queue = &ctx.plane.queues[index];
    let seat = &ctx.plane.seats[index];
    seat.dead.store(true, Ordering::Release);
    queue.close();
    ctx.plane.ledger.shard_kills.add(1);
    seat.alive_gauge.set(0.0);
    // Collect strandees oldest-first: lane batchers hold work admitted
    // before anything still in the queue.
    let mut stranded = lanes.strand();
    stranded.extend(queue.steal_up_to(usize::MAX));
    redrive_stranded(ctx, stranded);
    killed_at
}

/// Redrive the stranded work of a killed shard to live siblings —
/// response channels ride inside the envelopes, and padded lane-wise
/// batching makes execution on the sibling bit-identical, so the move
/// is invisible to clients.
///
/// At-most-once: every redriven envelope is flagged, and a flagged item
/// stranded by a *second* kill is answered `Rejected::Internal` here
/// instead of re-routed — no request is ever delivered to a worker more
/// than twice, and since delivery consumes the envelope, each gets
/// exactly one terminal response. Items whose end-to-end deadline has
/// already passed are shed rather than retried (the budget spans
/// admission wait, spill, steal, redrive, and execution because the
/// deadline is one absolute instant). Like stolen work, redriven items
/// do not bump the sibling's `submitted` tally — they were already
/// counted against this seat.
fn redrive_stranded(ctx: &ShardCtx, stranded: Vec<Work>) {
    if stranded.is_empty() {
        return;
    }
    let index = ctx.index;
    let plane = &*ctx.plane;
    let (queues, seats, ledger) = (&plane.queues, &plane.seats, &plane.ledger);
    let seat = &seats[index];
    // Live siblings in ascending queue-depth order, recomputed once per
    // kill (not per item: the kill path should finish fast so the seat
    // can respawn).
    let mut order: Vec<usize> = (0..queues.len())
        .filter(|&i| i != index && seats[i].alive())
        .collect();
    order.sort_by_key(|&i| queues[i].len());
    let now = Instant::now();
    for mut work in stranded {
        if let Some(d) = work.deadline() {
            if now > d {
                work.shed_deadline(now.duration_since(d), ledger);
                continue;
            }
        }
        if work.redriven() {
            work.reject_internal("shard killed; redrive budget exhausted", ledger);
            continue;
        }
        work.mark_redriven();
        let mut item = Some(work);
        for &i in &order {
            match queues[i].try_push(item.take().expect("item present until placed")) {
                Ok(()) => {
                    seat.redriven.add(1);
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

/// Route one admitted envelope into its lane, resolving the lane on
/// first use; bad kernels answer immediately with a typed rejection.
fn admit<W: ServeWorkload>(env: Envelope<W>, lanes: &mut BTreeMap<String, Lane<W>>, cx: &LaneCtx) {
    if !lanes.contains_key(W::lane_key(&env.req)) {
        let key = W::lane_key(&env.req).to_string();
        match make_lane::<W>(&key, cx) {
            Ok(lane) => {
                lanes.insert(key, lane);
            }
            Err(reason) => {
                cx.plane.ledger.of::<W>().rejected.add(1);
                env.answer(Err(reason));
                return;
            }
        }
    }
    let lane = lanes
        .get_mut(W::lane_key(&env.req))
        .expect("lane just ensured");
    lane.batcher.push(env, Instant::now());
    if lane.batcher.full() {
        execute(lane, FlushReason::Size, cx);
    }
}

fn make_lane<W: ServeWorkload>(key: &str, cx: &LaneCtx) -> Result<Lane<W>, Rejected> {
    let (engine, config) = (cx.engine, &cx.plane.config);
    let ladder = W::ladder(engine, key, &config.pricer)?;
    // Size the batch to what the planned rung can chew through in one
    // delay window; the planner's predicted rate is per-item. A batch can
    // never hold more than the queue can admit, so the cap is the tighter
    // of `max_batch` and the queue capacity.
    let predicted = engine
        .plan(key)
        .map(|p| p.predicted_rate)
        .unwrap_or(f64::NAN);
    let target = target_batch(
        predicted,
        config.max_delay,
        W::width(&ladder[0]),
        config.max_batch.min(config.queue_capacity),
    );
    Ok(Lane {
        record: cx.seat.open_record(key, W::slug(&ladder[0]), target),
        batcher: MicroBatcher::new(BatchPolicy {
            max_batch: target,
            max_delay: config.max_delay,
        }),
        rung_attrs: ladder.iter().map(|r| Arc::from(W::slug(r))).collect(),
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

/// Shed `env` with `Rejected::DeadlineExceeded`. The deadline is
/// absolute, so the one check behind this call enforces the end-to-end
/// budget across admission wait, spill, steal, and redrive. Sheds of
/// redriven work land in their own bucket: they tell the operator the
/// retry arrived but the client's budget had already run out.
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

/// Flush the lane's micro-batch and execute it: shed blown deadlines,
/// gate on the breaker, stage the batch into the lane's reusable
/// [`Scratch`](ServeWorkload::Scratch), run the workload's kernel under
/// `catch_unwind`, and scatter results back. Panics reject the in-flight
/// batch and degrade/open the breaker; successes climb back. Written
/// once, generically — every request plane runs through here. `reason`
/// is the trigger that fired, tallied with the batch.
///
/// The flush target and the scratch are lane-owned and recycled, the
/// batch span reuses the buffers of the record it evicts, and the seat's
/// record is found by borrowed key, so a lane at steady state executes
/// whole batches without allocating (each response's rung `String` and
/// reply are the caller's, not the lane's).
fn execute<W: ServeWorkload>(lane: &mut Lane<W>, reason: FlushReason, cx: &LaneCtx) {
    let (ledger, seat, faults) = (&cx.plane.ledger, cx.seat, &cx.plane.faults);
    let tallies = ledger.of::<W>();
    {
        let Lane { batcher, flush, .. } = lane;
        batcher.flush_into(flush);
    }
    let now = Instant::now();
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
            tallies.lane_restarts.add(1);
            seat.lock_records()[lane.record].counts.restarts += 1;
        }
        Ok(Gate::Proceed | Gate::Probe) => {}
    }

    let level = lane.level;
    let width = W::width(&lane.ladder[level]);

    let span = telemetry::span(lane.span_name.as_str());
    telemetry::set_attr("rung", Arc::clone(&lane.rung_attrs[level]));
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
    let done = Instant::now();

    match outcome {
        Ok(()) => {
            if lane.breaker.on_success() && lane.level > 0 {
                // Sustained health: promote one level back toward the
                // planned rung.
                lane.level -= 1;
                tallies.promotions.add(1);
            }
            let slug = W::slug(&lane.ladder[level]);
            let batch_len = lane.flush.len();
            // The seat's own lock, held across the scatter: only a
            // snapshot ever waits for it, and then sees whole batches.
            let mut records = seat.lock_records();
            let ks = &mut records[lane.record];
            ks.counts.batches += 1;
            ks.counts.served += batch_len as u64;
            ks.counts.flushes.record(reason);
            if level > 0 {
                tallies.degraded_batches.add(1);
                ks.counts.degraded_batches += 1;
            }
            ks.occupancy.record(batch_len as f64);
            // Tally, and close the batch's span, before scattering: a
            // client that holds its response must see both in the next
            // snapshot (loadgen deltas rely on this ordering).
            tallies.served.add(batch_len as u64);
            drop(span);
            for (i, env) in lane.flush.iter().enumerate() {
                let latency = done.duration_since(env.submitted);
                ks.latency_us.record(latency.as_secs_f64() * 1e6);
                env.answer(Ok(W::payload(&lane.scratch, i, slug, batch_len, latency)));
            }
            drop(records);
            lane.flush.clear();
        }
        Err(payload) => {
            let reason = panic_reason(payload.as_ref());
            telemetry::set_attr("panic", reason.as_str());
            let at_bottom = lane.at_bottom();
            match lane.breaker.on_failure(Instant::now(), at_bottom) {
                FailureAction::Degrade => {
                    lane.level += 1;
                    tallies.degradations.add(1);
                }
                FailureAction::Opened => {
                    tallies.breaker_open.add(1);
                    seat.lock_records()[lane.record].counts.breaker_open += 1;
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
    let ks = &mut seat.lock_records()[lane.record];
    ks.breaker = state;
    ks.counts.degradation_level = lane.level;
    ks.counts.rung = lane.rung_attrs[lane.level].to_string();
    lane.breaker_gauge.set(state.as_gauge());
    lane.degradation_gauge.set(lane.level as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pricer;
    use crate::request::{PriceRequest, PriceResponse};
    use finbench_faults::{self as faults, FaultPlan, FaultSpec};

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

    fn start_with(config: ServeConfig, plan: FaultPlan) -> Server {
        Server::start_with_faults(config, Faults::new(plan))
    }

    /// `shards` workers whose `queue=stall` lasts 200 ms — the window the
    /// kill tests push work in — and that stay dead once killed.
    fn stalled_no_respawn(shards: usize) -> ServeConfig {
        ServeConfig {
            shards,
            max_delay: Duration::from_millis(200),
            respawn: false,
            ..quick_config()
        }
    }

    /// Every worker stalls, then those at `site` die.
    fn stall_then_kill(site: &str) -> FaultPlan {
        FaultPlan::new()
            .with(FaultSpec::always("queue", FaultKind::StallQueue))
            .with(FaultSpec::always(site, FaultKind::Kill))
    }

    #[test]
    fn prices_requests_and_echoes_ids() {
        let server = Server::start(quick_config());
        let rx1 = server.submit(PriceRequest::new(1, "black_scholes", 30.0, 35.0, 1.0));
        let rx2 = server.submit(PriceRequest::new(2, "binomial", 30.0, 35.0, 1.0));
        let r1 = rx1.recv_timeout(Duration::from_secs(10)).unwrap();
        let r2 = rx2.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(r1.id, 1);
        assert_eq!(r2.id, 2);
        let p1 = r1.outcome.unwrap();
        let p2 = r2.outcome.unwrap();
        assert!(p1.call > 0.0 && p1.put > 0.0, "{p1:?}");
        assert!(p2.call > 0.0 && p2.put > 0.0, "{p2:?}");
        // Different engines, same option: prices agree loosely (binomial
        // converges to Black-Scholes).
        assert!((p1.call - p2.call).abs() < 0.5, "{p1:?} vs {p2:?}");
        let snap = server.shutdown();
        assert_eq!(snap.total_shed(), 0);
        assert_eq!(snap.kernels.len(), 2);
        // Healthy run: breakers closed, nothing degraded or restarted.
        for k in &snap.kernels {
            assert_eq!(k.breaker, "closed");
            assert_eq!(k.degradation_level, 0);
            assert_eq!(k.degraded_batches, 0);
            assert_eq!(k.restarts, 0);
        }
        assert_eq!(snap.internal, 0);
        assert_eq!(snap.invalid_input, 0);
    }

    #[test]
    fn portfolio_fan_out_merges_bit_identically_to_native() {
        use finbench_core::portfolio::{revalue_into, Book, RevalScratch, ScenarioConfig};
        let mut config = quick_config();
        config.shards = 2;
        let server = Server::start(config);
        let rx = server.submit(PortfolioRequest::new(9, 42, 24, 96).with_chunk(16));
        let resp = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(resp.id, 9);
        let out = resp.outcome.unwrap();
        assert_eq!(out.scenarios, 96);
        assert_eq!(out.pnl.len(), 96);
        assert_eq!(out.chunks, 6);
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
        assert_eq!(snap.total_shed(), 0);
        assert_eq!(snap.internal, 0);
        assert!(snap.kernels.iter().any(|k| k.kernel == "portfolio"));
    }

    #[test]
    fn portfolio_rejects_invalid_requests_synchronously() {
        let server = Server::start(quick_config());
        let rx = server.submit(PortfolioRequest::new(1, 7, 0, 64));
        match rx.recv_timeout(Duration::from_secs(5)).unwrap().outcome {
            Err(Rejected::InvalidInput { reason }) => {
                assert!(reason.contains("non-empty"), "{reason}");
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
        let rx = server.submit(PortfolioRequest::new(2, 7, 16, 32).with_confidence(vec![2.0]));
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap().outcome,
            Err(Rejected::InvalidInput { .. })
        ));
        let snap = server.shutdown();
        assert_eq!(snap.invalid_input, 2);
    }

    #[test]
    fn portfolio_requests_are_deterministic_across_chunkings() {
        // Different fan-out shapes (chunk sizes, shard counts) must merge
        // to bit-identical P&L — the split-invariance contract end to end.
        let run = |shards: usize, chunk: usize| {
            let mut config = quick_config();
            config.shards = shards;
            let server = Server::start(config);
            let rx = server.submit(PortfolioRequest::new(1, 11, 16, 80).with_chunk(chunk));
            let out = rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap()
                .outcome
                .unwrap();
            server.shutdown();
            out.pnl
        };
        let a = run(1, 80);
        let b = run(2, 13);
        let c = run(3, 7);
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
        let server = Server::start(ServeConfig {
            shards: 2,
            ..quick_config()
        });
        let rx = server.submit(PortfolioRequest::new(4, 21, 16, 64).with_chunk(8));
        server.shutdown();
        let resp = rx.try_recv().expect("answered before shutdown returned");
        assert_eq!(resp.outcome.expect("served").chunks, 8);
        assert_eq!(rx.try_recv(), Err(mpsc::TryRecvError::Disconnected));
    }

    #[test]
    fn a_fan_out_partly_refused_is_answered_once_with_queue_full() {
        // The lone worker sleeps out one stall before it first pops, so
        // the first two of four chunks fill its two-slot queue and the
        // router refuses the other two.
        let config = ServeConfig {
            queue_capacity: 2,
            max_delay: Duration::from_millis(200),
            ..quick_config()
        };
        let stall = FaultSpec::always("queue", FaultKind::StallQueue).limited(1);
        let server = start_with(config, FaultPlan::new().with(stall));
        let (tx, rx) = mpsc::channel();
        server.submit_with(PortfolioRequest::new(5, 3, 8, 64).with_chunk(16), &tx);
        drop(tx);
        let got: Vec<PortfolioResponse> = rx.iter().collect();
        assert_eq!(got.len(), 1, "exactly one terminal response");
        assert!(
            matches!(got[0].outcome, Err(Rejected::QueueFull { capacity: 2 })),
            "{:?}",
            got[0].outcome
        );
        let ledger = &server.plane.ledger;
        let ends = [
            &ledger.portfolio_requests,
            &ledger.portfolio_failed,
            &ledger.portfolio_merged,
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
        let k = snap.kernels.iter().find(|k| k.kernel == "greeks").unwrap();
        assert_eq!(k.served, 1);
        assert_eq!(k.breaker, "closed");
        assert_eq!(snap.total_shed(), 0);
    }

    #[test]
    fn greeks_invalid_inputs_and_deadlines_get_typed_answers() {
        let server = Server::start(quick_config());
        let rx = server.submit(GreeksRequest::new(1, f64::NAN, 35.0, 1.0));
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(10)).unwrap().outcome,
            Err(Rejected::InvalidInput { .. })
        ));
        let mut req = GreeksRequest::new(2, 30.0, 35.0, 1.0);
        req.deadline = Some(Instant::now() - Duration::from_millis(1));
        let rx = server.submit(req);
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(10)).unwrap().outcome,
            Err(Rejected::DeadlineExceeded { .. })
        ));
        let snap = server.shutdown();
        assert_eq!(snap.invalid_input, 1);
        assert_eq!(snap.shed_deadline, 1);
    }

    #[test]
    fn greeks_lane_survives_an_injected_panic_and_degrades() {
        faults::silence_injected_panics();
        // Panic on the first greeks batch only.
        let panic = FaultSpec::always("batch.greeks", FaultKind::Panic).limited(1);
        let server = start_with(quick_config(), FaultPlan::new().with(panic));
        let rx = server.submit(GreeksRequest::new(1, 30.0, 35.0, 1.0));
        match rx.recv_timeout(Duration::from_secs(10)).unwrap().outcome {
            Err(Rejected::Internal { reason }) => {
                assert!(reason.contains("injected panic"), "{reason}");
            }
            other => panic!("expected Internal, got {other:?}"),
        }
        // Still alive; the next request is served on a degraded rung that
        // answers bit-identically to the planned one.
        let rx = server.submit(GreeksRequest::new(2, 30.0, 35.0, 1.0));
        let out = rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap()
            .outcome
            .expect("greeks lane must keep serving after a caught panic");
        let (want_c, _) = crate::greeks::greeks_ladder(quick_config().pricer.market)[0]
            .compute_one(30.0, 35.0, 1.0);
        assert_eq!(out.call.delta.to_bits(), want_c.delta.to_bits());
        let snap = server.shutdown();
        let k = snap.kernels.iter().find(|k| k.kernel == "greeks").unwrap();
        assert!(k.degradation_level >= 1, "{k:?}");
        assert_eq!(snap.internal, 1);
    }

    #[test]
    fn mixed_price_and_greeks_load_shares_the_queue_without_cross_talk() {
        let server = Server::start(quick_config());
        let (ptx, prx) = mpsc::channel();
        let (gtx, grx) = mpsc::channel();
        for i in 0..20u64 {
            server.submit_with(PriceRequest::new(i, "black_scholes", 30.0, 35.0, 1.0), &ptx);
            server.submit_greeks_with(GreeksRequest::new(i, 25.0, 20.0, 0.5), &gtx);
        }
        drop(ptx);
        drop(gtx);
        let priced: Vec<PriceResponse> = prx.iter().collect();
        let greeked: Vec<GreeksResponse> = grx.iter().collect();
        let snap = server.shutdown();
        assert_eq!(priced.len(), 20);
        assert_eq!(greeked.len(), 20);
        assert!(priced.iter().all(PriceResponse::is_ok));
        assert!(greeked.iter().all(|g| g.is_ok()));
        assert_eq!(snap.total_shed(), 0);
        let names: Vec<&str> = snap.kernels.iter().map(|k| k.kernel.as_str()).collect();
        assert!(names.contains(&"black_scholes") && names.contains(&"greeks"));
    }

    #[test]
    fn bad_kernels_get_typed_rejections_not_panics() {
        let server = Server::start(quick_config());
        let rx = server.submit(PriceRequest::new(9, "black_sholes", 30.0, 35.0, 1.0));
        match rx.recv_timeout(Duration::from_secs(10)).unwrap().outcome {
            Err(Rejected::UnknownKernel { reason }) => {
                assert!(reason.contains("black_sholes"), "{reason}");
            }
            other => panic!("expected UnknownKernel, got {other:?}"),
        }
        let rx = server.submit(PriceRequest::new(10, "rng", 30.0, 35.0, 1.0));
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(10)).unwrap().outcome,
            Err(Rejected::Unservable { .. })
        ));
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
            let rx = server.submit(PriceRequest::new(id, "black_scholes", s, x, t));
            match rx.recv_timeout(Duration::from_secs(10)).unwrap().outcome {
                Err(Rejected::InvalidInput { .. }) => {}
                other => panic!("request {id}: expected InvalidInput, got {other:?}"),
            }
        }
        let snap = server.shutdown();
        assert_eq!(snap.invalid_input, 4);
        // No lane was ever created for them: nothing served or batched.
        assert!(snap.kernels.is_empty(), "{:?}", snap.kernels);
    }

    #[test]
    fn queue_overflow_is_a_synchronous_typed_rejection() {
        // Capacity 1 and a server whose dispatcher is effectively stalled
        // by a huge binomial batch, so pushes pile up.
        let server = Server::start(ServeConfig {
            queue_capacity: 1,
            max_delay: Duration::from_millis(50),
            ..quick_config()
        });
        let (tx, rx) = mpsc::channel();
        // Flood: with capacity 1, at least one of these must be rejected
        // synchronously (the dispatcher can't drain instantly).
        for i in 0..200 {
            server.submit_with(PriceRequest::new(i, "black_scholes", 30.0, 35.0, 1.0), &tx);
        }
        drop(tx);
        let outcomes: Vec<PriceResponse> = rx.iter().collect();
        assert_eq!(outcomes.len(), 200, "every request got exactly one answer");
        let full = outcomes
            .iter()
            .filter(|r| matches!(r.outcome, Err(Rejected::QueueFull { capacity: 1 })))
            .count();
        assert!(full > 0, "expected at least one QueueFull");
        let snap = server.shutdown();
        assert_eq!(snap.shed_queue_full as usize, full);
    }

    #[test]
    fn expired_deadlines_shed_instead_of_pricing_late() {
        let server = Server::start(quick_config());
        let mut req = PriceRequest::new(5, "black_scholes", 30.0, 35.0, 1.0);
        // A deadline in the past: the dispatcher must shed it.
        req.deadline = Some(Instant::now() - Duration::from_millis(1));
        let rx = server.submit(req);
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(10)).unwrap().outcome,
            Err(Rejected::DeadlineExceeded { .. })
        ));
        let snap = server.shutdown();
        assert_eq!(snap.shed_deadline, 1);
    }

    /// A binomial tree deep enough that pricing one option keeps a worker
    /// busy for milliseconds — the tests below use it to hold a worker in
    /// `execute` while they act, instead of holding replies back on a
    /// timer.
    const DEEP_TREE: usize = 4096;

    fn deep_tree_config() -> ServeConfig {
        ServeConfig {
            pricer: PricerConfig {
                binomial_steps: DEEP_TREE,
                ..PricerConfig::default()
            },
            ..quick_config()
        }
    }

    fn kernel<'a>(snap: &'a ServeSnapshot, name: &str) -> &'a KernelSnapshot {
        snap.kernels
            .iter()
            .find(|k| k.kernel == name)
            .unwrap_or_else(|| panic!("no {name} lane in {snap:?}"))
    }

    #[test]
    fn a_lone_request_on_an_idle_server_does_not_wait_for_the_timer() {
        let server = Server::start(ServeConfig {
            max_delay: Duration::from_secs(10),
            ..quick_config()
        });
        let rx = server.submit(PriceRequest::new(1, "black_scholes", 30.0, 35.0, 1.0));
        let priced = rx
            .recv_timeout(Duration::from_secs(1))
            .expect("answered long before max_delay")
            .outcome
            .expect("priced");
        assert_eq!(priced.batch_len, 1);
        assert!(priced.latency < Duration::from_secs(1), "{priced:?}");
        let snap = server.shutdown();
        let k = kernel(&snap, "black_scholes");
        assert_eq!(
            k.flushes,
            FlushCounts {
                idle: 1,
                ..FlushCounts::default()
            }
        );
        assert_eq!(k.batches, 1);
    }

    #[test]
    fn shutdown_answers_everything_pending() {
        let server = Server::start(deep_tree_config());
        // Hold the worker in a deep-tree batch, then queue ten requests
        // behind it and shut down while it is still pricing.
        let deep = server.submit(PriceRequest::new(100, "binomial", 30.0, 35.0, 1.0));
        let taken = Instant::now() + Duration::from_secs(10);
        while server.queue_depth() > 0 {
            assert!(Instant::now() < taken, "worker never took the request");
            std::thread::yield_now();
        }
        let (tx, rx) = mpsc::channel();
        for i in 0..10 {
            server.submit_with(PriceRequest::new(i, "black_scholes", 30.0, 35.0, 1.0), &tx);
        }
        let snap = server.shutdown();
        drop(tx);
        // Everything still queued when the queue closed is priced, not
        // dropped or rejected — by the shutdown drain, since a closed
        // queue no longer counts as idle.
        let got: Vec<PriceResponse> = rx.iter().collect();
        assert_eq!(got.len(), 10);
        assert!(got.iter().all(PriceResponse::is_ok), "{got:?}");
        assert!(deep.recv().unwrap().is_ok());
        let k = kernel(&snap, "black_scholes");
        assert_eq!(k.served, 10);
        assert_eq!(k.flushes.total(), k.batches);
        assert!(k.flushes.drain >= 1, "{k:?}");
    }

    #[test]
    fn a_backlogged_worker_batches_up_to_the_size_trigger() {
        // While the worker is held in a deep-tree batch its queue fills
        // past the size target, so what it pops next flushes on
        // size, and only the remainder on idle.
        let server = Server::start(ServeConfig {
            max_batch: 8,
            ..deep_tree_config()
        });
        let warm = server.submit(PriceRequest::new(0, "black_scholes", 30.0, 35.0, 1.0));
        assert!(warm.recv_timeout(Duration::from_secs(10)).unwrap().is_ok());
        let target = kernel(&server.snapshot(), "black_scholes").target_batch;
        assert_eq!(target, 8);
        let deep = server.submit(PriceRequest::new(100, "binomial", 30.0, 35.0, 1.0));
        let taken = Instant::now() + Duration::from_secs(10);
        while server.queue_depth() > 0 {
            assert!(Instant::now() < taken, "worker never took the request");
            std::thread::yield_now();
        }
        let (tx, rx) = mpsc::channel();
        let n = 2 * target as u64 + 1;
        for i in 1..=n {
            server.submit_with(PriceRequest::new(i, "black_scholes", 30.0, 35.0, 1.0), &tx);
        }
        drop(tx);
        let got: Vec<PriceResponse> = rx.iter().collect();
        assert_eq!(got.len() as u64, n);
        assert!(got.iter().all(PriceResponse::is_ok), "{got:?}");
        assert!(deep.recv().unwrap().is_ok());
        let snap = server.shutdown();
        let k = kernel(&snap, "black_scholes");
        assert!(k.flushes.size >= 2, "{k:?}");
        assert!(k.max_occupancy <= target as f64, "{k:?}");
        assert_eq!(k.flushes.total(), k.batches);
    }

    #[test]
    fn a_kernel_panic_rejects_the_batch_and_degrades_instead_of_crashing() {
        faults::silence_injected_panics();
        // Panic on the first black_scholes batch only.
        let panic = FaultSpec::always("batch.black_scholes", FaultKind::Panic).limited(1);
        let server = start_with(quick_config(), FaultPlan::new().with(panic));
        let rx = server.submit(PriceRequest::new(1, "black_scholes", 30.0, 35.0, 1.0));
        match rx.recv_timeout(Duration::from_secs(10)).unwrap().outcome {
            Err(Rejected::Internal { reason }) => {
                assert!(reason.contains("injected panic"), "{reason}");
            }
            other => panic!("expected Internal, got {other:?}"),
        }
        // The server is still alive and prices the next request — on a
        // degraded rung (the panic pushed the lane one level down).
        let rx = server.submit(PriceRequest::new(2, "black_scholes", 30.0, 35.0, 1.0));
        let priced = rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap()
            .outcome
            .expect("server must keep serving after a caught panic");
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
        let config = ServeConfig {
            shards: 2,
            respawn: false,
            ..quick_config()
        };
        let panic = FaultSpec::always("batch.black_scholes", FaultKind::Panic).limited(1);
        let server = start_with(config, FaultPlan::new().with(panic));
        // Answered one at a time, so round-robin places them on seats 0,
        // 1, 0 and nothing is stolen (a lone queued item never is): seat
        // 0 absorbs the panic and degrades, seat 1 serves at the planned
        // rung, seat 0 serves one level down.
        let mut outcomes = (1..=3).map(|id| {
            server
                .submit(PriceRequest::new(id, "black_scholes", 30.0, 35.0, 1.0))
                .recv_timeout(Duration::from_secs(10))
                .unwrap()
                .outcome
        });
        let first = outcomes.next().unwrap();
        assert!(matches!(first, Err(Rejected::Internal { .. })), "{first:?}");
        let ladder = pricer::servable_ladder(
            &Engine::new(registry()),
            "black_scholes",
            &quick_config().pricer,
        )
        .unwrap();
        assert_eq!(outcomes.next().unwrap().unwrap().rung, ladder[0].slug);
        assert_eq!(outcomes.next().unwrap().unwrap().rung, ladder[1].slug);
        drop(outcomes);
        let snap = server.shutdown();
        assert_eq!(
            snap.shards.iter().map(|s| s.served).collect::<Vec<_>>(),
            [1, 1]
        );
        // Health is the most degraded seat's, whichever published last;
        // counts are the sums over both seats' records.
        let k = kernel(&snap, "black_scholes");
        assert_eq!(
            (k.degradation_level, k.rung.as_str()),
            (1, &*ladder[1].slug)
        );
        assert_eq!((k.served, k.batches, k.degraded_batches), (2, 2, 1));
        assert_eq!((snap.internal, snap.planes[0].degradations), (1, 1));
    }

    #[test]
    fn persistent_panics_walk_the_ladder_down_then_open_the_breaker() {
        faults::silence_injected_panics();
        let config = ServeConfig {
            breaker: BreakerPolicy {
                open_after: 2,
                cooldown: Duration::from_secs(30),
                ..BreakerPolicy::default()
            },
            ..quick_config()
        };
        let panic = FaultSpec::always("batch.black_scholes", FaultKind::Panic);
        let server = start_with(config, FaultPlan::new().with(panic));
        // Enough sequential batches to fall through every ladder level
        // and trip the breaker at the bottom: levels + open_after.
        let ladder_len = {
            let engine = Engine::new(registry());
            pricer::servable_ladder(&engine, "black_scholes", &quick_config().pricer)
                .unwrap()
                .len()
        };
        let batches = ladder_len + 3;
        for i in 0..batches {
            let rx = server.submit(PriceRequest::new(
                i as u64,
                "black_scholes",
                30.0,
                35.0,
                1.0,
            ));
            let resp = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert!(
                matches!(resp.outcome, Err(Rejected::Internal { .. })),
                "batch {i} should be rejected"
            );
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
        let ladder_len = {
            let engine = Engine::new(registry());
            pricer::servable_ladder(&engine, "black_scholes", &quick_config().pricer)
                .unwrap()
                .len()
        };
        let config = ServeConfig {
            breaker: BreakerPolicy {
                open_after: 1,
                cooldown: Duration::from_millis(5),
                promote_after: 2,
                ..BreakerPolicy::default()
            },
            ..quick_config()
        };
        // One panic per ladder level: fall to the bottom and open the
        // breaker, and the faults stop there.
        let panic = FaultSpec::always("batch.black_scholes", FaultKind::Panic);
        let plan = FaultPlan::new().with(panic.limited(ladder_len as u64));
        let server = start_with(config, plan);
        for i in 0..ladder_len as u64 {
            let rx = server.submit(PriceRequest::new(i, "black_scholes", 30.0, 35.0, 1.0));
            let _ = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        // Wait out the cooldown: the next batch is the half-open probe,
        // which succeeds, closes the breaker, and serves.
        std::thread::sleep(Duration::from_millis(10));
        let rx = server.submit(PriceRequest::new(99, "black_scholes", 30.0, 35.0, 1.0));
        let priced = rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap()
            .outcome
            .expect("probe batch should be served");
        assert!(priced.call > 0.0);
        let snap = server.shutdown();
        let k = &snap.kernels[0];
        assert!(k.restarts >= 1, "{k:?}");
        assert_eq!(k.breaker, "closed");
        assert!(snap.total_restarts() >= 1);
    }

    #[test]
    fn corrupt_input_faults_are_caught_by_validation_not_priced() {
        let plan = FaultPlan::new().with(FaultSpec::always(
            "admit.black_scholes",
            FaultKind::CorruptInput(finbench_faults::Corruption::NaN),
        ));
        let server = start_with(quick_config(), plan);
        let rx = server.submit(PriceRequest::new(7, "black_scholes", 30.0, 35.0, 1.0));
        match rx.recv_timeout(Duration::from_secs(10)).unwrap().outcome {
            Err(Rejected::InvalidInput { reason }) => {
                assert!(reason.contains("spot"), "{reason}");
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
        let snap = server.shutdown();
        assert_eq!(snap.invalid_input, 1);
    }

    #[test]
    fn multi_shard_server_serves_everything_and_merges_telemetry() {
        let server = Server::start(ServeConfig {
            shards: 4,
            ..quick_config()
        });
        assert_eq!(server.shard_count(), 4);
        let (ptx, prx) = mpsc::channel();
        let (gtx, grx) = mpsc::channel();
        for i in 0..100u64 {
            server.submit_with(PriceRequest::new(i, "black_scholes", 30.0, 35.0, 1.0), &ptx);
            server.submit_greeks_with(GreeksRequest::new(i, 25.0, 20.0, 0.5), &gtx);
        }
        drop(ptx);
        drop(gtx);
        let priced: Vec<PriceResponse> = prx.iter().collect();
        let greeked: Vec<GreeksResponse> = grx.iter().collect();
        assert_eq!(priced.len(), 100);
        assert_eq!(greeked.len(), 100);
        assert!(priced.iter().all(PriceResponse::is_ok));
        assert!(greeked.iter().all(|g| g.is_ok()));
        let snap = server.shutdown();
        assert_eq!(snap.shards.len(), 4);
        assert_eq!(snap.alive_shards(), 4);
        assert_eq!(snap.total_shed(), 0);
        // Every admitted request was routed to exactly one shard and
        // answered by exactly one shard (possibly a thief).
        let submitted: u64 = snap.shards.iter().map(|s| s.submitted).sum();
        let served: u64 = snap.shards.iter().map(|s| s.served).sum();
        assert_eq!(submitted, 200);
        assert_eq!(served, 200);
        // Round-robin admission: no shard was starved of submissions.
        assert!(snap.shards.iter().all(|s| s.submitted > 0), "{snap:?}");
    }

    #[test]
    fn router_spills_to_a_less_loaded_sibling_before_rejecting() {
        // Stall both workers so pushed work stays queued long enough to
        // observe routing decisions deterministically.
        let config = ServeConfig {
            shards: 2,
            queue_capacity: 1,
            max_delay: Duration::from_millis(300),
            ..quick_config()
        };
        let stall = FaultSpec::always("queue", FaultKind::StallQueue);
        let server = start_with(config, FaultPlan::new().with(stall));
        // Occupy shard 0's queue directly (in-module backdoor), so the
        // round-robin primary is full while shard 1 has room.
        let (otx, orx) = mpsc::channel();
        server.plane.queues[0]
            .try_push(Work::Price(Envelope::new(
                PriceRequest::new(0, "black_scholes", 30.0, 35.0, 1.0),
                &otx,
            )))
            .unwrap_or_else(|_| panic!("occupant push must succeed"));
        server.rr.store(0, Ordering::Relaxed);
        // The router's primary (shard 0) is full: this must spill to
        // shard 1 and be served, not answer QueueFull.
        let rx = server.submit(PriceRequest::new(1, "black_scholes", 30.0, 35.0, 1.0));
        let resp = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(resp.is_ok(), "{:?}", resp.outcome);
        let occupant = orx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(occupant.is_ok(), "{:?}", occupant.outcome);
        let snap = server.shutdown();
        // The spilled request is the only *routed* submission; the
        // occupant bypassed the router.
        assert_eq!(snap.shards[1].submitted, 1, "{snap:?}");
        assert_eq!(snap.shed_queue_full, 0);
    }

    #[test]
    fn idle_shards_steal_queued_work_from_the_deepest_sibling() {
        let server = Server::start(ServeConfig {
            shards: 2,
            ..deep_tree_config()
        });
        // Load shard 0's queue directly (in-module backdoor) so all depth
        // sits on one shard: each wave is a deep-tree request that holds
        // shard 0 in `execute` plus a run of cheap ones that queue up
        // behind it. Idle shard 1 polls every `max_delay` and must steal.
        let (tx, rx) = mpsc::channel();
        let push = |id: u64, kernel: &str| {
            server.plane.queues[0]
                .try_push(Work::Price(Envelope::new(
                    PriceRequest::new(id, kernel, 30.0, 35.0, 1.0),
                    &tx,
                )))
                .is_ok()
        };
        let mut sent = 0usize;
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.snapshot().total_stolen() == 0 {
            assert!(Instant::now() < deadline, "shard 1 never stole anything");
            if server.plane.queues[0].is_empty() {
                sent += usize::from(push(sent as u64, "binomial"));
                for _ in 0..8 {
                    sent += usize::from(push(sent as u64, "black_scholes"));
                }
            }
            std::thread::yield_now();
        }
        drop(tx);
        let got: Vec<PriceResponse> = rx.iter().collect();
        assert_eq!(got.len(), sent, "every request got exactly one answer");
        assert!(got.iter().all(PriceResponse::is_ok));
        let snap = server.shutdown();
        assert_eq!(snap.shards[1].stolen, snap.total_stolen());
        let served: u64 = snap.shards.iter().map(|s| s.served).sum();
        assert_eq!(served, sent as u64);
    }

    #[test]
    fn a_killed_shard_degrades_availability_never_correctness() {
        // Respawn off: this test pins down the *terminal* loss behavior
        // (shard 0 would otherwise come back in service).
        let config = ServeConfig {
            shards: 2,
            respawn: false,
            ..quick_config()
        };
        let kill = FaultSpec::always("serve.shard.0", FaultKind::Kill);
        let server = start_with(config, FaultPlan::new().with(kill));
        // Shard 0 dies on its first loop iteration; wait for the router
        // to see it.
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.snapshot().shards[0].alive {
            assert!(Instant::now() < deadline, "shard 0 never died");
            std::thread::sleep(Duration::from_millis(1));
        }
        let (tx, rx) = mpsc::channel();
        for i in 0..40u64 {
            server.submit_with(PriceRequest::new(i, "black_scholes", 30.0, 35.0, 1.0), &tx);
        }
        drop(tx);
        let got: Vec<PriceResponse> = rx.iter().collect();
        assert_eq!(got.len(), 40);
        // Correctness never degrades: everything routed to the surviving
        // shard is served, nothing answers corrupt prices.
        assert!(got.iter().all(PriceResponse::is_ok));
        let snap = server.shutdown();
        assert_eq!(snap.alive_shards(), 1);
        assert!(!snap.shards[0].alive);
        assert_eq!(snap.shards[1].submitted, 40);
        assert_eq!(snap.shards[1].served, 40);
        assert!((snap.shards[1].availability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_killed_shard_is_respawned_and_serves_again() {
        // Kill shard 0 exactly once; with respawn on (the default) its
        // worker must come back and serve in the same seat.
        let config = ServeConfig {
            shards: 2,
            ..quick_config()
        };
        let kill = FaultSpec::always("serve.shard.0", FaultKind::Kill).limited(1);
        let server = start_with(config, FaultPlan::new().with(kill));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let snap = server.snapshot();
            if snap.shards[0].alive && snap.shards[0].respawns >= 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "shard 0 never respawned: {snap:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // Full capacity is restored: the router round-robins across both
        // seats again and everything is served.
        let (tx, rx) = mpsc::channel();
        for i in 0..40u64 {
            server.submit_with(PriceRequest::new(i, "black_scholes", 30.0, 35.0, 1.0), &tx);
        }
        drop(tx);
        let got: Vec<PriceResponse> = rx.iter().collect();
        assert_eq!(got.len(), 40);
        assert!(got.iter().all(PriceResponse::is_ok));
        let snap = server.shutdown();
        assert_eq!(snap.alive_shards(), 2);
        assert_eq!(snap.total_respawns(), 1);
        assert_eq!(snap.shards[0].respawns, 1);
        assert!(snap.shards[0].submitted > 0, "{snap:?}");
        let mttr = snap.mean_mttr().expect("a respawn must record MTTR");
        assert!(mttr > Duration::ZERO, "{mttr:?}");
        assert_eq!(snap.shards[0].mttr, mttr);
    }

    #[test]
    fn stranded_work_is_redriven_to_a_live_sibling_with_its_channel_intact() {
        // Stall runs *before* the kill check in each loop iteration, so
        // both workers sleep through a max_delay-long window first. That
        // window is the deterministic part: we push into shard 0's queue
        // while it sleeps, it wakes, dies, and must redrive the queued
        // work to shard 1 — which was also asleep, so it cannot have
        // stolen anything first.
        let server = start_with(stalled_no_respawn(2), stall_then_kill("serve.shard.0"));
        let (tx, rx) = mpsc::channel();
        for i in 0..4u64 {
            server.plane.queues[0]
                .try_push(Work::Price(Envelope::new(
                    PriceRequest::new(i, "black_scholes", 30.0, 35.0, 1.0),
                    &tx,
                )))
                .unwrap_or_else(|_| panic!("direct push must succeed"));
        }
        drop(tx);
        // The original response channels must survive the redrive: every
        // request is priced by shard 1 and answered exactly once.
        let got: Vec<PriceResponse> = rx.iter().collect();
        assert_eq!(
            got.len(),
            4,
            "every stranded request got exactly one answer"
        );
        assert!(got.iter().all(PriceResponse::is_ok), "{got:?}");
        let mut ids: Vec<u64> = got.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        let snap = server.shutdown();
        assert_eq!(snap.alive_shards(), 1);
        assert_eq!(snap.total_redriven(), 4, "{snap:?}");
        // Redrives are attributed to the seat that lost them.
        assert_eq!(snap.shards[0].redriven, 4);
        assert_eq!(snap.shards[1].redriven, 0);
        assert_eq!(snap.internal, 0);
        assert_eq!(snap.shed_deadline_redrive, 0);
    }

    #[test]
    fn stranded_work_with_no_live_sibling_is_rejected_not_dropped() {
        let server = start_with(stalled_no_respawn(1), stall_then_kill("serve.shard.0"));
        let (tx, rx) = mpsc::channel();
        for i in 0..4u64 {
            server.plane.queues[0]
                .try_push(Work::Price(Envelope::new(
                    PriceRequest::new(i, "black_scholes", 30.0, 35.0, 1.0),
                    &tx,
                )))
                .unwrap_or_else(|_| panic!("direct push must succeed"));
        }
        drop(tx);
        let got: Vec<PriceResponse> = rx.iter().collect();
        assert_eq!(got.len(), 4, "no silent drops even with nowhere to redrive");
        for r in &got {
            match &r.outcome {
                Err(Rejected::Internal { reason }) => {
                    assert!(reason.contains("no live sibling"), "{reason}");
                }
                other => panic!("expected Internal, got {other:?}"),
            }
        }
        // The router also answers (never hangs) once the fleet is empty.
        let rx = server.submit(PriceRequest::new(99, "black_scholes", 30.0, 35.0, 1.0));
        match rx.recv_timeout(Duration::from_secs(10)).unwrap().outcome {
            Err(Rejected::Internal { reason }) => {
                assert!(reason.contains("no alive shards"), "{reason}");
            }
            other => panic!("expected Internal, got {other:?}"),
        }
        let snap = server.shutdown();
        assert_eq!(snap.alive_shards(), 0);
        // The 4 stranded rejections are worker-side and tallied; the
        // router's answer is synchronous on the caller's thread.
        assert_eq!(snap.internal, 4);
        assert_eq!(snap.total_redriven(), 0);
    }

    /// Submit `req` and collect until every sender is gone: exactly one
    /// terminal response, whatever it is.
    fn one_answer<R: ServeRequest>(server: &Server, req: R) -> Result<R::Out, Rejected> {
        let (tx, rx) = mpsc::channel();
        server.submit_with(req, &tx);
        drop(tx);
        let mut got: Vec<Response<R::Out>> = rx.iter().collect();
        assert_eq!(got.len(), 1, "exactly one terminal response");
        got.remove(0).outcome
    }

    /// `ShuttingDown` on one plane: a server that has begun to stop answers
    /// it once, typed, and counts nothing — it is neither a shed nor a
    /// failure of the plane. (The counted rejections are driven through
    /// the public API, per plane, in `tests/rejection_taxonomy.rs`; this
    /// one needs the server's private fields.)
    fn shutting_down<R: ServeRequest>(valid: R)
    where
        R::Out: std::fmt::Debug,
    {
        let server = Server::start(quick_config());
        server.plane.close();
        let out = one_answer(&server, valid);
        assert!(matches!(out, Err(Rejected::ShuttingDown)), "{out:?}");
        let snap = server.shutdown();
        assert_eq!((snap.total_shed(), snap.internal, snap.rejected), (0, 0, 0));
    }

    #[test]
    fn every_plane_answers_shutting_down_once_and_counts_nothing() {
        shutting_down(PriceRequest::new(1, "black_scholes", 30.0, 35.0, 1.0));
        shutting_down(GreeksRequest::new(2, 30.0, 35.0, 1.0));
        shutting_down(PortfolioRequest::new(3, 7, 8, 16).with_chunk(16));
    }
}
