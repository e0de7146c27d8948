//! Synthetic load generation for the serving plane.
//!
//! Two canonical load models:
//!
//! * **closed-loop** — `clients` threads, each with one outstanding
//!   request: submit, wait for the response, repeat. Throughput is
//!   self-limiting, so this traces out the latency floor at increasing
//!   concurrency.
//! * **open-loop** — arrivals paced at a fixed rate regardless of
//!   completions (the standard model for SLO studies: queueing delay and
//!   shedding appear once the offered rate exceeds capacity).
//!
//! Both are written once, over a [`RequestSource`]: a kernel name is the
//! price plane's source (`run_load(&server, "black_scholes", …)`),
//! [`GreeksSource`] and [`PortfolioSource`] are the other planes'. One
//! [`drive`] returns every `(request, response, round trip)` it saw;
//! [`LoadReport`], [`PeakStep`] and the peak search are computed from
//! that, and replay oracles read the same exchanges.
//!
//! Request parameters are drawn from the workspace's seeded RNG-free
//! SplitMix-style stream — client `c` of a run seeded `seed` draws from
//! [`mix_seed`]`(seed, c)` — so every run is reproducible.
//!
//! ## Hedged requests
//!
//! Closed-loop clients can optionally **hedge**: if a response hasn't
//! arrived within [`HedgePolicy::delay`], the client submits a second
//! copy of the request (same parameters, same absolute deadline, id
//! tagged with [`HEDGE_BIT`]) and takes whichever response arrives
//! first. The loser is simply dropped client-side — the server still
//! answers both copies, so hedging trades duplicated work for tail
//! latency, exactly the classic tail-at-scale tradeoff. Open-loop runs
//! are never hedged: an injector paced on arrivals has no per-request
//! wait in which to detect a slow response.

use crate::request::{
    GreeksRequest, PortfolioRequest, PriceRequest, Rejected, Response, ServeRequest,
};
use crate::server::{Server, ShardSnapshot};
use finbench_telemetry as telemetry;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// High bit of the request-id space, reserved to tag hedge copies. The
/// load generators assign dense ids well below it, and the winner's id
/// is masked back before reporting, so the tag never leaks into latency
/// matching or summaries.
pub const HEDGE_BIT: u64 = 1 << 63;

/// Client-side hedging policy for closed-loop load (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// How long a client waits for a response before submitting the
    /// hedge copy. Pick this near the expected tail (e.g. observed p99):
    /// too short duplicates most requests, too long never fires.
    pub delay: Duration,
}

/// The offered-load model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// `clients` concurrent clients, each issuing `requests_per_client`
    /// back-to-back requests.
    Closed {
        /// Concurrent clients.
        clients: usize,
        /// Requests per client.
        requests_per_client: usize,
    },
    /// `total` arrivals paced at `rate_hz` from one injector thread.
    Open {
        /// Offered arrival rate, requests/second.
        rate_hz: f64,
        /// Total arrivals.
        total: usize,
    },
}

/// What one load run observed, measured at the *client* side.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoadReport {
    /// Kernel driven.
    pub kernel: String,
    /// Requests submitted.
    pub offered: usize,
    /// Requests priced.
    pub served: usize,
    /// Requests shed for backpressure (queue full) at submit.
    pub shed_queue_full: usize,
    /// Requests shed for a blown deadline at dispatch.
    pub shed_deadline: usize,
    /// Requests rejected because the kernel name failed registry
    /// resolution ([`Rejected::UnknownKernel`]).
    pub rejected_unknown_kernel: usize,
    /// Requests rejected because the kernel has no batch-safe serving
    /// rung ([`Rejected::Unservable`]).
    pub rejected_unservable: usize,
    /// Requests rejected because the server was shutting down
    /// ([`Rejected::ShuttingDown`]).
    pub rejected_shutdown: usize,
    /// Requests rejected by admission-side input validation.
    pub invalid_input: usize,
    /// Requests answered [`Rejected::Internal`] (caught kernel panic or
    /// open circuit breaker).
    pub internal: usize,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Served throughput, requests/second.
    pub throughput: f64,
    /// Client-observed latency percentiles, microseconds (p50, p95,
    /// p99); zeros when nothing was served.
    pub p50_us: f64,
    /// 95th percentile.
    pub p95_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Hedge copies submitted (0 unless hedging was enabled).
    pub hedges: usize,
    /// Logical requests whose *hedge* copy answered first.
    pub hedge_wins: usize,
    /// Per-shard activity over this run (snapshot deltas): what each
    /// worker shard admitted, served, and stole while the load ran.
    pub shards: Vec<ShardLoad>,
}

impl LoadReport {
    /// Queue-full + deadline sheds.
    pub fn total_shed(&self) -> usize {
        self.shed_queue_full + self.shed_deadline
    }

    /// All "other" rejections: unknown kernel + unservable + shutdown.
    /// These used to be one collapsed counter, which made a misspelled
    /// kernel name in a sweep indistinguishable from a mid-run shutdown.
    pub fn rejected_total(&self) -> usize {
        self.rejected_unknown_kernel + self.rejected_unservable + self.rejected_shutdown
    }

    /// Fraction of offered requests that were answered with a price
    /// (the availability number chaos runs report).
    pub fn availability(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.served as f64 / self.offered as f64
        }
    }

    /// This run as one step of a peak search at offered rate `rate_hz`.
    pub fn peak_step(&self, rate_hz: f64) -> PeakStep {
        PeakStep {
            rate_hz,
            offered: self.offered,
            served: self.served,
            shed: self.total_shed(),
            other_rejected: self.rejected_total() + self.invalid_input + self.internal,
        }
    }
}

/// One worker shard's activity over a load run, measured as the delta of
/// its [`ShardSnapshot`](crate::server::ShardSnapshot) tallies between
/// run start and run end.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardLoad {
    /// Shard index (stable over the server's lifetime).
    pub index: usize,
    /// Whether the shard was still alive at the end of the run.
    pub alive: bool,
    /// Work items the router pushed to this shard during the run.
    pub submitted: u64,
    /// Requests this shard answered with a result during the run.
    pub served: u64,
    /// Work items this shard stole from siblings during the run.
    pub stolen: u64,
}

impl ShardLoad {
    /// Served-over-submitted for this shard (1.0 when it was never
    /// routed to). Stolen work is served here but submitted elsewhere,
    /// so a busy thief can exceed 1.
    pub fn availability(&self) -> f64 {
        if self.submitted == 0 {
            1.0
        } else {
            self.served as f64 / self.submitted as f64
        }
    }
}

/// Derive the `index`-th child seed of `seed` through a SplitMix64
/// finalizer. The load generators used to derive per-client and
/// per-step seeds additively (`seed + index`), which collides across a
/// sweep: client `i` of step seeded `s + 1` replayed client `i + 1` of
/// step seeded `s`, so "independent" streams shared every draw. The
/// finalizer's avalanche decorrelates neighbouring `(seed, index)`
/// pairs instead.
pub fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic option-parameter stream (SplitMix64 under the hood) in
/// the paper's workload ranges: s ∈ [5, 30), x ∈ [1, 100), t ∈ [0.25, 10).
#[derive(Debug, Clone)]
pub struct OptionStream {
    state: u64,
}

impl OptionStream {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + u * (hi - lo)
    }

    /// The next `(s, x, t)` triple.
    pub fn next_option(&mut self) -> (f64, f64, f64) {
        (
            self.uniform(5.0, 30.0),
            self.uniform(1.0, 100.0),
            self.uniform(0.25, 10.0),
        )
    }
}

/// A reproducible stream of one plane's requests: what [`drive`] submits.
pub trait RequestSource: Sync {
    /// The request type this source builds.
    type Req: ServeRequest + Clone;

    /// Name of what is being driven ([`LoadReport::kernel`]).
    fn label(&self) -> &str;
    /// Build request `id` with the given absolute deadline, drawing its
    /// parameters from `stream`. The same stream state must build the
    /// same request: a hedge copy is the request rebuilt under its
    /// tagged id.
    fn request(&self, id: u64, deadline: Option<Instant>, stream: &mut OptionStream) -> Self::Req;
}

/// A registry kernel name is the price plane's source.
impl RequestSource for str {
    type Req = PriceRequest;

    fn label(&self) -> &str {
        self
    }
    fn request(
        &self,
        id: u64,
        deadline: Option<Instant>,
        stream: &mut OptionStream,
    ) -> PriceRequest {
        let (s, x, t) = stream.next_option();
        PriceRequest {
            deadline,
            ..PriceRequest::new(id, self, s, x, t)
        }
    }
}

/// The greeks plane's source: one option contract per request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreeksSource;

impl RequestSource for GreeksSource {
    type Req = GreeksRequest;

    fn label(&self) -> &str {
        "greeks"
    }
    fn request(
        &self,
        id: u64,
        deadline: Option<Instant>,
        stream: &mut OptionStream,
    ) -> GreeksRequest {
        let (s, x, t) = stream.next_option();
        GreeksRequest {
            deadline,
            ..GreeksRequest::new(id, s, x, t)
        }
    }
}

/// The portfolio plane's source: every request revalues a book of the
/// same shape under a freshly drawn book-and-grid seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortfolioSource {
    /// Book size in positions.
    pub positions: usize,
    /// Scenario-grid size.
    pub scenarios: usize,
    /// Fan-out chunk size in scenarios (`0` = automatic).
    pub chunk: usize,
}

impl RequestSource for PortfolioSource {
    type Req = PortfolioRequest;

    fn label(&self) -> &str {
        "portfolio"
    }
    fn request(
        &self,
        id: u64,
        deadline: Option<Instant>,
        stream: &mut OptionStream,
    ) -> PortfolioRequest {
        PortfolioRequest {
            deadline,
            ..PortfolioRequest::new(id, stream.next_u64(), self.positions, self.scenarios)
                .with_chunk(self.chunk)
        }
    }
}

/// One answered request: what was asked, what came back, and the
/// client-observed round trip.
pub type Exchange<R> = (R, Response<<R as ServeRequest>::Out>, Duration);

/// Everything one [`drive`] observed, measured at the *client* side.
pub struct Driven<R: ServeRequest> {
    /// The source's label.
    pub label: String,
    /// One entry per request that was answered (hedged requests once,
    /// under the untagged id). A client that lost its channel stops
    /// early, so this — not the schedule — is what was offered.
    pub exchanges: Vec<Exchange<R>>,
    /// Hedge copies submitted (0 unless hedging was enabled).
    pub hedges: usize,
    /// Logical requests whose *hedge* copy answered first.
    pub hedge_wins: usize,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Per-shard activity over the run (snapshot deltas).
    pub shards: Vec<ShardLoad>,
}

/// Drive `server` with synthetic load from `source` and return every
/// exchange. `slo` attaches a deadline to every request (None = no
/// deadline, nothing can be shed for lateness). Hedging applies only to
/// closed-loop load (see the module docs); an open-loop run ignores the
/// policy and reports zero hedges.
pub fn drive<S: RequestSource + ?Sized>(
    server: &Server,
    source: &S,
    mode: LoadMode,
    seed: u64,
    slo: Option<Duration>,
    hedge: Option<HedgePolicy>,
) -> Driven<S::Req> {
    let before = server.snapshot().shards;
    let t0 = Instant::now();
    let (exchanges, hedges, hedge_wins) = match mode {
        LoadMode::Closed {
            clients,
            requests_per_client,
        } => closed_loop(
            server,
            source,
            clients,
            requests_per_client,
            seed,
            slo,
            hedge,
        ),
        LoadMode::Open { rate_hz, total } => {
            (open_loop(server, source, rate_hz, total, seed, slo), 0, 0)
        }
    };
    // Counted once, from the finished tally the report reads too.
    telemetry::counter_add("loadgen.hedges", hedges as u64);
    telemetry::counter_add("loadgen.hedge_wins", hedge_wins as u64);
    Driven {
        label: source.label().to_string(),
        exchanges,
        hedges,
        hedge_wins,
        wall: t0.elapsed(),
        shards: shard_deltas(&before, &server.snapshot().shards),
    }
}

/// [`drive`] without hedging, summarized: client-side latency and
/// throughput of one load run.
pub fn run_load<S: RequestSource + ?Sized>(
    server: &Server,
    source: &S,
    mode: LoadMode,
    seed: u64,
    slo: Option<Duration>,
) -> LoadReport {
    drive(server, source, mode, seed, slo, None).report()
}

/// Per-shard activity between two snapshots (same server, so shards are
/// index-aligned; a shard killed mid-run shows `alive: false`).
fn shard_deltas(before: &[ShardSnapshot], after: &[ShardSnapshot]) -> Vec<ShardLoad> {
    after
        .iter()
        .map(|a| {
            let b = before.iter().find(|b| b.index == a.index);
            let delta = |f: fn(&ShardSnapshot) -> u64| f(a).saturating_sub(b.map(f).unwrap_or(0));
            ShardLoad {
                index: a.index,
                alive: a.alive,
                submitted: delta(|s| s.submitted),
                served: delta(|s| s.served),
                stolen: delta(|s| s.stolen),
            }
        })
        .collect()
}

fn closed_loop<S: RequestSource + ?Sized>(
    server: &Server,
    source: &S,
    clients: usize,
    requests_per_client: usize,
    seed: u64,
    slo: Option<Duration>,
    hedge: Option<HedgePolicy>,
) -> (Vec<Exchange<S::Req>>, usize, usize) {
    let per_client = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|c| {
                scope.spawn(move || {
                    let mut stream = OptionStream::new(mix_seed(seed, c as u64));
                    let mut out = Vec::with_capacity(requests_per_client);
                    let mut hedges = 0usize;
                    let mut wins = 0usize;
                    for i in 0..requests_per_client {
                        let id = (c * requests_per_client + i) as u64;
                        // Dense ids stay far below the reserved hedge
                        // tag; a generator change that grows into bit 63
                        // would silently corrupt hedge dedup.
                        debug_assert_eq!(id & HEDGE_BIT, 0, "request id collides with HEDGE_BIT");
                        let deadline = slo.map(|d| Instant::now() + d);
                        match one_hedged(
                            server,
                            source,
                            id,
                            deadline,
                            &mut stream,
                            hedge,
                            &mut hedges,
                            &mut wins,
                        ) {
                            Some(exchange) => out.push(exchange),
                            None => break,
                        }
                    }
                    (out, hedges, wins)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    let mut exchanges = Vec::new();
    let (mut hedges, mut wins) = (0usize, 0usize);
    for (out, h, w) in per_client {
        exchanges.extend(out);
        hedges += h;
        wins += w;
    }
    (exchanges, hedges, wins)
}

/// Issue closed-loop request `id` drawn from `stream`, optionally
/// hedging it, and return it with the winning response — its id
/// normalized (hedge tag masked off) — and the submit-to-response time.
///
/// First-response-wins dedup: both copies answer on the same channel and
/// only the first receive is taken, so each logical request contributes
/// exactly one entry to the report no matter which copy the server
/// answers first. The hedge copy shares the original's absolute
/// deadline — hedging never extends the end-to-end budget the server
/// enforces, it only races a second attempt inside it.
#[allow(clippy::too_many_arguments)]
fn one_hedged<S: RequestSource + ?Sized>(
    server: &Server,
    source: &S,
    id: u64,
    deadline: Option<Instant>,
    stream: &mut OptionStream,
    hedge: Option<HedgePolicy>,
    hedges: &mut usize,
    wins: &mut usize,
) -> Option<Exchange<S::Req>> {
    // The hedge copy is the same draw rebuilt under the tagged id.
    let mut replay = stream.clone();
    let req = source.request(id, deadline, stream);
    // Bit 63 is the hedge tag (see [`HEDGE_BIT`]). A caller-supplied id
    // already carrying it would make the original indistinguishable from
    // its own hedge copy — dedup would mask the "win" back onto a
    // different logical request. Reject at submission with a typed
    // error instead of submitting a request we could never account for.
    if hedge.is_some() && id & HEDGE_BIT != 0 {
        let outcome = Err(Rejected::InvalidInput {
            reason: "request id uses bit 63, reserved for hedge tagging".into(),
        });
        return Some((req, Response { id, outcome }, Duration::ZERO));
    }
    let sent = Instant::now();
    let (tx, rx) = mpsc::channel();
    server.submit_with(req.clone(), &tx);
    let first = match hedge {
        None => {
            // Our sender must not keep the channel open: the server's
            // clone is the only live producer while we wait.
            drop(tx);
            rx.recv().ok()
        }
        Some(policy) => match rx.recv_timeout(policy.delay) {
            Ok(resp) => Some(resp),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                *hedges += 1;
                server.submit_with(source.request(id | HEDGE_BIT, deadline, &mut replay), &tx);
                // Drop our sender so the receive below can't hang if
                // (impossibly) neither copy were answered.
                drop(tx);
                rx.recv().ok()
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => None,
        },
    };
    let mut resp = first?;
    if resp.id & HEDGE_BIT != 0 {
        *wins += 1;
        resp.id &= !HEDGE_BIT;
    }
    // The losing copy's response (if any) dies with `rx` here.
    Some((req, resp, sent.elapsed()))
}

fn open_loop<S: RequestSource + ?Sized>(
    server: &Server,
    source: &S,
    rate_hz: f64,
    total: usize,
    seed: u64,
    slo: Option<Duration>,
) -> Vec<Exchange<S::Req>> {
    let gap = Duration::from_secs_f64(1.0 / rate_hz.max(1.0));
    let mut stream = OptionStream::new(seed);
    let (tx, rx) = mpsc::channel();
    // Responses must be timestamped as they *arrive*, not when the
    // injector finishes, so a collector thread drains concurrently.
    let collector = std::thread::spawn(move || {
        rx.iter()
            .map(|resp| (resp, Instant::now()))
            .collect::<Vec<_>>()
    });
    let t0 = Instant::now();
    let mut sent = Vec::with_capacity(total);
    for i in 0..total {
        // Pace against the schedule, not the previous send, so a slow
        // submit doesn't silently lower the offered rate.
        let due = t0 + gap.mul_f64(i as f64);
        if let Some(sleep) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(sleep);
        }
        let req = source.request(i as u64, slo.map(|d| Instant::now() + d), &mut stream);
        sent.push(Some((req.clone(), Instant::now())));
        server.submit_with(req, &tx);
    }
    drop(tx);
    // Every submitted request gets exactly one response (priced or
    // rejected), so the collector terminates once the server drains.
    match_sent(sent, collector.join().expect("collector thread"))
}

/// Pair each collected response with the request it answers and its send
/// timestamp, by id. A response whose id falls outside the dense `sent`
/// range or was already answered (a replayed id after a lane restart, or
/// a foreign stream sharing the channel) is dropped from the report and
/// counted on `loadgen.unmatched_response` instead of panicking or
/// misattributing another request's latency.
fn match_sent<R, T>(
    mut sent: Vec<Option<(R, Instant)>>,
    collected: Vec<(Response<T>, Instant)>,
) -> Vec<(R, Response<T>, Duration)> {
    let mut matched = Vec::with_capacity(collected.len());
    let collected_len = collected.len();
    for (resp, arrived) in collected {
        if let Some((req, at)) = sent.get_mut(resp.id as usize).and_then(Option::take) {
            matched.push((req, resp, arrived.saturating_duration_since(at)));
        }
    }
    let unmatched = collected_len - matched.len();
    telemetry::counter_add("loadgen.unmatched_response", unmatched as u64);
    matched
}

impl<R: ServeRequest> Driven<R> {
    /// Summarize the run. Every plane's report comes from this one tally.
    pub fn report(&self) -> LoadReport {
        let mut r = LoadReport {
            kernel: self.label.clone(),
            offered: self.exchanges.len(),
            wall: self.wall,
            hedges: self.hedges,
            hedge_wins: self.hedge_wins,
            shards: self.shards.clone(),
            ..LoadReport::default()
        };
        let mut lat_us: Vec<f64> = Vec::with_capacity(r.offered);
        for (_, resp, rtt) in &self.exchanges {
            // Exhaustive on purpose: a catch-all `Err(_)` arm here once
            // collapsed UnknownKernel, Unservable, and ShuttingDown into one
            // opaque count, and a new Rejected variant would silently join
            // them. Now adding a variant fails to compile until the report
            // accounts for it.
            match &resp.outcome {
                Ok(_) => {
                    r.served += 1;
                    let us = rtt.as_secs_f64() * 1e6;
                    // A Duration cannot produce NaN/Inf microseconds; catch it
                    // at sample time if that ever changes.
                    debug_assert!(us.is_finite(), "non-finite latency sample: {us}");
                    lat_us.push(us);
                }
                Err(Rejected::QueueFull { .. }) => r.shed_queue_full += 1,
                Err(Rejected::DeadlineExceeded { .. }) => r.shed_deadline += 1,
                Err(Rejected::InvalidInput { .. }) => r.invalid_input += 1,
                Err(Rejected::Internal { .. }) => r.internal += 1,
                Err(Rejected::UnknownKernel { .. }) => r.rejected_unknown_kernel += 1,
                Err(Rejected::Unservable { .. }) => r.rejected_unservable += 1,
                Err(Rejected::ShuttingDown) => r.rejected_shutdown += 1,
            }
        }
        // Total order even in release builds where the debug_assert above is
        // compiled out: NaN sorts last instead of panicking the summary.
        lat_us.sort_by(f64::total_cmp);
        // Shared nearest-rank convention; the percentiles stay at the 0.0
        // sentinel when nothing was served.
        if !lat_us.is_empty() {
            r.p50_us = telemetry::nearest_rank(&lat_us, 0.50);
            r.p95_us = telemetry::nearest_rank(&lat_us, 0.95);
            r.p99_us = telemetry::nearest_rank(&lat_us, 0.99);
        }
        r.throughput = r.served as f64 / self.wall.as_secs_f64().max(1e-9);
        r
    }
}

/// One step of a peak-sustainable-load search: the offered open-loop
/// rate and what the serving plane did with it.
#[derive(Debug, Clone, PartialEq)]
pub struct PeakStep {
    /// Offered arrival rate, requests/second.
    pub rate_hz: f64,
    /// Requests injected over the window.
    pub offered: usize,
    /// Requests priced.
    pub served: usize,
    /// Requests shed (queue-full + deadline).
    pub shed: usize,
    /// Requests answered with any other rejection (invalid input,
    /// internal, shutdown).
    pub other_rejected: usize,
}

impl PeakStep {
    /// A step is *sustained* when every offered request was priced:
    /// zero shed, zero other rejections, over the full window.
    pub fn sustained(&self) -> bool {
        self.shed == 0 && self.other_rejected == 0 && self.served == self.offered
    }
}

/// The highest *sustained* rate among `steps` (0.0 when no step was
/// sustained). This is what "peak sustainable load" means in
/// `BENCH_<n>.json`: the last zero-shed step, **not** the last attempted
/// one — a search that stops on its first shedding step would otherwise
/// report a rate it just proved unsustainable.
pub fn last_sustained_hz(steps: &[PeakStep]) -> f64 {
    steps
        .iter()
        .rev()
        .find(|s| s.sustained())
        .map(|s| s.rate_hz)
        .unwrap_or(0.0)
}

/// Peak-search schedule: geometric rate steps over fixed windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakSearchConfig {
    /// First offered rate, requests/second.
    pub start_hz: f64,
    /// Per-step rate multiplier (> 1).
    pub growth: f64,
    /// Maximum number of steps.
    pub max_steps: usize,
    /// Window length per step, seconds (arrivals = rate × window).
    pub window_secs: f64,
    /// Seed for the option-parameter stream (stepped per step).
    pub seed: u64,
}

impl Default for PeakSearchConfig {
    fn default() -> Self {
        Self {
            start_hz: 500.0,
            growth: 1.6,
            max_steps: 8,
            window_secs: 0.2,
            seed: 0xBEA7,
        }
    }
}

/// A finished peak search.
#[derive(Debug, Clone, PartialEq)]
pub struct PeakReport {
    /// Every step attempted, in order.
    pub steps: Vec<PeakStep>,
    /// The last rate the search offered (may well have shed).
    pub last_attempted_hz: f64,
}

impl PeakReport {
    /// Peak sustainable load: see [`last_sustained_hz`].
    pub fn sustained_hz(&self) -> f64 {
        last_sustained_hz(&self.steps)
    }
}

/// Hard cap on arrivals per peak-search window. A degenerate config
/// (`rate * window` overflowing, or non-finite) used to convert straight
/// through `as usize`, allocating a send-timestamp vector for billions
/// of arrivals; any window that would exceed this cap is almost
/// certainly a config bug, not a real measurement.
pub const MAX_WINDOW_TOTAL: usize = 1_000_000;

/// Arrivals for one peak-search window: `rate_hz * window_secs`, clamped
/// to `[32, MAX_WINDOW_TOTAL]`. Non-finite or non-positive products
/// (NaN rate, infinite window, negative either) fall back to the floor
/// instead of whatever `as usize` saturates them to.
pub fn window_total(rate_hz: f64, window_secs: f64) -> usize {
    let product = rate_hz * window_secs;
    if !product.is_finite() || product <= 0.0 {
        return 32;
    }
    if product >= MAX_WINDOW_TOTAL as f64 {
        return MAX_WINDOW_TOTAL;
    }
    (product as usize).clamp(32, MAX_WINDOW_TOTAL)
}

/// Generic peak search: step the offered rate geometrically per
/// [`PeakSearchConfig`], driving each step through `step(rate_hz, total,
/// seed)`, stopping at the first step that wasn't sustained (or at
/// `max_steps`).
pub fn search_peak(
    cfg: &PeakSearchConfig,
    mut step: impl FnMut(f64, usize, u64) -> PeakStep,
) -> PeakReport {
    let mut steps = Vec::new();
    let mut rate = cfg.start_hz.max(1.0);
    let growth = cfg.growth.max(1.01);
    let mut last_attempted_hz = 0.0;
    for i in 0..cfg.max_steps {
        let total = window_total(rate, cfg.window_secs);
        let s = step(rate, total, mix_seed(cfg.seed, i as u64));
        last_attempted_hz = rate;
        let sustained = s.sustained();
        steps.push(s);
        if !sustained {
            break;
        }
        rate *= growth;
    }
    PeakReport {
        steps,
        last_attempted_hz,
    }
}

/// Search for the peak sustainable open-loop load from `source`.
/// `make_server` builds a fresh server per step so queue state, breaker
/// state, and latency histograms never leak across steps.
pub fn find_peak_sustained<S: RequestSource + ?Sized>(
    mut make_server: impl FnMut() -> Server,
    source: &S,
    cfg: &PeakSearchConfig,
) -> PeakReport {
    search_peak(cfg, |rate_hz, total, seed| {
        let server = make_server();
        let r = run_load(
            &server,
            source,
            LoadMode::Open { rate_hz, total },
            seed,
            None,
        );
        server.shutdown();
        r.peak_step(rate_hz)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pricer::PricerConfig;
    use crate::request::PriceResponse;
    use crate::server::ServeConfig;

    fn quick_server(capacity: usize) -> Server {
        Server::start(ServeConfig {
            queue_capacity: capacity,
            max_delay: Duration::from_micros(200),
            max_batch: 256,
            pricer: PricerConfig {
                binomial_steps: 16,
                ..PricerConfig::default()
            },
            ..ServeConfig::default()
        })
    }

    #[test]
    fn option_stream_is_deterministic_and_in_range() {
        let mut a = OptionStream::new(42);
        let mut b = OptionStream::new(42);
        for _ in 0..100 {
            let (s, x, t) = a.next_option();
            assert_eq!((s, x, t), b.next_option());
            assert!((5.0..30.0).contains(&s), "{s}");
            assert!((1.0..100.0).contains(&x), "{x}");
            assert!((0.25..10.0).contains(&t), "{t}");
        }
        assert_ne!(
            OptionStream::new(1).next_option(),
            OptionStream::new(2).next_option()
        );
    }

    #[test]
    fn closed_loop_serves_every_request_with_ample_capacity() {
        let server = quick_server(1024);
        let report = run_load(
            &server,
            "black_scholes",
            LoadMode::Closed {
                clients: 3,
                requests_per_client: 40,
            },
            7,
            None,
        );
        assert_eq!(report.offered, 120);
        assert_eq!(report.served, 120);
        assert_eq!(report.total_shed(), 0);
        assert!(report.throughput > 0.0);
        assert!(report.p50_us > 0.0 && report.p50_us <= report.p99_us);
        assert_eq!(server.shutdown().total_shed(), 0);
    }

    #[test]
    fn load_reports_carry_per_shard_activity_deltas_not_totals() {
        let server = Server::start(ServeConfig {
            queue_capacity: 1024,
            max_delay: Duration::from_micros(200),
            shards: 2,
            ..ServeConfig::default()
        });
        let mode = |n: usize| LoadMode::Closed {
            clients: 2,
            requests_per_client: n,
        };
        let report = run_load(&server, "black_scholes", mode(30), 3, None);
        assert_eq!(report.offered, 60);
        assert_eq!(report.shards.len(), 2);
        assert!(report.shards.iter().all(|s| s.alive));
        let submitted: u64 = report.shards.iter().map(|s| s.submitted).sum();
        let served: u64 = report.shards.iter().map(|s| s.served).sum();
        assert_eq!(submitted, 60);
        assert_eq!(served, 60);
        // A second run reports only its own delta, not cumulative
        // totals, so per-run availability stays meaningful.
        let again = run_load(&server, "black_scholes", mode(5), 4, None);
        let submitted2: u64 = again.shards.iter().map(|s| s.submitted).sum();
        let served2: u64 = again.shards.iter().map(|s| s.served).sum();
        assert_eq!(submitted2, 10);
        // Stolen work serves at the thief, so a single shard's
        // availability may sit either side of 1.0 — the deltas still
        // account for every request of *this* run exactly once.
        assert_eq!(served2, 10);
        server.shutdown();
    }

    /// Hedge every request of a 2 x 4 closed loop after `delay`: each
    /// logical request must still appear exactly once, under its untagged
    /// id, answered.
    fn hedged_run_dedups<S: RequestSource + ?Sized>(source: &S, delay: Duration) -> LoadReport {
        let server = Server::start(ServeConfig {
            queue_capacity: 1024,
            pricer: PricerConfig {
                binomial_steps: 2048,
                ..PricerConfig::default()
            },
            ..ServeConfig::default()
        });
        let before_h = telemetry::counter_value("loadgen.hedges");
        let driven = drive(
            &server,
            source,
            LoadMode::Closed {
                clients: 2,
                requests_per_client: 4,
            },
            21,
            None,
            Some(HedgePolicy { delay }),
        );
        let mut ids: Vec<u64> = driven.exchanges.iter().map(|(_, r, _)| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..8).collect::<Vec<u64>>(), "{}", source.label());
        let report = driven.report();
        assert_eq!(report.offered, 8, "{report:?}");
        assert_eq!(report.served, 8, "{report:?}");
        assert!(report.hedge_wins <= report.hedges, "{report:?}");
        // Other tests of this binary hedge too: the name moved by at
        // least this run's count.
        assert!(telemetry::counter_value("loadgen.hedges") >= before_h + report.hedges as u64);
        server.shutdown();
        report
    }

    #[test]
    fn hedged_closed_loop_dedups_to_one_response_per_request() {
        // A tree deep enough, and a book big enough, that one request
        // takes milliseconds: the work itself outlasts the hedge delay,
        // so every request hedges.
        let delay = Duration::from_micros(100);
        let price = hedged_run_dedups("binomial", delay);
        assert_eq!(price.hedges, 8, "every request outlived the hedge delay");
        let book = PortfolioSource {
            positions: 256,
            scenarios: 512,
            chunk: 0,
        };
        assert_eq!(hedged_run_dedups(&book, delay).hedges, 8);
        // One greeks sweep takes microseconds, so hedge at once: whether a
        // given request hedges is a race, the dedup is not.
        assert!(hedged_run_dedups(&GreeksSource, Duration::ZERO).hedges <= 8);
    }

    #[test]
    fn unhedged_and_open_loop_runs_report_zero_hedges() {
        let server = quick_server(1024);
        let closed = run_load(
            &server,
            "black_scholes",
            LoadMode::Closed {
                clients: 1,
                requests_per_client: 5,
            },
            3,
            None,
        );
        assert_eq!((closed.hedges, closed.hedge_wins), (0, 0));
        // Open-loop ignores the policy by design (module docs).
        let open = drive(
            &server,
            "black_scholes",
            LoadMode::Open {
                rate_hz: 5_000.0,
                total: 50,
            },
            4,
            None,
            Some(HedgePolicy {
                delay: Duration::from_micros(1),
            }),
        )
        .report();
        assert_eq!((open.hedges, open.hedge_wins), (0, 0));
        server.shutdown();
    }

    #[test]
    fn out_of_range_response_ids_are_dropped_and_counted() {
        let resp = |id: u64| PriceResponse {
            id,
            outcome: Err(Rejected::ShuttingDown),
        };
        let before = telemetry::counter_value("loadgen.unmatched_response");
        let now = Instant::now();
        let sent = vec![Some(("first", now)), Some(("second", now))];
        // id 7 is outside the dense [0, 2) range the injector assigned —
        // pre-fix this indexed out of bounds and panicked the report —
        // and the second answer to id 0 has no request left to pair with.
        let collected = vec![
            (resp(0), now),
            (resp(7), now),
            (resp(1), now),
            (resp(0), now),
        ];
        let matched = match_sent(sent, collected);
        assert_eq!(matched.len(), 2);
        assert_eq!((matched[0].0, matched[0].1.id), ("first", 0));
        assert_eq!((matched[1].0, matched[1].1.id), ("second", 1));
        assert!(telemetry::counter_value("loadgen.unmatched_response") >= before + 2);
    }

    fn step(rate_hz: f64, offered: usize, served: usize) -> PeakStep {
        PeakStep {
            rate_hz,
            offered,
            served,
            shed: offered - served,
            other_rejected: 0,
        }
    }

    #[test]
    fn peak_reports_last_sustained_not_last_attempted() {
        // The classic off-by-one this fixes: search stops at 400/s
        // because 400/s shed, so the peak is 200/s.
        let steps = vec![
            step(100.0, 20, 20),
            step(200.0, 40, 40),
            step(400.0, 80, 61),
        ];
        assert_eq!(last_sustained_hz(&steps), 200.0);
        let report = PeakReport {
            steps,
            last_attempted_hz: 400.0,
        };
        assert_eq!(report.sustained_hz(), 200.0);
        assert_ne!(report.sustained_hz(), report.last_attempted_hz);
    }

    #[test]
    fn peak_is_zero_when_nothing_was_sustained() {
        assert_eq!(last_sustained_hz(&[]), 0.0);
        assert_eq!(last_sustained_hz(&[step(100.0, 20, 10)]), 0.0);
    }

    #[test]
    fn a_fully_served_window_with_other_rejections_is_not_sustained() {
        let mut s = step(100.0, 20, 20);
        s.other_rejected = 1;
        assert!(!s.sustained());
    }

    #[test]
    fn peak_search_stops_on_first_shedding_step() {
        // A 1-slot queue sheds as soon as two arrivals land inside one
        // batch execution, so the search ends there or at `max_steps`.
        let cfg = PeakSearchConfig {
            start_hz: 2_000.0,
            growth: 2.0,
            max_steps: 4,
            window_secs: 0.05,
            seed: 3,
        };
        let report = find_peak_sustained(|| quick_server(1), "black_scholes", &cfg);
        assert!(!report.steps.is_empty());
        assert!(report.last_attempted_hz > 0.0);
        assert!(report.sustained_hz() <= report.last_attempted_hz);
        // Every step before the last was sustained; the last either shed
        // or the search ran out of steps.
        for s in &report.steps[..report.steps.len() - 1] {
            assert!(s.sustained(), "{s:?}");
        }
        if let Some(last) = report.steps.last() {
            assert_eq!(
                last.offered,
                last.served + last.shed + last.other_rejected,
                "{last:?}"
            );
        }
    }

    #[test]
    fn peak_search_with_ample_capacity_sustains_every_step() {
        let cfg = PeakSearchConfig {
            start_hz: 100.0,
            growth: 1.5,
            max_steps: 2,
            window_secs: 0.05,
            seed: 5,
        };
        let report = find_peak_sustained(|| quick_server(4096), "black_scholes", &cfg);
        assert_eq!(report.steps.len(), 2);
        assert!(report.steps.iter().all(PeakStep::sustained), "{report:?}");
        assert_eq!(report.sustained_hz(), report.last_attempted_hz);
    }

    fn open_loop_accounts<S: RequestSource + ?Sized>(server: &Server, source: &S) {
        let report = run_load(
            server,
            source,
            LoadMode::Open {
                rate_hz: 5_000.0,
                total: 100,
            },
            11,
            None,
        );
        assert_eq!(report.kernel, source.label());
        assert_eq!(report.offered, 100);
        assert_eq!(
            report.served + report.total_shed() + report.rejected_total(),
            report.offered,
            "{report:?}"
        );
        assert_eq!(report.rejected_total(), 0);
    }

    #[test]
    fn open_loop_accounts_for_every_arrival() {
        let server = quick_server(1024);
        open_loop_accounts(&server, "binomial");
        open_loop_accounts(&server, &GreeksSource);
        open_loop_accounts(&server, &SMALL_BOOK);
        server.shutdown();
    }

    #[test]
    fn window_total_clamps_degenerate_rates_and_windows() {
        // The happy path rounds down and respects the floor.
        assert_eq!(window_total(500.0, 0.2), 100);
        assert_eq!(window_total(10.0, 0.2), 32, "floor at tiny products");
        // Pre-fix, `(rate * window) as usize` at these inputs saturated
        // to usize::MAX (or 0 for NaN), sizing a send-timestamp vector
        // for billions of arrivals before the first request went out.
        // Non-finite products fall to the floor (a config bug, not a
        // measurement); huge-but-finite ones hit the explicit cap.
        assert_eq!(window_total(f64::INFINITY, 0.2), 32);
        assert_eq!(window_total(1e18, 1e18), MAX_WINDOW_TOTAL);
        assert_eq!(window_total(1e9, 1.0), MAX_WINDOW_TOTAL);
        assert_eq!(window_total(f64::NAN, 0.2), 32);
        assert_eq!(window_total(500.0, f64::NAN), 32);
        assert_eq!(window_total(-500.0, 0.2), 32);
        assert_eq!(window_total(500.0, -0.2), 32);
        assert_eq!(window_total(0.0, 0.0), 32);
    }

    #[test]
    fn peak_search_survives_a_non_finite_schedule() {
        // End-to-end regression for the search itself: an infinite
        // window used to blow up sizing the arrival vector before any
        // step ran. Now a non-finite schedule degrades to floor-sized
        // windows and a huge finite one to the cap.
        let run = |window_secs: f64| {
            let cfg = PeakSearchConfig {
                start_hz: 100.0,
                growth: 1.5,
                max_steps: 2,
                window_secs,
                seed: 9,
            };
            let mut totals = Vec::new();
            let report = search_peak(&cfg, |rate_hz, total, _seed| {
                totals.push(total);
                step(rate_hz, total, total)
            });
            assert_eq!(report.steps.len(), 2);
            totals
        };
        assert!(run(f64::INFINITY).iter().all(|&t| t == 32));
        assert!(run(1e18).iter().all(|&t| t == MAX_WINDOW_TOTAL));
    }

    #[test]
    fn hedged_submission_rejects_ids_carrying_the_reserved_bit() {
        let server = quick_server(64);
        let mut stream = OptionStream::new(5);
        let (id, kernel) = (HEDGE_BIT | 3, "black_scholes");
        let policy = Some(HedgePolicy {
            delay: Duration::from_millis(1),
        });
        let (mut hedges, mut wins) = (0, 0);
        let (req, resp, _) = one_hedged(
            &server,
            kernel,
            id,
            None,
            &mut stream,
            policy,
            &mut hedges,
            &mut wins,
        )
        .expect("typed rejection, not a dropped channel");
        assert_eq!((req.id, resp.id), (id, id), "id echoed unmasked");
        assert!(
            matches!(resp.outcome, Err(Rejected::InvalidInput { ref reason }) if reason.contains("bit 63")),
            "{resp:?}"
        );
        assert_eq!((hedges, wins), (0, 0), "nothing was submitted");
        // Un-hedged submission does not interpret the id: the same
        // request goes through and prices normally.
        let (_, unhedged, _) = one_hedged(
            &server,
            kernel,
            id,
            None,
            &mut stream,
            None,
            &mut hedges,
            &mut wins,
        )
        .expect("response");
        // The winner-dedup path masks bit 63 off even for the un-hedged
        // case (it cannot tell a caller tag from a hedge tag — that is
        // exactly why hedged submission rejects such ids).
        assert!(unhedged.outcome.is_ok(), "{unhedged:?}");
        server.shutdown();
    }

    #[test]
    fn mixed_seeds_do_not_collide_where_additive_seeds_did() {
        // The additive scheme's collision: seed s, index i and seed
        // s+1, index i-1 derived the *same* stream, so neighbouring
        // sweep steps replayed each other's clients shifted by one.
        let (s, i) = (0xBEA7u64, 5u64);
        assert_eq!(s.wrapping_add(i), (s + 1).wrapping_add(i - 1));
        assert_ne!(mix_seed(s, i), mix_seed(s + 1, i - 1));
        // No two derived streams across a whole sweep grid share a seed
        // (64 steps × 64 clients, two-level derivation as closed-loop
        // steps would use it).
        let mut seen = std::collections::HashSet::new();
        for step_idx in 0..64u64 {
            let step_seed = mix_seed(0xBEA7, step_idx);
            for client in 0..64u64 {
                assert!(
                    seen.insert(mix_seed(step_seed, client)),
                    "seed collision at step {step_idx}, client {client}"
                );
            }
        }
        // And the streams themselves diverge immediately.
        let a = OptionStream::new(mix_seed(s, i)).next_option();
        let b = OptionStream::new(mix_seed(s + 1, i - 1)).next_option();
        assert_ne!(a, b);
    }

    /// Every answer of a 1 x 3 closed loop must land in the `bucket`
    /// count, and in no other.
    fn all_land_in<S: RequestSource + ?Sized>(
        server: &Server,
        source: &S,
        slo: Option<Duration>,
        bucket: fn(&LoadReport) -> usize,
    ) {
        let mode = LoadMode::Closed {
            clients: 1,
            requests_per_client: 3,
        };
        let r = run_load(server, source, mode, 1, slo);
        assert_eq!(bucket(&r), 3, "{r:?}");
        let everything =
            r.served + r.total_shed() + r.rejected_total() + r.invalid_input + r.internal;
        assert_eq!((r.offered, everything), (3, 3), "{r:?}");
    }

    #[test]
    fn rejection_reasons_are_reported_separately() {
        let server = quick_server(64);
        // "nope" fails registry resolution; "rng" is registered but has
        // no batch-safe serving rung.
        all_land_in(&server, "nope", None, |r| r.rejected_unknown_kernel);
        all_land_in(&server, "rng", None, |r| r.rejected_unservable);
        // A deadline that has passed by the time a worker looks is a
        // deadline shed on every plane, and a book with no positions is
        // invalid input: the greeks and portfolio reports used to file
        // everything but sheds under one "other" count.
        let now = Some(Duration::ZERO);
        all_land_in(&server, "black_scholes", now, |r| r.shed_deadline);
        all_land_in(&server, &GreeksSource, now, |r| r.shed_deadline);
        all_land_in(&server, &SMALL_BOOK, now, |r| r.shed_deadline);
        let empty = PortfolioSource {
            positions: 0,
            ..SMALL_BOOK
        };
        all_land_in(&server, &empty, None, |r| r.invalid_input);
        server.shutdown();
    }

    const SMALL_BOOK: PortfolioSource = PortfolioSource {
        positions: 8,
        scenarios: 32,
        chunk: 16,
    };

    fn client_streams_are_mixed<S: RequestSource + ?Sized>(server: &Server, source: &S)
    where
        S::Req: PartialEq + std::fmt::Debug,
    {
        let (seed, per_client) = (0xBEA7, 3);
        let mode = LoadMode::Closed {
            clients: 2,
            requests_per_client: per_client,
        };
        let mut got = drive(server, source, mode, seed, None, None).exchanges;
        got.sort_by_key(|(_, resp, _)| resp.id);
        let mut want = Vec::new();
        for c in 0..2 {
            let mut stream = OptionStream::new(mix_seed(seed, c));
            for i in 0..per_client as u64 {
                want.push(source.request(c * per_client as u64 + i, None, &mut stream));
            }
        }
        let got: Vec<S::Req> = got.into_iter().map(|(req, _, _)| req).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn every_plane_derives_client_streams_with_mix_seed() {
        // The greeks and portfolio drives used to seed client `c` with
        // `seed + c`, the collision `mix_seed` exists to avoid.
        let server = quick_server(64);
        client_streams_are_mixed(&server, "black_scholes");
        client_streams_are_mixed(&server, &GreeksSource);
        client_streams_are_mixed(&server, &SMALL_BOOK);
        server.shutdown();
    }

    #[test]
    fn offered_is_what_was_answered_not_what_was_scheduled() {
        // A client that loses its channel stops early; the greeks and
        // portfolio reports used to claim `clients * per_client` anyway.
        let answered = |id: u64| {
            let req = GreeksRequest::new(id, 20.0, 21.0, 1.0);
            let outcome = Err(Rejected::ShuttingDown);
            (req, Response { id, outcome }, Duration::from_micros(5))
        };
        let report = Driven {
            label: "greeks".into(),
            exchanges: vec![answered(0), answered(1)],
            hedges: 0,
            hedge_wins: 0,
            wall: Duration::from_millis(1),
            shards: Vec::new(),
        }
        .report();
        assert_eq!((report.offered, report.rejected_shutdown), (2, 2));
    }
}
