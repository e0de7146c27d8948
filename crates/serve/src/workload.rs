//! The [`ServeWorkload`] seam: one trait describing everything the
//! sharded server needs to run a request plane — request and payload types,
//! the servable degradation ladder, and how to execute a staged batch
//! into reusable scratch buffers.
//!
//! `server.rs` writes its lane plumbing (micro-batching, deadline
//! shedding, breaker supervision, degrade/promote, scatter-back) exactly
//! once, generically over this trait; the pricing, greeks, and portfolio
//! planes are the three implementations — the portfolio plane's unit of
//! work is a scenario-range *chunk* of a fanned-out market-risk request,
//! staged through [`ServeWorkload::stage_extra`] instead of the shared
//! option-contract triple.
//!
//! ## Buffer ownership
//!
//! Each lane owns one [`Scratch`]: the staged `(s, x, t)` triples, the
//! padded SOA batch, and the greeks output sweep. The lane stages into
//! it, the workload's [`compute`](ServeWorkload::compute) fills it, and
//! the lane scatters from it — buffers never cross threads and are
//! recycled across flushes (grown to the largest batch seen, never
//! shrunk), so steady-state batch execution allocates nothing.

use crate::portfolio::{PortfolioChunkOut, PortfolioChunkRequest};
use crate::pricer::{self, padded_batch_into, PricerConfig, ServingRung};
use crate::request::{GreeksOut, GreeksRequest, PriceRequest, Priced, Rejected, Response};
use finbench_core::greeks::GreeksBatchSoa;
use finbench_core::portfolio::{Book, RevalScratch, ScenarioConfig, ScenarioGrid};
use finbench_core::OptionBatchSoa;
use finbench_engine::Engine;
use std::time::{Duration, Instant};

/// Reusable per-lane batch buffers: staged inputs, the padded SOA batch
/// (inputs + price outputs), and the greeks output sweep. Capacities
/// only ever grow, so a lane that has seen its largest flush stops
/// allocating entirely — the zero-alloc steady state ci.sh gates.
#[derive(Default)]
pub struct Scratch {
    /// Staged `(s, x, t)` triples for the flush being executed.
    pub opts: Vec<(f64, f64, f64)>,
    /// Padded SOA staging and price outputs.
    pub soa: OptionBatchSoa,
    /// Greeks outputs (resized on demand by the greeks workload).
    pub greeks: GreeksBatchSoa,
    /// Portfolio chunk staging and revaluation buffers (used only by the
    /// portfolio lane; empty everywhere else).
    pub portfolio: PortfolioScratch,
}

impl Scratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset the per-flush staging (the contract triples and any
    /// plane-specific request state) before a new flush is staged.
    /// Capacities are kept — this is a `clear`, not a drop.
    pub fn begin_flush(&mut self) {
        self.opts.clear();
        self.portfolio.chunks.clear();
    }

    /// Pad the staged [`opts`](Self::opts) into the SOA batch at the
    /// given lane width. Allocation-free once the batch has grown.
    pub fn stage(&mut self, width: usize) {
        padded_batch_into(&mut self.soa, &self.opts, width);
    }
}

/// The portfolio lane's staging and revaluation state inside [`Scratch`]:
/// the chunk requests of the flush being executed (aligned index-for-index
/// with the lane's flush vector), the cached book, and the reusable grid
/// / revaluation / P&L buffers. The book cache is keyed by `(seed,
/// positions)` — consecutive chunks of the same request (the common case:
/// one fan-out fills a whole micro-batch) rebuild it once, and the other
/// buffers only ever grow, so a warm lane revalues without allocating.
#[derive(Default)]
pub struct PortfolioScratch {
    /// Chunk requests staged for this flush, in flush order.
    pub(crate) chunks: Vec<PortfolioChunkRequest>,
    /// `(seed, positions)` of the cached [`book`](Self::book).
    book_key: Option<(u64, usize)>,
    book: Book,
    grid: ScenarioGrid,
    reval: RevalScratch,
    /// Per-chunk revaluation output before it is appended to `pnl`.
    tmp: Vec<f64>,
    /// Concatenated per-scenario P&L across the flush's chunks.
    pnl: Vec<f64>,
    /// Per-chunk `(offset, len)` spans into [`pnl`](Self::pnl).
    spans: Vec<(usize, usize)>,
}

/// One request plane the sharded server can run: how to key, ladder,
/// batch-execute, and answer its requests. Implementations are stateless
/// marker types; all state lives in the generic lane.
pub trait ServeWorkload: Sized + 'static {
    /// Validated request type carried through the admission queue.
    type Req: Send + 'static;
    /// Per-request success payload, delivered on the envelope's channel
    /// inside a [`Response`].
    type Out: Send + 'static;
    /// One rung of the servable degradation ladder.
    type Rung;

    /// This plane's index in [`PLANES`](crate::ledger::PLANES): where its
    /// tallies sit in a server's ledger and in `ServeSnapshot::planes`.
    const PLANE: usize;

    /// The request's correlation id, echoed on every response.
    fn id(req: &Self::Req) -> u64;
    /// The request's optional completion deadline.
    fn deadline(req: &Self::Req) -> Option<Instant>;
    /// The option contract `(s, x, t)` to stage into the SOA batch.
    fn contract(req: &Self::Req) -> (f64, f64, f64);
    /// Stage any plane-specific per-request state into the scratch —
    /// called once per flushed request, in flush order, right after its
    /// [`contract`](Self::contract) is staged (the flush has already
    /// been deadline-shed, so staged state aligns index-for-index with
    /// the batch that executes). Default: nothing; the portfolio plane
    /// stages its chunk descriptors here.
    fn stage_extra(_req: &Self::Req, _scratch: &mut Scratch) {}
    /// Lane key for this request — also the engine registry kernel the
    /// planner sizes the batch trigger from, and the `<key>` in the
    /// `serve.batch.<key>` / `serve.breaker.<key>` telemetry names.
    fn lane_key(req: &Self::Req) -> &str;

    /// The servable degradation ladder for `key`, most advanced first;
    /// a typed rejection when the key names no servable ladder.
    fn ladder(
        engine: &Engine,
        key: &str,
        config: &PricerConfig,
    ) -> Result<Vec<Self::Rung>, Rejected>;
    /// The rung's ladder slug (reported on every response).
    fn slug(rung: &Self::Rung) -> &str;
    /// The rung's SIMD width (batches are padded to a multiple of it).
    fn width(rung: &Self::Rung) -> usize;

    /// Execute the staged batch in `scratch.soa`, writing results back
    /// into the scratch buffers. Must not allocate at steady state.
    fn compute(rung: &Self::Rung, scratch: &mut Scratch);
    /// The `i`-th staged request's success payload, read back out of the
    /// scratch buffers.
    fn payload(
        scratch: &Scratch,
        i: usize,
        slug: &str,
        batch_len: usize,
        latency: Duration,
    ) -> Self::Out;
}

/// One queued request of workload `W`, with its response channel.
pub(crate) struct Envelope<W: ServeWorkload> {
    pub(crate) req: W::Req,
    pub(crate) submitted: Instant,
    /// True once this request has been redriven off a killed shard to a
    /// live sibling. At most one redrive per request: a second shard
    /// loss rejects instead of re-routing again, so a request can never
    /// ping-pong between dying shards or be delivered twice.
    pub(crate) redriven: bool,
    pub(crate) tx: std::sync::mpsc::Sender<Response<W::Out>>,
}

impl<W: ServeWorkload> Envelope<W> {
    /// A first-attempt envelope submitted now, answering on `tx`.
    pub(crate) fn new(req: W::Req, tx: &std::sync::mpsc::Sender<Response<W::Out>>) -> Self {
        Self {
            req,
            submitted: Instant::now(),
            redriven: false,
            tx: tx.clone(),
        }
    }

    pub(crate) fn deadline(&self) -> Option<Instant> {
        W::deadline(&self.req)
    }

    /// Answer this request — its one terminal response.
    pub(crate) fn answer(&self, outcome: Result<W::Out, Rejected>) {
        let _ = self.tx.send(Response {
            id: W::id(&self.req),
            outcome,
        });
    }
}

/// The batched pricing plane (`PriceRequest` → `Priced`).
pub struct PriceWorkload;

impl ServeWorkload for PriceWorkload {
    type Req = PriceRequest;
    type Out = Priced;
    type Rung = ServingRung;

    const PLANE: usize = 0;

    fn id(req: &PriceRequest) -> u64 {
        req.id
    }
    fn deadline(req: &PriceRequest) -> Option<Instant> {
        req.deadline
    }
    fn contract(req: &PriceRequest) -> (f64, f64, f64) {
        (req.s, req.x, req.t)
    }
    fn lane_key(req: &PriceRequest) -> &str {
        &req.kernel
    }

    fn ladder(
        engine: &Engine,
        key: &str,
        config: &PricerConfig,
    ) -> Result<Vec<ServingRung>, Rejected> {
        pricer::servable_ladder(engine, key, config)
    }
    fn slug(rung: &ServingRung) -> &str {
        &rung.slug
    }
    fn width(rung: &ServingRung) -> usize {
        rung.width
    }

    fn compute(rung: &ServingRung, scratch: &mut Scratch) {
        rung.price(&mut scratch.soa);
    }
    fn payload(
        scratch: &Scratch,
        i: usize,
        slug: &str,
        batch_len: usize,
        latency: Duration,
    ) -> Priced {
        Priced {
            call: scratch.soa.call[i],
            put: scratch.soa.put[i],
            rung: slug.to_string(),
            batch_len,
            latency,
        }
    }
}

/// Stats/telemetry key for the greeks lane (also the registry kernel the
/// planner sizes its batch trigger from).
pub(crate) const GREEKS_LANE: &str = "greeks";

/// The greeks plane (`GreeksRequest` → `GreeksOut`): all ten
/// sensitivities per request, riding the same generic lane code.
pub struct GreeksWorkload;

impl ServeWorkload for GreeksWorkload {
    type Req = GreeksRequest;
    type Out = GreeksOut;
    type Rung = crate::greeks::GreeksRung;

    const PLANE: usize = 1;

    fn id(req: &GreeksRequest) -> u64 {
        req.id
    }
    fn deadline(req: &GreeksRequest) -> Option<Instant> {
        req.deadline
    }
    fn contract(req: &GreeksRequest) -> (f64, f64, f64) {
        (req.s, req.x, req.t)
    }
    fn lane_key(_req: &GreeksRequest) -> &str {
        GREEKS_LANE
    }

    fn ladder(
        _engine: &Engine,
        _key: &str,
        config: &PricerConfig,
    ) -> Result<Vec<crate::greeks::GreeksRung>, Rejected> {
        // The analytic sweep always serves; there is no unservable key.
        Ok(crate::greeks::greeks_ladder(config.market))
    }
    fn slug(rung: &crate::greeks::GreeksRung) -> &str {
        &rung.slug
    }
    fn width(rung: &crate::greeks::GreeksRung) -> usize {
        rung.width
    }

    fn compute(rung: &crate::greeks::GreeksRung, scratch: &mut Scratch) {
        scratch.greeks.resize(scratch.soa.len());
        rung.compute(&scratch.soa, &mut scratch.greeks);
    }
    fn payload(
        scratch: &Scratch,
        i: usize,
        slug: &str,
        batch_len: usize,
        latency: Duration,
    ) -> GreeksOut {
        GreeksOut {
            call: scratch.greeks.call.at(i),
            put: scratch.greeks.put.at(i),
            rung: slug.to_string(),
            batch_len,
            latency,
        }
    }
}

/// Stats/telemetry key for the portfolio lane (also the registry kernel
/// the planner sizes its batch trigger from).
pub(crate) const PORTFOLIO_LANE: &str = "portfolio";

/// The portfolio plane ([`PortfolioChunkRequest`] →
/// [`PortfolioChunkOut`]): scenario-range chunks of fanned-out
/// market-risk requests, riding the same generic lane code. The staged
/// SOA batch carries benign placeholder contracts — a chunk's real
/// payload is its descriptor, staged through
/// [`stage_extra`](ServeWorkload::stage_extra) and reconstructed into
/// book + grid slice at compute time.
pub struct PortfolioWorkload;

impl ServeWorkload for PortfolioWorkload {
    type Req = PortfolioChunkRequest;
    type Out = PortfolioChunkOut;
    type Rung = crate::portfolio::PortfolioRung;

    const PLANE: usize = 2;

    fn id(req: &PortfolioChunkRequest) -> u64 {
        req.id
    }
    fn deadline(req: &PortfolioChunkRequest) -> Option<Instant> {
        req.deadline
    }
    fn contract(_req: &PortfolioChunkRequest) -> (f64, f64, f64) {
        // Placeholder lanes: the portfolio compute never reads the SOA
        // batch, but staging must stay uniform (and benign — never NaN)
        // for the generic lane code.
        (1.0, 1.0, 1.0)
    }
    fn stage_extra(req: &PortfolioChunkRequest, scratch: &mut Scratch) {
        scratch.portfolio.chunks.push(*req);
    }
    fn lane_key(_req: &PortfolioChunkRequest) -> &str {
        PORTFOLIO_LANE
    }

    fn ladder(
        _engine: &Engine,
        _key: &str,
        config: &PricerConfig,
    ) -> Result<Vec<crate::portfolio::PortfolioRung>, Rejected> {
        // Every rung revalues bit-identically; there is no unservable key.
        Ok(crate::portfolio::portfolio_ladder(config.market))
    }
    fn slug(rung: &crate::portfolio::PortfolioRung) -> &str {
        &rung.slug
    }
    fn width(rung: &crate::portfolio::PortfolioRung) -> usize {
        rung.width
    }

    fn compute(rung: &crate::portfolio::PortfolioRung, scratch: &mut Scratch) {
        let p = &mut scratch.portfolio;
        p.pnl.clear();
        p.spans.clear();
        for k in 0..p.chunks.len() {
            let c = p.chunks[k];
            if p.book_key != Some((c.seed, c.positions)) {
                p.book = Book::random(c.positions, c.seed);
                p.book_key = Some((c.seed, c.positions));
            }
            let cfg = ScenarioConfig::standard(c.scenarios, c.seed);
            cfg.fill_grid(c.lo, c.hi, &mut p.grid);
            rung.revalue(&p.book, &p.grid, &mut p.reval, &mut p.tmp);
            let off = p.pnl.len();
            p.pnl.extend_from_slice(&p.tmp);
            p.spans.push((off, p.tmp.len()));
        }
    }
    fn payload(
        scratch: &Scratch,
        i: usize,
        slug: &str,
        batch_len: usize,
        latency: Duration,
    ) -> PortfolioChunkOut {
        let p = &scratch.portfolio;
        let (off, len) = p.spans[i];
        PortfolioChunkOut {
            lo: p.chunks[i].lo,
            pnl: p.pnl[off..off + len].to_vec(),
            rung: slug.to_string(),
            batch_len,
            latency,
        }
    }
}
