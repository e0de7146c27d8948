//! The [`ServeWorkload`] seam: one trait describing everything the
//! sharded server needs to run a request plane — request, result and
//! reply types, the lane's scratch, the servable degradation ladder (a
//! `Vec<`[`Rung`]`<Kernel>>`: slug and width are the rung's, not the
//! plane's), and how to stage and execute a flushed batch.
//!
//! `server.rs` writes its lane plumbing (micro-batching, deadline
//! shedding, breaker supervision, degrade/promote, scatter-back) exactly
//! once, generically over this trait; the pricing, greeks, and portfolio
//! planes are the three implementations. The portfolio plane's unit of
//! work is a scenario-range *chunk* of a fanned-out market-risk request:
//! its lane stages chunk descriptors, not option contracts, and each
//! chunk answers into its request's [`PortfolioFanIn`] instead of a
//! channel.
//!
//! ## Buffer ownership
//!
//! Each lane owns one [`ServeWorkload::Scratch`]: an [`OptionScratch`]
//! (staged `(s, x, t)` triples, the padded SOA batch, the greeks output
//! sweep) for price and greeks, a [`PortfolioScratch`] for portfolio. The
//! lane stages into it, the workload's [`compute`](ServeWorkload::compute)
//! fills it, and the lane scatters from it — buffers never cross threads
//! and are recycled across flushes (grown to the largest batch seen, never
//! shrunk), so steady-state batch execution allocates nothing.

use crate::greeks::GreeksKernel;
use crate::portfolio::{PortfolioChunkOut, PortfolioChunkRequest, PortfolioFanIn, RevalKernel};
use crate::pricer::{self, padded_batch_into, PriceKernel, PricerConfig};
use crate::request::{
    GreeksOut, GreeksRequest, GreeksResponse, PriceRequest, PriceResponse, Priced, Rejected,
    Response,
};
use crate::rung::Rung;
use finbench_core::greeks::GreeksBatchSoa;
use finbench_core::portfolio::{Book, RevalScratch, ScenarioConfig, ScenarioGrid};
use finbench_core::OptionBatchSoa;
use finbench_engine::Registry;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The price and greeks lanes' batch buffers: staged inputs, the padded
/// SOA batch (inputs + price outputs), and the greeks output sweep.
/// Capacities only ever grow, so a lane that has seen its largest flush
/// stops allocating entirely — the zero-alloc steady state ci.sh gates.
#[derive(Default)]
pub struct OptionScratch {
    /// Staged `(s, x, t)` triples for the flush being executed.
    pub opts: Vec<(f64, f64, f64)>,
    /// Padded SOA staging and price outputs.
    pub soa: OptionBatchSoa,
    /// Greeks outputs (resized on demand by the greeks workload).
    pub greeks: GreeksBatchSoa,
}

impl OptionScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pad the staged [`opts`](Self::opts) into the SOA batch at the
    /// given lane width. Allocation-free once the batch has grown.
    pub fn stage(&mut self, width: usize) {
        padded_batch_into(&mut self.soa, &self.opts, width);
    }

    /// Stage one flush's contracts, replacing the last flush's.
    fn stage_contracts(&mut self, contracts: impl Iterator<Item = (f64, f64, f64)>, width: usize) {
        self.opts.clear();
        self.opts.extend(contracts);
        self.stage(width);
    }
}

/// The portfolio lane's scratch: the chunk requests of the flush being
/// executed (aligned index-for-index with the lane's flush vector), the
/// cached book, and the reusable grid / revaluation / P&L buffers. The
/// book cache is keyed by `(seed, positions)` — consecutive chunks of the
/// same request (the common case: one fan-out fills a whole micro-batch)
/// rebuild it once, and the other buffers only ever grow, so a warm lane
/// revalues without allocating.
#[derive(Default)]
pub struct PortfolioScratch {
    /// Chunk requests staged for this flush, in flush order.
    chunks: Vec<PortfolioChunkRequest>,
    /// `(seed, positions)` of the cached [`book`](Self::book).
    book_key: Option<(u64, usize)>,
    book: Book,
    grid: ScenarioGrid,
    reval: RevalScratch,
    /// Per-scenario P&L of each staged chunk, index-aligned with `chunks`.
    pnl: Vec<Vec<f64>>,
}

/// One request plane the sharded server can run: how to key, ladder,
/// stage, batch-execute, and answer its requests. Implementations are
/// stateless marker types; all state lives in the generic lane.
pub trait ServeWorkload: Sized + 'static {
    /// Validated request type carried through the admission queue.
    type Req: Send + 'static;
    /// One request's computed result, handed to its [`Reply`](Self::Reply).
    type Out: Send + 'static;
    /// Where an envelope's one terminal answer goes; every envelope of a
    /// request holds a clone.
    type Reply: Clone + Send + 'static;
    /// The lane's reusable staging and output buffers.
    type Scratch: Default;
    /// The batch body a rung of this plane runs: its ladder is
    /// `Vec<Rung<Self::Kernel>>`.
    type Kernel: ?Sized;

    /// This plane's index in [`PLANES`](crate::ledger::PLANES): where its
    /// tallies sit in a server's ledger and in `ServeSnapshot::planes`.
    const PLANE: usize;

    /// The request's optional completion deadline.
    fn deadline(req: &Self::Req) -> Option<Instant>;
    /// Lane key for this request — also the registry kernel whose rungs
    /// the lane serves (its size trigger is measured on the lane's last
    /// flush), and the `<key>` in the `serve.batch.<key>` /
    /// `serve.breaker.<key>` telemetry names.
    fn lane_key(req: &Self::Req) -> &str;

    /// The servable degradation ladder for `key`, most advanced first;
    /// a typed rejection when the key names no servable ladder.
    fn ladder(
        registry: &Registry,
        key: &str,
        config: &PricerConfig,
    ) -> Result<Vec<Rung<Self::Kernel>>, Rejected>;

    /// Stage a flush's requests — already deadline-shed, in flush order —
    /// into the scratch for a rung `width` lanes wide, replacing the last
    /// flush's. Must not allocate at steady state.
    fn stage<'a>(
        scratch: &mut Self::Scratch,
        reqs: impl Iterator<Item = &'a Self::Req>,
        width: usize,
    );
    /// Execute the staged batch, writing results back into the scratch.
    /// Must not allocate at steady state.
    fn compute(rung: &Rung<Self::Kernel>, scratch: &mut Self::Scratch);
    /// The `i`-th staged request's result, read back out of the scratch.
    fn payload(
        scratch: &Self::Scratch,
        i: usize,
        slug: &str,
        batch_len: usize,
        latency: Duration,
    ) -> Self::Out;
    /// Deliver `req`'s terminal answer to `reply`.
    fn answer(req: &Self::Req, reply: &Self::Reply, outcome: Result<Self::Out, Rejected>);
}

/// One queued request of workload `W`, with where its answer goes.
pub(crate) struct Envelope<W: ServeWorkload> {
    pub(crate) req: W::Req,
    pub(crate) submitted: Instant,
    /// True once this request has been redriven off a killed shard to a
    /// live sibling. At most one redrive per request: a second shard
    /// loss rejects instead of re-routing again, so a request can never
    /// ping-pong between dying shards or be delivered twice.
    pub(crate) redriven: bool,
    pub(crate) reply: W::Reply,
}

impl<W: ServeWorkload> Envelope<W> {
    /// A first-attempt envelope submitted now, answering to `reply`.
    pub(crate) fn new(req: W::Req, reply: &W::Reply) -> Self {
        Self {
            req,
            submitted: Instant::now(),
            redriven: false,
            reply: reply.clone(),
        }
    }

    pub(crate) fn deadline(&self) -> Option<Instant> {
        W::deadline(&self.req)
    }

    /// Answer this request — its one terminal response.
    pub(crate) fn answer(&self, outcome: Result<W::Out, Rejected>) {
        W::answer(&self.req, &self.reply, outcome);
    }
}

/// The batched pricing plane (`PriceRequest` → `Priced`).
pub struct PriceWorkload;

impl ServeWorkload for PriceWorkload {
    type Req = PriceRequest;
    type Out = Priced;
    type Reply = Sender<PriceResponse>;
    type Scratch = OptionScratch;
    type Kernel = PriceKernel;

    const PLANE: usize = 0;

    fn deadline(req: &PriceRequest) -> Option<Instant> {
        req.deadline
    }
    fn lane_key(req: &PriceRequest) -> &str {
        &req.kernel
    }

    fn ladder(
        registry: &Registry,
        key: &str,
        config: &PricerConfig,
    ) -> Result<Vec<Rung<PriceKernel>>, Rejected> {
        pricer::servable_ladder(registry, key, config)
    }

    fn stage<'a>(
        scratch: &mut OptionScratch,
        reqs: impl Iterator<Item = &'a PriceRequest>,
        width: usize,
    ) {
        scratch.stage_contracts(reqs.map(|r| (r.s, r.x, r.t)), width);
    }
    fn compute(rung: &Rung<PriceKernel>, scratch: &mut OptionScratch) {
        rung.price(&mut scratch.soa);
    }
    fn payload(
        scratch: &OptionScratch,
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
    fn answer(req: &Self::Req, tx: &Self::Reply, out: Result<Self::Out, Rejected>) {
        let id = req.id;
        let _ = tx.send(Response { id, outcome: out });
    }
}

/// Stats/telemetry key for the greeks lane (its size trigger is measured
/// on the lane's last flush).
pub(crate) const GREEKS_LANE: &str = "greeks";

/// The greeks plane (`GreeksRequest` → `GreeksOut`): all ten
/// sensitivities per request, riding the same generic lane code.
pub struct GreeksWorkload;

impl ServeWorkload for GreeksWorkload {
    type Req = GreeksRequest;
    type Out = GreeksOut;
    type Reply = Sender<GreeksResponse>;
    type Scratch = OptionScratch;
    type Kernel = GreeksKernel;

    const PLANE: usize = 1;

    fn deadline(req: &GreeksRequest) -> Option<Instant> {
        req.deadline
    }
    fn lane_key(_req: &GreeksRequest) -> &str {
        GREEKS_LANE
    }

    fn ladder(
        _registry: &Registry,
        _key: &str,
        config: &PricerConfig,
    ) -> Result<Vec<Rung<GreeksKernel>>, Rejected> {
        // The analytic sweep always serves; there is no unservable key.
        Ok(crate::greeks::greeks_ladder(config.market))
    }

    fn stage<'a>(
        scratch: &mut OptionScratch,
        reqs: impl Iterator<Item = &'a GreeksRequest>,
        width: usize,
    ) {
        scratch.stage_contracts(reqs.map(|r| (r.s, r.x, r.t)), width);
    }
    fn compute(rung: &Rung<GreeksKernel>, scratch: &mut OptionScratch) {
        scratch.greeks.resize(scratch.soa.len());
        rung.compute(&scratch.soa, &mut scratch.greeks);
    }
    fn payload(
        scratch: &OptionScratch,
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
    fn answer(req: &Self::Req, tx: &Self::Reply, out: Result<Self::Out, Rejected>) {
        let id = req.id;
        let _ = tx.send(Response { id, outcome: out });
    }
}

/// Stats/telemetry key for the portfolio lane (its size trigger, in
/// chunks, is measured on the lane's last flush).
pub(crate) const PORTFOLIO_LANE: &str = "portfolio";

/// The portfolio plane ([`PortfolioChunkRequest`] →
/// [`PortfolioChunkOut`]): scenario-range chunks of fanned-out
/// market-risk requests, riding the same generic lane code. A chunk is
/// staged as its descriptor and reconstructed into book + grid slice at
/// compute time; its answer lands in the request's [`PortfolioFanIn`].
pub struct PortfolioWorkload;

impl ServeWorkload for PortfolioWorkload {
    type Req = PortfolioChunkRequest;
    type Out = PortfolioChunkOut;
    type Reply = Arc<PortfolioFanIn>;
    type Scratch = PortfolioScratch;
    type Kernel = RevalKernel;

    const PLANE: usize = 2;

    fn deadline(req: &PortfolioChunkRequest) -> Option<Instant> {
        req.deadline
    }
    fn lane_key(_req: &PortfolioChunkRequest) -> &str {
        PORTFOLIO_LANE
    }

    fn ladder(
        _registry: &Registry,
        _key: &str,
        config: &PricerConfig,
    ) -> Result<Vec<Rung<RevalKernel>>, Rejected> {
        // Every rung revalues bit-identically; there is no unservable key.
        Ok(crate::portfolio::portfolio_ladder(config.market))
    }

    fn stage<'a>(
        scratch: &mut PortfolioScratch,
        reqs: impl Iterator<Item = &'a PortfolioChunkRequest>,
        _width: usize,
    ) {
        scratch.chunks.clear();
        scratch.chunks.extend(reqs.copied());
    }
    fn compute(rung: &Rung<RevalKernel>, p: &mut PortfolioScratch) {
        // Grown, never shrunk: a warm lane reuses every chunk's buffer.
        if p.pnl.len() < p.chunks.len() {
            p.pnl.resize_with(p.chunks.len(), Vec::new);
        }
        for (c, pnl) in p.chunks.iter().zip(&mut p.pnl) {
            if p.book_key != Some((c.seed, c.positions)) {
                p.book = Book::random(c.positions, c.seed);
                p.book_key = Some((c.seed, c.positions));
            }
            ScenarioConfig::standard(c.scenarios, c.seed).fill_grid(c.lo, c.hi, &mut p.grid);
            rung.revalue(&p.book, &p.grid, &mut p.reval, pnl);
        }
    }
    fn payload(
        p: &PortfolioScratch,
        i: usize,
        slug: &str,
        _batch_len: usize,
        _latency: Duration,
    ) -> PortfolioChunkOut {
        PortfolioChunkOut {
            lo: p.chunks[i].lo,
            pnl: p.pnl[i].clone(),
            rung: slug.to_string(),
        }
    }
    fn answer(_: &Self::Req, fan_in: &Self::Reply, out: Result<Self::Out, Rejected>) {
        fan_in.land(out);
    }
}
