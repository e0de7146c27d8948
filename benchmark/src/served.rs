//! The three `serve_*` workloads: a [`Client`] that turns request ids into
//! requests against a running `Server`, and the output oracles that decide
//! whether what came back is right.

use crate::loadgen::{self, Phase, Reply, Target};
use crate::trace::{now_ns, Tracer};
use finbench_core::binomial::reference::price_european;
use finbench_core::greeks::{greeks, Greeks, OptionType};
use finbench_core::portfolio::{revalue_into, var_es, Book, RevalScratch, ScenarioConfig};
use finbench_serve::pricer::scalar_reference;
use finbench_serve::{
    GreeksRequest, GreeksResponse, PortfolioOut, PortfolioRequest, PortfolioResponse, PriceRequest,
    PriceResponse, ServeConfig, Server,
};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;

/// Fixed offered rate of `serve_steady`: ~5 requests per 1 ms batch timer,
/// so batches flush on the timer, nearly empty.
pub const STEADY_HZ: f64 = 10_000.0;
/// Most requests `serve_steady` leaves unanswered before it holds back: half
/// the default 4 096-deep admission queue. In steady state ~7 are in flight;
/// only a host stall gets near the cap (one of 0.46 s, seen once in fifty
/// runs, would otherwise have overflowed the queue and faked 521 sheds).
pub const STEADY_MAX_OUTSTANDING: u64 = 2048;
/// Requests `serve_saturate` keeps in flight: enough to fill size-triggered
/// batches, well inside the admission queue.
pub const SATURATE_IN_FLIGHT: u64 = 1024;
/// Book and grid of one `serve_portfolio` request (524 288 pricings): the
/// registry's full-size portfolio workload, so the served and native
/// numbers describe the same problem.
pub const POSITIONS: usize = 256;
pub const SCENARIOS: usize = 2048;
/// Measured windows per run; each is `--seconds / WINDOWS` long.
const WINDOWS: usize = 30;

const POOL: usize = 1 << 16;
const GIVE_UP: Duration = Duration::from_secs(5);
const NAP: Duration = Duration::from_micros(50);
const CONFIDENCE: [f64; 2] = [0.95, 0.99];

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Mix {
    /// By request index: 70 % Black-Scholes price, 20 % greeks, 10 %
    /// binomial, all through one admission queue.
    Steady,
    /// Black-Scholes prices only.
    Saturate,
    /// Whole-book scenario revaluations.
    Portfolio,
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    BlackScholes,
    Greeks,
    Binomial,
}

impl Mix {
    pub fn pricings_per_op(self) -> f64 {
        match self {
            Mix::Portfolio => (POSITIONS * SCENARIOS) as f64,
            _ => 1.0,
        }
    }

    fn kind(self, id: u64) -> Kind {
        match (self, id % 10) {
            (Mix::Steady, 7 | 8) => Kind::Greeks,
            (Mix::Steady, 9) => Kind::Binomial,
            _ => Kind::BlackScholes,
        }
    }

    fn kinds(self) -> &'static [Kind] {
        match self {
            Mix::Steady => &[Kind::BlackScholes, Kind::Greeks, Kind::Binomial],
            _ => &[Kind::BlackScholes],
        }
    }
}

/// splitmix64: the benchmark's own input generator, so inputs for a seed do
/// not change when the product's RNGs do.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// Contracts over the paper's ranges: spot 5-30, strike 1-100, expiry
/// 0.25-10 years.
pub fn contract_pool(seed: u64, n: usize) -> Vec<(f64, f64, f64)> {
    let mut rng = SplitMix(seed);
    (0..n)
        .map(|_| {
            (
                rng.range(5.0, 30.0),
                rng.range(1.0, 100.0),
                rng.range(0.25, 10.0),
            )
        })
        .collect()
}

/// A sampled reply kept until the phase is over, when the oracle runs.
enum Sample {
    Price { id: u64, call: f64, put: f64 },
    Greeks { id: u64, call: Greeks, put: Greeks },
    Portfolio { id: u64, out: PortfolioOut },
}

pub struct Client {
    server: Server,
    config: ServeConfig,
    mix: Mix,
    seed: u64,
    pool: Vec<(f64, f64, f64)>,
    price: (Sender<PriceResponse>, Receiver<PriceResponse>),
    greeks: (Sender<GreeksResponse>, Receiver<GreeksResponse>),
    portfolio: (Sender<PortfolioResponse>, Receiver<PortfolioResponse>),
    samples: Vec<Sample>,
}

impl Client {
    /// Everything up to and including the first op: inputs from the seed, a
    /// server of `shards` shards with otherwise default configuration, and one
    /// answered request per lane the mix uses. `Err` when a first reply is
    /// missing or a rejection.
    pub fn setup(mix: Mix, shards: usize, seed: u64) -> Result<Self, String> {
        let config = ServeConfig {
            shards,
            ..ServeConfig::default()
        };
        let mut client = Self {
            pool: contract_pool(seed, POOL),
            server: Server::start(config),
            config,
            mix,
            seed,
            price: channel(),
            greeks: channel(),
            portfolio: channel(),
            samples: Vec::new(),
        };
        // Ids far above any a run reaches pick one request of each kind.
        let first = u64::MAX - u64::MAX % 10;
        for (k, kind) in mix.kinds().iter().enumerate() {
            let id = (first - 10..first)
                .find(|&id| mix.kind(id) == *kind)
                .expect("ten consecutive ids cover the mix");
            client.submit(id);
            match client.poll(true) {
                Some(r) if r.ok => {}
                _ => return Err(format!("first {kind:?} request (lane {k}) was not served")),
            }
        }
        client.samples.clear();
        Ok(client)
    }

    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Run one measurement phase of `seconds`, plus its warm-up window.
    pub fn measure(&mut self, seconds: f64, tracer: &mut Tracer) -> Phase {
        let window_secs = seconds / WINDOWS as f64;
        match self.mix {
            Mix::Steady => loadgen::open_loop(
                self,
                STEADY_HZ,
                STEADY_MAX_OUTSTANDING,
                WINDOWS,
                window_secs,
                tracer,
            ),
            Mix::Saturate => {
                loadgen::closed_loop(self, SATURATE_IN_FLIGHT, WINDOWS, window_secs, tracer)
            }
            Mix::Portfolio => loadgen::closed_loop(self, 1, WINDOWS, window_secs, tracer),
        }
    }

    fn contract(&self, id: u64) -> (f64, f64, f64) {
        self.pool[id as usize % POOL]
    }

    fn portfolio_seed(&self, id: u64) -> u64 {
        self.seed.wrapping_add(id)
    }

    fn on_price(&mut self, r: PriceResponse) -> Reply {
        match r.outcome {
            Ok(p) => {
                if loadgen::sampled(r.id) {
                    self.samples.push(Sample::Price {
                        id: r.id,
                        call: p.call,
                        put: p.put,
                    });
                }
                reply(r.id, p.latency, p.batch_len)
            }
            Err(_) => failed(r.id),
        }
    }

    fn on_greeks(&mut self, r: GreeksResponse) -> Reply {
        match r.outcome {
            Ok(g) => {
                if loadgen::sampled(r.id) {
                    self.samples.push(Sample::Greeks {
                        id: r.id,
                        call: g.call,
                        put: g.put,
                    });
                }
                reply(r.id, g.latency, g.batch_len)
            }
            Err(_) => failed(r.id),
        }
    }

    fn on_portfolio(&mut self, r: PortfolioResponse) -> Reply {
        match r.outcome {
            Ok(out) => {
                let rep = reply(r.id, out.latency, 0);
                // Each check is a native 524 288-pricing sweep: every 16th.
                if r.id.is_multiple_of(16) {
                    self.samples.push(Sample::Portfolio { id: r.id, out });
                }
                rep
            }
            Err(_) => failed(r.id),
        }
    }

    /// Compare every sampled reply with an independent reference, now that
    /// no window is open: the closed forms in `finbench_core` for prices and
    /// greeks (rel 1e-9), the scalar CRR tree for binomial, and a native
    /// single-threaded `revalue_into::<1>` + `var_es` (bit-identical) for
    /// portfolios. Returns (samples checked, mismatch messages).
    pub fn check(&mut self) -> (u64, Vec<String>) {
        let market = self.config.pricer.market;
        let close = |got: f64, want: f64| (got - want).abs() <= 1e-9 * want.abs().max(1.0);
        let mut bad = Vec::new();
        let samples = std::mem::take(&mut self.samples);
        for sample in &samples {
            match sample {
                Sample::Price { id, call, put } => {
                    let (s, x, t) = self.contract(*id);
                    let want = match self.mix.kind(*id) {
                        Kind::Binomial => {
                            let n = self.config.pricer.binomial_steps;
                            (
                                price_european(s, x, t, market, n, true),
                                price_european(s, x, t, market, n, false),
                            )
                        }
                        _ => scalar_reference(s, x, t, market),
                    };
                    if !(close(*call, want.0) && close(*put, want.1)) {
                        bad.push(format!(
                            "price {id}: got ({call}, {put}), reference {want:?}"
                        ));
                    }
                }
                Sample::Greeks { id, call, put } => {
                    let (s, x, t) = self.contract(*id);
                    for (got, kind) in [(call, OptionType::Call), (put, OptionType::Put)] {
                        let want = greeks(kind, s, x, t, market);
                        let same = close(got.delta, want.delta)
                            && close(got.gamma, want.gamma)
                            && close(got.vega, want.vega)
                            && close(got.theta, want.theta)
                            && close(got.rho, want.rho);
                        if !same {
                            bad.push(format!(
                                "greeks {id} {kind:?}: got {got:?}, reference {want:?}"
                            ));
                        }
                    }
                }
                Sample::Portfolio { id, out } => {
                    let seed = self.portfolio_seed(*id);
                    let book = Book::random(POSITIONS, seed);
                    let grid = ScenarioConfig::standard(SCENARIOS, seed).grid();
                    let mut pnl = Vec::new();
                    revalue_into::<1>(&book, market, &grid, &mut RevalScratch::new(), &mut pnl);
                    let same_bits = pnl.len() == out.pnl.len()
                        && pnl
                            .iter()
                            .zip(&out.pnl)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    if !same_bits {
                        bad.push(format!("portfolio {id}: P&L differs from the native sweep"));
                    } else if out.risk != var_es(&pnl, &CONFIDENCE) {
                        bad.push(format!(
                            "portfolio {id}: VaR/ES differs from the native merge"
                        ));
                    }
                }
            }
        }
        (samples.len() as u64, bad)
    }
}

fn reply(id: u64, latency: Duration, batch_len: usize) -> Reply {
    Reply {
        id,
        ok: true,
        server_ns: latency.as_nanos() as u64,
        batch_len: batch_len as u64,
    }
}

fn failed(id: u64) -> Reply {
    Reply {
        id,
        ok: false,
        server_ns: 0,
        batch_len: 0,
    }
}

fn recv<T>(rx: &Receiver<T>, block: bool) -> Option<T> {
    if block {
        rx.recv_timeout(GIVE_UP).ok()
    } else {
        rx.try_recv().ok()
    }
}

impl Target for Client {
    fn submit(&mut self, id: u64) {
        if self.mix == Mix::Portfolio {
            let req = PortfolioRequest::new(id, self.portfolio_seed(id), POSITIONS, SCENARIOS)
                .with_confidence(CONFIDENCE.to_vec());
            return self.server.submit_portfolio_with(req, &self.portfolio.0);
        }
        let (s, x, t) = self.contract(id);
        match self.mix.kind(id) {
            Kind::BlackScholes => self.server.submit_with(
                PriceRequest::new(id, "black_scholes", s, x, t),
                &self.price.0,
            ),
            Kind::Binomial => self
                .server
                .submit_with(PriceRequest::new(id, "binomial", s, x, t), &self.price.0),
            Kind::Greeks => self
                .server
                .submit_greeks_with(GreeksRequest::new(id, s, x, t), &self.greeks.0),
        }
    }

    fn poll(&mut self, block: bool) -> Option<Reply> {
        match self.mix {
            Mix::Portfolio => recv(&self.portfolio.1, block).map(|r| self.on_portfolio(r)),
            Mix::Saturate => recv(&self.price.1, block).map(|r| self.on_price(r)),
            // Two channels cannot both be blocked on: look at each in turn.
            // A blocking poll (set-up's wait for the first replies; the open
            // loop never blocks) naps between looks. Spinning there can share
            // a vCPU with the worker whose batch timer it waits for, and the
            // reply then comes a scheduler slice late: set-up read 7.7 ms for
            // minutes on end, then 4.1 ms again.
            Mix::Steady => {
                let give_up = now_ns() + GIVE_UP.as_nanos() as u64;
                loop {
                    if let Ok(r) = self.price.1.try_recv() {
                        return Some(self.on_price(r));
                    }
                    if let Ok(r) = self.greeks.1.try_recv() {
                        return Some(self.on_greeks(r));
                    }
                    if !block || now_ns() > give_up {
                        return None;
                    }
                    std::thread::sleep(NAP);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_mix_is_70_20_10_by_index() {
        let count = |k: Kind| (0..1000).filter(|&id| Mix::Steady.kind(id) == k).count();
        assert_eq!(count(Kind::BlackScholes), 700);
        assert_eq!(count(Kind::Greeks), 200);
        assert_eq!(count(Kind::Binomial), 100);
        assert!((0..1000).all(|id| Mix::Saturate.kind(id) == Kind::BlackScholes));
    }

    #[test]
    fn oracle_samples_reach_every_kind_of_the_mix() {
        for kind in Mix::Steady.kinds() {
            let n = (0..100_000)
                .filter(|&id| loadgen::sampled(id) && Mix::Steady.kind(id) == *kind)
                .count();
            assert!(n > 50, "{kind:?}: {n}");
        }
    }

    #[test]
    fn inputs_are_a_function_of_the_seed_and_stay_in_range() {
        let a = contract_pool(7, 1000);
        assert_eq!(a, contract_pool(7, 1000));
        assert_ne!(a, contract_pool(8, 1000));
        for &(s, x, t) in &a {
            assert!((5.0..30.0).contains(&s) && (1.0..100.0).contains(&x));
            assert!((0.25..10.0).contains(&t));
        }
    }
}
