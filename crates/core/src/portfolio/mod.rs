//! Portfolio market risk: deterministic scenario grids, full-book
//! revaluation, and VaR / expected-shortfall aggregation.
//!
//! The paper's six kernels price one instrument at a time; the
//! production workload that motivates them is full-book **scenario
//! revaluation**: a book of `n` option positions repriced under `m`
//! shocked market scenarios (spot, volatility, and rate shocks), whose
//! per-scenario P&L distribution is summarized into Value-at-Risk and
//! expected shortfall. That is `n × m` Black-Scholes pricings per
//! request — the natural stress case for both the SIMD pricing ladders
//! and the sharded serving plane.
//!
//! Three design rules keep the plane reproducible end to end:
//!
//! * **Split-invariant grids** — each scenario's shocks are drawn from
//!   its own [`StreamFamily`] member (stream id = scenario index), so
//!   [`ScenarioConfig::fill_grid`] over any `[lo, hi)` sub-range is
//!   bit-identical to slicing the full grid. Chunking scenarios across
//!   shards or threads can never change a single bit of the result.
//! * **Tail-free, hoisted revaluation** — the staged book is padded to
//!   [`PAD_WIDTH`] (the widest SIMD rung), so every width runs its vector
//!   body over the whole batch with no scalar remainder loop, and the
//!   lane arithmetic is width-invariant: the scalar / W=4 / W=8 sweeps
//!   are bit-exact among themselves. Only the call leg is priced (the
//!   P&L reads nothing else), what depends on the position alone
//!   (`ln(s/x)`, `√t`) is computed once per book and what depends on the
//!   scenario alone (`ln(1+spot)`, `r + σ²/2`) once per scenario, so a
//!   (position, scenario) pair costs two `exp` (the discount and one
//!   Gaussian serving both `Φ`), the division by `σ√t` and one division
//!   shared by both of `Φ`'s rationals — no `ln`, no `s/x`, no root.
//! * **Strided fixed-order reduction** — position `i`'s P&L term is added
//!   to partial `i mod PAD_WIDTH` on every rung and the [`PAD_WIDTH`]
//!   partials are combined lane 0 first, so every width (and every ISA
//!   tier) forms the same sums in the same order; scenario chunks
//!   concatenate in scenario order, so parallel and serial revaluation
//!   agree.
//!
//! Aggregation ([`var_es`]) reuses the workspace-wide nearest-rank
//! quantile convention (`finbench_telemetry::stats::nearest_rank`) on
//! the sorted loss distribution, with a distribution-free order-statistic
//! confidence interval for VaR and a standard error for the tail mean.

use crate::black_scholes::soa::{call_hoisted, ShockedMarket};
use crate::workload::{MarketParams, OptionBatchSoa, WorkloadRanges};
use finbench_parallel::{available_parallelism, parallel_for_chunks};
use finbench_rng::uniform::{fill_uniform, fill_uniform_range};
use finbench_rng::StreamFamily;
use finbench_simd::math::vln;
use finbench_simd::{isa_fn, F64v, Lanes};
use finbench_telemetry::nearest_rank;
use std::cell::RefCell;

/// Pad width for the staged book: the widest SIMD rung, and the stride
/// of the P&L partial sums. Padding every rung to the same multiple
/// keeps the revaluation tail-free at every width (a scalar remainder
/// loop would use different — scalar-library — arithmetic than the
/// vector body), and summing position `i` into partial `i mod PAD_WIDTH`
/// at every width is what makes the W=1/4/8 sweeps bit-exact.
pub const PAD_WIDTH: usize = 8;

/// A book of option positions: one call contract per slot with a signed
/// quantity (negative = short). Contracts live in the same SOA layout
/// the pricing kernels consume.
#[derive(Debug, Clone, Default)]
pub struct Book {
    /// Position contracts `(s, x, t)` in SOA layout (outputs unused).
    pub opts: OptionBatchSoa,
    /// Signed position size per contract.
    pub qty: Vec<f64>,
}

impl Book {
    /// A reproducible random book of `n` positions: contracts from the
    /// paper's workload ranges, quantities uniform in `[-100, 100)`.
    /// Pure function of `(n, seed)` — the serving plane reconstructs the
    /// same book from the request's parameters instead of shipping it.
    pub fn random(n: usize, seed: u64) -> Self {
        let opts = OptionBatchSoa::random(n, seed, WorkloadRanges::default());
        let mut qty = vec![0.0; n];
        let mut rng = StreamFamily::new(seed).stream(QTY_STREAM);
        fill_uniform_range(&mut rng, &mut qty, -100.0, 100.0);
        Self { opts, qty }
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.opts.len()
    }

    /// True when the book holds no positions.
    pub fn is_empty(&self) -> bool {
        self.opts.is_empty()
    }
}

/// Stream id for the book's quantity draws. Scenario shocks use stream
/// ids `0..scenarios` under the *grid* seed; quantities draw under the
/// *book* seed, so even seed-sharing configs cannot alias (and the id
/// sits far above any practical scenario count regardless).
const QTY_STREAM: u64 = 1 << 40;

/// Scenario-grid shape: how many scenarios and how hard each market
/// dimension is shocked. Shocks are symmetric uniforms: spot and vol
/// multiplicative in `±spot_shock` / `±vol_shock`, the rate additive in
/// `±rate_shock`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Total scenarios in the grid.
    pub scenarios: usize,
    /// Max relative spot shock (e.g. `0.10` = ±10%).
    pub spot_shock: f64,
    /// Max relative volatility shock.
    pub vol_shock: f64,
    /// Max absolute rate shock (e.g. `0.01` = ±100bp).
    pub rate_shock: f64,
    /// Family seed for the shock draws.
    pub seed: u64,
}

impl ScenarioConfig {
    /// The standard shock magnitudes every experiment and the serving
    /// plane share: ±10% spot, ±25% vol, ±100bp rate. The vol shock is
    /// strictly below 1, so shocked volatility stays positive.
    pub fn standard(scenarios: usize, seed: u64) -> Self {
        Self {
            scenarios,
            spot_shock: 0.10,
            vol_shock: 0.25,
            rate_shock: 0.01,
            seed,
        }
    }

    /// Generate the full grid.
    pub fn grid(&self) -> ScenarioGrid {
        let mut g = ScenarioGrid::default();
        self.fill_grid(0, self.scenarios, &mut g);
        g
    }

    /// Fill `out` with the shocks for scenarios `[lo, hi)` — reusing its
    /// capacity, so a recycled grid stops allocating once it has seen
    /// its largest chunk.
    ///
    /// Split-invariant: scenario `j` draws from family stream `j`
    /// regardless of the requested range, so any chunking of `[0,
    /// scenarios)` concatenates bit-identically to the full grid.
    pub fn fill_grid(&self, lo: usize, hi: usize, out: &mut ScenarioGrid) {
        assert!(
            lo <= hi && hi <= self.scenarios,
            "scenario range {lo}..{hi} out of bounds for {} scenarios",
            self.scenarios
        );
        let n = hi - lo;
        out.spot.clear();
        out.spot.resize(n, 0.0);
        out.vol.clear();
        out.vol.resize(n, 0.0);
        out.rate.clear();
        out.rate.resize(n, 0.0);
        let fam = StreamFamily::new(self.seed);
        let mut draws = [0.0f64; 3];
        for (row, j) in (lo..hi).enumerate() {
            let mut rng = fam.stream(j as u64);
            fill_uniform(&mut rng, &mut draws);
            out.spot[row] = self.spot_shock * (2.0 * draws[0] - 1.0);
            out.vol[row] = self.vol_shock * (2.0 * draws[1] - 1.0);
            out.rate[row] = self.rate_shock * (2.0 * draws[2] - 1.0);
        }
    }
}

/// One contiguous run of scenario shocks (the whole grid or a chunk of
/// it), SOA across scenarios.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioGrid {
    /// Relative spot shocks (`s → s·(1 + shock)`).
    pub spot: Vec<f64>,
    /// Relative volatility shocks (`σ → σ·(1 + shock)`).
    pub vol: Vec<f64>,
    /// Additive rate shocks (`r → r + shock`).
    pub rate: Vec<f64>,
}

impl ScenarioGrid {
    /// Number of scenarios in this run.
    pub fn len(&self) -> usize {
        self.spot.len()
    }

    /// True when the run holds no scenarios.
    pub fn is_empty(&self) -> bool {
        self.spot.is_empty()
    }
}

/// The book staged at [`PAD_WIDTH`]: its contracts and, per position,
/// the terms of `d1` that no shock changes.
#[derive(Default)]
struct Staged {
    /// Padded contracts; pad slots are the benign `s = x = t = 1`.
    s: Vec<f64>,
    x: Vec<f64>,
    t: Vec<f64>,
    /// `√t` per position.
    sqrt_t: Vec<f64>,
    /// `ln(s/x)` per position.
    lsx: Vec<f64>,
}

impl Staged {
    /// The revaluation body: `call[i]` = position `i`'s call value under
    /// `m`, `W` positions at a time (`call` covers the padded book, so
    /// there is no remainder).
    #[inline(always)]
    fn calls_into<const W: usize>(&self, m: &ShockedMarket, call: &mut [f64]) {
        let n = call.len();
        let cols = [&self.s, &self.x, &self.t, &self.sqrt_t, &self.lsx];
        let [s, x, t, sqrt_t, lsx] = cols.map(|col| &col[..n]);
        let main = n - n % W;
        let mut i = 0;
        while i < main {
            let at = |col| F64v::<W>::load(col, i);
            call_hoisted(at(s), at(x), at(t), at(sqrt_t), at(lsx), m).store(call, i);
            i += W;
        }
    }
}

/// Caller-owned revaluation buffers: the staged book, its quantities and
/// base (unshocked) values, and one scenario's call values. Capacities
/// only grow, so steady-state revaluation through a recycled scratch
/// allocates nothing.
#[derive(Default)]
pub struct RevalScratch {
    staged: Staged,
    /// Padded quantities; pad slots are `0.0`, so they add nothing.
    qty: Vec<f64>,
    /// Base call value per position under the unshocked market.
    base_call: Vec<f64>,
    /// Call value per position under the scenario being summed.
    call: Vec<f64>,
}

impl RevalScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stage the padded book, its `√t` and `ln(s/x)` and its base values.
    /// Always at [`PAD_WIDTH`], and the base is the revaluation body itself
    /// at zero shock: every width subtracts bit-identical base values, and
    /// a zero-shock scenario's P&L is exactly `0.0`.
    #[inline(always)]
    fn prepare(&mut self, book: &Book, market: MarketParams) {
        let n = book.len();
        let padded = n.div_ceil(PAD_WIDTH) * PAD_WIDTH;
        let stage = |dst: &mut Vec<f64>, src: &[f64], pad: f64| {
            dst.clear();
            dst.extend_from_slice(src);
            dst.resize(padded, pad);
        };
        let staged = &mut self.staged;
        stage(&mut staged.s, &book.opts.s[..n], 1.0);
        stage(&mut staged.x, &book.opts.x[..n], 1.0);
        stage(&mut staged.t, &book.opts.t[..n], 1.0);
        stage(&mut self.qty, &book.qty[..n], 0.0);
        // Sized here, overwritten whole below and by each scenario's sweep.
        for derived in [
            &mut staged.sqrt_t,
            &mut staged.lsx,
            &mut self.base_call,
            &mut self.call,
        ] {
            derived.resize(padded, 0.0);
        }
        let mut i = 0;
        while i < padded {
            let at = |col: &[f64]| F64v::<PAD_WIDTH>::load(col, i);
            at(&staged.t).sqrt().store(&mut staged.sqrt_t, i);
            vln(at(&staged.s) / at(&staged.x)).store(&mut staged.lsx, i);
            i += PAD_WIDTH;
        }
        let base = ShockedMarket::new(market, 0.0, 0.0, 0.0);
        staged.calls_into::<PAD_WIDTH>(&base, &mut self.base_call);
    }

    /// `Σ_i qty_i · (call_i(m) − call_i(base))` over the prepared book:
    /// the width-`W` call sweep, then — the same code at every width —
    /// [`PAD_WIDTH`] strided partials combined lane 0 first.
    #[inline(always)]
    fn pnl_under<const W: usize>(&mut self, m: &ShockedMarket) -> f64 {
        self.staged.calls_into::<W>(m, &mut self.call);
        let mut partial = F64v::<PAD_WIDTH>::zero();
        let mut i = 0;
        while i < self.call.len() {
            let at = |col: &[f64]| F64v::<PAD_WIDTH>::load(col, i);
            partial += at(&self.qty) * (at(&self.call) - at(&self.base_call));
            i += PAD_WIDTH;
        }
        partial.hsum()
    }
}

/// Revalue the whole book under every scenario in `grid`, appending one
/// P&L value per scenario to `pnl` (cleared first).
///
/// For scenario `j`: spots become `s·(1 + spot_j)`, volatility
/// `σ·(1 + vol_j)`, rate `r + rate_j`; the shocked call values come from
/// the width-`W` hoisted body over the padded book, and
/// `pnl_j = Σ_i qty_i · (call_i(shocked) − call_i(base))` is accumulated
/// in [`PAD_WIDTH`] strided partials. Bit-exact across `W ∈ {1, 4, 8}`
/// (see [`PAD_WIDTH`]).
pub fn revalue_into<const W: usize>(
    book: &Book,
    market: MarketParams,
    grid: &ScenarioGrid,
    scratch: &mut RevalScratch,
    pnl: &mut Vec<f64>,
) {
    pnl.clear();
    pnl.resize(grid.len(), 0.0);
    revalue_rows::<W>(book, market, grid, scratch, pnl);
}

isa_fn! {
    /// [`revalue_into`] into a caller-owned span: `pnl[j]` receives scenario
    /// `j` of `grid`. The one revaluation body: staging, the per-scenario
    /// scalars, the call sweep and the reduction are all instantiated for
    /// the tier here, and nothing inside dispatches again.
    fn revalue_rows<const W: usize>(
        book: &Book,
        market: MarketParams,
        grid: &ScenarioGrid,
        scratch: &mut RevalScratch,
        pnl: &mut [f64],
    ) {
        assert_eq!(pnl.len(), grid.len(), "one P&L slot per scenario");
        scratch.prepare(book, market);
        for (j, slot) in pnl.iter_mut().enumerate() {
            let shocked = ShockedMarket::new(market, grid.spot[j], grid.vol[j], grid.rate[j]);
            *slot = scratch.pnl_under::<W>(&shocked);
        }
    }
}

/// Thread-parallel full-grid revaluation on the workspace's own
/// chunk-dispenser pool: scenarios are split into `chunk`-sized runs,
/// each worker generating its own grid slice (split-invariant) and
/// revaluing at W=8 straight into its disjoint span of `pnl`. Output
/// order is scenario order, so the result matches the serial W=8 sweep.
pub fn par_revalue(
    book: &Book,
    market: MarketParams,
    cfg: &ScenarioConfig,
    chunk: usize,
    pnl: &mut Vec<f64>,
) {
    thread_local! {
        /// One grid slice + scratch per pool worker, reused across the
        /// chunks that worker pulls.
        static WORKER: RefCell<(ScenarioGrid, RevalScratch)> = RefCell::default();
    }
    pnl.clear();
    pnl.resize(cfg.scenarios, 0.0);
    let workers = available_parallelism();
    parallel_for_chunks(pnl, chunk.max(1), workers, |start, out| {
        WORKER.with_borrow_mut(|(grid, scratch)| {
            cfg.fill_grid(start, start + out.len(), grid);
            revalue_rows::<PAD_WIDTH>(book, market, grid, scratch, out);
        });
    });
}

/// VaR / expected shortfall at one confidence level, with uncertainty.
#[derive(Debug, Clone, PartialEq)]
pub struct RiskSummary {
    /// Confidence level in `(0, 1)` (e.g. `0.99`).
    pub confidence: f64,
    /// Value-at-Risk: the nearest-rank `confidence` quantile of the loss
    /// distribution (losses are `-P&L`; positive = money lost).
    pub var: f64,
    /// Distribution-free 95% confidence interval for the VaR order
    /// statistic (binomial rank bounds, `rank ± 1.96·√(c(1−c)·n)`).
    pub var_ci: (f64, f64),
    /// Expected shortfall: mean loss at or beyond the VaR rank.
    pub es: f64,
    /// Standard error of the tail mean (`tail stddev / √tail_len`).
    pub es_se: f64,
    /// Scenarios in the tail the ES averages over.
    pub tail_len: usize,
}

/// Aggregate a P&L distribution into VaR and expected shortfall at each
/// requested confidence level. NaN P&L values are dropped (matching the
/// workspace percentile convention); an empty distribution yields NaN
/// summaries.
pub fn var_es(pnl: &[f64], confidences: &[f64]) -> Vec<RiskSummary> {
    let mut losses: Vec<f64> = pnl.iter().map(|&p| -p).filter(|v| !v.is_nan()).collect();
    losses.sort_by(f64::total_cmp);
    confidences
        .iter()
        .map(|&c| var_es_sorted(&losses, c))
        .collect()
}

/// [`var_es`] for one confidence level over an already-sorted
/// (ascending, NaN-free) loss distribution.
pub fn var_es_sorted(sorted_losses: &[f64], confidence: f64) -> RiskSummary {
    let n = sorted_losses.len();
    if n == 0 {
        return RiskSummary {
            confidence,
            var: f64::NAN,
            var_ci: (f64::NAN, f64::NAN),
            es: f64::NAN,
            es_se: f64::NAN,
            tail_len: 0,
        };
    }
    let c = confidence.clamp(0.0, 1.0);
    let var = nearest_rank(sorted_losses, c);
    // The same 1-based nearest rank `nearest_rank` lands on.
    let rank = ((c * n as f64).ceil() as usize).clamp(1, n);
    // Order-statistic CI: the VaR estimate is the `rank`-th order
    // statistic; under the binomial model its 95% band spans the order
    // statistics at rank ± 1.96·√(c(1−c)n), clamped into [1, n].
    let half = 1.96 * (c * (1.0 - c) * n as f64).sqrt();
    let lo = ((rank as f64 - half).floor().max(1.0)) as usize;
    let hi = ((rank as f64 + half).ceil() as usize).min(n);
    let var_ci = (sorted_losses[lo - 1], sorted_losses[hi - 1]);
    // ES: mean of the tail at or beyond the VaR rank, in sorted order.
    let tail = &sorted_losses[rank - 1..];
    let tail_len = tail.len();
    let es = tail.iter().sum::<f64>() / tail_len as f64;
    let var_tail = tail.iter().map(|&v| (v - es) * (v - es)).sum::<f64>() / tail_len as f64;
    let es_se = (var_tail / tail_len as f64).sqrt();
    RiskSummary {
        confidence,
        var,
        var_ci,
        es,
        es_se,
        tail_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: MarketParams = MarketParams::PAPER;

    fn reval<const W: usize>(book: &Book, grid: &ScenarioGrid) -> Vec<f64> {
        let mut scratch = RevalScratch::new();
        let mut pnl = Vec::new();
        revalue_into::<W>(book, M, grid, &mut scratch, &mut pnl);
        pnl
    }

    #[test]
    fn books_and_grids_are_reproducible() {
        let a = Book::random(37, 7);
        let b = Book::random(37, 7);
        assert_eq!(a.opts.s, b.opts.s);
        assert_eq!(a.qty, b.qty);
        assert_ne!(a.qty, Book::random(37, 8).qty);
        assert!(a.qty.iter().all(|&q| (-100.0..100.0).contains(&q)));

        let cfg = ScenarioConfig::standard(64, 11);
        assert_eq!(cfg.grid(), cfg.grid());
        let g = cfg.grid();
        assert_eq!(g.len(), 64);
        assert!(!g.is_empty());
        assert!(g.spot.iter().all(|&v| v.abs() <= cfg.spot_shock));
        assert!(g.vol.iter().all(|&v| v.abs() <= cfg.vol_shock));
        assert!(g.rate.iter().all(|&v| v.abs() <= cfg.rate_shock));
    }

    #[test]
    fn grid_chunks_concatenate_bit_identically_to_the_full_grid() {
        let cfg = ScenarioConfig::standard(100, 42);
        let whole = cfg.grid();
        // An intentionally ragged chunking, reusing one grid buffer.
        let mut part = ScenarioGrid::default();
        let mut spot = Vec::new();
        let mut vol = Vec::new();
        let mut rate = Vec::new();
        for (lo, hi) in [(0, 7), (7, 64), (64, 64), (64, 100)] {
            cfg.fill_grid(lo, hi, &mut part);
            spot.extend_from_slice(&part.spot);
            vol.extend_from_slice(&part.vol);
            rate.extend_from_slice(&part.rate);
        }
        assert_eq!(spot, whole.spot);
        assert_eq!(vol, whole.vol);
        assert_eq!(rate, whole.rate);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn grid_range_past_the_config_panics() {
        let cfg = ScenarioConfig::standard(10, 1);
        cfg.fill_grid(5, 11, &mut ScenarioGrid::default());
    }

    #[test]
    fn revaluation_is_bit_exact_across_simd_widths() {
        // A ragged book size: without padding to PAD_WIDTH the scalar
        // remainder loop would break cross-width bit-exactness.
        let book = Book::random(29, 3);
        let grid = ScenarioConfig::standard(33, 9).grid();
        let w1 = reval::<1>(&book, &grid);
        let w4 = reval::<4>(&book, &grid);
        let w8 = reval::<8>(&book, &grid);
        assert_eq!(w1.len(), 33);
        for j in 0..w1.len() {
            assert_eq!(w1[j].to_bits(), w4[j].to_bits(), "scenario {j}");
            assert_eq!(w1[j].to_bits(), w8[j].to_bits(), "scenario {j}");
        }
        assert!(w1.iter().all(|v| v.is_finite()));
        // The grid actually moves the book: P&L is not identically zero.
        assert!(w1.iter().any(|&v| v.abs() > 1e-9));
    }

    #[test]
    fn chunked_revaluation_matches_the_full_sweep_bitwise() {
        // The serving plane's fan-out shape: chunks of scenarios revalued
        // independently (each with its own scratch and grid slice) must
        // concatenate to the native full-grid sweep bit-for-bit.
        let book = Book::random(24, 5);
        let cfg = ScenarioConfig::standard(50, 13);
        let whole = reval::<8>(&book, &cfg.grid());
        let mut chunked = Vec::new();
        let mut grid = ScenarioGrid::default();
        for (lo, hi) in [(0, 17), (17, 32), (32, 50)] {
            cfg.fill_grid(lo, hi, &mut grid);
            chunked.extend(reval::<8>(&book, &grid));
        }
        assert_eq!(whole.len(), chunked.len());
        for j in 0..whole.len() {
            assert_eq!(whole[j].to_bits(), chunked[j].to_bits(), "scenario {j}");
        }
    }

    #[test]
    fn parallel_revaluation_matches_serial() {
        let book = Book::random(16, 2);
        let cfg = ScenarioConfig::standard(40, 21);
        let serial = reval::<8>(&book, &cfg.grid());
        let mut par = Vec::new();
        par_revalue(&book, M, &cfg, 7, &mut par);
        assert_eq!(serial.len(), par.len());
        for j in 0..serial.len() {
            assert_eq!(serial[j].to_bits(), par[j].to_bits(), "scenario {j}");
        }
    }

    #[test]
    fn scratch_reuse_is_bit_stable() {
        let grid = ScenarioConfig::standard(8, 17).grid();
        let mut scratch = RevalScratch::new();
        let mut pnl = Vec::new();
        // Prime the scratch with a *larger* book, then revalue smaller
        // ones: nothing stale — a contract, its `√t` or `ln(s/x)`, a
        // quantity in a slot that is now padding — may leak into the result.
        // 12 and 3 leave pad slots inside the last vector, 16 leaves none.
        revalue_into::<8>(&Book::random(29, 6), M, &grid, &mut scratch, &mut pnl);
        for n in [12, 16, 3] {
            let book = Book::random(n, 4);
            revalue_into::<8>(&book, M, &grid, &mut scratch, &mut pnl);
            let fresh = reval::<8>(&book, &grid);
            assert_eq!(pnl.len(), fresh.len());
            for j in 0..pnl.len() {
                assert_eq!(pnl[j].to_bits(), fresh[j].to_bits(), "n {n} scenario {j}");
            }
        }
    }

    /// The anchor outside the module: every (position, scenario) pair
    /// priced by the scalar closed form on the shocked inputs. Returns the
    /// P&L per scenario and the gross book value the tolerance scales with.
    fn scalar_reference(book: &Book, grid: &ScenarioGrid) -> (Vec<f64>, f64) {
        use crate::black_scholes::price_single;
        let contracts =
            || (0..book.len()).map(|i| (book.opts.s[i], book.opts.x[i], book.opts.t[i]));
        let base: Vec<f64> = contracts()
            .map(|(s, x, t)| price_single(s, x, t, M).0)
            .collect();
        let gross = base.iter().zip(&book.qty).map(|(c, q)| q.abs() * c).sum();
        let pnl = (0..grid.len())
            .map(|j| {
                let shocked = MarketParams {
                    r: M.r + grid.rate[j],
                    sigma: M.sigma * (1.0 + grid.vol[j]),
                };
                contracts()
                    .zip(&base)
                    .zip(&book.qty)
                    .map(|(((s, x, t), c0), q)| {
                        q * (price_single(s * (1.0 + grid.spot[j]), x, t, shocked).0 - c0)
                    })
                    .sum()
            })
            .collect();
        (pnl, gross)
    }

    #[test]
    fn revaluation_matches_the_scalar_closed_form_per_position_and_scenario() {
        let grid = ScenarioConfig::standard(40, 23).grid();
        for n in [1, 7, 8, 9, 29, 256] {
            let book = Book::random(n, 100 + n as u64);
            let (want, gross) = scalar_reference(&book, &grid);
            assert!(gross > 0.0);
            for (w, got) in [
                (1, reval::<1>(&book, &grid)),
                (4, reval::<4>(&book, &grid)),
                (8, reval::<8>(&book, &grid)),
            ] {
                for j in 0..grid.len() {
                    assert!(
                        (got[j] - want[j]).abs() <= 1e-14 * gross,
                        "n {n} W {w} scenario {j}: {} vs {} (gross {gross})",
                        got[j],
                        want[j]
                    );
                }
            }
        }
    }

    #[test]
    fn a_zero_shock_scenario_has_exactly_zero_pnl() {
        let mut grid = ScenarioConfig::standard(5, 31).grid();
        (grid.spot[2], grid.vol[2], grid.rate[2]) = (0.0, 0.0, 0.0);
        for n in [1, 29, 256] {
            let book = Book::random(n, 8);
            for (w, pnl) in [
                (1, reval::<1>(&book, &grid)),
                (4, reval::<4>(&book, &grid)),
                (8, reval::<8>(&book, &grid)),
            ] {
                assert_eq!(pnl[2].to_bits(), 0.0f64.to_bits(), "n {n} W {w}");
                assert!(pnl[1] != 0.0 && pnl[3] != 0.0, "n {n} W {w}");
            }
        }
    }

    #[test]
    fn var_es_on_a_known_distribution() {
        // Losses 1..=100 (P&L = -loss): nearest-rank VaR at 95% is the
        // 95th order statistic = 95, ES is the mean of {95..=100} = 97.5.
        // The same numbers anchor tests/properties.rs — change both.
        let pnl: Vec<f64> = (1..=100).map(|v| -(v as f64)).collect();
        let out = var_es(&pnl, &[0.95, 0.99]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].var, 95.0);
        assert_eq!(out[0].es, 97.5);
        assert_eq!(out[0].tail_len, 6);
        assert_eq!(out[1].var, 99.0);
        assert_eq!(out[1].es, 99.5);
        assert_eq!(out[1].tail_len, 2);
        for r in &out {
            assert!(r.var_ci.0 <= r.var && r.var <= r.var_ci.1, "{r:?}");
            assert!(r.es >= r.var, "ES can never sit below VaR: {r:?}");
            assert!(r.es_se > 0.0 && r.es_se.is_finite(), "{r:?}");
        }
        // The 95% band is strictly inside the distribution's range.
        assert!(out[0].var_ci.0 >= 90.0 && out[0].var_ci.1 <= 100.0);
    }

    #[test]
    fn var_es_drops_nans_and_survives_empty_input() {
        let out = var_es(&[f64::NAN, -1.0, -2.0, -3.0, f64::NAN], &[0.5]);
        assert_eq!(out[0].var, 2.0);
        let empty = var_es(&[], &[0.95]);
        assert!(empty[0].var.is_nan() && empty[0].es.is_nan());
        assert_eq!(empty[0].tail_len, 0);
    }

    #[test]
    fn extreme_confidences_clamp_to_the_distribution_edges() {
        let pnl: Vec<f64> = (1..=10).map(|v| -(v as f64)).collect();
        let out = var_es(&pnl, &[0.0001, 0.9999]);
        assert_eq!(out[0].var, 1.0);
        assert_eq!(out[1].var, 10.0);
        assert_eq!(out[1].es, 10.0);
        assert_eq!(out[1].tail_len, 1);
        // A one-scenario tail has zero spread, not NaN.
        assert_eq!(out[1].es_se, 0.0);
    }
}
