//! The portfolio serving ladder and its chunk wire format: one
//! [`PortfolioRequest`](crate::request::PortfolioRequest) fans out into
//! [`PortfolioChunkRequest`]s — contiguous scenario ranges of the same
//! book — that ride the shared admission/shard plumbing like any other
//! work item, and merge back into one response.
//!
//! The chunk is the fan-out unit the router spills, siblings steal, and
//! a killed shard redrives; correctness survives all three because the
//! revaluation is bit-invariant to where a chunk executes:
//!
//! * scenario grids are **split-invariant** (scenario `j` draws from RNG
//!   stream `j` regardless of chunk bounds), so any chunking concatenates
//!   bit-identically to the native full-grid sweep;
//! * every ladder width revalues the same padded book with the same
//!   lane arithmetic — one hoisted, call-only body per (position,
//!   scenario), whose per-position `ln(s/x)` and base values each chunk
//!   recomputes from the book alone — and sums P&L in the same
//!   `PAD_WIDTH`-strided order, so W=8 / W=4 / scalar rungs are
//!   bit-identical: lane degradation trades throughput, never answers
//!   (the same contract the pricing and greeks ladders enforce).
//!
//! Chunks are self-describing (`seed`, `positions`, total `scenarios`,
//! `[lo, hi)`): the executing shard reconstructs the book and its grid
//! slice deterministically instead of shipping megabytes of state
//! through the queue — the admission seam stays cheap, owned messages.

use finbench_core::portfolio::{revalue_into, Book, RevalScratch, ScenarioGrid};
use finbench_core::MarketParams;
use std::time::{Duration, Instant};

type RevalFn = Box<dyn Fn(&Book, &ScenarioGrid, &mut RevalScratch, &mut Vec<f64>) + Send + Sync>;

/// One batch-safe portfolio rung: full-book revaluation over a scenario
/// grid at a fixed SIMD width.
pub struct PortfolioRung {
    /// Ladder slug, reported on every [`PortfolioChunkOut`].
    pub slug: String,
    /// SIMD width of the revaluation sweep.
    pub width: usize,
    reval: RevalFn,
}

impl PortfolioRung {
    /// Revalue `book` under every scenario in `grid`, one P&L value per
    /// scenario into `pnl` (cleared first).
    pub fn revalue(
        &self,
        book: &Book,
        grid: &ScenarioGrid,
        scratch: &mut RevalScratch,
        pnl: &mut Vec<f64>,
    ) {
        (self.reval)(book, grid, scratch, pnl);
    }
}

fn rung<const W: usize>(slug: &str, market: MarketParams) -> PortfolioRung {
    PortfolioRung {
        slug: slug.to_string(),
        width: W,
        reval: Box::new(move |book, grid, scratch, pnl| {
            revalue_into::<W>(book, market, grid, scratch, pnl)
        }),
    }
}

/// The portfolio degradation ladder, most advanced first: W=8 → W=4 →
/// scalar, every level bit-identical (the staged book is padded to the
/// widest lane count, so no width takes a scalar remainder path). Slugs
/// match the engine kernel's rung labels, so a served chunk names the
/// same rung `portfolio_bench` replays natively.
pub fn portfolio_ladder(market: MarketParams) -> Vec<PortfolioRung> {
    vec![
        rung::<8>("intermediate_simd_revaluation_w_8", market),
        rung::<4>("intermediate_simd_revaluation_w_4", market),
        rung::<1>("basic_scalar_revaluation_sweep", market),
    ]
}

/// One scenario-range chunk of a fanned-out portfolio request — the unit
/// of admission, spill, steal, and redrive. `Copy`: it is a handful of
/// integers, reconstructed into book + grid slice on the executing shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortfolioChunkRequest {
    /// The parent request's correlation id (shared by all its chunks).
    pub id: u64,
    /// Book + grid seed (the book is a pure function of `(positions,
    /// seed)`, the grid of `(scenarios, seed)`).
    pub seed: u64,
    /// Book size in positions.
    pub positions: usize,
    /// Total scenarios in the parent request's grid (chunk bounds index
    /// into this range).
    pub scenarios: usize,
    /// First scenario of this chunk (inclusive).
    pub lo: usize,
    /// One past the last scenario of this chunk.
    pub hi: usize,
    /// The parent request's absolute deadline, shared by every chunk.
    pub deadline: Option<Instant>,
}

/// One computed chunk: the partial P&L tally for scenarios `[lo, hi)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioChunkOut {
    /// First scenario of the chunk — the merge key that restores
    /// scenario order however chunks were scheduled.
    pub lo: usize,
    /// One P&L value per scenario in the chunk.
    pub pnl: Vec<f64>,
    /// Slug of the portfolio rung that revalued the chunk.
    pub rung: String,
    /// How many chunks rode in the same micro-batch.
    pub batch_len: usize,
    /// Submit-to-scatter-back latency of this chunk.
    pub latency: Duration,
}

/// The answer to one [`PortfolioChunkRequest`] (carrying the parent
/// request's id), merged — never surfaced to clients — by the parent
/// request's merge task.
pub type PortfolioChunkResponse = crate::request::Response<PortfolioChunkOut>;

#[cfg(test)]
mod tests {
    use super::*;
    use finbench_core::portfolio::ScenarioConfig;

    const M: MarketParams = MarketParams::PAPER;

    #[test]
    fn ladder_descends_to_a_scalar_rung() {
        let ladder = portfolio_ladder(M);
        assert_eq!(ladder.len(), 3);
        assert_eq!(ladder[0].width, 8);
        assert_eq!(ladder.last().unwrap().width, 1);
    }

    #[test]
    fn every_level_revalues_bit_identically() {
        let book = Book::random(21, 5);
        let grid = ScenarioConfig::standard(17, 5).grid();
        let ladder = portfolio_ladder(M);
        let mut scratch = RevalScratch::new();
        let mut base = Vec::new();
        ladder[0].revalue(&book, &grid, &mut scratch, &mut base);
        for r in &ladder[1..] {
            let mut pnl = Vec::new();
            r.revalue(&book, &grid, &mut scratch, &mut pnl);
            assert_eq!(pnl.len(), base.len(), "{}", r.slug);
            for j in 0..pnl.len() {
                assert_eq!(
                    pnl[j].to_bits(),
                    base[j].to_bits(),
                    "{} scenario {j}",
                    r.slug
                );
            }
        }
    }

    #[test]
    fn chunk_grid_slices_concatenate_to_the_full_sweep() {
        // The serve-side merge invariant: chunked revaluation at any
        // rung equals the native full-grid sweep bit-for-bit.
        let book = Book::random(12, 9);
        let cfg = ScenarioConfig::standard(40, 9);
        let ladder = portfolio_ladder(M);
        let mut scratch = RevalScratch::new();
        let mut whole = Vec::new();
        ladder[0].revalue(&book, &cfg.grid(), &mut scratch, &mut whole);
        let mut merged = Vec::new();
        let mut grid = ScenarioGrid::default();
        let mut part = Vec::new();
        for (lo, hi) in [(0, 13), (13, 32), (32, 40)] {
            cfg.fill_grid(lo, hi, &mut grid);
            ladder[0].revalue(&book, &grid, &mut scratch, &mut part);
            merged.extend_from_slice(&part);
        }
        assert_eq!(merged.len(), whole.len());
        for j in 0..whole.len() {
            assert_eq!(merged[j].to_bits(), whole[j].to_bits(), "scenario {j}");
        }
    }
}
