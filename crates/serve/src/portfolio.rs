//! The portfolio serving ladder and its chunk wire format: one
//! [`PortfolioRequest`] fans out into [`PortfolioChunkRequest`]s —
//! contiguous scenario ranges of the same book — that ride the shared
//! admission/shard plumbing like any other work item, and land in one
//! [`PortfolioFanIn`] that merges them back into one response.
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

use crate::ledger::Ledger;
use crate::request::{PortfolioOut, PortfolioRequest, PortfolioResponse, Rejected, Response};
use finbench_core::portfolio::{revalue_into, var_es, Book, RevalScratch, ScenarioGrid};
use finbench_core::MarketParams;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::Instant;

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
}

/// One portfolio request's fan-in: every chunk envelope of the request
/// holds it, and each chunk's one answer lands here — from the worker
/// that computed it, or from the router that could not place it. The
/// answer that leaves none owed merges the parts in scenario order,
/// aggregates VaR/ES and sends the request's single response; a failed
/// chunk fails the whole request with the first failure to land, so
/// partial P&L distributions are never surfaced.
pub struct PortfolioFanIn {
    id: u64,
    confidence: Vec<f64>,
    submitted: Instant,
    tx: Sender<PortfolioResponse>,
    ledger: Arc<Ledger>,
    landed: Mutex<Landed>,
}

/// What a fan-in has collected so far.
#[derive(Default)]
struct Landed {
    /// Chunk answers still to land.
    owed: usize,
    parts: Vec<PortfolioChunkOut>,
    /// The first failing chunk's rejection.
    failed: Option<Rejected>,
}

impl PortfolioFanIn {
    /// The fan-in of `req`, split into `chunks` chunks, answering on `tx`.
    pub(crate) fn new(
        req: &PortfolioRequest,
        chunks: usize,
        tx: &Sender<PortfolioResponse>,
        ledger: &Arc<Ledger>,
    ) -> Self {
        let landed = Landed {
            owed: chunks,
            ..Landed::default()
        };
        Self {
            id: req.id,
            confidence: req.confidence.clone(),
            submitted: Instant::now(),
            tx: tx.clone(),
            ledger: Arc::clone(ledger),
            landed: Mutex::new(landed),
        }
    }

    /// Land one chunk's answer; the last one owed answers the request.
    pub(crate) fn land(&self, outcome: Result<PortfolioChunkOut, Rejected>) {
        let mut landed = self.landed.lock().unwrap_or_else(|e| e.into_inner());
        match outcome {
            Ok(part) => landed.parts.push(part),
            Err(reason) => {
                landed.failed.get_or_insert(reason);
            }
        }
        landed.owed -= 1;
        if landed.owed > 0 {
            return;
        }
        let Landed {
            mut parts, failed, ..
        } = std::mem::take(&mut *landed);
        drop(landed);
        let outcome = match failed {
            Some(reason) => {
                self.ledger.portfolio_failed.add(1);
                Err(reason)
            }
            None => {
                // Scenario order is the merge contract: chunks may have
                // executed on any shard in any order, but `lo` restores
                // the native sweep's layout, making the concatenation
                // bit-identical to it.
                parts.sort_by_key(|p| p.lo);
                let pnl: Vec<f64> = parts.iter().flat_map(|p| &p.pnl).copied().collect();
                let mut rungs: Vec<String> = parts.iter().map(|p| p.rung.clone()).collect();
                rungs.sort();
                rungs.dedup();
                self.ledger.portfolio_merged.add(1);
                Ok(PortfolioOut {
                    risk: var_es(&pnl, &self.confidence),
                    scenarios: pnl.len(),
                    chunks: parts.len(),
                    rungs,
                    latency: self.submitted.elapsed(),
                    pnl,
                })
            }
        };
        let id = self.id;
        let _ = self.tx.send(Response { id, outcome });
    }
}

impl Drop for PortfolioFanIn {
    /// Every server path answers each chunk envelope exactly once, so a
    /// fan-in dropped with answers still owed is a bug upstream: fail the
    /// request instead of leaving its caller waiting forever.
    fn drop(&mut self) {
        let landed = self.landed.get_mut().unwrap_or_else(|e| e.into_inner());
        if landed.owed > 0 {
            // Land the failure as the one answer still owed.
            landed.owed = 1;
            self.land(Err(Rejected::Internal {
                reason: "portfolio fan-in dropped with chunk answers owed".into(),
            }));
        }
    }
}

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
