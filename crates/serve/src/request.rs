//! The typed request/response surface of the serving plane.
//!
//! A [`PriceRequest`] names a registry kernel and carries one option's
//! scalar parameters plus an optional deadline; the server answers every
//! request with exactly one [`Response`] — computed or rejected with a
//! typed [`Rejected`] reason. A [`GreeksRequest`] rides the same
//! admission queue and micro-batcher but lands on the greeks lane, which
//! answers with both contract sides' full sensitivity vectors, and a
//! [`PortfolioRequest`] fans out into scenario chunks. All three are
//! [`ServeRequest`]s, so [`Server::submit`](crate::server::Server::submit)
//! is written once. There are no silent drops anywhere on the path:
//! queue overflow, blown deadlines, and bad kernel names all come back as
//! responses.

use crate::server::Admitted;
use crate::shard::Work;
use crate::workload::{Envelope, GreeksWorkload, PortfolioWorkload, PriceWorkload, ServeWorkload};
use finbench_core::greeks::Greeks;
use finbench_faults::{Corruption, FaultKind, Faults};
use std::borrow::Cow;
use std::sync::mpsc::Sender;
use std::time::{Duration, Instant};

/// One request type the server can admit. [`Server::submit`] and
/// [`Server::submit_with`] are generic over this trait: they own the
/// shared head (corrupt under an armed fault plan → validate → tally
/// `invalid_input` → answer), and [`admit`](Self::admit) is the only
/// plane-specific step.
///
/// [`Server::submit`]: crate::server::Server::submit
/// [`Server::submit_with`]: crate::server::Server::submit_with
pub trait ServeRequest: Sized + Send + 'static {
    /// Success payload of the [`Response`].
    type Out: Send + 'static;
    /// The lane plane that executes this request; its
    /// [`PLANE`](ServeWorkload::PLANE) picks the ledger's tallies for
    /// every event of the plane, admission-side ones included.
    type Plane: ServeWorkload;

    /// Caller-chosen correlation id, echoed back on the response.
    fn id(&self) -> u64;
    /// Admission-side domain validation: the typed rejection for the
    /// first violation. Invalid requests never reach a batch.
    fn validate(&self) -> Result<(), Rejected>;
    /// Fire this plane's `admit.*` fault site on the server's `faults`
    /// and apply what fires. Called only under an armed plan, *before*
    /// validation, so chaos runs exercise the admission filter and never
    /// the kernels.
    fn corrupt(&mut self, _faults: &Faults) {}
    /// Turn the validated request into queued work: one envelope, or a
    /// fan-out of chunks. The [`Admitted`] handle exists only inside
    /// `submit_with`, after validation — there is no other way in.
    fn admit(self, door: Admitted<'_>, tx: &Sender<Response<Self::Out>>);
}

/// Admission-side domain validation shared by every request type: spot,
/// strike, and expiry must be finite and strictly positive before they
/// are allowed anywhere near a SIMD kernel (NaN/Inf propagate silently
/// through vector math, and the closed forms take `ln(s/x)` and
/// `sqrt(t)`). Returns the typed rejection for the first violation.
fn validate_params(s: f64, x: f64, t: f64) -> Result<(), Rejected> {
    for (name, v) in [("spot", s), ("strike", x), ("expiry", t)] {
        if !v.is_finite() {
            return Err(Rejected::InvalidInput {
                reason: format!("{name} is not finite ({v})").into(),
            });
        }
        if v <= 0.0 {
            return Err(Rejected::InvalidInput {
                reason: format!("{name} must be positive (got {v})").into(),
            });
        }
    }
    Ok(())
}

/// Fire the `site` fault hook and apply any input corruption to the
/// contract (NaN spot, infinite strike, negative expiry).
fn corrupt_contract(faults: &Faults, site: &str, s: &mut f64, x: &mut f64, t: &mut f64) {
    for kind in faults.fire(site) {
        if let FaultKind::CorruptInput(c) = kind {
            match c {
                Corruption::NaN => *s = c.apply(*s),
                Corruption::Inf => *x = c.apply(*x),
                Corruption::Negative => *t = c.apply(*t),
            }
        }
    }
}

/// One pricing request: a single option against a named kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct PriceRequest {
    /// Caller-chosen correlation id, echoed back on the response.
    ///
    /// Bit 63 ([`HEDGE_BIT`](crate::loadgen::HEDGE_BIT)) is **reserved**
    /// for the client-side hedging protocol: the hedged load generator
    /// tags duplicate submissions by setting it, and first-response-wins
    /// dedup masks it back off. Hedged submission paths reject ids with
    /// the bit already set ([`Rejected::InvalidInput`]); un-hedged
    /// submission does not interpret the id and accepts any value.
    pub id: u64,
    /// Registry kernel name (e.g. `black_scholes`, `binomial`): borrowed
    /// for a literal or a registry name (`Kernel::name()` is
    /// `&'static str`), owned otherwise.
    pub kernel: Cow<'static, str>,
    /// Spot price of the underlying.
    pub s: f64,
    /// Strike price.
    pub x: f64,
    /// Time to expiry in years.
    pub t: f64,
    /// Absolute latency SLO: if the request has not been *dispatched*
    /// into a batch by this instant, it is shed with
    /// [`Rejected::DeadlineExceeded`] instead of priced late.
    pub deadline: Option<Instant>,
}

impl PriceRequest {
    /// A request with no deadline. A literal or a registry name costs
    /// nothing: the request borrows it, and allocates only if `kernel` is
    /// an owned `String`.
    pub fn new(id: u64, kernel: impl Into<Cow<'static, str>>, s: f64, x: f64, t: f64) -> Self {
        Self {
            id,
            kernel: kernel.into(),
            s,
            x,
            t,
            deadline: None,
        }
    }
}

impl ServeRequest for PriceRequest {
    type Out = Priced;
    type Plane = PriceWorkload;

    fn id(&self) -> u64 {
        self.id
    }
    fn validate(&self) -> Result<(), Rejected> {
        validate_params(self.s, self.x, self.t)
    }
    fn corrupt(&mut self, faults: &Faults) {
        let site = format!("admit.{}", self.kernel);
        corrupt_contract(faults, &site, &mut self.s, &mut self.x, &mut self.t);
    }
    fn admit(self, door: Admitted<'_>, tx: &Sender<PriceResponse>) {
        door.one(Work::Price(Envelope::new(self, tx)));
    }
}

/// One risk request: all five greeks for both sides of a single option,
/// computed on the analytic greeks lane.
#[derive(Debug, Clone, PartialEq)]
pub struct GreeksRequest {
    /// Caller-chosen correlation id, echoed back on the response.
    pub id: u64,
    /// Spot price of the underlying.
    pub s: f64,
    /// Strike price.
    pub x: f64,
    /// Time to expiry in years.
    pub t: f64,
    /// Absolute latency SLO, enforced exactly like
    /// [`PriceRequest::deadline`].
    pub deadline: Option<Instant>,
}

impl GreeksRequest {
    /// A request with no deadline.
    pub fn new(id: u64, s: f64, x: f64, t: f64) -> Self {
        Self {
            id,
            s,
            x,
            t,
            deadline: None,
        }
    }
}

impl ServeRequest for GreeksRequest {
    type Out = GreeksOut;
    type Plane = GreeksWorkload;

    fn id(&self) -> u64 {
        self.id
    }
    fn validate(&self) -> Result<(), Rejected> {
        validate_params(self.s, self.x, self.t)
    }
    fn corrupt(&mut self, faults: &Faults) {
        let (s, x, t) = (&mut self.s, &mut self.x, &mut self.t);
        corrupt_contract(faults, "admit.greeks", s, x, t);
    }
    fn admit(self, door: Admitted<'_>, tx: &Sender<GreeksResponse>) {
        door.one(Work::Greeks(Envelope::new(self, tx)));
    }
}

/// One portfolio market-risk request: a whole deterministic book
/// repriced under a shocked scenario grid, aggregated into VaR and
/// expected shortfall.
///
/// The book and grid are pure functions of `(positions, scenarios,
/// seed)` — the request ships parameters, not megabytes of positions,
/// and the server fans the scenario range out across its shards in
/// chunks ([`PortfolioChunkRequest`](crate::portfolio::PortfolioChunkRequest)),
/// merging partial P&L tallies back in scenario order. Split-invariant
/// grid generation and padded lane-wise revaluation make the fan-out
/// bit-invisible: the merged P&L vector is bit-identical to a native
/// single-threaded sweep on the same rung.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioRequest {
    /// Caller-chosen correlation id, echoed back on the response.
    pub id: u64,
    /// Book + grid seed (determinism contract: same `(positions,
    /// scenarios, seed)` → bit-identical P&L).
    pub seed: u64,
    /// Book size in positions.
    pub positions: usize,
    /// Scenario-grid size.
    pub scenarios: usize,
    /// Fan-out chunk size in scenarios; `0` sizes chunks automatically
    /// from the shard count.
    pub chunk: usize,
    /// Confidence levels for the VaR/ES summaries, each in `(0, 1)`.
    pub confidence: Vec<f64>,
    /// Absolute latency SLO shared by every chunk of the fan-out.
    pub deadline: Option<Instant>,
}

/// Ceiling on `positions × scenarios` per request — a misconfigured
/// load generator should get a typed rejection, not a shard pinned on a
/// multi-hour revaluation.
pub const MAX_PORTFOLIO_PRICINGS: usize = 1 << 26;

impl PortfolioRequest {
    /// A request with the default 95%/99% confidence levels, automatic
    /// chunking, and no deadline.
    pub fn new(id: u64, seed: u64, positions: usize, scenarios: usize) -> Self {
        Self {
            id,
            seed,
            positions,
            scenarios,
            chunk: 0,
            confidence: vec![0.95, 0.99],
            deadline: None,
        }
    }

    /// Set an explicit fan-out chunk size (scenarios per chunk).
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk;
        self
    }

    /// Replace the confidence levels.
    pub fn with_confidence(mut self, confidence: Vec<f64>) -> Self {
        self.confidence = confidence;
        self
    }
}

impl ServeRequest for PortfolioRequest {
    type Out = PortfolioOut;
    type Plane = PortfolioWorkload;

    fn id(&self) -> u64 {
        self.id
    }

    /// A non-empty book and grid, a bounded total pricing count, and
    /// confidence levels strictly inside `(0, 1)`.
    fn validate(&self) -> Result<(), Rejected> {
        if self.positions == 0 || self.scenarios == 0 {
            return Err(Rejected::InvalidInput {
                reason: format!(
                    "book and grid must be non-empty (positions {}, scenarios {})",
                    self.positions, self.scenarios
                )
                .into(),
            });
        }
        match self.positions.checked_mul(self.scenarios) {
            Some(total) if total <= MAX_PORTFOLIO_PRICINGS => {}
            _ => {
                return Err(Rejected::InvalidInput {
                    reason: format!(
                        "positions x scenarios exceeds {MAX_PORTFOLIO_PRICINGS} pricings"
                    )
                    .into(),
                })
            }
        }
        if self.confidence.is_empty() {
            return Err(Rejected::InvalidInput {
                reason: "at least one confidence level is required".into(),
            });
        }
        for &c in &self.confidence {
            if !c.is_finite() || c <= 0.0 || c >= 1.0 {
                return Err(Rejected::InvalidInput {
                    reason: format!("confidence must be in (0, 1) (got {c})").into(),
                });
            }
        }
        Ok(())
    }

    fn admit(self, door: Admitted<'_>, tx: &Sender<PortfolioResponse>) {
        door.portfolio(self, tx);
    }
}

/// A successfully priced request.
#[derive(Debug, Clone, PartialEq)]
pub struct Priced {
    /// Call price.
    pub call: f64,
    /// Put price.
    pub put: f64,
    /// Slug of the ladder rung that priced the batch.
    pub rung: String,
    /// How many requests rode in the same micro-batch (before padding).
    pub batch_len: usize,
    /// Submit-to-scatter-back latency.
    pub latency: Duration,
}

/// Why a request was not priced. Every variant is a *response*, never a
/// silent drop.
///
/// Reason strings are `Cow<'static, str>`: the hot rejection paths
/// (router finding no alive shard, shard-loss redrive exhaustion) carry
/// static messages without allocating, while dynamic reasons (panic
/// payloads, validation details) still own their formatted text.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejected {
    /// The bounded admission queue was full at submit time.
    QueueFull {
        /// The queue's capacity, so callers can size their backoff.
        capacity: usize,
    },
    /// The request's deadline passed before it could be dispatched.
    DeadlineExceeded {
        /// How far past the deadline it was when shed.
        late_by: Duration,
    },
    /// The kernel name failed registry resolution ([`finbench_engine::EngineError`]
    /// rendered through `Display`).
    UnknownKernel {
        /// The full engine error message (names the valid kernels).
        reason: Cow<'static, str>,
    },
    /// The kernel is registered but has no batch-safe serving rung (its
    /// rungs couple requests within a batch, e.g. `rng`'s shared streams).
    Unservable {
        /// The kernel that cannot be served.
        kernel: Cow<'static, str>,
    },
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
    /// A request parameter failed admission-side domain validation
    /// (non-finite or non-positive spot/strike/expiry). Checked before
    /// the request can reach a batch, so invalid inputs never touch the
    /// SIMD kernels.
    InvalidInput {
        /// Which parameter failed and why.
        reason: Cow<'static, str>,
    },
    /// The batch this request rode in failed inside the server — a
    /// kernel panic caught by the lane supervisor, a lane whose circuit
    /// breaker is open, or a killed shard whose stranded work could not
    /// be redriven. The request was *not* priced; retrying is safe.
    Internal {
        /// What failed (panic payload, breaker state, or shard loss).
        reason: Cow<'static, str>,
    },
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            Rejected::DeadlineExceeded { late_by } => {
                write!(f, "deadline exceeded by {late_by:?}")
            }
            Rejected::UnknownKernel { reason } => write!(f, "{reason}"),
            Rejected::Unservable { kernel } => {
                write!(f, "kernel {kernel} has no batch-safe serving rung")
            }
            Rejected::ShuttingDown => write!(f, "server is shutting down"),
            Rejected::InvalidInput { reason } => write!(f, "invalid input: {reason}"),
            Rejected::Internal { reason } => write!(f, "internal failure: {reason}"),
        }
    }
}

/// The answer to one request: every plane answers in this one shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Response<T> {
    /// The request's id, echoed back.
    pub id: u64,
    /// Computed, or rejected with a typed reason (for a fan-out, the
    /// first failing chunk's rejection — partial results are never
    /// surfaced).
    pub outcome: Result<T, Rejected>,
}

impl<T> Response<T> {
    /// True when the request was computed.
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }
}

/// The answer to one [`PriceRequest`].
pub type PriceResponse = Response<Priced>;
/// The answer to one [`GreeksRequest`].
pub type GreeksResponse = Response<GreeksOut>;
/// The answer to one [`PortfolioRequest`].
pub type PortfolioResponse = Response<PortfolioOut>;

/// A successfully computed [`GreeksRequest`]: both contract sides' full
/// sensitivity vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct GreeksOut {
    /// Call-side greeks.
    pub call: Greeks,
    /// Put-side greeks.
    pub put: Greeks,
    /// Slug of the greeks rung that computed the batch.
    pub rung: String,
    /// How many requests rode in the same micro-batch (before padding).
    pub batch_len: usize,
    /// Submit-to-scatter-back latency.
    pub latency: Duration,
}

/// A successfully computed [`PortfolioRequest`]: the full scenario-order
/// P&L distribution and its risk summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioOut {
    /// Per-scenario P&L in scenario order, merged across chunks —
    /// bit-identical to a native full-grid sweep on the same rung.
    pub pnl: Vec<f64>,
    /// One VaR/ES summary per requested confidence level, in request
    /// order.
    pub risk: Vec<finbench_core::portfolio::RiskSummary>,
    /// Scenario count (echoes the request; `pnl.len()`).
    pub scenarios: usize,
    /// How many chunks the request fanned out into.
    pub chunks: usize,
    /// Distinct ladder-rung slugs the chunks were revalued on (sorted;
    /// more than one means some chunks were served degraded — still
    /// bit-identical, every rung computes the same bits).
    pub rungs: Vec<String>,
    /// Submit-to-merged latency of the whole fan-out.
    pub latency: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejections_render_their_reason() {
        let msgs = [
            Rejected::QueueFull { capacity: 8 }.to_string(),
            Rejected::DeadlineExceeded {
                late_by: Duration::from_millis(5),
            }
            .to_string(),
            Rejected::Unservable {
                kernel: "rng".into(),
            }
            .to_string(),
            Rejected::ShuttingDown.to_string(),
            Rejected::InvalidInput {
                reason: "spot is not finite (NaN)".into(),
            }
            .to_string(),
            Rejected::Internal {
                reason: "injected panic".into(),
            }
            .to_string(),
        ];
        assert!(msgs[0].contains("capacity 8"), "{}", msgs[0]);
        assert!(msgs[1].contains("deadline"), "{}", msgs[1]);
        assert!(msgs[2].contains("rng"), "{}", msgs[2]);
        assert!(msgs[3].contains("shutting down"), "{}", msgs[3]);
        assert!(msgs[4].contains("invalid input"), "{}", msgs[4]);
        assert!(msgs[5].contains("internal failure"), "{}", msgs[5]);
    }

    #[test]
    fn validation_accepts_the_paper_domain() {
        assert!(PriceRequest::new(1, "black_scholes", 30.0, 35.0, 1.0)
            .validate()
            .is_ok());
        assert!(PriceRequest::new(1, "black_scholes", 5.0, 1.0, 0.25)
            .validate()
            .is_ok());
    }

    #[test]
    fn greeks_requests_validate_like_price_requests() {
        assert!(GreeksRequest::new(1, 30.0, 35.0, 1.0).validate().is_ok());
        for (s, x, t, needle) in [
            (f64::NAN, 35.0, 1.0, "spot"),
            (30.0, -1.0, 1.0, "strike"),
            (30.0, 35.0, 0.0, "expiry"),
        ] {
            match GreeksRequest::new(1, s, x, t).validate() {
                Err(Rejected::InvalidInput { reason }) => {
                    assert!(reason.contains(needle), "{reason} should name {needle}");
                }
                other => panic!("expected InvalidInput, got {other:?}"),
            }
        }
    }

    #[test]
    fn portfolio_requests_validate_their_shape() {
        assert!(PortfolioRequest::new(1, 7, 64, 256).validate().is_ok());
        for (req, needle) in [
            (PortfolioRequest::new(1, 7, 0, 256), "non-empty"),
            (PortfolioRequest::new(1, 7, 64, 0), "non-empty"),
            (PortfolioRequest::new(1, 7, 1 << 20, 1 << 20), "exceeds"),
            (
                PortfolioRequest::new(1, 7, usize::MAX, usize::MAX),
                "exceeds",
            ),
            (
                PortfolioRequest::new(1, 7, 64, 256).with_confidence(vec![]),
                "at least one",
            ),
            (
                PortfolioRequest::new(1, 7, 64, 256).with_confidence(vec![1.0]),
                "(0, 1)",
            ),
            (
                PortfolioRequest::new(1, 7, 64, 256).with_confidence(vec![0.95, f64::NAN]),
                "(0, 1)",
            ),
        ] {
            match req.validate() {
                Err(Rejected::InvalidInput { reason }) => {
                    assert!(reason.contains(needle), "{reason} should contain {needle}");
                }
                other => panic!("expected InvalidInput, got {other:?}"),
            }
        }
        let r = PortfolioRequest::new(3, 7, 64, 256).with_chunk(32);
        assert_eq!(r.chunk, 32);
    }

    #[test]
    fn validation_rejects_nonfinite_and_nonpositive_parameters() {
        let base = |s, x, t| PriceRequest::new(1, "black_scholes", s, x, t);
        for (req, needle) in [
            (base(f64::NAN, 35.0, 1.0), "spot"),
            (base(30.0, f64::INFINITY, 1.0), "strike"),
            (base(30.0, 35.0, f64::NEG_INFINITY), "expiry"),
            (base(-30.0, 35.0, 1.0), "spot"),
            (base(30.0, 0.0, 1.0), "strike"),
            (base(30.0, 35.0, -0.5), "expiry"),
        ] {
            match req.validate() {
                Err(Rejected::InvalidInput { reason }) => {
                    assert!(reason.contains(needle), "{reason} should name {needle}");
                }
                other => panic!("expected InvalidInput, got {other:?}"),
            }
        }
    }
}
