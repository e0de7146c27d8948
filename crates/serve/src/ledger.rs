//! One server's event ledger: every serving tally is one [`Counter`]
//! handle, made when the server starts and bumped at one call site. A
//! handle's own cell is this server's count — what `ServeSnapshot` reads,
//! so two servers in one process never see each other's events — and the
//! process-wide cell of its name (`serve.internal`, `greeks.served`, …)
//! sums over every server (see [`finbench_telemetry::metrics`]).

use crate::workload::ServeWorkload;
use finbench_telemetry::{Counter, Gauge};

/// Metric-name prefix of each request plane, in ledger order: indexed by
/// [`ServeWorkload::PLANE`], as `ServeSnapshot::planes` is.
pub const PLANES: [&str; 3] = ["serve", "greeks", "portfolio"];

/// The one table of a plane's tallies: field, `<plane>.<event>` name.
macro_rules! tallies {
    ($($(#[$doc:meta])* $field:ident: $event:literal,)*) => {
        /// One request plane's event tallies: [`Counter`] handles named
        /// `<plane>.<event>` in a server's ledger, plain counts
        /// ([`PlaneSnapshot`]) in its snapshot.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct Tallies<T> {
            /// The plane's metric-name prefix (one of [`PLANES`]).
            pub plane: &'static str,
            $($(#[$doc])* pub $field: T,)*
        }

        impl Tallies<Counter> {
            fn new(plane: &'static str) -> Self {
                Self { plane, $($field: Counter::named(format!("{plane}.{}", $event)),)* }
            }

            fn snapshot(&self) -> PlaneSnapshot {
                Tallies { plane: self.plane, $($field: self.$field.get(),)* }
            }
        }
    };
}

tallies! {
    /// Requests rejected by admission-side input validation.
    invalid_input: "invalid_input",
    /// Requests (portfolio: chunks) shed at admission: every alive
    /// shard's queue was full.
    shed_queue_full: "shed.queue_full",
    /// Requests answered with a result.
    served: "served",
    /// Requests shed at dispatch because their deadline passed.
    shed_deadline: "shed.deadline",
    /// Requests whose deadline passed *after* a shard-loss redrive, kept
    /// apart from first-attempt sheds.
    shed_deadline_redrive: "shed.deadline_redrive",
    /// Requests answered `Rejected::Internal`.
    internal: "internal",
    /// Requests rejected for unknown/unservable kernels.
    rejected: "rejected",
    /// Batches executed below the planned rung.
    degraded_batches: "degraded_batches",
    /// Ladder steps down after failures.
    degradations: "degradations",
    /// Ladder steps back up after sustained health.
    promotions: "promotions",
    /// Breaker open transitions.
    breaker_open: "breaker_open",
    /// Supervised lane restarts after cooldown.
    lane_restarts: "lane_restarts",
}

/// What one request plane of one server has counted, at snapshot time.
pub type PlaneSnapshot = Tallies<u64>;

/// The server-level half of the ledger (each seat keeps its own half):
/// the three planes' tallies and the events that belong to no plane.
pub(crate) struct Ledger {
    planes: [Tallies<Counter>; 3],
    /// `serve.spills`: admissions placed on a sibling of the round-robin pick.
    pub spills: Counter,
    /// `portfolio.requests` / `.merged` / `.failed`: fan-outs begun, and
    /// how each ended.
    pub portfolio_requests: Counter,
    pub portfolio_merged: Counter,
    pub portfolio_failed: Counter,
    /// `serve.shard_kills`: workers lost to the kill fault.
    pub shard_kills: Counter,
    /// `serve.queue_depth`: admission-queue depth over the whole fleet.
    pub queue_depth: Gauge,
}

impl Ledger {
    pub fn new() -> Self {
        Self {
            planes: PLANES.map(Tallies::new),
            spills: Counter::named("serve.spills"),
            portfolio_requests: Counter::named("portfolio.requests"),
            portfolio_merged: Counter::named("portfolio.merged"),
            portfolio_failed: Counter::named("portfolio.failed"),
            shard_kills: Counter::named("serve.shard_kills"),
            queue_depth: Gauge::named("serve.queue_depth"),
        }
    }

    /// The tallies of workload `W`'s plane.
    pub fn of<W: ServeWorkload>(&self) -> &Tallies<Counter> {
        &self.planes[W::PLANE]
    }

    pub fn snapshot(&self) -> [PlaneSnapshot; 3] {
        self.planes.each_ref().map(Tallies::snapshot)
    }
}
