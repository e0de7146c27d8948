//! One server's event ledger: every serving tally is one [`Counter`]
//! handle, bumped at one call site — the plane-level ones made when the
//! server starts, a lane's when a seat first runs it. A handle's own
//! cell is this server's count (a lane handle's, that lane's on that
//! seat) — what `ServeSnapshot` reads, so two servers in one process
//! never see each other's events — and the process-wide cell of its name
//! (`serve.internal`, `greeks.served`, …) sums over every server (see
//! [`finbench_telemetry::metrics`]).

use crate::workload::ServeWorkload;
use finbench_telemetry::{Counter, Gauge};

/// Metric-name prefix of each request plane, in ledger order: indexed by
/// [`ServeWorkload::PLANE`], as `ServeSnapshot::planes` is.
pub const PLANES: [&str; 3] = ["serve", "greeks", "portfolio"];

/// The one table of a plane's tallies: field, `<plane>.<event>` name —
/// the events the server's ledger counts, then those each lane counts.
macro_rules! tallies {
    (
        plane { $($(#[$pdoc:meta])* $pfield:ident: $pevent:literal,)* }
        lane { $($(#[$ldoc:meta])* $lfield:ident: $levent:literal,)* }
    ) => {
        /// What one request plane of one server has counted, at snapshot
        /// time.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct PlaneSnapshot {
            /// The plane's metric-name prefix (one of [`PLANES`]).
            pub plane: &'static str,
            $($(#[$pdoc])* pub $pfield: u64,)*
            $($(#[$ldoc])* pub $lfield: u64,)*
        }

        /// One request plane's server-level tallies: [`Counter`] handles
        /// named `<plane>.<event>` in a server's ledger.
        pub(crate) struct Tallies {
            plane: &'static str,
            $(pub $pfield: Counter,)*
        }

        /// The events a lane counts, held by each seat's record of the
        /// lane: a handle's own cell is that lane's count on that seat,
        /// and the process-wide cell of its name, `<plane>.<event>`, sums
        /// over lanes, seats and servers. One `add` feeds the kernel's
        /// view and the plane's.
        pub(crate) struct LaneTallies {
            $(pub $lfield: Counter,)*
        }

        impl Tallies {
            fn new(plane: &'static str) -> Self {
                Self { plane, $($pfield: Counter::named(format!("{plane}.{}", $pevent)),)* }
            }

            /// The server-level counts; the lanes' are added by
            /// [`add_lane`](PlaneSnapshot::add_lane).
            fn snapshot(&self) -> PlaneSnapshot {
                PlaneSnapshot {
                    plane: self.plane,
                    $($pfield: self.$pfield.get(),)*
                    $($lfield: 0,)*
                }
            }
        }

        impl LaneTallies {
            /// A lane's handles on workload `W`'s plane.
            pub fn of<W: ServeWorkload>() -> Self {
                let plane = PLANES[W::PLANE];
                Self { $($lfield: Counter::named(format!("{plane}.{}", $levent)),)* }
            }
        }

        impl PlaneSnapshot {
            /// Add what one lane counted on one seat.
            pub(crate) fn add_lane(&mut self, lane: &LaneTallies) {
                $(self.$lfield += lane.$lfield.get();)*
            }
        }
    };
}

tallies! {
    plane {
        /// Requests rejected by admission-side input validation.
        invalid_input: "invalid_input",
        /// Requests (portfolio: chunks) shed at admission: every alive
        /// shard's queue was full.
        shed_queue_full: "shed.queue_full",
        /// Requests shed at dispatch because their deadline passed.
        shed_deadline: "shed.deadline",
        /// Requests whose deadline passed *after* a shard-loss redrive, kept
        /// apart from first-attempt sheds.
        shed_deadline_redrive: "shed.deadline_redrive",
        /// Requests answered `Rejected::Internal`.
        internal: "internal",
        /// Requests rejected for unknown/unservable kernels.
        rejected: "rejected",
        /// Ladder steps down after failures.
        degradations: "degradations",
        /// Ladder steps back up after sustained health.
        promotions: "promotions",
    }
    lane {
        /// Requests answered with a result.
        served: "served",
        /// Batches executed below the planned rung.
        degraded_batches: "degraded_batches",
        /// Breaker open transitions.
        breaker_open: "breaker_open",
        /// Supervised lane restarts after cooldown.
        lane_restarts: "lane_restarts",
    }
}

/// The server-level half of the ledger (each seat keeps its own half):
/// the three planes' tallies and the events that belong to no plane.
pub(crate) struct Ledger {
    planes: [Tallies; 3],
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
    pub fn of<W: ServeWorkload>(&self) -> &Tallies {
        &self.planes[W::PLANE]
    }

    /// The planes' server-level counts, lane events still zero.
    pub fn snapshot(&self) -> [PlaneSnapshot; 3] {
        self.planes.each_ref().map(Tallies::snapshot)
    }
}
