//! # finbench-faults — deterministic fault injection for chaos runs
//!
//! Zero-dependency fault injection through an owned handle. Production
//! code is sprinkled with named *sites* (`faults.fire("batch.black_scholes")`)
//! that fire the [`Faults`] handle their owner was given; the
//! [`FaultPlan`] behind it decides which sites misbehave, how, and how
//! often. There is no process-wide plan: a plan fires only
//! in the server started with its handle. Unarmed ([`Faults::none`]) a
//! site costs an `Option::is_none` and nothing ever fires: injection
//! hooks are compiled in always, armed only by whoever holds a plan.
//!
//! ## Building a plan
//!
//! A plan is a list of [`FaultSpec`]s, built in code:
//!
//! ```
//! use finbench_faults::{Corruption, FaultKind, FaultPlan, FaultSpec, Faults};
//! let nan = FaultKind::CorruptInput(Corruption::NaN);
//! let plan = FaultPlan::new()
//!     .with(FaultSpec::at_rate("batch", FaultKind::Panic, 0.1))
//!     .with(FaultSpec::at_rate("admit", nan, 0.05).seeded(7))
//!     .with(FaultSpec::at_rate("serve.shard.0", FaultKind::Kill, 0.1).limited(1));
//! assert!(Faults::new(plan).armed());
//! ```
//!
//! * site — a dotted site name; a spec matches a call site when it is
//!   equal to it or a dotted prefix of it (`batch` matches
//!   `batch.black_scholes`).
//! * [`FaultKind`] — what happens when the spec fires.
//! * rate — firing probability in `[0, 1]` ([`FaultSpec::at_rate`]);
//!   [`FaultSpec::always`] fires on every matching call.
//! * [`FaultSpec::limited`] — firing budget: after the spec has fired
//!   this many times it never fires again; unlimited by default. This is
//!   how a rolling-kill chaos plan self-terminates against a server whose
//!   killed shards respawn (`serve.shard.0` killed at most once above,
//!   after which the respawned worker lives).
//! * [`FaultSpec::seeded`] — per-spec SplitMix64 seed; `0x5EED` by default.
//!
//! ## Determinism
//!
//! Each spec of a handle owns a SplitMix64 counter stream: the *n*-th
//! firing decision of a spec is a pure function of `(seed, n)`, so a
//! chaos run replays identically *per server* given the same call order
//! per site — whatever other servers, armed or not, run beside it in the
//! process. A single-shard serving plane provides that order exactly;
//! with multiple shards the *decision stream* stays deterministic while
//! the assignment of decisions to shards follows the
//! (scheduler-dependent) interleaving of their calls.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The panic message of [`Faults::fire_compute`]; the panic-silencing
/// hook and chaos tests match on it.
pub const INJECTED_PANIC: &str = "finbench-faults: injected panic";

/// How a corrupted input is mangled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Replace a parameter with NaN.
    NaN,
    /// Replace a parameter with +infinity.
    Inf,
    /// Negate a parameter (negative spot/strike/expiry — or, for a
    /// kernel carrying volatility per request, a negative vol).
    Negative,
}

impl Corruption {
    /// Apply the corruption to one value.
    pub fn apply(&self, v: f64) -> f64 {
        match self {
            Corruption::NaN => f64::NAN,
            Corruption::Inf => f64::INFINITY,
            Corruption::Negative => -v.abs().max(1.0),
        }
    }
}

/// What happens when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the site (`panic!("{INJECTED_PANIC} at <site>")`).
    Panic,
    /// Sleep for the given duration at the site.
    Latency(Duration),
    /// Corrupt the request's numeric inputs at the site.
    CorruptInput(Corruption),
    /// Stall the consumer side of a queue for one scheduling window.
    StallQueue,
    /// Kill the component at the site outright (e.g. a serving shard at
    /// `serve.shard.<i>`). The component answers everything it
    /// holds with typed rejections and exits — availability degrades,
    /// correctness must not.
    Kill,
}

/// One fault: a site pattern, a kind, a firing rate, a firing budget,
/// and a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Dotted site pattern; matches sites it equals or prefixes.
    pub site: String,
    /// What happens when it fires.
    pub kind: FaultKind,
    /// Firing probability per matching call, in `[0, 1]`.
    pub rate: f64,
    /// Maximum number of times this spec may fire over the plan's
    /// lifetime; `u64::MAX` means unlimited. An exhausted spec stops
    /// consuming decisions from its stream too, so the decisions it
    /// *would* have made stay reproducible under a smaller budget.
    pub max_fires: u64,
    /// SplitMix64 seed of this spec's decision stream.
    pub seed: u64,
}

impl FaultSpec {
    /// A spec firing on every matching call (`rate = 1`, default seed,
    /// unlimited budget).
    pub fn always(site: impl Into<String>, kind: FaultKind) -> Self {
        Self {
            site: site.into(),
            kind,
            rate: 1.0,
            max_fires: u64::MAX,
            seed: DEFAULT_SEED,
        }
    }

    /// A spec firing at `rate` with the default seed.
    pub fn at_rate(site: impl Into<String>, kind: FaultKind, rate: f64) -> Self {
        Self {
            rate,
            ..Self::always(site, kind)
        }
    }

    /// Override the firing-decision seed (builder style) — distinct seeds
    /// give specs at the same site independent firing streams.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Cap the spec's lifetime firing budget (builder style): after
    /// `max_fires` firings the spec is exhausted and never fires again.
    pub fn limited(mut self, max_fires: u64) -> Self {
        self.max_fires = max_fires;
        self
    }

    /// True when this spec's site pattern covers `site` (equality or
    /// dotted-prefix match).
    pub fn matches(&self, site: &str) -> bool {
        site == self.site
            || (site.len() > self.site.len()
                && site.starts_with(&self.site)
                && site.as_bytes()[self.site.len()] == b'.')
    }
}

const DEFAULT_SEED: u64 = 0x5EED;

/// A set of faults to arm together.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The plan's specs, in declaration order (first match wins only for
    /// conflicting corruption kinds; all firing kinds are reported).
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// The empty plan ([`Faults::new`] of it is unarmed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one spec (builder style).
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// True when the plan has no specs.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

// ---------------------------------------------------------------------------
// The handle
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct ActiveSpec {
    spec: FaultSpec,
    /// Monotonic decision index; decision n is `mix(seed + n·γ) < rate`.
    calls: AtomicU64,
    fired: AtomicU64,
}

const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// An armed plan, or none: the decision streams and firing budgets of
/// one [`FaultPlan`], owned by whoever asked for the faults. A clone
/// *shares* them; a second [`Faults::new`] of the same plan starts its
/// own.
#[derive(Debug, Clone, Default)]
pub struct Faults(Option<Arc<[ActiveSpec]>>);

impl Faults {
    /// The unarmed handle.
    pub fn none() -> Self {
        Self(None)
    }

    /// Arm `plan` with fresh decision streams; the empty plan is
    /// [`none`](Self::none).
    pub fn new(plan: FaultPlan) -> Self {
        let arm = |spec| ActiveSpec {
            spec,
            calls: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        };
        Self((!plan.is_empty()).then(|| plan.specs.into_iter().map(arm).collect()))
    }

    /// True when this handle carries a plan.
    pub fn armed(&self) -> bool {
        self.0.is_some()
    }

    fn specs(&self) -> &[ActiveSpec] {
        self.0.as_deref().unwrap_or_default()
    }

    /// Evaluate every spec against `site` and return the kinds that
    /// fire, in plan order (unarmed: an allocation-free empty `Vec`).
    pub fn fire(&self, site: &str) -> Vec<FaultKind> {
        let mut out = Vec::new();
        for a in self.specs() {
            if !a.spec.matches(site) {
                continue;
            }
            // An exhausted spec neither fires nor consumes decisions.
            if a.fired.load(Ordering::Relaxed) >= a.spec.max_fires {
                continue;
            }
            let n = a.calls.fetch_add(1, Ordering::Relaxed);
            let u = unit_f64(mix(a.spec.seed.wrapping_add(n.wrapping_mul(GAMMA))));
            if u < a.spec.rate {
                // Claim one unit of the firing budget; a CAS loop (rather
                // than fetch_add) keeps `fired` exact under concurrent
                // callers racing for the last unit.
                let mut fired = a.fired.load(Ordering::Relaxed);
                let claimed = loop {
                    if fired >= a.spec.max_fires {
                        break false;
                    }
                    match a.fired.compare_exchange_weak(
                        fired,
                        fired + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break true,
                        Err(cur) => fired = cur,
                    }
                };
                if claimed {
                    out.push(a.spec.kind);
                }
            }
        }
        out
    }

    /// [`fire`](Self::fire), panicking on the spot when a
    /// [`FaultKind::Panic`] fires, and returning the accumulated injected
    /// latency (other kinds are ignored). The convenience shape for
    /// compute sites: sleep-then-maybe-panic.
    pub fn fire_compute(&self, site: &str) -> Duration {
        let mut extra = Duration::ZERO;
        let mut panic_after = false;
        for kind in self.fire(site) {
            match kind {
                FaultKind::Latency(d) => extra += d,
                FaultKind::Panic => panic_after = true,
                _ => {}
            }
        }
        if !extra.is_zero() {
            std::thread::sleep(extra);
        }
        if panic_after {
            panic!("{INJECTED_PANIC} at {site}");
        }
        extra
    }

    /// Total faults fired through this handle and its clones.
    pub fn fired_total(&self) -> u64 {
        let fired = |a: &ActiveSpec| a.fired.load(Ordering::Relaxed);
        self.specs().iter().map(fired).sum()
    }
}

/// Install (once, process-wide) a panic hook that swallows panics whose
/// payload starts with [`INJECTED_PANIC`] and delegates everything else
/// to the previous hook — chaos runs inject panics by the thousand and
/// the default hook would drown real output in backtraces.
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.starts_with(INJECTED_PANIC))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<&str>()
                        .map(|s| s.starts_with(INJECTED_PANIC))
                })
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limited_caps_the_budget() {
        let spec = FaultSpec::always("a", FaultKind::Panic)
            .seeded(5)
            .limited(2);
        assert_eq!((spec.max_fires, spec.seed, spec.rate), (2, 5, 1.0));
        assert_eq!(FaultSpec::always("a", FaultKind::Panic).max_fires, u64::MAX);
        let faults = Faults::new(FaultPlan::new().with(spec));
        let fired: usize = (0..50).map(|_| faults.fire("a").len()).sum();
        assert_eq!(fired, 2, "budget of 2 must cap an always-firing spec");
        assert_eq!(faults.fired_total(), 2);
    }

    #[test]
    fn a_limited_spec_fires_on_the_first_firing_calls_of_the_unlimited_one() {
        // An exhausted spec stops consuming decisions, so a budget of k
        // keeps exactly the first k fires of the unlimited stream.
        let spec = FaultSpec::at_rate("x", FaultKind::Panic, 0.3).seeded(42);
        let run = |spec: FaultSpec| -> Vec<bool> {
            let faults = Faults::new(FaultPlan::new().with(spec));
            (0..300).map(|_| !faults.fire("x").is_empty()).collect()
        };
        let unlimited = run(spec.clone());
        let firing: Vec<usize> = (0..300).filter(|&i| unlimited[i]).collect();
        for k in [0, 1, 5, 17] {
            let limited = run(spec.clone().limited(k as u64));
            let fired: Vec<usize> = (0..300).filter(|&i| limited[i]).collect();
            assert_eq!(fired, firing[..k], "limited to {k}");
        }
    }

    #[test]
    fn site_matching_is_exact_or_dotted_prefix() {
        let s = FaultSpec::always("batch", FaultKind::Panic);
        assert!(s.matches("batch"));
        assert!(s.matches("batch.black_scholes"));
        assert!(!s.matches("batcher"));
        assert!(!s.matches("ba"));
        assert!(!s.matches("admit.batch"));
    }

    #[test]
    fn unarmed_handles_never_fire() {
        for faults in [
            Faults::none(),
            Faults::default(),
            Faults::new(FaultPlan::new()),
        ] {
            assert!(!faults.armed());
            assert!(faults.fire("batch.black_scholes").is_empty());
            assert_eq!(faults.fire_compute("batch.black_scholes"), Duration::ZERO);
            assert_eq!(faults.fired_total(), 0);
        }
    }

    #[test]
    fn rate_one_always_fires_and_rate_zero_never() {
        let faults = Faults::new(
            FaultPlan::new()
                .with(FaultSpec::always("a", FaultKind::Panic))
                .with(FaultSpec::at_rate("a", FaultKind::StallQueue, 0.0)),
        );
        for _ in 0..50 {
            assert_eq!(faults.fire("a"), vec![FaultKind::Panic]);
        }
        assert_eq!(faults.fired_total(), 50, "only the rate-1 spec fired");
    }

    #[test]
    fn firing_sequence_is_deterministic_per_seed() {
        let plan = FaultPlan::new().with(FaultSpec::at_rate("x", FaultKind::Panic, 0.3).seeded(99));
        let run = |plan: &FaultPlan| -> Vec<bool> {
            let faults = Faults::new(plan.clone());
            (0..200).map(|_| !faults.fire("x").is_empty()).collect()
        };
        let a = run(&plan);
        let b = run(&plan);
        assert_eq!(a, b, "same seed, same decisions");
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f));
        let mut other = plan.clone();
        other.specs[0].seed = 100;
        assert_ne!(a, run(&other), "different seed, different stream");
        // Empirical rate lands near the nominal one.
        let hits = a.iter().filter(|&&f| f).count();
        assert!((30..=90).contains(&hits), "rate 0.3 over 200: {hits}");
    }

    #[test]
    fn fire_compute_panics_with_the_marker() {
        let faults =
            Faults::new(FaultPlan::new().with(FaultSpec::always("boom", FaultKind::Panic)));
        silence_injected_panics();
        let err = std::panic::catch_unwind(|| faults.fire_compute("boom")).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.starts_with(INJECTED_PANIC), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn corruption_mangles_values() {
        assert!(Corruption::NaN.apply(3.0).is_nan());
        assert_eq!(Corruption::Inf.apply(3.0), f64::INFINITY);
        assert!(Corruption::Negative.apply(3.0) < 0.0);
        assert!(Corruption::Negative.apply(-0.5) < 0.0);
    }

    #[test]
    fn handles_fired_from_interleaving_threads_each_replay_their_own_seed() {
        // The first 500 decisions of a fresh 30 % handle on `seed`, each
        // taken after `step` returns.
        let run = |seed: u64, step: &dyn Fn()| -> Vec<bool> {
            let spec = FaultSpec::at_rate("x", FaultKind::Panic, 0.3).seeded(seed);
            let faults = Faults::new(FaultPlan::new().with(spec));
            let fire = |_| {
                step();
                !faults.fire("x").is_empty()
            };
            (0..500).map(fire).collect()
        };
        let alone = [run(1, &|| ()), run(2, &|| ())];
        assert_ne!(alone[0], alone[1]);
        // A barrier before every decision makes the two handles' calls
        // alternate — what reset the first plan's stream when a second
        // was installed over it.
        let barrier = std::sync::Barrier::new(2);
        let step = || {
            barrier.wait();
        };
        let together = std::thread::scope(|s| {
            let threads = [1, 2].map(|seed| s.spawn(move || run(seed, &step)));
            threads.map(|t| t.join().expect("firing thread"))
        });
        assert_eq!(together, alone);
    }

    #[test]
    fn a_clone_shares_the_budget_and_a_second_handle_gets_its_own() {
        let plan = FaultPlan::new().with(FaultSpec::always("s", FaultKind::Kill).limited(1));
        let kills = |f: &Faults| (0..10).map(|_| f.fire("s").len()).sum::<usize>();
        let first = Faults::new(plan.clone());
        let clone = first.clone();
        assert_eq!(kills(&first), 1, "a budget of 1 fires once per handle");
        assert_eq!(kills(&clone), 0, "a clone draws on the same budget");
        assert_eq!((first.fired_total(), clone.fired_total()), (1, 1));
        let second = Faults::new(plan);
        assert_eq!(second.fired_total(), 0);
        assert_eq!(kills(&second), 1, "a second handle of the plan has its own");
    }
}
