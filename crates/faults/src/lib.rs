//! # finbench-faults — deterministic fault injection for chaos runs
//!
//! Zero-dependency fault injection through an owned handle. Production
//! code is sprinkled with named *sites* (`faults.fire("batch.black_scholes")`)
//! that fire the [`Faults`] handle their owner was given; the
//! [`FaultPlan`] behind it — built programmatically or parsed from the
//! `FINBENCH_FAULTS` environment variable — decides which sites misbehave,
//! how, and how often. There is no process-wide plan: a plan fires only
//! in the server started with its handle. Unarmed ([`Faults::none`]) a
//! site costs an `Option::is_none` and nothing ever fires: injection
//! hooks are compiled in always, armed only by whoever holds a plan.
//!
//! ## The `FINBENCH_FAULTS` grammar
//!
//! Comma-separated entries, `site=kind[@rate][*max_fires][#seed]`:
//!
//! ```text
//! FINBENCH_FAULTS="batch=panic@0.1,admit=corrupt:nan@0.05#7,queue=stall@0.02"
//! FINBENCH_FAULTS="serve.shard.0=kill@0.1*1#11"   # fires at most once
//! ```
//!
//! * `site` — a dotted site name; an entry matches a call site when it is
//!   equal to it or a dotted prefix of it (`batch` matches
//!   `batch.black_scholes`).
//! * `kind` — `panic` | `latency:<dur>` (`100ns`, `250us`, `5ms`, `1s`) |
//!   `corrupt:<nan|inf|neg>` | `stall` | `kill` (for killable components
//!   such as serving shards: `serve.shard.<i>=kill`).
//! * `@rate` — firing probability in `[0, 1]`; defaults to `1`.
//! * `*max_fires` — firing budget: after the spec has fired this many
//!   times it never fires again; defaults to unlimited. This is how a
//!   rolling-kill chaos plan self-terminates against a server whose
//!   killed shards respawn (`serve.shard.0=kill@0.1*1` kills seat 0
//!   exactly once and then lets the respawned worker live).
//! * `#seed` — per-entry SplitMix64 seed; defaults to `0x5EED`.
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
    /// Kill the component at the site outright (e.g. a serving shard:
    /// `serve.shard.<i>=kill`). The component answers everything it
    /// holds with typed rejections and exits — availability degrades,
    /// correctness must not.
    Kill,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Panic => write!(f, "panic"),
            FaultKind::Latency(d) => {
                // Sub-microsecond durations must render at full precision
                // or `parse(to_string())` would truncate them.
                if d.subsec_nanos() % 1000 == 0 {
                    write!(f, "latency:{}us", d.as_micros())
                } else {
                    write!(f, "latency:{}ns", d.as_nanos())
                }
            }
            FaultKind::CorruptInput(Corruption::NaN) => write!(f, "corrupt:nan"),
            FaultKind::CorruptInput(Corruption::Inf) => write!(f, "corrupt:inf"),
            FaultKind::CorruptInput(Corruption::Negative) => write!(f, "corrupt:neg"),
            FaultKind::StallQueue => write!(f, "stall"),
            FaultKind::Kill => write!(f, "kill"),
        }
    }
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

impl std::fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={}@{}", self.site, self.kind, self.rate)?;
        if self.max_fires != u64::MAX {
            write!(f, "*{}", self.max_fires)?;
        }
        write!(f, "#{}", self.seed)
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

    /// Parse the `FINBENCH_FAULTS` grammar (see the crate docs).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            plan.specs.push(parse_entry(entry)?);
        }
        Ok(plan)
    }

    /// True when the plan has no specs.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for s in &self.specs {
            if !first {
                write!(f, ",")?;
            }
            first = false;
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

fn parse_entry(entry: &str) -> Result<FaultSpec, String> {
    let (site, rest) = entry
        .split_once('=')
        .ok_or_else(|| format!("fault entry `{entry}`: want site=kind[@rate][*max][#seed]"))?;
    let site = site.trim();
    if site.is_empty() {
        return Err(format!("fault entry `{entry}`: empty site"));
    }
    let (rest, seed) = match rest.rsplit_once('#') {
        Some((r, s)) => (
            r,
            s.trim()
                .parse::<u64>()
                .map_err(|_| format!("fault entry `{entry}`: bad seed `{s}`"))?,
        ),
        None => (rest, DEFAULT_SEED),
    };
    // `*max_fires` sits between the rate and the seed; no kind or rate
    // token contains `*`, so a reverse split is unambiguous.
    let (rest, max_fires) = match rest.rsplit_once('*') {
        Some((r, m)) => (
            r,
            m.trim()
                .parse::<u64>()
                .map_err(|_| format!("fault entry `{entry}`: bad max_fires `{m}`"))?,
        ),
        None => (rest, u64::MAX),
    };
    let (kind_str, rate) = match rest.rsplit_once('@') {
        Some((k, r)) => {
            let rate = r
                .trim()
                .parse::<f64>()
                .map_err(|_| format!("fault entry `{entry}`: bad rate `{r}`"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault entry `{entry}`: rate {rate} outside [0, 1]"));
            }
            (k, rate)
        }
        None => (rest, 1.0),
    };
    let kind = parse_kind(kind_str.trim())
        .ok_or_else(|| format!("fault entry `{entry}`: unknown kind `{}`", kind_str.trim()))?;
    Ok(FaultSpec {
        site: site.to_string(),
        kind,
        rate,
        max_fires,
        seed,
    })
}

fn parse_kind(s: &str) -> Option<FaultKind> {
    match s {
        "panic" => Some(FaultKind::Panic),
        "stall" => Some(FaultKind::StallQueue),
        "kill" => Some(FaultKind::Kill),
        _ => {
            if let Some(d) = s.strip_prefix("latency:") {
                return parse_duration(d.trim()).map(FaultKind::Latency);
            }
            if let Some(c) = s.strip_prefix("corrupt:") {
                return match c.trim() {
                    "nan" => Some(FaultKind::CorruptInput(Corruption::NaN)),
                    "inf" => Some(FaultKind::CorruptInput(Corruption::Inf)),
                    "neg" => Some(FaultKind::CorruptInput(Corruption::Negative)),
                    _ => None,
                };
            }
            None
        }
    }
}

/// Parse `100ns` / `250us` / `5ms` / `2s` (also bare integers, read as µs).
fn parse_duration(s: &str) -> Option<Duration> {
    // `ns` must be peeled before the bare-`s` suffix below would swallow
    // its trailing `s` and fail on the leftover `n`.
    if let Some(n) = s.strip_suffix("ns") {
        return n.trim().parse::<u64>().ok().map(Duration::from_nanos);
    }
    let (num, mul_us) = if let Some(n) = s.strip_suffix("us") {
        (n, 1u64)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1_000)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1_000_000)
    } else {
        (s, 1)
    };
    num.trim()
        .parse::<u64>()
        .ok()
        .map(|v| Duration::from_micros(v.saturating_mul(mul_us)))
}

// ---------------------------------------------------------------------------
// The handle
// ---------------------------------------------------------------------------

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
/// *shares* them (the CLI hands one to every server of a run); a second
/// [`Faults::new`] of the same plan starts its own.
#[derive(Clone, Default)]
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

    /// The plan in the `FINBENCH_FAULTS` environment variable; unarmed
    /// when the variable is unset or holds no entry.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("FINBENCH_FAULTS") {
            Ok(spec) => FaultPlan::parse(&spec).map(Self::new),
            Err(_) => Ok(Self::none()),
        }
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

    /// Per-spec firing tallies: `(spec, calls, fired)`, in plan order.
    pub fn report(&self) -> Vec<(FaultSpec, u64, u64)> {
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        let tally = |a: &ActiveSpec| (a.spec.clone(), load(&a.calls), load(&a.fired));
        self.specs().iter().map(tally).collect()
    }

    /// Total faults fired through this handle and its clones.
    pub fn fired_total(&self) -> u64 {
        let fired = |a: &ActiveSpec| a.fired.load(Ordering::Relaxed);
        self.specs().iter().map(fired).sum()
    }
}

/// The plan in the `FINBENCH_FAULTS` grammar (empty when unarmed).
impl std::fmt::Debug for Faults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let specs = self.specs().iter().map(|a| a.spec.clone()).collect();
        write!(f, "Faults({})", FaultPlan { specs })
    }
}

/// Equal when one is a clone of the other, or neither is armed.
impl PartialEq for Faults {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
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
    fn grammar_round_trips() {
        let plan = FaultPlan::parse(
            "batch=panic@0.1, admit.black_scholes=corrupt:nan@0.05#7,\
             queue=stall, batch.binomial=latency:250us@0.5",
        )
        .unwrap();
        assert_eq!(plan.specs.len(), 4);
        assert_eq!(plan.specs[0].kind, FaultKind::Panic);
        assert_eq!(plan.specs[0].rate, 0.1);
        assert_eq!(plan.specs[0].seed, DEFAULT_SEED);
        assert_eq!(plan.specs[1].kind, FaultKind::CorruptInput(Corruption::NaN));
        assert_eq!(plan.specs[1].seed, 7);
        assert_eq!(plan.specs[2].kind, FaultKind::StallQueue);
        assert_eq!(plan.specs[2].rate, 1.0);
        assert_eq!(
            plan.specs[3].kind,
            FaultKind::Latency(Duration::from_micros(250))
        );
        // Display re-parses to the same plan.
        let again = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(again, plan);
    }

    #[test]
    fn max_fires_caps_the_budget_and_round_trips() {
        let plan = FaultPlan::parse("a=panic@1*2#5, b=kill@0.5*1").unwrap();
        assert_eq!(plan.specs[0].max_fires, 2);
        assert_eq!(plan.specs[1].max_fires, 1);
        assert_eq!(plan.specs[1].kind, FaultKind::Kill);
        assert_eq!(plan.specs[0].to_string(), "a=panic@1*2#5");
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
        // Unlimited specs keep the old rendering (no `*` token).
        let unlimited = FaultSpec::always("a", FaultKind::Panic);
        assert!(!unlimited.to_string().contains('*'));

        let faults = Faults::new(plan);
        let fired: usize = (0..50).map(|_| faults.fire("a").len()).sum();
        assert_eq!(fired, 2, "budget of 2 must cap an always-firing spec");
        let rep = faults.report();
        assert_eq!(rep[0].2, 2);
        // Exhausted specs stop consuming decisions: calls froze when the
        // budget ran out (2 firing calls consumed 2 decisions).
        assert_eq!(rep[0].1, 2);
    }

    #[test]
    fn grammar_rejects_bad_entries() {
        for bad in [
            "no_equals",
            "site=",
            "=panic",
            "site=warble",
            "site=panic@1.5",
            "site=panic@x",
            "site=latency:abc",
            "site=corrupt:weird",
            "site=panic#notanumber",
            "site=panic*x",
            "site=panic*-1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} should not parse");
        }
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" , ,").unwrap().is_empty());
    }

    #[test]
    fn durations_parse_all_units() {
        assert_eq!(parse_duration("100ns"), Some(Duration::from_nanos(100)));
        assert_eq!(parse_duration("250us"), Some(Duration::from_micros(250)));
        assert_eq!(parse_duration("5ms"), Some(Duration::from_millis(5)));
        assert_eq!(parse_duration("2s"), Some(Duration::from_secs(2)));
        assert_eq!(parse_duration("42"), Some(Duration::from_micros(42)));
        assert_eq!(parse_duration("nope"), None);
    }

    #[test]
    fn sub_microsecond_latency_displays_at_full_precision() {
        // Pre-fix, Display truncated 1500ns to `latency:1us` and the
        // roundtrip silently changed the plan.
        let spec = FaultSpec::always("batch", FaultKind::Latency(Duration::from_nanos(1500)));
        assert_eq!(spec.to_string(), "batch=latency:1500ns@1#24301");
        let plan = FaultPlan::new().with(spec);
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
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
            assert!(faults.report().is_empty());
            assert_eq!(faults.fired_total(), 0);
            assert_eq!(faults, Faults::none());
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
        let rep = faults.report();
        assert_eq!(rep[0].2, 50);
        assert_eq!(rep[1].1, 50, "rate-0 spec still evaluated");
        assert_eq!(rep[1].2, 0, "rate-0 spec never fired");
    }

    #[test]
    fn firing_sequence_is_deterministic_per_seed() {
        let plan = FaultPlan::new().with(FaultSpec {
            site: "x".into(),
            kind: FaultKind::Panic,
            rate: 0.3,
            max_fires: u64::MAX,
            seed: 99,
        });
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

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]
        #[test]
        fn display_reparses_to_the_same_plan(
            site_idx in 0usize..4,
            kind_idx in 0usize..7,
            nanos in 0u64..5_000_000,
            rate in 0.0f64..1.0,
            max_idx in 0usize..4,
            seed in 0u64..u64::MAX,
        ) {
            const SITES: [&str; 4] = ["batch", "admit.black_scholes", "queue.serve", "a.b.c"];
            const MAXES: [u64; 4] = [u64::MAX, 1, 7, 1_000_000];
            let kind = match kind_idx {
                0 => FaultKind::Panic,
                1 => FaultKind::Latency(Duration::from_nanos(nanos)),
                2 => FaultKind::CorruptInput(Corruption::NaN),
                3 => FaultKind::CorruptInput(Corruption::Inf),
                4 => FaultKind::CorruptInput(Corruption::Negative),
                5 => FaultKind::Kill,
                _ => FaultKind::StallQueue,
            };
            let plan = FaultPlan::new().with(FaultSpec {
                site: SITES[site_idx].to_string(),
                kind,
                rate,
                max_fires: MAXES[max_idx],
                seed,
            });
            let rendered = plan.to_string();
            let reparsed = FaultPlan::parse(&rendered);
            proptest::prop_assert!(reparsed.is_ok(), "`{rendered}` failed to parse");
            proptest::prop_assert_eq!(reparsed.unwrap(), plan, "`{}` changed meaning", rendered);
        }
    }

    #[test]
    fn from_env_is_unarmed_without_the_variable() {
        // The test runner does not set FINBENCH_FAULTS; guard anyway.
        if std::env::var("FINBENCH_FAULTS").is_err() {
            assert_eq!(Faults::from_env(), Ok(Faults::none()));
        }
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
        let plan = FaultPlan::parse("s=kill*1").unwrap();
        let kills = |f: &Faults| (0..10).map(|_| f.fire("s").len()).sum::<usize>();
        let first = Faults::new(plan.clone());
        let clone = first.clone();
        assert_eq!(first, clone);
        assert_eq!(kills(&first), 1, "`*1` fires once per handle");
        assert_eq!(kills(&clone), 0, "a clone draws on the same budget");
        assert_eq!((first.fired_total(), clone.fired_total()), (1, 1));
        let second = Faults::new(plan);
        assert_ne!(first, second);
        assert_eq!(second.fired_total(), 0);
        assert_eq!(kills(&second), 1, "a second handle of the plan has its own");
        assert_eq!(format!("{second:?}"), "Faults(s=kill@1*1#24301)");
        assert_eq!(format!("{:?}", Faults::none()), "Faults()");
    }
}
