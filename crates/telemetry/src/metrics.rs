//! Named counters and gauges, by handle (and by name for the benchmark's
//! probes).
//!
//! Values live in a process-wide registry keyed by name. A call site
//! holds a **handle** ([`Counter::named`], [`Gauge::named`]): the lookup
//! is paid once, at the handle's first recorded event, and every later
//! [`Counter::add`] / [`Gauge::set`] is relaxed atomics — no lock, no
//! hash, no allocation. The **by-name** calls ([`counter_add`],
//! [`gauge_set`]) lock the registry and hash the name on every call.
//!
//! A [`Counter`] counts in two scopes. Its **own** cell
//! ([`Counter::get`]) is its component's ledger (one serving plane's
//! `internal`, one seat's steals). The **process-wide** cell of its name
//! ([`counter_value`], the exporters) is the sum over every handle of
//! that name plus the by-name adds. Both only count up: nothing switches
//! a counter off or sets it back to zero, so a reader that wants what one
//! stretch of work counted takes the difference of two snapshots. By
//! either route a name enters the registry at its first non-zero add, so
//! an export lists what happened, not what could have.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

type Cells = HashMap<String, Arc<AtomicU64>>;
type Registry = OnceLock<Mutex<Cells>>;

static COUNTERS: Registry = OnceLock::new();
static GAUGES: Registry = OnceLock::new();

fn lock(reg: &Registry) -> MutexGuard<'_, Cells> {
    reg.get_or_init(Mutex::default).lock().unwrap()
}

fn cell(reg: &Registry, name: &str) -> Arc<AtomicU64> {
    let mut map = lock(reg);
    if let Some(c) = map.get(name) {
        return Arc::clone(c);
    }
    let c = Arc::new(AtomicU64::new(0));
    map.insert(name.to_string(), Arc::clone(&c));
    c
}

/// The named cell's value (0 if the name was never recorded).
fn read(reg: &Registry, name: &str) -> u64 {
    lock(reg).get(name).map_or(0, |c| c.load(Ordering::Relaxed))
}

/// Every `(name, value)` of the registry, sorted by name.
fn sorted(reg: &Registry) -> Vec<(String, u64)> {
    let mut out: Vec<_> = lock(reg)
        .iter()
        .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
        .collect();
    out.sort();
    out
}

/// A name and its registry cell, found at first use and kept.
#[derive(Debug)]
struct Named(String, OnceLock<Arc<AtomicU64>>);

impl Named {
    #[inline]
    fn cell(&self, reg: &Registry) -> &AtomicU64 {
        self.1.get_or_init(|| cell(reg, &self.0))
    }
}

/// A counter handle: see the module docs for its two scopes.
#[derive(Debug)]
pub struct Counter {
    own: AtomicU64,
    shared: Named,
}

impl Counter {
    /// A handle counting from zero under `name`.
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            own: AtomicU64::new(0),
            shared: Named(name.into(), OnceLock::new()),
        }
    }

    /// Count `n` more, in the handle's own cell and in the process-wide
    /// cell of its name.
    #[inline]
    pub fn add(&self, n: u64) {
        self.own.fetch_add(n, Ordering::Relaxed);
        if n != 0 {
            self.shared.cell(&COUNTERS).fetch_add(n, Ordering::Relaxed);
        }
    }

    /// What this handle has counted (not the process-wide total).
    pub fn get(&self) -> u64 {
        self.own.load(Ordering::Relaxed)
    }
}

/// A gauge handle on the process-wide gauge of its name.
#[derive(Debug)]
pub struct Gauge(Named);

impl Gauge {
    /// A handle on the gauge `name`.
    pub fn named(name: impl Into<String>) -> Self {
        Self(Named(name.into(), OnceLock::new()))
    }

    /// Set the gauge to `v`.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.cell(&GAUGES).store(v.to_bits(), Ordering::Relaxed);
    }
}

/// Add `n` to the named counter (creating it at zero on first use).
///
/// Nothing in the product counts by name; this stays public only because
/// `benchmark/` times it (`probes.rs`) and may not change with the crate.
#[inline]
pub fn counter_add(name: &str, n: u64) {
    if n != 0 {
        cell(&COUNTERS, name).fetch_add(n, Ordering::Relaxed);
    }
}

/// Current value of the named counter (0 if it never incremented).
pub fn counter_value(name: &str) -> u64 {
    read(&COUNTERS, name)
}

/// Set the named gauge to `v`.
///
/// Public for the same reason as [`counter_add`]: `benchmark/` times it.
#[inline]
pub fn gauge_set(name: &str, v: f64) {
    cell(&GAUGES, name).store(v.to_bits(), Ordering::Relaxed);
}

/// Current value of the named gauge (0.0 if never set).
pub fn gauge_value(name: &str) -> f64 {
    f64::from_bits(read(&GAUGES, name))
}

/// Snapshot all counters, sorted by name.
pub fn counter_snapshot() -> Vec<(String, u64)> {
    sorted(&COUNTERS)
}

/// Snapshot all gauges, sorted by name.
pub fn gauge_snapshot() -> Vec<(String, f64)> {
    let bits = sorted(&GAUGES).into_iter();
    bits.map(|(name, v)| (name, f64::from_bits(v))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_names_read_zero() {
        assert_eq!(counter_value("metrics_test.never"), 0);
        assert_eq!(gauge_value("metrics_test.never"), 0.0);
    }
}
