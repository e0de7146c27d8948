//! The `FINBENCH_LOG` runtime filter.
//!
//! Instrumentation falls into two signal classes — spans, and counters
//! (with gauges) — each of which can be toggled independently:
//!
//! ```text
//! FINBENCH_LOG=span              # spans only, no counters or gauges
//! FINBENCH_LOG=off               # everything disabled
//! (unset)                        # everything enabled
//! ```
//!
//! The filter is a single `AtomicU32` read with one relaxed load on every
//! hot-path check; the environment is parsed once on first use.

use std::sync::atomic::{AtomicU32, Ordering};

/// Signal classes the filter distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Hierarchical spans.
    Span,
    /// Counters and gauges.
    Counter,
}

pub(crate) const BIT_SPAN: u32 = 1;
pub(crate) const BIT_COUNTER: u32 = 2;
const BIT_INIT: u32 = 1 << 31;
const ALL: u32 = BIT_SPAN | BIT_COUNTER;

static FILTER: AtomicU32 = AtomicU32::new(0);

/// Parse a `FINBENCH_LOG`-style value into filter bits.
fn parse(value: &str) -> u32 {
    let v = value.trim();
    if v.is_empty() {
        return ALL;
    }
    match v.to_ascii_lowercase().as_str() {
        "off" | "none" | "0" => return 0,
        "all" | "on" | "1" => return ALL,
        _ => {}
    }
    let mut bits = 0;
    for tok in v.split(',') {
        match tok.trim().to_ascii_lowercase().as_str() {
            "span" | "spans" => bits |= BIT_SPAN,
            "counter" | "counters" | "gauge" | "gauges" => bits |= BIT_COUNTER,
            "" => {}
            other => eprintln!("FINBENCH_LOG: ignoring unknown token {other:?}"),
        }
    }
    bits
}

fn load() -> u32 {
    let bits = FILTER.load(Ordering::Relaxed);
    if bits & BIT_INIT != 0 {
        return bits;
    }
    let parsed = match std::env::var("FINBENCH_LOG") {
        Ok(v) => parse(&v),
        Err(_) => ALL,
    } | BIT_INIT;
    FILTER.store(parsed, Ordering::Relaxed);
    parsed
}

/// Is the given signal class enabled?
#[inline]
pub fn enabled(kind: Kind) -> bool {
    let bits = load();
    let bit = match kind {
        Kind::Span => BIT_SPAN,
        Kind::Counter => BIT_COUNTER,
    };
    bits & bit != 0
}

/// Programmatically override the filter (tests and embedding tools); the
/// same format as the `FINBENCH_LOG` variable.
pub fn set_filter(spec: &str) {
    FILTER.store(parse(spec) | BIT_INIT, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_grammar() {
        assert_eq!(parse("off"), 0);
        assert_eq!(parse("none"), 0);
        assert_eq!(parse("all"), ALL);
        assert_eq!(parse(""), ALL);
        assert_eq!(parse("span"), BIT_SPAN);
        assert_eq!(parse("span,counter"), BIT_SPAN | BIT_COUNTER);
        assert_eq!(parse(" counters , spans "), ALL);
        assert_eq!(parse("bogus"), 0);
    }
}
