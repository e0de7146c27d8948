//! Cycle-accurate timestamps for the micro-kernel rungs.
//!
//! On x86_64 the source is the invariant TSC read through `RDTSC` with an
//! `LFENCE` on both sides: the leading fence keeps earlier instructions
//! from draining into the timed region, the trailing one keeps the timed
//! region from hoisting above the read. Off x86_64 (or wherever `RDTSC`
//! is unavailable) every reader falls back to the monotonic clock in
//! nanoseconds, so "cycles" degrade gracefully to nanoseconds and the
//! whole surface stays usable on any host.
//!
//! Two one-time calibrations, both cached for the process lifetime:
//!
//! * [`overhead_cycles`] — the median cost of one back-to-back reader
//!   pair, subtracted from every [`CycleStamp::elapsed_cycles`] so tiny
//!   regions aren't dominated by the measurement itself.
//! * [`tsc_ghz`] — cycles per nanosecond against the monotonic clock
//!   over a short busy-wait, which converts cycle counts back to time
//!   (and is exactly 1.0 on the nanosecond fallback).

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Reader pairs sampled by the overhead calibration.
const CAL_REPS: usize = 256;

/// Busy-wait length for the frequency estimate.
const FREQ_WINDOW: Duration = Duration::from_millis(10);

/// Name of the active time source: `"rdtsc"` on x86_64, `"instant"`
/// elsewhere — recorded in bench reports so trajectories across hosts
/// are comparable knowingly.
pub fn cycle_source() -> &'static str {
    if cfg!(target_arch = "x86_64") {
        "rdtsc"
    } else {
        "instant"
    }
}

/// Monotonic-clock fallback reader: nanoseconds since the first call.
/// Always compiled (not just off x86_64) so the fallback path is
/// exercised by tests on every host.
pub fn read_fallback_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn read_raw() -> u64 {
    // Safe on every x86_64 CPU this workspace targets; `_rdtsc` has no
    // memory preconditions, the fences only order surrounding code.
    unsafe {
        core::arch::x86_64::_mm_lfence();
        let t = core::arch::x86_64::_rdtsc();
        core::arch::x86_64::_mm_lfence();
        t
    }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn read_raw() -> u64 {
    read_fallback_ns()
}

/// One fenced cycle-counter read (monotonic per thread on invariant-TSC
/// hardware; monotonic everywhere on the fallback).
#[inline]
pub fn read() -> u64 {
    read_raw()
}

/// Median cost, in cycles, of one back-to-back [`read`] pair — the
/// self-measurement overhead subtracted by [`CycleStamp::elapsed_cycles`].
/// Calibrated once per process; always finite and `>= 0`.
pub fn overhead_cycles() -> f64 {
    static OVERHEAD: OnceLock<f64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| calibrate_overhead(read_raw))
}

/// Median delta of `CAL_REPS` back-to-back reader pairs. Generic over the
/// reader so the fallback path is calibratable in tests.
fn calibrate_overhead(read: impl Fn() -> u64) -> f64 {
    // Warm the icache/branch predictors so the first samples aren't cold.
    for _ in 0..32 {
        std::hint::black_box(read());
    }
    let mut deltas: Vec<u64> = (0..CAL_REPS)
        .map(|_| {
            let a = read();
            let b = read();
            b.saturating_sub(a)
        })
        .collect();
    deltas.sort_unstable();
    deltas[deltas.len() / 2] as f64
}

/// Estimated TSC frequency in GHz (equivalently: cycles per nanosecond),
/// from one busy-wait window against the monotonic clock. On the
/// nanosecond fallback this converges to 1.0 by construction. Calibrated
/// once per process.
pub fn tsc_ghz() -> f64 {
    static GHZ: OnceLock<f64> = OnceLock::new();
    *GHZ.get_or_init(|| {
        let t0 = Instant::now();
        let c0 = read_raw();
        while t0.elapsed() < FREQ_WINDOW {
            std::hint::spin_loop();
        }
        let cycles = read_raw().wrapping_sub(c0) as f64;
        let ns = t0.elapsed().as_nanos() as f64;
        cycles / ns.max(1.0)
    })
}

/// A start timestamp; [`elapsed_cycles`](Self::elapsed_cycles) closes the
/// interval with overhead compensation.
#[derive(Debug, Clone, Copy)]
pub struct CycleStamp(u64);

/// Open a cycle-timed interval.
#[inline]
pub fn start() -> CycleStamp {
    CycleStamp(read_raw())
}

impl CycleStamp {
    /// Cycles elapsed since [`start`], with the calibrated read overhead
    /// subtracted and the result clamped to `>= 0` (a region shorter than
    /// the overhead reports 0, never a negative count).
    pub fn elapsed_cycles(self) -> f64 {
        let now = read_raw();
        (now.saturating_sub(self.0) as f64 - overhead_cycles()).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_calibrated_nonnegative_and_finite() {
        let oh = overhead_cycles();
        assert!(oh.is_finite() && oh >= 0.0, "{oh}");
        // Cached: a second call returns the identical value.
        assert_eq!(oh.to_bits(), overhead_cycles().to_bits());
    }

    #[test]
    fn reads_are_monotone() {
        let mut prev = read();
        for _ in 0..10_000 {
            let now = read();
            assert!(now >= prev, "counter went backwards: {prev} -> {now}");
            prev = now;
        }
    }

    #[test]
    fn fallback_reader_is_monotone_and_advances() {
        let a = read_fallback_ns();
        let b = read_fallback_ns();
        assert!(b >= a);
        std::thread::sleep(Duration::from_millis(2));
        let c = read_fallback_ns();
        assert!(c > b, "fallback did not advance across a sleep: {b} -> {c}");
    }

    #[test]
    fn fallback_overhead_calibrates_nonnegative() {
        let oh = calibrate_overhead(read_fallback_ns);
        assert!(oh.is_finite() && oh >= 0.0, "{oh}");
    }

    #[test]
    fn synthetic_counter_calibrates_to_its_stride() {
        use std::cell::Cell;
        // A reader that advances exactly 5 "cycles" per read: every
        // back-to-back pair differs by 5, so the median overhead is 5.
        let ticks = Cell::new(0u64);
        let oh = calibrate_overhead(|| {
            ticks.set(ticks.get() + 5);
            ticks.get()
        });
        assert_eq!(oh, 5.0);
    }

    #[test]
    fn frequency_estimate_is_positive() {
        let ghz = tsc_ghz();
        assert!(ghz.is_finite() && ghz > 0.0, "{ghz}");
        // Anything from ~0.5 (fallback on a slow clock) to ~10 GHz is
        // plausible silicon; far outside means the window math broke.
        assert!(ghz < 100.0, "{ghz}");
    }

    #[test]
    fn elapsed_cycles_is_nonnegative_and_grows_with_work() {
        let empty = start().elapsed_cycles();
        assert!(empty >= 0.0);
        // Opaque per iteration: a plain `acc += i * i` loop folds to its
        // closed form in release builds, the region shrinks to the two reads,
        // and the overhead subtraction clamps it to 0.
        let t = start();
        let mut acc = 0u64;
        for i in 0..100_000u64 {
            acc = std::hint::black_box(acc.wrapping_add(i * i));
        }
        let busy = t.elapsed_cycles();
        assert!(busy > 100.0 * overhead_cycles().max(1.0), "{busy}");
    }

    #[test]
    fn source_name_matches_arch() {
        let s = cycle_source();
        assert!(s == "rdtsc" || s == "instant");
        assert_eq!(s == "rdtsc", cfg!(target_arch = "x86_64"));
    }
}
