//! A counting global allocator: every heap allocation in the process is
//! tallied on relaxed atomics, so bench reports can put a hard number on
//! "allocations per batch iteration" for the hot pricing paths.
//!
//! The allocator forwards to [`System`] and adds two relaxed
//! `fetch_add`s per call. Installation is the binary crate's choice, and
//! only the binaries that read the tallies make it (the allocation tests
//! and the standalone benchmark runner; the `finbench` CLI does not):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: finbench_telemetry::CountingAlloc = finbench_telemetry::CountingAlloc;
//! ```
//!
//! Binaries that don't install it still link fine; [`alloc_stats`] just
//! stays at zero, and [`counting_allocator_active`] reports whether the
//! numbers mean anything.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static DEALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The counting allocator; a unit type so it can be a `static`.
pub struct CountingAlloc;

// SAFETY: every method forwards verbatim to `System`, which upholds the
// GlobalAlloc contract; the added atomic counters have no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOC_CALLS.fetch_add(1, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is one allocator round trip; count the new size (the
        // old bytes were already counted when first allocated).
        ALLOC_CALLS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Cumulative allocation tallies since process start (all zeros unless
/// [`CountingAlloc`] is installed as the global allocator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Allocation calls (`alloc` + `alloc_zeroed` + `realloc`).
    pub allocs: u64,
    /// Deallocation calls.
    pub deallocs: u64,
    /// Bytes requested across allocation calls.
    pub bytes: u64,
}

impl AllocStats {
    /// Tallies accumulated between `earlier` and `self` (saturating, so a
    /// torn pair of snapshots can't produce a wrapped count).
    pub fn since(self, earlier: AllocStats) -> AllocStats {
        AllocStats {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            deallocs: self.deallocs.saturating_sub(earlier.deallocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// Snapshot the process-wide allocation tallies.
pub fn alloc_stats() -> AllocStats {
    AllocStats {
        allocs: ALLOC_CALLS.load(Relaxed),
        deallocs: DEALLOC_CALLS.load(Relaxed),
        bytes: ALLOC_BYTES.load(Relaxed),
    }
}

/// True when [`CountingAlloc`] is actually installed in this binary:
/// probes with one heap allocation and checks the counter moved.
pub fn counting_allocator_active() -> bool {
    let before = ALLOC_CALLS.load(Relaxed);
    std::hint::black_box(Vec::<u8>::with_capacity(64));
    ALLOC_CALLS.load(Relaxed) > before
}

#[cfg(test)]
mod tests {
    use super::*;

    // The telemetry test binary does not install the allocator, so drive
    // the GlobalAlloc impl directly and watch the counters.
    #[test]
    fn forwarded_calls_count_and_return_usable_memory() {
        let layout = Layout::from_size_align(64, 8).unwrap();
        let before = alloc_stats();
        unsafe {
            let p = CountingAlloc.alloc(layout);
            assert!(!p.is_null());
            p.write(0xAB);
            assert_eq!(p.read(), 0xAB);
            let z = CountingAlloc.alloc_zeroed(layout);
            assert!(!z.is_null());
            assert_eq!(z.read(), 0);
            let grown = CountingAlloc.realloc(p, layout, 128);
            assert!(!grown.is_null());
            CountingAlloc.dealloc(grown, Layout::from_size_align(128, 8).unwrap());
            CountingAlloc.dealloc(z, layout);
        }
        let d = alloc_stats().since(before);
        assert_eq!(d.allocs, 3, "{d:?}");
        assert_eq!(d.deallocs, 2, "{d:?}");
        assert_eq!(d.bytes, 64 + 64 + 128, "{d:?}");
    }

    #[test]
    fn since_saturates_instead_of_wrapping() {
        let small = AllocStats {
            allocs: 1,
            deallocs: 1,
            bytes: 1,
        };
        let big = AllocStats {
            allocs: 5,
            deallocs: 5,
            bytes: 5,
        };
        assert_eq!(small.since(big), AllocStats::default());
        assert_eq!(
            big.since(small),
            AllocStats {
                allocs: 4,
                deallocs: 4,
                bytes: 4
            }
        );
    }
}
