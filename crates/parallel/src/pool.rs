//! The chunk-dispenser scheduler.
//!
//! A single `AtomicUsize` hands out chunk indices to scoped worker
//! threads — the minimal dynamic scheduler, equivalent to OpenMP's
//! `schedule(dynamic, chunk)`. One private `dispatch` owns the threads,
//! the counter and the per-worker tallies behind the load-imbalance
//! figure (see the crate docs); the public entry points only turn a chunk
//! index into their slice(s) or range, so it is also the single seam a
//! persistent worker team would replace. Reductions fold per-chunk
//! partials in chunk order, so floating-point results are bit-identical
//! for any thread count or interleaving — the kernel equivalence tests
//! rely on it.

use finbench_telemetry::{self as telemetry, Counter, Gauge};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{LazyLock, Mutex};

/// Raw-pointer wrapper that asserts cross-thread transferability.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Chunk `c` of the `len`-element slice behind the pointer. A method,
    /// so task closures capture the wrapper, not its `*mut T` field
    /// (edition-2021 disjoint capture would lose the Sync assertion).
    ///
    /// # Safety
    /// The slice must outlive the borrow and no two live borrows may
    /// share a `c`: distinct indices are disjoint ranges, and [`dispatch`]
    /// hands each index to exactly one task.
    #[allow(clippy::mut_from_ref)]
    unsafe fn chunk(&self, c: usize, chunk_size: usize, len: usize) -> &mut [T] {
        let start = c * chunk_size;
        std::slice::from_raw_parts_mut(self.0.add(start), chunk_size.min(len - start))
    }
}

static DISPATCHES: LazyLock<Counter> = LazyLock::new(|| Counter::named("pool.dispatches"));
static CHUNKS: LazyLock<Counter> = LazyLock::new(|| Counter::named("pool.chunks"));
static LAST_IMBALANCE: LazyLock<Gauge> = LazyLock::new(|| Gauge::named("pool.last_imbalance"));

/// Report one finished dispatch: `per_worker[i]` chunks pulled by worker
/// `i`. Imbalance is `max_chunks × workers / n_chunks` — 1.0 means every
/// worker pulled the same share, `workers` means one worker did it all.
fn record_dispatch(n_chunks: usize, workers: usize, per_worker: &[u64]) {
    let max = per_worker.iter().copied().max().unwrap_or(0);
    let imbalance = max as f64 * workers as f64 / n_chunks as f64;
    DISPATCHES.add(1);
    CHUNKS.add(n_chunks as u64);
    LAST_IMBALANCE.set(imbalance);
    // Lands on the caller's open span (e.g. a native-ladder rung), since
    // this runs on the dispatching thread after the scope join.
    telemetry::set_attr("pool_imbalance", imbalance);
}

/// Run `task(c)` exactly once for every `c` in `0..n_chunks` (≥ 1) on up
/// to `workers` scoped threads pulling indices off one atomic counter.
/// One worker — asked for, or all a single chunk can use — is a plain
/// loop on the calling thread: no spawn, no allocation.
fn dispatch(n_chunks: usize, workers: usize, task: &(dyn Fn(usize) + Sync)) {
    let workers = workers.clamp(1, n_chunks);
    if workers == 1 {
        for c in 0..n_chunks {
            task(c);
        }
        record_dispatch(n_chunks, 1, &[n_chunks as u64]);
        return;
    }
    let next = AtomicUsize::new(0);
    // One worker: pull indices until they run out, return how many it ran.
    let pull = || {
        std::iter::repeat_with(|| next.fetch_add(1, Ordering::Relaxed))
            .take_while(|&c| c < n_chunks)
            .map(task)
            .count() as u64
    };
    let per_worker: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(pull)).collect();
        let join = |h: std::thread::ScopedJoinHandle<u64>| h.join().expect("pool worker panicked");
        handles.into_iter().map(join).collect()
    });
    record_dispatch(n_chunks, workers, &per_worker);
}

/// Process `data` in place in `chunk_size` pieces across `workers`
/// threads. `body` receives the starting element index of the chunk and
/// the mutable chunk slice.
///
/// ```
/// let mut v = vec![1.0f64; 100];
/// finbench_parallel::parallel_for_chunks(&mut v, 16, 4, |start, chunk| {
///     for (i, x) in chunk.iter_mut().enumerate() {
///         *x = (start + i) as f64;
///     }
/// });
/// assert_eq!(v[37], 37.0);
/// ```
pub fn parallel_for_chunks<T, F>(data: &mut [T], chunk_size: usize, workers: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let len = data.len();
    if len == 0 {
        return;
    }
    let base = SendPtr(data.as_mut_ptr());
    dispatch(len.div_ceil(chunk_size), workers, &|c| {
        // SAFETY: `data` is mutably borrowed for the whole dispatch and
        // this is the only task that sees `c`.
        body(c * chunk_size, unsafe { base.chunk(c, chunk_size, len) });
    });
}

/// Like [`parallel_for_chunks`], but drives two equal-length slices in
/// lockstep: each chunk pairs `a[start..end]` with `b[start..end]` — the
/// shape of the Black-Scholes kernel's paired call/put output arrays.
pub fn parallel_for_chunks2<T, U, F>(
    a: &mut [T],
    b: &mut [U],
    chunk_size: usize,
    workers: usize,
    body: F,
) where
    T: Send,
    U: Send,
    F: Fn(usize, &mut [T], &mut [U]) + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    assert_eq!(a.len(), b.len(), "paired slices must have equal lengths");
    let len = a.len();
    if len == 0 {
        return;
    }
    let (base_a, base_b) = (SendPtr(a.as_mut_ptr()), SendPtr(b.as_mut_ptr()));
    dispatch(len.div_ceil(chunk_size), workers, &|c| {
        // SAFETY: as in `parallel_for_chunks`, for both slices.
        let cb = unsafe { base_b.chunk(c, chunk_size, len) };
        body(
            c * chunk_size,
            unsafe { base_a.chunk(c, chunk_size, len) },
            cb,
        );
    });
}

/// Map the index range `0..n` in `chunk_size` pieces across `workers`
/// threads and fold the per-chunk partials with `reduce`.
///
/// The fold is performed **in chunk order**, so a non-associative
/// floating-point reduction returns the same bits for 1 worker and for 8.
///
/// ```
/// let total = finbench_parallel::parallel_map_reduce(
///     1000, 64, 4,
///     |range| range.map(|i| i as u64).sum::<u64>(),
///     |a, b| a + b,
///     0u64,
/// );
/// assert_eq!(total, 499_500);
/// ```
pub fn parallel_map_reduce<A, F, R>(
    n: usize,
    chunk_size: usize,
    workers: usize,
    map: F,
    reduce: R,
    identity: A,
) -> A
where
    A: Send,
    F: Fn(Range<usize>) -> A + Sync,
    R: Fn(A, A) -> A,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    if n == 0 {
        return identity;
    }
    // One slot per chunk, written by the task that owns the index.
    let n_chunks = n.div_ceil(chunk_size);
    let partials: Vec<Mutex<Option<A>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
    dispatch(n_chunks, workers, &|c| {
        let start = c * chunk_size;
        *partials[c].lock().unwrap() = Some(map(start..(start + chunk_size).min(n)));
    });
    partials.into_iter().fold(identity, |acc, slot| {
        reduce(acc, slot.into_inner().unwrap().expect("every chunk ran"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_chunks_visits_every_element_once() {
        for workers in [1, 2, 3, 8] {
            for chunk in [1, 7, 64, 1000] {
                let mut v = vec![0u32; 501];
                parallel_for_chunks(&mut v, chunk, workers, |_, c| {
                    for x in c {
                        *x += 1;
                    }
                });
                assert!(v.iter().all(|&x| x == 1), "workers={workers} chunk={chunk}");
            }
        }
    }

    #[test]
    fn for_chunks_passes_correct_offsets() {
        let mut v = vec![0usize; 143];
        parallel_for_chunks(&mut v, 10, 4, |start, c| {
            for (i, x) in c.iter_mut().enumerate() {
                *x = start + i;
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i);
        }
    }

    #[test]
    fn for_chunks_empty_and_tiny() {
        let mut empty: Vec<u8> = vec![];
        parallel_for_chunks(&mut empty, 8, 4, |_, _| panic!("must not be called"));
        let mut one = vec![5u8];
        parallel_for_chunks(&mut one, 8, 4, |start, c| {
            assert_eq!(start, 0);
            c[0] = 9;
        });
        assert_eq!(one[0], 9);
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn zero_chunk_size_panics() {
        let mut v = vec![0u8; 4];
        parallel_for_chunks(&mut v, 0, 2, |_, _| {});
    }

    #[test]
    fn for_chunks2_drives_pairs_in_lockstep() {
        for workers in [1, 2, 4, 8] {
            let mut a = vec![0usize; 357];
            let mut b = vec![0usize; 357];
            parallel_for_chunks2(&mut a, &mut b, 16, workers, |start, ca, cb| {
                assert_eq!(ca.len(), cb.len());
                for i in 0..ca.len() {
                    ca[i] = start + i;
                    cb[i] = 2 * (start + i);
                }
            });
            for i in 0..357 {
                assert_eq!(a[i], i, "workers={workers}");
                assert_eq!(b[i], 2 * i, "workers={workers}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn for_chunks2_rejects_mismatched_lengths() {
        let mut a = vec![0u8; 4];
        let mut b = vec![0u8; 5];
        parallel_for_chunks2(&mut a, &mut b, 2, 2, |_, _, _| {});
    }

    #[test]
    fn map_reduce_sums() {
        for workers in [1, 2, 5] {
            let s = parallel_map_reduce(
                10_000,
                97,
                workers,
                |r| r.map(|i| i as u64).sum::<u64>(),
                |a, b| a + b,
                0u64,
            );
            assert_eq!(s, 49_995_000);
        }
    }

    #[test]
    fn map_reduce_fp_determinism_across_worker_counts() {
        // A deliberately ill-conditioned FP sum: ordering matters, so this
        // only passes because partials are folded in chunk order.
        let map = |r: Range<usize>| {
            let mut s = 0.0f64;
            for i in r {
                s += 1.0 / (1.0 + i as f64).powi(2) * if i % 2 == 0 { 1e10 } else { 1e-10 };
            }
            s
        };
        let want = parallel_map_reduce(50_000, 64, 1, map, |a, b| a + b, 0.0);
        for workers in [2, 3, 4, 7] {
            let got = parallel_map_reduce(50_000, 64, workers, map, |a, b| a + b, 0.0);
            assert_eq!(got.to_bits(), want.to_bits(), "workers={workers}");
        }
    }

    #[test]
    fn map_reduce_empty() {
        let s = parallel_map_reduce(0, 8, 4, |_| 1u32, |a, b| a + b, 100u32);
        assert_eq!(s, 100);
    }

    #[test]
    fn map_reduce_single_chunk() {
        let s = parallel_map_reduce(5, 100, 4, |r| r.len(), |a, b| a + b, 0usize);
        assert_eq!(s, 5);
    }

    #[test]
    fn exec_policy_workers() {
        use crate::ExecPolicy;
        assert_eq!(ExecPolicy::Serial.workers(), 1);
        assert_eq!(ExecPolicy::OwnPool(3).workers(), 3);
        assert!(ExecPolicy::OwnPool(0).workers() >= 1);
    }
}
