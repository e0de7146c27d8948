//! The bounded admission queue: the per-shard backpressure point of the
//! serving plane.
//!
//! Capacity is fixed at construction; a full queue rejects the producer
//! *synchronously* (handing the item back) instead of blocking it or
//! dropping the item — the server turns that into a typed
//! [`Rejected::QueueFull`](crate::request::Rejected::QueueFull) response.
//! The consumer side pops with a timeout
//! ([`pop_timeout`](AdmissionQueue::pop_timeout)) — a worker with batched
//! work or siblings to steal from has a reason to wake without a push —
//! or parks until a push or close notifies it
//! ([`pop_wait`](AdmissionQueue::pop_wait)).
//!
//! ## Wake-up discipline
//!
//! A queue's only blocking popper is its own seat's driver: siblings and
//! the kill path take items with [`steal_up_to`](AdmissionQueue::steal_up_to),
//! which never waits. The state counts its parked poppers (`waiters`),
//! and [`try_push`](AdmissionQueue::try_push) signals only when one is
//! parked — std's futex condvar makes a `futex_wake` syscall on every
//! `notify_one`, parked popper or not, and a saturated shard, whose
//! driver never parks, would pay one per request.
//! [`close`](AdmissionQueue::close) broadcasts unconditionally.
//!
//! No wake-up is lost. A popper counts itself under the lock, and std's
//! futex condvar reads its sequence value before `wait` releases that
//! lock, so a pusher that sees the count and signals after it is
//! guaranteed to wake it; a pusher that took the lock first has its item
//! in the deque before the popper looks. A count can outlive its park (a
//! woken or timed-out popper stays counted until it has the lock back),
//! so a signal may land on nobody; that popper re-checks `items` before
//! it parks again or returns, so nothing is stranded.
//!
//! ## Poison recovery
//!
//! The queue's `Mutex` is shared by every producer and the dispatcher; a
//! panic on *any* of those threads while holding the lock would poison it
//! and — with naive `lock().unwrap()` — cascade that one failure into a
//! panic on every thread that touches the queue afterwards. The state
//! behind the lock (a `VecDeque`, a flag and the parked-popper count) has
//! no invariant a panicking pusher can break mid-update, so every
//! acquisition here recovers the guard from a poisoned lock instead of
//! propagating. A popper whose wait comes back poisoned still takes the
//! guard and uncounts itself, so the count survives poison.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Poppers parked in (or just back from) a condvar wait: a push
    /// signals only when this is non-zero.
    waiters: usize,
}

/// A bounded MPMC queue with reject-on-full semantics.
///
/// Aligned to a cache-line pair: every push and pop writes the lock and
/// deque header, and what the allocator put beside them (the seat-index
/// vectors router and workers read per request) would ride that line from
/// core to core — measured at 20 % of a saturated closed loop.
#[repr(align(128))]
pub struct AdmissionQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> AdmissionQueue<T> {
    /// A queue holding at most `capacity` items (`capacity >= 1`).
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
                waiters: 0,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lock the state, recovering from poison: a producer that panicked
    /// while holding the lock must not brick the whole serving plane.
    fn lock_state(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Current depth (racy by nature; used for gauges and tests).
    pub fn len(&self) -> usize {
        self.lock_state().items.len()
    }

    /// True when empty at the instant of the call.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push without blocking. On a full or closed queue the item comes
    /// straight back so the caller owns the rejection.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut st = self.lock_state();
        if st.closed || st.items.len() >= self.capacity {
            return Err(item);
        }
        st.items.push_back(item);
        let parked = st.waiters > 0;
        drop(st);
        if parked {
            self.not_empty.notify_one();
        }
        Ok(())
    }

    /// Pop, waiting up to `timeout` for an item. `None` means either the
    /// timeout elapsed or the queue is closed *and* drained — callers
    /// distinguish the two via [`is_closed`](Self::is_closed).
    pub fn pop_timeout(&self, timeout: Duration) -> Option<T> {
        self.pop_by(Some(Instant::now() + timeout))
    }

    /// Pop, parking until a push or [`close`](Self::close) wakes the
    /// caller. `None` means the queue is closed *and* drained.
    pub fn pop_wait(&self) -> Option<T> {
        self.pop_by(None)
    }

    /// Pop, waiting until `deadline` (forever when `None`) for an item.
    fn pop_by(&self, deadline: Option<Instant>) -> Option<T> {
        let mut st = self.lock_state();
        loop {
            if let Some(item) = st.items.pop_front() {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            let timeout = match deadline {
                None => None,
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    Some(deadline - now)
                }
            };
            // Counted under the lock that `wait` releases atomically; a
            // poisoned wait (an unrelated panicked thread) still hands the
            // guard back, so the count is undone on every path.
            st.waiters += 1;
            st = match timeout {
                None => self.not_empty.wait(st).unwrap_or_else(|e| e.into_inner()),
                Some(timeout) => {
                    self.not_empty
                        .wait_timeout(st, timeout)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
            st.waiters -= 1;
        }
    }

    /// Steal up to `max` items from the *back* of the queue (the newest
    /// work), leaving the front for the owning popper so the oldest
    /// requests — the ones closest to their deadlines — stay with the
    /// shard that admitted them. Returns the stolen items oldest-first.
    /// Never blocks; an empty or contended-empty queue yields `Vec::new()`.
    pub fn steal_up_to(&self, max: usize) -> Vec<T> {
        let mut st = self.lock_state();
        let take = st.items.len().min(max);
        if take == 0 {
            return Vec::new();
        }
        let mut stolen: Vec<T> = Vec::with_capacity(take);
        for _ in 0..take {
            if let Some(item) = st.items.pop_back() {
                stolen.push(item);
            }
        }
        stolen.reverse();
        stolen
    }

    /// Close the queue: producers get their items back from
    /// [`try_push`](Self::try_push), and consumers drain what remains.
    pub fn close(&self) {
        self.lock_state().closed = true;
        self.not_empty.notify_all();
    }

    /// True once [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.lock_state().closed
    }

    /// Reopen a closed queue so producers are accepted again. A killed
    /// shard worker that respawns reuses its seat's queue: the kill path
    /// closed and drained it, so reopening hands the next incarnation an
    /// empty, accepting queue without reallocating it or re-plumbing the
    /// router.
    pub fn reopen(&self) {
        self.lock_state().closed = false;
    }

    /// Panic while holding the state lock, poisoning the `Mutex` — the
    /// test hook behind the poison-recovery tests (a real panicking
    /// producer is not constructible from safe queue operations).
    #[doc(hidden)]
    pub fn poison_for_test(&self) {
        let _guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
        panic!("poison_for_test: panicking while holding the queue lock");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rejects_when_full_and_hands_the_item_back() {
        let q = AdmissionQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.len(), 2);
        // Popping frees a slot.
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Some(1));
        assert!(q.try_push(3).is_ok());
    }

    #[test]
    fn pop_times_out_on_an_empty_queue() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(1);
        let t0 = Instant::now();
        assert_eq!(q.pop_timeout(Duration::from_millis(10)), None);
        assert!(t0.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn close_rejects_producers_and_drains_consumers() {
        let q = AdmissionQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err(2));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Some(1));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), None);
        assert!(q.is_closed());
    }

    #[test]
    fn reopen_accepts_producers_again_after_close() {
        let q = AdmissionQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err(2));
        // Drain (the kill path does this before a respawn reopens).
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Some(1));
        q.reopen();
        assert!(!q.is_closed());
        assert!(q.try_push(3).is_ok());
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Some(3));
    }

    #[test]
    fn a_panicked_producer_does_not_brick_the_queue() {
        let q = Arc::new(AdmissionQueue::new(4));
        q.try_push(1).unwrap();
        // A thread panics while holding the state lock, poisoning it.
        let q2 = Arc::clone(&q);
        let poisoner = std::thread::spawn(move || q2.poison_for_test());
        assert!(poisoner.join().is_err(), "the poisoner must have panicked");
        // Every operation still works: push, pop, len, close.
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), Some(1));
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), Some(2));
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.try_push(3), Err(3));
    }

    #[test]
    fn a_poisoned_condvar_wait_recovers_too() {
        let q: Arc<AdmissionQueue<u32>> = Arc::new(AdmissionQueue::new(2));
        // Block a consumer in wait_timeout, then poison the lock from
        // another thread; the consumer must still receive the item pushed
        // afterwards instead of panicking on the poisoned wait result.
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || q2.pop_timeout(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        let q3 = Arc::clone(&q);
        let _ = std::thread::spawn(move || q3.poison_for_test()).join();
        q.try_push(7).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(7));
    }

    #[test]
    fn wakes_a_blocked_consumer() {
        let q = Arc::new(AdmissionQueue::new(1));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop_timeout(Duration::from_secs(5)));
        // Give the consumer a moment to block, then feed it.
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(42u32).unwrap();
        assert_eq!(h.join().unwrap(), Some(42));
    }

    #[test]
    fn a_burst_wakes_every_blocked_consumer_not_just_one() {
        // Two consumers block; one producer pushes two items back-to-back
        // while holding no lock between pushes. Both consumers are still
        // counted when the second push looks, so each push wakes one of
        // them, well before the 5 s deadline.
        let q: Arc<AdmissionQueue<u32>> = Arc::new(AdmissionQueue::new(8));
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop_timeout(Duration::from_secs(5)))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let t0 = Instant::now();
        let mut got: Vec<u32> = consumers
            .into_iter()
            .map(|h| h.join().unwrap().expect("consumer starved"))
            .collect();
        got.sort_unstable();
        assert_eq!(got, [1, 2]);
        assert!(
            t0.elapsed() < Duration::from_secs(4),
            "consumers only drained via timeout: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn pop_wait_parks_until_a_push_or_close() {
        let q: Arc<AdmissionQueue<u32>> = Arc::new(AdmissionQueue::new(4));
        // The consumer signals right before it parks; whether the push
        // lands before or after it blocks, it must come back with the item.
        let park = |q: &Arc<AdmissionQueue<u32>>| {
            let (ready_tx, ready_rx) = std::sync::mpsc::channel();
            let q = Arc::clone(q);
            let consumer = std::thread::spawn(move || {
                ready_tx.send(()).unwrap();
                q.pop_wait()
            });
            ready_rx.recv().unwrap();
            consumer
        };
        let consumer = park(&q);
        q.try_push(7).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(7));
        // Same for close: a parked consumer wakes with nothing.
        let consumer = park(&q);
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
        assert_eq!(q.pop_wait(), None, "closed and drained: no wait");
    }

    #[test]
    fn steal_takes_newest_items_and_leaves_the_oldest() {
        let q = AdmissionQueue::new(8);
        for i in 1..=5 {
            q.try_push(i).unwrap();
        }
        // Stealing 2 of 5 takes the two newest, oldest-first.
        assert_eq!(q.steal_up_to(2), vec![4, 5]);
        // The owner still sees its oldest work in order.
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Some(1));
        assert_eq!(q.steal_up_to(10), vec![2, 3]);
        assert_eq!(q.steal_up_to(10), Vec::<i32>::new());
    }

    #[test]
    fn mpmc_stress_concurrent_push_pop_steal_shutdown_with_poison() {
        // Satellite hardening test: N producers, M poppers, one thief,
        // one mid-flight poisoner, then shutdown. Every item pushed must
        // come out exactly once; nobody may panic or deadlock.
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 500;
        const POPPERS: usize = 3;
        let q: Arc<AdmissionQueue<u64>> = Arc::new(AdmissionQueue::new(64));
        let drained: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

        std::thread::scope(|scope| {
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let q = Arc::clone(&q);
                    scope.spawn(move || {
                        let mut accepted = Vec::new();
                        for i in 0..PER_PRODUCER {
                            let item = (p * PER_PRODUCER + i) as u64;
                            let mut v = item;
                            // Spin until accepted: full-queue rejections
                            // hand the item back and we retry.
                            loop {
                                match q.try_push(v) {
                                    Ok(()) => {
                                        accepted.push(item);
                                        break;
                                    }
                                    Err(back) => {
                                        v = back;
                                        std::thread::yield_now();
                                    }
                                }
                            }
                        }
                        accepted
                    })
                })
                .collect();

            let poppers: Vec<_> = (0..POPPERS)
                .map(|_| {
                    let q = Arc::clone(&q);
                    let drained = Arc::clone(&drained);
                    scope.spawn(move || loop {
                        match q.pop_timeout(Duration::from_millis(5)) {
                            Some(item) => {
                                drained.lock().unwrap_or_else(|e| e.into_inner()).push(item)
                            }
                            None if q.is_closed() => break,
                            None => {}
                        }
                    })
                })
                .collect();

            // A thief steals batches from the shared queue concurrently.
            let thief = {
                let q = Arc::clone(&q);
                let drained = Arc::clone(&drained);
                scope.spawn(move || {
                    while !q.is_closed() || !q.is_empty() {
                        let stolen = q.steal_up_to(8);
                        if stolen.is_empty() {
                            std::thread::yield_now();
                        } else {
                            drained
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .extend(stolen);
                        }
                    }
                })
            };

            // Poison the queue lock mid-flight; everyone must recover.
            std::thread::sleep(Duration::from_millis(5));
            let qp = Arc::clone(&q);
            let _ = std::thread::spawn(move || qp.poison_for_test()).join();

            let pushed: usize = producers.into_iter().map(|h| h.join().unwrap().len()).sum();
            assert_eq!(pushed, PRODUCERS * PER_PRODUCER);
            q.close();
            for h in poppers {
                h.join().unwrap();
            }
            thief.join().unwrap();
        });

        let mut got = drained.lock().unwrap_or_else(|e| e.into_inner()).clone();
        got.sort_unstable();
        let want: Vec<u64> = (0..(PRODUCERS * PER_PRODUCER) as u64).collect();
        assert_eq!(got, want, "every item must come out exactly once");
    }

    /// Poll until `f` holds on the locked state (a parked popper counts
    /// itself asynchronously), failing after 10 s instead of hanging.
    fn poll_state<T>(q: &AdmissionQueue<T>, f: impl Fn(&State<T>) -> bool) {
        let t0 = Instant::now();
        while !f(&q.lock_state()) {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "state never settled"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn the_parked_popper_count_returns_to_zero_on_every_path() {
        // A leaked count would silently bring back a futex wake per push.
        let q: Arc<AdmissionQueue<u32>> = Arc::new(AdmissionQueue::new(4));
        assert_eq!(q.lock_state().waiters, 0);

        // A parked `pop_wait` counts once; the push that wakes it uncounts
        // it (through a channel with a deadline: a skipped signal fails
        // here instead of hanging).
        let (tx, rx) = std::sync::mpsc::channel();
        let q2 = Arc::clone(&q);
        std::thread::spawn(move || tx.send(q2.pop_wait()).unwrap());
        poll_state(&q, |st| st.waiters == 1);
        q.try_push(7).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(Some(7)));
        assert_eq!(q.lock_state().waiters, 0);

        // A `pop_timeout` that expires on an empty queue leaves no count.
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), None);
        assert_eq!(q.lock_state().waiters, 0);

        // `close` wakes two parked poppers; both uncount themselves.
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop_wait())
            })
            .collect();
        poll_state(&q, |st| st.waiters == 2);
        q.close();
        for h in consumers {
            assert_eq!(h.join().unwrap(), None);
        }
        assert_eq!(q.lock_state().waiters, 0);
    }

    #[test]
    fn mpmc_stress_with_only_parking_poppers_loses_no_wakeup() {
        // Unlike the `pop_timeout` stress above, these poppers never time
        // out: a skipped signal that strands an item parks them for good.
        // Every item must come out *before* the queue closes (close wakes
        // everyone, so it would hide a lost wakeup), and it comes back
        // through a channel with a deadline, so a lost wakeup fails the
        // test instead of hanging it.
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 2_000;
        const POPPERS: usize = 3;
        const JOIN: Duration = Duration::from_secs(30);
        let q: Arc<AdmissionQueue<u64>> = Arc::new(AdmissionQueue::new(16));

        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    // Pause now and then so the poppers drain and park.
                    if i % 64 == 0 {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    let mut v = (p * PER_PRODUCER + i) as u64;
                    while let Err(back) = q.try_push(v) {
                        v = back;
                        std::thread::yield_now();
                    }
                }
            });
        }
        let (item_tx, item_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for _ in 0..POPPERS {
            let q = Arc::clone(&q);
            let (item_tx, done_tx) = (item_tx.clone(), done_tx.clone());
            std::thread::spawn(move || {
                while let Some(item) = q.pop_wait() {
                    item_tx.send(item).unwrap();
                }
                done_tx.send(()).unwrap();
            });
        }

        let mut got: Vec<u64> = (0..PRODUCERS * PER_PRODUCER)
            .map(|_| {
                item_rx
                    .recv_timeout(JOIN)
                    .expect("an item stranded: a wakeup was lost")
            })
            .collect();
        q.close();
        for _ in 0..POPPERS {
            done_rx
                .recv_timeout(JOIN)
                .expect("a popper never saw close");
        }
        got.sort_unstable();
        let want: Vec<u64> = (0..(PRODUCERS * PER_PRODUCER) as u64).collect();
        assert_eq!(got, want, "every item must come out exactly once");
        assert_eq!(q.lock_state().waiters, 0);
    }
}
