//! The host's run-queue scheduler: per-worker shards, work-stealing,
//! and condvar parking.
//!
//! The first host shipped with a single `Mutex<Receiver<u64>>` ready
//! queue. That design had a scaling inversion baked in: a worker held
//! the mutex **across** the blocking 20 ms `recv_timeout`, so only one
//! worker could wait for work at a time — every other worker blocked on
//! the mutex, dequeues serialized, and the pool got *slower* as it got
//! wider (`BENCH_multisession.json` measured 4 workers at 0.4× the
//! 1-worker throughput). This module replaces it:
//!
//! * **Sharded run-queues.** One `Mutex<VecDeque<u64>>` per worker;
//!   sessions hash to a home shard by id, so steady-state dequeues
//!   touch per-worker locks, not one global one.
//! * **Work-stealing.** A worker whose own shard is empty scans the
//!   other shards (starting at its right-hand neighbour) and steals the
//!   oldest entry. Any queued session is eventually claimed by *some*
//!   worker — affinity is a fast path, never a trap.
//! * **Condvar parking.** A worker that finds every shard empty parks
//!   on a condvar; enqueuers wake exactly one sleeper. There is no
//!   timeout poll: a parked worker burns no CPU, and wakeup latency is
//!   a notify, not a 20 ms timer.
//! * **Explicit shutdown.** `shutdown()` flips a flag and notifies all
//!   sleepers; workers observe it at the top of their loop and on every
//!   park. No sentinel values in the queues, no disconnect guessing.
//!
//! The lost-sleep race (enqueue lands between a worker's failed scan
//! and its park) is closed with the classic Dekker-style handshake:
//! parkers publish themselves in `sleepers` *before* re-checking
//! `pending`, enqueuers bump `pending` *before* reading `sleepers`, and
//! both sides use `SeqCst` so at least one of them sees the other.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// See `lock` in `lib.rs`: recover from poisoning, which only test
/// builds can cause, because the queues are structurally sound either
/// way.
fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A claimed session id, with whether it came from another worker's
/// shard (feeds the `host.steals` counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Claim {
    pub id: u64,
    pub stolen: bool,
}

/// Sharded work-stealing run queues plus the parking lot. One instance
/// per host, shared by every worker and every submitter.
pub(crate) struct Scheduler {
    shards: Vec<Mutex<VecDeque<u64>>>,
    /// Session ids enqueued but not yet claimed, across all shards.
    pending: AtomicUsize,
    /// Workers currently inside `park` (published before their final
    /// `pending` check — the other half of the Dekker handshake).
    sleepers: AtomicUsize,
    sleep: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
}

impl Scheduler {
    pub(crate) fn new(workers: usize) -> Self {
        Scheduler {
            shards: (0..workers.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            pending: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Queue a session on its home shard and wake one parked worker if
    /// any. Returns the pending count right after the enqueue (feeds
    /// the ready-queue high-water gauge).
    pub(crate) fn enqueue(&self, id: u64) -> usize {
        let shard = (id as usize) % self.shards.len();
        // Count under the shard lock, as `try_claim` does: otherwise a
        // claimer can pop this id and decrement before the increment
        // lands, and `pending` underflows.
        let len = {
            let mut queue = lock(&self.shards[shard]);
            queue.push_back(id);
            // `pending` must be visible before `sleepers` is read: a
            // parker that misses this increment is guaranteed to be seen
            // here (or to re-check pending after publishing itself) —
            // SeqCst on both sides makes the two orderings impossible to
            // miss together.
            self.pending.fetch_add(1, Ordering::SeqCst) + 1
        };
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // Taking the sleep lock orders this notify against the
            // parker: it either runs before the parker's final check
            // (which then sees pending > 0) or after the parker waits
            // (and wakes it).
            let _guard = lock(&self.sleep);
            self.wake.notify_one();
        }
        len
    }

    /// Claim one queued session: the worker's own shard first, then a
    /// steal scan over the other shards starting at its right-hand
    /// neighbour (so steal pressure spreads instead of piling onto
    /// shard 0). `None` means every shard was empty at scan time.
    pub(crate) fn try_claim(&self, worker: usize) -> Option<Claim> {
        let n = self.shards.len();
        let home = worker % n;
        for offset in 0..n {
            let shard = (home + offset) % n;
            let mut queue = lock(&self.shards[shard]);
            if let Some(id) = queue.pop_front() {
                // Under the lock, pairing with the increment in `enqueue`.
                self.pending.fetch_sub(1, Ordering::SeqCst);
                return Some(Claim {
                    id,
                    stolen: offset != 0,
                });
            }
        }
        None
    }

    /// Park until an enqueue (or shutdown) arrives. Returns `true` if
    /// the worker actually waited on the condvar (feeds `host.parks`);
    /// `false` means work or shutdown appeared between the caller's
    /// failed scan and the park — the double-check that closes the
    /// lost-sleep window.
    pub(crate) fn park(&self) -> bool {
        let mut guard = lock(&self.sleep);
        // Publish the sleeper *before* the final pending check; pairs
        // with the SeqCst pending-then-sleepers order in `enqueue`.
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut waited = false;
        while self.pending.load(Ordering::SeqCst) == 0 && !self.is_shutdown() {
            guard = self
                .wake
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
            waited = true;
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        drop(guard);
        waited
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flip the shutdown flag and wake every parked worker. Queued ids
    /// are abandoned (their tickets report `Stopped`), matching the
    /// host's shutdown contract.
    pub(crate) fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _guard = lock(&self.sleep);
        self.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_shard_first_then_steal() {
        let sched = Scheduler::new(2);
        // id 4 homes on shard 0, id 5 on shard 1.
        assert_eq!(sched.enqueue(4), 1);
        assert_eq!(sched.enqueue(5), 2);
        // Worker 0 claims its own shard without stealing.
        assert_eq!(
            sched.try_claim(0),
            Some(Claim {
                id: 4,
                stolen: false
            })
        );
        // Worker 0's shard is now empty: the next claim is a steal.
        assert_eq!(
            sched.try_claim(0),
            Some(Claim {
                id: 5,
                stolen: true
            })
        );
        assert_eq!(sched.try_claim(0), None);
    }

    #[test]
    fn fifo_within_a_shard() {
        let sched = Scheduler::new(1);
        for id in 0..4 {
            sched.enqueue(id);
        }
        let order: Vec<u64> = (0..4)
            .map(|_| sched.try_claim(0).expect("queued").id)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn park_declines_when_work_is_pending_or_shut_down() {
        let sched = Scheduler::new(2);
        sched.enqueue(7);
        // Work pending: park must return without waiting.
        assert!(!sched.park(), "parked over pending work");
        sched.try_claim(1); // drains (steals) the id
        sched.shutdown();
        assert!(!sched.park(), "parked past shutdown");
        assert!(sched.is_shutdown());
    }

    #[test]
    fn parked_worker_is_woken_by_enqueue() {
        use std::sync::Arc;
        let sched = Arc::new(Scheduler::new(1));
        let worker = {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || loop {
                if let Some(claim) = sched.try_claim(0) {
                    return claim.id;
                }
                sched.park();
            })
        };
        // No timing assumption needed: whether the enqueue lands
        // before the park (double-check path) or after (notify path),
        // the worker must claim it.
        sched.enqueue(42);
        assert_eq!(worker.join().expect("worker exits"), 42);
    }

    #[test]
    fn pending_count_balances_under_concurrent_enqueue_and_claim() {
        use std::sync::Barrier;
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 2_000;
        let sched = Scheduler::new(THREADS);
        let start = Barrier::new(2 * THREADS);
        let producers_done = AtomicUsize::new(0);
        let claimed = AtomicUsize::new(0);
        let total = THREADS * PER_THREAD as usize;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..THREADS {
                let (sched, start, producers_done, claimed) =
                    (&sched, &start, &producers_done, &claimed);
                handles.push(scope.spawn(move || {
                    // Counts the producer out even if it panics, so the
                    // claimers stop and the failure surfaces at join.
                    struct Done<'a>(&'a AtomicUsize);
                    impl Drop for Done<'_> {
                        fn drop(&mut self) {
                            self.0.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    let _done = Done(producers_done);
                    start.wait();
                    for i in 0..PER_THREAD {
                        let len = sched.enqueue(t as u64 * PER_THREAD + i);
                        // An underflowed counter reads as a huge queue.
                        assert!(len <= total, "pending underflowed: {len}");
                    }
                }));
                handles.push(scope.spawn(move || {
                    start.wait();
                    loop {
                        if sched.try_claim(t).is_some() {
                            claimed.fetch_add(1, Ordering::SeqCst);
                        } else if producers_done.load(Ordering::SeqCst) == THREADS {
                            // Every id is queued; one more scan drains
                            // whatever the steal pass raced past.
                            while sched.try_claim(t).is_some() {
                                claimed.fetch_add(1, Ordering::SeqCst);
                            }
                            return;
                        } else {
                            std::thread::yield_now();
                        }
                    }
                }));
            }
            for handle in handles {
                handle.join().expect("stress thread");
            }
        });
        assert_eq!(claimed.load(Ordering::SeqCst), total);
        assert_eq!(sched.pending.load(Ordering::SeqCst), 0);
        assert_eq!(sched.try_claim(0), None);
    }

    #[test]
    fn shutdown_wakes_every_sleeper() {
        use std::sync::Arc;
        let sched = Arc::new(Scheduler::new(4));
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let sched = Arc::clone(&sched);
                std::thread::spawn(move || {
                    while !sched.is_shutdown() {
                        if sched.try_claim(w).is_none() {
                            sched.park();
                        }
                    }
                })
            })
            .collect();
        sched.shutdown();
        for worker in workers {
            worker.join().expect("worker exits on shutdown");
        }
    }
}
