//! Sense-reversing barrier.
//!
//! The algorithm of Fig. 3 is bulk-synchronous: `barrier()` separates Phase I
//! from Phase II and one BFS step from the next. A sense-reversing barrier is
//! the classic HPC choice — one atomic decrement per arrival, no per-use
//! reinitialization, and every thread spins on a single cached word (the
//! *sense*) that flips once per episode.
//!
//! A `SenseBarrier` is reusable indefinitely — no per-episode or per-run
//! reinitialization — which is what lets the persistent [`crate::pool::SocketPool`]
//! allocate its in-region barrier once for its whole lifetime instead of
//! once per run.
//!
//! Because this reproduction often runs more threads than the host has cores
//! (it is measured on 2-vCPU hosts, against the paper's eight cores),
//! the wait loop spins briefly and then falls back to `thread::yield_now`;
//! a pure spin barrier would livelock an oversubscribed schedule.
//!
//! A lane that panics between two barriers never arrives at the next
//! episode. Its pool marks the barrier *broken*; every lane waiting on it,
//! or arriving later, then panics instead of spinning forever, and the
//! pool [`reset`](SenseBarrier::reset)s it once every lane has left the job.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// How many pause iterations to burn before yielding to the scheduler.
const SPINS_BEFORE_YIELD: u32 = 64;

/// A reusable barrier for a fixed set of `n` participants.
pub struct SenseBarrier {
    n: usize,
    remaining: AtomicUsize,
    sense: AtomicBool,
    /// Set when a participant left the region early (it panicked): the
    /// current episode can no longer complete.
    broken: AtomicBool,
}

/// The panic message of a lane released from a broken barrier.
const BROKEN_BARRIER: &str = "barrier broken: another lane panicked";

impl SenseBarrier {
    /// Barrier for `n` threads.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "barrier needs at least one participant");
        Self {
            n,
            remaining: AtomicUsize::new(n),
            sense: AtomicBool::new(false),
            broken: AtomicBool::new(false),
        }
    }

    /// Blocks until all `n` participants have called `wait` this episode.
    /// Returns `true` for exactly one participant per episode (the last to
    /// arrive), mirroring `std::sync::Barrier`'s leader election.
    ///
    /// AcqRel on the final decrement publishes every write made before the
    /// barrier to every thread that observes the sense flip (Acquire loads);
    /// this is the synchronization the atomic-free VIS protocol relies on
    /// between Phase I and Phase II.
    ///
    /// # Panics
    /// Panics if the barrier is [broken](Self::abort) before the
    /// episode completes.
    pub fn wait(&self) -> bool {
        let my_sense = !self.sense.load(Ordering::Relaxed);
        if self.broken.load(Ordering::Acquire) {
            panic!("{BROKEN_BARRIER}");
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last arrival: reset the count, then flip the sense with
            // Release so waiters' Acquire loads see all preceding writes.
            self.remaining.store(self.n, Ordering::Relaxed);
            self.sense.store(my_sense, Ordering::Release);
            true
        } else {
            spin_until(|| {
                self.sense.load(Ordering::Acquire) == my_sense
                    || self.broken.load(Ordering::Acquire)
            });
            if self.sense.load(Ordering::Acquire) != my_sense {
                panic!("{BROKEN_BARRIER}");
            }
            false
        }
    }

    /// Marks the barrier broken: every current and later [`wait`](Self::wait)
    /// panics until [`reset`](Self::reset).
    pub fn abort(&self) {
        self.broken.store(true, Ordering::Release);
    }

    /// Restores a full, unbroken episode. Call it only while no
    /// participant is inside [`wait`](Self::wait).
    pub fn reset(&self) {
        self.remaining.store(self.n, Ordering::Relaxed);
        self.broken.store(false, Ordering::Release);
    }
}

/// Spins briefly, then yields to the scheduler, until `done` returns `true`.
pub(crate) fn spin_until(done: impl Fn() -> bool) {
    let mut spins = 0u32;
    while !done() {
        if spins < SPINS_BEFORE_YIELD {
            std::hint::spin_loop();
            spins += 1;
        } else {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn single_thread_barrier_is_immediate() {
        let b = SenseBarrier::new(1);
        for _ in 0..10 {
            assert!(b.wait());
        }
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn rejects_zero() {
        SenseBarrier::new(0);
    }

    #[test]
    fn abort_releases_waiters_until_reset() {
        let b = Arc::new(SenseBarrier::new(2));
        let waiter = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || b.wait())
        };
        b.abort();
        let err = waiter.join().expect_err("an aborted wait panics");
        assert_eq!(err.downcast_ref::<String>().unwrap(), BROKEN_BARRIER);
        let late = std::panic::catch_unwind(|| b.wait());
        assert!(late.is_err(), "arrivals after the abort panic too");
        b.reset();
        let other = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || b.wait())
        };
        let leaders = [b.wait(), other.join().unwrap()];
        assert_eq!(leaders.iter().filter(|&&l| l).count(), 1);
    }

    #[test]
    fn elects_exactly_one_leader_per_episode() {
        const THREADS: usize = 8;
        const EPISODES: usize = 100;
        let b = Arc::new(SenseBarrier::new(THREADS));
        let leaders = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let b = Arc::clone(&b);
                let leaders = Arc::clone(&leaders);
                std::thread::spawn(move || {
                    for _ in 0..EPISODES {
                        if b.wait() {
                            leaders.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::Relaxed), EPISODES as u64);
    }

    #[test]
    fn publishes_writes_across_the_barrier() {
        // Writer increments a plain counter before the barrier; readers must
        // observe the updated value after it. Repeated many times to give a
        // broken barrier a chance to fail.
        const EPISODES: u64 = 200;
        let b = Arc::new(SenseBarrier::new(4));
        let value = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let b = Arc::clone(&b);
                let value = Arc::clone(&value);
                std::thread::spawn(move || {
                    for episode in 1..=EPISODES {
                        if tid == 0 {
                            value.store(episode, Ordering::Relaxed);
                        }
                        b.wait();
                        assert_eq!(value.load(Ordering::Relaxed), episode);
                        b.wait(); // keep writer from racing ahead
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn oversubscribed_barrier_makes_progress() {
        // More threads than cores: the yield fallback must avoid livelock.
        let threads = 16;
        let b = Arc::new(SenseBarrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        b.wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
