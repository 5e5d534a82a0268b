//! Persistent SPMD thread pool grouped by socket.
//!
//! The BFS engine runs as one bulk-synchronous SPMD region: every thread
//! executes the per-step loop of Fig. 3 and meets the others at barriers.
//!
//! The caller of [`SocketPool::run`] is lane 0 (socket 0) of every region;
//! [`SocketPool::new`] spawns long-lived workers for thread ids `1..n`
//! only and parks them on a condvar. Each run publishes a type-erased job
//! under an epoch stamp, wakes the workers, runs lane 0's share itself,
//! and then waits until every worker has left the job — a query costs one
//! wake instead of N thread spawns and joins, and no thread sits beside
//! the lanes waiting for them. A 1-lane pool spawns no thread at all. The
//! in-region barrier behind [`ThreadCtx::barrier`] is allocated once for
//! the pool's lifetime, not per run.
//!
//! `run` does not return before every worker has finished the job, so the
//! job closure may borrow the graph and all traversal state without
//! `Arc`s — the same borrowing guarantee `std::thread::scope` used to
//! provide, now enforced by a count of busy workers instead of a join.
//!
//! A lane that panics aborts the in-region barrier, so the lanes still
//! inside the job panic out of their next `barrier()` instead of waiting
//! forever for it; `run` resets the barrier and re-raises the first panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::barrier::{spin_until, SenseBarrier};
use crate::topology::{SocketId, Topology};

/// A thread's identity inside an SPMD region.
pub struct ThreadCtx<'a> {
    /// Global thread id in `0..topology.total_threads()`.
    pub thread_id: usize,
    /// Socket this thread belongs to.
    pub socket: SocketId,
    /// Lane (core index) within the socket.
    pub lane: usize,
    /// The region's topology.
    pub topology: Topology,
    barrier: &'a SenseBarrier,
}

impl ThreadCtx<'_> {
    /// Waits for all threads of the region; returns `true` on the leader.
    /// Panics if another lane of the region panicked.
    pub fn barrier(&self) -> bool {
        self.barrier.wait()
    }

    /// [`barrier`](Self::barrier), additionally returning the nanoseconds
    /// this thread spent waiting for the others — the per-thread barrier
    /// cost a load-imbalance attribution wants (a thread that arrives last
    /// waits ~0; the idle time shows up on the early arrivals).
    pub fn timed_barrier(&self) -> (bool, u64) {
        let t = std::time::Instant::now();
        let leader = self.barrier.wait();
        (leader, t.elapsed().as_nanos() as u64)
    }

    /// Total threads in the region.
    pub fn num_threads(&self) -> usize {
        self.topology.total_threads()
    }
}

/// A published job: a pointer to the caller's (stack-held) closure plus a
/// monomorphized trampoline that knows its concrete type. Raw pointers keep
/// the borrow checker out of the hand-off; validity is guaranteed by
/// `run_erased`, which cannot return — and therefore cannot invalidate the
/// closure — before every worker is done with it.
#[derive(Clone, Copy)]
struct RawJob {
    data: *const (),
    call: unsafe fn(*const (), &ThreadCtx<'_>),
}

// SAFETY: the pointee is `Sync` (enforced by the bound on `run`) and outlives
// every use (`run_erased` waits for `busy_workers` to reach 0), so sending
// the pointer to the workers is sound.
unsafe impl Send for RawJob {}

unsafe fn trampoline<F: Fn(&ThreadCtx<'_>) + Sync>(data: *const (), ctx: &ThreadCtx<'_>) {
    // SAFETY: `data` was erased from an `&F` in `run_erased`, which keeps it
    // borrowed until every lane has returned from the job.
    unsafe { (*data.cast::<F>())(ctx) }
}

/// The start-side hand-off cell: workers sleep on the condvar until the
/// epoch advances past the one they last served (or shutdown is flagged).
struct JobSlot {
    epoch: u64,
    job: Option<RawJob>,
    shutdown: bool,
}

/// State shared between the pool handle and its workers.
struct PoolShared {
    topology: Topology,
    /// In-region barrier used by [`ThreadCtx::barrier`]; `n` participants.
    region_barrier: SenseBarrier,
    /// Workers still inside the current job: set to `n - 1` on publish,
    /// decremented (Release) by each worker after its last write, and read
    /// (Acquire) by the caller before `run` returns, which publishes the
    /// workers' result-slot writes. A count, not one more `region_barrier`
    /// episode: with uneven barrier calls (a lane panicked between
    /// barriers) a closing arrival could complete another lane's in-region
    /// episode and let `run` return while that lane still runs the job.
    busy_workers: AtomicUsize,
    slot: Mutex<JobSlot>,
    wake: Condvar,
    /// First lane panic of the current run (re-raised by the caller).
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl PoolShared {
    fn lock_slot(&self) -> std::sync::MutexGuard<'_, JobSlot> {
        // A worker can only poison this mutex by panicking outside the
        // caught job region, which the worker loop never does.
        self.slot.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_panic(&self) -> std::sync::MutexGuard<'_, Option<Box<dyn std::any::Any + Send>>> {
        self.panic.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs thread `tid`'s share of `raw`. A panic is caught so the thread
    /// (and the pool) survive it; the first payload is re-raised by the
    /// caller of `run`. The panic also aborts the region barrier, which this
    /// lane will never reach again.
    fn run_lane(&self, tid: usize, raw: RawJob) {
        let (socket, lane) = self.topology.socket_lane(tid);
        let ctx = ThreadCtx {
            thread_id: tid,
            socket,
            lane,
            topology: self.topology,
            barrier: &self.region_barrier,
        };
        // SAFETY: `run_erased` published `raw` and does not return before
        // every lane has left this call, keeping the closure alive.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (raw.call)(raw.data, &ctx) }));
        if let Err(payload) = result {
            let mut first = self.lock_panic();
            if first.is_none() {
                *first = Some(payload);
            }
            // After the payload is stored, so a lane released by the abort
            // cannot claim the first-panic slot before the original.
            self.region_barrier.abort();
        }
    }
}

/// Per-lane result slots, written only by the owning lane during a run
/// and read by the caller once every worker has finished.
struct ResultSlots<R>(Vec<std::cell::UnsafeCell<Option<R>>>);

// SAFETY: slot `i` is written only by lane `i` during the run and read only
// by the caller after `busy_workers` reaches 0 (Release decrements, Acquire
// load), which orders every worker's write before the read.
unsafe impl<R: Send> Sync for ResultSlots<R> {}

/// Runner for socket-grouped SPMD regions: the caller is lane 0, and
/// persistent, parked workers are the other lanes.
pub struct SocketPool {
    topology: Topology,
    shared: Arc<PoolShared>,
    /// Serializes concurrent `run` calls on one pool (the job slot, the
    /// busy-worker count and lane 0 assume a single outstanding region).
    run_lock: Mutex<()>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for SocketPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketPool")
            .field("topology", &self.topology)
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl SocketPool {
    /// Pool over `topology` (validated here). Spawns a worker for every
    /// thread id but 0 immediately; the workers then park until the first
    /// [`run`](Self::run).
    pub fn new(topology: Topology) -> Self {
        topology.validate();
        let n = topology.total_threads();
        let shared = Arc::new(PoolShared {
            topology,
            region_barrier: SenseBarrier::new(n),
            busy_workers: AtomicUsize::new(0),
            slot: Mutex::new(JobSlot {
                epoch: 0,
                job: None,
                shutdown: false,
            }),
            wake: Condvar::new(),
            panic: Mutex::new(None),
        });
        let handles = (1..n)
            .map(|tid| {
                let (socket, lane) = topology.socket_lane(tid);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bfs-s{socket}-l{lane}"))
                    .spawn(move || worker_loop(tid, &shared))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Self {
            topology,
            shared,
            run_lock: Mutex::new(()),
            handles,
        }
    }

    /// The pool's topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Runs `f` on every thread of the topology simultaneously — thread 0
    /// on the calling thread — and returns the per-thread results in
    /// thread-id order.
    ///
    /// # Panics
    /// Propagates the first panic from any lane, once every lane has
    /// finished. The pool remains usable afterwards (workers survive job
    /// panics).
    pub fn run<F, R>(&self, f: F) -> Vec<R>
    where
        F: Fn(&ThreadCtx<'_>) -> R + Sync,
        R: Send,
    {
        let n = self.topology.total_threads();
        let mut slots = ResultSlots((0..n).map(|_| std::cell::UnsafeCell::new(None)).collect());
        {
            let slots = &slots;
            let wrapper = move |ctx: &ThreadCtx<'_>| {
                let r = f(ctx);
                // SAFETY: this lane owns slot `thread_id` for the run.
                unsafe { *slots.0[ctx.thread_id].get() = Some(r) };
            };
            self.run_erased(&wrapper);
        }
        slots
            .0
            .iter_mut()
            .map(|c| c.get_mut().take().expect("lane did not produce a result"))
            .collect()
    }

    /// Publishes the erased job, wakes the workers, runs lane 0 on the
    /// calling thread, then waits until every worker has completed the job.
    fn run_erased<F: Fn(&ThreadCtx<'_>) + Sync>(&self, job: &F) {
        let _guard = self.run_lock.lock().unwrap_or_else(|e| e.into_inner());
        let shared = &*self.shared;
        let raw = RawJob {
            data: (job as *const F).cast::<()>(),
            call: trampoline::<F>,
        };
        if !self.handles.is_empty() {
            {
                let mut slot = shared.lock_slot();
                slot.job = Some(raw);
                slot.epoch += 1;
                // The slot mutex orders this store before every worker's
                // decrement.
                shared
                    .busy_workers
                    .store(self.handles.len(), Ordering::Relaxed);
            }
            shared.wake.notify_all();
        }
        shared.run_lane(0, raw);
        spin_until(|| shared.busy_workers.load(Ordering::Acquire) == 0);
        if let Some(payload) = shared.lock_panic().take() {
            // No lane is inside the job any more: a fresh episode is safe.
            shared.region_barrier.reset();
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for SocketPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.lock_slot();
            slot.shutdown = true;
        }
        self.shared.wake.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The worker body: park until the epoch advances, run the job, report it
/// done, repeat.
fn worker_loop(tid: usize, shared: &PoolShared) {
    let mut seen = 0u64;
    loop {
        let raw = {
            let mut slot = shared.lock_slot();
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.epoch != seen {
                    seen = slot.epoch;
                    break slot.job.expect("epoch advanced without a job");
                }
                slot = shared.wake.wait(slot).unwrap_or_else(|e| e.into_inner());
            }
        };
        shared.run_lane(tid, raw);
        shared.busy_workers.fetch_sub(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn runs_every_thread_once() {
        let pool = SocketPool::new(Topology::synthetic(2, 3));
        let hits = AtomicUsize::new(0);
        let ids = pool.run(|ctx| {
            hits.fetch_add(1, Ordering::Relaxed);
            (ctx.thread_id, ctx.socket, ctx.lane)
        });
        assert_eq!(hits.load(Ordering::Relaxed), 6);
        assert_eq!(
            ids,
            vec![
                (0, 0, 0),
                (1, 0, 1),
                (2, 0, 2),
                (3, 1, 0),
                (4, 1, 1),
                (5, 1, 2)
            ]
        );
    }

    #[test]
    fn barrier_synchronizes_region() {
        // Phase counter pattern: all threads must observe the leader's write
        // from the previous episode.
        let pool = SocketPool::new(Topology::synthetic(2, 2));
        let phase = AtomicUsize::new(0);
        pool.run(|ctx| {
            for p in 1..=20usize {
                if ctx.barrier() {
                    phase.store(p, Ordering::Relaxed);
                }
                ctx.barrier();
                assert_eq!(phase.load(Ordering::Relaxed), p);
            }
        });
    }

    #[test]
    fn timed_barrier_reports_wait_and_elects_a_leader() {
        let pool = SocketPool::new(Topology::synthetic(1, 3));
        let results = pool.run(|ctx| {
            // The slow thread sleeps before arriving; the others must
            // observe a wait at least as long as its nap.
            if ctx.thread_id == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            ctx.timed_barrier()
        });
        assert_eq!(results.iter().filter(|(leader, _)| *leader).count(), 1);
        let max_wait = results.iter().map(|&(_, ns)| ns).max().unwrap();
        assert!(
            max_wait >= 10_000_000,
            "fast threads must account the slow thread's 20ms, got {max_wait}ns"
        );
    }

    #[test]
    fn results_preserve_thread_order() {
        let pool = SocketPool::new(Topology::synthetic(1, 8));
        let out = pool.run(|ctx| ctx.thread_id * 10);
        assert_eq!(out, (0..8).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn oversubscription_works() {
        // 32 threads on whatever the host has.
        let pool = SocketPool::new(Topology::synthetic(4, 8));
        let out = pool.run(|ctx| {
            for _ in 0..5 {
                ctx.barrier();
            }
            ctx.num_threads()
        });
        assert!(out.iter().all(|&n| n == 32));
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let pool = SocketPool::new(Topology::synthetic(1, 2));
        pool.run(|ctx| {
            if ctx.thread_id == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn workers_are_reused_across_runs() {
        // The whole point of the persistent pool: consecutive runs execute
        // on the same parked OS threads, not freshly spawned ones.
        let pool = SocketPool::new(Topology::synthetic(2, 2));
        let first: HashSet<_> = pool
            .run(|_| std::thread::current().id())
            .into_iter()
            .collect();
        for _ in 0..10 {
            let again: HashSet<_> = pool
                .run(|_| std::thread::current().id())
                .into_iter()
                .collect();
            assert_eq!(first, again, "run must reuse the parked workers");
        }
        assert_eq!(first.len(), 4);
    }

    #[test]
    fn pool_survives_a_job_panic() {
        let pool = SocketPool::new(Topology::synthetic(1, 3));
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(|ctx| {
                if ctx.thread_id == 0 {
                    panic!("first run dies");
                }
            })
        }));
        assert!(r.is_err());
        // Same workers, next query proceeds normally.
        let out = pool.run(|ctx| ctx.thread_id);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn lane_panic_between_barriers_releases_the_other_lanes() {
        // Lane 1 panics before the barrier lane 0 waits on: lane 0 must be
        // released, `run` must re-raise lane 1's panic rather than hang, and
        // the pool must then run barrier-using jobs again.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let pool = SocketPool::new(Topology::synthetic(1, 2));
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(|ctx| {
                    if ctx.thread_id == 1 {
                        panic!("lane 1 dies");
                    }
                    ctx.barrier();
                })
            }));
            let payload = r.expect_err("run must re-raise the lane panic");
            tx.send(payload.downcast_ref::<&str>().copied()).unwrap();
            let phase = AtomicUsize::new(0);
            let out = pool.run(|ctx| {
                for p in 1..=10usize {
                    if ctx.barrier() {
                        phase.store(p, Ordering::Relaxed);
                    }
                    ctx.barrier();
                    assert_eq!(phase.load(Ordering::Relaxed), p);
                }
                ctx.thread_id
            });
            tx.send(Some(if out == vec![0, 1] { "ok" } else { "wrong" }))
                .unwrap();
        });
        let timeout = std::time::Duration::from_secs(10);
        assert_eq!(
            rx.recv_timeout(timeout)
                .expect("run hung on the panicked lane"),
            Some("lane 1 dies"),
            "the first panic's payload is re-raised"
        );
        assert_eq!(rx.recv_timeout(timeout).expect("next run hung"), Some("ok"));
    }

    #[test]
    fn concurrent_runs_are_serialized() {
        // Two threads sharing one pool must not interleave regions; the run
        // lock serializes them and both complete.
        let pool = SocketPool::new(Topology::synthetic(1, 2));
        let log = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for label in ["a", "b"] {
                let pool = &pool;
                let log = &log;
                s.spawn(move || {
                    for _ in 0..20 {
                        pool.run(|ctx| {
                            if ctx.thread_id == 0 {
                                log.lock().unwrap().push(label);
                            }
                            ctx.barrier();
                        });
                    }
                });
            }
        });
        assert_eq!(log.lock().unwrap().len(), 40);
    }

    #[test]
    fn lane_zero_runs_on_the_calling_thread() {
        let pool = SocketPool::new(Topology::synthetic(2, 2));
        let ids = pool.run(|_| std::thread::current().id());
        assert_eq!(ids[0], std::thread::current().id());
        assert_eq!(pool.handles.len(), 3);
        let solo = SocketPool::new(Topology::synthetic(1, 1));
        assert_eq!(
            solo.run(|_| std::thread::current().id())[0],
            std::thread::current().id()
        );
        assert_eq!(solo.handles.len(), 0, "a 1-lane pool spawns no thread");
    }

    #[test]
    fn run_returns_only_after_every_lane_finishes() {
        let pool = SocketPool::new(Topology::synthetic(1, 3));
        let done = AtomicBool::new(false);
        pool.run(|ctx| {
            if ctx.thread_id == ctx.num_threads() - 1 {
                std::thread::sleep(std::time::Duration::from_millis(20));
                done.store(true, Ordering::Relaxed);
            }
        });
        assert!(
            done.load(Ordering::Relaxed),
            "run returned before the last lane finished"
        );
    }

    #[test]
    fn drop_joins_parked_workers() {
        let pool = SocketPool::new(Topology::synthetic(1, 4));
        pool.run(|_| ());
        drop(pool); // must not hang
    }
}
