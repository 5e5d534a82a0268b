//! Allocation guard for persistent query sessions: once warm, a session
//! query must not allocate any traversal storage — no `DP`/`VIS` arrays, no
//! frontier or bin buffers, and on a relabeled graph no translation
//! buffers. The only heap activity left on the warm path is the pool's
//! constant-size result collection and, on top-down levels only, the
//! per-step division plans of Phase I/II; both are tiny and independent of
//! |V|. A bottom-up level allocates nothing at all: its scan plan is made
//! once per engine and each lane's list of unclaimed ids keeps its
//! capacity, so a warm bottom-up query's heap traffic does not grow with
//! depth.
//!
//! A counting global allocator observes every allocation in the process, so
//! this file holds a single `#[test]` (parallel tests would pollute the
//! counters) and uses a single-threaded topology for determinism (no racy
//! duplicate enqueues → bit-identical repeat queries).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bfs_core::engine::{BfsEngine, BfsOptions, BfsOutput};
use bfs_core::session::BfsSession;
use bfs_core::DirectionPolicy;
use bfs_graph::degree_order;
use bfs_graph::gen::classic::path;
use bfs_graph::gen::uniform::uniform_random;
use bfs_graph::rng::rng_from_seed;
use bfs_platform::Topology;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns `(allocation count, allocated bytes)` it caused.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let bytes = BYTES.load(Ordering::Relaxed);
    f();
    (
        ALLOCS.load(Ordering::Relaxed) - allocs,
        BYTES.load(Ordering::Relaxed) - bytes,
    )
}

#[test]
fn warm_session_queries_allocate_no_traversal_storage() {
    const N: usize = 4000;
    let g = uniform_random(N, 8, &mut rng_from_seed(11));
    let topo = Topology::synthetic(1, 1);

    // Cold baseline: the same engine, but `run` builds a fresh `RunState`
    // (DP, VIS, frontiers, bins) and a fresh output every query. The
    // engine's pool is already spawned, so the measured difference is
    // exactly the per-query storage cost the session eliminates.
    let engine = BfsEngine::new(&g, topo, BfsOptions::default());
    engine.run(0); // one-time lazy process state is charged to nobody
    let (cold_allocs, cold_bytes) = counted(|| {
        engine.run(0);
    });

    let mut session = BfsSession::new(&g, topo, BfsOptions::default());
    let mut out = BfsOutput::default();
    // Two warm-up queries: the frontier buffer pair swaps roles every step,
    // so it converges to its joint high-water capacity on the second run.
    session.run_reusing(0, &mut out);
    session.run_reusing(0, &mut out);

    let capacity = session.buffer_capacity_words();
    let (warm_allocs, warm_bytes) = counted(|| {
        session.run_reusing(0, &mut out);
    });
    let (warm_allocs_2, warm_bytes_2) = counted(|| {
        session.run_reusing(0, &mut out);
    });

    // Warm queries are allocation-stable: run 3 and run 4 are bit-identical
    // (single thread), so any extra allocation would mean storage churn.
    assert_eq!(warm_allocs, warm_allocs_2, "warm queries must be identical");
    assert_eq!(warm_bytes, warm_bytes_2, "warm queries must be identical");
    // ... and none of it is buffer growth: the high-water capacity is
    // untouched.
    assert_eq!(session.buffer_capacity_words(), capacity);

    // The warm path's residual heap traffic (pool result collection +
    // per-step division plans) is tiny and independent of |V|: far smaller
    // than even one of the O(|V|) arrays a cold query allocates.
    let dp_bytes = (N * 8) as u64;
    assert!(
        warm_bytes < dp_bytes / 4,
        "warm query allocated {warm_bytes} bytes — that is traversal storage, \
         not bookkeeping (DP alone is {dp_bytes})"
    );
    // A cold query allocates DP + VIS + output arrays on top of everything
    // the warm query does.
    assert!(
        cold_allocs > warm_allocs,
        "cold {cold_allocs} allocations vs warm {warm_allocs}"
    );
    assert!(
        cold_bytes >= warm_bytes + dp_bytes,
        "cold query must pay at least the DP array over a warm one \
         (cold {cold_bytes}, warm {warm_bytes}, DP {dp_bytes})"
    );

    // A relabeled graph: the engine's epilogue writes the answer straight
    // into external id order in `out`'s own arrays, so translation adds no
    // per-query storage either.
    let (relabeled, _) = degree_order(&g);
    let mut session = BfsSession::new(&relabeled, topo, BfsOptions::default());
    session.run_reusing(0, &mut out);
    session.run_reusing(0, &mut out);
    let capacity = session.buffer_capacity_words();
    let (warm_allocs, warm_bytes) = counted(|| {
        session.run_reusing(0, &mut out);
    });
    let (warm_allocs_2, warm_bytes_2) = counted(|| {
        session.run_reusing(0, &mut out);
    });
    assert_eq!(
        (warm_allocs, warm_bytes),
        (warm_allocs_2, warm_bytes_2),
        "relabeled warm queries must be identical"
    );
    assert_eq!(session.buffer_capacity_words(), capacity);
    assert!(
        warm_bytes < dp_bytes / 4,
        "relabeled warm query allocated {warm_bytes} bytes — that is \
         traversal or translation storage, not bookkeeping (DP alone is {dp_bytes})"
    );

    // Every level bottom-up on a path: a query from one end runs L - 1
    // levels, one from the middle L/2. After warming on the deep end, both
    // must cost the same allocations and bytes (the pool's constant
    // result collection); a per-level scan plan would grow with depth.
    const L: usize = 1000;
    let line = path(L);
    let bottom_up = BfsOptions {
        direction: DirectionPolicy::ForcedBottomUp,
        ..Default::default()
    };
    let mut session = BfsSession::new(&line, topo, bottom_up);
    let end = (L - 1) as u32;
    session.run_reusing(end, &mut out);
    session.run_reusing(end, &mut out);
    let deep = counted(|| {
        session.run_reusing(end, &mut out);
    });
    assert_eq!(out.stats.steps as usize, L - 1);
    let shallow = counted(|| {
        session.run_reusing((L / 2) as u32, &mut out);
    });
    assert_eq!(out.stats.steps as usize, L / 2);
    assert_eq!(
        deep,
        shallow,
        "bottom-up warm queries of depth {} and {} must allocate alike",
        L - 1,
        L / 2
    );
}
