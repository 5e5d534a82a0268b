//! Allocation guard for the flight recorder's warm-path digest seam: a
//! warm session's traversals must stay allocation-stable with the
//! per-level record active (it always is — the leader pushes one
//! [`LevelDigest`](bfs_trace::LevelDigest) per level unconditionally)
//! and with the server-side capped copy of that record
//! (`with_level_digest`, first [`LEVEL_DIGEST_CAP`] levels) in the loop,
//! including a traversal deeper than the cap.
//!
//! A counting global allocator observes every allocation in the process,
//! so this file holds a single `#[test]` (parallel tests would pollute
//! the counters) and uses a single-threaded topology for determinism.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bfs_core::engine::{BfsOptions, BfsOutput};
use bfs_core::session::BfsSession;
use bfs_graph::gen::uniform::uniform_random;
use bfs_graph::rng::rng_from_seed;
use bfs_graph::{BuildOptions, GraphBuilder};
use bfs_platform::Topology;
use bfs_trace::LEVEL_DIGEST_CAP;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns the allocation count it caused.
fn counted(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn warm_digest_recording_allocates_nothing() {
    // A uniform random core plus a separate path component: sources in
    // the core traverse a handful of levels, the path's end more than
    // LEVEL_DIGEST_CAP.
    const N: usize = 4000;
    const PATH_LEN: usize = 100;
    let core = uniform_random(N, 8, &mut rng_from_seed(11));
    let mut b = GraphBuilder::new(N + PATH_LEN, BuildOptions::default());
    for u in 0..N as u32 {
        for &v in core.neighbors(u) {
            b.add_edge(u, v);
        }
    }
    for v in N + 1..N + PATH_LEN {
        b.add_edge(v as u32 - 1, v as u32);
    }
    let g = b.build();
    let deep = N as u32;

    let topo = Topology::synthetic(1, 1);
    let mut session = BfsSession::new(&g, topo, BfsOptions::default());
    let mut out = BfsOutput::default();
    let sources = [0u32, 17, deep, 999, 3777];

    // Warmup: converge high-water buffer and record capacities.
    for _ in 0..2 {
        for &src in &sources {
            session.run_reusing(src, &mut out);
        }
    }

    // The serve-side copy: the first LEVEL_DIGEST_CAP levels plus the
    // count of the rest.
    let copy_digest = |session: &BfsSession<'_>, out: &BfsOutput| {
        session.with_level_digest(|levels| {
            assert!(
                !levels.is_empty(),
                "a warm traversal must leave a per-level record"
            );
            assert_eq!(levels.len(), out.stats.steps as usize);
            assert!(levels.iter().all(|l| l.frontier > 0));
            let kept = &levels[..levels.len().min(LEVEL_DIGEST_CAP)];
            (kept.to_vec(), (levels.len() - kept.len()) as u64)
        })
    };

    let pass = |session: &mut BfsSession<'_>, out: &mut BfsOutput| {
        for &src in &sources {
            session.run_reusing(src, out);
            let (kept, truncated) = copy_digest(session, out);
            if src == deep {
                assert_eq!(kept.len(), LEVEL_DIGEST_CAP);
                assert_eq!(truncated, out.stats.steps as u64 - LEVEL_DIGEST_CAP as u64);
                assert!(truncated > 0);
            } else {
                assert_eq!(truncated, 0);
            }
        }
    };

    let a3 = counted(|| pass(&mut session, &mut out));
    let a4 = counted(|| pass(&mut session, &mut out));
    assert_eq!(
        a3, a4,
        "the level record + capped copies must leave warm passes allocation-stable"
    );
}
