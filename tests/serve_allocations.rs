//! Allocation guard for the serve dispatch loop's steady state: a warm
//! session answering single-source `/query` requests through
//! `bfs_core::query::execute`, with the response JSON hand-rendered into
//! a **reused** byte buffer (the per-connection buffer `fastbfs serve`
//! threads worker → job → reply → worker), must settle to a constant,
//! |V|-independent allocation count per request.
//!
//! This is the companion to `session_allocations.rs` (which guards the
//! bare `run_reusing` path): here the whole request loop is emulated —
//! execute, render, "send" — so a regression anywhere in the serving
//! path's heap behavior (an outcome that clones rows, a renderer that
//! builds an intermediate `String` per response) trips the guard.
//!
//! A counting global allocator observes every allocation in the process,
//! so this file holds a single `#[test]` (parallel tests would pollute
//! the counters) and uses a single-threaded topology for determinism.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use bfs_core::engine::{BfsOptions, BfsOutput};
use bfs_core::query::{self, QueryKind, QueryOutcome};
use bfs_core::session::BfsSession;
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

/// One emulated request: execute against the warm session, render the
/// response into the reused buffer — the same shape `fastbfs serve`
/// writes, fields hand-formatted straight into the byte buffer with no
/// intermediate `String`.
fn serve_one(
    session: &mut BfsSession<'_>,
    kind: &QueryKind,
    out: &mut BfsOutput,
    buf: &mut Vec<u8>,
    id: u64,
) {
    let outcome = query::execute(session, kind, out);
    buf.clear();
    let QueryOutcome::Reach(r) = outcome else {
        panic!("Reach request must yield a Reach outcome");
    };
    let _ = write!(
        buf,
        "{{\"id\":{id},\"src\":{},\"depth\":{},\"visited_vertices\":{},\"traversed_edges\":{}",
        r.src, r.depth, r.visited_vertices, r.traversed_edges
    );
    match r.dst {
        Some(d) => {
            let _ = write!(buf, ",\"dst\":{{\"vertex\":{}", d.vertex);
            match d.depth {
                Some(depth) => {
                    let _ = write!(buf, ",\"depth\":{depth}");
                }
                None => {
                    let _ = write!(buf, ",\"depth\":null");
                }
            }
            let _ = write!(buf, "}}");
        }
        None => {
            let _ = write!(buf, ",\"dst\":null");
        }
    }
    let _ = write!(buf, ",\"spans\":{{\"session\":0}}}}");
}

#[test]
fn steady_state_serve_loop_is_allocation_stable() {
    const N: usize = 4000;
    let g = uniform_random(N, 8, &mut rng_from_seed(11));
    let topo = Topology::synthetic(1, 1);

    let mut session = BfsSession::new(&g, topo, BfsOptions::default());
    let mut out = BfsOutput::default();
    let mut buf: Vec<u8> = Vec::new();

    // A fixed request mix: distinct sources (different frontier shapes)
    // with and without a dst probe, exactly what the admission queue
    // feeds a session.
    let requests: Vec<QueryKind> = vec![
        QueryKind::Reach { src: 0, dst: None },
        QueryKind::Reach {
            src: 17,
            dst: Some(230),
        },
        QueryKind::Reach {
            src: 999,
            dst: Some(0),
        },
        QueryKind::Reach {
            src: 3777,
            dst: None,
        },
    ];

    // Warmup: two passes converge the session's frontier-pair high-water
    // capacity and grow the response buffer to its final size. Every
    // request id here and below has two digits, so no measured reply is
    // longer than its warm-up twin.
    for pass in 0..2 {
        for (i, kind) in requests.iter().enumerate() {
            serve_one(
                &mut session,
                kind,
                &mut out,
                &mut buf,
                (10 + pass * 4 + i) as u64,
            );
        }
    }

    let capacity = session.buffer_capacity_words();
    let buf_capacity = buf.capacity();

    // Steady state: two more full passes must allocate identically —
    // any drift would mean per-request storage churn in the serve loop.
    let (pass3_allocs, pass3_bytes) = counted(|| {
        for (i, kind) in requests.iter().enumerate() {
            serve_one(&mut session, kind, &mut out, &mut buf, (18 + i) as u64);
        }
    });
    let (pass4_allocs, pass4_bytes) = counted(|| {
        for (i, kind) in requests.iter().enumerate() {
            serve_one(&mut session, kind, &mut out, &mut buf, (22 + i) as u64);
        }
    });

    assert_eq!(
        pass3_allocs, pass4_allocs,
        "steady-state serve passes must allocate identically"
    );
    assert_eq!(
        pass3_bytes, pass4_bytes,
        "steady-state serve passes must allocate identically"
    );

    // Neither the traversal buffers nor the response buffer grew: the
    // loop runs entirely out of reused storage.
    assert_eq!(session.buffer_capacity_words(), capacity);
    assert_eq!(buf.capacity(), buf_capacity);
    assert!(
        !buf.is_empty(),
        "the renderer must have produced a response"
    );

    // The residual per-pass heap traffic (pool result collection +
    // per-step division plans inside the engine) is bookkeeping-sized:
    // far below even one O(|V|) traversal array per request.
    let dp_bytes = (N * 8) as u64;
    assert!(
        pass3_bytes < dp_bytes,
        "a 4-request serve pass allocated {pass3_bytes} bytes — that is \
         traversal or response storage, not bookkeeping (DP alone is {dp_bytes})"
    );
}
