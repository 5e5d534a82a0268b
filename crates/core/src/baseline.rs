//! Re-implementations of prior work used as comparison points.
//!
//! §V compares against the previous best reported numbers, re-measured "on
//! our system" — the methodology reproduced here by implementing the
//! competing algorithms on the same substrate:
//!
//! * [`atomic_parallel_bfs`] — the Agarwal et al. scheme (the paper's main
//!   comparison, Figure 6): level-synchronous parallel BFS with a **bit
//!   vector updated by LOCK-prefixed atomic OR** and exactly-once vertex
//!   claims, shared frontier chunks, and no locality-aware placement,
//!   binning, rearrangement, SIMD or prefetch.
//! * [`no_vis_parallel_bfs`] — the "no VIS array" series of Figure 4:
//!   identical structure but every edge checks the `DP` word directly.

use bfs_graph::CsrGraph;
use bfs_platform::{SocketPool, Topology};
use bfs_trace::{NoopSink, RunEvent, StepEvent, ThreadStep, TraceEvent, TraceSink};

use crate::balance::{divide_even, Stream};
use crate::cell::ThreadOwned;
use crate::dp::{DepthParent, INF_DEPTH};
use crate::engine::BfsOutput;
use crate::stats::TraversalStats;
use crate::vis::{Vis, VisScheme};
use crate::VertexId;

/// Agarwal-style atomic-bitmap BFS: test-first bitmap probes with a LOCK
/// `fetch_or` claim per vertex (their tuned protocol), shared frontier, no
/// locality machinery.
pub fn atomic_parallel_bfs(graph: &CsrGraph, topology: Topology, source: VertexId) -> BfsOutput {
    flat_parallel_bfs(graph, topology, source, VisScheme::AtomicBitTest, &NoopSink)
}

/// [`atomic_parallel_bfs`] with per-step events into `sink`.
pub fn atomic_parallel_bfs_traced(
    graph: &CsrGraph,
    topology: Topology,
    source: VertexId,
    sink: &dyn TraceSink,
) -> BfsOutput {
    flat_parallel_bfs(graph, topology, source, VisScheme::AtomicBitTest, sink)
}

/// The literal Figure 2(a) variant: a LOCK `fetch_or` per edge.
pub fn atomic_per_edge_parallel_bfs(
    graph: &CsrGraph,
    topology: Topology,
    source: VertexId,
) -> BfsOutput {
    flat_parallel_bfs(graph, topology, source, VisScheme::AtomicBit, &NoopSink)
}

/// Direct-DP parallel BFS (no VIS filter at all).
pub fn no_vis_parallel_bfs(graph: &CsrGraph, topology: Topology, source: VertexId) -> BfsOutput {
    flat_parallel_bfs(graph, topology, source, VisScheme::None, &NoopSink)
}

/// [`no_vis_parallel_bfs`] with per-step events into `sink`.
pub fn no_vis_parallel_bfs_traced(
    graph: &CsrGraph,
    topology: Topology,
    source: VertexId,
    sink: &dyn TraceSink,
) -> BfsOutput {
    flat_parallel_bfs(graph, topology, source, VisScheme::None, sink)
}

fn baseline_name(scheme: VisScheme) -> &'static str {
    match scheme {
        VisScheme::AtomicBitTest => "baseline-atomic",
        VisScheme::AtomicBit => "baseline-atomic-per-edge",
        VisScheme::None => "baseline-no-vis",
        VisScheme::Byte => "baseline-byte",
        VisScheme::Bit => "baseline-bit",
    }
}

/// Shared skeleton: level-synchronous expansion with per-thread output
/// queues and even frontier chunking — the structure of prior multicore BFS
/// work, without any of the paper's locality machinery.
fn flat_parallel_bfs(
    graph: &CsrGraph,
    topology: Topology,
    source: VertexId,
    scheme: VisScheme,
    sink: &dyn TraceSink,
) -> BfsOutput {
    topology.validate();
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source out of range");
    let t0 = std::time::Instant::now();
    let nthreads = topology.total_threads();
    let tracing = sink.enabled();
    if tracing {
        sink.record(&TraceEvent::Run(RunEvent {
            engine: baseline_name(scheme).to_string(),
            vertices: n as u64,
            edges: graph.num_edges(),
            source,
            sockets: topology.sockets,
            lanes_per_socket: topology.lanes_per_socket,
            threads: nthreads,
            n_vis: None,
            n_pbv: None,
            encoding: None,
            scheduling: None,
            vis: Some(format!("{scheme:?}")),
        }));
    }
    let dp = DepthParent::new(n);
    let vis = Vis::new(scheme, n);
    dp.set(source, 0, source);
    vis.mark(source);

    let bv_cur = ThreadOwned::from_fn(nthreads, |t| if t == 0 { vec![source] } else { Vec::new() });
    let bv_next: ThreadOwned<Vec<VertexId>> = ThreadOwned::from_fn(nthreads, |_| Vec::new());
    let totals = [
        std::sync::atomic::AtomicU64::new(0),
        std::sync::atomic::AtomicU64::new(0),
    ];
    // Per-thread (expansion nanos, enqueued) for the leader's step event.
    let step_scratch: ThreadOwned<(u64, u64)> = ThreadOwned::from_fn(nthreads, |_| (0, 0));
    // Leader-only frontier-size log: a single-cell `ThreadOwned` that only
    // thread 0 touches during the run. `frontier_sizes[0]` is the source
    // frontier (see `TraversalStats`).
    let sizes_log: ThreadOwned<Vec<u64>> = ThreadOwned::from_fn(1, |_| vec![1]);

    let pool = SocketPool::new(topology);
    let enqueued: Vec<u64> = pool.run(|ctx| {
        use std::sync::atomic::Ordering;
        let tid = ctx.thread_id;
        let mut my_enqueued = 0u64;
        let mut step = 1u32;
        loop {
            assert!(step <= n as u32 + 1, "BFS failed to terminate");
            if tid == 0 {
                totals[(step & 1) as usize].store(0, Ordering::Relaxed);
            }
            ctx.barrier();
            let expand_t0 = tracing.then(std::time::Instant::now);
            let streams: Vec<Stream> = (0..nthreads)
                .map(|t| Stream {
                    bin: t,
                    owner: t,
                    len: bv_cur.read(t, |f| f.len()),
                })
                .collect();
            let segments = divide_even(&streams, nthreads, 1).swap_remove(tid);
            let mine = bv_next.with_mut(tid, |next| {
                for seg in &segments {
                    bv_cur.read(seg.owner, |frontier| {
                        for &u in &frontier[seg.range.clone()] {
                            for &v in graph.neighbors(u) {
                                match scheme {
                                    VisScheme::AtomicBit | VisScheme::AtomicBitTest => {
                                        // LOCK OR claims exactly once; DP
                                        // write needs no guard.
                                        if !vis.definitely_visited_or_mark(v) {
                                            dp.set(v, step, u);
                                            next.push(v);
                                        }
                                    }
                                    _ => {
                                        if dp.claim_atomic(v, step, u) {
                                            next.push(v);
                                        }
                                    }
                                }
                            }
                        }
                    });
                }
                next.len() as u64
            });
            my_enqueued += mine;
            if let Some(t) = expand_t0 {
                step_scratch.with_mut(tid, |s| *s = (t.elapsed().as_nanos() as u64, mine));
            }
            totals[(step & 1) as usize].fetch_add(mine, Ordering::Relaxed);
            ctx.barrier();
            let total = totals[(step & 1) as usize].load(Ordering::Relaxed);
            if tid == 0 && total > 0 {
                sizes_log.with_mut(0, |log| log.push(total));
                if tracing {
                    emit_baseline_step(sink, step, total, nthreads, &step_scratch, &dp, n);
                }
            }
            bv_cur.with_mut(tid, |cur| {
                bv_next.with_mut(tid, |next| {
                    std::mem::swap(cur, next);
                    next.clear();
                });
            });
            ctx.barrier();
            if total == 0 {
                break;
            }
            step += 1;
        }
        my_enqueued
    });

    let total_time = t0.elapsed();
    let (depths, parents) = dp.into_arrays();
    let mut visited = 0u64;
    let mut traversed = 0u64;
    let mut max_depth = 0u32;
    #[allow(clippy::needless_range_loop)] // v is a vertex id used against two arrays
    for v in 0..n {
        if depths[v] != INF_DEPTH {
            visited += 1;
            traversed += graph.degree(v as u32) as u64;
            max_depth = max_depth.max(depths[v]);
        }
    }
    let enq: u64 = enqueued.iter().sum();
    let frontier_sizes: Vec<u64> = sizes_log.with_mut(0, std::mem::take);
    debug_assert_eq!(frontier_sizes.len() as u32 - 1, max_depth);
    BfsOutput {
        depths,
        parents,
        stats: TraversalStats {
            steps: max_depth,
            visited_vertices: visited,
            traversed_edges: traversed,
            duplicate_enqueues: (enq + 1).saturating_sub(visited),
            frontier_sizes,
            total_time,
            ..Default::default()
        },
    }
}

/// Baseline step event: expansion time reported as `phase1_ns` (the flat
/// skeleton has no Phase II or rearrangement), no bin occupancy.
fn emit_baseline_step(
    sink: &dyn TraceSink,
    step: u32,
    total: u64,
    nthreads: usize,
    step_scratch: &ThreadOwned<(u64, u64)>,
    dp: &DepthParent,
    n: usize,
) {
    let threads: Vec<ThreadStep> = (0..nthreads)
        .map(|t| {
            step_scratch.read(t, |&(expand_ns, enqueued)| ThreadStep {
                thread: t,
                phase1_ns: expand_ns,
                phase2_ns: 0,
                rearrange_ns: 0,
                enqueued,
                edge_checks: 0,
            })
        })
        .collect();
    let claimed = (0..n as u32).filter(|&v| dp.depth(v) == step).count() as u64;
    sink.record(&TraceEvent::Step(StepEvent {
        step,
        frontier: total,
        duplicates: total.saturating_sub(claimed),
        direction: None,
        threads,
        bin_occupancy: Vec::new(),
        scattered: None,
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::serial_bfs;
    use crate::validate::validate_bfs_tree;
    use bfs_graph::gen::classic::{lollipop, path};
    use bfs_graph::gen::rmat::{rmat, RmatConfig};
    use bfs_graph::gen::uniform::uniform_random;
    use bfs_graph::rng::rng_from_seed;

    #[test]
    fn atomic_baseline_matches_serial() {
        let g = uniform_random(1500, 8, &mut rng_from_seed(1));
        let out = atomic_parallel_bfs(&g, Topology::synthetic(2, 2), 0);
        let r = serial_bfs(&g, 0);
        assert_eq!(out.depths, r.depths);
        validate_bfs_tree(&g, 0, &out.depths, &out.parents).unwrap();
        // Atomic claims are exactly-once: no duplicates possible.
        assert_eq!(out.stats.duplicate_enqueues, 0);
    }

    #[test]
    fn no_vis_baseline_matches_serial() {
        let g = rmat(&RmatConfig::paper(10, 4), &mut rng_from_seed(2));
        let src = bfs_graph::stats::nth_non_isolated(&g, 0).unwrap();
        let out = no_vis_parallel_bfs(&g, Topology::synthetic(2, 2), src);
        let r = serial_bfs(&g, src);
        assert_eq!(out.depths, r.depths);
        validate_bfs_tree(&g, src, &out.depths, &out.parents).unwrap();
    }

    #[test]
    fn classic_shapes() {
        for g in [path(9), lollipop(5, 7)] {
            let out = atomic_parallel_bfs(&g, Topology::synthetic(1, 4), 0);
            let r = serial_bfs(&g, 0);
            assert_eq!(out.depths, r.depths);
            assert_eq!(out.stats.steps, r.max_depth);
        }
    }

    #[test]
    fn frontier_sizes_follow_the_convention() {
        let g = uniform_random(900, 6, &mut rng_from_seed(7));
        let out = atomic_parallel_bfs(&g, Topology::synthetic(2, 2), 0);
        assert_eq!(out.stats.frontier_sizes[0], 1);
        assert_eq!(
            out.stats.steps,
            out.stats.frontier_sizes.len() as u32 - 1,
            "steps must count depth levels past the source"
        );
        assert!(out.stats.frontier_sizes.iter().all(|&f| f > 0));
        let sum: u64 = out.stats.frontier_sizes[1..].iter().sum();
        assert_eq!(
            sum,
            out.stats.visited_vertices - 1 + out.stats.duplicate_enqueues
        );
    }

    #[test]
    fn traced_baseline_emits_run_and_step_events() {
        use bfs_trace::RingSink;
        let g = uniform_random(1200, 8, &mut rng_from_seed(5));
        let ring = RingSink::new(4096);
        let out = atomic_parallel_bfs_traced(&g, Topology::synthetic(2, 2), 0, &ring);
        let events = ring.into_events();
        let runs: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Run(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].engine, "baseline-atomic");
        assert_eq!(runs[0].vertices, 1200);
        assert_eq!(runs[0].n_pbv, None);
        let steps: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Step(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(steps.len() as u32, out.stats.steps);
        for (i, s) in steps.iter().enumerate() {
            assert_eq!(s.step, i as u32 + 1);
            assert_eq!(s.frontier, out.stats.frontier_sizes[i + 1]);
            assert_eq!(s.threads.len(), 4);
            let enq: u64 = s.threads.iter().map(|t| t.enqueued).sum();
            assert_eq!(enq, s.frontier);
            assert!(s.bin_occupancy.is_empty());
            assert_eq!(s.duplicates, 0, "atomic claims are exactly-once");
        }
    }

    #[test]
    fn stats_counts_match_serial() {
        let g = uniform_random(600, 4, &mut rng_from_seed(3));
        let out = atomic_parallel_bfs(&g, Topology::synthetic(2, 2), 0);
        let r = serial_bfs(&g, 0);
        assert_eq!(out.stats.visited_vertices, r.visited);
        assert_eq!(out.stats.traversed_edges, r.traversed_edges);
    }
}
