//! Persistent query sessions: batched multi-source BFS over one engine.
//!
//! [`BfsEngine::run`] pays a per-query setup cost that has nothing to do
//! with the traversal itself: it allocates and zeroes an O(|V|) `DP` array
//! and `VIS` filter, and grows fresh per-thread frontier and bin buffers.
//! For the Graph500-style workload of many traversals over one graph, that
//! setup dominates small queries.
//!
//! A [`BfsSession`] keeps all of it alive across queries:
//!
//! * the engine's [`SocketPool`](bfs_platform::SocketPool) runs lane 0 on
//!   the caller and parks its other workers between runs, so a query costs
//!   a wake instead of thread spawns;
//! * `DP` resets in O(1) per query via an epoch stamp in each packed word
//!   (see [`crate::dp`] — the single-aligned-store §III-A argument is
//!   preserved because the stamp travels inside the same 64-bit word);
//! * `VIS` resets in one sequential pass over its `n/8` bytes (see
//!   [`crate::vis::Vis::reset`]; DESIGN.md §8 states the trade-off against
//!   an O(touched) replay of the run's enqueues);
//! * frontier, bin, and scratch buffers keep their high-water capacity, so
//!   a warm query allocates nothing for traversal storage.
//!
//! Capacity policy: buffers only ever grow, to the largest traversal the
//! session has served. Call [`BfsSession::shrink`] to release that memory
//! (the next query regrows it); [`BfsSession::buffer_capacity_words`]
//! reports the current retained footprint.
//!
//! # Example
//!
//! ```
//! use bfs_core::{BfsOptions, BfsSession};
//! use bfs_graph::gen::uniform::uniform_random;
//! use bfs_graph::rng::rng_from_seed;
//! use bfs_platform::Topology;
//!
//! let graph = uniform_random(1000, 6, &mut rng_from_seed(1));
//! let mut session = BfsSession::new(&graph, Topology::synthetic(2, 2), BfsOptions::default());
//! let outputs = session.run_batch(&[0, 17, 42]);
//! assert_eq!(outputs.len(), 3);
//! assert_eq!(outputs[1].depths[17], 0);
//! assert_eq!(session.runs(), 3);
//! ```

use bfs_graph::CsrGraph;
use bfs_platform::Topology;
use bfs_trace::{NoopSink, TraceSink};

use crate::engine::{BfsEngine, BfsOptions, BfsOutput, RunState};
use crate::VertexId;

/// A reusable query session: one [`BfsEngine`] plus the long-lived
/// traversal state that makes warm queries allocation-free.
///
/// Queries take `&mut self` — the session serializes its own queries by
/// construction, which is what lets the reset protocol skip all
/// synchronization.
///
/// # Relabeled graphs
///
/// When the graph carries a [`bfs_graph::VertexPermutation`] (it was
/// rewritten by [`bfs_graph::degree_order`]), the session is the
/// translation boundary: it maps the source external → internal and hands
/// the permutation to the engine. Callers — the query layer, the serve
/// endpoints, tests — never see internal ids.
///
/// The answer is written by the engine's pool, not the caller: after the
/// last level barrier each lane takes a contiguous range of internal ids,
/// reads each `DP` word once, writes depth and parent (translated through
/// the inverse map) at the vertex's external index in `out`'s own arrays,
/// and counts the range's visited vertices and traversed edges. The
/// permutation is a bijection, so the lanes' writes never overlap. Warm
/// queries stay allocation-free, and this epilogue is outside
/// `stats.total_time` (it is answer formatting, not traversal).
pub struct BfsSession<'g> {
    engine: BfsEngine<'g>,
    state: RunState,
}

impl<'g> BfsSession<'g> {
    /// Builds an engine and wraps it in a session.
    pub fn new(graph: &'g CsrGraph, topology: Topology, options: BfsOptions) -> Self {
        Self::from_engine(BfsEngine::new(graph, topology, options))
    }

    /// Wraps an existing engine.
    pub fn from_engine(engine: BfsEngine<'g>) -> Self {
        let state = RunState::new(&engine);
        Self { engine, state }
    }

    /// [`BfsSession::new`] with an explicit `DP` epoch-stamp width.
    ///
    /// A narrow width forces frequent stamp wraparound (and thus the full
    /// `DP` re-zero fallback); tests use it to exercise that path in a few
    /// queries instead of thousands.
    pub fn with_epoch_bits(
        graph: &'g CsrGraph,
        topology: Topology,
        options: BfsOptions,
        epoch_bits: u32,
    ) -> Self {
        let engine = BfsEngine::new(graph, topology, options);
        let state = RunState::with_epoch_bits(&engine, Some(epoch_bits));
        Self { engine, state }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &BfsEngine<'g> {
        &self.engine
    }

    /// Number of queries this session has served.
    pub fn runs(&self) -> u64 {
        self.state.runs()
    }

    /// Merged view of the engine's always-on metrics registry (totals
    /// accumulated across every query this session served since the last
    /// [`reset_metrics`](Self::reset_metrics)).
    pub fn metrics_snapshot(&mut self) -> bfs_metrics::MetricsSnapshot {
        self.engine.metrics_snapshot()
    }

    /// Zeroes the engine's metrics registry.
    pub fn reset_metrics(&mut self) {
        self.engine.reset_metrics();
    }

    /// Mutable access to the engine's metrics registry (see
    /// [`BfsEngine::metrics_mut`]).
    pub fn metrics_mut(&mut self) -> &mut bfs_metrics::MetricsRegistry {
        self.engine.metrics_mut()
    }

    /// Retained frontier/bin/scratch capacity in `u32` words — the
    /// high-water traversal footprint (excludes the fixed O(|V|) `DP`/`VIS`
    /// arrays).
    pub fn buffer_capacity_words(&self) -> usize {
        self.state.buffer_capacity_words()
    }

    /// Releases all retained frontier/bin/scratch capacity. The next query
    /// regrows the buffers; `DP`/`VIS` are fixed-size and unaffected.
    pub fn shrink(&mut self) {
        self.state.shrink();
    }

    /// Runs one query from `source`.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn run(&mut self, source: VertexId) -> BfsOutput {
        let mut out = BfsOutput::default();
        self.run_reusing(source, &mut out);
        out
    }

    /// Runs one query from `source`, writing into `out` so its `depths`,
    /// `parents`, and `frontier_sizes` allocations are reused. With a warmed
    /// session and a reused `out`, the query allocates nothing for
    /// traversal storage.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn run_reusing(&mut self, source: VertexId, out: &mut BfsOutput) {
        self.run_traced_reusing(source, &NoopSink, out);
    }

    /// [`run`](Self::run) with tracing: emits one `RunEvent` (engine name
    /// `"session"`) and one `StepEvent` per BFS level into `sink`.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn run_traced(&mut self, source: VertexId, sink: &dyn TraceSink) -> BfsOutput {
        let mut out = BfsOutput::default();
        self.run_traced_reusing(source, sink, &mut out);
        out
    }

    /// [`run_reusing`](Self::run_reusing) with tracing.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn run_traced_reusing(
        &mut self,
        source: VertexId,
        sink: &dyn TraceSink,
        out: &mut BfsOutput,
    ) {
        let perm = self.engine.graph().permutation();
        let internal = match perm {
            None => source,
            Some(perm) => {
                // Source ids arrive in external space; reject before the
                // forward map would turn the mistake into an index panic.
                assert!((source as usize) < perm.len(), "source out of range");
                perm.to_internal(source)
            }
        };
        self.engine
            .run_with_state(&mut self.state, internal, perm, sink, "session", out);
    }

    /// Lends the last run's per-level record: one [`bfs_trace::LevelDigest`]
    /// (step, direction, frontier size, critical-path phase nanoseconds)
    /// per non-empty BFS level, uncapped, in traversal order — the record
    /// `stats.frontier_sizes[1..]` and `stats.step_directions` are derived
    /// from (the flight-recorder seam, DESIGN.md §15). Level sizes and
    /// directions are id-space-agnostic, so the record needs no
    /// permutation translation on relabeled graphs. Empty before the first
    /// run; overwritten by each run, so a batch leaves the record of its
    /// last source's traversal.
    pub fn with_level_digest<R>(&self, f: impl FnOnce(&[bfs_trace::LevelDigest]) -> R) -> R {
        self.state.with_level_digest(f)
    }

    /// Runs one query per source, in order, returning one output per source.
    ///
    /// # Panics
    /// Panics if any source is out of range.
    pub fn run_batch(&mut self, sources: &[VertexId]) -> Vec<BfsOutput> {
        self.run_batch_traced(sources, &NoopSink)
    }

    /// [`run_batch`](Self::run_batch) with tracing (one `RunEvent` per
    /// query).
    ///
    /// # Panics
    /// Panics if any source is out of range.
    pub fn run_batch_traced(
        &mut self,
        sources: &[VertexId],
        sink: &dyn TraceSink,
    ) -> Vec<BfsOutput> {
        sources.iter().map(|&s| self.run_traced(s, sink)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::serial_bfs;
    use crate::validate::validate_bfs_tree;
    use bfs_graph::gen::classic::{path, star, two_cliques};
    use bfs_graph::gen::uniform::uniform_random;
    use bfs_graph::rng::rng_from_seed;

    #[test]
    fn session_matches_engine_across_back_to_back_sources() {
        let g = uniform_random(1500, 6, &mut rng_from_seed(31));
        let topo = Topology::synthetic(2, 2);
        let engine = BfsEngine::new(&g, topo, BfsOptions::default());
        let mut session = BfsSession::new(&g, topo, BfsOptions::default());
        for source in [0, 700, 3, 1499, 0] {
            let cold = engine.run(source);
            let warm = session.run(source);
            // Parents and duplicate counts are racy (the §III-A benign
            // race); depths and the tree shape are the invariants.
            assert_eq!(warm.depths, cold.depths, "source {source}");
            validate_bfs_tree(&g, source, &warm.depths, &warm.parents).unwrap();
            assert_eq!(
                warm.stats.visited_vertices, cold.stats.visited_vertices,
                "source {source}"
            );
            assert_eq!(
                warm.stats.traversed_edges, cold.stats.traversed_edges,
                "source {source}"
            );
            assert_eq!(warm.stats.steps, cold.stats.steps, "source {source}");
        }
        assert_eq!(session.runs(), 5);
    }

    #[test]
    fn reused_output_buffers_give_identical_results() {
        let g = uniform_random(800, 5, &mut rng_from_seed(8));
        let mut session = BfsSession::new(&g, Topology::synthetic(2, 2), BfsOptions::default());
        let mut out = BfsOutput::default();
        for source in [0, 50, 799] {
            session.run_reusing(source, &mut out);
            let reference = serial_bfs(&g, source);
            assert_eq!(out.depths, reference.depths, "source {source}");
            validate_bfs_tree(&g, source, &out.depths, &out.parents).unwrap();
        }
    }

    #[test]
    fn tiny_epoch_width_wraps_and_stays_correct() {
        // 2 stamp bits → epochs {1, 2, 3}: the 3rd reset wraps and forces
        // the full re-zero path. Run enough queries to wrap twice.
        let g = uniform_random(600, 4, &mut rng_from_seed(77));
        let mut session =
            BfsSession::with_epoch_bits(&g, Topology::synthetic(2, 2), BfsOptions::default(), 2);
        for q in 0..8 {
            let source = (q * 83 % 600) as VertexId;
            let out = session.run(source);
            let reference = serial_bfs(&g, source);
            assert_eq!(out.depths, reference.depths, "query {q} source {source}");
        }
    }

    #[test]
    fn disconnected_components_reset_cleanly() {
        // A run that visits one clique must not leak marks into a later run
        // from the other clique.
        let g = two_cliques(10, 10);
        let mut session = BfsSession::new(&g, Topology::synthetic(2, 2), BfsOptions::default());
        let a = session.run(0);
        let b = session.run(10);
        assert_eq!(a.stats.visited_vertices, 10);
        assert_eq!(b.stats.visited_vertices, 10);
        assert_eq!(b.depths[0], crate::INF_DEPTH);
        assert_eq!(a.depths[10], crate::INF_DEPTH);
    }

    #[test]
    fn adaptive_direction_switches_across_warm_queries() {
        // Dense enough that the default α/β go bottom-up in the middle
        // levels; every warm query re-decides per level over recycled
        // VIS/DP/bitmap state.
        let g = uniform_random(2500, 12, &mut rng_from_seed(19));
        let opts = BfsOptions {
            direction: crate::DirectionPolicy::auto(),
            ..Default::default()
        };
        let mut session = BfsSession::new(&g, Topology::synthetic(2, 2), opts);
        let mut out = BfsOutput::default();
        for &source in &[0u32, 1250, 2499, 7, 0] {
            session.run_reusing(source, &mut out);
            let reference = serial_bfs(&g, source);
            assert_eq!(out.depths, reference.depths, "source {source}");
            validate_bfs_tree(&g, source, &out.depths, &out.parents).unwrap();
            assert_eq!(
                out.stats.step_directions.len(),
                out.stats.steps as usize,
                "source {source}"
            );
            assert!(
                out.stats.bottom_up_steps() > 0,
                "source {source}: expected a bottom-up middle level, got {:?}",
                out.stats.step_directions
            );
        }
    }

    #[test]
    fn tiny_epoch_width_wraps_under_bottom_up() {
        // The bottom-up kernel's unvisited scan reads DP/VIS stamps, so it
        // must honor epoch resets exactly like top-down. 2 stamp bits →
        // wrap twice over 8 queries, alternating forced directions.
        let g = uniform_random(600, 4, &mut rng_from_seed(77));
        for direction in [
            crate::DirectionPolicy::ForcedBottomUp,
            crate::DirectionPolicy::auto(),
        ] {
            let opts = BfsOptions {
                direction,
                ..Default::default()
            };
            let mut session = BfsSession::with_epoch_bits(&g, Topology::synthetic(2, 2), opts, 2);
            for q in 0..8 {
                let source = (q * 83 % 600) as VertexId;
                let out = session.run(source);
                let reference = serial_bfs(&g, source);
                assert_eq!(
                    out.depths, reference.depths,
                    "query {q} source {source} ({direction:?})"
                );
            }
        }
    }

    #[test]
    fn disconnected_components_reset_cleanly_bottom_up() {
        // Under forced bottom-up the kernel scans *all* vertices each level,
        // including the unreachable clique — stale stamps there must not
        // produce claims in a later query.
        let g = two_cliques(10, 10);
        let opts = BfsOptions {
            direction: crate::DirectionPolicy::ForcedBottomUp,
            ..Default::default()
        };
        let mut session = BfsSession::new(&g, Topology::synthetic(2, 2), opts);
        let a = session.run(0);
        let b = session.run(10);
        let c = session.run(0);
        assert_eq!(a.stats.visited_vertices, 10);
        assert_eq!(b.stats.visited_vertices, 10);
        assert_eq!(a.depths, c.depths);
        assert_eq!(b.depths[0], crate::INF_DEPTH);
        assert_eq!(a.depths[10], crate::INF_DEPTH);
    }

    #[test]
    fn batch_returns_one_output_per_source() {
        let g = star(9);
        let mut session = BfsSession::new(&g, Topology::synthetic(1, 2), BfsOptions::default());
        let outs = session.run_batch(&[0, 1, 5]);
        assert_eq!(outs.len(), 3);
        assert_eq!(outs[0].depths[5], 1);
        assert_eq!(outs[1].depths[0], 1);
        assert_eq!(outs[2].depths[5], 0);
        assert_eq!(session.runs(), 3);
    }

    #[test]
    fn capacity_is_retained_then_released_by_shrink() {
        let g = uniform_random(2000, 8, &mut rng_from_seed(4));
        // Single thread: no racy duplicate enqueues, so repeat queries are
        // bit-identical and the high-water capacity is exactly stable.
        let mut session = BfsSession::new(&g, Topology::synthetic(1, 1), BfsOptions::default());
        assert_eq!(session.buffer_capacity_words(), 0);
        // Two warm-up queries: the frontier buffers swap roles every step,
        // so with an odd step count the pair converges to its joint
        // high-water only on the second run.
        session.run(0);
        session.run(0);
        let high_water = session.buffer_capacity_words();
        assert!(high_water > 0);
        session.run(0);
        // Same query → no growth beyond the high-water mark.
        assert_eq!(session.buffer_capacity_words(), high_water);
        session.shrink();
        assert_eq!(session.buffer_capacity_words(), 0);
        // Buffers regrow and the query still works.
        let out = session.run(0);
        assert!(out.stats.visited_vertices > 0);
        assert!(session.buffer_capacity_words() > 0);
    }

    #[test]
    fn session_tracing_names_the_session_engine() {
        use bfs_trace::{RingSink, TraceEvent};
        let g = path(17);
        let mut session = BfsSession::new(&g, Topology::synthetic(1, 2), BfsOptions::default());
        let ring = RingSink::new(256);
        session.run_batch_traced(&[0, 16], &ring);
        let runs: Vec<_> = ring
            .snapshot()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Run(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(runs.len(), 2);
        assert!(runs.iter().all(|r| r.engine == "session"));
        assert_eq!(runs[0].source, 0);
        assert_eq!(runs[1].source, 16);
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn rejects_bad_source() {
        let g = path(3);
        BfsSession::new(&g, Topology::synthetic(1, 1), BfsOptions::default()).run(9);
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn rejects_bad_source_on_relabeled_graph() {
        let g = uniform_random(100, 4, &mut rng_from_seed(2));
        let (rg, _) = bfs_graph::degree_order(&g);
        BfsSession::new(&rg, Topology::synthetic(1, 1), BfsOptions::default()).run(100);
    }

    #[test]
    fn relabeled_session_answers_in_external_ids() {
        let g = uniform_random(1200, 6, &mut rng_from_seed(44));
        let (rg, perm) = bfs_graph::degree_order(&g);
        let topo = Topology::synthetic(2, 2);
        let mut relabeled = BfsSession::new(&rg, topo, BfsOptions::default());
        let mut out = BfsOutput::default();
        for source in [0u32, 600, 1199, 0] {
            relabeled.run_reusing(source, &mut out);
            // Depths must match a traversal of the *original* graph from the
            // same external source, and parents must form a valid tree over
            // the original graph's edges — both only possible if every id in
            // the answer is external.
            let reference = serial_bfs(&g, source);
            assert_eq!(out.depths, reference.depths, "source {source}");
            validate_bfs_tree(&g, source, &out.depths, &out.parents).unwrap();
        }
        assert!(perm.len() == g.num_vertices());
    }

    #[test]
    fn hugepage_request_degrades_with_typed_reason_or_enables() {
        use crate::engine::HugepageStatus;
        let g = uniform_random(500, 4, &mut rng_from_seed(6));
        let opts = BfsOptions {
            huge_pages: true,
            ..Default::default()
        };
        let mut session = BfsSession::new(&g, Topology::synthetic(1, 2), opts);
        match session.engine().hugepage_status() {
            HugepageStatus::Disabled => panic!("huge_pages was requested"),
            HugepageStatus::Enabled => {}
            HugepageStatus::Unavailable(reason) => {
                // Typed, human-readable degradation — never a silent zero.
                assert!(!reason.to_string().is_empty());
            }
        }
        // Traversal is identical either way.
        let out = session.run(0);
        let reference = serial_bfs(&g, 0);
        assert_eq!(out.depths, reference.depths);
    }
}
