//! The query dispatch seam: typed request kinds a server (or any other
//! front end) hands to a warm [`BfsSession`], with validation separated
//! from execution.
//!
//! The split matters for the serving path:
//!
//! * [`QueryKind::validate`] is cheap and needs only the vertex count, so a
//!   front end rejects malformed requests *before* they consume a slot in
//!   the admission queue — an out-of-range vertex costs an HTTP 422, never
//!   a panic inside the SPMD region.
//! * [`execute`] takes `&mut BfsSession` and a reusable [`BfsOutput`]: the
//!   dispatch thread that owns the session serializes queries by
//!   construction (the same discipline that makes the epoch-stamped resets
//!   race-free), and a warm request allocates nothing for traversal
//!   storage beyond the response rows it returns.
//!
//! Path reconstruction walks the parent chain produced by the traversal.
//! Parents from the parallel engine are racy-but-valid tree edges
//! (§III-A's benign race): `validate_bfs_tree` guarantees every parent
//! sits exactly one level shallower, so the walk from `dst` terminates at
//! `src` in exactly `depths[dst] + 1` vertices — the loop bound below is
//! defensive, not load-bearing.

use crate::engine::BfsOutput;
use crate::session::BfsSession;
use crate::{VertexId, INF_DEPTH};

/// Largest multi-source batch one request may carry; keeps a single POST
/// from monopolizing the dispatch thread.
pub const MAX_BATCH_SOURCES: usize = 1024;

/// One query-path request, already parsed but not yet validated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// Run BFS from `src`; optionally also report one vertex's
    /// depth/parent from the resulting tree.
    Reach {
        src: VertexId,
        dst: Option<VertexId>,
    },
    /// Run BFS from `src` and reconstruct the tree path to `dst`.
    Path { src: VertexId, dst: VertexId },
    /// Run one BFS per source, in order.
    Batch { sources: Vec<VertexId> },
}

impl QueryKind {
    /// Checks every vertex id against the graph size (and the batch length
    /// against [`MAX_BATCH_SOURCES`]). Call before [`execute`]: execution
    /// panics on out-of-range sources, validation returns a typed error.
    pub fn validate(&self, num_vertices: usize) -> Result<(), QueryError> {
        let check = |v: VertexId| {
            if (v as usize) < num_vertices {
                Ok(())
            } else {
                Err(QueryError::VertexOutOfRange { v, num_vertices })
            }
        };
        match self {
            QueryKind::Reach { src, dst } => {
                check(*src)?;
                dst.map_or(Ok(()), check)
            }
            QueryKind::Path { src, dst } => {
                check(*src)?;
                check(*dst)
            }
            QueryKind::Batch { sources } => {
                if sources.is_empty() {
                    return Err(QueryError::EmptyBatch);
                }
                if sources.len() > MAX_BATCH_SOURCES {
                    return Err(QueryError::BatchTooLarge {
                        len: sources.len(),
                        max: MAX_BATCH_SOURCES,
                    });
                }
                sources.iter().copied().try_for_each(check)
            }
        }
    }
}

/// Why a request cannot be executed. All variants are client errors (the
/// request names work the graph cannot do), not server faults.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// A vertex id at or past the graph's vertex count.
    VertexOutOfRange { v: VertexId, num_vertices: usize },
    /// A batch request with no sources.
    EmptyBatch,
    /// A batch request past [`MAX_BATCH_SOURCES`].
    BatchTooLarge { len: usize, max: usize },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::VertexOutOfRange { v, num_vertices } => {
                write!(f, "vertex {v} out of range (graph has {num_vertices})")
            }
            QueryError::EmptyBatch => write!(f, "batch has no sources"),
            QueryError::BatchTooLarge { len, max } => {
                write!(f, "batch of {len} sources exceeds the limit of {max}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// One vertex's position in a finished traversal's tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VertexInfo {
    pub vertex: VertexId,
    /// `None` when the traversal never reached the vertex.
    pub depth: Option<u32>,
    /// Tree parent; `None` when unreached (the source parents itself).
    pub parent: Option<VertexId>,
}

impl VertexInfo {
    fn from_output(out: &BfsOutput, v: VertexId) -> Self {
        let reached = out.depths[v as usize] != INF_DEPTH;
        VertexInfo {
            vertex: v,
            depth: reached.then(|| out.depths[v as usize]),
            parent: reached.then(|| out.parents[v as usize]),
        }
    }
}

/// One traversal's summary row (shared by single and batch responses).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReachResult {
    pub src: VertexId,
    /// BFS depth (number of levels below the source).
    pub depth: u32,
    pub visited_vertices: u64,
    pub traversed_edges: u64,
    /// Filled only when the request asked about a specific vertex.
    pub dst: Option<VertexInfo>,
}

/// A reconstructed source-to-destination tree path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathResult {
    pub src: VertexId,
    pub dst: VertexId,
    /// Vertices from `src` to `dst` inclusive; empty when unreached.
    pub path: Vec<VertexId>,
}

impl PathResult {
    /// Whether the traversal reached `dst` at all.
    pub fn reached(&self) -> bool {
        !self.path.is_empty()
    }
}

/// What [`execute`] returns, mirroring the request kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryOutcome {
    Reach(ReachResult),
    Path(PathResult),
    Batch(Vec<ReachResult>),
}

/// Runs a validated request against the session, reusing `out` for
/// traversal storage.
///
/// # Panics
/// Panics if the request was not validated and names an out-of-range
/// vertex.
pub fn execute(
    session: &mut BfsSession<'_>,
    kind: &QueryKind,
    out: &mut BfsOutput,
) -> QueryOutcome {
    let reach = |session: &mut BfsSession<'_>, out: &mut BfsOutput, src, dst: Option<VertexId>| {
        session.run_reusing(src, out);
        ReachResult {
            src,
            depth: out.stats.steps,
            visited_vertices: out.stats.visited_vertices,
            traversed_edges: out.stats.traversed_edges,
            dst: dst.map(|d| VertexInfo::from_output(out, d)),
        }
    };
    match kind {
        QueryKind::Reach { src, dst } => QueryOutcome::Reach(reach(session, out, *src, *dst)),
        QueryKind::Path { src, dst } => {
            session.run_reusing(*src, out);
            QueryOutcome::Path(PathResult {
                src: *src,
                dst: *dst,
                path: extract_path(out, *src, *dst),
            })
        }
        QueryKind::Batch { sources } => QueryOutcome::Batch(
            sources
                .iter()
                .map(|&s| reach(session, out, s, None))
                .collect(),
        ),
    }
}

/// Runs a coalesced wave of validated requests, handing each outcome to
/// `on_done(session, index, outcome)` as soon as it is ready. The shared
/// session reference lets the callback read per-request execution state
/// — in particular the just-finished traversal's level digest
/// ([`BfsSession::with_level_digest`]) before the next wave member
/// overwrites it (the flight-recorder hook).
///
/// This is the admission-coalescing seam: a server that finds several
/// single-source requests queued when a session frees up batches them
/// into one wave instead of round-tripping the dispatch machinery per
/// request. The traversal sequence is exactly what [`BfsSession::run_batch`]
/// would issue for the same sources — one warm `run_reusing` per request,
/// in order, against the same session state — so each outcome is
/// *identical* to serving that request alone (depths, counts, and parent
/// validity; parents themselves are §III-A's schedule-dependent benign
/// race with more than one lane). Unlike `run_batch` the wave reuses one
/// `BfsOutput` and fans results out incrementally, so waiters early in
/// the wave are answered before the tail finishes.
///
/// # Panics
/// Panics if any request was not validated and names an out-of-range
/// vertex.
pub fn execute_wave(
    session: &mut BfsSession<'_>,
    wave: &[QueryKind],
    out: &mut BfsOutput,
    mut on_done: impl FnMut(&BfsSession<'_>, usize, QueryOutcome),
) {
    for (i, kind) in wave.iter().enumerate() {
        let outcome = execute(session, kind, out);
        on_done(session, i, outcome);
    }
}

/// Walks the parent chain from `dst` back to `src` over a finished
/// traversal rooted at `src`. Returns the path source-first, or empty when
/// `dst` was not reached. The walk is bounded by `depths[dst] + 1` hops,
/// so a corrupted parent array can produce a wrong (empty) answer but
/// never an infinite loop.
pub fn extract_path(out: &BfsOutput, src: VertexId, dst: VertexId) -> Vec<VertexId> {
    if out.depths[dst as usize] == INF_DEPTH {
        return Vec::new();
    }
    let mut path = Vec::with_capacity(out.depths[dst as usize] as usize + 1);
    let mut v = dst;
    for _ in 0..=out.depths[dst as usize] {
        path.push(v);
        if v == src {
            path.reverse();
            return path;
        }
        v = out.parents[v as usize];
    }
    // The chain failed to land on the source inside the depth bound —
    // possible only with an invalid tree; report "no path" rather than lie.
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::BfsOptions;
    use bfs_graph::gen::classic::{path as path_graph, star, two_cliques};
    use bfs_graph::gen::uniform::uniform_random;
    use bfs_graph::rng::rng_from_seed;
    use bfs_platform::Topology;

    fn session(g: &bfs_graph::CsrGraph) -> BfsSession<'_> {
        BfsSession::new(g, Topology::synthetic(1, 2), BfsOptions::default())
    }

    #[test]
    fn validate_catches_out_of_range_and_bad_batches() {
        let ok = QueryKind::Reach { src: 9, dst: None };
        assert_eq!(ok.validate(10), Ok(()));
        let bad = QueryKind::Reach { src: 10, dst: None };
        assert_eq!(
            bad.validate(10),
            Err(QueryError::VertexOutOfRange {
                v: 10,
                num_vertices: 10
            })
        );
        let bad_dst = QueryKind::Reach {
            src: 0,
            dst: Some(10),
        };
        assert!(bad_dst.validate(10).is_err());
        let bad_path = QueryKind::Path { src: 3, dst: 99 };
        assert!(bad_path.validate(10).is_err());
        assert_eq!(
            QueryKind::Batch { sources: vec![] }.validate(10),
            Err(QueryError::EmptyBatch)
        );
        let huge = QueryKind::Batch {
            sources: vec![0; MAX_BATCH_SOURCES + 1],
        };
        assert!(matches!(
            huge.validate(10),
            Err(QueryError::BatchTooLarge { .. })
        ));
        // Errors render a human-readable reason for the HTTP body.
        let msg = bad.validate(10).unwrap_err().to_string();
        assert!(msg.contains("10") && msg.contains("out of range"), "{msg}");
    }

    #[test]
    fn reach_reports_depths_and_optional_dst() {
        let g = path_graph(6); // 0-1-2-3-4-5
        let mut s = session(&g);
        let mut out = BfsOutput::default();
        let r = execute(
            &mut s,
            &QueryKind::Reach {
                src: 0,
                dst: Some(4),
            },
            &mut out,
        );
        let QueryOutcome::Reach(r) = r else {
            panic!("wrong outcome kind")
        };
        assert_eq!(r.src, 0);
        assert_eq!(r.depth, 5);
        assert_eq!(r.visited_vertices, 6);
        let d = r.dst.expect("dst info requested");
        assert_eq!(d.depth, Some(4));
        assert_eq!(d.parent, Some(3));
    }

    #[test]
    fn unreached_dst_reports_none() {
        let g = two_cliques(5, 5);
        let mut s = session(&g);
        let mut out = BfsOutput::default();
        let QueryOutcome::Reach(r) = execute(
            &mut s,
            &QueryKind::Reach {
                src: 0,
                dst: Some(7),
            },
            &mut out,
        ) else {
            panic!("wrong outcome kind")
        };
        let d = r.dst.unwrap();
        assert_eq!(d.depth, None);
        assert_eq!(d.parent, None);
    }

    #[test]
    fn path_walks_the_tree_and_handles_unreachable() {
        let g = path_graph(8);
        let mut s = session(&g);
        let mut out = BfsOutput::default();
        let QueryOutcome::Path(p) = execute(&mut s, &QueryKind::Path { src: 1, dst: 6 }, &mut out)
        else {
            panic!("wrong outcome kind")
        };
        assert!(p.reached());
        assert_eq!(p.path, vec![1, 2, 3, 4, 5, 6]);

        // src == dst: the one-vertex path.
        let QueryOutcome::Path(p) = execute(&mut s, &QueryKind::Path { src: 3, dst: 3 }, &mut out)
        else {
            panic!("wrong outcome kind")
        };
        assert_eq!(p.path, vec![3]);

        let g2 = two_cliques(4, 4);
        let mut s2 = session(&g2);
        let QueryOutcome::Path(p) = execute(&mut s2, &QueryKind::Path { src: 0, dst: 6 }, &mut out)
        else {
            panic!("wrong outcome kind")
        };
        assert!(!p.reached());
        assert!(p.path.is_empty());
    }

    #[test]
    fn path_endpoints_and_depth_agree_on_random_graphs() {
        let g = uniform_random(800, 5, &mut rng_from_seed(11));
        let mut s = session(&g);
        let mut out = BfsOutput::default();
        for (src, dst) in [(0u32, 799u32), (400, 3), (7, 7)] {
            let QueryOutcome::Path(p) = execute(&mut s, &QueryKind::Path { src, dst }, &mut out)
            else {
                panic!("wrong outcome kind")
            };
            if p.reached() {
                assert_eq!(p.path.first(), Some(&src));
                assert_eq!(p.path.last(), Some(&dst));
                assert_eq!(p.path.len() as u32, out.depths[dst as usize] + 1);
                // Every hop is a real edge of the graph.
                for w in p.path.windows(2) {
                    assert!(
                        g.neighbors(w[0]).contains(&w[1]),
                        "{} -> {} is not an edge",
                        w[0],
                        w[1]
                    );
                }
            } else {
                assert_eq!(out.depths[dst as usize], INF_DEPTH);
            }
        }
    }

    #[test]
    fn extract_path_handles_src_equals_dst_and_unreachable() {
        let g = path_graph(5);
        let mut s = session(&g);
        let mut out = BfsOutput::default();
        s.run_reusing(2, &mut out);
        // src == dst: the one-vertex path, even though the source's parent
        // is itself (the walk must stop on the vertex match, not the
        // parent chain).
        assert_eq!(extract_path(&out, 2, 2), vec![2]);
        assert_eq!(extract_path(&out, 2, 0), vec![2, 1, 0]);

        // Unreachable dst: INF_DEPTH short-circuits to an empty path.
        let g2 = two_cliques(3, 3);
        let mut s2 = session(&g2);
        s2.run_reusing(0, &mut out);
        assert_eq!(out.depths[4], INF_DEPTH);
        assert!(extract_path(&out, 0, 4).is_empty());
    }

    #[test]
    fn batch_and_path_edge_cases_survive_relabeling() {
        // Two cliques bridged at one end: vertices 0..=5 and 6..=11, with
        // the bridge 5-6, so every dst is reachable but through a graph
        // whose degree-ordered internal layout differs from external ids.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                edges.push((a, b));
                edges.push((a + 6, b + 6));
            }
        }
        edges.push((5, 6));
        let mut b = bfs_graph::builder::GraphBuilder::new(
            12,
            bfs_graph::builder::BuildOptions {
                symmetrize: true,
                dedup: true,
                drop_self_loops: true,
                sort_neighbors: true,
            },
        );
        b.add_edges(edges);
        let g = b.build();
        let (rg, perm) = bfs_graph::degree_order(&g);
        assert!(
            perm.forward()
                .iter()
                .enumerate()
                .any(|(e, &i)| e as u32 != i),
            "degree ordering must actually move vertices for this test"
        );

        let mut plain = session(&g);
        let mut relabeled = session(&rg);
        let mut out = BfsOutput::default();

        // The batch path answers in external ids: every row must match the
        // un-relabeled session's row exactly.
        let batch = QueryKind::Batch {
            sources: vec![0, 11, 5, 0],
        };
        let expect = execute(&mut plain, &batch, &mut out);
        let got = execute(&mut relabeled, &batch, &mut out);
        assert_eq!(got, expect);

        // dst reachable only through the bridge: the reconstructed path
        // must speak external ids (cross the 5-6 bridge), not internal
        // layout order.
        let QueryOutcome::Path(p) = execute(
            &mut relabeled,
            &QueryKind::Path { src: 0, dst: 11 },
            &mut out,
        ) else {
            panic!("wrong outcome kind")
        };
        assert!(p.reached());
        assert_eq!(p.path.first(), Some(&0));
        assert_eq!(p.path.last(), Some(&11));
        assert!(
            p.path.windows(2).any(|w| w == [5, 6]),
            "path must cross the external-id bridge: {:?}",
            p.path
        );
        for w in p.path.windows(2) {
            assert!(g.neighbors(w[0]).contains(&w[1]), "{:?} not an edge", w);
        }

        // src == dst and unreachable dst behave identically relabeled.
        let QueryOutcome::Path(p) = execute(
            &mut relabeled,
            &QueryKind::Path { src: 7, dst: 7 },
            &mut out,
        ) else {
            panic!("wrong outcome kind")
        };
        assert_eq!(p.path, vec![7]);

        let g2 = two_cliques(4, 4);
        let (rg2, _) = bfs_graph::degree_order(&g2);
        let mut s2 = session(&rg2);
        let QueryOutcome::Path(p) = execute(&mut s2, &QueryKind::Path { src: 0, dst: 7 }, &mut out)
        else {
            panic!("wrong outcome kind")
        };
        assert!(!p.reached());
    }

    #[test]
    fn wave_fans_out_each_outcome_in_order() {
        let g = path_graph(10);
        let mut s = session(&g);
        let mut out = BfsOutput::default();
        let wave = vec![
            QueryKind::Reach { src: 0, dst: None },
            QueryKind::Reach {
                src: 9,
                dst: Some(0),
            },
            QueryKind::Path { src: 3, dst: 6 },
        ];
        let mut seen = Vec::new();
        execute_wave(&mut s, &wave, &mut out, |session, i, o| {
            // The digest hook: each callback sees the traversal that
            // produced this outcome, before the next one overwrites it.
            assert!(session.with_level_digest(|levels| !levels.is_empty()));
            seen.push((i, o));
        });
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0].0, 0);
        assert_eq!(seen[2].0, 2);
        let QueryOutcome::Reach(r) = &seen[1].1 else {
            panic!("wrong outcome kind")
        };
        assert_eq!(r.dst.unwrap().depth, Some(9));
        let QueryOutcome::Path(p) = &seen[2].1 else {
            panic!("wrong outcome kind")
        };
        assert_eq!(p.path, vec![3, 4, 5, 6]);
        // One traversal per wave entry, same as run_batch would issue.
        assert_eq!(s.runs(), 3);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: 24,
            ..Default::default()
        })]
        /// The coalescing guarantee the admission layer leans on: a wave's
        /// outcomes are identical to serving the same queries one at a time
        /// on a fresh warm session, across sampled engine option combos and
        /// with or without degree-ordered relabeling. Single-lane topology:
        /// with one worker the §III-A parent race is quiesced, so "identical"
        /// here includes the parent arrays (and therefore the serialized
        /// response bytes a server would emit).
        #[test]
        fn wave_outcomes_match_individual_service(
            seed in 0u64..1000,
            relabel in proptest::any::<bool>(),
            vis_byte in proptest::any::<bool>(),
            forced_td in proptest::any::<bool>(),
            // dst values past the vertex count mean "no dst probe".
            picks in proptest::collection::vec((0u32..300, 0u32..330), 1..12),
        ) {
            use crate::engine::Scheduling;
            use crate::{DirectionPolicy, VisScheme};
            let g = uniform_random(300, 4, &mut rng_from_seed(seed));
            let (rg, _perm);
            let graph = if relabel {
                (rg, _perm) = bfs_graph::degree_order(&g);
                &rg
            } else {
                &g
            };
            let opts = crate::engine::BfsOptions {
                vis: if vis_byte { VisScheme::Byte } else { VisScheme::Bit },
                scheduling: if vis_byte {
                    Scheduling::NoMultiSocketOpt
                } else {
                    Scheduling::LoadBalanced
                },
                direction: if forced_td {
                    DirectionPolicy::ForcedTopDown
                } else {
                    DirectionPolicy::auto()
                },
                ..Default::default()
            };
            let topo = Topology::synthetic(1, 1);
            let wave: Vec<QueryKind> = picks
                .iter()
                .map(|&(src, dst)| match dst {
                    d if d >= 300 => QueryKind::Reach { src, dst: None },
                    d if d % 3 == 0 => QueryKind::Path { src, dst: d },
                    d => QueryKind::Reach { src, dst: Some(d) },
                })
                .collect();

            let mut coalesced = BfsSession::new(graph, topo, opts);
            let mut out = BfsOutput::default();
            let mut wave_outcomes: Vec<Option<QueryOutcome>> = vec![None; wave.len()];
            execute_wave(&mut coalesced, &wave, &mut out, |_, i, o| {
                wave_outcomes[i] = Some(o);
            });

            let mut solo = BfsSession::new(graph, topo, opts);
            for (kind, got) in wave.iter().zip(wave_outcomes.iter()) {
                let mut fresh = BfsOutput::default();
                let expect = execute(&mut solo, kind, &mut fresh);
                proptest::prop_assert_eq!(got.as_ref(), Some(&expect));
            }
        }
    }

    #[test]
    fn batch_returns_one_row_per_source_in_order() {
        let g = star(9);
        let mut s = session(&g);
        let mut out = BfsOutput::default();
        let QueryOutcome::Batch(rows) = execute(
            &mut s,
            &QueryKind::Batch {
                sources: vec![0, 5, 0],
            },
            &mut out,
        ) else {
            panic!("wrong outcome kind")
        };
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].src, 0);
        assert_eq!(rows[0].depth, 1);
        assert_eq!(rows[1].src, 5);
        assert_eq!(rows[2].src, 0);
        assert_eq!(s.runs(), 3);
    }
}
