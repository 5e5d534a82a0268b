//! Degree-ordered relabeling must be externally invisible: a `BfsSession`
//! over a relabeled graph answers in the ORIGINAL id space, so its depths
//! must match a fresh engine over the unrelabeled graph, and its parent
//! array must form a valid BFS forest of the unrelabeled graph — for every
//! Scheduling × VisScheme × PbvEncoding × DirectionPolicy combination, and
//! for arbitrary (messy, possibly disconnected) graphs under proptest.
//!
//! Parents are not compared element-wise: the §III-A benign race makes the
//! chosen parent schedule-dependent even between two runs of the same
//! engine. Tree validity against the original graph is the invariant that
//! proves every parent came back through the permutation correctly.
//!
//! Hugepage-backed arenas ride along as a sampled boolean: whether the
//! request resolves to `Enabled` or degrades with a typed reason, the
//! traversal must be bit-identical on depths.

use bfs_core::engine::{BfsEngine, BfsOptions, BfsOutput, Scheduling};
use bfs_core::pbv::PbvEncoding;
use bfs_core::serial::serial_bfs;
use bfs_core::session::BfsSession;
use bfs_core::validate::validate_bfs_tree;
use bfs_core::{DirectionPolicy, VisScheme, INF_DEPTH};
use bfs_graph::builder::{BuildOptions, GraphBuilder};
use bfs_graph::{degree_order, CsrGraph};
use bfs_platform::Topology;
use proptest::prelude::*;

fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (1..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_m).prop_map(move |edges| {
            let mut b = GraphBuilder::new(
                n,
                BuildOptions {
                    symmetrize: true,
                    dedup: false,
                    drop_self_loops: false,
                    sort_neighbors: false,
                },
            );
            b.add_edges(edges);
            b.build()
        })
    })
}

fn arb_options() -> impl Strategy<Value = BfsOptions> {
    (
        prop_oneof![
            Just(VisScheme::None),
            Just(VisScheme::AtomicBit),
            Just(VisScheme::AtomicBitTest),
            Just(VisScheme::Byte),
            Just(VisScheme::Bit),
        ],
        prop_oneof![
            Just(Scheduling::NoMultiSocketOpt),
            Just(Scheduling::SocketAwareStatic),
            Just(Scheduling::LoadBalanced),
        ],
        prop_oneof![
            Just(PbvEncoding::Auto),
            Just(PbvEncoding::Markers),
            Just(PbvEncoding::Pairs),
        ],
        prop_oneof![
            Just(DirectionPolicy::ForcedTopDown),
            Just(DirectionPolicy::ForcedBottomUp),
            Just(DirectionPolicy::auto()),
        ],
        any::<bool>(), // rearrange
        any::<bool>(), // huge_pages
    )
        .prop_map(
            |(vis, scheduling, encoding, direction, rearrange, huge_pages)| BfsOptions {
                vis,
                scheduling,
                encoding,
                direction,
                rearrange,
                huge_pages,
                ..Default::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// For any graph, configuration, and source sequence: the relabeled
    /// warm session and a fresh unrelabeled engine are observably
    /// identical in the external id space.
    #[test]
    fn relabeled_session_is_externally_invisible(
        g in arb_graph(100, 300),
        opts in arb_options(),
        picks in proptest::collection::vec(0usize..64, 2..=4),
    ) {
        let (relabeled, perm) = degree_order(&g);
        prop_assert_eq!(perm.len(), g.num_vertices());
        let topo = Topology::synthetic(2, 2);
        let mut session = BfsSession::new(&relabeled, topo, opts);
        // The oracle never uses hugepages: the comparison must hold across
        // differently backed arenas, not just identically backed ones.
        let oracle_opts = BfsOptions { huge_pages: false, ..opts };
        for pick in picks {
            let src = (pick % g.num_vertices()) as u32;
            let fresh = BfsEngine::new(&g, topo, oracle_opts).run(src);
            let warm = session.run(src);
            prop_assert_eq!(&warm.depths, &fresh.depths);
            prop_assert!(validate_bfs_tree(&g, src, &warm.depths, &warm.parents).is_ok());
            prop_assert_eq!(warm.stats.visited_vertices, fresh.stats.visited_vertices);
            prop_assert_eq!(warm.stats.steps, fresh.stats.steps);
        }
    }
}

/// The deterministic backstop: every Scheduling × VisScheme × PbvEncoding
/// × DirectionPolicy combination on a fixed graph, sources repeating so a
/// stale translation scratch buffer from query 1 cannot hide.
#[test]
fn every_combo_answers_in_original_ids_after_relabeling() {
    use bfs_graph::gen::uniform::uniform_random;
    use bfs_graph::rng::rng_from_seed;

    let g = uniform_random(600, 5, &mut rng_from_seed(7));
    let (relabeled, _) = degree_order(&g);
    let topo = Topology::synthetic(2, 2);
    for vis in VisScheme::ALL {
        for scheduling in [
            Scheduling::NoMultiSocketOpt,
            Scheduling::SocketAwareStatic,
            Scheduling::LoadBalanced,
        ] {
            for encoding in [PbvEncoding::Auto, PbvEncoding::Markers, PbvEncoding::Pairs] {
                for direction in [
                    DirectionPolicy::ForcedTopDown,
                    DirectionPolicy::ForcedBottomUp,
                    DirectionPolicy::auto(),
                ] {
                    let opts = BfsOptions {
                        vis,
                        scheduling,
                        encoding,
                        direction,
                        ..Default::default()
                    };
                    let mut session = BfsSession::new(&relabeled, topo, opts);
                    for src in [0u32, 123, 599, 0] {
                        let fresh = BfsEngine::new(&g, topo, opts).run(src);
                        let out = session.run(src);
                        assert_eq!(
                            out.depths, fresh.depths,
                            "{vis:?} {scheduling:?} {encoding:?} {direction:?} source {src}"
                        );
                        validate_bfs_tree(&g, src, &out.depths, &out.parents).unwrap();
                    }
                }
            }
        }
    }
}

/// Relabeling an already-relabeled graph composes the permutations, so a
/// session over the twice-relabeled CSR still answers in the original ids.
#[test]
fn double_relabeling_still_answers_in_original_ids() {
    use bfs_graph::gen::rmat::{rmat, RmatConfig};
    use bfs_graph::rng::rng_from_seed;

    let g = rmat(&RmatConfig::paper(9, 6), &mut rng_from_seed(11));
    let (once, _) = degree_order(&g);
    let (twice, _) = degree_order(&once);
    let mut session = BfsSession::new(&twice, Topology::synthetic(2, 2), BfsOptions::default());
    for src in [0u32, 57, 300] {
        let reference = serial_bfs(&g, src);
        let out = session.run(src);
        assert_eq!(out.depths, reference.depths, "source {src}");
        validate_bfs_tree(&g, src, &out.depths, &out.parents).unwrap();
    }
}

/// Lane shapes for the epilogue tests: 1–5 lanes in total, over one or
/// several sockets.
const EPILOGUE_TOPOLOGIES: [(usize, usize); 7] =
    [(1, 1), (1, 2), (1, 3), (2, 2), (1, 4), (1, 5), (5, 1)];

/// The answer-materialization path the engine's epilogue replaced, kept
/// here as a reference: read the internal-order arrays, count visited
/// vertices and traversed edges on the internal graph, then permute into
/// external order with parents translated through the inverse map.
fn reference_answer(
    internal_graph: &CsrGraph,
    internal_depths: &[u32],
    internal_parents: &[u32],
) -> (Vec<u32>, Vec<u32>, u64, u64) {
    let mut visited = 0u64;
    let mut traversed = 0u64;
    for (v, &d) in internal_depths.iter().enumerate() {
        if d != INF_DEPTH {
            visited += 1;
            traversed += internal_graph.degree(v as u32) as u64;
        }
    }
    let Some(perm) = internal_graph.permutation() else {
        return (
            internal_depths.to_vec(),
            internal_parents.to_vec(),
            visited,
            traversed,
        );
    };
    let mut depths = Vec::with_capacity(internal_depths.len());
    let mut parents = Vec::with_capacity(internal_parents.len());
    for &internal in perm.forward() {
        let depth = internal_depths[internal as usize];
        depths.push(depth);
        parents.push(if depth == INF_DEPTH {
            u32::MAX
        } else {
            perm.to_external(internal_parents[internal as usize])
        });
    }
    (depths, parents, visited, traversed)
}

/// Checks one session answer from external source `src` against the
/// oracle on the original graph `g`, and — on a single lane, where the
/// traversal is deterministic — against [`reference_answer`] built from a
/// one-shot engine run over `served` (the graph the session traverses).
fn check_epilogue_answer(
    g: &CsrGraph,
    served: &CsrGraph,
    topo: Topology,
    opts: BfsOptions,
    src: u32,
    out: &BfsOutput,
) -> Result<(), String> {
    let oracle = serial_bfs(g, src);
    prop_assert_eq!(&out.depths, &oracle.depths);
    prop_assert!(validate_bfs_tree(g, src, &out.depths, &out.parents).is_ok());
    prop_assert_eq!(out.stats.visited_vertices, oracle.visited);
    prop_assert_eq!(out.stats.traversed_edges, oracle.traversed_edges);
    for (&d, &p) in out.depths.iter().zip(&out.parents) {
        prop_assert_eq!(d == INF_DEPTH, p == u32::MAX);
    }
    if topo.total_threads() == 1 {
        let internal_src = served.permutation().map_or(src, |p| p.to_internal(src));
        let internal = BfsEngine::new(served, topo, opts).run(internal_src);
        let (depths, parents, visited, traversed) =
            reference_answer(served, &internal.depths, &internal.parents);
        prop_assert_eq!(&out.depths, &depths);
        prop_assert_eq!(&out.parents, &parents);
        prop_assert_eq!(out.stats.visited_vertices, visited);
        prop_assert_eq!(out.stats.traversed_edges, traversed);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        .. ProptestConfig::default()
    })]

    /// The engine's parallel epilogue writes the same answer the serial
    /// fill → count → translate path did: for relabeled and unrelabeled
    /// graphs, over 1–5 lanes, across repeated warm sources with a 2-bit
    /// epoch stamp (so the `DP` re-zero on wraparound runs every third
    /// reset).
    #[test]
    fn parallel_epilogue_matches_serial_materialization(
        g in arb_graph(40, 120),
        opts in arb_options(),
        relabel in any::<bool>(),
        shape in 0usize..EPILOGUE_TOPOLOGIES.len(),
        picks in proptest::collection::vec(0usize..64, 4..=8),
    ) {
        let (sockets, lanes) = EPILOGUE_TOPOLOGIES[shape];
        let topo = Topology::synthetic(sockets, lanes);
        let opts = BfsOptions { huge_pages: false, ..opts };
        let served = if relabel { degree_order(&g).0 } else { g.clone() };
        let mut session = BfsSession::with_epoch_bits(&served, topo, opts, 2);
        let mut out = BfsOutput::default();
        for pick in picks.iter().chain(&picks) {
            let src = (pick % g.num_vertices()) as u32;
            session.run_reusing(src, &mut out);
            check_epilogue_answer(&g, &served, topo, opts, src, &out)?;
        }
    }
}

/// The lane partition's edge cases, deterministically: fewer vertices than
/// lanes (empty lane ranges) and vertex counts the lane count does not
/// divide, on relabeled and unrelabeled graphs.
#[test]
fn epilogue_covers_tiny_graphs_on_every_lane_count() {
    use bfs_graph::gen::classic::path;

    for n in 1..=7 {
        let g = path(n);
        for relabel in [false, true] {
            let served = if relabel {
                degree_order(&g).0
            } else {
                g.clone()
            };
            for (sockets, lanes) in EPILOGUE_TOPOLOGIES {
                let topo = Topology::synthetic(sockets, lanes);
                let opts = BfsOptions::default();
                let mut session = BfsSession::with_epoch_bits(&served, topo, opts, 2);
                let mut out = BfsOutput::default();
                for src in (0..n as u32).chain(0..n as u32) {
                    session.run_reusing(src, &mut out);
                    check_epilogue_answer(&g, &served, topo, opts, src, &out).unwrap_or_else(|e| {
                        panic!("n {n} relabel {relabel} topology {topo:?} source {src}: {e}")
                    });
                }
            }
        }
    }
}

/// The chunked epilogue's boundaries: graphs one id short of, exactly at,
/// one past, and several chunks past the engine's 8192-id epilogue chunk,
/// so lanes claim several chunks and the last one is partial.
#[test]
fn epilogue_chunks_cover_graphs_past_one_chunk() {
    use bfs_graph::gen::uniform::uniform_random;
    use bfs_graph::rng::rng_from_seed;

    for n in [8191, 8192, 8193, 3 * 8192 + 5] {
        let g = uniform_random(n, 2, &mut rng_from_seed(n as u64));
        for relabel in [false, true] {
            let served = if relabel {
                degree_order(&g).0
            } else {
                g.clone()
            };
            for (sockets, lanes) in [(1, 1), (1, 2), (1, 3)] {
                let topo = Topology::synthetic(sockets, lanes);
                let opts = BfsOptions {
                    direction: DirectionPolicy::auto(),
                    ..Default::default()
                };
                let mut session = BfsSession::new(&served, topo, opts);
                let mut out = BfsOutput::default();
                for src in [0, n as u32 - 1, 0] {
                    session.run_reusing(src, &mut out);
                    check_epilogue_answer(&g, &served, topo, opts, src, &out).unwrap_or_else(|e| {
                        panic!("n {n} relabel {relabel} topology {topo:?} source {src}: {e}")
                    });
                }
            }
        }
    }
}
