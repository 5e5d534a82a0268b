//! Property-based tests of the engine and its protocol invariants, driven
//! by proptest over arbitrary graphs (self-loops, multi-edges, isolated
//! vertices, disconnected components included).

use bfs_core::engine::{BfsEngine, BfsOptions, BfsOutput, Scheduling};
use bfs_core::pbv::PbvEncoding;
use bfs_core::serial::serial_bfs;
use bfs_core::session::BfsSession;
use bfs_core::validate::validate_bfs_tree;
use bfs_core::{Direction, DirectionPolicy, VisScheme};
use bfs_graph::builder::{BuildOptions, GraphBuilder};
use bfs_graph::CsrGraph;
use bfs_platform::Topology;
use proptest::prelude::*;

/// Arbitrary graph: up to `max_n` vertices, arbitrary directed edges
/// (symmetrized), possibly with self-loops and duplicates.
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

/// Arbitrary direction policy: both forced modes, the default α/β, and
/// small randomized thresholds that force mid-traversal switches even on
/// the tiny graphs proptest generates.
fn arb_direction() -> impl Strategy<Value = DirectionPolicy> {
    prop_oneof![
        Just(DirectionPolicy::ForcedTopDown),
        Just(DirectionPolicy::ForcedBottomUp),
        Just(DirectionPolicy::auto()),
        (1u32..640, 1u32..640).prop_map(|(a, b)| DirectionPolicy::Auto {
            alpha: a as f64 / 10.0,
            beta: b as f64 / 10.0,
        }),
    ]
}

fn arb_options() -> impl Strategy<Value = BfsOptions> {
    (
        prop_oneof![
            Just(VisScheme::None),
            Just(VisScheme::AtomicBit),
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
        arb_direction(),
        1usize..=4,    // n_vis
        any::<bool>(), // rearrange
        0usize..=8,    // prefetch distance
    )
        .prop_map(
            |(vis, scheduling, encoding, direction, n_vis, rearrange, pref)| BfsOptions {
                vis,
                scheduling,
                encoding,
                direction,
                n_vis_override: Some(n_vis),
                rearrange,
                prefetch_distance: pref,
                ..Default::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// The headline invariant of §III-A: for any graph, any configuration,
    /// any source — the racy atomic-free engine computes exactly the serial
    /// depths and a valid BFS forest.
    #[test]
    fn engine_depths_always_match_serial(
        g in arb_graph(120, 400),
        opts in arb_options(),
        src_pick in 0usize..32,
        sockets in 1usize..=3,
        lanes in 1usize..=3,
    ) {
        let src = (src_pick % g.num_vertices()) as u32;
        let reference = serial_bfs(&g, src);
        let out = BfsEngine::new(&g, Topology::synthetic(sockets, lanes), opts).run(src);
        prop_assert_eq!(&out.depths, &reference.depths);
        prop_assert!(validate_bfs_tree(&g, src, &out.depths, &out.parents).is_ok());
        prop_assert_eq!(out.stats.visited_vertices, reference.visited);
        prop_assert_eq!(out.stats.traversed_edges, reference.traversed_edges);
        prop_assert_eq!(out.stats.steps, reference.max_depth);
    }

    /// Frontier sizes reported by the engine sum to the visited set (plus
    /// duplicate enqueues) and each step's frontier is bounded by the total
    /// vertex count. Under every option combination, the session's
    /// borrowed per-level record is exactly what the stats are views of:
    /// steps `1..=steps` in order, frontiers `frontier_sizes[1..]`,
    /// directions `step_directions`, no empty level.
    #[test]
    fn frontier_accounting_is_consistent(
        g in arb_graph(80, 240),
        opts in arb_options(),
        src_picks in proptest::collection::vec(0usize..16, 1..=3),
    ) {
        let mut session = BfsSession::new(&g, Topology::synthetic(2, 2), opts);
        let mut out = BfsOutput::default();
        for src_pick in src_picks {
            let src = (src_pick % g.num_vertices()) as u32;
            session.run_reusing(src, &mut out);
            let stats = &out.stats;
            prop_assert_eq!(stats.frontier_sizes[0], 1);
            prop_assert_eq!(stats.steps as usize, stats.frontier_sizes.len() - 1);
            let sum: u64 = stats.frontier_sizes[1..].iter().sum();
            prop_assert_eq!(sum, stats.visited_vertices - 1 + stats.duplicate_enqueues);
            for &f in &stats.frontier_sizes {
                prop_assert!(f > 0);
                prop_assert!(f <= g.num_vertices() as u64 + stats.duplicate_enqueues);
            }
            let (steps, frontiers, top_down) = session.with_level_digest(|levels| {
                (
                    levels.iter().map(|l| l.step).collect::<Vec<_>>(),
                    levels.iter().map(|l| l.frontier).collect::<Vec<_>>(),
                    levels.iter().map(|l| l.top_down).collect::<Vec<_>>(),
                )
            });
            prop_assert_eq!(steps, (1..=stats.steps).collect::<Vec<_>>());
            prop_assert!(frontiers.iter().all(|&f| f > 0));
            prop_assert_eq!(&frontiers[..], &stats.frontier_sizes[1..]);
            let td: Vec<bool> = stats
                .step_directions
                .iter()
                .map(|&d| d == Direction::TopDown)
                .collect();
            prop_assert_eq!(top_down, td);
        }
    }

    /// Determinism: two runs with identical inputs produce identical depth
    /// arrays (parents may differ across *threads' race outcomes* only when
    /// racy schemes run on racy schedules; depths never differ).
    #[test]
    fn engine_depths_are_deterministic(
        g in arb_graph(60, 200),
        opts in arb_options(),
    ) {
        let engine = BfsEngine::new(&g, Topology::synthetic(2, 2), opts);
        let a = engine.run(0);
        let b = engine.run(0);
        prop_assert_eq!(a.depths, b.depths);
    }

    /// Back-to-back session queries under every direction policy — including
    /// adaptive runs that switch kernel mid-traversal — stay correct over
    /// VIS/DP/bitmap state recycled from arbitrary previous queries.
    #[test]
    fn session_queries_with_direction_switching_match_serial(
        g in arb_graph(100, 300),
        direction in arb_direction(),
        roots in proptest::collection::vec(0usize..64, 1..=4),
    ) {
        let opts = BfsOptions { direction, ..Default::default() };
        let mut session = BfsSession::new(&g, Topology::synthetic(2, 2), opts);
        let mut out = BfsOutput::default();
        for r in roots {
            let src = (r % g.num_vertices()) as u32;
            session.run_reusing(src, &mut out);
            let reference = serial_bfs(&g, src);
            prop_assert_eq!(&out.depths, &reference.depths);
            prop_assert!(validate_bfs_tree(&g, src, &out.depths, &out.parents).is_ok());
            prop_assert_eq!(out.stats.step_directions.len(), out.stats.steps as usize);
        }
    }
}
