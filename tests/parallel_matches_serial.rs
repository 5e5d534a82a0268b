//! Cross-crate integration: every parallel path (engine in all scheduling /
//! VIS / encoding modes, the Agarwal et al. baseline configuration, the
//! simulated executor) produces depths identical to the serial oracle and a
//! valid BFS forest, across every generator family and many topologies.

use bfs_bench::runs::agarwal_options;
use bfs_core::engine::{BfsEngine, BfsOptions, Scheduling};
use bfs_core::pbv::PbvEncoding;
use bfs_core::serial::serial_bfs;
use bfs_core::sim::{simulate_bfs, SimBfsConfig};
use bfs_core::validate::validate_bfs_tree;
use bfs_core::VisScheme;
use bfs_graph::gen::classic::{binary_tree, complete, cycle, lollipop, path, star, two_cliques};
use bfs_graph::gen::grid::{grid2d, grid3d_stencil, road_network, Stencil};
use bfs_graph::gen::rmat::{rmat, RmatConfig};
use bfs_graph::gen::smallworld::watts_strogatz;
use bfs_graph::gen::stress::stress_bipartite;
use bfs_graph::gen::uniform::{random_endpoint, uniform_random};
use bfs_graph::rng::stream_rng;
use bfs_graph::stats::nth_non_isolated;
use bfs_graph::CsrGraph;
use bfs_memsim::MachineConfig;
use bfs_platform::Topology;
use bfs_trace::{RingSink, TraceEvent};

fn workload_suite(seed: u64) -> Vec<(String, CsrGraph)> {
    let mut rng = stream_rng(seed, 0);
    vec![
        ("path-64".into(), path(64)),
        ("cycle-33".into(), cycle(33)),
        ("star-100".into(), star(100)),
        ("complete-24".into(), complete(24)),
        ("btree-127".into(), binary_tree(127)),
        ("two-cliques".into(), two_cliques(17, 9)),
        ("lollipop".into(), lollipop(12, 40)),
        ("grid2d-16x9".into(), grid2d(16, 9)),
        (
            "grid3d-6".into(),
            grid3d_stencil(6, 6, 6, Stencil::TwentySix),
        ),
        ("road-40x25".into(), road_network(40, 25, 0.2, 10, &mut rng)),
        ("ws-500".into(), watts_strogatz(500, 3, 0.05, &mut rng)),
        ("ur-2k-d6".into(), uniform_random(2000, 6, &mut rng)),
        (
            "rand-endpoint".into(),
            random_endpoint(1500, 4000, &mut rng),
        ),
        (
            "rmat-12-8".into(),
            rmat(&RmatConfig::paper(12, 8), &mut rng),
        ),
        ("stress-600-d5".into(), stress_bipartite(600, 5, &mut rng)),
    ]
}

fn check(name: &str, g: &CsrGraph, opts: BfsOptions, topo: Topology) {
    let src = match nth_non_isolated(g, 0) {
        Some(s) => s,
        None => return,
    };
    let reference = serial_bfs(g, src);
    let out = BfsEngine::new(g, topo, opts).run(src);
    assert_eq!(
        out.depths, reference.depths,
        "{name}: depths diverge ({opts:?})"
    );
    validate_bfs_tree(g, src, &out.depths, &out.parents)
        .unwrap_or_else(|e| panic!("{name}: invalid tree: {e} ({opts:?})"));
    assert_eq!(out.stats.visited_vertices, reference.visited, "{name}");
    assert_eq!(
        out.stats.traversed_edges, reference.traversed_edges,
        "{name}"
    );
}

#[test]
fn engine_matches_serial_across_suite_default_options() {
    for (name, g) in workload_suite(1) {
        check(&name, &g, BfsOptions::default(), Topology::synthetic(2, 2));
    }
}

#[test]
fn engine_matches_serial_all_schedulings() {
    for scheduling in [
        Scheduling::NoMultiSocketOpt,
        Scheduling::SocketAwareStatic,
        Scheduling::LoadBalanced,
    ] {
        for (name, g) in workload_suite(2) {
            check(
                &name,
                &g,
                BfsOptions {
                    scheduling,
                    ..Default::default()
                },
                Topology::synthetic(2, 2),
            );
        }
    }
}

#[test]
fn engine_matches_serial_all_vis_schemes() {
    for vis in VisScheme::ALL {
        for (name, g) in workload_suite(3) {
            check(
                &name,
                &g,
                BfsOptions {
                    vis,
                    ..Default::default()
                },
                Topology::synthetic(2, 2),
            );
        }
    }
}

#[test]
fn engine_matches_serial_both_encodings_and_partitions() {
    for encoding in [PbvEncoding::Markers, PbvEncoding::Pairs] {
        for n_vis in [1usize, 2, 8] {
            for (name, g) in workload_suite(4) {
                check(
                    &name,
                    &g,
                    BfsOptions {
                        encoding,
                        n_vis_override: Some(n_vis),
                        ..Default::default()
                    },
                    Topology::synthetic(2, 2),
                );
            }
        }
    }
}

#[test]
fn engine_matches_serial_across_topologies() {
    for topo in [
        Topology::synthetic(1, 1),
        Topology::synthetic(1, 7),
        Topology::synthetic(3, 2),
        Topology::synthetic(4, 4),
    ] {
        for (name, g) in workload_suite(5) {
            check(&name, &g, BfsOptions::default(), topo);
        }
    }
}

#[test]
fn baselines_match_serial_across_suite() {
    // 4 lanes, so the exactly-once claim is exercised across threads.
    let topo = Topology::synthetic(2, 2);
    for (name, g) in workload_suite(6) {
        let src = match nth_non_isolated(&g, 0) {
            Some(s) => s,
            None => continue,
        };
        let reference = serial_bfs(&g, src);
        let ring = RingSink::new(4096);
        let out = BfsEngine::new(&g, topo, agarwal_options()).run_traced(src, &ring);
        assert_eq!(out.depths, reference.depths, "{name}");
        validate_bfs_tree(&g, src, &out.depths, &out.parents)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(out.stats.steps, reference.max_depth, "{name}");
        assert_eq!(out.stats.visited_vertices, reference.visited, "{name}");
        assert_eq!(
            out.stats.traversed_edges, reference.traversed_edges,
            "{name}"
        );
        // The LOCK `fetch_or` claims every vertex exactly once.
        assert_eq!(out.stats.duplicate_enqueues, 0, "{name}");
        let steps: Vec<_> = ring
            .into_events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Step(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(steps.len() as u32, out.stats.steps, "{name}");
        for s in &steps {
            assert_eq!(s.duplicates, 0, "{name} step {}", s.step);
            assert!(s.bin_occupancy.is_empty(), "{name}: no bins");
        }
    }
}

#[test]
fn simulated_executor_matches_serial_across_suite() {
    let machine = MachineConfig {
        l2_bytes: 2 << 10,
        llc_bytes: 32 << 10,
        tlb_entries: 8,
        ..MachineConfig::xeon_x5570_2s()
    };
    for (name, g) in workload_suite(7) {
        let src = match nth_non_isolated(&g, 0) {
            Some(s) => s,
            None => continue,
        };
        let reference = serial_bfs(&g, src);
        let r = simulate_bfs(
            &g,
            &SimBfsConfig {
                machine,
                ..Default::default()
            },
            src,
        );
        assert_eq!(r.depths, reference.depths, "{name}");
        assert_eq!(r.visited_vertices, reference.visited, "{name}");
    }
}

#[test]
fn five_random_roots_like_the_paper() {
    // §V: "For each graph, we run our BFS algorithm five times each with a
    // different starting vertex."
    let g = rmat(&RmatConfig::paper(13, 8), &mut stream_rng(8, 0));
    let engine = BfsEngine::new(&g, Topology::synthetic(2, 2), BfsOptions::default());
    for k in 0..5 {
        let src = nth_non_isolated(&g, k * 131).unwrap();
        let out = engine.run(src);
        let reference = serial_bfs(&g, src);
        assert_eq!(out.depths, reference.depths, "root #{k}");
    }
}
