//! Cross-crate integration for the multi-node extension: distributed runs
//! agree with the single-node engine and the serial oracle across workload
//! families, and the communication accounting behaves like the paper's
//! cluster argument predicts.

use bfs_core::engine::{BfsEngine, BfsOptions};
use bfs_core::serial::serial_bfs;
use bfs_core::validate::validate_bfs_tree;
use bfs_graph::gen::ba::barabasi_albert;
use bfs_graph::gen::proxy::ProxySpec;
use bfs_graph::gen::rmat::{rmat, RmatConfig};
use bfs_graph::gen::stress::stress_bipartite;
use bfs_graph::rng::stream_rng;
use bfs_graph::stats::nth_non_isolated;
use bfs_multinode::{DistBfs, DistOptions};
use bfs_platform::Topology;

#[test]
fn distributed_equals_single_node_engine_across_families() {
    let mut rng = stream_rng(77, 0);
    let graphs = vec![
        ("rmat", rmat(&RmatConfig::paper(12, 8), &mut rng)),
        ("stress", stress_bipartite(1000, 6, &mut rng)),
        ("ba", barabasi_albert(1500, 3, &mut rng)),
        (
            "proxy-road",
            ProxySpec::all()[4].generate_seeded(0.0008, 77),
        ),
    ];
    for (name, g) in graphs {
        let src = nth_non_isolated(&g, 0).unwrap();
        let single = BfsEngine::new(&g, Topology::synthetic(2, 2), BfsOptions::default()).run(src);
        for nodes in [2usize, 5] {
            let dist = DistBfs::new(&g, DistOptions { nodes, dedup: true }).run(src);
            assert_eq!(dist.depths, single.depths, "{name}/{nodes} nodes");
            validate_bfs_tree(&g, src, &dist.depths, &dist.parents)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(dist.visited_vertices, single.stats.visited_vertices);
            assert_eq!(dist.traversed_edges, single.stats.traversed_edges);
        }
    }
}

#[test]
fn remote_traffic_scales_with_cut_edges() {
    // The stress bipartite graph on 2 nodes: the LOW/HIGH split coincides
    // with the node boundary, so essentially every traversed edge crosses
    // the network — the worst case the paper's single-node pitch targets.
    let g = stress_bipartite(2048, 8, &mut stream_rng(78, 0));
    let src = 0u32;
    let out = DistBfs::new(
        &g,
        DistOptions {
            nodes: 2,
            dedup: false,
        },
    )
    .run(src);
    let reference = serial_bfs(&g, src);
    assert_eq!(out.depths, reference.depths);
    // Without dedup, each traversed cross-edge ships one 8-byte message.
    let bpe = out.remote_bytes_per_edge();
    assert!(
        bpe > 6.0,
        "bipartite cut should make nearly every edge remote, got {bpe:.2} B/edge"
    );
    // Dedup collapses it to roughly one message per claimed vertex.
    let deduped = DistBfs::new(
        &g,
        DistOptions {
            nodes: 2,
            dedup: true,
        },
    )
    .run(src);
    assert!(
        deduped.remote_bytes_per_edge() < bpe / 2.0,
        "dedup should cut the bipartite traffic at least in half"
    );
}

#[test]
fn partition_balances_vertices_like_the_socket_rule() {
    let g = rmat(&RmatConfig::paper(10, 4), &mut stream_rng(79, 0));
    let d = DistBfs::new(
        &g,
        DistOptions {
            nodes: 4,
            dedup: true,
        },
    );
    let p = d.partition();
    let mut counts = [0usize; 4];
    for v in 0..g.num_vertices() as u32 {
        counts[p.owner(v)] += 1;
    }
    // Power-of-two stripes: first nodes get the full stripe.
    assert_eq!(counts[0], p.stripe);
    assert_eq!(counts.iter().sum::<usize>(), g.num_vertices());
}
