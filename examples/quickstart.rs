//! Quickstart: generate a graph, run the paper's BFS, validate the result.
//!
//! ```sh
//! cargo run --release -p bfs-core --example quickstart
//! ```

use bfs_core::engine::{BfsEngine, BfsOptions};
use bfs_core::serial::serial_bfs;
use bfs_core::validate::validate_bfs_tree;
use bfs_graph::gen::rmat::{rmat, RmatConfig};
use bfs_graph::rng::rng_from_seed;
use bfs_platform::Topology;

fn main() {
    // 1. A Graph500-style R-MAT graph: 2^16 vertices, edge factor 16.
    let mut rng = rng_from_seed(1);
    let graph = rmat(&RmatConfig::graph500(16, 16), &mut rng);
    println!(
        "graph: {} vertices, {} directed edges, avg degree {:.1}",
        graph.num_vertices(),
        graph.num_edges(),
        graph.average_degree()
    );

    // 2. A software topology. `Topology::host()` sizes one socket to this
    //    machine; `Topology::xeon_x5570_2s()` reproduces the paper's layout.
    let topology = Topology::host();

    // 3. The engine with the paper's defaults: atomic-free bit VIS,
    //    load-balanced two-phase scheduling, TLB rearrangement,
    //    prefetching.
    let engine = BfsEngine::new(&graph, topology, BfsOptions::default());
    let source = bfs_graph::stats::nth_non_isolated(&graph, 0).expect("non-trivial graph");
    let out = engine.run(source);

    println!(
        "traversal: {} vertices reached in {} steps, {} edges traversed, {:.1} MTEPS",
        out.stats.visited_vertices,
        out.stats.steps,
        out.stats.traversed_edges,
        out.stats.mteps()
    );
    println!(
        "phase times: I = {:?}, II = {:?}, rearrange = {:?}",
        out.stats.phase1_time, out.stats.phase2_time, out.stats.rearrange_time
    );

    // 4. Validate: depths equal the serial oracle and the parent forest is a
    //    legal BFS tree (Graph500-style checks).
    let reference = serial_bfs(&graph, source);
    assert_eq!(out.depths, reference.depths, "depths match serial BFS");
    validate_bfs_tree(&graph, source, &out.depths, &out.parents).expect("valid BFS tree");
    println!("validation: depths match serial BFS and the parent tree is valid");

    // 5. Depth histogram.
    let mut hist = std::collections::BTreeMap::new();
    for &d in &out.depths {
        if d != bfs_core::INF_DEPTH {
            *hist.entry(d).or_insert(0u64) += 1;
        }
    }
    println!("depth histogram:");
    for (d, n) in hist {
        println!("  depth {d}: {n} vertices");
    }
}
