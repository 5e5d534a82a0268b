//! Criterion: our engine vs the Agarwal-style baseline vs serial BFS (the
//! Figure 6 axes on the host), on UR and R-MAT graphs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use bfs_bench::runs::agarwal_options;
use bfs_core::engine::{BfsEngine, BfsOptions};
use bfs_core::serial::serial_bfs;
use bfs_graph::gen::rmat::{rmat, RmatConfig};
use bfs_graph::gen::uniform::uniform_random;
use bfs_graph::rng::rng_from_seed;
use bfs_platform::Topology;

fn bench_engines(c: &mut Criterion) {
    let graphs = [
        (
            "UR-32k-d8",
            uniform_random(1 << 15, 8, &mut rng_from_seed(1)),
        ),
        (
            "RMAT-15-8",
            rmat(&RmatConfig::paper(15, 8), &mut rng_from_seed(2)),
        ),
    ];
    let mut group = c.benchmark_group("engine_vs_baseline");
    group.sample_size(10);
    for (name, g) in &graphs {
        let src = bfs_graph::stats::nth_non_isolated(g, 0).unwrap();
        group.throughput(Throughput::Elements(g.num_edges()));
        group.bench_with_input(BenchmarkId::new("serial", *name), g, |b, g| {
            b.iter(|| black_box(serial_bfs(g, src).visited));
        });
        group.bench_with_input(BenchmarkId::new("ours", *name), g, |b, g| {
            let engine = BfsEngine::new(g, Topology::host(), BfsOptions::default());
            b.iter(|| black_box(engine.run(src).stats.traversed_edges));
        });
        group.bench_with_input(BenchmarkId::new("agarwal", *name), g, |b, g| {
            let engine = BfsEngine::new(g, Topology::host(), agarwal_options());
            b.iter(|| black_box(engine.run(src).stats.traversed_edges));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
