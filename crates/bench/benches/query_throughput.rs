//! Criterion: queries-per-second for the multi-source workload — a cold
//! `BfsEngine` built per query vs a warm `BfsSession` that reuses its
//! parked pool, epoch-stamped `DP`/`VIS`, and high-water buffers.
//!
//! The cold series pays the full per-query setup (thread spawn + pin,
//! O(|V|) `DP`/`VIS` zeroing, buffer growth); the warm series pays a worker
//! wake plus an O(1) `DP` and one-pass `VIS` reset. The gap between them is the tentpole
//! measurement of the persistent-session work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use bfs_core::engine::{BfsEngine, BfsOptions, BfsOutput};
use bfs_core::session::BfsSession;
use bfs_graph::gen::rmat::{rmat, RmatConfig};
use bfs_graph::rng::rng_from_seed;
use bfs_platform::Topology;

fn bench_query_throughput(c: &mut Criterion) {
    let g = rmat(&RmatConfig::paper(15, 8), &mut rng_from_seed(2));
    let roots = bfs_graph::stats::random_roots(&g, 8, 7);
    let mut group = c.benchmark_group("query_throughput");
    group.sample_size(10);
    // One element = one query, so criterion reports queries/second.
    group.throughput(Throughput::Elements(roots.len() as u64));
    group.bench_with_input(BenchmarkId::new("cold_engine", "RMAT-15-8"), &g, |b, g| {
        b.iter(|| {
            let mut visited = 0u64;
            for &root in &roots {
                // Cold: a fresh engine per query — thread spawns, O(|V|)
                // array zeroing, buffer growth from empty.
                let engine = BfsEngine::new(g, Topology::host(), BfsOptions::default());
                visited += engine.run(root).stats.visited_vertices;
            }
            black_box(visited)
        });
    });
    group.bench_with_input(BenchmarkId::new("warm_session", "RMAT-15-8"), &g, |b, g| {
        let mut session = BfsSession::new(g, Topology::host(), BfsOptions::default());
        // Two warm-up queries so every buffer reaches its joint high-water
        // mark; the measured loop is then allocation-free.
        let mut out = BfsOutput::default();
        session.run_reusing(roots[0], &mut out);
        session.run_reusing(roots[0], &mut out);
        b.iter(|| {
            let mut visited = 0u64;
            for &root in &roots {
                session.run_reusing(root, &mut out);
                visited += out.stats.visited_vertices;
            }
            black_box(visited)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_query_throughput);
criterion_main!(benches);
