//! Criterion: micro-benchmarks of the engine's building blocks — frontier
//! rearrangement (§III-B3(b)), the load-balanced division (§III-B3(a)),
//! VIS probe/mark throughput, DP claim throughput, and the sense-reversing
//! barrier.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use bfs_core::balance::{divide_even, Stream};
use bfs_core::dp::DepthParent;
use bfs_core::frontier::{rearrange_frontier, RearrangeScratch};
use bfs_core::vis::{Vis, VisScheme};
use bfs_graph::gen::uniform::uniform_random_directed;
use bfs_graph::rng::rng_from_seed;
use bfs_platform::SenseBarrier;

fn bench_rearrange(c: &mut Criterion) {
    let g = uniform_random_directed(1 << 16, 8, &mut rng_from_seed(1));
    let frontier: Vec<u32> = (0..1u32 << 15)
        .map(|i| i.wrapping_mul(2_654_435_761) % (1 << 16))
        .collect();
    let mut group = c.benchmark_group("rearrange");
    group.throughput(Throughput::Elements(frontier.len() as u64));
    group.bench_function("histogram_scatter_32k", |b| {
        let mut scratch = RearrangeScratch::default();
        b.iter_batched(
            || frontier.clone(),
            |mut f| {
                rearrange_frontier(&mut f, &g, 4096, 8, &mut scratch);
                black_box(f.len())
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_divide(c: &mut Criterion) {
    let streams: Vec<Stream> = (0..64)
        .map(|i| Stream {
            bin: i / 8,
            owner: i % 8,
            len: (i * 37) % 1000,
        })
        .collect();
    c.bench_function("divide_even_64_streams_8_parts", |b| {
        b.iter(|| black_box(divide_even(black_box(&streams), 8, 1).len()));
    });
}

fn bench_vis_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("vis_probe_mark");
    let ids: Vec<u32> = (0..1u32 << 16)
        .map(|i| i.wrapping_mul(2_654_435_761) % (1 << 20))
        .collect();
    group.throughput(Throughput::Elements(ids.len() as u64));
    for scheme in [VisScheme::AtomicBit, VisScheme::Byte, VisScheme::Bit] {
        group.bench_with_input(
            BenchmarkId::new("scheme", format!("{scheme:?}")),
            &ids,
            |b, ids| {
                b.iter_batched(
                    || Vis::new(scheme, 1 << 20),
                    |vis| {
                        let mut hits = 0u64;
                        for &v in ids {
                            hits += vis.definitely_visited_or_mark(v) as u64;
                        }
                        black_box(hits)
                    },
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

fn bench_dp_claims(c: &mut Criterion) {
    let ids: Vec<u32> = (0..1u32 << 16)
        .map(|i| i.wrapping_mul(2_654_435_761) % (1 << 18))
        .collect();
    let mut group = c.benchmark_group("dp_claim");
    group.throughput(Throughput::Elements(ids.len() as u64));
    group.bench_function("relaxed", |b| {
        b.iter_batched(
            || DepthParent::new(1 << 18),
            |dp| {
                let mut wins = 0u64;
                for &v in &ids {
                    wins += dp.claim_relaxed(v, 1, 0) as u64;
                }
                black_box(wins)
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.bench_function("compare_exchange", |b| {
        b.iter_batched(
            || DepthParent::new(1 << 18),
            |dp| {
                let mut wins = 0u64;
                for &v in &ids {
                    wins += dp.claim_atomic(v, 1, 0) as u64;
                }
                black_box(wins)
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// Tracing overhead: a full engine run with the disabled [`NoopSink`]
/// (which must cost the same as an untraced run — `run` *is*
/// `run_traced(&NoopSink)`) against one recording into a [`RingSink`].
fn bench_trace_overhead(c: &mut Criterion) {
    use bfs_core::engine::{BfsEngine, BfsOptions};
    use bfs_graph::gen::uniform::uniform_random;
    use bfs_platform::Topology;
    use bfs_trace::{NoopSink, RingSink};

    let g = uniform_random(1 << 14, 8, &mut rng_from_seed(7));
    let engine = BfsEngine::new(&g, Topology::synthetic(1, 4), BfsOptions::default());
    let mut group = c.benchmark_group("trace_overhead");
    group.throughput(Throughput::Elements(g.num_edges()));
    group.bench_function("noop_sink", |b| {
        b.iter(|| black_box(engine.run_traced(0, &NoopSink).stats.steps));
    });
    group.bench_function("ring_sink", |b| {
        let ring = RingSink::new(65536);
        b.iter(|| black_box(engine.run_traced(0, &ring).stats.steps));
    });
    group.finish();
}

fn bench_barrier(c: &mut Criterion) {
    c.bench_function("sense_barrier_1_thread_x1000", |b| {
        let bar = SenseBarrier::new(1);
        b.iter(|| {
            for _ in 0..1000 {
                black_box(bar.wait());
            }
        });
    });
}

criterion_group!(
    benches,
    bench_rearrange,
    bench_divide,
    bench_vis_probe,
    bench_dp_claims,
    bench_trace_overhead,
    bench_barrier
);
criterion_main!(benches);
