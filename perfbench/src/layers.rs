//! Per-layer engine metrics, computed from the library's own always-on
//! registry (`metrics_snapshot` deltas around the measured queries) and
//! from per-level phase times.

use bfs_metrics::{AttributionContext, AttributionReport, Counter, MetricsSnapshot};
use bfs_model::MachineSpec;

use crate::report::Metrics;
use crate::stats::{percentile, ratio, sorted};

/// `after − before`, counter by counter, row by row, bucket by bucket.
pub fn snapshot_delta(after: &MetricsSnapshot, before: &MetricsSnapshot) -> MetricsSnapshot {
    let mut d = after.clone();
    for (a, b) in d.counters.iter_mut().zip(&before.counters) {
        a.value = a.value.saturating_sub(b.value);
    }
    for (a, b) in d.per_thread.iter_mut().zip(&before.per_thread) {
        for (x, y) in a.values.iter_mut().zip(&b.values) {
            *x = x.saturating_sub(*y);
        }
    }
    for (a, b) in d.histograms.iter_mut().zip(&before.histograms) {
        a.count = a.count.saturating_sub(b.count);
        a.sum = a.sum.saturating_sub(b.sum);
        for (x, y) in a.buckets.iter_mut().zip(&b.buckets) {
            *x = x.saturating_sub(*y);
        }
    }
    d
}

/// Critical-path time of one level: the three phases are separated by
/// barriers, so the level lasts the sum of each phase's slowest thread.
pub fn level_ns(phase_max: [u64; 3]) -> u64 {
    phase_max.iter().sum()
}

/// What the engine metrics are computed from.
pub struct EngineWindow<'a> {
    /// Registry delta over the measured queries.
    pub delta: &'a MetricsSnapshot,
    pub num_vertices: u64,
    pub lanes: usize,
    /// Critical-path nanoseconds of every traced level.
    pub level_ns: &'a [u64],
    /// Engine nanoseconds (`stats.total_time`) of the traced queries.
    pub traced_query_ns: u64,
}

/// Records every `engine.*` metric.
pub fn engine_metrics(m: &mut Metrics, w: &EngineWindow) {
    let d = w.delta;
    let c = |counter: Counter| d.total(counter) as f64;
    m.put(
        "engine.phase1_ns_per_scattered",
        ratio(c(Counter::Phase1Ns), c(Counter::ScatteredEdges)),
    );
    m.put(
        "engine.phase2_ns_per_bin_entry",
        ratio(c(Counter::Phase2Ns), c(Counter::BinEntries)),
    );
    m.put(
        "engine.bottom_up_ns_per_check",
        ratio(c(Counter::BottomUpNs), c(Counter::EdgeChecks)),
    );
    m.put(
        "engine.rearrange_ns_per_enqueued",
        ratio(c(Counter::RearrangeNs), c(Counter::Enqueued)),
    );
    m.put(
        "engine.bottom_up_level_share",
        ratio(c(Counter::BottomUpSteps), c(Counter::Steps)),
    );
    m.put(
        "engine.checks_per_traversed_edge",
        ratio(c(Counter::EdgeChecks), c(Counter::TraversedEdges)),
    );
    m.put(
        "engine.duplicate_rate",
        ratio(c(Counter::DuplicateEnqueues), c(Counter::VisitedVertices)),
    );
    m.put(
        "engine.barrier_share",
        ratio(
            c(Counter::BarrierNs),
            d.workers.max(1) as f64 * c(Counter::QueryNs),
        ),
    );
    m.put(
        "engine.levels_per_query",
        ratio(c(Counter::Steps), c(Counter::Queries)),
    );
    let covered: u64 = w.level_ns.iter().sum();
    m.put(
        "engine.level_overhead_us",
        ratio(
            w.traced_query_ns.saturating_sub(covered) as f64,
            w.level_ns.len() as f64,
        ) / 1e3,
    );
    let steps = sorted(
        &w.level_ns
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    m.put(
        "engine.step_us_p50",
        percentile(&steps, 50.0).unwrap_or(0.0),
    );
    m.put(
        "engine.step_us_p99",
        percentile(&steps, 99.0).unwrap_or(0.0),
    );

    // Computed bandwidth: the §IV model's bytes per work unit times the
    // units each phase processed, over the phase's time. "Computed"
    // because no hardware counter measured the bytes.
    if d.total(Counter::Queries) == 0 {
        return;
    }
    let machine = MachineSpec {
        sockets: 1,
        ..MachineSpec::xeon_x5570_2s()
    };
    let ctx = AttributionContext {
        machine: &machine,
        num_vertices: w.num_vertices,
        lanes_per_socket: w.lanes,
        alpha: 1.0,
        cache_line: 64,
        hw_unavailable: None,
    };
    let report = AttributionReport::build(d, &[], &ctx);
    for (phase, name) in [
        ("phase1", "engine.phase1_gbps_computed"),
        ("phase2", "engine.phase2_gbps_computed"),
        ("bottom_up", "engine.bottom_up_gbps_computed"),
    ] {
        let gbps = report
            .phases
            .iter()
            .find(|p| p.phase == phase)
            .and_then(|p| p.measured_gbps)
            .unwrap_or(0.0);
        m.put(name, gbps);
    }
}
