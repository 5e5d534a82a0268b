//! Model-vs-measured attribution: joins a live [`MetricsSnapshot`] (and
//! optionally a per-step trace) against the §IV analytical model, phase by
//! phase.
//!
//! The join works in *bandwidth* space. The registry records how long each
//! phase ran and how many work units it processed (scattered neighbors,
//! decoded bin entries, bottom-up probes, claimed vertices); the model says
//! how many DDR bytes each unit should cost (eqns IV.1a–IV.1d). Multiplying
//! measured units by modelled bytes/edge and dividing by measured busy time
//! yields the *achieved* bandwidth of each phase, directly comparable to
//! the bandwidth the model predicts the phase should sustain — the gap is
//! where the implementation leaves the machine idle.

use serde::{Deserialize, Serialize};

use crate::registry::{Counter, Hist};
use crate::snapshot::MetricsSnapshot;
use bfs_model::{predict, GraphParams, MachineSpec, Prediction};
use bfs_trace::TraceEvent;

/// One phase's measured-vs-modelled row.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhaseAttribution {
    /// Phase name: `phase1`, `phase2`, `bottom_up`, `rearrange`, `barrier`.
    pub phase: String,
    /// Nanoseconds summed over worker threads.
    pub busy_ns: u64,
    /// Fraction of total worker time (busy + barrier) this phase took.
    pub share: f64,
    /// Work units processed (phase-specific: scattered neighbors, bin
    /// entries, probes, claims; 0 for `barrier`).
    pub units: u64,
    /// Modelled DDR bytes per unit; `None` where the model has no term
    /// (barrier, bottom-up).
    pub model_bpe: Option<f64>,
    /// Achieved DDR bandwidth in GB/s: `model_bpe × units` bytes over the
    /// phase's mean per-thread time. `None` without a model term or time.
    pub measured_gbps: Option<f64>,
    /// Bandwidth the §IV model predicts the phase sustains on this machine.
    pub predicted_gbps: Option<f64>,
    /// Hardware cycles spent in this phase (perf counter groups sampled at
    /// the engine's phase seams). `None` when counters were unavailable,
    /// not requested, or the phase has no seam (barrier).
    pub hw_cycles: Option<u64>,
    /// Instructions retired in this phase.
    pub hw_instructions: Option<u64>,
    /// LLC load misses in this phase.
    pub hw_llc_misses: Option<u64>,
    /// dTLB load misses in this phase.
    pub hw_dtlb_misses: Option<u64>,
    /// Achieved DDR bandwidth from *measured* traffic:
    /// `hw_llc_misses × cache_line` bytes over the phase's mean per-thread
    /// time — the counter-backed counterpart of the model-derived
    /// `measured_gbps`, letting the two estimates cross-check each other.
    pub hw_gbps: Option<f64>,
    /// *Measured* DDR bytes per work unit: `hw_llc_misses × cache_line`
    /// over `units` — directly comparable to `model_bpe` on the same row.
    /// This is the column the layout levers move: degree-ordered relabeling
    /// and hugepage-backed arenas should push the Phase I measured value
    /// below the model's §IV.1a prediction. `None` without hardware
    /// counters or units.
    pub measured_bpe: Option<f64>,
}

/// One step's measured-vs-modelled row (needs a trace; `fastbfs metrics`
/// records the final query through a ring sink to fill these).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StepAttribution {
    /// Step number.
    pub step: u32,
    /// Kernel that ran the level, if the trace recorded it.
    pub direction: Option<String>,
    /// Enqueues this step (duplicates included).
    pub frontier: u64,
    /// Critical-path latency (slowest thread's phase sum).
    pub latency_ns: u64,
    /// Neighbors scattered in Phase I (`None` on bottom-up levels).
    pub scattered: Option<u64>,
    /// Achieved DDR bandwidth across the step's critical path, GB/s.
    pub measured_gbps: Option<f64>,
    /// Model-predicted top-down bandwidth for comparison (`None` on
    /// bottom-up levels — the §IV model has no bottom-up term).
    pub predicted_gbps: Option<f64>,
}

/// One socket's share of worker time.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SocketLoad {
    /// Socket index.
    pub socket: usize,
    /// Busy nanoseconds summed over the socket's lanes.
    pub busy_ns: u64,
    /// Barrier-wait nanoseconds summed over the socket's lanes.
    pub barrier_ns: u64,
    /// `busy_ns` relative to the mean socket (1.0 = perfectly even).
    pub imbalance: f64,
}

/// The full attribution report.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AttributionReport {
    /// Queries the snapshot covers.
    pub queries: u64,
    /// BFS steps the snapshot covers.
    pub steps: u64,
    /// Measured throughput: traversed edges over query wall-clock, MTEPS.
    pub measured_mteps: f64,
    /// The model's MTEPS prediction for this machine and graph shape.
    pub predicted_mteps: f64,
    /// `measured / predicted` (1.0 = the implementation achieves the
    /// model; the paper reports ~0.85–0.95 on real hardware).
    pub model_ratio: f64,
    /// Access skew fed to the model.
    pub alpha: f64,
    /// Per-phase rows.
    pub phases: Vec<PhaseAttribution>,
    /// Per-step rows (empty without a trace).
    pub step_detail: Vec<StepAttribution>,
    /// Per-socket load split.
    pub sockets: Vec<SocketLoad>,
    /// Worst worker's busy time over the mean (1.0 = perfectly even).
    pub thread_imbalance: f64,
    /// Worst worker's `BottomUpNs` over the mean: how evenly the bottom-up
    /// scan plan splits the work (1.0 = perfectly even, and when no
    /// bottom-up level ran).
    pub bottom_up_imbalance: f64,
    /// `Some(reason)` when hardware counters were requested but could not
    /// be opened (permission, no vPMU, non-Linux host); rendered as an
    /// explicit marker so model-only rows are never mistaken for measured
    /// ones. `None` when counters ran or were never requested.
    pub hw_unavailable: Option<String>,
    /// Phase I dTLB load misses per scattered neighbor. §III-C's argument
    /// for frontier rearrangement is that sorting the boundary vertices
    /// makes the scatter walk pages in order, collapsing this rate toward
    /// zero; runs with rearrangement disabled show the "before" rate.
    /// `None` without hardware counters or scatter work.
    pub dtlb_per_scatter: Option<f64>,
    /// The underlying model prediction, in full.
    pub prediction: Prediction,
}

/// Everything the join needs besides the snapshot itself.
pub struct AttributionContext<'a> {
    /// Machine the model should predict for (typically a paper spec scaled
    /// to the host's socket/lane count).
    pub machine: &'a MachineSpec,
    /// Vertices in the traversed graph.
    pub num_vertices: u64,
    /// Lanes per socket in the live topology (groups per-thread counters
    /// into sockets).
    pub lanes_per_socket: usize,
    /// Access skew `α_Adj` for the multi-socket composition.
    pub alpha: f64,
    /// Cache-line size in bytes (from the live topology); converts
    /// measured LLC misses into DDR bytes.
    pub cache_line: usize,
    /// `Some(reason)` when hardware counters were requested but
    /// unavailable on this host; copied into the report verbatim.
    pub hw_unavailable: Option<String>,
}

impl AttributionReport {
    /// Joins `snap` (and optional per-step `events`) against the model.
    ///
    /// The graph shape fed to the model is recovered from the snapshot's
    /// own per-query averages (visited vertices, traversed edges, depth),
    /// so the prediction describes the *same workload* the counters
    /// measured. Panics if the snapshot covers no queries.
    pub fn build(snap: &MetricsSnapshot, events: &[TraceEvent], ctx: &AttributionContext) -> Self {
        let queries = snap.total(Counter::Queries);
        assert!(queries > 0, "attribution needs at least one recorded query");
        let steps = snap.total(Counter::Steps);
        let traversed = snap.total(Counter::TraversedEdges);
        let query_ns = snap.total(Counter::QueryNs);

        let g = GraphParams {
            num_vertices: ctx.num_vertices,
            visited_vertices: (snap.total(Counter::VisitedVertices) / queries).max(1),
            traversed_edges: (traversed / queries).max(1),
            depth: ((steps / queries) as u32).max(1),
        };
        let p = predict(ctx.machine, &g, ctx.alpha);
        let freq = ctx.machine.freq_ghz;
        let sockets = ctx.machine.sockets;

        let measured_mteps = if query_ns > 0 {
            traversed as f64 / (query_ns as f64 / 1e9) / 1e6
        } else {
            0.0
        };
        let predicted_mteps = if sockets > 1 {
            p.mteps_multi
        } else {
            p.mteps_single
        };

        let workers = snap.workers.max(1) as f64;
        // Hardware counters accumulate only when the engine opened perf
        // groups; an all-zero block means model-only rows.
        let hw_measured = Counter::HW_BY_PHASE
            .iter()
            .flatten()
            .any(|&c| snap.total(c) > 0);
        // (name, time counter, unit counter, model bytes/unit,
        //  predicted GB/s, HW_BY_PHASE row)
        type PhaseRow = (
            &'static str,
            Counter,
            Counter,
            Option<f64>,
            Option<f64>,
            Option<usize>,
        );
        let phase_rows: [PhaseRow; 5] = [
            (
                "phase1",
                Counter::Phase1Ns,
                Counter::ScatteredEdges,
                Some(p.phase1_ddr_bpe),
                Some(p.phase1_gbps(freq, sockets)),
                Some(0),
            ),
            (
                "phase2",
                Counter::Phase2Ns,
                Counter::BinEntries,
                Some(p.phase2_ddr_bpe),
                Some(p.phase2_gbps(freq, sockets)),
                Some(1),
            ),
            // The paper's §IV predates direction optimization; the
            // bytes-per-probe term is this repo's model extension
            // (`bfs_model::traffic::bottom_up_ddr`).
            (
                "bottom_up",
                Counter::BottomUpNs,
                Counter::EdgeChecks,
                Some(p.bottom_up_bpe),
                Some(p.bottom_up_gbps(freq, sockets)),
                Some(2),
            ),
            (
                "rearrange",
                Counter::RearrangeNs,
                Counter::Enqueued,
                Some(p.rearrange_bpe),
                Some(p.rearrange_gbps(freq, sockets)),
                Some(3),
            ),
            (
                "barrier",
                Counter::BarrierNs,
                Counter::BarrierNs,
                None,
                None,
                None,
            ),
        ];
        let total_ns: u64 = phase_rows.iter().map(|r| snap.total(r.1)).sum();
        let phases: Vec<PhaseAttribution> = phase_rows
            .iter()
            .map(|(name, time_c, unit_c, bpe, predicted, hw_row)| {
                let busy_ns = snap.total(*time_c);
                let units = if *name == "barrier" {
                    0
                } else {
                    snap.total(*unit_c)
                };
                let measured_gbps = match bpe {
                    Some(b) if busy_ns > 0 => {
                        // Phases run on all workers concurrently; the mean
                        // per-thread time is the phase's wall-clock stand-in.
                        let wall_ns = busy_ns as f64 / workers;
                        Some(*b * units as f64 / wall_ns)
                    }
                    _ => None,
                };
                let hw = hw_row.filter(|_| hw_measured).map(|i| {
                    let [cy, ins, llc, dtlb] = Counter::HW_BY_PHASE[i];
                    (
                        snap.total(cy),
                        snap.total(ins),
                        snap.total(llc),
                        snap.total(dtlb),
                    )
                });
                let hw_gbps = hw.and_then(|(_, _, llc, _)| {
                    (busy_ns > 0).then(|| {
                        let bytes = llc as f64 * ctx.cache_line as f64;
                        bytes / (busy_ns as f64 / workers)
                    })
                });
                let measured_bpe = hw.and_then(|(_, _, llc, _)| {
                    (units > 0).then(|| llc as f64 * ctx.cache_line as f64 / units as f64)
                });
                PhaseAttribution {
                    phase: name.to_string(),
                    busy_ns,
                    share: if total_ns > 0 {
                        busy_ns as f64 / total_ns as f64
                    } else {
                        0.0
                    },
                    units,
                    model_bpe: *bpe,
                    measured_gbps,
                    predicted_gbps: *predicted,
                    hw_cycles: hw.map(|h| h.0),
                    hw_instructions: hw.map(|h| h.1),
                    hw_llc_misses: hw.map(|h| h.2),
                    hw_dtlb_misses: hw.map(|h| h.3),
                    hw_gbps,
                    measured_bpe,
                }
            })
            .collect();
        let dtlb_per_scatter = phases[0]
            .hw_dtlb_misses
            .filter(|_| phases[0].units > 0)
            .map(|m| m as f64 / phases[0].units as f64);

        let td_bpe = p.phase1_ddr_bpe + p.phase2_ddr_bpe + p.rearrange_bpe;
        let c = p.cycles_for(sockets);
        let td_predicted = if c.total > 0.0 {
            td_bpe * freq / c.total
        } else {
            0.0
        };
        let step_detail = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Step(s) => Some(s),
                _ => None,
            })
            .map(|s| {
                let latency_ns = s.latency_ns();
                let measured_gbps = s.scattered.and_then(|sc| {
                    (latency_ns > 0).then(|| td_bpe * sc as f64 / latency_ns as f64)
                });
                StepAttribution {
                    step: s.step,
                    direction: s.direction.clone(),
                    frontier: s.frontier,
                    latency_ns,
                    scattered: s.scattered,
                    measured_gbps,
                    predicted_gbps: s.scattered.map(|_| td_predicted),
                }
            })
            .collect();

        let busy: Vec<u64> = (0..snap.workers).map(|t| snap.thread_busy_ns(t)).collect();
        let lanes = ctx.lanes_per_socket.max(1);
        let socket_busy: Vec<u64> = {
            let n = snap.workers.div_ceil(lanes);
            let mut v = vec![0u64; n];
            for (t, b) in busy.iter().enumerate() {
                v[t / lanes] += b;
            }
            v
        };
        let socket_barrier = snap.per_socket(lanes, Counter::BarrierNs);
        let mean_socket = socket_busy.iter().sum::<u64>() as f64 / socket_busy.len().max(1) as f64;
        let sockets_out = socket_busy
            .iter()
            .zip(&socket_barrier)
            .enumerate()
            .map(|(i, (&b, &w))| SocketLoad {
                socket: i,
                busy_ns: b,
                barrier_ns: w,
                imbalance: if mean_socket > 0.0 {
                    b as f64 / mean_socket
                } else {
                    1.0
                },
            })
            .collect();
        let max_over_mean = |v: &[u64]| {
            let mean = v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
            if mean > 0.0 {
                v.iter().copied().max().unwrap_or(0) as f64 / mean
            } else {
                1.0
            }
        };
        let thread_imbalance = max_over_mean(&busy);
        let bottom_up: Vec<u64> = (0..snap.workers)
            .map(|t| snap.thread_total(t, Counter::BottomUpNs))
            .collect();
        let bottom_up_imbalance = max_over_mean(&bottom_up);

        AttributionReport {
            queries,
            steps,
            measured_mteps,
            predicted_mteps,
            model_ratio: if predicted_mteps > 0.0 {
                measured_mteps / predicted_mteps
            } else {
                0.0
            },
            alpha: ctx.alpha,
            phases,
            step_detail,
            sockets: sockets_out,
            thread_imbalance,
            bottom_up_imbalance,
            hw_unavailable: ctx.hw_unavailable.clone(),
            dtlb_per_scatter,
            prediction: p,
        }
    }

    /// Human-readable rendering (the CLI's default output).
    pub fn render_text(&self, snap: &MetricsSnapshot) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "queries: {}   steps: {}   measured: {:.1} MTEPS   model: {:.1} MTEPS   ratio: {:.3}",
            self.queries, self.steps, self.measured_mteps, self.predicted_mteps, self.model_ratio
        );
        let _ = writeln!(
            out,
            "{:<10} {:>12} {:>7} {:>14} {:>10} {:>11} {:>11}",
            "phase", "busy_ms", "share", "units", "model_B/e", "meas_GB/s", "pred_GB/s"
        );
        for ph in &self.phases {
            let _ = writeln!(
                out,
                "{:<10} {:>12.3} {:>6.1}% {:>14} {:>10} {:>11} {:>11}",
                ph.phase,
                ph.busy_ns as f64 / 1e6,
                ph.share * 100.0,
                ph.units,
                ph.model_bpe.map_or("-".into(), |v| format!("{v:.1}")),
                ph.measured_gbps.map_or("-".into(), |v| format!("{v:.2}")),
                ph.predicted_gbps.map_or("-".into(), |v| format!("{v:.2}")),
            );
        }
        if let Some(reason) = &self.hw_unavailable {
            let _ = writeln!(out, "hw: unavailable ({reason}) — model-only rows");
        } else if self.phases.iter().any(|p| p.hw_cycles.is_some()) {
            let _ = writeln!(
                out,
                "{:<10} {:>14} {:>14} {:>6} {:>12} {:>11} {:>12} {:>9}",
                "phase",
                "hw_cycles",
                "hw_instr",
                "ipc",
                "llc_miss",
                "hw_GB/s",
                "dtlb_miss",
                "meas_B/e"
            );
            for ph in self.phases.iter().filter(|p| p.hw_cycles.is_some()) {
                let cy = ph.hw_cycles.unwrap_or(0);
                let ipc = ph
                    .hw_instructions
                    .filter(|_| cy > 0)
                    .map(|i| i as f64 / cy as f64);
                let _ = writeln!(
                    out,
                    "{:<10} {:>14} {:>14} {:>6} {:>12} {:>11} {:>12} {:>9}",
                    ph.phase,
                    cy,
                    ph.hw_instructions.unwrap_or(0),
                    ipc.map_or("-".into(), |v| format!("{v:.2}")),
                    ph.hw_llc_misses.unwrap_or(0),
                    ph.hw_gbps.map_or("-".into(), |v| format!("{v:.2}")),
                    ph.hw_dtlb_misses.unwrap_or(0),
                    ph.measured_bpe.map_or("-".into(), |v| format!("{v:.2}")),
                );
            }
            if let Some(rate) = self.dtlb_per_scatter {
                let _ = writeln!(
                    out,
                    "dTLB/scattered entry (phase1): {rate:.4} — §III-C rearrangement drives this toward 0"
                );
            }
        }
        if !self.step_detail.is_empty() {
            let _ = writeln!(
                out,
                "{:<6} {:>10} {:>10} {:>12} {:>11} {:>11}  direction",
                "step", "frontier", "scattered", "latency_us", "meas_GB/s", "pred_GB/s"
            );
            for s in &self.step_detail {
                let _ = writeln!(
                    out,
                    "{:<6} {:>10} {:>10} {:>12.1} {:>11} {:>11}  {}",
                    s.step,
                    s.frontier,
                    s.scattered.map_or("-".into(), |v| v.to_string()),
                    s.latency_ns as f64 / 1e3,
                    s.measured_gbps.map_or("-".into(), |v| format!("{v:.2}")),
                    s.predicted_gbps.map_or("-".into(), |v| format!("{v:.2}")),
                    s.direction.as_deref().unwrap_or("-"),
                );
            }
        }
        for s in &self.sockets {
            let _ = writeln!(
                out,
                "socket {}: busy {:.3} ms, barrier {:.3} ms, load {:.3}x mean",
                s.socket,
                s.busy_ns as f64 / 1e6,
                s.barrier_ns as f64 / 1e6,
                s.imbalance
            );
        }
        let _ = writeln!(
            out,
            "thread imbalance (max/mean busy): {:.3}",
            self.thread_imbalance
        );
        let _ = writeln!(
            out,
            "bottom-up imbalance (max/mean bottom-up): {:.3}",
            self.bottom_up_imbalance
        );
        let q = snap.histogram(Hist::QueryNs);
        let st = snap.histogram(Hist::StepNs);
        let _ = writeln!(
            out,
            "latency: query p50 {:.2} ms, p99 {:.2} ms; thread-step p50 {:.1} us, p99 {:.1} us",
            q.quantile(0.5) / 1e6,
            q.quantile(0.99) / 1e6,
            st.quantile(0.5) / 1e3,
            st.quantile(0.99) / 1e3,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;
    use bfs_trace::{StepEvent, ThreadStep};

    fn synthetic_snapshot() -> MetricsSnapshot {
        let mut reg = MetricsRegistry::new(2);
        for t in 0..2 {
            let mut w = reg.writer(t);
            w.add(Counter::Phase1Ns, 4_000_000);
            w.add(Counter::Phase2Ns, 3_000_000);
            w.add(Counter::RearrangeNs, 500_000);
            w.add(Counter::BarrierNs, 250_000);
            w.add(Counter::ScatteredEdges, 400_000);
            w.add(Counter::BinEntries, 400_000);
            w.add(Counter::Enqueued, 60_000);
        }
        {
            let mut d = reg.driver();
            d.add(Counter::Queries, 1);
            d.add(Counter::QueryNs, 9_000_000);
            d.add(Counter::Steps, 8);
            d.add(Counter::VisitedVertices, 120_000);
            d.add(Counter::TraversedEdges, 800_000);
        }
        reg.snapshot()
    }

    fn ctx(machine: &MachineSpec) -> AttributionContext<'_> {
        AttributionContext {
            machine,
            num_vertices: 1 << 20,
            lanes_per_socket: 1,
            alpha: 0.6,
            cache_line: 64,
            hw_unavailable: None,
        }
    }

    #[test]
    fn phases_join_against_the_model() {
        let m = MachineSpec::xeon_x5570_2s();
        let snap = synthetic_snapshot();
        let r = AttributionReport::build(&snap, &[], &ctx(&m));
        assert_eq!(r.queries, 1);
        assert_eq!(r.steps, 8);
        // 800k edges over 9ms = ~88.9 MTEPS.
        assert!(
            (r.measured_mteps - 88.9).abs() < 0.5,
            "{}",
            r.measured_mteps
        );
        assert!(r.predicted_mteps > 0.0);
        let p1 = &r.phases[0];
        assert_eq!(p1.phase, "phase1");
        assert_eq!(p1.units, 800_000);
        // 800k units × bpe bytes over 4ms mean thread time.
        let expect = r.prediction.phase1_ddr_bpe * 800_000.0 / 4_000_000.0;
        assert!((p1.measured_gbps.unwrap() - expect).abs() < 1e-9);
        assert!(p1.predicted_gbps.unwrap() > 0.0);
        // Bottom-up rows carry the model-extension term; barrier has none.
        let bu = &r.phases[2];
        assert_eq!(bu.phase, "bottom_up");
        assert!((bu.model_bpe.unwrap() - r.prediction.bottom_up_bpe).abs() < 1e-12);
        assert!(bu.predicted_gbps.unwrap() > 0.0);
        assert!(r.phases[4].model_bpe.is_none());
        assert!(r.phases[4].measured_gbps.is_none());
        // No hw counters in the synthetic snapshot → hw columns absent.
        assert!(r.phases.iter().all(|p| p.hw_cycles.is_none()));
        assert!(r.dtlb_per_scatter.is_none());
        let share_sum: f64 = r.phases.iter().map(|p| p.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
        // Even synthetic load → both sockets at 1.0.
        assert_eq!(r.sockets.len(), 2);
        assert!((r.sockets[0].imbalance - 1.0).abs() < 1e-9);
        assert!((r.thread_imbalance - 1.0).abs() < 1e-9);
        // No bottom-up work at all reads as even, not as 0/0.
        assert!((r.bottom_up_imbalance - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bottom_up_imbalance_is_max_over_mean() {
        let m = MachineSpec::xeon_x5570_2s();
        let mut reg = MetricsRegistry::new(2);
        for (t, ns) in [(0, 30_000_000), (1, 10_000_000)] {
            let mut w = reg.writer(t);
            w.add(Counter::Phase1Ns, 5_000_000);
            w.add(Counter::BottomUpNs, ns);
        }
        {
            let mut d = reg.driver();
            d.add(Counter::Queries, 1);
            d.add(Counter::QueryNs, 40_000_000);
            d.add(Counter::TraversedEdges, 800_000);
        }
        let snap = reg.snapshot();
        let r = AttributionReport::build(&snap, &[], &ctx(&m));
        // 30 ms over a 20 ms mean; busy time (35 vs 15 ms) is less skewed.
        assert!(
            (r.bottom_up_imbalance - 1.5).abs() < 1e-9,
            "{}",
            r.bottom_up_imbalance
        );
        assert!(
            (r.thread_imbalance - 1.4).abs() < 1e-9,
            "{}",
            r.thread_imbalance
        );
        let text = r.render_text(&snap);
        assert!(
            text.contains("bottom-up imbalance (max/mean bottom-up): 1.500"),
            "{text}"
        );
    }

    #[test]
    fn steps_attribute_only_with_scatter_counts() {
        let m = MachineSpec::xeon_x5570_1s();
        let snap = synthetic_snapshot();
        let events = vec![
            bfs_trace::TraceEvent::Step(StepEvent {
                step: 1,
                frontier: 100,
                direction: Some("top-down".into()),
                threads: vec![ThreadStep {
                    thread: 0,
                    phase1_ns: 10_000,
                    phase2_ns: 5_000,
                    ..Default::default()
                }],
                scattered: Some(1_000),
                ..Default::default()
            }),
            bfs_trace::TraceEvent::Step(StepEvent {
                step: 2,
                frontier: 4_000,
                direction: Some("bottom-up".into()),
                scattered: None,
                ..Default::default()
            }),
        ];
        let r = AttributionReport::build(&snap, &events, &ctx(&m));
        assert_eq!(r.step_detail.len(), 2);
        let td = &r.step_detail[0];
        assert_eq!(td.latency_ns, 15_000);
        assert!(td.measured_gbps.unwrap() > 0.0);
        assert!(td.predicted_gbps.unwrap() > 0.0);
        let bu = &r.step_detail[1];
        assert!(bu.measured_gbps.is_none());
        assert!(bu.predicted_gbps.is_none());
        let text = r.render_text(&snap);
        assert!(text.contains("phase1"), "{text}");
        assert!(text.contains("top-down"), "{text}");
    }

    #[test]
    fn hw_counters_populate_phase_rows_and_dtlb_rate() {
        let m = MachineSpec::xeon_x5570_2s();
        let mut reg = MetricsRegistry::new(2);
        for t in 0..2 {
            let mut w = reg.writer(t);
            w.add(Counter::Phase1Ns, 4_000_000);
            w.add(Counter::ScatteredEdges, 400_000);
            w.add(Counter::Phase1HwCycles, 10_000_000);
            w.add(Counter::Phase1HwInstructions, 8_000_000);
            w.add(Counter::Phase1LlcMisses, 50_000);
            w.add(Counter::Phase1DtlbMisses, 2_000);
        }
        {
            let mut d = reg.driver();
            d.add(Counter::Queries, 1);
            d.add(Counter::QueryNs, 9_000_000);
            d.add(Counter::Steps, 8);
            d.add(Counter::VisitedVertices, 120_000);
            d.add(Counter::TraversedEdges, 800_000);
        }
        let snap = reg.snapshot();
        let r = AttributionReport::build(&snap, &[], &ctx(&m));
        let p1 = &r.phases[0];
        assert_eq!(p1.hw_cycles, Some(20_000_000));
        assert_eq!(p1.hw_instructions, Some(16_000_000));
        assert_eq!(p1.hw_llc_misses, Some(100_000));
        assert_eq!(p1.hw_dtlb_misses, Some(4_000));
        // 100k misses × 64 B over 4 ms mean per-thread time.
        let expect = 100_000.0 * 64.0 / 4_000_000.0;
        assert!((p1.hw_gbps.unwrap() - expect).abs() < 1e-9);
        // 100k misses × 64 B over 800k scattered neighbors = 8 B/edge,
        // directly comparable to model_bpe on the same row.
        assert!(
            (p1.measured_bpe.unwrap() - 8.0).abs() < 1e-9,
            "{:?}",
            p1.measured_bpe
        );
        assert!(p1.model_bpe.is_some());
        // 4k misses over 800k scattered neighbors.
        assert!((r.dtlb_per_scatter.unwrap() - 0.005).abs() < 1e-12);
        // Phases that never ran with counters still carry Some(0) — the
        // block as a whole was measured; barrier stays None.
        assert_eq!(r.phases[1].hw_cycles, Some(0));
        assert!(r.phases[4].hw_cycles.is_none());
        let text = r.render_text(&snap);
        assert!(text.contains("hw_cycles"), "{text}");
        assert!(text.contains("dTLB/scattered entry"), "{text}");
        assert!(!text.contains("hw: unavailable"), "{text}");
    }

    #[test]
    fn unavailable_reason_is_surfaced_not_mistaken_for_zero() {
        let m = MachineSpec::xeon_x5570_2s();
        let snap = synthetic_snapshot();
        let mut c = ctx(&m);
        c.hw_unavailable = Some("PMU not available on this host".into());
        let r = AttributionReport::build(&snap, &[], &c);
        assert!(r.phases.iter().all(|p| p.hw_cycles.is_none()));
        let text = r.render_text(&snap);
        assert!(
            text.contains("hw: unavailable (PMU not available on this host)"),
            "{text}"
        );
        assert!(!text.contains("hw_cycles"), "{text}");
    }

    #[test]
    fn report_roundtrips_through_json() {
        let m = MachineSpec::xeon_x5570_2s();
        let snap = synthetic_snapshot();
        let r = AttributionReport::build(&snap, &[], &ctx(&m));
        let s = serde_json::to_string(&r).unwrap();
        let back: AttributionReport = serde_json::from_str(&s).unwrap();
        assert_eq!(back.queries, r.queries);
        assert_eq!(back.phases.len(), r.phases.len());
        assert!((back.model_ratio - r.model_ratio).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one recorded query")]
    fn empty_snapshot_is_rejected() {
        let m = MachineSpec::xeon_x5570_2s();
        let mut reg = MetricsRegistry::new(1);
        let snap = reg.snapshot();
        let _ = AttributionReport::build(&snap, &[], &ctx(&m));
    }
}
