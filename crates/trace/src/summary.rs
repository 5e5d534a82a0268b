//! Summary analytics over a recorded trace.
//!
//! Answers the three questions the per-step events exist for:
//!
//! * **Where does the time go?** Step-latency percentiles (a step's latency
//!   is its slowest thread's phase sum — the BSP critical path).
//! * **How even is the division of work?** Per-phase load-imbalance factor:
//!   `Σ_steps max_t(time) / Σ_steps mean_t(time)`. 1.0 is a perfect split;
//!   the paper's §III-B3(a) load-balanced division exists to keep this near
//!   1.0 where the static per-socket split degrades on skewed bins.
//! * **How benign is the claim race?** Duplicate enqueues per step, overall
//!   and worst-step rates (§III-A measured "up to 0.2%").

use std::fmt;

use crate::event::{MetricsEvent, StepEvent, TraceEvent};

/// Aggregates computed from the [`StepEvent`]s of one trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Steps summarized.
    pub steps: usize,
    /// Steps whose `direction` tag says they ran bottom-up.
    pub bottom_up_steps: usize,
    /// Total enqueues across steps (duplicates included).
    pub total_frontier: u64,
    /// Total duplicate enqueues.
    pub total_duplicates: u64,
    /// Largest single-step frontier.
    pub peak_frontier: u64,
    /// Median step latency (nearest-rank), ns.
    pub p50_step_ns: u64,
    /// 95th-percentile step latency (nearest-rank), ns.
    pub p95_step_ns: u64,
    /// Slowest step latency, ns.
    pub max_step_ns: u64,
    /// Load-imbalance factor in Phase I (1.0 = perfectly even).
    pub imbalance_phase1: f64,
    /// Load-imbalance factor in Phase II.
    pub imbalance_phase2: f64,
    /// Load-imbalance factor in rearrangement.
    pub imbalance_rearrange: f64,
    /// Duplicates / enqueues over the whole run.
    pub duplicate_rate: f64,
    /// Worst single-step duplicates / enqueues.
    pub max_step_duplicate_rate: f64,
    /// The trailing [`TraceEvent::Metrics`] snapshot, when the trace
    /// carries one (the last wins if several do): registry counter
    /// totals plus histogram p50/p99 summaries.
    pub metrics: Option<MetricsEvent>,
}

/// Nearest-rank percentile of a sorted slice (`p` in 0..=100).
fn percentile(sorted: &[u64], p: u32) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p as usize * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// `Σ_steps max / Σ_steps mean` for one phase extracted by `f`.
fn imbalance(steps: &[&StepEvent], f: impl Fn(&crate::event::ThreadStep) -> u64) -> f64 {
    let mut sum_max = 0u64;
    let mut sum_mean = 0.0f64;
    for s in steps {
        if s.threads.is_empty() {
            continue;
        }
        let vals: Vec<u64> = s.threads.iter().map(&f).collect();
        sum_max += vals.iter().copied().max().unwrap_or(0);
        sum_mean += vals.iter().sum::<u64>() as f64 / vals.len() as f64;
    }
    if sum_mean == 0.0 {
        1.0
    } else {
        sum_max as f64 / sum_mean
    }
}

/// Computes a [`TraceSummary`] from the [`TraceEvent::Step`] events in
/// `events` (other kinds are ignored).
pub fn summarize(events: &[TraceEvent]) -> TraceSummary {
    let steps: Vec<&StepEvent> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Step(s) => Some(s),
            _ => None,
        })
        .collect();
    let mut latencies: Vec<u64> = steps.iter().map(|s| s.latency_ns()).collect();
    latencies.sort_unstable();
    let total_frontier: u64 = steps.iter().map(|s| s.frontier).sum();
    let total_duplicates: u64 = steps.iter().map(|s| s.duplicates).sum();
    TraceSummary {
        steps: steps.len(),
        bottom_up_steps: steps
            .iter()
            .filter(|s| s.direction.as_deref() == Some("bottom-up"))
            .count(),
        total_frontier,
        total_duplicates,
        peak_frontier: steps.iter().map(|s| s.frontier).max().unwrap_or(0),
        p50_step_ns: percentile(&latencies, 50),
        p95_step_ns: percentile(&latencies, 95),
        max_step_ns: latencies.last().copied().unwrap_or(0),
        imbalance_phase1: imbalance(&steps, |t| t.phase1_ns),
        imbalance_phase2: imbalance(&steps, |t| t.phase2_ns),
        imbalance_rearrange: imbalance(&steps, |t| t.rearrange_ns),
        duplicate_rate: if total_frontier == 0 {
            0.0
        } else {
            total_duplicates as f64 / total_frontier as f64
        },
        max_step_duplicate_rate: steps
            .iter()
            .filter(|s| s.frontier > 0)
            .map(|s| s.duplicates as f64 / s.frontier as f64)
            .fold(0.0, f64::max),
        metrics: events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Metrics(m) => Some(m.clone()),
                _ => None,
            })
            .next_back(),
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 10_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "steps:           {} ({} bottom-up; {} enqueues, peak frontier {})",
            self.steps, self.bottom_up_steps, self.total_frontier, self.peak_frontier
        )?;
        writeln!(
            f,
            "step latency:    p50 {}  p95 {}  max {}",
            fmt_ns(self.p50_step_ns),
            fmt_ns(self.p95_step_ns),
            fmt_ns(self.max_step_ns)
        )?;
        writeln!(
            f,
            "load imbalance:  Phase I {:.2}x  Phase II {:.2}x  rearrange {:.2}x",
            self.imbalance_phase1, self.imbalance_phase2, self.imbalance_rearrange
        )?;
        write!(
            f,
            "duplicates:      {} ({:.4}% of enqueues, worst step {:.4}%)",
            self.total_duplicates,
            self.duplicate_rate * 100.0,
            self.max_step_duplicate_rate * 100.0
        )?;
        if let Some(m) = &self.metrics {
            let totals: Vec<String> = m
                .samples
                .iter()
                .filter(|s| s.value != 0)
                .map(|s| format!("{}={}", s.name, s.value))
                .collect();
            write!(
                f,
                "\ncounters ({}):   {}",
                m.scope,
                if totals.is_empty() {
                    "(all zero)".to_string()
                } else {
                    totals.join(" ")
                }
            )?;
            // Only time-valued histograms get ns/µs/ms formatting; counts
            // (e.g. frontier_size) print as plain numbers.
            let quant = |name: &str, v: f64| {
                if name.ends_with("_ns") {
                    fmt_ns(v as u64)
                } else {
                    format!("{v:.0}")
                }
            };
            for h in m.hists.iter().flatten() {
                write!(
                    f,
                    "\nhist {:<12} n={}  p50 {}  p99 {}",
                    format!("{}:", h.name),
                    h.count,
                    quant(&h.name, h.p50),
                    quant(&h.name, h.p99)
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{HistSummarySample, MetricSample, RunEvent, ThreadStep};

    fn step(step: u32, frontier: u64, dups: u64, p1: &[u64], p2: &[u64]) -> TraceEvent {
        TraceEvent::Step(StepEvent {
            step,
            frontier,
            duplicates: dups,
            direction: if step.is_multiple_of(2) {
                Some("bottom-up".to_string())
            } else {
                Some("top-down".to_string())
            },
            threads: p1
                .iter()
                .zip(p2)
                .enumerate()
                .map(|(t, (&a, &b))| ThreadStep {
                    thread: t,
                    phase1_ns: a,
                    phase2_ns: b,
                    rearrange_ns: 0,
                    enqueued: frontier / p1.len() as u64,
                    edge_checks: 0,
                })
                .collect(),
            bin_occupancy: Vec::new(),
            scattered: None,
        })
    }

    #[test]
    fn empty_trace_summarizes_to_zeros() {
        let s = summarize(&[]);
        assert_eq!(s.steps, 0);
        assert_eq!(s.max_step_ns, 0);
        assert_eq!(s.imbalance_phase1, 1.0);
        assert_eq!(s.duplicate_rate, 0.0);
        assert_eq!(s.metrics, None);
    }

    #[test]
    fn trailing_metrics_event_is_surfaced() {
        let events = vec![
            step(1, 10, 0, &[100], &[100]),
            TraceEvent::Metrics(MetricsEvent {
                scope: "run".into(),
                samples: vec![
                    MetricSample {
                        name: "queries".into(),
                        value: 1,
                    },
                    MetricSample {
                        name: "edge_checks".into(),
                        value: 0,
                    },
                    MetricSample {
                        name: "scattered_edges".into(),
                        value: 42,
                    },
                ],
                hists: Some(vec![
                    HistSummarySample {
                        name: "step_ns".into(),
                        count: 4,
                        p50: 1_500.0,
                        p99: 90_000.0,
                    },
                    HistSummarySample {
                        name: "frontier_size".into(),
                        count: 4,
                        p50: 12.0,
                        p99: 40.0,
                    },
                ]),
            }),
        ];
        let s = summarize(&events);
        let m = s.metrics.as_ref().expect("metrics event captured");
        assert_eq!(m.scope, "run");
        let text = s.to_string();
        // Nonzero counters appear, zero-valued ones are elided.
        assert!(text.contains("counters (run)"), "{text}");
        assert!(text.contains("queries=1"), "{text}");
        assert!(text.contains("scattered_edges=42"), "{text}");
        assert!(!text.contains("edge_checks"), "{text}");
        // Histogram summaries: time-valued get unit formatting, counts
        // stay plain.
        assert!(text.contains("hist step_ns:"), "{text}");
        assert!(text.contains("p99 90.00 µs"), "{text}");
        assert!(text.contains("hist frontier_size:"), "{text}");
        assert!(text.contains("p50 12  p99 40"), "{text}");
    }

    #[test]
    fn last_of_several_metrics_events_wins() {
        let mk = |scope: &str| {
            TraceEvent::Metrics(MetricsEvent {
                scope: scope.into(),
                samples: Vec::new(),
                hists: None,
            })
        };
        let s = summarize(&[mk("query"), mk("session")]);
        assert_eq!(s.metrics.unwrap().scope, "session");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        assert_eq!(percentile(&[10, 20, 30, 40], 50), 20);
        assert_eq!(percentile(&[10, 20, 30, 40], 95), 40);
        assert_eq!(percentile(&[10, 20, 30, 40], 100), 40);
        assert_eq!(percentile(&[7], 50), 7);
    }

    #[test]
    fn imbalance_and_latency_math() {
        // Step 1: perfectly even Phase I (100,100), skewed Phase II (300,100).
        // Step 2: even everywhere.
        let events = vec![
            TraceEvent::Run(RunEvent {
                engine: "t".into(),
                vertices: 0,
                edges: 0,
                source: 0,
                sockets: 1,
                lanes_per_socket: 2,
                threads: 2,
                n_vis: None,
                n_pbv: None,
                encoding: None,
                scheduling: None,
                vis: None,
            }),
            step(1, 10, 1, &[100, 100], &[300, 100]),
            step(2, 20, 0, &[200, 200], &[200, 200]),
        ];
        let s = summarize(&events);
        assert_eq!(s.steps, 2);
        // The helper tags even steps bottom-up.
        assert_eq!(s.bottom_up_steps, 1);
        assert_eq!(s.total_frontier, 30);
        assert_eq!(s.peak_frontier, 20);
        // Latencies: step1 max(100+300, 100+100)=400, step2 400.
        assert_eq!(s.p50_step_ns, 400);
        assert_eq!(s.max_step_ns, 400);
        assert!((s.imbalance_phase1 - 1.0).abs() < 1e-12);
        // Phase II: (300 + 200) / (200 + 200) = 1.25.
        assert!((s.imbalance_phase2 - 1.25).abs() < 1e-12);
        assert!((s.duplicate_rate - 1.0 / 30.0).abs() < 1e-12);
        assert!((s.max_step_duplicate_rate - 0.1).abs() < 1e-12);
        // Display renders without panicking and mentions the headline rows.
        let text = s.to_string();
        assert!(text.contains("step latency"));
        assert!(text.contains("load imbalance"));
    }
}
