//! Typed trace events.
//!
//! Every engine in the workspace (the threaded engine under any options,
//! its query sessions, the simulated replay) emits the same small
//! vocabulary: one [`RunEvent`] describing the run's geometry, then one
//! per-step event — [`StepEvent`] for wall-clock engines and
//! [`MemStepEvent`] for the memory-traffic replay.
//!
//! The JSON form is one object per event with an `"event"` tag
//! (`"run"`/`"step"`/`"mem_step"`/`"metrics"`) merged into the payload, so
//! a JSONL trace is greppable by kind without nested unwrapping.

use serde::{de_field, Deserialize, Error, Serialize, Value};

/// Run-level geometry: emitted once, before the first step.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunEvent {
    /// Which engine produced the trace (`"engine"`, `"session"`,
    /// `"memsim"`).
    pub engine: String,
    /// Vertices in the input graph.
    pub vertices: u64,
    /// Directed edges in the input graph.
    pub edges: u64,
    /// Source vertex.
    pub source: u32,
    /// Sockets in the run's topology.
    pub sockets: usize,
    /// Lanes (cores) per socket.
    pub lanes_per_socket: usize,
    /// Total worker threads.
    pub threads: usize,
    /// `N_VIS` partitions (two-phase engines only).
    pub n_vis: Option<usize>,
    /// `N_PBV` bins (two-phase engines only).
    pub n_pbv: Option<usize>,
    /// Resolved PBV encoding (two-phase engines only).
    pub encoding: Option<String>,
    /// Scheduling mode (single-node engines only).
    pub scheduling: Option<String>,
    /// VIS scheme (single-node engines only).
    pub vis: Option<String>,
}

/// One thread's share of a step.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ThreadStep {
    /// Global thread id.
    pub thread: usize,
    /// Nanoseconds this thread spent in Phase I this step.
    pub phase1_ns: u64,
    /// Nanoseconds this thread spent in Phase II this step.
    pub phase2_ns: u64,
    /// Nanoseconds this thread spent rearranging the frontier this step's
    /// Phase I reads. The rearrangement runs at the end of the previous
    /// step, after its closing barrier, and only when both steps are
    /// top-down (a bottom-up step only ORs the frontier into a bitmap), so
    /// it is 0 on step 1, on every bottom-up step and on the first
    /// top-down step after a bottom-up one. The rearrangement of the last
    /// frontier belongs to the empty final round, which records no step.
    pub rearrange_ns: u64,
    /// Vertices this thread enqueued this step (duplicates included).
    pub enqueued: u64,
    /// Neighbor probes this thread performed this step (bottom-up levels
    /// only; 0 on top-down levels). On bottom-up levels `phase1_ns` covers
    /// the sparse→dense bitmap publish and `phase2_ns` the range scan.
    pub edge_checks: u64,
}

/// One BFS step of a wall-clock engine.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StepEvent {
    /// Step number (= depth of the vertices claimed this step; step 1 claims
    /// the source's neighbors).
    pub step: u32,
    /// Total enqueues this step (duplicates included) — the
    /// `frontier_sizes[step]` entry of the run's stats.
    pub frontier: u64,
    /// Enqueues beyond the distinct vertices claimed this step (the benign
    /// §III-A claim race).
    pub duplicates: u64,
    /// Which kernel ran this level: `"top-down"` or `"bottom-up"`. `None`
    /// in traces written before the field existed.
    pub direction: Option<String>,
    /// Per-thread phase timings and enqueue counts.
    pub threads: Vec<ThreadStep>,
    /// Entries binned per PBV bin this step, summed over threads (empty
    /// when no Phase I binning ran: `NoMultiSocketOpt` scheduling and
    /// bottom-up levels).
    pub bin_occupancy: Vec<u64>,
    /// Neighbors scattered into PBV bins this step, summed over threads.
    /// `None` on bottom-up levels (no Phase I scatter ran) and in traces
    /// written before the field existed.
    pub scattered: Option<u64>,
}

impl StepEvent {
    /// The step's critical-path latency: the slowest thread's phase sum.
    pub fn latency_ns(&self) -> u64 {
        self.threads
            .iter()
            .map(|t| t.phase1_ns + t.phase2_ns + t.rearrange_ns)
            .max()
            .unwrap_or(0)
    }
}

/// One BFS step of the simulated-machine replay: per-channel byte deltas
/// from the traffic ledger.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MemStepEvent {
    /// Step number.
    pub step: u32,
    /// Vertices enqueued this step across virtual threads.
    pub frontier: u64,
    /// DRAM fill bytes this step.
    pub dram_read: u64,
    /// DRAM write-back bytes this step.
    pub dram_write: u64,
    /// Inter-socket link bytes this step (fills + write-backs).
    pub qpi: u64,
    /// Dirty-line migration bytes this step (the §III-B3 ping-pong).
    pub qpi_migration: u64,
    /// LLC → L2 fill bytes this step.
    pub llc_to_l2: u64,
    /// L2 → LLC write-back bytes this step.
    pub l2_to_llc: u64,
    /// Page-walk bytes this step (TLB misses).
    pub page_walk: u64,
}

/// One named metric value inside a [`MetricsEvent`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricSample {
    /// Stable snake_case metric name (the metrics registry's vocabulary).
    pub name: String,
    /// Aggregated value at snapshot time.
    pub value: u64,
}

/// Summary of one registry histogram inside a [`MetricsEvent`]: the
/// count plus bucket-interpolated quantiles, computed at snapshot time
/// so trace consumers need no bucket geometry.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HistSummarySample {
    /// Stable snake_case histogram name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Median observed value (bucket-interpolated).
    pub p50: f64,
    /// 99th-percentile observed value (bucket-interpolated).
    pub p99: f64,
}

/// A metrics-registry snapshot attached to a trace: emitted after the
/// steps it covers (typically once, at end of run), so a JSONL trace can
/// carry the counter totals alongside the per-step timeline.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsEvent {
    /// What the snapshot covers (`"query"`, `"session"`, `"run"`).
    pub scope: String,
    /// Aggregated counter totals at snapshot time.
    pub samples: Vec<MetricSample>,
    /// Histogram summaries at snapshot time. `None` in traces written
    /// before the field existed.
    pub hists: Option<Vec<HistSummarySample>>,
}

/// Any trace event. JSON form is the payload object with an added
/// `"event"` tag field.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    Run(RunEvent),
    Step(StepEvent),
    MemStep(MemStepEvent),
    Metrics(MetricsEvent),
}

impl TraceEvent {
    /// The `"event"` tag of this variant.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Run(_) => "run",
            TraceEvent::Step(_) => "step",
            TraceEvent::MemStep(_) => "mem_step",
            TraceEvent::Metrics(_) => "metrics",
        }
    }
}

impl Serialize for TraceEvent {
    fn to_value(&self) -> Value {
        let payload = match self {
            TraceEvent::Run(e) => e.to_value(),
            TraceEvent::Step(e) => e.to_value(),
            TraceEvent::MemStep(e) => e.to_value(),
            TraceEvent::Metrics(e) => e.to_value(),
        };
        let mut fields = vec![("event".to_string(), Value::Str(self.kind().to_string()))];
        match payload {
            Value::Object(pairs) => fields.extend(pairs),
            other => fields.push(("payload".to_string(), other)),
        }
        Value::Object(fields)
    }
}

impl Deserialize for TraceEvent {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let kind = String::from_value(de_field(v, "event")?)?;
        Ok(match kind.as_str() {
            "run" => TraceEvent::Run(RunEvent::from_value(v)?),
            "step" => TraceEvent::Step(StepEvent::from_value(v)?),
            "mem_step" => TraceEvent::MemStep(MemStepEvent::from_value(v)?),
            "metrics" => TraceEvent::Metrics(MetricsEvent::from_value(v)?),
            other => return Err(Error::custom(format!("unknown event kind {other:?}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_event() -> TraceEvent {
        TraceEvent::Step(StepEvent {
            step: 3,
            frontier: 17,
            duplicates: 1,
            direction: Some("top-down".to_string()),
            threads: vec![
                ThreadStep {
                    thread: 0,
                    phase1_ns: 100,
                    phase2_ns: 200,
                    rearrange_ns: 10,
                    enqueued: 9,
                    edge_checks: 0,
                },
                ThreadStep {
                    thread: 1,
                    phase1_ns: 400,
                    phase2_ns: 100,
                    rearrange_ns: 0,
                    enqueued: 8,
                    edge_checks: 31,
                },
            ],
            bin_occupancy: vec![5, 12],
            scattered: Some(17),
        })
    }

    #[test]
    fn events_roundtrip_through_json() {
        let events = [
            TraceEvent::Run(RunEvent {
                engine: "engine".into(),
                vertices: 100,
                edges: 400,
                source: 7,
                sockets: 2,
                lanes_per_socket: 2,
                threads: 4,
                n_vis: Some(2),
                n_pbv: Some(4),
                encoding: Some("Markers".into()),
                scheduling: Some("LoadBalanced".into()),
                vis: Some("Bit".into()),
            }),
            step_event(),
            TraceEvent::MemStep(MemStepEvent {
                step: 1,
                frontier: 4,
                dram_read: 640,
                dram_write: 64,
                qpi: 128,
                qpi_migration: 0,
                llc_to_l2: 1024,
                l2_to_llc: 256,
                page_walk: 8,
            }),
            TraceEvent::Metrics(MetricsEvent {
                scope: "query".into(),
                samples: vec![
                    MetricSample {
                        name: "scattered_edges".into(),
                        value: 400,
                    },
                    MetricSample {
                        name: "barrier_ns".into(),
                        value: 12345,
                    },
                ],
                hists: Some(vec![HistSummarySample {
                    name: "step_ns".into(),
                    count: 12,
                    p50: 800.0,
                    p99: 4000.0,
                }]),
            }),
        ];
        for e in &events {
            let json = serde_json::to_string(e).unwrap();
            let back: TraceEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, e, "roundtrip failed for {json}");
        }
        // Run lines written while the multi-node driver existed carry a
        // `"nodes":null` key; fields are looked up by name, so it is ignored.
        let old = "{\"event\":\"run\",\"engine\":\"engine\",\"vertices\":100,\
                   \"edges\":400,\"source\":7,\"sockets\":2,\"lanes_per_socket\":2,\
                   \"threads\":4,\"n_vis\":2,\"n_pbv\":4,\"encoding\":\"Markers\",\
                   \"scheduling\":\"LoadBalanced\",\"vis\":\"Bit\",\"nodes\":null}";
        let back: TraceEvent = serde_json::from_str(old).unwrap();
        assert_eq!(back, events[0]);
    }

    #[test]
    fn json_carries_flat_event_tag() {
        let json = serde_json::to_string(&step_event()).unwrap();
        assert!(json.starts_with("{\"event\":\"step\""), "got {json}");
        let v = serde_json::parse(&json).unwrap();
        assert_eq!(v.get("step").and_then(serde::Value::as_u64), Some(3));
    }

    #[test]
    fn latency_is_slowest_thread() {
        match step_event() {
            TraceEvent::Step(s) => assert_eq!(s.latency_ns(), 500),
            _ => unreachable!(),
        }
    }

    #[test]
    fn step_event_without_direction_still_deserializes() {
        // Traces written before the direction-optimizing extension carry no
        // `direction` field; the Option absorbs the omission.
        let json = "{\"event\":\"step\",\"step\":1,\"frontier\":4,\"duplicates\":0,\
                    \"threads\":[],\"bin_occupancy\":[]}";
        let e: TraceEvent = serde_json::from_str(json).unwrap();
        match e {
            TraceEvent::Step(s) => {
                assert_eq!(s.direction, None);
                assert_eq!(s.scattered, None);
                assert_eq!(s.frontier, 4);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn metrics_event_without_hists_still_deserializes() {
        // Traces written before the histogram-summary extension carry no
        // `hists` field; the Option absorbs the omission.
        let json = "{\"event\":\"metrics\",\"scope\":\"run\",\
                    \"samples\":[{\"name\":\"queries\",\"value\":2}]}";
        let e: TraceEvent = serde_json::from_str(json).unwrap();
        match e {
            TraceEvent::Metrics(m) => {
                assert_eq!(m.hists, None);
                assert_eq!(m.samples.len(), 1);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let err = serde_json::from_str::<TraceEvent>("{\"event\":\"nope\"}");
        assert!(err.is_err());
        // The multi-node driver's retired `superstep` kind is now unknown too.
        let err = serde_json::from_str::<TraceEvent>(
            "{\"event\":\"superstep\",\"step\":2,\"messages\":31,\"frontier\":12}",
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown event kind"), "{err}");
    }
}
