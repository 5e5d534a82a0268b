//! Structured per-step tracing and metrics for the fast-bfs reproduction.
//!
//! The paper's evaluation reasons about *per-step* behaviour — frontier
//! growth, the split of time between Phase I / Phase II / rearrangement,
//! how evenly the §III-B3(a) division spreads work across threads, and the
//! duplicate enqueues of the benign §III-A claim race. The engines' run
//! aggregates ([`TraversalStats`](https://docs.rs/) style totals) average
//! all of that away; this crate exposes it:
//!
//! * [`event`] — typed events: one [`RunEvent`] per run, then a per-step
//!   event per BFS level ([`StepEvent`] for wall-clock engines,
//!   [`MemStepEvent`] for the simulated-machine replay).
//! * [`sink`] — where events go: [`NoopSink`] (disabled; producers skip
//!   event assembly entirely, so tracing costs nothing when off),
//!   [`RingSink`] (bounded in-memory), [`JsonlSink`] (JSON Lines stream),
//!   [`TeeSink`] (fan-out).
//! * [`summary`] — analytics over a recorded trace: step-latency
//!   percentiles, per-phase load-imbalance factors, duplicate rates.
//! * [`flight`] — the always-on serving counterpart: the engine's
//!   per-level record ([`LevelDigest`]), tail-based sampling
//!   ([`TailSampler`]), and bounded rings of completed request traces
//!   ([`FlightRecorder`]).
//!
//! # Example
//!
//! ```
//! use bfs_trace::{summarize, RingSink, TraceSink};
//! use bfs_trace::event::{StepEvent, ThreadStep, TraceEvent};
//!
//! let ring = RingSink::new(1024);
//! ring.record(&TraceEvent::Step(StepEvent {
//!     step: 1,
//!     frontier: 8,
//!     duplicates: 0,
//!     direction: Some("top-down".to_string()),
//!     threads: vec![ThreadStep { thread: 0, phase1_ns: 500, phase2_ns: 700,
//!                                rearrange_ns: 100, enqueued: 8, edge_checks: 0 }],
//!     bin_occupancy: vec![8],
//!     scattered: Some(8),
//! }));
//! let summary = summarize(&ring.snapshot());
//! assert_eq!(summary.steps, 1);
//! assert_eq!(summary.max_step_ns, 1300);
//! ```

pub mod event;
pub mod flight;
pub mod sink;
pub mod summary;

pub use event::{
    HistSummarySample, MemStepEvent, MetricSample, MetricsEvent, RunEvent, StepEvent, ThreadStep,
    TraceEvent,
};
pub use flight::{
    FlightRecorder, FlightStats, LevelDigest, RequestTrace, TailSampler, TraceDigest, TraceLookup,
    LEVEL_DIGEST_CAP,
};
pub use sink::{JsonlSink, NoopSink, RingSink, TeeSink, TraceSink};
pub use summary::{summarize, TraceSummary};
