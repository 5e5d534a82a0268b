//! Request flight recorder: the engine's per-level record, tail-based
//! sampling, and fixed-capacity rings of completed request traces.
//!
//! The full [`TraceEvent`](crate::event::TraceEvent) pipeline is built
//! for offline analysis: assembling a `StepEvent` allocates per-thread
//! vectors and scans the `DP` array for duplicate counts, which is far
//! too expensive to leave on while serving queries. This module is the
//! always-on counterpart, reusing the [`RingSink`](crate::RingSink)
//! substrate's idea — bounded, in-memory, overwrite-oldest — with three
//! pieces sized for a production query path:
//!
//! * [`LevelDigest`] — the engine's per-level record (direction,
//!   frontier size, per-phase nanoseconds). The leader thread pushes one
//!   per BFS level into a session-owned vector whose capacity is kept
//!   across runs, so the warm path records it with **no heap
//!   allocation** (guarded by a counting-allocator test). The same record
//!   feeds the run's stats and trace step events; a kept request trace
//!   copies at most [`LEVEL_DIGEST_CAP`] of it.
//! * [`TailSampler`] — decides, once a request completes, whether its
//!   full trace is worth keeping: always for failures (errors, deadline
//!   drops), otherwise only when the latency clears an absolute floor
//!   (`--slow-ms`) or a rolling bucketed-p99 threshold over the recent
//!   latency window.
//! * [`FlightRecorder`] — two bounded rings: full [`RequestTrace`]s for
//!   sampled requests, and id+latency [`TraceDigest`]s for everything
//!   else, so any recent request id resolves to *something* while memory
//!   stays fixed.

use std::collections::VecDeque;
use std::sync::Mutex;

use serde::Serialize;

/// Most levels a [`RequestTrace`] copies from the traversal's per-level
/// record. The paper's graphs are shallow (RMAT/uniform diameters under
/// ~30); a deeper traversal's trace keeps its first `LEVEL_DIGEST_CAP`
/// levels and counts the rest in [`RequestTrace::levels_truncated`].
pub const LEVEL_DIGEST_CAP: usize = 64;

/// One BFS level, recorded once by the engine's leader thread: which
/// direction the engine picked, how large the produced frontier was, and
/// the critical-path (max over threads) nanoseconds of each phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct LevelDigest {
    /// BFS depth of the produced frontier (1 = the source's neighbors).
    pub step: u32,
    /// `true` for a top-down (scatter/bin) level, `false` for bottom-up.
    pub top_down: bool,
    /// Vertices enqueued by this level across all threads.
    pub frontier: u64,
    /// Max over threads of Phase I time (scatter/bin, or the bitmap
    /// publish on bottom-up levels).
    pub phase1_ns: u64,
    /// Max over threads of Phase II time (bin drain, or the bottom-up
    /// parent scan).
    pub phase2_ns: u64,
    /// Max over threads of the time spent rearranging the frontier this
    /// level's Phase I reads (see [`crate::ThreadStep::rearrange_ns`]).
    pub rearrange_ns: u64,
}

/// Observations before the rolling threshold activates: with fewer
/// samples than this, only the absolute floor and the failure rule keep
/// traces.
const SAMPLER_WARMUP: u64 = 64;
/// Window decay: when the window reaches this many observations, every
/// bucket count is halved, so the threshold tracks recent traffic.
const SAMPLER_DECAY_AT: u64 = 8192;
/// Latency buckets by bit length (the same power-of-two scheme as the
/// metrics histograms).
const SAMPLER_BUCKETS: usize = 64;

/// Tail-based sampling policy for completed requests.
///
/// `decide` answers "keep the full trace?": always `true` for failed
/// requests (errored, deadline-dropped, shed); otherwise `true` when the
/// latency reaches the absolute `slow_ms` floor (when configured) or
/// strictly exceeds the rolling threshold — the upper bound of the
/// bucketed-p99 latency bucket over the recent window. Successful
/// latencies feed the window; failures do not (an overload burst must
/// not teach the sampler that seconds-long waits are normal).
#[derive(Debug)]
pub struct TailSampler {
    slow_ns: Option<u64>,
    buckets: [u64; SAMPLER_BUCKETS],
    total: u64,
}

impl TailSampler {
    /// A sampler with an optional absolute floor in milliseconds
    /// (`--slow-ms`; 0 keeps every trace).
    pub fn new(slow_ms: Option<u64>) -> Self {
        Self {
            slow_ns: slow_ms.map(|ms| ms.saturating_mul(1_000_000)),
            buckets: [0; SAMPLER_BUCKETS],
            total: 0,
        }
    }

    /// Decides whether a request that completed with `latency_ns` (and
    /// `failed` status) keeps its full trace, and folds successful
    /// latencies into the rolling window.
    pub fn decide(&mut self, latency_ns: u64, failed: bool) -> bool {
        if failed {
            return true;
        }
        // Threshold from the window *before* this observation: a lone
        // outlier must not raise the bar it is judged against.
        let keep = match self.slow_ns {
            Some(floor) if latency_ns >= floor => true,
            _ => self.rolling_threshold_ns().is_some_and(|t| latency_ns > t),
        };
        self.observe(latency_ns);
        keep
    }

    /// The rolling keep-threshold: the inclusive upper bound of the
    /// bucket holding the window's p99 rank. `None` until
    /// `SAMPLER_WARMUP` (64) successful requests have been observed.
    pub fn rolling_threshold_ns(&self) -> Option<u64> {
        if self.total < SAMPLER_WARMUP {
            return None;
        }
        let tail = (self.total / 100).max(1);
        let target = self.total - tail + 1;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(bucket_upper_bound_ns(i));
            }
        }
        Some(u64::MAX)
    }

    /// The configured absolute floor, in nanoseconds.
    pub fn slow_ns(&self) -> Option<u64> {
        self.slow_ns
    }

    fn observe(&mut self, latency_ns: u64) {
        if self.total >= SAMPLER_DECAY_AT {
            self.total = 0;
            for b in self.buckets.iter_mut() {
                *b /= 2;
                self.total += *b;
            }
        }
        let idx = (64 - latency_ns.leading_zeros() as usize).min(SAMPLER_BUCKETS - 1);
        self.buckets[idx] += 1;
        self.total += 1;
    }
}

/// Inclusive upper bound of bit-length bucket `i` (values with bit
/// length `i`, i.e. `[2^(i-1), 2^i - 1]`; bucket 0 holds only 0).
fn bucket_upper_bound_ns(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i).wrapping_sub(1)
    }
}

/// One completed request, joined end to end: lifecycle spans from the
/// server (parse/queue/execute/serialize), the session that answered,
/// and its per-level digest.
#[derive(Clone, Debug, Serialize)]
pub struct RequestTrace {
    /// Trace id: the client's `Trace-Id` header, or server-generated.
    pub id: String,
    /// Human-readable request descriptor (e.g. `"reach src=3 dst=7"`).
    pub query: String,
    /// HTTP status the request was answered with.
    pub status: u16,
    /// `"ok"`, `"deadline_dropped"`, `"shed"`, `"timeout"`, or
    /// `"client_error"`.
    pub outcome: String,
    /// Error message for non-200 outcomes.
    pub error: Option<String>,
    /// `true`: kept in full by the tail sampler. (Digest-only retention
    /// is represented by [`TraceDigest`] instead.)
    pub sampled: bool,
    pub parse_ns: u64,
    pub queue_ns: u64,
    pub execute_ns: u64,
    pub serialize_ns: u64,
    /// Arrival-to-record latency; the spans above are contained in it.
    pub total_ns: u64,
    /// Session that executed (or deadline-dropped) the request; `None`
    /// when it never reached one (4xx, shed, dispatch timeout).
    pub session: Option<u64>,
    /// Per-level digest of the traversal that answered the request (for
    /// batch requests: the last source's traversal).
    pub levels: Vec<LevelDigest>,
    /// Levels of that traversal beyond [`LEVEL_DIGEST_CAP`], counted
    /// but not copied into `levels`.
    pub levels_truncated: u64,
}

/// The id+latency record retained for requests the sampler declined.
#[derive(Clone, Debug, Serialize)]
pub struct TraceDigest {
    pub id: String,
    pub status: u16,
    pub total_ns: u64,
    /// Always `false`: this is the digest-only retention tier.
    pub sampled: bool,
}

/// A looked-up trace: full if the sampler kept it, digest otherwise.
#[derive(Clone, Debug)]
pub enum TraceLookup {
    Full(RequestTrace),
    Digest(TraceDigest),
}

/// Occupancy and churn counters for the recorder's two rings.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct FlightStats {
    pub retained_full: u64,
    pub retained_digest: u64,
    pub evicted_full: u64,
    pub evicted_digest: u64,
}

struct FlightInner {
    full: VecDeque<RequestTrace>,
    digest: VecDeque<TraceDigest>,
    evicted_full: u64,
    evicted_digest: u64,
}

/// Fixed-capacity in-memory store of completed traces. Both rings
/// overwrite oldest-first; total memory is bounded by the two capacities
/// regardless of traffic.
pub struct FlightRecorder {
    full_cap: usize,
    digest_cap: usize,
    inner: Mutex<FlightInner>,
}

impl FlightRecorder {
    /// A recorder keeping at most `full_cap` full traces and
    /// `digest_cap` id+latency digests.
    pub fn new(full_cap: usize, digest_cap: usize) -> Self {
        Self {
            full_cap: full_cap.max(1),
            digest_cap: digest_cap.max(1),
            inner: Mutex::new(FlightInner {
                full: VecDeque::with_capacity(full_cap.max(1)),
                digest: VecDeque::with_capacity(digest_cap.max(1)),
                evicted_full: 0,
                evicted_digest: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FlightInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Stores a sampled (full) trace, evicting the oldest past capacity.
    pub fn record_full(&self, trace: RequestTrace) {
        let mut inner = self.lock();
        if inner.full.len() >= self.full_cap {
            inner.full.pop_front();
            inner.evicted_full += 1;
        }
        inner.full.push_back(trace);
    }

    /// Stores a digest-only record, evicting the oldest past capacity.
    pub fn record_digest(&self, digest: TraceDigest) {
        let mut inner = self.lock();
        if inner.digest.len() >= self.digest_cap {
            inner.digest.pop_front();
            inner.evicted_digest += 1;
        }
        inner.digest.push_back(digest);
    }

    /// Resolves a trace id: the full ring wins (newest first), then the
    /// digest ring; `None` when the id was never recorded or has been
    /// evicted.
    pub fn lookup(&self, id: &str) -> Option<TraceLookup> {
        let inner = self.lock();
        if let Some(t) = inner.full.iter().rev().find(|t| t.id == id) {
            return Some(TraceLookup::Full(t.clone()));
        }
        inner
            .digest
            .iter()
            .rev()
            .find(|d| d.id == id)
            .map(|d| TraceLookup::Digest(d.clone()))
    }

    /// The retained full traces ranked slowest-first, at most `limit`.
    pub fn slow_ranked(&self, limit: usize) -> Vec<RequestTrace> {
        let inner = self.lock();
        let mut traces: Vec<RequestTrace> = inner.full.iter().cloned().collect();
        drop(inner);
        traces.sort_by_key(|t| std::cmp::Reverse(t.total_ns));
        traces.truncate(limit);
        traces
    }

    /// Ids and total latencies of the slowest retained full traces,
    /// slowest first, at most `limit`. Unlike [`slow_ranked`], this does
    /// not clone whole traces — it is cheap enough for health-probe
    /// exemplars (`/debug/health` links each verdict to the traces that
    /// best explain it, resolvable via `/debug/trace?id=`).
    ///
    /// [`slow_ranked`]: FlightRecorder::slow_ranked
    pub fn slowest_ids(&self, limit: usize) -> Vec<(String, u64)> {
        let inner = self.lock();
        let mut ranked: Vec<(&str, u64)> = inner
            .full
            .iter()
            .map(|t| (t.id.as_str(), t.total_ns))
            .collect();
        ranked.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
        ranked.truncate(limit);
        ranked
            .into_iter()
            .map(|(id, ns)| (id.to_string(), ns))
            .collect()
    }

    /// Ring occupancy and eviction counts.
    pub fn stats(&self) -> FlightStats {
        let inner = self.lock();
        FlightStats {
            retained_full: inner.full.len() as u64,
            retained_digest: inner.digest.len() as u64,
            evicted_full: inner.evicted_full,
            evicted_digest: inner.evicted_digest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: &str, total_ns: u64) -> RequestTrace {
        RequestTrace {
            id: id.to_string(),
            query: "reach src=0".to_string(),
            status: 200,
            outcome: "ok".to_string(),
            error: None,
            sampled: true,
            parse_ns: 10,
            queue_ns: 20,
            execute_ns: total_ns / 2,
            serialize_ns: 5,
            total_ns,
            session: Some(0),
            levels: vec![LevelDigest {
                step: 1,
                top_down: true,
                frontier: 8,
                phase1_ns: 100,
                phase2_ns: 200,
                rearrange_ns: 0,
            }],
            levels_truncated: 0,
        }
    }

    /// Churn far past both capacities: the rings stay bounded and the
    /// eviction counters account for every displaced record.
    #[test]
    fn flight_recorder_rings_stay_bounded_under_churn() {
        let rec = FlightRecorder::new(8, 16);
        for i in 0..10_000u64 {
            if i % 3 == 0 {
                rec.record_full(trace(&format!("full-{i}"), i));
            } else {
                rec.record_digest(TraceDigest {
                    id: format!("digest-{i}"),
                    status: 200,
                    total_ns: i,
                    sampled: false,
                });
            }
        }
        let s = rec.stats();
        assert_eq!(s.retained_full, 8);
        assert_eq!(s.retained_digest, 16);
        // 3334 full records through a ring of 8; the rest through 16.
        assert_eq!(s.evicted_full, 3334 - 8);
        assert_eq!(s.evicted_digest, (10_000 - 3334) - 16);
        // The newest survive; the oldest are gone.
        assert!(rec.lookup("full-9999").is_some());
        assert!(rec.lookup("full-0").is_none());
        assert!(rec.lookup("digest-9998").is_some());
        assert!(rec.lookup("digest-1").is_none());
    }

    #[test]
    fn slow_ranking_orders_by_latency_desc() {
        let rec = FlightRecorder::new(8, 8);
        for (id, ns) in [("a", 300u64), ("b", 900), ("c", 100), ("d", 500)] {
            rec.record_full(trace(id, ns));
        }
        let ranked = rec.slow_ranked(3);
        let ids: Vec<&str> = ranked.iter().map(|t| t.id.as_str()).collect();
        assert_eq!(ids, ["b", "d", "a"]);
    }

    #[test]
    fn lookup_prefers_full_over_digest_and_newest_first() {
        let rec = FlightRecorder::new(4, 4);
        rec.record_digest(TraceDigest {
            id: "x".into(),
            status: 200,
            total_ns: 1,
            sampled: false,
        });
        rec.record_full(trace("x", 99));
        match rec.lookup("x") {
            Some(TraceLookup::Full(t)) => assert_eq!(t.total_ns, 99),
            other => panic!("expected full trace, got {other:?}"),
        }
    }

    /// The satellite guarantee: failures keep their full trace no matter
    /// how fast they were, even after the rolling window has learned a
    /// latency profile.
    #[test]
    fn sampler_keeps_failures_regardless_of_latency() {
        let mut s = TailSampler::new(None);
        for _ in 0..1000 {
            assert!(!s.decide(1_000, false), "typical latency must not sample");
        }
        assert!(s.decide(1, true), "a 1ns failure must still be kept");
        assert!(s.decide(0, true), "a 0ns failure must still be kept");
    }

    #[test]
    fn sampler_rolling_threshold_keeps_outliers_only() {
        let mut s = TailSampler::new(None);
        // Before warmup no rolling threshold exists: nothing is slow.
        assert!(!s.decide(1 << 40, false));
        for _ in 0..1000 {
            s.decide(1_000, false);
        }
        // ~1 µs window: the p99 bucket's upper bound is 1023 ns.
        assert_eq!(s.rolling_threshold_ns(), Some(1023));
        assert!(
            !s.decide(900, false),
            "in-profile latency stays digest-only"
        );
        assert!(s.decide(100_000, false), "a 100x outlier is kept");
        assert!(s.decide(2_000, false), "next-bucket latency is kept");
    }

    #[test]
    fn sampler_absolute_floor_and_zero_keep_everything() {
        let mut keep_all = TailSampler::new(Some(0));
        assert!(keep_all.decide(0, false), "--slow-ms 0 keeps every trace");
        assert!(keep_all.decide(1, false));

        let mut s = TailSampler::new(Some(5));
        assert!(!s.decide(4_999_999, false), "below the 5ms floor");
        assert!(s.decide(5_000_000, false), "at the 5ms floor");
    }

    /// The window decays: a latency profile learned long ago fades as
    /// new traffic dominates the halved bucket counts.
    #[test]
    fn sampler_window_decays() {
        let mut s = TailSampler::new(None);
        for _ in 0..SAMPLER_DECAY_AT {
            s.decide(1_000, false);
        }
        // Shift the whole workload 16x slower; after enough traffic the
        // threshold follows it upward.
        for _ in 0..SAMPLER_DECAY_AT {
            s.decide(16_000, false);
        }
        assert!(s.rolling_threshold_ns().unwrap() >= 16_383);
    }

    /// `slowest_ids` must agree with the full `slow_ranked` ordering —
    /// it is the cheap exemplar path `/debug/health` relies on.
    #[test]
    fn slowest_ids_match_slow_ranked() {
        let rec = FlightRecorder::new(8, 8);
        for (i, ns) in [500u64, 9_000, 100, 7_000, 3_000].iter().enumerate() {
            rec.record_full(trace(&format!("t{i}"), *ns));
        }
        let ids = rec.slowest_ids(3);
        assert_eq!(
            ids,
            vec![
                ("t1".to_string(), 9_000),
                ("t3".to_string(), 7_000),
                ("t4".to_string(), 3_000)
            ]
        );
        let ranked: Vec<(String, u64)> = rec
            .slow_ranked(3)
            .into_iter()
            .map(|t| (t.id, t.total_ns))
            .collect();
        assert_eq!(ids, ranked);
        assert!(rec.slowest_ids(0).is_empty());
        assert_eq!(rec.slowest_ids(100).len(), 5);
        assert!(FlightRecorder::new(4, 4).slowest_ids(3).is_empty());
    }
}
