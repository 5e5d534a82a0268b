//! The sharded registry: fixed counter and histogram vocabularies, one
//! cache-line-padded slot per engine thread plus one driver slot.
//!
//! Hot-path cost model: [`MetricsWriter::add`] is one indexed add on a
//! plain `u64` behind a raw pointer — no atomics, no branches beyond the
//! bounds check the fixed enum erases, no allocation ever.
//! [`MetricsWriter::observe`] is a leading-zeros bucket index plus three
//! plain adds. Slots are padded to 128 bytes
//! ([`bfs_platform::CachePadded`]) so two threads' increments never share
//! a line pair. Aggregation ([`MetricsRegistry::snapshot`]) takes
//! `&mut self`: exclusive access proves no SPMD region is live, so the
//! merge reads need no synchronization — `SocketPool::run` returned only
//! after every lane's writes were published to its caller.

use bfs_platform::padded::SlotGuard;
use bfs_platform::PerThreadSlots;

/// Number of counters in the fixed vocabulary.
pub const NUM_COUNTERS: usize = Counter::ALL.len();

/// Number of histograms in the fixed vocabulary.
pub const NUM_HISTS: usize = Hist::ALL.len();

/// Power-of-two histogram buckets: bucket `i` holds values `v` with
/// `bit_length(v) == i` (bucket 0 holds exactly 0), i.e. upper bound
/// `2^i - 1`. 44 buckets cover nanosecond values up to ~2.4 hours and
/// frontier sizes up to 2^43.
pub const HIST_BUCKETS: usize = 44;

/// The counter vocabulary. Driver-scope counters (query/step/traversal
/// totals) are bumped once per query by the calling thread; thread-scope
/// counters (per-phase time and traffic) are bumped by each worker at
/// region exit from its private accumulators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Queries served (driver scope).
    Queries,
    /// Total query wall-clock nanoseconds (driver scope).
    QueryNs,
    /// BFS steps executed (driver scope).
    Steps,
    /// Steps that ran the top-down kernel (driver scope).
    TopDownSteps,
    /// Steps that ran the bottom-up kernel (driver scope).
    BottomUpSteps,
    /// Per-level direction changes (driver scope).
    DirectionSwitches,
    /// Vertices visited across queries (driver scope).
    VisitedVertices,
    /// Edges traversed across queries (driver scope).
    TraversedEdges,
    /// Benign-race duplicate enqueues (driver scope).
    DuplicateEnqueues,
    /// Phase I scatter nanoseconds (thread scope).
    Phase1Ns,
    /// Phase II bin-walk nanoseconds, top-down levels only (thread scope).
    Phase2Ns,
    /// Bottom-up probe-scan nanoseconds (thread scope).
    BottomUpNs,
    /// Frontier rearrangement nanoseconds (thread scope).
    RearrangeNs,
    /// Nanoseconds spent waiting at step barriers (thread scope).
    BarrierNs,
    /// Neighbors scattered into PBV bins in Phase I (thread scope).
    ScatteredEdges,
    /// `(parent, v)` entries decoded from bins in Phase II (thread scope).
    BinEntries,
    /// Bottom-up neighbor probes (thread scope).
    EdgeChecks,
    /// Successful DP claims, duplicates included (thread scope).
    Enqueued,
    /// Hardware CPU cycles retired during Phase I (thread scope; zero
    /// when perf counters are unavailable — see `bfs-perf`).
    Phase1HwCycles,
    /// Hardware instructions retired during Phase I (thread scope).
    Phase1HwInstructions,
    /// LLC load misses during Phase I (thread scope). Each miss is one
    /// cache line of measured DDR read traffic.
    Phase1LlcMisses,
    /// dTLB load misses during Phase I (thread scope).
    Phase1DtlbMisses,
    /// Hardware CPU cycles retired during Phase II (thread scope).
    Phase2HwCycles,
    /// Hardware instructions retired during Phase II (thread scope).
    Phase2HwInstructions,
    /// LLC load misses during Phase II (thread scope).
    Phase2LlcMisses,
    /// dTLB load misses during Phase II (thread scope).
    Phase2DtlbMisses,
    /// Hardware CPU cycles retired during bottom-up scans (thread scope).
    BottomUpHwCycles,
    /// Hardware instructions retired during bottom-up scans (thread scope).
    BottomUpHwInstructions,
    /// LLC load misses during bottom-up scans (thread scope).
    BottomUpLlcMisses,
    /// dTLB load misses during bottom-up scans (thread scope).
    BottomUpDtlbMisses,
    /// Hardware CPU cycles retired during rearrangement (thread scope).
    RearrangeHwCycles,
    /// Hardware instructions retired during rearrangement (thread scope).
    RearrangeHwInstructions,
    /// LLC load misses during rearrangement (thread scope).
    RearrangeLlcMisses,
    /// dTLB load misses during rearrangement (thread scope).
    RearrangeDtlbMisses,
    /// Query-path HTTP requests admitted by `fastbfs serve` (driver scope;
    /// the dispatch thread is the single writer for all `Serve*` counters).
    ServeRequests,
    /// Query-path requests that failed — malformed parameters, out-of-range
    /// vertices, or a full admission queue (driver scope).
    ServeErrors,
    /// Nanoseconds spent parsing request lines and parameters (driver scope).
    ServeParseNs,
    /// Nanoseconds requests waited in the admission queue before the
    /// dispatch thread picked them up (driver scope).
    ServeQueueNs,
    /// Nanoseconds executing traversals on behalf of requests (driver scope).
    ServeExecNs,
    /// Nanoseconds serializing response bodies (driver scope).
    ServeSerializeNs,
    /// Requests answered 504 because their deadline passed while queued —
    /// dropped without ever executing (driver scope; per-session
    /// dispatcher).
    ServeDeadlineDropped,
    /// Requests whose flight-recorder trace the tail sampler kept in
    /// full — slow, errored, or deadline-dropped (driver scope; worker-
    /// side error traces drain through the dispatcher like
    /// `ServeErrors`).
    ServeTraceSampled,
    /// Requests retained as an id+latency digest only — fast, successful
    /// requests the tail sampler declined (driver scope).
    ServeTraceDigest,
    /// Answer-epilogue nanoseconds: writing depths and parents in external
    /// id order after the last level barrier, outside `QueryNs` (thread
    /// scope).
    EpilogueNs,
}

impl Counter {
    /// Every counter, in stable index order (`c as usize` indexes this).
    /// Additions are append-only so snapshots serialized by older builds
    /// keep their positional meaning. A removal shifts every later index,
    /// so read a snapshot from another build by counter name.
    pub const ALL: [Counter; 44] = [
        Counter::Queries,
        Counter::QueryNs,
        Counter::Steps,
        Counter::TopDownSteps,
        Counter::BottomUpSteps,
        Counter::DirectionSwitches,
        Counter::VisitedVertices,
        Counter::TraversedEdges,
        Counter::DuplicateEnqueues,
        Counter::Phase1Ns,
        Counter::Phase2Ns,
        Counter::BottomUpNs,
        Counter::RearrangeNs,
        Counter::BarrierNs,
        Counter::ScatteredEdges,
        Counter::BinEntries,
        Counter::EdgeChecks,
        Counter::Enqueued,
        Counter::Phase1HwCycles,
        Counter::Phase1HwInstructions,
        Counter::Phase1LlcMisses,
        Counter::Phase1DtlbMisses,
        Counter::Phase2HwCycles,
        Counter::Phase2HwInstructions,
        Counter::Phase2LlcMisses,
        Counter::Phase2DtlbMisses,
        Counter::BottomUpHwCycles,
        Counter::BottomUpHwInstructions,
        Counter::BottomUpLlcMisses,
        Counter::BottomUpDtlbMisses,
        Counter::RearrangeHwCycles,
        Counter::RearrangeHwInstructions,
        Counter::RearrangeLlcMisses,
        Counter::RearrangeDtlbMisses,
        Counter::ServeRequests,
        Counter::ServeErrors,
        Counter::ServeParseNs,
        Counter::ServeQueueNs,
        Counter::ServeExecNs,
        Counter::ServeSerializeNs,
        Counter::ServeDeadlineDropped,
        Counter::ServeTraceSampled,
        Counter::ServeTraceDigest,
        Counter::EpilogueNs,
    ];

    /// Stable snake_case name used in JSON and Prometheus exposition.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Queries => "queries",
            Counter::QueryNs => "query_ns",
            Counter::Steps => "steps",
            Counter::TopDownSteps => "top_down_steps",
            Counter::BottomUpSteps => "bottom_up_steps",
            Counter::DirectionSwitches => "direction_switches",
            Counter::VisitedVertices => "visited_vertices",
            Counter::TraversedEdges => "traversed_edges",
            Counter::DuplicateEnqueues => "duplicate_enqueues",
            Counter::Phase1Ns => "phase1_ns",
            Counter::Phase2Ns => "phase2_ns",
            Counter::BottomUpNs => "bottom_up_ns",
            Counter::RearrangeNs => "rearrange_ns",
            Counter::BarrierNs => "barrier_ns",
            Counter::ScatteredEdges => "scattered_edges",
            Counter::BinEntries => "bin_entries",
            Counter::EdgeChecks => "edge_checks",
            Counter::Enqueued => "enqueued",
            Counter::Phase1HwCycles => "phase1_hw_cycles",
            Counter::Phase1HwInstructions => "phase1_hw_instructions",
            Counter::Phase1LlcMisses => "phase1_llc_misses",
            Counter::Phase1DtlbMisses => "phase1_dtlb_misses",
            Counter::Phase2HwCycles => "phase2_hw_cycles",
            Counter::Phase2HwInstructions => "phase2_hw_instructions",
            Counter::Phase2LlcMisses => "phase2_llc_misses",
            Counter::Phase2DtlbMisses => "phase2_dtlb_misses",
            Counter::BottomUpHwCycles => "bottom_up_hw_cycles",
            Counter::BottomUpHwInstructions => "bottom_up_hw_instructions",
            Counter::BottomUpLlcMisses => "bottom_up_llc_misses",
            Counter::BottomUpDtlbMisses => "bottom_up_dtlb_misses",
            Counter::RearrangeHwCycles => "rearrange_hw_cycles",
            Counter::RearrangeHwInstructions => "rearrange_hw_instructions",
            Counter::RearrangeLlcMisses => "rearrange_llc_misses",
            Counter::RearrangeDtlbMisses => "rearrange_dtlb_misses",
            Counter::ServeRequests => "serve_requests",
            Counter::ServeErrors => "serve_errors",
            Counter::ServeParseNs => "serve_parse_ns",
            Counter::ServeQueueNs => "serve_queue_ns",
            Counter::ServeExecNs => "serve_exec_ns",
            Counter::ServeSerializeNs => "serve_serialize_ns",
            Counter::ServeDeadlineDropped => "serve_deadline_dropped",
            Counter::ServeTraceSampled => "serve_trace_sampled",
            Counter::ServeTraceDigest => "serve_trace_digest",
            Counter::EpilogueNs => "epilogue_ns",
        }
    }

    /// The four hardware counters for one engine phase, in
    /// `bfs-perf::ENGINE_EVENTS` order (cycles, instructions, LLC load
    /// misses, dTLB load misses). Phase index: 0 = Phase I, 1 = Phase II,
    /// 2 = bottom-up, 3 = rearrangement.
    pub const HW_BY_PHASE: [[Counter; 4]; 4] = [
        [
            Counter::Phase1HwCycles,
            Counter::Phase1HwInstructions,
            Counter::Phase1LlcMisses,
            Counter::Phase1DtlbMisses,
        ],
        [
            Counter::Phase2HwCycles,
            Counter::Phase2HwInstructions,
            Counter::Phase2LlcMisses,
            Counter::Phase2DtlbMisses,
        ],
        [
            Counter::BottomUpHwCycles,
            Counter::BottomUpHwInstructions,
            Counter::BottomUpLlcMisses,
            Counter::BottomUpDtlbMisses,
        ],
        [
            Counter::RearrangeHwCycles,
            Counter::RearrangeHwInstructions,
            Counter::RearrangeLlcMisses,
            Counter::RearrangeDtlbMisses,
        ],
    ];
}

/// The histogram vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Per-thread busy nanoseconds per step (phases + rearrangement).
    StepNs,
    /// Query wall-clock nanoseconds (driver scope).
    QueryNs,
    /// Per-step frontier size, enqueues with duplicates (driver scope).
    FrontierSize,
    /// Admission-queue wait per query-path request in nanoseconds (driver
    /// scope; `fastbfs serve` dispatch thread).
    ServeQueueNs,
    /// End-to-end request lifecycle (arrival to response ready) in
    /// nanoseconds (driver scope; `fastbfs serve` dispatch thread).
    ServeRequestNs,
}

impl Hist {
    /// Every histogram, in stable index order (append-only).
    pub const ALL: [Hist; 5] = [
        Hist::StepNs,
        Hist::QueryNs,
        Hist::FrontierSize,
        Hist::ServeQueueNs,
        Hist::ServeRequestNs,
    ];

    /// Stable snake_case name used in JSON and Prometheus exposition.
    pub fn name(self) -> &'static str {
        match self {
            Hist::StepNs => "step_ns",
            Hist::QueryNs => "query_ns",
            Hist::FrontierSize => "frontier_size",
            Hist::ServeQueueNs => "serve_queue_ns",
            Hist::ServeRequestNs => "serve_request_ns",
        }
    }
}

/// Bucket index of `v`: its bit length, clamped to the last bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`2^i - 1`); the last bucket is
/// unbounded and reported as `u64::MAX`.
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i + 1 >= HIST_BUCKETS {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Quantile (`q` in `0.0..=1.0`) of `count` observations summing to
/// `sum`: walks the buckets to rank `q * count` and interpolates inside
/// the landing bucket, from one past the previous bound to its own bound
/// clamped to `sum`. 0 when empty. Snapshots and rollups share this walk.
pub fn bucket_quantile(buckets: &[u64], count: u64, sum: u64, q: f64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let target = q.clamp(0.0, 1.0) * count as f64;
    let mut cum = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let next = cum + c;
        if next as f64 >= target {
            let lower = if i == 0 {
                0
            } else {
                bucket_upper_bound(i - 1) + 1
            };
            let upper = bucket_upper_bound(i).min(sum);
            let frac = (target - cum as f64) / c as f64;
            return lower as f64 + frac * upper.saturating_sub(lower) as f64;
        }
        cum = next;
    }
    bucket_upper_bound(HIST_BUCKETS - 1) as f64
}

/// One slot's worth of raw metric storage. Fixed-size arrays only: a
/// writer never allocates.
pub(crate) struct SlotData {
    pub(crate) counters: [u64; NUM_COUNTERS],
    pub(crate) buckets: [[u64; HIST_BUCKETS]; NUM_HISTS],
    pub(crate) hist_count: [u64; NUM_HISTS],
    pub(crate) hist_sum: [u64; NUM_HISTS],
}

impl SlotData {
    fn zeroed() -> Self {
        Self {
            counters: [0; NUM_COUNTERS],
            buckets: [[0; HIST_BUCKETS]; NUM_HISTS],
            hist_count: [0; NUM_HISTS],
            hist_sum: [0; NUM_HISTS],
        }
    }

    fn clear(&mut self) {
        *self = Self::zeroed();
    }
}

/// The always-on registry: `workers + 1` padded slots — one per pool
/// thread, plus a driver slot for the query-scope counters the calling
/// thread records after the region finishes.
pub struct MetricsRegistry {
    slots: PerThreadSlots<SlotData>,
    workers: usize,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("workers", &self.workers)
            .finish()
    }
}

impl MetricsRegistry {
    /// Registry for a pool of `workers` threads.
    pub fn new(workers: usize) -> Self {
        Self {
            slots: PerThreadSlots::from_fn(workers + 1, |_| SlotData::zeroed()),
            workers,
        }
    }

    /// Number of worker slots (the driver slot is extra).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Takes worker thread `tid`'s slot for the duration of a region.
    /// The caller must be that thread (single-writer discipline; debug
    /// builds panic on a double take).
    #[inline]
    pub fn writer(&self, tid: usize) -> MetricsWriter<'_> {
        assert!(tid < self.workers, "thread {tid} out of {}", self.workers);
        MetricsWriter {
            slot: self.slots.take(tid),
        }
    }

    /// Takes the driver slot (for the thread that called the region).
    #[inline]
    pub fn driver(&self) -> MetricsWriter<'_> {
        MetricsWriter {
            slot: self.slots.take(self.workers),
        }
    }

    /// Zeroes every slot.
    pub fn reset(&mut self) {
        for s in self.slots.iter_mut() {
            s.clear();
        }
    }

    /// Merges all slots into a serializable snapshot. `&mut self` proves
    /// quiescence (no region in flight, no live writer).
    pub fn snapshot(&mut self) -> crate::snapshot::MetricsSnapshot {
        crate::snapshot::MetricsSnapshot::collect(&mut self.slots, self.workers)
    }
}

/// Exclusive, allocation-free write handle to one slot.
pub struct MetricsWriter<'a> {
    slot: SlotGuard<'a, SlotData>,
}

impl MetricsWriter<'_> {
    /// Adds `v` to counter `c`: one plain indexed `u64` add.
    #[inline]
    pub fn add(&mut self, c: Counter, v: u64) {
        self.slot.counters[c as usize] += v;
    }

    /// Records one observation `v` into histogram `h`.
    #[inline]
    pub fn observe(&mut self, h: Hist, v: u64) {
        let hi = h as usize;
        self.slot.buckets[hi][bucket_index(v)] += 1;
        self.slot.hist_count[hi] += 1;
        self.slot.hist_sum[hi] += v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_align_with_indices() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c:?}");
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i, "{h:?}");
        }
    }

    #[test]
    fn bucket_geometry() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(HIST_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn writers_accumulate_into_distinct_slots() {
        let reg = MetricsRegistry::new(2);
        {
            let mut w0 = reg.writer(0);
            let mut w1 = reg.writer(1);
            w0.add(Counter::Enqueued, 5);
            w1.add(Counter::Enqueued, 7);
            w1.observe(Hist::StepNs, 100);
        }
        let mut d = reg.driver();
        d.add(Counter::Queries, 1);
        drop(d);
        let mut reg = reg;
        let snap = reg.snapshot();
        assert_eq!(snap.total(Counter::Enqueued), 12);
        assert_eq!(snap.total(Counter::Queries), 1);
        assert_eq!(snap.histogram(Hist::StepNs).count, 1);
        reg.reset();
        assert_eq!(reg.snapshot().total(Counter::Enqueued), 0);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn writer_rejects_driver_index() {
        let reg = MetricsRegistry::new(2);
        let _ = reg.writer(2);
    }
}
