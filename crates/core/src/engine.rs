//! The complete load-balanced locality-aware BFS traversal (Figure 3).
//!
//! One SPMD region runs the per-step loop on every thread of the topology:
//!
//! ```text
//! for (step = 1; ; step++)
//!   Phase I   divide BV_t^C across threads (load-balanced);
//!             for each assigned frontier vertex: prefetch Adj, bin its
//!             neighbors into the thread's N_PBV PBV bins (SIMD kernel),
//!             broadcasting the parent marker
//!   barrier
//!   Phase II  divide the PBV bins across threads (whole bins + ≤2 partial
//!             bins per socket, in bin order so each VIS partition stays
//!             cache-resident); for each (parent, v): VIS filter → DP claim
//!             → append v to the thread-local BV_t^N
//!             rearrange BV_t^N by Adj page window (TLB)
//!   barrier   sum frontier sizes; stop when empty; swap BV arrays
//! ```
//!
//! Scheduling modes reproduce the three series of Figure 5; the VIS scheme
//! reproduces the series of Figure 4.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use bfs_graph::{CsrGraph, VertexPermutation};
use bfs_metrics::{Counter as Metric, Hist as MetricHist, MetricsRegistry, MetricsSnapshot};
use bfs_perf::{PerfCounts, PerfGroup, PerfUnavailable, ENGINE_EVENTS};
use bfs_platform::{HugepageUnavailable, SocketPool, Topology};
use bfs_trace::{LevelDigest, NoopSink, RunEvent, StepEvent, ThreadStep, TraceEvent, TraceSink};

use crate::balance::{divide_even, divide_static, Segment, Stream};
use crate::cell::ThreadOwned;
use crate::direction::{
    count_switches, BitmapWriter, DecisionInputs, Direction, DirectionPolicy, FrontierBitmap,
};
use crate::dp::{DepthParent, INF_DEPTH};
use crate::frontier::rearrange_frontier;
use crate::pbv::{decode_window, BinGeometry, BinSet, PbvEncoding, ResolvedEncoding};
use crate::prefetch::{prefetch_slice_element, DEFAULT_PREFETCH_DISTANCE};
use crate::simd::{bin_indices, BinKernel};
use crate::stats::TraversalStats;
use crate::vis::{Vis, VisScheme};
use crate::VertexId;

/// Work-distribution scheme (the Figure 5 series).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scheduling {
    /// No multi-socket optimization: single-phase expansion, threads update
    /// VIS/DP directly from neighbor lists (maximum ping-pong).
    NoMultiSocketOpt,
    /// Two-phase with bins statically pinned to their home socket
    /// ("Multi-Socket aware"): no cross-socket bin traffic, but
    /// load-imbalance when bins are skewed.
    SocketAwareStatic,
    /// Two-phase with the even prefix split of §III-B3(a): whole bins plus
    /// at most two partial bins per socket.
    #[default]
    LoadBalanced,
}

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct BfsOptions {
    /// VIS representation (Figure 4 series).
    pub vis: VisScheme,
    /// Work distribution (Figure 5 series).
    pub scheduling: Scheduling,
    /// Override the `N_VIS` partition count (default: the §III-A LLC rule).
    pub n_vis_override: Option<usize>,
    /// TLB-aware frontier rearrangement (§III-B3(b)).
    pub rearrange: bool,
    /// Adjacency prefetch distance in frontier entries (0 disables).
    pub prefetch_distance: usize,
    /// Bin-index kernel.
    pub bin_kernel: BinKernel,
    /// PBV stream encoding.
    pub encoding: PbvEncoding,
    /// Per-level direction selection (top-down vs bottom-up). The default
    /// is forced top-down — the paper's engine unchanged; bottom-up levels
    /// additionally require the symmetric doubled-edge graph convention.
    pub direction: DirectionPolicy,
    /// Sample hardware performance counters (cycles, instructions,
    /// LLC/dTLB load misses via `bfs-perf`) at the phase seams and
    /// accumulate them into the metrics registry. Off by default: each
    /// seam costs one `read(2)` per thread per step. When requested but
    /// unavailable (non-Linux, `perf_event_paranoid`, containers) the
    /// engine runs identically and [`BfsEngine::hw_status`] carries the
    /// typed reason.
    pub hw_counters: bool,
    /// Back the `DP`/`VIS`/frontier-bitmap arenas with 2 MiB transparent
    /// hugepages (§IV TLB pressure: fewer dTLB misses per scattered edge on
    /// the large per-vertex arrays). Off by default. When requested but
    /// unavailable (non-Linux, THP disabled) the engine runs identically on
    /// the heap and [`BfsEngine::hugepage_status`] carries the typed
    /// reason.
    pub huge_pages: bool,
}

impl Default for BfsOptions {
    fn default() -> Self {
        Self {
            vis: VisScheme::Bit,
            scheduling: Scheduling::LoadBalanced,
            n_vis_override: None,
            rearrange: true,
            prefetch_distance: DEFAULT_PREFETCH_DISTANCE,
            bin_kernel: BinKernel::Simd,
            encoding: PbvEncoding::Auto,
            direction: DirectionPolicy::ForcedTopDown,
            hw_counters: false,
            huge_pages: false,
        }
    }
}

/// Hardware-counter state, decided once at engine construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HwCounterStatus {
    /// [`BfsOptions::hw_counters`] was false; no probe was attempted.
    Disabled,
    /// The probe succeeded: each worker opens a per-thread counter group
    /// per SPMD region and samples it at the phase seams.
    Enabled,
    /// Requested but unavailable; the engine runs without hardware
    /// counters and the reason is carried for reporting.
    Unavailable(PerfUnavailable),
}

impl HwCounterStatus {
    /// The degradation reason, when there is one.
    pub fn unavailable_reason(&self) -> Option<&PerfUnavailable> {
        match self {
            HwCounterStatus::Unavailable(r) => Some(r),
            _ => None,
        }
    }
}

/// Hugepage-arena state, decided once at engine construction (the same
/// request → probe → typed degradation ladder as [`HwCounterStatus`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HugepageStatus {
    /// [`BfsOptions::huge_pages`] was false; no probe was attempted.
    Disabled,
    /// The probe succeeded: the `DP`/`VIS`/frontier-bitmap arenas are
    /// allocated 2 MiB-aligned with `madvise(MADV_HUGEPAGE)` (arrays below
    /// the size floor still fall back to the heap — see
    /// [`bfs_platform::hugepage::HUGE_MIN_BYTES`]).
    Enabled,
    /// Requested but unavailable; the engine runs on the heap and the
    /// reason is carried for reporting.
    Unavailable(HugepageUnavailable),
}

impl HugepageStatus {
    /// The degradation reason, when there is one.
    pub fn unavailable_reason(&self) -> Option<&HugepageUnavailable> {
        match self {
            HugepageStatus::Unavailable(r) => Some(r),
            _ => None,
        }
    }

    /// Whether arenas should actually be placed in hugepages.
    pub(crate) fn active(&self) -> bool {
        *self == HugepageStatus::Enabled
    }
}

/// Per-thread hardware sampling state for one SPMD region: a counter
/// group plus per-phase accumulators, all fixed-size (the warm path
/// stays allocation-free). Phase indices follow
/// [`bfs_metrics::Counter::HW_BY_PHASE`]: 0 = Phase I, 1 = Phase II,
/// 2 = bottom-up, 3 = rearrangement.
struct HwSampler {
    group: PerfGroup,
    last: PerfCounts,
    acc: [PerfCounts; 4],
}

impl HwSampler {
    /// Opens and enables this thread's group. `None` on any failure —
    /// per-thread degradation even after a successful engine-level probe
    /// (e.g. fd limits), never an error.
    fn open() -> Option<Self> {
        let mut group = PerfGroup::open(&ENGINE_EVENTS).ok()?;
        group.enable();
        let last = group.read_counts()?;
        Some(Self {
            group,
            last,
            acc: [PerfCounts::default(); 4],
        })
    }

    /// Re-reads the counters, dropping the interval since the previous
    /// read (used across barriers: wait time belongs to no phase).
    fn resync(&mut self) {
        if let Some(now) = self.group.read_counts() {
            self.last = now;
        }
    }

    /// Attributes the counters since the previous read to `phase`.
    fn sample(&mut self, phase: usize) {
        if let Some(now) = self.group.read_counts() {
            self.acc[phase].accumulate(&now.delta(&self.last));
            self.last = now;
        }
    }
}

/// Traversal output: depth and parent per vertex plus statistics.
#[derive(Clone, Debug, Default)]
pub struct BfsOutput {
    /// Depth per vertex (`INF_DEPTH` when unreached).
    pub depths: Vec<u32>,
    /// Parent per vertex (`VertexId::MAX` when unreached; source parents
    /// itself).
    pub parents: Vec<VertexId>,
    /// Run statistics.
    pub stats: TraversalStats,
}

/// Per-thread mutable traversal state (each field family lives in its own
/// [`ThreadOwned`] so the write/read epochs of the two phases never overlap
/// on one cell).
struct Counters {
    enqueued: u64,
    binning_ops: u64,
    edge_checks: u64,
    /// Neighbors scattered (binned or directly expanded) on top-down levels.
    scattered: u64,
    /// `(parent, v)` entries decoded from PBV bins in Phase II.
    bin_entries: u64,
    phase1: Duration,
    phase2: Duration,
    /// The bottom-up share of `phase2` (the metrics registry reports the
    /// two kernels separately; `TraversalStats` keeps the combined view).
    bottom_up: Duration,
    rearrange: Duration,
    /// Nanoseconds spent waiting at the three per-step barriers.
    barrier_ns: u64,
    /// Run start to leaving the last level barrier (the leader's is
    /// `TraversalStats::total_time`).
    levels_time: Duration,
    /// This thread's epilogue share of `visited_vertices` and
    /// `traversed_edges`.
    visited: u64,
    traversed: u64,
}

/// Per-thread, per-step measurements, overwritten each step. The owning
/// thread writes its cell during the step; the leader reads every cell
/// between the step's last two barriers to assemble a
/// [`StepEvent`] — the same epoch protocol as the frontier buffers.
#[derive(Clone, Copy, Default)]
struct StepScratch {
    phase1_ns: u64,
    phase2_ns: u64,
    rearrange_ns: u64,
    enqueued: u64,
    edge_checks: u64,
    scattered: u64,
}

/// Per-run traversal state: the `DP`/`VIS` arrays, every per-thread
/// `ThreadOwned` buffer family, and the bookkeeping that lets all of it be
/// reused across queries.
///
/// A fresh [`BfsEngine::run`] builds one of these, uses it once, and drops
/// it. A [`crate::session::BfsSession`] keeps one alive: between runs
/// [`prepare`](Self::prepare) resets `DP` in O(1) (epoch bump), `VIS` in
/// O(touched vertices), and the frontier/bin buffers in O(threads) — no
/// O(|V|) zeroing and no allocation on the warm path.
///
/// Each BFS level is written exactly once, as one entry of the leader's
/// `levels` record; the run's per-level outputs (frontier sizes, step
/// directions, trace step events, the flight digest) are views of it.
pub(crate) struct RunState {
    pub(crate) dp: DepthParent,
    pub(crate) vis: Vis,
    pub(crate) bv_cur: ThreadOwned<Vec<VertexId>>,
    pub(crate) bv_next: ThreadOwned<Vec<VertexId>>,
    pub(crate) bins: ThreadOwned<BinSet>,
    pub(crate) scratch: ThreadOwned<(Vec<VertexId>, Vec<u32>)>,
    step_scratch: ThreadOwned<StepScratch>,
    /// Dense frontier bits for bottom-up levels, two halves (zero-sized
    /// for forced-top-down engines). A bottom-up level reads one half and
    /// ORs its claims word by word into the other, which the next
    /// bottom-up level reads; each lane zeroes its stripe of a half once
    /// the half's readers are past a barrier. Both halves are all-zero at
    /// run end, so session reuse needs no extra reset.
    frontier_bitmap: FrontierBitmap,
    /// Per-lane lists of ids the last bottom-up level left unclaimed, in
    /// ascending order across the lanes (see `bottom_up_step`). A
    /// bottom-up level reads every lane's `unvisited` and writes its own
    /// `unvisited_next`; the two swap after the level, like the frontier
    /// buffers. Capacity is kept across runs.
    unvisited: ThreadOwned<Vec<VertexId>>,
    unvisited_next: ThreadOwned<Vec<VertexId>>,
    /// Leader-only per-level record: one [`LevelDigest`] (step,
    /// direction, frontier size, critical-path phase ns) per non-empty
    /// BFS level (DESIGN.md §15). Capacity is kept across runs, so warm
    /// pushes never allocate.
    levels: ThreadOwned<Vec<LevelDigest>>,
    /// Per-thread log of every vertex the run enqueued (sessions only):
    /// exactly the set whose VIS storage the next `prepare` must clear.
    touched: ThreadOwned<Vec<VertexId>>,
    /// Whether the run loop records enqueued vertices into `touched`.
    track_touched: bool,
    runs: u64,
    last_source: Option<VertexId>,
}

impl RunState {
    /// Fresh state sized for `engine`. `track_touched` enables the touched
    /// log a session needs for its O(touched) VIS reset; one-shot runs skip
    /// the bookkeeping.
    pub(crate) fn new(engine: &BfsEngine<'_>, track_touched: bool) -> Self {
        Self::with_epoch_bits(engine, track_touched, None)
    }

    /// [`RunState::new`] with an explicit `DP` stamp width (tests use tiny
    /// widths to exercise epoch wraparound).
    pub(crate) fn with_epoch_bits(
        engine: &BfsEngine<'_>,
        track_touched: bool,
        epoch_bits: Option<u32>,
    ) -> Self {
        let n = engine.graph.num_vertices();
        let nthreads = engine.topology.total_threads();
        let huge = engine.hugepages.active();
        Self {
            dp: match epoch_bits {
                Some(bits) => DepthParent::with_epoch_bits_backed(n, bits, huge),
                None => DepthParent::new_backed(n, huge),
            },
            vis: Vis::new_backed(engine.options.vis, n, huge),
            bv_cur: ThreadOwned::from_fn(nthreads, |_| Vec::new()),
            bv_next: ThreadOwned::from_fn(nthreads, |_| Vec::new()),
            bins: ThreadOwned::from_fn(nthreads, |_| {
                BinSet::new(engine.geometry.n_bins, engine.encoding)
            }),
            scratch: ThreadOwned::from_fn(nthreads, |_| (Vec::new(), Vec::new())),
            step_scratch: ThreadOwned::from_fn(nthreads, |_| StepScratch::default()),
            frontier_bitmap: FrontierBitmap::new_backed(
                if engine.options.direction.may_go_bottom_up() {
                    n
                } else {
                    0
                },
                huge,
            ),
            unvisited: ThreadOwned::from_fn(nthreads, |_| Vec::new()),
            unvisited_next: ThreadOwned::from_fn(nthreads, |_| Vec::new()),
            levels: ThreadOwned::from_fn(1, |_| Vec::new()),
            touched: ThreadOwned::from_fn(nthreads, |_| Vec::new()),
            track_touched,
            runs: 0,
            last_source: None,
        }
    }

    /// Number of runs this state has served.
    pub(crate) fn runs(&self) -> u64 {
        self.runs
    }

    /// Lends the last run's per-level record, one entry per non-empty
    /// level: entry `i` is `TraversalStats::frontier_sizes[i + 1]` and
    /// `step_directions[i]` (the flight-recorder seam).
    pub(crate) fn with_level_digest<R>(&self, f: impl FnOnce(&[LevelDigest]) -> R) -> R {
        self.levels.read(0, |levels| f(levels))
    }

    /// Sum of frontier/bin/scratch/touched buffer capacities in `u32`
    /// words — the high-water storage the session retains across runs.
    pub(crate) fn buffer_capacity_words(&self) -> usize {
        let mut words = 0;
        for t in 0..self.bv_cur.len() {
            words += self.bv_cur.read(t, Vec::capacity);
            words += self.bv_next.read(t, Vec::capacity);
            words += self.bins.read(t, BinSet::capacity_words);
            words += self.scratch.read(t, |(a, b)| a.capacity() + b.capacity());
            words += self.touched.read(t, Vec::capacity);
            words += self.unvisited.read(t, Vec::capacity);
            words += self.unvisited_next.read(t, Vec::capacity);
        }
        words
    }

    /// Releases all retained frontier/bin/scratch capacity (the documented
    /// shrink policy: buffers keep their high-water mark until the owner
    /// explicitly shrinks; the next run regrows them).
    pub(crate) fn shrink(&mut self) {
        for f in self.bv_cur.iter_mut() {
            *f = Vec::new();
        }
        for f in self.bv_next.iter_mut() {
            *f = Vec::new();
        }
        for b in self.bins.iter_mut() {
            b.shrink();
        }
        for (a, b) in self.scratch.iter_mut() {
            *a = Vec::new();
            *b = Vec::new();
        }
        for t in self.touched.iter_mut() {
            *t = Vec::new();
        }
        for u in self.unvisited.iter_mut() {
            *u = Vec::new();
        }
        for u in self.unvisited_next.iter_mut() {
            *u = Vec::new();
        }
    }

    /// Resets whatever the previous run dirtied and seeds `source`: `DP` by
    /// epoch bump (O(1), with the documented periodic full re-zero on stamp
    /// wraparound), `VIS` by clearing exactly the storage the previous run's
    /// enqueued vertices cover (O(touched)), buffers by `clear` (capacity
    /// kept).
    pub(crate) fn prepare(&mut self, source: VertexId) {
        if self.runs > 0 {
            self.dp.advance_epoch();
            // Split borrow: VIS is cleared from the touched lists in place.
            let Self { vis, touched, .. } = self;
            for list in touched.iter_mut() {
                vis.clear_touched(list);
                list.clear();
            }
            // The source is marked by `prepare` itself, never enqueued, so
            // the touched lists do not cover it.
            if let Some(s) = self.last_source.take() {
                self.vis.clear_touched(&[s]);
            }
            for f in self.bv_cur.iter_mut() {
                f.clear();
            }
            for f in self.bv_next.iter_mut() {
                f.clear();
            }
            self.levels.with_mut(0, Vec::clear);
        }
        self.runs += 1;
        self.last_source = Some(source);
        self.dp.set(source, 0, source);
        self.vis.mark(source);
        self.bv_cur.with_mut(0, |f| f.push(source));
    }
}

/// The BFS engine: graph + topology + options.
pub struct BfsEngine<'g> {
    graph: &'g CsrGraph,
    topology: Topology,
    pool: SocketPool,
    options: BfsOptions,
    geometry: BinGeometry,
    encoding: ResolvedEncoding,
    /// Always-on sharded metrics: one padded slot per pool thread plus a
    /// driver slot; workers flush their private counters at region exit.
    metrics: MetricsRegistry,
    /// Hardware-counter availability, probed once at construction when
    /// [`BfsOptions::hw_counters`] is set.
    hw: HwCounterStatus,
    /// Hugepage-arena availability, probed once at construction when
    /// [`BfsOptions::huge_pages`] is set.
    hugepages: HugepageStatus,
    /// The bottom-up scan range of each lane (see [`bottom_up_plan`]).
    bottom_up_plan: Vec<Range<usize>>,
}

impl<'g> BfsEngine<'g> {
    /// Builds an engine. The bin geometry follows §III-A/§III-C(1) from the
    /// topology's LLC size unless overridden.
    pub fn new(graph: &'g CsrGraph, topology: Topology, options: BfsOptions) -> Self {
        topology.validate();
        assert!(
            graph.num_vertices() <= bfs_graph::MAX_VERTICES,
            "graph too large for the marker encoding"
        );
        let n = graph.num_vertices();
        let geometry = match options.n_vis_override {
            Some(nv) => BinGeometry::with_n_vis(n, topology.sockets, nv),
            None => BinGeometry::from_llc(n, topology.sockets, topology.llc_bytes),
        };
        let rho_estimate = graph.average_degree().max(1.0);
        let encoding = options.encoding.resolve(geometry.n_bins, rho_estimate);
        let hw = if options.hw_counters {
            match bfs_perf::availability() {
                Ok(()) => HwCounterStatus::Enabled,
                Err(reason) => HwCounterStatus::Unavailable(reason),
            }
        } else {
            HwCounterStatus::Disabled
        };
        let hugepages = if options.huge_pages {
            match bfs_platform::hugepage::availability() {
                Ok(()) => HugepageStatus::Enabled,
                Err(reason) => HugepageStatus::Unavailable(reason),
            }
        } else {
            HugepageStatus::Disabled
        };
        Self {
            graph,
            topology,
            pool: SocketPool::new(topology),
            options,
            geometry,
            encoding,
            metrics: MetricsRegistry::new(topology.total_threads()),
            hw,
            hugepages,
            bottom_up_plan: bottom_up_plan(
                graph.offsets(),
                &geometry,
                &topology,
                options.scheduling,
            ),
        }
    }

    /// The graph this engine traverses.
    pub fn graph(&self) -> &'g CsrGraph {
        self.graph
    }

    /// The engine's bin geometry (N_VIS, N_PBV, bin↔socket map).
    pub fn geometry(&self) -> &BinGeometry {
        &self.geometry
    }

    /// The resolved PBV encoding.
    pub fn encoding(&self) -> ResolvedEncoding {
        self.encoding
    }

    /// The options in effect.
    pub fn options(&self) -> &BfsOptions {
        &self.options
    }

    /// Hardware-counter availability for this engine:
    /// [`HwCounterStatus::Disabled`] unless requested via
    /// [`BfsOptions::hw_counters`], then the probed outcome.
    pub fn hw_status(&self) -> &HwCounterStatus {
        &self.hw
    }

    /// Hugepage-arena availability for this engine:
    /// [`HugepageStatus::Disabled`] unless requested via
    /// [`BfsOptions::huge_pages`], then the probed outcome.
    pub fn hugepage_status(&self) -> &HugepageStatus {
        &self.hugepages
    }

    /// Whether the traversal arenas this engine builds actually land in
    /// hugepage-backed memory (sufficiently large ones, when the probe
    /// succeeded).
    pub fn hugepages_active(&self) -> bool {
        self.hugepages.active()
    }

    /// Merged view of the always-on metrics registry. `&mut self` proves no
    /// traversal is in flight, so the merge needs no synchronization.
    pub fn metrics_snapshot(&mut self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Zeroes every metrics slot (counters and histograms).
    pub fn reset_metrics(&mut self) {
        self.metrics.reset()
    }

    /// Mutable access to the always-on registry, for drivers that record
    /// their own driver-scope series next to the engine's (e.g. the serve
    /// admission layer's request-lifecycle spans). `&mut self` proves no
    /// traversal is in flight, so the single-writer discipline holds.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Runs a traversal from `source`.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn run(&self, source: VertexId) -> BfsOutput {
        self.run_traced(source, &NoopSink)
    }

    /// Runs a traversal from `source`, emitting one [`RunEvent`] and one
    /// [`StepEvent`] per BFS level into `sink`.
    ///
    /// Event assembly (per-thread timing vectors, bin occupancies, the `DP`
    /// scan behind per-step duplicate counts) only happens when
    /// `sink.enabled()`; with a [`NoopSink`] this is exactly [`run`](Self::run).
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn run_traced(&self, source: VertexId, sink: &dyn TraceSink) -> BfsOutput {
        let mut state = RunState::new(self, false);
        let mut out = BfsOutput::default();
        self.run_with_state(&mut state, source, None, sink, "engine", &mut out);
        out
    }

    /// The traversal core: resets and seeds `state` for `source`, runs the
    /// SPMD region of Figure 3 on the persistent pool, and writes results
    /// into `out`, reusing its allocations.
    ///
    /// The region ends with the [`materialize`] epilogue on every lane.
    /// With `perm`, `source` is an internal id and the answer comes out in
    /// external id order. `stats.total_time` stops before the epilogue.
    ///
    /// [`run_traced`](Self::run_traced) calls this with a throwaway
    /// [`RunState`]; a [`crate::session::BfsSession`] calls it with a
    /// long-lived one, which is what makes warm queries allocation-free for
    /// frontier, bin, `DP`, and `VIS` storage.
    pub(crate) fn run_with_state(
        &self,
        state: &mut RunState,
        source: VertexId,
        perm: Option<&VertexPermutation>,
        sink: &dyn TraceSink,
        engine_name: &str,
        out: &mut BfsOutput,
    ) {
        let n = self.graph.num_vertices();
        assert!((source as usize) < n, "source out of range");
        let t0 = Instant::now();
        let nthreads = self.topology.total_threads();
        let tracing = sink.enabled();
        if tracing {
            sink.record(&TraceEvent::Run(RunEvent {
                engine: engine_name.to_string(),
                vertices: n as u64,
                edges: self.graph.num_edges(),
                source,
                sockets: self.topology.sockets,
                lanes_per_socket: self.topology.lanes_per_socket,
                threads: nthreads,
                n_vis: Some(self.geometry.n_vis),
                n_pbv: Some(self.geometry.n_bins),
                encoding: Some(format!("{:?}", self.encoding)),
                scheduling: Some(format!("{:?}", self.options.scheduling)),
                vis: Some(format!("{:?}", self.options.vis)),
            }));
        }

        state.prepare(source);
        // The SPMD region only needs shared access; per-thread mutation goes
        // through the `ThreadOwned` cells.
        let state = &*state;
        let track_touched = state.track_touched;

        // Frontier-size and frontier-out-degree accumulators, double-
        // buffered by step parity (reset happens a full barrier before the
        // next use of a slot). Slot 0 is pre-seeded with the source frontier
        // so the step-1 direction decision sees `n_f = 1`,
        // `m_f = deg(source)`.
        let adaptive = matches!(self.options.direction, DirectionPolicy::Auto { .. });
        let source_degree = self.graph.degree(source) as u64;
        let totals = [AtomicU64::new(1), AtomicU64::new(0)];
        let edge_totals = [AtomicU64::new(source_degree), AtomicU64::new(0)];
        // Out-degrees of everything claimed so far (duplicates included):
        // the explored side of the α rule's unexplored-edge estimate.
        let explored = AtomicU64::new(source_degree);
        // Sized here, written by the epilogue lanes; a warm output already
        // has length `n`, so this is a no-op on the session path.
        out.depths.resize(n, INF_DEPTH);
        out.parents.resize(n, VertexId::MAX);
        let depths = as_atomic(&mut out.depths);
        let parents = as_atomic(&mut out.parents);
        // Next unclaimed epilogue chunk (see `materialize`).
        let epilogue_cursor = AtomicUsize::new(0);

        let counters = self.pool.run(|ctx| {
            let tid = ctx.thread_id;
            // Held for the whole region: per-step histogram observations go
            // straight to the thread's padded slot; counter totals flush
            // once at region exit. No allocation on this path.
            let mut mw = self.metrics.writer(tid);
            // Per-thread hardware counter group, sampled at the phase
            // seams. None unless the construction-time probe succeeded;
            // a thread-level open failure degrades that thread silently.
            let mut hw = if self.hw == HwCounterStatus::Enabled {
                HwSampler::open()
            } else {
                None
            };
            let mut c = Counters {
                enqueued: 0,
                binning_ops: 0,
                edge_checks: 0,
                scattered: 0,
                bin_entries: 0,
                phase1: Duration::ZERO,
                phase2: Duration::ZERO,
                bottom_up: Duration::ZERO,
                rearrange: Duration::ZERO,
                barrier_ns: 0,
                levels_time: Duration::ZERO,
                visited: 0,
                traversed: 0,
            };
            // Direction of the level being executed. Every thread evaluates
            // the same pure decision on accumulators that are stable between
            // the previous step's last barrier and this step's first write,
            // so all threads agree without extra communication.
            let mut dir = Direction::TopDown;
            // Bitmap half holding the current frontier on bottom-up levels;
            // `handed_off` when the previous level was bottom-up and wrote
            // it, so no sparse → dense conversion is needed (and a top-down
            // level must zero it).
            let mut bitmap_half = 0;
            let mut handed_off = false;
            // Whether the lanes' `unvisited` lists are this run's (set by
            // its first bottom-up level).
            let mut listed = false;
            let mut step: u32 = 1;
            loop {
                assert!(
                    step <= n as u32 + 1,
                    "BFS failed to terminate after {step} steps"
                );
                let prev_slot = ((step & 1) ^ 1) as usize;
                dir = self.options.direction.decide(
                    dir,
                    DecisionInputs {
                        frontier_vertices: totals[prev_slot].load(Ordering::Relaxed),
                        frontier_edges: edge_totals[prev_slot].load(Ordering::Relaxed),
                        unexplored_edges: self
                            .graph
                            .num_edges()
                            .saturating_sub(explored.load(Ordering::Relaxed)),
                        total_vertices: n as u64,
                    },
                );
                if tid == 0 {
                    totals[(step & 1) as usize].store(0, Ordering::Relaxed);
                    edge_totals[(step & 1) as usize].store(0, Ordering::Relaxed);
                }
                let scattered_before = c.scattered;
                // Drop whatever accumulated since the last seam (loop
                // bookkeeping, previous step's tail) from attribution.
                if let Some(h) = hw.as_mut() {
                    h.resync();
                }
                let p1 = Instant::now();
                match dir {
                    // Bottom-up "Phase I": unless the previous bottom-up
                    // level handed the frontier off dense, publish this
                    // thread's sparse frontier list into the bitmap
                    // (relaxed ORs, read only after the barrier).
                    Direction::BottomUp => {
                        if !handed_off {
                            state
                                .bv_cur
                                .read(tid, |f| state.frontier_bitmap.set_list(bitmap_half, f));
                        }
                    }
                    Direction::TopDown => match self.options.scheduling {
                        Scheduling::NoMultiSocketOpt => {
                            self.expand_direct(
                                ctx.thread_id,
                                nthreads,
                                &state.bv_cur,
                                &state.bv_next,
                                &state.dp,
                                &state.vis,
                                step,
                                &mut c,
                            );
                        }
                        _ => {
                            self.phase_one(
                                tid,
                                nthreads,
                                &state.bv_cur,
                                &state.bins,
                                &state.scratch,
                                &mut c,
                            );
                        }
                    },
                }
                let d1 = p1.elapsed();
                c.phase1 += d1;
                // Phase I hardware sample, mirroring `Phase1Ns` semantics
                // (on bottom-up levels this covers the bitmap publish);
                // taken before the barrier so wait time stays out.
                if let Some(h) = hw.as_mut() {
                    h.sample(0);
                }
                c.barrier_ns += ctx.timed_barrier().1;
                if let Some(h) = hw.as_mut() {
                    h.resync();
                }

                let mut d2 = Duration::ZERO;
                let checks_before = c.edge_checks;
                match dir {
                    Direction::BottomUp => {
                        let p2 = Instant::now();
                        self.bottom_up_step(tid, state, bitmap_half, step, listed, &mut c);
                        listed = true;
                        d2 = p2.elapsed();
                        c.phase2 += d2;
                        c.bottom_up += d2;
                        if let Some(h) = hw.as_mut() {
                            h.sample(2);
                        }
                    }
                    Direction::TopDown
                        if self.options.scheduling != Scheduling::NoMultiSocketOpt =>
                    {
                        let p2 = Instant::now();
                        self.phase_two(
                            tid,
                            nthreads,
                            &state.bins,
                            &state.bv_next,
                            &state.dp,
                            &state.vis,
                            step,
                            &mut c,
                        );
                        d2 = p2.elapsed();
                        c.phase2 += d2;
                        if let Some(h) = hw.as_mut() {
                            h.sample(1);
                        }
                    }
                    Direction::TopDown => {}
                }

                let mut dr = Duration::ZERO;
                // Bottom-up output is built by an ascending vertex scan, so
                // it is already page-window sorted; rearranging would be a
                // no-op pass.
                if self.options.rearrange && dir == Direction::TopDown {
                    let pr = Instant::now();
                    state.scratch.with_mut(tid, |(tmp, _)| {
                        state.bv_next.with_mut(tid, |f| {
                            rearrange_frontier(
                                f,
                                self.graph,
                                self.topology.page_bytes,
                                self.topology.tlb_entries,
                                tmp,
                            );
                        });
                    });
                    dr = pr.elapsed();
                    c.rearrange += dr;
                    if let Some(h) = hw.as_mut() {
                        h.sample(3);
                    }
                }
                let mine = state.bv_next.with_mut(tid, |f| {
                    if track_touched {
                        // Log the vertices this run marks so the next
                        // `prepare` can clear VIS in O(touched).
                        state.touched.with_mut(tid, |t| t.extend_from_slice(f));
                    }
                    f.len() as u64
                });
                // Out-degree sum of this thread's enqueues: the next level's
                // `m_f` and the explored-edge running total. Only the
                // adaptive policy reads these, so forced policies skip the
                // degree walk.
                let mine_edges: u64 = if adaptive {
                    state.bv_next.read(tid, |f| {
                        f.iter().map(|&v| self.graph.degree(v) as u64).sum()
                    })
                } else {
                    0
                };
                c.enqueued += mine;
                mw.observe(MetricHist::StepNs, (d1 + d2 + dr).as_nanos() as u64);
                // Unconditional (six stores per thread per step): the
                // leader's level digest reads these even when full
                // tracing is off.
                state.step_scratch.with_mut(tid, |s| {
                    *s = StepScratch {
                        phase1_ns: d1.as_nanos() as u64,
                        phase2_ns: d2.as_nanos() as u64,
                        rearrange_ns: dr.as_nanos() as u64,
                        enqueued: mine,
                        edge_checks: c.edge_checks - checks_before,
                        scattered: c.scattered - scattered_before,
                    };
                });
                totals[(step & 1) as usize].fetch_add(mine, Ordering::Relaxed);
                if adaptive {
                    edge_totals[(step & 1) as usize].fetch_add(mine_edges, Ordering::Relaxed);
                    explored.fetch_add(mine_edges, Ordering::Relaxed);
                }
                c.barrier_ns += ctx.timed_barrier().1;
                let total = totals[(step & 1) as usize].load(Ordering::Relaxed);
                if tid == 0 && total > 0 {
                    // The level's one record: critical-path (max over
                    // threads) phase times from the step scratch. No DP
                    // scan (unlike `emit_step_event`), and no allocation
                    // once the log has grown to the session's deepest run.
                    let (mut p1, mut p2, mut pr) = (0u64, 0u64, 0u64);
                    for t in 0..nthreads {
                        state.step_scratch.read(t, |s| {
                            p1 = p1.max(s.phase1_ns);
                            p2 = p2.max(s.phase2_ns);
                            pr = pr.max(s.rearrange_ns);
                        });
                    }
                    let level = LevelDigest {
                        step,
                        top_down: dir == Direction::TopDown,
                        frontier: total,
                        phase1_ns: p1,
                        phase2_ns: p2,
                        rearrange_ns: pr,
                    };
                    state.levels.with_mut(0, |log| log.push(level));
                    if tracing {
                        self.emit_step_event(
                            sink,
                            &level,
                            &state.step_scratch,
                            &state.bins,
                            &state.dp,
                        );
                    }
                }
                // Zero this lane's stripe of the half nobody reads any
                // more: every reader is past the barrier above, and the
                // next write into it starts after the barrier below. A
                // bottom-up level consumed `bitmap_half` and hands the
                // other half (its claims) to the next level; a top-down
                // level drops a handed-off half unread. Both halves are
                // thus all-zero at run end, which is what makes session
                // reuse free. Then swap own frontier buffers and clear the
                // consumed one.
                if dir == Direction::BottomUp || handed_off {
                    state
                        .frontier_bitmap
                        .clear_stripe(bitmap_half, tid, nthreads);
                }
                handed_off = dir == Direction::BottomUp;
                if handed_off {
                    bitmap_half ^= 1;
                }
                state.bv_cur.with_mut(tid, |cur| {
                    state.bv_next.with_mut(tid, |next| {
                        std::mem::swap(cur, next);
                        next.clear();
                    });
                });
                // Same epochs for the unclaimed-id lists: every reader of
                // `unvisited` is past the barrier above.
                if dir == Direction::BottomUp {
                    state.unvisited.with_mut(tid, |cur| {
                        state
                            .unvisited_next
                            .with_mut(tid, |next| std::mem::swap(cur, next));
                    });
                }
                c.barrier_ns += ctx.timed_barrier().1;
                if total == 0 {
                    break;
                }
                step += 1;
            }
            c.levels_time = t0.elapsed();
            // `DP` is final: nobody writes it after the last barrier.
            (c.visited, c.traversed) = materialize(
                self.graph,
                &state.dp,
                perm,
                &epilogue_cursor,
                depths,
                parents,
            );
            // Flush the region's thread-scope totals into this thread's
            // metrics slot: ten plain adds, once per query.
            mw.add(Metric::Phase1Ns, c.phase1.as_nanos() as u64);
            mw.add(Metric::Phase2Ns, (c.phase2 - c.bottom_up).as_nanos() as u64);
            mw.add(Metric::BottomUpNs, c.bottom_up.as_nanos() as u64);
            mw.add(Metric::RearrangeNs, c.rearrange.as_nanos() as u64);
            mw.add(Metric::BarrierNs, c.barrier_ns);
            mw.add(Metric::ScatteredEdges, c.scattered);
            mw.add(Metric::BinEntries, c.bin_entries);
            mw.add(Metric::EdgeChecks, c.edge_checks);
            mw.add(Metric::Enqueued, c.enqueued);
            mw.add(Metric::BinningOps, c.binning_ops);
            // Hardware counters: 16 more adds when sampling ran, through
            // the same unsynchronized per-slot path.
            if let Some(h) = &hw {
                for (phase, metrics) in Metric::HW_BY_PHASE.iter().enumerate() {
                    for (event, &m) in metrics.iter().enumerate() {
                        mw.add(m, h.acc[phase].get(event));
                    }
                }
            }
            c
        });

        let total_time = counters[0].levels_time;
        let visited: u64 = counters.iter().map(|c| c.visited).sum();
        let traversed: u64 = counters.iter().map(|c| c.traversed).sum();
        // Views of the level record, built in `out`'s retained vectors.
        // `frontier_sizes[0]` is the source frontier (see `TraversalStats`).
        let mut frontier_sizes = std::mem::take(&mut out.stats.frontier_sizes);
        let mut step_directions = std::mem::take(&mut out.stats.step_directions);
        frontier_sizes.clear();
        frontier_sizes.push(1);
        step_directions.clear();
        state.levels.read(0, |levels| {
            frontier_sizes.extend(levels.iter().map(|l| l.frontier));
            step_directions.extend(levels.iter().map(level_direction));
        });
        let enqueued: u64 = counters.iter().map(|c| c.enqueued).sum();
        out.stats = TraversalStats {
            steps: frontier_sizes.len() as u32 - 1,
            visited_vertices: visited,
            traversed_edges: traversed,
            duplicate_enqueues: (enqueued + 1).saturating_sub(visited),
            frontier_sizes,
            step_directions,
            bottom_up_edge_checks: counters.iter().map(|c| c.edge_checks).sum(),
            phase1_time: counters.iter().map(|c| c.phase1).max().unwrap_or_default(),
            phase2_time: counters.iter().map(|c| c.phase2).max().unwrap_or_default(),
            rearrange_time: counters
                .iter()
                .map(|c| c.rearrange)
                .max()
                .unwrap_or_default(),
            total_time,
            binning_ops: counters.iter().map(|c| c.binning_ops).sum(),
        };

        // Driver-scope metrics: recorded once per query from the finished
        // stats, so the hot loop carries no driver-side work at all.
        let stats = &out.stats;
        let mut dm = self.metrics.driver();
        let td_steps = stats
            .step_directions
            .iter()
            .filter(|d| **d == Direction::TopDown)
            .count() as u64;
        dm.add(Metric::Queries, 1);
        dm.add(Metric::QueryNs, total_time.as_nanos() as u64);
        dm.add(Metric::Steps, stats.steps as u64);
        dm.add(Metric::TopDownSteps, td_steps);
        dm.add(
            Metric::BottomUpSteps,
            stats.step_directions.len() as u64 - td_steps,
        );
        dm.add(
            Metric::DirectionSwitches,
            count_switches(&stats.step_directions),
        );
        dm.add(Metric::VisitedVertices, stats.visited_vertices);
        dm.add(Metric::TraversedEdges, stats.traversed_edges);
        dm.add(Metric::DuplicateEnqueues, stats.duplicate_enqueues);
        dm.observe(MetricHist::QueryNs, total_time.as_nanos() as u64);
        for &f in &stats.frontier_sizes {
            dm.observe(MetricHist::FrontierSize, f);
        }
    }

    /// Assembles and records the step's [`StepEvent`] on the leader, between
    /// the step's last two barriers: every thread's `step_scratch` and bins
    /// are in their read epoch, and nobody writes `DP` until the next step.
    /// Step, frontier and direction come from the level record just pushed.
    fn emit_step_event(
        &self,
        sink: &dyn TraceSink,
        level: &LevelDigest,
        step_scratch: &ThreadOwned<StepScratch>,
        bins: &ThreadOwned<BinSet>,
        dp: &DepthParent,
    ) {
        let (step, dir) = (level.step, level_direction(level));
        let nthreads = step_scratch.len();
        let threads: Vec<ThreadStep> = (0..nthreads)
            .map(|t| {
                step_scratch.read(t, |s| ThreadStep {
                    thread: t,
                    phase1_ns: s.phase1_ns,
                    phase2_ns: s.phase2_ns,
                    rearrange_ns: s.rearrange_ns,
                    enqueued: s.enqueued,
                    edge_checks: s.edge_checks,
                })
            })
            .collect();
        // Bins are bypassed entirely on bottom-up levels, so their
        // occupancies (from whichever top-down level last filled them) would
        // be stale noise.
        let bin_occupancy: Vec<u64> = if self.options.scheduling == Scheduling::NoMultiSocketOpt
            || dir == Direction::BottomUp
        {
            Vec::new()
        } else {
            (0..self.geometry.n_bins)
                .map(|b| {
                    (0..nthreads)
                        .map(|t| bins.read(t, |bs| bs.bin_len(b)) as u64)
                        .sum()
                })
                .collect()
        };
        // Distinct vertices claimed this step: an O(|V|) relaxed scan, paid
        // only when tracing. Enqueues beyond that are the benign-race
        // duplicates of this step.
        let claimed = (0..self.graph.num_vertices() as u32)
            .filter(|&v| dp.depth(v) == step)
            .count() as u64;
        // Bottom-up levels scatter nothing; `None` keeps the attribution
        // report from treating them as zero-traffic top-down steps.
        let scattered = (dir == Direction::TopDown).then(|| {
            (0..nthreads)
                .map(|t| step_scratch.read(t, |s| s.scattered))
                .sum()
        });
        sink.record(&TraceEvent::Step(StepEvent {
            step,
            frontier: level.frontier,
            duplicates: level.frontier.saturating_sub(claimed),
            direction: Some(dir.as_str().to_string()),
            threads,
            bin_occupancy,
            scattered,
        }));
    }

    /// Phase I: bin the neighbors of this thread's share of the frontier.
    fn phase_one(
        &self,
        tid: usize,
        nthreads: usize,
        bv_cur: &ThreadOwned<Vec<VertexId>>,
        bins: &ThreadOwned<BinSet>,
        scratch: &ThreadOwned<(Vec<VertexId>, Vec<u32>)>,
        c: &mut Counters,
    ) {
        // Deterministic division: every thread derives the same plan from
        // the (now read-only) frontier lengths.
        let streams: Vec<Stream> = (0..nthreads)
            .map(|t| Stream {
                bin: t,
                owner: t,
                len: bv_cur.read(t, |f| f.len()),
            })
            .collect();
        let my_segments: Vec<Segment> = match self.options.scheduling {
            Scheduling::SocketAwareStatic => {
                let lanes = self.topology.lanes_per_socket;
                divide_static(&streams, |b| b / lanes, self.topology.sockets, lanes, 1)
                    .swap_remove(tid)
            }
            _ => divide_even(&streams, nthreads, 1).swap_remove(tid),
        };
        let pref = self.options.prefetch_distance;
        let offsets = self.graph.offsets();
        let raw = self.graph.raw_neighbors();
        // The bin-index buffer lives in the thread's scratch cell so its
        // allocation is reused across steps instead of regrown each step.
        scratch.with_mut(tid, |(_, idx_buf)| {
            bins.with_mut(tid, |my_bins| {
                my_bins.clear();
                for seg in &my_segments {
                    bv_cur.read(seg.owner, |frontier| {
                        let window = &frontier[seg.range.clone()];
                        for (k, &u) in window.iter().enumerate() {
                            if pref > 0 {
                                if let Some(&next_u) = window.get(k + pref) {
                                    // Prefetch the adjacency pointer and the
                                    // first neighbor line (§III-C(3)).
                                    prefetch_slice_element(offsets, next_u as usize);
                                    let off = offsets[next_u as usize] as usize;
                                    prefetch_slice_element(raw, off);
                                }
                            }
                            let neighbors = self.graph.neighbors(u);
                            c.scattered += neighbors.len() as u64;
                            my_bins.begin_vertex(u);
                            c.binning_ops += bin_indices(
                                self.options.bin_kernel,
                                neighbors,
                                self.geometry.bin_shift,
                                idx_buf,
                            );
                            for (&v, &b) in neighbors.iter().zip(idx_buf.iter()) {
                                my_bins.push_neighbor(b as usize, v);
                            }
                        }
                    });
                }
            });
        });
    }

    /// Phase II: walk assigned bin windows, filter through VIS, claim DP,
    /// build the next frontier.
    #[allow(clippy::too_many_arguments)]
    fn phase_two(
        &self,
        tid: usize,
        nthreads: usize,
        bins: &ThreadOwned<BinSet>,
        bv_next: &ThreadOwned<Vec<VertexId>>,
        dp: &DepthParent,
        vis: &Vis,
        step: u32,
        c: &mut Counters,
    ) {
        let align = self.encoding.alignment();
        // Bin-major stream order: a part's share is contiguous in bin order,
        // which is both the locality story (§III-B3(a)) and the VIS
        // partition residency story (§III-A).
        let mut streams = Vec::with_capacity(self.geometry.n_bins * nthreads);
        for b in 0..self.geometry.n_bins {
            for t in 0..nthreads {
                streams.push(Stream {
                    bin: b,
                    owner: t,
                    len: bins.read(t, |bs| bs.bin_len(b)),
                });
            }
        }
        let my_segments: Vec<Segment> = match self.options.scheduling {
            Scheduling::SocketAwareStatic => divide_static(
                &streams,
                |b| self.geometry.socket_of_bin(b),
                self.topology.sockets,
                self.topology.lanes_per_socket,
                align,
            )
            .swap_remove(tid),
            _ => divide_even(&streams, nthreads, align).swap_remove(tid),
        };
        bv_next.with_mut(tid, |next| {
            for seg in &my_segments {
                bins.read(seg.owner, |bs| {
                    decode_window(
                        bs.bin(seg.bin),
                        seg.range.start,
                        seg.range.end,
                        self.encoding,
                        |parent, v| {
                            c.bin_entries += 1;
                            if vis.definitely_visited_or_mark(v) {
                                return;
                            }
                            let claimed = match self.options.vis {
                                // The atomic fetch_or already guarantees
                                // exactly-once, so the DP write is a plain
                                // store (Figure 2(a)).
                                VisScheme::AtomicBit | VisScheme::AtomicBitTest => {
                                    dp.set(v, step, parent);
                                    true
                                }
                                _ => dp.claim_relaxed(v, step, parent),
                            };
                            if claimed {
                                next.push(v);
                            }
                        },
                    );
                });
            }
        });
    }

    /// Bottom-up step kernel: probe each unclaimed vertex of this lane's
    /// share against the frontier bitmap's `half`, claiming on the first
    /// hit (early exit — a vertex with `k` frontier parents costs 1 check
    /// instead of `k` claim attempts). Each claim also goes into the other
    /// half, one `fetch_or` per word the scan fills, so the next bottom-up
    /// level gets its frontier dense.
    ///
    /// The run's first bottom-up level (`listed` false) scans this lane's
    /// range of the engine's [`bottom_up_plan`], made once per engine. The
    /// plan covers only the live id prefix: every id past the last one with
    /// an edge has degree 0, no probe can claim it, and degree-ordered
    /// relabeling puts all such ids there (on RMAT 21 they are 41% of the id
    /// space). Every bottom-up level writes the ids it leaves unclaimed to
    /// the lane's `unvisited_next`, and each later one walks the lanes'
    /// lists instead of a range: re-scanning ids claimed long ago (with an
    /// adjacency prefetch each) cost a late level as much as a busy one.
    /// A later level splits the concatenated lists evenly (within each
    /// socket under `SocketAwareStatic`), because a lane whose range was
    /// claimed early would otherwise idle while its neighbor works.
    ///
    /// Either way a lane takes a contiguous, ascending piece of the id
    /// order, so the scanned `VIS`/`DP`/bitmap stripes stay cache-resident
    /// (§III-A) and the output frontier is page-window sorted. Pieces are
    /// disjoint, so every vertex has exactly one claiming thread and the
    /// `DP` write is a single plain store with no race at all (stronger
    /// than the benign top-down claim race), and a vertex's parent is its
    /// first frontier neighbor in neighbor order, whatever the lane count.
    ///
    /// Correctness requires the repo's symmetric doubled-edge convention:
    /// `neighbors(v)` must contain every frontier vertex that has an edge to
    /// `v` (out-neighbors = in-neighbors).
    fn bottom_up_step(
        &self,
        tid: usize,
        state: &RunState,
        half: usize,
        step: u32,
        listed: bool,
        c: &mut Counters,
    ) {
        // This level's claims, built a word at a time: the next level's
        // frontier, handed off dense.
        let mut claims = state.frontier_bitmap.writer(half ^ 1);
        state.bv_next.with_mut(tid, |next| {
            state.unvisited_next.with_mut(tid, |left| {
                left.clear();
                if !listed {
                    let scan = &self.bottom_up_plan[tid];
                    let ids = scan.start as VertexId..scan.end as VertexId;
                    self.probe_ids(ids, state, half, step, next, left, &mut claims, c);
                    return;
                }
                // This lane's even share of the concatenated lists of its
                // group (its socket under `SocketAwareStatic`, else all).
                let lanes = match self.options.scheduling {
                    Scheduling::SocketAwareStatic => {
                        let per = self.topology.lanes_per_socket;
                        tid / per * per..(tid / per + 1) * per
                    }
                    _ => 0..self.topology.total_threads(),
                };
                let total: usize = lanes
                    .clone()
                    .map(|t| state.unvisited.read(t, Vec::len))
                    .sum();
                let (k, parts) = (tid - lanes.start, lanes.len());
                let (lo, hi) = (total * k / parts, total * (k + 1) / parts);
                let mut base = 0;
                for owner in lanes {
                    state.unvisited.read(owner, |list| {
                        let end = base + list.len();
                        let window = &list[lo.clamp(base, end) - base..hi.clamp(base, end) - base];
                        let ids = window.iter().copied();
                        self.probe_ids(ids, state, half, step, next, left, &mut claims, c);
                        base = end;
                    });
                }
            });
        });
        claims.flush();
    }

    /// The bottom-up probe loop over ascending `ids`: claims each unclaimed
    /// id for its first frontier neighbor in `half` and pushes the ids it
    /// leaves unclaimed to `left`. Inlined into each of its two call sites
    /// (a range and a list window), so each loop is as tight as a plain
    /// range scan; a shared closure measured ~25% slower per level.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn probe_ids(
        &self,
        ids: impl Iterator<Item = VertexId> + Clone,
        state: &RunState,
        half: usize,
        step: u32,
        next: &mut Vec<VertexId>,
        left: &mut Vec<VertexId>,
        claims: &mut BitmapWriter<'_>,
        c: &mut Counters,
    ) {
        let pref = self.options.prefetch_distance;
        let offsets = self.graph.offsets();
        let raw = self.graph.raw_neighbors();
        let (dp, vis, bitmap) = (&state.dp, &state.vis, &state.frontier_bitmap);
        let mut ahead = ids.clone().skip(pref);
        'ids: for v in ids {
            if pref > 0 {
                if let Some(w) = ahead.next() {
                    // Prefetch the adjacency pointer and first neighbor
                    // line of the id `pref` slots ahead (§III-C(3)).
                    prefetch_slice_element(offsets, w as usize);
                    prefetch_slice_element(raw, offsets[w as usize] as usize);
                }
            }
            if vis.is_marked(v) || dp.is_assigned(v) {
                continue;
            }
            for &parent in self.graph.neighbors(v) {
                c.edge_checks += 1;
                if bitmap.contains(half, parent) {
                    dp.set(v, step, parent);
                    vis.mark(v);
                    next.push(v);
                    claims.insert(v);
                    continue 'ids;
                }
            }
            left.push(v);
        }
    }

    /// Single-phase expansion for [`Scheduling::NoMultiSocketOpt`]: no
    /// binning, direct spatially-incoherent VIS/DP updates.
    #[allow(clippy::too_many_arguments)]
    fn expand_direct(
        &self,
        tid: usize,
        nthreads: usize,
        bv_cur: &ThreadOwned<Vec<VertexId>>,
        bv_next: &ThreadOwned<Vec<VertexId>>,
        dp: &DepthParent,
        vis: &Vis,
        step: u32,
        c: &mut Counters,
    ) {
        let streams: Vec<Stream> = (0..nthreads)
            .map(|t| Stream {
                bin: t,
                owner: t,
                len: bv_cur.read(t, |f| f.len()),
            })
            .collect();
        let my_segments = divide_even(&streams, nthreads, 1).swap_remove(tid);
        let pref = self.options.prefetch_distance;
        let offsets = self.graph.offsets();
        bv_next.with_mut(tid, |next| {
            for seg in &my_segments {
                bv_cur.read(seg.owner, |frontier| {
                    let window = &frontier[seg.range.clone()];
                    for (k, &u) in window.iter().enumerate() {
                        if pref > 0 {
                            if let Some(&next_u) = window.get(k + pref) {
                                prefetch_slice_element(offsets, next_u as usize);
                            }
                        }
                        let neighbors = self.graph.neighbors(u);
                        c.scattered += neighbors.len() as u64;
                        for &v in neighbors {
                            if vis.definitely_visited_or_mark(v) {
                                continue;
                            }
                            let claimed = match self.options.vis {
                                VisScheme::AtomicBit | VisScheme::AtomicBitTest => {
                                    dp.set(v, step, u);
                                    true
                                }
                                _ => dp.claim_relaxed(v, step, u),
                            };
                            if claimed {
                                next.push(v);
                            }
                        }
                    }
                });
            }
        });
    }
}

/// The kernel a recorded level ran (`step_directions` is this view of the
/// level record).
fn level_direction(level: &LevelDigest) -> Direction {
    if level.top_down {
        Direction::TopDown
    } else {
        Direction::BottomUp
    }
}

/// The bottom-up scan plan: one contiguous id range per lane, made once
/// per engine. Only the live prefix `[0, live)` is planned, `live` being
/// one past the last id with an edge (`offsets` is the degree prefix sum,
/// so every id from `live` on has degree 0 and can never be claimed by a
/// probe). `SocketAwareStatic` clips each socket's `DP`/`VIS` stripe to
/// the prefix and splits it among that socket's lanes (threads are
/// numbered socket-major); the other schedulings split the prefix evenly
/// across all lanes. Range lengths within one split differ by at most 1.
///
/// The split counts ids, not edges: by the time a traversal goes bottom-up
/// the heavy ids at the front of a degree-ordered graph are mostly
/// claimed already, so an edge-weighted split left lane 0 almost idle on
/// RMAT 21 (EXPERIMENTS.md, "Bottom-up scan planned over the live
/// prefix").
fn bottom_up_plan(
    offsets: &[u64],
    geometry: &BinGeometry,
    topology: &Topology,
    scheduling: Scheduling,
) -> Vec<Range<usize>> {
    let edges = offsets.last().copied().unwrap_or(0);
    let live = offsets.partition_point(|&o| o < edges);
    let split = |r: Range<usize>, parts: usize| {
        (0..parts).map(move |p| r.start + r.len() * p / parts..r.start + r.len() * (p + 1) / parts)
    };
    match scheduling {
        Scheduling::SocketAwareStatic => (0..topology.sockets)
            .flat_map(|s| {
                let stripe = geometry.socket_vertex_range(s);
                split(
                    stripe.start.min(live)..stripe.end.min(live),
                    topology.lanes_per_socket,
                )
            })
            .collect(),
        _ => split(0..live, topology.total_threads()).collect(),
    }
}

/// Internal ids per epilogue chunk.
const EPILOGUE_CHUNK: usize = 8192;

/// The run's epilogue on one lane: claims chunks of [`EPILOGUE_CHUNK`]
/// consecutive internal ids from `cursor` until `0..n` is used up, reads
/// each `DP` word once, writes the vertex's depth and parent (through the
/// inverse map; unreached: `INF_DEPTH` / `VertexId::MAX`) at its external
/// index, and returns the lane's `(visited, traversed)`, traversed being
/// the internal-graph degree sum. Ranging over internal ids keeps every
/// read sequential and scatters only the writes; ranging over external ids
/// measured slower. Claiming chunks rather than taking a fixed `n/T` range
/// keeps the lanes even although degree-ordered relabeling puts the
/// reached, heavy ids at the front.
///
/// The lanes' writes never overlap: each chunk is claimed by exactly one
/// `fetch_add`, so the chunks partition `0..n`, and the inverse map of a
/// [`VertexPermutation`] is a bijection on `0..n` (every constructor checks
/// or builds one, and the graph pins its length to `n`). The stores are
/// relaxed atomics only because the arrays are shared; they compile to
/// plain moves, and the pool's finish barrier (an AcqRel episode) publishes
/// them to the caller.
fn materialize(
    graph: &CsrGraph,
    dp: &DepthParent,
    perm: Option<&VertexPermutation>,
    cursor: &AtomicUsize,
    depths: &[AtomicU32],
    parents: &[AtomicU32],
) -> (u64, u64) {
    let n = dp.len();
    let inverse = perm.map(VertexPermutation::inverse);
    let external = |v: VertexId| inverse.map_or(v, |inv| inv[v as usize]);
    let (mut visited, mut traversed) = (0u64, 0u64);
    loop {
        let start = cursor.fetch_add(EPILOGUE_CHUNK, Ordering::Relaxed);
        if start >= n {
            break;
        }
        for v in start as VertexId..(start + EPILOGUE_CHUNK).min(n) as VertexId {
            let (depth, parent) = match dp.get(v) {
                Some((depth, parent)) => {
                    visited += 1;
                    traversed += graph.degree(v) as u64;
                    (depth, external(parent))
                }
                None => (INF_DEPTH, VertexId::MAX),
            };
            let ext = external(v) as usize;
            depths[ext].store(depth, Ordering::Relaxed);
            parents[ext].store(parent, Ordering::Relaxed);
        }
    }
    (visited, traversed)
}

/// Views an answer array as relaxed-atomic cells, so every epilogue lane
/// can write its share through a shared reference.
fn as_atomic(v: &mut [u32]) -> &[AtomicU32] {
    const { assert!(std::mem::align_of::<AtomicU32>() == std::mem::align_of::<u32>()) };
    // SAFETY: `AtomicU32` has the size and bit validity of `u32` and,
    // checked above, its alignment, so the cast preserves layout. The view
    // holds the exclusive borrow of `v` for its whole lifetime, so no
    // non-atomic access can alias the cells while lanes write them.
    unsafe { &*(v as *mut [u32] as *const [AtomicU32]) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::serial_bfs;
    use crate::validate::validate_bfs_tree;
    use bfs_graph::gen::classic::{binary_tree, lollipop, path, star, two_cliques};
    use bfs_graph::gen::rmat::{rmat, RmatConfig};
    use bfs_graph::gen::stress::stress_bipartite;
    use bfs_graph::gen::uniform::uniform_random;
    use bfs_graph::rng::rng_from_seed;

    fn check_against_serial(g: &CsrGraph, source: VertexId, topo: Topology, opts: BfsOptions) {
        let engine = BfsEngine::new(g, topo, opts);
        let out = engine.run(source);
        let reference = serial_bfs(g, source);
        assert_eq!(
            out.depths, reference.depths,
            "depths diverge (opts {opts:?})"
        );
        validate_bfs_tree(g, source, &out.depths, &out.parents).unwrap();
        assert_eq!(out.stats.visited_vertices, reference.visited);
        assert_eq!(out.stats.traversed_edges, reference.traversed_edges);
        assert_eq!(out.stats.steps, reference.max_depth);
    }

    #[test]
    fn classic_graphs_all_schedulings() {
        for scheduling in [
            Scheduling::NoMultiSocketOpt,
            Scheduling::SocketAwareStatic,
            Scheduling::LoadBalanced,
        ] {
            for g in [path(17), star(9), binary_tree(31), lollipop(6, 10)] {
                check_against_serial(
                    &g,
                    0,
                    Topology::synthetic(2, 2),
                    BfsOptions {
                        scheduling,
                        ..Default::default()
                    },
                );
            }
        }
    }

    #[test]
    fn all_vis_schemes_match_serial_on_random_graphs() {
        let g = uniform_random(2000, 8, &mut rng_from_seed(42));
        for vis in VisScheme::ALL {
            check_against_serial(
                &g,
                0,
                Topology::synthetic(2, 2),
                BfsOptions {
                    vis,
                    ..Default::default()
                },
            );
        }
    }

    #[test]
    fn rmat_with_many_threads_and_partitions() {
        let g = rmat(&RmatConfig::paper(11, 8), &mut rng_from_seed(7));
        let src = bfs_graph::stats::nth_non_isolated(&g, 0).unwrap();
        check_against_serial(
            &g,
            src,
            Topology::synthetic(2, 4),
            BfsOptions {
                n_vis_override: Some(4),
                ..Default::default()
            },
        );
    }

    #[test]
    fn stress_graph_all_schedulings() {
        let g = stress_bipartite(512, 6, &mut rng_from_seed(3));
        for scheduling in [
            Scheduling::NoMultiSocketOpt,
            Scheduling::SocketAwareStatic,
            Scheduling::LoadBalanced,
        ] {
            check_against_serial(
                &g,
                0,
                Topology::synthetic(2, 2),
                BfsOptions {
                    scheduling,
                    ..Default::default()
                },
            );
        }
    }

    #[test]
    fn pairs_and_markers_encodings_agree() {
        let g = uniform_random(1000, 4, &mut rng_from_seed(9));
        for encoding in [PbvEncoding::Markers, PbvEncoding::Pairs, PbvEncoding::Auto] {
            check_against_serial(
                &g,
                0,
                Topology::synthetic(2, 2),
                BfsOptions {
                    encoding,
                    ..Default::default()
                },
            );
        }
    }

    #[test]
    fn no_rearrange_no_prefetch_scalar_kernel() {
        let g = uniform_random(800, 6, &mut rng_from_seed(5));
        check_against_serial(
            &g,
            0,
            Topology::synthetic(1, 3),
            BfsOptions {
                rearrange: false,
                prefetch_distance: 0,
                bin_kernel: BinKernel::Scalar,
                ..Default::default()
            },
        );
    }

    #[test]
    fn disconnected_graph_terminates() {
        let g = two_cliques(10, 10);
        check_against_serial(&g, 0, Topology::synthetic(2, 2), BfsOptions::default());
    }

    #[test]
    fn single_vertex_graph() {
        let g = CsrGraph::empty(1);
        let engine = BfsEngine::new(&g, Topology::synthetic(1, 2), BfsOptions::default());
        let out = engine.run(0);
        assert_eq!(out.depths, vec![0]);
        assert_eq!(out.stats.visited_vertices, 1);
        assert_eq!(out.stats.steps, 0);
        // The source frontier is logged even when nothing else is reached.
        assert_eq!(out.stats.frontier_sizes, vec![1]);
    }

    #[test]
    fn oversubscribed_threads_on_tiny_graph() {
        let g = path(3);
        check_against_serial(&g, 1, Topology::synthetic(4, 4), BfsOptions::default());
    }

    #[test]
    fn duplicate_rate_is_tiny() {
        let g = uniform_random(5000, 16, &mut rng_from_seed(11));
        let engine = BfsEngine::new(&g, Topology::synthetic(2, 2), BfsOptions::default());
        let out = engine.run(0);
        assert!(
            out.stats.duplicate_rate() < 0.01,
            "duplicate rate {} far above the paper's 0.2%",
            out.stats.duplicate_rate()
        );
    }

    #[test]
    fn frontier_sizes_sum_to_visited_minus_source() {
        let g = uniform_random(1000, 4, &mut rng_from_seed(13));
        let engine = BfsEngine::new(&g, Topology::synthetic(2, 2), BfsOptions::default());
        let out = engine.run(0);
        // `frontier_sizes[0]` is the source; later entries are per-depth
        // enqueues, duplicates included.
        assert_eq!(out.stats.frontier_sizes[0], 1);
        assert_eq!(out.stats.steps as usize, out.stats.frontier_sizes.len() - 1);
        let sum: u64 = out.stats.frontier_sizes[1..].iter().sum();
        assert_eq!(
            sum,
            out.stats.visited_vertices - 1 + out.stats.duplicate_enqueues
        );
    }

    #[test]
    fn traced_run_emits_run_and_step_events() {
        use bfs_trace::{RingSink, TraceEvent};
        let g = uniform_random(1500, 6, &mut rng_from_seed(21));
        let engine = BfsEngine::new(&g, Topology::synthetic(2, 2), BfsOptions::default());
        let ring = RingSink::new(4096);
        let out = engine.run_traced(0, &ring);
        let events = ring.snapshot();
        let runs: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Run(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].engine, "engine");
        assert_eq!(runs[0].vertices, 1500);
        assert_eq!(runs[0].threads, 4);
        assert_eq!(runs[0].n_pbv, Some(engine.geometry().n_bins));
        let steps: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Step(s) => Some(s),
                _ => None,
            })
            .collect();
        // One step event per depth level, aligned with frontier_sizes[1..].
        assert_eq!(steps.len(), out.stats.steps as usize);
        for (i, s) in steps.iter().enumerate() {
            assert_eq!(s.step as usize, i + 1);
            assert_eq!(s.frontier, out.stats.frontier_sizes[i + 1]);
            assert_eq!(s.threads.len(), 4);
            let enq: u64 = s.threads.iter().map(|t| t.enqueued).sum();
            assert_eq!(enq, s.frontier);
            assert_eq!(s.bin_occupancy.len(), engine.geometry().n_bins);
        }
        // Per-step duplicates sum to the run's total.
        let dups: u64 = steps.iter().map(|s| s.duplicates).sum();
        assert_eq!(dups, out.stats.duplicate_enqueues);
        // Tracing must not perturb results: depths match an untraced run.
        assert_eq!(out.depths, engine.run(0).depths);
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn rejects_bad_source() {
        let g = path(3);
        BfsEngine::new(&g, Topology::synthetic(1, 1), BfsOptions::default()).run(9);
    }

    #[test]
    fn forced_bottom_up_matches_serial_all_schedulings() {
        for scheduling in [
            Scheduling::NoMultiSocketOpt,
            Scheduling::SocketAwareStatic,
            Scheduling::LoadBalanced,
        ] {
            for g in [
                path(17),
                star(9),
                binary_tree(31),
                lollipop(6, 10),
                two_cliques(10, 10),
            ] {
                check_against_serial(
                    &g,
                    0,
                    Topology::synthetic(2, 2),
                    BfsOptions {
                        scheduling,
                        direction: DirectionPolicy::ForcedBottomUp,
                        ..Default::default()
                    },
                );
            }
        }
    }

    #[test]
    fn forced_bottom_up_all_vis_schemes() {
        let g = uniform_random(1500, 8, &mut rng_from_seed(23));
        for vis in VisScheme::ALL {
            check_against_serial(
                &g,
                0,
                Topology::synthetic(2, 2),
                BfsOptions {
                    vis,
                    direction: DirectionPolicy::ForcedBottomUp,
                    ..Default::default()
                },
            );
        }
    }

    #[test]
    fn auto_direction_matches_serial_on_rmat() {
        let g = rmat(&RmatConfig::paper(11, 8), &mut rng_from_seed(7));
        let src = bfs_graph::stats::nth_non_isolated(&g, 0).unwrap();
        check_against_serial(
            &g,
            src,
            Topology::synthetic(2, 4),
            BfsOptions {
                direction: DirectionPolicy::auto(),
                ..Default::default()
            },
        );
    }

    #[test]
    fn step_directions_match_policy_and_steps() {
        let g = uniform_random(2500, 12, &mut rng_from_seed(41));
        let topo = Topology::synthetic(2, 2);
        let td = BfsEngine::new(
            &g,
            topo,
            BfsOptions {
                direction: DirectionPolicy::ForcedTopDown,
                ..Default::default()
            },
        )
        .run(0);
        assert_eq!(td.stats.step_directions.len(), td.stats.steps as usize);
        assert!(td
            .stats
            .step_directions
            .iter()
            .all(|&d| d == Direction::TopDown));
        assert_eq!(td.stats.bottom_up_steps(), 0);
        assert_eq!(td.stats.bottom_up_edge_checks, 0);

        let bu = BfsEngine::new(
            &g,
            topo,
            BfsOptions {
                direction: DirectionPolicy::ForcedBottomUp,
                ..Default::default()
            },
        )
        .run(0);
        assert_eq!(bu.stats.step_directions.len(), bu.stats.steps as usize);
        assert!(bu
            .stats
            .step_directions
            .iter()
            .all(|&d| d == Direction::BottomUp));
        assert!(bu.stats.bottom_up_edge_checks > 0);
        assert_eq!(bu.depths, td.depths);

        // A dense low-diameter graph flips the middle levels bottom-up and
        // the tail back top-down under the default α/β.
        let auto = BfsEngine::new(
            &g,
            topo,
            BfsOptions {
                direction: DirectionPolicy::auto(),
                ..Default::default()
            },
        )
        .run(0);
        assert_eq!(auto.depths, td.depths);
        assert!(
            auto.stats.bottom_up_steps() > 0,
            "auto never went bottom-up"
        );
        assert_eq!(
            auto.stats.step_directions[0],
            Direction::TopDown,
            "a 12-degree source must not trigger the α rule at step 1"
        );
    }

    #[test]
    fn traced_bottom_up_steps_carry_direction_and_edge_checks() {
        use bfs_trace::{RingSink, TraceEvent};
        let g = uniform_random(1500, 6, &mut rng_from_seed(21));
        let engine = BfsEngine::new(
            &g,
            Topology::synthetic(2, 2),
            BfsOptions {
                direction: DirectionPolicy::ForcedBottomUp,
                ..Default::default()
            },
        );
        let ring = RingSink::new(4096);
        let out = engine.run_traced(0, &ring);
        let steps: Vec<_> = ring
            .snapshot()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Step(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(steps.len(), out.stats.steps as usize);
        let mut checks = 0u64;
        for s in &steps {
            assert_eq!(s.direction.as_deref(), Some("bottom-up"));
            assert!(
                s.bin_occupancy.is_empty(),
                "bottom-up levels bypass the bins"
            );
            checks += s.threads.iter().map(|t| t.edge_checks).sum::<u64>();
        }
        assert_eq!(checks, out.stats.bottom_up_edge_checks);
    }

    #[test]
    fn frontier_bitmap_is_zero_between_runs_and_sized_by_policy() {
        // Forced bottom-up chains the hand-off across every level; auto
        // and the oscillating thresholds of
        // `aggressive_thresholds_switch_mid_traversal` drop a handed-off
        // half on a top-down level. The sizes put a word across two lanes'
        // scan ranges and give fewer words than lanes.
        let policies = [
            DirectionPolicy::ForcedBottomUp,
            DirectionPolicy::auto(),
            DirectionPolicy::Auto {
                alpha: 1e12,
                beta: 1e-12,
            },
        ];
        let topologies = (1..=5)
            .map(|t| Topology::synthetic(1, t))
            .chain([Topology::synthetic(2, 2)]);
        for topo in topologies {
            for n in [1usize, 63, 64, 65, 127, 1000] {
                let g = uniform_random(n, 3, &mut rng_from_seed(n as u64));
                for direction in policies {
                    let engine = BfsEngine::new(
                        &g,
                        topo,
                        BfsOptions {
                            direction,
                            ..Default::default()
                        },
                    );
                    let mut state = RunState::new(&engine, true);
                    assert_eq!(state.frontier_bitmap.footprint(), 2 * n.div_ceil(64) * 8);
                    let mut out = BfsOutput::default();
                    for src in [0, n / 2, n - 1] {
                        let src = src as VertexId;
                        engine.run_with_state(&mut state, src, None, &NoopSink, "engine", &mut out);
                        assert_eq!(out.depths, serial_bfs(&g, src).depths);
                        assert!(
                            state.frontier_bitmap.is_clear(),
                            "both halves must be all-zero at run end \
                             ({topo:?}, n = {n}, {direction:?}, source {src})"
                        );
                    }
                }
            }
        }
        // Forced-top-down engines pay nothing for the bitmap.
        let g = uniform_random(1000, 6, &mut rng_from_seed(3));
        let td = BfsEngine::new(&g, Topology::synthetic(2, 2), BfsOptions::default());
        assert_eq!(RunState::new(&td, false).frontier_bitmap.footprint(), 0);
    }

    #[test]
    fn aggressive_thresholds_switch_mid_traversal() {
        // α huge → flip bottom-up as soon as the frontier has any edges;
        // β tiny → flip straight back (the BU→TD rule fires when
        // n_f·β < n), so the scheduler oscillates every level.
        let g = uniform_random(800, 6, &mut rng_from_seed(9));
        let out = BfsEngine::new(
            &g,
            Topology::synthetic(2, 2),
            BfsOptions {
                direction: DirectionPolicy::Auto {
                    alpha: 1e12,
                    beta: 1e-12,
                },
                ..Default::default()
            },
        )
        .run(0);
        let reference = serial_bfs(&g, 0);
        assert_eq!(out.depths, reference.depths);
        let dirs = &out.stats.step_directions;
        assert!(dirs.contains(&Direction::BottomUp));
        assert!(
            dirs.windows(2).any(|w| w[0] != w[1]),
            "expected a mid-traversal switch, got {dirs:?}"
        );
    }

    #[test]
    fn geometry_is_exposed() {
        let g = uniform_random(1 << 12, 4, &mut rng_from_seed(1));
        let engine = BfsEngine::new(
            &g,
            Topology::synthetic(2, 2),
            BfsOptions {
                n_vis_override: Some(2),
                ..Default::default()
            },
        );
        assert_eq!(engine.geometry().n_vis, 2);
        assert_eq!(engine.geometry().n_bins, 4);
    }

    #[test]
    fn metrics_registry_records_phases_and_cross_checks() {
        use bfs_metrics::{Counter, Hist};
        let g = uniform_random(1 << 12, 8, &mut rng_from_seed(9));
        let mut engine = BfsEngine::new(&g, Topology::synthetic(2, 2), BfsOptions::default());
        let out = engine.run(0);
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.total(Counter::Queries), 1);
        assert_eq!(snap.total(Counter::Steps), out.stats.steps as u64);
        assert_eq!(
            snap.total(Counter::VisitedVertices),
            out.stats.visited_vertices
        );
        assert_eq!(
            snap.total(Counter::TraversedEdges),
            out.stats.traversed_edges
        );
        // Forced top-down: no bottom-up work, and every scattered neighbor
        // is decoded from a bin in Phase II — the two-phase invariant.
        assert_eq!(snap.total(Counter::BottomUpSteps), 0);
        assert_eq!(snap.total(Counter::BottomUpNs), 0);
        assert_eq!(
            snap.total(Counter::ScatteredEdges),
            snap.total(Counter::BinEntries)
        );
        assert!(snap.total(Counter::ScatteredEdges) > 0);
        assert!(snap.total(Counter::Phase1Ns) > 0);
        assert!(snap.total(Counter::Phase2Ns) > 0);
        assert!(snap.total(Counter::QueryNs) > 0);
        // Per-step histogram: every thread observes once per loop iteration
        // (the productive steps plus the final empty-frontier round).
        assert_eq!(
            snap.histogram(Hist::StepNs).count,
            (out.stats.steps as u64 + 1) * 4
        );
        assert_eq!(snap.histogram(Hist::QueryNs).count, 1);
        // A second query accumulates; reset zeroes.
        engine.run(1);
        let snap2 = engine.metrics_snapshot();
        assert_eq!(snap2.total(Counter::Queries), 2);
        engine.reset_metrics();
        assert_eq!(engine.metrics_snapshot().total(Counter::Queries), 0);
    }

    #[test]
    fn traced_steps_carry_scatter_counts() {
        use bfs_trace::RingSink;
        let g = uniform_random(1 << 10, 6, &mut rng_from_seed(3));
        let engine = BfsEngine::new(&g, Topology::synthetic(1, 2), BfsOptions::default());
        let ring = RingSink::new(4096);
        engine.run_traced(0, &ring);
        let steps: Vec<_> = ring
            .snapshot()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Step(s) => Some(s),
                _ => None,
            })
            .collect();
        assert!(!steps.is_empty());
        // Forced top-down: every step reports its scattered-neighbor count.
        for s in &steps {
            assert!(s.scattered.is_some(), "step {} lacks scattered", s.step);
        }
        assert!(steps.iter().any(|s| s.scattered.unwrap() > 0));
    }

    /// Plans `offsets` for `sockets × lanes` under `scheduling`.
    fn plan(
        offsets: &[u64],
        sockets: usize,
        lanes: usize,
        scheduling: Scheduling,
    ) -> Vec<Range<usize>> {
        let n = offsets.len() - 1;
        bottom_up_plan(
            offsets,
            &BinGeometry::with_n_vis(n, sockets, 2),
            &Topology::synthetic(sockets, lanes),
            scheduling,
        )
    }

    /// The plan's ranges, in lane order, tile `[0, live)` exactly.
    fn assert_tiles(plan: &[Range<usize>], live: usize) {
        let mut next = 0;
        for r in plan {
            assert_eq!(r.start, next, "gap or overlap in {plan:?}");
            assert!(r.start <= r.end, "reversed range in {plan:?}");
            next = r.end;
        }
        assert_eq!(next, live, "{plan:?} does not end at {live}");
    }

    #[test]
    fn bottom_up_plan_tiles_exactly_the_live_prefix() {
        // Degrees 2, 0, 1, 1, 0, 0, 0: id 1 is an interior degree-0 id and
        // is planned; ids 4..7 are the degree-0 suffix and are not.
        let offsets = [0, 2, 2, 3, 4, 4, 4, 4];
        for scheduling in [
            Scheduling::NoMultiSocketOpt,
            Scheduling::SocketAwareStatic,
            Scheduling::LoadBalanced,
        ] {
            for (sockets, lanes) in [(1, 1), (1, 2), (1, 3), (1, 5), (2, 1), (2, 2), (3, 2)] {
                let p = plan(&offsets, sockets, lanes, scheduling);
                assert_eq!(p.len(), sockets * lanes);
                assert_tiles(&p, 4);
            }
        }
    }

    #[test]
    fn bottom_up_plan_live_prefix_ends() {
        // Edgeless: nothing is live, every lane's range is empty.
        for p in [
            plan(&[0; 6], 1, 3, Scheduling::LoadBalanced),
            plan(&[0; 6], 2, 2, Scheduling::SocketAwareStatic),
        ] {
            assert!(p.iter().all(|r| r.is_empty()), "{p:?}");
            assert_tiles(&p, 0);
        }
        // The last id has an edge: the whole id space is live.
        assert_tiles(&plan(&[0, 0, 1, 1, 3], 1, 2, Scheduling::LoadBalanced), 4);
        assert_tiles(
            &plan(&[0, 0, 1, 1, 3], 2, 2, Scheduling::SocketAwareStatic),
            4,
        );
    }

    #[test]
    fn bottom_up_plan_splits_evenly() {
        // 10 live ids (then 3 dead) over 3 lanes: 3, 3, 4.
        let mut offsets: Vec<u64> = (0..=10).collect();
        offsets.extend([10, 10, 10]);
        for scheduling in [Scheduling::NoMultiSocketOpt, Scheduling::LoadBalanced] {
            let p = plan(&offsets, 1, 3, scheduling);
            assert_tiles(&p, 10);
            let lens: Vec<usize> = p.iter().map(|r| r.len()).collect();
            let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            assert!(hi - lo <= 1, "{lens:?}");
        }
    }

    #[test]
    fn bottom_up_plan_keeps_lanes_on_their_socket() {
        // 16 ids, 2 sockets of 8: live prefixes that end inside socket 1,
        // exactly at the stripe boundary, and inside socket 0.
        for live in [13u64, 8, 5] {
            let offsets: Vec<u64> = (0..=16u64).map(|v| v.min(live)).collect();
            let p = plan(&offsets, 2, 2, Scheduling::SocketAwareStatic);
            assert_tiles(&p, live as usize);
            let geo = BinGeometry::with_n_vis(16, 2, 2);
            for (tid, r) in p.iter().enumerate() {
                let stripe = geo.socket_vertex_range(tid / 2);
                assert!(
                    r.is_empty() || (stripe.start <= r.start && r.end <= stripe.end),
                    "lane {tid} range {r:?} leaves socket stripe {stripe:?}"
                );
            }
            // Socket 0's lanes split its clipped stripe evenly.
            let s0 = (live as usize).min(8);
            assert_eq!(p[0].len() + p[1].len(), s0);
            assert!(p[0].len().abs_diff(p[1].len()) <= 1, "{p:?}");
        }
    }
}
