//! Simulated execution: the algorithm replayed on the `bfs-memsim` machine.
//!
//! The paper measures its figures with hardware uncore counters on a
//! dual-socket Nehalem. This module reproduces those measurements by
//! driving the exact memory-access pattern of the engine — same phases,
//! same division of work, same per-edge structure touches — through the
//! simulated cache/QPI hierarchy, with every byte attributed to (phase,
//! socket, channel, structure). Virtual threads execute in a block
//! round-robin interleave so concurrent cache pressure and line ping-pong
//! between sockets are modeled, while results stay fully deterministic.
//!
//! What each scheme contributes (→ which figure):
//!
//! * VIS scheme choice changes per-edge `DP`/`VIS` traffic and, for the
//!   atomic scheme, adds a per-LOCK-op latency penalty → Figure 4;
//! * scheduling choice changes which socket touches which lines, hence QPI
//!   ping-pong and per-socket DRAM balance → Figure 5;
//! * phase tagging splits cycles into Phase I / Phase II / Rearrangement →
//!   Figure 8 (validated against the analytical model).

use std::collections::HashMap;

use bfs_graph::CsrGraph;
use bfs_memsim::{
    BandwidthSpec, Channel, MachineConfig, Phase, Placement, RegionId, SimMachine, TrafficReport,
};
use bfs_trace::{MemStepEvent, NoopSink, RunEvent, TraceEvent, TraceSink};

use crate::balance::{divide_even, divide_static, Segment, Stream};
use crate::dp::INF_DEPTH;
use crate::engine::Scheduling;
use crate::frontier::{rearrange_frontier, RearrangeScratch};
use crate::pbv::{decode_window, BinGeometry, BinSet, PbvEncoding};
use crate::vis::VisScheme;
use crate::VertexId;

/// Latency penalty per LOCK-prefixed operation, in cycles. Traffic
/// simulation cannot see instruction serialization, so the atomic baseline
/// charges this on top of its byte traffic (which already includes the
/// dirty-line ping-pong its per-edge RMWs cause). The default is calibrated
/// so the atomic-bitmap scheme lands where Figure 4 puts it — around the
/// no-VIS baseline, "only 10% faster at best (and sometimes even slower)" —
/// and can be swept by the ablation harness.
pub const DEFAULT_ATOMIC_OP_CYCLES: f64 = 2.5;

/// Latency penalty per cross-socket dirty-line migration (ping-pong event),
/// in cycles. A Nehalem remote cache-to-cache transfer costs ≈110 ns
/// (Molka et al. \[21\], the paper's own bandwidth source); out-of-order
/// overlap hides most of it, leaving an effective per-event stall on the
/// dependent chain. Calibrated so the "no multi-socket optimization" scheme
/// of Figure 5 lands at the paper's relative position; sweepable by the
/// ablation harness.
pub const DEFAULT_COHERENCE_STALL_CYCLES: f64 = 60.0;

/// Latency exposed per frontier vertex when adjacency lists are **not**
/// software-prefetched (§III-C(3)): the pointer load and the first neighbor
/// line form a dependent chain that neither the hardware prefetcher nor the
/// out-of-order window can hide across spatially incoherent frontier
/// entries. Roughly one exposed DRAM round trip per vertex after overlap
/// (~60 ns ≈ 176 cycles, MLP ≈ 3). This is the latency-bound-vs-
/// bandwidth-bound contrast the paper's §II motivation is built on; our
/// engine's prefetching (and the sim's `prefetch: true` default) removes it.
pub const DEFAULT_ADJ_CHAIN_STALL_CYCLES: f64 = 50.0;

/// Latency exposed per TLB miss (page walk), after paging-structure caches:
/// what the §III-B3(b) rearrangement exists to avoid.
pub const DEFAULT_TLB_WALK_STALL_CYCLES: f64 = 20.0;

/// Configuration of a simulated run.
#[derive(Clone, Debug)]
pub struct SimBfsConfig {
    /// Simulated machine geometry.
    pub machine: MachineConfig,
    /// VIS scheme (Figure 4 series).
    pub vis: VisScheme,
    /// Work distribution (Figure 5 series).
    pub scheduling: Scheduling,
    /// Override `N_VIS` (default: §III-A rule from the machine's LLC).
    pub n_vis_override: Option<usize>,
    /// Simulate the TLB-aware rearrangement pass.
    pub rearrange: bool,
    /// PBV stream encoding.
    pub encoding: PbvEncoding,
    /// Entries processed per virtual thread per round-robin turn.
    pub interleave: usize,
    /// Cycles charged per LOCK-prefixed operation.
    pub atomic_op_cycles: f64,
    /// Cycles charged per cross-socket dirty-line migration.
    pub coherence_stall_cycles: f64,
    /// Model the §III-C(3) software prefetch of adjacency lists: when
    /// `false` (the unoptimized baselines), every frontier vertex exposes a
    /// dependent-load chain charged at `adj_chain_stall_cycles`.
    pub prefetch: bool,
    /// Cycles charged per unprefetched adjacency chain.
    pub adj_chain_stall_cycles: f64,
    /// Cycles charged per TLB miss.
    pub tlb_walk_stall_cycles: f64,
}

impl Default for SimBfsConfig {
    fn default() -> Self {
        Self {
            machine: MachineConfig::xeon_x5570_2s(),
            vis: VisScheme::Bit,
            scheduling: Scheduling::LoadBalanced,
            n_vis_override: None,
            rearrange: true,
            encoding: PbvEncoding::Auto,
            // Fine-grained interleave: real threads interleave at
            // instruction granularity, and the coherence ping-pong of the
            // unoptimized scheme (Figure 5) only shows when virtual threads
            // alternate frequently. The two-phase schemes are insensitive
            // to this knob (their locality is structural).
            interleave: 8,
            atomic_op_cycles: DEFAULT_ATOMIC_OP_CYCLES,
            coherence_stall_cycles: DEFAULT_COHERENCE_STALL_CYCLES,
            prefetch: true,
            adj_chain_stall_cycles: DEFAULT_ADJ_CHAIN_STALL_CYCLES,
            tlb_walk_stall_cycles: DEFAULT_TLB_WALK_STALL_CYCLES,
        }
    }
}

/// Per-step bottleneck accumulator.
///
/// A run-aggregated byte count hides *alternating* imbalance (the stress
/// graph works socket 0 on even steps and socket 1 on odd steps, so whole-
/// run per-socket totals look even). BSP time is the sum over steps of the
/// **slowest socket per step**; this ledger diffs the machine's counters at
/// every step boundary and accumulates, per (phase, channel), the max-over-
/// sockets of each step's delta.
#[derive(Debug, Default)]
struct BottleneckLedger {
    bytes: HashMap<(Phase, Channel), u64>,
    prev: HashMap<(Phase, usize, Channel), u64>,
}

impl BottleneckLedger {
    fn end_step(&mut self, machine: &SimMachine) {
        let mut now: HashMap<(Phase, usize, Channel), u64> = HashMap::new();
        for (&(phase, socket, channel, _region), &b) in machine.ledger().iter() {
            *now.entry((phase, socket, channel)).or_insert(0) += b;
        }
        let mut step_max: HashMap<(Phase, Channel), u64> = HashMap::new();
        for (&(phase, socket, channel), &b) in &now {
            let before = self
                .prev
                .get(&(phase, socket, channel))
                .copied()
                .unwrap_or(0);
            let delta = b - before;
            let e = step_max.entry((phase, channel)).or_insert(0);
            *e = (*e).max(delta);
        }
        for ((phase, channel), d) in step_max {
            *self.bytes.entry((phase, channel)).or_insert(0) += d;
        }
        self.prev = now;
    }

    fn get(&self, phase: Phase, channel: Channel) -> u64 {
        self.bytes.get(&(phase, channel)).copied().unwrap_or(0)
    }
}

/// Output of a simulated run.
pub struct SimBfsResult {
    /// Depth per vertex (`INF_DEPTH` = unreached) — checked against the
    /// serial oracle in tests.
    pub depths: Vec<u32>,
    /// Vertices assigned a depth.
    pub visited_vertices: u64,
    /// Traversed edges (sum of degrees over visited vertices).
    pub traversed_edges: u64,
    /// BFS depth.
    pub steps: u32,
    /// LOCK-prefixed operations executed (atomic scheme only).
    pub atomic_ops: u64,
    /// Cycles per atomic op used by this run.
    pub atomic_op_cycles: f64,
    /// Cycles per cross-socket dirty-line migration used by this run.
    pub coherence_stall_cycles: f64,
    /// Unprefetched adjacency chains executed (0 when prefetch is modeled).
    pub adj_chains: u64,
    /// Cycles per unprefetched adjacency chain used by this run.
    pub adj_chain_stall_cycles: f64,
    /// Cycles per TLB walk used by this run.
    pub tlb_walk_stall_cycles: f64,
    /// Which scheduling produced this run.
    pub scheduling: Scheduling,
    /// The machine after the run (owns the traffic ledger).
    pub machine: SimMachine,
    /// Region id of `Adj` (for attributing TLB-walk stalls).
    adj_region: RegionId,
    bottleneck: BottleneckLedger,
}

/// Per-phase cycles/edge of a simulated run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimPhaseCycles {
    pub phase1: f64,
    pub phase2: f64,
    pub rearrange: f64,
}

impl SimPhaseCycles {
    /// Total cycles per edge.
    pub fn total(&self) -> f64 {
        self.phase1 + self.phase2 + self.rearrange
    }
}

impl SimBfsResult {
    /// Traffic report over the run's (whole-run) ledger: bytes-per-edge
    /// queries for the IV.1 comparisons.
    pub fn report(&self) -> TrafficReport<'_> {
        TrafficReport::new(self.machine.ledger())
    }

    /// Cycles/edge for one phase from the per-step bottleneck bytes,
    /// composed the way the paper's model composes channels:
    ///
    /// * DRAM time is end-to-end (Table I's achievable 22 GB/s is measured
    ///   at the core), so the LLC leg of DRAM-sourced lines is *inside* it;
    /// * only LLC-**hit** traffic — fills beyond what arrived from DRAM/QPI,
    ///   which is exactly the cache-resident VIS term of eqn IV.1c — adds
    ///   time on the shared LLC interface ("we need to add up the times",
    ///   Appendix B);
    /// * DRAM and QPI occupancy overlap (the slower governs, as in IV.3);
    /// * each dirty-line migration adds a latency stall on top of its link
    ///   occupancy.
    fn one_phase(&self, phase: Phase, bw: &BandwidthSpec) -> f64 {
        let edges = self.traversed_edges.max(1) as f64;
        let b = |c: Channel| self.bottleneck.get(phase, c);
        let line = self.machine.config().line_bytes;
        let dram = bw.cycles_for(b(Channel::DramRead) + b(Channel::DramWrite), bw.dram_gbps);
        let qpi = bw.cycles_for(b(Channel::Qpi) + b(Channel::QpiMigration), bw.qpi_gbps);
        let llc_hit_reads = b(Channel::LlcToL2)
            .saturating_sub(b(Channel::DramRead) + b(Channel::Qpi) + b(Channel::QpiMigration));
        let llc_extra_writes = b(Channel::L2ToLlc).saturating_sub(b(Channel::DramWrite));
        let llc = bw.cycles_for(llc_hit_reads, bw.llc_to_l2_gbps)
            + bw.cycles_for(llc_extra_writes, bw.l2_to_llc_gbps);
        let walk = bw.cycles_for(b(Channel::PageWalk), bw.dram_gbps);
        let migrations = b(Channel::QpiMigration) / line;
        // TLB-walk latency is charged only for `Adj` accesses: frontier-
        // directed pointer chasing is where walks serialize (and what the
        // §III-B3(b) rearrangement removes). Walks on streamed or
        // DRAM-bound structures overlap the access latency already charged.
        // 8 bytes are charged per walk (one PTE), so bytes/8 counts misses;
        // cores walk in parallel, so the per-socket average is the exposed
        // serial cost.
        let adj_walks = self.machine.ledger().total(
            Some(phase),
            None,
            Some(Channel::PageWalk),
            Some(self.adj_region),
        ) / 8;
        let sockets = self.machine.config().sockets as u64;
        let stall = migrations as f64 * self.coherence_stall_cycles
            + (adj_walks / sockets) as f64 * self.tlb_walk_stall_cycles;
        (dram.max(qpi) + llc + walk + stall) / edges
    }

    /// Cycles/edge decomposed by phase; the atomic latency penalty is
    /// charged where the VIS updates happen.
    pub fn phase_cycles(&self, bw: &BandwidthSpec) -> SimPhaseCycles {
        let edges = self.traversed_edges.max(1);
        let atomic_penalty = self.atomic_ops as f64 * self.atomic_op_cycles / edges as f64;
        let mut c = SimPhaseCycles {
            phase1: self.one_phase(Phase::PhaseOne, bw),
            phase2: self.one_phase(Phase::PhaseTwo, bw),
            rearrange: self.one_phase(Phase::Rearrange, bw),
        };
        // Dependent adjacency loads without prefetch stall Phase I.
        c.phase1 += self.adj_chains as f64 * self.adj_chain_stall_cycles / edges as f64;
        if matches!(self.scheduling, Scheduling::NoMultiSocketOpt) {
            c.phase1 += atomic_penalty;
        } else {
            c.phase2 += atomic_penalty;
        }
        c
    }

    /// MTEPS implied by [`phase_cycles`](Self::phase_cycles).
    pub fn mteps(&self, bw: &BandwidthSpec) -> f64 {
        let cpe = self.phase_cycles(bw).total();
        if cpe == 0.0 {
            return f64::INFINITY;
        }
        bw.freq_ghz * 1e9 / cpe / 1e6
    }
}

/// Region handles for the simulated data structures.
struct Regions {
    adj_idx: RegionId,
    adj: RegionId,
    dp: RegionId,
    vis: Option<RegionId>,
    /// `[thread]` current and next frontier regions.
    bv_cur: Vec<RegionId>,
    bv_next: Vec<RegionId>,
    /// `[thread][bin]`.
    pbv: Vec<Vec<RegionId>>,
    /// Rearrangement temporary per thread.
    temp: Vec<RegionId>,
}

/// Runs a full simulated traversal of `graph` from `source`.
pub fn simulate_bfs(graph: &CsrGraph, cfg: &SimBfsConfig, source: VertexId) -> SimBfsResult {
    simulate_bfs_traced(graph, cfg, source, &NoopSink)
}

/// [`simulate_bfs`] emitting one [`RunEvent`] plus one [`MemStepEvent`] per
/// executed step into `sink`.
///
/// Unlike the wall-clock engines (which log one event per *depth level*),
/// the replay also emits the final, empty-frontier step: it still generates
/// traffic, and per-channel deltas must sum to the ledger totals.
pub fn simulate_bfs_traced(
    graph: &CsrGraph,
    cfg: &SimBfsConfig,
    source: VertexId,
    sink: &dyn TraceSink,
) -> SimBfsResult {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source out of range");
    assert!(cfg.interleave > 0);
    let mc = cfg.machine;
    let nthreads = mc.total_cores();
    let sockets = mc.sockets;
    let geometry = match cfg.n_vis_override {
        Some(nv) => BinGeometry::with_n_vis(n, sockets, nv),
        None => BinGeometry::from_llc(n, sockets, mc.llc_bytes),
    };
    let encoding = cfg
        .encoding
        .resolve(geometry.n_bins, graph.average_degree().max(1.0));
    let tracing = sink.enabled();
    if tracing {
        sink.record(&TraceEvent::Run(RunEvent {
            engine: "memsim".to_string(),
            vertices: n as u64,
            edges: graph.num_edges(),
            source,
            sockets,
            lanes_per_socket: nthreads / sockets,
            threads: nthreads,
            n_vis: Some(geometry.n_vis),
            n_pbv: Some(geometry.n_bins),
            encoding: Some(format!("{encoding:?}")),
            scheduling: Some(format!("{:?}", cfg.scheduling)),
            vis: Some(format!("{:?}", cfg.vis)),
        }));
    }
    // Running per-channel totals, so each step reports its delta.
    let mut chan_prev = [0u64; Channel::ALL.len()];
    let mut machine = SimMachine::new(mc);
    let regions = alloc_regions(graph, &mut machine, &geometry, cfg, nthreads);
    let core_of = |t: usize| t; // virtual thread t runs on core t

    // Host-side ground-truth state.
    let mut depths = vec![INF_DEPTH; n];
    let mut vis_host = vec![false; n];
    depths[source as usize] = 0;
    vis_host[source as usize] = true;
    let mut bv_cur: Vec<Vec<VertexId>> = vec![Vec::new(); nthreads];
    let mut bv_next: Vec<Vec<VertexId>> = vec![Vec::new(); nthreads];
    bv_cur[0].push(source);
    let mut bins: Vec<BinSet> = (0..nthreads)
        .map(|_| BinSet::new(geometry.n_bins, encoding))
        .collect();
    let mut scratch = RearrangeScratch::default();
    let mut atomic_ops = 0u64;
    let mut adj_chains = 0u64;
    let mut bottleneck = BottleneckLedger::default();
    let two_phase = cfg.scheduling != Scheduling::NoMultiSocketOpt;
    let lanes = nthreads / sockets;

    let mut step = 1u32;
    let mut max_depth = 0u32;
    loop {
        assert!(step <= n as u32 + 1, "simulated BFS failed to terminate");
        machine.set_phase(Phase::PhaseOne);
        // ---- Phase I (or direct expansion) ----
        let streams: Vec<Stream> = (0..nthreads)
            .map(|t| Stream {
                bin: t,
                owner: t,
                len: bv_cur[t].len(),
            })
            .collect();
        let plan: Vec<Vec<Segment>> = match cfg.scheduling {
            Scheduling::SocketAwareStatic => {
                divide_static(&streams, |b| b / lanes, sockets, lanes, 1)
            }
            _ => divide_even(&streams, nthreads, 1),
        };
        if two_phase {
            for b in bins.iter_mut() {
                b.clear();
            }
            interleaved(&plan, cfg.interleave, |t, seg, lo, hi| {
                for k in lo..hi {
                    let u = bv_cur[seg.owner][seg.range.start + k];
                    sim_read_frontier(
                        &mut machine,
                        core_of(t),
                        &regions,
                        seg.owner,
                        seg.range.start + k,
                        true,
                    );
                    sim_read_adjacency(&mut machine, core_of(t), &regions, graph, u);
                    if !cfg.prefetch {
                        adj_chains += 1;
                    }
                    let my_bins = &mut bins[t];
                    let before: Vec<usize> =
                        (0..geometry.n_bins).map(|b| my_bins.bin_len(b)).collect();
                    my_bins.begin_vertex(u);
                    for &v in graph.neighbors(u) {
                        my_bins.push_neighbor(geometry.bin_of(v), v);
                    }
                    // Charge the bin writes: everything appended past the
                    // old cursors.
                    #[allow(clippy::needless_range_loop)] // b indexes two parallel structures
                    for b in 0..geometry.n_bins {
                        let (old, new) = (before[b], my_bins.bin_len(b));
                        if new > old {
                            machine.write(
                                core_of(t),
                                regions.pbv[t][b],
                                old as u64 * 4,
                                (new - old) as u64 * 4,
                            );
                        }
                    }
                }
            });
        } else {
            // Single-phase: direct VIS/DP updates from neighbor lists.
            interleaved(&plan, cfg.interleave, |t, seg, lo, hi| {
                for k in lo..hi {
                    let u = bv_cur[seg.owner][seg.range.start + k];
                    sim_read_frontier(
                        &mut machine,
                        core_of(t),
                        &regions,
                        seg.owner,
                        seg.range.start + k,
                        true,
                    );
                    sim_read_adjacency(&mut machine, core_of(t), &regions, graph, u);
                    if !cfg.prefetch {
                        adj_chains += 1;
                    }
                    for &v in graph.neighbors(u) {
                        sim_visit(
                            &mut machine,
                            core_of(t),
                            &regions,
                            cfg,
                            v,
                            step,
                            &mut depths,
                            &mut vis_host,
                            &mut atomic_ops,
                        )
                        .then(|| {
                            let pos = bv_next[t].len();
                            machine.write(core_of(t), regions.bv_next[t], pos as u64 * 4, 4);
                            bv_next[t].push(v);
                            max_depth = step;
                        });
                    }
                }
            });
        }

        // ---- Phase II ----
        if two_phase {
            machine.set_phase(Phase::PhaseTwo);
            let align = encoding.alignment();
            let mut streams = Vec::with_capacity(geometry.n_bins * nthreads);
            for b in 0..geometry.n_bins {
                #[allow(clippy::needless_range_loop)] // t is a thread id, not a plain index
                for t in 0..nthreads {
                    streams.push(Stream {
                        bin: b,
                        owner: t,
                        len: bins[t].bin_len(b),
                    });
                }
            }
            let plan: Vec<Vec<Segment>> = match cfg.scheduling {
                Scheduling::SocketAwareStatic => divide_static(
                    &streams,
                    |b| geometry.socket_of_bin(b),
                    sockets,
                    lanes,
                    align,
                ),
                _ => divide_even(&streams, nthreads, align),
            };
            interleaved(&plan, cfg.interleave, |t, seg, lo, hi| {
                // Read the window's words, then visit the decoded units.
                let (wlo, whi) = (seg.range.start + lo, seg.range.start + hi);
                machine.read(
                    core_of(t),
                    regions.pbv[seg.owner][seg.bin],
                    wlo as u64 * 4,
                    (whi - wlo) as u64 * 4,
                );
                let data = bins[seg.owner].bin(seg.bin);
                let mut visits: Vec<(VertexId, VertexId)> = Vec::new();
                decode_window(data, wlo, whi, encoding, |p, v| visits.push((p, v)));
                for (_parent, v) in visits {
                    if sim_visit(
                        &mut machine,
                        core_of(t),
                        &regions,
                        cfg,
                        v,
                        step,
                        &mut depths,
                        &mut vis_host,
                        &mut atomic_ops,
                    ) {
                        let pos = bv_next[t].len();
                        machine.write(core_of(t), regions.bv_next[t], pos as u64 * 4, 4);
                        bv_next[t].push(v);
                        max_depth = step;
                    }
                }
            });
        }

        // ---- Rearrangement ----
        if cfg.rearrange {
            machine.set_phase(Phase::Rearrange);
            #[allow(clippy::needless_range_loop)] // t is a thread id across two arrays
            for t in 0..nthreads {
                let len = bv_next[t].len() as u64;
                if len > 1 {
                    // histogram read + scatter (read src, write temp) +
                    // copy back (read temp, write dst): the paper's
                    // 24 bytes/vertex once write-allocation is modeled.
                    machine.read(core_of(t), regions.bv_next[t], 0, len * 4);
                    machine.read(core_of(t), regions.bv_next[t], 0, len * 4);
                    machine.write(core_of(t), regions.temp[t], 0, len * 4);
                    machine.read(core_of(t), regions.temp[t], 0, len * 4);
                    machine.write(core_of(t), regions.bv_next[t], 0, len * 4);
                    rearrange_frontier(
                        &mut bv_next[t],
                        graph,
                        mc.page_bytes,
                        mc.tlb_entries as u64,
                        &mut scratch,
                    );
                }
            }
        }

        bottleneck.end_step(&machine);
        let total: usize = bv_next.iter().map(|f| f.len()).sum();
        if tracing {
            let mut delta = [0u64; Channel::ALL.len()];
            for (i, &c) in Channel::ALL.iter().enumerate() {
                let now = machine.ledger().total(None, None, Some(c), None);
                delta[i] = now - chan_prev[i];
                chan_prev[i] = now;
            }
            let by = |c: Channel| delta[Channel::ALL.iter().position(|&x| x == c).unwrap()];
            sink.record(&TraceEvent::MemStep(MemStepEvent {
                step,
                frontier: total as u64,
                dram_read: by(Channel::DramRead),
                dram_write: by(Channel::DramWrite),
                qpi: by(Channel::Qpi),
                qpi_migration: by(Channel::QpiMigration),
                llc_to_l2: by(Channel::LlcToL2),
                l2_to_llc: by(Channel::L2ToLlc),
                page_walk: by(Channel::PageWalk),
            }));
        }
        for t in 0..nthreads {
            std::mem::swap(&mut bv_cur[t], &mut bv_next[t]);
            bv_next[t].clear();
        }
        if total == 0 {
            break;
        }
        step += 1;
    }

    let mut visited = 0u64;
    let mut traversed = 0u64;
    #[allow(clippy::needless_range_loop)] // v is a vertex id used against two views
    for v in 0..n {
        if depths[v] != INF_DEPTH {
            visited += 1;
            traversed += graph.degree(v as u32) as u64;
        }
    }
    SimBfsResult {
        depths,
        visited_vertices: visited,
        traversed_edges: traversed,
        steps: max_depth,
        atomic_ops,
        atomic_op_cycles: cfg.atomic_op_cycles,
        coherence_stall_cycles: cfg.coherence_stall_cycles,
        adj_chains,
        adj_chain_stall_cycles: cfg.adj_chain_stall_cycles,
        tlb_walk_stall_cycles: cfg.tlb_walk_stall_cycles,
        scheduling: cfg.scheduling,
        adj_region: regions.adj,
        machine,
        bottleneck,
    }
}

/// Allocates the simulated address space following §III-B placement.
fn alloc_regions(
    graph: &CsrGraph,
    machine: &mut SimMachine,
    geometry: &BinGeometry,
    cfg: &SimBfsConfig,
    nthreads: usize,
) -> Regions {
    let n = graph.num_vertices() as u64;
    let m = graph.num_edges();
    let sockets = machine.config().sockets;
    let cores_per_socket = machine.config().cores_per_socket;
    let vns = geometry.vertices_per_socket as u64;
    // Adj index: |V|+1 offsets of 8 bytes, striped at the V_NS boundary.
    let adj_idx = machine.alloc(
        "AdjIdx",
        (n + 1) * 8,
        Placement::Striped {
            stripe_bytes: vns * 8,
        },
    );
    // Adj neighbor storage: cut at the byte offsets of the V_NS boundaries.
    let cuts: Vec<u64> = (1..sockets)
        .map(|s| {
            let v = ((s as u64 * vns).min(n)) as usize;
            graph.offsets()[v] * 4
        })
        .collect();
    let adj = machine.alloc("Adj", (m * 4).max(1), Placement::Boundaries(cuts));
    let dp = machine.alloc(
        "DP",
        n.max(1) * 8,
        Placement::Striped {
            stripe_bytes: vns * 8,
        },
    );
    let vis = match cfg.vis {
        VisScheme::None => None,
        VisScheme::Byte => {
            Some(machine.alloc("VIS", n.max(1), Placement::Striped { stripe_bytes: vns }))
        }
        VisScheme::Bit | VisScheme::AtomicBit | VisScheme::AtomicBitTest => Some(machine.alloc(
            "VIS",
            n.div_ceil(8).max(1),
            Placement::Striped {
                stripe_bytes: (vns / 8).max(1),
            },
        )),
    };
    let socket_of_thread = |t: usize| t / cores_per_socket;
    let bv_cur = (0..nthreads)
        .map(|t| {
            machine.alloc(
                &format!("BVc[{t}]"),
                n.max(1) * 4,
                Placement::Fixed(socket_of_thread(t)),
            )
        })
        .collect();
    let bv_next = (0..nthreads)
        .map(|t| {
            machine.alloc(
                &format!("BVn[{t}]"),
                n.max(1) * 4,
                Placement::Fixed(socket_of_thread(t)),
            )
        })
        .collect();
    let pbv = (0..nthreads)
        .map(|t| {
            (0..geometry.n_bins)
                .map(|b| {
                    machine.alloc(
                        &format!("PBV[{t}][{b}]"),
                        ((n + 2 * m) * 4).max(1),
                        Placement::Fixed(socket_of_thread(t)),
                    )
                })
                .collect()
        })
        .collect();
    let temp = (0..nthreads)
        .map(|t| {
            machine.alloc(
                &format!("Temp[{t}]"),
                n.max(1) * 4,
                Placement::Fixed(socket_of_thread(t)),
            )
        })
        .collect();
    Regions {
        adj_idx,
        adj,
        dp,
        vis,
        bv_cur,
        bv_next,
        pbv,
        temp,
    }
}

/// Block round-robin over the per-thread segment plans: each turn, thread
/// `t` processes up to `grain` entries of its remaining work, modeling
/// concurrent execution deterministically.
fn interleaved(
    plan: &[Vec<Segment>],
    grain: usize,
    mut body: impl FnMut(usize, &Segment, usize, usize),
) {
    // Cursor per thread: (segment index, offset within segment).
    let mut cursors: Vec<(usize, usize)> = vec![(0, 0); plan.len()];
    loop {
        let mut progressed = false;
        for (t, segs) in plan.iter().enumerate() {
            let (mut si, mut off) = cursors[t];
            let mut budget = grain;
            while budget > 0 && si < segs.len() {
                let seg = &segs[si];
                let remaining = seg.len() - off;
                if remaining == 0 {
                    si += 1;
                    off = 0;
                    continue;
                }
                let take = remaining.min(budget);
                body(t, seg, off, off + take);
                progressed = true;
                off += take;
                budget -= take;
                if off == seg.len() {
                    si += 1;
                    off = 0;
                }
            }
            cursors[t] = (si, off);
        }
        if !progressed {
            break;
        }
    }
}

/// Charges the read of one frontier entry.
fn sim_read_frontier(
    machine: &mut SimMachine,
    core: usize,
    regions: &Regions,
    owner: usize,
    index: usize,
    current: bool,
) {
    let r = if current {
        regions.bv_cur[owner]
    } else {
        regions.bv_next[owner]
    };
    machine.read(core, r, index as u64 * 4, 4);
}

/// Charges the adjacency accesses of one frontier vertex: the offset pair
/// and the neighbor list.
fn sim_read_adjacency(
    machine: &mut SimMachine,
    core: usize,
    regions: &Regions,
    graph: &CsrGraph,
    u: VertexId,
) {
    machine.read(core, regions.adj_idx, u as u64 * 8, 16);
    let deg = graph.degree(u) as u64;
    if deg > 0 {
        machine.read(core, regions.adj, graph.adjacency_byte_offset(u), deg * 4);
    }
}

/// The VIS-filter + DP-claim protocol of Figure 2, with traffic and host
/// bookkeeping. Returns `true` if the vertex was claimed (should be
/// enqueued).
#[allow(clippy::too_many_arguments)]
fn sim_visit(
    machine: &mut SimMachine,
    core: usize,
    regions: &Regions,
    cfg: &SimBfsConfig,
    v: VertexId,
    step: u32,
    depths: &mut [u32],
    vis_host: &mut [bool],
    atomic_ops: &mut u64,
) -> bool {
    let vi = v as usize;
    match cfg.vis {
        VisScheme::None => {}
        VisScheme::Byte => {
            let r = regions.vis.expect("vis region");
            machine.read(core, r, v as u64, 1);
            if vis_host[vi] {
                return false;
            }
            machine.write(core, r, v as u64, 1);
            vis_host[vi] = true;
        }
        VisScheme::Bit => {
            let r = regions.vis.expect("vis region");
            machine.read(core, r, v as u64 / 8, 1);
            if vis_host[vi] {
                return false;
            }
            machine.write(core, r, v as u64 / 8, 1);
            vis_host[vi] = true;
        }
        VisScheme::AtomicBit => {
            let r = regions.vis.expect("vis region");
            // fetch_or = locked read-modify-write of the byte, per edge.
            machine.read(core, r, v as u64 / 8, 1);
            machine.write(core, r, v as u64 / 8, 1);
            *atomic_ops += 1;
            if vis_host[vi] {
                return false;
            }
            vis_host[vi] = true;
            // Atomic claim is exactly-once: write DP unconditionally.
            machine.write(core, regions.dp, v as u64 * 8, 8);
            depths[vi] = step;
            return true;
        }
        VisScheme::AtomicBitTest => {
            let r = regions.vis.expect("vis region");
            // Plain read per edge; the LOCK RMW only on an apparent claim.
            machine.read(core, r, v as u64 / 8, 1);
            if vis_host[vi] {
                return false;
            }
            machine.write(core, r, v as u64 / 8, 1);
            *atomic_ops += 1;
            vis_host[vi] = true;
            machine.write(core, regions.dp, v as u64 * 8, 8);
            depths[vi] = step;
            return true;
        }
    }
    // Atomic-free path: read DP, claim if INF.
    machine.read(core, regions.dp, v as u64 * 8, 8);
    if depths[vi] != INF_DEPTH {
        return false;
    }
    machine.write(core, regions.dp, v as u64 * 8, 8);
    depths[vi] = step;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::serial_bfs;
    use bfs_graph::gen::stress::stress_bipartite;
    use bfs_graph::gen::uniform::uniform_random;
    use bfs_graph::rng::rng_from_seed;
    use bfs_memsim::Channel;

    fn small_machine(sockets: usize) -> MachineConfig {
        MachineConfig {
            sockets,
            cores_per_socket: 2,
            l2_bytes: 4 << 10,
            llc_bytes: 64 << 10,
            tlb_entries: 16,
            ..MachineConfig::xeon_x5570_2s()
        }
    }

    fn check_depths(graph: &CsrGraph, cfg: &SimBfsConfig, source: VertexId) -> SimBfsResult {
        let r = simulate_bfs(graph, cfg, source);
        let oracle = serial_bfs(graph, source);
        assert_eq!(r.depths, oracle.depths, "simulated depths diverge");
        assert_eq!(r.visited_vertices, oracle.visited);
        assert_eq!(r.traversed_edges, oracle.traversed_edges);
        assert_eq!(r.steps, oracle.max_depth);
        r
    }

    #[test]
    fn simulated_depths_match_serial_all_schemes() {
        let g = uniform_random(600, 6, &mut rng_from_seed(1));
        for vis in VisScheme::ALL {
            for scheduling in [
                Scheduling::NoMultiSocketOpt,
                Scheduling::SocketAwareStatic,
                Scheduling::LoadBalanced,
            ] {
                let cfg = SimBfsConfig {
                    machine: small_machine(2),
                    vis,
                    scheduling,
                    ..Default::default()
                };
                check_depths(&g, &cfg, 0);
            }
        }
    }

    #[test]
    fn traced_sim_memstep_deltas_sum_to_ledger_totals() {
        use bfs_trace::RingSink;
        let g = uniform_random(500, 5, &mut rng_from_seed(9));
        let cfg = SimBfsConfig {
            machine: small_machine(2),
            ..Default::default()
        };
        let ring = RingSink::new(4096);
        let r = simulate_bfs_traced(&g, &cfg, 0, &ring);
        let events = ring.into_events();
        let runs: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Run(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].engine, "memsim");
        assert!(runs[0].n_pbv.is_some());
        let steps: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::MemStep(m) => Some(m),
                _ => None,
            })
            .collect();
        // One event per executed step: the depth levels plus the final
        // empty-frontier step.
        assert_eq!(steps.len() as u32, r.steps + 1);
        assert_eq!(steps.last().unwrap().frontier, 0);
        for (sums, chan) in [
            (
                steps.iter().map(|m| m.dram_read).sum::<u64>(),
                Channel::DramRead,
            ),
            (
                steps.iter().map(|m| m.dram_write).sum::<u64>(),
                Channel::DramWrite,
            ),
            (steps.iter().map(|m| m.qpi).sum::<u64>(), Channel::Qpi),
            (
                steps.iter().map(|m| m.qpi_migration).sum::<u64>(),
                Channel::QpiMigration,
            ),
            (
                steps.iter().map(|m| m.llc_to_l2).sum::<u64>(),
                Channel::LlcToL2,
            ),
            (
                steps.iter().map(|m| m.l2_to_llc).sum::<u64>(),
                Channel::L2ToLlc,
            ),
            (
                steps.iter().map(|m| m.page_walk).sum::<u64>(),
                Channel::PageWalk,
            ),
        ] {
            assert_eq!(
                sums,
                r.machine.ledger().total(None, None, Some(chan), None),
                "per-step deltas must reconstruct the {chan:?} total"
            );
        }
        // The untraced run is unchanged by tracing.
        let plain = simulate_bfs(&g, &cfg, 0);
        assert_eq!(plain.depths, r.depths);
    }

    #[test]
    fn atomic_scheme_counts_lock_ops() {
        let g = uniform_random(400, 4, &mut rng_from_seed(2));
        let cfg = SimBfsConfig {
            machine: small_machine(1),
            vis: VisScheme::AtomicBit,
            ..Default::default()
        };
        let r = check_depths(&g, &cfg, 0);
        // One fetch_or per traversed edge (modulo the source).
        assert!(r.atomic_ops >= r.traversed_edges / 2);
        let free = SimBfsConfig {
            machine: small_machine(1),
            vis: VisScheme::Bit,
            ..Default::default()
        };
        assert_eq!(check_depths(&g, &free, 0).atomic_ops, 0);
    }

    #[test]
    fn no_multisocket_scheme_pingpongs_vis_lines() {
        // The defining effect of Figure 5: spatially incoherent updates from
        // both sockets ping-pong VIS/DP lines; the two-phase load-balanced
        // scheme keeps them socket-local.
        let g = uniform_random(2000, 8, &mut rng_from_seed(3));
        let naive = simulate_bfs(
            &g,
            &SimBfsConfig {
                machine: small_machine(2),
                scheduling: Scheduling::NoMultiSocketOpt,
                ..Default::default()
            },
            0,
        );
        let balanced = simulate_bfs(
            &g,
            &SimBfsConfig {
                machine: small_machine(2),
                scheduling: Scheduling::LoadBalanced,
                ..Default::default()
            },
            0,
        );
        let qpi = |r: &SimBfsResult, reg: &str| {
            let id = (0..r.machine.space().num_regions() as u16)
                .map(RegionId)
                .find(|&i| r.machine.space().name(i) == reg)
                .unwrap();
            r.machine
                .ledger()
                .total(None, None, Some(Channel::Qpi), Some(id))
        };
        let naive_vis_qpi = qpi(&naive, "VIS") + qpi(&naive, "DP");
        let bal_vis_qpi = qpi(&balanced, "VIS") + qpi(&balanced, "DP");
        assert!(
            naive_vis_qpi > 2 * bal_vis_qpi.max(1),
            "naive {naive_vis_qpi} should dwarf balanced {bal_vis_qpi}"
        );
    }

    #[test]
    fn stress_graph_static_is_imbalanced_balanced_is_not() {
        // §V-A: "the benefit of load-balancing is higher for larger degree
        // graphs" — the stress-case win shows at degree 32, not 8.
        let g = stress_bipartite(3000, 32, &mut rng_from_seed(4));
        let run = |scheduling| {
            simulate_bfs(
                &g,
                &SimBfsConfig {
                    machine: small_machine(2),
                    scheduling,
                    ..Default::default()
                },
                0,
            )
        };
        let stat = run(Scheduling::SocketAwareStatic);
        let bal = run(Scheduling::LoadBalanced);
        let bw = BandwidthSpec::xeon_x5570();
        // Balanced should be at least as fast on the stress case.
        let (ts, tb) = (
            stat.phase_cycles(&bw).total(),
            bal.phase_cycles(&bw).total(),
        );
        assert!(
            tb <= ts * 1.02,
            "load-balanced ({tb:.3}) must not lose to static ({ts:.3}) on the stress graph"
        );
    }

    #[test]
    fn rearrange_reduces_page_walk_traffic() {
        // Big adjacency footprint + tiny TLB: rearranged frontiers must
        // cause fewer page walks.
        let g = uniform_random(8192, 8, &mut rng_from_seed(5));
        let mut m = small_machine(1);
        m.tlb_entries = 4;
        let walks = |rearrange: bool| {
            let r = simulate_bfs(
                &g,
                &SimBfsConfig {
                    machine: m,
                    rearrange,
                    ..Default::default()
                },
                0,
            );
            r.machine
                .ledger()
                .total(Some(Phase::PhaseOne), None, Some(Channel::PageWalk), None)
        };
        let with = walks(true);
        let without = walks(false);
        assert!(
            with < without,
            "rearrangement must cut Phase-I page walks: {with} vs {without}"
        );
    }

    #[test]
    fn phase_cycles_are_positive_and_mteps_finite() {
        let g = uniform_random(500, 4, &mut rng_from_seed(6));
        let r = check_depths(
            &g,
            &SimBfsConfig {
                machine: small_machine(2),
                ..Default::default()
            },
            0,
        );
        let bw = BandwidthSpec::xeon_x5570();
        let c = r.phase_cycles(&bw);
        assert!(c.phase1 > 0.0 && c.phase2 > 0.0);
        assert!(r.mteps(&bw).is_finite());
    }

    #[test]
    fn interleave_granularity_does_not_change_results() {
        let g = uniform_random(300, 4, &mut rng_from_seed(7));
        for grain in [1usize, 7, 1024] {
            let cfg = SimBfsConfig {
                machine: small_machine(2),
                interleave: grain,
                ..Default::default()
            };
            check_depths(&g, &cfg, 0);
        }
    }

    #[test]
    fn single_vertex_graph() {
        let g = CsrGraph::empty(1);
        let r = simulate_bfs(
            &g,
            &SimBfsConfig {
                machine: small_machine(1),
                ..Default::default()
            },
            0,
        );
        assert_eq!(r.depths, vec![0]);
        assert_eq!(r.steps, 0);
    }
}
