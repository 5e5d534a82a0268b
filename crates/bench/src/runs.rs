//! Shared measurement paths: scaled machines, the Agarwal et al. baseline
//! configuration, engine wall-clock runs, simulated runs, and model
//! predictions in one struct per row.

use bfs_core::engine::{BfsEngine, BfsOptions, Scheduling};
use bfs_core::sim::{simulate_bfs, SimBfsConfig, SimBfsResult};
use bfs_core::VisScheme;
use bfs_graph::stats::traversal_shape;
use bfs_graph::CsrGraph;
use bfs_memsim::{BandwidthSpec, MachineConfig};
use bfs_model::{GraphParams, MachineSpec};
use bfs_platform::Topology;
use serde::Serialize;

use crate::DEFAULT_SHRINK;

/// The simulated machine and matching model spec at a shrink factor:
/// caches and TLB reach shrink with the workload so capacity ratios match
/// the paper's (DESIGN.md "Scaling note").
#[derive(Clone, Debug)]
pub struct ScaledSetup {
    /// memsim geometry.
    pub machine: MachineConfig,
    /// Matching analytical-model constants.
    pub spec: MachineSpec,
    /// Table I bandwidths.
    pub bandwidth: BandwidthSpec,
    /// The shrink factor applied.
    pub shrink: u64,
}

/// Scaled dual-socket X5570 (memsim geometry).
pub fn scaled_machine(shrink: u64) -> MachineConfig {
    MachineConfig::xeon_x5570_2s().scaled_down(shrink)
}

/// Scaled Table I constants for the analytical model (same cache scaling;
/// bandwidths are per-byte rates and do not scale).
pub fn scaled_machine_spec(shrink: u64, sockets: usize) -> MachineSpec {
    let m = scaled_machine(shrink);
    MachineSpec {
        sockets,
        l2_bytes: m.l2_bytes,
        llc_bytes: m.llc_bytes,
        ..MachineSpec::xeon_x5570_2s()
    }
}

impl ScaledSetup {
    /// Default scaled setup.
    pub fn new(shrink: u64) -> Self {
        Self {
            machine: scaled_machine(shrink),
            spec: scaled_machine_spec(shrink, 2),
            bandwidth: BandwidthSpec::xeon_x5570(),
            shrink,
        }
    }

    /// Paper-regime vertex count → simulated vertex count.
    pub fn shrink_vertices(&self, paper_vertices: u64) -> usize {
        (paper_vertices / self.shrink).max(1 << 12) as usize
    }
}

impl Default for ScaledSetup {
    fn default() -> Self {
        Self::new(DEFAULT_SHRINK)
    }
}

/// The Agarwal et al. baseline of §V as an engine configuration: the
/// test-first atomic bitmap (one LOCK `fetch_or` claim per vertex), a
/// shared frontier expanded in even chunks with no binning, and neither
/// rearrangement nor prefetch.
pub fn agarwal_options() -> BfsOptions {
    BfsOptions {
        vis: VisScheme::AtomicBitTest,
        scheduling: Scheduling::NoMultiSocketOpt,
        rearrange: false,
        prefetch_distance: 0,
        ..Default::default()
    }
}

/// [`agarwal_options`] replayed on the simulated `machine`.
pub fn agarwal_sim(machine: MachineConfig) -> SimBfsConfig {
    let o = agarwal_options();
    SimBfsConfig {
        machine,
        vis: o.vis,
        scheduling: o.scheduling,
        rearrange: o.rearrange,
        prefetch: o.prefetch_distance > 0,
        ..Default::default()
    }
}

/// One measured row: wall clock and/or simulation and/or model.
#[derive(Clone, Debug, Default, Serialize)]
pub struct RowMeasurement {
    pub label: String,
    pub vertices: u64,
    pub edges: u64,
    pub traversed_edges: u64,
    pub wall_mteps: Option<f64>,
    pub sim_cycles_per_edge: Option<f64>,
    pub sim_mteps: Option<f64>,
    pub model_cycles_per_edge: Option<f64>,
    pub model_mteps: Option<f64>,
}

/// Runs the real threaded engine and reports wall-clock MTEPS.
pub fn run_engine_wall(
    graph: &CsrGraph,
    topology: Topology,
    options: BfsOptions,
    source: u32,
) -> (f64, u64) {
    let engine = BfsEngine::new(graph, topology, options);
    let out = engine.run(source);
    (out.stats.mteps(), out.stats.traversed_edges)
}

/// Median wall-clock MTEPS of `engine` over one traversal from each of
/// `roots`. The caller builds the engine, so its pool and arrays stay
/// outside the timed runs.
pub fn median_wall_mteps(engine: &BfsEngine, roots: &[u32]) -> f64 {
    assert!(!roots.is_empty(), "median over no roots");
    let mteps: Vec<f64> = roots.iter().map(|&r| engine.run(r).stats.mteps()).collect();
    crate::gate::median(&mteps)
}

/// Runs the simulated machine and reports (cycles/edge, MTEPS, result).
pub fn run_sim(
    graph: &CsrGraph,
    cfg: &SimBfsConfig,
    bw: &BandwidthSpec,
    source: u32,
) -> (f64, f64, SimBfsResult) {
    let r = simulate_bfs(graph, cfg, source);
    let c = r.phase_cycles(bw);
    (c.total(), r.mteps(bw), r)
}

/// Model prediction for an actual graph, using its measured traversal shape.
pub fn model_for_graph(
    graph: &CsrGraph,
    spec: &MachineSpec,
    source: u32,
    alpha: f64,
) -> bfs_model::Prediction {
    let shape = traversal_shape(graph, source);
    let params = GraphParams {
        num_vertices: graph.num_vertices() as u64,
        visited_vertices: shape.visited_vertices.max(1),
        traversed_edges: shape.traversed_edges.max(1),
        depth: shape.depth,
    };
    bfs_model::predict(spec, &params, alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfs_graph::gen::uniform::uniform_random;
    use bfs_graph::rng::rng_from_seed;

    #[test]
    fn scaled_setup_ratios() {
        let s = ScaledSetup::new(64);
        assert_eq!(s.machine.llc_bytes, (8 << 20) / 64);
        assert_eq!(s.spec.llc_bytes, s.machine.llc_bytes);
        // Paper 8M-vertex graph → 128K simulated.
        assert_eq!(s.shrink_vertices(8 << 20), 128 << 10);
    }

    #[test]
    fn engine_and_sim_and_model_agree_on_edges() {
        let g = uniform_random(2000, 4, &mut rng_from_seed(1));
        let setup = ScaledSetup::new(256);
        let (wall, edges) =
            run_engine_wall(&g, Topology::synthetic(2, 2), BfsOptions::default(), 0);
        assert!(wall > 0.0);
        let engine = BfsEngine::new(&g, Topology::synthetic(2, 2), agarwal_options());
        assert!(median_wall_mteps(&engine, &[0, 1, 2, 3, 4]) > 0.0);
        let (cpe, mteps, r) = run_sim(
            &g,
            &bfs_core::sim::SimBfsConfig {
                machine: setup.machine,
                ..Default::default()
            },
            &setup.bandwidth,
            0,
        );
        assert_eq!(r.traversed_edges, edges);
        assert!(cpe > 0.0 && mteps > 0.0);
        let p = model_for_graph(&g, &setup.spec, 0, 0.5);
        assert!(p.multi_socket.total > 0.0);
    }
}
