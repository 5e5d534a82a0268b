//! Figure 6: our cache-friendly load-balanced BFS vs the Agarwal et al.
//! baseline on UR and R-MAT graphs of varying size and degree.
//!
//! Two measurement paths per row:
//! * **simulated** — both algorithms replayed on the simulated 2-socket
//!   X5570 (the Agarwal baseline = atomic bitmap + no locality machinery);
//!   this carries the paper's 1.5–3x claim and the socket-scaling claim.
//! * **wall clock** — the threaded engine on this host under both
//!   configurations: one engine per configuration, built before its timed
//!   runs, reports the median MTEPS over the same 5 random roots, as §V
//!   averages over random roots (absolute numbers depend on host cores;
//!   ratios are reported).

use bfs_bench::runs::{agarwal_options, agarwal_sim, median_wall_mteps, run_sim, ScaledSetup};
use bfs_bench::table::{fmt_f, Table, TableWriter};
use bfs_bench::HarnessArgs;
use bfs_core::engine::{BfsEngine, BfsOptions};
use bfs_core::sim::SimBfsConfig;
use bfs_graph::gen::rmat::{rmat, RmatConfig};
use bfs_graph::gen::uniform::uniform_random;
use bfs_graph::rng::stream_rng;
use bfs_graph::CsrGraph;
use bfs_memsim::MachineConfig;
use bfs_platform::Topology;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    family: String,
    paper_vertices: u64,
    degree: u32,
    sim_ours_mteps: f64,
    sim_baseline_mteps: f64,
    sim_speedup: f64,
    sim_socket_scaling: f64,
    wall_ours_mteps: f64,
    wall_baseline_mteps: f64,
    wall_speedup: f64,
}

fn main() {
    let args = HarnessArgs::parse();
    let setup = ScaledSetup::default();
    let mut configs: Vec<(&str, u64, u32)> = vec![
        ("UR", 8 << 20, 8),
        ("UR", 8 << 20, 32),
        ("RMAT", 8 << 20, 8),
        ("RMAT", 8 << 20, 32),
    ];
    if args.full {
        configs.extend([("UR", 64 << 20, 8), ("RMAT", 64 << 20, 8)]);
    }
    println!(
        "Figure 6 — ours vs Agarwal-style baseline (sim 2-socket X5570 at 1/{}; wall clock on this host)\n",
        setup.shrink
    );
    let mut t = Table::new([
        "family",
        "|V| (paper)",
        "deg",
        "sim ours MTEPS",
        "sim base MTEPS",
        "sim speedup",
        "socket scaling",
        "wall ours",
        "wall base",
        "wall speedup",
    ]);
    let mut rows = Vec::new();
    for (family, pv, degree) in configs {
        let n = ((setup.shrink_vertices(pv) as f64 * args.scale) as usize).max(1 << 12);
        let g: CsrGraph = match family {
            "UR" => uniform_random(n, degree, &mut stream_rng(args.seed, pv + degree as u64)),
            _ => rmat(
                &RmatConfig::paper((n as f64).log2().round() as u32, degree),
                &mut stream_rng(args.seed, pv + degree as u64),
            ),
        };
        let src = bfs_graph::stats::nth_non_isolated(&g, 0).expect("graph has edges");

        // Simulated: ours (2 sockets), baseline (2 sockets), ours (1 socket).
        let ours_cfg = SimBfsConfig {
            machine: setup.machine,
            ..Default::default()
        };
        let (_c1, ours_mteps, _r) = run_sim(&g, &ours_cfg, &setup.bandwidth, src);
        let (_c2, base_mteps, _r) = run_sim(&g, &agarwal_sim(setup.machine), &setup.bandwidth, src);
        let one_socket = MachineConfig {
            sockets: 1,
            ..setup.machine
        };
        let ours_1s = SimBfsConfig {
            machine: one_socket,
            ..Default::default()
        };
        let (_c3, ours_1s_mteps, _r) = run_sim(&g, &ours_1s, &setup.bandwidth, src);

        // Wall clock: the engine on the host under both configurations.
        let roots = bfs_graph::stats::random_roots(&g, 5, args.seed);
        let topo = Topology::host();
        let ours_engine = BfsEngine::new(&g, topo, BfsOptions::default());
        let base_engine = BfsEngine::new(&g, topo, agarwal_options());
        let wall_ours = median_wall_mteps(&ours_engine, &roots);
        let wall_base = median_wall_mteps(&base_engine, &roots);

        t.row([
            family.to_string(),
            format!("{}M", pv >> 20),
            degree.to_string(),
            fmt_f(ours_mteps),
            fmt_f(base_mteps),
            fmt_f(ours_mteps / base_mteps),
            fmt_f(ours_mteps / ours_1s_mteps),
            fmt_f(wall_ours),
            fmt_f(wall_base),
            fmt_f(wall_ours / wall_base),
        ]);
        rows.push(Row {
            family: family.into(),
            paper_vertices: pv,
            degree,
            sim_ours_mteps: ours_mteps,
            sim_baseline_mteps: base_mteps,
            sim_speedup: ours_mteps / base_mteps,
            sim_socket_scaling: ours_mteps / ours_1s_mteps,
            wall_ours_mteps: wall_ours,
            wall_baseline_mteps: wall_base,
            wall_speedup: wall_ours / wall_base,
        });
    }
    println!("{t}");
    println!("paper: 1.5–3x over Agarwal et al. on the same platform; socket scaling ≈1.98x UR / 1.93x RMAT");
    if let Some(path) = &args.json {
        TableWriter::write_json(path, &rows).expect("write json");
        println!("rows written to {path}");
    }
}
