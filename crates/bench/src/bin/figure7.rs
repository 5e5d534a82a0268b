//! Figure 7: traversal rate on the real-world-graph proxies of Table II —
//! our optimized scheme vs the Agarwal-style re-implementation, with the
//! analytical model's prediction alongside (the paper reports matching the
//! model within 10% on social networks and 5% on Toy++).

use bfs_bench::runs::{agarwal_sim, model_for_graph, run_engine_wall, run_sim, ScaledSetup};
use bfs_bench::table::{fmt_f, fmt_n, Table, TableWriter};
use bfs_bench::HarnessArgs;
use bfs_core::engine::BfsOptions;
use bfs_core::sim::SimBfsConfig;
use bfs_graph::gen::proxy::{ProxyKind, ProxySpec};
use bfs_graph::stats::nth_non_isolated;
use bfs_platform::Topology;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    graph: String,
    vertices: u64,
    traversed_edges: u64,
    sim_ours_mteps: f64,
    sim_baseline_mteps: f64,
    sim_speedup: f64,
    model_mteps: f64,
    model_gap_pct: f64,
    wall_ours_mteps: f64,
}

fn alpha_for(kind: ProxyKind) -> f64 {
    match kind {
        // Social-network / Graph500 proxies are R-MAT: the paper measured
        // alpha ≈ 0.6 for its parameters.
        ProxyKind::Orkut | ProxyKind::Twitter | ProxyKind::Facebook | ProxyKind::ToyPlusPlus => 0.6,
        // Mesh/road/small-world proxies traverse level sets that wander
        // across the id space: near-uniform.
        _ => 0.55,
    }
}

fn main() {
    let args = HarnessArgs::parse();
    let setup = ScaledSetup::default();
    let base_fraction = (1.0 / 512.0) * args.scale;
    println!(
        "Figure 7 — real-world proxies at fraction {base_fraction:.5}, simulated 2-socket X5570 at 1/{} cache scale\n",
        setup.shrink
    );
    let mut t = Table::new([
        "graph",
        "|V|",
        "|E'|",
        "sim ours MTEPS",
        "sim base MTEPS",
        "speedup",
        "model MTEPS",
        "model gap",
        "wall ours MTEPS",
    ]);
    let mut rows = Vec::new();
    for spec in ProxySpec::all() {
        let g = spec.generate_seeded(base_fraction.min(1.0), args.seed);
        let src = nth_non_isolated(&g, 0).expect("proxy has edges");
        let ours = SimBfsConfig {
            machine: setup.machine,
            ..Default::default()
        };
        let (_c, ours_mteps, r) = run_sim(&g, &ours, &setup.bandwidth, src);
        let (_c, base_mteps, _r2) = run_sim(&g, &agarwal_sim(setup.machine), &setup.bandwidth, src);
        let model = model_for_graph(&g, &setup.spec, src, alpha_for(spec.kind));
        let gap = (ours_mteps - model.mteps_multi).abs() / model.mteps_multi * 100.0;
        let (wall, _) = run_engine_wall(&g, Topology::host(), BfsOptions::default(), src);
        t.row([
            spec.name.to_string(),
            fmt_n(g.num_vertices() as u64),
            fmt_n(r.traversed_edges),
            fmt_f(ours_mteps),
            fmt_f(base_mteps),
            fmt_f(ours_mteps / base_mteps),
            fmt_f(model.mteps_multi),
            format!("{gap:.0}%"),
            fmt_f(wall),
        ]);
        rows.push(Row {
            graph: spec.name.into(),
            vertices: g.num_vertices() as u64,
            traversed_edges: r.traversed_edges,
            sim_ours_mteps: ours_mteps,
            sim_baseline_mteps: base_mteps,
            sim_speedup: ours_mteps / base_mteps,
            model_mteps: model.mteps_multi,
            model_gap_pct: gap,
            wall_ours_mteps: wall,
        });
    }
    println!("{t}");
    println!("paper: 2–2.8x on UF matrices, up to 13.2x on USA roads, model within 5–10% on social/Toy++");
    println!("(road proxies: the model ignores their strong id-locality, so it underpredicts — the paper notes the same)");
    if let Some(path) = &args.json {
        TableWriter::write_json(path, &rows).expect("write json");
        println!("rows written to {path}");
    }
}
