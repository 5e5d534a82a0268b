//! §V-A latency-hiding ablations:
//!
//! 1. **Rearrangement** — the paper gains an average 1.15x from reordering
//!    `BV_t^N`; measured here as simulated page-walk traffic and cycles with
//!    the pass on/off.
//! 2. **Prefetch distance sweep** — wall-clock engine time at distances
//!    0 / 4 / 16 / 64.
//! 3. **PBV encoding** — markers vs (parent, vertex) pairs: simulated bin
//!    traffic for a low-degree and a high-bin-count configuration
//!    (§III-C(4) footnote: pairs win when `N_PBV ≥ ρ`).

use bfs_bench::runs::{run_engine_wall, run_sim, ScaledSetup};
use bfs_bench::table::{fmt_f, Table};
use bfs_bench::HarnessArgs;
use bfs_core::engine::BfsOptions;
use bfs_core::pbv::PbvEncoding;
use bfs_core::sim::SimBfsConfig;
use bfs_graph::gen::uniform::uniform_random;
use bfs_graph::rng::stream_rng;
use bfs_memsim::{Channel, Phase};
use bfs_platform::Topology;

fn main() {
    let args = HarnessArgs::parse();
    let setup = ScaledSetup::default();
    let n = args.sized(1 << 17, 1 << 12);
    let g = uniform_random(n, 16, &mut stream_rng(args.seed, 1));
    let src = 0u32;

    // 1. Rearrangement.
    println!("Ablation 1 — TLB rearrangement (sim, |V| = {n}, degree 16)\n");
    let mut t = Table::new(["rearrange", "page-walk B/edge", "cyc/edge", "speedup"]);
    let mut base = None;
    for on in [false, true] {
        let cfg = SimBfsConfig {
            machine: setup.machine,
            rearrange: on,
            ..Default::default()
        };
        let (cpe, _m, r) = run_sim(&g, &cfg, &setup.bandwidth, src);
        let walks = r
            .machine
            .ledger()
            .total(None, None, Some(Channel::PageWalk), None) as f64
            / r.traversed_edges as f64;
        let b = *base.get_or_insert(cpe);
        t.row([
            if on { "on" } else { "off" }.to_string(),
            fmt_f(walks),
            fmt_f(cpe),
            fmt_f(b / cpe),
        ]);
    }
    println!("{t}");
    println!("paper: rearrangement gains an average of 1.15x\n");

    // 2. Prefetch distance sweep (wall clock).
    println!("Ablation 2 — prefetch distance (wall clock, host topology)\n");
    let mut t = Table::new(["PREF_DIST", "MTEPS"]);
    for dist in [0usize, 4, 16, 64] {
        let (mteps, _) = run_engine_wall(
            &g,
            Topology::host(),
            BfsOptions {
                prefetch_distance: dist,
                ..Default::default()
            },
            src,
        );
        t.row([dist.to_string(), fmt_f(mteps)]);
    }
    println!("{t}");
    println!(
        "(prefetch effects require a real memory hierarchy; on small hosts this is near-neutral)\n"
    );

    // 3. Encoding: markers vs pairs at low degree with many bins.
    println!("Ablation 3 — PBV encoding, degree 2 graph, N_VIS forced to 8 (N_PBV = 16 >= rho)\n");
    let sparse = uniform_random(n, 2, &mut stream_rng(args.seed, 2));
    let mut t = Table::new(["encoding", "Phase-I DDR B/edge", "cyc/edge"]);
    for (label, enc) in [
        ("markers", PbvEncoding::Markers),
        ("pairs", PbvEncoding::Pairs),
    ] {
        let cfg = SimBfsConfig {
            machine: setup.machine,
            encoding: enc,
            n_vis_override: Some(8),
            ..Default::default()
        };
        let (cpe, _m, r) = run_sim(&sparse, &cfg, &setup.bandwidth, src);
        let report = r.report();
        let p1 = report.ddr_bytes_per_edge(Some(Phase::PhaseOne), r.traversed_edges);
        t.row([label.to_string(), fmt_f(p1), fmt_f(cpe)]);
    }
    println!("{t}");
    println!(
        "paper (footnote 4): (parent, vertex) pairs are more space-efficient when N_PBV >= rho"
    );
}
