//! Subcommand implementations.

use std::fs::File;
use std::io::{BufReader, BufWriter};

use bfs_bench::gate;
use bfs_bench::report::{BatchReport, QueryReport, RunReport, SCHEMA};
use bfs_core::direction::{DEFAULT_ALPHA, DEFAULT_BETA};
use bfs_core::engine::{BfsEngine, BfsOptions, BfsOutput, HugepageStatus, Scheduling};
use bfs_core::serial::serial_bfs;
use bfs_core::session::BfsSession;
use bfs_core::sim::{simulate_bfs, simulate_bfs_traced, SimBfsConfig};
use bfs_core::validate::validate_bfs_tree;
use bfs_core::{Direction, DirectionPolicy, VisScheme};
use bfs_graph::gen::grid::{grid3d_stencil, road_network, Stencil};
use bfs_graph::gen::proxy::ProxySpec;
use bfs_graph::gen::rmat::{rmat, RmatConfig};
use bfs_graph::gen::smallworld::watts_strogatz;
use bfs_graph::gen::stress::stress_bipartite;
use bfs_graph::gen::uniform::uniform_random;
use bfs_graph::rng::rng_from_seed;
use bfs_graph::stats::{nth_non_isolated, random_roots, summarize};
use bfs_graph::CsrGraph;
use bfs_memsim::{BandwidthSpec, MachineConfig};
use bfs_metrics::{AttributionContext, AttributionReport, MetricsSnapshot};
use bfs_model::{predict, GraphParams, MachineSpec};
use bfs_platform::hugepage::{HugepageUnavailable, HUGE_MIN_BYTES};
use bfs_platform::Topology;
use bfs_trace::{JsonlSink, RingSink, TeeSink, TraceEvent, TraceSink};
use serde::Serialize;

use crate::opts::Opts;

/// Top-level usage text.
pub const USAGE: &str = "\
fastbfs — fast single-node BFS (IPDPS 2012 reproduction)

subcommands:
  gen      generate a graph        --family ur|rmat|graph500|stress|road|grid3d|ws|proxy:<name>
                                   [--scale S | --vertices N] [--degree D] [--edge-factor F]
                                   [--seed K] -o FILE[.txt]
  info     graph statistics        -i FILE [--source V]
  run      threaded traversal      -i FILE [--source V] [--runs K] [--threads T] [--sockets S]
                                   [--vis none|atomic|atomic-test|byte|bit]
                                   [--scheduling naive|static|load-balanced]
                                   [--direction auto|top-down|bottom-up]
                                   [--alpha A] [--beta B] — direction-optimizing
                                   switch thresholds (defaults 15/18)
                                   [--no-rearrange] [--validate]
                                   [--relabel] — degree-order relabel the CSR before
                                   running (build-time pass; answers stay in the
                                   file's original vertex ids)
                                   [--hugepages] — back the CSR neighbor array and the
                                   VIS/DP/frontier arenas with 2 MiB transparent
                                   hugepages (graceful fallback with a typed reason
                                   on hosts without THP)
                                   [--json FILE] — per-query latency, MTEPS, and
                                   per-level direction decisions as JSON
                                   [--sources N [--seed K]] — batched multi-source
                                   queries over one warm session (Graph500-style
                                   random roots; per-query latency, mean and
                                   harmonic-mean MTEPS)
  trace    traced traversal        (-i FILE | --family ... [gen flags]) [same engine flags]
                                   [--out FILE.jsonl] [--with-sim] — per-step events + summary
  metrics  model-vs-measured       (-i FILE | --family ... [gen flags]) [same engine flags]
           attribution             [--relabel] [--hugepages] — memory-layout levers
                                   (compare measured Phase I bytes/edge with and
                                   without them)
                                   [--sources N] [--seed K] [--model-alpha A]
                                   [--format text|json|prom] — run a warm batch, then
                                   join the always-on metrics registry against the §IV
                                   model: achieved vs predicted GB/s per phase and per
                                   step, per-socket load imbalance
  serve    instrumented query     (-i FILE | --family ... [gen flags]) [same engine flags]
           server                  [--relabel] [--hugepages] — memory-layout levers;
                                   endpoints keep answering in original vertex ids
                                   [--metrics-addr HOST:PORT] — HTTP query server over one
                                   warm session: GET /query?src=N[&dst=M], GET
                                   /path?src=A&dst=B, POST /query {\"sources\":[...]},
                                   GET /graph, plus /metrics (Prometheus 0.0.4 with
                                   request-lifecycle spans, queue/in-flight gauges,
                                   build info), /healthz, /snapshot, /quitquitquit
                                   [--queries N] — warmup traversals before serving
                                   [--sources N] [--seed K] — warmup root pool
                                   [--sessions N] — parked warm-session pool size
                                   (default min(4, cores/8)); a session that frees up
                                   takes the next queued request, one at a time
                                   [--deadline-ms D] — default per-request deadline;
                                   requests that expire while queued get 504 without
                                   executing (per-request Deadline-Ms header overrides)
                                   [--http-threads T] [--queue-cap N] — admission layer
                                   flight recorder: every request gets a trace id
                                   (Trace-Id header or generated); slow/errored traces
                                   kept in full at GET /debug/slow and
                                   GET /debug/trace/<id>
                                   [--slow-ms MS] — absolute keep floor (0 keeps all;
                                   default: rolling p99 tail sampling only)
                                   [--trace-ring N] — retained full traces (default 64)
                                   [--trace-log PATH] — append sampled traces as JSONL
                                   [--addr-file PATH] — write the bound address (use with
                                   port 0 for scripts)
                                   windowed rollups: a ticker snapshots counter/histogram
                                   deltas into a ring; GET /debug/health (SLO verdict,
                                   503 while breaching) and GET /debug/timeseries[?n=K]
                                   [--rollup-interval-ms MS] — tick period (default 1000)
                                   [--slo-fast-s S] [--slo-slow-s S] — burn-rate windows
                                   (defaults 60/300); fast breach ⇒ breaching, slow-only
                                   ⇒ degraded
                                   [--slo-p99-ms X] [--slo-error-rate F] [--slo-drop-rate F]
                                   — SLO thresholds (unset SLOs are not evaluated)
  loadgen  open-loop load test     [URL] --rate R --duration S — coordinated-omission-safe
                                   generator against a running serve: arrivals drawn up
                                   front ([--arrival poisson|uniform]), latency measured
                                   from each request's *scheduled* arrival
                                   [--endpoint query|path] [--connections C] [--seed K]
                                   [--warmup S] — S seconds of same-rate throwaway
                                   traffic before the measured window
                                   [--out FILE] — write a fastbfs-load-v1 JSON report
                                   (errors split out deadline-dropped 504s; the worst-
                                   percentile requests' trace ids link to the server's
                                   /debug/trace/<id>)
                                   [--max-p99-ms X] — exit nonzero when p99 breaches
  monitor  live server view        [URL] — poll /debug/health + /metrics of a running
                                   serve and render a terminal dashboard: verdict,
                                   windowed QPS/p50/p99/error/drop rates,
                                   direction mix, per-session busy, slowest traces
                                   [--interval-ms MS] — poll period (default 1000)
                                   [--once] — single frame, then exit
                                   [--format text|json] — json is a stable envelope
                                   embedding the /debug/health body for scripting
  sim      simulated X5570 run   -i FILE [--source V] [--shrink F] [same engine flags]
  model    analytical prediction   --vertices N --degree D --depth DEP
                                   [--visited N] [--edges E] [--alpha A] [--sockets S]
  convert  text <-> binary         -i FILE -o FILE
  bench-compare                    BENCHMARK.json PARENT CHANGE — regression gate: each
           perf regression gate    file holds the result lines of alternated untraced
                                   perfbench/run.sh runs, one per line (pair i = line i);
                                   per end-to-end metric, prints parent median (IQR),
                                   change median, pairs won and a verdict (FAIL, gain,
                                   unresolved, within) under BENCHMARK.json's bounds;
                                   exits nonzero when any metric FAILs
";

pub(crate) fn load_graph(path: &str) -> Result<CsrGraph, String> {
    let f = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    if path.ends_with(".txt") {
        bfs_graph::io::read_edge_list(&mut BufReader::new(f))
    } else {
        bfs_graph::io::read_binary(&mut BufReader::new(f))
    }
    .map_err(|e| format!("read {path}: {e}"))
}

fn save_graph(g: &CsrGraph, path: &str) -> Result<(), String> {
    let f = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    let mut w = BufWriter::new(f);
    if path.ends_with(".txt") {
        bfs_graph::io::write_edge_list(g, &mut w)
    } else {
        bfs_graph::io::write_binary(g, &mut w)
    }
    .map_err(|e| format!("write {path}: {e}"))
}

fn parse_vis(s: &str) -> Result<VisScheme, String> {
    Ok(match s {
        "none" => VisScheme::None,
        "atomic" => VisScheme::AtomicBit,
        "atomic-test" => VisScheme::AtomicBitTest,
        "byte" => VisScheme::Byte,
        "bit" => VisScheme::Bit,
        _ => return Err(format!("unknown --vis {s:?}")),
    })
}

fn parse_scheduling(s: &str) -> Result<Scheduling, String> {
    Ok(match s {
        "naive" => Scheduling::NoMultiSocketOpt,
        "static" => Scheduling::SocketAwareStatic,
        "load-balanced" => Scheduling::LoadBalanced,
        _ => return Err(format!("unknown --scheduling {s:?}")),
    })
}

/// Parses `--direction` (plus its `--alpha`/`--beta` thresholds). The CLI
/// defaults to `auto` — unlike the library, whose default stays the
/// paper-faithful forced top-down.
fn parse_direction(o: &Opts) -> Result<DirectionPolicy, String> {
    let alpha: f64 = o.num("alpha", DEFAULT_ALPHA)?;
    let beta: f64 = o.num("beta", DEFAULT_BETA)?;
    Ok(match o.get("direction").unwrap_or("auto") {
        "auto" => DirectionPolicy::Auto { alpha, beta },
        "top-down" => DirectionPolicy::ForcedTopDown,
        "bottom-up" => DirectionPolicy::ForcedBottomUp,
        s => return Err(format!("unknown --direction {s:?}")),
    })
}

pub(crate) fn engine_options(o: &Opts) -> Result<BfsOptions, String> {
    Ok(BfsOptions {
        vis: parse_vis(o.get("vis").unwrap_or("bit"))?,
        scheduling: parse_scheduling(o.get("scheduling").unwrap_or("load-balanced"))?,
        rearrange: !o.has("no-rearrange"),
        direction: parse_direction(o)?,
        huge_pages: o.has("hugepages"),
        ..Default::default()
    })
}

/// Applies the memory-layout levers to a freshly loaded graph:
/// `--relabel` rewrites the CSR in descending out-degree order (the
/// session translates every answer back, so external vertex ids never
/// change) and `--hugepages` migrates the CSR arrays onto 2 MiB
/// transparent hugepages.
///
/// When `keep_original` is set and relabeling happened, the untouched
/// graph rides along so `--validate` can run its serial oracle in the
/// same id space the answers use — an end-to-end check of the
/// translation layer, not just of the traversal.
///
/// Callers that pick sources or roots by degree must do so *before*
/// this pass: degree queries on the relabeled CSR are in internal ids.
pub(crate) fn prepare_graph(
    g: CsrGraph,
    o: &Opts,
    keep_original: bool,
) -> (CsrGraph, Option<CsrGraph>) {
    let (mut g, original) = if o.has("relabel") {
        let (relabeled, _) = bfs_graph::degree_order(&g);
        (relabeled, keep_original.then_some(g))
    } else {
        (g, None)
    };
    if o.has("hugepages") && !g.migrate_to_hugepages() {
        let qualified = [
            std::mem::size_of_val(g.offsets()),
            std::mem::size_of_val(g.raw_neighbors()),
        ]
        .iter()
        .any(|&bytes| bytes >= HUGE_MIN_BYTES);
        println!(
            "hugepages: CSR stays on plain pages ({})",
            plain_pages_reason(bfs_platform::hugepage::availability(), qualified)
        );
    }
    (g, original)
}

/// Why `--hugepages` left the CSR on plain pages, from the host probe and
/// whether any CSR array reached [`HUGE_MIN_BYTES`]: the host's reason
/// when it refuses hugepages, else the size floor when no array reached
/// it, else a refusal of the mapping itself.
fn plain_pages_reason(host: Result<(), HugepageUnavailable>, qualified: bool) -> String {
    match host {
        Err(reason) => format!("unavailable: {reason}"),
        Ok(()) if !qualified => format!(
            "every array is below the {} KiB hugepage floor",
            HUGE_MIN_BYTES / 1024
        ),
        Ok(()) => "available, but the hugepage mapping was refused".to_string(),
    }
}

/// The `hugepages` provenance string for reports: `"enabled"`,
/// `"disabled"`, or `"unavailable: <reason>"` — the typed degradation
/// reason travels with the numbers it explains.
fn hugepage_provenance(status: &HugepageStatus) -> String {
    match status {
        HugepageStatus::Enabled => "enabled".to_string(),
        HugepageStatus::Disabled => "disabled".to_string(),
        HugepageStatus::Unavailable(reason) => format!("unavailable: {reason}"),
    }
}

/// Compact per-level direction string: one `T`/`B` letter per BFS step.
fn direction_string(dirs: &[Direction]) -> String {
    dirs.iter()
        .map(|d| match d {
            Direction::TopDown => 'T',
            Direction::BottomUp => 'B',
        })
        .collect()
}

fn pick_source(g: &CsrGraph, o: &Opts) -> Result<u32, String> {
    match o.get("source") {
        Some(v) => v.parse().map_err(|_| "--source expects a vertex id".into()),
        None => nth_non_isolated(g, 0).ok_or_else(|| "graph has no edges".into()),
    }
}

/// Builds the graph a `--family ...` option set describes (shared by `gen`
/// and `trace`).
pub(crate) fn generate_family(o: &Opts) -> Result<CsrGraph, String> {
    let family = o.require("family")?;
    let seed: u64 = o.num("seed", 42)?;
    let mut rng = rng_from_seed(seed);
    Ok(if let Some(name) = family.strip_prefix("proxy:") {
        let spec = ProxySpec::all()
            .into_iter()
            .find(|s| s.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("unknown proxy {name:?}"))?;
        let fraction: f64 = o.num("fraction", 1.0 / 512.0)?;
        spec.generate(fraction, &mut rng)
    } else {
        let scale: u32 = o.num("scale", 14)?;
        let vertices: usize = o.num("vertices", 1usize << scale)?;
        let degree: u32 = o.num("degree", 8)?;
        match family {
            "ur" => uniform_random(vertices, degree, &mut rng),
            "rmat" => rmat(
                &RmatConfig::paper(scale, o.num("edge-factor", degree)?),
                &mut rng,
            ),
            "graph500" => rmat(
                &RmatConfig::graph500(scale, o.num("edge-factor", 16)?),
                &mut rng,
            ),
            "stress" => stress_bipartite(vertices, degree, &mut rng),
            "road" => {
                let side = (vertices as f64).sqrt().round().max(2.0) as usize;
                road_network(side, side, 0.2, side / 16, &mut rng)
            }
            "grid3d" => {
                let side = (vertices as f64).cbrt().round().max(2.0) as usize;
                grid3d_stencil(side, side, side, Stencil::TwentySix)
            }
            "ws" => watts_strogatz(vertices, (degree / 2).max(1), 0.05, &mut rng),
            _ => return Err(format!("unknown family {family:?}")),
        }
    })
}

/// `fastbfs gen`
pub fn gen(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, &[])?;
    let out = o.require("o")?.to_string();
    let g = generate_family(&o)?;
    save_graph(&g, &out)?;
    println!(
        "wrote {out}: {} vertices, {} directed edges",
        g.num_vertices(),
        g.num_edges()
    );
    Ok(())
}

/// `fastbfs info`
pub fn info(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, &[])?;
    let g = load_graph(o.require("i")?)?;
    let src = pick_source(&g, &o)?;
    let s = summarize(&g, src);
    println!("vertices:        {}", s.num_vertices);
    println!("directed edges:  {}", s.num_edges);
    println!("avg degree:      {:.2}", s.avg_degree);
    println!("max degree:      {}", s.max_degree);
    println!("isolated:        {}", s.isolated_vertices);
    println!("bfs depth:       {} (from {src})", s.bfs_depth);
    println!("edge coverage:   {:.1}%", s.edge_coverage * 100.0);
    println!("symmetric:       {}", g.is_symmetric());
    Ok(())
}

/// Seeds a [`RunReport`] (the shared `fastbfs-run-v1` schema from
/// `bfs_bench::report`) from the CLI options, with the environment header —
/// git revision, rustc, host cores, LLC size — already captured.
fn new_report(o: &Opts, g: &CsrGraph, topo: Topology, engine: &BfsEngine) -> RunReport {
    let mut r = RunReport {
        schema: SCHEMA.to_string(),
        graph: o.get("i").unwrap_or("").to_string(),
        vertices: g.num_vertices() as u64,
        edges: g.num_edges(),
        sockets: topo.sockets,
        lanes_per_socket: topo.lanes_per_socket,
        threads: topo.total_threads(),
        vis: o.get("vis").unwrap_or("bit").to_string(),
        scheduling: o.get("scheduling").unwrap_or("load-balanced").to_string(),
        direction: o.get("direction").unwrap_or("auto").to_string(),
        git_rev: None,
        rustc: None,
        host_cores: None,
        llc_bytes: Some(topo.llc_bytes),
        metrics: None,
        hw_events: None,
        relabel: Some(o.has("relabel")),
        hugepages: Some(hugepage_provenance(engine.hugepage_status())),
        queries: Vec::new(),
        batch: None,
    };
    r.capture_environment();
    r
}

fn write_report(report: &RunReport, path: &str) -> Result<(), String> {
    report.write(path)?;
    println!("wrote {} queries to {path}", report.queries.len());
    Ok(())
}

/// `fastbfs run`
pub fn run(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, &["validate", "no-rearrange", "relabel", "hugepages"])?;
    let loaded = load_graph(o.require("i")?)?;
    let sockets: usize = o.num("sockets", 1)?;
    let threads: usize = o.num("threads", bfs_platform::topology::host_cores())?;
    let topo = Topology::synthetic(sockets, threads.div_ceil(sockets).max(1));
    if o.get("sources").is_some() {
        return run_batch(loaded, topo, &o);
    }
    // Source picked before relabeling: `--source` and the default
    // non-isolated pick are both in the file's (external) id space.
    let src = pick_source(&loaded, &o)?;
    let runs: usize = o.num("runs", 1)?;
    let (g, original) = prepare_graph(loaded, &o, o.has("validate"));
    // A session, not a bare engine: the session owns the external↔internal
    // translation on relabeled graphs, so answers stay in the file's ids.
    let mut session = BfsSession::new(&g, topo, engine_options(&o)?);
    println!(
        "engine: {} sockets x {} lanes, N_VIS {}, N_PBV {}",
        topo.sockets,
        topo.lanes_per_socket,
        session.engine().geometry().n_vis,
        session.engine().geometry().n_bins
    );
    if let Some(reason) = session.engine().hugepage_status().unavailable_reason() {
        println!("hugepages: traversal arenas on plain pages ({reason})");
    }
    let mut report = new_report(&o, &g, topo, session.engine());
    let mut out = BfsOutput::default();
    for k in 0..runs {
        session.run_reusing(src, &mut out);
        println!(
            "run {k}: depth {}, |V'| {}, |E'| {}, {:.2} MTEPS (I {:?}, II {:?}, R {:?}), dirs {}",
            out.stats.steps,
            out.stats.visited_vertices,
            out.stats.traversed_edges,
            out.stats.mteps(),
            out.stats.phase1_time,
            out.stats.phase2_time,
            out.stats.rearrange_time,
            direction_string(&out.stats.step_directions),
        );
        if o.has("validate") {
            // The oracle traverses the graph whose ids the answers use:
            // the pre-relabel original when --relabel is on. This checks
            // the whole translation layer end to end.
            let oracle = original.as_ref().unwrap_or(&g);
            let reference = serial_bfs(oracle, src);
            if out.depths != reference.depths {
                return Err("depths differ from serial BFS".into());
            }
            validate_bfs_tree(oracle, src, &out.depths, &out.parents)
                .map_err(|e| format!("invalid BFS tree: {e}"))?;
            println!("run {k}: validated");
        }
        report.queries.push(QueryReport::new(k, src, &out.stats));
    }
    if let Some(path) = o.get("json") {
        report.metrics = Some(session.metrics_snapshot());
        write_report(&report, path)?;
    }
    Ok(())
}

/// `fastbfs run --sources N`: batched multi-source queries over one warm
/// [`BfsSession`], Graph500 style — random degree≥1 roots, per-query
/// latency, and both mean and harmonic-mean MTEPS (the harmonic mean is the
/// Graph500 aggregate: it weights every query's *time* equally, so slow
/// outlier queries are not averaged away).
fn run_batch(loaded: CsrGraph, topo: Topology, o: &Opts) -> Result<(), String> {
    let count: usize = o.num("sources", 16)?;
    let seed: u64 = o.num("seed", 42)?;
    // Roots drawn before relabeling: the degree≥1 criterion must apply in
    // the external id space the queries are issued in.
    let roots = random_roots(&loaded, count, seed);
    if roots.is_empty() {
        return Err("graph has no edges".into());
    }
    let (g, original) = prepare_graph(loaded, o, o.has("validate"));
    let g = &g;
    let mut session = BfsSession::new(g, topo, engine_options(o)?);
    if let Some(reason) = session.engine().hugepage_status().unavailable_reason() {
        println!("hugepages: traversal arenas on plain pages ({reason})");
    }
    println!(
        "session: {} sockets x {} lanes, N_VIS {}, N_PBV {}, {} sources (seed {seed})",
        topo.sockets,
        topo.lanes_per_socket,
        session.engine().geometry().n_vis,
        session.engine().geometry().n_bins,
        roots.len(),
    );
    let mut out = BfsOutput::default();
    let mut mteps = Vec::with_capacity(roots.len());
    let mut report = new_report(o, g, topo, session.engine());
    let batch_start = std::time::Instant::now();
    for (k, &root) in roots.iter().enumerate() {
        session.run_reusing(root, &mut out);
        let m = out.stats.mteps();
        mteps.push(m);
        println!(
            "query {k}: root {root}, depth {}, |V'| {}, |E'| {}, {:.3} ms, {:.2} MTEPS, dirs {}",
            out.stats.steps,
            out.stats.visited_vertices,
            out.stats.traversed_edges,
            out.stats.total_time.as_secs_f64() * 1e3,
            m,
            direction_string(&out.stats.step_directions),
        );
        if o.has("validate") {
            let oracle = original.as_ref().unwrap_or(g);
            let reference = serial_bfs(oracle, root);
            if out.depths != reference.depths {
                return Err(format!("query {k}: depths differ from serial BFS"));
            }
            validate_bfs_tree(oracle, root, &out.depths, &out.parents)
                .map_err(|e| format!("query {k}: invalid BFS tree: {e}"))?;
        }
        report.queries.push(QueryReport::new(k, root, &out.stats));
    }
    let elapsed = batch_start.elapsed();
    let mean = mteps.iter().sum::<f64>() / mteps.len() as f64;
    let harmonic = if mteps.iter().all(|&m| m > 0.0) {
        mteps.len() as f64 / mteps.iter().map(|m| 1.0 / m).sum::<f64>()
    } else {
        0.0
    };
    println!(
        "batch: {} queries in {:.3} ms, {:.1} queries/s, mean {mean:.2} MTEPS, harmonic {harmonic:.2} MTEPS",
        roots.len(),
        elapsed.as_secs_f64() * 1e3,
        roots.len() as f64 / elapsed.as_secs_f64(),
    );
    if o.has("validate") {
        println!("validated {} queries", roots.len());
    }
    if let Some(path) = o.get("json") {
        report.batch = Some(BatchReport {
            queries: roots.len(),
            elapsed_ms: elapsed.as_secs_f64() * 1e3,
            queries_per_sec: roots.len() as f64 / elapsed.as_secs_f64(),
            mean_mteps: mean,
            harmonic_mteps: harmonic,
            latency_p50_ms: Some(report.latency_percentile_ms(50.0)),
            latency_p99_ms: Some(report.latency_percentile_ms(99.0)),
            latency_p999_ms: Some(report.latency_percentile_ms(99.9)),
        });
        report.metrics = Some(session.metrics_snapshot());
        write_report(&report, path)?;
    }
    Ok(())
}

/// `fastbfs trace`
pub fn trace(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, &["no-rearrange", "with-sim"])?;
    let g = match o.get("i") {
        Some(path) => load_graph(path)?,
        None if o.get("family").is_some() => generate_family(&o)?,
        None => return Err("trace needs -i FILE or --family ...".into()),
    };
    let src = pick_source(&g, &o)?;
    let sockets: usize = o.num("sockets", 1)?;
    let threads: usize = o.num("threads", bfs_platform::topology::host_cores())?;
    let topo = Topology::synthetic(sockets, threads.div_ceil(sockets).max(1));
    let mut engine = BfsEngine::new(&g, topo, engine_options(&o)?);

    // Everything lands in the ring (for the summary); --out tees a JSONL
    // stream alongside.
    let ring = RingSink::new(65536);
    let jsonl = match o.get("out") {
        Some(path) => {
            let f = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
            Some(JsonlSink::new(BufWriter::new(f)))
        }
        None => None,
    };
    let out = match &jsonl {
        Some(j) => engine.run_traced(src, &TeeSink::new(&ring, j)),
        None => engine.run_traced(src, &ring),
    };
    if o.has("with-sim") {
        let cfg = SimBfsConfig {
            machine: MachineConfig::xeon_x5570_2s().scaled_down(o.num("shrink", 64)?),
            vis: parse_vis(o.get("vis").unwrap_or("bit"))?,
            scheduling: parse_scheduling(o.get("scheduling").unwrap_or("load-balanced"))?,
            rearrange: !o.has("no-rearrange"),
            ..Default::default()
        };
        match &jsonl {
            Some(j) => simulate_bfs_traced(&g, &cfg, src, &TeeSink::new(&ring, j)),
            None => simulate_bfs_traced(&g, &cfg, src, &ring),
        };
    }
    // The registry snapshot closes the stream: consumers get the run's
    // cumulative counters next to its per-step events.
    let metrics_event = TraceEvent::Metrics(bfs_metrics::snapshot_to_trace_event(
        &engine.metrics_snapshot(),
        "trace",
    ));
    match &jsonl {
        Some(j) => TeeSink::new(&ring, j).record(&metrics_event),
        None => ring.record(&metrics_event),
    }
    if let Some(j) = jsonl {
        if j.errors() > 0 {
            return Err(format!("{} JSONL write errors", j.errors()));
        }
        j.into_inner().map_err(|e| format!("flush --out: {e}"))?;
        let events = ring.len() + ring.dropped() as usize;
        println!("wrote {} events to {}", events, o.get("out").unwrap());
    }
    println!(
        "depth {}, |V'| {}, |E'| {}, {:.2} MTEPS",
        out.stats.steps,
        out.stats.visited_vertices,
        out.stats.traversed_edges,
        out.stats.mteps(),
    );
    println!("{}", bfs_trace::summarize(&ring.snapshot()));
    Ok(())
}

/// What `fastbfs metrics --format json` emits: the attribution joined with
/// the raw registry snapshot it was computed from.
#[derive(Serialize)]
struct MetricsCliReport {
    attribution: AttributionReport,
    metrics: MetricsSnapshot,
}

/// `fastbfs metrics`: run a warm multi-source batch with the always-on
/// registry recording, trace the final query through a ring sink for
/// per-step rows, then join everything against the §IV model.
pub fn metrics(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, &["no-rearrange", "relabel", "hugepages"])?;
    let loaded = match o.get("i") {
        Some(path) => load_graph(path)?,
        None if o.get("family").is_some() => generate_family(&o)?,
        None => return Err("metrics needs -i FILE or --family ...".into()),
    };
    let sockets: usize = o.num("sockets", 1)?;
    let threads: usize = o.num("threads", bfs_platform::topology::host_cores())?;
    let topo = Topology::synthetic(sockets, threads.div_ceil(sockets).max(1));
    let count: usize = o.num("sources", 8)?;
    let seed: u64 = o.num("seed", 42)?;
    // Roots in external ids (drawn before any relabeling), same as run.
    let roots = random_roots(&loaded, count, seed);
    if roots.is_empty() {
        return Err("graph has no edges".into());
    }
    let (g, _) = prepare_graph(loaded, &o, false);
    let format = o.get("format").unwrap_or("text");
    if !matches!(format, "text" | "json" | "prom") {
        return Err(format!("unknown --format {format:?} (text|json|prom)"));
    }

    // Hardware counters ride along when the host allows them; otherwise
    // the typed reason lands in the report as an explicit marker.
    let opts = BfsOptions {
        hw_counters: true,
        ..engine_options(&o)?
    };
    let mut session = BfsSession::new(&g, topo, opts);
    // stderr: --format json/prom keep stdout parseable.
    if let Some(reason) = session.engine().hugepage_status().unavailable_reason() {
        eprintln!("hugepages: traversal arenas on plain pages ({reason})");
    }
    let hw_unavailable = session
        .engine()
        .hw_status()
        .unavailable_reason()
        .map(|r| r.to_string());
    let mut out = BfsOutput::default();
    let ring = RingSink::new(65536);
    for (k, &root) in roots.iter().enumerate() {
        if k + 1 == roots.len() {
            session.run_traced_reusing(root, &ring, &mut out);
        } else {
            session.run_reusing(root, &mut out);
        }
    }
    let snap = session.metrics_snapshot();

    let machine = MachineSpec {
        sockets: topo.sockets,
        ..MachineSpec::xeon_x5570_2s()
    };
    let alpha: f64 = o.num("model-alpha", 0.5)?;
    let ctx = AttributionContext {
        machine: &machine,
        num_vertices: g.num_vertices() as u64,
        lanes_per_socket: topo.lanes_per_socket,
        alpha: alpha.max(1.0 / topo.sockets as f64),
        cache_line: topo.cache_line as usize,
        hw_unavailable,
    };
    let events = ring.snapshot();
    let attribution = AttributionReport::build(&snap, &events, &ctx);

    match format {
        "json" => {
            let r = MetricsCliReport {
                attribution,
                metrics: snap,
            };
            let text =
                serde_json::to_string_pretty(&r).map_err(|e| format!("metrics to JSON: {e}"))?;
            println!("{text}");
        }
        "prom" => print!("{}", bfs_metrics::prom::render(&snap)),
        _ => print!("{}", attribution.render_text(&snap)),
    }
    Ok(())
}

/// `fastbfs bench-compare BENCHMARK.json PARENT CHANGE`: the regression
/// gate ([`bfs_bench::gate`]). Prints one row per end-to-end metric and
/// errors (→ exit 1) when any row is FAIL or the input is malformed.
pub fn bench_compare(args: &[String]) -> Result<(), String> {
    let [benchmark, parent, change] = args else {
        return Err("bench-compare takes BENCHMARK.json PARENT CHANGE (try --help)".into());
    };
    let read =
        |path: &String| std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"));
    let judgement = gate::judge(&read(benchmark)?, &read(parent)?, &read(change)?)
        .map_err(|e| e.to_string())?;
    print!("{}", judgement.render());
    if judgement.passed() {
        Ok(())
    } else {
        Err(format!("regression gate failed: {change} vs {parent}"))
    }
}

/// `fastbfs sim`
pub fn sim(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, &["no-rearrange", "no-prefetch"])?;
    let g = load_graph(o.require("i")?)?;
    let src = pick_source(&g, &o)?;
    let shrink: u64 = o.num("shrink", 64)?;
    let cfg = SimBfsConfig {
        machine: MachineConfig::xeon_x5570_2s().scaled_down(shrink),
        vis: parse_vis(o.get("vis").unwrap_or("bit"))?,
        scheduling: parse_scheduling(o.get("scheduling").unwrap_or("load-balanced"))?,
        rearrange: !o.has("no-rearrange"),
        prefetch: !o.has("no-prefetch"),
        ..Default::default()
    };
    let bw = BandwidthSpec::xeon_x5570();
    let r = simulate_bfs(&g, &cfg, src);
    let c = r.phase_cycles(&bw);
    println!("simulated dual-socket X5570 (caches 1/{shrink}):");
    println!("  traversed edges: {}", r.traversed_edges);
    println!("  Phase I:     {:.3} cyc/edge", c.phase1);
    println!("  Phase II:    {:.3} cyc/edge", c.phase2);
    println!("  Rearrange:   {:.3} cyc/edge", c.rearrange);
    println!(
        "  total:       {:.3} cyc/edge = {:.0} MTEPS",
        c.total(),
        r.mteps(&bw)
    );
    let report = r.report();
    println!(
        "  DDR traffic: {:.1} B/edge, atomic ops: {}",
        report.ddr_bytes_per_edge(None, r.traversed_edges),
        r.atomic_ops
    );
    Ok(())
}

/// `fastbfs model`
pub fn model(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, &[])?;
    let vertices: u64 = o.require_num("vertices")?;
    let degree: u32 = o.num("degree", 8)?;
    let depth: u32 = o.num("depth", 8)?;
    let visited: u64 = o.num("visited", vertices)?;
    let edges: u64 = o.num("edges", visited * 2 * degree as u64)?;
    let alpha: f64 = o.num("alpha", 0.5)?;
    let sockets: usize = o.num("sockets", 2)?;
    let spec = MachineSpec {
        sockets,
        ..MachineSpec::xeon_x5570_2s()
    };
    let params = GraphParams {
        num_vertices: vertices,
        visited_vertices: visited,
        traversed_edges: edges,
        depth,
    };
    let p = predict(&spec, &params, alpha.max(1.0 / sockets as f64));
    println!(
        "N_VIS {}  N_PBV {}  rho' {:.2}",
        p.n_vis,
        p.n_pbv,
        params.rho_prime()
    );
    println!(
        "bytes/edge: P-I {:.2}  P-II {:.2}  LLC {:.2}  R {:.2}",
        p.phase1_ddr_bpe, p.phase2_ddr_bpe, p.phase2_llc_bpe, p.rearrange_bpe
    );
    println!(
        "1 socket:  {:.2} cyc/edge = {:.0} MTEPS",
        p.single_socket.total, p.mteps_single
    );
    println!(
        "{} sockets: {:.2} cyc/edge = {:.0} MTEPS (alpha {alpha})",
        sockets, p.multi_socket.total, p.mteps_multi
    );
    Ok(())
}

/// `fastbfs convert`
pub fn convert(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, &[])?;
    let g = load_graph(o.require("i")?)?;
    save_graph(&g, o.require("o")?)?;
    println!(
        "converted: {} vertices, {} directed edges",
        g.num_vertices(),
        g.num_edges()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|x| x.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("fastbfs_test_{name}_{}", std::process::id()))
            .to_str()
            .unwrap()
            .to_string()
    }

    #[test]
    fn plain_pages_reason_names_the_size_floor_or_the_host() {
        // The host allows hugepages, but no CSR array reached the floor.
        assert_eq!(
            plain_pages_reason(Ok(()), false),
            "every array is below the 256 KiB hugepage floor"
        );
        // The host refuses: its reason, whatever the sizes.
        let refused = HugepageUnavailable::ThpDisabled {
            mode: Some("always madvise [never]".into()),
        };
        for qualified in [false, true] {
            assert_eq!(
                plain_pages_reason(Err(refused.clone()), qualified),
                format!("unavailable: {refused}")
            );
        }
        assert!(plain_pages_reason(Ok(()), true).contains("refused"));
    }

    #[test]
    fn gen_info_run_roundtrip() {
        let path = tmp("g1.fbfs");
        gen(&s(&[
            "--family",
            "ur",
            "--vertices",
            "500",
            "--degree",
            "4",
            "-o",
            &path,
        ]))
        .unwrap();
        info(&s(&["-i", &path])).unwrap();
        run(&s(&["-i", &path, "--validate", "--runs", "2"])).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_relabel_and_hugepages_validate_against_original_ids() {
        use serde::Value;
        let path = tmp("g9.fbfs");
        let json = tmp("r9.json");
        gen(&s(&[
            "--family",
            "rmat",
            "--scale",
            "9",
            "--edge-factor",
            "6",
            "-o",
            &path,
        ]))
        .unwrap();
        // --validate runs the serial oracle on the PRE-relabel graph, so a
        // pass proves the session's id translation end to end. Both levers
        // on, single-source and batch.
        run(&s(&[
            "-i",
            &path,
            "--relabel",
            "--hugepages",
            "--validate",
            "--threads",
            "2",
        ]))
        .unwrap();
        run(&s(&[
            "-i",
            &path,
            "--relabel",
            "--hugepages",
            "--validate",
            "--sources",
            "3",
            "--threads",
            "2",
            "--json",
            &json,
        ]))
        .unwrap();
        // Provenance lands in the report header.
        let v = serde_json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert_eq!(v.get("relabel").and_then(Value::as_bool), Some(true));
        let hp = v.get("hugepages").and_then(Value::as_str).unwrap();
        assert!(
            hp == "enabled" || hp.starts_with("unavailable: "),
            "requested hugepages must resolve to enabled or a typed reason, got {hp:?}"
        );
        // Flags off → provenance says so (not None, not a silent zero).
        run(&s(&[
            "-i",
            &path,
            "--sources",
            "2",
            "--threads",
            "2",
            "--json",
            &json,
        ]))
        .unwrap();
        let v = serde_json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert_eq!(v.get("relabel").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("hugepages").and_then(Value::as_str), Some("disabled"));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&json).ok();
    }

    #[test]
    fn metrics_accepts_layout_levers() {
        metrics(&s(&[
            "--family",
            "ur",
            "--vertices",
            "600",
            "--degree",
            "6",
            "--sources",
            "2",
            "--threads",
            "2",
            "--relabel",
            "--hugepages",
        ]))
        .unwrap();
    }

    #[test]
    fn run_sources_batch_mode() {
        let path = tmp("g6.fbfs");
        gen(&s(&[
            "--family",
            "ur",
            "--vertices",
            "400",
            "--degree",
            "4",
            "-o",
            &path,
        ]))
        .unwrap();
        run(&s(&[
            "-i",
            &path,
            "--sources",
            "4",
            "--seed",
            "7",
            "--threads",
            "2",
            "--validate",
        ]))
        .unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn gen_text_and_convert() {
        let txt = tmp("g2.txt");
        let bin = tmp("g2.fbfs");
        gen(&s(&["--family", "rmat", "--scale", "8", "-o", &txt])).unwrap();
        convert(&s(&["-i", &txt, "-o", &bin])).unwrap();
        let a = load_graph(&txt).unwrap();
        let b = load_graph(&bin).unwrap();
        assert_eq!(a, b);
        std::fs::remove_file(&txt).ok();
        std::fs::remove_file(&bin).ok();
    }

    #[test]
    fn sim_command() {
        let path = tmp("g3.fbfs");
        gen(&s(&[
            "--family",
            "stress",
            "--vertices",
            "400",
            "--degree",
            "6",
            "-o",
            &path,
        ]))
        .unwrap();
        sim(&s(&["-i", &path, "--shrink", "256"])).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_command_writes_valid_jsonl() {
        use bfs_trace::TraceEvent;
        let path = tmp("t1.jsonl");
        trace(&s(&[
            "--family",
            "ur",
            "--vertices",
            "600",
            "--degree",
            "5",
            "--threads",
            "4",
            "--out",
            &path,
            "--with-sim",
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let events: Vec<TraceEvent> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("every line is a valid event"))
            .collect();
        let runs = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Run(_)))
            .count();
        let steps = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Step(_)))
            .count();
        let mem = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::MemStep(_)))
            .count();
        let metric_snaps = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Metrics(_)))
            .count();
        assert_eq!(runs, 2, "one engine run event + one memsim run event");
        assert!(steps >= 1, "one step event per BFS level");
        assert!(mem >= 1, "--with-sim adds per-step traffic events");
        assert_eq!(metric_snaps, 1, "the registry snapshot closes the stream");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_requires_a_graph() {
        assert!(trace(&s(&["--out", "/tmp/x.jsonl"])).is_err());
    }

    #[test]
    fn model_command() {
        model(&s(&[
            "--vertices",
            "8388608",
            "--degree",
            "8",
            "--depth",
            "6",
            "--alpha",
            "0.6",
        ]))
        .unwrap();
    }

    #[test]
    fn proxy_generation() {
        let path = tmp("g4.fbfs");
        gen(&s(&[
            "--family",
            "proxy:facebook",
            "--fraction",
            "0.0005",
            "-o",
            &path,
        ]))
        .unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn errors_are_reported() {
        assert!(gen(&s(&["--family", "nope", "-o", "/tmp/x"])).is_err());
        assert!(info(&s(&["-i", "/definitely/not/here"])).is_err());
        assert!(parse_vis("wrong").is_err());
        assert!(parse_scheduling("wrong").is_err());
        assert!(model(&s(&[])).is_err());
    }

    #[test]
    fn metrics_command_all_formats() {
        for format in ["text", "json", "prom"] {
            metrics(&s(&[
                "--family",
                "ur",
                "--vertices",
                "600",
                "--degree",
                "6",
                "--sources",
                "3",
                "--threads",
                "2",
                "--format",
                format,
            ]))
            .unwrap();
        }
        assert!(metrics(&s(&["--family", "ur", "--format", "csv"])).is_err());
        assert!(metrics(&s(&["--sources", "2"])).is_err(), "needs a graph");
    }

    #[test]
    fn bench_compare_gates_result_lines() {
        let benchmark = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let (parent, change) = (tmp("parent.lines"), tmp("change.lines"));
        // Ten untraced result lines as perfbench prints them, with a
        // little spread in every metric.
        let lines = |qps_scale: f64| -> String {
            (0..10)
                .map(|i| {
                    let x = 1.0 + i as f64 * 0.01;
                    format!(
                        "{{\"correct\":true,\"attempted\":600,\"failed\":0,\"metrics\":{{\
                         \"setup_s\":{{\"value\":{},\"unit\":\"s\"}},\
                         \"latency_p10_ms\":{{\"value\":{},\"unit\":\"ms\"}},\
                         \"achieved_qps\":{{\"value\":{},\"unit\":\"1/s\"}},\
                         \"peak_rss_mb\":{{\"value\":{},\"unit\":\"MiB\"}}}}}}\n",
                        3.0 * x,
                        30.0 * x,
                        20.0 * x * qps_scale,
                        1100.0 * x
                    )
                })
                .collect()
        };
        std::fs::write(&parent, lines(1.0)).unwrap();
        std::fs::write(&change, lines(1.0)).unwrap();
        bench_compare(&s(&[benchmark, &parent, &change])).unwrap();

        // 30% fewer queries per second is past achieved_qps's 25% bound.
        std::fs::write(&change, lines(0.7)).unwrap();
        let err = bench_compare(&s(&[benchmark, &parent, &change])).unwrap_err();
        assert!(err.contains("regression gate failed"), "{err}");

        // Bounds come from BENCHMARK.json only: no flags, three paths.
        assert!(bench_compare(&s(&[benchmark, &parent])).is_err());
        assert!(bench_compare(&s(&[benchmark, &parent, &parent, "--quiet"])).is_err());
        assert!(bench_compare(&s(&[benchmark, &parent, "/no/such.lines"])).is_err());
        // Input errors name the side and line.
        std::fs::write(&change, "not json\n").unwrap();
        let err = bench_compare(&s(&[benchmark, &parent, &change])).unwrap_err();
        assert!(err.contains("change line 1"), "{err}");
        std::fs::remove_file(&parent).ok();
        std::fs::remove_file(&change).ok();
    }

    #[test]
    fn run_direction_flags_and_json_report() {
        use serde::Value;
        let path = tmp("g7.fbfs");
        let json = tmp("r1.json");
        gen(&s(&[
            "--family",
            "ur",
            "--vertices",
            "600",
            "--degree",
            "6",
            "-o",
            &path,
        ]))
        .unwrap();
        // Both forced directions validate against the serial oracle.
        run(&s(&["-i", &path, "--direction", "bottom-up", "--validate"])).unwrap();
        run(&s(&["-i", &path, "--direction", "top-down", "--validate"])).unwrap();
        assert!(run(&s(&["-i", &path, "--direction", "sideways"])).is_err());

        // Single-source --json: one entry per --runs repetition, each with a
        // per-level directions array.
        run(&s(&[
            "-i",
            &path,
            "--runs",
            "2",
            "--direction",
            "bottom-up",
            "--json",
            &json,
        ]))
        .unwrap();
        let v = serde_json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some("fastbfs-run-v1")
        );
        assert_eq!(
            v.get("direction").and_then(Value::as_str),
            Some("bottom-up")
        );
        let queries = match v.get("queries") {
            Some(Value::Array(q)) => q,
            other => panic!("queries missing: {other:?}"),
        };
        assert_eq!(queries.len(), 2);
        let depth = queries[0].get("depth").and_then(Value::as_u64).unwrap();
        match queries[0].get("directions") {
            Some(Value::Array(d)) => {
                assert_eq!(d.len() as u64, depth, "one direction per level");
                assert!(d.iter().all(|x| x.as_str() == Some("bottom-up")));
            }
            other => panic!("directions missing: {other:?}"),
        }
        assert!(matches!(v.get("batch"), Some(Value::Null)));

        // Batch --json adds the aggregate block.
        run(&s(&[
            "-i",
            &path,
            "--sources",
            "3",
            "--threads",
            "2",
            "--json",
            &json,
        ]))
        .unwrap();
        let v = serde_json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
        let batch = v.get("batch").expect("batch block");
        assert_eq!(batch.get("queries").and_then(Value::as_u64), Some(3));
        assert!(batch.get("harmonic_mteps").is_some());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&json).ok();
    }
}
