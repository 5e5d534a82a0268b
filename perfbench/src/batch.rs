//! The batch workload (`rmat-batch`): one caller, closed
//! loop, over one warm `BfsSession`, driven through the library's public
//! entry points. Layers: `graph` (load, relabel, hugepage migration),
//! `session` (reset, id translation) and `engine` (the traversal).

use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::time::{Duration, Instant};

use bfs_core::serial::serial_bfs;
use bfs_core::validate::validate_bfs_tree;
use bfs_core::{BfsOptions, BfsOutput, BfsSession, DirectionPolicy, INF_DEPTH};
use bfs_graph::CsrGraph;
use bfs_platform::Topology;
use bfs_trace::{RingSink, TraceEvent};

use crate::layers::{engine_metrics, level_ns, snapshot_delta, EngineWindow};
use crate::report::{Metrics, Outcome};
use crate::rng::Rng;
use crate::stats::{harmonic_mean, median, percentile, ratio, sorted, MIN_SETUPS};

/// Engine threads: the configuration of the newest committed snapshot.
pub const THREADS: usize = 2;
/// Minimum measured queries of an untraced run, so that ten fall beyond
/// p90.
pub const MIN_QUERIES: usize = 100;
/// Minimum untraced/traced query pairs of a traced run. Traced levels scan
/// the whole `DP` array for duplicate counts, so a traced query costs
/// several untraced ones.
pub const MIN_TRACED_PAIRS: usize = 10;
/// Unmeasured queries after set-up, so buffers reach their high water.
const WARMUP_QUERIES: usize = 2;
/// Trace ring capacity per query: one run event plus one step per level.
const RING_CAPACITY: usize = 1 << 14;

/// The session configuration: direction auto, relabel plus hugepages on.
pub fn options() -> BfsOptions {
    BfsOptions {
        direction: DirectionPolicy::auto(),
        huge_pages: true,
        ..Default::default()
    }
}

/// Seconds spent in each public call of one set-up.
struct SetupTimes {
    load: f64,
    relabel: f64,
    migrate: f64,
    build: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.load + self.relabel + self.migrate + self.build
    }
}

/// Loads the graph file and prepares it for serving: `read_binary`, then
/// `degree_order`, then `migrate_to_hugepages`. Returns the loaded graph
/// (in the file's ids, for the oracle) and the prepared one.
fn prepare(path: &Path) -> Result<(CsrGraph, CsrGraph, SetupTimes), String> {
    let t = Instant::now();
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let loaded = bfs_graph::io::read_binary(&mut BufReader::new(file))
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    let load = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (mut g, _) = bfs_graph::degree_order(&loaded);
    let relabel = t.elapsed().as_secs_f64();
    let t = Instant::now();
    g.migrate_to_hugepages();
    let migrate = t.elapsed().as_secs_f64();
    Ok((
        loaded,
        g,
        SetupTimes {
            load,
            relabel,
            migrate,
            build: 0.0,
        },
    ))
}

/// One measured query.
struct Query {
    root: u32,
    wall: Duration,
    engine: Duration,
    visited: u64,
    traversed: u64,
    traced: bool,
}

impl Query {
    fn mteps(&self) -> f64 {
        self.traversed as f64 / self.wall.as_secs_f64() / 1e6
    }
}

fn run_one(
    session: &mut BfsSession,
    root: u32,
    out: &mut BfsOutput,
    sink: Option<&RingSink>,
) -> Query {
    let t = Instant::now();
    match sink {
        None => session.run_reusing(root, out),
        Some(s) => session.run_traced_reusing(root, s, out),
    }
    let wall = t.elapsed();
    Query {
        root,
        wall,
        engine: out.stats.total_time,
        visited: out.stats.visited_vertices,
        traversed: out.stats.traversed_edges,
        traced: sink.is_some(),
    }
}

/// Critical-path nanoseconds of every level in a traced query's events.
fn levels_of(events: &[TraceEvent]) -> impl Iterator<Item = u64> + '_ {
    events.iter().filter_map(|e| match e {
        TraceEvent::Step(s) => {
            let mut max = [0u64; 3];
            for t in &s.threads {
                max[0] = max[0].max(t.phase1_ns);
                max[1] = max[1].max(t.phase2_ns);
                max[2] = max[2].max(t.rearrange_ns);
            }
            Some(level_ns(max))
        }
        _ => None,
    })
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    vm_hwm_mb(&status)
}

/// `VmHWM` (peak resident set) from a `/proc/<pid>/status` text, in MiB.
pub fn vm_hwm_mb(status: &str) -> Result<f64, String> {
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in process status")?;
    Ok(kb / 1024.0)
}

/// Runs a batch workload on the graph file at `input`: sets up
/// [`MIN_SETUPS`] times, then measures on the last set-up. (Repeating
/// more cheap set-ups in one process fragments the heap, which shows as
/// a run-to-run jump in `peak_rss_mb`.)
pub fn run(input: &Path, seed: u64, window: Duration, traced: bool) -> Result<Outcome, String> {
    let topo = Topology::synthetic(1, THREADS);
    let mut setups: Vec<SetupTimes> = Vec::new();
    loop {
        let (loaded, g, mut times) = prepare(input)?;
        let t = Instant::now();
        let session = BfsSession::new(&g, topo, options());
        times.build = t.elapsed().as_secs_f64();
        setups.push(times);
        if setups.len() >= MIN_SETUPS {
            return measure(session, &loaded, &setups, seed, window, traced);
        }
    }
}

fn measure(
    mut session: BfsSession,
    loaded: &CsrGraph,
    setups: &[SetupTimes],
    seed: u64,
    window: Duration,
    traced: bool,
) -> Result<Outcome, String> {
    // Oracle, once per input: every root is drawn from the component of
    // the highest-degree vertex, so one serial BFS gives the visited and
    // traversed counts every query must report.
    let n = loaded.num_vertices();
    let hub = (0..n as u32)
        .max_by_key(|&v| loaded.degree(v))
        .ok_or("empty graph")?;
    let reference = serial_bfs(loaded, hub);
    let mut rng = Rng::new(seed, "roots");
    let mut next_root = || loop {
        let v = rng.below(n as u64) as u32;
        if reference.depths[v as usize] != INF_DEPTH && loaded.degree(v) > 0 {
            return v;
        }
    };

    let mut out = BfsOutput::default();
    for _ in 0..WARMUP_QUERIES {
        session.run_reusing(next_root(), &mut out);
    }

    // The measured window. Traced runs alternate an untraced and a traced
    // query from the same root, so the tracing overhead is paired.
    let before = session.metrics_snapshot();
    let mut queries: Vec<Query> = Vec::new();
    let mut levels: Vec<u64> = Vec::new();
    let start = Instant::now();
    let min_queries = if traced {
        2 * MIN_TRACED_PAIRS
    } else {
        MIN_QUERIES
    };
    while queries.len() < min_queries || start.elapsed() < window {
        let root = next_root();
        queries.push(run_one(&mut session, root, &mut out, None));
        if traced {
            let ring = RingSink::new(RING_CAPACITY);
            queries.push(run_one(&mut session, root, &mut out, Some(&ring)));
            levels.extend(levels_of(&ring.into_events()));
        }
    }
    let elapsed = start.elapsed();
    let delta = snapshot_delta(&session.metrics_snapshot(), &before);

    eprintln!(
        "perfbench: {} queries in {:.1} s",
        queries.len(),
        elapsed.as_secs_f64()
    );
    // Correctness, outside the timed window: every query's counts against
    // the oracle, and a full depth comparison plus Graph500 tree
    // validation on a fixed sample: the first measured root. (The library
    // validator scans each parent's adjacency list, which takes seconds on
    // RMAT hubs, so the sample stays at one root.)
    let mut failed = 0u64;
    for q in &queries {
        if q.visited != reference.visited || q.traversed != reference.traversed_edges {
            failed += 1;
            eprintln!(
                "perfbench: root {}: visited {} traversed {}, oracle {} {}",
                q.root, q.visited, q.traversed, reference.visited, reference.traversed_edges
            );
        }
    }
    let mut correct = true;
    let sample = [queries[0].root];
    for &root in &sample {
        session.run_reusing(root, &mut out);
        let want = serial_bfs(loaded, root);
        let verdict = if out.depths != want.depths {
            Err("depths differ from serial BFS".to_string())
        } else {
            validate_bfs_tree(loaded, root, &out.depths, &out.parents).map_err(|e| e.to_string())
        };
        if let Err(e) = verdict {
            correct = false;
            eprintln!("perfbench: root {root}: {e}");
        }
    }

    let plain: Vec<&Query> = queries.iter().filter(|q| !q.traced).collect();
    let lat = sorted(
        &plain
            .iter()
            .map(|q| q.wall.as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    );
    let mut m = Metrics::default();
    let med = |f: &dyn Fn(&SetupTimes) -> f64| {
        median(&setups.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    if traced {
        m.put("graph.load_s", med(&|s| s.load));
        m.put("graph.relabel_s", med(&|s| s.relabel));
        m.put("graph.hugepage_migrate_s", med(&|s| s.migrate));
        m.put("session.build_s", med(&|s| s.build));
        let overhead = sorted(
            &plain
                .iter()
                .map(|q| q.wall.saturating_sub(q.engine).as_secs_f64() * 1e6)
                .collect::<Vec<_>>(),
        );
        m.put(
            "session.overhead_us_p50",
            percentile(&overhead, 50.0).unwrap_or(0.0),
        );
        let traced_engine_ns: u128 = queries
            .iter()
            .filter(|q| q.traced)
            .map(|q| q.engine.as_nanos())
            .sum();
        engine_metrics(
            &mut m,
            &EngineWindow {
                delta: &delta,
                num_vertices: n as u64,
                lanes: THREADS,
                level_ns: &levels,
                traced_query_ns: u64::try_from(traced_engine_ns).unwrap_or(u64::MAX),
            },
        );
        let wall = |t: bool| -> f64 {
            queries
                .iter()
                .filter(|q| q.traced == t)
                .map(|q| q.wall.as_secs_f64())
                .sum()
        };
        m.put("trace_overhead_frac", ratio(wall(true), wall(false)) - 1.0);
        m.put("failed_frac", ratio(failed as f64, queries.len() as f64));
        let mteps: Vec<f64> = plain.iter().map(|q| q.mteps()).collect();
        m.put(
            "harmonic_mteps",
            harmonic_mean(&mteps).ok_or("a query traversed nothing")?,
        );
        m.put("latency_p50_ms", percentile(&lat, 50.0).unwrap_or(0.0));
        m.put("latency_p90_ms", percentile(&lat, 90.0).unwrap_or(0.0));
        m.put("latency_p99_ms", percentile(&lat, 99.0).unwrap_or(0.0));
        m.put("capacity_qps", plain.len() as f64 / wall(false));
    } else {
        m.put("setup_s", med(&|s| s.total()));
        m.put("latency_p10_ms", percentile(&lat, 10.0).unwrap_or(0.0));
        m.put("achieved_qps", plain.len() as f64 / elapsed.as_secs_f64());
        m.put("peak_rss_mb", peak_rss_mb()?);
    }
    let details = format!(
        "{{\"vertices\":{n},\"directed_edges\":{},\"adjacency_bytes\":{},\"queries\":{},\
         \"traced_queries\":{},\"window_s\":{},\"oracle_visited\":{},\"oracle_traversed\":{},\
         \"setups_s\":{:?},\"validated_roots\":{:?}}}",
        loaded.num_edges(),
        loaded.num_edges() * 4,
        plain.len(),
        queries.len() - plain.len(),
        elapsed.as_secs_f64(),
        reference.visited,
        reference.traversed_edges,
        setups.iter().map(SetupTimes::total).collect::<Vec<_>>(),
        sample,
    );
    Ok(Outcome {
        attempted: queries.len() as u64,
        failed,
        correct,
        metrics: m,
        details,
    })
}
