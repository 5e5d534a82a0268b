//! The `serve-mixed` workload: `fastbfs serve` on a small RMAT graph,
//! driven by the benchmark's own open-loop client. Layers: `serve`
//! (accept, parse, admission queue and waves, execute, serialize, write)
//! and `client` (the load generator itself, which is not under test).

use std::fs::File;
use std::io::BufReader;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use bfs_core::serial::{serial_bfs, SerialBfs};
use bfs_core::INF_DEPTH;
use bfs_graph::CsrGraph;
use bfs_metrics::MetricsSnapshot;
use serde_json::Value;

use crate::batch::vm_hwm_mb;
use crate::client::{self, Endpoint, Record, Request, Traffic};
use crate::layers::{engine_metrics, level_ns, snapshot_delta, EngineWindow};
use crate::report::{Metrics, Outcome};
use crate::rng::Rng;
use crate::stats::{
    highest_reportable_percentile, mean, median, percentile, ratio, self_time, setups_wanted,
    sorted, Interval,
};

/// Offered rate of the fixed-rate window, a fifth of the knee (about 250
/// QPS on a two-core host). At 100 QPS a host slowdown also made requests
/// queue longer, so a run's latency moved by more than the slowdown
/// itself. The window is also the capacity ladder's first rung.
pub const FIXED_QPS: f64 = 50.0;
/// The rest of the capacity ladder, requests per second. The ladder stops
/// after two failing rungs in a row.
pub const LADDER: [f64; 7] = [200.0, 250.0, 275.0, 300.0, 350.0, 400.0, 500.0];
/// Requests per ladder rung: enough for a p99 with ten samples beyond.
pub const RUNG_REQUESTS: usize = 1000;
/// The latency limit a rung's tail must meet.
pub const LIMIT_MS: f64 = 50.0;
/// A rung fails when the generator's median lateness grows by more than
/// this from the rung's first quarter to its last.
pub const LAG_GROWTH_MS: f64 = 2.0;
/// Share of `/path` requests; the rest are `/query?src&dst`.
pub const PATH_SHARE: f64 = 0.2;
/// Source pool size; the oracle answers every source in it.
pub const SOURCES: usize = 128;
/// Client connections: one per core, so the client and the server share
/// the host the way the server flags below assume.
fn lanes() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The fixed server flags: one session with one engine thread (engine
/// lanes ≤ nproc − 1 on a two-core host), relabel plus hugepages,
/// direction auto, 64 warmup queries.
fn server_flags(graph: &Path, seed: u64) -> Vec<String> {
    let mut args: Vec<String> = [
        "serve",
        "--relabel",
        "--hugepages",
        "--direction",
        "auto",
        "--sessions",
        "1",
        "--threads",
        "1",
        "--http-threads",
        "2",
        "--queries",
        "64",
        "--sources",
        "64",
        "--metrics-addr",
        "127.0.0.1:0",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    args.extend([
        "-i".to_string(),
        graph.display().to_string(),
        "--seed".to_string(),
        seed.to_string(),
    ]);
    args
}

/// A running `fastbfs serve`. Dropping it kills the process and waits
/// for it, so no server outlives the run.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Spawns the server and waits until it can answer: `/healthz` replies
    /// and the warmup traversals are done. Returns the server and the
    /// seconds from spawn to ready.
    fn start(
        fastbfs: &Path,
        args: &[String],
        dir: &Path,
        tag: &str,
    ) -> Result<(Self, f64), String> {
        let addr_file = dir.join(format!("addr-{tag}"));
        let log_path = dir.join(format!("server-{tag}.log"));
        let _ = std::fs::remove_file(&addr_file);
        let log = File::create(&log_path).map_err(|e| format!("create server log: {e}"))?;
        let err = log.try_clone().map_err(|e| format!("server log: {e}"))?;
        let mut all = args.to_vec();
        all.push("--addr-file".into());
        all.push(addr_file.display().to_string());
        let t = Instant::now();
        let child = Command::new(fastbfs)
            .args(&all)
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", fastbfs.display()))?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = t + Duration::from_secs(60);
        loop {
            if let Ok(Some(status)) = server.child.try_wait() {
                let log = std::fs::read_to_string(&log_path).unwrap_or_default();
                return Err(format!(
                    "server exited with {status} during start-up:\n{log}"
                ));
            }
            if Instant::now() > deadline {
                return Err("server not ready within 60 s".into());
            }
            if server.addr.port() == 0 {
                if let Some(a) = std::fs::read_to_string(&addr_file)
                    .ok()
                    .and_then(|s| s.trim().parse().ok())
                {
                    server.addr = a;
                }
            }
            let warm = std::fs::read_to_string(&log_path)
                .map(|l| l.contains("warmup done"))
                .unwrap_or(false);
            if server.addr.port() != 0
                && warm
                && matches!(client::get(server.addr, "/healthz"), Ok((200, _)))
            {
                return Ok((server, t.elapsed().as_secs_f64()));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("server status: {e}"))?;
        vm_hwm_mb(&status)
    }

    fn snapshot(&self) -> Result<MetricsSnapshot, String> {
        let (status, body) = client::get(self.addr, "/snapshot")?;
        if status != 200 {
            return Err(format!("/snapshot answered {status}"));
        }
        let doc = serde_json::parse(&body).map_err(|e| format!("/snapshot: {e}"))?;
        let metrics = doc.get("metrics").ok_or("/snapshot has no metrics")?;
        <MetricsSnapshot as serde::Deserialize>::from_value(metrics)
            .map_err(|e| format!("/snapshot metrics: {e}"))
    }

    /// Graceful stop through `/quitquitquit`, then wait for the exit.
    fn stop(mut self) -> Result<(), String> {
        let _ = client::get(self.addr, "/quitquitquit");
        let deadline = Instant::now() + Duration::from_secs(15);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(s)) if s.success() => return Ok(()),
                Ok(Some(s)) => return Err(format!("server exited with {s}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        }
        Err("server did not stop within 15 s".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The oracle: the library's serial BFS from every pool source, over the
/// graph file in its original ids.
struct Oracle {
    graph: CsrGraph,
    sources: Vec<u32>,
    answers: Vec<SerialBfs>,
}

impl Oracle {
    fn build(path: &Path, seed: u64) -> Result<Self, String> {
        let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
        let graph = bfs_graph::io::read_binary(&mut BufReader::new(file))
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        let n = graph.num_vertices();
        let hub = (0..n as u32)
            .max_by_key(|&v| graph.degree(v))
            .ok_or("empty graph")?;
        let giant = serial_bfs(&graph, hub);
        let mut rng = Rng::new(seed, "serve-sources");
        let mut sources = Vec::with_capacity(SOURCES);
        while sources.len() < SOURCES {
            let v = rng.below(n as u64) as u32;
            if giant.depths[v as usize] != INF_DEPTH && graph.degree(v) > 0 {
                sources.push(v);
            }
        }
        let answers = sources.iter().map(|&s| serial_bfs(&graph, s)).collect();
        Ok(Self {
            graph,
            sources,
            answers,
        })
    }

    fn answer(&self, src: u32) -> &SerialBfs {
        let i = self
            .sources
            .iter()
            .position(|&s| s == src)
            .expect("pool source");
        &self.answers[i]
    }

    /// Checks one reply against the oracle.
    fn check(&self, req: &Request, rec: &Record) -> Result<(), String> {
        if let Some(e) = &rec.error {
            return Err(e.clone());
        }
        if !(200..300).contains(&rec.status) {
            return Err(format!("HTTP {}", rec.status));
        }
        let v = serde_json::parse(&rec.body).map_err(|e| format!("reply JSON: {e}"))?;
        let want = self.answer(req.src);
        let dst_depth = want.depths[req.dst as usize];
        let field = |k: &str| v.get(k).and_then(Value::as_u64);
        match req.endpoint {
            Endpoint::Query => {
                let got = (
                    field("depth"),
                    field("visited_vertices"),
                    field("traversed_edges"),
                );
                let expect = (
                    Some(want.max_depth as u64),
                    Some(want.visited),
                    Some(want.traversed_edges),
                );
                if got != expect {
                    return Err(format!(
                        "depth/visited/traversed {got:?}, oracle {expect:?}"
                    ));
                }
                let dst = v.get("dst").ok_or("reply has no dst")?;
                let got = dst.get("depth").and_then(Value::as_u64);
                let expect = (dst_depth != INF_DEPTH).then_some(dst_depth as u64);
                if got != expect {
                    return Err(format!("dst depth {got:?}, oracle {expect:?}"));
                }
            }
            Endpoint::Path => {
                let path: Vec<u32> = v
                    .get("path")
                    .and_then(Value::as_array)
                    .ok_or("reply has no path")?
                    .iter()
                    .map(|x| x.as_u64().map(|x| x as u32).ok_or("path entry"))
                    .collect::<Result<_, _>>()?;
                if dst_depth == INF_DEPTH {
                    if !path.is_empty() {
                        return Err("path to an unreachable vertex".into());
                    }
                    return Ok(());
                }
                if path.len() != dst_depth as usize + 1 {
                    return Err(format!(
                        "path of {} vertices, depth {dst_depth}",
                        path.len()
                    ));
                }
                if path.first() != Some(&req.src) || path.last() != Some(&req.dst) {
                    return Err("path does not run from src to dst".into());
                }
                if let Some(w) = path
                    .windows(2)
                    .find(|w| !self.graph.neighbors(w[0]).contains(&w[1]))
                {
                    return Err(format!("path uses a non-edge {} -> {}", w[0], w[1]));
                }
            }
        }
        Ok(())
    }
}

/// Server-side spans echoed in a reply (nanoseconds).
#[derive(Default, Clone, Copy)]
struct Echo {
    execute_ns: u64,
    traversed: u64,
}

fn echo_of(rec: &Record) -> Option<Echo> {
    let v = serde_json::parse(&rec.body).ok()?;
    let spans = v.get("spans")?;
    Some(Echo {
        execute_ns: spans.get("execute_ns")?.as_u64()?,
        traversed: v
            .get("traversed_edges")
            .and_then(Value::as_u64)
            .unwrap_or(0),
    })
}

/// Graph500 harmonic mean over a window's `/query` replies of traversed
/// edges over the server's `execute_ns`, in MTEPS.
fn harmonic_mteps(schedule: &[Request], records: &[Record]) -> Result<f64, String> {
    let mteps: Vec<f64> = schedule
        .iter()
        .zip(records)
        .filter(|(q, r)| q.endpoint == Endpoint::Query && r.ok())
        .filter_map(|(_, r)| echo_of(r))
        .filter(|e| e.execute_ns > 0)
        .map(|e| e.traversed as f64 * 1e3 / e.execute_ns as f64)
        .collect();
    crate::stats::harmonic_mean(&mteps).ok_or_else(|| "no /query reply carried a traversal".into())
}

/// A window's latency figures: failed requests count as missing any
/// limit, so they enter the percentiles at the client timeout.
struct WindowStats {
    sorted_ms: Vec<f64>,
    ok: usize,
    wall: Duration,
}

impl WindowStats {
    fn new(records: &[Record], wall: Duration) -> Self {
        let timeout_ms = client::REQUEST_TIMEOUT.as_secs_f64() * 1e3;
        let ms: Vec<f64> = records
            .iter()
            .map(|r| {
                if r.ok() {
                    r.latency_ns as f64 / 1e6
                } else {
                    timeout_ms
                }
            })
            .collect();
        Self {
            sorted_ms: sorted(&ms),
            ok: records.iter().filter(|r| r.ok()).count(),
            wall,
        }
    }

    fn pct(&self, p: f64) -> f64 {
        percentile(&self.sorted_ms, p).unwrap_or(0.0)
    }

    /// The highest reportable percentile of this window.
    fn tail(&self) -> f64 {
        self.pct(highest_reportable_percentile(self.sorted_ms.len()).unwrap_or(50.0))
    }
}

/// Median generator lateness (ms) over a slice of records.
fn lag_ms(records: &[Record]) -> f64 {
    median(
        &records
            .iter()
            .map(|r| r.lag_ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0)
}

/// One ladder rung's verdict.
struct Rung {
    rate: f64,
    tail_ms: f64,
    failures: usize,
    lag_growth_ms: f64,
}

impl Rung {
    fn measure(rate: f64, records: &[Record], wall: Duration) -> Self {
        let q = records.len() / 4;
        Self {
            rate,
            tail_ms: WindowStats::new(records, wall).tail(),
            failures: records.iter().filter(|r| !r.ok()).count(),
            lag_growth_ms: lag_ms(&records[records.len() - q..]) - lag_ms(&records[..q]),
        }
    }

    fn passes(&self) -> bool {
        self.failures == 0 && self.tail_ms <= LIMIT_MS && self.lag_growth_ms <= LAG_GROWTH_MS
    }
}

/// The highest ladder rate that meets the limit. Between that rung and
/// the next one, when the next one's tail broke the limit, the crossing of
/// the limit is interpolated linearly, so the figure moves smoothly with
/// the server rather than in whole rungs.
fn capacity(rungs: &[Rung]) -> f64 {
    let Some(best) = rungs.iter().rposition(Rung::passes) else {
        // Even the lowest rung misses: scale its rate by the limit.
        let r = &rungs[0];
        return r.rate * (LIMIT_MS / r.tail_ms).min(1.0);
    };
    let Some(hi) = rungs.get(best + 1) else {
        return rungs[best].rate;
    };
    let lo = &rungs[best];
    // Latency runs from the scheduled arrival, so a growing backlog shows
    // in the tail too; only a rung that failed with its tail in limit
    // (errors, or lag that has not reached the tail yet) stops at `lo`.
    if hi.failures > 0 || hi.tail_ms <= LIMIT_MS || hi.tail_ms <= lo.tail_ms {
        return lo.rate;
    }
    let frac = ((LIMIT_MS - lo.tail_ms) / (hi.tail_ms - lo.tail_ms)).clamp(0.0, 1.0);
    lo.rate + frac * (hi.rate - lo.rate)
}

/// Runs the workload on the graph file at `input`.
pub fn run(
    fastbfs: &Path,
    input: &Path,
    dir: &Path,
    seed: u64,
    window: Duration,
    traced: bool,
) -> Result<Outcome, String> {
    let oracle = Oracle::build(input, seed)?;
    let vertices = oracle.graph.num_vertices() as u32;
    let fixed = Traffic {
        rate: FIXED_QPS,
        count: ((FIXED_QPS * window.as_secs_f64()).round() as usize).max(1),
        path_share: PATH_SHARE,
        sources: &oracle.sources,
        vertices,
    };
    let schedule = client::schedule(seed, "fixed", &fixed);
    let args = server_flags(input, seed);

    let mut m = Metrics::default();
    let mut plain_records = Vec::new();
    let details;
    let fixed_records;
    let rung_records: Vec<(Vec<Request>, Vec<Record>)>;
    if !traced {
        let mut setups = Vec::new();
        let mut server = None;
        while server.is_none() || setups_wanted(&setups) {
            if let Some(s) = server.take() {
                Server::stop(s)?;
            }
            let tag = format!("setup{}", setups.len());
            let (s, secs) = Server::start(fastbfs, &args, dir, &tag)?;
            setups.push(secs);
            server = Some(s);
        }
        let server = server.expect("at least one set-up");
        let (records, wall) = client::run_window(server.addr, &schedule, lanes());
        let stats = WindowStats::new(&records, wall);
        let rss = server.peak_rss_mb()?;
        server.stop()?;

        m.put("setup_s", median(&setups).unwrap_or(0.0));
        m.put("latency_p10_ms", stats.pct(10.0));
        m.put("achieved_qps", stats.ok as f64 / stats.wall.as_secs_f64());
        m.put("peak_rss_mb", rss);
        details = format!(
            "{{\"vertices\":{vertices},\"requests\":{},\"setups_s\":{setups:?}}}",
            records.len(),
        );
        fixed_records = records;
        rung_records = Vec::new();
    } else {
        // Untraced reference window, then the same schedule against a
        // server that keeps and logs every request's trace.
        // The plain server also climbs the capacity ladder.
        let (plain, _) = Server::start(fastbfs, &args, dir, "plain")?;
        let plain_wall;
        (plain_records, plain_wall) = client::run_window(plain.addr, &schedule, lanes());
        let mut rungs = vec![Rung::measure(FIXED_QPS, &plain_records, plain_wall)];
        let mut ladder = Vec::new();
        for (k, &rate) in LADDER.iter().enumerate() {
            if rungs.len() >= 2 && rungs.iter().rev().take(2).all(|r| !r.passes()) {
                break;
            }
            let t = Traffic {
                rate,
                count: RUNG_REQUESTS,
                ..fixed
            };
            let reqs = client::schedule(seed, &format!("rung{k}"), &t);
            std::thread::sleep(Duration::from_millis(100));
            let (recs, wall) = client::run_window(plain.addr, &reqs, lanes());
            rungs.push(Rung::measure(rate, &recs, wall));
            ladder.push((reqs, recs));
        }
        plain.stop()?;
        let plain_stats = WindowStats::new(&plain_records, plain_wall);
        m.put("harmonic_mteps", harmonic_mteps(&schedule, &plain_records)?);
        m.put("latency_p50_ms", plain_stats.pct(50.0));
        m.put("latency_p90_ms", plain_stats.pct(90.0));
        m.put("latency_p99_ms", plain_stats.pct(99.0));
        m.put("capacity_qps", capacity(&rungs));
        let log_path = dir.join("trace-log.jsonl");
        let mut traced_args = args.clone();
        traced_args.extend([
            "--slow-ms".to_string(),
            "0".to_string(),
            "--trace-log".to_string(),
            log_path.display().to_string(),
        ]);
        let (server, _) = Server::start(fastbfs, &traced_args, dir, "traced")?;
        let before = server.snapshot()?;
        let (records, wall) = client::run_window(server.addr, &schedule, lanes());
        let delta = snapshot_delta(&server.snapshot()?, &before);
        server.stop()?;
        let log = std::fs::read_to_string(&log_path).map_err(|e| format!("trace log: {e}"))?;
        let p50 = |r: &[Record], w| WindowStats::new(r, w).pct(50.0);
        m.put(
            "trace_overhead_frac",
            ratio(p50(&records, wall), p50(&plain_records, plain_wall)) - 1.0,
        );
        details = format!(
            "{{\"layers\":{},\"tail_percentile\":{},\"ladder\":[{}]}}",
            layer_metrics(&mut m, &schedule, &records, &log, &delta, vertices)?,
            highest_reportable_percentile(plain_records.len()).unwrap_or(50.0),
            rungs
                .iter()
                .map(|r| format!(
                    "{{\"rate\":{},\"tail_ms\":{},\"failures\":{},\"lag_growth_ms\":{},\"pass\":{}}}",
                    r.rate,
                    r.tail_ms,
                    r.failures,
                    r.lag_growth_ms,
                    r.passes()
                ))
                .collect::<Vec<_>>()
                .join(","),
        );
        fixed_records = records;
        rung_records = ladder;
    }

    // Correctness, after the timed windows: every reply against the oracle.
    let mut checked: Vec<(&Request, &Record)> = schedule.iter().zip(&fixed_records).collect();
    checked.extend(schedule.iter().zip(&plain_records));
    for (reqs, recs) in &rung_records {
        checked.extend(reqs.iter().zip(recs));
    }
    let mut failed = 0u64;
    for (req, rec) in &checked {
        if let Err(e) = oracle.check(req, rec) {
            failed += 1;
            if failed <= 5 {
                eprintln!("perfbench: {} {}: {e}", req.trace_id, req.target());
            }
        }
    }
    if traced {
        m.put("failed_frac", ratio(failed as f64, checked.len() as f64));
    }
    Ok(Outcome {
        attempted: checked.len() as u64,
        failed,
        correct: true,
        metrics: m,
        details,
    })
}

/// One request's server-side record from the trace log.
#[derive(Default, Clone)]
struct ServerSpan {
    parse_ns: u64,
    queue_ns: u64,
    execute_ns: u64,
    serialize_ns: u64,
    total_ns: u64,
    wave: u64,
    levels: Vec<u64>,
}

fn parse_trace_log(log: &str) -> std::collections::HashMap<String, ServerSpan> {
    let mut spans = std::collections::HashMap::new();
    for line in log.lines() {
        let Ok(v) = serde_json::parse(line) else {
            continue;
        };
        let u = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
        let levels = v
            .get("levels")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|l| {
                let f = |k: &str| l.get(k).and_then(Value::as_u64).unwrap_or(0);
                level_ns([f("phase1_ns"), f("phase2_ns"), f("rearrange_ns")])
            })
            .collect();
        if let Some(id) = v.get("id").and_then(Value::as_str) {
            spans.insert(
                id.to_string(),
                ServerSpan {
                    parse_ns: u("parse_ns"),
                    queue_ns: u("queue_ns"),
                    execute_ns: u("execute_ns"),
                    serialize_ns: u("serialize_ns"),
                    total_ns: u("total_ns"),
                    wave: u("wave"),
                    levels,
                },
            );
        }
    }
    spans
}

/// The `serve.*`, `client.*` and `engine.*` metrics of the traced window:
/// client records joined to the server's trace log by `Trace-Id`.
fn layer_metrics(
    m: &mut Metrics,
    schedule: &[Request],
    records: &[Record],
    log: &str,
    delta: &MetricsSnapshot,
    vertices: u32,
) -> Result<String, String> {
    let spans = parse_trace_log(log);
    let joined: Vec<(&Request, &Record, &ServerSpan)> = schedule
        .iter()
        .zip(records)
        .filter(|(_, r)| r.ok())
        .filter_map(|(q, r)| spans.get(&q.trace_id).map(|s| (q, r, s)))
        .collect();
    if joined.is_empty() {
        return Err("no request joined the server trace log".into());
    }
    let us = |f: &dyn Fn(&(&Request, &Record, &ServerSpan)) -> u64,
              keep: &dyn Fn(&Request) -> bool| {
        sorted(
            &joined
                .iter()
                .filter(|j| keep(j.0))
                .map(|j| f(j) as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let all = |_: &Request| true;
    let p = |v: &[f64], q: f64| percentile(v, q).unwrap_or(0.0);
    m.put("serve.parse_us_p50", p(&us(&|j| j.2.parse_ns, &all), 50.0));
    let queue = us(&|j| j.2.queue_ns, &all);
    m.put("serve.queue_us_p50", p(&queue, 50.0));
    m.put("serve.queue_us_p99", p(&queue, 99.0));
    m.put(
        "serve.execute_us_p50",
        p(&us(&|j| j.2.execute_ns, &all), 50.0),
    );
    m.put(
        "serve.execute_reach_us_p50",
        p(
            &us(&|j| j.2.execute_ns, &|q| q.endpoint == Endpoint::Query),
            50.0,
        ),
    );
    m.put(
        "serve.execute_path_us_p50",
        p(
            &us(&|j| j.2.execute_ns, &|q| q.endpoint == Endpoint::Path),
            50.0,
        ),
    );
    m.put(
        "serve.serialize_us_p50",
        p(&us(&|j| j.2.serialize_ns, &all), 50.0),
    );
    let total = us(&|j| j.2.total_ns, &all);
    m.put("serve.total_us_p50", p(&total, 50.0));
    m.put("serve.total_us_p99", p(&total, 99.0));
    m.put(
        "serve.wave_size_mean",
        mean(&joined.iter().map(|j| j.2.wave as f64).collect::<Vec<_>>()).unwrap_or(0.0),
    );
    let n = records.len() as f64;
    m.put(
        "serve.shed_frac",
        records.iter().filter(|r| r.status == 503).count() as f64 / n,
    );
    m.put(
        "serve.deadline_drop_frac",
        records.iter().filter(|r| r.status == 504).count() as f64 / n,
    );

    let connect = us(&|j| j.1.connect_ns, &all);
    m.put("client.connect_us_p50", p(&connect, 50.0));
    m.put("client.connect_us_p99", p(&connect, 99.0));
    m.put(
        "client.first_byte_us_p50",
        p(&us(&|j| j.1.first_byte_ns, &all), 50.0),
    );
    let lag = sorted(
        &records
            .iter()
            .map(|r| r.lag_ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    m.put("client.sched_lag_ms_p99", p(&lag, 99.0));
    // Attribution on the client clock, from the scheduled arrival: lag,
    // connect and send are measured intervals; the server's own total
    // starts when the send ends; the body read ends the request. What no
    // child covers is unattributed.
    let mut unattributed = Vec::with_capacity(joined.len());
    let mut share = Vec::with_capacity(joined.len());
    for (_, r, s) in &joined {
        let connect_at = r.lag_ns;
        let send_at = connect_at + r.connect_ns;
        let sent = send_at + r.send_ns;
        let first_byte = sent + r.first_byte_ns;
        let children = [
            Interval::new(0, connect_at),
            Interval::new(connect_at, send_at),
            Interval::new(send_at, sent),
            Interval::new(sent, sent + s.total_ns),
            Interval::new(first_byte, first_byte + r.read_ns),
        ];
        let own = self_time(Interval::new(0, r.latency_ns), &children);
        unattributed.push(own as f64 / 1e3);
        share.push(1.0 - ratio(own as f64, r.latency_ns as f64));
    }
    let unattributed = sorted(&unattributed);
    let share = sorted(&share);
    m.put("client.unattributed_us_p50", p(&unattributed, 50.0));
    m.put("client.unattributed_us_p99", p(&unattributed, 99.0));
    m.put("client.attributed_share_p50", p(&share, 50.0));
    // The share's tail is its low end: the 1% of requests the spans
    // explain worst.
    m.put("client.attributed_share_p99", p(&share, 1.0));

    let levels: Vec<u64> = joined
        .iter()
        .flat_map(|j| j.2.levels.iter().copied())
        .collect();
    engine_metrics(
        m,
        &EngineWindow {
            delta,
            num_vertices: vertices as u64,
            lanes: 1,
            level_ns: &levels,
            traced_query_ns: delta.total(bfs_metrics::Counter::QueryNs),
        },
    );
    Ok(format!(
        "{{\"vertices\":{vertices},\"requests\":{},\"joined\":{},\"logged\":{}}}",
        records.len(),
        joined.len(),
        spans.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: f64, tail_ms: f64) -> Rung {
        Rung {
            rate,
            tail_ms,
            failures: 0,
            lag_growth_ms: 0.0,
        }
    }

    #[test]
    fn capacity_interpolates_the_limit_crossing() {
        // 30 ms at 200/s, 70 ms at 250/s: the 50 ms limit falls halfway.
        let rungs = [rung(150.0, 10.0), rung(200.0, 30.0), rung(250.0, 70.0)];
        assert!((capacity(&rungs) - 225.0).abs() < 1e-9);
        // Lag growth alone still interpolates on the tail it caused.
        let mut lagging = rung(250.0, 70.0);
        lagging.lag_growth_ms = 10.0;
        assert!((capacity(&[rung(200.0, 30.0), lagging]) - 225.0).abs() < 1e-9);
        // A rung that fails on errors, or on lag with its tail in limit,
        // gives no interpolation.
        let mut failing = rung(250.0, 40.0);
        failing.failures = 1;
        assert_eq!(capacity(&[rung(200.0, 30.0), failing]), 200.0);
        let mut lagging = rung(250.0, 40.0);
        lagging.lag_growth_ms = 10.0;
        assert_eq!(capacity(&[rung(200.0, 30.0), lagging]), 200.0);
        // The first rung already misses: its rate scaled by the limit.
        assert!((capacity(&[rung(150.0, 100.0)]) - 75.0).abs() < 1e-9);
        // A noisy low rung does not hide a higher passing one.
        let rungs = [
            rung(100.0, 10.0),
            rung(150.0, 60.0),
            rung(200.0, 30.0),
            rung(250.0, 70.0),
        ];
        assert!((capacity(&rungs) - 225.0).abs() < 1e-9);
        // Every rung passes: the top of the ladder.
        assert_eq!(capacity(&[rung(150.0, 1.0), rung(200.0, 2.0)]), 200.0);
    }
}
