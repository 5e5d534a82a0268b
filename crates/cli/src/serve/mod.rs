//! `fastbfs serve`: an instrumented BFS query server over a pool of
//! parked warm sessions, with a bounded admission queue and per-request
//! deadlines.
//!
//! Architecture — three kinds of threads over plain `std::net` (no async
//! runtime, one request per connection, `Connection: close`):
//!
//! * **HTTP workers** (`--http-threads`) share the listener. They parse
//!   and *validate* requests (`QueryKind::validate`), so a malformed or
//!   out-of-range request costs an HTTP 400/422 before it ever touches
//!   the admission queue; they stamp each query with its deadline (the
//!   client's `Deadline-Ms` header, falling back to the server-wide
//!   `--deadline-ms` budget), enqueue, and block awaiting the reply.
//!   Each worker owns one serialization buffer that rides along inside
//!   the job and comes back with the reply, so steady-state response
//!   writing reuses the same allocation across requests.
//! * **The admission queue** is bounded by `--queue-cap`; a full (or
//!   stopping) queue sheds load with an immediate 503.
//! * **Session dispatchers** (`--sessions`, default `min(4, cores/8)`)
//!   each own one warm [`BfsSession`] and are each the single writer of
//!   their own registry — queries on a session stay serialized
//!   (`&mut self`), preserving the warm-reset protocol and the
//!   synchronization-free metrics slots. A dispatcher that frees up
//!   pops the job at the head of the queue, runs it through
//!   [`bfs_core::query::execute`], and replies to its waiter before
//!   popping the next. Requests whose deadline passed while they waited
//!   are answered 504 at pop time without ever executing.
//!
//! Every admitted request carries a lifecycle span: request id plus
//! parse, queue-wait, and execute segments, and the session that ran
//! it. Spans are echoed in the response JSON and accumulate into the
//! per-session registries; `/metrics` merges those registries into one
//! fleet-wide exposition ([`MetricsSnapshot::merge`]) plus per-session
//! busy/served series.
//!
//! Endpoints:
//!
//! * `GET /query?src=N[&dst=M]` — BFS from `src`; with `dst`, also that
//!   vertex's depth/parent in the resulting tree;
//! * `GET /path?src=A&dst=B`   — BFS plus tree-path reconstruction;
//! * `POST /query` (`{"sources":[...]}`) — batched multi-source BFS;
//! * `GET /graph`    — vertex/edge counts (load generators size their
//!   source range from this);
//! * `GET /metrics`  — Prometheus 0.0.4 exposition: merged registry
//!   counters and histograms, `fastbfs_sessions`, per-session
//!   busy/served series, live `fastbfs_queue_depth`/`fastbfs_in_flight`
//!   gauges, `fastbfs_uptime_seconds`, and `fastbfs_build_info`;
//! * `GET /healthz`  — liveness probe, plain `ok`;
//! * `GET /snapshot` — merged registry snapshot as JSON with structured
//!   hardware-counter availability and per-session request counts;
//! * `GET /debug/slow` — the flight recorder's retained slow traces,
//!   ranked slowest-first (`?n=` caps the list; a malformed `n` is a
//!   400, not silently ignored);
//! * `GET /debug/trace/<id>` — one trace by id: the full span+level
//!   document if the tail sampler kept it, the id+latency digest
//!   otherwise;
//! * `GET /debug/health` — windowed SLO verdict (DESIGN.md §16):
//!   `ok`/`degraded`/`breaching` per configured SLO (`--slo-p99-ms`,
//!   `--slo-error-rate`, `--slo-drop-rate`) over the fast and slow
//!   burn-rate windows, windowed rate/latency summaries for both
//!   windows, `queue_wedged` readiness, and the slowest retained trace
//!   ids as exemplars. Answers **503** while any SLO is breaching so
//!   external probes can act on it (`/healthz` stays pure liveness);
//! * `GET /debug/timeseries` — the retained rollup ring as JSON frames,
//!   oldest first (`?n=` caps the list);
//! * `GET /quitquitquit` — graceful shutdown (drains admitted jobs).
//!
//! A dedicated **rollup ticker** thread diffs the merged published
//! snapshots every `--rollup-interval-ms` into a preallocated ring of
//! per-interval delta frames ([`bfs_metrics::rollup`]) — counter deltas
//! plus histogram-bucket deltas, so `/debug/health` reports *windowed*
//! rates and true windowed p50/p99, not since-boot aggregates. The tick
//! itself is allocation-free; ticks continue while the server is idle,
//! so windowed rates decay to zero (and verdicts recover) during quiet
//! periods without traffic. 503 sheds carry a `Retry-After` header
//! derived from the fast window's drain rate.
//!
//! Every request additionally carries a **flight-recorder trace id**
//! (the client's `Trace-Id` header, or a generated `req-<id>`), echoed
//! in the response JSON. Completed requests land in a fixed-capacity
//! ring: failures and tail-latency outliers keep their full trace —
//! spans joined with the executing session's per-level digest
//! (direction, frontier, phase nanoseconds) — everything else keeps an
//! id+latency digest (DESIGN.md §15).
//!
//! Error taxonomy (DESIGN.md §14): 400 malformed, 422 valid syntax but
//! impossible vertices, 405 wrong method; **503** means *shed before
//! queueing* (queue full, or shutting down) — retry elsewhere/later;
//! **504** means *admitted but not executed in time* (deadline expired
//! while queued, or the dispatch timeout fired) — the work was never
//! (deadline) or only partially (timeout) worth doing. Unknown paths
//! stay plain-text 404.
//!
//! Layout, one file per concern: this file parses the flags, builds the
//! shared [`ServerState`], and starts and stops the threads;
//! [`routes`] maps requests to handlers, [`admission`] owns the queue,
//! [`session`] runs the dispatchers and records traces, and [`render`]
//! writes every body.

mod admission;
mod render;
mod routes;
mod session;
#[cfg(test)]
mod tests;

use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use bfs_core::engine::BfsOptions;
use bfs_core::session::BfsSession;
use bfs_graph::stats::random_roots;
use bfs_metrics::rollup::{RollupRing, SloConfig};
use bfs_metrics::MetricsSnapshot;
use bfs_platform::Topology;
use bfs_trace::{FlightRecorder, TailSampler};

use crate::cmd;
use crate::http::{self, RequestError};
use crate::opts::Opts;
use admission::{admission_levels, Admission};

/// Per-session state shared with the scrape path. The dispatcher owns
/// the registry; scrapes read the last *published* snapshot.
struct SessionShared {
    /// Last published registry snapshot (merged fleet-wide at scrape).
    snapshot: Mutex<MetricsSnapshot>,
    /// 1 while warming up or serving a request, 0 while parked.
    busy: AtomicU64,
    /// Requests this session answered (executed or deadline-dropped).
    served: AtomicU64,
}

/// State shared between the HTTP workers and the session dispatchers.
struct ServerState {
    stop: AtomicBool,
    admission: Mutex<Admission>,
    /// Signals dispatchers that the queue gained a job (or stop was set).
    available: Condvar,
    queue_cap: usize,
    /// Server-wide deadline budget; `Deadline-Ms` overrides per request.
    default_deadline_ms: Option<u64>,
    /// Requests answered 4xx/5xx by the workers; dispatchers drain this
    /// into `Counter::ServeErrors` (single-writer rule).
    http_errors: AtomicU64,
    /// Failure traces recorded worker-side (4xx, shed, dispatch timeout);
    /// dispatchers drain this into `Counter::ServeTraceSampled` the same
    /// way `http_errors` feeds `ServeErrors`.
    trace_sampled_errors: AtomicU64,
    /// Completed-request flight recorder (DESIGN.md §15). `Mutex`-guarded
    /// internally: workers and dispatchers both record into it — it is a
    /// diagnostic ring, not a metrics registry, so the single-writer rule
    /// does not apply.
    recorder: FlightRecorder,
    /// Tail-sampling policy: full trace vs id+latency digest.
    sampler: Mutex<TailSampler>,
    /// `--slow-ms` as configured (echoed by `/debug/slow`).
    slow_ms: Option<u64>,
    /// `--trace-log` JSONL sink for sampled traces.
    trace_log: Option<Mutex<std::io::BufWriter<std::fs::File>>>,
    next_id: AtomicU64,
    started: Instant,
    sessions: Vec<SessionShared>,
    /// Graph size: `/graph` reports it and query validation checks
    /// vertex ids against it.
    vertices: usize,
    edges: u64,
    /// Legacy combined hw string (`"available"` / `"unavailable: ..."`).
    hw: String,
    hw_kind: Option<String>,
    hw_reason: Option<String>,
    local: std::net::SocketAddr,
    version: &'static str,
    git_rev: Option<String>,
    rustc: Option<String>,
    /// Windowed delta frames over the merged published snapshots, fed by
    /// the rollup ticker thread (DESIGN.md §16).
    rollup: Mutex<RollupRing>,
    /// SLO thresholds evaluated over the burn-rate windows.
    slo: SloConfig,
    /// Tick cadence of the rollup ring.
    rollup_interval: Duration,
    /// Fast (acute) burn-rate window, in ticks.
    fast_ticks: usize,
    /// Slow (budget) burn-rate window, in ticks.
    slow_ticks: usize,
    /// Consecutive ticks the admission queue has been at capacity;
    /// `queue_wedged` once it covers a full fast window.
    wedged_ticks: AtomicU64,
}

/// Poison-tolerant lock: a panicked holder must not wedge the server.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// `fastbfs serve`
pub fn serve(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, &["no-rearrange", "relabel", "hugepages"])?;
    let loaded = match o.get("i") {
        Some(path) => cmd::load_graph(path)?,
        None if o.get("family").is_some() => cmd::generate_family(&o)?,
        None => return Err("serve needs -i FILE or --family ...".into()),
    };
    let sockets: usize = o.num("sockets", 1)?;
    let threads: usize = o.num("threads", bfs_platform::topology::host_cores())?;
    // Session pool: each session gets its own parked SPMD pool carved
    // out of the thread budget. The default keeps the pool small enough
    // that sessions don't fight for lanes.
    let default_sessions = (bfs_platform::topology::host_cores() / 8).clamp(1, 4);
    let num_sessions: usize = o.num("sessions", default_sessions)?.max(1);
    let per_session = (threads / num_sessions).max(1);
    let topo = Topology::synthetic(sockets, per_session.div_ceil(sockets).max(1));
    let default_deadline_ms: Option<u64> = o.opt_num("deadline-ms")?;
    // Warmup traversals before serving (round-robin over random roots,
    // striped across the session pool): primes every session's
    // high-water buffers so the first real request sees warm-path
    // latency.
    let warmup: u64 = o.num("queries", 0u64)?;
    let count: usize = o.num("sources", 16)?;
    let seed: u64 = o.num("seed", 42)?;
    // Warmup roots in external ids, drawn before any relabeling — the
    // endpoints (and therefore the warmup) speak the file's id space.
    let warmup_roots = random_roots(&loaded, count, seed);
    if warmup > 0 && warmup_roots.is_empty() {
        return Err("graph has no edges".into());
    }
    let mut warmup_slices: Vec<Vec<u32>> = vec![Vec::new(); num_sessions];
    for q in 0..warmup {
        let root = warmup_roots[(q % warmup_roots.len() as u64) as usize];
        warmup_slices[(q as usize) % num_sessions].push(root);
    }
    let g = cmd::prepare_graph(loaded, &o, false).0;
    let addr = o.get("metrics-addr").unwrap_or("127.0.0.1:9464");
    let http_threads: usize = o.num("http-threads", 4)?.max(1);
    let queue_cap: usize = o.num("queue-cap", 1024)?.max(1);
    // Flight recorder: `--slow-ms` is the absolute keep floor (0 keeps
    // every trace — useful for smokes), `--trace-ring` sizes the full-
    // trace ring (the digest ring is 16x, at least 1024), `--trace-log`
    // appends every sampled trace as JSONL.
    let slow_ms: Option<u64> = o.opt_num("slow-ms")?;
    let trace_ring: usize = o.num("trace-ring", 64)?.max(1);
    let trace_log = match o.get("trace-log") {
        Some(path) => Some(Mutex::new(std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?,
        ))),
        None => None,
    };
    // Rollup ring + SLO engine: the ticker diffs the merged snapshots
    // every interval; verdicts compare windowed values against the
    // thresholds over a fast (acute, default 1 min) and a slow (budget,
    // default 5 min) window. Short intervals/windows are allowed — the
    // check.sh smoke runs 100ms ticks with seconds-long windows.
    let rollup_interval_ms: u64 = o.num("rollup-interval-ms", 1000u64)?.max(10);
    let fast_window_s = o.num::<f64>("slo-fast-s", 60.0)?.max(0.001);
    let slow_window_s = o.num::<f64>("slo-slow-s", 300.0)?.max(fast_window_s);
    let interval_s = rollup_interval_ms as f64 / 1000.0;
    let fast_ticks = ((fast_window_s / interval_s).ceil() as usize).max(1);
    let slow_ticks = ((slow_window_s / interval_s).ceil() as usize).max(fast_ticks);
    let slo = SloConfig {
        p99_ms: o.opt_num("slo-p99-ms")?,
        error_rate: o.opt_num("slo-error-rate")?,
        drop_rate: o.opt_num("slo-drop-rate")?,
    };

    let opts = BfsOptions {
        hw_counters: true,
        ..cmd::engine_options(&o)?
    };
    let mut sessions: Vec<BfsSession> = (0..num_sessions)
        .map(|_| BfsSession::new(&g, topo, opts))
        .collect();
    if let Some(reason) = sessions[0].engine().hugepage_status().unavailable_reason() {
        println!("hugepages: traversal arenas on plain pages ({reason})");
    }
    let hw_status = sessions[0]
        .engine()
        .hw_status()
        .unavailable_reason()
        .cloned();
    let hw = hw_status
        .as_ref()
        .map_or("available".into(), |r| format!("unavailable: {r}"));

    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    println!(
        "serving http://{local}/query (also /path /graph /metrics /healthz /snapshot \
         /debug/slow /debug/trace/<id> /debug/health /debug/timeseries /quitquitquit)"
    );
    println!(
        "rollup: {rollup_interval_ms}ms ticks, fast window {fast_window_s}s ({fast_ticks} ticks), \
         slow window {slow_window_s}s ({slow_ticks} ticks), slo p99 {} error-rate {} drop-rate {}",
        slo.p99_ms.map_or("off".into(), |v| format!("{v}ms")),
        slo.error_rate.map_or("off".into(), |v| v.to_string()),
        slo.drop_rate.map_or("off".into(), |v| v.to_string()),
    );
    println!(
        "flight recorder: {trace_ring} full traces (+{} digests), slow floor {}, trace log {}",
        trace_ring.saturating_mul(16).max(1024),
        slow_ms.map_or("rolling p99 only".into(), |ms| format!("{ms}ms")),
        o.get("trace-log").unwrap_or("off"),
    );
    println!(
        "pool: {num_sessions} sessions x ({} sockets x {} lanes), queue cap {queue_cap}, {http_threads} http threads, deadline {}, hw counters {hw}",
        topo.sockets,
        topo.lanes_per_socket,
        default_deadline_ms.map_or("none".into(), |ms| format!("{ms}ms")),
    );
    // Port 0 binds an ephemeral port; the written address is the one that
    // actually resolved.
    if let Some(path) = o.get("addr-file") {
        std::fs::write(path, local.to_string()).map_err(|e| format!("write {path}: {e}"))?;
    }

    // Publish each session's (all-zero) registry before accepting: the
    // first scrape merges real snapshots, never an empty body.
    let shared: Vec<SessionShared> = sessions
        .iter_mut()
        .map(|s| SessionShared {
            snapshot: Mutex::new(s.metrics_snapshot()),
            busy: AtomicU64::new(0),
            served: AtomicU64::new(0),
        })
        .collect();
    let state = ServerState {
        stop: AtomicBool::new(false),
        admission: Mutex::new(Admission {
            queue: VecDeque::new(),
            in_flight: 0,
            stop: false,
        }),
        available: Condvar::new(),
        queue_cap,
        default_deadline_ms,
        http_errors: AtomicU64::new(0),
        trace_sampled_errors: AtomicU64::new(0),
        recorder: FlightRecorder::new(trace_ring, trace_ring.saturating_mul(16).max(1024)),
        sampler: Mutex::new(TailSampler::new(slow_ms)),
        slow_ms,
        trace_log,
        next_id: AtomicU64::new(0),
        started: Instant::now(),
        sessions: shared,
        vertices: g.num_vertices(),
        edges: g.num_edges(),
        hw,
        hw_kind: hw_status.as_ref().map(|r| r.kind().to_string()),
        hw_reason: hw_status.as_ref().map(|r| r.to_string()),
        local,
        version: env!("CARGO_PKG_VERSION"),
        git_rev: bfs_bench::report::git_revision(),
        rustc: bfs_bench::report::rustc_version(),
        // The ring retains exactly the slow window (frame count is
        // clamped inside RollupRing::new; /debug/timeseries serves what
        // is retained).
        rollup: Mutex::new(RollupRing::new(slow_ticks)),
        slo,
        rollup_interval: Duration::from_millis(rollup_interval_ms),
        fast_ticks,
        slow_ticks,
        wedged_ticks: AtomicU64::new(0),
    };

    std::thread::scope(|scope| -> Result<(), String> {
        let state = &state;
        let listener = &listener;
        for _ in 0..http_threads {
            scope.spawn(move || http_worker(listener, state));
        }
        // The rollup ticker keeps appending frames while the server is
        // idle: quiet intervals carry zero deltas, which is what lets
        // windowed rates (and SLO verdicts) decay back to ok.
        scope.spawn(move || rollup_ticker(state));

        // Sessions 1.. dispatch on spawned threads; session 0 on this one.
        let mut session0 = sessions.remove(0);
        let handles: Vec<_> = sessions
            .into_iter()
            .enumerate()
            .map(|(j, mut s)| {
                let idx = j + 1;
                let slice = std::mem::take(&mut warmup_slices[idx]);
                scope.spawn(move || session::run_session(idx, &mut s, state, &slice))
            })
            .collect();
        let slice0 = std::mem::take(&mut warmup_slices[0]);
        let (mut served, mut traversals) = session::run_session(0, &mut session0, state, &slice0);
        for h in handles {
            let (s, t) = h.join().map_err(|_| "session dispatcher panicked")?;
            served += s;
            traversals += t;
        }
        wake_workers(state, http_threads);
        println!(
            "shutdown after {served} served requests across {num_sessions} sessions, {traversals} traversals"
        );
        Ok(())
    })
}

/// Unblocks workers parked in `accept` after `stop` is set.
fn wake_workers(state: &ServerState, n: usize) {
    for _ in 0..n {
        let _ = TcpStream::connect(state.local);
    }
}

/// One HTTP worker: accept → parse → validate → enqueue → await reply.
/// Owns the serialization buffer that rides along inside each admitted
/// job and is recycled across this worker's requests.
fn http_worker(listener: &TcpListener, state: &ServerState) {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        if state.stop.load(Ordering::Relaxed) {
            return;
        }
        let Ok((mut stream, _)) = listener.accept() else {
            continue;
        };
        if state.stop.load(Ordering::Relaxed) {
            return; // woken by wake_workers
        }
        let arrival = Instant::now();
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
        let req = match http::read_request(&mut stream) {
            Ok(r) => r,
            Err(RequestError::Io) => continue,
            Err(RequestError::Bad(msg)) => {
                routes::reply_error(state, &mut stream, &mut buf, 400, msg, &[]);
                continue;
            }
        };
        if routes::handle(&req, &mut stream, arrival, state, &mut buf) {
            state.stop.store(true, Ordering::Relaxed);
            lock(&state.admission).stop = true;
            state.available.notify_all();
            // Unblock the sibling workers (dispatchers notice via the
            // condvar and drain whatever was admitted).
            wake_workers(state, 64);
            return;
        }
    }
}

/// Merges every session's last published snapshot into one fleet view.
fn merged_snapshot(state: &ServerState) -> MetricsSnapshot {
    let mut merged: Option<MetricsSnapshot> = None;
    for s in &state.sessions {
        let snap = lock(&s.snapshot);
        match merged.as_mut() {
            None => merged = Some(snap.clone()),
            Some(m) => m.merge(&snap),
        }
    }
    merged.expect("pool has at least one session")
}

/// The rollup ticker: every `--rollup-interval-ms` it merges the
/// published per-session snapshots, diffs them into the next ring frame
/// (allocation-free inside [`RollupRing::tick`]), and tracks how long
/// the admission queue has been wedged at capacity. Runs until stop;
/// sleeps in short slices so shutdown is never delayed by a long
/// interval.
fn rollup_ticker(state: &ServerState) {
    let interval = state.rollup_interval;
    let mut next = Instant::now() + interval;
    loop {
        loop {
            if state.stop.load(Ordering::Relaxed) {
                return;
            }
            let now = Instant::now();
            if now >= next {
                break;
            }
            std::thread::sleep((next - now).min(Duration::from_millis(25)));
        }
        let snap = merged_snapshot(state);
        let (depth, in_flight) = admission_levels(state);
        if depth >= state.queue_cap as u64 {
            state.wedged_ticks.fetch_add(1, Ordering::Relaxed);
        } else {
            state.wedged_ticks.store(0, Ordering::Relaxed);
        }
        let uptime_s = state.started.elapsed().as_secs_f64();
        lock(&state.rollup).tick(&snap, uptime_s, depth, in_flight);
        next += interval;
        // If the tick itself (or a scheduler stall) overran the cadence,
        // resynchronize instead of firing a catch-up burst.
        let now = Instant::now();
        if next < now {
            next = now + interval;
        }
    }
}

/// True when the queue has been at capacity for every tick of a full
/// fast window.
fn queue_wedged(state: &ServerState) -> bool {
    state.wedged_ticks.load(Ordering::Relaxed) >= state.fast_ticks as u64
}
