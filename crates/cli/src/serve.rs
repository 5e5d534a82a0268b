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
//! * **The admission queue** is one mutex-guarded `VecDeque` bounded by
//!   `--queue-cap`; a full (or stopping) queue sheds load with an
//!   immediate 503. Queue depth and in-flight counts live under the
//!   same lock and are sampled together at scrape time, so the two
//!   gauges can never over-count a request mid-handoff.
//! * **Session dispatchers** (`--sessions`, default `min(4, cores/8)`)
//!   each own one warm [`BfsSession`] and are each the single writer of
//!   their own registry — queries on a session stay serialized
//!   (`&mut self`), preserving the warm-reset protocol and the
//!   synchronization-free metrics slots. A dispatcher that frees up
//!   pops the job at the head of the queue, runs it through
//!   [`query::execute`], and replies to its waiter before popping the
//!   next. Requests whose deadline passed while they waited are answered
//!   504 at pop time without ever executing.
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
//! id+latency digest (DESIGN.md §15). Diagnostic reads (`/metrics`,
//! `/snapshot`, `/debug/*`) are answered on the listener thread and
//! never pass through the admission queue, so they stay responsive
//! exactly when the queue is saturated.
//!
//! Error taxonomy (DESIGN.md §14): 400 malformed, 422 valid syntax but
//! impossible vertices, 405 wrong method; **503** means *shed before
//! queueing* (queue full, or shutting down) — retry elsewhere/later;
//! **504** means *admitted but not executed in time* (deadline expired
//! while queued, or the dispatch timeout fired) — the work was never
//! (deadline) or only partially (timeout) worth doing. Unknown paths
//! stay plain-text 404.

use std::collections::VecDeque;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use bfs_core::engine::{BfsOptions, BfsOutput};
use bfs_core::query::{self, QueryKind, QueryOutcome};
use bfs_core::session::BfsSession;
use bfs_graph::stats::random_roots;
use bfs_metrics::rollup::{self, RollupRing, SloConfig, SloState, WindowStats};
use bfs_metrics::{prom, Counter, Hist, MetricsSnapshot};
use bfs_platform::Topology;
use bfs_trace::{
    FlightRecorder, FlightStats, RequestTrace, TailSampler, TraceDigest, TraceLookup,
    LEVEL_DIGEST_CAP,
};
use serde::Serialize;

use crate::cmd;
use crate::http::{self, Request, RequestError};
use crate::opts::Opts;

/// How long an HTTP worker waits for a dispatcher before giving up with
/// a 504. Generous: a cold huge-graph query plus a deep queue can
/// legitimately take seconds.
const DISPATCH_TIMEOUT: Duration = Duration::from_secs(60);
/// Minimum interval between a busy dispatcher's snapshot publishes;
/// bounds the per-request metrics overhead and the staleness of scrapes
/// under load. An idle queue always publishes before replying (see
/// [`serve_job`]).
const PUBLISH_INTERVAL: Duration = Duration::from_millis(50);

/// The admission queue and its occupancy accounting. One lock holds all
/// three so scrapes read a consistent picture: a request is *either*
/// queued *or* in flight, never both, and the transition happens under
/// this lock.
struct Admission {
    queue: VecDeque<Job>,
    /// Jobs popped by a dispatcher and not yet answered.
    in_flight: u64,
    /// Mirrors `ServerState::stop` so dispatchers blocked on the condvar
    /// observe shutdown without racing the atomic.
    stop: bool,
}

/// Per-session state shared with the scrape path. The dispatcher owns
/// the registry; scrapes read the last *published* snapshot.
struct SessionShared {
    /// Last published registry snapshot (merged fleet-wide at scrape).
    snapshot: Mutex<MetricsSnapshot>,
    /// Traversals run, as of the last publish.
    traversals: AtomicU64,
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
    /// Static `/graph` body.
    graph_json: String,
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

/// One admitted query, owned by a dispatcher from dequeue on.
struct Job {
    id: u64,
    /// Flight-recorder trace id: the client's `Trace-Id` header or the
    /// generated `req-<id>`.
    trace_id: String,
    /// Human-readable descriptor for the recorded trace.
    query_desc: String,
    kind: QueryKind,
    arrival: Instant,
    parse_ns: u64,
    enqueued: Instant,
    /// Answer-by instant; `None` means no budget. Checked when a
    /// dispatcher pops the job: expired jobs get a 504 and never run.
    deadline: Option<Instant>,
    /// The worker's serialization buffer; the response body is rendered
    /// into it and it travels back via the reply.
    buf: Vec<u8>,
    resp: mpsc::Sender<Reply>,
}

/// A dispatcher's answer to one request.
struct Reply {
    status: &'static str,
    body: Vec<u8>,
}

/// Lifecycle span echoed in each response (nanoseconds, plus the
/// answering session). The serialize segment is measured around
/// rendering this very document, so it lands only in the registry
/// counters, not here.
struct Span {
    parse_ns: u64,
    queue_ns: u64,
    /// 0 for deadline-dropped requests: no execute phase ever ran.
    execute_ns: u64,
    /// Which session answered.
    session: usize,
}

/// `/snapshot` document. Owns its fields: the vendored serde derive has
/// no lifetime-parameter support, and the doc is rebuilt per scrape.
#[derive(Serialize)]
struct SnapshotDoc {
    /// Traversals across all sessions (warmup + served queries).
    queries: u64,
    uptime_s: f64,
    queue_depth: u64,
    in_flight: u64,
    /// Size of the session pool.
    sessions: u64,
    /// Per-session requests answered, indexed by session id.
    session_requests: Vec<u64>,
    /// Legacy combined string (`"available"` / `"unavailable: ..."`),
    /// kept for pre-PR6 consumers.
    hw: String,
    /// Structured availability: whether per-phase hardware counters are
    /// actually being sampled.
    hw_available: bool,
    /// Machine-readable degradation tag (`"permission_denied"`, ...);
    /// `None` when counters are available.
    hw_kind: Option<String>,
    /// Human-readable degradation reason; `None` when available.
    hw_reason: Option<String>,
    metrics: MetricsSnapshot,
}

/// `/debug/slow` document: the recorder's slowest retained traces plus
/// the sampling policy that kept them.
#[derive(Serialize)]
struct SlowDoc {
    /// Current rolling keep-threshold (`None` while the sampler warms
    /// up): successful requests strictly above it keep full traces.
    threshold_ns: Option<u64>,
    /// The configured absolute floor, as given (`--slow-ms`).
    slow_ms: Option<u64>,
    /// Ring occupancy and eviction churn.
    stats: FlightStats,
    /// Retained full traces ranked slowest-first.
    slow: Vec<RequestTrace>,
}

/// `/debug/health` document: the burn-rate SLO verdict plus windowed
/// summaries and flight-recorder exemplars (DESIGN.md §16).
#[derive(Serialize)]
struct HealthDoc {
    /// Worst per-SLO state: `ok`, `degraded`, or `breaching` (the HTTP
    /// status is 503 iff this is `breaching`).
    state: String,
    /// True when the admission queue has sat at capacity for a full
    /// fast window of consecutive rollup ticks.
    queue_wedged: bool,
    uptime_s: f64,
    /// Rollup ticks so far (the first tick is the diffing baseline).
    ticks: u64,
    interval_ms: u64,
    fast_window_s: f64,
    slow_window_s: f64,
    /// Per-SLO verdicts, in `--slo-p99-ms`/`--slo-error-rate`/
    /// `--slo-drop-rate` order; empty when no SLO is configured.
    slos: Vec<SloDoc>,
    fast: WindowDoc,
    slow: WindowDoc,
    queue_depth: u64,
    in_flight: u64,
    /// Slowest retained full traces (id + total ns), the exemplars to
    /// pull through `/debug/trace/<id>` when a verdict is bad.
    exemplars: Vec<ExemplarDoc>,
}

/// One SLO's evaluation in `/debug/health`.
#[derive(Serialize)]
struct SloDoc {
    name: String,
    threshold: f64,
    /// Windowed value over the fast window.
    fast: f64,
    /// Windowed value over the slow window.
    slow: f64,
    state: String,
}

/// Windowed rate/latency summary for one burn-rate window.
#[derive(Serialize)]
struct WindowDoc {
    /// Delta frames summed (fewer than configured until the ring fills).
    frames: u64,
    elapsed_s: f64,
    requests: u64,
    errors: u64,
    dropped: u64,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    error_rate: f64,
    drop_rate: f64,
    top_down_steps: u64,
    bottom_up_steps: u64,
}

/// One exemplar trace reference in `/debug/health`.
#[derive(Serialize)]
struct ExemplarDoc {
    trace_id: String,
    total_ns: u64,
}

/// `/debug/timeseries` document: the retained rollup frames.
#[derive(Serialize)]
struct TimeseriesDoc {
    interval_ms: u64,
    /// Ring capacity in frames (= the slow window).
    capacity: u64,
    /// Rollup ticks so far.
    ticks: u64,
    /// Retained frames, oldest first.
    frames: Vec<FrameDoc>,
}

/// One per-interval delta frame in `/debug/timeseries`.
#[derive(Serialize)]
struct FrameDoc {
    seq: u64,
    uptime_s: f64,
    interval_s: f64,
    requests: u64,
    errors: u64,
    dropped: u64,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    queries: u64,
    top_down_steps: u64,
    bottom_up_steps: u64,
    queue_depth: u64,
    in_flight: u64,
}

/// Poison-tolerant lock: a panicked holder must not wedge the server.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
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
    let threads: usize = o.num("threads", bfs_platform::pin::host_cores())?;
    // Session pool: each session gets its own parked SPMD pool carved
    // out of the thread budget. The default keeps the pool small enough
    // that sessions don't fight for lanes.
    let default_sessions = (bfs_platform::pin::host_cores() / 8).clamp(1, 4);
    let num_sessions: usize = o.num("sessions", default_sessions)?.max(1);
    let per_session = (threads / num_sessions).max(1);
    let topo = Topology::synthetic(sockets, per_session.div_ceil(sockets).max(1));
    let default_deadline_ms: Option<u64> = match o.get("deadline-ms") {
        Some(_) => Some(o.num("deadline-ms", 0u64)?),
        None => None,
    };
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
    let slow_ms: Option<u64> = match o.get("slow-ms") {
        Some(_) => Some(o.num("slow-ms", 0u64)?),
        None => None,
    };
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
        p99_ms: match o.get("slo-p99-ms") {
            Some(_) => Some(o.num("slo-p99-ms", 0.0f64)?),
            None => None,
        },
        error_rate: match o.get("slo-error-rate") {
            Some(_) => Some(o.num("slo-error-rate", 0.0f64)?),
            None => None,
        },
        drop_rate: match o.get("slo-drop-rate") {
            Some(_) => Some(o.num("slo-drop-rate", 0.0f64)?),
            None => None,
        },
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
    let hw = match &hw_status {
        Some(r) => format!("unavailable: {r}"),
        None => "available".to_string(),
    };

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
        match slo.p99_ms {
            Some(v) => format!("{v}ms"),
            None => "off".into(),
        },
        match slo.error_rate {
            Some(v) => format!("{v}"),
            None => "off".into(),
        },
        match slo.drop_rate {
            Some(v) => format!("{v}"),
            None => "off".into(),
        },
    );
    println!(
        "flight recorder: {trace_ring} full traces (+{} digests), slow floor {}, trace log {}",
        trace_ring.saturating_mul(16).max(1024),
        match slow_ms {
            Some(ms) => format!("{ms}ms"),
            None => "rolling p99 only".into(),
        },
        o.get("trace-log").unwrap_or("off"),
    );
    println!(
        "pool: {num_sessions} sessions x ({} sockets x {} lanes), queue cap {queue_cap}, {http_threads} http threads, deadline {}, hw counters {hw}",
        topo.sockets,
        topo.lanes_per_socket,
        match default_deadline_ms {
            Some(ms) => format!("{ms}ms"),
            None => "none".into(),
        },
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
            traversals: AtomicU64::new(0),
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
        graph_json: format!(
            "{{\"vertices\":{},\"edges\":{}}}",
            g.num_vertices(),
            g.num_edges()
        ),
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

    let num_vertices = g.num_vertices();
    std::thread::scope(|scope| -> Result<(), String> {
        let state = &state;
        let listener = &listener;
        for _ in 0..http_threads {
            scope.spawn(move || http_worker(listener, state, num_vertices));
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
                scope.spawn(move || run_session(idx, &mut s, state, &slice))
            })
            .collect();
        let slice0 = std::mem::take(&mut warmup_slices[0]);
        let (mut served, mut traversals) = run_session(0, &mut session0, state, &slice0);
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

/// One session dispatcher: warms its slice of the warmup roots, then
/// pops one job at a time off the admission queue until shutdown.
/// Returns `(requests answered, traversals run)`.
fn run_session(
    idx: usize,
    session: &mut BfsSession<'_>,
    state: &ServerState,
    warmup_roots: &[u32],
) -> (u64, u64) {
    let shared = &state.sessions[idx];
    let mut out = BfsOutput::default();
    if !warmup_roots.is_empty() {
        shared.busy.store(1, Ordering::Relaxed);
        for (q, &root) in warmup_roots.iter().enumerate() {
            session.run_reusing(root, &mut out);
            if q % 16 == 15 {
                publish(idx, session, state);
            }
        }
        shared.busy.store(0, Ordering::Relaxed);
        if idx == 0 {
            println!("warmup done; serving");
        }
    }
    publish(idx, session, state);

    let mut served = 0u64;
    let mut last_publish = Instant::now();
    loop {
        let job = {
            let mut adm = lock(&state.admission);
            loop {
                if let Some(job) = adm.queue.pop_front() {
                    adm.in_flight += 1;
                    break job;
                }
                if adm.stop {
                    drop(adm);
                    publish(idx, session, state);
                    return (served, session.runs());
                }
                adm = state
                    .available
                    .wait_timeout(adm, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        };
        shared.busy.store(1, Ordering::Relaxed);
        #[cfg(test)]
        shed_hold::hold(state.local.port());
        serve_job(idx, session, job, &mut out, state, &mut last_publish);
        served += 1;
        shared.busy.store(0, Ordering::Relaxed);
    }
}

/// Serves one popped job: answers 504 if its deadline lapsed while it
/// waited, otherwise executes it, records its lifecycle span and trace,
/// and replies.
fn serve_job(
    idx: usize,
    session: &mut BfsSession<'_>,
    mut job: Job,
    out: &mut BfsOutput,
    state: &ServerState,
    last_publish: &mut Instant,
) {
    let queue_ns = elapsed_ns(job.enqueued);
    // Deadline triage at pop time: a request whose budget lapsed while
    // it waited is answered 504 and never reaches the engine.
    let expired = job.deadline.is_some_and(|d| d <= Instant::now());
    let mut span = Span {
        parse_ns: job.parse_ns,
        queue_ns,
        execute_ns: 0,
        session: idx,
    };
    let mut serialize_ns = 0;
    if expired {
        job.buf.clear();
        let _ = write!(
            job.buf,
            "{{\"error\":\"deadline expired while queued; request dropped without executing\",\"id\":{},\"trace_id\":\"{}\",",
            job.id, job.trace_id
        );
        write_span(&mut job.buf, &span);
        job.buf.push(b'}');
    } else {
        let exec = Instant::now();
        let outcome = query::execute(session, &job.kind, out);
        span.execute_ns = elapsed_ns(exec);
        let ser = Instant::now();
        render_outcome(&mut job.buf, job.id, &job.trace_id, &outcome, &span);
        serialize_ns = elapsed_ns(ser);
    }
    let total_ns = elapsed_ns(job.arrival);
    // A deadline drop is a failure: its full trace is always kept.
    let keep = expired || lock(&state.sampler).decide(total_ns, false);
    // The flight cap lives here, on the copy: the session's record is
    // uncapped, a kept trace holds its first LEVEL_DIGEST_CAP levels.
    let (levels, levels_truncated) = if keep && !expired {
        session.with_level_digest(|all| {
            let kept = &all[..all.len().min(LEVEL_DIGEST_CAP)];
            (kept.to_vec(), (all.len() - kept.len()) as u64)
        })
    } else {
        (Vec::new(), 0)
    };

    // Single-writer metrics: only this dispatcher touches this session's
    // registry, and worker-side error/trace tallies arrive via the
    // drained atomics.
    let errors = state.http_errors.swap(0, Ordering::Relaxed);
    let worker_traces = state.trace_sampled_errors.swap(0, Ordering::Relaxed);
    {
        let mut d = session.metrics_mut().driver();
        d.add(Counter::ServeErrors, errors);
        d.add(Counter::ServeTraceSampled, worker_traces + keep as u64);
        d.add(Counter::ServeTraceDigest, !keep as u64);
        d.add(Counter::ServeRequests, 1);
        d.add(Counter::ServeParseNs, job.parse_ns);
        d.add(Counter::ServeQueueNs, queue_ns);
        d.observe(Hist::ServeQueueNs, queue_ns);
        if expired {
            d.add(Counter::ServeDeadlineDropped, 1);
        } else {
            d.add(Counter::ServeExecNs, span.execute_ns);
            d.add(Counter::ServeSerializeNs, serialize_ns);
            d.observe(Hist::ServeRequestNs, total_ns);
        }
    }

    let idle = {
        let mut adm = lock(&state.admission);
        adm.in_flight -= 1;
        adm.queue.is_empty()
    };
    // Publish *before* replying when the queue is idle (or the rate
    // limit allows): a client that has its response is guaranteed the
    // next scrape already includes its request. Under sustained load the
    // interval bounds the overhead and the staleness.
    if idle || last_publish.elapsed() >= PUBLISH_INTERVAL {
        publish(idx, session, state);
        *last_publish = Instant::now();
    }
    let trace_id = std::mem::take(&mut job.trace_id);
    if keep {
        let (status, outcome, error) = if expired {
            (
                504,
                "deadline_dropped",
                Some("deadline expired while queued"),
            )
        } else {
            (200, "ok", None)
        };
        record_full_trace(
            state,
            RequestTrace {
                id: trace_id,
                query: std::mem::take(&mut job.query_desc),
                status,
                outcome: outcome.to_string(),
                error: error.map(str::to_string),
                sampled: true,
                parse_ns: job.parse_ns,
                queue_ns,
                execute_ns: span.execute_ns,
                serialize_ns,
                total_ns,
                session: Some(idx as u64),
                levels,
                levels_truncated,
            },
        );
    } else {
        state.recorder.record_digest(TraceDigest {
            id: trace_id,
            status: 200,
            total_ns,
            sampled: false,
        });
    }
    state.sessions[idx].served.fetch_add(1, Ordering::Relaxed);
    let _ = job.resp.send(Reply {
        status: if expired {
            "504 Gateway Timeout"
        } else {
            "200 OK"
        },
        body: job.buf,
    });
}

/// Stores a sampled trace in the full ring and, when `--trace-log` is
/// set, appends it as one JSON line.
fn record_full_trace(state: &ServerState, trace: RequestTrace) {
    if let Some(log) = &state.trace_log {
        if let Ok(line) = serde_json::to_string(&trace) {
            let mut w = lock(log);
            let _ = writeln!(w, "{line}");
            let _ = w.flush();
        }
    }
    state.recorder.record_full(trace);
}

/// Records a worker-side failure (4xx, shed, dispatch timeout) as an
/// always-kept trace. Workers may not touch a session registry, so the
/// sampled count rides the drained `trace_sampled_errors` atomic.
#[allow(clippy::too_many_arguments)]
fn record_failure_trace(
    state: &ServerState,
    trace_id: String,
    query: String,
    status: u16,
    outcome: &str,
    error: &str,
    arrival: Instant,
    parse_ns: u64,
) {
    state.trace_sampled_errors.fetch_add(1, Ordering::Relaxed);
    record_full_trace(
        state,
        RequestTrace {
            id: trace_id,
            query,
            status,
            outcome: outcome.to_string(),
            error: Some(error.to_string()),
            sampled: true,
            parse_ns,
            queue_ns: 0,
            execute_ns: 0,
            serialize_ns: 0,
            total_ns: elapsed_ns(arrival),
            session: None,
            levels: Vec::new(),
            levels_truncated: 0,
        },
    );
}

/// Accepts client-supplied trace ids that are short and shell/JSON-safe:
/// 1–64 characters from `[A-Za-z0-9_.-]`.
fn valid_trace_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Publishes the session's registry snapshot for the scrape path.
fn publish(idx: usize, session: &mut BfsSession<'_>, state: &ServerState) {
    let shared = &state.sessions[idx];
    let snap = session.metrics_snapshot();
    shared.traversals.store(session.runs(), Ordering::Relaxed);
    *lock(&shared.snapshot) = snap;
}

// ---- response rendering -------------------------------------------------
//
// Responses are rendered by hand into the job's reusable buffer: every
// field is numeric or a fixed literal, so this stays byte-deterministic
// and the steady-state serve loop performs no per-response allocation
// once buffers reach their high-water capacity (the vendored
// serde_json builds an intermediate String per call, which is fine for
// scrape documents but not for the hot path).

fn write_span(buf: &mut Vec<u8>, s: &Span) {
    let _ = write!(
        buf,
        "\"spans\":{{\"parse_ns\":{},\"queue_ns\":{},\"execute_ns\":{},\"session\":{}}}",
        s.parse_ns, s.queue_ns, s.execute_ns, s.session
    );
}

fn write_u32_opt(buf: &mut Vec<u8>, v: Option<u32>) {
    match v {
        Some(x) => {
            let _ = write!(buf, "{x}");
        }
        None => buf.extend_from_slice(b"null"),
    }
}

fn write_reach_fields(buf: &mut Vec<u8>, r: &query::ReachResult) {
    let _ = write!(
        buf,
        "\"src\":{},\"depth\":{},\"visited_vertices\":{},\"traversed_edges\":{},\"dst\":",
        r.src, r.depth, r.visited_vertices, r.traversed_edges
    );
    match &r.dst {
        Some(v) => {
            let _ = write!(buf, "{{\"vertex\":{},\"depth\":", v.vertex);
            write_u32_opt(buf, v.depth);
            buf.extend_from_slice(b",\"parent\":");
            write_u32_opt(buf, v.parent);
            buf.push(b'}');
        }
        None => buf.extend_from_slice(b"null"),
    }
}

/// Renders one outcome (plus id, trace id, and spans) into `buf`,
/// replacing its contents but reusing its capacity. Trace ids are
/// validated to `[A-Za-z0-9_.-]`, so emitting one needs no escaping.
fn render_outcome(buf: &mut Vec<u8>, id: u64, trace_id: &str, outcome: &QueryOutcome, span: &Span) {
    buf.clear();
    match outcome {
        QueryOutcome::Reach(r) => {
            let _ = write!(buf, "{{\"id\":{id},\"trace_id\":\"{trace_id}\",");
            write_reach_fields(buf, r);
            buf.push(b',');
            write_span(buf, span);
            buf.push(b'}');
        }
        QueryOutcome::Path(p) => {
            let _ = write!(
                buf,
                "{{\"id\":{id},\"trace_id\":\"{trace_id}\",\"src\":{},\"dst\":{},\"reached\":{},\"path\":[",
                p.src,
                p.dst,
                p.reached()
            );
            for (i, v) in p.path.iter().enumerate() {
                if i > 0 {
                    buf.push(b',');
                }
                let _ = write!(buf, "{v}");
            }
            buf.extend_from_slice(b"],");
            write_span(buf, span);
            buf.push(b'}');
        }
        QueryOutcome::Batch(rows) => {
            let _ = write!(
                buf,
                "{{\"id\":{id},\"trace_id\":\"{trace_id}\",\"results\":["
            );
            for (i, r) in rows.iter().enumerate() {
                if i > 0 {
                    buf.push(b',');
                }
                buf.push(b'{');
                write_reach_fields(buf, r);
                buf.push(b'}');
            }
            buf.extend_from_slice(b"],");
            write_span(buf, span);
            buf.push(b'}');
        }
    }
}

// ---- scrape path --------------------------------------------------------

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

/// Queue depth and in-flight count sampled together under the admission
/// lock, so `depth + in_flight` never over-counts a request that is
/// mid-handoff between the queue and a session.
fn admission_levels(state: &ServerState) -> (u64, u64) {
    let adm = lock(&state.admission);
    (adm.queue.len() as u64, adm.in_flight)
}

// ---- rollup ticker ------------------------------------------------------

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

fn window_doc(w: &WindowStats) -> WindowDoc {
    let (top_down, bottom_up) = w.direction_mix();
    WindowDoc {
        frames: w.frames as u64,
        elapsed_s: w.elapsed_s,
        requests: w.counter(Counter::ServeRequests),
        errors: w.counter(Counter::ServeErrors),
        dropped: w.counter(Counter::ServeDeadlineDropped),
        qps: w.qps(),
        p50_ms: w.latency_ms(0.5),
        p99_ms: w.latency_ms(0.99),
        error_rate: w.error_rate(),
        drop_rate: w.drop_rate(),
        top_down_steps: top_down,
        bottom_up_steps: bottom_up,
    }
}

/// The `/debug/health` body and its HTTP status: 503 while any SLO is
/// breaching, 200 otherwise (including `degraded` — probes that only
/// act on hard failure keep routing traffic while the budget recovers).
fn health_body(state: &ServerState) -> Result<(&'static str, String), String> {
    let (fast, slow, ticks) = {
        let ring = lock(&state.rollup);
        (
            ring.window(state.fast_ticks),
            ring.window(state.slow_ticks),
            ring.ticks(),
        )
    };
    let verdict = rollup::evaluate(&state.slo, &fast, &slow);
    let (depth, in_flight) = admission_levels(state);
    let doc = HealthDoc {
        state: verdict.state.name().to_string(),
        queue_wedged: queue_wedged(state),
        uptime_s: state.started.elapsed().as_secs_f64(),
        ticks,
        interval_ms: state.rollup_interval.as_millis() as u64,
        fast_window_s: state.fast_ticks as f64 * state.rollup_interval.as_secs_f64(),
        slow_window_s: state.slow_ticks as f64 * state.rollup_interval.as_secs_f64(),
        slos: verdict
            .slos
            .iter()
            .map(|s| SloDoc {
                name: s.name.to_string(),
                threshold: s.threshold,
                fast: s.fast,
                slow: s.slow,
                state: s.state.name().to_string(),
            })
            .collect(),
        fast: window_doc(&fast),
        slow: window_doc(&slow),
        queue_depth: depth,
        in_flight,
        exemplars: state
            .recorder
            .slowest_ids(5)
            .into_iter()
            .map(|(trace_id, total_ns)| ExemplarDoc { trace_id, total_ns })
            .collect(),
    };
    let status = if verdict.state == SloState::Breaching {
        "503 Service Unavailable"
    } else {
        "200 OK"
    };
    let body = serde_json::to_string(&doc).map_err(|e| format!("health doc to JSON: {e}"))?;
    Ok((status, body))
}

/// The `/debug/timeseries` body: at most `limit` retained frames,
/// oldest first.
fn timeseries_body(state: &ServerState, limit: usize) -> Result<String, String> {
    let ring = lock(&state.rollup);
    let skip = ring.len().saturating_sub(limit);
    let doc = TimeseriesDoc {
        interval_ms: state.rollup_interval.as_millis() as u64,
        capacity: ring.capacity() as u64,
        ticks: ring.ticks(),
        frames: ring
            .frames_oldest_first()
            .skip(skip)
            .map(|f| {
                let requests = f.counter(Counter::ServeRequests);
                FrameDoc {
                    seq: f.seq,
                    uptime_s: f.uptime_s,
                    interval_s: f.interval_s,
                    requests,
                    errors: f.counter(Counter::ServeErrors),
                    dropped: f.counter(Counter::ServeDeadlineDropped),
                    qps: if f.interval_s > 0.0 {
                        requests as f64 / f.interval_s
                    } else {
                        0.0
                    },
                    p50_ms: f.quantile(Hist::ServeRequestNs, 0.5) / 1e6,
                    p99_ms: f.quantile(Hist::ServeRequestNs, 0.99) / 1e6,
                    queries: f.counter(Counter::Queries),
                    top_down_steps: f.counter(Counter::TopDownSteps),
                    bottom_up_steps: f.counter(Counter::BottomUpSteps),
                    queue_depth: f.queue_depth,
                    in_flight: f.in_flight,
                }
            })
            .collect(),
    };
    serde_json::to_string(&doc).map_err(|e| format!("timeseries doc to JSON: {e}"))
}

/// Seconds a shed client should wait before retrying, from the fast
/// window's drain rate: the time to drain the queue at the current
/// answered-requests rate, clamped to `1..=60`. With no drain signal
/// (cold ring, idle window) the floor of 1s applies.
fn retry_after_s(state: &ServerState, depth: u64) -> u64 {
    let drain = lock(&state.rollup).window(state.fast_ticks).qps();
    if drain > 0.0 {
        (depth as f64 / drain).ceil().clamp(1.0, 60.0) as u64
    } else {
        1
    }
}

/// The `/metrics` body, rendered at scrape time from the published
/// per-session snapshots plus the live gauges and build-info series.
fn metrics_body(state: &ServerState) -> String {
    let mut body = prom::render(&merged_snapshot(state));
    let (depth, in_flight) = admission_levels(state);
    prom::render_gauge(
        &mut body,
        "fastbfs_sessions",
        "Parked warm sessions serving the admission queue",
        &[],
        state.sessions.len() as f64,
    );
    let busy: Vec<(String, f64)> = state
        .sessions
        .iter()
        .enumerate()
        .map(|(i, s)| (i.to_string(), s.busy.load(Ordering::Relaxed) as f64))
        .collect();
    prom::render_labeled_gauge(
        &mut body,
        "fastbfs_session_busy",
        "1 while the session is warming up or serving a request, 0 while parked",
        "session",
        &busy,
    );
    let served: Vec<(String, u64)> = state
        .sessions
        .iter()
        .enumerate()
        .map(|(i, s)| (i.to_string(), s.served.load(Ordering::Relaxed)))
        .collect();
    prom::render_labeled_counter(
        &mut body,
        "fastbfs_session_requests_total",
        "Requests answered by this session (executed or deadline-dropped)",
        "session",
        &served,
    );
    prom::render_gauge(
        &mut body,
        "fastbfs_queue_depth",
        "Requests waiting in the admission queue",
        &[],
        depth as f64,
    );
    prom::render_gauge(
        &mut body,
        "fastbfs_in_flight",
        "Requests popped by a session and not yet answered",
        &[],
        in_flight as f64,
    );
    prom::render_gauge(
        &mut body,
        "fastbfs_uptime_seconds",
        "Seconds since the server started",
        &[],
        state.started.elapsed().as_secs_f64(),
    );
    prom::render_build_info(
        &mut body,
        state.version,
        state.git_rev.as_deref(),
        state.rustc.as_deref(),
    );
    body
}

/// The `/snapshot` body, rendered at scrape time.
fn snapshot_body(state: &ServerState) -> Result<String, String> {
    let (depth, in_flight) = admission_levels(state);
    let doc = SnapshotDoc {
        queries: state
            .sessions
            .iter()
            .map(|s| s.traversals.load(Ordering::Relaxed))
            .sum(),
        uptime_s: state.started.elapsed().as_secs_f64(),
        queue_depth: depth,
        in_flight,
        sessions: state.sessions.len() as u64,
        session_requests: state
            .sessions
            .iter()
            .map(|s| s.served.load(Ordering::Relaxed))
            .collect(),
        hw: state.hw.clone(),
        hw_available: state.hw_kind.is_none(),
        hw_kind: state.hw_kind.clone(),
        hw_reason: state.hw_reason.clone(),
        metrics: merged_snapshot(state),
    };
    serde_json::to_string(&doc).map_err(|e| format!("snapshot to JSON: {e}"))
}

// ---- HTTP workers -------------------------------------------------------

/// One HTTP worker: accept → parse → validate → enqueue → await reply.
/// Owns the serialization buffer that rides along inside each admitted
/// job and is recycled across this worker's requests.
fn http_worker(listener: &TcpListener, state: &ServerState, num_vertices: usize) {
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
                state.http_errors.fetch_add(1, Ordering::Relaxed);
                http::write_json_error(&mut stream, "400 Bad Request", msg);
                continue;
            }
        };
        if handle(&req, &mut stream, arrival, state, num_vertices, &mut buf) {
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

/// Routes one request; returns true when it was the shutdown endpoint.
fn handle(
    req: &Request,
    stream: &mut TcpStream,
    arrival: Instant,
    state: &ServerState,
    num_vertices: usize,
    buf: &mut Vec<u8>,
) -> bool {
    let mut client_error = |status: &str, msg: &str| {
        state.http_errors.fetch_add(1, Ordering::Relaxed);
        http::write_json_error(stream, status, msg);
        false
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            http::write_response(stream, "200 OK", "text/plain; charset=utf-8", b"ok\n");
            false
        }
        ("GET", "/metrics") => {
            http::write_response(
                stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                metrics_body(state).as_bytes(),
            );
            false
        }
        ("GET", "/snapshot") => {
            match snapshot_body(state) {
                Ok(body) => http::write_json(stream, "200 OK", &body),
                Err(e) => http::write_json_error(stream, "500 Internal Server Error", &e),
            }
            false
        }
        ("GET", "/graph") => {
            http::write_json(stream, "200 OK", &state.graph_json);
            false
        }
        ("GET", "/quitquitquit") => {
            http::write_response(stream, "200 OK", "text/plain; charset=utf-8", b"bye\n");
            true
        }
        // Diagnostic reads are answered on the listener thread, same as
        // /metrics and /snapshot: they must stay reachable when the
        // admission queue is saturated — that is exactly when they are
        // needed.
        ("GET", "/debug/slow") => {
            let limit = match parse_limit(req, 20) {
                Ok(n) => n,
                Err(msg) => return client_error("400 Bad Request", &msg),
            };
            let doc = SlowDoc {
                threshold_ns: lock(&state.sampler).rolling_threshold_ns(),
                slow_ms: state.slow_ms,
                stats: state.recorder.stats(),
                slow: state.recorder.slow_ranked(limit),
            };
            match serde_json::to_string(&doc) {
                Ok(body) => http::write_json(stream, "200 OK", &body),
                Err(e) => http::write_json_error(
                    stream,
                    "500 Internal Server Error",
                    &format!("slow doc to JSON: {e}"),
                ),
            }
            false
        }
        ("GET", "/debug/health") => {
            match health_body(state) {
                Ok((status, body)) => http::write_json(stream, status, &body),
                Err(e) => http::write_json_error(stream, "500 Internal Server Error", &e),
            }
            false
        }
        ("GET", "/debug/timeseries") => {
            let limit = match parse_limit(req, usize::MAX) {
                Ok(n) => n,
                Err(msg) => return client_error("400 Bad Request", &msg),
            };
            match timeseries_body(state, limit) {
                Ok(body) => http::write_json(stream, "200 OK", &body),
                Err(e) => http::write_json_error(stream, "500 Internal Server Error", &e),
            }
            false
        }
        ("GET", p) if p.starts_with("/debug/trace/") => {
            let tid = &p["/debug/trace/".len()..];
            let rendered = match state.recorder.lookup(tid) {
                Some(TraceLookup::Full(t)) => serde_json::to_string(&t),
                Some(TraceLookup::Digest(d)) => serde_json::to_string(&d),
                None => {
                    return client_error(
                        "404 Not Found",
                        &format!("no retained trace with id {tid:?} (evicted or never recorded)"),
                    )
                }
            };
            match rendered {
                Ok(body) => http::write_json(stream, "200 OK", &body),
                Err(e) => http::write_json_error(
                    stream,
                    "500 Internal Server Error",
                    &format!("trace to JSON: {e}"),
                ),
            }
            false
        }
        ("GET", "/query") | ("GET", "/path") | ("POST", "/query") => {
            // Trace id first: the failure paths below record traces under
            // it. Client-supplied ids are validated; otherwise the id is
            // derived from the request id the response echoes anyway.
            let id = state.next_id.fetch_add(1, Ordering::Relaxed) + 1;
            let trace_id = match req.header("trace-id") {
                Some(raw) if !valid_trace_id(raw) => {
                    return client_error(
                        "400 Bad Request",
                        &format!(
                            "Trace-Id header {raw:?} invalid (want 1-64 chars of [A-Za-z0-9_.-])"
                        ),
                    )
                }
                Some(raw) => raw.to_string(),
                None => format!("req-{id}"),
            };
            let query_desc = format!("{} {}", req.method, req.path);
            let kind = match parse_query_request(req) {
                Ok(k) => k,
                Err(msg) => {
                    record_failure_trace(
                        state,
                        trace_id,
                        query_desc,
                        400,
                        "client_error",
                        &msg,
                        arrival,
                        elapsed_ns(arrival),
                    );
                    return client_error("400 Bad Request", &msg);
                }
            };
            if let Err(e) = kind.validate(num_vertices) {
                let msg = e.to_string();
                record_failure_trace(
                    state,
                    trace_id,
                    query_desc,
                    422,
                    "client_error",
                    &msg,
                    arrival,
                    elapsed_ns(arrival),
                );
                return client_error("422 Unprocessable Entity", &msg);
            }
            // Per-request deadline: the client's Deadline-Ms header wins
            // over the server-wide --deadline-ms default. A budget of 0
            // is already expired at the next pop — useful for tests and
            // for "only if free right now" probes.
            let deadline_ms = match req.header("deadline-ms") {
                Some(raw) => match raw.parse::<u64>() {
                    Ok(ms) => Some(ms),
                    Err(_) => {
                        let msg = format!("Deadline-Ms header {raw:?} is not a millisecond count");
                        record_failure_trace(
                            state,
                            trace_id,
                            query_desc,
                            400,
                            "client_error",
                            &msg,
                            arrival,
                            elapsed_ns(arrival),
                        );
                        return client_error("400 Bad Request", &msg);
                    }
                },
                None => state.default_deadline_ms,
            };
            let deadline =
                deadline_ms.and_then(|ms| arrival.checked_add(Duration::from_millis(ms)));
            enqueue_and_reply(
                stream, arrival, state, id, trace_id, query_desc, kind, deadline, buf,
            );
            false
        }
        (
            _,
            "/healthz" | "/metrics" | "/snapshot" | "/graph" | "/quitquitquit" | "/query" | "/path",
        ) => client_error(
            "405 Method Not Allowed",
            &format!("{} not allowed", req.method),
        ),
        (_, p)
            if p == "/debug/slow"
                || p == "/debug/health"
                || p == "/debug/timeseries"
                || p.starts_with("/debug/trace/") =>
        {
            client_error(
                "405 Method Not Allowed",
                &format!("{} not allowed", req.method),
            )
        }
        _ => {
            state.http_errors.fetch_add(1, Ordering::Relaxed);
            http::write_response(
                stream,
                "404 Not Found",
                "text/plain; charset=utf-8",
                b"not found\n",
            );
            false
        }
    }
}

/// Parses the `?n=` list cap shared by `/debug/slow` and
/// `/debug/timeseries`. Absent means `default`; malformed is a 400 —
/// a diagnostic endpoint silently ignoring its only parameter hides
/// operator typos exactly when the answer matters.
fn parse_limit(req: &Request, default: usize) -> Result<usize, String> {
    match req.param("n") {
        None => Ok(default),
        Some(raw) => raw
            .parse::<usize>()
            .map_err(|_| format!("query parameter n={raw:?} is not a count")),
    }
}

/// Parses a query-path request into a [`QueryKind`] (syntax only; range
/// checks are `validate`'s job).
fn parse_query_request(req: &Request) -> Result<QueryKind, String> {
    let vertex = |key: &str| -> Result<u32, String> {
        let raw = req
            .param(key)
            .ok_or_else(|| format!("missing query parameter {key:?} (expect {key}=<vertex id>)"))?;
        raw.parse()
            .map_err(|_| format!("query parameter {key}={raw:?} is not a vertex id"))
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/query") => Ok(QueryKind::Reach {
            src: vertex("src")?,
            dst: match req.param("dst") {
                Some(_) => Some(vertex("dst")?),
                None => None,
            },
        }),
        ("GET", "/path") => Ok(QueryKind::Path {
            src: vertex("src")?,
            dst: vertex("dst")?,
        }),
        ("POST", "/query") => {
            let text =
                std::str::from_utf8(&req.body).map_err(|_| "body is not UTF-8".to_string())?;
            let v = serde_json::parse(text)
                .map_err(|e| format!("body is not JSON ({e}); expect {{\"sources\":[...]}}"))?;
            let arr = v
                .get("sources")
                .and_then(|s| s.as_array())
                .ok_or_else(|| "body needs a \"sources\" array".to_string())?;
            let sources = arr
                .iter()
                .map(|s| {
                    s.as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| format!("source {s:?} is not a vertex id"))
                })
                .collect::<Result<Vec<u32>, String>>()?;
            Ok(QueryKind::Batch { sources })
        }
        _ => unreachable!("routed in handle()"),
    }
}

/// Admits the request (or sheds it with 503) and relays the session's
/// reply, reclaiming the serialization buffer for the next request.
#[allow(clippy::too_many_arguments)]
fn enqueue_and_reply(
    stream: &mut TcpStream,
    arrival: Instant,
    state: &ServerState,
    id: u64,
    trace_id: String,
    query_desc: String,
    kind: QueryKind,
    deadline: Option<Instant>,
    buf: &mut Vec<u8>,
) {
    let parse_ns = elapsed_ns(arrival);
    let (rtx, rrx) = mpsc::channel();
    {
        let mut adm = lock(&state.admission);
        if adm.stop || adm.queue.len() >= state.queue_cap {
            let msg = if adm.stop {
                "server shutting down"
            } else {
                "admission queue full; retry later"
            };
            let depth = adm.queue.len() as u64;
            drop(adm);
            #[cfg(test)]
            shed_hold::on_shed(state.local.port());
            record_failure_trace(
                state, trace_id, query_desc, 503, "shed", msg, arrival, parse_ns,
            );
            state.http_errors.fetch_add(1, Ordering::Relaxed);
            // Retry-After from the windowed drain rate: how long the
            // current queue takes to clear at the fast window's qps.
            let retry = retry_after_s(state, depth);
            http::write_json_error_with_headers(
                stream,
                "503 Service Unavailable",
                msg,
                &[("Retry-After", &retry.to_string())],
            );
            return;
        }
        buf.clear();
        adm.queue.push_back(Job {
            id,
            // The job carries clones so the dispatch-timeout arm below
            // can still record a trace after handing the originals off.
            trace_id: trace_id.clone(),
            query_desc: query_desc.clone(),
            kind,
            arrival,
            parse_ns,
            enqueued: Instant::now(),
            deadline,
            buf: std::mem::take(buf),
            resp: rtx,
        });
    }
    state.available.notify_one();
    match rrx.recv_timeout(DISPATCH_TIMEOUT) {
        Ok(reply) => {
            http::write_response(stream, reply.status, "application/json", &reply.body);
            // Recycle the buffer (and its high-water capacity) for this
            // worker's next response.
            *buf = reply.body;
        }
        Err(_) => {
            record_failure_trace(
                state,
                trace_id,
                query_desc,
                504,
                "timeout",
                "dispatch timed out",
                arrival,
                parse_ns,
            );
            state.http_errors.fetch_add(1, Ordering::Relaxed);
            http::write_json_error(stream, "504 Gateway Timeout", "dispatch timed out");
        }
    }
}

/// Test-only session hold, for tests that must observe a full admission
/// queue: once a test arms a server (by its listening port), the next job
/// a session of that server pops waits — session busy, queue filling
/// behind it — until the server sheds a request, then runs. One shot per
/// arm; a hold gives up after [`shed_hold::MAX_HOLD`] so a test that never
/// sheds cannot wedge its server.
#[cfg(test)]
mod shed_hold {
    use std::sync::{Condvar, Mutex};
    use std::time::{Duration, Instant};

    pub(super) const MAX_HOLD: Duration = Duration::from_secs(10);

    /// `(port, shed since armed)` per armed server.
    static ARMED: Mutex<Vec<(u16, bool)>> = Mutex::new(Vec::new());
    static SHED: Condvar = Condvar::new();

    pub(super) fn arm(port: u16) {
        let mut armed = ARMED.lock().unwrap();
        armed.retain(|&(p, _)| p != port);
        armed.push((port, false));
    }

    pub(super) fn on_shed(port: u16) {
        let mut armed = ARMED.lock().unwrap();
        if let Some(entry) = armed.iter_mut().find(|(p, _)| *p == port) {
            entry.1 = true;
            SHED.notify_all();
        }
    }

    pub(super) fn hold(port: u16) {
        let until = Instant::now() + MAX_HOLD;
        let mut armed = ARMED.lock().unwrap();
        while let Some(&(_, shed)) = armed.iter().find(|(p, _)| *p == port) {
            let now = Instant::now();
            if shed || now >= until {
                armed.retain(|&(p, _)| p != port);
                return;
            }
            armed = SHED.wait_timeout(armed, until - now).unwrap().0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// Starts `serve` on an ephemeral port and resolves the bound address.
    fn start(extra: &[&str]) -> (std::thread::JoinHandle<Result<(), String>>, String) {
        let addr_file = std::env::temp_dir().join(format!(
            "fastbfs_serve_test_{}_{:p}",
            std::process::id(),
            extra
        ));
        let addr_path = addr_file.to_str().unwrap().to_string();
        let mut args: Vec<String> = [
            "--family",
            "ur",
            "--vertices",
            "400",
            "--degree",
            "4",
            "--threads",
            "2",
            "--metrics-addr",
            "127.0.0.1:0",
            "--addr-file",
            &addr_path,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        args.extend(extra.iter().map(|s| s.to_string()));
        let driver = std::thread::spawn(move || serve(&args));
        let addr = {
            let mut tries = 0;
            loop {
                match std::fs::read_to_string(&addr_file) {
                    Ok(s) if !s.is_empty() => break s,
                    _ => {
                        tries += 1;
                        assert!(tries < 1000, "listener never came up");
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            }
        };
        std::fs::remove_file(&addr_file).ok();
        (driver, addr)
    }

    fn get(addr: &str, path: &str) -> http::Response {
        http::get(addr, path, Duration::from_secs(30)).unwrap()
    }

    /// First sample of a series in an exposition body (0 when absent).
    fn series_value(m: &str, name: &str) -> u64 {
        m.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse::<f64>().ok())
            .map(|v| v as u64)
            .unwrap_or(0)
    }

    /// The listening port of a `host:port` address.
    fn port_of(addr: &str) -> u16 {
        addr.rsplit(':').next().unwrap().parse().unwrap()
    }

    /// Polls until a session has popped a request (or `job` has already
    /// finished, or `deadline` passed). Reads the in-flight gauge, not the
    /// busy flag: a session clears `busy` only after replying, so a client
    /// that just got an answer can still see the flag set.
    fn wait_until_busy<T>(addr: &str, job: &std::thread::JoinHandle<T>, deadline: Instant) {
        while Instant::now() < deadline && !job.is_finished() {
            if series_value(&get(addr, "/metrics").body, "fastbfs_in_flight") >= 1 {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The result payload of a /query response body: everything between
    /// the id (varies per request) and the spans (vary per execution).
    fn core_of(body: &str) -> String {
        let start = body.find("\"src\"").expect("src field");
        let end = body.find(",\"spans\"").expect("spans field");
        body[start..end].to_string()
    }

    #[test]
    fn query_endpoints_answer_with_spans_and_ids() {
        let (driver, addr) = start(&[]);
        assert!(get(&addr, "/healthz").body.ends_with("ok\n"));

        // /graph advertises the source range.
        let graph = get(&addr, "/graph");
        let gv = serde_json::parse(&graph.body).unwrap();
        assert_eq!(gv.get("vertices").and_then(|v| v.as_u64()), Some(400));

        // Reachability query with a dst probe.
        let r = get(&addr, "/query?src=0&dst=5");
        assert!(r.ok(), "{} {}", r.status, r.body);
        let v = serde_json::parse(&r.body).unwrap();
        assert_eq!(v.get("src").and_then(|x| x.as_u64()), Some(0));
        assert!(v.get("id").and_then(|x| x.as_u64()).unwrap_or(0) > 0);
        assert!(
            v.get("visited_vertices")
                .and_then(|x| x.as_u64())
                .unwrap_or(0)
                > 0
        );
        let spans = v.get("spans").expect("lifecycle spans");
        for key in ["parse_ns", "queue_ns", "execute_ns", "session"] {
            assert!(spans.get(key).and_then(|x| x.as_u64()).is_some(), "{key}");
        }
        assert!(spans.get("execute_ns").and_then(|x| x.as_u64()).unwrap() > 0);
        assert!(spans.get("wave").is_none(), "{}", r.body);

        // Path query: endpoints must match the request.
        let p = get(&addr, "/path?src=0&dst=17");
        assert!(p.ok(), "{} {}", p.status, p.body);
        let v = serde_json::parse(&p.body).unwrap();
        if v.get("reached").and_then(|x| x.as_bool()) == Some(true) {
            let path = v.get("path").and_then(|x| x.as_array()).unwrap();
            assert_eq!(path.first().and_then(Value::as_u64), Some(0));
            assert_eq!(path.last().and_then(Value::as_u64), Some(17));
        }

        // Batched POST.
        let b = http::post_json(
            &addr,
            "/query",
            "{\"sources\":[0,7,399]}",
            Duration::from_secs(30),
        )
        .unwrap();
        assert!(b.ok(), "{} {}", b.status, b.body);
        let v = serde_json::parse(&b.body).unwrap();
        let rows = v.get("results").and_then(|x| x.as_array()).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2].get("src").and_then(|x| x.as_u64()), Some(399));

        // The lifecycle series made it into the exposition, along with
        // the pool series, gauges, and build info.
        let m = get(&addr, "/metrics").body;
        // Three dispatched jobs: GET /query, GET /path, one batched POST
        // (a batch is one admission-queue job however many sources it has).
        assert!(series_value(&m, "fastbfs_serve_requests_total") >= 3, "{m}");
        assert!(series_value(&m, "fastbfs_serve_exec_ns_total") > 0, "{m}");
        assert!(
            series_value(&m, "fastbfs_serve_request_ns_count") >= 3,
            "{m}"
        );
        assert!(series_value(&m, "fastbfs_sessions") >= 1, "{m}");
        assert!(m.contains("fastbfs_session_busy{session=\"0\"}"), "{m}");
        assert!(
            m.contains("fastbfs_session_requests_total{session=\"0\"}"),
            "{m}"
        );
        assert!(m.contains("fastbfs_queue_depth"), "{m}");
        assert!(m.contains("fastbfs_in_flight"), "{m}");
        assert!(m.contains("fastbfs_uptime_seconds"), "{m}");
        assert!(m.contains("fastbfs_build_info{version=\""), "{m}");

        assert!(get(&addr, "/quitquitquit").body.ends_with("bye\n"));
        driver.join().unwrap().unwrap();
    }

    #[test]
    fn malformed_and_out_of_range_requests_get_json_errors() {
        let (driver, addr) = start(&[]);

        // 400: missing/malformed parameters.
        for path in ["/query", "/query?src=banana", "/path?src=1"] {
            let r = get(&addr, path);
            assert_eq!(r.status, 400, "{path}: {}", r.body);
            let v = serde_json::parse(&r.body).unwrap();
            assert!(v.get("error").and_then(|e| e.as_str()).is_some(), "{path}");
        }
        // 400: bad POST bodies.
        for body in ["not json", "{\"sources\":7}", "{\"sources\":[1,-2]}"] {
            let r = http::post_json(&addr, "/query", body, Duration::from_secs(30)).unwrap();
            assert_eq!(r.status, 400, "{body:?}: {}", r.body);
        }
        // 422: well-formed but impossible (graph has 400 vertices).
        for path in ["/query?src=400", "/path?src=0&dst=9999"] {
            let r = get(&addr, path);
            assert_eq!(r.status, 422, "{path}: {}", r.body);
            let msg = serde_json::parse(&r.body)
                .unwrap()
                .get("error")
                .and_then(|e| e.as_str())
                .unwrap()
                .to_string();
            assert!(msg.contains("out of range"), "{msg}");
        }
        let r =
            http::post_json(&addr, "/query", "{\"sources\":[]}", Duration::from_secs(30)).unwrap();
        assert_eq!(r.status, 422, "{}", r.body);

        // 405 on wrong method, 404 on unknown paths.
        let r = http::post_json(&addr, "/metrics", "", Duration::from_secs(30)).unwrap();
        assert_eq!(r.status, 405, "{}", r.body);
        assert_eq!(get(&addr, "/nope").status, 404);

        // The failures are visible as serve_errors after the next
        // successful request flushes the tally.
        assert!(get(&addr, "/query?src=0").ok());
        let m = get(&addr, "/metrics").body;
        let errs = series_value(&m, "fastbfs_serve_errors_total");
        assert!(errs >= 9, "expected >= 9 recorded errors, got {errs}\n{m}");

        assert!(get(&addr, "/quitquitquit").body.ends_with("bye\n"));
        driver.join().unwrap().unwrap();
    }

    #[test]
    fn warmup_queries_prime_the_session_and_snapshot_is_structured() {
        let (driver, addr) = start(&["--queries", "12", "--sources", "3"]);
        // Warmup traversals land in the registry before any request.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let m = get(&addr, "/metrics").body;
            if series_value(&m, "fastbfs_queries_total") >= 12 {
                break;
            }
            assert!(Instant::now() < deadline, "warmup never finished: {m}");
            std::thread::sleep(Duration::from_millis(20));
        }
        let snap = get(&addr, "/snapshot").body;
        let v = serde_json::parse(&snap).unwrap();
        assert!(v.get("queries").and_then(|x| x.as_u64()).unwrap() >= 12);
        assert!(v.get("uptime_s").and_then(|x| x.as_f64()).unwrap() >= 0.0);
        // Pool accounting: a session count and a per-session request row
        // for each member.
        let sessions = v.get("sessions").and_then(|x| x.as_u64()).unwrap();
        assert!(sessions >= 1, "{snap}");
        let rows = v
            .get("session_requests")
            .and_then(|x| x.as_array())
            .unwrap();
        assert_eq!(rows.len() as u64, sessions, "{snap}");
        // Structured hw fields: available xor (kind + reason).
        let available = v.get("hw_available").and_then(|x| x.as_bool()).unwrap();
        let kind = v
            .get("hw_kind")
            .and_then(|x| x.as_str())
            .map(str::to_string);
        let reason = v
            .get("hw_reason")
            .and_then(|x| x.as_str())
            .map(str::to_string);
        if available {
            assert!(kind.is_none() && reason.is_none(), "{snap}");
        } else {
            assert!(kind.is_some() && reason.is_some(), "{snap}");
        }
        // The legacy string stays consistent with the structured fields.
        let hw = v.get("hw").and_then(|x| x.as_str()).unwrap();
        assert_eq!(available, hw == "available", "{hw}");

        assert!(get(&addr, "/quitquitquit").body.ends_with("bye\n"));
        driver.join().unwrap().unwrap();
    }

    #[test]
    fn deadline_expired_requests_are_dropped_without_executing() {
        let (driver, addr) = start(&["--sessions", "1"]);
        // A zero budget has always lapsed by the time a session pops the
        // job: deterministic 504, and the span proves nothing executed.
        let r = http::get_with_headers(
            &addr,
            "/query?src=0&dst=5",
            &[("Deadline-Ms", "0")],
            Duration::from_secs(30),
        )
        .unwrap();
        assert_eq!(r.status, 504, "{} {}", r.status, r.body);
        let v = serde_json::parse(&r.body).unwrap();
        assert!(
            v.get("error")
                .and_then(|e| e.as_str())
                .unwrap()
                .contains("deadline"),
            "{}",
            r.body
        );
        assert!(v.get("id").and_then(|x| x.as_u64()).unwrap() > 0);
        let spans = v.get("spans").expect("dropped requests keep their spans");
        assert_eq!(spans.get("execute_ns").and_then(|x| x.as_u64()), Some(0));
        assert_eq!(spans.get("session").and_then(|x| x.as_u64()), Some(0));
        assert!(spans.get("wave").is_none(), "{}", r.body);
        assert!(spans.get("queue_ns").and_then(|x| x.as_u64()).is_some());

        // A malformed header is a client error, not a query.
        let r = http::get_with_headers(
            &addr,
            "/query?src=0",
            &[("Deadline-Ms", "soon")],
            Duration::from_secs(30),
        )
        .unwrap();
        assert_eq!(r.status, 400, "{}", r.body);

        // A generous budget executes normally.
        let r = http::get_with_headers(
            &addr,
            "/query?src=0",
            &[("Deadline-Ms", "30000")],
            Duration::from_secs(30),
        )
        .unwrap();
        assert!(r.ok(), "{} {}", r.status, r.body);
        let v = serde_json::parse(&r.body).unwrap();
        let spans = v.get("spans").unwrap();
        assert!(spans.get("execute_ns").and_then(|x| x.as_u64()).unwrap() > 0);

        let m = get(&addr, "/metrics").body;
        assert!(
            series_value(&m, "fastbfs_serve_deadline_dropped_total") >= 1,
            "{m}"
        );

        assert!(get(&addr, "/quitquitquit").body.ends_with("bye\n"));
        driver.join().unwrap().unwrap();
    }

    #[test]
    fn server_default_deadline_applies_when_no_header_is_sent() {
        let (driver, addr) = start(&["--sessions", "1", "--deadline-ms", "0"]);
        let r = get(&addr, "/query?src=1");
        assert_eq!(r.status, 504, "{} {}", r.status, r.body);
        // The client's header overrides the server default upward.
        let r = http::get_with_headers(
            &addr,
            "/query?src=1",
            &[("Deadline-Ms", "30000")],
            Duration::from_secs(30),
        )
        .unwrap();
        assert!(r.ok(), "{} {}", r.status, r.body);
        assert!(get(&addr, "/quitquitquit").body.ends_with("bye\n"));
        driver.join().unwrap().unwrap();
    }

    /// Requests that pile up behind a busy session are answered one at a
    /// time on the same warm session, each exactly as if served alone.
    #[test]
    fn queued_requests_answer_identically_to_solo_queries() {
        // One session, one lane: parents are deterministic, so answers
        // can be compared byte-for-byte (minus per-request id/spans). The
        // queue holds exactly the burst, so one more request is shed; each
        // waiting request blocks an HTTP worker, so there are spares for
        // the holder, the overflow probe and the scrapes.
        const BURST: usize = 8;
        let (driver, addr) = start(&[
            "--sessions",
            "1",
            "--threads",
            "1",
            "--queue-cap",
            &BURST.to_string(),
            "--http-threads",
            &(BURST + 4).to_string(),
        ]);
        let queries: Vec<(u32, u32)> = (0..BURST as u32)
            .map(|i| (i * 13 % 400, (i * 37 + 5) % 400))
            .collect();
        let solo: Vec<String> = queries
            .iter()
            .map(|(s, d)| {
                let r = get(&addr, &format!("/query?src={s}&dst={d}"));
                assert!(r.ok(), "{} {}", r.status, r.body);
                core_of(&r.body)
            })
            .collect();

        // Hold the lone session on a first request until the server sheds
        // one, queue the burst behind it, then overflow the queue.
        let deadline = Instant::now() + Duration::from_secs(60);
        shed_hold::arm(port_of(&addr));
        let addr2 = addr.clone();
        let holder = std::thread::spawn(move || {
            http::get(&addr2, "/query?src=1", Duration::from_secs(60)).unwrap()
        });
        wait_until_busy(&addr, &holder, deadline);
        let burst: Vec<_> = queries
            .iter()
            .map(|&(s, d)| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    http::get(
                        &addr,
                        &format!("/query?src={s}&dst={d}"),
                        Duration::from_secs(60),
                    )
                    .unwrap()
                })
            })
            .collect();
        while series_value(&get(&addr, "/metrics").body, "fastbfs_queue_depth") < BURST as u64 {
            assert!(Instant::now() < deadline, "the burst never queued up");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(get(&addr, "/query?src=2").status, 503);

        assert!(holder.join().unwrap().ok());
        for (h, want) in burst.into_iter().zip(&solo) {
            let r = h.join().unwrap();
            assert!(r.ok(), "{} {}", r.status, r.body);
            assert_eq!(&core_of(&r.body), want, "queued answer differs");
            let v = serde_json::parse(&r.body).unwrap();
            let spans = v.get("spans").expect("lifecycle spans");
            assert_eq!(spans.get("session").and_then(|x| x.as_u64()), Some(0));
            assert!(spans.get("wave").is_none(), "{}", r.body);
        }
        assert!(get(&addr, "/quitquitquit").body.ends_with("bye\n"));
        driver.join().unwrap().unwrap();
    }

    /// The tentpole, end to end: a request is retrievable by its trace
    /// id with lifecycle spans, placement, and the executing session's
    /// per-level digest; `/debug/slow` ranks retained traces.
    #[test]
    fn slow_traces_resolve_end_to_end_with_level_digests() {
        let (driver, addr) = start(&["--slow-ms", "0", "--sessions", "1"]);

        // Client-stamped Trace-Id echoes in the response JSON.
        let r = http::get_with_headers(
            &addr,
            "/query?src=0&dst=5",
            &[("Trace-Id", "triage-1")],
            Duration::from_secs(30),
        )
        .unwrap();
        assert!(r.ok(), "{} {}", r.status, r.body);
        let v = serde_json::parse(&r.body).unwrap();
        assert_eq!(v.get("trace_id").and_then(|x| x.as_str()), Some("triage-1"));

        // Without the header the server generates one tied to the id.
        let r = get(&addr, "/query?src=1");
        assert!(r.ok(), "{} {}", r.status, r.body);
        let v = serde_json::parse(&r.body).unwrap();
        let generated = v
            .get("trace_id")
            .and_then(|x| x.as_str())
            .unwrap()
            .to_string();
        assert!(generated.starts_with("req-"), "{generated}");

        // --slow-ms 0 keeps every trace: the full document resolves by
        // id, spans nest inside the total, and the per-level digest
        // carries direction/frontier/phase breakdowns.
        let t = get(&addr, "/debug/trace/triage-1");
        assert!(t.ok(), "{} {}", t.status, t.body);
        let tv = serde_json::parse(&t.body).unwrap();
        assert_eq!(tv.get("status").and_then(|x| x.as_u64()), Some(200));
        assert_eq!(tv.get("outcome").and_then(|x| x.as_str()), Some("ok"));
        assert_eq!(tv.get("sampled").and_then(|x| x.as_bool()), Some(true));
        assert_eq!(tv.get("query").and_then(|x| x.as_str()), Some("GET /query"));
        assert_eq!(tv.get("session").and_then(|x| x.as_u64()), Some(0));
        assert!(tv.get("wave").is_none(), "{}", t.body);
        let total = tv.get("total_ns").and_then(|x| x.as_u64()).unwrap();
        let span_sum: u64 = ["parse_ns", "queue_ns", "execute_ns", "serialize_ns"]
            .iter()
            .map(|k| tv.get(k).and_then(|x| x.as_u64()).unwrap())
            .sum();
        assert!(span_sum <= total, "spans {span_sum} exceed total {total}");
        assert!(tv.get("execute_ns").and_then(|x| x.as_u64()).unwrap() > 0);
        let levels = tv.get("levels").and_then(|x| x.as_array()).unwrap();
        assert!(!levels.is_empty(), "{}", t.body);
        for key in ["step", "frontier", "phase1_ns", "phase2_ns", "rearrange_ns"] {
            assert!(
                levels[0].get(key).and_then(|x| x.as_u64()).is_some(),
                "{key}"
            );
        }
        assert!(levels[0]
            .get("top_down")
            .and_then(|x| x.as_bool())
            .is_some());
        assert!(levels[0].get("frontier").and_then(|x| x.as_u64()).unwrap() > 0);

        // /debug/slow ranks the retained traces slowest-first and both
        // ids appear.
        let s = get(&addr, "/debug/slow");
        assert!(s.ok(), "{} {}", s.status, s.body);
        let sv = serde_json::parse(&s.body).unwrap();
        let slow = sv.get("slow").and_then(|x| x.as_array()).unwrap();
        assert!(slow.len() >= 2, "{}", s.body);
        let totals: Vec<u64> = slow
            .iter()
            .map(|t| t.get("total_ns").and_then(|x| x.as_u64()).unwrap())
            .collect();
        assert!(totals.windows(2).all(|w| w[0] >= w[1]), "{totals:?}");
        let ids: Vec<&str> = slow
            .iter()
            .map(|t| t.get("id").and_then(|x| x.as_str()).unwrap())
            .collect();
        assert!(ids.contains(&"triage-1"), "{ids:?}");
        assert!(ids.contains(&generated.as_str()), "{ids:?}");
        assert!(sv
            .get("stats")
            .and_then(|x| x.get("retained_full"))
            .is_some());

        // Sampler decisions are visible in the exposition.
        let m = get(&addr, "/metrics").body;
        assert!(
            series_value(&m, "fastbfs_serve_trace_sampled_total") >= 2,
            "{m}"
        );

        // Guard rails: invalid client ids are rejected, unknown ids 404,
        // wrong methods 405.
        let bad = http::get_with_headers(
            &addr,
            "/query?src=0",
            &[("Trace-Id", "has spaces")],
            Duration::from_secs(30),
        )
        .unwrap();
        assert_eq!(bad.status, 400, "{}", bad.body);
        assert_eq!(get(&addr, "/debug/trace/never-recorded").status, 404);
        let r = http::post_json(&addr, "/debug/slow", "", Duration::from_secs(30)).unwrap();
        assert_eq!(r.status, 405, "{}", r.body);

        assert!(get(&addr, "/quitquitquit").body.ends_with("bye\n"));
        driver.join().unwrap().unwrap();

        // A traversal deeper than the flight cap: the kept trace carries
        // the first LEVEL_DIGEST_CAP levels and counts the rest.
        const DEPTH: usize = 100;
        let file = std::env::temp_dir().join(format!(
            "fastbfs_serve_deep_path_{}.fbfs",
            std::process::id()
        ));
        let mut bytes = Vec::new();
        bfs_graph::io::write_binary(&bfs_graph::gen::classic::path(DEPTH + 1), &mut bytes).unwrap();
        std::fs::write(&file, bytes).unwrap();
        let (driver, addr) = start(&[
            "-i",
            file.to_str().unwrap(),
            "--slow-ms",
            "0",
            "--sessions",
            "1",
        ]);
        let r = http::get_with_headers(
            &addr,
            "/query?src=0",
            &[("Trace-Id", "deep-1")],
            Duration::from_secs(30),
        )
        .unwrap();
        assert!(r.ok(), "{} {}", r.status, r.body);
        let t = get(&addr, "/debug/trace/deep-1");
        assert!(t.ok(), "{} {}", t.status, t.body);
        let tv = serde_json::parse(&t.body).unwrap();
        let levels = tv.get("levels").and_then(|x| x.as_array()).unwrap();
        assert_eq!(levels.len(), LEVEL_DIGEST_CAP, "{}", t.body);
        assert_eq!(
            tv.get("levels_truncated").and_then(|x| x.as_u64()),
            Some((DEPTH - LEVEL_DIGEST_CAP) as u64)
        );
        let last = levels[LEVEL_DIGEST_CAP - 1].get("step");
        assert_eq!(last.and_then(|x| x.as_u64()), Some(LEVEL_DIGEST_CAP as u64));
        assert!(get(&addr, "/quitquitquit").body.ends_with("bye\n"));
        driver.join().unwrap().unwrap();
        std::fs::remove_file(&file).ok();
    }

    /// Tail-sampling policy: failures (422, deadline drops) always keep
    /// full traces, while a fast success under a cold sampler (no
    /// `--slow-ms`, fewer observations than warmup) retains only the
    /// id+latency digest.
    #[test]
    fn failures_keep_full_traces_and_fast_successes_stay_digest_only() {
        let (driver, addr) = start(&["--sessions", "1"]);

        // 422: recorded worker-side, before any session was involved.
        let r = http::get_with_headers(
            &addr,
            "/query?src=99999",
            &[("Trace-Id", "bad.vertex")],
            Duration::from_secs(30),
        )
        .unwrap();
        assert_eq!(r.status, 422, "{}", r.body);
        let t = get(&addr, "/debug/trace/bad.vertex");
        assert!(t.ok(), "{} {}", t.status, t.body);
        let tv = serde_json::parse(&t.body).unwrap();
        assert_eq!(tv.get("status").and_then(|x| x.as_u64()), Some(422));
        assert_eq!(
            tv.get("outcome").and_then(|x| x.as_str()),
            Some("client_error")
        );
        assert!(tv.get("error").and_then(|x| x.as_str()).is_some());
        assert!(tv.get("session").and_then(|x| x.as_u64()).is_none());

        // Deadline-dropped: 504 at pop time, executed nothing, but the
        // trace names the session that dropped it.
        let r = http::get_with_headers(
            &addr,
            "/query?src=0",
            &[("Trace-Id", "doomed"), ("Deadline-Ms", "0")],
            Duration::from_secs(30),
        )
        .unwrap();
        assert_eq!(r.status, 504, "{}", r.body);
        let t = get(&addr, "/debug/trace/doomed");
        assert!(t.ok(), "{} {}", t.status, t.body);
        let tv = serde_json::parse(&t.body).unwrap();
        assert_eq!(tv.get("status").and_then(|x| x.as_u64()), Some(504));
        assert_eq!(
            tv.get("outcome").and_then(|x| x.as_str()),
            Some("deadline_dropped")
        );
        assert_eq!(tv.get("execute_ns").and_then(|x| x.as_u64()), Some(0));
        assert!(tv.get("wave").is_none(), "{}", t.body);
        assert_eq!(tv.get("session").and_then(|x| x.as_u64()), Some(0));

        // A fast success: the sampler has seen fewer than its warmup
        // window of observations and no absolute floor is set, so the
        // trace lands in the digest tier (id + latency only, no levels).
        let r = http::get_with_headers(
            &addr,
            "/query?src=1",
            &[("Trace-Id", "routine")],
            Duration::from_secs(30),
        )
        .unwrap();
        assert!(r.ok(), "{} {}", r.status, r.body);
        let t = get(&addr, "/debug/trace/routine");
        assert!(t.ok(), "{} {}", t.status, t.body);
        let tv = serde_json::parse(&t.body).unwrap();
        assert_eq!(tv.get("sampled").and_then(|x| x.as_bool()), Some(false));
        assert_eq!(tv.get("status").and_then(|x| x.as_u64()), Some(200));
        assert!(tv.get("levels").is_none(), "digest tier: {}", t.body);

        let m = get(&addr, "/metrics").body;
        assert!(
            series_value(&m, "fastbfs_serve_trace_sampled_total") >= 2,
            "{m}"
        );
        assert!(
            series_value(&m, "fastbfs_serve_trace_digest_total") >= 1,
            "{m}"
        );

        assert!(get(&addr, "/quitquitquit").body.ends_with("bye\n"));
        driver.join().unwrap().unwrap();
    }

    /// The satellite fix as a regression test: `/metrics` and `/debug/*`
    /// answer from the listener thread and never pass through the
    /// admission queue — a saturated queue (proved by a 503-shed probe)
    /// must not stop them.
    #[test]
    fn debug_and_metrics_bypass_a_saturated_admission_queue() {
        let (driver, addr) = start(&[
            "--sessions",
            "1",
            "--threads",
            "1",
            "--queue-cap",
            "1",
            "--vertices",
            "2000",
        ]);
        let deadline = Instant::now() + Duration::from_secs(60);
        'attempt: loop {
            // Park the lone session on a long batch, held until a
            // request is shed, then lodge one query in the queue (cap 1)
            // behind it.
            shed_hold::arm(port_of(&addr));
            let addr2 = addr.clone();
            let batch = std::thread::spawn(move || {
                let sources: Vec<String> = (0..512u32).map(|i| i.to_string()).collect();
                let body = format!("{{\"sources\":[{}]}}", sources.join(","));
                http::post_json(&addr2, "/query", &body, Duration::from_secs(60)).unwrap()
            });
            // Wait for the dispatcher to pop the batch so the filler
            // lands in the emptied queue (shed is tolerated: the queue
            // was full either way).
            wait_until_busy(&addr, &batch, deadline);
            let addr3 = addr.clone();
            let filler = std::thread::spawn(move || {
                http::get(&addr3, "/query?src=0", Duration::from_secs(60)).unwrap()
            });
            // Wait until the queue is visibly full, then prove it: a
            // probe is shed with 503 and its trace records the shed.
            // Stop polling once the batch is done: if it outran the
            // filler, the queue stays empty and only a retry can help.
            let mut saturated = false;
            while Instant::now() < deadline && !batch.is_finished() {
                let m = get(&addr, "/metrics").body;
                if series_value(&m, "fastbfs_queue_depth") >= 1 {
                    saturated = true;
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            if saturated {
                let probe = http::get_with_headers(
                    &addr,
                    "/query?src=1",
                    &[("Trace-Id", "shed-probe")],
                    Duration::from_secs(30),
                )
                .unwrap();
                if probe.status == 503 {
                    // Queue saturated *right now* — the diagnostic reads
                    // must still answer immediately.
                    assert!(get(&addr, "/metrics").ok());
                    assert!(get(&addr, "/snapshot").ok());
                    assert!(get(&addr, "/debug/slow").ok());
                    let t = get(&addr, "/debug/trace/shed-probe");
                    assert!(t.ok(), "{} {}", t.status, t.body);
                    let tv = serde_json::parse(&t.body).unwrap();
                    assert_eq!(tv.get("status").and_then(|x| x.as_u64()), Some(503));
                    assert_eq!(tv.get("outcome").and_then(|x| x.as_str()), Some("shed"));
                    assert!(batch.join().unwrap().ok());
                    let f = filler.join().unwrap();
                    assert!(f.ok() || f.status == 503, "{} {}", f.status, f.body);
                    break 'attempt;
                }
            }
            // The batch outran us; drain this attempt and retry.
            assert!(batch.join().unwrap().ok());
            let f = filler.join().unwrap();
            assert!(f.ok() || f.status == 503, "{} {}", f.status, f.body);
            assert!(
                Instant::now() < deadline,
                "queue never stayed saturated long enough to probe"
            );
        }
        assert!(get(&addr, "/quitquitquit").body.ends_with("bye\n"));
        driver.join().unwrap().unwrap();
    }

    #[test]
    fn multi_session_pool_merges_metrics_and_exposes_per_session_series() {
        let (driver, addr) = start(&["--sessions", "2", "--queries", "8", "--sources", "4"]);
        // Warmup is striped across both sessions; the merged exposition
        // still accounts for all of it.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let m = get(&addr, "/metrics").body;
            if series_value(&m, "fastbfs_queries_total") >= 8 {
                break;
            }
            assert!(Instant::now() < deadline, "warmup never finished: {m}");
            std::thread::sleep(Duration::from_millis(20));
        }
        for i in 0..6 {
            assert!(get(&addr, &format!("/query?src={i}")).ok());
        }
        let labeled = |m: &str, name: &str, session: &str| -> u64 {
            let prefix = format!("{name}{{session=\"{session}\"}}");
            m.lines()
                .find(|l| l.starts_with(&prefix))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
                .map(|v| v as u64)
                .unwrap_or_else(|| panic!("{prefix} missing:\n{m}"))
        };
        let m1 = get(&addr, "/metrics").body;
        assert_eq!(series_value(&m1, "fastbfs_sessions"), 2, "{m1}");
        for s in ["0", "1"] {
            assert!(labeled(&m1, "fastbfs_session_busy", s) <= 1);
        }
        let served1: u64 = (0..2)
            .map(|s| labeled(&m1, "fastbfs_session_requests_total", &s.to_string()))
            .sum();
        assert!(served1 >= 6, "{m1}");
        let q1 = series_value(&m1, "fastbfs_queries_total");

        // Per-session counters and the merged totals are monotonic
        // across scrapes while traffic continues.
        for i in 0..4 {
            assert!(get(&addr, &format!("/query?src={}", i + 100)).ok());
        }
        let m2 = get(&addr, "/metrics").body;
        let served2: u64 = (0..2)
            .map(|s| labeled(&m2, "fastbfs_session_requests_total", &s.to_string()))
            .sum();
        assert!(served2 >= served1 + 4, "{served1} -> {served2}");
        assert!(series_value(&m2, "fastbfs_queries_total") >= q1);

        let snap = get(&addr, "/snapshot").body;
        let v = serde_json::parse(&snap).unwrap();
        assert_eq!(v.get("sessions").and_then(|x| x.as_u64()), Some(2));
        assert_eq!(
            v.get("session_requests")
                .and_then(|x| x.as_array())
                .unwrap()
                .len(),
            2
        );

        assert!(get(&addr, "/quitquitquit").body.ends_with("bye\n"));
        driver.join().unwrap().unwrap();
    }

    /// The tentpole, end to end: with fast rollup ticks and a drop-rate
    /// SLO, `/debug/health` starts `ok`, flips to `breaching` (HTTP 503)
    /// under a `Deadline-Ms: 0` storm within the fast window, and
    /// recovers to non-breaching after a quiet slow window — while the
    /// since-boot aggregates in `/metrics` keep the storm forever.
    #[test]
    fn health_verdicts_flip_under_a_deadline_storm_and_recover() {
        let (driver, addr) = start(&[
            "--sessions",
            "1",
            "--rollup-interval-ms",
            "50",
            "--slo-fast-s",
            "0.5",
            "--slo-slow-s",
            "2",
            "--slo-drop-rate",
            "0.2",
        ]);

        // Clean traffic first, then wait out a full fast window so the
        // verdict is measured over post-traffic frames.
        for i in 0..4 {
            assert!(get(&addr, &format!("/query?src={i}")).ok());
        }
        std::thread::sleep(Duration::from_millis(700));
        let h = get(&addr, "/debug/health");
        assert!(h.ok(), "{} {}", h.status, h.body);
        let v = serde_json::parse(&h.body).unwrap();
        assert_eq!(v.get("state").and_then(|x| x.as_str()), Some("ok"));
        assert_eq!(v.get("queue_wedged").and_then(|x| x.as_bool()), Some(false));
        let slos = v.get("slos").and_then(|x| x.as_array()).unwrap();
        assert_eq!(slos.len(), 1, "{}", h.body);
        assert_eq!(
            slos[0].get("name").and_then(|x| x.as_str()),
            Some("drop_rate")
        );
        assert!(v.get("ticks").and_then(|x| x.as_u64()).unwrap() >= 2);
        for w in ["fast", "slow"] {
            let wd = v.get(w).expect(w);
            for key in ["qps", "p50_ms", "p99_ms", "error_rate", "drop_rate"] {
                assert!(wd.get(key).and_then(|x| x.as_f64()).is_some(), "{w}.{key}");
            }
        }

        // The storm: every request expires at pop time, so the windowed
        // drop rate goes to ~1.0 >> 0.2.
        for i in 0..12 {
            let r = http::get_with_headers(
                &addr,
                &format!("/query?src={i}"),
                &[("Deadline-Ms", "0")],
                Duration::from_secs(30),
            )
            .unwrap();
            assert_eq!(r.status, 504, "{} {}", r.status, r.body);
        }
        // Breach must surface within two fast windows (ISSUE: two fast-
        // window ticks); poll generously for CI but assert the flip.
        let deadline = Instant::now() + Duration::from_secs(10);
        let breached = loop {
            let h = get(&addr, "/debug/health");
            if h.status == 503 {
                break h;
            }
            assert!(
                Instant::now() < deadline,
                "health never breached: {}",
                h.body
            );
            std::thread::sleep(Duration::from_millis(25));
        };
        let v = serde_json::parse(&breached.body).unwrap();
        assert_eq!(v.get("state").and_then(|x| x.as_str()), Some("breaching"));
        let slos = v.get("slos").and_then(|x| x.as_array()).unwrap();
        assert_eq!(
            slos[0].get("state").and_then(|x| x.as_str()),
            Some("breaching")
        );
        assert!(slos[0].get("fast").and_then(|x| x.as_f64()).unwrap() > 0.2);
        // The breach carries exemplars resolvable by trace id (deadline
        // drops always keep full traces).
        let exemplars = v.get("exemplars").and_then(|x| x.as_array()).unwrap();
        assert!(!exemplars.is_empty(), "{}", breached.body);
        let eid = exemplars[0]
            .get("trace_id")
            .and_then(|x| x.as_str())
            .unwrap();
        assert!(get(&addr, &format!("/debug/trace/{eid}")).ok());

        // Since-boot aggregates still carry the storm (no reset): the
        // windowed layer is what recovers, not the counters.
        let m = get(&addr, "/metrics").body;
        assert!(
            series_value(&m, "fastbfs_serve_deadline_dropped_total") >= 12,
            "{m}"
        );

        // Quiet recovery: after the slow window passes with zero-delta
        // frames, the verdict returns to ok and /debug/health is 200.
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let h = get(&addr, "/debug/health");
            if h.ok() {
                let v = serde_json::parse(&h.body).unwrap();
                assert_ne!(
                    v.get("state").and_then(|x| x.as_str()),
                    Some("breaching"),
                    "200 with breaching state"
                );
                if v.get("state").and_then(|x| x.as_str()) == Some("ok") {
                    break;
                }
            }
            assert!(
                Instant::now() < deadline,
                "health never recovered: {}",
                h.body
            );
            std::thread::sleep(Duration::from_millis(50));
        }

        assert!(get(&addr, "/quitquitquit").body.ends_with("bye\n"));
        driver.join().unwrap().unwrap();
    }

    /// `/debug/timeseries` serves the retained delta frames with sane
    /// shapes, `?n=` caps the list, and malformed `n` is a 400 on both
    /// debug list endpoints (the satellite fix).
    #[test]
    fn timeseries_frames_and_limit_validation() {
        let (driver, addr) = start(&["--sessions", "1", "--rollup-interval-ms", "50"]);
        // Let the baseline tick land first: traffic served before it is
        // absorbed into the diffing baseline and belongs to no frame.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let t = get(&addr, "/debug/timeseries");
            assert!(t.ok(), "{} {}", t.status, t.body);
            let v = serde_json::parse(&t.body).unwrap();
            if !v
                .get("frames")
                .and_then(|x| x.as_array())
                .unwrap()
                .is_empty()
            {
                break;
            }
            assert!(Instant::now() < deadline, "ring never started: {}", t.body);
            std::thread::sleep(Duration::from_millis(25));
        }
        for i in 0..5 {
            assert!(get(&addr, &format!("/query?src={i}")).ok());
        }
        // Wait until the frames have accumulated the served requests.
        let v = loop {
            let t = get(&addr, "/debug/timeseries");
            assert!(t.ok(), "{} {}", t.status, t.body);
            let v = serde_json::parse(&t.body).unwrap();
            let served: u64 = v
                .get("frames")
                .and_then(|x| x.as_array())
                .unwrap()
                .iter()
                .map(|f| f.get("requests").and_then(|x| x.as_u64()).unwrap_or(0))
                .sum();
            if served >= 5 && v.get("frames").and_then(|x| x.as_array()).unwrap().len() >= 3 {
                break v;
            }
            assert!(
                Instant::now() < deadline,
                "frames never caught up: {}",
                t.body
            );
            std::thread::sleep(Duration::from_millis(25));
        };
        assert_eq!(v.get("interval_ms").and_then(|x| x.as_u64()), Some(50));
        assert!(v.get("capacity").and_then(|x| x.as_u64()).unwrap() >= 1);
        let frames = v.get("frames").and_then(|x| x.as_array()).unwrap();
        // Frames are seq-ordered oldest-first with non-negative deltas
        // and sane intervals; the served requests appear in some frame.
        let seqs: Vec<u64> = frames
            .iter()
            .map(|f| f.get("seq").and_then(|x| x.as_u64()).unwrap())
            .collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");
        let mut requests = 0u64;
        for f in frames {
            assert!(f.get("interval_s").and_then(|x| x.as_f64()).unwrap() > 0.0);
            for key in ["requests", "errors", "dropped", "queue_depth", "in_flight"] {
                assert!(f.get(key).and_then(|x| x.as_u64()).is_some(), "{key}");
            }
            requests += f.get("requests").and_then(|x| x.as_u64()).unwrap();
        }
        assert!(requests >= 5, "served requests missing from frames");

        // ?n= caps the list from the newest end: the capped list's last
        // frame is at least as new as the uncapped list's last frame.
        let t = get(&addr, "/debug/timeseries?n=2");
        let tv = serde_json::parse(&t.body).unwrap();
        let capped = tv.get("frames").and_then(|x| x.as_array()).unwrap();
        assert!(!capped.is_empty() && capped.len() <= 2);
        let newest_capped = capped
            .last()
            .and_then(|f| f.get("seq"))
            .and_then(|x| x.as_u64())
            .unwrap();
        assert!(newest_capped >= *seqs.last().unwrap(), "{newest_capped}");

        // Malformed ?n=: 400 from both list endpoints, not a silent
        // fallback to the default.
        for path in ["/debug/timeseries?n=banana", "/debug/slow?n=-3"] {
            let r = get(&addr, path);
            assert_eq!(r.status, 400, "{path}: {}", r.body);
            let e = serde_json::parse(&r.body).unwrap();
            assert!(
                e.get("error")
                    .and_then(|x| x.as_str())
                    .unwrap()
                    .contains("n="),
                "{path}: {}",
                r.body
            );
        }
        // A wrong method on the new endpoints is 405, not 404.
        for path in ["/debug/health", "/debug/timeseries"] {
            let r = http::post_json(&addr, path, "", Duration::from_secs(30)).unwrap();
            assert_eq!(r.status, 405, "{path}: {}", r.body);
        }

        assert!(get(&addr, "/quitquitquit").body.ends_with("bye\n"));
        driver.join().unwrap().unwrap();
    }

    /// 503 sheds advertise a windowed-drain-rate `Retry-After`; the
    /// saturation setup mirrors the bypass test above.
    #[test]
    fn shed_responses_carry_retry_after() {
        let (driver, addr) = start(&[
            "--sessions",
            "1",
            "--threads",
            "1",
            "--queue-cap",
            "1",
            "--vertices",
            "2000",
            "--rollup-interval-ms",
            "50",
        ]);
        let deadline = Instant::now() + Duration::from_secs(60);
        'attempt: loop {
            shed_hold::arm(port_of(&addr));
            let addr2 = addr.clone();
            let batch = std::thread::spawn(move || {
                let sources: Vec<String> = (0..512u32).map(|i| i.to_string()).collect();
                let body = format!("{{\"sources\":[{}]}}", sources.join(","));
                http::post_json(&addr2, "/query", &body, Duration::from_secs(60)).unwrap()
            });
            wait_until_busy(&addr, &batch, deadline);
            let addr3 = addr.clone();
            let filler = std::thread::spawn(move || {
                http::get(&addr3, "/query?src=0", Duration::from_secs(60)).unwrap()
            });
            // Stop polling once the batch is done: if it outran the
            // filler, the queue stays empty and only a retry can help.
            let mut saturated = false;
            while Instant::now() < deadline && !batch.is_finished() {
                let m = get(&addr, "/metrics").body;
                if series_value(&m, "fastbfs_queue_depth") >= 1 {
                    saturated = true;
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            if saturated {
                let probe = get(&addr, "/query?src=1");
                if probe.status == 503 {
                    let retry: u64 = probe
                        .header("retry-after")
                        .unwrap_or_else(|| panic!("no Retry-After: {:?}", probe.headers))
                        .parse()
                        .expect("Retry-After is integer seconds");
                    assert!((1..=60).contains(&retry), "retry {retry}");
                    assert!(batch.join().unwrap().ok());
                    let f = filler.join().unwrap();
                    assert!(f.ok() || f.status == 503, "{} {}", f.status, f.body);
                    break 'attempt;
                }
            }
            assert!(batch.join().unwrap().ok());
            let f = filler.join().unwrap();
            assert!(f.ok() || f.status == 503, "{} {}", f.status, f.body);
            assert!(
                Instant::now() < deadline,
                "queue never stayed saturated long enough to probe"
            );
        }
        assert!(get(&addr, "/quitquitquit").body.ends_with("bye\n"));
        driver.join().unwrap().unwrap();
    }
}
