//! The `fastbfs-run-v1` and `fastbfs-load-v1` JSON reports: schema types,
//! environment capture, and the regression-gate comparisons behind
//! `fastbfs bench-compare`.
//!
//! Schema evolution is additive-only: every field added after the first
//! committed baseline is `Option<T>`, so PR-era reports keep parsing
//! forever (the golden-file tests pin this). The comparisons never require
//! the optional fields.

use serde::{Deserialize, Serialize};

use bfs_core::TraversalStats;
use bfs_metrics::MetricsSnapshot;

/// Run-report schema identifier; bump only for breaking changes (so far:
/// never).
pub const SCHEMA: &str = "fastbfs-run-v1";

/// Load-report schema identifier (`fastbfs loadgen`).
pub const LOAD_SCHEMA: &str = "fastbfs-load-v1";

/// One query's row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QueryReport {
    pub query: usize,
    pub root: u32,
    pub depth: u32,
    pub visited_vertices: u64,
    pub traversed_edges: u64,
    pub latency_ms: f64,
    pub mteps: f64,
    pub bottom_up_steps: u32,
    /// Per-level direction decisions, `"top-down"`/`"bottom-up"`, aligned
    /// with BFS steps 1..=depth.
    pub directions: Vec<String>,
}

impl QueryReport {
    /// Builds a row from a finished traversal's stats.
    pub fn new(query: usize, root: u32, stats: &TraversalStats) -> Self {
        QueryReport {
            query,
            root,
            depth: stats.steps,
            visited_vertices: stats.visited_vertices,
            traversed_edges: stats.traversed_edges,
            latency_ms: stats.total_time.as_secs_f64() * 1e3,
            mteps: stats.mteps(),
            bottom_up_steps: stats.bottom_up_steps(),
            directions: stats
                .step_directions
                .iter()
                .map(|d| d.as_str().to_string())
                .collect(),
        }
    }
}

/// Batch-level aggregates (multi-source runs only).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BatchReport {
    pub queries: usize,
    pub elapsed_ms: f64,
    pub queries_per_sec: f64,
    pub mean_mteps: f64,
    pub harmonic_mteps: f64,
    /// Nearest-rank p50 of per-query latency (additive, PR 6; derivable
    /// from the query rows — precomputed so dashboards and the gate need
    /// not carry them).
    pub latency_p50_ms: Option<f64>,
    /// Nearest-rank p99 of per-query latency (additive, PR 6).
    pub latency_p99_ms: Option<f64>,
    /// Nearest-rank p99.9 of per-query latency (additive, PR 6).
    pub latency_p999_ms: Option<f64>,
}

/// Top-level report for `fastbfs run --json` (and the committed `BENCH_*`
/// baselines).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunReport {
    pub schema: String,
    pub graph: String,
    pub vertices: u64,
    pub edges: u64,
    pub sockets: usize,
    pub lanes_per_socket: usize,
    pub threads: usize,
    pub vis: String,
    pub scheduling: String,
    pub direction: String,
    /// Git revision of the producing build (additive, PR 4).
    pub git_rev: Option<String>,
    /// `rustc --version` of the producing build (additive, PR 4).
    pub rustc: Option<String>,
    /// Physical cores on the producing host (additive, PR 4).
    pub host_cores: Option<usize>,
    /// LLC bytes per socket of the run's topology (additive, PR 4).
    pub llc_bytes: Option<u64>,
    /// Metrics-registry snapshot covering the reported queries (additive,
    /// PR 4).
    pub metrics: Option<MetricsSnapshot>,
    /// Hardware-event availability on the producing host, from
    /// `bfs_perf::availability_string()`: `"available: cycles,..."` or
    /// `"unavailable: <reason>"` (additive, PR 5). Lets `bench-compare`
    /// warn when a counter-backed run is diffed against a model-only one.
    pub hw_events: Option<String>,
    /// Whether the CSR was degree-order relabeled before the run
    /// (additive, PR 7). `None` on pre-PR7 reports.
    pub relabel: Option<bool>,
    /// Hugepage-arena status on the producing host: `"enabled"`,
    /// `"disabled"`, or `"unavailable: <reason>"` (additive, PR 7).
    /// Carries the typed degradation reason so a host without THP is
    /// never mistaken for a host that ran with hugepages.
    pub hugepages: Option<String>,
    pub queries: Vec<QueryReport>,
    pub batch: Option<BatchReport>,
}

impl RunReport {
    /// Fills the environment header: git revision (when the working tree is
    /// a repo), rustc version, and host core count. Failures leave fields
    /// `None` — the report stays valid on hosts without git/rustc.
    pub fn capture_environment(&mut self) {
        self.git_rev = git_revision();
        self.rustc = rustc_version();
        self.host_cores = Some(bfs_platform::topology::host_cores());
        self.hw_events = Some(bfs_perf::availability_string());
    }

    /// Serializes to pretty JSON with a trailing newline.
    pub fn to_json(&self) -> Result<String, String> {
        let mut text =
            serde_json::to_string_pretty(self).map_err(|e| format!("report to JSON: {e}"))?;
        text.push('\n');
        Ok(text)
    }

    /// Writes the report to `path`.
    pub fn write(&self, path: &str) -> Result<(), String> {
        std::fs::write(path, self.to_json()?).map_err(|e| format!("write {path}: {e}"))
    }

    /// Reads and validates a report from `path`.
    pub fn read(path: &str) -> Result<RunReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let r: RunReport = serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))?;
        if r.schema != SCHEMA {
            return Err(format!(
                "{path}: schema {:?}, expected {SCHEMA:?}",
                r.schema
            ));
        }
        Ok(r)
    }

    /// Harmonic-mean MTEPS across the report's queries (the Graph500
    /// aggregate): prefers the batch block, falls back to recomputing from
    /// the per-query rows. 0 when any query recorded 0 MTEPS.
    pub fn harmonic_mteps(&self) -> f64 {
        if let Some(b) = &self.batch {
            return b.harmonic_mteps;
        }
        if self.queries.is_empty() || self.queries.iter().any(|q| q.mteps <= 0.0) {
            return 0.0;
        }
        self.queries.len() as f64 / self.queries.iter().map(|q| 1.0 / q.mteps).sum::<f64>()
    }

    /// Nearest-rank percentile of per-query latency in milliseconds.
    pub fn latency_percentile_ms(&self, p: f64) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        let mut lat: Vec<f64> = self.queries.iter().map(|q| q.latency_ms).collect();
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((p / 100.0) * lat.len() as f64).ceil().max(1.0) as usize;
        lat[rank.min(lat.len()) - 1]
    }

    /// Fraction of all executed BFS steps that ran bottom-up — the
    /// direction-decision signature of the report's workload.
    pub fn bottom_up_fraction(&self) -> f64 {
        let steps: u64 = self.queries.iter().map(|q| q.depth as u64).sum();
        if steps == 0 {
            return 0.0;
        }
        let bu: u64 = self.queries.iter().map(|q| q.bottom_up_steps as u64).sum();
        bu as f64 / steps as f64
    }
}

fn capture_cmd(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!s.is_empty()).then_some(s)
}

/// Short git revision of the working tree, when it is a repo.
pub fn git_revision() -> Option<String> {
    capture_cmd("git", &["rev-parse", "--short", "HEAD"])
}

/// `rustc --version` of the environment, when rustc is on PATH.
pub fn rustc_version() -> Option<String> {
    capture_cmd("rustc", &["--version"])
}

/// Reads just the `schema` field of a report file, so callers can route a
/// path to the right parser without deserializing the whole document.
pub fn schema_of(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let v = serde_json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    v.get("schema")
        .and_then(|s| s.as_str())
        .map(str::to_string)
        .ok_or_else(|| format!("{path}: no schema field"))
}

/// Latency summary of an open-loop load run. All values are milliseconds;
/// percentiles are nearest-rank over the per-request samples, each sample
/// measured from the request's *scheduled* arrival time (coordinated-
/// omission-safe: a stalled server inflates every queued request's
/// latency, exactly as a real client population would experience it).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LatencySummary {
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
    pub p999_ms: f64,
    pub max_ms: f64,
    pub mean_ms: f64,
}

impl LatencySummary {
    /// Builds the summary from ascending per-request latencies in
    /// nanoseconds; `None` when there are no samples.
    pub fn from_sorted_ns(sorted: &[u64]) -> Option<Self> {
        if sorted.is_empty() {
            return None;
        }
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        let pct = |p: f64| {
            let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
            sorted[rank.min(sorted.len()) - 1] as f64 / 1e6
        };
        let sum: u128 = sorted.iter().map(|&v| v as u128).sum();
        Some(LatencySummary {
            p50_ms: pct(50.0),
            p90_ms: pct(90.0),
            p99_ms: pct(99.0),
            p999_ms: pct(99.9),
            max_ms: sorted[sorted.len() - 1] as f64 / 1e6,
            mean_ms: sum as f64 / sorted.len() as f64 / 1e6,
        })
    }
}

/// Top-level report for `fastbfs loadgen` (`fastbfs-load-v1`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LoadReport {
    pub schema: String,
    /// Base URL the generator drove.
    pub url: String,
    /// Query endpoint exercised: `"query"` or `"path"`.
    pub endpoint: String,
    /// Arrival process: `"poisson"` or `"uniform"`.
    pub arrival: String,
    /// Open-loop target rate in requests/second.
    pub offered_qps: f64,
    /// Configured run length in seconds.
    pub duration_s: f64,
    /// Requests the schedule contained.
    pub scheduled: u64,
    /// Requests that completed with HTTP 200.
    pub completed: u64,
    /// Requests that failed (connect error, non-200, short read).
    pub errors: u64,
    /// Wall-clock from first scheduled arrival to last response.
    pub elapsed_s: f64,
    /// `completed / elapsed_s` — compare against `offered_qps` to see
    /// whether the server kept up.
    pub achieved_qps: f64,
    /// Latency distribution; `None` when nothing completed.
    pub latency: Option<LatencySummary>,
    /// Git revision of the producing build.
    pub git_rev: Option<String>,
    /// `rustc --version` of the producing build.
    pub rustc: Option<String>,
    /// Warmup window in seconds: requests scheduled inside it were sent
    /// and discarded — they appear in no count above (additive, PR 8).
    /// `None` on pre-PR8 reports (no warmup support).
    pub warmup_s: Option<f64>,
    /// Of `errors`, how many were HTTP 504 — requests the server
    /// admitted but dropped (deadline expired while queued) or timed out
    /// on, as opposed to shed (503) or transport failures (additive,
    /// PR 8).
    pub dropped_504: Option<u64>,
    /// Size of the server's session pool, read from `/snapshot` after
    /// the run; `None` when the endpoint predates the field (additive,
    /// PR 8).
    pub server_sessions: Option<u64>,
    /// Trace ids of the worst-percentile requests (slowest first, at
    /// most 5): each resolves at the server's `/debug/trace/<id>`, so a
    /// gated regression links directly to explanatory flight-recorder
    /// traces. `None` on pre-PR9 reports (additive, PR 9).
    pub slowest_trace_ids: Option<Vec<String>>,
    /// Version label of the *server* build the run measured, scraped
    /// once from its `fastbfs_build_info` gauge — the producing
    /// generator's own provenance lives in `git_rev`/`rustc` above.
    /// `None` on pre-PR10 reports or when the scrape failed (additive,
    /// PR 10).
    pub server_version: Option<String>,
    /// Git revision label of the server build, from the same scrape;
    /// `None` when absent, unscraped, or the server reported `unknown`
    /// (additive, PR 10).
    pub server_git_rev: Option<String>,
    /// Per-second slices of the measured window, bucketed by each
    /// request's *scheduled* arrival: a run that was only healthy on
    /// average shows its sick seconds here, and [`compare_load`] gates
    /// on the worst slice when both reports carry one. `None` on
    /// pre-PR10 reports (additive, PR 10).
    pub timeseries: Option<Vec<LoadSlice>>,
}

/// One per-second slice of a load run's measured window (additive,
/// PR 10). Requests belong to the slice their *scheduled* arrival falls
/// in, matching the report's coordinated-omission-safe latency rule.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LoadSlice {
    /// Slice start, in whole seconds from the measured-window origin.
    pub start_s: u64,
    /// Requests completing with HTTP 200.
    pub completed: u64,
    /// Requests failing (connect error, non-200, short read).
    pub errors: u64,
    /// Slice-local p50 latency; `None` when nothing completed.
    pub p50_ms: Option<f64>,
    /// Slice-local p99 latency; `None` when nothing completed.
    pub p99_ms: Option<f64>,
}

impl LoadSlice {
    /// Fraction of the slice's finished requests that failed.
    pub fn error_rate(&self) -> f64 {
        let total = self.completed + self.errors;
        if total == 0 {
            0.0
        } else {
            self.errors as f64 / total as f64
        }
    }
}

impl LoadReport {
    /// Fills the environment header (same rules as
    /// [`RunReport::capture_environment`]).
    pub fn capture_environment(&mut self) {
        self.git_rev = git_revision();
        self.rustc = rustc_version();
    }

    /// Serializes to pretty JSON with a trailing newline.
    pub fn to_json(&self) -> Result<String, String> {
        let mut text =
            serde_json::to_string_pretty(self).map_err(|e| format!("load report to JSON: {e}"))?;
        text.push('\n');
        Ok(text)
    }

    /// Writes the report to `path`.
    pub fn write(&self, path: &str) -> Result<(), String> {
        std::fs::write(path, self.to_json()?).map_err(|e| format!("write {path}: {e}"))
    }

    /// Reads and validates a report from `path`.
    pub fn read(path: &str) -> Result<LoadReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let r: LoadReport =
            serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))?;
        if r.schema != LOAD_SCHEMA {
            return Err(format!(
                "{path}: schema {:?}, expected {LOAD_SCHEMA:?}",
                r.schema
            ));
        }
        Ok(r)
    }

    /// Fraction of scheduled requests that failed.
    pub fn error_rate(&self) -> f64 {
        if self.scheduled == 0 {
            0.0
        } else {
            self.errors as f64 / self.scheduled as f64
        }
    }

    /// Worst slice-local p99 across the timeseries; `None` when the
    /// report carries no timeseries or no slice completed anything.
    pub fn worst_slice_p99_ms(&self) -> Option<f64> {
        self.timeseries
            .as_ref()?
            .iter()
            .filter_map(|s| s.p99_ms)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Worst slice-local error rate across the timeseries; `None` when
    /// the report carries no timeseries.
    pub fn worst_slice_error_rate(&self) -> Option<f64> {
        let ts = self.timeseries.as_ref()?;
        Some(
            ts.iter()
                .map(|s| s.error_rate())
                .fold(0.0f64, |a, v| a.max(v)),
        )
    }
}

/// Gate thresholds for [`compare`]. All are fractions (0.10 = 10%).
#[derive(Clone, Copy, Debug)]
pub struct CompareThresholds {
    /// Max allowed harmonic-mean MTEPS drop, baseline → new.
    pub max_mteps_drop: f64,
    /// Max allowed rise in p50/p99 per-query latency.
    pub max_latency_rise: f64,
    /// Max allowed absolute change in the bottom-up step fraction (a drift
    /// here means the direction heuristic started deciding differently).
    pub max_direction_drift: f64,
    /// Max allowed drop in sustained query throughput (batch
    /// `queries_per_sec` for run reports, `achieved_qps` for load reports).
    pub max_qps_drop: f64,
}

impl Default for CompareThresholds {
    fn default() -> Self {
        Self {
            max_mteps_drop: 0.10,
            max_latency_rise: 0.25,
            max_direction_drift: 0.25,
            max_qps_drop: 0.10,
        }
    }
}

/// One gate check's result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CompareCheck {
    pub name: String,
    pub baseline: f64,
    pub new: f64,
    /// Signed relative delta for ratio checks, absolute delta for the
    /// direction drift.
    pub delta: f64,
    pub limit: f64,
    pub pass: bool,
}

/// The full gate verdict.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CompareOutcome {
    pub checks: Vec<CompareCheck>,
    /// Fields on which the two reports describe different workloads —
    /// comparing those is apples-to-oranges and fails the gate unless
    /// explicitly allowed.
    pub workload_mismatch: Vec<String>,
    /// Advisory note when one report is counter-backed and the other is
    /// model-only: the numbers are still comparable (the gate checks are
    /// all timing-derived), but provenance differs. Never fails the gate.
    pub hw_warning: Option<String>,
    /// Advisory note when the two reports used different memory-layout
    /// levers (`--relabel` / `--hugepages`): a throughput delta may be the
    /// lever, not a code change. Silent when either side predates the
    /// fields (additive, PR 7). Never fails the gate.
    pub layout_warning: Option<String>,
    pub pass: bool,
}

impl CompareOutcome {
    /// Table rendering for the CLI.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for m in &self.workload_mismatch {
            let _ = writeln!(out, "workload mismatch: {m}");
        }
        if let Some(w) = &self.hw_warning {
            let _ = writeln!(out, "warning: {w}");
        }
        if let Some(w) = &self.layout_warning {
            let _ = writeln!(out, "warning: {w}");
        }
        let _ = writeln!(
            out,
            "{:<22} {:>12} {:>12} {:>9} {:>8}  verdict",
            "check", "baseline", "new", "delta", "limit"
        );
        for c in &self.checks {
            let _ = writeln!(
                out,
                "{:<22} {:>12.3} {:>12.3} {:>8.1}% {:>7.1}%  {}",
                c.name,
                c.baseline,
                c.new,
                c.delta * 100.0,
                c.limit * 100.0,
                if c.pass { "ok" } else { "FAIL" }
            );
        }
        let _ = writeln!(out, "gate: {}", if self.pass { "PASS" } else { "FAIL" });
        out
    }
}

/// The regression gate: diffs two `fastbfs-run-v1` reports. A check fails
/// when the new report regresses past its threshold; improvements always
/// pass. With `allow_mismatch` false, any workload-identity difference
/// (graph shape, thread count, engine options, query count) fails the gate
/// outright.
pub fn compare(
    base: &RunReport,
    new: &RunReport,
    t: &CompareThresholds,
    allow_mismatch: bool,
) -> CompareOutcome {
    let mut mismatch = Vec::new();
    let mut ident = |name: &str, a: &dyn std::fmt::Display, b: &dyn std::fmt::Display| {
        let (a, b) = (a.to_string(), b.to_string());
        if a != b {
            mismatch.push(format!("{name}: baseline {a:?} vs new {b:?}"));
        }
    };
    ident("vertices", &base.vertices, &new.vertices);
    ident("edges", &base.edges, &new.edges);
    ident("sockets", &base.sockets, &new.sockets);
    ident("threads", &base.threads, &new.threads);
    ident("vis", &base.vis, &new.vis);
    ident("scheduling", &base.scheduling, &new.scheduling);
    ident("direction", &base.direction, &new.direction);
    ident("queries", &base.queries.len(), &new.queries.len());

    let mut checks = Vec::new();
    let ratio_drop = |b: f64, n: f64| if b > 0.0 { (b - n) / b } else { 0.0 };
    let ratio_rise = |b: f64, n: f64| if b > 0.0 { (n - b) / b } else { 0.0 };

    let (b, n) = (base.harmonic_mteps(), new.harmonic_mteps());
    checks.push(CompareCheck {
        name: "harmonic_mteps".into(),
        baseline: b,
        new: n,
        delta: ratio_drop(b, n),
        limit: t.max_mteps_drop,
        pass: ratio_drop(b, n) <= t.max_mteps_drop,
    });
    for p in [50.0, 99.0] {
        let (b, n) = (base.latency_percentile_ms(p), new.latency_percentile_ms(p));
        checks.push(CompareCheck {
            name: format!("latency_p{}_ms", p as u32),
            baseline: b,
            new: n,
            delta: ratio_rise(b, n),
            limit: t.max_latency_rise,
            pass: ratio_rise(b, n) <= t.max_latency_rise,
        });
    }
    // Tail gate (PR 6): prefer the precomputed batch field, fall back to
    // recomputing from the query rows so pre-PR6 baselines still gate.
    let p999 = |r: &RunReport| {
        r.batch
            .as_ref()
            .and_then(|b| b.latency_p999_ms)
            .unwrap_or_else(|| r.latency_percentile_ms(99.9))
    };
    let (b, n) = (p999(base), p999(new));
    checks.push(CompareCheck {
        name: "latency_p999_ms".into(),
        baseline: b,
        new: n,
        delta: ratio_rise(b, n),
        limit: t.max_latency_rise,
        pass: ratio_rise(b, n) <= t.max_latency_rise,
    });
    // Throughput gate (PR 6): only when both reports carry a batch block —
    // single-query runs have no sustained-QPS notion.
    if let (Some(bb), Some(nb)) = (&base.batch, &new.batch) {
        let (b, n) = (bb.queries_per_sec, nb.queries_per_sec);
        checks.push(CompareCheck {
            name: "queries_per_sec".into(),
            baseline: b,
            new: n,
            delta: ratio_drop(b, n),
            limit: t.max_qps_drop,
            pass: ratio_drop(b, n) <= t.max_qps_drop,
        });
    }
    let (b, n) = (base.bottom_up_fraction(), new.bottom_up_fraction());
    let drift = (n - b).abs();
    checks.push(CompareCheck {
        name: "bottom_up_fraction".into(),
        baseline: b,
        new: n,
        delta: drift,
        limit: t.max_direction_drift,
        pass: drift <= t.max_direction_drift,
    });

    // Counter-backed vs model-only provenance: advisory only. Reports
    // from before the field existed stay silent — warning on every diff
    // against an old baseline would be noise.
    let counter_backed = |r: &RunReport| r.hw_events.as_deref().map(|s| s.starts_with("available"));
    let hw_warning = match (counter_backed(base), counter_backed(new)) {
        (Some(b), Some(n)) if b != n => {
            let label = |x: bool| if x { "counter-backed" } else { "model-only" };
            Some(format!(
                "hw-event provenance differs: baseline is {}, new is {} \
                 (timing gates still apply; attribution rows are not comparable)",
                label(b),
                label(n)
            ))
        }
        _ => None,
    };

    // Memory-layout provenance (`--relabel` / `--hugepages`): advisory
    // only, and silent when either report predates the fields — old
    // baselines must keep diffing without noise.
    let layout = |r: &RunReport| -> Option<String> {
        let relabel = r.relabel?;
        let hp = r.hugepages.as_deref()?;
        Some(format!(
            "relabel={relabel}, hugepages={}",
            if hp == "enabled" { "on" } else { "off" }
        ))
    };
    let layout_warning = match (layout(base), layout(new)) {
        (Some(b), Some(n)) if b != n => Some(format!(
            "memory-layout provenance differs: baseline ran with {b}, new with {n} \
             — throughput deltas may reflect the layout levers, not a code change"
        )),
        _ => None,
    };

    let pass = checks.iter().all(|c| c.pass) && (allow_mismatch || mismatch.is_empty());
    CompareOutcome {
        checks,
        workload_mismatch: mismatch,
        hw_warning,
        layout_warning,
        pass,
    }
}

/// The load-test regression gate: diffs two `fastbfs-load-v1` reports.
/// Identity fields are the offered workload (endpoint, arrival process,
/// rate, duration); gated metrics are achieved throughput and the
/// CO-safe latency percentiles. Reuses [`CompareThresholds`]:
/// `max_qps_drop` bounds the achieved-QPS drop, `max_latency_rise` bounds
/// the p50/p99/p999 rises.
pub fn compare_load(
    base: &LoadReport,
    new: &LoadReport,
    t: &CompareThresholds,
    allow_mismatch: bool,
) -> CompareOutcome {
    let mut mismatch = Vec::new();
    let mut ident = |name: &str, a: &dyn std::fmt::Display, b: &dyn std::fmt::Display| {
        let (a, b) = (a.to_string(), b.to_string());
        if a != b {
            mismatch.push(format!("{name}: baseline {a:?} vs new {b:?}"));
        }
    };
    ident("endpoint", &base.endpoint, &new.endpoint);
    ident("arrival", &base.arrival, &new.arrival);
    ident("offered_qps", &base.offered_qps, &new.offered_qps);
    ident("duration_s", &base.duration_s, &new.duration_s);

    let mut checks = Vec::new();
    let ratio_drop = |b: f64, n: f64| if b > 0.0 { (b - n) / b } else { 0.0 };
    let ratio_rise = |b: f64, n: f64| if b > 0.0 { (n - b) / b } else { 0.0 };

    let (b, n) = (base.achieved_qps, new.achieved_qps);
    checks.push(CompareCheck {
        name: "achieved_qps".into(),
        baseline: b,
        new: n,
        delta: ratio_drop(b, n),
        limit: t.max_qps_drop,
        pass: ratio_drop(b, n) <= t.max_qps_drop,
    });
    // A run with no completed requests has no latency block; gate on the
    // percentiles only when both sides have one (the achieved-QPS check
    // already catches a server that stopped answering).
    if let (Some(bl), Some(nl)) = (&base.latency, &new.latency) {
        for (name, b, n) in [
            ("load_p50_ms", bl.p50_ms, nl.p50_ms),
            ("load_p99_ms", bl.p99_ms, nl.p99_ms),
            ("load_p999_ms", bl.p999_ms, nl.p999_ms),
        ] {
            checks.push(CompareCheck {
                name: name.into(),
                baseline: b,
                new: n,
                delta: ratio_rise(b, n),
                limit: t.max_latency_rise,
                pass: ratio_rise(b, n) <= t.max_latency_rise,
            });
        }
    }
    let (b, n) = (base.error_rate(), new.error_rate());
    let rise = n - b;
    checks.push(CompareCheck {
        name: "error_rate".into(),
        baseline: b,
        new: n,
        delta: rise,
        // Absolute, not relative: a 0%→5% error-rate jump must trip even
        // though the relative rise from zero is undefined.
        limit: 0.05,
        pass: rise <= 0.05,
    });

    // Worst-slice gates (PR 10): the since-run aggregates above pass a
    // server that is sick for one second and healthy on average; the
    // timeseries exposes the sick second. Gated only when both reports
    // carry a timeseries — old baselines keep diffing without noise.
    // The worst slice is noisier than the run aggregate (each slice is
    // ~rate samples, and slice p99 rides the scheduler), so it gets
    // double the aggregate headroom rather than a same-sized gate.
    if let (Some(b), Some(n)) = (base.worst_slice_p99_ms(), new.worst_slice_p99_ms()) {
        let limit = 2.0 * t.max_latency_rise;
        checks.push(CompareCheck {
            name: "worst_slice_p99_ms".into(),
            baseline: b,
            new: n,
            delta: ratio_rise(b, n),
            limit,
            pass: ratio_rise(b, n) <= limit,
        });
    }
    if let (Some(b), Some(n)) = (base.worst_slice_error_rate(), new.worst_slice_error_rate()) {
        let rise = n - b;
        checks.push(CompareCheck {
            name: "worst_slice_error_rate".into(),
            baseline: b,
            new: n,
            delta: rise,
            // Absolute, like `error_rate`, with slice-sized headroom.
            limit: 0.10,
            pass: rise <= 0.10,
        });
    }

    let pass = checks.iter().all(|c| c.pass) && (allow_mismatch || mismatch.is_empty());
    CompareOutcome {
        checks,
        workload_mismatch: mismatch,
        hw_warning: None,
        layout_warning: None,
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(mteps: &[f64], latencies: &[f64], bu: &[u32]) -> RunReport {
        RunReport {
            schema: SCHEMA.into(),
            graph: "g.fbfs".into(),
            vertices: 1024,
            edges: 16384,
            sockets: 1,
            lanes_per_socket: 2,
            threads: 2,
            vis: "bit".into(),
            scheduling: "load-balanced".into(),
            direction: "auto".into(),
            git_rev: None,
            rustc: None,
            host_cores: None,
            llc_bytes: None,
            metrics: None,
            hw_events: None,
            relabel: None,
            hugepages: None,
            queries: mteps
                .iter()
                .zip(latencies)
                .zip(bu)
                .enumerate()
                .map(|(i, ((&m, &l), &b))| QueryReport {
                    query: i,
                    root: i as u32,
                    depth: 10,
                    visited_vertices: 1000,
                    traversed_edges: 16000,
                    latency_ms: l,
                    mteps: m,
                    bottom_up_steps: b,
                    directions: Vec::new(),
                })
                .collect(),
            batch: None,
        }
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(&[100.0, 120.0, 80.0], &[1.0, 0.8, 1.4], &[3, 3, 3]);
        let out = compare(&r, &r, &CompareThresholds::default(), false);
        assert!(out.pass, "{}", out.render_text());
        assert!(out.workload_mismatch.is_empty());
        assert!(out.checks.iter().all(|c| c.delta.abs() < 1e-12));
    }

    #[test]
    fn synthetic_mteps_regression_fails() {
        let base = report(&[100.0, 100.0], &[1.0, 1.0], &[0, 0]);
        // 15% harmonic-MTEPS drop: past the default 10% gate.
        let slow = report(&[85.0, 85.0], &[1.0, 1.0], &[0, 0]);
        let out = compare(&base, &slow, &CompareThresholds::default(), false);
        assert!(!out.pass);
        let c = &out.checks[0];
        assert_eq!(c.name, "harmonic_mteps");
        assert!(!c.pass);
        assert!((c.delta - 0.15).abs() < 1e-9);
        // Improvements never fail.
        let fast = report(&[200.0, 200.0], &[0.5, 0.5], &[0, 0]);
        assert!(compare(&base, &fast, &CompareThresholds::default(), false).pass);
    }

    #[test]
    fn latency_and_direction_gates_trip() {
        let base = report(&[100.0; 4], &[1.0, 1.0, 1.0, 2.0], &[0, 0, 0, 0]);
        let spiky = report(&[100.0; 4], &[1.0, 1.0, 1.0, 3.0], &[0, 0, 0, 0]);
        let out = compare(&base, &spiky, &CompareThresholds::default(), false);
        assert!(!out.pass, "p99 went 2.0 -> 3.0 ms");
        assert!(out
            .checks
            .iter()
            .any(|c| c.name == "latency_p99_ms" && !c.pass));

        let drifted = report(&[100.0; 4], &[1.0, 1.0, 1.0, 2.0], &[5, 5, 5, 5]);
        let out = compare(&base, &drifted, &CompareThresholds::default(), false);
        assert!(!out.pass, "bottom-up fraction went 0 -> 0.5");
        assert!(out
            .checks
            .iter()
            .any(|c| c.name == "bottom_up_fraction" && !c.pass));
    }

    #[test]
    fn workload_mismatch_fails_unless_allowed() {
        let base = report(&[100.0], &[1.0], &[0]);
        let mut other = report(&[100.0], &[1.0], &[0]);
        other.vertices = 2048;
        other.vis = "byte".into();
        let strict = compare(&base, &other, &CompareThresholds::default(), false);
        assert!(!strict.pass);
        assert_eq!(strict.workload_mismatch.len(), 2);
        let relaxed = compare(&base, &other, &CompareThresholds::default(), true);
        assert!(relaxed.pass);
    }

    #[test]
    fn hw_provenance_mismatch_warns_but_never_fails() {
        let base = report(&[100.0], &[1.0], &[0]);
        let new = report(&[100.0], &[1.0], &[0]);
        // Both unknown (pre-hw-schema) → silent.
        let out = compare(&base, &new, &CompareThresholds::default(), false);
        assert!(out.hw_warning.is_none());
        assert!(out.pass);

        let mut counted = report(&[100.0], &[1.0], &[0]);
        counted.hw_events = Some("available: cycles,instructions".into());
        let mut modeled = report(&[100.0], &[1.0], &[0]);
        modeled.hw_events = Some("unavailable: PMU not available".into());
        let out = compare(&counted, &modeled, &CompareThresholds::default(), false);
        let w = out.hw_warning.as_deref().expect("provenance differs");
        assert!(
            w.contains("counter-backed") && w.contains("model-only"),
            "{w}"
        );
        assert!(out.pass, "a provenance warning must never fail the gate");
        assert!(out.render_text().contains("warning: hw-event provenance"));

        // One known, one unknown → still silent (old-baseline noise guard).
        let out = compare(&counted, &base, &CompareThresholds::default(), false);
        assert!(out.hw_warning.is_none());
    }

    #[test]
    fn layout_provenance_mismatch_warns_but_never_fails() {
        // Both pre-PR7 (fields absent) → silent.
        let old = report(&[100.0], &[1.0], &[0]);
        let out = compare(&old, &old, &CompareThresholds::default(), false);
        assert!(out.layout_warning.is_none());

        let mut plain = report(&[100.0], &[1.0], &[0]);
        plain.relabel = Some(false);
        plain.hugepages = Some("disabled".into());
        let mut tuned = report(&[100.0], &[1.0], &[0]);
        tuned.relabel = Some(true);
        tuned.hugepages = Some("enabled".into());
        let out = compare(&plain, &tuned, &CompareThresholds::default(), false);
        let w = out.layout_warning.as_deref().expect("levers differ");
        assert!(
            w.contains("relabel=true") && w.contains("hugepages=on"),
            "{w}"
        );
        assert!(out.pass, "a layout warning must never fail the gate");
        assert!(out.render_text().contains("warning: memory-layout"));

        // A typed unavailable reason counts as "off", same as disabled —
        // the arenas ended up on plain pages either way.
        let mut degraded = report(&[100.0], &[1.0], &[0]);
        degraded.relabel = Some(false);
        degraded.hugepages = Some("unavailable: THP disabled on host".into());
        let out = compare(&plain, &degraded, &CompareThresholds::default(), false);
        assert!(out.layout_warning.is_none(), "{:?}", out.layout_warning);

        // New report vs pre-PR7 baseline → silent (graceful degradation).
        let out = compare(&old, &tuned, &CompareThresholds::default(), false);
        assert!(out.layout_warning.is_none());
    }

    #[test]
    fn harmonic_falls_back_to_query_rows() {
        let mut r = report(&[50.0, 200.0], &[1.0, 1.0], &[0, 0]);
        // harmonic(50, 200) = 80.
        assert!((r.harmonic_mteps() - 80.0).abs() < 1e-9);
        r.batch = Some(BatchReport {
            queries: 2,
            elapsed_ms: 2.0,
            queries_per_sec: 1000.0,
            mean_mteps: 125.0,
            harmonic_mteps: 80.0,
            latency_p50_ms: None,
            latency_p99_ms: None,
            latency_p999_ms: None,
        });
        assert_eq!(r.harmonic_mteps(), 80.0);
    }

    fn load_report(achieved: f64, lat: Option<LatencySummary>) -> LoadReport {
        LoadReport {
            schema: LOAD_SCHEMA.into(),
            url: "http://127.0.0.1:9999".into(),
            endpoint: "query".into(),
            arrival: "poisson".into(),
            offered_qps: 100.0,
            duration_s: 2.0,
            scheduled: 200,
            completed: 200,
            errors: 0,
            elapsed_s: 200.0 / achieved,
            achieved_qps: achieved,
            latency: lat,
            git_rev: None,
            rustc: None,
            warmup_s: None,
            dropped_504: None,
            server_sessions: None,
            slowest_trace_ids: None,
            server_version: None,
            server_git_rev: None,
            timeseries: None,
        }
    }

    fn slice(start_s: u64, completed: u64, errors: u64, p99: Option<f64>) -> LoadSlice {
        LoadSlice {
            start_s,
            completed,
            errors,
            p50_ms: p99.map(|v| v / 2.0),
            p99_ms: p99,
        }
    }

    fn summary(p50: f64, p99: f64, p999: f64) -> LatencySummary {
        LatencySummary {
            p50_ms: p50,
            p90_ms: p50,
            p99_ms: p99,
            p999_ms: p999,
            max_ms: p999,
            mean_ms: p50,
        }
    }

    #[test]
    fn latency_summary_from_sorted_ns() {
        assert!(LatencySummary::from_sorted_ns(&[]).is_none());
        let ns: Vec<u64> = (1..=1000).map(|i| i * 1_000_000).collect();
        let s = LatencySummary::from_sorted_ns(&ns).unwrap();
        assert!((s.p50_ms - 500.0).abs() < 1e-9);
        assert!((s.p99_ms - 990.0).abs() < 1e-9);
        // ceil(0.999*1000) lands on 999 or 1000 depending on FP rounding.
        assert!(s.p999_ms >= 999.0 && s.p999_ms <= 1000.0, "{}", s.p999_ms);
        assert!((s.max_ms - 1000.0).abs() < 1e-9);
        assert!((s.mean_ms - 500.5).abs() < 1e-9);
        assert!(s.p50_ms <= s.p99_ms && s.p99_ms <= s.p999_ms && s.p999_ms <= s.max_ms);
    }

    #[test]
    fn load_report_roundtrips_and_schema_is_checked() {
        let dir = std::env::temp_dir().join("fastbfs-load-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("load.json");
        let path = path.to_str().unwrap();

        let r = load_report(98.5, Some(summary(1.0, 4.0, 9.0)));
        r.write(path).unwrap();
        assert_eq!(schema_of(path).unwrap(), LOAD_SCHEMA);
        let back = LoadReport::read(path).unwrap();
        assert_eq!(back.scheduled, 200);
        assert!((back.achieved_qps - 98.5).abs() < 1e-9);
        assert!((back.latency.unwrap().p999_ms - 9.0).abs() < 1e-9);

        // Wrong schema is rejected with a useful message.
        let mut wrong = load_report(98.5, None);
        wrong.schema = "fastbfs-run-v1".into();
        std::fs::write(path, wrong.to_json().unwrap()).unwrap();
        let err = LoadReport::read(path).unwrap_err();
        assert!(err.contains("fastbfs-load-v1"), "{err}");
    }

    /// Schema evolution contract: `fastbfs-load-v1` reports written
    /// before the PR 8 fields existed (no `warmup_s` / `dropped_504` /
    /// `server_sessions` keys) must still parse, with those fields `None`.
    #[test]
    fn load_report_accepts_pre_pr8_documents() {
        let dir = std::env::temp_dir().join("fastbfs-load-report-compat-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.json");
        let path = path.to_str().unwrap();

        let old = r#"{
            "schema": "fastbfs-load-v1",
            "url": "http://127.0.0.1:9464",
            "endpoint": "query",
            "arrival": "poisson",
            "offered_qps": 100.0,
            "duration_s": 2.0,
            "scheduled": 200,
            "completed": 200,
            "errors": 0,
            "elapsed_s": 2.0,
            "achieved_qps": 100.0,
            "latency": null,
            "git_rev": null,
            "rustc": null
        }"#;
        std::fs::write(path, old).unwrap();
        let back = LoadReport::read(path).unwrap();
        assert_eq!(back.completed, 200);
        assert_eq!(back.warmup_s, None);
        assert_eq!(back.dropped_504, None);
        assert_eq!(back.server_sessions, None);

        // And a pre-PR8 reader's view of a new report still has every
        // old field: the new ones are strictly additive.
        let new = load_report(98.5, None).to_json().unwrap();
        for key in ["\"warmup_s\"", "\"dropped_504\"", "\"server_sessions\""] {
            assert!(new.contains(key), "missing {key} in {new}");
        }
    }

    /// Schema evolution contract, continued for PR 9: reports written
    /// before `slowest_trace_ids` existed (i.e. with the PR 8 fields but
    /// not the PR 9 one) must still parse, with the field `None`.
    #[test]
    fn load_report_accepts_pre_pr9_documents() {
        let dir = std::env::temp_dir().join("fastbfs-load-report-compat9-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pr8.json");
        let path = path.to_str().unwrap();

        let pr8 = r#"{
            "schema": "fastbfs-load-v1",
            "url": "http://127.0.0.1:9464",
            "endpoint": "query",
            "arrival": "poisson",
            "offered_qps": 100.0,
            "duration_s": 2.0,
            "scheduled": 200,
            "completed": 199,
            "errors": 1,
            "elapsed_s": 2.0,
            "achieved_qps": 99.5,
            "latency": null,
            "git_rev": null,
            "rustc": null,
            "warmup_s": 1.0,
            "dropped_504": 1,
            "server_sessions": 2
        }"#;
        std::fs::write(path, pr8).unwrap();
        let back = LoadReport::read(path).unwrap();
        assert_eq!(back.completed, 199);
        assert_eq!(back.warmup_s, Some(1.0));
        assert_eq!(back.slowest_trace_ids, None);

        // Round-trip: a report carrying ids keeps them, and a report
        // without them serializes the key explicitly (additive schema).
        let mut with_ids = load_report(98.5, None);
        with_ids.slowest_trace_ids = Some(vec!["lg2a-17".into(), "lg2a-3".into()]);
        std::fs::write(path, with_ids.to_json().unwrap()).unwrap();
        let back = LoadReport::read(path).unwrap();
        assert_eq!(
            back.slowest_trace_ids.as_deref(),
            Some(&["lg2a-17".to_string(), "lg2a-3".to_string()][..])
        );
        let without = load_report(98.5, None).to_json().unwrap();
        assert!(without.contains("\"slowest_trace_ids\""), "{without}");
    }

    /// Schema evolution contract, continued for PR 10: reports written
    /// before `server_version` / `server_git_rev` / `timeseries` existed
    /// must still parse, with the fields `None`; a report carrying them
    /// round-trips; and reports without them still serialize the keys.
    #[test]
    fn load_report_accepts_pre_pr10_documents() {
        let dir = std::env::temp_dir().join("fastbfs-load-report-compat10-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pr9.json");
        let path = path.to_str().unwrap();

        let pr9 = r#"{
            "schema": "fastbfs-load-v1",
            "url": "http://127.0.0.1:9464",
            "endpoint": "query",
            "arrival": "poisson",
            "offered_qps": 100.0,
            "duration_s": 2.0,
            "scheduled": 200,
            "completed": 199,
            "errors": 1,
            "elapsed_s": 2.0,
            "achieved_qps": 99.5,
            "latency": null,
            "git_rev": null,
            "rustc": null,
            "warmup_s": 1.0,
            "dropped_504": 1,
            "server_sessions": 2,
            "slowest_trace_ids": ["lg2a-17"]
        }"#;
        std::fs::write(path, pr9).unwrap();
        let back = LoadReport::read(path).unwrap();
        assert_eq!(back.completed, 199);
        assert_eq!(back.slowest_trace_ids.as_deref().map(|v| v.len()), Some(1));
        assert_eq!(back.server_version, None);
        assert_eq!(back.server_git_rev, None);
        assert!(back.timeseries.is_none());
        assert_eq!(back.worst_slice_p99_ms(), None);
        assert_eq!(back.worst_slice_error_rate(), None);

        // Round-trip with the new fields populated.
        let mut full = load_report(98.5, None);
        full.server_version = Some("0.1.0".into());
        full.server_git_rev = Some("abc123".into());
        full.timeseries = Some(vec![
            slice(0, 99, 1, Some(4.0)),
            slice(1, 100, 0, Some(2.0)),
        ]);
        std::fs::write(path, full.to_json().unwrap()).unwrap();
        let back = LoadReport::read(path).unwrap();
        assert_eq!(back.server_version.as_deref(), Some("0.1.0"));
        assert_eq!(back.server_git_rev.as_deref(), Some("abc123"));
        let ts = back.timeseries.as_ref().unwrap();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].completed, 99);
        assert!((back.worst_slice_p99_ms().unwrap() - 4.0).abs() < 1e-9);
        assert!((back.worst_slice_error_rate().unwrap() - 0.01).abs() < 1e-9);

        // Additive: reports without the fields still emit the keys.
        let without = load_report(98.5, None).to_json().unwrap();
        for key in ["\"server_version\"", "\"server_git_rev\"", "\"timeseries\""] {
            assert!(without.contains(key), "missing {key} in {without}");
        }
    }

    /// The worst-slice gates reject a run that is only healthy on
    /// average: identical aggregates, one sick second in the timeseries.
    #[test]
    fn compare_load_gates_on_the_worst_slice() {
        let mut base = load_report(100.0, Some(summary(1.0, 4.0, 8.0)));
        base.timeseries = Some(vec![
            slice(0, 100, 0, Some(4.0)),
            slice(1, 100, 0, Some(4.0)),
        ]);
        let mut sick = base.clone();
        // Aggregates identical; second slice has a 10x p99 and 20% errors.
        sick.timeseries = Some(vec![
            slice(0, 100, 0, Some(4.0)),
            slice(1, 80, 20, Some(40.0)),
        ]);

        let out = compare_load(&base, &base, &CompareThresholds::default(), false);
        assert!(out.pass, "{}", out.render_text());
        assert!(out.checks.iter().any(|c| c.name == "worst_slice_p99_ms"));

        let out = compare_load(&base, &sick, &CompareThresholds::default(), false);
        assert!(!out.pass, "{}", out.render_text());
        for name in ["worst_slice_p99_ms", "worst_slice_error_rate"] {
            let c = out.checks.iter().find(|c| c.name == name).unwrap();
            assert!(!c.pass, "{name} should fail: {c:?}");
        }
        // Aggregate checks still pass — only the slice gates trip.
        assert!(
            out.checks
                .iter()
                .find(|c| c.name == "load_p99_ms")
                .unwrap()
                .pass
        );

        // One-sided timeseries (old baseline): slice gates silently absent.
        let mut old = base.clone();
        old.timeseries = None;
        let out = compare_load(&old, &sick, &CompareThresholds::default(), false);
        assert!(out.pass, "{}", out.render_text());
        assert!(!out.checks.iter().any(|c| c.name.starts_with("worst_slice")));
    }

    #[test]
    fn compare_load_gates_qps_tail_and_errors() {
        let base = load_report(100.0, Some(summary(1.0, 4.0, 8.0)));

        // Identical → pass, all deltas ~0.
        let out = compare_load(&base, &base, &CompareThresholds::default(), false);
        assert!(out.pass, "{}", out.render_text());

        // 20% achieved-QPS drop trips the 10% gate.
        let slow = load_report(80.0, Some(summary(1.0, 4.0, 8.0)));
        let out = compare_load(&base, &slow, &CompareThresholds::default(), false);
        assert!(!out.pass);
        assert!(out
            .checks
            .iter()
            .any(|c| c.name == "achieved_qps" && !c.pass));

        // p999 went 8 → 12 ms (+50%): past the 25% tail gate.
        let tail = load_report(100.0, Some(summary(1.0, 4.0, 12.0)));
        let out = compare_load(&base, &tail, &CompareThresholds::default(), false);
        assert!(!out.pass);
        assert!(out
            .checks
            .iter()
            .any(|c| c.name == "load_p999_ms" && !c.pass));

        // Error rate 0% → 10% trips the absolute 5-point gate.
        let mut flaky = load_report(100.0, Some(summary(1.0, 4.0, 8.0)));
        flaky.errors = 20;
        flaky.completed = 180;
        let out = compare_load(&base, &flaky, &CompareThresholds::default(), false);
        assert!(!out.pass);
        assert!(out.checks.iter().any(|c| c.name == "error_rate" && !c.pass));

        // Different offered workload fails closed unless allowed.
        let mut other = load_report(100.0, Some(summary(1.0, 4.0, 8.0)));
        other.offered_qps = 200.0;
        let strict = compare_load(&base, &other, &CompareThresholds::default(), false);
        assert!(!strict.pass);
        assert_eq!(strict.workload_mismatch.len(), 1);
        assert!(compare_load(&base, &other, &CompareThresholds::default(), true).pass);
    }

    #[test]
    fn qps_gate_requires_batch_blocks_and_trips_on_drop() {
        let mk = |qps: f64| {
            let mut r = report(&[100.0, 100.0], &[1.0, 1.0], &[0, 0]);
            r.batch = Some(BatchReport {
                queries: 2,
                elapsed_ms: 2000.0 / qps,
                queries_per_sec: qps,
                mean_mteps: 100.0,
                harmonic_mteps: 100.0,
                latency_p50_ms: Some(1.0),
                latency_p99_ms: Some(1.0),
                latency_p999_ms: Some(1.0),
            });
            r
        };
        // No batch on either side → no QPS check at all.
        let nobatch = report(&[100.0], &[1.0], &[0]);
        let out = compare(&nobatch, &nobatch, &CompareThresholds::default(), false);
        assert!(out.checks.iter().all(|c| c.name != "queries_per_sec"));
        // p999 still gated via the query-row fallback.
        assert!(out.checks.iter().any(|c| c.name == "latency_p999_ms"));

        let out = compare(
            &mk(1000.0),
            &mk(850.0),
            &CompareThresholds::default(),
            false,
        );
        assert!(!out.pass, "15% QPS drop past the 10% gate");
        let c = out
            .checks
            .iter()
            .find(|c| c.name == "queries_per_sec")
            .unwrap();
        assert!(!c.pass);
        assert!((c.delta - 0.15).abs() < 1e-9);
        // Improvement passes.
        assert!(
            compare(
                &mk(1000.0),
                &mk(1200.0),
                &CompareThresholds::default(),
                false
            )
            .pass
        );
    }

    #[test]
    fn batch_p999_field_preferred_over_row_fallback() {
        let mut base = report(&[100.0; 4], &[1.0, 1.0, 1.0, 2.0], &[0; 4]);
        let mut new = report(&[100.0; 4], &[1.0, 1.0, 1.0, 2.0], &[0; 4]);
        let batch = |p999: Option<f64>| BatchReport {
            queries: 4,
            elapsed_ms: 4.0,
            queries_per_sec: 1000.0,
            mean_mteps: 100.0,
            harmonic_mteps: 100.0,
            latency_p50_ms: None,
            latency_p99_ms: None,
            latency_p999_ms: p999,
        };
        base.batch = Some(batch(Some(2.0)));
        // Batch field says 10 ms even though the rows say 2 ms: the field
        // must win, tripping the 25% rise gate.
        new.batch = Some(batch(Some(10.0)));
        let out = compare(&base, &new, &CompareThresholds::default(), false);
        let c = out
            .checks
            .iter()
            .find(|c| c.name == "latency_p999_ms")
            .unwrap();
        assert!((c.baseline - 2.0).abs() < 1e-9);
        assert!((c.new - 10.0).abs() < 1e-9);
        assert!(!c.pass);
        // Absent field falls back to the rows (2.0) and passes.
        new.batch = Some(batch(None));
        let out = compare(&base, &new, &CompareThresholds::default(), false);
        assert!(out
            .checks
            .iter()
            .any(|c| c.name == "latency_p999_ms" && c.pass));
    }

    #[test]
    fn report_roundtrips_and_captures_environment() {
        let mut r = report(&[100.0], &[1.0], &[2]);
        r.capture_environment();
        // rustc exists in this build environment; git_rev may or may not.
        assert!(r.rustc.as_deref().is_some_and(|s| s.contains("rustc")));
        assert!(r.host_cores.unwrap_or(0) > 0);
        // The hw-event header always resolves to one of the two shapes.
        let hw = r.hw_events.as_deref().unwrap();
        assert!(
            hw.starts_with("available") || hw.starts_with("unavailable"),
            "{hw}"
        );
        let text = r.to_json().unwrap();
        let back: RunReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.queries.len(), 1);
        assert_eq!(back.rustc, r.rustc);
    }
}
