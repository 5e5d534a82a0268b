//! The `fastbfs-run-v1` and `fastbfs-load-v1` JSON reports: schema types
//! and environment capture.
//!
//! Schema evolution is additive-only: every field added after the first
//! committed report is `Option<T>`, so PR-era reports keep parsing
//! forever (the golden-file tests pin this).

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
    /// from the query rows — precomputed so dashboards need not carry
    /// them).
    pub latency_p50_ms: Option<f64>,
    /// Nearest-rank p99 of per-query latency (additive, PR 6).
    pub latency_p99_ms: Option<f64>,
    /// Nearest-rank p99.9 of per-query latency (additive, PR 6).
    pub latency_p999_ms: Option<f64>,
}

/// Top-level report for `fastbfs run --json`.
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
    /// `"unavailable: <reason>"` (additive), so a counter-backed report is
    /// never read as a model-only one or the other way round.
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
    /// slow run links directly to explanatory flight-recorder traces.
    /// `None` on reports that predate the field (additive).
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
    /// average shows its sick seconds here. `None` on reports that
    /// predate the field (additive).
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

    fn parse_load(text: &str) -> LoadReport {
        serde_json::from_str(text).expect("a fastbfs-load-v1 document")
    }

    #[test]
    fn load_report_roundtrips_and_schema_is_checked() {
        let dir = std::env::temp_dir().join("fastbfs-load-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("load.json");
        let path = path.to_str().unwrap();

        let r = load_report(98.5, Some(summary(1.0, 4.0, 9.0)));
        r.write(path).unwrap();
        let back = parse_load(&std::fs::read_to_string(path).unwrap());
        assert_eq!(back.schema, LOAD_SCHEMA);
        assert_eq!(back.scheduled, 200);
        assert!((back.achieved_qps - 98.5).abs() < 1e-9);
        assert!((back.latency.unwrap().p999_ms - 9.0).abs() < 1e-9);
    }

    /// Schema evolution contract: `fastbfs-load-v1` reports written
    /// before the PR 8 fields existed (no `warmup_s` / `dropped_504` /
    /// `server_sessions` keys) must still parse, with those fields `None`.
    #[test]
    fn load_report_accepts_pre_pr8_documents() {
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
        let back = parse_load(old);
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
        let back = parse_load(pr8);
        assert_eq!(back.completed, 199);
        assert_eq!(back.warmup_s, Some(1.0));
        assert_eq!(back.slowest_trace_ids, None);

        // Round-trip: a report carrying ids keeps them, and a report
        // without them serializes the key explicitly (additive schema).
        let mut with_ids = load_report(98.5, None);
        with_ids.slowest_trace_ids = Some(vec!["lg2a-17".into(), "lg2a-3".into()]);
        let back = parse_load(&with_ids.to_json().unwrap());
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
        let back = parse_load(pr9);
        assert_eq!(back.completed, 199);
        assert_eq!(back.slowest_trace_ids.as_deref().map(|v| v.len()), Some(1));
        assert_eq!(back.server_version, None);
        assert_eq!(back.server_git_rev, None);
        assert!(back.timeseries.is_none());

        // Round-trip with the new fields populated.
        let mut full = load_report(98.5, None);
        full.server_version = Some("0.1.0".into());
        full.server_git_rev = Some("abc123".into());
        full.timeseries = Some(vec![
            slice(0, 99, 1, Some(4.0)),
            slice(1, 100, 0, Some(2.0)),
        ]);
        let back = parse_load(&full.to_json().unwrap());
        assert_eq!(back.server_version.as_deref(), Some("0.1.0"));
        assert_eq!(back.server_git_rev.as_deref(), Some("abc123"));
        let ts = back.timeseries.as_ref().unwrap();
        assert_eq!(ts.len(), 2);
        assert_eq!((ts[0].completed, ts[0].errors), (99, 1));
        assert_eq!(ts[0].p99_ms, Some(4.0));
        assert_eq!(ts[1].p99_ms, Some(2.0));

        // Additive: reports without the fields still emit the keys.
        let without = load_report(98.5, None).to_json().unwrap();
        for key in ["\"server_version\"", "\"server_git_rev\"", "\"timeseries\""] {
            assert!(without.contains(key), "missing {key} in {without}");
        }
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
