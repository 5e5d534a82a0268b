//! `fastbfs loadgen`: an open-loop, coordinated-omission-safe load
//! generator for the `fastbfs serve` query endpoints.
//!
//! **Open loop**: request arrival times are drawn up front from the
//! configured process (Poisson by default — independent exponential
//! gaps — or fixed-interval) and never adjusted to the server's pace. A
//! closed-loop generator that waits for each response before sending the
//! next one measures the *server's* preferred rate, silently omitting
//! exactly the requests that would have seen the worst latency
//! (coordinated omission). Here, every request's latency is measured
//! from its *scheduled* arrival: if the server stalls for a second,
//! every request scheduled during that second has the stall charged to
//! it, which is what a real client population would experience.
//!
//! Workers send over fresh connections (`Connection: close`), striped
//! round-robin across `--connections` threads so one slow response only
//! delays 1/C of the schedule — raise `--connections` until offered ≈
//! achieved QPS if the workers themselves become the bottleneck.
//!
//! `--warmup S` prepends S seconds of throwaway traffic at the same
//! offered rate: those requests are sent (heating the server's sessions,
//! page cache, and branch predictors) but appear in no count — scheduled,
//! completed, errors, latency, and achieved QPS all describe only the
//! measured window after the warmup boundary.
//!
//! The run emits a `fastbfs-load-v1` JSON report (offered vs achieved
//! QPS, error counts split out by deadline drops, p50/p90/p99/p99.9
//! latency), and `--max-p99-ms` turns the run itself into a pass/fail SLO
//! check. HTTP 504 responses — the server's "admitted but dropped" verdict
//! from its deadline admission layer — are counted as errors *and*
//! reported separately as `dropped_504`, so an overload run can
//! distinguish deliberate load shedding from transport failures.

use std::time::{Duration, Instant};

use bfs_bench::report::{LatencySummary, LoadReport, LoadSlice, LOAD_SCHEMA};
use bfs_graph::rng::rng_from_seed;
use rand::Rng;

use crate::http;
use crate::opts::Opts;

/// Per-request client timeout. Far above any sane SLO: a hung server
/// should show up as tail latency, not as an error masking it.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// One scheduled request.
struct Arrival {
    /// Offset from the schedule origin.
    offset: Duration,
    /// Request path (source vertices are pre-drawn so workers share no
    /// RNG state).
    path: String,
    /// Client-stamped `Trace-Id` (`lg<seed>-<index>`): the report's
    /// worst-percentile ids resolve directly at `/debug/trace/<id>` on
    /// the server that served the run.
    trace_id: String,
}

/// One lane's outcome: measured `(latency_ns, scheduled offset in
/// seconds past the warmup boundary, trace id)` samples, error offsets
/// on the same clock (length = error count), and the
/// deadline-dropped-504 tally. Offsets let the report bucket both
/// completions and errors into per-second slices by *scheduled* arrival
/// — the same clock the latency rule charges.
type LaneResult<'a> = (Vec<(u64, f64, &'a str)>, Vec<f64>, u64);

/// `fastbfs loadgen`
pub fn loadgen(args: &[String]) -> Result<(), String> {
    let positional: Vec<&String> = args.iter().take_while(|a| !a.starts_with('-')).collect();
    if positional.len() > 1 {
        return Err("loadgen takes at most one URL (try --help)".into());
    }
    let url = positional
        .first()
        .map(|s| s.as_str())
        .unwrap_or("http://127.0.0.1:9464")
        .to_string();
    let o = Opts::parse(&args[positional.len()..], &[])?;
    let rate: f64 = o.num("rate", 100.0)?;
    let duration: f64 = o.num("duration", 5.0)?;
    if rate <= 0.0 || duration <= 0.0 {
        return Err("--rate and --duration must be positive".into());
    }
    let warmup: f64 = o.num("warmup", 0.0)?;
    if warmup < 0.0 || !warmup.is_finite() {
        return Err("--warmup must be a non-negative number of seconds".into());
    }
    let arrival = o.get("arrival").unwrap_or("poisson").to_string();
    if arrival != "poisson" && arrival != "uniform" {
        return Err(format!("unknown --arrival {arrival:?} (poisson|uniform)"));
    }
    let endpoint = o.get("endpoint").unwrap_or("query").to_string();
    if endpoint != "query" && endpoint != "path" {
        return Err(format!("unknown --endpoint {endpoint:?} (query|path)"));
    }
    let connections: usize = o.num("connections", 8)?.max(1);
    let seed: u64 = o.num("seed", 42)?;

    let host = http::host_of(&url)?;
    // Size the source range from the live server.
    let graph = http::get(&host, "/graph", REQUEST_TIMEOUT)
        .map_err(|e| format!("{e} (is `fastbfs serve` running at {url}?)"))?;
    if !graph.ok() {
        return Err(format!("GET /graph returned {}", graph.status));
    }
    let vertices = serde_json::parse(&graph.body)
        .ok()
        .and_then(|v| v.get("vertices").and_then(|n| n.as_u64()))
        .ok_or("GET /graph returned no vertex count")?;
    if vertices == 0 {
        return Err("server graph has no vertices".into());
    }
    // One startup scrape of `fastbfs_build_info` ties the report to the
    // *server* build it measured; the generator's own provenance is
    // captured separately by `capture_environment`. Best-effort: absent
    // on servers without a metrics exposition.
    let (server_version, server_git_rev) = http::get(&host, "/metrics", REQUEST_TIMEOUT)
        .ok()
        .filter(|r| r.ok())
        .map(|r| parse_build_info(&r.body))
        .unwrap_or((None, None));
    if let Some(v) = &server_version {
        println!(
            "loadgen: server build {v}{}",
            match &server_git_rev {
                Some(rev) => format!(" ({rev})"),
                None => String::new(),
            },
        );
    }

    // One schedule spans warmup + measurement so the arrival process is
    // continuous across the boundary — the server never sees a rate step.
    let schedule = build_schedule(rate, warmup + duration, &arrival, &endpoint, vertices, seed);
    let warmup_d = Duration::from_secs_f64(warmup);
    let scheduled = schedule.iter().filter(|a| a.offset >= warmup_d).count() as u64;
    println!(
        "loadgen: {scheduled} requests to {url}{} over {duration}s{} ({arrival} arrivals, offered {rate} QPS, {connections} connections)",
        if endpoint == "path" { " /path" } else { " /query" },
        if warmup > 0.0 {
            format!(" after {warmup}s warmup")
        } else {
            String::new()
        },
    );

    // Stripe round-robin: per-worker offsets stay monotonic, so each
    // worker only ever sleeps forward.
    let mut lanes: Vec<Vec<&Arrival>> = vec![Vec::new(); connections];
    for (i, a) in schedule.iter().enumerate() {
        lanes[i % connections].push(a);
    }

    let start = Instant::now();
    let results: Vec<LaneResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter()
            .map(|lane| {
                let host = host.as_str();
                scope.spawn(move || run_lane(host, lane, start, warmup_d))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Achieved QPS describes the measured window only: wall-clock from
    // the warmup boundary (the first measured arrival) to the last
    // response.
    let elapsed_s = (start.elapsed().as_secs_f64() - warmup).max(0.0);

    let mut samples: Vec<(u64, f64, &str)> = Vec::with_capacity(schedule.len());
    let mut error_offsets: Vec<f64> = Vec::new();
    let mut dropped_504 = 0u64;
    for (lat, errs, dropped) in results {
        samples.extend(lat);
        error_offsets.extend(errs);
        dropped_504 += dropped;
    }
    let errors = error_offsets.len() as u64;
    // Per-second slices before the latency sort destroys arrival order.
    let timeseries = build_slices(&samples, &error_offsets, duration);
    samples.sort_unstable_by_key(|(ns, _, _)| *ns);
    // The worst-percentile requests, by id: these resolve at the served
    // server's `/debug/trace/<id>`, linking a gated regression straight
    // to its explanatory traces.
    let slowest_trace_ids: Vec<String> = samples
        .iter()
        .rev()
        .take(5)
        .map(|(_, _, id)| id.to_string())
        .collect();
    let latencies: Vec<u64> = samples.iter().map(|(ns, _, _)| *ns).collect();
    let completed = latencies.len() as u64;

    // Best-effort: the session-pool size ties the report to the server
    // configuration it measured. Absent on pre-pool servers.
    let server_sessions = http::get(&host, "/snapshot", REQUEST_TIMEOUT)
        .ok()
        .filter(|r| r.ok())
        .and_then(|r| serde_json::parse(&r.body).ok())
        .and_then(|v| v.get("sessions").and_then(|n| n.as_u64()));

    let mut report = LoadReport {
        schema: LOAD_SCHEMA.into(),
        url,
        endpoint,
        arrival,
        offered_qps: rate,
        duration_s: duration,
        scheduled,
        completed,
        errors,
        elapsed_s,
        achieved_qps: if elapsed_s > 0.0 {
            completed as f64 / elapsed_s
        } else {
            0.0
        },
        latency: LatencySummary::from_sorted_ns(&latencies),
        git_rev: None,
        rustc: None,
        warmup_s: Some(warmup),
        dropped_504: Some(dropped_504),
        server_sessions,
        slowest_trace_ids: Some(slowest_trace_ids),
        server_version,
        server_git_rev,
        timeseries: Some(timeseries),
    };
    report.capture_environment();

    println!(
        "loadgen: {completed}/{scheduled} ok, {errors} errors ({dropped_504} deadline-dropped 504s), achieved {:.1}/{rate} QPS in {elapsed_s:.2}s{}",
        report.achieved_qps,
        match server_sessions {
            Some(n) => format!(" against {n} server sessions"),
            None => String::new(),
        },
    );
    if let Some(l) = &report.latency {
        println!(
            "latency (from scheduled arrival): p50 {:.3} ms, p90 {:.3}, p99 {:.3}, p99.9 {:.3}, max {:.3}",
            l.p50_ms, l.p90_ms, l.p99_ms, l.p999_ms, l.max_ms
        );
    }
    if let Some(ids) = report.slowest_trace_ids.as_ref().filter(|v| !v.is_empty()) {
        println!(
            "slowest requests ({}/debug/trace/<id>): {}",
            report.url,
            ids.join(" ")
        );
    }
    if let Some(path) = o.get("out") {
        report.write(path)?;
        println!("report: {path}");
    }

    // SLO mode: a missing latency block (nothing completed) is a breach
    // too, not a silent pass.
    if o.get("max-p99-ms").is_some() {
        let limit: f64 = o.num("max-p99-ms", 0.0)?;
        let p99 = report
            .latency
            .as_ref()
            .map(|l| l.p99_ms)
            .ok_or("SLO check: no requests completed")?;
        if p99 > limit {
            return Err(format!("SLO breach: p99 {p99:.3} ms > {limit} ms"));
        }
        println!("SLO ok: p99 {p99:.3} ms <= {limit} ms");
    }
    Ok(())
}

/// Draws the full arrival schedule (offsets ascending by construction).
fn build_schedule(
    rate: f64,
    duration: f64,
    arrival: &str,
    endpoint: &str,
    vertices: u64,
    seed: u64,
) -> Vec<Arrival> {
    let n = (rate * duration).ceil().max(1.0) as usize;
    let mut rng = rng_from_seed(seed);
    let mut offsets = Vec::with_capacity(n);
    if arrival == "poisson" {
        let mut t = 0.0f64;
        for _ in 0..n {
            let u: f64 = rng.random();
            // Exponential inter-arrival gap; clamp the log argument away
            // from 0 (u is in [0,1)).
            t += -(1.0 - u).max(f64::MIN_POSITIVE).ln() / rate;
            offsets.push(t);
        }
    } else {
        for i in 0..n {
            offsets.push(i as f64 / rate);
        }
    }
    offsets
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let src = rng.random_range(0..vertices);
            let path = if endpoint == "path" {
                let dst = rng.random_range(0..vertices);
                format!("/path?src={src}&dst={dst}")
            } else {
                format!("/query?src={src}")
            };
            Arrival {
                offset: Duration::from_secs_f64(t),
                path,
                trace_id: format!("lg{seed:x}-{i}"),
            }
        })
        .collect()
}

/// One worker: fire each request at its scheduled time (immediately when
/// behind — the backlog is *charged to the latency*, never skipped) and
/// measure completion against the schedule. Returns
/// `(latency_ns + trace id per completion, errors, dropped_504)`;
/// requests scheduled inside the warmup window are sent but contribute
/// to none of the three.
fn run_lane<'a>(
    host: &str,
    lane: &[&'a Arrival],
    start: Instant,
    warmup: Duration,
) -> LaneResult<'a> {
    let mut latencies = Vec::with_capacity(lane.len());
    let mut error_offsets = Vec::new();
    let mut dropped_504 = 0u64;
    for a in lane {
        let target = start + a.offset;
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
        let resp =
            http::get_with_headers(host, &a.path, &[("Trace-Id", &a.trace_id)], REQUEST_TIMEOUT);
        if a.offset < warmup {
            continue;
        }
        // Both the latency rule and the timeseries bucket on the
        // scheduled arrival, rebased to the warmup boundary.
        let measured_offset = (a.offset - warmup).as_secs_f64();
        match resp {
            Ok(r) if r.ok() => {
                // Coordinated-omission-safe: latency from the scheduled
                // arrival, not from when the send actually happened.
                let since_target = (start + a.offset).elapsed();
                latencies.push((
                    u64::try_from(since_target.as_nanos()).unwrap_or(u64::MAX),
                    measured_offset,
                    a.trace_id.as_str(),
                ));
            }
            Ok(r) => {
                error_offsets.push(measured_offset);
                // 504 is the server's deadline admission layer speaking:
                // admitted, queued past its budget, dropped unexecuted.
                if r.status == 504 {
                    dropped_504 += 1;
                }
            }
            Err(_) => error_offsets.push(measured_offset),
        }
    }
    (latencies, error_offsets, dropped_504)
}

/// Buckets measured completions and errors into per-second
/// [`LoadSlice`]s by scheduled arrival. Offsets past the configured
/// duration (Poisson tails overshoot) fold into the last slice rather
/// than minting a sliver slice with three samples.
fn build_slices(
    samples: &[(u64, f64, &str)],
    error_offsets: &[f64],
    duration: f64,
) -> Vec<LoadSlice> {
    let n = duration.ceil().max(1.0) as usize;
    let idx = |off: f64| (off.max(0.0) as usize).min(n - 1);
    let mut lat: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut errors = vec![0u64; n];
    for &(ns, off, _) in samples {
        lat[idx(off)].push(ns);
    }
    for &off in error_offsets {
        errors[idx(off)] += 1;
    }
    lat.into_iter()
        .zip(errors)
        .enumerate()
        .map(|(i, (mut l, errs))| {
            l.sort_unstable();
            let s = LatencySummary::from_sorted_ns(&l);
            LoadSlice {
                start_s: i as u64,
                completed: l.len() as u64,
                errors: errs,
                p50_ms: s.as_ref().map(|s| s.p50_ms),
                p99_ms: s.as_ref().map(|s| s.p99_ms),
            }
        })
        .collect()
}

/// Parses the `version` and `git_rev` labels off the server's
/// `fastbfs_build_info{...} 1` exposition line. A `git_rev="unknown"`
/// label maps to `None`: absence of provenance, not a revision.
fn parse_build_info(metrics: &str) -> (Option<String>, Option<String>) {
    let Some(line) = metrics
        .lines()
        .find(|l| l.starts_with("fastbfs_build_info{"))
    else {
        return (None, None);
    };
    let label = |name: &str| -> Option<String> {
        let pat = format!("{name}=\"");
        let start = line.find(&pat)? + pat.len();
        let end = line[start..].find('"')? + start;
        Some(line[start..end].to_string())
    };
    let version = label("version");
    let git_rev = label("git_rev").filter(|v| v != "unknown");
    (version, git_rev)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_monotonic_and_sized() {
        let s = build_schedule(200.0, 1.0, "poisson", "query", 100, 7);
        assert_eq!(s.len(), 200);
        for w in s.windows(2) {
            assert!(w[0].offset <= w[1].offset);
        }
        // Mean gap ≈ 1/rate: the last offset lands near the duration.
        let last = s.last().unwrap().offset.as_secs_f64();
        assert!(last > 0.5 && last < 2.0, "{last}");
        // Deterministic for a given seed.
        let s2 = build_schedule(200.0, 1.0, "poisson", "query", 100, 7);
        assert_eq!(s.last().unwrap().offset, s2.last().unwrap().offset);
        assert_eq!(s[0].path, s2[0].path);
        // Trace ids are deterministic, unique, and tied to the seed.
        assert_eq!(s[0].trace_id, "lg7-0");
        assert_eq!(s[199].trace_id, "lg7-199");
        assert_eq!(s[5].trace_id, s2[5].trace_id);
    }

    #[test]
    fn uniform_schedule_uses_fixed_gaps() {
        let s = build_schedule(100.0, 0.5, "uniform", "path", 64, 1);
        assert_eq!(s.len(), 50);
        let gap = s[1].offset - s[0].offset;
        assert_eq!(gap, Duration::from_millis(10));
        assert!(s.iter().all(|a| a.path.starts_with("/path?src=")));
        assert!(s[0].path.contains("&dst="));
    }

    #[test]
    fn loadgen_rejects_bad_flags_early() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert!(loadgen(&args(&["--rate", "0"])).is_err());
        assert!(loadgen(&args(&["--arrival", "bursty"])).is_err());
        assert!(loadgen(&args(&["--endpoint", "teleport"])).is_err());
        assert!(loadgen(&args(&["http://a", "http://b"])).is_err());
        assert!(loadgen(&args(&["--warmup", "-1"])).is_err());
        assert!(loadgen(&args(&["--warmup", "soon"])).is_err());
    }

    /// Slices bucket by scheduled second, fold the Poisson overshoot
    /// into the last slice, and keep completions and errors separate.
    #[test]
    fn slices_bucket_by_scheduled_second() {
        let samples: Vec<(u64, f64, &str)> = vec![
            (1_000_000, 0.1, "a"), // 1 ms in second 0
            (3_000_000, 0.9, "b"), // 3 ms in second 0
            (2_000_000, 1.5, "c"), // 2 ms in second 1
            (9_000_000, 2.4, "d"), // overshoot → folds into second 1
        ];
        let errors = vec![0.2, 1.7, 5.0];
        let slices = build_slices(&samples, &errors, 2.0);
        assert_eq!(slices.len(), 2);
        assert_eq!(
            (slices[0].start_s, slices[0].completed, slices[0].errors),
            (0, 2, 1)
        );
        assert_eq!(
            (slices[1].start_s, slices[1].completed, slices[1].errors),
            (1, 2, 2)
        );
        assert!((slices[0].p99_ms.unwrap() - 3.0).abs() < 1e-9);
        assert!((slices[1].p99_ms.unwrap() - 9.0).abs() < 1e-9);

        // An empty second has no latency summary but still appears.
        let slices = build_slices(&samples[..2], &[], 3.0);
        assert_eq!(slices.len(), 3);
        assert_eq!(slices[2].completed, 0);
        assert_eq!(slices[2].p99_ms, None);
    }

    #[test]
    fn build_info_labels_parse_from_exposition_text() {
        let m = "# HELP fastbfs_build_info Build provenance; value is always 1\n\
                 # TYPE fastbfs_build_info gauge\n\
                 fastbfs_build_info{version=\"0.1.0\",git_rev=\"abc123\",rustc=\"rustc 1.75\"} 1\n";
        assert_eq!(
            parse_build_info(m),
            (Some("0.1.0".into()), Some("abc123".into()))
        );
        // `unknown` provenance maps to absence, and a scrape without the
        // gauge yields nothing.
        let m = "fastbfs_build_info{version=\"0.1.0\",git_rev=\"unknown\",rustc=\"unknown\"} 1\n";
        assert_eq!(parse_build_info(m), (Some("0.1.0".into()), None));
        assert_eq!(parse_build_info("fastbfs_queries_total 3\n"), (None, None));
    }

    /// The warmup boundary partitions one continuous schedule: measured
    /// requests are exactly those at or past the boundary, and a uniform
    /// schedule yields the expected measured count.
    #[test]
    fn warmup_boundary_partitions_the_schedule() {
        let warmup = Duration::from_secs(1);
        let s = build_schedule(100.0, 1.0 + 2.0, "uniform", "query", 64, 9);
        assert_eq!(s.len(), 300);
        let measured = s.iter().filter(|a| a.offset >= warmup).count();
        assert_eq!(measured, 200);
        // The boundary is a partition, not a filter with gaps: every
        // arrival is on exactly one side.
        let warm = s.iter().filter(|a| a.offset < warmup).count();
        assert_eq!(warm + measured, s.len());
    }
}
