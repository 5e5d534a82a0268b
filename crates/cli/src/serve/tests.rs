//! End-to-end tests of `fastbfs serve`: each starts a server on an
//! ephemeral port and drives it over real sockets, so they cross every
//! concern of the module (routes, admission, sessions, rendering).

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use bfs_trace::LEVEL_DIGEST_CAP;
use serde::Value;

use super::admission::shed_hold;
use super::serve;
use crate::http;

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
    let r = http::post_json(&addr, "/query", "{\"sources\":[]}", Duration::from_secs(30)).unwrap();
    assert_eq!(r.status, 422, "{}", r.body);

    // 405 on wrong method, 404 on unknown paths.
    let r = http::post_json(&addr, "/metrics", "", Duration::from_secs(30)).unwrap();
    assert_eq!(r.status, 405, "{}", r.body);
    assert_eq!(get(&addr, "/nope").status, 404);
    // A control byte in the method comes back escaped: the 405 body is
    // strict JSON (no raw byte below 0x20) and carries the method back.
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.write_all(b"GE\x01T /query HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut resp = String::new();
    raw.read_to_string(&mut resp).unwrap();
    let (head, body) = resp.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.1 405 "), "{head}");
    assert!(body.bytes().all(|b| b >= 0x20), "{body:?}");
    let v = serde_json::parse(body).unwrap();
    assert_eq!(
        v.get("error").and_then(|e| e.as_str()),
        Some("GE\u{1}T not allowed")
    );

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
