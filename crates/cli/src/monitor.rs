//! `fastbfs monitor`: a live terminal view over a running query server.
//!
//! Polls `GET /debug/health` (the windowed SLO verdict, DESIGN.md §16)
//! and `GET /metrics` (for the per-session busy/served series the health
//! doc does not carry) and renders one screen per interval: QPS, windowed
//! p50/p99, error/drop rates, the direction mix, queue levels,
//! per-session occupancy, per-SLO verdicts, and the slowest-trace
//! exemplars to pull through `/debug/trace/<id>`.
//!
//! `--once` renders a single frame and exits; with `--format json` that
//! frame is a machine-readable envelope (the health document verbatim
//! under `"health"`, plus the scraped session rows), which is what the
//! check.sh smoke and other scripts consume. The text mode clears the
//! screen between frames only when looping, so `--once` output composes
//! with shell pipelines.
//!
//! A breaching verdict (`/debug/health` answering 503) is *data*, not a
//! transport failure: the monitor keeps rendering it. Only an unreachable
//! server is an error.

use std::time::Duration;

use serde::Value;

use crate::http;
use crate::opts::Opts;

/// Scrape budget per endpoint; diagnostic reads bypass the admission
/// queue, so a healthy server answers well inside this.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(5);

/// One session's scraped occupancy row.
struct SessionRow {
    session: u64,
    busy: bool,
    served: u64,
}

/// `fastbfs monitor`
pub fn monitor(args: &[String]) -> Result<(), String> {
    let positional: Vec<&String> = args.iter().take_while(|a| !a.starts_with('-')).collect();
    if positional.len() > 1 {
        return Err("monitor takes at most one URL (try --help)".into());
    }
    let url = positional
        .first()
        .map(|s| s.as_str())
        .unwrap_or("http://127.0.0.1:9464")
        .to_string();
    let o = Opts::parse(&args[positional.len()..], &["once"])?;
    let interval_ms: u64 = o.num("interval-ms", 1000u64)?.max(100);
    let once = o.has("once");
    let format = o.get("format").unwrap_or("text").to_string();
    if format != "text" && format != "json" {
        return Err(format!("unknown --format {format:?} (text|json)"));
    }

    let host = http::host_of(&url)?;
    let mut frame = 0u64;
    loop {
        let health = http::get(&host, "/debug/health", SCRAPE_TIMEOUT)
            .map_err(|e| format!("{e} (is `fastbfs serve` running at {url}?)"))?;
        // 503 = breaching: still a well-formed verdict. Anything else
        // non-200 means the server cannot produce one.
        if health.status != 200 && health.status != 503 {
            return Err(format!(
                "GET /debug/health answered {}: {}",
                health.status, health.body
            ));
        }
        let doc = serde_json::parse(&health.body)
            .map_err(|e| format!("/debug/health is not JSON ({e}): {}", health.body))?;
        let sessions = http::get(&host, "/metrics", SCRAPE_TIMEOUT)
            .ok()
            .map(|m| session_rows(&m.body))
            .unwrap_or_default();

        if format == "json" {
            println!("{}", render_json(&health.body, health.status, &sessions));
        } else {
            if !once && frame > 0 {
                // ANSI clear + home keeps the live view in place.
                print!("\x1b[2J\x1b[H");
            }
            print!("{}", render_text(&url, &doc, health.status, &sessions));
        }
        frame += 1;
        if once {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}

/// Parses the per-session series out of a Prometheus exposition body.
fn session_rows(metrics: &str) -> Vec<SessionRow> {
    let busy = labeled_series(metrics, "fastbfs_session_busy");
    let served = labeled_series(metrics, "fastbfs_session_requests_total");
    busy.into_iter()
        .map(|(session, b)| {
            let s = served
                .iter()
                .find(|(id, _)| *id == session)
                .map(|(_, v)| *v as u64)
                .unwrap_or(0);
            SessionRow {
                session,
                busy: b >= 1.0,
                served: s,
            }
        })
        .collect()
}

/// All `name{session="N"} value` samples of one labeled series, in
/// session order.
fn labeled_series(metrics: &str, name: &str) -> Vec<(u64, f64)> {
    let prefix = format!("{name}{{session=\"");
    let mut rows: Vec<(u64, f64)> = metrics
        .lines()
        .filter_map(|l| {
            let rest = l.strip_prefix(&prefix)?;
            let (label, tail) = rest.split_once("\"}")?;
            let session: u64 = label.parse().ok()?;
            let value: f64 = tail.trim().parse().ok()?;
            Some((session, value))
        })
        .collect();
    rows.sort_by_key(|&(s, _)| s);
    rows
}

/// The `--format json` envelope: the health document verbatim plus the
/// HTTP status it arrived with and the scraped session rows.
fn render_json(health_body: &str, status: u16, sessions: &[SessionRow]) -> String {
    let mut out = String::with_capacity(health_body.len() + 128);
    out.push_str("{\"http_status\":");
    out.push_str(&status.to_string());
    out.push_str(",\"health\":");
    out.push_str(health_body);
    out.push_str(",\"sessions\":[");
    for (i, r) in sessions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"session\":{},\"busy\":{},\"served\":{}}}",
            r.session, r.busy, r.served
        ));
    }
    out.push_str("]}");
    out
}

fn f(v: Option<&Value>) -> f64 {
    v.and_then(|x| x.as_f64()).unwrap_or(0.0)
}

fn u(v: Option<&Value>) -> u64 {
    v.and_then(|x| x.as_u64()).unwrap_or(0)
}

fn s(v: Option<&Value>) -> &str {
    v.and_then(|x| x.as_str()).unwrap_or("?")
}

/// One window's table row.
fn window_row(out: &mut String, label: &str, w: Option<&Value>) {
    let Some(w) = w else {
        return;
    };
    let (td, bu) = (u(w.get("top_down_steps")), u(w.get("bottom_up_steps")));
    out.push_str(&format!(
        "{label:<6} {:>9.1} {:>9.3} {:>9.3} {:>7.3} {:>7.3} {:>6}/{}\n",
        f(w.get("qps")),
        f(w.get("p50_ms")),
        f(w.get("p99_ms")),
        f(w.get("error_rate")),
        f(w.get("drop_rate")),
        td,
        bu,
    ));
}

/// The human-readable frame.
fn render_text(url: &str, doc: &Value, status: u16, sessions: &[SessionRow]) -> String {
    let mut out = String::new();
    let state = s(doc.get("state"));
    out.push_str(&format!(
        "fastbfs monitor — {url}  up {:.1}s  state {}{}  queue {} (+{} in flight){}\n",
        f(doc.get("uptime_s")),
        state.to_uppercase(),
        if status == 503 { " [HTTP 503]" } else { "" },
        u(doc.get("queue_depth")),
        u(doc.get("in_flight")),
        if doc.get("queue_wedged").and_then(|x| x.as_bool()) == Some(true) {
            "  QUEUE WEDGED"
        } else {
            ""
        },
    ));
    out.push_str("window    qps    p50_ms    p99_ms    err%   drop%  td/bu steps\n");
    window_row(&mut out, "fast", doc.get("fast"));
    window_row(&mut out, "slow", doc.get("slow"));
    if let Some(slos) = doc.get("slos").and_then(|x| x.as_array()) {
        if slos.is_empty() {
            out.push_str("slos: none configured\n");
        } else {
            out.push_str("slos:");
            for slo in slos {
                out.push_str(&format!(
                    "  {} {} (fast {:.3} / slow {:.3}, limit {:.3})",
                    s(slo.get("name")),
                    s(slo.get("state")),
                    f(slo.get("fast")),
                    f(slo.get("slow")),
                    f(slo.get("threshold")),
                ));
            }
            out.push('\n');
        }
    }
    if !sessions.is_empty() {
        out.push_str("sessions:");
        for r in sessions {
            out.push_str(&format!(
                "  {}:{} served={}",
                r.session,
                if r.busy { "busy" } else { "idle" },
                r.served
            ));
        }
        out.push('\n');
    }
    if let Some(ex) = doc.get("exemplars").and_then(|x| x.as_array()) {
        if !ex.is_empty() {
            out.push_str("slowest traces:");
            for e in ex.iter().take(3) {
                out.push_str(&format!(
                    "  {} ({:.3}ms)",
                    s(e.get("trace_id")),
                    u(e.get("total_ns")) as f64 / 1e6,
                ));
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const METRICS: &str = "\
# HELP fastbfs_session_busy 1 while busy
fastbfs_session_busy{session=\"0\"} 1
fastbfs_session_busy{session=\"1\"} 0
fastbfs_session_requests_total{session=\"0\"} 42
fastbfs_session_requests_total{session=\"1\"} 17
fastbfs_queue_depth 3
";

    #[test]
    fn session_rows_parse_from_exposition_text() {
        let rows = session_rows(METRICS);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].session, 0);
        assert!(rows[0].busy);
        assert_eq!(rows[0].served, 42);
        assert_eq!(rows[1].session, 1);
        assert!(!rows[1].busy);
        assert_eq!(rows[1].served, 17);
        // A body without the series yields no rows, not garbage.
        assert!(session_rows("fastbfs_queue_depth 3\n").is_empty());
    }

    #[test]
    fn json_envelope_embeds_health_verbatim_and_parses() {
        let health = "{\"state\":\"ok\",\"queue_depth\":0}";
        let rows = session_rows(METRICS);
        let out = render_json(health, 200, &rows);
        let v = serde_json::parse(&out).unwrap();
        assert_eq!(v.get("http_status").and_then(|x| x.as_u64()), Some(200));
        assert_eq!(
            v.get("health")
                .and_then(|h| h.get("state"))
                .and_then(|x| x.as_str()),
            Some("ok")
        );
        let sessions = v.get("sessions").and_then(|x| x.as_array()).unwrap();
        assert_eq!(sessions.len(), 2);
        assert_eq!(
            sessions[0].get("busy").and_then(|x| x.as_bool()),
            Some(true)
        );
        assert_eq!(sessions[1].get("served").and_then(|x| x.as_u64()), Some(17));
    }

    #[test]
    fn text_frame_renders_verdict_windows_and_exemplars() {
        let doc = serde_json::parse(
            "{\"state\":\"breaching\",\"queue_wedged\":true,\"uptime_s\":12.5,\
             \"queue_depth\":7,\"in_flight\":2,\
             \"fast\":{\"qps\":100.0,\"p50_ms\":1.0,\"p99_ms\":9.0,\"error_rate\":0.0,\
                       \"drop_rate\":0.5,\"top_down_steps\":30,\
                       \"bottom_up_steps\":10},\
             \"slow\":{\"qps\":80.0,\"p50_ms\":1.1,\"p99_ms\":7.0,\"error_rate\":0.0,\
                       \"drop_rate\":0.1,\"top_down_steps\":300,\
                       \"bottom_up_steps\":90},\
             \"slos\":[{\"name\":\"drop_rate\",\"threshold\":0.2,\"fast\":0.5,\
                        \"slow\":0.1,\"state\":\"breaching\"}],\
             \"exemplars\":[{\"trace_id\":\"lg2a-17\",\"total_ns\":12300000}]}",
        )
        .unwrap();
        let rows = session_rows(METRICS);
        let text = render_text("http://h:1", &doc, 503, &rows);
        assert!(text.contains("state BREACHING"), "{text}");
        assert!(text.contains("[HTTP 503]"), "{text}");
        assert!(text.contains("QUEUE WEDGED"), "{text}");
        assert!(text.contains("fast"), "{text}");
        assert!(text.contains("slow"), "{text}");
        assert!(text.contains("drop_rate breaching"), "{text}");
        assert!(text.contains("0:busy served=42"), "{text}");
        assert!(text.contains("lg2a-17 (12.300ms)"), "{text}");
        // A minimal ok doc renders without panicking on absent fields.
        let bare = serde_json::parse("{\"state\":\"ok\"}").unwrap();
        let text = render_text("http://h:1", &bare, 200, &[]);
        assert!(text.contains("state OK"), "{text}");
    }
}
