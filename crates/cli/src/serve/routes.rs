//! Request routing: each path the server answers appears once, in
//! [`Route::of`]; [`handle`] answers diagnostic reads on the worker
//! thread and turns query requests into admitted jobs.

use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use bfs_core::query::QueryKind;

use super::admission::{enqueue_and_reply, Ticket};
use super::render;
use super::session::{record_failure_trace, Failure};
use super::{elapsed_ns, ServerState};
use crate::http::{self, Request};

/// Every path the server answers.
#[derive(Clone, Copy)]
enum Route<'a> {
    Healthz,
    Metrics,
    Snapshot,
    Graph,
    Quit,
    Query,
    Path,
    DebugSlow,
    DebugHealth,
    DebugTimeseries,
    /// `/debug/trace/<id>`, carrying the id.
    DebugTrace(&'a str),
}

impl<'a> Route<'a> {
    fn of(path: &'a str) -> Option<Self> {
        Some(match path {
            "/healthz" => Route::Healthz,
            "/metrics" => Route::Metrics,
            "/snapshot" => Route::Snapshot,
            "/graph" => Route::Graph,
            "/quitquitquit" => Route::Quit,
            "/query" => Route::Query,
            "/path" => Route::Path,
            "/debug/slow" => Route::DebugSlow,
            "/debug/health" => Route::DebugHealth,
            "/debug/timeseries" => Route::DebugTimeseries,
            _ => Route::DebugTrace(path.strip_prefix("/debug/trace/")?),
        })
    }
}

/// Answers with a `{"error":…}` body and counts the request toward
/// `ServeErrors` (drained into the registry by the next dispatch).
pub(super) fn reply_error(
    state: &ServerState,
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    status: u16,
    message: &str,
    extra: &[(&str, &str)],
) {
    state.http_errors.fetch_add(1, Ordering::Relaxed);
    render::error_body(buf, message);
    http::write_response_with_headers(stream, status, "application/json", extra, buf);
}

/// Routes one request; returns true when it was the shutdown endpoint.
/// Diagnostic reads (`/metrics`, `/snapshot`, `/debug/*`) are answered
/// right here on the worker thread, never through the admission queue:
/// they must stay reachable when the queue is saturated — that is
/// exactly when they are needed.
pub(super) fn handle(
    req: &Request,
    stream: &mut TcpStream,
    arrival: Instant,
    state: &ServerState,
    buf: &mut Vec<u8>,
) -> bool {
    let Some(route) = Route::of(&req.path) else {
        state.http_errors.fetch_add(1, Ordering::Relaxed);
        http::write_response(stream, 404, "text/plain; charset=utf-8", b"not found\n");
        return false;
    };
    let mut client_error = |status: u16, msg: &str| {
        reply_error(state, stream, buf, status, msg, &[]);
        false
    };
    match (req.method.as_str(), route) {
        ("GET", Route::Healthz) => {
            http::write_response(stream, 200, "text/plain; charset=utf-8", b"ok\n");
        }
        ("GET", Route::Metrics) => {
            let body = render::metrics_body(state);
            let ctype = "text/plain; version=0.0.4; charset=utf-8";
            http::write_response(stream, 200, ctype, body.as_bytes());
        }
        ("GET", Route::Snapshot) => {
            render::snapshot_body(buf, state);
            http::write_response(stream, 200, "application/json", buf);
        }
        ("GET", Route::Graph) => {
            render::graph_body(buf, state.vertices, state.edges);
            http::write_response(stream, 200, "application/json", buf);
        }
        ("GET", Route::Quit) => {
            http::write_response(stream, 200, "text/plain; charset=utf-8", b"bye\n");
            return true;
        }
        ("GET", Route::DebugSlow) => {
            let limit = match parse_limit(req, 20) {
                Ok(n) => n,
                Err(msg) => return client_error(400, &msg),
            };
            render::slow_body(buf, state, limit);
            http::write_response(stream, 200, "application/json", buf);
        }
        ("GET", Route::DebugHealth) => {
            let status = render::health_body(buf, state);
            http::write_response(stream, status, "application/json", buf);
        }
        ("GET", Route::DebugTimeseries) => {
            let limit = match parse_limit(req, usize::MAX) {
                Ok(n) => n,
                Err(msg) => return client_error(400, &msg),
            };
            render::timeseries_body(buf, state, limit);
            http::write_response(stream, 200, "application/json", buf);
        }
        ("GET", Route::DebugTrace(tid)) => match state.recorder.lookup(tid) {
            Some(found) => {
                render::trace_body(buf, &found);
                http::write_response(stream, 200, "application/json", buf);
            }
            None => {
                let msg = format!("no retained trace with id {tid:?} (evicted or never recorded)");
                return client_error(404, &msg);
            }
        },
        ("GET", Route::Query | Route::Path) | ("POST", Route::Query) => {
            admit(req, route, stream, arrival, state, buf);
        }
        (method, _) => return client_error(405, &format!("{method} not allowed")),
    }
    false
}

/// Identifies, parses and validates a query request, then hands it to
/// the admission queue. A request that fails here is answered on the
/// worker and keeps its full trace.
fn admit(
    req: &Request,
    route: Route<'_>,
    stream: &mut TcpStream,
    arrival: Instant,
    state: &ServerState,
    buf: &mut Vec<u8>,
) {
    // Trace id first: the failure paths below record traces under it.
    // Client-supplied ids are validated; otherwise the id is derived
    // from the request id the response echoes anyway.
    let id = state.next_id.fetch_add(1, Ordering::Relaxed) + 1;
    let trace_id = match req.header("trace-id") {
        Some(raw) if !valid_trace_id(raw) => {
            let msg =
                format!("Trace-Id header {raw:?} invalid (want 1-64 chars of [A-Za-z0-9_.-])");
            return reply_error(state, stream, buf, 400, &msg, &[]);
        }
        Some(raw) => raw.to_string(),
        None => format!("req-{id}"),
    };
    let ticket = Ticket {
        id,
        trace_id,
        query: format!("{} {}", req.method, req.path),
        arrival,
    };
    match prepare(req, route, state, arrival) {
        Ok((kind, deadline)) => enqueue_and_reply(stream, state, ticket, kind, deadline, buf),
        Err((status, msg)) => {
            let failure = Failure {
                status,
                outcome: "client_error",
                error: &msg,
            };
            record_failure_trace(state, ticket, elapsed_ns(arrival), failure);
            reply_error(state, stream, buf, status, &msg, &[]);
        }
    }
}

/// Parses and range-checks a query request and stamps its deadline. An
/// error carries the HTTP status (400 or 422) and the message.
fn prepare(
    req: &Request,
    route: Route<'_>,
    state: &ServerState,
    arrival: Instant,
) -> Result<(QueryKind, Option<Instant>), (u16, String)> {
    let kind = parse_query_request(req, route).map_err(|msg| (400, msg))?;
    kind.validate(state.vertices)
        .map_err(|e| (422, e.to_string()))?;
    // Per-request deadline: the client's Deadline-Ms header wins over
    // the server-wide --deadline-ms default. A budget of 0 is already
    // expired at the next pop — useful for tests and for "only if free
    // right now" probes.
    let deadline_ms = match req.header("deadline-ms") {
        Some(raw) => Some(raw.parse::<u64>().map_err(|_| {
            let msg = format!("Deadline-Ms header {raw:?} is not a millisecond count");
            (400, msg)
        })?),
        None => state.default_deadline_ms,
    };
    let deadline = deadline_ms.and_then(|ms| arrival.checked_add(Duration::from_millis(ms)));
    Ok((kind, deadline))
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
fn parse_query_request(req: &Request, route: Route<'_>) -> Result<QueryKind, String> {
    let vertex = |key: &str| -> Result<u32, String> {
        let raw = req
            .param(key)
            .ok_or_else(|| format!("missing query parameter {key:?} (expect {key}=<vertex id>)"))?;
        raw.parse()
            .map_err(|_| format!("query parameter {key}={raw:?} is not a vertex id"))
    };
    match (req.method.as_str(), route) {
        ("GET", Route::Query) => Ok(QueryKind::Reach {
            src: vertex("src")?,
            dst: match req.param("dst") {
                Some(_) => Some(vertex("dst")?),
                None => None,
            },
        }),
        ("GET", Route::Path) => Ok(QueryKind::Path {
            src: vertex("src")?,
            dst: vertex("dst")?,
        }),
        ("POST", Route::Query) => {
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

/// Accepts client-supplied trace ids that are short and shell/JSON-safe:
/// 1–64 characters from `[A-Za-z0-9_.-]`.
fn valid_trace_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}
