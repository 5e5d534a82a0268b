//! Every body `fastbfs serve` writes, rendered one way: a small JSON
//! writer over a reused `&mut Vec<u8>`.
//!
//! Query replies (`/query`, `/path`, `POST /query`, the 504 deadline
//! body) hold only integers, fixed keys and validated trace ids, so they
//! render straight into the worker's recycled buffer and the steady-state
//! serve loop allocates nothing once the buffer reaches its high-water
//! capacity. The scrape documents (`/graph`, `/snapshot`, `/debug/*`) and
//! every `{"error":…}` body use the same writer. Two kinds of value go
//! through `serde_json::to_writer`, so their tokens stay byte-identical
//! to the vendored emitter's without copying it: values whose type
//! another crate owns and serializes (`MetricsSnapshot`, `FlightStats`,
//! `RequestTrace`, `TraceDigest`), and single f64 or escaped string
//! tokens. `/metrics` is Prometheus text from [`bfs_metrics::prom`].

use std::io::Write as _;
use std::sync::atomic::Ordering;

use bfs_core::query::{self, QueryOutcome};
use bfs_metrics::rollup::{self, SloState, WindowStats};
use bfs_metrics::{prom, Counter, Hist};
use bfs_trace::TraceLookup;
use serde::Serialize;

use super::admission::admission_levels;
use super::{lock, merged_snapshot, queue_wedged, ServerState};

/// Lifecycle span echoed in each query response (nanoseconds, plus the
/// answering session). The serialize segment is measured around
/// rendering this very body, so it lands only in the registry counters,
/// not here.
pub(super) struct Span {
    pub(super) parse_ns: u64,
    pub(super) queue_ns: u64,
    /// 0 for deadline-dropped requests: no execute phase ever ran.
    pub(super) execute_ns: u64,
    /// Which session answered.
    pub(super) session: usize,
}

/// A compact JSON writer. It tracks only whether the next value needs a
/// separating comma; keys are fixed ASCII literals and are not escaped.
struct Json<'a> {
    buf: &'a mut Vec<u8>,
    comma: bool,
}

impl<'a> Json<'a> {
    /// Starts a body in `buf`, replacing its contents but keeping its
    /// capacity.
    fn new(buf: &'a mut Vec<u8>) -> Self {
        buf.clear();
        Json { buf, comma: false }
    }

    /// The buffer, after the separator the next value needs.
    fn value(&mut self) -> &mut Vec<u8> {
        if self.comma {
            self.buf.push(b',');
        }
        self.comma = true;
        self.buf
    }

    fn key(&mut self, k: &str) -> &mut Self {
        let buf = self.value();
        buf.push(b'"');
        buf.extend_from_slice(k.as_bytes());
        buf.extend_from_slice(b"\":");
        self.comma = false;
        self
    }

    /// Opens an object (`b'{'`) or a list (`b'['`).
    fn open(&mut self, bracket: u8) -> &mut Self {
        self.value().push(bracket);
        self.comma = false;
        self
    }

    /// Closes an object (`b'}'`) or a list (`b']'`).
    fn close(&mut self, bracket: u8) {
        self.buf.push(bracket);
        self.comma = true;
    }

    fn uint(&mut self, v: impl Into<u64>) {
        let _ = write!(self.value(), "{}", v.into());
    }

    fn null(&mut self) {
        self.value().extend_from_slice(b"null");
    }

    fn opt_uint(&mut self, v: Option<impl Into<u64>>) {
        match v {
            Some(v) => self.uint(v),
            None => self.null(),
        }
    }

    fn bool(&mut self, v: bool) {
        let _ = write!(self.value(), "{v}");
    }

    /// One float token as the vendored emitter writes it: integral
    /// values keep a `.0`, NaN and infinities become `null`.
    fn f64(&mut self, v: f64) {
        self.ser(&v);
    }

    /// One string token. A string that needs no escaping is copied
    /// as-is, which keeps validated trace ids and fixed messages
    /// allocation-free; anything else goes through the emitter's full
    /// escaping.
    fn str(&mut self, s: &str) {
        if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
            let buf = self.value();
            buf.push(b'"');
            buf.extend_from_slice(s.as_bytes());
            buf.push(b'"');
        } else {
            self.ser(s);
        }
    }

    fn opt_str(&mut self, s: Option<&str>) {
        match s {
            Some(s) => self.str(s),
            None => self.null(),
        }
    }

    /// A value through `serde_json`. The vendored emitter cannot fail,
    /// and writing into a `Vec` cannot either.
    fn ser<T: Serialize + ?Sized>(&mut self, v: &T) {
        let _ = serde_json::to_writer(self.value(), v);
    }
}

fn spans(j: &mut Json<'_>, s: &Span) {
    j.key("spans").open(b'{');
    j.key("parse_ns").uint(s.parse_ns);
    j.key("queue_ns").uint(s.queue_ns);
    j.key("execute_ns").uint(s.execute_ns);
    j.key("session").uint(s.session as u64);
    j.close(b'}');
}

fn reach_fields(j: &mut Json<'_>, r: &query::ReachResult) {
    j.key("src").uint(r.src);
    j.key("depth").uint(r.depth);
    j.key("visited_vertices").uint(r.visited_vertices);
    j.key("traversed_edges").uint(r.traversed_edges);
    match &r.dst {
        Some(v) => {
            j.key("dst").open(b'{');
            j.key("vertex").uint(v.vertex);
            j.key("depth").opt_uint(v.depth);
            j.key("parent").opt_uint(v.parent);
            j.close(b'}');
        }
        None => j.key("dst").null(),
    }
}

/// Renders one outcome (plus id, trace id, and spans) into `buf`,
/// replacing its contents but reusing its capacity.
pub(super) fn render_outcome(
    buf: &mut Vec<u8>,
    id: u64,
    trace_id: &str,
    outcome: &QueryOutcome,
    span: &Span,
) {
    let mut j = Json::new(buf);
    j.open(b'{');
    j.key("id").uint(id);
    j.key("trace_id").str(trace_id);
    match outcome {
        QueryOutcome::Reach(r) => reach_fields(&mut j, r),
        QueryOutcome::Path(p) => {
            j.key("src").uint(p.src);
            j.key("dst").uint(p.dst);
            j.key("reached").bool(p.reached());
            j.key("path").open(b'[');
            for &v in &p.path {
                j.uint(v);
            }
            j.close(b']');
        }
        QueryOutcome::Batch(rows) => {
            j.key("results").open(b'[');
            for r in rows {
                j.open(b'{');
                reach_fields(&mut j, r);
                j.close(b'}');
            }
            j.close(b']');
        }
    }
    spans(&mut j, span);
    j.close(b'}');
}

/// Renders the 504 body of a request whose deadline lapsed in the queue.
pub(super) fn render_deadline(buf: &mut Vec<u8>, id: u64, trace_id: &str, span: &Span) {
    let mut j = Json::new(buf);
    j.open(b'{');
    j.key("error")
        .str("deadline expired while queued; request dropped without executing");
    j.key("id").uint(id);
    j.key("trace_id").str(trace_id);
    spans(&mut j, span);
    j.close(b'}');
}

/// `{"error":…}` with the message fully escaped.
pub(super) fn error_body(buf: &mut Vec<u8>, message: &str) {
    let mut j = Json::new(buf);
    j.open(b'{');
    j.key("error").str(message);
    j.close(b'}');
}

/// `/graph`: vertex and edge counts (load generators size their source
/// range from this).
pub(super) fn graph_body(buf: &mut Vec<u8>, vertices: usize, edges: u64) {
    let mut j = Json::new(buf);
    j.open(b'{');
    j.key("vertices").uint(vertices as u64);
    j.key("edges").uint(edges);
    j.close(b'}');
}

/// `/snapshot`: the merged registry snapshot plus pool, queue and
/// hardware-counter status.
pub(super) fn snapshot_body(buf: &mut Vec<u8>, state: &ServerState) {
    let metrics = merged_snapshot(state);
    let (depth, in_flight) = admission_levels(state);
    let mut j = Json::new(buf);
    j.open(b'{');
    // Traversals across all sessions (warmup + served queries).
    j.key("queries").uint(metrics.total(Counter::Queries));
    j.key("uptime_s").f64(state.started.elapsed().as_secs_f64());
    j.key("queue_depth").uint(depth);
    j.key("in_flight").uint(in_flight);
    j.key("sessions").uint(state.sessions.len() as u64);
    // Requests answered per session, indexed by session id.
    j.key("session_requests").open(b'[');
    for s in &state.sessions {
        j.uint(s.served.load(Ordering::Relaxed));
    }
    j.close(b']');
    // Legacy combined string (`"available"` / `"unavailable: ..."`),
    // then the structured availability: a machine-readable degradation
    // tag (`"permission_denied"`, ...) and a human-readable reason, both
    // `null` when counters are available.
    j.key("hw").str(&state.hw);
    j.key("hw_available").bool(state.hw_kind.is_none());
    j.key("hw_kind").opt_str(state.hw_kind.as_deref());
    j.key("hw_reason").opt_str(state.hw_reason.as_deref());
    j.key("metrics").ser(&metrics);
    j.close(b'}');
}

/// `/debug/slow`: the recorder's slowest retained traces plus the
/// sampling policy that kept them.
pub(super) fn slow_body(buf: &mut Vec<u8>, state: &ServerState, limit: usize) {
    let mut j = Json::new(buf);
    j.open(b'{');
    // Current rolling keep-threshold (`null` while the sampler warms up):
    // successful requests strictly above it keep full traces.
    j.key("threshold_ns")
        .opt_uint(lock(&state.sampler).rolling_threshold_ns());
    // The configured absolute floor, as given (`--slow-ms`).
    j.key("slow_ms").opt_uint(state.slow_ms);
    j.key("stats").ser(&state.recorder.stats());
    j.key("slow").ser(&state.recorder.slow_ranked(limit));
    j.close(b'}');
}

/// `/debug/trace/<id>`: the full trace, or the id+latency digest.
pub(super) fn trace_body(buf: &mut Vec<u8>, found: &TraceLookup) {
    let mut j = Json::new(buf);
    match found {
        TraceLookup::Full(t) => j.ser(t),
        TraceLookup::Digest(d) => j.ser(d),
    }
}

/// Windowed rate/latency summary for one burn-rate window.
fn window(j: &mut Json<'_>, w: &WindowStats) {
    let (top_down, bottom_up) = w.direction_mix();
    j.open(b'{');
    // Delta frames summed (fewer than configured until the ring fills).
    j.key("frames").uint(w.frames as u64);
    j.key("elapsed_s").f64(w.elapsed_s);
    j.key("requests").uint(w.counter(Counter::ServeRequests));
    j.key("errors").uint(w.counter(Counter::ServeErrors));
    j.key("dropped")
        .uint(w.counter(Counter::ServeDeadlineDropped));
    j.key("qps").f64(w.qps());
    j.key("p50_ms").f64(w.latency_ms(0.5));
    j.key("p99_ms").f64(w.latency_ms(0.99));
    j.key("error_rate").f64(w.error_rate());
    j.key("drop_rate").f64(w.drop_rate());
    j.key("top_down_steps").uint(top_down);
    j.key("bottom_up_steps").uint(bottom_up);
    j.close(b'}');
}

/// `/debug/health`: the burn-rate SLO verdict plus windowed summaries and
/// flight-recorder exemplars (DESIGN.md §16). Returns the HTTP status:
/// 503 while any SLO is breaching, 200 otherwise (including `degraded` —
/// probes that only act on hard failure keep routing traffic while the
/// budget recovers).
pub(super) fn health_body(buf: &mut Vec<u8>, state: &ServerState) -> u16 {
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
    let interval_s = state.rollup_interval.as_secs_f64();
    let mut j = Json::new(buf);
    j.open(b'{');
    // Worst per-SLO state: `ok`, `degraded`, or `breaching`.
    j.key("state").str(verdict.state.name());
    // True when the admission queue has sat at capacity for a full fast
    // window of consecutive rollup ticks.
    j.key("queue_wedged").bool(queue_wedged(state));
    j.key("uptime_s").f64(state.started.elapsed().as_secs_f64());
    // Rollup ticks so far (the first tick is the diffing baseline).
    j.key("ticks").uint(ticks);
    j.key("interval_ms")
        .uint(state.rollup_interval.as_millis() as u64);
    j.key("fast_window_s")
        .f64(state.fast_ticks as f64 * interval_s);
    j.key("slow_window_s")
        .f64(state.slow_ticks as f64 * interval_s);
    // Per-SLO verdicts, in `--slo-p99-ms`/`--slo-error-rate`/
    // `--slo-drop-rate` order; empty when no SLO is configured.
    j.key("slos").open(b'[');
    for s in &verdict.slos {
        j.open(b'{');
        j.key("name").str(s.name);
        j.key("threshold").f64(s.threshold);
        j.key("fast").f64(s.fast);
        j.key("slow").f64(s.slow);
        j.key("state").str(s.state.name());
        j.close(b'}');
    }
    j.close(b']');
    window(j.key("fast"), &fast);
    window(j.key("slow"), &slow);
    j.key("queue_depth").uint(depth);
    j.key("in_flight").uint(in_flight);
    // Slowest retained full traces (id + total ns), the exemplars to pull
    // through `/debug/trace/<id>` when a verdict is bad.
    j.key("exemplars").open(b'[');
    for (trace_id, total_ns) in state.recorder.slowest_ids(5) {
        j.open(b'{');
        j.key("trace_id").str(&trace_id);
        j.key("total_ns").uint(total_ns);
        j.close(b'}');
    }
    j.close(b']');
    j.close(b'}');
    if verdict.state == SloState::Breaching {
        503
    } else {
        200
    }
}

/// `/debug/timeseries`: at most `limit` retained rollup frames, oldest
/// first.
pub(super) fn timeseries_body(buf: &mut Vec<u8>, state: &ServerState, limit: usize) {
    let ring = lock(&state.rollup);
    let skip = ring.len().saturating_sub(limit);
    let mut j = Json::new(buf);
    j.open(b'{');
    j.key("interval_ms")
        .uint(state.rollup_interval.as_millis() as u64);
    // Ring capacity in frames (= the slow window).
    j.key("capacity").uint(ring.capacity() as u64);
    j.key("ticks").uint(ring.ticks());
    j.key("frames").open(b'[');
    for f in ring.frames_oldest_first().skip(skip) {
        let requests = f.counter(Counter::ServeRequests);
        j.open(b'{');
        j.key("seq").uint(f.seq);
        j.key("uptime_s").f64(f.uptime_s);
        j.key("interval_s").f64(f.interval_s);
        j.key("requests").uint(requests);
        j.key("errors").uint(f.counter(Counter::ServeErrors));
        j.key("dropped")
            .uint(f.counter(Counter::ServeDeadlineDropped));
        j.key("qps").f64(if f.interval_s > 0.0 {
            requests as f64 / f.interval_s
        } else {
            0.0
        });
        j.key("p50_ms")
            .f64(f.quantile(Hist::ServeRequestNs, 0.5) / 1e6);
        j.key("p99_ms")
            .f64(f.quantile(Hist::ServeRequestNs, 0.99) / 1e6);
        j.key("queries").uint(f.counter(Counter::Queries));
        j.key("top_down_steps")
            .uint(f.counter(Counter::TopDownSteps));
        j.key("bottom_up_steps")
            .uint(f.counter(Counter::BottomUpSteps));
        j.key("queue_depth").uint(f.queue_depth);
        j.key("in_flight").uint(f.in_flight);
        j.close(b'}');
    }
    j.close(b']');
    j.close(b'}');
}

/// The `/metrics` body, rendered at scrape time from the published
/// per-session snapshots plus the live gauges and build-info series.
pub(super) fn metrics_body(state: &ServerState) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;
    /// The token the rendering path writes for one f64.
    fn f64_token(v: f64) -> String {
        rendered(|b| Json::new(b).f64(v))
    }

    /// The token the rendering path writes for one string.
    fn str_token(s: &str) -> String {
        rendered(|b| Json::new(b).str(s))
    }

    /// Renders into a buffer that holds stale bytes, as a recycled
    /// worker buffer does.
    fn rendered(f: impl FnOnce(&mut Vec<u8>)) -> String {
        let mut buf = b"stale".to_vec();
        f(&mut buf);
        String::from_utf8(buf).unwrap()
    }

    fn pinned_span(execute_ns: u64) -> Span {
        Span {
            parse_ns: 11,
            queue_ns: 22,
            execute_ns,
            session: 1,
        }
    }

    fn pinned_reach(dst: Option<query::VertexInfo>) -> query::ReachResult {
        query::ReachResult {
            src: 3,
            depth: 2,
            visited_vertices: 10,
            traversed_edges: 40,
            dst,
        }
    }

    #[test]
    fn query_bodies_are_byte_pinned() {
        let span = pinned_span(33);
        let spans = r#""spans":{"parse_ns":11,"queue_ns":22,"execute_ns":33,"session":1}"#;
        let reached = query::VertexInfo {
            vertex: 5,
            depth: Some(1),
            parent: Some(3),
        };
        let unreached = query::VertexInfo {
            vertex: 9,
            depth: None,
            parent: None,
        };

        let reach = QueryOutcome::Reach(pinned_reach(None));
        assert_eq!(
            rendered(|b| render_outcome(b, 7, "req-7", &reach, &span)),
            format!(
                r#"{{"id":7,"trace_id":"req-7","src":3,"depth":2,"visited_vertices":10,"traversed_edges":40,"dst":null,{spans}}}"#
            )
        );
        let reach_dst = QueryOutcome::Reach(pinned_reach(Some(reached)));
        assert_eq!(
            rendered(|b| render_outcome(b, 8, "t.1", &reach_dst, &span)),
            format!(
                r#"{{"id":8,"trace_id":"t.1","src":3,"depth":2,"visited_vertices":10,"traversed_edges":40,"dst":{{"vertex":5,"depth":1,"parent":3}},{spans}}}"#
            )
        );
        let path = QueryOutcome::Path(query::PathResult {
            src: 3,
            dst: 5,
            path: vec![3, 4, 5],
        });
        assert_eq!(
            rendered(|b| render_outcome(b, 9, "req-9", &path, &span)),
            format!(
                r#"{{"id":9,"trace_id":"req-9","src":3,"dst":5,"reached":true,"path":[3,4,5],{spans}}}"#
            )
        );
        let no_path = QueryOutcome::Path(query::PathResult {
            src: 3,
            dst: 9,
            path: Vec::new(),
        });
        assert_eq!(
            rendered(|b| render_outcome(b, 10, "req-10", &no_path, &span)),
            format!(
                r#"{{"id":10,"trace_id":"req-10","src":3,"dst":9,"reached":false,"path":[],{spans}}}"#
            )
        );
        let batch = QueryOutcome::Batch(vec![pinned_reach(None), pinned_reach(Some(unreached))]);
        assert_eq!(
            rendered(|b| render_outcome(b, 11, "b-1", &batch, &span)),
            format!(
                r#"{{"id":11,"trace_id":"b-1","results":[{{"src":3,"depth":2,"visited_vertices":10,"traversed_edges":40,"dst":null}},{{"src":3,"depth":2,"visited_vertices":10,"traversed_edges":40,"dst":{{"vertex":9,"depth":null,"parent":null}}}}],{spans}}}"#
            )
        );
    }

    #[test]
    fn deadline_body_is_byte_pinned() {
        assert_eq!(
            rendered(|b| render_deadline(b, 12, "doomed", &pinned_span(0))),
            r#"{"error":"deadline expired while queued; request dropped without executing","id":12,"trace_id":"doomed","spans":{"parse_ns":11,"queue_ns":22,"execute_ns":0,"session":1}}"#
        );
    }

    #[test]
    fn float_and_string_tokens_are_pinned() {
        assert_eq!(f64_token(60.0), "60.0");
        assert_eq!(f64_token(0.0), "0.0");
        assert_eq!(f64_token(0.40001676399999997), "0.40001676399999997");
        assert_eq!(f64_token(2.5e-7), "0.00000025");
        assert_eq!(f64_token(f64::NAN), "null");
        assert_eq!(f64_token(f64::INFINITY), "null");
        assert_eq!(f64_token(f64::NEG_INFINITY), "null");

        assert_eq!(str_token("plain"), r#""plain""#);
        assert_eq!(str_token("héllo"), r#""héllo""#);
        assert_eq!(str_token("a\"b"), r#""a\"b""#);
        assert_eq!(str_token("back\\slash"), r#""back\\slash""#);
        assert_eq!(str_token("tab\there"), r#""tab\there""#);
        assert_eq!(str_token("cr\rlf\n"), r#""cr\rlf\n""#);
        assert_eq!(str_token("GE\x01T"), r#""GE\u0001T""#);
    }

    #[test]
    fn error_bodies_escape_quotes() {
        assert_eq!(
            rendered(|b| error_body(b, "bad \"src\" value")),
            r#"{"error":"bad \"src\" value"}"#
        );
    }
}
