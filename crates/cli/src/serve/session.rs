//! Session dispatchers: each owns one warm [`BfsSession`] and its
//! registry, pops one job at a time off the admission queue, answers it
//! (504 at pop time if its deadline lapsed, otherwise through
//! [`query::execute`]), publishes its snapshot for the scrape path, and
//! records the request in the flight recorder.

use std::io::Write as _;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use bfs_core::engine::BfsOutput;
use bfs_core::query;
use bfs_core::session::BfsSession;
use bfs_metrics::{Counter, Hist};
use bfs_trace::{RequestTrace, TraceDigest, LEVEL_DIGEST_CAP};

use super::admission::{Job, Reply, Ticket};
use super::render::{render_deadline, render_outcome, Span};
use super::{elapsed_ns, lock, ServerState};

/// Minimum interval between a busy dispatcher's snapshot publishes;
/// bounds the per-request metrics overhead and the staleness of scrapes
/// under load. An idle queue always publishes before replying (see
/// [`serve_job`]).
const PUBLISH_INTERVAL: Duration = Duration::from_millis(50);

/// One session dispatcher: warms its slice of the warmup roots, then
/// pops one job at a time off the admission queue until shutdown.
/// Returns `(requests answered, traversals run)`.
pub(super) fn run_session(
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
        super::admission::shed_hold::hold(state.local.port());
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
    let ticket = &mut job.ticket;
    if expired {
        render_deadline(&mut job.buf, ticket.id, &ticket.trace_id, &span);
    } else {
        let exec = Instant::now();
        let outcome = query::execute(session, &job.kind, out);
        span.execute_ns = elapsed_ns(exec);
        let ser = Instant::now();
        render_outcome(&mut job.buf, ticket.id, &ticket.trace_id, &outcome, &span);
        serialize_ns = elapsed_ns(ser);
    }
    let total_ns = elapsed_ns(ticket.arrival);
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
    let trace_id = std::mem::take(&mut ticket.trace_id);
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
                query: std::mem::take(&mut ticket.query),
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
        status: if expired { 504 } else { 200 },
        body: job.buf,
    });
}

/// Publishes the session's registry snapshot for the scrape path.
fn publish(idx: usize, session: &mut BfsSession<'_>, state: &ServerState) {
    let snap = session.metrics_snapshot();
    *lock(&state.sessions[idx].snapshot) = snap;
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

/// A query request its HTTP worker answered instead of a session: a 4xx,
/// a shed, or a dispatch timeout.
pub(super) struct Failure<'a> {
    /// HTTP status of the answer.
    pub(super) status: u16,
    /// Trace outcome: `client_error`, `shed`, or `timeout`.
    pub(super) outcome: &'static str,
    pub(super) error: &'a str,
}

/// Records a worker-side failure as an always-kept trace. Workers may
/// not touch a session registry, so the sampled count rides the drained
/// `trace_sampled_errors` atomic.
pub(super) fn record_failure_trace(
    state: &ServerState,
    ticket: Ticket,
    parse_ns: u64,
    failure: Failure<'_>,
) {
    state.trace_sampled_errors.fetch_add(1, Ordering::Relaxed);
    record_full_trace(
        state,
        RequestTrace {
            id: ticket.trace_id,
            query: ticket.query,
            status: failure.status,
            outcome: failure.outcome.to_string(),
            error: Some(failure.error.to_string()),
            sampled: true,
            parse_ns,
            queue_ns: 0,
            execute_ns: 0,
            serialize_ns: 0,
            total_ns: elapsed_ns(ticket.arrival),
            session: None,
            levels: Vec::new(),
            levels_truncated: 0,
        },
    );
}
