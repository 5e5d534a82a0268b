//! The admission queue: a query request an HTTP worker has validated
//! becomes a [`Job`] in one mutex-guarded `VecDeque` bounded by
//! `--queue-cap`, or is shed with an immediate 503 when the queue is full
//! or the server is stopping. The worker then blocks on the reply and
//! writes it back, recycling its serialization buffer.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bfs_core::query::QueryKind;

use super::routes::reply_error;
use super::session::{record_failure_trace, Failure};
use super::{elapsed_ns, lock, ServerState};
use crate::http;

/// How long an HTTP worker waits for a dispatcher before giving up with
/// a 504. Generous: a cold huge-graph query plus a deep queue can
/// legitimately take seconds.
const DISPATCH_TIMEOUT: Duration = Duration::from_secs(60);

/// The admission queue and its occupancy accounting. One lock holds all
/// three so scrapes read a consistent picture: a request is *either*
/// queued *or* in flight, never both, and the transition happens under
/// this lock.
pub(super) struct Admission {
    pub(super) queue: VecDeque<Job>,
    /// Jobs popped by a dispatcher and not yet answered.
    pub(super) in_flight: u64,
    /// Mirrors `ServerState::stop` so dispatchers blocked on the condvar
    /// observe shutdown without racing the atomic.
    pub(super) stop: bool,
}

/// What identifies one query request from its first byte to its trace:
/// the id its reply echoes, its flight-recorder trace id and descriptor,
/// and its arrival.
#[derive(Clone)]
pub(super) struct Ticket {
    pub(super) id: u64,
    /// The client's `Trace-Id` header or the generated `req-<id>`.
    pub(super) trace_id: String,
    /// Human-readable descriptor for the recorded trace.
    pub(super) query: String,
    pub(super) arrival: Instant,
}

/// One admitted query, owned by a dispatcher from dequeue on.
pub(super) struct Job {
    pub(super) ticket: Ticket,
    pub(super) kind: QueryKind,
    pub(super) parse_ns: u64,
    pub(super) enqueued: Instant,
    /// Answer-by instant; `None` means no budget. Checked when a
    /// dispatcher pops the job: expired jobs get a 504 and never run.
    pub(super) deadline: Option<Instant>,
    /// The worker's serialization buffer; the response body is rendered
    /// into it and it travels back via the reply.
    pub(super) buf: Vec<u8>,
    pub(super) resp: mpsc::Sender<Reply>,
}

/// A dispatcher's answer to one request.
pub(super) struct Reply {
    pub(super) status: u16,
    pub(super) body: Vec<u8>,
}

/// Queue depth and in-flight count sampled together under the admission
/// lock, so `depth + in_flight` never over-counts a request that is
/// mid-handoff between the queue and a session.
pub(super) fn admission_levels(state: &ServerState) -> (u64, u64) {
    let adm = lock(&state.admission);
    (adm.queue.len() as u64, adm.in_flight)
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

/// Admits the request (or sheds it with 503) and relays the session's
/// reply, reclaiming the serialization buffer for the next request.
pub(super) fn enqueue_and_reply(
    stream: &mut TcpStream,
    state: &ServerState,
    ticket: Ticket,
    kind: QueryKind,
    deadline: Option<Instant>,
    buf: &mut Vec<u8>,
) {
    let parse_ns = elapsed_ns(ticket.arrival);
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
            let shed = Failure {
                status: 503,
                outcome: "shed",
                error: msg,
            };
            record_failure_trace(state, ticket, parse_ns, shed);
            // Retry-After from the windowed drain rate: how long the
            // current queue takes to clear at the fast window's qps.
            let retry = retry_after_s(state, depth).to_string();
            reply_error(state, stream, buf, 503, msg, &[("Retry-After", &retry)]);
            return;
        }
        buf.clear();
        adm.queue.push_back(Job {
            // The job carries a clone so the dispatch-timeout arm below
            // can still record a trace after handing the original off.
            ticket: ticket.clone(),
            kind,
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
            let timeout = Failure {
                status: 504,
                outcome: "timeout",
                error: "dispatch timed out",
            };
            record_failure_trace(state, ticket, parse_ns, timeout);
            reply_error(state, stream, buf, 504, "dispatch timed out", &[]);
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
pub(super) mod shed_hold {
    use std::sync::{Condvar, Mutex};
    use std::time::{Duration, Instant};

    pub(in crate::serve) const MAX_HOLD: Duration = Duration::from_secs(10);

    /// `(port, shed since armed)` per armed server.
    static ARMED: Mutex<Vec<(u16, bool)>> = Mutex::new(Vec::new());
    static SHED: Condvar = Condvar::new();

    pub(in crate::serve) fn arm(port: u16) {
        let mut armed = ARMED.lock().unwrap();
        armed.retain(|&(p, _)| p != port);
        armed.push((port, false));
    }

    pub(in crate::serve) fn on_shed(port: u16) {
        let mut armed = ARMED.lock().unwrap();
        if let Some(entry) = armed.iter_mut().find(|(p, _)| *p == port) {
            entry.1 = true;
            SHED.notify_all();
        }
    }

    pub(in crate::serve) fn hold(port: u16) {
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
