//! The benchmark's own open-loop HTTP client (the `client` layer). It is
//! not `fastbfs loadgen`: a change to the program's load generator must
//! not move the ruler.
//!
//! The whole schedule is drawn up front from the seed. Each request is
//! timed from its *scheduled* arrival, so a stall is charged to every
//! request that was due during it, and the generator records how late it
//! sent each one. Every request carries a `Trace-Id`, which the server
//! echoes and logs, so client and server timings join per request.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::rng::Rng;

/// Per-request client timeout; a request that takes longer is a failure.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /query?src=S&dst=D`: coalesces into waves, tiny body.
    Query,
    /// `GET /path?src=S&dst=D`: dispatched alone, body grows with the path.
    Path,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Scheduled send time, nanoseconds after the window starts.
    pub offset_ns: u64,
    pub endpoint: Endpoint,
    pub src: u32,
    pub dst: u32,
    pub trace_id: String,
}

impl Request {
    pub fn target(&self) -> String {
        let route = match self.endpoint {
            Endpoint::Query => "query",
            Endpoint::Path => "path",
        };
        format!("/{route}?src={}&dst={}", self.src, self.dst)
    }
}

/// What one request saw, all durations in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Record {
    /// Send start minus scheduled arrival: how late the generator ran.
    pub lag_ns: u64,
    pub connect_ns: u64,
    pub send_ns: u64,
    /// End of send to the first response byte.
    pub first_byte_ns: u64,
    /// First response byte to end of stream.
    pub read_ns: u64,
    /// Scheduled arrival to the last response byte.
    pub latency_ns: u64,
    /// HTTP status; 0 when the exchange failed before a status line.
    pub status: u16,
    pub body: String,
    /// Transport failure (connect error, timeout, malformed reply).
    pub error: Option<String>,
}

impl Record {
    pub fn ok(&self) -> bool {
        self.error.is_none() && (200..300).contains(&self.status)
    }
}

/// Open-loop traffic description.
#[derive(Clone, Copy, Debug)]
pub struct Traffic<'a> {
    /// Offered requests per second.
    pub rate: f64,
    /// Requests in the window; the window lasts `count / rate` seconds.
    pub count: usize,
    /// Share of requests sent to `/path`; the rest go to `/query`.
    pub path_share: f64,
    /// Sources are drawn from this pool (the oracle has their answers).
    pub sources: &'a [u32],
    /// Destinations are drawn uniformly from `0..vertices`.
    pub vertices: u32,
}

/// Draws a window's schedule: a Poisson process conditioned on `count`
/// arrivals in `count / rate` seconds, i.e. sorted uniform offsets, so the
/// offered rate is exact while the gaps stay exponential. The same seed
/// and tag give the same schedule.
pub fn schedule(seed: u64, tag: &str, t: &Traffic) -> Vec<Request> {
    assert!(t.rate > 0.0 && !t.sources.is_empty() && t.vertices > 0);
    let mut rng = Rng::new(seed, &format!("schedule-{tag}"));
    let window_ns = t.count as f64 / t.rate * 1e9;
    let mut offsets: Vec<u64> = (0..t.count)
        .map(|_| (rng.unit() * window_ns) as u64)
        .collect();
    offsets.sort_unstable();
    offsets
        .into_iter()
        .enumerate()
        .map(|(i, offset_ns)| Request {
            offset_ns,
            endpoint: if rng.unit() < t.path_share {
                Endpoint::Path
            } else {
                Endpoint::Query
            },
            src: t.sources[rng.below(t.sources.len() as u64) as usize],
            dst: rng.below(t.vertices as u64) as u32,
            trace_id: format!("pb{seed:x}-{tag}-{i}"),
        })
        .collect()
}

/// Sends `requests` open-loop over `lanes` blocking connections (request
/// `i` goes to lane `i % lanes`, so each lane's offsets stay ascending)
/// and returns one record per request, in schedule order, plus the
/// window's wall time from its start to the last response.
pub fn run_window(addr: SocketAddr, requests: &[Request], lanes: usize) -> (Vec<Record>, Duration) {
    let lanes = lanes.max(1);
    let start = Instant::now();
    let mut records = vec![Record::default(); requests.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                scope.spawn(move || {
                    requests
                        .iter()
                        .enumerate()
                        .skip(lane)
                        .step_by(lanes)
                        .map(|(i, r)| (i, send(addr, r, start)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, rec) in h.join().expect("client lane panicked") {
                records[i] = rec;
            }
        }
    });
    (records, start.elapsed())
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Waits for the request's scheduled time, then performs one exchange.
fn send(addr: SocketAddr, r: &Request, start: Instant) -> Record {
    let due = start + Duration::from_nanos(r.offset_ns);
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
    let t0 = Instant::now();
    let mut rec = Record {
        lag_ns: ns(t0.saturating_duration_since(due)),
        ..Record::default()
    };
    if let Err(e) = exchange(addr, r, t0, &mut rec) {
        rec.error = Some(e);
    }
    rec.latency_ns = ns(Instant::now().saturating_duration_since(due));
    rec
}

fn exchange(addr: SocketAddr, r: &Request, t0: Instant, rec: &mut Record) -> Result<(), String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let t1 = Instant::now();
    rec.connect_ns = ns(t1 - t0);
    stream
        .set_read_timeout(Some(REQUEST_TIMEOUT))
        .and_then(|_| stream.set_write_timeout(Some(REQUEST_TIMEOUT)))
        .and_then(|_| stream.set_nodelay(true))
        .map_err(|e| format!("socket options: {e}"))?;
    let head = format!(
        "GET {} HTTP/1.1\r\nHost: {addr}\r\nTrace-Id: {}\r\nConnection: close\r\n\r\n",
        r.target(),
        r.trace_id
    );
    stream
        .write_all(head.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let t2 = Instant::now();
    rec.send_ns = ns(t2 - t1);
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let first = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
    let t3 = Instant::now();
    rec.first_byte_ns = ns(t3 - t2);
    buf.extend_from_slice(&chunk[..first]);
    if first > 0 {
        stream
            .read_to_end(&mut buf)
            .map_err(|e| format!("read: {e}"))?;
    }
    rec.read_ns = ns(t3.elapsed());
    let text = String::from_utf8(buf).map_err(|_| "reply is not UTF-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "reply has no header end".to_string())?;
    rec.status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {:?}", head.lines().next()))?;
    rec.body = body.to_string();
    Ok(())
}

/// `GET path` with no schedule, for probes and control requests.
pub fn get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(REQUEST_TIMEOUT))
        .map_err(|e| format!("socket options: {e}"))?;
    let head = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream
        .write_all(head.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .map_err(|e| format!("read: {e}"))?;
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((&text, ""));
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traffic(sources: &[u32]) -> Traffic<'_> {
        Traffic {
            rate: 200.0,
            count: 500,
            path_share: 0.2,
            sources,
            vertices: 1000,
        }
    }

    #[test]
    fn schedule_is_deterministic_for_a_seed() {
        let pool = [3, 5, 8, 13];
        let a = schedule(42, "fixed", &traffic(&pool));
        let b = schedule(42, "fixed", &traffic(&pool));
        assert_eq!(a, b);
        assert_ne!(a, schedule(43, "fixed", &traffic(&pool)));
        assert_ne!(a, schedule(42, "rung0", &traffic(&pool)));
    }

    #[test]
    fn schedule_offers_the_rate_and_mix() {
        let pool = [3, 5, 8, 13];
        let s = schedule(7, "fixed", &traffic(&pool));
        assert_eq!(s.len(), 500);
        assert!(s.windows(2).all(|w| w[0].offset_ns <= w[1].offset_ns));
        // 500 requests at 200/s fill a 2.5 s window.
        assert!(s.last().unwrap().offset_ns < 2_500_000_000);
        assert!(s.last().unwrap().offset_ns > 2_400_000_000);
        let paths = s.iter().filter(|r| r.endpoint == Endpoint::Path).count();
        assert!((70..130).contains(&paths), "{paths} path requests");
        assert!(s.iter().all(|r| pool.contains(&r.src) && r.dst < 1000));
        let mut ids: Vec<&str> = s.iter().map(|r| r.trace_id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 500);
        assert!(s.iter().all(|r| crate::stats::valid_name(&r.trace_id)));
    }
}
