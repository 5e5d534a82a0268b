//! Trace sinks: where events go.
//!
//! Engines take a `&dyn TraceSink` and call [`TraceSink::record`] once per
//! event. The contract that keeps tracing free when unused: producers must
//! gate any *event construction* work (allocating per-thread vectors,
//! scanning `DP` for duplicate counts) on [`TraceSink::enabled`], so the
//! [`NoopSink`] path costs one virtual call per step and allocates nothing.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::event::TraceEvent;

/// A consumer of trace events. Implementations must be callable from the
/// engine's leader thread while other worker threads run.
pub trait TraceSink: Sync {
    /// Whether producers should build and record events at all. Producers
    /// gate expensive event assembly on this; `record` may still be called
    /// when `false` (it is then a no-op by contract).
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event.
    fn record(&self, event: &TraceEvent);
}

/// Discards everything; reports itself disabled so producers skip event
/// assembly entirely.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: &TraceEvent) {}
}

/// Bounded in-memory sink: keeps the most recent `capacity` events and
/// counts what it had to drop.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    events: Mutex<VecDeque<TraceEvent>>,
    dropped: AtomicU64,
}

impl RingSink {
    /// Ring over at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            events: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted to respect the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copies out the held events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.lock().unwrap().iter().cloned().collect()
    }

    /// Consumes the sink, returning the held events oldest first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events.into_inner().unwrap().into()
    }
}

impl TraceSink for RingSink {
    fn record(&self, event: &TraceEvent) {
        let mut q = self.events.lock().unwrap();
        if q.len() == self.capacity {
            q.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(event.clone());
    }
}

/// Streams events as JSON Lines: one compact JSON object per event, one
/// event per line.
pub struct JsonlSink<W: Write + Send> {
    writer: Mutex<W>,
    errors: AtomicU64,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Sink writing to `writer` (wrap files in a `BufWriter`).
    pub fn new(writer: W) -> Self {
        Self {
            writer: Mutex::new(writer),
            errors: AtomicU64::new(0),
        }
    }

    /// Write errors swallowed so far (`record` cannot return them).
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Flushes and returns the writer.
    pub fn into_inner(self) -> std::io::Result<W> {
        let mut w = self.writer.into_inner().unwrap();
        w.flush()?;
        Ok(w)
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&self, event: &TraceEvent) {
        let line = match serde_json::to_string(event) {
            Ok(s) => s,
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let mut w = self.writer.lock().unwrap();
        if writeln!(w, "{line}").is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Fans every event out to two sinks (chain for more).
pub struct TeeSink<'a> {
    a: &'a dyn TraceSink,
    b: &'a dyn TraceSink,
}

impl<'a> TeeSink<'a> {
    /// Tee over `a` and `b`.
    pub fn new(a: &'a dyn TraceSink, b: &'a dyn TraceSink) -> Self {
        Self { a, b }
    }
}

impl TraceSink for TeeSink<'_> {
    fn enabled(&self) -> bool {
        self.a.enabled() || self.b.enabled()
    }

    fn record(&self, event: &TraceEvent) {
        if self.a.enabled() {
            self.a.record(event);
        }
        if self.b.enabled() {
            self.b.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{StepEvent, TraceEvent};

    fn ev(step: u32) -> TraceEvent {
        TraceEvent::Step(StepEvent {
            step,
            ..Default::default()
        })
    }

    #[test]
    fn noop_is_disabled() {
        let s = NoopSink;
        assert!(!s.enabled());
        s.record(&ev(1)); // must not panic
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let s = RingSink::new(2);
        assert!(s.is_empty());
        for i in 0..5 {
            s.record(&ev(i));
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 3);
        let kept: Vec<u32> = s
            .snapshot()
            .iter()
            .map(|e| match e {
                TraceEvent::Step(s) => s.step,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![3, 4]);
        assert_eq!(s.into_events().len(), 2);
    }

    #[test]
    fn jsonl_writes_one_valid_line_per_event() {
        let s = JsonlSink::new(Vec::new());
        s.record(&ev(1));
        s.record(&ev(2));
        assert_eq!(s.errors(), 0);
        let buf = s.into_inner().unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let e: TraceEvent = serde_json::from_str(line).unwrap();
            assert!(matches!(e, TraceEvent::Step(_)));
        }
    }

    #[test]
    fn tee_records_to_both_and_skips_disabled() {
        let ring_a = RingSink::new(8);
        let ring_b = RingSink::new(8);
        let tee = TeeSink::new(&ring_a, &ring_b);
        assert!(tee.enabled());
        tee.record(&ev(1));
        assert_eq!(ring_a.len(), 1);
        assert_eq!(ring_b.len(), 1);

        let noop = NoopSink;
        let tee = TeeSink::new(&noop, &ring_b);
        assert!(tee.enabled());
        tee.record(&ev(2));
        assert_eq!(ring_b.len(), 2);

        let tee = TeeSink::new(&noop, &noop);
        assert!(!tee.enabled());
    }
}
