//! Windowed telemetry rollups: a preallocated ring of per-interval delta
//! frames over the cumulative registry, plus the burn-rate SLO engine.
//!
//! Every counter in [`crate::registry`] is cumulative-since-boot, which is
//! the right shape for attribution and bench gates but the wrong shape for
//! operational health: a server that degrades mid-run looks fine in
//! aggregate until long after the incident. This module turns successive
//! [`MetricsSnapshot`]s into *rates over recent windows*:
//!
//! * [`RollupRing`] — a fixed-capacity ring of [`RollupFrame`]s. Each
//!   frame stores the per-interval **delta** of every counter and every
//!   histogram bucket (fixed arrays, no heap). [`RollupRing::tick`] diffs
//!   the latest snapshot against the previous cumulative totals and writes
//!   the next slot in place — the warm path performs **zero allocations**
//!   (guarded by `tests/rollup_allocations.rs`).
//! * [`WindowStats`] — the sum of the last *k* frames. Because histogram
//!   *bucket* deltas are retained (not just count/sum), a window yields a
//!   true windowed p50/p99 via the same bucket walk the since-boot
//!   snapshot uses — not a since-boot percentile that averages the
//!   incident away.
//! * [`SloConfig`] / [`evaluate`] — multi-window burn-rate verdicts: a
//!   threshold exceeded over the *fast* window is `breaching` (page now),
//!   exceeded only over the *slow* window is `degraded` (budget still
//!   burnt; don't flap back to `ok` the instant the fast window clears).
//!
//! The ring is sized by the serve layer to cover the slow window; see
//! DESIGN.md §16 for the sizing and vocabulary rationale.

use crate::registry::{bucket_quantile, Counter, Hist, HIST_BUCKETS, NUM_COUNTERS, NUM_HISTS};
use crate::snapshot::MetricsSnapshot;

/// Hard cap on ring capacity; keeps a misconfigured interval/window pair
/// from preallocating unbounded memory (a frame is ~2 KiB).
pub const MAX_RING_CAPACITY: usize = 4096;

/// Cumulative totals as fixed arrays — the diffing baseline for `tick`.
#[derive(Clone)]
struct CumulativeTotals {
    counters: [u64; NUM_COUNTERS],
    buckets: [[u64; HIST_BUCKETS]; NUM_HISTS],
    hist_count: [u64; NUM_HISTS],
    hist_sum: [u64; NUM_HISTS],
    uptime_s: f64,
}

impl CumulativeTotals {
    fn zeroed() -> Self {
        CumulativeTotals {
            counters: [0; NUM_COUNTERS],
            buckets: [[0; HIST_BUCKETS]; NUM_HISTS],
            hist_count: [0; NUM_HISTS],
            hist_sum: [0; NUM_HISTS],
            uptime_s: 0.0,
        }
    }

    /// Copies a snapshot's totals into the fixed arrays without
    /// allocating. Positions beyond the snapshot's vocabulary (an older
    /// producer) read as zero; positions beyond ours are ignored.
    fn load(&mut self, snap: &MetricsSnapshot, uptime_s: f64) {
        self.counters = [0; NUM_COUNTERS];
        for (i, c) in snap.counters.iter().enumerate().take(NUM_COUNTERS) {
            self.counters[i] = c.value;
        }
        self.buckets = [[0; HIST_BUCKETS]; NUM_HISTS];
        self.hist_count = [0; NUM_HISTS];
        self.hist_sum = [0; NUM_HISTS];
        for (h, hist) in snap.histograms.iter().enumerate().take(NUM_HISTS) {
            for (b, v) in hist.buckets.iter().enumerate().take(HIST_BUCKETS) {
                self.buckets[h][b] = *v;
            }
            self.hist_count[h] = hist.count;
            self.hist_sum[h] = hist.sum;
        }
        self.uptime_s = uptime_s;
    }
}

/// One interval's worth of deltas plus point-in-time gauges.
///
/// All storage is fixed-size; frames are preallocated when the ring is
/// built and rewritten in place on wraparound.
#[derive(Clone)]
pub struct RollupFrame {
    /// Monotonic tick sequence number (the baseline tick is seq 0 and
    /// produces no frame; the first frame is seq 1).
    pub seq: u64,
    /// Server uptime at the *end* of the interval, in seconds.
    pub uptime_s: f64,
    /// Measured interval covered by this frame, in seconds.
    pub interval_s: f64,
    /// Admission-queue depth sampled at the tick.
    pub queue_depth: u64,
    /// Requests in flight at the tick.
    pub in_flight: u64,
    counters: [u64; NUM_COUNTERS],
    buckets: [[u64; HIST_BUCKETS]; NUM_HISTS],
    hist_count: [u64; NUM_HISTS],
    hist_sum: [u64; NUM_HISTS],
}

impl RollupFrame {
    fn zeroed() -> Self {
        RollupFrame {
            seq: 0,
            uptime_s: 0.0,
            interval_s: 0.0,
            queue_depth: 0,
            in_flight: 0,
            counters: [0; NUM_COUNTERS],
            buckets: [[0; HIST_BUCKETS]; NUM_HISTS],
            hist_count: [0; NUM_HISTS],
            hist_sum: [0; NUM_HISTS],
        }
    }

    /// Delta of `c` over this interval.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Observations of `h` recorded during this interval.
    pub fn hist_count(&self, h: Hist) -> u64 {
        self.hist_count[h as usize]
    }

    /// Windowed quantile of `h` over this single frame (ns-valued hists
    /// return ns).
    pub fn quantile(&self, h: Hist, q: f64) -> f64 {
        let h = h as usize;
        bucket_quantile(&self.buckets[h], self.hist_count[h], self.hist_sum[h], q)
    }
}

/// Aggregate view over the last *k* frames of a ring: windowed counts,
/// rates, and true windowed quantiles.
pub struct WindowStats {
    /// Frames actually summed (≤ requested: the ring may hold fewer).
    pub frames: usize,
    /// Wall-clock covered by the summed frames, in seconds.
    pub elapsed_s: f64,
    counters: [u64; NUM_COUNTERS],
    buckets: [[u64; HIST_BUCKETS]; NUM_HISTS],
    hist_count: [u64; NUM_HISTS],
    hist_sum: [u64; NUM_HISTS],
}

impl WindowStats {
    fn empty() -> Self {
        WindowStats {
            frames: 0,
            elapsed_s: 0.0,
            counters: [0; NUM_COUNTERS],
            buckets: [[0; HIST_BUCKETS]; NUM_HISTS],
            hist_count: [0; NUM_HISTS],
            hist_sum: [0; NUM_HISTS],
        }
    }

    /// Total delta of `c` over the window.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Per-second rate of `c` over the window (0 for an empty window).
    pub fn rate(&self, c: Counter) -> f64 {
        if self.elapsed_s <= 0.0 {
            0.0
        } else {
            self.counter(c) as f64 / self.elapsed_s
        }
    }

    /// Observations of `h` within the window.
    pub fn hist_count(&self, h: Hist) -> u64 {
        self.hist_count[h as usize]
    }

    /// Sum of observed values of `h` within the window.
    pub fn hist_sum(&self, h: Hist) -> u64 {
        self.hist_sum[h as usize]
    }

    /// Windowed quantile of `h`: the since-boot snapshot's bucket walk
    /// ([`bucket_quantile`]) over this window's bucket deltas only.
    pub fn quantile(&self, h: Hist, q: f64) -> f64 {
        let h = h as usize;
        bucket_quantile(&self.buckets[h], self.hist_count[h], self.hist_sum[h], q)
    }

    /// Answered requests per second over the window.
    pub fn qps(&self) -> f64 {
        self.rate(Counter::ServeRequests)
    }

    /// Windowed request latency quantile in milliseconds.
    pub fn latency_ms(&self, q: f64) -> f64 {
        self.quantile(Hist::ServeRequestNs, q) / 1e6
    }

    /// Errors over (requests + errors) within the window. `ServeErrors`
    /// counts requests rejected before admission, so they are not part of
    /// `ServeRequests` and the denominator adds them back.
    pub fn error_rate(&self) -> f64 {
        let errs = self.counter(Counter::ServeErrors);
        let total = self.counter(Counter::ServeRequests) + errs;
        if total == 0 {
            0.0
        } else {
            errs as f64 / total as f64
        }
    }

    /// Deadline drops over admitted requests within the window (drops are
    /// counted in `ServeRequests`: they were admitted, then expired).
    pub fn drop_rate(&self) -> f64 {
        let reqs = self.counter(Counter::ServeRequests);
        if reqs == 0 {
            0.0
        } else {
            self.counter(Counter::ServeDeadlineDropped) as f64 / reqs as f64
        }
    }

    /// `(top_down, bottom_up)` step deltas — the windowed direction mix.
    pub fn direction_mix(&self) -> (u64, u64) {
        (
            self.counter(Counter::TopDownSteps),
            self.counter(Counter::BottomUpSteps),
        )
    }
}

/// Fixed-capacity ring of delta frames.
///
/// All frames are allocated up front; `tick` and `window` never touch the
/// heap. The first tick only establishes the cumulative baseline and
/// produces no frame (there is no interval to attribute the since-boot
/// totals to).
pub struct RollupRing {
    frames: Vec<RollupFrame>,
    head: usize,
    len: usize,
    ticks: u64,
    prev: CumulativeTotals,
    has_prev: bool,
}

impl RollupRing {
    /// Builds a ring with `capacity` preallocated frames (clamped to
    /// `1..=MAX_RING_CAPACITY`).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.clamp(1, MAX_RING_CAPACITY);
        RollupRing {
            frames: vec![RollupFrame::zeroed(); capacity],
            head: 0,
            len: 0,
            ticks: 0,
            prev: CumulativeTotals::zeroed(),
            has_prev: false,
        }
    }

    /// Frame slots in the ring.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Frames currently retained.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True until the first post-baseline tick lands.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Ticks observed so far (including the baseline tick).
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Ingests the latest cumulative snapshot. Diffs it against the
    /// previous totals and writes one delta frame in place (the first
    /// call records the baseline only). Returns `true` when a frame was
    /// produced.
    ///
    /// Counters are monotonic by construction, but a merged snapshot can
    /// transiently read *lower* than the previous merge when a session's
    /// publish races a restart; deltas saturate at zero rather than
    /// underflow.
    ///
    /// This is the warm path: it must not allocate.
    pub fn tick(
        &mut self,
        snap: &MetricsSnapshot,
        uptime_s: f64,
        queue_depth: u64,
        in_flight: u64,
    ) -> bool {
        self.ticks += 1;
        if !self.has_prev {
            self.prev.load(snap, uptime_s);
            self.has_prev = true;
            return false;
        }
        let cap = self.frames.len();
        let slot = &mut self.frames[self.head];
        slot.seq = self.ticks - 1;
        slot.uptime_s = uptime_s;
        slot.interval_s = (uptime_s - self.prev.uptime_s).max(0.0);
        slot.queue_depth = queue_depth;
        slot.in_flight = in_flight;
        slot.counters = [0; NUM_COUNTERS];
        for (i, c) in snap.counters.iter().enumerate().take(NUM_COUNTERS) {
            slot.counters[i] = c.value.saturating_sub(self.prev.counters[i]);
        }
        slot.buckets = [[0; HIST_BUCKETS]; NUM_HISTS];
        slot.hist_count = [0; NUM_HISTS];
        slot.hist_sum = [0; NUM_HISTS];
        for (h, hist) in snap.histograms.iter().enumerate().take(NUM_HISTS) {
            for (b, v) in hist.buckets.iter().enumerate().take(HIST_BUCKETS) {
                slot.buckets[h][b] = v.saturating_sub(self.prev.buckets[h][b]);
            }
            slot.hist_count[h] = hist.count.saturating_sub(self.prev.hist_count[h]);
            slot.hist_sum[h] = hist.sum.saturating_sub(self.prev.hist_sum[h]);
        }
        self.prev.load(snap, uptime_s);
        self.head = (self.head + 1) % cap;
        self.len = (self.len + 1).min(cap);
        true
    }

    /// Sums the newest `ticks` frames (fewer if the ring holds fewer).
    /// Allocation-free.
    pub fn window(&self, ticks: usize) -> WindowStats {
        let take = ticks.min(self.len);
        let mut w = WindowStats::empty();
        let cap = self.frames.len();
        for back in 1..=take {
            // head points at the next slot to write; newest frame is one
            // behind it.
            let idx = (self.head + cap - back) % cap;
            let f = &self.frames[idx];
            w.frames += 1;
            w.elapsed_s += f.interval_s;
            for i in 0..NUM_COUNTERS {
                w.counters[i] += f.counters[i];
            }
            for h in 0..NUM_HISTS {
                for b in 0..HIST_BUCKETS {
                    w.buckets[h][b] += f.buckets[h][b];
                }
                w.hist_count[h] += f.hist_count[h];
                w.hist_sum[h] += f.hist_sum[h];
            }
        }
        w
    }

    /// Retained frames, oldest first.
    pub fn frames_oldest_first(&self) -> impl Iterator<Item = &RollupFrame> {
        let cap = self.frames.len();
        let len = self.len;
        let head = self.head;
        (0..len).map(move |i| &self.frames[(head + cap - len + i) % cap])
    }
}

/// SLO thresholds; a `None` threshold is not evaluated.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct SloConfig {
    /// Windowed p99 request latency ceiling, in milliseconds.
    pub p99_ms: Option<f64>,
    /// Windowed error-rate ceiling (errors / (requests + errors)).
    pub error_rate: Option<f64>,
    /// Windowed deadline-drop-rate ceiling (drops / requests).
    pub drop_rate: Option<f64>,
}

impl SloConfig {
    /// True when at least one threshold is configured.
    pub fn any(&self) -> bool {
        self.p99_ms.is_some() || self.error_rate.is_some() || self.drop_rate.is_some()
    }
}

/// Health verdict vocabulary (see DESIGN.md §16).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloState {
    /// Within budget over both windows.
    Ok,
    /// Over budget on the slow window only: the incident is over (or not
    /// yet acute) but the error budget is still burnt.
    Degraded,
    /// Over budget on the fast window: burning budget *right now*.
    Breaching,
}

impl SloState {
    /// Stable lowercase name used in `/debug/health` JSON.
    pub fn name(self) -> &'static str {
        match self {
            SloState::Ok => "ok",
            SloState::Degraded => "degraded",
            SloState::Breaching => "breaching",
        }
    }
}

/// One SLO's evaluation: the threshold, both windowed values, and the
/// resulting state.
#[derive(Clone, Debug)]
pub struct SloEval {
    /// Stable SLO name: `p99_ms`, `error_rate`, or `drop_rate`.
    pub name: &'static str,
    /// Configured ceiling.
    pub threshold: f64,
    /// Value over the fast window.
    pub fast: f64,
    /// Value over the slow window.
    pub slow: f64,
    /// Verdict for this SLO.
    pub state: SloState,
}

/// Overall verdict: the worst per-SLO state plus each evaluation.
#[derive(Clone, Debug)]
pub struct HealthVerdict {
    /// Worst state across configured SLOs (`Ok` when none configured).
    pub state: SloState,
    /// Per-SLO evaluations, in config order.
    pub slos: Vec<SloEval>,
}

fn eval_one(name: &'static str, threshold: f64, fast: f64, slow: f64) -> SloEval {
    let state = if fast > threshold {
        SloState::Breaching
    } else if slow > threshold {
        SloState::Degraded
    } else {
        SloState::Ok
    };
    SloEval {
        name,
        threshold,
        fast,
        slow,
        state,
    }
}

/// Evaluates every configured SLO over the fast and slow windows.
///
/// Burn-rate semantics: exceeding the threshold over the *fast* window is
/// `breaching` regardless of the slow window (acute, page-worthy);
/// exceeding it only over the *slow* window is `degraded` (recent budget
/// burn; keeps the verdict from flapping straight back to `ok` the moment
/// a quiet fast window rolls in).
pub fn evaluate(cfg: &SloConfig, fast: &WindowStats, slow: &WindowStats) -> HealthVerdict {
    let mut slos = Vec::new();
    if let Some(t) = cfg.p99_ms {
        slos.push(eval_one(
            "p99_ms",
            t,
            fast.latency_ms(0.99),
            slow.latency_ms(0.99),
        ));
    }
    if let Some(t) = cfg.error_rate {
        slos.push(eval_one(
            "error_rate",
            t,
            fast.error_rate(),
            slow.error_rate(),
        ));
    }
    if let Some(t) = cfg.drop_rate {
        slos.push(eval_one("drop_rate", t, fast.drop_rate(), slow.drop_rate()));
    }
    let state = slos.iter().map(|s| s.state).max().unwrap_or(SloState::Ok);
    HealthVerdict { state, slos }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn snap_with(queries: u64, request_ns: &[u64]) -> MetricsSnapshot {
        let mut reg = MetricsRegistry::new(1);
        {
            let mut d = reg.driver();
            d.add(Counter::Queries, queries);
            d.add(Counter::ServeRequests, request_ns.len() as u64);
            for &ns in request_ns {
                d.observe(Hist::ServeRequestNs, ns);
            }
        }
        reg.snapshot()
    }

    #[test]
    fn baseline_tick_produces_no_frame() {
        let mut ring = RollupRing::new(8);
        assert!(!ring.tick(&snap_with(5, &[]), 1.0, 0, 0));
        assert!(ring.is_empty());
        assert_eq!(ring.ticks(), 1);
        // The window over an empty ring is all zeros.
        let w = ring.window(8);
        assert_eq!(w.frames, 0);
        assert_eq!(w.qps(), 0.0);
    }

    #[test]
    fn tick_diffs_against_previous_totals() {
        let mut ring = RollupRing::new(8);
        ring.tick(&snap_with(10, &[1000]), 1.0, 0, 0);
        assert!(ring.tick(&snap_with(17, &[1000, 2000, 4000]), 2.0, 3, 1));
        let w = ring.window(1);
        assert_eq!(w.frames, 1);
        assert_eq!(w.counter(Counter::Queries), 7);
        assert_eq!(w.counter(Counter::ServeRequests), 2);
        assert_eq!(w.hist_count(Hist::ServeRequestNs), 2);
        assert!((w.elapsed_s - 1.0).abs() < 1e-9);
        assert!((w.rate(Counter::Queries) - 7.0).abs() < 1e-9);
        let newest = ring.frames_oldest_first().last().unwrap();
        assert_eq!(newest.queue_depth, 3);
        assert_eq!(newest.in_flight, 1);
        assert_eq!(newest.seq, 1);
    }

    #[test]
    fn regressing_totals_saturate_to_zero() {
        let mut ring = RollupRing::new(4);
        ring.tick(&snap_with(100, &[5000]), 1.0, 0, 0);
        assert!(ring.tick(&snap_with(40, &[]), 2.0, 0, 0));
        let w = ring.window(1);
        assert_eq!(w.counter(Counter::Queries), 0);
        assert_eq!(w.hist_count(Hist::ServeRequestNs), 0);
    }

    #[test]
    fn ring_wraparound_keeps_newest_frames() {
        let mut ring = RollupRing::new(3);
        let mut total = 0u64;
        ring.tick(&snap_with(total, &[]), 0.0, 0, 0);
        for i in 1..=7u64 {
            total += i;
            ring.tick(&snap_with(total, &[]), i as f64, 0, 0);
        }
        assert_eq!(ring.len(), 3);
        // Newest three deltas are 5, 6, 7.
        let w = ring.window(3);
        assert_eq!(w.counter(Counter::Queries), 18);
        let seqs: Vec<u64> = ring.frames_oldest_first().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![5, 6, 7]);
        // A narrower window sums only the newest frames.
        assert_eq!(ring.window(1).counter(Counter::Queries), 7);
        // Requesting more than retained clamps.
        assert_eq!(ring.window(100).frames, 3);
    }

    #[test]
    fn windowed_quantiles_reflect_only_the_window() {
        let mut ring = RollupRing::new(8);
        // Baseline with a pile of fast requests already observed.
        ring.tick(&snap_with(0, &[100, 100, 100, 100]), 1.0, 0, 0);
        // The interval itself saw slow requests only.
        ring.tick(
            &snap_with(0, &[100, 100, 100, 100, 1_000_000, 1_000_000]),
            2.0,
            0,
            0,
        );
        let w = ring.window(1);
        assert_eq!(w.hist_count(Hist::ServeRequestNs), 2);
        // Since-boot p50 would be ~100ns; the windowed p50 must land in
        // the ~1ms bucket.
        assert!(w.quantile(Hist::ServeRequestNs, 0.5) > 500_000.0);
    }

    #[test]
    fn derived_rates() {
        let mut w = WindowStats::empty();
        w.elapsed_s = 2.0;
        w.counters[Counter::ServeRequests as usize] = 10;
        w.counters[Counter::ServeErrors as usize] = 10;
        w.counters[Counter::ServeDeadlineDropped as usize] = 5;
        w.counters[Counter::TopDownSteps as usize] = 30;
        w.counters[Counter::BottomUpSteps as usize] = 10;
        assert!((w.qps() - 5.0).abs() < 1e-9);
        assert!((w.error_rate() - 0.5).abs() < 1e-9);
        assert!((w.drop_rate() - 0.5).abs() < 1e-9);
        assert_eq!(w.direction_mix(), (30, 10));
        // Empty window: all rates are defined and zero.
        let e = WindowStats::empty();
        assert_eq!(e.qps(), 0.0);
        assert_eq!(e.error_rate(), 0.0);
        assert_eq!(e.drop_rate(), 0.0);
        assert_eq!(e.latency_ms(0.99), 0.0);
    }

    #[test]
    fn slo_states_follow_burn_rate_windows() {
        let mut fast = WindowStats::empty();
        let mut slow = WindowStats::empty();
        fast.elapsed_s = 1.0;
        slow.elapsed_s = 5.0;
        let cfg = SloConfig {
            p99_ms: None,
            error_rate: Some(0.1),
            drop_rate: Some(0.1),
        };

        // Quiet: ok.
        let v = evaluate(&cfg, &fast, &slow);
        assert_eq!(v.state, SloState::Ok);
        assert_eq!(v.slos.len(), 2);

        // Acute: fast window over threshold -> breaching.
        fast.counters[Counter::ServeRequests as usize] = 10;
        fast.counters[Counter::ServeErrors as usize] = 10;
        let v = evaluate(&cfg, &fast, &slow);
        assert_eq!(v.state, SloState::Breaching);
        assert_eq!(v.slos[0].state, SloState::Breaching);
        assert_eq!(v.slos[0].name, "error_rate");

        // Recovering: only the slow window still over -> degraded.
        fast.counters[Counter::ServeErrors as usize] = 0;
        slow.counters[Counter::ServeRequests as usize] = 10;
        slow.counters[Counter::ServeErrors as usize] = 10;
        let v = evaluate(&cfg, &fast, &slow);
        assert_eq!(v.state, SloState::Degraded);

        // No SLOs configured: always ok.
        let v = evaluate(&SloConfig::default(), &fast, &slow);
        assert_eq!(v.state, SloState::Ok);
        assert!(v.slos.is_empty());
    }

    #[test]
    fn bucket_quantile_walks_and_interpolates() {
        let mut buckets = [0u64; HIST_BUCKETS];
        // 10 values of 100 in bucket 7 (64..=127).
        buckets[7] = 10;
        let p50 = bucket_quantile(&buckets, 10, 1000, 0.5);
        assert!(p50 > 63.0 && p50 <= 127.0);
        // Rank 9.9 of 10 interpolates 99% of the way from 64 to 127.
        let p99 = bucket_quantile(&buckets, 10, 1000, 0.99);
        assert!((p99 - 126.37).abs() < 1e-9, "{p99}");
        assert_eq!(bucket_quantile(&buckets, 0, 0, 0.5), 0.0);
        // Quantiles are monotone in q.
        buckets[12] = 10;
        let lo = bucket_quantile(&buckets, 20, 1000 + 10 * 3000, 0.25);
        let hi = bucket_quantile(&buckets, 20, 1000 + 10 * 3000, 0.99);
        assert!(lo <= hi);
    }

    #[test]
    fn one_tick_window_quantiles_equal_the_snapshot() {
        let observations = [90, 100, 700, 900, 5_000, 70_000, 70_001, 1 << 20];
        let snap = snap_with(0, &observations);
        let mut ring = RollupRing::new(4);
        ring.tick(&snap_with(0, &[]), 1.0, 0, 0);
        ring.tick(&snap, 2.0, 0, 0);
        let window = ring.window(1);
        let frame = ring.frames_oldest_first().last().unwrap();
        let since_boot = snap.histogram(Hist::ServeRequestNs);
        for q in [0.5, 0.9, 0.99] {
            let want = since_boot.quantile(q);
            assert_eq!(window.quantile(Hist::ServeRequestNs, q), want, "q {q}");
            assert_eq!(frame.quantile(Hist::ServeRequestNs, q), want, "q {q}");
        }
    }

    #[test]
    fn capacity_is_clamped() {
        assert_eq!(RollupRing::new(0).capacity(), 1);
        assert_eq!(RollupRing::new(1 << 20).capacity(), MAX_RING_CAPACITY);
    }
}
