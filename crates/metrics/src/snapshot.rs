//! Point-in-time, serializable view of a registry: aggregated counters,
//! per-thread counter rows (for load-imbalance analysis), and merged
//! histograms with power-of-two buckets.

use serde::{Deserialize, Serialize};

use crate::registry::{
    bucket_quantile, Counter, Hist, SlotData, HIST_BUCKETS, NUM_COUNTERS, NUM_HISTS,
};
use bfs_platform::PerThreadSlots;

/// One named counter total.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Stable counter name ([`Counter::name`]).
    pub name: String,
    /// Summed value across every slot.
    pub value: u64,
}

/// One worker thread's raw counter row, aligned with the snapshot's
/// `counters` order.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ThreadCounters {
    /// Pool thread id.
    pub thread: usize,
    /// Counter values in [`Counter::ALL`] order.
    pub values: Vec<u64>,
}

/// One merged histogram.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Stable histogram name ([`Hist::name`]).
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Per-bucket observation counts; bucket `i` holds values with bit
    /// length `i` (inclusive upper bound `2^i - 1`).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Bucket-interpolated quantile (`q` in `0.0..=1.0`); see
    /// [`bucket_quantile`]. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        bucket_quantile(&self.buckets, self.count, self.sum, q)
    }

    /// Mean observed value; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The full registry view. Aggregates include the driver slot; the
/// `per_thread` rows cover worker slots only (the driver slot holds no
/// thread-scope counters).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Worker slots merged (excludes the driver slot).
    pub workers: usize,
    /// Aggregated totals in [`Counter::ALL`] order.
    pub counters: Vec<CounterSample>,
    /// Raw per-worker counter rows.
    pub per_thread: Vec<ThreadCounters>,
    /// Merged histograms in [`Hist::ALL`] order.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    pub(crate) fn collect(slots: &mut PerThreadSlots<SlotData>, workers: usize) -> Self {
        let mut totals = [0u64; NUM_COUNTERS];
        let mut buckets = [[0u64; HIST_BUCKETS]; NUM_HISTS];
        let mut hist_count = [0u64; NUM_HISTS];
        let mut hist_sum = [0u64; NUM_HISTS];
        let mut per_thread = Vec::with_capacity(workers);
        for (i, s) in slots.iter_mut().enumerate() {
            for (t, v) in totals.iter_mut().zip(s.counters.iter()) {
                *t += v;
            }
            for h in 0..NUM_HISTS {
                for (b, v) in buckets[h].iter_mut().zip(s.buckets[h].iter()) {
                    *b += v;
                }
                hist_count[h] += s.hist_count[h];
                hist_sum[h] += s.hist_sum[h];
            }
            if i < workers {
                per_thread.push(ThreadCounters {
                    thread: i,
                    values: s.counters.to_vec(),
                });
            }
        }
        MetricsSnapshot {
            workers,
            counters: Counter::ALL
                .iter()
                .map(|c| CounterSample {
                    name: c.name().to_string(),
                    value: totals[*c as usize],
                })
                .collect(),
            per_thread,
            histograms: Hist::ALL
                .iter()
                .map(|h| HistogramSnapshot {
                    name: h.name().to_string(),
                    count: hist_count[*h as usize],
                    sum: hist_sum[*h as usize],
                    buckets: buckets[*h as usize].to_vec(),
                })
                .collect(),
        }
    }

    /// Folds `other` into `self`: counter totals and histograms sum, and
    /// `other`'s per-thread rows are appended with their thread ids
    /// shifted past `self`'s workers so every row stays distinct. This is
    /// how a multi-session server presents one fleet-wide exposition from
    /// per-session registries: counters from the same build share the
    /// vocabulary, so positional summing is exact.
    ///
    /// # Panics
    /// Panics if the two snapshots disagree on counter or histogram
    /// vocabulary (different builds).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        assert_eq!(
            self.counters.len(),
            other.counters.len(),
            "snapshot counter vocabularies differ"
        );
        assert_eq!(
            self.histograms.len(),
            other.histograms.len(),
            "snapshot histogram vocabularies differ"
        );
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            debug_assert_eq!(a.name, b.name);
            a.value += b.value;
        }
        for (a, b) in self.histograms.iter_mut().zip(other.histograms.iter()) {
            debug_assert_eq!(a.name, b.name);
            a.count += b.count;
            a.sum += b.sum;
            for (x, y) in a.buckets.iter_mut().zip(b.buckets.iter()) {
                *x += y;
            }
        }
        let base = self.workers;
        self.per_thread.extend(other.per_thread.iter().map(|t| {
            let mut t = t.clone();
            t.thread += base;
            t
        }));
        self.workers += other.workers;
    }

    /// Aggregated total of one counter.
    pub fn total(&self, c: Counter) -> u64 {
        self.counters[c as usize].value
    }

    /// One worker's value of one counter.
    pub fn thread_total(&self, thread: usize, c: Counter) -> u64 {
        self.per_thread[thread].values[c as usize]
    }

    /// Per-socket sums of one counter, grouping worker threads into
    /// consecutive runs of `lanes_per_socket`.
    pub fn per_socket(&self, lanes_per_socket: usize, c: Counter) -> Vec<u64> {
        assert!(lanes_per_socket > 0);
        let sockets = self.workers.div_ceil(lanes_per_socket);
        let mut out = vec![0u64; sockets];
        for t in &self.per_thread {
            out[t.thread / lanes_per_socket] += t.values[c as usize];
        }
        out
    }

    /// One merged histogram.
    pub fn histogram(&self, h: Hist) -> &HistogramSnapshot {
        &self.histograms[h as usize]
    }

    /// Per-worker busy nanoseconds: phases + rearrangement (barrier wait
    /// excluded — that is the *idle* side of imbalance).
    pub fn thread_busy_ns(&self, thread: usize) -> u64 {
        self.thread_total(thread, Counter::Phase1Ns)
            + self.thread_total(thread, Counter::Phase2Ns)
            + self.thread_total(thread, Counter::BottomUpNs)
            + self.thread_total(thread, Counter::RearrangeNs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn filled() -> MetricsSnapshot {
        let reg = MetricsRegistry::new(4);
        for t in 0..4 {
            let mut w = reg.writer(t);
            w.add(Counter::Phase1Ns, (t as u64 + 1) * 100);
            w.add(Counter::ScatteredEdges, 50);
            w.observe(Hist::StepNs, 700 * (t as u64 + 1));
        }
        let mut d = reg.driver();
        d.add(Counter::Queries, 2);
        d.observe(Hist::QueryNs, 1 << 20);
        drop(d);
        let mut reg = reg;
        reg.snapshot()
    }

    #[test]
    fn totals_per_thread_and_per_socket_agree() {
        let s = filled();
        assert_eq!(s.total(Counter::Phase1Ns), 1000);
        assert_eq!(s.total(Counter::ScatteredEdges), 200);
        assert_eq!(s.total(Counter::Queries), 2);
        assert_eq!(s.per_thread.len(), 4);
        assert_eq!(s.thread_total(2, Counter::Phase1Ns), 300);
        assert_eq!(s.per_socket(2, Counter::Phase1Ns), vec![300, 700]);
        assert_eq!(s.thread_busy_ns(3), 400);
    }

    #[test]
    fn histograms_merge_and_quantile_is_monotone() {
        let s = filled();
        let h = s.histogram(Hist::StepNs);
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 700 + 1400 + 2100 + 2800);
        assert!((h.mean() - 1750.0).abs() < 1e-9);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 > 0.0 && p50 <= p99, "p50 {p50} p99 {p99}");
        // All four values have bit length 10..=12, so quantiles stay in
        // that range's bucket bounds.
        assert!(p99 <= 4095.0, "p99 {p99}");
        assert_eq!(s.histogram(Hist::QueryNs).count, 1);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let mut reg = MetricsRegistry::new(1);
        let s = reg.snapshot();
        assert_eq!(s.histogram(Hist::StepNs).quantile(0.5), 0.0);
        assert_eq!(s.histogram(Hist::StepNs).mean(), 0.0);
    }

    #[test]
    fn merge_sums_totals_and_renumbers_threads() {
        let mut a = filled();
        let b = filled();
        a.merge(&b);
        assert_eq!(a.workers, 8);
        assert_eq!(a.total(Counter::Queries), 4);
        assert_eq!(a.total(Counter::Phase1Ns), 2000);
        assert_eq!(a.per_thread.len(), 8);
        // b's thread 0 landed at thread id 4 with its row intact.
        assert_eq!(a.thread_total(4, Counter::Phase1Ns), 100);
        let h = a.histogram(Hist::StepNs);
        assert_eq!(h.count, 8);
        assert_eq!(h.sum, 2 * (700 + 1400 + 2100 + 2800));
        // Merging an empty snapshot is the identity on totals.
        let mut reg = MetricsRegistry::new(1);
        let empty = reg.snapshot();
        let before = a.total(Counter::Queries);
        a.merge(&empty);
        assert_eq!(a.total(Counter::Queries), before);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let s = filled();
        let text = serde_json::to_string(&s).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, s);
    }
}
