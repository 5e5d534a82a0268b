//! Prometheus text exposition (version 0.0.4) of a [`MetricsSnapshot`].
//!
//! Naming: every series is prefixed `fastbfs_`. Aggregated counters become
//! `fastbfs_<name>_total`; per-thread rows become
//! `fastbfs_thread_<name>_total{thread="i"}`; histograms follow the
//! standard `_bucket{le=...}` / `_sum` / `_count` convention with
//! cumulative buckets at the registry's power-of-two bounds.

use crate::registry::{bucket_upper_bound, Counter, Hist, HIST_BUCKETS};
use crate::snapshot::MetricsSnapshot;

/// Thread-scope counters worth a per-thread series (the load-imbalance
/// signals); driver-scope totals stay aggregate-only to keep the page small.
const PER_THREAD: [Counter; 6] = [
    Counter::Phase1Ns,
    Counter::Phase2Ns,
    Counter::BottomUpNs,
    Counter::RearrangeNs,
    Counter::BarrierNs,
    Counter::Enqueued,
];

/// Renders the snapshot as Prometheus text exposition.
pub fn render(snap: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for c in Counter::ALL {
        let name = c.name();
        let _ = writeln!(out, "# HELP fastbfs_{name}_total {}", help(c));
        let _ = writeln!(out, "# TYPE fastbfs_{name}_total counter");
        let _ = writeln!(out, "fastbfs_{name}_total {}", snap.total(c));
    }
    for c in PER_THREAD {
        let name = c.name();
        let _ = writeln!(out, "# TYPE fastbfs_thread_{name}_total counter");
        for t in &snap.per_thread {
            let _ = writeln!(
                out,
                "fastbfs_thread_{name}_total{{thread=\"{}\"}} {}",
                t.thread, t.values[c as usize]
            );
        }
    }
    for h in Hist::ALL {
        let hs = snap.histogram(h);
        let name = h.name();
        let _ = writeln!(out, "# TYPE fastbfs_{name} histogram");
        let mut cum = 0u64;
        for (i, &c) in hs.buckets.iter().enumerate() {
            cum += c;
            if c == 0 && i + 1 < HIST_BUCKETS {
                continue; // keep the page sparse; cumulative sums stay exact
            }
            let le = if i + 1 >= HIST_BUCKETS {
                "+Inf".to_string()
            } else {
                bucket_upper_bound(i).to_string()
            };
            let _ = writeln!(out, "fastbfs_{name}_bucket{{le=\"{le}\"}} {cum}");
        }
        if hs.buckets[HIST_BUCKETS - 1] == 0 {
            let _ = writeln!(out, "fastbfs_{name}_bucket{{le=\"+Inf\"}} {cum}");
        }
        let _ = writeln!(out, "fastbfs_{name}_sum {}", hs.sum);
        let _ = writeln!(out, "fastbfs_{name}_count {}", hs.count);
    }
    out
}

fn help(c: Counter) -> &'static str {
    match c {
        Counter::Queries => "BFS queries served",
        Counter::QueryNs => "Query wall-clock nanoseconds",
        Counter::Steps => "BFS steps executed",
        Counter::TopDownSteps => "Steps run with the top-down kernel",
        Counter::BottomUpSteps => "Steps run with the bottom-up kernel",
        Counter::DirectionSwitches => "Per-level direction changes",
        Counter::VisitedVertices => "Vertices visited",
        Counter::TraversedEdges => "Edges traversed",
        Counter::DuplicateEnqueues => "Benign-race duplicate enqueues",
        Counter::Phase1Ns => "Phase I scatter nanoseconds (all threads)",
        Counter::Phase2Ns => "Phase II bin-walk nanoseconds (all threads)",
        Counter::BottomUpNs => "Bottom-up probe nanoseconds (all threads)",
        Counter::RearrangeNs => "Frontier rearrangement nanoseconds (all threads)",
        Counter::BarrierNs => "Barrier wait nanoseconds (all threads)",
        Counter::ScatteredEdges => "Neighbors scattered into PBV bins",
        Counter::BinEntries => "Entries decoded from PBV bins",
        Counter::EdgeChecks => "Bottom-up neighbor probes",
        Counter::Enqueued => "Successful depth claims (duplicates included)",
        Counter::Phase1HwCycles => "Hardware cycles in Phase I (0 when perf is unavailable)",
        Counter::Phase1HwInstructions => "Hardware instructions retired in Phase I",
        Counter::Phase1LlcMisses => "LLC load misses in Phase I",
        Counter::Phase1DtlbMisses => "dTLB load misses in Phase I",
        Counter::Phase2HwCycles => "Hardware cycles in Phase II (0 when perf is unavailable)",
        Counter::Phase2HwInstructions => "Hardware instructions retired in Phase II",
        Counter::Phase2LlcMisses => "LLC load misses in Phase II",
        Counter::Phase2DtlbMisses => "dTLB load misses in Phase II",
        Counter::BottomUpHwCycles => {
            "Hardware cycles in bottom-up scans (0 when perf is unavailable)"
        }
        Counter::BottomUpHwInstructions => "Hardware instructions retired in bottom-up scans",
        Counter::BottomUpLlcMisses => "LLC load misses in bottom-up scans",
        Counter::BottomUpDtlbMisses => "dTLB load misses in bottom-up scans",
        Counter::RearrangeHwCycles => {
            "Hardware cycles in rearrangement (0 when perf is unavailable)"
        }
        Counter::RearrangeHwInstructions => "Hardware instructions retired in rearrangement",
        Counter::RearrangeLlcMisses => "LLC load misses in rearrangement",
        Counter::RearrangeDtlbMisses => "dTLB load misses in rearrangement",
        Counter::ServeRequests => "Query-path HTTP requests admitted",
        Counter::ServeErrors => "Query-path HTTP requests rejected or failed",
        Counter::ServeParseNs => "Request parse nanoseconds",
        Counter::ServeQueueNs => "Admission-queue wait nanoseconds",
        Counter::ServeExecNs => "Request traversal-execution nanoseconds",
        Counter::ServeSerializeNs => "Response serialization nanoseconds",
        Counter::ServeDeadlineDropped => {
            "Requests answered 504 after their deadline expired in the queue"
        }
        Counter::ServeTraceSampled => {
            "Requests whose flight-recorder trace was kept in full by the tail sampler"
        }
        Counter::ServeTraceDigest => "Requests retained as an id+latency trace digest only",
        Counter::EpilogueNs => "Answer-epilogue nanoseconds after the last level (all threads)",
    }
}

/// Appends one gauge sample (with `# HELP`/`# TYPE` preamble) to `out`.
/// Label values are escaped per the exposition format (backslash, quote,
/// newline).
pub fn render_gauge(out: &mut String, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {value}");
    } else {
        let rendered: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
            .collect();
        let _ = writeln!(out, "{name}{{{}}} {value}", rendered.join(","));
    }
}

/// Appends one labeled gauge family (with `# HELP`/`# TYPE` preamble) to
/// `out`: one sample line per `(label value, sample)` pair. The preamble
/// is written once for the whole family — repeating it per sample, as
/// calling [`render_gauge`] in a loop would, is malformed exposition.
pub fn render_labeled_gauge(
    out: &mut String,
    name: &str,
    help: &str,
    label: &str,
    series: &[(String, f64)],
) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    for (value, sample) in series {
        let _ = writeln!(
            out,
            "{name}{{{label}=\"{}\"}} {sample}",
            escape_label(value)
        );
    }
}

/// Appends one labeled counter family (with `# HELP`/`# TYPE` preamble)
/// to `out`: one sample line per `(label value, sample)` pair, all under
/// the same label name. Used by the multi-session server for per-session
/// monotonic series like `fastbfs_session_requests_total{session="0"}`.
pub fn render_labeled_counter(
    out: &mut String,
    name: &str,
    help: &str,
    label: &str,
    series: &[(String, u64)],
) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    for (value, sample) in series {
        let _ = writeln!(
            out,
            "{name}{{{label}=\"{}\"}} {sample}",
            escape_label(value)
        );
    }
}

/// `fastbfs_build_info`: the conventional constant-`1` provenance gauge
/// whose labels carry what `RunReport::capture_environment` records —
/// scrapes become joinable with committed baselines by git revision.
pub fn render_build_info(
    out: &mut String,
    version: &str,
    git_rev: Option<&str>,
    rustc: Option<&str>,
) {
    render_gauge(
        out,
        "fastbfs_build_info",
        "Build provenance; value is always 1",
        &[
            ("version", version),
            ("git_rev", git_rev.unwrap_or("unknown")),
            ("rustc", rustc.unwrap_or("unknown")),
        ],
        1.0,
    );
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    #[test]
    fn exposition_has_totals_threads_and_cumulative_buckets() {
        let mut reg = MetricsRegistry::new(2);
        {
            let mut w0 = reg.writer(0);
            w0.add(Counter::Phase1Ns, 123);
            w0.observe(Hist::StepNs, 5);
            w0.observe(Hist::StepNs, 900);
        }
        {
            let mut w1 = reg.writer(1);
            w1.add(Counter::Phase1Ns, 77);
        }
        {
            let mut d = reg.driver();
            d.add(Counter::Queries, 3);
        }
        let text = render(&reg.snapshot());
        assert!(text.contains("fastbfs_queries_total 3"), "{text}");
        assert!(text.contains("fastbfs_phase1_ns_total 200"), "{text}");
        assert!(
            text.contains("fastbfs_thread_phase1_ns_total{thread=\"0\"} 123"),
            "{text}"
        );
        assert!(
            text.contains("fastbfs_thread_phase1_ns_total{thread=\"1\"} 77"),
            "{text}"
        );
        // 5 lands in the le="7" bucket, 900 in le="1023"; +Inf carries the
        // full count.
        assert!(
            text.contains("fastbfs_step_ns_bucket{le=\"7\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("fastbfs_step_ns_bucket{le=\"1023\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("fastbfs_step_ns_bucket{le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("fastbfs_step_ns_sum 905"), "{text}");
        assert!(text.contains("fastbfs_step_ns_count 2"), "{text}");
        // Every TYPE line is well-formed.
        for line in text.lines().filter(|l| l.starts_with("# TYPE")) {
            let parts: Vec<_> = line.split_whitespace().collect();
            assert_eq!(parts.len(), 4, "{line}");
            assert!(parts[3] == "counter" || parts[3] == "histogram", "{line}");
        }
    }

    #[test]
    fn serve_lifecycle_series_are_rendered() {
        let mut reg = MetricsRegistry::new(1);
        {
            let mut d = reg.driver();
            d.add(Counter::ServeRequests, 9);
            d.add(Counter::ServeQueueNs, 1234);
            d.observe(Hist::ServeRequestNs, 1 << 20);
        }
        let text = render(&reg.snapshot());
        assert!(text.contains("fastbfs_serve_requests_total 9"), "{text}");
        assert!(text.contains("fastbfs_serve_queue_ns_total 1234"), "{text}");
        assert!(text.contains("fastbfs_serve_request_ns_count 1"), "{text}");
        assert!(
            text.contains("# TYPE fastbfs_serve_request_ns histogram"),
            "{text}"
        );
    }

    #[test]
    fn gauges_and_build_info_render_with_escaped_labels() {
        let mut out = String::new();
        render_gauge(
            &mut out,
            "fastbfs_queue_depth",
            "Requests waiting",
            &[],
            3.0,
        );
        assert!(out.contains("# TYPE fastbfs_queue_depth gauge"), "{out}");
        assert!(out.contains("fastbfs_queue_depth 3"), "{out}");

        let mut info = String::new();
        render_build_info(&mut info, "0.1.0", Some("abc123"), Some("rustc \"x\""));
        assert!(
            info.contains("fastbfs_build_info{version=\"0.1.0\",git_rev=\"abc123\",rustc=\"rustc \\\"x\\\"\"} 1"),
            "{info}"
        );
        let mut none = String::new();
        render_build_info(&mut none, "0.1.0", None, None);
        assert!(none.contains("git_rev=\"unknown\""), "{none}");
    }

    #[test]
    fn labeled_counter_renders_one_line_per_series() {
        let mut out = String::new();
        render_labeled_counter(
            &mut out,
            "fastbfs_session_requests_total",
            "Requests dispatched per session",
            "session",
            &[("0".to_string(), 12), ("1".to_string(), 7)],
        );
        assert!(
            out.contains("# TYPE fastbfs_session_requests_total counter"),
            "{out}"
        );
        assert!(
            out.contains("fastbfs_session_requests_total{session=\"0\"} 12"),
            "{out}"
        );
        assert!(
            out.contains("fastbfs_session_requests_total{session=\"1\"} 7"),
            "{out}"
        );
    }
}
