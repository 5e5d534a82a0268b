//! The metric catalogue and the result line.
//!
//! Every run prints, as the last line of standard output, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With tracing off the
//! metrics are every [`END_TO_END`] metric; with tracing on, every
//! [`PER_LAYER`] metric. `BENCHMARK.json` at the repository root declares
//! the same names and units (a test keeps the two in step).

use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p10_ms", "ms"),
    ("achieved_qps", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`, grouped by layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.load_s", "s"),
    ("graph.relabel_s", "s"),
    ("graph.hugepage_migrate_s", "s"),
    ("session.build_s", "s"),
    ("session.overhead_us_p50", "us"),
    ("engine.phase1_ns_per_scattered", "ns"),
    ("engine.phase2_ns_per_bin_entry", "ns"),
    ("engine.bottom_up_ns_per_check", "ns"),
    ("engine.rearrange_ns_per_enqueued", "ns"),
    ("engine.phase1_gbps_computed", "GB/s"),
    ("engine.phase2_gbps_computed", "GB/s"),
    ("engine.bottom_up_gbps_computed", "GB/s"),
    ("engine.bottom_up_level_share", "ratio"),
    ("engine.checks_per_traversed_edge", "ratio"),
    ("engine.duplicate_rate", "ratio"),
    ("engine.barrier_share", "ratio"),
    ("engine.level_overhead_us", "us"),
    ("engine.levels_per_query", "count"),
    ("engine.step_us_p50", "us"),
    ("engine.step_us_p99", "us"),
    ("serve.parse_us_p50", "us"),
    ("serve.queue_us_p50", "us"),
    ("serve.queue_us_p99", "us"),
    ("serve.execute_us_p50", "us"),
    ("serve.execute_reach_us_p50", "us"),
    ("serve.execute_path_us_p50", "us"),
    ("serve.serialize_us_p50", "us"),
    ("serve.total_us_p50", "us"),
    ("serve.total_us_p99", "us"),
    ("serve.wave_size_mean", "count"),
    ("serve.shed_frac", "ratio"),
    ("serve.deadline_drop_frac", "ratio"),
    ("client.connect_us_p50", "us"),
    ("client.connect_us_p99", "us"),
    ("client.first_byte_us_p50", "us"),
    ("client.sched_lag_ms_p99", "ms"),
    ("client.unattributed_us_p50", "us"),
    ("client.unattributed_us_p99", "us"),
    ("client.attributed_share_p50", "ratio"),
    ("client.attributed_share_p99", "ratio"),
    ("trace_overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
    // End-to-end figures measured in the traced run's untraced half: on a
    // shared two-core host other tenants slow a core in bursts, and these
    // move with the bursts too far between runs to gate on.
    ("harmonic_mteps", "MTEPS"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("capacity_qps", "1/s"),
];

/// Metric values collected by one run, by name.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records `name`, which must be in one of the catalogues.
    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "{name} is not in the catalogue");
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// The outcome of one run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// False when a sampled answer failed full validation, on top of any
    /// counted failures.
    pub correct: bool,
    pub metrics: Metrics,
    /// Workload-specific detail (sample counts, ladder rungs), as JSON.
    pub details: String,
}

/// Renders the result line for the catalogue the run reports. An
/// end-to-end metric the run did not record is an error; a per-layer
/// metric the workload does not exercise (the serve spans of a batch
/// workload, say) is reported as 0 and listed in `not_applicable`.
pub fn result_line(o: &Outcome, traced: bool) -> Result<(String, Vec<&'static str>), String> {
    let catalogue = if traced { PER_LAYER } else { END_TO_END };
    let mut missing = Vec::new();
    let mut body = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = match o.metrics.get(name) {
            Some(v) if v.is_finite() => v,
            Some(v) => return Err(format!("metric {name} is not finite ({v})")),
            None if traced => {
                missing.push(*name);
                0.0
            }
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if i > 0 {
            body.push(',');
        }
        let _ = write!(body, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    let correct = o.correct && o.failed == 0;
    Ok((
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
            o.attempted, o.failed
        ),
        missing,
    ))
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    #[test]
    fn catalogue_names_are_legal_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for n in &all {
            assert!(valid_name(n), "{n}");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!unit.is_empty() && unit.len() <= 16);
            assert!(unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)));
        }
    }

    /// `BENCHMARK.json` must declare exactly the catalogue, in order.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_array())
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|x| x.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, expected, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|x| x.as_str()).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_fills_not_applicable_layer_metrics() {
        let mut metrics = Metrics::default();
        metrics.put("graph.load_s", 1.5);
        let o = Outcome {
            attempted: 3,
            failed: 0,
            correct: true,
            metrics,
            details: String::new(),
        };
        let (line, missing) = result_line(&o, true).unwrap();
        assert_eq!(missing.len(), PER_LAYER.len() - 1);
        let v = serde_json::parse(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(|x| x.as_u64()), Some(3));
        let load = v
            .get("metrics")
            .and_then(|m| m.get("graph.load_s"))
            .unwrap();
        assert_eq!(load.get("value").and_then(|x| x.as_f64()), Some(1.5));
        assert_eq!(load.get("unit").and_then(|x| x.as_str()), Some("s"));
        // Untraced runs must have measured every end-to-end metric.
        assert!(result_line(&o, false).is_err());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
