//! The regression gate behind `fastbfs bench-compare`: the pair protocol
//! over the benchmark's own result lines.
//!
//! Its inputs are `BENCHMARK.json`, whose `end_to_end` list names each
//! metric with the direction that is better and the `bound` by which its
//! median may worsen, and two sets of result lines, the last standard
//! output line of alternated untraced `perfbench/run.sh` runs of the
//! parent commit and of the change, one per line. Pair *i* is line *i* of
//! each set. Every metric gets exactly one [`Verdict`], tried in this
//! order:
//!
//! - **FAIL** when the change median is worse than the parent median by
//!   more than `bound` × the parent median; and for every metric when a
//!   change line reads `correct:false` or the change's summed
//!   `failed/attempted` share is higher than the parent's.
//! - **gain** when the change wins at least 9 of 10 pairs (ties count for
//!   neither side) and the median gap is larger than the parent's IQR.
//! - **unresolved** when the parent's IQR is more than `bound` × its
//!   median, so the runs cannot tell a bound-sized move from noise, unless
//!   every change run beats every parent run.
//! - **within** otherwise.
//!
//! One change at a time against a fixed baseline, over repeated trials,
//! follows arXiv:2503.00430. The median and the nearest-rank quartiles
//! follow `perfbench/src/stats.rs`.

use std::fmt::{self, Write as _};

use serde::Value;

/// Why the gate could not judge its input. Every malformed input maps to
/// one of these; none panics.
#[derive(Clone, Debug, PartialEq)]
pub enum GateError {
    /// `BENCHMARK.json` is not JSON or its `end_to_end` list is malformed.
    Benchmark(String),
    /// A line of one set is not a JSON result line with `correct`,
    /// `attempted` and `failed`.
    BadLine {
        side: &'static str,
        line: usize,
        reason: String,
    },
    /// A line lacks an end-to-end metric, as a traced run's line does.
    MissingMetric {
        side: &'static str,
        line: usize,
        metric: String,
    },
    /// The two sets hold different numbers of lines, so runs do not pair.
    UnpairedLines { parent: usize, change: usize },
    /// The sets hold no lines.
    NoPairs,
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::Benchmark(reason) => write!(f, "BENCHMARK.json: {reason}"),
            GateError::BadLine { side, line, reason } => {
                write!(f, "{side} line {line}: not a result line ({reason})")
            }
            GateError::MissingMetric { side, line, metric } => write!(
                f,
                "{side} line {line}: no end-to-end metric {metric:?} (a traced run's line?)"
            ),
            GateError::UnpairedLines { parent, change } => write!(
                f,
                "{parent} parent lines against {change} change lines: runs must pair"
            ),
            GateError::NoPairs => write!(f, "no result lines to compare"),
        }
    }
}

impl std::error::Error for GateError {}

/// One verdict per metric (see the module doc for the rules).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Fail,
    Gain,
    Unresolved,
    Within,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Fail => "FAIL",
            Verdict::Gain => "gain",
            Verdict::Unresolved => "unresolved",
            Verdict::Within => "within",
        }
    }
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn parse_metrics(benchmark: &str) -> Result<Vec<Metric>, GateError> {
    let bad = |reason: String| GateError::Benchmark(reason);
    let doc = serde_json::parse(benchmark).map_err(|e| bad(e.to_string()))?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .filter(|l| !l.is_empty())
        .ok_or_else(|| bad("no end_to_end list".into()))?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("an end_to_end entry has no name".into()))?;
            let higher_is_better = match m.get("better").and_then(Value::as_str) {
                Some("higher") => true,
                Some("lower") => false,
                _ => return Err(bad(format!("{name}: better is not higher or lower"))),
            };
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .filter(|b| b.is_finite() && *b >= 0.0)
                .ok_or_else(|| bad(format!("{name}: bound is not a non-negative number")))?;
            Ok(Metric {
                name: name.to_string(),
                higher_is_better,
                bound,
            })
        })
        .collect()
}

/// One run's result line, reduced to what the gate reads.
struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Values of the benchmark's end-to-end metrics, in its order.
    values: Vec<f64>,
}

fn parse_runs(text: &str, side: &'static str, metrics: &[Metric]) -> Result<Vec<Run>, GateError> {
    let mut runs = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let bad = |reason: &str| GateError::BadLine {
            side,
            line,
            reason: reason.to_string(),
        };
        let v = serde_json::parse(raw.trim()).map_err(|e| bad(&e.to_string()))?;
        let correct = v.get("correct").and_then(Value::as_bool);
        let attempted = v.get("attempted").and_then(Value::as_u64);
        let failed = v.get("failed").and_then(Value::as_u64);
        let (Some(correct), Some(attempted), Some(failed)) = (correct, attempted, failed) else {
            return Err(bad("needs correct, attempted and failed"));
        };
        let values = metrics
            .iter()
            .map(|m| {
                v.get("metrics")
                    .and_then(|ms| ms.get(&m.name))
                    .and_then(|x| x.get("value"))
                    .and_then(Value::as_f64)
                    .filter(|x| x.is_finite())
                    .ok_or_else(|| GateError::MissingMetric {
                        side,
                        line,
                        metric: m.name.clone(),
                    })
            })
            .collect::<Result<_, _>>()?;
        runs.push(Run {
            correct,
            attempted,
            failed,
            values,
        });
    }
    Ok(runs)
}

/// Median of a non-empty `v` (mean of the middle pair for an even count).
pub(crate) fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending, non-empty slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// One metric's row of the gate's table.
#[derive(Clone, Debug)]
pub struct Row {
    pub metric: String,
    pub parent_median: f64,
    /// The parent's interquartile range (nearest-rank quartiles).
    pub parent_iqr: f64,
    pub change_median: f64,
    /// Pairs in which the change read better; ties count for neither.
    pub change_better: usize,
    pub pairs: usize,
    pub bound: f64,
    pub verdict: Verdict,
}

/// The gate's judgement of one parent/change pair of result sets.
#[derive(Clone, Debug)]
pub struct Judgement {
    /// Summed `failed` and `attempted` of the parent's runs.
    pub parent_failed: (u64, u64),
    /// Summed `failed` and `attempted` of the change's runs.
    pub change_failed: (u64, u64),
    /// Change lines that read `correct:false`.
    pub change_incorrect: usize,
    pub rows: Vec<Row>,
}

impl Judgement {
    /// True unless some row is FAIL.
    pub fn passed(&self) -> bool {
        self.rows.iter().all(|r| r.verdict != Verdict::Fail)
    }

    /// The failure counts, then one Markdown table row per metric.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "failed/attempted: parent {}/{}, change {}/{}; change lines with correct:false: {}\n",
            self.parent_failed.0,
            self.parent_failed.1,
            self.change_failed.0,
            self.change_failed.1,
            self.change_incorrect
        );
        out.push_str("| metric | parent (IQR) | change | change better | bound | verdict |\n");
        out.push_str("|---|---|---|---|---|---|\n");
        for r in &self.rows {
            let delta = if r.parent_median != 0.0 {
                format!(
                    " ({:+.1}%)",
                    (r.change_median / r.parent_median - 1.0) * 100.0
                )
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "| `{}` | {:.3} ({:.3}) | {:.3}{delta} | {}/{} | {:.0}% | {} |",
                r.metric,
                r.parent_median,
                r.parent_iqr,
                r.change_median,
                r.change_better,
                r.pairs,
                r.bound * 100.0,
                r.verdict.as_str()
            );
        }
        out
    }
}

/// Judges the change's result lines against the parent's under the
/// end-to-end metrics and bounds of `benchmark` (the text of
/// `BENCHMARK.json`).
pub fn judge(benchmark: &str, parent: &str, change: &str) -> Result<Judgement, GateError> {
    let metrics = parse_metrics(benchmark)?;
    let parent = parse_runs(parent, "parent", &metrics)?;
    let change = parse_runs(change, "change", &metrics)?;
    if parent.len() != change.len() {
        return Err(GateError::UnpairedLines {
            parent: parent.len(),
            change: change.len(),
        });
    }
    if parent.is_empty() {
        return Err(GateError::NoPairs);
    }
    let totals = |runs: &[Run]| {
        runs.iter().fold((0u64, 0u64), |(f, a), r| {
            (f.saturating_add(r.failed), a.saturating_add(r.attempted))
        })
    };
    let share = |(failed, attempted): (u64, u64)| {
        if attempted == 0 {
            0.0
        } else {
            failed as f64 / attempted as f64
        }
    };
    let (parent_failed, change_failed) = (totals(&parent), totals(&change));
    let change_incorrect = change.iter().filter(|r| !r.correct).count();
    let broken = change_incorrect > 0 || share(change_failed) > share(parent_failed);

    let rows = metrics
        .iter()
        .enumerate()
        .map(|(k, m)| {
            let p: Vec<f64> = parent.iter().map(|r| r.values[k]).collect();
            let c: Vec<f64> = change.iter().map(|r| r.values[k]).collect();
            // Positive when `a` reads better than `b`.
            let gain = |a: f64, b: f64| if m.higher_is_better { a - b } else { b - a };
            let (pm, cm) = (median(&p), median(&c));
            let ps = sorted(&p);
            let iqr = percentile(&ps, 75.0) - percentile(&ps, 25.0);
            let change_better = p
                .iter()
                .zip(&c)
                .filter(|(p, c)| gain(**c, **p) > 0.0)
                .count();
            let every_change_run_better = c.iter().all(|&c| p.iter().all(|&p| gain(c, p) > 0.0));
            let verdict = if broken || -gain(cm, pm) > m.bound * pm.abs() {
                Verdict::Fail
            } else if change_better * 10 >= p.len() * 9 && gain(cm, pm) > iqr {
                Verdict::Gain
            } else if iqr > m.bound * pm.abs() && !every_change_run_better {
                Verdict::Unresolved
            } else {
                Verdict::Within
            };
            Row {
                metric: m.name.clone(),
                parent_median: pm,
                parent_iqr: iqr,
                change_median: cm,
                change_better,
                pairs: p.len(),
                bound: m.bound,
                verdict,
            }
        })
        .collect();
    Ok(Judgement {
        parent_failed,
        change_failed,
        change_incorrect,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"end_to_end": [
        {"name": "achieved_qps", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "latency_p10_ms", "unit": "ms", "better": "lower", "bound": 0.25}
    ]}"#;

    /// A result line as `perfbench` prints it.
    fn line(correct: bool, attempted: u64, failed: u64, qps: f64, p10: f64) -> String {
        format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{\
             \"achieved_qps\":{{\"value\":{qps},\"unit\":\"1/s\"}},\
             \"latency_p10_ms\":{{\"value\":{p10},\"unit\":\"ms\"}}}}}}"
        )
    }

    /// Clean lines, one per `(qps, p10)` pair.
    fn lines(values: &[(f64, f64)]) -> String {
        values
            .iter()
            .map(|&(q, l)| line(true, 100, 0, q, l) + "\n")
            .collect()
    }

    /// Ten runs spread 20.0..=20.9 qps and 10.0..=10.9 ms (IQR 0.5).
    fn parent() -> Vec<(f64, f64)> {
        (0..10)
            .map(|i| (20.0 + i as f64 * 0.1, 10.0 + i as f64 * 0.1))
            .collect()
    }

    fn verdicts(parent: &str, change: &str) -> Vec<Verdict> {
        judge(SPEC, parent, change)
            .unwrap()
            .rows
            .iter()
            .map(|r| r.verdict)
            .collect()
    }

    #[test]
    fn identical_sets_pass() {
        let p = lines(&parent());
        let j = judge(SPEC, &p, &p).unwrap();
        assert!(j.passed());
        assert_eq!(j.rows.len(), 2);
        for r in &j.rows {
            assert_eq!(r.verdict, Verdict::Within, "{r:?}");
            assert_eq!(r.change_better, 0, "ties count for neither side");
            assert_eq!(r.pairs, 10);
        }
        // Medians of the middle pair, nearest-rank quartiles (20.2, 20.7).
        assert!((j.rows[0].parent_median - 20.45).abs() < 1e-9);
        assert!((j.rows[0].parent_iqr - 0.5).abs() < 1e-9);
        assert!(j.render().contains("| `achieved_qps` | 20.450 (0.500) |"));
    }

    #[test]
    fn worse_by_more_than_the_bound_fails_either_direction() {
        let p = lines(&parent());
        // 30% fewer queries per second: higher is better.
        let slow: Vec<_> = parent().iter().map(|&(q, l)| (q * 0.7, l)).collect();
        assert_eq!(
            verdicts(&p, &lines(&slow)),
            [Verdict::Fail, Verdict::Within]
        );
        assert!(!judge(SPEC, &p, &lines(&slow)).unwrap().passed());
        // 30% higher latency: lower is better.
        let laggy: Vec<_> = parent().iter().map(|&(q, l)| (q, l * 1.3)).collect();
        assert_eq!(
            verdicts(&p, &lines(&laggy)),
            [Verdict::Within, Verdict::Fail]
        );
        // 20% worse is inside the 25% bound and, with a 0.5 IQR on a
        // median near 20, not a gain either.
        let near: Vec<_> = parent().iter().map(|&(q, l)| (q * 0.8, l * 1.2)).collect();
        assert_eq!(
            verdicts(&p, &lines(&near)),
            [Verdict::Within, Verdict::Within]
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        // Parent qps spread over 10..=28: IQR 12 on a median near 19.
        let noisy: Vec<_> = (0..10).map(|i| (10.0 + 2.0 * i as f64, 10.0)).collect();
        let p = lines(&noisy);
        let mut shuffled = noisy.clone();
        shuffled.rotate_left(3);
        assert_eq!(
            verdicts(&p, &lines(&shuffled)),
            [Verdict::Unresolved, Verdict::Within]
        );
        // Every change run (28.05..=28.5) beats every parent run, by a
        // median gap (9.3) inside the IQR (10): within, not unresolved.
        let all_better: Vec<_> = (0..10).map(|i| (28.05 + 0.05 * i as f64, 10.0)).collect();
        assert_eq!(verdicts(&p, &lines(&all_better)), [Verdict::Within; 2]);
        // Unresolved never hides a FAIL.
        let worse: Vec<_> = noisy.iter().map(|&(q, l)| (q * 0.5, l)).collect();
        assert_eq!(verdicts(&p, &lines(&worse))[0], Verdict::Fail);
    }

    #[test]
    fn nine_of_ten_wins_beyond_the_iqr_is_a_gain_and_eight_is_not() {
        let p = parent();
        // +2 qps per run (gap 2.0 > IQR 0.5); run 0 then 0 and 1 lose.
        let mut nine: Vec<_> = p.iter().map(|&(q, l)| (q + 2.0, l)).collect();
        nine[0].0 = p[0].0 - 1.0;
        assert_eq!(
            verdicts(&lines(&p), &lines(&nine)),
            [Verdict::Gain, Verdict::Within]
        );
        let mut eight = nine.clone();
        eight[1].0 = p[1].0 - 1.0;
        assert_eq!(
            verdicts(&lines(&p), &lines(&eight)),
            [Verdict::Within, Verdict::Within]
        );
        // Ten wins by a gap inside the IQR is no gain.
        let close: Vec<_> = p.iter().map(|&(q, l)| (q + 0.01, l)).collect();
        assert_eq!(verdicts(&lines(&p), &lines(&close))[0], Verdict::Within);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let p = parent();
        // Nine wins by 2 qps, one tie: 9/10 still makes the gain.
        let mut c: Vec<_> = p.iter().map(|&(q, l)| (q + 2.0, l)).collect();
        c[4].0 = p[4].0;
        let j = judge(SPEC, &lines(&p), &lines(&c)).unwrap();
        assert_eq!(j.rows[0].change_better, 9);
        assert_eq!(j.rows[0].verdict, Verdict::Gain);
        // Two ties leave 8/10: no gain.
        c[5].0 = p[5].0;
        let j = judge(SPEC, &lines(&p), &lines(&c)).unwrap();
        assert_eq!(j.rows[0].change_better, 8);
        assert_eq!(j.rows[0].verdict, Verdict::Within);
        // Latency is tied in every pair: 0 wins, 0 losses.
        assert_eq!(j.rows[1].change_better, 0);
    }

    #[test]
    fn a_higher_failed_share_or_an_incorrect_line_fails_every_metric() {
        let p = lines(&parent());
        let mut c: Vec<String> = parent()
            .iter()
            .map(|&(q, l)| line(true, 100, 0, q, l))
            .collect();
        c[3] = line(true, 100, 1, 20.3, 10.3);
        let j = judge(SPEC, &p, &c.join("\n")).unwrap();
        assert_eq!(j.change_failed, (1, 1000));
        assert!(j.rows.iter().all(|r| r.verdict == Verdict::Fail));
        // The same share on both sides is no regression.
        let j = judge(SPEC, &c.join("\n"), &c.join("\n")).unwrap();
        assert!(j.passed());

        c[3] = line(false, 100, 0, 20.3, 10.3);
        let j = judge(SPEC, &p, &c.join("\n")).unwrap();
        assert_eq!(j.change_incorrect, 1);
        assert!(j.rows.iter().all(|r| r.verdict == Verdict::Fail));
        assert!(!j.passed());
    }

    #[test]
    fn malformed_input_is_a_typed_error() {
        let p = lines(&parent());
        let short = lines(&parent()[..9]);
        assert_eq!(
            judge(SPEC, &p, &short).unwrap_err(),
            GateError::UnpairedLines {
                parent: 10,
                change: 9
            }
        );
        assert_eq!(judge(SPEC, "", "\n").unwrap_err(), GateError::NoPairs);

        // A traced run's line carries per-layer metrics only.
        let traced = "{\"correct\":true,\"attempted\":5,\"failed\":0,\"metrics\":{\
                      \"graph.load_s\":{\"value\":0.5,\"unit\":\"s\"}}}";
        let err = judge(SPEC, &p, &format!("{p}{traced}\n")).unwrap_err();
        assert_eq!(
            err,
            GateError::MissingMetric {
                side: "change",
                line: 11,
                metric: "achieved_qps".into()
            }
        );

        // A header line or a truncated line is not a result line.
        for junk in ["{\"schema\":\"perfbench-header\"}", "{\"correct\":tr", "ok"] {
            let err = judge(SPEC, junk, junk).unwrap_err();
            assert!(
                matches!(
                    err,
                    GateError::BadLine {
                        side: "parent",
                        line: 1,
                        ..
                    }
                ),
                "{err:?}"
            );
        }
        assert!(matches!(
            judge("{}", &p, &p).unwrap_err(),
            GateError::Benchmark(_)
        ));
        let err = judge(&SPEC.replace("higher", "up"), &p, &p).unwrap_err();
        assert!(matches!(err, GateError::Benchmark(_)), "{err}");
    }
}
