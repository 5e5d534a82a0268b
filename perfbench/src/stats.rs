//! Summary statistics shared by every workload: the percentile rule, the
//! Graph500 harmonic mean, medians, span self time, and metric names.

/// Percentiles a report may quote, in permille, lowest first.
const PERCENTILES_PERMILLE: [u64; 4] = [500, 900, 990, 999];

/// Samples that must lie beyond a percentile before it may be quoted.
pub const MIN_BEYOND: u64 = 10;

/// The highest percentile (50, 90, 99 or 99.9) that has at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the median
/// has fewer. Integer arithmetic, so `n = 100` allows p90 and `n = 1000`
/// allows p99 exactly.
pub fn highest_reportable_percentile(n: usize) -> Option<f64> {
    PERCENTILES_PERMILLE
        .iter()
        .rev()
        .find(|&&pm| n as u64 * (1000 - pm) / 1000 >= MIN_BEYOND)
        .map(|&pm| pm as f64 / 10.0)
}

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts a copy of `values` ascending and returns it.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Mean of `values`; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Graph500 harmonic mean: `n / Σ 1/x`. It weights every query's time
/// equally, so one slow query is not averaged away. `None` when empty or
/// when any value is not positive.
pub fn harmonic_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    Some(values.len() as f64 / values.iter().map(|x| 1.0 / x).sum::<f64>())
}

/// A run sets up at least this many times before measuring.
pub const MIN_SETUPS: usize = 3;
/// A run keeps setting up while its set-ups total less than this, because
/// the median of a few sub-second set-ups is noisy.
pub const MIN_SETUP_SECONDS: f64 = 2.0;
/// A run sets up at most this many times.
pub const MAX_SETUPS: usize = 25;

/// Whether a run whose set-ups so far took `done` seconds each wants
/// another set-up. `setup_s` is the median over all of them.
pub fn setups_wanted(done: &[f64]) -> bool {
    done.len() < MIN_SETUPS
        || (done.len() < MAX_SETUPS && done.iter().sum::<f64>() < MIN_SETUP_SECONDS)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A closed-open interval `[start, end)` on one clock, in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    pub start: u64,
    pub end: u64,
}

impl Interval {
    pub fn new(start: u64, end: u64) -> Self {
        Self {
            start,
            end: end.max(start),
        }
    }

    pub fn len(&self) -> u64 {
        self.end - self.start
    }
}

/// Self time of a span: its duration minus the part of it that the
/// children cover. Children are clipped to the parent and overlapping
/// children are counted once.
pub fn self_time(parent: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|c| Interval::new(c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|c| c.len() > 0)
        .collect();
    clipped.sort_by_key(|c| c.start);
    let mut covered = 0u64;
    let mut cursor = parent.start;
    for c in clipped {
        let start = c.start.max(cursor);
        if c.end > start {
            covered += c.end - start;
            cursor = c.end;
        }
    }
    parent.len() - covered
}

/// Whether `name` is a legal metric or workload name: 1 to 64 characters
/// of `[A-Za-z0-9_.-]`, starting with a letter or a digit.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_reportable_percentile(0), None);
        assert_eq!(highest_reportable_percentile(19), None);
        assert_eq!(highest_reportable_percentile(20), Some(50.0));
        assert_eq!(highest_reportable_percentile(99), Some(50.0));
        assert_eq!(highest_reportable_percentile(100), Some(90.0));
        assert_eq!(highest_reportable_percentile(999), Some(90.0));
        assert_eq!(highest_reportable_percentile(1000), Some(99.0));
        assert_eq!(highest_reportable_percentile(9999), Some(99.0));
        assert_eq!(highest_reportable_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn set_ups_repeat_until_three_and_two_seconds() {
        assert!(setups_wanted(&[]));
        assert!(setups_wanted(&[5.0, 5.0]));
        assert!(!setups_wanted(&[5.0, 5.0, 5.0]));
        assert!(setups_wanted(&[0.1; 3]));
        assert!(!setups_wanted(&[0.11; 19]));
        assert!(!setups_wanted(&[0.01; MAX_SETUPS]));
    }

    #[test]
    fn harmonic_mean_weights_slow_queries() {
        assert_eq!(harmonic_mean(&[2.0, 2.0]), Some(2.0));
        // 1 / ((1/1 + 1/4) / 2) = 1.6
        let h = harmonic_mean(&[1.0, 4.0]).unwrap();
        assert!((h - 1.6).abs() < 1e-12, "{h}");
        assert_eq!(harmonic_mean(&[]), None);
        assert_eq!(harmonic_mean(&[1.0, 0.0]), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = Interval::new(100, 200);
        assert_eq!(self_time(parent, &[]), 100);
        // Disjoint children.
        let kids = [Interval::new(110, 120), Interval::new(150, 170)];
        assert_eq!(self_time(parent, &kids), 70);
        // Overlapping children count once, in any order.
        let kids = [Interval::new(130, 160), Interval::new(110, 140)];
        assert_eq!(self_time(parent, &kids), 50);
        // Nested children add nothing.
        let kids = [Interval::new(110, 190), Interval::new(120, 130)];
        assert_eq!(self_time(parent, &kids), 20);
        // Children are clipped to the parent.
        let kids = [Interval::new(50, 120), Interval::new(190, 400)];
        assert_eq!(self_time(parent, &kids), 70);
        // Full cover leaves nothing.
        assert_eq!(self_time(parent, &[Interval::new(0, 1000)]), 0);
    }

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in ["setup_s", "engine.step_us_p99", "rmat-batch", "9lives", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".x",
            "-x",
            "_x",
            "has space",
            "p/s",
            "x\u{e9}",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
