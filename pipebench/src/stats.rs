//! Summary statistics and the result-line format.
//!
//! Kept free of any simulator type so the unit tests below exercise the
//! benchmark's own logic in isolation.

use std::fmt::Write as _;

/// Percentiles a tail is chosen from, lowest first, in per-mille (integer,
/// so ranks are exact).
pub const TAIL_LADDER: [u64; 6] = [500, 750, 900, 950, 990, 999];

/// Samples a percentile needs beyond it to count as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Geometric mean of `samples`; `None` when empty or when any sample is
/// not positive.
pub fn gmean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() || samples.iter().any(|&x| x <= 0.0 || x.is_nan()) {
        return None;
    }
    Some((samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp())
}

/// 1-based nearest rank of the `per_mille` quantile among `n` samples.
fn rank(per_mille: u64, n: usize) -> usize {
    ((per_mille * n as u64).div_ceil(1000) as usize).clamp(1, n)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// A tail percentile with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub pct: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Samples in the set.
    pub n: usize,
    /// Samples ranked above the reported one.
    pub beyond: usize,
}

impl Tail {
    /// Label such as `p90`, or `p99.9`.
    pub fn label(&self) -> String {
        format!("p{}", self.pct)
    }

    /// Whether at least [`TAIL_MIN_BEYOND`] samples lie beyond the value.
    /// False only when the set is too small for any ladder percentile; the
    /// median is reported then.
    pub fn is_supported(&self) -> bool {
        self.beyond >= TAIL_MIN_BEYOND
    }
}

/// The highest percentile of [`TAIL_LADDER`] that a set of `n_ref` samples
/// supports with at least [`TAIL_MIN_BEYOND`] samples beyond it (the
/// median when none does), evaluated on `samples`. A run that always
/// collects at least `n_ref` samples reports the same percentile every
/// time, with at least as many samples beyond it. `None` when empty.
pub fn tail(samples: &[f64], n_ref: usize) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let beyond_at = |per_mille: u64, n: usize| n - rank(per_mille, n);
    let per_mille = TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&pm| n_ref > 0 && beyond_at(pm, n_ref) >= TAIL_MIN_BEYOND)
        .unwrap_or(TAIL_LADDER[0]);
    let sorted = sorted(samples);
    let n = sorted.len();
    let r = rank(per_mille, n);
    Some(Tail {
        pct: per_mille as f64 / 10.0,
        value: sorted[r - 1],
        n,
        beyond: n - r,
    })
}

/// Whether `name` is a valid metric or workload name: 1 to 64 letters,
/// digits, `_`, `.` and `-`, starting with a letter or digit.
pub fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`is_valid_name`]).
    pub name: &'static str,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Renders the result line: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`.
///
/// # Errors
///
/// A message naming the first metric whose name is invalid or whose value
/// is not finite (JSON has no NaN or infinity).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, metric) in metrics.iter().enumerate() {
        if !is_valid_name(metric.name) {
            return Err(format!("invalid metric name {:?}", metric.name));
        }
        if !metric.value.is_finite() {
            return Err(format!("metric {} is not finite", metric.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            metric.name, metric.value, metric.unit
        );
    }
    line.push_str("}}");
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{END_TO_END, PER_LAYER, WORKLOADS};

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn gmean_weighs_every_sample_alike() {
        assert_eq!(gmean(&[]), None);
        assert_eq!(gmean(&[1.0, 0.0]), None);
        let g = gmean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        // Halving one of four samples moves it by 2^(1/4), wherever it sits.
        let moved =
            gmean(&[0.5, 100.0, 3.0, 7.0]).unwrap() / gmean(&[1.0, 100.0, 3.0, 7.0]).unwrap();
        assert!((moved - 0.5f64.powf(0.25)).abs() < 1e-9);
    }

    #[test]
    fn small_sets_fall_back_to_the_median() {
        assert_eq!(tail(&[], 0), None);
        let one = tail(&[7.0], 1).unwrap();
        assert_eq!((one.pct, one.value, one.n, one.beyond), (50.0, 7.0, 1, 0));
        assert!(!one.is_supported());
        // 19 samples: p50 is rank 10, leaving 9 beyond — still too few.
        let samples: Vec<f64> = (1..=19).map(f64::from).collect();
        let t = tail(&samples, samples.len()).unwrap();
        assert_eq!((t.pct, t.beyond), (50.0, 9));
        assert!(!t.is_supported());
    }

    #[test]
    fn tail_climbs_the_ladder_with_sample_count() {
        let cases = [
            (20, 50.0, 10.0),
            (39, 50.0, 20.0),
            (40, 75.0, 30.0),
            (99, 75.0, 75.0),
            (100, 90.0, 90.0),
            (199, 90.0, 180.0),
            (200, 95.0, 190.0),
            (1000, 99.0, 990.0),
            (10_000, 99.9, 9990.0),
        ];
        for (n, pct, value) in cases {
            // Input order must not matter.
            let samples: Vec<f64> = (1..=n).rev().map(f64::from).collect();
            let t = tail(&samples, samples.len()).unwrap();
            assert_eq!((t.pct, t.value, t.n), (pct, value, n as usize), "n = {n}");
            assert!(t.beyond >= TAIL_MIN_BEYOND, "n = {n}");
            assert_eq!(t.beyond, n as usize - value as usize);
        }
    }

    #[test]
    fn reference_count_fixes_the_percentile() {
        // 68 = 4 passes of 17 ops: p75 (rank 51, 17 beyond).
        let four: Vec<f64> = (1..=68).map(f64::from).collect();
        let t = tail(&four, 68).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (75.0, 51.0, 17));
        // More passes add samples but keep the percentile, although 120
        // samples alone would support p90.
        let more: Vec<f64> = (1..=120).map(f64::from).collect();
        let t = tail(&more, 68).unwrap();
        assert_eq!((t.pct, t.value, t.n, t.beyond), (75.0, 90.0, 120, 30));
        assert_eq!(tail(&more, 120).unwrap().pct, 90.0);
        // Too small a reference falls back to the median.
        assert_eq!(tail(&more, 10).unwrap().pct, 50.0);
        assert_eq!(tail(&[], 68), None);
    }

    #[test]
    fn tail_labels() {
        let t = tail(&(1..=10_000).map(f64::from).collect::<Vec<_>>(), 10_000).unwrap();
        assert_eq!(t.label(), "p99.9");
        assert_eq!(tail(&[1.0], 1).unwrap().label(), "p50");
    }

    #[test]
    fn name_rules() {
        for good in ["setup_s", "profile_ms.p50", "a", "9x", "x-y.z_1"] {
            assert!(is_valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_a", ".a", "a b", "a/b", "é", long.as_str()] {
            assert!(!is_valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn every_declared_name_is_valid_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for name in &names {
            assert!(is_valid_name(name), "{name}");
        }
        let metric_count = END_TO_END.len() + PER_LAYER.len();
        let mut metrics = names[WORKLOADS.len()..].to_vec();
        metrics.sort_unstable();
        metrics.dedup();
        assert_eq!(metrics.len(), metric_count, "metric names must be unique");
    }

    #[test]
    fn benchmark_json_declares_what_the_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let doc = cheetah_obs::json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|item| {
                    item.get(field)
                        .and_then(|v| v.as_str())
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        let pairs = |declared: &[(&str, &str)]| -> (Vec<String>, Vec<String>) {
            declared
                .iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .unzip()
        };
        assert_eq!(
            (list("workloads", "name"), list("workloads", "why")),
            pairs(&WORKLOADS)
        );
        assert_eq!(
            (list("end_to_end", "name"), list("end_to_end", "unit")),
            pairs(&END_TO_END)
        );
        assert_eq!(
            (list("per_layer", "name"), list("per_layer", "unit")),
            pairs(&PER_LAYER)
        );
    }

    #[test]
    fn result_line_parses_as_json() {
        let metrics = [
            Metric {
                name: "latency_ms",
                unit: "ms",
                value: 1.203_456_789,
            },
            Metric {
                name: "setup_s",
                unit: "s",
                value: 0.8127,
            },
            Metric {
                name: "count",
                unit: "count",
                value: 12.0,
            },
        ];
        let line = result_line(true, 1000, 0, &metrics).unwrap();
        let value = cheetah_obs::json::parse(&line).unwrap();
        assert_eq!(
            value.get("attempted").and_then(|v| v.as_f64()),
            Some(1000.0)
        );
        assert_eq!(value.get("failed").and_then(|v| v.as_f64()), Some(0.0));
        let parsed = value.get("metrics").unwrap();
        let latency = parsed.get("latency_ms").unwrap();
        assert_eq!(
            latency.get("value").and_then(|v| v.as_f64()),
            Some(1.203_456_789)
        );
        assert_eq!(latency.get("unit").and_then(|v| v.as_str()), Some("ms"));
        assert_eq!(
            parsed
                .get("count")
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64()),
            Some(12.0)
        );
        assert!(line.starts_with("{\"correct\": true, "));
    }

    #[test]
    fn result_line_rejects_bad_metrics() {
        let nan = Metric {
            name: "x",
            unit: "ms",
            value: f64::NAN,
        };
        assert!(result_line(true, 1, 0, &[nan]).is_err());
        let bad = Metric {
            name: "a b",
            unit: "ms",
            value: 1.0,
        };
        assert!(result_line(true, 1, 0, &[bad]).is_err());
    }
}
