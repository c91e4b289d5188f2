//! Percentiles, named metrics and the result line.

use std::fmt::Write as _;

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`, refused
/// unless at least ten samples lie beyond it: a tail read from fewer
/// is one or two outliers, not a percentile.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if n == 0 || rank == 0 || n - rank.min(n) < 10 {
        return Err(format!(
            "p{p} needs at least ten samples beyond it; have {n} samples"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The unit of a metric, from the one table that declares it: the
/// gated end-to-end metrics, the printed ones, or the per-layer ones.
pub fn unit(name: &str) -> Option<&'static str> {
    [crate::END_TO_END, crate::PRINTED, crate::profile::PER_LAYER]
        .into_iter()
        .flatten()
        .find(|&&(n, _)| n == name)
        .map(|&(_, u)| u)
}

/// Metrics in the order they were measured, each with its declared
/// unit.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Records a metric; `name` must be declared in one of the metric
    /// tables, which give its unit.
    pub fn push(&mut self, name: &'static str, value: f64) {
        let unit = unit(name).unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(
            !self.0.iter().any(|(n, ..)| *n == name),
            "metric {name} recorded twice"
        );
        self.0.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, ..)| *n == name).map(|&(_, v, _)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.0.iter().copied()
    }

    /// Human-readable table, one metric per line.
    pub fn table(&self, title: &str) -> String {
        let mut out = format!("== {title}\n");
        for (n, v, u) in self.iter() {
            let _ = writeln!(out, "  {n:<34} {v:>14.4} {u}");
        }
        out
    }
}

/// The result line: `correct`, `attempted`, `failed` and the named
/// metrics, each with its value and unit. Refuses a non-finite value,
/// which JSON cannot carry.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> Result<String, String> {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints the shortest form that reads back to the same
        // f64, with a decimal point, so every measured digit survives.
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Ok(90.0));
        assert_eq!(percentile(&xs, 50.0), Ok(50.0));
        assert!(percentile(&xs, 91.0).is_err());
        assert!(percentile(&xs, 99.0).is_err());
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 99.0), Ok(990.0));
        assert!(percentile(&many[..999], 99.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&xs[..19], 50.0).is_err());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn metric_names_are_validated() {
        assert!(valid_name("core.cpu_expert_immediate_us"));
        assert!(valid_name("ttft_p90_ms"));
        assert!(!valid_name("bad name"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(""));
        assert!(!valid_name("x/y"));
    }

    #[test]
    fn result_line_is_json_with_every_digit() {
        let line = result_json(true, 3, 0, &[("a_ms", 1.25, "ms"), ("b", 2.0, "s")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
        assert!(result_json(true, 1, 0, &[("x", f64::NAN, "ms")]).is_err());
    }
}
