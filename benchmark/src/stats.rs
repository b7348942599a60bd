//! Latency summaries, process memory, and the one-line JSON result.

use std::fmt::Write as _;

/// Latency samples of one run, in nanoseconds.
#[derive(Debug, Default)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    pub fn mean_us(&self) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        self.total_ns() as f64 / self.ns.len() as f64 / 1000.0
    }

    /// Quantile `q` in µs: the nearest-rank value of the sorted samples.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64 / 1000.0
    }
}

/// Median of a non-empty list (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The first quartile of a non-empty list (nearest rank). Over a run's
/// rounds: a round no neighbour's burst on a shared machine reached, yet
/// not the single luckiest one.
pub fn low_quartile(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 4]
}

/// `part / whole`, or 0 when nothing was attempted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics in report order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    /// Human-readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.entries {
            let _ = writeln!(out, "  {name:<36} {value:>14.3} {unit}");
        }
        out
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // JSON has no NaN or infinity; a metric that cannot be
            // computed reads 0.
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}
