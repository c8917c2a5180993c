//! Order statistics and the result line.

use std::fmt::Write as _;

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile `q` of `values` (sorted in place).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    if values.is_empty() {
        return f64::NAN;
    }
    let rank = (q * values.len() as f64).ceil().max(1.0) as usize;
    values[rank.min(values.len()) - 1]
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_string(), value, unit));
    }

    /// Adds a time in seconds.
    pub fn secs(&mut self, name: &str, value: f64) {
        self.push(name, value, "s");
    }

    /// Adds a count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.push(name, value as f64, "count");
    }

    /// One human-readable line per metric.
    pub fn print(&self) {
        for (name, value, unit) in &self.entries {
            println!("{name:<32} {value:>16.6} {unit}");
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}
