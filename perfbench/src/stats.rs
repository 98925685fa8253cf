//! Sample summaries: exact order statistics over raw samples.
//!
//! Every timing is summarised from its raw per-operation samples — never
//! from histogram buckets — as its median, its sample count and the
//! highest percentile that still has at least ten samples beyond it.

/// Percentiles considered for the tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples beyond a percentile needed before it is reported.
const TAIL_MIN_BEYOND: f64 = 10.0;

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (panics on an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it, as `(percentile, value)`; `None` below 20 samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len() as f64;
    let p = TAIL_LADDER
        .iter()
        .copied()
        .find(|p| n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND)?;
    Some((p, quantile_sorted(&sorted(values), p / 100.0)))
}

/// A named set of raw samples of one quantity.
#[derive(Debug, Clone)]
pub struct Samples {
    /// Metric name, e.g. `build_s`.
    pub name: String,
    /// Unit of every sample, e.g. `s`.
    pub unit: &'static str,
    /// Raw samples in measurement order.
    pub values: Vec<f64>,
}

impl Samples {
    /// An empty sample set.
    pub fn new(name: impl Into<String>, unit: &'static str) -> Samples {
        Samples {
            name: name.into(),
            unit,
            values: Vec::new(),
        }
    }

    /// Record one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Median of the samples (panics when none were taken).
    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    /// Mean of the samples: total over count (panics when none were
    /// taken).
    pub fn mean(&self) -> f64 {
        assert!(!self.values.is_empty(), "mean of no samples");
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// One human-readable line: median, mean, count and tail.
    pub fn describe(&self) -> String {
        let tail = match tail(&self.values) {
            Some((p, v)) => format!("p{p} {v:.6}"),
            None => "tail n/a (<20 samples)".to_string(),
        };
        format!(
            "{:<22} median {:>14.6} {:<6} mean {:>14.6} n={:<6} {tail}",
            self.name,
            self.median(),
            self.unit,
            self.mean(),
            self.values.len()
        )
    }

    /// JSON summary: median, mean, count, raw values, tail percentile
    /// and value.
    pub fn to_json(&self) -> sfa_json::Value {
        use sfa_json::Value;
        let mut fields = vec![
            ("unit".to_string(), Value::String(self.unit.into())),
            ("median".to_string(), Value::Number(self.median())),
            ("mean".to_string(), Value::Number(self.mean())),
            ("n".to_string(), Value::Number(self.values.len() as f64)),
            (
                "values".to_string(),
                Value::Array(self.values.iter().map(|&v| Value::Number(v)).collect()),
            ),
        ];
        if let Some((p, v)) = tail(&self.values) {
            fields.push(("tail_percentile".to_string(), Value::Number(p)));
            fields.push(("tail".to_string(), Value::Number(v)));
        }
        Value::Object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let few: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(tail(&few), None);
        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail(&twenty).map(|t| t.0), Some(50.0));
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        let (p, v) = tail(&thousand).unwrap();
        assert_eq!(p, 99.0);
        assert!((v - 989.01).abs() < 1e-9);
    }
}
