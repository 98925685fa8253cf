//! Exporters over a [`MetricsSnapshot`]: Prometheus text format and
//! JSON (`sfa_json::Value`), plus a small Prometheus parser used by the
//! round-trip tests, the `promlint` CI script, and `sfa metrics`.

use crate::snapshot::{HistogramSnapshot, MetricsSnapshot};
use std::fmt::Write as _;

/// Render a snapshot in the Prometheus text exposition format.
/// Histograms expand to cumulative `_bucket{le="..."}` series plus
/// `_sum` and `_count`, per the Prometheus convention.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in &snap.gauges {
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, hist) in &snap.histograms {
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for &(bound, count) in &hist.buckets {
            cumulative += count;
            let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", hist.count);
        let _ = writeln!(out, "{name}_sum {}", hist.sum);
        let _ = writeln!(out, "{name}_count {}", hist.count);
    }
    out
}

/// Render a snapshot as a JSON value:
/// `{"counters": {...}, "gauges": {...}, "histograms": {name:
/// {"count", "sum", "mean", "buckets": [{"le", "count"}, ...]}}}`.
/// Bucket counts here are per-bucket (not cumulative).
pub fn to_json(snap: &MetricsSnapshot) -> sfa_json::Value {
    use sfa_json::Value;
    let counters = snap
        .counters
        .iter()
        .map(|(n, v)| (n.clone(), Value::Number(*v as f64)))
        .collect();
    let gauges = snap
        .gauges
        .iter()
        .map(|(n, v)| (n.clone(), Value::Number(*v as f64)))
        .collect();
    let histograms = snap
        .histograms
        .iter()
        .map(|(n, h)| (n.clone(), histogram_json(h)))
        .collect();
    Value::Object(vec![
        ("counters".to_string(), Value::Object(counters)),
        ("gauges".to_string(), Value::Object(gauges)),
        ("histograms".to_string(), Value::Object(histograms)),
    ])
}

fn histogram_json(h: &HistogramSnapshot) -> sfa_json::Value {
    use sfa_json::Value;
    let buckets = h
        .buckets
        .iter()
        .map(|&(bound, count)| {
            Value::Object(vec![
                ("le".to_string(), Value::Number(bound as f64)),
                ("count".to_string(), Value::Number(count as f64)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("count".to_string(), Value::Number(h.count as f64)),
        ("sum".to_string(), Value::Number(h.sum as f64)),
        ("mean".to_string(), Value::Number(h.mean())),
        ("buckets".to_string(), Value::Array(buckets)),
    ])
}

/// One sample parsed back out of Prometheus text.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Full series name (histograms appear as `_bucket`/`_sum`/`_count`).
    pub name: String,
    /// Label pairs, in source order.
    pub labels: Vec<(String, String)>,
    /// Sample value (`+Inf` bucket bounds live in the label, not here).
    pub value: f64,
}

/// Parse Prometheus text exposition format (the subset
/// [`prometheus_text`] emits: `# TYPE`/`# HELP` comments, optional
/// `{k="v",...}` labels, finite decimal values).
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value_str) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value: {raw:?}", lineno + 1))?;
        let value: f64 = value_str
            .parse()
            .map_err(|_| format!("line {}: bad value {value_str:?}", lineno + 1))?;
        let (name, labels) = match series.split_once('{') {
            None => (series.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {}: unterminated labels: {raw:?}", lineno + 1))?;
                let mut labels = Vec::new();
                for pair in body.split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("line {}: bad label {pair:?}", lineno + 1))?;
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| format!("line {}: unquoted label {pair:?}", lineno + 1))?;
                    labels.push((k.trim().to_string(), v.to_string()));
                }
                (name.to_string(), labels)
            }
        };
        if name.is_empty() || !is_valid_metric_name(&name) {
            return Err(format!("line {}: invalid metric name {name:?}", lineno + 1));
        }
        samples.push(PromSample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

/// Prometheus metric-name charset: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Collapse parsed samples back to *base* metric names: histogram
/// `_bucket`/`_sum`/`_count` series fold into one name. Used by the
/// round-trip tests to assert every registered metric appears exactly
/// once.
pub fn base_metric_names(samples: &[PromSample]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for s in samples {
        let base = if s.labels.iter().any(|(k, _)| k == "le") {
            s.name
                .strip_suffix("_bucket")
                .unwrap_or(&s.name)
                .to_string()
        } else if let Some(b) = s
            .name
            .strip_suffix("_sum")
            .or_else(|| s.name.strip_suffix("_count"))
        {
            // Only fold when the matching `_bucket` series exists —
            // plain counters may legitimately end in `_count`.
            if samples.iter().any(|o| o.name == format!("{b}_bucket")) {
                b.to_string()
            } else {
                s.name.clone()
            }
        } else {
            s.name.clone()
        };
        if !names.contains(&base) {
            names.push(base);
        }
    }
    names.sort();
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![
                ("sfa_scan_chunks_total".into(), 42),
                ("sfa_scan_symbols_total".into(), 1 << 20),
            ],
            gauges: vec![("sfa_runtime_queue_depth".into(), 3)],
            histograms: vec![(
                "sfa_runtime_block_nanos".into(),
                HistogramSnapshot {
                    count: 3,
                    sum: 1100,
                    buckets: vec![(127, 1), (1023, 2)],
                },
            )],
        }
    }

    #[test]
    fn prometheus_round_trip_preserves_every_metric_once() {
        let snap = sample_snapshot();
        let text = prometheus_text(&snap);
        let samples = parse_prometheus(&text).unwrap();
        assert_eq!(base_metric_names(&samples), snap.metric_names());
        // Counter and gauge values survive.
        let chunks = samples
            .iter()
            .find(|s| s.name == "sfa_scan_chunks_total")
            .unwrap();
        assert_eq!(chunks.value, 42.0);
        let depth = samples
            .iter()
            .find(|s| s.name == "sfa_runtime_queue_depth")
            .unwrap();
        assert_eq!(depth.value, 3.0);
        // Histogram series are cumulative and +Inf matches _count.
        let buckets: Vec<&PromSample> = samples
            .iter()
            .filter(|s| s.name == "sfa_runtime_block_nanos_bucket")
            .collect();
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].value, 1.0);
        assert_eq!(buckets[1].value, 3.0);
        assert_eq!(buckets[2].labels, vec![("le".into(), "+Inf".into())]);
        assert_eq!(buckets[2].value, 3.0);
        let count = samples
            .iter()
            .find(|s| s.name == "sfa_runtime_block_nanos_count")
            .unwrap();
        assert_eq!(count.value, 3.0);
    }

    #[test]
    fn json_export_reloads() {
        let snap = sample_snapshot();
        let text = sfa_json::to_string_pretty(&to_json(&snap));
        let v = sfa_json::from_str(&text).unwrap();
        assert_eq!(v["counters"]["sfa_scan_chunks_total"], 42);
        assert_eq!(v["gauges"]["sfa_runtime_queue_depth"], 3);
        assert_eq!(v["histograms"]["sfa_runtime_block_nanos"]["count"], 3);
        assert_eq!(
            v["histograms"]["sfa_runtime_block_nanos"]["buckets"][1]["le"],
            1023
        );
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus("sfa_ok 1\n").is_ok());
        assert!(parse_prometheus("novalue\n").is_err());
        assert!(parse_prometheus("sfa_bad{le=\"1\" 2\n").is_err());
        assert!(parse_prometheus("sfa_bad nan?\n").is_err());
        assert!(parse_prometheus("9leading_digit 1\n").is_err());
    }

    #[test]
    fn metric_name_charset() {
        assert!(is_valid_metric_name("sfa_scan_chunks_total"));
        assert!(is_valid_metric_name("_private:thing"));
        assert!(!is_valid_metric_name(""));
        assert!(!is_valid_metric_name("1abc"));
        assert!(!is_valid_metric_name("has-dash"));
    }

    #[test]
    fn empty_snapshot_exports_cleanly() {
        let snap = MetricsSnapshot::default();
        assert_eq!(prometheus_text(&snap), "");
        assert!(parse_prometheus("").unwrap().is_empty());
        let v = sfa_json::from_str(&sfa_json::to_string_pretty(&to_json(&snap))).unwrap();
        assert_eq!(v["counters"], sfa_json::Value::Object(vec![]));
    }
}
