//! Immutable scrape results — the data plane.
//!
//! Snapshots are plain data produced by
//! [`MetricsRegistry::snapshot`](crate::MetricsRegistry::snapshot) (or a
//! parser) and consumed by the exporters in [`crate::export`].

/// Point-in-time value of every metric in a registry, sorted by name
/// (registries are name-keyed maps, so each metric appears exactly once).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters: `(name, merged value)`.
    pub counters: Vec<(String, u64)>,
    /// Last-write-wins gauges: `(name, value)`.
    pub gauges: Vec<(String, i64)>,
    /// Log₂-bucket histograms: `(name, snapshot)`.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// No metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Every metric name in the snapshot, sorted. Histograms contribute
    /// their base name once (exporters expand `_bucket`/`_sum`/`_count`).
    pub fn metric_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .counters
            .iter()
            .map(|(n, _)| n.clone())
            .chain(self.gauges.iter().map(|(n, _)| n.clone()))
            .chain(self.histograms.iter().map(|(n, _)| n.clone()))
            .collect();
        names.sort();
        names
    }

    /// Value of a counter by name, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of a gauge by name, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Histogram snapshot by name, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

/// One histogram's merged state: total count, total sum, and the
/// non-empty log₂ buckets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
    /// `(inclusive upper bound, observations in bucket)` for every
    /// non-empty bucket, ascending. Bucket `i` covers
    /// `[2^i, 2^(i+1) - 1]` (bucket 0 covers `{0, 1}`), so the bound is
    /// `2^(i+1) - 1`. Counts are per-bucket, **not** cumulative; the
    /// Prometheus exporter accumulates them into `le` form.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0 ≤ q ≤ 1.0`) of the observed
    /// distribution — e.g. `quantile(0.99)` for p99.
    ///
    /// The rank `ceil(q · count)` is located in the cumulative bucket
    /// counts, then linearly interpolated inside the bucket between its
    /// lower bound (`2^i`, or 0 for the first bucket) and its inclusive
    /// upper bound. Log₂ buckets bound the relative error of the estimate
    /// at 2× — the expected precision for latency reporting, not an exact
    /// order statistic. Returns 0.0 when the histogram is empty; `q`
    /// outside `[0, 1]` is clamped.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 || self.buckets.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(bound, in_bucket) in &self.buckets {
            if in_bucket == 0 {
                continue;
            }
            if seen + in_bucket >= rank {
                // Lower edge: bound is 2^(i+1)-1, so the bucket starts at
                // (bound+1)/2, except the first bucket which covers {0,1}.
                let lo = if bound <= 1 {
                    0.0
                } else {
                    bound.div_ceil(2) as f64
                };
                let hi = bound as f64;
                let into = (rank - seen) as f64 / in_bucket as f64;
                return lo + (hi - lo) * into;
            }
            seen += in_bucket;
        }
        // rank beyond the recorded buckets (can't happen when count and
        // buckets agree): the largest recorded bound.
        self.buckets.last().map(|&(b, _)| b as f64).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_and_names() {
        let snap = MetricsSnapshot {
            counters: vec![("sfa_a_total".into(), 3)],
            gauges: vec![("sfa_b_depth".into(), -2)],
            histograms: vec![(
                "sfa_c_nanos".into(),
                HistogramSnapshot {
                    count: 2,
                    sum: 10,
                    buckets: vec![(1, 1), (7, 1)],
                },
            )],
        };
        assert!(!snap.is_empty());
        assert_eq!(snap.counter("sfa_a_total"), Some(3));
        assert_eq!(snap.gauge("sfa_b_depth"), Some(-2));
        assert_eq!(snap.histogram("sfa_c_nanos").unwrap().count, 2);
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(
            snap.metric_names(),
            vec!["sfa_a_total", "sfa_b_depth", "sfa_c_nanos"]
        );
        assert!((snap.histogram("sfa_c_nanos").unwrap().mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_estimates_within_bucket_bounds() {
        // 100 observations: 50 in bucket [2,3], 49 in [4,7], 1 in [64,127].
        let h = HistogramSnapshot {
            count: 100,
            sum: 0,
            buckets: vec![(3, 50), (7, 49), (127, 1)],
        };
        let p50 = h.quantile(0.5);
        assert!((2.0..=3.0).contains(&p50), "p50={p50}");
        let p99 = h.quantile(0.99);
        assert!((4.0..=7.0).contains(&p99), "p99={p99}");
        let p999 = h.quantile(0.999);
        assert!((64.0..=127.0).contains(&p999), "p999={p999}");
        // Monotone in q, max lands on the top bucket's upper bound.
        assert!(h.quantile(1.0) >= p999);
        assert_eq!(h.quantile(1.0), 127.0);
        // Degenerate inputs.
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0.0);
        assert!(h.quantile(-3.0) <= h.quantile(2.0));
    }
}
