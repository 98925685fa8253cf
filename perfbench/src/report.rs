//! What a workload run produces: operation tallies, raw timings, the
//! end-to-end metrics, the per-layer metrics and the span tree.

use crate::stats::{median, Samples};
use crate::trace::{SpanTree, Tracer};
use sfa_core::ConstructionStats;
use sfa_json::Value;
use std::collections::BTreeMap;

/// End-to-end metrics, in `BENCHMARK.json` order: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op1_ms", "ms"),
    ("op2_ms", "ms"),
    ("op3_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run, in `BENCHMARK.json` order. A
/// workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("automata.compile_s", "s"),
    ("construct.engine_s", "s"),
    ("construct.phase1_s", "s"),
    ("construct.states", "count"),
    ("construct.states_per_s", "1/s"),
    ("construct.candidates", "count"),
    ("construct.duplicates", "count"),
    ("construct.exhaustive_compares", "count"),
    ("construct.fingerprint_collisions", "count"),
    ("construct.cas_failures", "count"),
    ("construct.steal_attempts", "count"),
    ("construct.steal_successes", "count"),
    ("construct.steal_success_ratio", "ratio"),
    ("construct.harvest_s", "s"),
    ("construct.compression_s", "s"),
    ("construct.phase3_s", "s"),
    ("construct.sequential_build_s", "s"),
    ("store.uncompressed_bytes", "bytes"),
    ("store.stored_bytes", "bytes"),
    ("store.compression_ratio", "ratio"),
    ("store.peak_payload_bytes", "bytes"),
    ("artifact.bytes", "bytes"),
    ("artifact.encode_mb_s", "MB/s"),
    ("artifact.decode_mb_s", "MB/s"),
    ("runtime.classify_s", "s"),
    ("match.blocks", "count"),
    ("match.chunks", "count"),
    ("scan.symbols_s", "s"),
    ("scan.table_build_s", "s"),
    ("engine.full_matches", "count"),
    ("engine.lazy_matches", "count"),
    ("engine.pruned_matches", "count"),
    ("engine.speculative_matches", "count"),
    ("engine.sequential_matches", "count"),
    ("engine.degradations", "count"),
    ("spec.chunks", "count"),
    ("spec.mispredicts", "count"),
    ("spec.reruns", "count"),
    ("spec.state_visits", "count"),
    ("spec.rerun_ratio", "ratio"),
    ("match.sequential_mb_s", "MB/s"),
    ("serve.client_encode_s", "s"),
    ("serve.client_decode_s", "s"),
    ("serve.frame_s", "s"),
    ("serve.parse_s", "s"),
    ("serve.decode_s", "s"),
    ("serve.match_s", "s"),
    ("serve.reply_encode_s", "s"),
    ("serve.handle_s", "s"),
    ("serve.request_bytes", "bytes"),
    ("serve.reply_bytes", "bytes"),
    ("serve.wire_bytes_per_input_byte", "ratio"),
    ("serve.admit_s", "s"),
    ("serve.rejections", "count"),
    ("serve.registry_load_s", "s"),
    ("serve.sequential_share", "ratio"),
    ("serve.wait_s", "s"),
];

/// Trace-quality metrics every traced run reports besides [`PER_LAYER`].
pub const TRACE_QUALITY: [(&str, &str); 2] = [
    ("trace.uncovered_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Operations attempted and failed, with the first failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or failed an oracle check.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Tally {
    const KEEP_ERRORS: usize = 8;

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < Self::KEEP_ERRORS {
            self.errors.push(msg);
        }
    }

    /// Count one attempted operation; an `Err` counts as failed.
    pub fn record<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| self.fail(e)).ok()
    }

    /// An oracle check on an attempted operation; a miss counts as failed.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }

    /// [`Self::check`] for a fallible validation.
    pub fn check_result<E: std::fmt::Display>(&mut self, r: Result<(), E>, what: &str) {
        if let Err(e) = r {
            self.fail(format!("{what}: {e}"));
        }
    }
}

/// Per-layer samples, reduced to medians at the end of the run.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Metrics read off the span tree: metric name, span name.
    from_spans: Vec<(&'static str, &'static str)>,
}

impl Layers {
    /// Record one sample of a per-layer metric.
    pub fn push(&mut self, metric: &'static str, v: f64) {
        self.samples.entry(metric).or_default().push(v);
    }

    /// Derive `metric` as the median self time of the spans named `span`.
    pub fn span_metric(&mut self, metric: &'static str, span: &'static str) {
        self.from_spans.push((metric, span));
    }

    /// `trace.overhead_ratio`: how much slower the headline operation
    /// ran traced than untraced (median over median, minus one).
    pub fn overhead(&mut self, untraced: &Samples, traced: &[f64]) {
        if !untraced.values.is_empty() && !traced.is_empty() {
            self.push(
                "trace.overhead_ratio",
                median(traced) / untraced.median() - 1.0,
            );
        }
    }

    /// The engine counters of one construction.
    pub fn construction(&mut self, s: &ConstructionStats) {
        let c = &s.contention;
        self.push("construct.states", s.states as f64);
        self.push("construct.states_per_s", s.states as f64 / s.total_secs);
        self.push("construct.candidates", s.candidates as f64);
        self.push("construct.duplicates", s.duplicates as f64);
        self.push(
            "construct.exhaustive_compares",
            s.exhaustive_compares as f64,
        );
        self.push(
            "construct.fingerprint_collisions",
            s.fingerprint_collisions as f64,
        );
        self.push("construct.cas_failures", c.cas_failures as f64);
        self.push("construct.steal_attempts", c.steal_attempts as f64);
        self.push("construct.steal_successes", c.steal_successes as f64);
        self.push(
            "construct.steal_success_ratio",
            ratio(c.steal_successes as f64, c.steal_attempts as f64),
        );
        self.push("store.uncompressed_bytes", s.uncompressed_bytes as f64);
        self.push("store.stored_bytes", s.stored_bytes as f64);
        self.push("store.compression_ratio", s.compression_ratio());
        self.push("store.peak_payload_bytes", s.peak_bytes as f64);
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One workload run's results.
#[derive(Default)]
pub struct Report {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Every named timing, with its raw samples.
    pub timings: Vec<Samples>,
    /// End-to-end metric values by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (traced runs).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Input sizes.
    pub inputs: Vec<(String, f64)>,
    /// The checked span tree (traced runs).
    pub spans: Option<SpanTree>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Record an input size.
    pub fn input(&mut self, name: &str, value: f64) {
        self.inputs.push((name.to_string(), value));
    }

    /// Keep a named timing for the detailed output (skipped when empty).
    pub fn timing(&mut self, s: Samples) {
        if !s.values.is_empty() {
            self.timings.push(s);
        }
    }

    /// Set the end-to-end metrics, in [`END_TO_END`] order. Only
    /// untraced runs report them. Set-up and peak RSS are medians; an
    /// operation's time is the mean of its samples, because the host's
    /// speed switches between two levels and the mean moves smoothly
    /// with the share of time spent at each, where the median jumps.
    pub fn end_to_end(&mut self, values: [f64; END_TO_END.len()]) {
        for ((name, _), v) in END_TO_END.iter().zip(values) {
            self.end_to_end.insert(name, v);
        }
    }

    /// Close the run: reduce the per-layer samples to medians, check
    /// the span tree and read the span-derived metrics off it.
    pub fn finish(
        mut self,
        tally: Tally,
        layers: Layers,
        tracer: &Tracer,
    ) -> Result<Report, String> {
        self.tally = tally;
        if !tracer.available() {
            return Ok(self);
        }
        let tree = SpanTree::build(tracer.spans()).map_err(|e| format!("span tree: {e}"))?;
        for (metric, values) in &layers.samples {
            self.per_layer.insert(metric, median(values));
        }
        for (metric, span) in &layers.from_spans {
            let secs = tree.self_secs(span);
            if !secs.is_empty() {
                self.per_layer.insert(metric, median(&secs));
            }
        }
        self.per_layer
            .insert("trace.uncovered_share", tree.uncovered_share());
        self.spans = Some(tree);
        Ok(self)
    }

    /// The metrics the final JSON line carries: every end-to-end metric
    /// (untraced runs) or every per-layer metric (traced runs).
    pub fn metrics(&self, traced: bool) -> Result<Value, String> {
        let (list, values): (Vec<(&str, &str)>, _) = if traced {
            (
                PER_LAYER.iter().chain(&TRACE_QUALITY).copied().collect(),
                &self.per_layer,
            )
        } else {
            (END_TO_END.to_vec(), &self.end_to_end)
        };
        let mut fields = Vec::new();
        for (name, unit) in list {
            let value = match values.get(name) {
                Some(&v) => v,
                // A layer this workload never reaches.
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            fields.push((
                name.to_string(),
                Value::Object(vec![
                    ("value".into(), Value::Number(value)),
                    ("unit".into(), Value::String(unit.into())),
                ]),
            ));
        }
        Ok(Value::Object(fields))
    }
}
