//! Observability for the SFA stack — `sfa_obs` re-exported, plus
//! bridges from core's own telemetry structs into it.
//!
//! See `sfa_obs` for the substrate (spans, metrics registry, exporters)
//! and DESIGN.md §12 for the span taxonomy, the
//! `sfa_<subsystem>_<name>_<unit>` naming scheme, and the overhead
//! budget. This module adds the core-type bridges:
//!
//! * [`record_construction`] — a [`ConstructionStats`] into a registry
//!   (`sfa_construct_*` counters/histograms + the contention bridge).
//! * [`record_match`] — a [`MatchStats`] into a registry
//!   (`sfa_match_*`).
//! * [`phase_spans`]/[`emit_phase_spans_to`] — the per-phase
//!   construction spans (`construct/phase1`, `construct/compression`,
//!   `construct/phase3`), derived from the same durations stored in the
//!   stats so span sums always equal `total_secs`.
//!
//! Construction engines call [`observe_construction`] on every
//! successful run, so the [`global()`] registry and any installed
//! global subscriber see every build with no per-run wiring.

pub use sfa_obs::*;

use crate::runtime::MatchStats;
use crate::stats::ConstructionStats;

/// `seconds: f64` (how stats store phase times) → whole nanoseconds.
fn secs_to_nanos(secs: f64) -> u64 {
    (secs.max(0.0) * 1e9).round() as u64
}

/// The per-phase construction spans for one finished run. Durations are
/// taken verbatim from the stats fields, so
/// `sum(phase spans) == total_secs` up to per-span rounding (< 1 ns
/// each). Uncompressed runs have a single `construct/phase1` span
/// covering the whole construction.
pub fn phase_spans(stats: &ConstructionStats) -> Vec<SpanRecord> {
    let mut spans = vec![SpanRecord {
        name: "construct/phase1",
        nanos: secs_to_nanos(stats.phase1_secs),
    }];
    if stats.compressed {
        spans.push(SpanRecord {
            name: "construct/compression",
            nanos: secs_to_nanos(stats.compression_secs),
        });
        spans.push(SpanRecord {
            name: "construct/phase3",
            nanos: secs_to_nanos(stats.phase3_secs),
        });
    }
    spans
}

/// Deliver one run's phase spans plus a `construct/total` summary span
/// to `sub` — the builder-hook delivery path
/// ([`SfaBuilder::with_subscriber`](crate::SfaBuilder::with_subscriber)).
pub fn emit_phase_spans_to(sub: &dyn Subscriber, stats: &ConstructionStats) {
    for span in phase_spans(stats) {
        sub.on_span(&span);
    }
    sub.on_span(&SpanRecord {
        name: "construct/total",
        nanos: secs_to_nanos(stats.total_secs),
    });
}

/// Record one construction run into `reg` under `sfa_construct_*`.
pub fn record_construction(reg: &MetricsRegistry, stats: &ConstructionStats) {
    reg.counter("sfa_construct_runs_total").inc();
    reg.counter("sfa_construct_states_total").add(stats.states);
    reg.counter("sfa_construct_candidates_total")
        .add(stats.candidates);
    reg.counter("sfa_construct_duplicates_total")
        .add(stats.duplicates);
    reg.counter("sfa_construct_exhaustive_compares_total")
        .add(stats.exhaustive_compares);
    reg.counter("sfa_construct_fingerprint_collisions_total")
        .add(stats.fingerprint_collisions);
    reg.counter("sfa_construct_stored_bytes_total")
        .add(stats.stored_bytes);
    reg.counter("sfa_construct_uncompressed_bytes_total")
        .add(stats.uncompressed_bytes);
    reg.gauge("sfa_construct_threads").set(stats.threads as i64);
    reg.gauge("sfa_construct_peak_bytes")
        .set(stats.peak_bytes as i64);
    reg.histogram("sfa_construct_phase1_nanos")
        .observe(secs_to_nanos(stats.phase1_secs));
    reg.histogram("sfa_construct_total_nanos")
        .observe(secs_to_nanos(stats.total_secs));
    if stats.compressed {
        reg.counter("sfa_construct_compressed_runs_total").inc();
        reg.histogram("sfa_construct_compression_nanos")
            .observe(secs_to_nanos(stats.compression_secs));
        reg.histogram("sfa_construct_phase3_nanos")
            .observe(secs_to_nanos(stats.phase3_secs));
    }
    bridge::record_contention(reg, "construct", &stats.contention);
}

/// Record one finished match into `reg` under `sfa_match_*`.
pub fn record_match(reg: &MetricsRegistry, stats: &MatchStats) {
    reg.counter("sfa_match_queries_total").inc();
    reg.counter("sfa_match_blocks_total").add(stats.blocks);
    reg.counter("sfa_match_chunks_total").add(stats.chunks);
    reg.counter("sfa_match_bytes_total").add(stats.bytes);
    reg.counter("sfa_match_retries_total").add(stats.retries);
    reg.counter("sfa_match_mispredicts_total")
        .add(stats.mispredicts);
    reg.counter("sfa_match_reruns_total").add(stats.reruns);
    reg.counter("sfa_match_state_visits_total")
        .add(stats.state_visits);
    reg.gauge("sfa_match_queue_depth")
        .set(stats.queue_depth as i64);
    reg.gauge("sfa_match_last_untimed")
        .set(stats.untimed() as i64);
    reg.histogram("sfa_match_elapsed_nanos")
        .observe(stats.elapsed_nanos());
}

/// Record the shared match pool's load gauges into `reg` (`sfa_pool_*`)
/// — what the CLI `--metrics-out` scrape calls before writing.
pub fn record_shared_pool(reg: &MetricsRegistry) {
    bridge::record_pool(reg, sfa_sync::TaskPool::shared());
}

/// Every-run hook called by the construction engines on success: feeds
/// the [`global()`] registry and, when a global subscriber is armed,
/// emits the per-phase spans.
pub(crate) fn observe_construction(stats: &ConstructionStats) {
    record_construction(global(), stats);
    if subscriber_installed() {
        for span in phase_spans(stats) {
            report_span(span.name, span.nanos);
        }
        report_span("construct/total", secs_to_nanos(stats.total_secs));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_spans_cover_total() {
        let mut stats = ConstructionStats::with_threads(4);
        stats.total_secs = 1.0;
        stats.phase1_secs = 0.6;
        stats.compression_secs = 0.3;
        stats.phase3_secs = 0.1;
        stats.compressed = true;
        let spans = phase_spans(&stats);
        assert_eq!(spans.len(), 3);
        let sum: u64 = spans.iter().map(|s| s.nanos).sum();
        assert!((sum as i64 - 1_000_000_000i64).abs() <= 3);

        stats.compressed = false;
        stats.phase1_secs = stats.total_secs;
        let spans = phase_spans(&stats);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].nanos, 1_000_000_000);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn record_construction_registers_expected_names() {
        let reg = MetricsRegistry::new();
        let mut stats = ConstructionStats::with_threads(2);
        stats.states = 100;
        stats.compressed = true;
        record_construction(&reg, &stats);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sfa_construct_runs_total"), Some(1));
        assert_eq!(snap.counter("sfa_construct_states_total"), Some(100));
        assert_eq!(snap.gauge("sfa_construct_threads"), Some(2));
        assert!(snap.histogram("sfa_construct_phase1_nanos").is_some());
        assert!(snap.histogram("sfa_construct_compression_nanos").is_some());
        assert_eq!(snap.counter("sfa_construct_cas_failures_total"), Some(0));
    }

    #[cfg(feature = "obs")]
    #[test]
    fn record_match_registers_expected_names() {
        let reg = MetricsRegistry::new();
        let stats = MatchStats {
            blocks: 2,
            chunks: 8,
            bytes: 4096,
            elapsed: std::time::Duration::from_millis(1),
            queue_depth: 1,
            mispredicts: 3,
            reruns: 2,
            state_visits: 7,
            ..MatchStats::default()
        };
        record_match(&reg, &stats);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sfa_match_queries_total"), Some(1));
        assert_eq!(snap.counter("sfa_match_bytes_total"), Some(4096));
        assert_eq!(snap.counter("sfa_match_mispredicts_total"), Some(3));
        assert_eq!(snap.counter("sfa_match_reruns_total"), Some(2));
        assert_eq!(snap.counter("sfa_match_state_visits_total"), Some(7));
        assert_eq!(snap.gauge("sfa_match_last_untimed"), Some(0));
        assert_eq!(snap.histogram("sfa_match_elapsed_nanos").unwrap().count, 1);
    }
}
