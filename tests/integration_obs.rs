//! Integration tests for the observability layer (`sfa_core::obs`).
//!
//! Covers the cross-crate guarantees the unit tests cannot: per-phase
//! span durations summing to `ConstructionStats::total_secs` across
//! every construction variant (a property test over random DFAs), the
//! engines feeding the process-global registry, and exporter round-trips
//! over a *live* registry populated by real builds and matches.

use proptest::prelude::*;
use sfa_automata::pipeline::Pipeline;
use sfa_automata::random::random_dfa;
use sfa_automata::Alphabet;
use sfa_core::obs::{self, export, RingSubscriber, SpanRecord};
use sfa_core::prelude::*;
use std::sync::Arc;

/// Allowed disagreement between `sum(phase spans)` and `total_secs`:
/// each span's duration is rounded to whole nanoseconds independently,
/// so at most ±0.5 ns per span (3 phases + slack).
const EPSILON_NANOS: i128 = 8;

fn secs_to_nanos(secs: f64) -> i128 {
    (secs * 1e9).round() as i128
}

/// Spans delivered by the builder hook, split into the per-phase spans
/// and the `construct/total` summary.
fn split_spans(spans: &[SpanRecord]) -> (i128, i128) {
    let phase_sum = spans
        .iter()
        .filter(|s| s.name != "construct/total")
        .map(|s| s.nanos as i128)
        .sum();
    let total = spans
        .iter()
        .find(|s| s.name == "construct/total")
        .expect("construct/total span present")
        .nanos as i128;
    (phase_sum, total)
}

fn assert_spans_cover_total(builder: SfaBuilder<'_>) {
    let sub = Arc::new(RingSubscriber::new(16));
    let result = builder.with_subscriber(sub.clone()).build().unwrap();
    let spans = sub.spans();
    let (phase_sum, total) = split_spans(&spans);
    let stats_total = secs_to_nanos(result.stats.total_secs);
    assert!(
        (phase_sum - stats_total).abs() <= EPSILON_NANOS,
        "phase spans sum {phase_sum} != total_secs {stats_total} (spans: {spans:?})"
    );
    assert!(
        (total - stats_total).abs() <= EPSILON_NANOS,
        "construct/total span {total} != total_secs {stats_total}"
    );
    // Compressed runs report all three phases; uncompressed a single one.
    let expected_phases = if result.stats.compressed { 3 } else { 1 };
    assert_eq!(spans.len(), expected_phases + 1, "spans: {spans:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The span-taxonomy contract: for every construction variant the
    /// per-phase spans delivered to a subscriber sum (± rounding) to the
    /// `total_secs` the stats report.
    #[test]
    fn prop_phase_spans_sum_to_total_secs(
        states in 2u32..6,
        accept_prob in 0.1f64..0.9,
        seed in any::<u64>(),
    ) {
        let alpha = Alphabet::binary();
        let dfa = random_dfa(&alpha, states, accept_prob, seed);
        for variant in [
            SequentialVariant::Baseline,
            SequentialVariant::BaselinePointerTree,
            SequentialVariant::Hashing,
            SequentialVariant::Transposed,
        ] {
            assert_spans_cover_total(Sfa::builder(&dfa).sequential(variant));
        }
        // The parallel engine, both uncompressed and with the
        // compression phases forced on.
        assert_spans_cover_total(Sfa::builder(&dfa).threads(2));
        assert_spans_cover_total(
            Sfa::builder(&dfa)
                .threads(2)
                .compression(CompressionPolicy::FromStart),
        );
    }
}

/// Construction engines feed the process-global registry on every
/// successful run with no per-run wiring.
#[test]
fn engines_feed_the_global_registry() {
    let dfa = Pipeline::search(Alphabet::amino_acids())
        .compile_str("RG")
        .unwrap();
    let before = obs::global()
        .snapshot()
        .counter("sfa_construct_runs_total")
        .unwrap_or(0);
    Sfa::builder(&dfa).threads(2).build().unwrap();
    Sfa::builder(&dfa)
        .sequential(SequentialVariant::Transposed)
        .build()
        .unwrap();
    let after = obs::global()
        .snapshot()
        .counter("sfa_construct_runs_total")
        .unwrap_or(0);
    // `>=`: other tests in this binary may construct concurrently.
    assert!(
        after >= before + 2,
        "global sfa_construct_runs_total {before} -> {after}, expected +2"
    );
}

/// Populate a private registry through the builder and engine hooks with
/// real work, so the exporter round-trips below run over a live scrape
/// (counters, gauges, and histograms all present).
fn live_registry() -> obs::MetricsRegistry {
    let reg = obs::MetricsRegistry::new();
    let dfa = Pipeline::search(Alphabet::amino_acids())
        .compile_str("RGD")
        .unwrap();
    Sfa::builder(&dfa).threads(2).metrics(&reg).build().unwrap();
    let mut engine = MatchEngine::new(&dfa, 2).metrics(&reg);
    let text = sfa_workloads::protein_text(20_000, 0xACE5);
    engine.matches(&text);
    reg
}

/// Prometheus round-trip over a live registry: the text re-parses and
/// every registered metric appears exactly once (histogram
/// `_bucket`/`_sum`/`_count` series folding back to one base name).
#[test]
fn prometheus_export_round_trips_live_registry() {
    let reg = live_registry();
    let snap = reg.snapshot();
    assert!(snap.counter("sfa_construct_runs_total").is_some());
    assert!(snap.counter("sfa_match_queries_total").is_some());
    assert!(snap.histogram("sfa_match_elapsed_nanos").is_some());

    let text = export::prometheus_text(&snap);
    let samples = export::parse_prometheus(&text).expect("exported text re-parses");
    assert_eq!(
        export::base_metric_names(&samples),
        snap.metric_names(),
        "every registered metric present exactly once"
    );
    for name in snap.metric_names() {
        assert!(
            export::is_valid_metric_name(&name),
            "invalid Prometheus name {name:?}"
        );
        assert!(
            name.starts_with("sfa_"),
            "metric {name:?} violates the sfa_<subsystem>_<name>_<unit> scheme"
        );
    }
}

/// JSON round-trip over the same live registry: the rendered document
/// re-loads, and the union of its section keys is exactly the set of
/// registered metrics.
#[test]
fn json_export_round_trips_live_registry() {
    use obs::json::Value;
    let reg = live_registry();
    let snap = reg.snapshot();
    let text = obs::json::to_string_pretty(&export::to_json(&snap));
    let v = obs::json::from_str(&text).expect("exported JSON re-loads");

    let keys_of = |v: &Value| -> Vec<String> {
        match v {
            Value::Object(entries) => entries.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("expected object, got {other:?}"),
        }
    };
    let mut names: Vec<String> = keys_of(&v["counters"])
        .into_iter()
        .chain(keys_of(&v["gauges"]))
        .chain(keys_of(&v["histograms"]))
        .collect();
    names.sort();
    assert_eq!(names, snap.metric_names());
    assert_eq!(
        v["counters"]["sfa_match_queries_total"],
        snap.counter("sfa_match_queries_total").unwrap() as f64
    );
}

/// Every traced request reports exactly one `match/request` span,
/// whichever entry point and tier answer it.
#[test]
fn one_request_span_per_traced_request() {
    let dfa = Pipeline::search(Alphabet::amino_acids())
        .compile_str("R[GA]D")
        .unwrap();
    let sfa = Sfa::builder(&dfa).threads(2).build().unwrap().sfa;
    let matcher = ParallelMatcher::new(&sfa, &dfa).unwrap();
    let runtime = MatchRuntime::new(2);
    let mut engine = MatchEngine::new(&dfa, 2);
    let text = sfa_workloads::protein_text(50_000, 9);
    let sub = Arc::new(RingSubscriber::new(1024));
    let _guard = obs::subscribe(sub.clone());
    for tier in [
        TierPolicy::Auto,
        TierPolicy::Sequential,
        TierPolicy::Speculative,
    ] {
        let request = MatchRequest::symbols(text.clone())
            .with_tier(tier)
            .with_trace(true);
        for entry in [
            "MatchEngine::run",
            "MatchRuntime::run",
            "MatchRuntime::run_dfa",
        ] {
            sub.clear();
            match entry {
                "MatchEngine::run" => engine.run(&request),
                "MatchRuntime::run" => runtime.run(&matcher, &request),
                _ => runtime.run_dfa(&dfa, &request, None),
            }
            .unwrap();
            let spans = sub.spans();
            let reported = spans.iter().filter(|s| s.name == "match/request").count();
            assert_eq!(reported, 1, "{entry} under {tier:?}: {spans:?}");
        }
    }
}
