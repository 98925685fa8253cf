//! Match-runtime integration: the pooled and streaming paths must
//! agree with the sequential oracle on random DFAs and inputs (including
//! inputs straddling streaming block boundaries), never spawn threads
//! per call, surface mismatches and worker panics as typed errors, and
//! return `Cancelled` — not a hang — when cancelled mid-match.

use proptest::prelude::*;
use sfa_automata::pipeline::Pipeline;
use sfa_automata::random::random_dfa;
use sfa_automata::Alphabet;
use sfa_core::budget::{Budget, Governor};
use sfa_core::prelude::*;
use sfa_core::sfa::MappingStore;
use sfa_core::SfaError;
use sfa_sync::pool::TaskPool;
use sfa_workloads::{protein_text, ScratchDir};
use std::io::Cursor;
use std::time::Duration;

fn build(pattern: &str) -> (sfa_automata::Dfa, sfa_core::Sfa) {
    let dfa = Pipeline::search(Alphabet::amino_acids())
        .compile_str(pattern)
        .unwrap();
    let sfa = Sfa::builder(&dfa)
        .sequential(SequentialVariant::Transposed)
        .build()
        .unwrap()
        .sfa;
    (dfa, sfa)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pooled slice matching and streaming at several block sizes agree
    /// with `match_sequential` on random DFAs.
    #[test]
    fn prop_runtime_paths_agree_with_sequential(
        states in 2u32..6,
        seed in any::<u64>(),
        input in proptest::collection::vec(0u8..2, 0..200),
    ) {
        let alpha = Alphabet::binary();
        let dfa = random_dfa(&alpha, states, 0.3, seed);
        let sfa = Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .build()
            .unwrap()
            .sfa;
        let matcher = ParallelMatcher::new(&sfa, &dfa).unwrap();
        let expected = match_sequential(&dfa, &input);
        let governor = Governor::unlimited();

        // Pooled slice path.
        let rt = MatchRuntime::new(3);
        let (verdict, stats) = rt.matches_symbols(&matcher, &input, &governor).unwrap();
        prop_assert_eq!(verdict, expected);
        prop_assert_eq!(stats.bytes, input.len() as u64);

        // Streaming path at block sizes that straddle the input.
        let bytes = alpha.decode_symbols(&input);
        let classifier = ByteClassifier::strict(&alpha);
        for block in [1usize, 3, 7, 64] {
            let rt = MatchRuntime::new(2).with_block_bytes(block);
            let (verdict, _) = rt
                .matches_stream(&matcher, &classifier, Cursor::new(&bytes), &governor)
                .unwrap();
            prop_assert_eq!(verdict, expected, "block size {}", block);
        }
    }

    /// The matcher conveniences agree with their oracles on random DFAs
    /// at edge-case thread counts.
    #[test]
    fn prop_matcher_apis_agree_with_oracles(
        states in 2u32..5,
        seed in any::<u64>(),
        input in proptest::collection::vec(0u8..2, 0..60),
    ) {
        let alpha = Alphabet::binary();
        let dfa = random_dfa(&alpha, states, 0.4, seed);
        let sfa = Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .build()
            .unwrap()
            .sfa;
        let matcher = ParallelMatcher::new(&sfa, &dfa).unwrap();
        for threads in [1usize, 2, input.len().max(1), input.len() + 3] {
            prop_assert_eq!(matcher.final_state(&input, threads), dfa.run(&input));
            prop_assert_eq!(matcher.matches(&input, threads), match_sequential(&dfa, &input));
            prop_assert_eq!(
                matcher.find_first_match(&input, threads),
                dfa.first_match_end(&input)
            );
        }
    }
}

#[test]
fn streaming_64mb_agrees_with_sequential() {
    // The acceptance-criteria scenario, scaled into test time: a large
    // input streamed in blocks gives the sequential verdict. (The full
    // ≥64 MB run is the CI smoke; here 8 MB keeps the suite fast.)
    let (dfa, sfa) = build("RGD");
    let matcher = ParallelMatcher::new(&sfa, &dfa).unwrap();
    let alpha = Alphabet::amino_acids();
    let classifier = ByteClassifier::strict(&alpha);
    let len = 8 << 20;
    let text = sfa_workloads::protein_text_with_motif(len, 42, b"RGD", &[len - 100]);
    let expected = match_sequential(&dfa, &text);
    let bytes = alpha.decode_symbols(&text);
    let rt = MatchRuntime::new(4).with_block_bytes(1 << 20);
    let (verdict, stats) = rt
        .matches_stream(
            &matcher,
            &classifier,
            Cursor::new(&bytes),
            &Governor::unlimited(),
        )
        .unwrap();
    assert_eq!(verdict, expected);
    assert_eq!(stats.bytes, bytes.len() as u64);
    assert_eq!(stats.blocks, 8);
    assert!(stats.chunks >= 8, "each block should fan out chunk scans");
}

#[test]
fn pool_is_reused_across_matches() {
    // The per-call-spawn regression guard: after warm-up, 50 matches on
    // one runtime must spawn zero new OS threads.
    let (dfa, sfa) = build("RG");
    let matcher = ParallelMatcher::new(&sfa, &dfa).unwrap();
    let rt = MatchRuntime::new(4);
    let text = protein_text(50_000, 3);
    let governor = Governor::unlimited();
    rt.matches_symbols(&matcher, &text, &governor).unwrap(); // warm-up
    let before = TaskPool::threads_spawned_by_this_thread();
    for _ in 0..50 {
        rt.matches_symbols(&matcher, &text, &governor).unwrap();
    }
    assert_eq!(
        TaskPool::threads_spawned_by_this_thread(),
        before,
        "matching must never spawn threads per call"
    );
}

#[test]
fn scan_paths_never_spawn_threads_per_call() {
    // Same guard as `pool_is_reused_across_matches`, but over the
    // scan-engine paths (oversubscribed K-way final-state scan, the
    // three-pass find-first and count): all work must land on the
    // shared pool; no path may fall back to per-call spawning.
    let (dfa, sfa) = build("RG");
    let opts = sfa_core::scan::ScanOptions {
        interleave: 4,
        oversubscribe: 4,
        min_chunk_symbols: 64,
    };
    let matcher = ParallelMatcher::with_options(&sfa, &dfa, opts).unwrap();
    let text = protein_text(100_000, 5);
    // Warm up every path once (the shared pool lazily spawns its
    // workers on first use). The conveniences run on the shared pool.
    matcher.final_state(&text, 4);
    matcher.find_first_match(&text, 4);
    matcher.count_matches(&text, 4);
    let before = TaskPool::threads_spawned_by_this_thread();
    for _ in 0..20 {
        matcher.final_state(&text, 4);
        matcher.find_first_match(&text, 4);
        matcher.count_matches(&text, 4);
    }
    assert_eq!(
        TaskPool::threads_spawned_by_this_thread(),
        before,
        "scan-engine paths must never spawn threads per call"
    );
}

#[test]
fn mismatched_pair_is_a_typed_error() {
    // The release-mode silent-wrong-verdict bug: pairing an SFA with a
    // DFA it was not built from must fail with `Mismatch` in every
    // profile, not return a wrong answer.
    let (_, sfa_rg) = build("RG");
    let other = Pipeline::search(Alphabet::amino_acids())
        .compile_str("WWWW")
        .unwrap();
    match ParallelMatcher::new(&sfa_rg, &other) {
        Err(SfaError::Mismatch { .. }) => {}
        Err(other) => panic!("expected Mismatch, got {other:?}"),
        Ok(_) => panic!("mismatched pair must be rejected"),
    }
}

#[test]
fn worker_panic_is_contained_as_typed_error() {
    // A malformed SFA whose delta points at nonexistent states makes
    // `Sfa::step` index out of bounds — a worker panic. The fallible
    // API must surface `WorkerPanic`, not abort the process.
    let (dfa, _) = build("R");
    assert_eq!(dfa.num_states(), 2);
    let poisoned = Sfa::from_parts(
        2,
        20,
        0,
        vec![99; 2 * 20], // every transition jumps out of bounds
        MappingStore::U16(vec![0, 1, 1, 0]),
    );
    let matcher = ParallelMatcher::new(&poisoned, &dfa).unwrap();
    let input = protein_text(10_000, 1);
    let rt = MatchRuntime::shared();
    let request = MatchRequest::symbols(input.clone());
    match rt.run(&matcher, &request) {
        Err(SfaError::WorkerPanic { message }) => {
            assert!(!message.is_empty());
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    // The shared pool survives the panic and keeps serving.
    let (dfa2, sfa2) = build("RG");
    let healthy = ParallelMatcher::new(&sfa2, &dfa2).unwrap();
    assert_eq!(
        rt.run(&healthy, &request).unwrap().verdict,
        match_sequential(&dfa2, &input)
    );
}

#[test]
fn cancellation_mid_match_returns_cancelled_not_a_hang() {
    let (dfa, sfa) = build("RG");
    let matcher = ParallelMatcher::new(&sfa, &dfa).unwrap();
    let text = protein_text(2 << 20, 9);

    // Pre-cancelled token: deterministic Cancelled before any scan.
    let token = CancelToken::new();
    token.cancel();
    let governor = Governor::new(&Budget::unlimited(), Some(token));
    let rt = MatchRuntime::new(4);
    assert!(matches!(
        rt.matches_symbols(&matcher, &text, &governor),
        Err(SfaError::Cancelled { .. })
    ));

    // Expired deadline: deterministic BudgetExceeded.
    let governor = Governor::new(&Budget::unlimited().with_deadline(Duration::ZERO), None);
    assert!(matches!(
        rt.matches_symbols(&matcher, &text, &governor),
        Err(SfaError::BudgetExceeded { .. })
    ));

    // Cancel from another thread mid-match: must return (either verdict
    // or Cancelled), never hang. Repeat to vary interleavings.
    for _ in 0..5 {
        let token = CancelToken::new();
        let governor = Governor::new(&Budget::unlimited(), Some(token.clone()));
        let canceller = std::thread::spawn({
            let token = token.clone();
            move || {
                std::thread::sleep(Duration::from_micros(200));
                token.cancel();
            }
        });
        let result = rt.matches_symbols(&matcher, &text, &governor);
        canceller.join().unwrap();
        match result {
            Ok((verdict, _)) => assert_eq!(verdict, match_sequential(&dfa, &text)),
            Err(SfaError::Cancelled { .. }) => {}
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
}

#[test]
fn engine_threads_match_stats_and_polls_cancellation() {
    let dfa = Pipeline::search(Alphabet::amino_acids())
        .compile_str("R[GA]D")
        .unwrap();
    let mut engine = MatchEngine::new(&dfa, 4);
    assert_eq!(engine.tier(), MatchTier::FullSfa);
    let text = protein_text(100_000, 21);
    let outcome = engine.run(&MatchRequest::symbols(text.clone())).unwrap();
    let verdict = outcome.verdict;
    assert_eq!(verdict, match_sequential(&dfa, &text));
    assert_eq!(outcome.tier, MatchTier::FullSfa);
    assert_eq!(outcome.stats.bytes, text.len() as u64);
    assert!(outcome.degraded.is_none());
    assert!(engine.stats().last_match.is_some());

    // Streaming through the engine gives the same verdict, from a
    // reader and from a file request.
    let alpha = Alphabet::amino_acids();
    let classifier = ByteClassifier::strict(&alpha);
    let bytes = alpha.decode_symbols(&text);
    let (stream_verdict, stream_stats) = engine
        .match_stream(&classifier, Cursor::new(&bytes))
        .unwrap();
    assert_eq!(stream_verdict, verdict);
    assert_eq!(stream_stats.bytes, bytes.len() as u64);
    assert_eq!(stream_stats.tier, MatchTier::FullSfa);
    let scratch = ScratchDir::new("engine_stream");
    let path = scratch.join("text.txt");
    std::fs::write(&path, &bytes).unwrap();
    let file = engine.run(&MatchRequest::file(&path)).unwrap();
    assert_eq!(file.verdict, verdict);
    assert_eq!(file.tier, MatchTier::FullSfa);
    assert_eq!(file.stats.bytes, bytes.len() as u64);

    // Several file inputs through the engine agree input by input.
    for seed in [1, 2] {
        let input = protein_text(5_000, seed);
        std::fs::write(&path, alpha.decode_symbols(&input)).unwrap();
        let outcome = engine.run(&MatchRequest::file(&path)).unwrap();
        assert_eq!(outcome.verdict, match_sequential(&dfa, &input));
    }
    assert_eq!(engine.stats().full_matches, 5);

    // A cancelled engine returns Cancelled from run() but still
    // answers from matches().
    let token = CancelToken::new();
    let mut engine = MatchEngine::with_budget(
        &dfa,
        &ParallelOptions::with_threads(2),
        &Budget::unlimited(),
        Some(token.clone()),
    );
    assert_eq!(engine.tier(), MatchTier::FullSfa);
    token.cancel();
    assert!(matches!(
        engine.run(&MatchRequest::symbols(text.clone())),
        Err(SfaError::Cancelled { .. })
    ));
    assert_eq!(engine.matches(&text), match_sequential(&dfa, &text));
}

#[test]
fn engine_stream_agrees_on_every_tier_below_full() {
    // Below the full tier, streams and file requests still read one
    // block at a time, with whitespace skipped, on the tier that serves.
    let dfa = Pipeline::search(Alphabet::amino_acids())
        .compile_str("RGD")
        .unwrap();
    let budget = Budget::unlimited().with_deadline(Duration::ZERO);
    let mut engine =
        MatchEngine::with_budget(&dfa, &ParallelOptions::with_threads(2), &budget, None);
    assert_eq!(engine.tier(), MatchTier::LazySfa);
    engine.set_runtime(MatchRuntime::new(2).with_block_bytes(4096));
    let alpha = Alphabet::amino_acids();
    let text = sfa_workloads::protein_text_with_motif(10_000, 8, b"RGD", &[9_000]);
    // Wrap lines every 60 chars, as FASTA-ish files do.
    let mut wrapped = Vec::new();
    for chunk in alpha.decode_symbols(&text).chunks(60) {
        wrapped.extend_from_slice(chunk);
        wrapped.push(b'\n');
    }
    let expected = match_sequential(&dfa, &text);
    let scratch = ScratchDir::new("engine_stream_tiers");
    let path = scratch.join("wrapped.txt");
    std::fs::write(&path, &wrapped).unwrap();

    for (policy, tier) in [
        (TierPolicy::Sequential, MatchTier::Sequential),
        (TierPolicy::Speculative, MatchTier::Speculative),
        (TierPolicy::Auto, MatchTier::LazySfa),
    ] {
        let request = MatchRequest::file(&path)
            .with_classifier(ClassifierMode::SkipWhitespace)
            .with_tier(policy);
        let outcome = engine.run(&request).unwrap();
        assert_eq!(outcome.verdict, expected, "{tier}");
        assert_eq!(outcome.tier, tier);
        assert_eq!(outcome.stats.bytes, wrapped.len() as u64, "{tier}");
        assert!(
            outcome.stats.blocks > 1,
            "{tier}: the file streams in blocks"
        );

        // Strict classification rejects the first newline with its offset.
        let strict = MatchRequest::file(&path).with_tier(policy);
        let err = engine.run(&strict).unwrap_err();
        assert!(
            matches!(
                err,
                SfaError::InvalidByte {
                    byte: b'\n',
                    offset: 60
                }
            ),
            "{tier}: {err:?}"
        );
    }

    // `match_stream` serves on the engine's own tier.
    let classifier = ByteClassifier::skipping_ascii_whitespace(&alpha);
    let (verdict, stats) = engine
        .match_stream(&classifier, Cursor::new(&wrapped))
        .unwrap();
    assert_eq!(verdict, expected);
    assert_eq!(stats.tier, MatchTier::LazySfa);
    assert_eq!(stats.bytes, wrapped.len() as u64);
    assert!(stats.blocks > 1);
    assert_eq!(engine.stats().sequential_matches, 1);
    assert_eq!(engine.stats().speculative_matches, 1);
    assert_eq!(engine.stats().lazy_matches, 2);
}

/// Satellite regression: tier/degraded coherence on every degradation
/// path. The outcome must always report the tier that *actually
/// answered* (never the requested one), and the `degraded` marker must
/// be present exactly when an `Auto` request was answered below the
/// full tier — explicitly requested sequential/speculative service is
/// not a degradation.
#[test]
fn outcome_tier_and_degraded_marker_are_coherent() {
    let dfa = Pipeline::search(Alphabet::amino_acids())
        .compile_str("RGD")
        .unwrap();
    let text = protein_text(20_000, 5);

    // Path 1: the budget kills full construction and then trips the lazy
    // backend on its first discovery, so the Auto query falls through to
    // the speculative backend mid-flight. The outcome must carry the
    // degradation reason and the actual per-query mode.
    let budget = Budget::unlimited().with_deadline(Duration::ZERO);
    let opts = ParallelOptions::with_threads(2).state_budget(1);
    let mut degraded_engine = MatchEngine::with_budget(&dfa, &opts, &budget, None);
    assert_eq!(degraded_engine.tier(), MatchTier::LazySfa);
    let auto = degraded_engine
        .run(&MatchRequest::symbols(text.clone()))
        .unwrap();
    assert_eq!(degraded_engine.tier(), MatchTier::Speculative);
    assert_eq!(auto.verdict, match_sequential(&dfa, &text));
    assert!(
        matches!(auto.tier, MatchTier::PrunedSfa | MatchTier::Speculative),
        "expected a speculative-backend tier, got {}",
        auto.tier
    );
    assert_eq!(
        auto.tier, auto.stats.tier,
        "outcome and stats tiers disagree"
    );
    assert!(
        auto.degraded.is_some(),
        "Auto answered below the full tier must carry the degradation reason"
    );

    // Path 2: explicit sequential on the same degraded engine — service
    // as ordered, so the oracle run is NOT labelled degraded.
    let seq = degraded_engine
        .run(&MatchRequest::symbols(text.clone()).with_tier(TierPolicy::Sequential))
        .unwrap();
    assert_eq!(seq.tier, MatchTier::Sequential);
    assert_eq!(seq.stats.tier, MatchTier::Sequential);
    assert!(
        seq.degraded.is_none(),
        "explicitly requested sequential service is not a degradation"
    );

    // Path 3: explicit speculative on a healthy full-tier engine — the
    // outcome reports the mode that actually answered (pruned or
    // speculative, never the engine's resident FullSfa), carries the
    // speculation counters, and leaves the engine undegraded.
    let mut full_engine = MatchEngine::new(&dfa, 2);
    assert_eq!(full_engine.tier(), MatchTier::FullSfa);
    let spec = full_engine
        .run(&MatchRequest::symbols(text.clone()).with_tier(TierPolicy::Speculative))
        .unwrap();
    assert_eq!(spec.verdict, match_sequential(&dfa, &text));
    assert!(
        matches!(spec.tier, MatchTier::PrunedSfa | MatchTier::Speculative),
        "requested speculative, outcome reported {}",
        spec.tier
    );
    assert_eq!(spec.tier, spec.stats.tier);
    assert!(spec.degraded.is_none());
    assert_eq!(full_engine.tier(), MatchTier::FullSfa);

    // Path 4: a fallible-path failure inside `matches()` answers with
    // full bookkeeping — last_match reflects the sequential answer
    // instead of silently skipping telemetry.
    let token = CancelToken::new();
    token.cancel();
    let mut cancelled_engine = MatchEngine::with_budget(
        &dfa,
        &ParallelOptions::with_threads(2),
        &Budget::unlimited(),
        Some(token),
    );
    assert_eq!(
        cancelled_engine.matches(&text),
        match_sequential(&dfa, &text)
    );
    let last = cancelled_engine.stats().last_match.clone().unwrap();
    assert_eq!(last.tier, MatchTier::Sequential);
    assert_eq!(cancelled_engine.stats().sequential_matches, 1);
}

/// The raw-DFA runtime entry honors `TierPolicy::Speculative` on all
/// three input sources, agrees with the oracle, and reports the
/// speculation counters.
#[test]
fn run_dfa_speculative_tier_agrees_with_oracle() {
    let dfa = Pipeline::search(Alphabet::amino_acids())
        .compile_str("R[GA]D")
        .unwrap();
    let alpha = Alphabet::amino_acids();
    let text = sfa_workloads::protein_text_with_motif(200_000, 17, b"RAD", &[150_000]);
    let rt = MatchRuntime::new(4);

    let sym_outcome = rt
        .run_dfa(
            &dfa,
            &MatchRequest::symbols(text.clone()).with_tier(TierPolicy::Speculative),
            None,
        )
        .unwrap();
    assert_eq!(sym_outcome.verdict, match_sequential(&dfa, &text));
    assert!(matches!(
        sym_outcome.tier,
        MatchTier::PrunedSfa | MatchTier::Speculative
    ));
    assert!(sym_outcome.stats.chunks >= 1);
    assert!(sym_outcome.stats.state_visits >= sym_outcome.stats.chunks.saturating_sub(1));

    let bytes = alpha.decode_symbols(&text);
    let byte_outcome = rt
        .run_dfa(
            &dfa,
            &MatchRequest::bytes(bytes).with_tier(TierPolicy::Speculative),
            None,
        )
        .unwrap();
    assert_eq!(byte_outcome.verdict, sym_outcome.verdict);
    assert_eq!(byte_outcome.stats.bytes, text.len() as u64);

    // Cancellation under speculation is a typed error, not a hang.
    let token = CancelToken::new();
    token.cancel();
    match rt.run_dfa(
        &dfa,
        &MatchRequest::symbols(text).with_tier(TierPolicy::Speculative),
        Some(token),
    ) {
        Err(SfaError::Cancelled { .. }) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

/// `TierPolicy::RequireFull` means "the full tier or `InvalidOptions`":
/// the raw-DFA entry holds no SFA, so it must refuse rather than answer
/// sequentially.
#[test]
fn run_dfa_refuses_require_full() {
    let (dfa, _) = build("RG");
    let request = MatchRequest::text("MKVARGAA").with_tier(TierPolicy::RequireFull);
    match MatchRuntime::new(2).run_dfa(&dfa, &request, None) {
        Err(SfaError::InvalidOptions(_)) => {}
        other => panic!("expected InvalidOptions, got {other:?}"),
    }
}
