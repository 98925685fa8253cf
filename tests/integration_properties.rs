//! Property-based integration tests over the whole stack.

use proptest::prelude::*;
use sfa_automata::pipeline::Pipeline;
use sfa_automata::random::random_dfa;
use sfa_automata::Alphabet;
use sfa_core::budget::Governor;
use sfa_core::prelude::*;
use sfa_core::scan::ScanOptions;
use sfa_core::sfa::Sfa;
use sfa_sync::pool::TaskPool;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For random small DFAs the SFA must validate and agree between the
    /// sequential and parallel engines.
    #[test]
    fn prop_random_dfa_sfa_is_consistent(
        states in 2u32..6,
        accept_prob in 0.1f64..0.9,
        seed in any::<u64>(),
    ) {
        let alpha = Alphabet::binary();
        let dfa = random_dfa(&alpha, states, accept_prob, seed);
        let seq = Sfa::builder(&dfa).sequential(SequentialVariant::Transposed).build().unwrap();
        seq.sfa.validate(&dfa).unwrap();
        let par = Sfa::builder(&dfa).options(&ParallelOptions::with_threads(2)).build().unwrap();
        par.sfa.validate(&dfa).unwrap();
        prop_assert_eq!(seq.sfa.num_states(), par.sfa.num_states());
        // SFA states are functions Q → Q: there can never be more than n^n,
        // and there is always at least the identity.
        let bound = (states as u64).pow(states);
        prop_assert!(seq.sfa.num_states() as u64 <= bound);
        prop_assert!(seq.sfa.num_states() >= 1);
    }

    /// The SFA's defining property: running the SFA over any input gives
    /// the mapping q ↦ δ*(q, input) for EVERY q simultaneously.
    #[test]
    fn prop_sfa_simulates_all_start_states(
        seed in any::<u64>(),
        input in proptest::collection::vec(0u8..2, 0..60),
    ) {
        let alpha = Alphabet::binary();
        let dfa = random_dfa(&alpha, 4, 0.4, seed);
        let sfa = Sfa::builder(&dfa).sequential(SequentialVariant::Transposed).build()
            .unwrap()
            .sfa;
        let s = sfa.run(&input);
        let mapping = sfa.mapping_of(s);
        for q in 0..dfa.num_states() {
            prop_assert_eq!(mapping[q as usize], dfa.run_from(q, &input));
        }
    }

    /// Mapping composition is associative and compatible with
    /// concatenation — the foundation of the parallel-match reduction.
    #[test]
    fn prop_mapping_composition_associative(
        seed in any::<u64>(),
        a in proptest::collection::vec(0u8..2, 0..30),
        b in proptest::collection::vec(0u8..2, 0..30),
        c in proptest::collection::vec(0u8..2, 0..30),
    ) {
        let alpha = Alphabet::binary();
        let dfa = random_dfa(&alpha, 4, 0.4, seed);
        let sfa = Sfa::builder(&dfa).sequential(SequentialVariant::Transposed).build()
            .unwrap()
            .sfa;
        let fa = sfa.mapping_of(sfa.run(&a));
        let fb = sfa.mapping_of(sfa.run(&b));
        let fc = sfa.mapping_of(sfa.run(&c));
        let left = Sfa::compose(&Sfa::compose(&fa, &fb), &fc);
        let right = Sfa::compose(&fa, &Sfa::compose(&fb, &fc));
        prop_assert_eq!(&left, &right);
        // And composition equals concatenation.
        let abc: Vec<u8> = a.iter().chain(&b).chain(&c).copied().collect();
        let direct = sfa.mapping_of(sfa.run(&abc));
        prop_assert_eq!(left, direct);
    }

    /// Parallel matching agrees with the sequential matcher for random
    /// patterns and random texts.
    #[test]
    fn prop_matchers_agree(
        text in proptest::collection::vec(0u8..20, 0..300),
        threads in 1usize..6,
        pattern_pick in 0usize..4,
    ) {
        let patterns = ["RG", "R[GA]N", "N[^P][ST]", "[RK]{2}"];
        let dfa = Pipeline::search(Alphabet::amino_acids())
            .compile_str(patterns[pattern_pick])
            .unwrap();
        let sfa = Sfa::builder(&dfa).sequential(SequentialVariant::Transposed).build()
            .unwrap()
            .sfa;
        prop_assert_eq!(
            match_with_sfa(&sfa, &dfa, &text, threads),
            match_sequential(&dfa, &text)
        );
    }

    /// Grail+ serialization round-trips arbitrary random DFAs.
    #[test]
    fn prop_grail_round_trip(states in 1u32..20, seed in any::<u64>()) {
        let alpha = Alphabet::lowercase();
        let dfa = random_dfa(&alpha, states, 0.3, seed);
        let text = sfa_automata::grail::write_dfa(&dfa);
        let back = sfa_automata::grail::read_dfa(&text, Some(alpha)).unwrap();
        prop_assert!(dfa.isomorphic(&back));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Compressed construction preserves the automaton for random DFAs.
    #[test]
    fn prop_compression_preserves_automaton(seed in any::<u64>()) {
        let alpha = Alphabet::binary();
        let dfa = random_dfa(&alpha, 5, 0.4, seed);
        let raw = Sfa::builder(&dfa).options(&ParallelOptions::with_threads(2)).build().unwrap();
        let compressed = Sfa::builder(&dfa).options(&ParallelOptions::with_threads(2).compression(CompressionPolicy::FromStart)).build()
        .unwrap();
        prop_assert_eq!(raw.sfa.num_states(), compressed.sfa.num_states());
        compressed.sfa.validate(&dfa).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Hopcroft and Brzozowski minimization agree on random DFAs — two
    /// completely independent algorithms, one oracle.
    #[test]
    fn prop_minimizers_agree(states in 2u32..10, seed in any::<u64>()) {
        let alpha = Alphabet::binary();
        let dfa = random_dfa(&alpha, states, 0.35, seed);
        let hopcroft = sfa_automata::minimize::minimize(&dfa);
        let brzozowski =
            sfa_automata::brzozowski::minimize_brzozowski(&dfa, Some(100_000)).unwrap();
        prop_assert!(hopcroft.isomorphic(&brzozowski));
    }

    /// The lazy SFA and the batch engine agree on every verdict, and the
    /// lazy SFA never discovers more distinct states than the full SFA has.
    #[test]
    fn prop_lazy_agrees_with_batch(
        seed in any::<u64>(),
        input in proptest::collection::vec(0u8..2, 0..120),
    ) {
        let alpha = Alphabet::binary();
        let dfa = random_dfa(&alpha, 4, 0.4, seed);
        let batch = Sfa::builder(&dfa).options(&ParallelOptions::with_threads(2)).build().unwrap();
        let lazy = sfa_core::lazy::LazySfa::new(&dfa, 1 << 14).unwrap();
        prop_assert_eq!(
            lazy.matches(&input, 3).unwrap(),
            match_sequential(&dfa, &input)
        );
        let final_lazy = lazy.run(&input).unwrap();
        prop_assert_eq!(
            lazy.apply(final_lazy, dfa.start()),
            dfa.run(&input)
        );
        // Arena may hold a few race losers, never more than full + slack.
        prop_assert!(lazy.states_built() <= batch.sfa.num_states() + 4);
    }

    /// Binary serialization round-trips any constructed SFA.
    #[test]
    fn prop_io_round_trip(seed in any::<u64>(), compress in any::<bool>()) {
        let alpha = Alphabet::binary();
        let dfa = random_dfa(&alpha, 5, 0.4, seed);
        let opts = if compress {
            ParallelOptions::with_threads(2).compression(CompressionPolicy::FromStart)
        } else {
            ParallelOptions::with_threads(2)
        };
        let sfa = Sfa::builder(&dfa).options(&opts).build().unwrap().sfa;
        let back = sfa_core::io::from_bytes(&sfa_core::io::to_bytes(&sfa)).unwrap();
        prop_assert_eq!(back.num_states(), sfa.num_states());
        back.validate(&dfa).unwrap();
    }

    /// Parallel occurrence counting equals the sequential count for any
    /// DFA (the property needs no scanner semantics — it counts accepting
    /// positions).
    #[test]
    fn prop_count_matches_agrees(
        seed in any::<u64>(),
        input in proptest::collection::vec(0u8..2, 0..200),
        threads in 1usize..5,
    ) {
        let alpha = Alphabet::binary();
        let dfa = random_dfa(&alpha, 5, 0.4, seed);
        let sfa = Sfa::builder(&dfa).sequential(SequentialVariant::Transposed).build()
            .unwrap()
            .sfa;
        let matcher = ParallelMatcher::new(&sfa, &dfa).unwrap();
        prop_assert_eq!(
            matcher.count_matches(&input, threads),
            sfa_core::matcher::count_matches_sequential(&dfa, &input)
        );
    }

    /// find_first_match equals the sequential first-accept position.
    #[test]
    fn prop_first_match_agrees(
        seed in any::<u64>(),
        input in proptest::collection::vec(0u8..2, 0..200),
        threads in 1usize..5,
    ) {
        let alpha = Alphabet::binary();
        let dfa = random_dfa(&alpha, 5, 0.4, seed);
        let sfa = Sfa::builder(&dfa).sequential(SequentialVariant::Transposed).build()
            .unwrap()
            .sfa;
        let matcher = ParallelMatcher::new(&sfa, &dfa).unwrap();
        prop_assert_eq!(
            matcher.find_first_match(&input, threads),
            sfa_core::matcher::find_first_match_sequential(&dfa, &input)
        );
    }

    /// The probabilistic engine (dense random Rabin moduli) produces the
    /// exact automaton on these sizes.
    #[test]
    fn prop_probabilistic_is_exact_at_small_scale(seed in any::<u64>()) {
        let alpha = Alphabet::binary();
        let dfa = random_dfa(&alpha, 5, 0.4, seed);
        let exact = Sfa::builder(&dfa).options(&ParallelOptions::with_threads(2)).build().unwrap();
        let prob = Sfa::builder(&dfa).options(&ParallelOptions::with_threads(2)
                .probabilistic(sfa_core::parallel::FingerprintAlgo::Rabin)).build()
        .unwrap();
        prop_assert_eq!(prob.sfa.num_states(), exact.sfa.num_states());
        prob.sfa.validate(&dfa).unwrap();
    }
}

// Scan-engine properties: the K-way interleaved scan, the compact
// tables, and the pass-2 fold must be *byte-identical* to the
// sequential oracles across every knob combination — including
// odd chunk counts (min_chunk_symbols = 1 forces multi-chunk geometry
// on tiny inputs) and matches straddling chunk seams.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Verdict, final state, occurrence count and first-match position
    /// agree with the sequential oracles for every interleave width
    /// K ∈ {1,2,4,8} and oversubscription factor.
    #[test]
    fn prop_interleaved_scan_agrees_with_oracles(
        seed in any::<u64>(),
        input in proptest::collection::vec(0u8..2, 0..200),
        threads in 1usize..5,
        k_pick in 0usize..4,
        oversubscribe in 1usize..4,
    ) {
        let alpha = Alphabet::binary();
        let dfa = random_dfa(&alpha, 5, 0.4, seed);
        let sfa = Sfa::builder(&dfa).sequential(SequentialVariant::Transposed).build()
            .unwrap()
            .sfa;
        let opts = ScanOptions {
            interleave: [1, 2, 4, 8][k_pick],
            oversubscribe,
            min_chunk_symbols: 1,
        };
        let matcher = ParallelMatcher::with_options(&sfa, &dfa, opts).unwrap();
        prop_assert_eq!(matcher.matches(&input, threads), match_sequential(&dfa, &input));
        prop_assert_eq!(matcher.final_state(&input, threads), dfa.run(&input));
        prop_assert_eq!(
            matcher.count_matches(&input, threads),
            sfa_core::matcher::count_matches_sequential(&dfa, &input)
        );
        prop_assert_eq!(
            matcher.find_first_match(&input, threads),
            sfa_core::matcher::find_first_match_sequential(&dfa, &input)
        );
    }

    /// A match planted at an arbitrary position — including straddling
    /// any chunk seam the forced multi-chunk geometry produces — is
    /// found at exactly the sequential position.
    #[test]
    fn prop_straddling_matches_are_found(
        text_len in 40usize..160,
        pos_frac in 0.0f64..1.0,
        k_pick in 0usize..4,
        threads in 1usize..5,
    ) {
        let alpha = Alphabet::amino_acids();
        let dfa = Pipeline::search(alpha.clone()).compile_str("RG").unwrap();
        let sfa = Sfa::builder(&dfa).sequential(SequentialVariant::Transposed).build()
            .unwrap()
            .sfa;
        let mut text = vec![b'A'; text_len];
        let pos = ((text_len - 2) as f64 * pos_frac) as usize;
        text[pos] = b'R';
        text[pos + 1] = b'G';
        let syms = alpha.encode_bytes(&text).unwrap();
        let opts = ScanOptions {
            interleave: [1, 2, 4, 8][k_pick],
            oversubscribe: 2,
            min_chunk_symbols: 1,
        };
        let matcher = ParallelMatcher::with_options(&sfa, &dfa, opts).unwrap();
        prop_assert_eq!(matcher.find_first_match(&syms, threads), Some(pos + 2));
        // The search automaton stays accepting once "RG" has been seen,
        // so every later position counts — compare against the oracle.
        prop_assert_eq!(
            matcher.count_matches(&syms, threads),
            sfa_core::matcher::count_matches_sequential(&dfa, &syms)
        );
        prop_assert!(matcher.matches(&syms, threads));
    }

    /// Under a racing deadline or cancellation the governed full-tier
    /// scan either answers exactly the oracle or fails with the
    /// governance error — never a wrong verdict. (The governed count and
    /// find-first scans have the same property in `matcher.rs`.)
    #[test]
    fn prop_governed_scan_is_exact_or_stopped(
        seed in any::<u64>(),
        input in proptest::collection::vec(0u8..2, 0..300),
        threads in 1usize..4,
        cancel_now in any::<bool>(),
        deadline_us in 0u64..200,
    ) {
        let alpha = Alphabet::binary();
        let dfa = random_dfa(&alpha, 5, 0.4, seed);
        let sfa = Sfa::builder(&dfa).sequential(SequentialVariant::Transposed).build()
            .unwrap()
            .sfa;
        let opts = ScanOptions {
            interleave: 4,
            oversubscribe: 2,
            min_chunk_symbols: 1,
        };
        let matcher = ParallelMatcher::with_options(&sfa, &dfa, opts).unwrap();
        let token = CancelToken::new();
        if cancel_now {
            token.cancel();
        }
        let budget = Budget::unlimited().with_deadline(Duration::from_micros(deadline_us));

        let rt = MatchRuntime::new(threads);
        let governor = Governor::new(&budget, Some(token));
        match rt.matches_symbols(&matcher, &input, &governor) {
            Ok((verdict, _)) => prop_assert_eq!(verdict, match_sequential(&dfa, &input)),
            Err(SfaError::Cancelled { .. }) | Err(SfaError::BudgetExceeded { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
    }
}

/// Build a [`MatchStats`] from the outside (the struct is
/// `#[non_exhaustive]`, so external code mutates a default).
#[allow(clippy::field_reassign_with_default)]
fn stats_for_wire_test(
    tier: MatchTier,
    blocks: u64,
    chunks: u64,
    bytes: u64,
    elapsed: Duration,
    queue_depth: usize,
    retries: u64,
) -> MatchStats {
    let mut stats = MatchStats::default();
    stats.tier = tier;
    stats.blocks = blocks;
    stats.chunks = chunks;
    stats.bytes = bytes;
    stats.elapsed = elapsed;
    stats.queue_depth = queue_depth;
    stats.retries = retries;
    stats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The wire types round-trip through `sfa-json` exactly, and the
    /// request decoder tolerates unknown fields (an old server must
    /// accept a newer client's request).
    #[test]
    fn prop_match_request_round_trips_through_json(
        kind in 0u8..3,
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        pattern_nibbles in proptest::option::of(proptest::collection::vec(0u8..16, 1..17)),
        deadline_ms in proptest::option::of(0u64..10_000),
        tier_ix in 0usize..4,
        skip_ws in any::<bool>(),
        trace in any::<bool>(),
    ) {
        let mut req = match kind {
            0 => MatchRequest::symbols(payload.clone()),
            1 => MatchRequest::bytes(payload.clone()),
            _ => MatchRequest::file("inputs/genome.txt"),
        };
        let pattern = pattern_nibbles.map(|nibbles| {
            nibbles
                .iter()
                .map(|&n| char::from_digit(n as u32, 16).unwrap())
                .collect::<String>()
        });
        if let Some(p) = &pattern {
            req = req.with_pattern(p.clone());
        }
        if let Some(ms) = deadline_ms {
            req = req.with_deadline(Duration::from_millis(ms));
        }
        req = req
            .with_tier(
                [
                    TierPolicy::Auto,
                    TierPolicy::Sequential,
                    TierPolicy::Speculative,
                    TierPolicy::RequireFull,
                ][tier_ix],
            )
            .with_classifier(if skip_ws {
                ClassifierMode::SkipWhitespace
            } else {
                ClassifierMode::Strict
            })
            .with_trace(trace);

        let text = sfa_json::to_string(&req.to_json());
        let mut v = sfa_json::from_str(&text).unwrap();
        // Inject a field from a hypothetical future client.
        if let sfa_json::Value::Object(fields) = &mut v {
            fields.push(("zz_future_axis".into(), sfa_json::Value::Number(1.5)));
        }
        let back = MatchRequest::from_json(&v).unwrap();
        prop_assert_eq!(back, req);
    }

    /// Outcome round-trip: every counter survives the wire; derived
    /// float fields may render as `null` (non-finite) and still decode.
    #[test]
    fn prop_match_outcome_round_trips_through_json(
        verdict in any::<bool>(),
        tier_ix in 0usize..5,
        blocks in any::<u32>(),
        chunks in any::<u32>(),
        bytes in any::<u32>(),
        queue_depth in 0usize..1_000,
        retries in any::<u8>(),
        elapsed_us in 0u64..10_000_000,
        degraded_ascii in proptest::option::of(proptest::collection::vec(32u8..127, 0..40)),
    ) {
        let degraded = degraded_ascii.map(|b| String::from_utf8(b).unwrap());
        let tier = [
            MatchTier::FullSfa,
            MatchTier::LazySfa,
            MatchTier::PrunedSfa,
            MatchTier::Speculative,
            MatchTier::Sequential,
        ][tier_ix];
        let stats = stats_for_wire_test(
            tier,
            blocks as u64,
            chunks as u64,
            bytes as u64,
            Duration::from_micros(elapsed_us),
            queue_depth,
            retries as u64,
        );
        let mut out = MatchOutcome::new(verdict, stats);
        if let Some(d) = &degraded {
            out = out.with_degraded(d.clone());
        }
        let text = sfa_json::to_string(&out.to_json());
        let back = MatchOutcome::from_json(&sfa_json::from_str(&text).unwrap()).unwrap();
        prop_assert_eq!(back.verdict, out.verdict);
        prop_assert_eq!(back.tier, out.tier);
        prop_assert_eq!(back.stats.blocks, out.stats.blocks);
        prop_assert_eq!(back.stats.chunks, out.stats.chunks);
        prop_assert_eq!(back.stats.bytes, out.stats.bytes);
        prop_assert_eq!(back.stats.queue_depth, out.stats.queue_depth);
        prop_assert_eq!(back.stats.retries, out.stats.retries);
        prop_assert_eq!(back.stats.elapsed, out.stats.elapsed);
        prop_assert_eq!(back.degraded.clone(), out.degraded.clone());
    }
}

// Speculative-tier properties: chunk-parallel matching on the raw DFA
// (predicted entries + seam verification, or the exact pruned mode for
// narrow feasible sets) must be verdict- and state-identical to the
// sequential oracle — including under an adversary that defeats every
// prediction, and under racing governance.

/// Mod-`m` counter: symbol 0 advances the counter, everything else
/// self-loops. A permutation under symbol 0 keeps every boundary's
/// feasible set full-width, which forces the predict/verify mode
/// (never the pruned one).
fn counter_dfa(m: u32) -> sfa_automata::Dfa {
    use sfa_automata::dfa::DfaBuilder;
    let mut b = DfaBuilder::new(Alphabet::amino_acids());
    for q in 0..m {
        b.add_state(q == 0);
    }
    for q in 0..m {
        b.add_transition(q, 0, (q + 1) % m);
        b.default_transition(q, q);
    }
    b.set_start(0);
    b.build_strict().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Two matches planted in different chunks race to publish through
    /// the Relaxed `fetch_min` first-match protocol; the earlier
    /// position must win for every geometry and thread count. This is
    /// the seam test pinned by the ordering-invariant comment on
    /// `find_first_*` in `scan.rs`.
    #[test]
    fn prop_find_first_two_winner_abort(
        text_len in 60usize..200,
        frac_a in 0.0f64..1.0,
        frac_b in 0.0f64..1.0,
        k_pick in 0usize..4,
        threads in 2usize..6,
    ) {
        let alpha = Alphabet::amino_acids();
        let dfa = Pipeline::search(alpha.clone()).compile_str("RG").unwrap();
        let sfa = Sfa::builder(&dfa).sequential(SequentialVariant::Transposed).build()
            .unwrap()
            .sfa;
        let mut text = vec![b'A'; text_len];
        let pos_a = ((text_len - 2) as f64 * frac_a) as usize;
        let pos_b = ((text_len - 2) as f64 * frac_b) as usize;
        for pos in [pos_a, pos_b] {
            text[pos] = b'R';
            text[pos + 1] = b'G';
        }
        let syms = alpha.encode_bytes(&text).unwrap();
        let opts = ScanOptions {
            interleave: [1, 2, 4, 8][k_pick],
            oversubscribe: 2,
            min_chunk_symbols: 1,
        };
        let matcher = ParallelMatcher::with_options(&sfa, &dfa, opts).unwrap();
        // Overlapping plants can splice the two matches into one — the
        // sequential oracle over the *actual* text is the reference
        // (the later-written plant is always intact, so it is Some).
        let oracle = sfa_core::matcher::find_first_match_sequential(&dfa, &syms);
        prop_assert!(oracle.is_some());
        for _ in 0..4 {
            prop_assert_eq!(matcher.find_first_match(&syms, threads), oracle);
        }
    }

    /// Speculative matching over random DFAs answers exactly the
    /// oracle's verdict and final state for every chunk geometry —
    /// cold predictor and trained predictor alike.
    #[test]
    fn prop_speculative_agrees_with_oracle(
        seed in any::<u64>(),
        input in proptest::collection::vec(0u8..2, 0..300),
        threads in 1usize..6,
        k_pick in 0usize..4,
    ) {
        let alpha = Alphabet::binary();
        let dfa = random_dfa(&alpha, 6, 0.4, seed);
        let opts = ScanOptions {
            interleave: [1, 2, 4, 8][k_pick],
            oversubscribe: 2,
            min_chunk_symbols: 1,
        };
        // A private predictor keeps proptest cases independent of the
        // process-global warm cache.
        let matcher = SpeculativeMatcher::with_options(&dfa, opts)
            .unwrap()
            .with_predictor(std::sync::Arc::new(StatePredictor::new(dfa.num_states())));
        let pool = TaskPool::shared();
        let governor = Governor::unlimited();
        for pass in 0..2 {
            let (verdict, stats) = matcher.matches(pool, &governor, &input, threads).unwrap();
            prop_assert_eq!(verdict, match_sequential(&dfa, &input), "pass {}", pass);
            prop_assert!(stats.chunks >= 1);
            let (q, _) = matcher.final_state(pool, &governor, &input, threads).unwrap();
            prop_assert_eq!(q, dfa.run(&input));
        }
    }

    /// The forced-100%-mispredict adversary: one counter tick at the
    /// very start offsets the true entry of every later chunk from the
    /// cold predictor's deterministic pick, so every seam mispredicts
    /// and no re-run converges early. The run must still terminate and
    /// answer exactly (satellite: worst-case ≈ one sequential pass).
    #[test]
    fn prop_speculative_total_mispredict_terminates(
        len in 2_000usize..6_000,
        m in 5u32..12,
        threads in 2usize..6,
        seed in any::<u64>(),
    ) {
        let dfa = counter_dfa(m);
        // Symbols 1..20 self-loop; the single 0 up front shifts every
        // trail by one counter tick.
        let mut state = seed | 1;
        let mut input: Vec<u8> = (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                1 + (state % 19) as u8
            })
            .collect();
        input[0] = 0;
        let opts = ScanOptions {
            interleave: 4,
            oversubscribe: 2,
            min_chunk_symbols: 64,
        };
        let matcher = SpeculativeMatcher::with_options(&dfa, opts)
            .unwrap()
            .with_predictor(std::sync::Arc::new(StatePredictor::new(dfa.num_states())));
        let pool = TaskPool::shared();
        let governor = Governor::unlimited();
        let (verdict, stats) = matcher.matches(pool, &governor, &input, threads).unwrap();
        prop_assert_eq!(verdict, match_sequential(&dfa, &input));
        prop_assert!(!stats.pruned, "full-width feasible sets must not prune");
        prop_assert!(stats.chunks > 1);
        prop_assert_eq!(stats.mispredicts, stats.chunks - 1);
        prop_assert_eq!(stats.reruns, stats.mispredicts);
        // A second, trained pass still answers exactly — and the
        // predictor has learned the shifted trail.
        let (warm_verdict, warm) = matcher.matches(pool, &governor, &input, threads).unwrap();
        prop_assert_eq!(warm_verdict, verdict);
        prop_assert!(warm.mispredicts < stats.mispredicts);
    }

    /// Under a racing deadline or cancellation the speculative tier
    /// either answers exactly the oracle or fails with the governance
    /// error — never a wrong verdict.
    #[test]
    fn prop_speculative_governed_is_exact_or_stopped(
        seed in any::<u64>(),
        input in proptest::collection::vec(0u8..2, 0..400),
        threads in 1usize..5,
        cancel_now in any::<bool>(),
        deadline_us in 0u64..200,
    ) {
        let alpha = Alphabet::binary();
        let dfa = random_dfa(&alpha, 6, 0.4, seed);
        let opts = ScanOptions {
            interleave: 4,
            oversubscribe: 2,
            min_chunk_symbols: 1,
        };
        let matcher = SpeculativeMatcher::with_options(&dfa, opts)
            .unwrap()
            .with_predictor(std::sync::Arc::new(StatePredictor::new(dfa.num_states())));
        let token = CancelToken::new();
        if cancel_now {
            token.cancel();
        }
        let budget = Budget::unlimited().with_deadline(Duration::from_micros(deadline_us));
        let governor = Governor::new(&budget, Some(token));
        match matcher.matches(TaskPool::shared(), &governor, &input, threads) {
            Ok((v, _)) => prop_assert_eq!(v, match_sequential(&dfa, &input)),
            Err(SfaError::Cancelled { .. }) | Err(SfaError::BudgetExceeded { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
    }
}

/// Mispredicted re-runs that converge onto the checkpoint trail partway
/// through a chunk. Every chunk spans several `CHECKPOINT_SYMBOLS`
/// (10,000 symbols; the last one 7,000), and symbol 1 resets the
/// counter mid-chunk, so a re-run from the true entry meets the
/// speculative run at the first checkpoint after the reset and adopts
/// its exit. The cold predictor picks state 0 while every chunk exits in
/// state 1, so every seam after the first mispredicts.
#[test]
fn speculative_reruns_converge_on_checkpoints() {
    use sfa_automata::dfa::DfaBuilder;
    const M: u32 = 8;
    const CHUNK: usize = 10_000;
    let mut b = DfaBuilder::new(Alphabet::amino_acids());
    for q in 0..M {
        b.add_state(q == 0);
    }
    for q in 0..M {
        b.add_transition(q, 0, (q + 1) % M);
        b.add_transition(q, 1, 0);
        b.default_transition(q, q);
    }
    b.set_start(0);
    let dfa = b.build_strict().unwrap();
    for k_way in [1usize, 2, 4, 8] {
        let len = 2 * k_way * CHUNK - 3_000;
        let input: Vec<u8> = (0..len)
            .map(|i| match i % CHUNK {
                100 | 200 | 6_000 => 0,
                5_000 => 1,
                j => 2 + (j * 7 % 18) as u8,
            })
            .collect();
        let opts = ScanOptions {
            interleave: k_way,
            oversubscribe: 1,
            min_chunk_symbols: CHUNK,
        };
        let matcher = || {
            SpeculativeMatcher::with_options(&dfa, opts)
                .unwrap()
                .with_predictor(std::sync::Arc::new(StatePredictor::new(M)))
        };
        let (pool, governor) = (TaskPool::shared(), Governor::unlimited());
        let (q, stats) = matcher().final_state(pool, &governor, &input, 2).unwrap();
        assert_eq!(q, dfa.run(&input), "K={k_way}");
        assert!(
            !stats.pruned,
            "K={k_way}: wide feasible sets must speculate"
        );
        assert_eq!(stats.chunks, 2 * k_way as u64);
        assert_eq!(stats.mispredicts, stats.chunks - 1, "K={k_way}");
        assert_eq!(stats.reruns, stats.mispredicts, "K={k_way}");
        let (verdict, _) = matcher().matches(pool, &governor, &input, 2).unwrap();
        assert_eq!(verdict, match_sequential(&dfa, &input), "K={k_way}");
    }
}
