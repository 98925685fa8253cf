//! Budget, cancellation and degradation integration tests — the
//! governance contract of the builder API: a build that exceeds its
//! [`Budget`] returns a typed error (never panics, never hangs), a
//! cancelled token stops a running parallel build mid-phase, and the
//! [`MatchEngine`] keeps serving correct verdicts while climbing down
//! its degradation ladder.

use sfa_core::prelude::*;
use std::time::{Duration, Instant};

fn rg_dfa() -> sfa_automata::Dfa {
    use sfa_automata::pipeline::Pipeline;
    use sfa_automata::Alphabet;
    Pipeline::search(Alphabet::amino_acids())
        .compile_str("RG")
        .unwrap()
}

#[test]
fn one_state_budget_fails_sequential_and_parallel() {
    // A one-state budget admits only the identity state: the first
    // discovery must fill it on every engine, as a typed error.
    let dfa = rg_dfa();
    let runs = [
        Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .state_budget(1)
            .build(),
        Sfa::builder(&dfa)
            .sequential(SequentialVariant::Hashing)
            .state_budget(1)
            .build(),
        Sfa::builder(&dfa).threads(1).state_budget(1).build(),
        Sfa::builder(&dfa).threads(4).state_budget(1).build(),
    ];
    for r in runs {
        assert_eq!(r.unwrap_err(), SfaError::StateBudgetExceeded { budget: 1 });
    }
}

#[test]
fn zero_deadline_fails_fast_sequential_and_parallel() {
    // An already-expired deadline must refuse before doing any work —
    // deterministically, on both engines, without spawning threads.
    let dfa = sfa_automata::random::rn(40);
    let budget = Budget::unlimited().with_deadline(Duration::ZERO);
    for b in [
        Sfa::builder(&dfa)
            .sequential(SequentialVariant::Baseline)
            .budget(budget.clone()),
        Sfa::builder(&dfa).threads(4).budget(budget.clone()),
    ] {
        let t0 = Instant::now();
        let err = b.build().unwrap_err();
        assert!(matches!(
            err,
            SfaError::BudgetExceeded {
                resource: BudgetResource::Deadline,
                ..
            }
        ));
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "fail-fast path took {:?}",
            t0.elapsed()
        );
    }
}

#[test]
fn payload_byte_budget_fails_parallel() {
    let dfa = sfa_automata::random::rn(60);
    let err = Sfa::builder(&dfa)
        .threads(2)
        .budget(Budget::unlimited().with_max_payload_bytes(256))
        .build()
        .unwrap_err();
    assert!(matches!(
        err,
        SfaError::BudgetExceeded {
            resource: BudgetResource::PayloadBytes,
            ..
        }
    ));
}

#[test]
fn cross_thread_cancellation_stops_parallel_build() {
    // r500 builds a 124 543-state SFA — far more than a few milliseconds
    // of work — so a token cancelled shortly after the build starts must
    // be observed by the workers mid-construction and surface as
    // `Cancelled` with partial progress, well before the build could
    // have finished.
    let dfa = sfa_automata::random::r500();
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(15));
            token.cancel();
        })
    };
    let result = Sfa::builder(&dfa).threads(4).cancel(token.clone()).build();
    canceller.join().unwrap();
    match result.unwrap_err() {
        SfaError::Cancelled { progress } => {
            // The build was genuinely underway (some states discovered)
            // and genuinely unfinished.
            assert!(progress.states < 124_543, "build ran to completion");
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

#[test]
fn pre_cancelled_token_refuses_both_engines() {
    let dfa = rg_dfa();
    let token = CancelToken::new();
    token.cancel();
    for b in [
        Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .cancel(token.clone()),
        Sfa::builder(&dfa).threads(2).cancel(token.clone()),
    ] {
        assert!(matches!(b.build().unwrap_err(), SfaError::Cancelled { .. }));
    }
}

#[test]
fn engine_lazy_fallback_matches_sequential_on_r500_style_inputs() {
    // Construction of the r200 SFA under a zero deadline is impossible,
    // so the engine must degrade to the lazy tier — and still return
    // exactly the verdict of plain sequential matching on protein-like
    // texts, both non-matching (random) and matching (motif embedded).
    let dfa = sfa_automata::random::rn(200);
    let budget = Budget::unlimited().with_deadline(Duration::ZERO);
    let mut engine =
        MatchEngine::with_budget(&dfa, &ParallelOptions::with_threads(4), &budget, None);
    assert_eq!(engine.tier(), MatchTier::LazySfa);
    assert!(matches!(
        engine.stats().last_error,
        Some(SfaError::BudgetExceeded {
            resource: BudgetResource::Deadline,
            ..
        })
    ));
    for seed in 0..6 {
        let text = sfa_workloads::protein_text(20_000, seed);
        assert_eq!(
            engine.matches(&text),
            match_sequential(&dfa, &text),
            "seed {seed}"
        );
    }
    assert_eq!(engine.stats().lazy_matches, 6);
    assert_eq!(engine.tier(), MatchTier::LazySfa, "no further degradation");
}

#[test]
fn engine_positive_verdict_parity_across_tiers() {
    // A pattern DFA with the motif embedded: the full tier and a
    // budget-degraded lazy tier must both report the match.
    let dfa = rg_dfa();
    let text = sfa_workloads::protein_text_with_motif(10_000, 42, b"RG", &[5_000]);
    assert!(match_sequential(&dfa, &text));

    let mut full = MatchEngine::new(&dfa, 4);
    assert_eq!(full.tier(), MatchTier::FullSfa);
    assert!(full.matches(&text));

    let mut lazy = MatchEngine::with_budget(
        &dfa,
        &ParallelOptions::with_threads(4),
        &Budget::unlimited().with_deadline(Duration::ZERO),
        None,
    );
    assert_eq!(lazy.tier(), MatchTier::LazySfa);
    assert!(lazy.matches(&text));
}

/// A lazy-tier engine whose full build missed its (zero) deadline.
fn lazy_engine(dfa: &sfa_automata::Dfa, cancel: Option<CancelToken>) -> MatchEngine<'_> {
    let budget = Budget::unlimited().with_deadline(Duration::ZERO);
    let engine = MatchEngine::with_budget(dfa, &ParallelOptions::with_threads(2), &budget, cancel);
    assert_eq!(engine.tier(), MatchTier::LazySfa);
    assert_eq!(engine.stats().degradations, 1);
    engine
}

#[test]
fn lazy_tier_obeys_the_request_deadline() {
    let dfa = rg_dfa();
    let text = sfa_workloads::protein_text(200_000, 5);
    let expired = MatchRequest::symbols(text.clone()).with_deadline(Duration::ZERO);
    let missed_deadline = |result: Result<MatchOutcome, SfaError>| {
        matches!(
            result,
            Err(SfaError::BudgetExceeded {
                resource: BudgetResource::Deadline,
                ..
            })
        )
    };
    assert!(missed_deadline(MatchEngine::new(&dfa, 2).run(&expired)));
    let mut lazy = lazy_engine(&dfa, None);
    assert_eq!(lazy.matches(&text), match_sequential(&dfa, &text)); // warm
    assert!(missed_deadline(lazy.run(&expired)));
    assert_eq!(lazy.tier(), MatchTier::LazySfa);
    assert_eq!(lazy.stats().degradations, 1);
}

#[test]
fn cancelled_lazy_query_leaves_the_engine_on_its_tier() {
    let dfa = rg_dfa();
    let token = CancelToken::new();
    let mut engine = lazy_engine(&dfa, Some(token.clone()));
    token.cancel();
    let text = sfa_workloads::protein_text(50_000, 6);
    assert!(matches!(
        engine.run(&MatchRequest::symbols(text)),
        Err(SfaError::Cancelled { .. })
    ));
    assert_eq!(engine.tier(), MatchTier::LazySfa);
    assert_eq!(engine.stats().degradations, 1);
}

#[test]
fn lazy_answers_are_timed() {
    let dfa = rg_dfa();
    let mut engine = lazy_engine(&dfa, None);
    let text = sfa_workloads::protein_text(4 << 20, 8);
    let outcome = engine.run(&MatchRequest::symbols(text)).unwrap();
    assert_eq!(outcome.tier, MatchTier::LazySfa);
    assert!(outcome.stats.elapsed > Duration::ZERO);
    assert!(!outcome.stats.untimed());
}
