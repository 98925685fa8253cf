//! DFA and SFA matching (§IV-D).
//!
//! * [`match_sequential`] — the classic one-state-at-a-time DFA membership
//!   test (Fig. 1c), whose running time is linear in the input and *not*
//!   parallelizable because every transition depends on the previous one.
//! * [`match_with_sfa`] / [`ParallelMatcher`] — the SFA alternative: split
//!   the input into chunks, run the SFA over each chunk independently
//!   (each run yields the chunk's state *mapping*), and fold the DFA
//!   start state through the mappings left to right, one entry per
//!   chunk. The per-chunk runs are embarrassingly parallel, which is the
//!   paper's break-even argument: construction cost + parallel matching
//!   beats sequential matching beyond ~20 MB of input on their
//!   88-thread machine.
//!
//! Chunk scans run on a persistent [`TaskPool`] (the process-shared pool
//! by default) rather than on per-call `std::thread::scope` threads: a
//! serving process answers many queries, and spawning OS threads per
//! query would bury the break-even argument under `clone(2)` noise.
//! Every governed path polls a [`Governor`] every
//! [`GOVERNOR_POLL_SYMBOLS`] symbols, so deadlines and cancellation
//! apply to *matching* just as they do to construction, and worker
//! panics surface as [`SfaError::WorkerPanic`] instead of aborting the
//! process.
//!
//! The conveniences on [`ParallelMatcher`] run on the shared pool,
//! ungoverned, and panic on failure. For typed errors, budgets, tier
//! policies and telemetry, construct a
//! [`MatchRequest`](crate::MatchRequest) and call
//! [`MatchRuntime::run`](crate::MatchRuntime::run) (one automaton, an
//! explicit pool) or [`MatchEngine::run`](crate::MatchEngine::run) (the
//! degradation ladder).

use crate::budget::Governor;
use crate::scan::{ScanEngine, ScanOptions};
use crate::sfa::Sfa;
use crate::SfaError;
use sfa_automata::alphabet::SymbolId;
use sfa_automata::dfa::Dfa;
use sfa_sync::pool::TaskPool;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// How many symbols a chunk scan processes between governor polls (and
/// abort-flag checks). Large enough that the poll is invisible next to
/// the table lookups, small enough that cancellation latency stays in
/// the tens of microseconds.
pub const GOVERNOR_POLL_SYMBOLS: usize = 64 * 1024;

/// Sequential DFA membership test over dense symbols (Fig. 1c).
pub fn match_sequential(dfa: &Dfa, input: &[SymbolId]) -> bool {
    dfa.is_accepting(dfa.run(input))
}

/// Match `input` with the SFA in `threads` parallel chunks; returns the
/// DFA's accept decision for the whole input.
///
/// # Panics
///
/// On an SFA/DFA mismatch or a worker panic. For typed errors — and for
/// budgets, tier policies and telemetry — construct a
/// [`MatchRequest`](crate::MatchRequest) and use
/// [`MatchRuntime::run`](crate::MatchRuntime::run) or
/// [`MatchEngine::run`](crate::MatchEngine::run) instead.
pub fn match_with_sfa(sfa: &Sfa, dfa: &Dfa, input: &[SymbolId], threads: usize) -> bool {
    ParallelMatcher::new(sfa, dfa)
        .expect("match_with_sfa failed")
        .matches(input, threads)
}

/// Reusable parallel matcher (construct once, match many inputs).
///
/// Construction precomputes a [`ScanEngine`] — compact pre-scaled
/// transition tables for both automata (see [`crate::scan`]) — so every
/// hot loop below is an add+load with no multiply and no per-step
/// bounds check. Callers that match many inputs against one automaton
/// pair can share the engine across matchers via [`Self::with_scan`].
pub struct ParallelMatcher<'a> {
    pub(crate) sfa: &'a Sfa,
    pub(crate) dfa: &'a Dfa,
    pub(crate) scan: Arc<ScanEngine>,
}

impl std::fmt::Debug for ParallelMatcher<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelMatcher")
            .field("dfa_states", &self.sfa.dfa_states())
            .field("num_symbols", &self.sfa.num_symbols())
            .field("scan", &self.scan)
            .finish()
    }
}

impl<'a> ParallelMatcher<'a> {
    /// Pair an SFA with its source DFA, verifying that the SFA was
    /// actually built from this DFA (state and symbol counts agree).
    /// A mismatched pair would silently return wrong verdicts or index
    /// out of bounds, so the check runs in **every** build profile —
    /// the `debug_assert_eq!` this replaces let release builds through.
    pub fn new(sfa: &'a Sfa, dfa: &'a Dfa) -> Result<Self, SfaError> {
        check_compatible(sfa, dfa)?;
        Ok(ParallelMatcher {
            sfa,
            dfa,
            scan: Arc::new(ScanEngine::new(sfa, dfa)),
        })
    }

    /// [`Self::new`] with explicit [`ScanOptions`] (interleave width,
    /// oversubscription factor, minimum chunk size).
    pub fn with_options(sfa: &'a Sfa, dfa: &'a Dfa, opts: ScanOptions) -> Result<Self, SfaError> {
        check_compatible(sfa, dfa)?;
        Ok(ParallelMatcher {
            sfa,
            dfa,
            scan: Arc::new(ScanEngine::with_options(sfa, dfa, opts)?),
        })
    }

    /// Pair with a prebuilt, shared [`ScanEngine`] — avoids rebuilding
    /// the compact tables when many matchers (or repeated queries) use
    /// the same automaton pair.
    pub fn with_scan(sfa: &'a Sfa, dfa: &'a Dfa, scan: Arc<ScanEngine>) -> Self {
        debug_assert!(check_compatible(sfa, dfa).is_ok());
        ParallelMatcher { sfa, dfa, scan }
    }

    /// The precomputed scan engine.
    pub fn scan(&self) -> &Arc<ScanEngine> {
        &self.scan
    }

    /// The final DFA state after `input`, computed with parallel chunks:
    /// pass 1 scans chunks K-way interleaved on the compact table, pass 2
    /// folds the start state through the chunk states (see
    /// [`crate::scan`]).
    ///
    /// # Panics
    ///
    /// If a worker panics; for typed errors use
    /// [`MatchRuntime::run`](crate::MatchRuntime::run) with a
    /// [`MatchRequest`](crate::MatchRequest).
    pub fn final_state(&self, input: &[SymbolId], threads: usize) -> u32 {
        self.scan
            .final_state(
                TaskPool::shared(),
                &Governor::unlimited(),
                self.sfa,
                input,
                self.dfa.start(),
                threads,
            )
            .expect("parallel final_state failed")
    }

    /// Accept decision for `input`.
    ///
    /// # Panics
    ///
    /// If a worker panics; for typed errors use
    /// [`MatchRuntime::run`](crate::MatchRuntime::run) with a
    /// [`MatchRequest`](crate::MatchRequest).
    pub fn matches(&self, input: &[SymbolId], threads: usize) -> bool {
        self.dfa.is_accepting(self.final_state(input, threads))
    }

    /// Position after which the first match ends (number of symbols
    /// consumed; `Some(0)` when the start state itself accepts), or
    /// `None` when no prefix of `input` is accepted.
    ///
    /// Three passes: (1) every chunk's SFA state in parallel; (2) folding
    /// the start state through their mappings gives every chunk its
    /// exact entry DFA state; (3) the chunks re-scan with the DFA from
    /// those entries, reporting the earliest accepting position.
    ///
    /// # Panics
    ///
    /// If a worker panics.
    pub fn find_first_match(&self, input: &[SymbolId], threads: usize) -> Option<usize> {
        self.scan
            .find_first(
                TaskPool::shared(),
                &Governor::unlimited(),
                self.sfa,
                input,
                self.dfa.start(),
                threads,
            )
            .expect("parallel find_first_match failed")
    }

    /// Parallel occurrence counting (same three passes as
    /// [`Self::find_first_match`]): chunks count accepting positions from
    /// their exact entry states and the counts sum.
    ///
    /// # Panics
    ///
    /// If a worker panics.
    pub fn count_matches(&self, input: &[SymbolId], threads: usize) -> u64 {
        self.scan
            .count_matches(
                TaskPool::shared(),
                &Governor::unlimited(),
                self.sfa,
                input,
                self.dfa.start(),
                threads,
            )
            .expect("parallel count_matches failed")
    }
}

/// Shared stop-signal for one parallel pass: every worker calls
/// [`AbortControl::should_stop`] at block granularity, which both
/// observes failures raised elsewhere and polls the governor itself —
/// so a deadline expiring or a token cancelled *mid-scan* stops all
/// chunks within [`GOVERNOR_POLL_SYMBOLS`] symbols, and the first
/// failure wins.
pub(crate) struct AbortControl<'g> {
    governor: &'g Governor,
    governed: bool,
    flag: AtomicBool,
    failure: Mutex<Option<SfaError>>,
}

impl<'g> AbortControl<'g> {
    pub(crate) fn new(governor: &'g Governor) -> Self {
        AbortControl {
            governor,
            governed: !governor.is_unlimited(),
            flag: AtomicBool::new(false),
            failure: Mutex::new(None),
        }
    }

    /// `true` → abandon the scan now (another chunk failed, or this
    /// poll of the governor fired).
    pub(crate) fn should_stop(&self) -> bool {
        if self.flag.load(Ordering::Relaxed) {
            return true;
        }
        if self.governed {
            if let Err(err) = self.governor.check(0, 0) {
                self.fail(err);
                return true;
            }
        }
        false
    }

    pub(crate) fn fail(&self, err: SfaError) {
        let mut slot = self.failure.lock().unwrap();
        if slot.is_none() {
            *slot = Some(err);
        }
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Fold the scoped-execution outcome and any recorded failure into
    /// one result (worker panics take precedence — they mean the data
    /// raced with a poisoned automaton, not a mere budget stop).
    pub(crate) fn finish(
        &self,
        scoped: Result<(), sfa_sync::pool::JobPanic>,
    ) -> Result<(), SfaError> {
        if let Err(panic) = scoped {
            return Err(SfaError::WorkerPanic {
                message: panic.message,
            });
        }
        match self.failure.lock().unwrap().take() {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }
}

/// `Ok` iff the SFA's mapping dimensions match the DFA.
fn check_compatible(sfa: &Sfa, dfa: &Dfa) -> Result<(), SfaError> {
    if sfa.dfa_states() != dfa.num_states() as usize || sfa.num_symbols() != dfa.num_symbols() {
        return Err(SfaError::Mismatch {
            sfa_dfa_states: sfa.dfa_states(),
            dfa_states: dfa.num_states() as usize,
            sfa_symbols: sfa.num_symbols(),
            dfa_symbols: dfa.num_symbols(),
        });
    }
    Ok(())
}

/// Sequential first-match search (the oracle for
/// [`ParallelMatcher::find_first_match`]); returns the number of symbols
/// consumed when the DFA first enters an accepting state.
pub fn find_first_match_sequential(dfa: &Dfa, input: &[SymbolId]) -> Option<usize> {
    dfa.first_match_end(input)
}

/// Sequential occurrence counting: the number of positions (including 0)
/// at which the DFA is in an accepting state. With a *scanner* DFA
/// (`Pipeline::scanner`: `Σ*·r`), this is the number of positions where a
/// match of `r` ends.
pub fn count_matches_sequential(dfa: &Dfa, input: &[SymbolId]) -> u64 {
    let mut q = dfa.start();
    let mut count = u64::from(dfa.is_accepting(q));
    for &sym in input {
        q = dfa.next(q, sym);
        count += u64::from(dfa.is_accepting(q));
    }
    count
}

#[cfg(test)]
mod tests {
    use super::find_first_match_sequential;
    use super::*;
    use crate::sequential::SequentialVariant;
    use rand::rngs::StdRng;
    use sfa_automata::alphabet::Alphabet;
    use sfa_automata::pipeline::Pipeline;

    fn setup(pattern: &str) -> (Dfa, Sfa) {
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

    #[test]
    fn agrees_with_sequential_on_examples() {
        let (dfa, sfa) = setup("RG");
        let alpha = dfa.alphabet().clone();
        for text in [
            &b""[..],
            b"RG",
            b"AAARGAAA",
            b"GGGGRRRR",
            b"RRRGGG",
            b"R",
            b"G",
        ] {
            let syms = alpha.encode_bytes(text).unwrap();
            for threads in [1, 2, 3, 7] {
                assert_eq!(
                    match_with_sfa(&sfa, &dfa, &syms, threads),
                    match_sequential(&dfa, &syms),
                    "text {:?} threads {threads}",
                    std::str::from_utf8(text).unwrap()
                );
            }
        }
    }

    #[test]
    fn random_agreement_fuzz() {
        let (dfa, sfa) = setup("R[GA]N");
        let mut rng = StdRng::seed_from_u64(42);
        for round in 0..50 {
            let len = rng.random_range(0..500);
            let syms: Vec<u8> = (0..len).map(|_| rng.random_range(0..20) as u8).collect();
            let expected = match_sequential(&dfa, &syms);
            for threads in [1, 4, 9] {
                assert_eq!(
                    match_with_sfa(&sfa, &dfa, &syms, threads),
                    expected,
                    "round {round} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn final_state_matches_dfa_run() {
        let (dfa, sfa) = setup("RG");
        let matcher = ParallelMatcher::new(&sfa, &dfa).unwrap();
        let alpha = dfa.alphabet().clone();
        let syms = alpha.encode_bytes(b"MKVARGAARG").unwrap();
        assert_eq!(matcher.final_state(&syms, 3), dfa.run(&syms));
    }

    #[test]
    fn more_threads_than_symbols() {
        let (dfa, sfa) = setup("RG");
        let alpha = dfa.alphabet().clone();
        let syms = alpha.encode_bytes(b"RG").unwrap();
        assert!(match_with_sfa(&sfa, &dfa, &syms, 64));
    }

    #[test]
    fn mismatched_pair_is_rejected_in_every_profile() {
        let (dfa_rg, sfa_rg) = setup("RG");
        // A DFA with a different state count over the same alphabet.
        let dfa_other = Pipeline::search(Alphabet::amino_acids())
            .compile_str("RGDW")
            .unwrap();
        assert_ne!(dfa_rg.num_states(), dfa_other.num_states());
        let err = ParallelMatcher::new(&sfa_rg, &dfa_other).unwrap_err();
        match err {
            SfaError::Mismatch {
                sfa_dfa_states,
                dfa_states,
                ..
            } => {
                assert_eq!(sfa_dfa_states, dfa_rg.num_states() as usize);
                assert_eq!(dfa_states, dfa_other.num_states() as usize);
            }
            other => panic!("expected Mismatch, got {other:?}"),
        }
    }

    #[test]
    fn find_first_match_agrees_with_sequential() {
        let (dfa, sfa) = setup("RG");
        let matcher = ParallelMatcher::new(&sfa, &dfa).unwrap();
        let alpha = dfa.alphabet().clone();
        for text in [
            &b""[..],
            b"RG",
            b"AARG",
            b"AARGRG",
            b"GGGG",
            b"RRRRG",
            b"AAAAAAAAAAAAAAAAAAAAARG",
        ] {
            let syms = alpha.encode_bytes(text).unwrap();
            let expected = find_first_match_sequential(&dfa, &syms);
            for threads in [1usize, 2, 3, 8] {
                assert_eq!(
                    matcher.find_first_match(&syms, threads),
                    expected,
                    "text {:?} threads {threads}",
                    std::str::from_utf8(text).unwrap()
                );
            }
        }
    }

    #[test]
    fn find_first_match_fuzz() {
        let (dfa, sfa) = setup("R[GA]N");
        let matcher = ParallelMatcher::new(&sfa, &dfa).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..60 {
            let len = rng.random_range(0..400);
            let syms: Vec<u8> = (0..len).map(|_| rng.random_range(0..20) as u8).collect();
            let expected = find_first_match_sequential(&dfa, &syms);
            for threads in [1usize, 4, 6] {
                assert_eq!(matcher.find_first_match(&syms, threads), expected);
            }
        }
    }

    #[test]
    fn count_matches_agrees_with_sequential() {
        // Scanner DFA: accepts exactly at match-end positions of "RGD".
        let dfa = Pipeline::scanner(Alphabet::amino_acids())
            .compile_str("RGD")
            .unwrap();
        let sfa = Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .build()
            .unwrap()
            .sfa;
        let matcher = ParallelMatcher::new(&sfa, &dfa).unwrap();
        let alpha = dfa.alphabet().clone();
        for (text, expected) in [
            (&b""[..], 0u64),
            (b"RGD", 1),
            (b"RGDRGD", 2),
            (b"ARGDARGDA", 2),
            (b"RGRGRG", 0),
            (b"RGDGD", 1),
        ] {
            let syms = alpha.encode_bytes(text).unwrap();
            assert_eq!(count_matches_sequential(&dfa, &syms), expected);
            for threads in [1usize, 2, 3, 8] {
                assert_eq!(
                    matcher.count_matches(&syms, threads),
                    expected,
                    "text {:?} threads {threads}",
                    std::str::from_utf8(text).unwrap()
                );
            }
        }
    }

    #[test]
    fn count_matches_fuzz() {
        let dfa = Pipeline::scanner(Alphabet::amino_acids())
            .compile_str("R[GA]")
            .unwrap();
        let sfa = Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .build()
            .unwrap()
            .sfa;
        let matcher = ParallelMatcher::new(&sfa, &dfa).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..40 {
            let len = rng.random_range(0..500);
            let syms: Vec<u8> = (0..len).map(|_| rng.random_range(0..20) as u8).collect();
            let expected = count_matches_sequential(&dfa, &syms);
            for threads in [1usize, 4, 7] {
                assert_eq!(matcher.count_matches(&syms, threads), expected);
            }
        }
    }

    #[test]
    fn count_matches_planted_motifs() {
        let dfa = Pipeline::scanner(Alphabet::amino_acids())
            .compile_str("WWWWW")
            .unwrap();
        let sfa = Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .build()
            .unwrap()
            .sfa;
        let matcher = ParallelMatcher::new(&sfa, &dfa).unwrap();
        // Plant 3 non-overlapping runs of 5 W's; W runs longer than 5
        // produce extra end positions, so use exactly-5 runs spaced apart.
        let text =
            sfa_workloads::protein_text_with_motif(50_000, 2, b"WWWWW", &[1_000, 25_000, 49_000]);
        let expected = count_matches_sequential(&dfa, &text);
        assert!(expected >= 3, "planted motifs must be counted");
        assert_eq!(matcher.count_matches(&text, 6), expected);
    }

    #[test]
    fn find_first_match_nullable_pattern() {
        let dfa = Pipeline::search(Alphabet::amino_acids())
            .compile_str("R*")
            .unwrap();
        let sfa = Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .build()
            .unwrap()
            .sfa;
        let matcher = ParallelMatcher::new(&sfa, &dfa).unwrap();
        // Nullable pattern: start state accepts -> match at position 0.
        assert_eq!(matcher.find_first_match(&[5, 5, 5], 4), Some(0));
        assert_eq!(matcher.find_first_match(&[], 4), Some(0));
    }

    #[test]
    fn empty_input() {
        let (dfa, sfa) = setup("RG");
        assert!(!match_with_sfa(&sfa, &dfa, &[], 4));
        // A nullable pattern accepts the empty input.
        let dfa2 = Pipeline::search(Alphabet::amino_acids())
            .compile_str("R*")
            .unwrap();
        let sfa2 = Sfa::builder(&dfa2)
            .sequential(SequentialVariant::Transposed)
            .build()
            .unwrap()
            .sfa;
        assert!(match_with_sfa(&sfa2, &dfa2, &[], 4));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Under a racing deadline or cancellation the governed count and
        /// find-first scans either answer exactly the oracle or fail with
        /// the governance error — never a wrong count or position.
        #[test]
        fn prop_governed_count_and_find_first_are_exact_or_stopped(
            seed in proptest::prelude::any::<u64>(),
            input in proptest::collection::vec(0u8..2, 0..300),
            threads in 1usize..4,
            cancel_now in proptest::prelude::any::<bool>(),
            deadline_us in 0u64..200,
        ) {
            let alpha = Alphabet::binary();
            let dfa = sfa_automata::random::random_dfa(&alpha, 5, 0.4, seed);
            let sfa = Sfa::builder(&dfa)
                .sequential(SequentialVariant::Transposed)
                .build()
                .unwrap()
                .sfa;
            let opts = ScanOptions {
                interleave: 4,
                oversubscribe: 2,
                min_chunk_symbols: 1,
            };
            let matcher = ParallelMatcher::with_options(&sfa, &dfa, opts).unwrap();
            let token = sfa_sync::CancelToken::new();
            if cancel_now {
                token.cancel();
            }
            let budget = crate::budget::Budget::unlimited()
                .with_deadline(std::time::Duration::from_micros(deadline_us));
            let governor = Governor::new(&budget, Some(token));
            let (pool, scan, q0) = (TaskPool::shared(), matcher.scan(), dfa.start());
            match scan.count_matches(pool, &governor, &sfa, &input, q0, threads) {
                Ok(c) => proptest::prop_assert_eq!(c, count_matches_sequential(&dfa, &input)),
                Err(SfaError::Cancelled { .. }) | Err(SfaError::BudgetExceeded { .. }) => {}
                Err(other) => proptest::prop_assert!(false, "unexpected error: {other}"),
            }
            match scan.find_first(pool, &governor, &sfa, &input, q0, threads) {
                Ok(p) => proptest::prop_assert_eq!(p, find_first_match_sequential(&dfa, &input)),
                Err(SfaError::Cancelled { .. }) | Err(SfaError::BudgetExceeded { .. }) => {}
                Err(other) => proptest::prop_assert!(false, "unexpected error: {other}"),
            }
        }
    }

    #[test]
    fn edge_cases_agree_with_oracles() {
        // Satellite audit: empty input, threads > len, single chunk, and
        // thread counts around the input length — for final_state,
        // find_first_match and count_matches, vs the sequential oracles.
        for pattern in ["RG", "R*", "R[GA]D", "W"] {
            let (dfa, sfa) = setup(pattern);
            let matcher = ParallelMatcher::new(&sfa, &dfa).unwrap();
            let alpha = dfa.alphabet().clone();
            for text in [&b""[..], b"R", b"RG", b"ARG", b"MKVARGAAGRGDWWY"] {
                let syms = alpha.encode_bytes(text).unwrap();
                for threads in [1usize, syms.len().max(1), syms.len() + 5, 64] {
                    assert_eq!(
                        matcher.final_state(&syms, threads),
                        dfa.run(&syms),
                        "final_state {pattern:?} {text:?} threads {threads}"
                    );
                    assert_eq!(
                        matcher.find_first_match(&syms, threads),
                        find_first_match_sequential(&dfa, &syms),
                        "find_first_match {pattern:?} {text:?} threads {threads}"
                    );
                    assert_eq!(
                        matcher.count_matches(&syms, threads),
                        count_matches_sequential(&dfa, &syms),
                        "count_matches {pattern:?} {text:?} threads {threads}"
                    );
                }
            }
        }
    }
}
