//! Lazy (on-the-fly) SFA construction during matching.
//!
//! Full SFA construction is the paper's bottleneck: matching only pays
//! off once construction cost amortizes (§IV-D's break-even). This module
//! implements the natural extension — construct SFA states **on demand
//! while matching**, in the style of lazy-DFA regex engines: a chunk
//! worker that needs `δₛ(s, σ)` and finds the successor slot empty
//! computes the candidate mapping, interns it through the same lock-free
//! fingerprint table the batch engine uses, caches the edge, and keeps
//! matching. Only states actually *visited by the input* are ever built,
//! and the structure is shared and reused across inputs and threads.
//! Sin'ya and Matsuzaki (arXiv:1405.0562) define the SFA model this
//! evaluates lazily.
//!
//! For the r500 automaton the full SFA has 124 543 states; matching a
//! protein-like text touches a tiny fraction of them, so the lazy matcher
//! removes almost the entire construction cost from the §IV-D break-even
//! equation.
//!
//! Lanes run on the scan engine's lane kernel, with a transition
//! function that discovers a state where the successor slot is empty: a
//! block of symbols or raw bytes splits into one lane per pool worker,
//! on scoped threads, and the running DFA state folds through their ends.
//!
//! Internals deliberately reuse the batch engine's substrate: the state
//! store of `crate::state` (lock-free arena records with fingerprint,
//! chain link and successor slots, interned through its fingerprint
//! table by the same operation the parallel engine uses). Mappings are
//! stored as raw native-endian `u32` ids — lazy matching visits few
//! states, so the 2× width versus `u16` does not matter and keeps the
//! code monomorphic.

use crate::budget::{Budget, Governor};
use crate::elem::Elem;
use crate::matcher::AbortControl;
use crate::parallel::ParallelOptions;
use crate::scan::{run_lanes, Decode, Delta, Dense, Exits, Lane};
use crate::state::{check_state_budget, InternStats, ReadBuf, StateStore};
use crate::SfaError;
use sfa_automata::alphabet::SymbolId;
use sfa_automata::dfa::Dfa;
use sfa_hash::{CityFingerprinter, Fingerprinter};
use sfa_sync::pool::{panic_message, JobPanic};
use sfa_sync::CancelToken;
use sfa_sync::NIL;

/// A thread-safe, incrementally constructed SFA.
pub struct LazySfa<'d> {
    dfa: &'d Dfa,
    n: usize,
    start: u32,
    store: StateStore,
    fingerprinter: CityFingerprinter,
    governor: Governor,
}

impl<'d> LazySfa<'d> {
    /// Create a lazy SFA over `dfa` able to hold up to `state_budget`
    /// discovered states (validated like `ParallelOptions::state_budget`:
    /// `0` or a value past the `u32` id space is
    /// [`SfaError::InvalidOptions`]).
    pub fn new(dfa: &'d Dfa, state_budget: usize) -> Result<Self, SfaError> {
        LazySfa::with_budget(dfa, state_budget, &Budget::unlimited(), None)
    }

    /// Like [`LazySfa::new`], additionally governed by `budget` and an
    /// optional cancellation token. Limits are enforced on the *state
    /// discovery* path: cached transitions keep matching at full speed,
    /// but a step that would have to construct a new SFA state first
    /// passes the budget checkpoint. The deadline axis measures from
    /// this constructor, which suits the lazy tier's "construction
    /// amortized into matching" lifecycle.
    pub fn with_budget(
        dfa: &'d Dfa,
        state_budget: usize,
        budget: &Budget,
        cancel: Option<CancelToken>,
    ) -> Result<Self, SfaError> {
        if dfa.num_states() == 0 {
            return Err(SfaError::EmptyDfa);
        }
        check_state_budget(state_budget, 1)?;
        let governor = Governor::new(budget, cancel);
        // Fail fast on a budget that is already exhausted (cancelled
        // token, zero deadline) before allocating the arena.
        governor.check(0, 0)?;
        let n = dfa.num_states() as usize;
        let opts = ParallelOptions::default().state_budget(state_budget);
        let store = StateStore::new(&opts, n, dfa.num_symbols(), None)?;
        let fingerprinter = CityFingerprinter;
        let identity: Vec<u32> = (0..n as u32).collect();
        let bytes = <u32 as Elem>::as_bytes(&identity);
        let (start, _) = store.seed(fingerprinter.fingerprint(bytes), bytes, false)?;
        Ok(LazySfa {
            dfa,
            n,
            start,
            store,
            fingerprinter,
            governor,
        })
    }

    /// The underlying DFA.
    pub fn dfa(&self) -> &Dfa {
        self.dfa
    }

    /// The start state (identity mapping).
    pub fn start(&self) -> u32 {
        self.start
    }

    /// SFA states discovered so far (records that lost a concurrent
    /// insert race are not states and are not counted).
    pub fn states_built(&self) -> u32 {
        self.store.states() as u32
    }

    /// The mapping vector of a discovered state.
    pub fn mapping_of(&self, s: u32) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.n);
        <u32 as Elem>::read_bytes(self.store.raw(s), &mut out);
        out
    }

    /// Apply state `s`'s mapping to DFA state `q`.
    pub fn apply(&self, s: u32, q: u32) -> u32 {
        let buf = self.store.raw(s);
        let base = q as usize * 4;
        u32::from_ne_bytes(buf[base..base + 4].try_into().unwrap())
    }

    /// `δₛ(s, σ)`, constructing the successor state if it has not been
    /// discovered yet. Thread-safe: concurrent callers deduplicate
    /// through the lock-free table; the cached edge makes repeats `O(1)`.
    #[inline]
    pub fn step(&self, s: u32, sym: SymbolId) -> Result<u32, SfaError> {
        let cached = self.store.succ(s, sym as usize);
        if cached != NIL {
            return Ok(cached);
        }
        self.discover(s, sym)
    }

    /// [`Self::step`]'s slow path, out of line so the cached edge inlines
    /// into the lane kernel (a tenth off lazy-tier time on `match`).
    #[cold]
    fn discover(&self, s: u32, sym: SymbolId) -> Result<u32, SfaError> {
        if !self.governor.is_unlimited() {
            // Discovery-path checkpoint: about to construct a state.
            let states = self.store.len() as u64;
            self.governor.check(states, states * self.n as u64 * 4)?;
        }
        // Compute the candidate mapping: one δ column over s's mapping.
        let src = self.store.raw(s);
        let mut cand: Vec<u32> = Vec::with_capacity(self.n);
        for i in 0..self.n {
            let q = u32::from_ne_bytes(src[i * 4..i * 4 + 4].try_into().unwrap());
            cand.push(self.dfa.next(q, sym));
        }
        let bytes = <u32 as Elem>::as_bytes(&cand);
        let fp = self.fingerprinter.fingerprint(bytes);
        let (stats, mut scratch) = (InternStats::default(), ReadBuf::default());
        let succ = self
            .store
            .intern(fp, bytes, false, true, &stats, &mut scratch)?
            .id;
        self.store.set_succ(s, sym as usize, succ);
        Ok(succ)
    }

    /// Run the lazy SFA over `input` from the start state, constructing
    /// missing states along the way.
    pub fn run(&self, input: &[SymbolId]) -> Result<u32, SfaError> {
        let mut lane = [Lane::new(input, self.start)];
        self.scan(&Governor::unlimited(), Dense, &mut lane)?;
        Ok(lane[0].state)
    }

    /// Parallel membership test: chunk the input, run the lazy SFA over
    /// each chunk concurrently (states discovered by one worker are
    /// immediately visible to the others), then fold the DFA start
    /// state through their mappings.
    pub fn matches(&self, input: &[SymbolId], threads: usize) -> Result<bool, SfaError> {
        let q0 = self.dfa.start();
        let (q, _) = self.fold_block(&Governor::unlimited(), Dense, input, 0, q0, threads)?;
        Ok(self.dfa.is_accepting(q))
    }

    /// The lazy tier's block step: split `block` (read through `decode`,
    /// at input offset `offset`) into `threads` lanes from the start
    /// state, then fold the running DFA state `q` through their exit
    /// states. Returns the state after the block and the lane count.
    pub(crate) fn fold_block<D: Decode>(
        &self,
        governor: &Governor,
        decode: D,
        block: &[u8],
        offset: u64,
        q: u32,
        threads: usize,
    ) -> Result<(u32, u64), SfaError> {
        if block.is_empty() {
            return Ok((q, 0));
        }
        let chunk = block.len().div_ceil(threads.max(1));
        let mut lanes: Vec<Lane<'_>> = Lane::chunks(block, offset, chunk, self.start).collect();
        self.scan(governor, decode, &mut lanes)?;
        let q = lanes.iter().fold(q, |q, lane| self.apply(lane.state, q));
        Ok((q, lanes.len() as u64))
    }

    /// Run `lanes` through the lane kernel, one lane per scoped thread (a
    /// lone lane on the calling thread), discovering states as they go;
    /// a panic becomes [`SfaError::WorkerPanic`]. Not on the match pool:
    /// state rows allocated from its long-lived threads raise peak RSS
    /// on the `match` benchmark by a fifth.
    fn scan<D: Decode>(
        &self,
        governor: &Governor,
        decode: D,
        lanes: &mut [Lane<'_>],
    ) -> Result<(), SfaError> {
        let ctl = AbortControl::new(governor);
        let delta = Discover {
            lazy: self,
            ctl: &ctl,
        };
        let run = |lane: &mut [Lane<'_>]| {
            run_lanes(delta, decode, 1, lane, &Exits, &ctl);
        };
        let joined = if lanes.len() == 1 {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(lanes)))
        } else {
            std::thread::scope(|scope| {
                let workers: Vec<_> = lanes
                    .chunks_mut(1)
                    .map(|lane| scope.spawn(|| run(lane)))
                    .collect();
                // Join every worker before reporting the first panic.
                workers
                    .into_iter()
                    .map(|w| w.join())
                    .fold(Ok(()), Result::and)
            })
        };
        ctl.finish(joined.map_err(|payload| JobPanic {
            message: panic_message(payload),
        }))
    }
}

/// The lazy SFA as the lane kernel's transition function: `next` reads
/// the cached successor slot and discovers the state on NIL. A discovery
/// error goes to the scan's [`AbortControl`], and the lane stands still
/// until the kernel's next poll abandons the scan.
#[derive(Clone, Copy)]
struct Discover<'a, 'd> {
    lazy: &'a LazySfa<'d>,
    ctl: &'a AbortControl<'a>,
}

impl Delta for Discover<'_, '_> {
    #[inline(always)]
    fn next(self, s: u32, sym: SymbolId) -> u32 {
        self.lazy.step(s, sym).unwrap_or_else(|err| {
            self.ctl.fail(err);
            s
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::match_sequential;
    use crate::runtime::ByteClassifier;
    use crate::sfa::Sfa;
    use sfa_automata::pipeline::Pipeline;
    use sfa_automata::Alphabet;
    use sfa_workloads::protein_text;

    fn rg_dfa() -> Dfa {
        Pipeline::search(Alphabet::amino_acids())
            .compile_str("RG")
            .unwrap()
    }

    #[test]
    fn lazy_matching_agrees_with_sequential() {
        let dfa = rg_dfa();
        let lazy = LazySfa::new(&dfa, 1 << 16).unwrap();
        for seed in 0..5 {
            let text = protein_text(10_000, seed);
            assert_eq!(
                lazy.matches(&text, 4).unwrap(),
                match_sequential(&dfa, &text),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn lazy_builds_at_most_the_full_sfa() {
        let dfa = rg_dfa();
        let full = Sfa::builder(&dfa)
            .options(&ParallelOptions::with_threads(2))
            .build()
            .unwrap()
            .sfa;
        let lazy = LazySfa::new(&dfa, 1 << 16).unwrap();
        for seed in 0..10 {
            let text = protein_text(5_000, seed);
            lazy.matches(&text, 3).unwrap();
        }
        assert!(lazy.states_built() <= full.num_states());
        assert!(lazy.states_built() >= 1);
    }

    #[test]
    fn lazy_visits_a_fraction_on_large_automata() {
        // The headline benefit: r200's full SFA has ~20k states; matching
        // real text discovers only a few hundred.
        let dfa = sfa_automata::random::rn(200);
        let full_states = 19_883u32; // measured by the batch engine (E5)
        let lazy = LazySfa::new(&dfa, 1 << 20).unwrap();
        let text = protein_text(100_000, 3);
        let hit = lazy.matches(&text, 4).unwrap();
        assert_eq!(hit, match_sequential(&dfa, &text));
        assert!(
            lazy.states_built() * 10 < full_states,
            "lazy built {} of {} states",
            lazy.states_built(),
            full_states
        );
    }

    #[test]
    fn states_are_reused_across_inputs() {
        let dfa = rg_dfa();
        let lazy = LazySfa::new(&dfa, 1 << 16).unwrap();
        let text = protein_text(5_000, 1);
        lazy.matches(&text, 2).unwrap();
        let after_first = lazy.states_built();
        // Same text again: no new states.
        lazy.matches(&text, 2).unwrap();
        assert_eq!(lazy.states_built(), after_first);
    }

    #[test]
    fn concurrent_discovery_is_consistent() {
        // Many threads matching different texts concurrently must agree
        // with the oracle and never duplicate states.
        let dfa = rg_dfa();
        let lazy = LazySfa::new(&dfa, 1 << 16).unwrap();
        std::thread::scope(|scope| {
            for seed in 0..8u64 {
                let lazy = &lazy;
                let dfa = &dfa;
                scope.spawn(move || {
                    let text = protein_text(20_000, seed);
                    assert_eq!(
                        lazy.matches(&text, 1).unwrap(),
                        match_sequential(dfa, &text)
                    );
                });
            }
        });
        // The full RG SFA has 6 states; lazy must not exceed it even
        // under concurrent discovery (losers are tombstoned, not listed).
        let full = Sfa::builder(&dfa)
            .options(&ParallelOptions::with_threads(2))
            .build()
            .unwrap()
            .sfa;
        let text = protein_text(1_000, 99);
        lazy.matches(&text, 4).unwrap();
        assert!(lazy.states_built() >= 1);
        // Race losers are not counted, so the discovered states can
        // never exceed the full SFA.
        assert!(lazy.states_built() <= full.num_states());
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        // The RG search SFA needs 6 distinct states on generic text; a
        // 2-state budget must fail once the second new state appears.
        let dfa = rg_dfa();
        let lazy = LazySfa::new(&dfa, 2).unwrap();
        let text = protein_text(10_000, 0);
        match lazy.matches(&text, 2) {
            Err(SfaError::StateBudgetExceeded { .. }) => {}
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    /// Lanes from the start state through the kernel, `k_way` to a
    /// group, as the lazy tier runs them; `Err` is the failure the scan
    /// recorded.
    fn kernel_exits<D: Decode>(
        lazy: &LazySfa<'_>,
        decode: D,
        k_way: usize,
        inputs: &[Vec<u8>],
    ) -> Result<Vec<Vec<u32>>, SfaError> {
        let governor = Governor::unlimited();
        let ctl = AbortControl::new(&governor);
        let delta = Discover { lazy, ctl: &ctl };
        let mut lanes: Vec<Lane<'_>> = inputs.iter().map(|w| Lane::new(w, lazy.start())).collect();
        for group in lanes.chunks_mut(k_way) {
            run_lanes(delta, decode, k_way, group, &Exits, &ctl);
        }
        ctl.finish(Ok(()))?;
        Ok(lanes
            .iter()
            .map(|lane| lazy.mapping_of(lane.state))
            .collect())
    }

    #[test]
    fn discover_delta_agrees_with_step_loop() {
        let alpha = Alphabet::amino_acids();
        let dfa = Pipeline::search(alpha.clone())
            .compile_prosite("L-x(3)-L-x(3)-L")
            .unwrap();
        let texts: Vec<Vec<u8>> = (0..8)
            .map(|seed| protein_text(400 + 100 * seed as usize, seed))
            .collect();
        // The same texts as files wrapped every 60 columns.
        let wrapped: Vec<Vec<u8>> = texts
            .iter()
            .map(|text| {
                alpha
                    .decode_symbols(text)
                    .chunks(60)
                    .flat_map(|line| line.iter().copied().chain([b'\n']))
                    .collect()
            })
            .collect();
        let oracle = LazySfa::new(&dfa, 1 << 20).unwrap();
        let expected: Vec<Vec<u32>> = texts
            .iter()
            .map(|text| {
                let s = text
                    .iter()
                    .try_fold(oracle.start(), |s, &sym| oracle.step(s, sym));
                oracle.mapping_of(s.unwrap())
            })
            .collect();
        let classifier = ByteClassifier::skipping_ascii_whitespace(&alpha);
        let rg = rg_dfa();
        for k_way in [1usize, 2, 4, 8] {
            let on_symbols = LazySfa::new(&dfa, 1 << 20).unwrap();
            let exits = kernel_exits(&on_symbols, Dense, k_way, &texts).unwrap();
            assert_eq!(exits, expected, "symbols, K = {k_way}");
            let on_bytes = LazySfa::new(&dfa, 1 << 20).unwrap();
            let exits = kernel_exits(&on_bytes, &classifier, k_way, &wrapped).unwrap();
            assert_eq!(exits, expected, "bytes, K = {k_way}");
            for lazy in [&on_symbols, &on_bytes] {
                assert!(lazy.states_built() <= oracle.states_built());
            }

            // Two states are not enough: the scan fails typed, no panic.
            let small = LazySfa::new(&rg, 2).unwrap();
            match kernel_exits(&small, Dense, k_way, &texts) {
                Err(SfaError::StateBudgetExceeded { .. }) => {}
                other => panic!("K = {k_way}: expected a budget error, got {other:?}"),
            }
        }
    }

    #[test]
    fn mapping_of_start_is_identity() {
        let dfa = rg_dfa();
        let lazy = LazySfa::new(&dfa, 64).unwrap();
        assert_eq!(lazy.mapping_of(lazy.start()), vec![0, 1, 2]);
        assert_eq!(lazy.apply(lazy.start(), 2), 2);
    }
}
