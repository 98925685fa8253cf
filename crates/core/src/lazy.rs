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
//!
//! For the r500 automaton the full SFA has 124 543 states; matching a
//! protein-like text touches a tiny fraction of them, so the lazy matcher
//! removes almost the entire construction cost from the §IV-D break-even
//! equation.
//!
//! Internals deliberately reuse the batch engine's substrate:
//! [`StateStore`] (lock-free arena records with fingerprint, chain link
//! and successor slots) and [`ChainedTable`] (find-or-insert keyed by
//! fingerprint). Mappings are stored as raw little-endian `u32` ids —
//! lazy matching visits few states, so the 2× width versus `u16` does
//! not matter and keeps the code monomorphic.

use crate::budget::{Budget, Governor};
use crate::elem::Elem;
use crate::matcher::{panic_payload_message, GOVERNOR_POLL_SYMBOLS};
use crate::state::StateStore;
use crate::SfaError;
use sfa_automata::alphabet::SymbolId;
use sfa_automata::dfa::Dfa;
use sfa_hash::{CityFingerprinter, Fingerprinter};
use sfa_sync::CancelToken;
use sfa_sync::{ChainedTable, FindOrInsert, Links, NIL};
use std::sync::atomic::{AtomicU32, Ordering};

/// A thread-safe, incrementally constructed SFA.
pub struct LazySfa<'d> {
    dfa: &'d Dfa,
    n: usize,
    start: u32,
    state_budget: usize,
    store: StateStore,
    table: ChainedTable,
    fingerprinter: CityFingerprinter,
    governor: Governor,
    /// Arena records that lost a concurrent insert race (tombstones, not
    /// states).
    race_losers: AtomicU32,
}

impl<'d> LazySfa<'d> {
    /// Create a lazy SFA over `dfa` able to hold up to `state_budget`
    /// discovered states.
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
        let governor = Governor::new(budget, cancel);
        // Fail fast on a budget that is already exhausted (cancelled
        // token, zero space budget) before allocating the arena.
        governor.check(0, 0)?;
        let n = dfa.num_states() as usize;
        let store = StateStore::new(state_budget, n, 4, dfa.num_symbols());
        let table = ChainedTable::new((state_budget / 64).clamp(1 << 10, 1 << 22));
        let fingerprinter = CityFingerprinter;
        let identity: Vec<u32> = (0..n as u32).collect();
        let bytes = <u32 as Elem>::as_bytes(&identity);
        let fp = fingerprinter.fingerprint(bytes);
        let start = store
            .alloc(fp, bytes.to_vec().into_boxed_slice(), false)
            .ok_or(SfaError::StateBudgetExceeded {
                budget: state_budget,
            })?;
        table.insert_unchecked(fp, start, &store);
        Ok(LazySfa {
            dfa,
            n,
            start,
            state_budget,
            store,
            table,
            fingerprinter,
            governor,
            race_losers: AtomicU32::new(0),
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
        (self.store.len() as u32).saturating_sub(self.race_losers.load(Ordering::Relaxed))
    }

    /// The mapping vector of a discovered state.
    pub fn mapping_of(&self, s: u32) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.n);
        <u32 as Elem>::read_bytes(&self.store.mapping(s).data, &mut out);
        out
    }

    /// Apply state `s`'s mapping to DFA state `q`.
    pub fn apply(&self, s: u32, q: u32) -> u32 {
        let buf = &self.store.mapping(s).data;
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
    /// into the match loop (a tenth off lazy-tier time on `match`).
    #[cold]
    fn discover(&self, s: u32, sym: SymbolId) -> Result<u32, SfaError> {
        if !self.governor.is_unlimited() {
            // Discovery-path checkpoint: about to construct a state.
            let states = self.store.len() as u64;
            self.governor.check(states, states * self.n as u64 * 4)?;
        }
        // Compute the candidate mapping: one δ column over s's mapping.
        let src = &self.store.mapping(s).data;
        let mut cand: Vec<u32> = Vec::with_capacity(self.n);
        for i in 0..self.n {
            let q = u32::from_ne_bytes(src[i * 4..i * 4 + 4].try_into().unwrap());
            cand.push(self.dfa.next(q, sym));
        }
        let bytes = <u32 as Elem>::as_bytes(&cand);
        let fp = self.fingerprinter.fingerprint(bytes);
        let eq = |other: u32| {
            self.store.fingerprint(other) == fp && self.store.mapping_equals(other, bytes)
        };
        let succ = if let Some(found) = self.table.find(fp, &self.store, eq) {
            found
        } else {
            let id = self
                .store
                .alloc(fp, bytes.to_vec().into_boxed_slice(), false)
                .ok_or(SfaError::StateBudgetExceeded {
                    budget: self.state_budget,
                })?;
            match self.table.find_or_insert(fp, id, &self.store, eq) {
                FindOrInsert::Inserted => id,
                FindOrInsert::Found(existing) => {
                    // Lost the race; tombstone our record (it is arena
                    // garbage but must never alias a live chain entry).
                    self.store.link(id).store(u32::MAX - 1, Ordering::SeqCst);
                    self.race_losers.fetch_add(1, Ordering::Relaxed);
                    existing
                }
            }
        };
        self.store.set_succ(s, sym as usize, succ);
        Ok(succ)
    }

    /// Run the lazy SFA over `input` from the start state, constructing
    /// missing states along the way.
    pub fn run(&self, input: &[SymbolId]) -> Result<u32, SfaError> {
        self.run_governed(input, &Governor::unlimited())
    }

    /// [`Self::run`] that also polls `governor` (a match request's
    /// deadline and cancel token) every [`GOVERNOR_POLL_SYMBOLS`] symbols.
    fn run_governed(&self, input: &[SymbolId], governor: &Governor) -> Result<u32, SfaError> {
        let mut s = self.start;
        for part in input.chunks(GOVERNOR_POLL_SYMBOLS) {
            governor.check(0, 0)?;
            for &sym in part {
                s = self.step(s, sym)?;
            }
        }
        Ok(s)
    }

    /// Parallel membership test: chunk the input, run the lazy SFA over
    /// each chunk concurrently (states discovered by one worker are
    /// immediately visible to the others), compose the mappings, apply
    /// the DFA start state.
    pub fn matches(&self, input: &[SymbolId], threads: usize) -> Result<bool, SfaError> {
        let (verdict, _) = self.matches_governed(&Governor::unlimited(), input, threads)?;
        Ok(verdict)
    }

    /// [`Self::matches`] polling `governor`, returning the verdict and the
    /// chunk count; a worker panic becomes [`SfaError::WorkerPanic`]. Not
    /// on the match pool: state rows allocated from its long-lived
    /// threads raised peak RSS on the `match` benchmark by a fifth.
    pub(crate) fn matches_governed(
        &self,
        governor: &Governor,
        input: &[SymbolId],
        threads: usize,
    ) -> Result<(bool, u64), SfaError> {
        if input.is_empty() {
            return Ok((self.dfa.is_accepting(self.dfa.start()), 0));
        }
        let chunk = input.len().div_ceil(threads.max(1));
        let ends: Vec<Result<u32, SfaError>> = if chunk == input.len() {
            vec![self.run_governed(input, governor)]
        } else {
            std::thread::scope(|scope| {
                let workers: Vec<_> = input
                    .chunks(chunk)
                    .map(|part| scope.spawn(move || self.run_governed(part, governor)))
                    .collect();
                workers
                    .into_iter()
                    .map(|worker| {
                        worker.join().unwrap_or_else(|payload| {
                            Err(SfaError::WorkerPanic {
                                message: panic_payload_message(payload),
                            })
                        })
                    })
                    .collect()
            })
        };
        let chunks = ends.len() as u64;
        let mut q = self.dfa.start();
        for end in ends {
            q = self.apply(end?, q);
        }
        Ok((self.dfa.is_accepting(q), chunks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::match_sequential;
    use crate::parallel::ParallelOptions;
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

    #[test]
    fn mapping_of_start_is_identity() {
        let dfa = rg_dfa();
        let lazy = LazySfa::new(&dfa, 64).unwrap();
        assert_eq!(lazy.mapping_of(lazy.start()), vec![0, 1, 2]);
        assert_eq!(lazy.apply(lazy.start(), 2), 2);
    }
}
