//! Sequential SFA construction — Algorithm 1 and its optimizations.
//!
//! Three variants reproduce the paper's Fig. 4 progression:
//!
//! * [`SequentialVariant::Baseline`] — the construction method of the
//!   original SFA paper: the state set is an ordered tree map
//!   (`BTreeMap`, standing in for the C++ STL red-black-tree `std::map`),
//!   every membership test compares whole state vectors, and successors
//!   are generated one symbol at a time (line 6 of Algorithm 1).
//! * [`SequentialVariant::Hashing`] — fingerprints + a fingerprint-keyed
//!   hash table make membership `O(1)` expected; the exhaustive compare
//!   only runs on fingerprint equality (§III-A).
//! * [`SequentialVariant::Transposed`] — additionally generates all `|Σ|`
//!   successors of a state at once via the parameterized-transposition
//!   SIMD kernels (§III-A, Fig. 3). This is the paper's fastest
//!   single-threaded method and the baseline for parallel speedups.
//!
//! ## Checkpointed construction
//!
//! The sequential worklist is a FIFO whose ids are assigned
//! monotonically, so the pop order is exactly the id order — the
//! worklist *is* a cursor over the arena. `SeqEngine` exploits this:
//! its resumable state is just `{mappings, δₛ, processed-cursor}`, which
//! is what a [`crate::artifact::Checkpoint`] persists (the state-set is
//! rebuilt by re-interning the persisted rows, in id order, so hash
//! chains come back identical). Construction resumed from a checkpoint
//! therefore produces a **byte-identical** SFA to an uninterrupted run.
//! The parallel engine snapshots the same `{mappings, δₛ, cursor}` shape
//! at its canonical-order barriers (see `parallel`), so checkpoints are
//! interchangeable between the two engines: a parallel build can resume a
//! sequential snapshot and vice versa, to the same bytes.
//!
//! The mapping arena is one flat `Vec<E>`: it becomes the finished
//! automaton's mapping store as is, checkpoints encode straight from it,
//! and a resume adopts the checkpoint's rows. Compression and the spill
//! tier belong to the parallel engine, whose one-thread build is
//! byte-identical to this one.

use crate::artifact::{self, Checkpoint, CheckpointConfig};
use crate::budget::Governor;
use crate::elem::{fits_u16, Elem};
use crate::io::IoError;
use crate::sfa::Sfa;
use crate::stats::{ConstructionResult, ConstructionStats};
use crate::SfaError;
use sfa_automata::dfa::Dfa;
use sfa_hash::{CityFingerprinter, Fingerprinter};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Which sequential algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SequentialVariant {
    /// Tree-map state set (`BTreeMap`), per-symbol successor generation.
    Baseline,
    /// Pointer-per-node tree state set (`PointerTreeMap`) — closer to the
    /// paper's C++ `std::map` memory behaviour than `BTreeMap` (which
    /// packs entries per node and is kinder to caches).
    BaselinePointerTree,
    /// Fingerprints + hash table.
    Hashing,
    /// Hashing + parameterized SIMD transposition.
    Transposed,
}

/// The sequential engine behind [`Sfa::builder`](crate::Sfa::builder):
/// governed, resumable construction of at most `state_budget` states.
pub(crate) fn construct_sequential(
    dfa: &Dfa,
    variant: SequentialVariant,
    state_budget: usize,
    governor: &Governor,
    checkpoint: Option<&CheckpointConfig>,
    resume: Option<&Checkpoint>,
) -> Result<ConstructionResult, SfaError> {
    if dfa.num_states() == 0 {
        return Err(SfaError::EmptyDfa);
    }
    if fits_u16(dfa.num_states()) {
        construct_impl::<u16>(dfa, variant, state_budget, governor, checkpoint, resume)
    } else {
        construct_impl::<u32>(dfa, variant, state_budget, governor, checkpoint, resume)
    }
}

/// Membership structure per variant.
enum StateSet {
    Tree(BTreeMap<Box<[u8]>, u32>),
    PointerTree(crate::treemap::PointerTreeMap),
    Hash(HashMap<u64, Vec<u32>>),
}

/// The resumable sequential construction engine (see the module docs).
///
/// The worklist of Algorithm 1 is represented as the `processed` cursor:
/// ids are assigned monotonically and popped FIFO, so the next state to
/// process is always id `processed`. Everything the engine needs to
/// continue — `mappings`, `delta`, `processed` — is exactly what a
/// [`Checkpoint`] persists; the membership set is derived state and is
/// rebuilt on resume.
struct SeqEngine<E: Elem> {
    variant: SequentialVariant,
    state_budget: usize,
    n: usize,
    k: usize,
    /// Typed copy of the DFA transition table for the kernels.
    table: Vec<E>,
    /// Mapping arena: state id → row of `n` elements, flat.
    rows: Vec<E>,
    /// δₛ rows (`u32::MAX` = not yet filled).
    delta: Vec<u32>,
    /// States with complete δₛ rows; also the worklist cursor.
    processed: usize,
    set: StateSet,
    stats: ConstructionStats,
    fingerprinter: CityFingerprinter,
    dfa_crc: u64,
}

impl<E: Elem> SeqEngine<E> {
    fn empty_set(variant: SequentialVariant) -> StateSet {
        match variant {
            SequentialVariant::Baseline => StateSet::Tree(BTreeMap::new()),
            SequentialVariant::BaselinePointerTree => {
                StateSet::PointerTree(crate::treemap::PointerTreeMap::new())
            }
            _ => StateSet::Hash(HashMap::new()),
        }
    }

    /// Fresh build: intern the identity start mapping ⟨q₀, …, qₙ₋₁⟩.
    fn new(
        dfa: &Dfa,
        variant: SequentialVariant,
        state_budget: usize,
    ) -> Result<SeqEngine<E>, SfaError> {
        let n = dfa.num_states() as usize;
        let k = dfa.num_symbols();
        let mut engine = SeqEngine {
            variant,
            state_budget,
            n,
            k,
            table: dfa.table().iter().map(|&q| E::from_u32(q)).collect(),
            rows: Vec::with_capacity(n * 64),
            delta: Vec::new(),
            processed: 0,
            set: Self::empty_set(variant),
            stats: ConstructionStats::with_threads(1),
            fingerprinter: CityFingerprinter,
            dfa_crc: artifact::dfa_fingerprint(dfa),
        };
        let identity: Vec<E> = (0..n as u32).map(E::from_u32).collect();
        engine.intern(&identity)?;
        Ok(engine)
    }

    /// Continue an interrupted build from a validated [`Checkpoint`],
    /// adopting its rows as the arena. The membership set is rebuilt by
    /// re-interning the rows in id order, so (for the hashing variants)
    /// fingerprint chains come back in the same order a fresh build
    /// created them.
    fn resume(
        dfa: &Dfa,
        variant: SequentialVariant,
        state_budget: usize,
        ckpt: &Checkpoint,
    ) -> Result<SeqEngine<E>, SfaError> {
        let n = dfa.num_states() as usize;
        let k = dfa.num_symbols();
        let rows = ckpt.validate_for::<E>(dfa).map_err(SfaError::Artifact)?;
        let fingerprinter = CityFingerprinter;
        let mut set = Self::empty_set(variant);
        for (id, row) in rows.chunks_exact(n).enumerate() {
            let (id, bytes) = (id as u32, E::as_bytes(row));
            match &mut set {
                StateSet::Tree(map) => {
                    map.insert(bytes.to_vec().into_boxed_slice(), id);
                }
                StateSet::PointerTree(map) => {
                    map.insert(bytes, id);
                }
                StateSet::Hash(map) => {
                    let fp = fingerprinter.fingerprint(bytes);
                    map.entry(fp).or_default().push(id);
                }
            }
        }
        Ok(SeqEngine {
            variant,
            state_budget,
            n,
            k,
            table: dfa.table().iter().map(|&q| E::from_u32(q)).collect(),
            rows,
            delta: ckpt.delta.clone(),
            processed: ckpt.processed as usize,
            set,
            stats: ConstructionStats::with_threads(1),
            fingerprinter,
            dfa_crc: ckpt.dfa_crc,
        })
    }

    fn num_states(&self) -> usize {
        self.rows.len() / self.n
    }

    /// Find-or-insert a candidate mapping; returns its id.
    fn intern(&mut self, cand: &[E]) -> Result<u32, SfaError> {
        let bytes = E::as_bytes(cand);
        // Fingerprint computed once; reused on the insert path below.
        let mut fp_memo: Option<u64> = None;
        let found = match &mut self.set {
            StateSet::Tree(map) => map.get(bytes).copied(),
            StateSet::PointerTree(map) => map.get(bytes),
            StateSet::Hash(map) => {
                let fp = self.fingerprinter.fingerprint(bytes);
                fp_memo = Some(fp);
                let mut hit = None;
                if let Some(chain) = map.get(&fp) {
                    for &id in chain {
                        // Fingerprints matched: exhaustive compare (§III-A).
                        self.stats.exhaustive_compares += 1;
                        let at = id as usize * self.n;
                        let row = &self.rows[at..at + self.n];
                        if sfa_simd::bytes_equal(E::as_bytes(row), bytes) {
                            hit = Some(id);
                            break;
                        }
                        self.stats.fingerprint_collisions += 1;
                    }
                }
                hit
            }
        };
        if let Some(id) = found {
            self.stats.duplicates += 1;
            return Ok(id);
        }
        let id = self.num_states() as u32;
        if id as usize >= self.state_budget {
            return Err(SfaError::StateBudgetExceeded {
                budget: self.state_budget,
            });
        }
        self.rows.extend_from_slice(cand);
        self.delta.extend(std::iter::repeat_n(u32::MAX, self.k));
        match &mut self.set {
            StateSet::Tree(map) => {
                map.insert(bytes.to_vec().into_boxed_slice(), id);
            }
            StateSet::PointerTree(map) => {
                map.insert(bytes, id);
            }
            StateSet::Hash(map) => {
                let fp = fp_memo.expect("hash variant computed the fingerprint on lookup");
                map.entry(fp).or_default().push(id);
            }
        }
        Ok(id)
    }

    /// Snapshot the engine to the checkpoint artifact (atomic write),
    /// encoding the arena in place. Called only between states, so every
    /// row below the cursor is complete and everything above it is
    /// untouched frontier.
    fn write_checkpoint(&self, cfg: &CheckpointConfig) -> Result<(), SfaError> {
        sfa_sync::fault_point!("checkpoint/write")
            .map_err(|e| SfaError::Artifact(IoError::Io(e.to_string())))?;
        let ckpt = Checkpoint {
            dfa_states: self.n as u32,
            symbols: self.k as u32,
            elem_bytes: E::BYTES as u8,
            processed: self.processed as u64,
            num_states: self.num_states() as u64,
            dfa_crc: self.dfa_crc,
            delta: self.delta.clone(),
            mappings_le: artifact::mappings_to_le(&self.rows),
        };
        artifact::write_checkpoint(&cfg.path, &ckpt).map_err(SfaError::Artifact)
    }

    /// Drive the cursor to the end of the arena (Algorithm 1's main
    /// loop), optionally writing checkpoints every
    /// [`CheckpointConfig::every_states`] processed states — the same
    /// per-state cadence the governor is polled at.
    fn run(
        &mut self,
        governor: &Governor,
        checkpoint: Option<&CheckpointConfig>,
    ) -> Result<(), SfaError> {
        // Scratch buffers.
        let mut rows_u32: Vec<u32> = vec![0; self.n];
        let mut transposed: Vec<E> = vec![E::from_u32(0); self.k * self.n];
        let mut candidate: Vec<E> = vec![E::from_u32(0); self.n];

        let governed = !governor.is_unlimited();
        let mut since_checkpoint = 0u64;
        while self.processed < self.num_states() {
            let id = self.processed as u32;
            // Snapshot BEFORE the governor poll: a budget/cancel abort
            // at this iteration then still leaves the freshest
            // checkpoint behind for `resume_from` to continue.
            if let Some(cfg) = checkpoint {
                if since_checkpoint >= cfg.every_states {
                    self.write_checkpoint(cfg)?;
                    since_checkpoint = 0;
                }
            }
            if governed {
                // One check per processed SFA state: cheap relative to
                // the |Σ| candidate generations the state is about to do.
                governor.check(
                    self.num_states() as u64,
                    (self.rows.len() * E::BYTES) as u64,
                )?;
            }
            sfa_sync::fault_point!("construct/state").map_err(|e| SfaError::Io(e.to_string()))?;
            // Copy the source row once: both variants generate from this
            // copy while interning grows the arena.
            let src = &self.rows[id as usize * self.n..(id as usize + 1) * self.n];
            for (r, &e) in rows_u32.iter_mut().zip(src.iter()) {
                *r = e.to_u32();
            }
            match self.variant {
                SequentialVariant::Transposed => {
                    // Parameterized transposition: all k successors at once.
                    E::transpose_gather(&self.table, self.k, &rows_u32, &mut transposed);
                    for sym in 0..self.k {
                        self.stats.candidates += 1;
                        let cand = &transposed[sym * self.n..(sym + 1) * self.n];
                        let succ = self.intern(cand)?;
                        self.delta[id as usize * self.k + sym] = succ;
                    }
                }
                _ => {
                    // Line 6 of Algorithm 1: one symbol at a time.
                    for sym in 0..self.k {
                        self.stats.candidates += 1;
                        for (q, slot) in candidate.iter_mut().enumerate() {
                            let cur = rows_u32[q];
                            *slot = self.table[cur as usize * self.k + sym];
                        }
                        let succ = self.intern(&candidate)?;
                        self.delta[id as usize * self.k + sym] = succ;
                    }
                }
            }
            self.processed += 1;
            since_checkpoint += 1;
        }
        Ok(())
    }

    fn finish(mut self, t0: Instant) -> ConstructionResult {
        self.stats.states = self.num_states() as u64;
        // The arena only grows: every byte ever stored is still resident.
        let bytes = (self.rows.len() * E::BYTES) as u64;
        self.stats.uncompressed_bytes = bytes;
        self.stats.stored_bytes = bytes;
        self.stats.peak_bytes = bytes;
        self.stats.resident_bytes = bytes;
        self.stats.total_secs = t0.elapsed().as_secs_f64();
        self.stats.phase1_secs = self.stats.total_secs;
        // The start state is always id 0: the identity mapping is the
        // first row interned, in fresh builds and (by induction over the
        // persisted arena) in resumed ones. The arena becomes the mapping
        // store as is: no copy.
        let sfa = Sfa::from_parts(self.n, self.k, 0, self.delta, E::into_store(self.rows));
        ConstructionResult {
            sfa,
            stats: self.stats,
        }
    }
}

fn construct_impl<E: Elem>(
    dfa: &Dfa,
    variant: SequentialVariant,
    state_budget: usize,
    governor: &Governor,
    checkpoint: Option<&CheckpointConfig>,
    resume: Option<&Checkpoint>,
) -> Result<ConstructionResult, SfaError> {
    let t0 = Instant::now();
    let mut engine = match resume {
        None => SeqEngine::<E>::new(dfa, variant, state_budget)?,
        Some(ckpt) => SeqEngine::<E>::resume(dfa, variant, state_budget, ckpt)?,
    };
    engine.run(governor, checkpoint)?;
    let result = engine.finish(t0);
    // Phase spans + global metrics are derived from the stats the
    // stopwatch above already filled, so the span durations and the
    // reported `total_secs` can never disagree.
    crate::obs::observe_construction(&result.stats);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfa_automata::alphabet::Alphabet;
    use sfa_automata::pipeline::Pipeline;

    fn rg_dfa() -> Dfa {
        Pipeline::search(Alphabet::amino_acids())
            .compile_str("RG")
            .unwrap()
    }

    #[test]
    fn fig2_sfa_has_six_states() {
        // The paper's Fig. 2 SFA (from the 3-state Fig. 1 DFA) has SFA
        // states f0…f5.
        let dfa = rg_dfa();
        for variant in [
            SequentialVariant::Baseline,
            SequentialVariant::BaselinePointerTree,
            SequentialVariant::Hashing,
            SequentialVariant::Transposed,
        ] {
            let result = Sfa::builder(&dfa).sequential(variant).build().unwrap();
            assert_eq!(result.sfa.num_states(), 6, "{variant:?}");
            result.sfa.validate(&dfa).unwrap();
            assert_eq!(result.stats.states, 6);
            assert_eq!(result.stats.candidates, 6 * 20);
        }
    }

    #[test]
    fn all_variants_agree_on_state_count() {
        let alpha = Alphabet::amino_acids();
        for pattern in ["RG", "R{2,3}G", "[RG]N[^A]", "N-{P}-[ST]-{P}"] {
            let dfa = if pattern.contains('-') {
                Pipeline::search(alpha.clone())
                    .compile_prosite(pattern)
                    .unwrap()
            } else {
                Pipeline::search(alpha.clone())
                    .compile_str(pattern)
                    .unwrap()
            };
            let base = Sfa::builder(&dfa)
                .sequential(SequentialVariant::Baseline)
                .build()
                .unwrap();
            let ptree = Sfa::builder(&dfa)
                .sequential(SequentialVariant::BaselinePointerTree)
                .build()
                .unwrap();
            let hash = Sfa::builder(&dfa)
                .sequential(SequentialVariant::Hashing)
                .build()
                .unwrap();
            let trans = Sfa::builder(&dfa)
                .sequential(SequentialVariant::Transposed)
                .build()
                .unwrap();
            assert_eq!(base.sfa.num_states(), ptree.sfa.num_states(), "{pattern}");
            assert_eq!(base.sfa.num_states(), hash.sfa.num_states(), "{pattern}");
            assert_eq!(base.sfa.num_states(), trans.sfa.num_states(), "{pattern}");
            trans.sfa.validate(&dfa).unwrap();
        }
    }

    #[test]
    fn sfa_simulates_dfa_from_every_state() {
        let dfa = rg_dfa();
        let sfa = Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .build()
            .unwrap()
            .sfa;
        let alpha = dfa.alphabet().clone();
        for text in [&b"AARGA"[..], b"RRRG", b"GGGG", b""] {
            let syms = alpha.encode_bytes(text).unwrap();
            let s = sfa.run(&syms);
            let mapping = sfa.mapping_of(s);
            for q0 in 0..dfa.num_states() {
                assert_eq!(
                    mapping[q0 as usize],
                    dfa.run_from(q0, &syms),
                    "start {q0}, text {:?}",
                    std::str::from_utf8(text).unwrap()
                );
            }
        }
    }

    #[test]
    fn budget_is_enforced() {
        let dfa = rg_dfa();
        let err = Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .state_budget(3)
            .build()
            .unwrap_err();
        assert_eq!(err, SfaError::StateBudgetExceeded { budget: 3 });
    }

    #[test]
    fn single_state_dfa() {
        // One accepting state looping on everything: SFA = 1 state.
        use sfa_automata::dfa::DfaBuilder;
        let mut b = DfaBuilder::new(Alphabet::binary());
        let q = b.add_state(true);
        b.set_start(q);
        b.default_transition(q, q);
        let dfa = b.build_strict().unwrap();
        let result = Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .build()
            .unwrap();
        assert_eq!(result.sfa.num_states(), 1);
        result.sfa.validate(&dfa).unwrap();
    }

    #[test]
    fn exact_string_dfa_sfa_is_compact() {
        // rN DFAs are sink-dominated; their SFAs stay small relative to
        // the n^n worst case.
        let dfa = sfa_automata::random::rn(30);
        let result = Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .build()
            .unwrap();
        assert!(result.sfa.num_states() > 1);
        result.sfa.validate(&dfa).unwrap();
        // Identity start mapping.
        let m = result.sfa.mapping_of(result.sfa.start());
        assert_eq!(m, (0..dfa.num_states()).collect::<Vec<_>>());
    }

    #[test]
    fn hashing_stats_show_fingerprint_effectiveness() {
        let dfa = rg_dfa();
        let result = Sfa::builder(&dfa)
            .sequential(SequentialVariant::Hashing)
            .build()
            .unwrap();
        // A duplicate costs exactly one confirming exhaustive compare;
        // fingerprints must eliminate all *wasted* compares here.
        assert_eq!(result.stats.fingerprint_collisions, 0);
        assert_eq!(result.stats.wasted_compare_rate(), 0.0);
        assert_eq!(result.stats.exhaustive_compares, result.stats.duplicates);
    }
}
