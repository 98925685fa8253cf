//! Speculative parallel DFA matching with feasible-entry-set pruning —
//! data-parallel membership tests **without** SFA construction.
//!
//! The SFA removes the entry-state data dependency by precomputing the
//! chunk behaviour for *every* entry state, at an O(nⁿ) construction
//! cost. When that construction is infeasible, two weaker forms of the
//! same idea still parallelize matching over the raw DFA:
//!
//! * **Feasible-entry pruning** (PaREM, Memeti & Pllana,
//!   arXiv:1412.1741): the true entry state of a chunk is
//!   `δ*(q, window)` for *some* state `q` and the trailing symbols
//!   `window` before the boundary — so folding the full state set
//!   through a short trailing window yields a sound overapproximation
//!   `F` of the possible entry states. DFAs built from search patterns
//!   funnel hard: `|F|` is usually tiny. When every boundary's set is
//!   narrow the matcher runs each chunk from **every** feasible entry —
//!   a sparse partial mapping, i.e. an SFA mapping vector pruned from
//!   `n` rows down to `|F|` — and folds the exact entries sequentially.
//!   This is the exact **pruned** tier ([`MatchTier::PrunedSfa`]).
//!
//! * **Speculation** (Ko, Jeon & Han, arXiv:1210.5093): when the
//!   feasible sets stay wide, each non-first chunk starts from a
//!   *predicted* hot entry state (the most-visited feasible state, per
//!   the [`StatePredictor`] visit counters learned from previous runs
//!   on the same automaton). A sequential seam-verification pass then
//!   threads the true state left-to-right: a correct prediction adopts
//!   the speculative exit for free; a mispredicted chunk is re-run from
//!   the now-known true entry, stopping early as soon as the re-run
//!   converges onto the speculative run's checkpoint trail (same state
//!   at the same position ⇒ identical suffix). The worst case — every
//!   prediction wrong, no convergence — degenerates to one sequential
//!   pass plus the wasted speculative work, and still answers exactly.
//!
//! Both modes are verdict-identical to
//! [`match_sequential`](crate::matcher::match_sequential) by
//! construction; the property suite in `tests/integration_properties.rs`
//! pins this against the oracle, including a forced-100%-mispredict
//! adversary.
//!
//! The match runtime runs one pass per block of input from the running
//! DFA state, so files stream block by block; the lanes decode raw bytes
//! themselves, and the feasible-set fold and seam re-runs skip the bytes
//! the classifier skips.
//!
//! [`MatchTier::PrunedSfa`]: crate::MatchTier::PrunedSfa

use crate::budget::Governor;
use crate::matcher::GOVERNOR_POLL_SYMBOLS;
use crate::runtime::Classified;
use crate::scan::{
    run_lanes, run_pooled, Decode, Dense, Exits, Lane, Raw, Record, ScanOptions, Trails,
    CHECKPOINT_SYMBOLS,
};
use crate::SfaError;
use sfa_automata::alphabet::SymbolId;
use sfa_automata::dfa::Dfa;
use sfa_sync::pool::TaskPool;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Trailing symbols folded per boundary for the feasible-entry-set
/// analysis. Deep enough that pattern-search DFAs funnel to a handful
/// of states, shallow enough that the analysis is invisible next to
/// the scan itself (`LOOKBACK × chunks` transitions per state).
const LOOKBACK: usize = 32;

/// Widest feasible set the enumerative pruned mode will scan. Each
/// chunk costs `|F|` passes, spread across the pool — beyond this the
/// redundant work eats the parallel speedup and speculation wins.
const PRUNE_LIMIT: usize = 4;

/// Above this many DFA states the feasible-set fold (O(n) per folded
/// symbol per boundary) stops paying for itself; prediction falls back
/// to the globally hottest state.
const FEASIBLE_MAX_STATES: usize = 1 << 15;

/// Process-global warm-start cache capacity (distinct automata).
const WARM_CACHE_CAP: usize = 32;

// ----------------------------------------------------------------------
// State sets (bitset over DFA states)
// ----------------------------------------------------------------------

/// Dense bitset over DFA state ids — the feasible-entry-set
/// representation. `n ≤ FEASIBLE_MAX_STATES`, so at most 4 KiB.
#[derive(Clone)]
struct StateSet {
    words: Vec<u64>,
}

impl StateSet {
    fn empty(n: usize) -> StateSet {
        StateSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    fn full(n: usize) -> StateSet {
        let mut set = StateSet::empty(n);
        for (i, w) in set.words.iter_mut().enumerate() {
            let remaining = n - i * 64;
            *w = if remaining >= 64 {
                u64::MAX
            } else {
                (1u64 << remaining) - 1
            };
        }
        set
    }

    fn insert(&mut self, q: u32) {
        self.words[q as usize / 64] |= 1u64 << (q as usize % 64);
    }

    #[cfg_attr(not(test), allow(dead_code))]
    fn contains(&self, q: u32) -> bool {
        (self.words[q as usize / 64] >> (q as usize % 64)) & 1 == 1
    }

    fn clear(&mut self) {
        self.words.fill(0);
    }

    fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Member states in increasing id order.
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros();
                    w &= w - 1;
                    Some(wi as u32 * 64 + bit)
                }
            })
        })
    }
}

// ----------------------------------------------------------------------
// Entry-state predictor
// ----------------------------------------------------------------------

/// Per-state visit-frequency counters for one automaton: every seam
/// verification records the *true* entry state of each chunk, and
/// predictions pick the most-visited state inside the boundary's
/// feasible set. Counters are monotone and shared — concurrent matches
/// against the same automaton train one predictor — and live in a
/// process-global cache keyed by DFA fingerprint, so a fresh
/// [`SpeculativeMatcher`] warm-starts from every previous run on the
/// same automaton. Totals are exported through `sfa-obs` as
/// `sfa_match_state_visits_total`.
pub struct StatePredictor {
    visits: Box<[AtomicU64]>,
}

impl StatePredictor {
    /// A cold predictor for an automaton with `num_states` states.
    pub fn new(num_states: u32) -> StatePredictor {
        StatePredictor {
            visits: (0..num_states).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// States this predictor covers.
    pub fn num_states(&self) -> usize {
        self.visits.len()
    }

    /// Record one observed true entry state.
    pub fn record(&self, q: u32) {
        self.visits[q as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Observed visit count for `q`.
    pub fn visits(&self, q: u32) -> u64 {
        self.visits[q as usize].load(Ordering::Relaxed)
    }

    /// Total observations across all states.
    pub fn total_visits(&self) -> u64 {
        self.visits.iter().map(|v| v.load(Ordering::Relaxed)).sum()
    }

    /// Most-visited state within `set` (lowest id wins ties, so a cold
    /// predictor deterministically picks the smallest feasible state).
    fn hottest_in(&self, set: &StateSet) -> Option<u32> {
        set.iter()
            .map(|q| (self.visits(q), q))
            .fold(None, |best: Option<(u64, u32)>, (v, q)| match best {
                Some((bv, bq)) if bv >= v => Some((bv, bq)),
                _ => Some((v, q)),
            })
            .map(|(_, q)| q)
    }

    /// Most-visited state overall (lowest id wins ties).
    fn hottest(&self) -> Option<u32> {
        (0..self.visits.len() as u32)
            .map(|q| (self.visits(q), q))
            .fold(None, |best: Option<(u64, u32)>, (v, q)| match best {
                Some((bv, bq)) if bv >= v => Some((bv, bq)),
                _ => Some((v, q)),
            })
            .map(|(_, q)| q)
    }
}

/// The process-global warm-start cache: DFA fingerprint → predictor.
/// Bounded FIFO — speculation is a degraded mode, so a handful of hot
/// automata is the realistic working set.
static WARM_PREDICTORS: Mutex<Vec<(u64, Arc<StatePredictor>)>> = Mutex::new(Vec::new());

/// The shared (warm-started) predictor for `dfa`: the same automaton —
/// keyed by [`crate::artifact::dfa_fingerprint`] — always gets the same
/// counters, so later runs inherit everything earlier runs learned.
pub fn shared_predictor(dfa: &Dfa) -> Arc<StatePredictor> {
    let fp = crate::artifact::dfa_fingerprint(dfa);
    let mut cache = WARM_PREDICTORS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    if let Some((_, predictor)) = cache
        .iter()
        .find(|(key, p)| *key == fp && p.num_states() == dfa.num_states() as usize)
    {
        return Arc::clone(predictor);
    }
    let predictor = Arc::new(StatePredictor::new(dfa.num_states()));
    if cache.len() >= WARM_CACHE_CAP {
        cache.remove(0);
    }
    cache.push((fp, Arc::clone(&predictor)));
    predictor
}

// ----------------------------------------------------------------------
// Stats
// ----------------------------------------------------------------------

/// Telemetry from one speculative (or pruned) pass — folded into
/// [`MatchStats`](crate::MatchStats) by the runtime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Chunks the input split into.
    pub chunks: u64,
    /// Seams where the predicted entry state was wrong.
    pub mispredicts: u64,
    /// Chunk re-scans (mispredicted chunks re-run from the true entry;
    /// convergence may cut a re-scan short, but it still counts).
    pub reruns: u64,
    /// True entry states recorded into the predictor this pass.
    pub state_visits: u64,
    /// `true` when the exact enumerative pruned mode answered (narrow
    /// feasible sets — no speculation, no mispredicts possible).
    pub pruned: bool,
}

// ----------------------------------------------------------------------
// The matcher
// ----------------------------------------------------------------------

/// Chunk-parallel DFA membership test over the raw DFA — no SFA
/// required, so it works exactly where SFA construction is infeasible.
/// Construct once per automaton and match many inputs; the predictor
/// is shared process-wide per automaton (see [`shared_predictor`]).
pub struct SpeculativeMatcher<'d> {
    dfa: &'d Dfa,
    predictor: Arc<StatePredictor>,
    opts: ScanOptions,
}

impl std::fmt::Debug for SpeculativeMatcher<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpeculativeMatcher")
            .field("dfa_states", &self.dfa.num_states())
            .field("trained_visits", &self.predictor.total_visits())
            .finish()
    }
}

impl<'d> SpeculativeMatcher<'d> {
    /// A matcher over `dfa` with default chunk geometry and the shared
    /// warm-started predictor.
    pub fn new(dfa: &'d Dfa) -> Result<SpeculativeMatcher<'d>, SfaError> {
        SpeculativeMatcher::with_options(dfa, ScanOptions::default())
    }

    /// A matcher with explicit chunk geometry (the same [`ScanOptions`]
    /// the SFA tiers use, so chunk seams land in the same places).
    pub fn with_options(
        dfa: &'d Dfa,
        opts: ScanOptions,
    ) -> Result<SpeculativeMatcher<'d>, SfaError> {
        if dfa.num_states() == 0 {
            return Err(SfaError::EmptyDfa);
        }
        opts.validate()?;
        Ok(SpeculativeMatcher {
            predictor: shared_predictor(dfa),
            dfa,
            opts,
        })
    }

    /// Replace the predictor — lets tests force specific predictions
    /// (bias the counters) without touching the process-global cache.
    pub fn with_predictor(mut self, predictor: Arc<StatePredictor>) -> SpeculativeMatcher<'d> {
        self.predictor = predictor;
        self
    }

    /// Replace the chunk geometry (already validated); the predictor
    /// carries over.
    pub(crate) fn set_options(&mut self, opts: ScanOptions) {
        self.opts = opts;
    }

    /// The automaton this matcher runs.
    pub(crate) fn dfa(&self) -> &'d Dfa {
        self.dfa
    }

    /// The visit counters backing this matcher's predictions.
    pub fn predictor(&self) -> &Arc<StatePredictor> {
        &self.predictor
    }

    /// Membership test: the DFA's accept decision for `input`, plus the
    /// speculation telemetry. Verdict-identical to
    /// [`match_sequential`](crate::match_sequential).
    pub fn matches(
        &self,
        pool: &TaskPool,
        governor: &Governor,
        input: &[SymbolId],
        threads: usize,
    ) -> Result<(bool, SpecStats), SfaError> {
        let (q, stats) = self.final_state(pool, governor, input, threads)?;
        Ok((self.dfa.is_accepting(q), stats))
    }

    /// `δ*(q0, input)` computed chunk-parallel: pruned-enumerative when
    /// the feasible sets are narrow, predict/verify otherwise.
    pub fn final_state(
        &self,
        pool: &TaskPool,
        governor: &Governor,
        input: &[SymbolId],
        threads: usize,
    ) -> Result<(u32, SpecStats), SfaError> {
        let q0 = self.dfa.start();
        self.fold_block(pool, governor, Dense, input, 0, q0, threads)
    }

    /// The speculative tier's block step: `δ*(q, block)` for a block
    /// read through `decode` at input offset `offset`, computed
    /// chunk-parallel from the running state `q`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fold_block<D: Decode>(
        &self,
        pool: &TaskPool,
        governor: &Governor,
        decode: D,
        block: &[u8],
        offset: u64,
        q: u32,
        threads: usize,
    ) -> Result<(u32, SpecStats), SfaError> {
        let mut stats = SpecStats {
            chunks: 1,
            ..SpecStats::default()
        };
        governor.check(0, 0)?;
        if block.is_empty() {
            return Ok((q, stats));
        }
        let chunk = self.opts.chunk_len(block.len(), threads);
        let mut chunks: Vec<Lane<'_>> = Lane::chunks(block, offset, chunk, q).collect();
        stats.chunks = chunks.len() as u64;
        if chunks.len() == 1 {
            self.run(pool, governor, decode, &mut chunks, &Exits)?;
            return Ok((chunks[0].state, stats));
        }
        let feasible = self.feasible_entry_sets(decode, block, q, chunk, chunks.len());
        let widest = feasible
            .as_ref()
            .map(|sets| sets.iter().map(StateSet::len).max().unwrap_or(0));
        let q = match (feasible, widest) {
            (Some(sets), Some(w)) if w <= PRUNE_LIMIT => {
                self.pruned(pool, governor, decode, &chunks, &sets, &mut stats)?
            }
            (feasible, _) => {
                let feasible = feasible.as_deref();
                self.speculate(pool, governor, decode, chunks, feasible, &mut stats)?
            }
        };
        Ok((q, stats))
    }

    /// Run `lanes` over the DFA's own table, [`ScanOptions::interleave`]
    /// lanes to a pool task, recording `rec`.
    fn run<D: Decode, R: Record + Sync>(
        &self,
        pool: &TaskPool,
        governor: &Governor,
        decode: D,
        lanes: &mut [Lane<'_>],
        rec: &R,
    ) -> Result<(), SfaError> {
        let k_way = self.opts.interleave;
        run_pooled(pool, governor, k_way, lanes, |_, group, ctl| {
            run_lanes(Raw::of(self.dfa), decode, k_way, group, rec, ctl);
        })
    }

    /// PaREM feasible-entry sets, one per interior boundary
    /// (`sets[i-1]` covers chunk `i`): fold through the trailing
    /// [`LOOKBACK`] bytes before the boundary (skipping those `decode`
    /// does not read as symbols), starting from the full state set — or,
    /// when the boundary is within `LOOKBACK` of the block start, from
    /// `{q}`, which makes the set *exact*. `None` when the DFA is too
    /// large for the fold to pay for itself.
    fn feasible_entry_sets<D: Decode>(
        &self,
        decode: D,
        block: &[u8],
        q: u32,
        chunk: usize,
        c: usize,
    ) -> Option<Vec<StateSet>> {
        let n = self.dfa.num_states() as usize;
        if n > FEASIBLE_MAX_STATES {
            return None;
        }
        let mut sets = Vec::with_capacity(c - 1);
        let mut next = StateSet::empty(n);
        for i in 1..c {
            let boundary = i * chunk;
            let (start, mut cur) = if boundary <= LOOKBACK {
                let mut seed = StateSet::empty(n);
                seed.insert(q);
                (0, seed)
            } else {
                (boundary - LOOKBACK, StateSet::full(n))
            };
            for &byte in &block[start..boundary] {
                let Classified::Symbol(sym) = decode.decode(byte) else {
                    continue;
                };
                next.clear();
                for q in cur.iter() {
                    next.insert(self.dfa.next(q, sym));
                }
                std::mem::swap(&mut cur, &mut next);
            }
            sets.push(cur);
        }
        Some(sets)
    }

    /// Exact enumerative mode: run every chunk from **each** of its
    /// feasible entry states in parallel (a pruned partial mapping —
    /// `|F|` rows instead of the SFA's `n`), then fold the true entries
    /// sequentially. Chunk 0's entry, its lane's state, is exact. No
    /// speculation, so no mispredicts are possible; the defensive re-run
    /// below cannot fire if the sets are sound.
    fn pruned<D: Decode>(
        &self,
        pool: &TaskPool,
        governor: &Governor,
        decode: D,
        chunks: &[Lane<'_>],
        feasible: &[StateSet],
        stats: &mut SpecStats,
    ) -> Result<u32, SfaError> {
        stats.pruned = true;
        let dfa = self.dfa;
        let q = chunks[0].state;
        // entries[i] = candidate entry states for chunk i.
        let entries: Vec<Vec<u32>> = std::iter::once(vec![q])
            .chain(feasible.iter().map(|set| set.iter().collect()))
            .collect();
        // Flatten (chunk, feasible row) pairs into lanes and run them
        // K to a task: rows of neighbouring chunks share a task, so K
        // transition loads stay in flight per iteration even when most
        // chunks have a single feasible entry.
        let mut lanes: Vec<Lane<'_>> = chunks
            .iter()
            .zip(entries.iter())
            .flat_map(|(chunk, e)| {
                e.iter().map(|&q| Lane {
                    offset: chunk.offset,
                    ..Lane::new(chunk.input, q)
                })
            })
            .collect();
        self.run(pool, governor, decode, &mut lanes, &Exits)?;
        let mut state = q;
        let mut rows = lanes.as_slice();
        for (chunk, entries) in chunks.iter().zip(&entries) {
            self.predictor.record(state);
            stats.state_visits += 1;
            let (exits, rest) = rows.split_at(entries.len());
            rows = rest;
            match entries.iter().position(|&e| e == state) {
                Some(pos) => state = exits[pos].state,
                None => {
                    // Unreachable if the feasible sets are sound; answer
                    // exactly anyway rather than trusting the analysis.
                    stats.reruns += 1;
                    state = rerun_chunk(dfa, decode, chunk.input, state, &[], state, governor)?;
                }
            }
        }
        Ok(state)
    }

    /// Predict/verify mode: chunk 0 runs from its lane's state, which is
    /// exact, the others from predicted entries, each recording a
    /// checkpoint trail; then one sequential seam pass threads the true
    /// state and re-runs only the mispredicted chunks (stopping at the
    /// first checkpoint where the re-run converges onto the trail).
    fn speculate<D: Decode>(
        &self,
        pool: &TaskPool,
        governor: &Governor,
        decode: D,
        mut lanes: Vec<Lane<'_>>,
        feasible: Option<&[StateSet]>,
        stats: &mut SpecStats,
    ) -> Result<u32, SfaError> {
        let dfa = self.dfa;
        let q = lanes[0].state;
        let mut preds = Vec::with_capacity(lanes.len());
        for (i, lane) in lanes.iter_mut().enumerate() {
            if i > 0 {
                let pred = match feasible {
                    Some(sets) => self.predictor.hottest_in(&sets[i - 1]),
                    None => self.predictor.hottest(),
                };
                lane.state = pred.unwrap_or(q);
            }
            lane.trail = Vec::with_capacity(lane.input.len().div_ceil(CHECKPOINT_SYMBOLS));
            preds.push(lane.state);
        }
        self.run(pool, governor, decode, &mut lanes, &Trails)?;
        // Seam verification: thread the true state left-to-right. Chunk
        // 0 ran from its true entry, so it can never mispredict.
        let mut state = q;
        for (lane, &pred) in lanes.iter().zip(&preds) {
            self.predictor.record(state);
            stats.state_visits += 1;
            if pred == state {
                state = lane.state;
                continue;
            }
            stats.mispredicts += 1;
            stats.reruns += 1;
            state = rerun_chunk(
                dfa,
                decode,
                lane.input,
                state,
                &lane.trail,
                lane.state,
                governor,
            )?;
        }
        Ok(state)
    }
}

/// Re-run a mispredicted chunk from its true entry, comparing against
/// the speculative checkpoint trail: the first checkpoint where the
/// states agree proves the suffixes identical, so the speculative exit
/// is adopted and the rest of the chunk is skipped. With an empty trail
/// this is a plain governed run from `entry`. Bytes `decode` does not
/// read as symbols are skipped; an invalid one cannot reach here, since
/// the lane pass that precedes every re-run scans every byte.
fn rerun_chunk<D: Decode>(
    dfa: &Dfa,
    decode: D,
    chunk: &[u8],
    entry: u32,
    trail: &[u32],
    spec_exit: u32,
    governor: &Governor,
) -> Result<u32, SfaError> {
    let mut q = entry;
    let mut since_poll = 0usize;
    for (k, block) in chunk.chunks(CHECKPOINT_SYMBOLS).enumerate() {
        since_poll += block.len();
        if since_poll >= GOVERNOR_POLL_SYMBOLS {
            since_poll = 0;
            governor.check(0, 0)?;
        }
        for &byte in block {
            if let Classified::Symbol(sym) = decode.decode(byte) {
                q = dfa.next(q, sym);
            }
        }
        if trail.get(k) == Some(&q) {
            return Ok(spec_exit);
        }
    }
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::match_sequential;
    use sfa_automata::alphabet::Alphabet;
    use sfa_automata::dfa::DfaBuilder;
    use sfa_automata::pipeline::Pipeline;

    /// Tiny chunks so even short inputs split many ways.
    fn tiny_chunks() -> ScanOptions {
        ScanOptions {
            min_chunk_symbols: 1,
            ..ScanOptions::default()
        }
    }

    /// A DFA whose feasible sets never narrow: state = (count of symbol
    /// 0) mod m. Symbol 0 permutes the states and every other symbol is
    /// the identity, so the feasible fold keeps all m states and the
    /// matcher must speculate.
    fn mod_counter_dfa(m: u32) -> Dfa {
        let alphabet = Alphabet::amino_acids();
        let mut b = DfaBuilder::new(alphabet);
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

    /// Deterministic pseudo-random symbols (xorshift), `sym0_period`
    /// controls how often the counter-advancing symbol 0 appears.
    fn text(len: usize, sym0_period: usize, symbols: usize) -> Vec<SymbolId> {
        let mut state = 0x9e3779b97f4a7c15u64;
        (0..len)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if sym0_period != 0 && i % sym0_period == 0 {
                    0
                } else {
                    // Never 0 unless the period says so.
                    (1 + (state as usize % (symbols - 1))) as SymbolId
                }
            })
            .collect()
    }

    fn search_dfa(pattern: &str) -> Dfa {
        Pipeline::search(Alphabet::amino_acids())
            .compile_str(pattern)
            .unwrap()
    }

    #[test]
    fn pruned_mode_matches_oracle_on_search_dfas() {
        let pool = TaskPool::new(4);
        let dfa = search_dfa("RGD");
        let matcher = SpeculativeMatcher::with_options(&dfa, tiny_chunks())
            .unwrap()
            .with_predictor(Arc::new(StatePredictor::new(dfa.num_states())));
        for len in [0usize, 1, 63, 1000, 5000] {
            let mut input = text(len, 0, dfa.num_symbols());
            // Plant the motif mid-input on the longer cases.
            if len >= 1000 {
                let at = len / 2;
                let planted = Alphabet::amino_acids().encode_bytes(b"RGD").unwrap();
                input[at..at + 3].copy_from_slice(&planted);
            }
            let (verdict, stats) = matcher
                .matches(&pool, &Governor::unlimited(), &input, 4)
                .unwrap();
            assert_eq!(verdict, match_sequential(&dfa, &input), "len={len}");
            if stats.chunks > 1 {
                assert!(stats.pruned, "search DFA should funnel to pruned mode");
                assert_eq!(stats.mispredicts, 0);
            }
        }
    }

    #[test]
    fn speculative_mode_matches_oracle_on_wide_feasible_sets() {
        let pool = TaskPool::new(4);
        let dfa = mod_counter_dfa(16);
        let matcher = SpeculativeMatcher::with_options(&dfa, tiny_chunks())
            .unwrap()
            .with_predictor(Arc::new(StatePredictor::new(dfa.num_states())));
        for period in [0usize, 3, 97, 1024] {
            let input = text(20_000, period, dfa.num_symbols());
            let (verdict, stats) = matcher
                .matches(&pool, &Governor::unlimited(), &input, 4)
                .unwrap();
            assert_eq!(verdict, match_sequential(&dfa, &input), "period={period}");
            assert!(!stats.pruned, "mod counter feasible sets never narrow");
            assert!(stats.chunks > 1);
        }
    }

    #[test]
    fn forced_total_mispredict_terminates_and_answers() {
        let pool = TaskPool::new(4);
        let dfa = mod_counter_dfa(16);
        // One count of symbol 0 right at the start: the true entry of
        // every later chunk is state 1 — while the cold predictor
        // deterministically picks state 0 — so every seam mispredicts
        // and no re-run ever converges (the trails stay offset by one).
        let mut input = text(50_000, 0, dfa.num_symbols());
        input[0] = 0;
        let matcher = SpeculativeMatcher::with_options(&dfa, tiny_chunks())
            .unwrap()
            .with_predictor(Arc::new(StatePredictor::new(dfa.num_states())));
        let (verdict, stats) = matcher
            .matches(&pool, &Governor::unlimited(), &input, 4)
            .unwrap();
        assert_eq!(verdict, match_sequential(&dfa, &input));
        assert!(stats.chunks > 1);
        assert_eq!(
            stats.mispredicts,
            stats.chunks - 1,
            "every non-first seam must mispredict"
        );
        assert_eq!(stats.reruns, stats.mispredicts);
    }

    #[test]
    fn warm_predictor_eliminates_mispredicts_on_repeat_runs() {
        let pool = TaskPool::new(4);
        let dfa = mod_counter_dfa(16);
        let mut input = text(50_000, 0, dfa.num_symbols());
        input[0] = 0;
        let predictor = Arc::new(StatePredictor::new(dfa.num_states()));
        let matcher = SpeculativeMatcher::with_options(&dfa, tiny_chunks())
            .unwrap()
            .with_predictor(Arc::clone(&predictor));
        let (_, cold) = matcher
            .matches(&pool, &Governor::unlimited(), &input, 4)
            .unwrap();
        assert!(cold.mispredicts > 0);
        // Second run on the same input: the counters now overwhelmingly
        // favour state 1, the true entry of every seam.
        let (verdict, warm) = matcher
            .matches(&pool, &Governor::unlimited(), &input, 4)
            .unwrap();
        assert_eq!(verdict, match_sequential(&dfa, &input));
        assert!(
            warm.mispredicts < cold.mispredicts,
            "warm {} vs cold {}",
            warm.mispredicts,
            cold.mispredicts
        );
    }

    #[test]
    fn shared_predictor_is_warm_started_per_automaton() {
        let dfa = mod_counter_dfa(7);
        let a = shared_predictor(&dfa);
        a.record(3);
        let b = shared_predictor(&dfa);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(b.visits(3), 1);
    }

    #[test]
    fn cancellation_stops_speculation_with_typed_error() {
        let pool = TaskPool::new(4);
        let dfa = mod_counter_dfa(16);
        let input = text(100_000, 7, dfa.num_symbols());
        let token = sfa_sync::CancelToken::new();
        token.cancel();
        let governor = Governor::new(&crate::Budget::unlimited(), Some(token));
        let matcher = SpeculativeMatcher::with_options(&dfa, tiny_chunks()).unwrap();
        let err = matcher.matches(&pool, &governor, &input, 4).unwrap_err();
        assert!(matches!(err, SfaError::Cancelled { .. }), "{err:?}");
    }

    #[test]
    fn feasible_sets_are_sound_overapproximations() {
        let dfa = search_dfa("RG");
        let matcher = SpeculativeMatcher::with_options(&dfa, tiny_chunks()).unwrap();
        let input = text(4096, 5, dfa.num_symbols());
        let chunk = tiny_chunks().chunk_len(input.len(), 4);
        let c = input.len().div_ceil(chunk);
        let sets = matcher
            .feasible_entry_sets(Dense, &input, dfa.start(), chunk, c)
            .unwrap();
        for (i, set) in sets.iter().enumerate() {
            let true_entry = dfa.run(&input[..(i + 1) * chunk]);
            assert!(
                set.contains(true_entry),
                "boundary {} excludes the true entry {true_entry}",
                i + 1
            );
        }
    }
}
