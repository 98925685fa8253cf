//! The persistent match runtime: pooled and streaming.
//!
//! [`MatchRuntime`] is the serving-side counterpart of the construction
//! engine. It owns (or shares) a [`TaskPool`] and reads every request's
//! input the same way, whatever rung of the degradation ladder serves
//! it — full SFA ([`crate::matcher`]), lazy SFA ([`crate::lazy`]),
//! speculative ([`crate::speculative`]) or sequential. Each tier
//! supplies only its block step, which folds one block into a running
//! DFA state:
//!
//! * **Symbols** ([`MatchRuntime::matches_symbols`]) — dense
//!   [`SymbolId`]s, one block.
//! * **Bytes** — one block whose classification from raw bytes to dense
//!   symbols is *fused* into the tier's scan, so no intermediate
//!   `Vec<SymbolId>` is ever allocated.
//! * **Streams** ([`MatchRuntime::matches_stream`]) and files — any
//!   `impl Read`, consumed one [`MatchRuntime::block_bytes`] block at a
//!   time; memory stays at one block regardless of input size, so
//!   multi-GB inputs stream through without materializing anything.
//!
//! [`MatchRuntime::run`] and [`MatchRuntime::run_dfa`] serve a request
//! on the tier its policy names;
//! [`MatchEngine::run`](crate::MatchEngine::run) picks among them.
//!
//! Every path polls a [`Governor`] at block/chunk granularity (deadline,
//! cancellation), contains worker panics as
//! [`SfaError::WorkerPanic`], and fills a [`MatchStats`] with what
//! happened — chunks scanned, bytes consumed, throughput, pool backlog.
//!
//! Streamed reads retry transient errors (`Interrupted`, `WouldBlock`,
//! `TimedOut`) with bounded exponential backoff — 4 attempts per read
//! position, 5 ms doubling to a 250 ms cap, the schedule the spill tier
//! uses too — before surfacing them as [`SfaError::Io`], so a flaky
//! pipe neither kills a long match on the first hiccup nor hangs it
//! forever. The backoff sleep is injectable
//! ([`MatchRuntime::with_sleeper`]) so tests can assert the schedule
//! without real delays.

use crate::budget::Governor;
use crate::engine::MatchTier;
use crate::io;
use crate::lazy::LazySfa;
use crate::matcher::{ParallelMatcher, GOVERNOR_POLL_SYMBOLS};
use crate::obs::{LazyCounter, LazyGauge, LazyHistogram, Stopwatch};
use crate::request::{ClassifierMode, InputSource, MatchOutcome, MatchRequest, TierPolicy};
use crate::scan::{Decode, Dense, ScanEngine};
use crate::sfa::Sfa;
use crate::speculative::SpeculativeMatcher;
use crate::SfaError;
use sfa_automata::alphabet::{Alphabet, SymbolId};
use sfa_automata::dfa::Dfa;
use sfa_sync::pool::TaskPool;
use std::io::Read;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

// Global-registry runtime metrics (see DESIGN.md §12).
static OBS_BLOCK_NANOS: LazyHistogram = LazyHistogram::new("sfa_runtime_block_nanos");
static OBS_BLOCKS_TOTAL: LazyCounter = LazyCounter::new("sfa_runtime_blocks_total");
static OBS_BYTES_TOTAL: LazyCounter = LazyCounter::new("sfa_runtime_bytes_total");
static OBS_RETRIES_TOTAL: LazyCounter = LazyCounter::new("sfa_runtime_retries_total");
static OBS_QUEUE_DEPTH: LazyGauge = LazyGauge::new("sfa_runtime_queue_depth");

/// Default streaming block: 8 MiB. Large enough that each of ~10 worker
/// chunks still covers several hundred KiB (chunk scans stay scan-bound,
/// not dispatch-bound), small enough that peak memory and cancellation
/// latency stay modest. Override with [`MatchRuntime::with_block_bytes`].
pub const DEFAULT_BLOCK_BYTES: usize = 8 * 1024 * 1024;

/// What one byte of raw input means to the matcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classified {
    /// A dense symbol in the alphabet.
    Symbol(SymbolId),
    /// Ignore this byte (e.g. whitespace in FASTA-ish text).
    Skip,
    /// Outside the alphabet and not skippable: the stream is malformed.
    Invalid,
}

const CLASS_INVALID: u16 = u16::MAX;
const CLASS_SKIP: u16 = u16::MAX - 1;

/// A byte→symbol classifier fused into streaming scans: one 256-entry
/// table lookup per input byte, no intermediate symbol buffer.
#[derive(Debug, Clone)]
pub struct ByteClassifier {
    table: [u16; 256],
}

impl ByteClassifier {
    /// Every byte must belong to `alpha`; anything else is
    /// [`Classified::Invalid`] and fails the match with
    /// [`SfaError::InvalidByte`].
    pub fn strict(alpha: &Alphabet) -> Self {
        let mut table = [CLASS_INVALID; 256];
        for (b, slot) in table.iter_mut().enumerate() {
            if let Some(sym) = alpha.encode(b as u8) {
                *slot = sym as u16;
            }
        }
        ByteClassifier { table }
    }

    /// Like [`Self::strict`], but ASCII whitespace (space, `\t`, `\n`,
    /// `\r`, `\x0b`, `\x0c`) is skipped — the natural mode for streaming
    /// line-wrapped text files.
    pub fn skipping_ascii_whitespace(alpha: &Alphabet) -> Self {
        let mut this = ByteClassifier::strict(alpha);
        for b in [b' ', b'\t', b'\n', b'\r', 0x0b, 0x0c] {
            if this.table[b as usize] == CLASS_INVALID {
                this.table[b as usize] = CLASS_SKIP;
            }
        }
        this
    }

    /// Dense symbol ids: `0..|Σ|` map to themselves and every other byte
    /// is [`Classified::Invalid`]. A request's pre-encoded symbols are
    /// read through it, so an id outside the alphabet fails the match
    /// with [`SfaError::InvalidByte`] on every tier.
    pub(crate) fn symbol_ids(alpha: &Alphabet) -> Self {
        let mut table = [CLASS_INVALID; 256];
        for (id, slot) in table.iter_mut().enumerate().take(alpha.len()) {
            *slot = id as u16;
        }
        ByteClassifier { table }
    }

    /// The classifier a request's [`ClassifierMode`] selects.
    pub(crate) fn for_mode(mode: ClassifierMode, alpha: &Alphabet) -> Self {
        match mode {
            ClassifierMode::Strict => ByteClassifier::strict(alpha),
            ClassifierMode::SkipWhitespace => ByteClassifier::skipping_ascii_whitespace(alpha),
        }
    }

    /// Classify one byte.
    #[inline]
    pub fn classify(&self, byte: u8) -> Classified {
        match self.table[byte as usize] {
            CLASS_INVALID => Classified::Invalid,
            CLASS_SKIP => Classified::Skip,
            sym => Classified::Symbol(sym as SymbolId),
        }
    }
}

/// Per-match telemetry, filled by every runtime path and threaded
/// through [`crate::engine::MatchEngine`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct MatchStats {
    /// Which degradation-ladder tier served the match.
    pub tier: MatchTier,
    /// Streaming blocks consumed (1 for slice/batch paths).
    pub blocks: u64,
    /// Parallel chunk scans dispatched to the pool.
    pub chunks: u64,
    /// Input bytes (or symbols, for pre-encoded slices) consumed.
    pub bytes: u64,
    /// Wall time of the match.
    pub elapsed: Duration,
    /// Pool backlog (queued + running tasks) sampled when the match
    /// finished — a load signal for servers sharing one pool.
    pub queue_depth: usize,
    /// Transient stream-read errors that were retried (see the
    /// [`crate::runtime`] docs); 0 on non-streaming paths.
    pub retries: u64,
    /// Speculative-tier seams where the predicted entry state was wrong
    /// (see [`crate::speculative`]); 0 on every other tier.
    pub mispredicts: u64,
    /// Speculative-tier chunk re-scans triggered by mispredicts (a
    /// convergence checkpoint may cut a re-scan short, but it still
    /// counts); 0 on every other tier.
    pub reruns: u64,
    /// True chunk-entry states recorded into the speculation predictor
    /// during this match; 0 on every other tier.
    pub state_visits: u64,
}

impl Default for MatchStats {
    fn default() -> Self {
        MatchStats {
            tier: MatchTier::Sequential,
            blocks: 0,
            chunks: 0,
            bytes: 0,
            elapsed: Duration::ZERO,
            queue_depth: 0,
            retries: 0,
            mispredicts: 0,
            reruns: 0,
            state_visits: 0,
        }
    }
}

/// Smallest elapsed time a match is credited with when computing
/// throughput. `Instant` on common platforms bottoms out around
/// microsecond-scale effective resolution; a match that finishes inside
/// one tick reports `elapsed == 0`, which used to turn into a fake
/// `0.0 bytes/sec` row in CLI output and bench records. Sub-tick matches
/// are clamped to this floor and flagged by [`MatchStats::untimed`].
pub const MIN_TIMED_ELAPSED: Duration = Duration::from_micros(1);

impl MatchStats {
    /// Input throughput. Never a fake zero: empty input reports `0.0`
    /// honestly, and sub-timer-resolution matches are clamped to
    /// [`MIN_TIMED_ELAPSED`] (check [`Self::untimed`] before trusting the
    /// figure).
    pub fn bytes_per_sec(&self) -> f64 {
        if self.bytes == 0 {
            return 0.0;
        }
        self.bytes as f64 / self.elapsed.max(MIN_TIMED_ELAPSED).as_secs_f64()
    }

    /// True when the match finished inside one timer tick, i.e.
    /// [`Self::bytes_per_sec`] used the clamped floor rather than a real
    /// measurement. Reports/exports should mark the value instead of
    /// recording it as a genuine observation.
    pub fn untimed(&self) -> bool {
        self.bytes > 0 && self.elapsed < MIN_TIMED_ELAPSED
    }

    /// Wall time in whole nanoseconds (saturating) — the unit spans and
    /// latency histograms record.
    pub(crate) fn elapsed_nanos(&self) -> u64 {
        self.elapsed.as_nanos().min(u64::MAX as u128) as u64
    }
}

/// Backoff sleep implementation — swappable for tests.
type Sleeper = Arc<dyn Fn(Duration) + Send + Sync>;

/// The pooled, streaming match runtime — see the module docs.
#[derive(Clone)]
pub struct MatchRuntime {
    pool: Arc<TaskPool>,
    block_bytes: usize,
    sleeper: Sleeper,
}

impl MatchRuntime {
    fn with_defaults(pool: Arc<TaskPool>) -> Self {
        MatchRuntime {
            pool,
            block_bytes: DEFAULT_BLOCK_BYTES,
            sleeper: Arc::new(std::thread::sleep),
        }
    }

    /// A runtime on the process-shared pool (one worker per CPU,
    /// constructed once for the whole process). This is the default
    /// everywhere; prefer it unless you need an isolated pool.
    pub fn shared() -> Self {
        Self::with_defaults(TaskPool::shared().clone())
    }

    /// A runtime with its own private pool of `threads` workers.
    pub fn new(threads: usize) -> Self {
        Self::with_defaults(Arc::new(TaskPool::new(threads)))
    }

    /// A runtime over an existing pool.
    pub fn with_pool(pool: Arc<TaskPool>) -> Self {
        Self::with_defaults(pool)
    }

    /// Set the streaming block size (min 1; see [`DEFAULT_BLOCK_BYTES`]
    /// for the trade-off). Tiny blocks are valid — tests use them to
    /// exercise block-boundary straddling.
    pub fn with_block_bytes(mut self, block_bytes: usize) -> Self {
        self.block_bytes = block_bytes.max(1);
        self
    }

    /// Replace the backoff sleep (an injectable clock): tests pass a
    /// recording closure to assert the retry schedule without real
    /// delays. Production code never needs this.
    pub fn with_sleeper(mut self, sleeper: impl Fn(Duration) + Send + Sync + 'static) -> Self {
        self.sleeper = Arc::new(sleeper);
        self
    }

    /// The streaming block size.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// The underlying pool.
    pub fn pool(&self) -> &Arc<TaskPool> {
        &self.pool
    }

    /// Serve one [`MatchRequest`] on the tier its policy names: the full
    /// SFA tier for `Auto`/`RequireFull`, else the sequential oracle or
    /// the speculative tier (the degradation ladder lives in
    /// [`MatchEngine::run`](crate::MatchEngine::run)). The request's
    /// deadline is enforced by a fresh [`Governor`].
    pub fn run(
        &self,
        matcher: &ParallelMatcher<'_>,
        request: &MatchRequest,
    ) -> Result<MatchOutcome, SfaError> {
        self.serve(Some(matcher), matcher.dfa, request, None)
    }

    /// Serve a request with the raw DFA only — the public entry for
    /// callers that hold no SFA at all (e.g. a server pattern whose
    /// construction exceeded its budget). A [`TierPolicy::Speculative`]
    /// request runs the chunk-parallel speculative tier
    /// ([`crate::speculative`]), a [`TierPolicy::RequireFull`] request
    /// fails with [`SfaError::InvalidOptions`], and everything else runs
    /// the sequential oracle. Same verdict as every other path by
    /// construction.
    pub fn run_dfa(
        &self,
        dfa: &Dfa,
        request: &MatchRequest,
        cancel: Option<sfa_sync::CancelToken>,
    ) -> Result<MatchOutcome, SfaError> {
        self.serve(None, dfa, request, cancel)
    }

    /// One request on the tier its policy names (the full tier needs a
    /// `matcher`; without one, `Auto` runs sequentially), plus the
    /// request's `match/request` span when it asked for a trace.
    fn serve(
        &self,
        matcher: Option<&ParallelMatcher<'_>>,
        dfa: &Dfa,
        request: &MatchRequest,
        cancel: Option<sfa_sync::CancelToken>,
    ) -> Result<MatchOutcome, SfaError> {
        let governor = request.governor(cancel);
        let spec;
        let step = match (request.tier, matcher) {
            (TierPolicy::Speculative, _) => {
                spec = SpeculativeMatcher::new(dfa)?;
                Step::Speculative(&spec)
            }
            (TierPolicy::Auto | TierPolicy::RequireFull, Some(matcher)) => Step::full(matcher),
            (TierPolicy::RequireFull, None) => {
                return Err(SfaError::InvalidOptions(
                    "tier policy requires the full SFA tier, but the request has no SFA",
                ))
            }
            _ => Step::Sequential(dfa),
        };
        let (verdict, stats) = self.run_step(step, request, &governor)?;
        if request.trace {
            crate::obs::report_span("match/request", stats.elapsed_nanos());
        }
        Ok(MatchOutcome::new(verdict, stats))
    }

    /// Serve `request` on `step`'s tier: symbols as one block through
    /// [`ByteClassifier::symbol_ids`], bytes as one block through the
    /// request's [`ByteClassifier`], a file one [`Self::block_bytes`]
    /// block at a time. A request may come off the wire, so even its
    /// symbols are checked against the alphabet.
    pub(crate) fn run_step(
        &self,
        step: Step<'_>,
        request: &MatchRequest,
        governor: &Governor,
    ) -> Result<(bool, MatchStats), SfaError> {
        let alpha = step.dfa().alphabet();
        let classifier = || ByteClassifier::for_mode(request.classifier, alpha);
        match &request.input {
            InputSource::Symbols(symbols) => {
                let ids = ByteClassifier::symbol_ids(alpha);
                self.drive(step, &ids, Input::Whole(symbols), governor)
            }
            InputSource::Bytes(bytes) => {
                self.drive(step, &classifier(), Input::Whole(bytes), governor)
            }
            InputSource::File(path) => {
                let mut file = open(path)?;
                self.drive(step, &classifier(), Input::Stream(&mut file), governor)
            }
        }
    }

    /// Accept decision for a pre-encoded symbol slice, matched in
    /// parallel chunks on the pool.
    pub fn matches_symbols(
        &self,
        matcher: &ParallelMatcher<'_>,
        input: &[SymbolId],
        governor: &Governor,
    ) -> Result<(bool, MatchStats), SfaError> {
        self.drive(Step::full(matcher), Dense, Input::Whole(input), governor)
    }

    /// Accept decision for a stream, consumed in fixed-size blocks.
    /// Peak memory is one block; each block is chunk-matched in parallel
    /// and folded into a running DFA state, so the verdict is identical
    /// to reading the whole input at once.
    pub fn matches_stream<R: Read>(
        &self,
        matcher: &ParallelMatcher<'_>,
        classifier: &ByteClassifier,
        mut reader: R,
        governor: &Governor,
    ) -> Result<(bool, MatchStats), SfaError> {
        let step = Step::full(matcher);
        self.drive(step, classifier, Input::Stream(&mut reader), governor)
    }

    /// The one input path: fold `input`, read through `decode`, into
    /// the DFA state after it with `step`'s block step, from the start
    /// state; then add wall time and pool backlog to the step's stats.
    pub(crate) fn drive<D: Decode>(
        &self,
        step: Step<'_>,
        decode: D,
        input: Input<'_>,
        governor: &Governor,
    ) -> Result<(bool, MatchStats), SfaError> {
        let start = Instant::now();
        governor.check(0, 0)?;
        let mut stats = MatchStats {
            tier: step.tier(),
            ..MatchStats::default()
        };
        let fold = |block: &[u8], offset, q, stats: &mut MatchStats| {
            self.fold_block(step, decode, block, offset, q, governor, stats)
                .map_err(|err| first_invalid(err, decode, block, offset))
        };
        let q0 = step.dfa().start();
        let q = match input {
            Input::Whole(block) => {
                stats.blocks = 1;
                stats.bytes = block.len() as u64;
                fold(block, 0, q0, &mut stats)?
            }
            Input::Stream(reader) => self.fold_stream(reader, q0, &mut stats, fold)?,
        };
        stats.elapsed = start.elapsed();
        stats.queue_depth = self.pool.queue_depth();
        note_match(&stats);
        Ok((step.dfa().is_accepting(q), stats))
    }

    /// Fold one block — dense symbols, or raw bytes whose classification
    /// is fused into the tier's scan — from running state `q` with
    /// `step`'s block step, returning the state after the block.
    #[allow(clippy::too_many_arguments)]
    fn fold_block<D: Decode>(
        &self,
        step: Step<'_>,
        decode: D,
        block: &[u8],
        offset: u64,
        q: u32,
        governor: &Governor,
        stats: &mut MatchStats,
    ) -> Result<u32, SfaError> {
        let threads = self.pool.threads().max(1);
        match step {
            Step::Full(sfa, _, scan) => {
                governor.check(0, 0)?;
                if block.is_empty() {
                    return Ok(q);
                }
                let watch = Stopwatch::start();
                // Pass 1, K-way interleaved on the compact table; pass 2
                // folds the running state through the chunk states, one
                // mapping entry per chunk.
                let (states, _) =
                    scan.chunk_states(&self.pool, governor, decode, block, offset, threads)?;
                stats.chunks += states.len() as u64;
                let (_, folded) = scan.entry_states(sfa, &states, q);
                watch.record(&OBS_BLOCK_NANOS);
                Ok(folded)
            }
            Step::Lazy(lazy) => {
                let (q, lanes) = lazy.fold_block(governor, decode, block, offset, q, threads)?;
                stats.chunks += lanes;
                Ok(q)
            }
            Step::Speculative(spec) => {
                let (q, run) =
                    spec.fold_block(&self.pool, governor, decode, block, offset, q, threads)?;
                // Pruned only if the first block that split into chunks ran
                // pruned (no state visits are recorded before it) and no
                // block speculated.
                if run.chunks > 1 && (!run.pruned || stats.state_visits == 0) {
                    stats.tier = if run.pruned {
                        MatchTier::PrunedSfa
                    } else {
                        MatchTier::Speculative
                    };
                }
                stats.chunks += run.chunks;
                stats.mispredicts += run.mispredicts;
                stats.reruns += run.reruns;
                stats.state_visits += run.state_visits;
                Ok(q)
            }
            Step::Sequential(dfa) => {
                stats.chunks = 1;
                step_classified(dfa, decode, q, block, offset, governor)
            }
        }
    }

    /// Read `reader` one [`Self::block_bytes`] block at a time and fold
    /// each block into the running state `q` with `fold(block, offset,
    /// q, stats)`. Peak memory is one block; fills `stats.blocks` and
    /// `stats.bytes`.
    fn fold_stream(
        &self,
        reader: &mut dyn Read,
        mut q: u32,
        stats: &mut MatchStats,
        mut fold: impl FnMut(&[u8], u64, u32, &mut MatchStats) -> Result<u32, SfaError>,
    ) -> Result<u32, SfaError> {
        let mut buf = vec![0u8; self.block_bytes];
        let mut offset = 0u64;
        loop {
            let filled = self.read_block(reader, &mut buf, stats)?;
            if filled == 0 {
                break;
            }
            q = fold(&buf[..filled], offset, q, stats)?;
            offset += filled as u64;
            stats.blocks += 1;
            if filled < buf.len() {
                break; // EOF
            }
        }
        stats.bytes = offset;
        Ok(q)
    }

    /// Fill `buf` as far as the reader allows; returns bytes read (0 at
    /// EOF). Transient errors are retried on the shared backoff schedule
    /// (counted in `stats.retries`); permanent errors and exhausted
    /// retries become [`SfaError::Io`].
    fn read_block(
        &self,
        reader: &mut dyn Read,
        buf: &mut [u8],
        stats: &mut MatchStats,
    ) -> Result<usize, SfaError> {
        let mut filled = 0;
        // Consecutive transient failures at the current read position;
        // resets on any successful read.
        let mut transient = 0u32;
        while filled < buf.len() {
            let read = match sfa_sync::fault_point!("runtime/read_block") {
                Ok(()) => reader.read(&mut buf[filled..]),
                Err(fault) => Err(std::io::Error::from(fault)),
            };
            match read {
                Ok(0) => break,
                Ok(n) => {
                    filled += n;
                    transient = 0;
                }
                Err(e) if io::is_transient(e.kind()) => {
                    transient += 1;
                    if transient >= io::RETRY_ATTEMPTS {
                        return Err(SfaError::Io(format!(
                            "stream read failed after {transient} transient errors: {e}"
                        )));
                    }
                    stats.retries += 1;
                    (self.sleeper)(io::retry_backoff(transient));
                }
                Err(e) => return Err(SfaError::Io(e.to_string())),
            }
        }
        Ok(filled)
    }
}

/// One rung of the degradation ladder, as [`MatchRuntime::drive`] sees
/// it: the automaton whose states the running state names, and what the
/// tier's block step ([`MatchRuntime::fold_block`]) runs on.
#[derive(Clone, Copy)]
pub(crate) enum Step<'a> {
    /// An SFA, its DFA and their compact scan tables.
    Full(&'a Sfa, &'a Dfa, &'a ScanEngine),
    Lazy(&'a LazySfa<'a>),
    Speculative(&'a SpeculativeMatcher<'a>),
    Sequential(&'a Dfa),
}

impl<'a> Step<'a> {
    /// The full tier of `matcher`'s automaton pair.
    fn full(matcher: &'a ParallelMatcher<'a>) -> Self {
        Step::Full(matcher.sfa, matcher.dfa, &matcher.scan)
    }

    fn dfa(&self) -> &'a Dfa {
        match *self {
            Step::Full(_, dfa, _) | Step::Sequential(dfa) => dfa,
            Step::Lazy(lazy) => lazy.dfa(),
            Step::Speculative(spec) => spec.dfa(),
        }
    }

    /// The tier a match reports before its first block.
    pub(crate) fn tier(&self) -> MatchTier {
        match self {
            Step::Full(..) => MatchTier::FullSfa,
            Step::Lazy(_) => MatchTier::LazySfa,
            Step::Speculative(_) => MatchTier::Speculative,
            Step::Sequential(_) => MatchTier::Sequential,
        }
    }
}

/// A match's input as [`MatchRuntime::drive`] reads it.
pub(crate) enum Input<'a> {
    /// In memory: one block.
    Whole(&'a [u8]),
    /// A reader, consumed one [`MatchRuntime::block_bytes`] block at a
    /// time.
    Stream(&'a mut dyn Read),
}

impl Default for MatchRuntime {
    fn default() -> Self {
        MatchRuntime::shared()
    }
}

/// Open a file input.
fn open(path: &Path) -> Result<std::fs::File, SfaError> {
    std::fs::File::open(path).map_err(|e| SfaError::Io(format!("open {}: {e}", path.display())))
}

/// Decode `block` (at input offset `offset`) and step the DFA through
/// it from `q` — the sequential tier's one DFA pass — polling the
/// governor every [`GOVERNOR_POLL_SYMBOLS`] bytes. Invalid bytes fail
/// with their offset, exactly like the lane kernel.
fn step_classified<D: Decode>(
    dfa: &Dfa,
    decode: D,
    mut q: u32,
    block: &[u8],
    offset: u64,
    governor: &Governor,
) -> Result<u32, SfaError> {
    for (part, base) in block
        .chunks(GOVERNOR_POLL_SYMBOLS)
        .zip((offset..).step_by(GOVERNOR_POLL_SYMBOLS))
    {
        governor.check(0, 0)?;
        for (j, &byte) in part.iter().enumerate() {
            match decode.decode(byte) {
                Classified::Symbol(sym) => q = dfa.next(q, sym),
                Classified::Skip => {}
                Classified::Invalid => {
                    return Err(SfaError::InvalidByte {
                        byte,
                        offset: base + j as u64,
                    })
                }
            }
        }
    }
    Ok(q)
}

/// `err`, or — if it is an invalid byte, which chunks scanned in
/// parallel find in no fixed order — the first invalid byte of `block`
/// (at input offset `offset`), as a sequential pass would report it.
fn first_invalid<D: Decode>(err: SfaError, decode: D, block: &[u8], offset: u64) -> SfaError {
    match err {
        SfaError::InvalidByte { .. } => (offset..)
            .zip(block)
            .find(|&(_, &byte)| decode.decode(byte) == Classified::Invalid)
            .map_or(err, |(offset, &byte)| SfaError::InvalidByte {
                byte,
                offset,
            }),
        err => err,
    }
}

/// Push one finished match's telemetry into the global metrics registry
/// (no-ops while recording is off).
fn note_match(stats: &MatchStats) {
    OBS_BLOCKS_TOTAL.add(stats.blocks);
    OBS_BYTES_TOTAL.add(stats.bytes);
    OBS_RETRIES_TOTAL.add(stats.retries);
    OBS_QUEUE_DEPTH.set(stats.queue_depth as i64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::match_sequential;
    use crate::sequential::SequentialVariant;
    use crate::sfa::Sfa;
    use sfa_automata::pipeline::Pipeline;
    use std::io::Cursor;

    fn setup(pattern: &str) -> (sfa_automata::dfa::Dfa, Sfa) {
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
    fn stream_agrees_with_sequential_across_block_sizes() {
        let (dfa, sfa) = setup("RGD");
        let matcher = ParallelMatcher::new(&sfa, &dfa).unwrap();
        let alpha = Alphabet::amino_acids();
        let classifier = ByteClassifier::strict(&alpha);
        let text = sfa_workloads::protein_text_with_motif(10_000, 5, b"RGD", &[7_001]);
        let bytes = alpha.decode_symbols(&text);
        let expected = match_sequential(&dfa, &text);
        assert!(expected);
        for block in [1usize, 7, 64, 4096, 1 << 20] {
            let rt = MatchRuntime::new(3).with_block_bytes(block);
            let (verdict, stats) = rt
                .matches_stream(
                    &matcher,
                    &classifier,
                    Cursor::new(&bytes),
                    &Governor::unlimited(),
                )
                .unwrap();
            assert_eq!(verdict, expected, "block {block}");
            assert_eq!(stats.bytes, bytes.len() as u64);
            assert!(stats.blocks >= 1);
        }
    }

    #[test]
    fn bytes_path_fuses_classification() {
        let (dfa, sfa) = setup("RG");
        let matcher = ParallelMatcher::new(&sfa, &dfa).unwrap();
        let rt = MatchRuntime::new(2);
        let outcome = rt.run(&matcher, &MatchRequest::text("MKVARGAA")).unwrap();
        assert!(outcome.verdict);
        assert_eq!(outcome.stats.bytes, 8);
        assert_eq!(outcome.tier, MatchTier::FullSfa);
    }

    #[test]
    fn whitespace_skipping_and_invalid_bytes() {
        let (dfa, sfa) = setup("RG");
        let matcher = ParallelMatcher::new(&sfa, &dfa).unwrap();
        let rt = MatchRuntime::new(2);
        let skipping =
            MatchRequest::text("MKV AR\nG AA").with_classifier(ClassifierMode::SkipWhitespace);
        let outcome = rt.run(&matcher, &skipping).unwrap();
        assert!(outcome.verdict, "whitespace must not break the motif");
        let strict = MatchRequest::text("MKV ARG").with_classifier(ClassifierMode::Strict);
        let err = rt.run(&matcher, &strict).unwrap_err();
        assert!(
            matches!(
                err,
                SfaError::InvalidByte {
                    byte: b' ',
                    offset: 3
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn out_of_alphabet_symbol_ids_fail_typed_on_every_tier() {
        // A request's symbols may come off the wire: an id past |Σ| is an
        // invalid byte at its offset on every tier, never an index panic
        // or a verdict read from table padding.
        use crate::budget::Budget;
        use crate::engine::MatchEngine;
        use crate::parallel::ParallelOptions;
        let (dfa, sfa) = setup("RG");
        let matcher = ParallelMatcher::new(&sfa, &dfa).unwrap();
        let rt = MatchRuntime::new(2);
        let alpha = Alphabet::amino_acids();
        let text = sfa_workloads::protein_text(100_000, 3);
        for bad in [alpha.len() as u8, 255] {
            for offset in [2, 70_001] {
                let mut symbols = text.clone();
                symbols[offset] = bad;
                let expected = SfaError::InvalidByte {
                    byte: bad,
                    offset: offset as u64,
                };
                for tier in [
                    TierPolicy::Auto,
                    TierPolicy::Speculative,
                    TierPolicy::Sequential,
                ] {
                    let request = MatchRequest::symbols(symbols.clone()).with_tier(tier);
                    let err = rt.run(&matcher, &request).unwrap_err();
                    assert_eq!(err, expected, "{tier:?}");
                }
                let opts = ParallelOptions::with_threads(2);
                let mut lazy = MatchEngine::starting_at(
                    &dfa,
                    &opts,
                    &Budget::unlimited(),
                    None,
                    MatchTier::LazySfa,
                );
                let err = lazy.run(&MatchRequest::symbols(symbols)).unwrap_err();
                assert_eq!(err, expected, "lazy");
            }
        }
    }

    #[test]
    fn request_budget_enforces_only_the_deadline() {
        use crate::budget::BudgetResource;
        let (dfa, sfa) = setup("RG");
        let matcher = ParallelMatcher::new(&sfa, &dfa).unwrap();
        let rt = MatchRuntime::new(2);
        let expired = MatchRequest::text("MKVARGAA").with_deadline(Duration::ZERO);
        let err = rt.run(&matcher, &expired).unwrap_err();
        assert!(
            matches!(
                err,
                SfaError::BudgetExceeded {
                    resource: BudgetResource::Deadline,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    /// A reader that fails with `kind` a fixed number of times before
    /// each successful read of the underlying data.
    struct FlakyReader<'a> {
        inner: Cursor<&'a [u8]>,
        kind: std::io::ErrorKind,
        failures_left: usize,
    }

    impl Read for FlakyReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.failures_left > 0 {
                self.failures_left -= 1;
                return Err(std::io::Error::from(self.kind));
            }
            self.inner.read(buf)
        }
    }

    #[test]
    fn transient_read_errors_are_retried_with_backoff() {
        let (dfa, sfa) = setup("RG");
        let matcher = ParallelMatcher::new(&sfa, &dfa).unwrap();
        let alpha = Alphabet::amino_acids();
        let classifier = ByteClassifier::strict(&alpha);
        let slept: Arc<std::sync::Mutex<Vec<Duration>>> = Arc::default();
        let log = Arc::clone(&slept);
        let rt = MatchRuntime::new(2).with_sleeper(move |d| log.lock().unwrap().push(d));
        let reader = FlakyReader {
            inner: Cursor::new(&b"MKVARGAA"[..]),
            kind: std::io::ErrorKind::WouldBlock,
            failures_left: 3,
        };
        let (verdict, stats) = rt
            .matches_stream(&matcher, &classifier, reader, &Governor::unlimited())
            .unwrap();
        assert!(verdict);
        assert_eq!(stats.retries, 3);
        // The default schedule: 5 ms doubling.
        assert_eq!(
            *slept.lock().unwrap(),
            vec![
                Duration::from_millis(5),
                Duration::from_millis(10),
                Duration::from_millis(20)
            ]
        );
    }

    #[test]
    fn exhausted_retries_surface_a_typed_io_error() {
        let (dfa, sfa) = setup("RG");
        let matcher = ParallelMatcher::new(&sfa, &dfa).unwrap();
        let alpha = Alphabet::amino_acids();
        let classifier = ByteClassifier::strict(&alpha);
        let slept: Arc<std::sync::Mutex<Vec<Duration>>> = Arc::default();
        let log = Arc::clone(&slept);
        let rt = MatchRuntime::new(2).with_sleeper(move |d| log.lock().unwrap().push(d));
        let reader = FlakyReader {
            inner: Cursor::new(&b"MKVARGAA"[..]),
            kind: std::io::ErrorKind::TimedOut,
            failures_left: usize::MAX,
        };
        let err = rt
            .matches_stream(&matcher, &classifier, reader, &Governor::unlimited())
            .unwrap_err();
        assert!(
            matches!(&err, SfaError::Io(msg) if msg.contains("after 4 transient errors")),
            "{err:?}"
        );
        // Three retries back off; the fourth failure gives up at once.
        assert_eq!(slept.lock().unwrap().len(), 3);
    }

    #[test]
    fn permanent_read_errors_are_not_retried() {
        let (dfa, sfa) = setup("RG");
        let matcher = ParallelMatcher::new(&sfa, &dfa).unwrap();
        let alpha = Alphabet::amino_acids();
        let classifier = ByteClassifier::strict(&alpha);
        let slept: Arc<std::sync::Mutex<Vec<Duration>>> = Arc::default();
        let log = Arc::clone(&slept);
        let rt = MatchRuntime::new(2).with_sleeper(move |d| log.lock().unwrap().push(d));
        let reader = FlakyReader {
            inner: Cursor::new(&b"MKVARGAA"[..]),
            kind: std::io::ErrorKind::PermissionDenied,
            failures_left: 1,
        };
        let err = rt
            .matches_stream(&matcher, &classifier, reader, &Governor::unlimited())
            .unwrap_err();
        assert!(matches!(err, SfaError::Io(_)), "{err:?}");
        assert!(
            slept.lock().unwrap().is_empty(),
            "no backoff for permanent errors"
        );
    }

    #[test]
    fn retry_policy_backoff_schedule() {
        let ms = Duration::from_millis;
        let schedule: Vec<Duration> = (1..=8).map(io::retry_backoff).collect();
        assert_eq!(
            schedule,
            [
                ms(5),
                ms(10),
                ms(20),
                ms(40),
                ms(80),
                ms(160),
                ms(250),
                ms(250)
            ]
        );
        assert_eq!(io::retry_backoff(63), ms(250), "shift saturates");
        assert_eq!(io::RETRY_ATTEMPTS, 4);
    }

    #[test]
    fn cancelled_stream_returns_cancelled() {
        let (dfa, sfa) = setup("RG");
        let matcher = ParallelMatcher::new(&sfa, &dfa).unwrap();
        let alpha = Alphabet::amino_acids();
        let classifier = ByteClassifier::strict(&alpha);
        let token = sfa_sync::CancelToken::new();
        token.cancel();
        let governor = Governor::new(&crate::budget::Budget::unlimited(), Some(token));
        let rt = MatchRuntime::new(2);
        let bytes = alpha.decode_symbols(&sfa_workloads::protein_text(10_000, 1));
        let err = rt
            .matches_stream(&matcher, &classifier, Cursor::new(&bytes), &governor)
            .unwrap_err();
        assert!(matches!(err, SfaError::Cancelled { .. }), "{err:?}");
    }

    /// Regression: a match that finished inside one timer tick
    /// (`elapsed == 0`) used to report `bytes_per_sec() == 0.0`, which
    /// the CLI printed as a fake "0.00 MiB/s" and bench records stored
    /// as genuine zero-throughput rows.
    #[test]
    fn sub_tick_matches_never_report_zero_throughput() {
        let stats = MatchStats {
            bytes: 4096,
            elapsed: Duration::ZERO,
            ..MatchStats::default()
        };
        assert!(stats.untimed());
        let tp = stats.bytes_per_sec();
        assert!(tp > 0.0, "clamped throughput must be positive, got {tp}");
        assert!(tp.is_finite());
        // Clamp floor: 4096 bytes over MIN_TIMED_ELAPSED exactly.
        let floor = 4096.0 / MIN_TIMED_ELAPSED.as_secs_f64();
        assert!((tp - floor).abs() < 1e-3);

        // Below-resolution but non-zero elapsed is also clamped.
        let nanos = MatchStats {
            bytes: 100,
            elapsed: Duration::from_nanos(3),
            ..MatchStats::default()
        };
        assert!(nanos.untimed());
        assert!(nanos.bytes_per_sec() > 0.0);

        // Empty input is an honest zero, not an untimed artifact.
        let empty = MatchStats::default();
        assert!(!empty.untimed());
        assert_eq!(empty.bytes_per_sec(), 0.0);

        // A properly timed match is untouched by the clamp.
        let timed = MatchStats {
            bytes: 1_000_000,
            elapsed: Duration::from_millis(10),
            ..MatchStats::default()
        };
        assert!(!timed.untimed());
        assert!((timed.bytes_per_sec() - 1e8).abs() < 1.0);
    }
}
