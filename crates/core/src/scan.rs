//! The latency-hiding scan engine: compact transition tables and K-way
//! software-pipelined chunk scanning.
//!
//! The paper removes the *cross-chunk* dependency of DFA matching, but
//! the per-chunk inner loop is still one dependent `delta[s*k + sym]`
//! load per symbol. On a modern core an L1 load-to-use is 4–5 cycles
//! and the add feeding it is 1 more, so a single dependency chain runs
//! at ~5–6 cycles/symbol while the load ports could retire 2–3 loads
//! per cycle — over 80% of the scan bandwidth is latency, not work.
//! [`ScanEngine`] attacks this on two fronts, and its pass 2 reads one
//! mapping entry per chunk:
//!
//! 1. **Compact tables** ([`ScanTable`]). Next-state entries are packed
//!    to u8/u16 when the *pre-scaled* state count fits (reusing the
//!    width rule of [`crate::elem`]), rows are padded to a power-of-two
//!    stride that is a multiple of 64 bytes (so a row never straddles a
//!    cache line and scaling is a shift), and every entry stores
//!    `next_state << shift` — the row *offset* of the successor. The hot
//!    loop is then `s = table[s + sym]`: add + load, no multiply, and no
//!    per-step bounds check (entries and symbols are validated once at
//!    table build; see the safety argument on `Entry::step`).
//! 2. **K-way interleaving** (the lane kernel, `run_lanes`). The input
//!    is oversubscribed into `threads × oversubscribe × interleave`
//!    chunks and each pool task steps `interleave` chunks in one
//!    software-pipelined loop. The K chains are independent, so K loads
//!    are in flight at once and the per-symbol cost drops toward the
//!    throughput limit instead of the latency limit. Oversubscription
//!    leaves more tasks than workers, so stragglers rebalance on the FIFO
//!    [`TaskPool`] with no new machinery. The same kernel runs pass 1
//!    (symbols or classified bytes), pass 3 (counting, first match), the
//!    speculative tier's lanes over the raw DFA table and the lazy tier's
//!    lanes, which discover SFA states as they go.
//! 3. **Pass 2 as a point fold** (`ScanEngine::entry_states`). The
//!    match starts from one known DFA state, so only one entry of each
//!    chunk's mapping is ever read: the entry state of chunk `i + 1` is
//!    chunk `i`'s mapping applied to chunk `i`'s entry state. That is
//!    one [`Sfa::apply`] per chunk on the submitting thread, where
//!    composing whole mappings would cost `O(chunks × |Q|)`.
//!
//! Verdicts, positions and counts are byte-identical to the sequential
//! oracle: the chunk geometry changes, but entry states are exact.
//! Governance keeps the same granularity — every worker polls its
//! `AbortControl` at least once per [`GOVERNOR_POLL_SYMBOLS`] symbols
//! of its own progress.

use crate::budget::Governor;
use crate::elem::{fits_u16, fits_u8};
use crate::matcher::{AbortControl, GOVERNOR_POLL_SYMBOLS};
use crate::runtime::{ByteClassifier, Classified};
use crate::sfa::Sfa;
use crate::SfaError;
use sfa_automata::alphabet::SymbolId;
use sfa_automata::dfa::Dfa;
use sfa_sync::pool::{panic_message, JobPanic, TaskPool};
use std::sync::atomic::{AtomicUsize, Ordering};

// Global-registry scan metrics (DESIGN.md §12).
static OBS_CHUNKS: crate::obs::LazyCounter = crate::obs::LazyCounter::new("sfa_scan_chunks_total");
static OBS_SYMBOLS: crate::obs::LazyCounter =
    crate::obs::LazyCounter::new("sfa_scan_symbols_total");

/// Knobs of the interleaved scan (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanOptions {
    /// Chunks scanned interleaved per pool task (the K independent
    /// dependency chains). Must be 1, 2, 4 or 8.
    pub interleave: usize,
    /// Task groups per worker thread: the input splits into
    /// `threads × oversubscribe` groups of `interleave` chunks, so a
    /// straggling worker leaves whole groups for its siblings.
    pub oversubscribe: usize,
    /// Smallest chunk worth dispatching (symbols). Inputs below
    /// `min_chunk_symbols` scan as a single chunk — splitting them is
    /// all dispatch overhead. Tests set 1 to force multi-chunk
    /// geometry on tiny inputs.
    pub min_chunk_symbols: usize,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions {
            interleave: 4,
            oversubscribe: 4,
            min_chunk_symbols: 4096,
        }
    }
}

impl ScanOptions {
    /// Validate the knob ranges.
    pub fn validate(&self) -> Result<(), SfaError> {
        if !matches!(self.interleave, 1 | 2 | 4 | 8) {
            return Err(SfaError::InvalidOptions("interleave must be 1, 2, 4 or 8"));
        }
        if self.oversubscribe == 0 {
            return Err(SfaError::InvalidOptions("oversubscribe must be >= 1"));
        }
        if self.min_chunk_symbols == 0 {
            return Err(SfaError::InvalidOptions("min_chunk_symbols must be >= 1"));
        }
        Ok(())
    }

    /// Chunk length for an input of `len` symbols at `threads` workers:
    /// oversubscribed to `threads × oversubscribe × interleave` chunks,
    /// floored at `min_chunk_symbols`. The SFA tiers and the speculative
    /// tier share it, so their chunk seams land in the same places.
    pub fn chunk_len(&self, len: usize, threads: usize) -> usize {
        let want = threads.max(1) * self.oversubscribe * self.interleave;
        len.div_ceil(want)
            .max(self.min_chunk_symbols.min(len))
            .max(1)
    }
}

/// A 64-byte-aligned allocation for table rows: base address and row
/// stride are both cache-line multiples, so a row is never split
/// across lines.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct CacheLine([u8; 64]);

struct AlignedBuf {
    lines: Box<[CacheLine]>,
}

impl AlignedBuf {
    fn zeroed(bytes: usize) -> AlignedBuf {
        AlignedBuf {
            lines: vec![CacheLine([0u8; 64]); bytes.div_ceil(64)].into_boxed_slice(),
        }
    }

    fn as_slice<T: Entry>(&self, len: usize) -> &[T] {
        assert!(len * T::BYTES <= self.lines.len() * 64);
        // SAFETY: u8/u16/u32 are plain-old-data; the base pointer is
        // 64-byte aligned (≥ align_of::<T>()) and the length is checked
        // against the allocation above.
        unsafe { std::slice::from_raw_parts(self.lines.as_ptr() as *const T, len) }
    }

    fn as_mut_slice<T: Entry>(&mut self, len: usize) -> &mut [T] {
        assert!(len * T::BYTES <= self.lines.len() * 64);
        // SAFETY: as in `as_slice`, plus exclusive access via `&mut`.
        unsafe { std::slice::from_raw_parts_mut(self.lines.as_mut_ptr() as *mut T, len) }
    }
}

/// Entry width of a [`ScanTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Width {
    U8,
    U16,
    U32,
}

/// A packed table entry: a pre-scaled row offset (`next_state << shift`).
trait Entry: Copy + Send + Sync + 'static {
    const BYTES: usize;
    fn pack(v: u32) -> Self;
    fn unpack(self) -> u32;

    /// One transition: `s` is the current row offset, `sym` the input
    /// symbol. Returns the successor's row offset.
    ///
    /// # Safety argument (why `get_unchecked` is sound)
    ///
    /// Build-time validation guarantees every stored entry — including
    /// the padding columns, which hold state 0's offset — is
    /// `next << shift` with `next < num_states`, and the scaled start
    /// satisfies the same bound. So `s ≤ (num_states-1) << shift` at
    /// every step by induction. The symbol is masked to `< stride`,
    /// hence `s + (sym & mask) < num_states << shift = tbl.len()`.
    /// Out-of-alphabet symbols (`sym ≥ k`) thus read a padding entry
    /// and continue on a valid (if meaningless) state instead of
    /// faulting — the same "garbage in, defined garbage out" contract
    /// as `Sfa::step`'s checked indexing, without the per-step branch.
    #[inline(always)]
    fn step(tbl: &[Self], mask: u32, s: u32, sym: u8) -> u32 {
        let idx = (s + (sym as u32 & mask)) as usize;
        debug_assert!(idx < tbl.len());
        // SAFETY: see above — idx < num_states << shift == tbl.len().
        unsafe { tbl.get_unchecked(idx) }.unpack()
    }
}

impl Entry for u8 {
    const BYTES: usize = 1;
    #[inline(always)]
    fn pack(v: u32) -> u8 {
        debug_assert!(v <= u8::MAX as u32);
        v as u8
    }
    #[inline(always)]
    fn unpack(self) -> u32 {
        self as u32
    }
}

impl Entry for u16 {
    const BYTES: usize = 2;
    #[inline(always)]
    fn pack(v: u32) -> u16 {
        debug_assert!(v <= u16::MAX as u32);
        v as u16
    }
    #[inline(always)]
    fn unpack(self) -> u32 {
        self as u32
    }
}

impl Entry for u32 {
    const BYTES: usize = 4;
    #[inline(always)]
    fn pack(v: u32) -> u32 {
        v
    }
    #[inline(always)]
    fn unpack(self) -> u32 {
        self
    }
}

/// A compact, cache-aware, pre-scaled transition table (module docs,
/// point 1).
pub struct ScanTable {
    buf: AlignedBuf,
    width: Width,
    /// Entries = `num_states << shift`.
    len: usize,
    num_states: usize,
    k: usize,
    /// Row stride in entries: a power of two, ≥ k, row bytes a multiple
    /// of 64.
    stride: usize,
    shift: u32,
    mask: u32,
    /// The automaton's start state.
    start: u32,
}

impl std::fmt::Debug for ScanTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanTable")
            .field("entry_bytes", &self.entry_bytes())
            .field("num_states", &self.num_states)
            .field("k", &self.k)
            .field("stride", &self.stride)
            .finish()
    }
}

impl ScanTable {
    /// Build from a row-major `num_states × k` table of successor state
    /// ids. Validates every entry once — the hot loop never re-checks.
    /// Returns `Err` (not a panic) for a malformed table, so a poisoned
    /// automaton surfaces as [`SfaError::WorkerPanic`] at match time,
    /// exactly like the checked indexing it replaces.
    pub fn build(
        table: &[u32],
        num_states: usize,
        k: usize,
        start: u32,
    ) -> Result<ScanTable, String> {
        if num_states == 0 || k == 0 || table.len() != num_states * k {
            return Err(format!(
                "malformed transition table: {num_states} states x {k} symbols, {} entries",
                table.len()
            ));
        }
        if (start as usize) >= num_states {
            return Err(format!(
                "start state {start} out of bounds ({num_states} states)"
            ));
        }
        if let Some(&bad) = table.iter().find(|&&t| t as usize >= num_states) {
            return Err(format!(
                "state id {bad} out of bounds ({num_states} states)"
            ));
        }
        let (width, stride) = Self::choose_layout(num_states, k)?;
        let shift = stride.trailing_zeros();
        let len = num_states * stride;
        let mut this = ScanTable {
            buf: AlignedBuf::zeroed(len * entry_bytes(width)),
            width,
            len,
            num_states,
            k,
            stride,
            shift,
            mask: (stride - 1) as u32,
            start,
        };
        match width {
            Width::U8 => this.fill::<u8>(table),
            Width::U16 => this.fill::<u16>(table),
            Width::U32 => this.fill::<u32>(table),
        }
        Ok(this)
    }

    /// Smallest entry width whose pre-scaled offsets fit, with the
    /// width's stride (rows must cover ≥ 64 bytes *and* ≥ k entries).
    fn choose_layout(num_states: usize, k: usize) -> Result<(Width, usize), String> {
        for width in [Width::U8, Width::U16, Width::U32] {
            let bytes = entry_bytes(width);
            let stride = k.next_power_of_two().max(64 / bytes);
            // Ids 0 ..= (num_states-1) << shift must fit the entry, i.e.
            // the id *count* `num_states << shift` minus the final
            // stride-1 padding positions; reuse the elem width rules.
            let scaled_ids = (num_states as u64 - 1) * stride as u64 + 1;
            let fits = match width {
                Width::U8 => scaled_ids <= u32::MAX as u64 && fits_u8(scaled_ids as u32),
                Width::U16 => scaled_ids <= u32::MAX as u64 && fits_u16(scaled_ids as u32),
                Width::U32 => (num_states as u64) * stride as u64 <= u32::MAX as u64,
            };
            if fits {
                return Ok((width, stride));
            }
        }
        Err(format!(
            "scan table of {num_states} states x {k} symbols exceeds 32-bit row offsets"
        ))
    }

    fn fill<T: Entry>(&mut self, table: &[u32]) {
        let (k, stride, shift) = (self.k, self.stride, self.shift);
        let dst = self.buf.as_mut_slice::<T>(self.len);
        for (s, row) in dst.chunks_mut(stride).enumerate() {
            let src = &table[s * k..(s + 1) * k];
            for (sym, slot) in row.iter_mut().enumerate() {
                // Padding columns (sym ≥ k) keep state 0's offset so a
                // masked out-of-alphabet symbol still lands in bounds.
                let next = if sym < k { src[sym] } else { 0 };
                *slot = T::pack(next << shift);
            }
        }
    }

    /// Bytes per packed entry (1, 2 or 4).
    pub fn entry_bytes(&self) -> usize {
        entry_bytes(self.width)
    }

    /// Entries per row (power of two; row bytes are a multiple of 64).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The automaton's start state.
    pub(crate) fn start(&self) -> u32 {
        self.start
    }

    fn packed<T: Entry>(&self) -> Packed<'_, T> {
        debug_assert_eq!(T::BYTES, self.entry_bytes());
        Packed {
            tbl: self.buf.as_slice::<T>(self.len),
            mask: self.mask,
            shift: self.shift,
        }
    }

    /// The width dispatch: [`run_lanes`] on this table's packed width.
    pub(crate) fn run_lanes<D: Decode, R: Record>(
        &self,
        decode: D,
        k_way: usize,
        lanes: &mut [Lane<'_>],
        rec: &R,
        ctl: &AbortControl,
    ) -> bool {
        match self.width {
            Width::U8 => run_lanes(self.packed::<u8>(), decode, k_way, lanes, rec, ctl),
            Width::U16 => run_lanes(self.packed::<u16>(), decode, k_way, lanes, rec, ctl),
            Width::U32 => run_lanes(self.packed::<u32>(), decode, k_way, lanes, rec, ctl),
        }
    }
}

fn entry_bytes(width: Width) -> usize {
    match width {
        Width::U8 => 1,
        Width::U16 => 2,
        Width::U32 => 4,
    }
}

// ----------------------------------------------------------------------
// The lane kernel
// ----------------------------------------------------------------------

/// Checkpoint spacing of a [`Trails`] recording (symbols). The
/// speculative tier's re-runs compare against the trail at these
/// positions and stop at the first hit, so a mispredict costs on
/// average far less than a full chunk.
pub(crate) const CHECKPOINT_SYMBOLS: usize = 4096;

/// A transition function the kernel steps. A lane's running state is
/// the function's own handle for it: the pre-scaled row offset on a
/// packed [`ScanTable`], the state id itself on a [`Raw`] table and on
/// the lazy SFA's successor slots.
pub(crate) trait Delta: Copy {
    /// The handle of state `q`.
    fn handle(self, q: u32) -> u32 {
        q
    }
    /// The state behind handle `s`.
    fn state(self, s: u32) -> u32 {
        s
    }
    /// The successor of handle `s` on `sym`.
    fn next(self, s: u32, sym: SymbolId) -> u32;
}

/// One packed width of a [`ScanTable`].
#[derive(Clone, Copy)]
struct Packed<'t, T> {
    tbl: &'t [T],
    mask: u32,
    shift: u32,
}

impl<T: Entry> Delta for Packed<'_, T> {
    fn handle(self, q: u32) -> u32 {
        q << self.shift
    }
    fn state(self, s: u32) -> u32 {
        s >> self.shift
    }
    #[inline(always)]
    fn next(self, s: u32, sym: SymbolId) -> u32 {
        T::step(self.tbl, self.mask, s, sym)
    }
}

/// A DFA's own row-major `states × k` table, stepped with checked
/// indexing. The speculative tier runs on it: a padded copy of a DFA
/// too large for an SFA would cost more memory than the tier saves.
#[derive(Clone, Copy)]
pub(crate) struct Raw<'t> {
    table: &'t [u32],
    k: usize,
}

impl<'t> Raw<'t> {
    pub(crate) fn of(dfa: &'t Dfa) -> Raw<'t> {
        Raw {
            table: dfa.table(),
            k: dfa.num_symbols(),
        }
    }
}

impl Delta for Raw<'_> {
    #[inline(always)]
    fn next(self, s: u32, sym: SymbolId) -> u32 {
        self.table[s as usize * self.k + sym as usize]
    }
}

/// How the kernel reads a lane's bytes.
pub(crate) trait Decode: Copy + Send + Sync {
    fn decode(self, byte: u8) -> Classified;
}

/// The lane bytes are dense symbols already.
#[derive(Clone, Copy)]
pub(crate) struct Dense;

impl Decode for Dense {
    #[inline(always)]
    fn decode(self, byte: u8) -> Classified {
        Classified::Symbol(byte)
    }
}

impl Decode for &ByteClassifier {
    #[inline(always)]
    fn decode(self, byte: u8) -> Classified {
        self.classify(byte)
    }
}

/// One chain of the kernel.
pub(crate) struct Lane<'a> {
    pub input: &'a [u8],
    /// The entry state on the way in, the exit state on the way out.
    pub state: u32,
    /// Absolute offset of `input[0]`, for [`SfaError::InvalidByte`].
    pub offset: u64,
    /// What a [`Count`] or [`First`] recording tallied.
    pub tally: u64,
    /// What a [`Trails`] recording appended.
    pub trail: Vec<u32>,
}

impl<'a> Lane<'a> {
    pub(crate) fn new(input: &'a [u8], state: u32) -> Lane<'a> {
        Lane {
            input,
            state,
            offset: 0,
            tally: 0,
            trail: Vec::new(),
        }
    }

    /// One lane per `chunk`-byte chunk of `block`, which starts at input
    /// offset `offset`, each from `state`.
    pub(crate) fn chunks(
        block: &'a [u8],
        offset: u64,
        chunk: usize,
        state: u32,
    ) -> impl Iterator<Item = Lane<'a>> {
        (offset..)
            .step_by(chunk)
            .zip(block.chunks(chunk))
            .map(move |(offset, input)| Lane {
                offset,
                ..Lane::new(input, state)
            })
    }
}

/// What a lane records besides its exit state.
pub(crate) trait Record {
    /// Block length in symbols: the kernel polls for an abort, and calls
    /// [`Self::block_end`], at every multiple of it from a lane's start
    /// and at the lane's end. Capped at `GOVERNOR_POLL_SYMBOLS / K`.
    const BLOCK: usize = GOVERNOR_POLL_SYMBOLS;

    /// The lane reached state `q` after `consumed` bytes; `tally` is its
    /// [`Lane::tally`]. `true` ends the whole scan.
    #[inline(always)]
    fn step(&self, _tally: &mut u64, _consumed: usize, _q: u32) -> bool {
        false
    }

    /// The lane is in state `q` at a block end; `trail` is its
    /// [`Lane::trail`].
    fn block_end(&self, _trail: &mut Vec<u32>, _q: u32) {}

    /// Polled with the abort flag: `true` abandons the scan.
    fn stop(&self) -> bool {
        false
    }
}

/// Exit states only.
pub(crate) struct Exits;

impl Record for Exits {}

/// Accepting states visited, counted into [`Lane::tally`]; `.0` holds
/// the per-state accept flags.
pub(crate) struct Count<'a>(pub &'a [bool]);

impl Record for Count<'_> {
    #[inline(always)]
    fn step(&self, tally: &mut u64, _consumed: usize, q: u32) -> bool {
        *tally += u64::from(self.0[q as usize]);
        false
    }
}

/// The first accepting position (symbols consumed) into [`Lane::tally`],
/// 0 for none. A hit ends the scan, so run one lane at a time; `stop`
/// abandons a scan whose result can no longer matter.
pub(crate) struct First<'a, F> {
    pub accepting: &'a [bool],
    pub stop: F,
}

impl<F: Fn() -> bool> Record for First<'_, F> {
    #[inline(always)]
    fn step(&self, tally: &mut u64, consumed: usize, q: u32) -> bool {
        let hit = self.accepting[q as usize];
        if hit {
            *tally = consumed as u64;
        }
        hit
    }

    fn stop(&self) -> bool {
        (self.stop)()
    }
}

/// Each lane's state at every multiple of [`CHECKPOINT_SYMBOLS`] from
/// its start and at its end, appended to [`Lane::trail`] — one entry per
/// `input.chunks(CHECKPOINT_SYMBOLS)` chunk, the geometry the
/// speculative tier's `rerun_chunk` replays.
pub(crate) struct Trails;

impl Record for Trails {
    const BLOCK: usize = CHECKPOINT_SYMBOLS;

    fn block_end(&self, trail: &mut Vec<u32>, q: u32) {
        trail.push(q);
    }
}

/// The K dispatch of the lane kernel: run the (at most `k_way`) `lanes`
/// over `delta`. Returns `false` if the scan was abandoned — through
/// `ctl`, an invalid byte (recorded in `ctl`) or `rec.stop()` — in which
/// case the lanes' exits and tallies are unspecified.
pub(crate) fn run_lanes<X: Delta, D: Decode, R: Record>(
    delta: X,
    decode: D,
    k_way: usize,
    lanes: &mut [Lane<'_>],
    rec: &R,
    ctl: &AbortControl,
) -> bool {
    match k_way {
        1 => lanes_k::<X, D, R, 1>(delta, decode, lanes, rec, ctl),
        2 => lanes_k::<X, D, R, 2>(delta, decode, lanes, rec, ctl),
        4 => lanes_k::<X, D, R, 4>(delta, decode, lanes, rec, ctl),
        _ => lanes_k::<X, D, R, 8>(delta, decode, lanes, rec, ctl),
    }
}

/// The software-pipelined kernel: K independent chains, each from its
/// own entry state, step in lockstep over their common length, so K
/// loads are in flight per iteration instead of one; then each lane
/// finishes on its own. A group of fewer than K lanes runs single-chain.
fn lanes_k<X: Delta, D: Decode, R: Record, const K: usize>(
    delta: X,
    decode: D,
    lanes: &mut [Lane<'_>],
    rec: &R,
    ctl: &AbortControl,
) -> bool {
    debug_assert!(lanes.len() <= K);
    // K symbols retire per pipelined step, so K-lane blocks are K times
    // shorter to keep the poll cadence in symbols.
    let block = R::BLOCK.min(GOVERNOR_POLL_SYMBOLS / K);
    let mut input: [&[u8]; K] = [&[]; K];
    let mut s = [0u32; K];
    let mut tally = [0u64; K];
    for (j, lane) in lanes.iter().enumerate() {
        input[j] = lane.input;
        s[j] = delta.handle(lane.state);
        tally[j] = lane.tally;
    }
    let common = input.iter().map(|l| l.len()).min().unwrap_or(0);
    let mut pos = 0;
    while pos < common {
        if ctl.should_stop() || rec.stop() {
            return false;
        }
        let end = (pos + block).min(common);
        for i in pos..end {
            for j in 0..K {
                // SAFETY: i < common ≤ input[j].len().
                let byte = unsafe { *input[j].get_unchecked(i) };
                match decode.decode(byte) {
                    Classified::Symbol(sym) => {
                        s[j] = delta.next(s[j], sym);
                        if rec.step(&mut tally[j], i + 1, delta.state(s[j])) {
                            lanes[j].tally = tally[j];
                            return true;
                        }
                    }
                    Classified::Skip => {}
                    Classified::Invalid => {
                        ctl.fail(SfaError::InvalidByte {
                            byte,
                            offset: lanes[j].offset + i as u64,
                        });
                        return false;
                    }
                }
            }
        }
        for (j, lane) in lanes.iter_mut().enumerate() {
            if end % block == 0 || end == lane.input.len() {
                rec.block_end(&mut lane.trail, delta.state(s[j]));
            }
        }
        pos = end;
    }
    for (j, lane) in lanes.iter_mut().enumerate() {
        let (mut q, mut t) = (s[j], tally[j]);
        let mut pos = common;
        while pos < lane.input.len() {
            if ctl.should_stop() || rec.stop() {
                return false;
            }
            let end = ((pos / block + 1) * block).min(lane.input.len());
            for (i, &byte) in (pos..).zip(&lane.input[pos..end]) {
                match decode.decode(byte) {
                    Classified::Symbol(sym) => {
                        q = delta.next(q, sym);
                        if rec.step(&mut t, i + 1, delta.state(q)) {
                            lane.tally = t;
                            return true;
                        }
                    }
                    Classified::Skip => {}
                    Classified::Invalid => {
                        ctl.fail(SfaError::InvalidByte {
                            byte,
                            offset: lane.offset + i as u64,
                        });
                        return false;
                    }
                }
            }
            rec.block_end(&mut lane.trail, delta.state(q));
            pos = end;
        }
        lane.state = delta.state(q);
        lane.tally = t;
    }
    true
}

/// Run `lanes` on `pool`, `k_way` lanes to a task, each group through
/// `scan(group_index, group, ctl)`. Every group polls one
/// [`AbortControl`]; the first failure, or a panic, is returned. A
/// single group runs on the calling thread, with its panic contained
/// all the same.
pub(crate) fn run_pooled<'l>(
    pool: &TaskPool,
    governor: &Governor,
    k_way: usize,
    lanes: &mut [Lane<'l>],
    scan: impl Fn(usize, &mut [Lane<'l>], &AbortControl) + Sync,
) -> Result<(), SfaError> {
    let ctl = AbortControl::new(governor);
    let scoped = if lanes.len() <= k_way {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| scan(0, lanes, &ctl))).map_err(
            |payload| JobPanic {
                message: panic_message(payload),
            },
        )
    } else {
        let (ctl, scan) = (&ctl, &scan);
        pool.scoped(|scope| {
            for (i, group) in lanes.chunks_mut(k_way).enumerate() {
                scope.execute(move || scan(i, group, ctl));
            }
        })
    };
    ctl.finish(scoped)
}

// ----------------------------------------------------------------------
// The engine
// ----------------------------------------------------------------------

/// Precomputed scan state for one SFA/DFA pair — build once, match many
/// inputs. Owns no borrows: engines cache it in an `Arc` across queries.
pub struct ScanEngine {
    /// Compact SFA table, or the defect message of a malformed SFA
    /// (surfaced as [`SfaError::WorkerPanic`] at match time).
    sfa_tbl: Result<ScanTable, String>,
    dfa_tbl: Result<ScanTable, String>,
    /// Per-DFA-state accept flags, indexed by (unscaled) state id.
    accepting: Vec<bool>,
    opts: ScanOptions,
}

impl std::fmt::Debug for ScanEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanEngine")
            .field("sfa_tbl", &self.sfa_tbl)
            .field("dfa_tbl", &self.dfa_tbl)
            .field("opts", &self.opts)
            .finish()
    }
}

impl ScanEngine {
    /// Build with default [`ScanOptions`].
    pub fn new(sfa: &Sfa, dfa: &Dfa) -> ScanEngine {
        ScanEngine::with_options(sfa, dfa, ScanOptions::default())
            .expect("default scan options are valid")
    }

    /// Build with explicit options (fails only on invalid options — a
    /// malformed automaton is deferred to match time, see `sfa_tbl`).
    pub fn with_options(sfa: &Sfa, dfa: &Dfa, opts: ScanOptions) -> Result<ScanEngine, SfaError> {
        opts.validate()?;
        let sfa_tbl = ScanTable::build(
            sfa.delta(),
            sfa.num_states() as usize,
            sfa.num_symbols(),
            sfa.start(),
        );
        let dfa_tbl = ScanTable::build(
            dfa.table(),
            dfa.num_states() as usize,
            dfa.num_symbols(),
            dfa.start(),
        );
        let accepting = (0..dfa.num_states()).map(|q| dfa.is_accepting(q)).collect();
        Ok(ScanEngine {
            sfa_tbl,
            dfa_tbl,
            accepting,
            opts,
        })
    }

    /// The compact SFA table (`Err` for a malformed SFA).
    pub fn sfa_table(&self) -> Result<&ScanTable, SfaError> {
        self.sfa_tbl.as_ref().map_err(|msg| SfaError::WorkerPanic {
            message: msg.clone(),
        })
    }

    /// The compact DFA table (`Err` for a malformed DFA).
    pub fn dfa_table(&self) -> Result<&ScanTable, SfaError> {
        self.dfa_tbl.as_ref().map_err(|msg| SfaError::WorkerPanic {
            message: msg.clone(),
        })
    }

    /// Pass 1: the SFA state of every chunk of `input`, scanned K-way
    /// interleaved on the pool, and the chunk length (pass 3 must
    /// re-split identically). `decode` reads dense symbols, or raw bytes
    /// whose invalid ones fail with their offset counted from `offset`.
    /// `input` must be non-empty.
    pub(crate) fn chunk_states<D: Decode>(
        &self,
        pool: &TaskPool,
        governor: &Governor,
        decode: D,
        input: &[u8],
        offset: u64,
        threads: usize,
    ) -> Result<(Vec<u32>, usize), SfaError> {
        governor.check(0, 0)?;
        debug_assert!(!input.is_empty());
        let _span = crate::obs::span!("scan/chunk_pass");
        let tbl = self.sfa_table()?;
        let chunk = self.opts.chunk_len(input.len(), threads);
        let mut lanes: Vec<Lane<'_>> = Lane::chunks(input, offset, chunk, tbl.start()).collect();
        OBS_CHUNKS.add(lanes.len() as u64);
        OBS_SYMBOLS.add(input.len() as u64);
        let k_way = self.opts.interleave;
        run_pooled(pool, governor, k_way, &mut lanes, |_, group, ctl| {
            tbl.run_lanes(decode, k_way, group, &Exits, ctl);
        })?;
        Ok((lanes.iter().map(|lane| lane.state).collect(), chunk))
    }

    /// Pass 2: every chunk's exact entry DFA state, and the final state
    /// after the whole input, from `q0`: a fold of the running state
    /// through the chunk states, `e₀ = q0`, `eᵢ₊₁ = apply(statesᵢ, eᵢ)`.
    pub(crate) fn entry_states(&self, sfa: &Sfa, states: &[u32], q0: u32) -> (Vec<u32>, u32) {
        let mut entries = Vec::with_capacity(states.len());
        let last = states.iter().fold(q0, |q, &s| {
            entries.push(q);
            sfa.apply(s, q)
        });
        (entries, last)
    }

    /// Passes 1+2 fused: the DFA state after `input`, starting at `q0`.
    /// Workers poll the governor every [`GOVERNOR_POLL_SYMBOLS`]
    /// symbols; the first failure (cancellation, deadline, worker
    /// panic) aborts the remaining scans and is returned.
    pub(crate) fn final_state(
        &self,
        pool: &TaskPool,
        governor: &Governor,
        sfa: &Sfa,
        input: &[SymbolId],
        q0: u32,
        threads: usize,
    ) -> Result<u32, SfaError> {
        if input.is_empty() {
            governor.check(0, 0)?;
            return Ok(q0);
        }
        let (states, _) = self.chunk_states(pool, governor, Dense, input, 0, threads)?;
        Ok(self.entry_states(sfa, &states, q0).1)
    }

    /// Passes 1+2, then the entry lanes of pass 3: every chunk of
    /// `input` as a lane from its exact entry DFA state. Unlike the
    /// speculative approaches the paper surveys (§V), no re-matching is
    /// ever needed — entry states are exact. `input` must be non-empty.
    fn entry_lanes<'i>(
        &self,
        pool: &TaskPool,
        governor: &Governor,
        sfa: &Sfa,
        input: &'i [SymbolId],
        q0: u32,
        threads: usize,
    ) -> Result<(Vec<Lane<'i>>, usize), SfaError> {
        let (states, chunk) = self.chunk_states(pool, governor, Dense, input, 0, threads)?;
        let (entries, _) = self.entry_states(sfa, &states, q0);
        let lanes = input
            .chunks(chunk)
            .zip(entries)
            .map(|(c, q)| Lane::new(c, q))
            .collect();
        Ok((lanes, chunk))
    }

    /// First-match search from `q0`: the number of symbols consumed when
    /// the DFA first accepts (`Some(0)` when `q0` accepts). Pass 3 scans
    /// every chunk from its exact entry state, one lane per task, with a
    /// best-so-far chunk index published in an `AtomicUsize` so chunks
    /// that can no longer win abort at block granularity instead of
    /// finishing their scan.
    ///
    /// Why `Relaxed` is enough for `best` (audited; pinned by the
    /// `prop_find_first_two_winner_abort` seam proptest):
    ///
    /// * `best` is a pure *hint*. The answer is reduced after the join
    ///   from the lanes' tallies, never from `best`, and chunk index
    ///   order equals position order, so the earliest hit wins
    ///   regardless of which sibling published first.
    /// * A chunk aborts only when `best < i` — a *strictly earlier*
    ///   chunk has already found a match, so chunk `i`'s own result
    ///   cannot improve the answer. `fetch_min` only ever stores indices
    ///   of chunks that really matched, so a stale/relaxed read can at
    ///   worst delay an abort (wasted work), never discard a winner.
    /// * Each lane's write is ordered before the post-join read by the
    ///   pool's scope join (happens-before via the scope barrier), so no
    ///   chunk's match is lost even when two chunks match concurrently.
    pub(crate) fn find_first(
        &self,
        pool: &TaskPool,
        governor: &Governor,
        sfa: &Sfa,
        input: &[SymbolId],
        q0: u32,
        threads: usize,
    ) -> Result<Option<usize>, SfaError> {
        governor.check(0, 0)?;
        // `Dfa::first_match_end` (the oracle) reports `Some(0)` for an
        // accepting start state even on empty input: zero symbols consume
        // an accepted (empty) prefix. Keep that order here.
        if self.accepting[q0 as usize] {
            return Ok(Some(0));
        }
        if input.is_empty() {
            return Ok(None);
        }
        let (mut lanes, chunk) = self.entry_lanes(pool, governor, sfa, input, q0, threads)?;
        let dtbl = self.dfa_table()?;
        let accepting = self.accepting.as_slice();
        let best = AtomicUsize::new(usize::MAX);
        run_pooled(pool, governor, 1, &mut lanes, |i, lane, ctl| {
            // A sibling with a smaller chunk index already matched: this
            // chunk cannot improve the answer.
            let stop = || best.load(Ordering::Relaxed) < i;
            dtbl.run_lanes(Dense, 1, lane, &First { accepting, stop }, ctl);
            if lane[0].tally > 0 {
                best.fetch_min(i, Ordering::Relaxed);
            }
        })?;
        Ok(lanes
            .iter()
            .enumerate()
            .find(|(_, lane)| lane.tally > 0)
            .map(|(i, lane)| i * chunk + lane.tally as usize))
    }

    /// Occurrence counting from `q0`: the positions (including 0) at
    /// which the DFA accepts. Pass 3 counts K-way interleaved from the
    /// exact entry states.
    pub(crate) fn count_matches(
        &self,
        pool: &TaskPool,
        governor: &Governor,
        sfa: &Sfa,
        input: &[SymbolId],
        q0: u32,
        threads: usize,
    ) -> Result<u64, SfaError> {
        governor.check(0, 0)?;
        let base = u64::from(self.accepting[q0 as usize]);
        if input.is_empty() {
            return Ok(base);
        }
        let (mut lanes, _) = self.entry_lanes(pool, governor, sfa, input, q0, threads)?;
        let dtbl = self.dfa_table()?;
        let accepting = self.accepting.as_slice();
        let k_way = self.opts.interleave;
        run_pooled(pool, governor, k_way, &mut lanes, |_, group, ctl| {
            dtbl.run_lanes(Dense, k_way, group, &Count(accepting), ctl);
        })?;
        Ok(base + lanes.iter().map(|lane| lane.tally).sum::<u64>())
    }
}

#[cfg(test)]
mod tests {
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

    /// One ungoverned kernel run; `Err` is the failure it recorded.
    fn run<X: Delta, D: Decode, R: Record>(
        delta: X,
        decode: D,
        k_way: usize,
        lanes: &mut [Lane<'_>],
        rec: &R,
    ) -> Result<bool, SfaError> {
        let governor = Governor::unlimited();
        let ctl = AbortControl::new(&governor);
        let done = run_lanes(delta, decode, k_way, lanes, rec, &ctl);
        ctl.finish(Ok(())).map(|()| done)
    }

    /// The state one lane reaches on `tbl` from its start state.
    fn exit(tbl: &ScanTable, input: &[u8]) -> u32 {
        let governor = Governor::unlimited();
        let ctl = AbortControl::new(&governor);
        let mut lane = [Lane::new(input, tbl.start())];
        assert!(tbl.run_lanes(Dense, 1, &mut lane, &Exits, &ctl));
        lane[0].state
    }

    #[test]
    fn table_layout_is_compact_and_padded() {
        let (dfa, sfa) = setup("RG");
        let engine = ScanEngine::new(&sfa, &dfa);
        let dtbl = engine.dfa_table().unwrap();
        // Amino-acid alphabet: k = 20 → stride rounds to a power of two
        // covering at least one cache line.
        assert!(dtbl.stride().is_power_of_two());
        assert!(dtbl.stride() >= 20);
        assert_eq!(dtbl.stride() * dtbl.entry_bytes() % 64, 0);
        // Tiny automata pack below u32.
        assert!(dtbl.entry_bytes() < 4, "small DFA should pack: {dtbl:?}");
        let stbl = engine.sfa_table().unwrap();
        assert!(stbl.stride().is_power_of_two());
    }

    #[test]
    fn scan_table_agrees_with_step() {
        let (dfa, sfa) = setup("R[GA]N");
        let engine = ScanEngine::new(&sfa, &dfa);
        let tbl = engine.sfa_table().unwrap();
        let input: Vec<u8> = (0..257u32).map(|i| (i % 20) as u8).collect();
        assert_eq!(exit(tbl, &input), sfa.run(&input));
    }

    #[test]
    fn malformed_table_is_deferred_not_fatal() {
        let (dfa, _) = setup("R");
        let poisoned = Sfa::from_parts(
            2,
            20,
            0,
            vec![99; 2 * 20],
            crate::sfa::MappingStore::U16(vec![0, 1, 1, 0]),
        );
        let engine = ScanEngine::new(&poisoned, &dfa);
        match engine.sfa_table() {
            Err(SfaError::WorkerPanic { message }) => {
                assert!(message.contains("out of bounds"), "{message}");
            }
            other => panic!("expected deferred WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn entry_states_are_the_dfa_state_before_each_chunk() {
        let (dfa, sfa) = setup("R[GA]N");
        let pool = TaskPool::new(3);
        let input: Vec<u8> = (0..1_001u32).map(|i| (i * 7 % 20) as u8).collect();
        for threads in [1usize, 2, 3, 8] {
            let opts = ScanOptions {
                min_chunk_symbols: 1,
                ..ScanOptions::default()
            };
            let engine = ScanEngine::with_options(&sfa, &dfa, opts).unwrap();
            let governor = Governor::unlimited();
            let (states, chunk) = engine
                .chunk_states(&pool, &governor, Dense, &input, 0, threads)
                .unwrap();
            assert!(states.len() > threads, "{threads} threads, chunk {chunk}");
            let (entries, last) = engine.entry_states(&sfa, &states, dfa.start());
            assert_eq!(entries.len(), states.len());
            for (i, &entry) in entries.iter().enumerate() {
                assert_eq!(
                    entry,
                    dfa.run(&input[..i * chunk]),
                    "{threads} threads, chunk {i}"
                );
            }
            assert_eq!(last, dfa.run(&input), "{threads} threads");
        }
    }

    #[test]
    fn invalid_options_are_rejected() {
        let (dfa, sfa) = setup("RG");
        for bad in [0usize, 3, 5, 16] {
            let opts = ScanOptions {
                interleave: bad,
                ..ScanOptions::default()
            };
            assert!(matches!(
                ScanEngine::with_options(&sfa, &dfa, opts),
                Err(SfaError::InvalidOptions(_))
            ));
        }
        let opts = ScanOptions {
            oversubscribe: 0,
            ..ScanOptions::default()
        };
        assert!(ScanEngine::with_options(&sfa, &dfa, opts).is_err());
    }

    #[test]
    fn out_of_alphabet_symbols_stay_in_bounds() {
        // The masked-padding contract: garbage symbols may produce a
        // garbage state but never fault or leave the table.
        let (dfa, sfa) = setup("RG");
        let engine = ScanEngine::new(&sfa, &dfa);
        let tbl = engine.sfa_table().unwrap();
        let junk: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        assert!((exit(tbl, &junk) as usize) < sfa.num_states() as usize);
    }

    const SYMBOLS: usize = 20;

    /// Lane `j` runs `inputs[j]` from `starts[j]` at offset `j << 32`.
    fn lanes_from<'a>(inputs: &'a [Vec<u8>], starts: &[u32]) -> Vec<Lane<'a>> {
        (0..)
            .zip(inputs.iter().zip(starts))
            .map(|(j, (w, &q))| Lane {
                offset: j << 32,
                ..Lane::new(w, q)
            })
            .collect()
    }

    /// Every recording of `k_way` random lanes on `delta`, the transition
    /// function of `table`, against a plain `table[q * k + sym]` loop;
    /// then the same lanes as classified bytes.
    fn check_kernel<X: Delta>(
        delta: X,
        table: &[u32],
        accepting: &[bool],
        k_way: usize,
        rng: &mut StdRng,
    ) {
        // Unequal lengths, some past several checkpoints, own start states.
        let inputs: Vec<Vec<u8>> = (0..k_way)
            .map(|_| {
                let len = rng.random_range(0..3 * CHECKPOINT_SYMBOLS);
                (0..len)
                    .map(|_| rng.random_range(0..SYMBOLS as u8))
                    .collect()
            })
            .collect();
        let starts: Vec<u32> = (0..k_way)
            .map(|_| rng.random_range(0..accepting.len() as u32))
            .collect();
        let mut exits = lanes_from(&inputs, &starts);
        assert!(run(delta, Dense, k_way, &mut exits, &Exits).unwrap());
        let mut counts = lanes_from(&inputs, &starts);
        assert!(run(delta, Dense, k_way, &mut counts, &Count(accepting)).unwrap());
        let mut firsts = lanes_from(&inputs, &starts);
        let first = First {
            accepting,
            stop: || false,
        };
        assert!(run(delta, Dense, k_way, &mut firsts, &first).unwrap());
        let mut trails = lanes_from(&inputs, &starts);
        assert!(run(delta, Dense, k_way, &mut trails, &Trails).unwrap());
        let mut any_hit = false;
        for (j, (input, &start)) in inputs.iter().zip(&starts).enumerate() {
            let (mut q, mut count, mut hit, mut trail) = (start, 0, 0, Vec::new());
            for (i, &sym) in input.iter().enumerate() {
                q = table[q as usize * SYMBOLS + sym as usize];
                count += u64::from(accepting[q as usize]);
                if accepting[q as usize] && hit == 0 {
                    hit = i as u64 + 1;
                }
                if (i + 1) % CHECKPOINT_SYMBOLS == 0 || i + 1 == input.len() {
                    trail.push(q);
                }
            }
            assert_eq!(
                (exits[j].state, counts[j].tally),
                (q, count),
                "lane {j}/{k_way}"
            );
            assert_eq!(trails[j].trail, trail, "trail of lane {j}/{k_way}");
            // A hit ends the scan: the one lane that reports has the
            // right position.
            assert!(
                firsts[j].tally == 0 || firsts[j].tally == hit,
                "lane {j}/{k_way}"
            );
            any_hit |= hit > 0;
        }
        let reported = firsts.iter().filter(|lane| lane.tally > 0).count();
        assert_eq!(reported, usize::from(any_hit));

        // Classified bytes: whitespace does not step, and an invalid byte
        // fails the scan with its absolute offset.
        let alpha = Alphabet::amino_acids();
        let classifier = ByteClassifier::skipping_ascii_whitespace(&alpha);
        let mut texts: Vec<Vec<u8>> = inputs
            .iter()
            .map(|w| {
                w.iter()
                    .flat_map(|&sym| [b'\n', alpha.decode(sym)])
                    .collect()
            })
            .collect();
        let mut bytes = lanes_from(&texts, &starts);
        assert!(run(delta, &classifier, k_way, &mut bytes, &Exits).unwrap());
        for (lane, exit) in bytes.iter().zip(&exits) {
            assert_eq!(lane.state, exit.state);
        }
        let j = rng.random_range(0..k_way);
        if !texts[j].is_empty() {
            let at = rng.random_range(0..texts[j].len());
            texts[j][at] = b'#';
            match run(
                delta,
                &classifier,
                k_way,
                &mut lanes_from(&texts, &starts),
                &Exits,
            ) {
                Err(SfaError::InvalidByte { byte: b'#', offset }) => {
                    assert_eq!(offset, ((j as u64) << 32) + at as u64)
                }
                other => panic!("expected an invalid byte, got {other:?}"),
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// The lane kernel on random tables of about 3, 300 and 5,000
        /// states, one per packed width, and on the same tables raw, for
        /// K ∈ {1, 2, 4, 8}.
        #[test]
        fn prop_kernel_agrees_with_plain_loop(seed in proptest::prelude::any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            for (n, width) in [(3usize, 1usize), (300, 2), (5000, 4)] {
                let table: Vec<u32> = (0..n * SYMBOLS).map(|_| rng.random_range(0..n as u32)).collect();
                // About two accepting states, so first hits land anywhere.
                let accepting: Vec<bool> = (0..n).map(|_| rng.random_range(0..n) < 2).collect();
                let tbl = ScanTable::build(&table, n, SYMBOLS, 0).unwrap();
                proptest::prop_assert_eq!(tbl.entry_bytes(), width);
                for k_way in [1usize, 2, 4, 8] {
                    match tbl.width {
                        Width::U8 => check_kernel(tbl.packed::<u8>(), &table, &accepting, k_way, &mut rng),
                        Width::U16 => check_kernel(tbl.packed::<u16>(), &table, &accepting, k_way, &mut rng),
                        Width::U32 => check_kernel(tbl.packed::<u32>(), &table, &accepting, k_way, &mut rng),
                    }
                    check_kernel(Raw { table: &table, k: SYMBOLS }, &table, &accepting, k_way, &mut rng);
                }
            }
        }
    }
}
