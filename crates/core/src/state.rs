//! The SFA state store: the one owner of how a constructed state is stored.
//!
//! Each SFA state is one `StateRecord`: the 64-bit fingerprint, the hash
//! chain link, the `|Σ|` successor slots, and the mapping payload.
//! Records live in a lock-free [`Arena`] and are addressed by dense `u32`
//! ids; one id is one work item in the construction queues.
//!
//! A payload changes form during a build (DESIGN.md §15): raw id bytes,
//! then codec output once the §III-C compression phase has run, then a
//! marker for bytes demoted to a [`SpillStore`] segment. A state's
//! identity is its plaintext row in every form: its fingerprint and
//! every duplicate check read plaintext. `StateStore` owns everything
//! that depends on the form — the fingerprint table, the
//! [`MemoryManager`] ledger, the codec and the spill tier. The parallel
//! engine and the lazy SFA intern candidates, read states back as
//! plaintext, re-encode or demote payloads at a stop-the-world barrier
//! and take the canonical snapshot without seeing a stored form. The
//! canonical numbering is the one way a build leaves the store: harvest
//! takes it with the rows, and every checkpoint takes its δₛ prefix
//! alone, without stopping the build. Every ledger charge and credit is
//! made here: resident bytes equal the bytes of live resident payloads.

use crate::elem::Elem;
use crate::io::IoError;
use crate::memory::MemoryManager;
use crate::parallel::{CompressionPolicy, ParallelOptions};
use crate::stats::ConstructionStats;
use crate::store::{SpillRef, SpillStore};
use crate::SfaError;
use sfa_compress::Codec;
use sfa_sync::counters::ContentionSnapshot;
use sfa_sync::{Arena, ChainedTable, FindOrInsert, Links, NIL};
use std::cell::Cell;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Chain-link value marking a record that lost its insert race: it must
/// never re-enter the fingerprint table.
const TOMBSTONE: u32 = u32::MAX - 1;

/// State ids and work items stay below this bound, clear of the reserved
/// link values ([`NIL`] and the tombstone).
pub(crate) const ID_LIMIT: u64 = TOMBSTONE as u64;

/// The one check of a state cap (`ParallelOptions::state_budget`), which
/// every engine runs before it allocates: at least one state, and every
/// work item — `symbol_blocks` per state — encodable below [`ID_LIMIT`].
pub(crate) fn check_state_budget(
    state_budget: usize,
    symbol_blocks: usize,
) -> Result<(), SfaError> {
    if state_budget == 0 {
        return Err(SfaError::InvalidOptions("state_budget must be at least 1"));
    }
    if (state_budget as u64).saturating_mul(symbol_blocks as u64) >= ID_LIMIT {
        return Err(SfaError::InvalidOptions(
            "state_budget × symbol_blocks must fit the u32 work-item encoding",
        ));
    }
    Ok(())
}

/// The stored form of one state's mapping.
#[derive(Debug)]
enum Payload {
    /// Raw native-endian id bytes (empty once the probabilistic mode
    /// drops them).
    Raw(Box<[u8]>),
    /// Codec output.
    Compressed(Box<[u8]>),
    /// Codec output demoted to a spill segment.
    Spilled(SpillRef),
}

impl Payload {
    /// Bytes held in memory: what the ledger charges for this payload.
    fn resident_len(&self) -> usize {
        match self {
            Payload::Raw(d) | Payload::Compressed(d) => d.len(),
            Payload::Spilled(_) => 0,
        }
    }
}

/// One SFA state record; see module docs.
struct StateRecord {
    fingerprint: u64,
    next: AtomicU32,
    mapping: AtomicPtr<Payload>,
    succ: Box<[AtomicU32]>,
}

/// A payload pointer swapped out by a lock-free promotion while
/// concurrent readers may still hold it, so it is freed only when the
/// whole store drops.
struct Retired(*mut Payload);
// SAFETY: the pointee is never accessed through this handle until Drop,
// at which point the store owns it exclusively.
unsafe impl Send for Retired {}

impl StateRecord {
    fn new(fingerprint: u64, mapping: Payload, k: usize) -> Self {
        StateRecord {
            fingerprint,
            next: AtomicU32::new(NIL),
            mapping: AtomicPtr::new(Box::into_raw(Box::new(mapping))),
            succ: (0..k).map(|_| AtomicU32::new(NIL)).collect(),
        }
    }
}

impl Drop for StateRecord {
    fn drop(&mut self) {
        let ptr = *self.mapping.get_mut();
        if !ptr.is_null() {
            // SAFETY: the record owns its mapping buffer; `replace_mapping`
            // freed any predecessor, so this pointer is freed exactly once.
            unsafe { drop(Box::from_raw(ptr)) };
        }
    }
}

/// Per-worker interning counters (`Cell`s: the table's equality closure
/// is an immutable-capture `Fn`).
#[derive(Default)]
pub(crate) struct InternStats {
    candidates: Cell<u64>,
    duplicates: Cell<u64>,
    exhaustive: Cell<u64>,
    collisions: Cell<u64>,
}

impl InternStats {
    /// Add these counters to the build's totals.
    pub(crate) fn add_to(&self, stats: &mut ConstructionStats) {
        stats.candidates += self.candidates.get();
        stats.duplicates += self.duplicates.get();
        stats.exhaustive_compares += self.exhaustive.get();
        stats.fingerprint_collisions += self.collisions.get();
    }
}

/// Outcome of [`StateStore::intern`]: the state's `id`, whether this call
/// inserted it (`new`), and whether its ledger charge was the one that
/// first crossed the watermark (`tripped`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Interned {
    pub id: u32,
    pub new: bool,
    pub tripped: bool,
}

/// Scratch buffers for [`StateStore::read`] and [`StateStore::intern`].
#[derive(Default)]
pub(crate) struct ReadBuf {
    fetched: Vec<u8>,
    plain: Vec<u8>,
}

/// Mapping rows of a [`Snapshot`], in canonical order.
pub(crate) enum Rows<E> {
    /// Plaintext rows, flat, `n` elements each.
    Plain(Vec<E>),
    /// The compressed payloads exactly as stored.
    Compressed(Vec<Box<[u8]>>),
    /// The probabilistic mode kept no payloads.
    Dropped,
}

/// The canonical snapshot: see [`StateStore::snapshot`].
pub(crate) struct Snapshot<E> {
    /// δₛ in canonical ids, row-major.
    pub delta: Vec<u32>,
    /// Mapping rows.
    pub rows: Rows<E>,
}

/// Lock-free repository of SFA states; see module docs.
pub(crate) struct StateStore {
    arena: Arena<StateRecord>,
    table: ChainedTable,
    n: usize,
    k: usize,
    mem: MemoryManager,
    codec: Box<dyn Codec>,
    spill: Option<SpillStore>,
    /// Identity by fingerprint alone (the §III-A probabilistic variant).
    probabilistic: bool,
    /// `false` skips the fingerprint short-circuit in chain walks (ablation).
    short_circuit: bool,
    /// Records that lost an insert race (tombstones, not states).
    losers: AtomicUsize,
    /// Payloads re-encoded from raw to compressed (demotions that stay
    /// in memory).
    reencodes: AtomicU64,
    /// Arena length and promotion count at the end of the last spill
    /// pass: a new pass is due only after progress since (see
    /// [`StateStore::spill_due`]).
    spill_mark: [AtomicU64; 2],
    /// Payloads replaced by a promotion outside a quiescence window;
    /// freed when the store drops (see [`Retired`]).
    retired: Mutex<Vec<Retired>>,
}

impl StateStore {
    /// Store for a build under `opts`: at most `opts.state_budget`
    /// states (checked by the caller with [`check_state_budget`]) of `n`
    /// ids over `k` symbols. The table gets a bucket per 64 states: short
    /// chains for real SFAs without a multi-megabyte zeroed table for
    /// small patterns. `spill_cap` is the build's payload-byte budget when
    /// it has a spill directory: it becomes the ledger watermark — the
    /// first crossing trips the compression phase, later ones drive spill
    /// passes — and an explicit compression watermark composes by `min`.
    pub(crate) fn new(
        opts: &ParallelOptions,
        n: usize,
        k: usize,
        spill_cap: Option<u64>,
    ) -> Result<Self, SfaError> {
        let limit = match (spill_cap, opts.compression) {
            (Some(cap), CompressionPolicy::WhenMemoryExceeds(w)) => Some(w.min(cap as usize)),
            (Some(cap), _) => Some(cap as usize),
            (None, CompressionPolicy::WhenMemoryExceeds(w)) => Some(w),
            (None, _) => None,
        };
        let spill = match &opts.spill {
            Some(dir) => Some(SpillStore::create(dir)?),
            None => None,
        };
        Ok(StateStore {
            arena: Arena::new(opts.state_budget, 4096),
            table: ChainedTable::new((opts.state_budget / 64).clamp(1 << 12, 1 << 22)),
            n,
            k,
            mem: MemoryManager::new(limit),
            codec: opts.codec.codec(),
            spill,
            probabilistic: opts.probabilistic,
            short_circuit: opts.fingerprint_short_circuit,
            losers: AtomicUsize::new(0),
            reencodes: AtomicU64::new(0),
            spill_mark: Default::default(),
            retired: Mutex::default(),
        })
    }

    /// Allocated records, race losers included.
    pub(crate) fn len(&self) -> usize {
        self.arena.len()
    }

    /// Interned states: allocated records less the race losers.
    pub(crate) fn states(&self) -> usize {
        self.len() - self.losers.load(Ordering::Relaxed)
    }

    /// Payload bytes the ledger holds resident.
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.mem.used()
    }

    #[inline]
    fn record(&self, id: u32) -> &StateRecord {
        self.arena.index(id)
    }

    #[inline]
    fn fingerprint(&self, id: u32) -> u64 {
        self.record(id).fingerprint
    }

    fn is_tombstone(&self, id: u32) -> bool {
        self.link(id).load(Ordering::SeqCst) == TOMBSTONE
    }

    /// Successor of state `id` on `sym`, or [`NIL`] if not yet computed.
    #[inline]
    pub(crate) fn succ(&self, id: u32, sym: usize) -> u32 {
        self.record(id).succ[sym].load(Ordering::Acquire)
    }

    /// Set the successor of `id` on `sym`.
    #[inline]
    pub(crate) fn set_succ(&self, id: u32, sym: usize, to: u32) {
        self.record(id).succ[sym].store(to, Ordering::Release);
    }

    /// Borrow the payload of state `id`. Valid until `replace_mapping`
    /// for the same id, which only runs quiesced.
    #[inline]
    fn mapping(&self, id: u32) -> &Payload {
        let ptr = self.record(id).mapping.load(Ordering::Acquire);
        debug_assert!(!ptr.is_null());
        // SAFETY: the pointer is non-null (set at construction) and only
        // invalidated by `replace_mapping`, whose caller guarantees
        // quiescence (compression-phase barriers).
        unsafe { &*ptr }
    }

    /// Replace the mapping of `id`, freeing the previous buffer. The
    /// caller guarantees no concurrent reader of `mapping(id)`.
    fn replace_mapping(&self, id: u32, buf: Payload) {
        let new_ptr = Box::into_raw(Box::new(buf));
        let old = self.record(id).mapping.swap(new_ptr, Ordering::AcqRel);
        if !old.is_null() {
            // SAFETY: per the contract above nobody holds `old`; it was
            // Box::into_raw'd exactly once.
            unsafe { drop(Box::from_raw(old)) };
        }
    }

    /// Lock-free promotion: install `buf` over the spill marker of `id`.
    /// Returns `false` (dropping `buf`) when the mapping is not a marker —
    /// already resident, or a racing promoter won. The replaced marker is
    /// retired, not freed: concurrent readers may still hold it.
    fn try_promote(&self, id: u32, buf: Payload) -> bool {
        let record = self.record(id);
        let current = record.mapping.load(Ordering::Acquire);
        debug_assert!(!current.is_null());
        // SAFETY: mapping pointers are non-null and only retired (never
        // freed) while the store is alive — see `mapping`.
        if !matches!(unsafe { &*current }, Payload::Spilled(_)) {
            return false;
        }
        let new_ptr = Box::into_raw(Box::new(buf));
        match record
            .mapping
            .compare_exchange(current, new_ptr, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(old) => {
                // A poisoned lock means a push panicked: out of memory.
                let mut retired = self.retired.lock().expect("retired list poisoned");
                retired.push(Retired(old));
                true
            }
            Err(_) => {
                // SAFETY: new_ptr came from Box::into_raw above and was
                // never published.
                unsafe { drop(Box::from_raw(new_ptr)) };
                false
            }
        }
    }

    fn spill_store(&self) -> &SpillStore {
        self.spill
            .as_ref()
            .expect("spill marker without a spill store")
    }

    /// Allocate a record for `payload` and charge it to the ledger;
    /// returns the id and whether the charge first crossed the watermark.
    fn alloc(&self, fp: u64, payload: Payload) -> Result<(u32, bool), SfaError> {
        let len = payload.resident_len();
        let id = self
            .arena
            .push(StateRecord::new(fp, payload, self.k))
            .map_err(|_| SfaError::StateBudgetExceeded {
                budget: self.arena.capacity(),
            })?;
        Ok((id, self.mem.charge(len)))
    }

    /// Plaintext `row` in its stored form: codec output if `compress`,
    /// else the raw bytes.
    fn encode(&self, row: &[u8], compress: bool) -> Payload {
        if compress {
            Payload::Compressed(self.codec.compress_to_vec(row).into())
        } else {
            Payload::Raw(row.into())
        }
    }

    /// Store plaintext `row` (fingerprint `fp`) as the next state without
    /// a duplicate check — the start state, or a checkpoint row being
    /// re-interned in canonical order — compressed if `compress`.
    /// Returns the id and whether the charge first crossed the watermark.
    pub(crate) fn seed(
        &self,
        fp: u64,
        row: &[u8],
        compress: bool,
    ) -> Result<(u32, bool), SfaError> {
        let (id, tripped) = self.alloc(fp, self.encode(row, compress))?;
        self.table.insert_unchecked(fp, id, self);
        Ok((id, tripped))
    }

    /// Find-or-insert the candidate row `plain` with fingerprint `fp`.
    /// The probe compares plaintext rows whatever the residents' stored
    /// form (see [`StateStore::equals`]), decoding into `scratch`; only an
    /// inserted candidate is encoded, compressed if `compressed`.
    ///
    /// With `probe_first` a lookup runs before the allocation, so a
    /// duplicate costs no record. A record that then loses the insert
    /// race is tombstoned, so the compression phase and spill passes
    /// skip it, and its bytes are credited back to the ledger.
    pub(crate) fn intern(
        &self,
        fp: u64,
        plain: &[u8],
        compressed: bool,
        probe_first: bool,
        stats: &InternStats,
        scratch: &mut ReadBuf,
    ) -> Result<Interned, SfaError> {
        stats.candidates.update(|c| c + 1);
        let failed = Cell::new(None);
        let mut eq = |other: u32| self.equals(other, fp, plain, stats, scratch, &failed);
        let found = if probe_first {
            self.table.find(fp, self, &mut eq)
        } else {
            None
        };
        let (id, new, tripped) = match found {
            Some(id) => (id, false, false),
            None => {
                if let Some(err) = failed.take() {
                    return Err(err);
                }
                let payload = self.encode(plain, compressed);
                let len = payload.resident_len();
                let (id, tripped) = self.alloc(fp, payload)?;
                match self.table.find_or_insert(fp, id, self, &mut eq) {
                    FindOrInsert::Inserted => (id, true, tripped),
                    FindOrInsert::Found(existing) => {
                        self.link(id).store(TOMBSTONE, Ordering::SeqCst);
                        self.losers.fetch_add(1, Ordering::Relaxed);
                        self.mem.credit(len);
                        (existing, false, tripped)
                    }
                }
            }
        };
        if let Some(err) = failed.take() {
            return Err(err);
        }
        if !new {
            stats.duplicates.update(|c| c + 1);
        }
        Ok(Interned { id, new, tripped })
    }

    /// Is resident `id` the candidate row `plain` with fingerprint `fp`?
    /// Compares plaintext: a raw resident in place, a compressed or
    /// spilled one decoded into `scratch` without promotion. A failed
    /// read lands in `failed`.
    fn equals(
        &self,
        id: u32,
        fp: u64,
        plain: &[u8],
        stats: &InternStats,
        scratch: &mut ReadBuf,
        failed: &Cell<Option<SfaError>>,
    ) -> bool {
        let same_fp = self.fingerprint(id) == fp;
        if self.probabilistic || (self.short_circuit && !same_fp) {
            return same_fp;
        }
        stats.exhaustive.update(|c| c + 1);
        let equal = match self.plaintext(id, scratch, false) {
            Ok(resident) => sfa_simd::bytes_equal(resident, plain),
            Err(e) => {
                failed.set(Some(e));
                false
            }
        };
        if !equal && same_fp {
            stats.collisions.update(|c| c + 1);
        }
        equal
    }

    /// State `id`'s mapping as plaintext bytes. A spilled payload is
    /// fetched and promoted back into the arena (and the ledger); a
    /// payload the codec rejects is a typed [`IoError::Corrupt`].
    pub(crate) fn read<'a>(&'a self, id: u32, buf: &'a mut ReadBuf) -> Result<&'a [u8], SfaError> {
        self.plaintext(id, buf, true)
    }

    fn plaintext<'a>(
        &'a self,
        id: u32,
        buf: &'a mut ReadBuf,
        promote: bool,
    ) -> Result<&'a [u8], SfaError> {
        let stored: &[u8] = match self.mapping(id) {
            Payload::Raw(d) => return Ok(d),
            Payload::Compressed(d) => d,
            &Payload::Spilled(r) => {
                let spill = self.spill_store();
                spill.fetch(r, &mut buf.fetched)?;
                // Losing the promotion race just drops our copy: segment
                // bytes are immutable, so both copies are identical.
                if promote && self.try_promote(id, Payload::Compressed(buf.fetched[..].into())) {
                    let _ = self.mem.charge(buf.fetched.len());
                    spill.record_promotion();
                }
                &buf.fetched
            }
        };
        buf.plain.clear();
        self.codec
            .decompress(stored, &mut buf.plain)
            .map_err(|_| IoError::Corrupt("stored state failed to decompress"))?;
        Ok(&buf.plain)
    }

    /// The stored bytes of state `id` in a store that never compresses
    /// or spills (the lazy tier).
    pub(crate) fn raw(&self, id: u32) -> &[u8] {
        let Payload::Raw(d) = self.mapping(id) else {
            unreachable!("the lazy tier stores raw rows")
        };
        d
    }

    /// Re-encode state `id` with the codec in place (the compression
    /// phase), moving its ledger charge from the raw bytes to the
    /// encoded ones; each re-encode counts as one demotion. Race losers
    /// are skipped: they were credited when they lost. Quiesced callers
    /// only, one per id.
    pub(crate) fn compress(&self, id: u32) {
        if self.is_tombstone(id) {
            return;
        }
        if let Payload::Raw(d) = self.mapping(id) {
            let encoded = self.codec.compress_to_vec(d);
            self.mem.credit(d.len());
            let _ = self.mem.charge(encoded.len());
            self.replace_mapping(id, Payload::Compressed(encoded.into()));
            self.reencodes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Should a spill pass run? True when a spill tier is attached,
    /// resident bytes exceed the cap, and the arena grew or payloads
    /// were promoted since the last pass — a pass over unchanged
    /// residents could recur forever without freeing a byte.
    pub(crate) fn spill_due(&self) -> bool {
        let Some(spill) = &self.spill else {
            return false;
        };
        self.mem.over_limit()
            && (self.len() as u64 > self.spill_mark[0].load(Ordering::SeqCst)
                || spill.promotions() > self.spill_mark[1].load(Ordering::SeqCst))
    }

    /// Demote the oldest resident compressed payloads to one spill
    /// segment until resident bytes drop to half the cap (a refill
    /// watermark: stopping at the cap would re-arm the next pass on the
    /// very next allocation). Ids go in allocation order, so the oldest
    /// — least likely to be re-read, as BFS frontiers move forward — go
    /// first. Quiesced, one caller.
    pub(crate) fn demote_oldest(&self) -> Result<(), SfaError> {
        let spill = self.spill_store();
        // Mark progress up front — the pass neither allocates nor
        // fetches — so a pass that fails or frees nothing is not
        // requested again at once.
        self.spill_mark[0].store(self.len() as u64, Ordering::SeqCst);
        self.spill_mark[1].store(spill.promotions(), Ordering::SeqCst);
        let floor = self.mem.limit().unwrap_or(u64::MAX) / 2;
        let mut batch: Vec<u8> = Vec::new();
        let mut refs: Vec<(u32, u32, u32)> = Vec::new(); // (id, offset, length)
        let mut would_free = 0u64;
        for id in 0..self.len() as u32 {
            if self.mem.used().saturating_sub(would_free) <= floor {
                break;
            }
            // Race losers were credited when they lost; demoting them
            // would credit them twice.
            if self.is_tombstone(id) {
                continue;
            }
            let Payload::Compressed(d) = self.mapping(id) else {
                continue;
            };
            if d.is_empty() {
                continue;
            }
            refs.push((id, batch.len() as u32, d.len() as u32));
            batch.extend_from_slice(d);
            would_free += d.len() as u64;
            if batch.len() >= (u32::MAX / 2) as usize {
                break; // keep the u32 segment offsets comfortably in range
            }
        }
        if refs.is_empty() {
            return Ok(());
        }
        let seg = spill.write_segment(&batch, refs.len() as u64)?;
        for (id, off, len) in refs {
            self.replace_mapping(id, Payload::Spilled(SpillRef { seg, off, len }));
            self.mem.credit(len as usize);
        }
        // Every resident payload is compressed once spilling starts, so
        // the hot tier is empty.
        crate::store::publish_tier_gauges(0, self.mem.used(), spill.spilled_bytes());
        Ok(())
    }

    /// Drop state `id`'s payload and credit its bytes (the probabilistic
    /// mode, once the state is processed). The caller guarantees no
    /// concurrent reader of the payload.
    pub(crate) fn drop_payload(&self, id: u32) {
        self.mem.credit(self.mapping(id).resident_len());
        self.replace_mapping(id, Payload::Raw(Box::default()));
    }

    /// The harvest's canonical snapshot: states numbered by BFS from the
    /// identity (see [`StateStore::canonical_prefix`]), δₛ in those ids,
    /// and the mapping rows in that order. Rows are plaintext unless
    /// `keep_compressed` asks for the compressed payloads as stored —
    /// granted only without a spill tier, since which payloads are
    /// compressed or spilled then depends on the schedule. Quiesced
    /// callers only, once every state is processed.
    pub(crate) fn snapshot<E: Elem>(&self, keep_compressed: bool) -> Result<Snapshot<E>, SfaError> {
        let (order, delta) = self.canonical_prefix();
        debug_assert_eq!(
            delta.len(),
            order.len() * self.k,
            "unprocessed state at harvest"
        );
        let (n, len) = (self.n, order.len());
        let mut rows = if self.probabilistic {
            Rows::Dropped
        } else if keep_compressed && self.spill.is_none() {
            Rows::Compressed(Vec::with_capacity(len))
        } else {
            Rows::Plain(Vec::with_capacity(len * n))
        };
        let (mut buf, mut elems) = (ReadBuf::default(), Vec::with_capacity(n));
        for &id in &order {
            match &mut rows {
                Rows::Plain(flat) => {
                    E::read_bytes(self.plaintext(id, &mut buf, false)?, &mut elems);
                    flat.extend_from_slice(&elems);
                }
                Rows::Compressed(blobs) => match self.mapping(id) {
                    Payload::Compressed(d) => blobs.push(d.clone()),
                    _ => unreachable!("a compressed build stores every live state compressed"),
                },
                Rows::Dropped => {}
            }
        }
        Ok(Snapshot { delta, rows })
    }

    /// Canonical (= sequential) numbering: BFS from arena id 0, the
    /// identity, expanding successors in symbol order and stopping at the
    /// first state whose δₛ row is incomplete. Returns `(order, delta)`:
    /// `order[c]` is the arena id of canonical id `c`, for every state
    /// the walk discovers, and `delta` holds the rows of the processed
    /// prefix (`delta.len() / k` states) in canonical ids. Race losers
    /// are never a successor, so they get no id. The sequential FIFO
    /// worklist assigns exactly these ids, so mid build this is the arena
    /// a sequential build holds at that cursor — what a checkpoint
    /// persists and a resumed build at any thread count continues
    /// (DESIGN.md §14).
    ///
    /// Only successor slots are read, and each is written once, so the
    /// walk needs no quiescence: a row read complete stays complete, and
    /// a successor allocated after the arena length was read only grows
    /// the inverse map.
    pub(crate) fn canonical_prefix(&self) -> (Vec<u32>, Vec<u32>) {
        let (k, len) = (self.k, self.len());
        // Room for every state: a harvest fills it, and a checkpoint's
        // short prefix leaves the reservation untouched.
        let (mut order, mut delta) = (Vec::with_capacity(len), Vec::with_capacity(len * k));
        if len == 0 {
            return (order, delta);
        }
        let mut canon_of = vec![NIL; len];
        canon_of[0] = 0;
        order.push(0);
        let mut row = vec![NIL; k];
        while let Some(&id) = order.get(delta.len() / k) {
            // Read the row once: a slot may be filled between two reads.
            for (sym, slot) in row.iter_mut().enumerate() {
                *slot = self.succ(id, sym);
            }
            if row.contains(&NIL) {
                break;
            }
            for &succ in &row {
                let succ = succ as usize;
                if succ >= canon_of.len() {
                    canon_of.resize(succ + 1, NIL);
                }
                if canon_of[succ] == NIL {
                    canon_of[succ] = order.len() as u32;
                    order.push(succ as u32);
                }
                delta.push(canon_of[succ]);
            }
        }
        (order, delta)
    }

    /// Copy the ledger and tier counters into `stats`: demotions are
    /// the re-encodes plus the records written to spill segments. The
    /// re-encodes reach `sfa_store_demotions_total` here, once per
    /// finished build (spilled records as their segments are written):
    /// an increment per re-encode measurably slowed later, unrelated
    /// work in perfbench's `construct-compressed` workload.
    pub(crate) fn record_stats(&self, stats: &mut ConstructionStats) {
        stats.peak_bytes = self.mem.peak();
        stats.resident_bytes = self.mem.used();
        stats.demotions = self.reencodes.load(Ordering::Relaxed);
        if stats.demotions > 0 {
            crate::store::OBS_DEMOTIONS.add(stats.demotions);
        }
        if let Some(spill) = &self.spill {
            stats.spilled_bytes = spill.spilled_bytes();
            stats.demotions += spill.demotions();
            stats.promotions = spill.promotions();
        }
    }

    /// Contention counters of the fingerprint table.
    pub(crate) fn contention(&self) -> ContentionSnapshot {
        self.table.counters().snapshot()
    }
}

impl Drop for StateStore {
    fn drop(&mut self) {
        let retired = self
            .retired
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for Retired(ptr) in retired.drain(..) {
            // SAFETY: retired pointers were Box::into_raw'd exactly once
            // and removed from their records by the promotion CAS; no
            // reader outlives the store.
            unsafe { drop(Box::from_raw(ptr)) };
        }
    }
}

impl Links for StateStore {
    #[inline]
    fn link(&self, id: u32) -> &AtomicU32 {
        &self.record(id).next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sfa::CodecChoice;

    /// Room for 100 states of four u16 ids (8 bytes) over 3 symbols.
    fn store() -> StateStore {
        StateStore::new(&ParallelOptions::default().state_budget(100), 4, 3, None).unwrap()
    }

    #[test]
    fn alloc_and_read_back() {
        let s = store();
        let row = [1, 0, 2, 0, 3, 0, 4, 0];
        assert_eq!(s.seed(0xABCD, &row, false).unwrap(), (0, false));
        assert_eq!(s.fingerprint(0), 0xABCD);
        assert_eq!(s.read(0, &mut ReadBuf::default()).unwrap(), &row);
        assert_eq!(s.raw(0), &row);
        assert_eq!((s.len(), s.states(), s.resident_bytes()), (1, 1, 8));
    }

    #[test]
    fn successors_default_nil_and_update() {
        let s = store();
        s.seed(1, &[0; 8], false).unwrap();
        s.set_succ(0, 1, 42);
        assert_eq!([s.succ(0, 0), s.succ(0, 1), s.succ(0, 2)], [NIL, 42, NIL]);
    }

    #[test]
    fn mapping_equality() {
        let s = store();
        let (stats, mut scratch) = (InternStats::default(), ReadBuf::default());
        s.seed(7, &[9; 8], false).unwrap();
        let dup = s.intern(7, &[9; 8], false, true, &stats, &mut scratch);
        assert_eq!(dup.map(|d| (d.id, d.new)), Ok((0, false)));
        // Same fingerprint, different bytes: a collision, then a new state.
        let row = [9, 9, 9, 9, 9, 9, 9, 8];
        let other = s.intern(7, &row, false, true, &stats, &mut scratch);
        assert_eq!(other.map(|o| (o.id, o.new)), Ok((1, true)));
        let mut totals = ConstructionStats::with_threads(1);
        stats.add_to(&mut totals);
        assert_eq!((totals.candidates, totals.duplicates), (2, 1));
        // One collision per chain walk: the probe and the insert.
        assert_eq!(totals.fingerprint_collisions, 2);
    }

    #[test]
    fn identity_is_the_plaintext_row_in_every_stored_form() {
        let dir = sfa_workloads::ScratchDir::new("state_identity");
        // A one-byte cap: a spill pass demotes every compressed payload.
        let opts = ParallelOptions::default()
            .state_budget(100)
            .spill(dir.path());
        let s = StateStore::new(&opts, 4, 3, Some(1)).unwrap();
        let (stats, mut scratch) = (InternStats::default(), ReadBuf::default());
        let row = [1, 0, 2, 0, 3, 0, 4, 0];
        let mut intern = |row: &[u8], compressed| {
            s.intern(7, row, compressed, true, &stats, &mut scratch)
                .map(|i| (i.id, i.new))
        };
        s.seed(7, &row, false).unwrap();
        // A compressed-mode candidate finds the raw resident.
        assert_eq!(intern(&row, true), Ok((0, false)));
        // A raw-mode candidate finds the compressed resident.
        s.compress(0);
        assert_eq!(intern(&row, false), Ok((0, false)));
        // A spilled resident is decoded for the compare, not promoted.
        s.demote_oldest().unwrap();
        assert!(matches!(s.mapping(0), Payload::Spilled(_)));
        assert_eq!(intern(&row, true), Ok((0, false)));
        // Same fingerprint, other bytes: a new state.
        assert_eq!(intern(&[1; 8], true), Ok((1, true)));
        let mut totals = ConstructionStats::with_threads(1);
        s.record_stats(&mut totals);
        stats.add_to(&mut totals);
        assert_eq!(totals.promotions, 0);
        assert_eq!((totals.candidates, totals.duplicates), (4, 3));
        // One collision per chain walk: the probe and the insert.
        assert_eq!(totals.fingerprint_collisions, 2);
    }

    #[test]
    fn canonical_prefix_stops_at_the_first_incomplete_row() {
        let s = store();
        for v in 0..4 {
            s.seed(v, &[v as u8; 8], false).unwrap();
        }
        let row = |id, succs: [u32; 3]| {
            for (sym, to) in succs.into_iter().enumerate() {
                s.set_succ(id, sym, to);
            }
        };
        // State 0 reaches arena id 2 before arena id 1.
        row(0, [2, 0, 1]);
        row(2, [3, 2, 2]);
        // State 1's row is still being filled: the prefix ends there.
        s.set_succ(1, 0, 0);
        let (order, delta) = s.canonical_prefix();
        assert_eq!(order, [0, 2, 1, 3]);
        assert_eq!(delta, [1, 0, 2, 3, 1, 1]);
    }

    #[test]
    fn lost_race_is_tombstoned_and_credited() {
        let s = store();
        s.seed(5, &[3; 8], false).unwrap();
        // Skipping the probe allocates a record that then loses the insert.
        let (stats, mut scratch) = (InternStats::default(), ReadBuf::default());
        let lost = s.intern(5, &[3; 8], false, false, &stats, &mut scratch);
        assert_eq!(lost.map(|l| (l.id, l.new)), Ok((0, false)));
        assert_eq!((s.len(), s.states(), s.resident_bytes()), (2, 1, 8));
        // The compression phase does not re-encode it.
        s.compress(1);
        assert!(s.is_tombstone(1) && matches!(s.mapping(1), Payload::Raw(_)));
    }

    #[test]
    fn replace_mapping_swaps_payload() {
        let mut s = store();
        s.codec = CodecChoice::Rle.codec();
        s.seed(7, &[1; 8], false).unwrap();
        s.compress(0);
        let Payload::Compressed(d) = s.mapping(0) else {
            panic!("compress left {:?}", s.mapping(0));
        };
        assert_eq!(s.resident_bytes(), d.len() as u64);
        assert_eq!(s.read(0, &mut ReadBuf::default()).unwrap(), &[1; 8]);
    }

    #[test]
    fn corrupt_compressed_payload_reads_as_a_typed_error() {
        let s = store(); // deflate, the default codec
        s.seed(1, &[0; 8], false).unwrap();
        (0..3).for_each(|sym| s.set_succ(0, sym, 0));
        s.replace_mapping(0, Payload::Compressed(vec![0xFF; 4].into()));
        let corrupt = |r: Result<(), SfaError>| {
            assert!(
                matches!(r, Err(SfaError::Artifact(IoError::Corrupt(_)))),
                "{r:?}"
            );
        };
        corrupt(s.read(0, &mut ReadBuf::default()).map(drop));
        corrupt(s.snapshot::<u16>(false).map(drop));
    }

    #[test]
    fn demotions_count_reencodes_then_spilled_records() {
        let dir = sfa_workloads::ScratchDir::new("state_demotions");
        // A one-byte cap: a spill pass demotes every compressed payload.
        let opts = ParallelOptions::default()
            .state_budget(100)
            .spill(dir.path());
        let s = StateStore::new(&opts, 4, 3, Some(1)).unwrap();
        for v in 0..3 {
            s.seed(v, &[v as u8; 8], false).unwrap();
        }
        let counts = || {
            let mut stats = ConstructionStats::with_threads(1);
            s.record_stats(&mut stats);
            (stats.demotions, stats.spilled_bytes, stats.promotions)
        };
        s.compress(0);
        s.compress(1);
        s.compress(0); // already compressed: not a second demotion
        assert_eq!(counts(), (2, 0, 0));
        // The pass writes the two compressed payloads; raw state 2 stays.
        s.demote_oldest().unwrap();
        let (demotions, spilled, _) = counts();
        assert_eq!(demotions, 2 + 2);
        assert!(spilled > 0);
        assert!(matches!(s.mapping(2), Payload::Raw(_)));
        // The snapshot decodes a spilled row in place; a read re-installs
        // it, and only that counts as a promotion. State 0, a self-loop,
        // is the whole automaton the harvest reaches.
        (0..3).for_each(|sym| s.set_succ(0, sym, 0));
        let snap = s.snapshot::<u16>(false).unwrap();
        assert!(matches!(snap.rows, Rows::Plain(r) if r == [0; 4]));
        assert_eq!(counts().2, 0);
        let mut buf = ReadBuf::default();
        assert_eq!(s.read(0, &mut buf).unwrap(), &[0; 8]);
        assert_eq!(s.read(0, &mut buf).unwrap(), &[0; 8]);
        assert_eq!(counts().2, 1);
    }

    #[test]
    fn promotion_only_replaces_spill_markers() {
        let s = store();
        s.seed(7, &[1; 8], false).unwrap();
        let resident = |v: u8, len| Payload::Compressed(vec![v; len].into());
        // Resident payload: promotion must refuse.
        assert!(!s.try_promote(0, resident(2, 2)));
        // Demote to a marker (quiescent replace), then promote back.
        let r = SpillRef {
            seg: 0,
            off: 0,
            len: 8,
        };
        s.replace_mapping(0, Payload::Spilled(r));
        // A reader holding the marker across the promotion stays valid.
        let marker = s.mapping(0);
        assert!(s.try_promote(0, resident(3, 4)));
        assert!(
            matches!(marker, Payload::Spilled(m) if *m == r),
            "retired marker readable"
        );
        assert!(matches!(s.mapping(0), Payload::Compressed(d) if **d == [3; 4]));
        // Second promotion attempt loses (no longer a marker).
        assert!(!s.try_promote(0, resident(4, 4)));
    }

    #[test]
    fn capacity_exhaustion() {
        let s = StateStore::new(&ParallelOptions::default().state_budget(2), 1, 1, None).unwrap();
        s.seed(0, &[0; 2], false).unwrap();
        s.seed(1, &[1; 2], false).unwrap();
        let full = s.seed(2, &[2; 2], false);
        assert_eq!(full, Err(SfaError::StateBudgetExceeded { budget: 2 }));
    }

    #[test]
    fn links_trait_exposes_chain_slots() {
        let s = store();
        s.seed(1, &[0; 8], false).unwrap();
        s.seed(2, &[1; 8], false).unwrap();
        s.link(0).store(1, Ordering::Relaxed);
        assert_eq!(s.link(0).load(Ordering::Relaxed), 1);
    }
}
