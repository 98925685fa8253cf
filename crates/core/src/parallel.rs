//! Parallel SFA construction for shared-memory multicores (§III-B/C).
//!
//! The engine reproduces the paper's design point for point:
//!
//! * **Work items** are SFA state ids. The start-up phase distributes work
//!   through a single CAS-synchronized [`GlobalQueue`]; once it fills to
//!   its threshold capacity, workers switch to **thread-local Chase–Lev
//!   deques** with closest-victim-first stealing (§III-B2).
//! * **State interning** goes through the state store (`crate::state`)
//!   and its lock-free table: fingerprint → bucket → chain walk → CAS
//!   insert at head (§III-A). The store owns every stored form, the
//!   memory ledger and the spill tier; this module never sees them.
//! * **Successor generation** uses the parameterized-transposition SIMD
//!   kernels: all `|Σ|` candidate mappings of a state in one pass.
//! * **Three phases** (§III-C): build raw until the ledger's watermark
//!   trips; stop the world behind a barrier; all workers jointly
//!   re-encode every state with the codec; resume in compressed mode,
//!   compressing each new state. The hash table is kept as it is: it is
//!   keyed by the plaintext fingerprint each record keeps, and the store
//!   compares a fingerprint hit against the resident's plaintext in every
//!   phase, so a duplicate candidate is never compressed. The phase
//!   flags, barriers and leader elections live here.
//! * **Schedulers** ([`Scheduler`]) swap the work-distribution structure
//!   to reproduce the paper's TBB-queue comparison (§IV-B) and the
//!   global-queue-only ablation.
//! * **Canonical renumbering**: arena ids are assigned in whatever order
//!   workers win their CAS races, so the harvest takes the store's
//!   canonical snapshot: every state renumbered by BFS from the start
//!   state in symbol order — exactly the discovery order of the
//!   sequential FIFO worklist. A parallel build is therefore
//!   **byte-identical** to the sequential one for any thread count,
//!   scheduler, and work granularity (with a schedule-independent
//!   compression policy), and race-loser arena garbage can never leave
//!   gaps or aliases in the final id space.
//! * **Checkpointing**: on top of that determinism, a build can snapshot
//!   the canonical prefix of the automaton at a stop-the-world rendezvous
//!   (same barrier machinery as the compression phase) and resume it at
//!   any thread count to a byte-identical SFA (DESIGN.md §14). This is
//!   the only engine that checkpoints: a due snapshot is raised before
//!   a worker stops, so a stop on the state budget, a budget axis or the
//!   cancel token still leaves it.

use crate::artifact::{self, Checkpoint, CheckpointConfig};
use crate::budget::Governor;
use crate::elem::{fits_u16, Elem};
use crate::io::IoError;
use crate::sfa::{CodecChoice, MappingStore, Sfa};
use crate::state::{check_state_budget, InternStats, ReadBuf, Rows, StateStore};
use crate::stats::{ConstructionResult, ConstructionStats};
use crate::SfaError;
use sfa_automata::dfa::Dfa;
use sfa_hash::{CityFingerprinter, Fingerprinter};
use sfa_sync::counters::ContentionSnapshot;
use sfa_sync::deque::{work_stealing_deque, Steal, StealPolicy, Stealer, Worker};
use sfa_sync::mutex::Mutex;
use sfa_sync::{GlobalQueue, MsQueue};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::Instant;

/// Work-distribution strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Paper default: global queue start-up, then thread-local deques
    /// with work-stealing.
    WorkStealing,
    /// Ablation: one global CAS queue for the entire run.
    GlobalOnly,
    /// Comparison: one shared MPMC queue for everything (the TBB
    /// `concurrent_queue` stand-in of §IV-B).
    SharedMpmc,
}

/// When to compress SFA states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressionPolicy {
    /// Never compress (fastest; needs the memory).
    Never,
    /// Trip the compression phase when state payloads exceed this many
    /// bytes (the paper's watermark scheme).
    WhenMemoryExceeds(usize),
    /// Ablation: compress every state from the start (the paper argues —
    /// and Table II shows — this wastes time on tractable inputs).
    FromStart,
}

/// Which fingerprint function the engine uses (§III-A: CityHash won on
/// throughput; Rabin gives provable collision bounds, which matters for
/// the probabilistic mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FingerprintAlgo {
    /// CityHash64 (the paper's production choice).
    City,
    /// Rabin fingerprints (PCLMULQDQ-accelerated; tight collision bounds).
    Rabin,
}

/// Options for parallel construction (see
/// [`crate::builder::SfaBuilder`], which wraps these).
///
/// `#[non_exhaustive]`: start from [`ParallelOptions::default`] or
/// [`ParallelOptions::with_threads`] and adjust fields or chain the
/// builder-style methods; new knobs can then be added without a breaking
/// change.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ParallelOptions {
    /// Worker threads.
    pub threads: usize,
    /// Work-distribution strategy.
    pub scheduler: Scheduler,
    /// Compression policy.
    pub compression: CompressionPolicy,
    /// Codec of the compressed tier: the compression phase and the spill
    /// tier.
    pub codec: CodecChoice,
    /// Maximum number of SFA states: the one state cap, enforced by every
    /// engine (parallel, sequential, lazy) as it allocates states.
    /// Exceeding it is [`SfaError::StateBudgetExceeded`]; `0`, or a value
    /// whose work items (`state_budget × symbol_blocks`) overflow the
    /// `u32` encoding, is [`SfaError::InvalidOptions`].
    pub state_budget: usize,
    /// Global-queue capacity — the start-up threshold after which workers
    /// switch to their local deques (§III-B2).
    pub global_queue_capacity: usize,
    /// Ablation switch: when `false`, chain walks skip the fingerprint
    /// short-circuit and byte-compare every entry.
    pub fingerprint_short_circuit: bool,
    /// Fingerprint function.
    pub fingerprint: FingerprintAlgo,
    /// Work granularity (§III-B1): 1 = coarse-grained (one SFA state per
    /// work item, successor generation via the transposition kernel — the
    /// paper's production configuration); B > 1 = medium-grained (each
    /// state yields B work items, one per block of `|Σ|/B` symbols,
    /// generated symbol-by-symbol). Medium granularity helps only when
    /// states are scarce relative to workers; it forgoes the transposition
    /// kernel's locality, which is exactly the trade-off §III-B1 weighs.
    pub symbol_blocks: usize,
    /// The paper's probabilistic variant (§III-A): state identity is
    /// decided by fingerprints *alone* (no exhaustive comparison), and a
    /// state's mapping payload is dropped as soon as the state has been
    /// processed — a large peak-memory saving at a provably small risk of
    /// merging distinct states (use [`FingerprintAlgo::Rabin`] for the
    /// tight bound). Mapping vectors of the final SFA are reconstructed
    /// from δₛ and the DFA. Incompatible with compression.
    pub probabilistic: bool,
    /// Spill directory (`crate::store`): when set, the build's
    /// payload-byte budget (`Budget::max_payload_bytes`) becomes the
    /// memory watermark instead of a hard error — the first crossing
    /// trips the compression phase (tier 2), and while compressed
    /// payloads still exceed the cap the engine demotes the oldest of
    /// them to mmap'd segments in this directory (created if missing) at
    /// stop-the-world rendezvous points (tier 3), promoting them back on
    /// access. Without a byte budget nothing is demoted. The harvested
    /// store is materialized to plaintext, so a capped build stays
    /// byte-identical to an uncapped one. The tier is compressed with
    /// [`ParallelOptions::codec`] and belongs to this engine: the
    /// sequential variants reject it. Incompatible with the probabilistic
    /// mode (which stores no payloads to spill).
    pub spill: Option<PathBuf>,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions {
            threads: 4,
            scheduler: Scheduler::WorkStealing,
            compression: CompressionPolicy::Never,
            codec: CodecChoice::Deflate,
            state_budget: 1 << 22,
            global_queue_capacity: 1024,
            fingerprint_short_circuit: true,
            fingerprint: FingerprintAlgo::City,
            symbol_blocks: 1,
            probabilistic: false,
            spill: None,
        }
    }
}

impl ParallelOptions {
    /// Defaults with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        ParallelOptions {
            threads,
            ..Default::default()
        }
    }

    /// Set the scheduler.
    pub fn scheduler(mut self, s: Scheduler) -> Self {
        self.scheduler = s;
        self
    }

    /// Set the compression policy.
    pub fn compression(mut self, c: CompressionPolicy) -> Self {
        self.compression = c;
        self
    }

    /// Set the codec.
    pub fn codec(mut self, c: CodecChoice) -> Self {
        self.codec = c;
        self
    }

    /// Set the state budget.
    pub fn state_budget(mut self, b: usize) -> Self {
        self.state_budget = b;
        self
    }

    /// Set the work granularity (symbol blocks per state; see
    /// [`ParallelOptions::symbol_blocks`]).
    pub fn symbol_blocks(mut self, blocks: usize) -> Self {
        self.symbol_blocks = blocks;
        self
    }

    /// Enable the probabilistic (fingerprint-only) variant with the given
    /// fingerprint function.
    pub fn probabilistic(mut self, algo: FingerprintAlgo) -> Self {
        self.probabilistic = true;
        self.fingerprint = algo;
        self
    }

    /// Enable the spill tier in `dir` (see [`ParallelOptions::spill`]).
    pub fn spill(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill = Some(dir.into());
        self
    }
}

/// The parallel engine behind [`Sfa::builder`](crate::Sfa::builder):
/// every worker polls `governor` once per work item, in all three
/// phases, and winds down cooperatively when a budget axis fires or the
/// attached token is cancelled. Optionally checkpoints and resumes
/// (`SfaBuilder::{checkpoint, resume_from}`). `spill_cap` is the
/// payload-byte budget the builder moved from `governor` to the spill
/// tier's watermark (see [`ParallelOptions::spill`]). The builder has
/// already checked the thread count and `symbol_blocks`.
///
/// A checkpoint is the canonical prefix of the automaton, so a build
/// resumed from it at any thread count finishes byte-identical to an
/// uninterrupted run. Requires a schedule-independent compression policy
/// ([`CompressionPolicy::Never`] or [`CompressionPolicy::FromStart`]) and
/// the exact mode.
pub(crate) fn construct_parallel_resumable(
    dfa: &Dfa,
    opts: &ParallelOptions,
    governor: &Governor,
    spill_cap: Option<u64>,
    checkpoint: Option<&CheckpointConfig>,
    resume: Option<&Checkpoint>,
) -> Result<ConstructionResult, SfaError> {
    if dfa.num_states() == 0 {
        return Err(SfaError::EmptyDfa);
    }
    check_state_budget(opts.state_budget, opts.symbol_blocks)?;
    if opts.probabilistic && opts.symbol_blocks != 1 {
        return Err(SfaError::InvalidOptions(
            "probabilistic mode requires symbol_blocks = 1 (the payload drop \
             needs exactly one work item per state)",
        ));
    }
    if opts.probabilistic && !matches!(opts.compression, CompressionPolicy::Never) {
        return Err(SfaError::InvalidOptions(
            "probabilistic mode stores no payloads to compress",
        ));
    }
    if opts.probabilistic && (checkpoint.is_some() || resume.is_some()) {
        return Err(SfaError::InvalidOptions(
            "probabilistic construction drops mapping payloads, so it can \
             neither write nor resume checkpoints",
        ));
    }
    if opts.probabilistic && opts.spill.is_some() {
        return Err(SfaError::InvalidOptions(
            "probabilistic construction drops mapping payloads, so there is \
             nothing to spill",
        ));
    }
    if matches!(opts.compression, CompressionPolicy::WhenMemoryExceeds(_))
        && (checkpoint.is_some() || resume.is_some())
        && opts.spill.is_none()
    {
        // With a spill tier the final store is materialized to plaintext,
        // so the watermark's schedule-dependent trip point cannot leak
        // into the artifact — the rejection only applies without one.
        return Err(SfaError::InvalidOptions(
            "checkpointed parallel construction requires a schedule-independent \
             compression policy (Never or FromStart); the memory watermark's trip \
             point is not, so resumed artifacts could not be byte-identical",
        ));
    }
    // Fail fast (before allocating the arena or spawning workers) when
    // the budget is already exhausted — e.g. a zero deadline or a token
    // cancelled ahead of the call.
    governor.check(0, 0)?;
    if fits_u16(dfa.num_states()) {
        Engine::<u16>::run(dfa, opts, governor, spill_cap, checkpoint, resume)
    } else {
        Engine::<u32>::run(dfa, opts, governor, spill_cap, checkpoint, resume)
    }
}

// Phase-flag values.
const PHASE_RAW: u8 = 0;
const PHASE_COMPRESS_REQUESTED: u8 = 1;
const PHASE_COMPRESSED: u8 = 2;

/// Barrier over the *currently active* workers.
///
/// A fixed-count `std::sync::Barrier` can deadlock here: a worker that
/// exits early (state-budget error) stops participating, and a peer that
/// subsequently requests the compression phase would wait for a quorum
/// that can never assemble. This barrier re-reads the live worker count
/// while spinning, so departures unblock waiters. (On the error path the
/// constructed automaton is discarded, so a departed worker's skipped
/// compression partition is harmless.)
struct PhaseBarrier {
    /// Arrival counters, indexed by generation parity so consecutive
    /// barriers never share a counter (a worker released from barrier g
    /// may arrive at barrier g+1 before stragglers have left barrier g).
    arrived: [AtomicUsize; 2],
    generation: AtomicUsize,
    active: AtomicUsize,
    /// Single-advancer election: exactly one quorum observer resets the
    /// next counter and bumps the generation, so a racing observer can
    /// never wipe arrivals that already landed on the next barrier.
    advancing: AtomicBool,
}

impl PhaseBarrier {
    fn new(workers: usize) -> Self {
        PhaseBarrier {
            arrived: [AtomicUsize::new(0), AtomicUsize::new(0)],
            generation: AtomicUsize::new(0),
            active: AtomicUsize::new(workers),
            advancing: AtomicBool::new(false),
        }
    }

    /// A worker stops participating (worker exit). Must not be called
    /// while that worker is inside `wait`.
    fn deregister(&self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        self.arrived[gen & 1].fetch_add(1, Ordering::SeqCst);
        let mut backoff = sfa_sync::backoff::Backoff::new();
        while self.generation.load(Ordering::Acquire) == gen {
            let arrived = self.arrived[gen & 1].load(Ordering::SeqCst);
            // `active` is re-read every spin: a deregistering worker
            // shrinks the quorum and unblocks the barrier (the error
            // path discards the automaton, so its skipped partition work
            // does not matter).
            if arrived >= self.active.load(Ordering::SeqCst)
                && self
                    .advancing
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                if self.generation.load(Ordering::Acquire) == gen {
                    // Sole advancer: clear the NEXT barrier's counter,
                    // then release everyone by bumping the generation.
                    // Newcomers can only arrive at slot (gen+1)&1 after
                    // observing the bump, which happens-after the reset.
                    self.arrived[(gen + 1) & 1].store(0, Ordering::SeqCst);
                    self.generation.store(gen + 1, Ordering::SeqCst);
                }
                self.advancing.store(false, Ordering::SeqCst);
                break;
            }
            backoff.spin();
        }
    }
}

struct Shared<E: Elem> {
    table_typed: Vec<E>,
    n: usize,
    k: usize,
    opts: ParallelOptions,
    store: StateStore,
    global_q: GlobalQueue,
    mpmc: MsQueue,
    /// Outstanding work items (incremented before enqueue, decremented
    /// after processing). 0 ⇒ construction complete.
    pending: AtomicU64,
    /// `true` once the global queue filled and workers switched to their
    /// thread-local deques.
    switched: AtomicBool,
    phase: AtomicU8,
    barrier: PhaseBarrier,
    error: Mutex<Option<SfaError>>,
    has_error: AtomicBool,
    clock: Mutex<PhaseClock>,
    governor: Governor,
    /// CRC-64 fingerprint of the source DFA (bound into checkpoints so a
    /// snapshot can never be resumed against the wrong automaton).
    dfa_crc: u64,
    /// Checkpoint cadence, when parallel checkpointing is enabled.
    ckpt: Option<CheckpointConfig>,
    /// Set when a worker crosses [`Shared::ckpt_next`]: all workers then
    /// converge on the rendezvous barrier and one of them snapshots the
    /// canonical prefix.
    ckpt_requested: AtomicBool,
    /// Discovered-state count at which the next snapshot is due.
    ckpt_next: AtomicU64,
    /// One-shot leader latch for the compression protocol (CAS-elected —
    /// worker 0 may have exited on an error path before compressing).
    compress_leader: AtomicBool,
    /// Raised when a worker in compressed mode finds a spill pass due;
    /// everyone converges on the rendezvous and one leader demotes.
    spill_requested: AtomicBool,
}

#[derive(Default)]
struct PhaseClock {
    compression_start: Option<Instant>,
    compression_end: Option<Instant>,
}

struct Engine<E: Elem> {
    _marker: std::marker::PhantomData<E>,
}

impl<E: Elem> Engine<E> {
    /// Dispatch on the fingerprint algorithm **once**, then run the
    /// whole construction monomorphized over the concrete fingerprinter
    /// (a `Box<dyn Fingerprinter>` would cost a virtual call per
    /// candidate state).
    fn run(
        dfa: &Dfa,
        opts: &ParallelOptions,
        governor: &Governor,
        spill_cap: Option<u64>,
        checkpoint: Option<&CheckpointConfig>,
        resume: Option<&Checkpoint>,
    ) -> Result<ConstructionResult, SfaError> {
        match opts.fingerprint {
            FingerprintAlgo::City => Self::run_with(
                dfa,
                opts,
                governor,
                spill_cap,
                checkpoint,
                resume,
                CityFingerprinter,
            ),
            FingerprintAlgo::Rabin => Self::run_with(
                dfa,
                opts,
                governor,
                spill_cap,
                checkpoint,
                resume,
                sfa_hash::RabinFingerprinter::default(),
            ),
        }
    }

    fn run_with<F: Fingerprinter + Clone>(
        dfa: &Dfa,
        opts: &ParallelOptions,
        governor: &Governor,
        spill_cap: Option<u64>,
        checkpoint: Option<&CheckpointConfig>,
        resume: Option<&Checkpoint>,
        fingerprinter: F,
    ) -> Result<ConstructionResult, SfaError> {
        let t0 = Instant::now();
        let n = dfa.num_states() as usize;
        let k = dfa.num_symbols();
        let threads = opts.threads;
        let start_compressed = matches!(opts.compression, CompressionPolicy::FromStart);

        // The seed phase must be able to enqueue one item per symbol
        // block — and, on resume, one per persisted frontier state per
        // block — before any worker-local deque exists.
        let seed_items = match resume {
            Some(ckpt) => ((ckpt.num_states - ckpt.processed).max(1) as usize)
                .saturating_mul(opts.symbol_blocks),
            None => opts.symbol_blocks,
        };
        let shared = Shared::<E> {
            table_typed: dfa.table().iter().map(|&q| E::from_u32(q)).collect(),
            n,
            k,
            opts: opts.clone(),
            store: StateStore::new(opts, n, k, spill_cap)?,
            global_q: GlobalQueue::new(
                match opts.scheduler {
                    Scheduler::GlobalOnly => opts.state_budget,
                    _ => opts.global_queue_capacity,
                }
                .max(seed_items),
            ),
            mpmc: MsQueue::new(),
            pending: AtomicU64::new(0),
            switched: AtomicBool::new(false),
            phase: AtomicU8::new(if start_compressed {
                PHASE_COMPRESSED
            } else {
                PHASE_RAW
            }),
            barrier: PhaseBarrier::new(threads),
            error: Mutex::new(None),
            has_error: AtomicBool::new(false),
            clock: Mutex::new(PhaseClock::default()),
            governor: governor.clone(),
            dfa_crc: artifact::dfa_fingerprint(dfa),
            ckpt: checkpoint.cloned(),
            ckpt_requested: AtomicBool::new(false),
            ckpt_next: AtomicU64::new(u64::MAX),
            compress_leader: AtomicBool::new(false),
            spill_requested: AtomicBool::new(false),
        };

        let blocks = opts.symbol_blocks as u32;
        let enqueue = |item: u32| match opts.scheduler {
            Scheduler::SharedMpmc => shared.mpmc.enqueue(item),
            _ => {
                let _ = shared.global_q.enqueue(item);
            }
        };
        let seed_row = |row: &[E]| -> Result<u32, SfaError> {
            let bytes = E::as_bytes(row);
            let fp = fingerprinter.fingerprint(bytes);
            let (id, tripped) = shared.store.seed(fp, bytes, start_compressed)?;
            if tripped {
                // A watermark below the seeded states still has to trigger
                // the (one-shot) compression phase once workers start —
                // unless the build already starts compressed (FromStart
                // with a spill cap), where the trip is meaningless.
                let _ = shared.phase.compare_exchange(
                    PHASE_RAW,
                    PHASE_COMPRESS_REQUESTED,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
            }
            Ok(id)
        };
        match resume {
            None => {
                // Seed the start state (identity mapping).
                let identity: Vec<E> = (0..n as u32).map(E::from_u32).collect();
                let start = seed_row(&identity)?;
                debug_assert_eq!(start, 0);
                shared.pending.store(blocks as u64, Ordering::SeqCst);
                for blk in 0..blocks {
                    enqueue(start * blocks + blk);
                }
            }
            Some(ckpt) => {
                // Re-intern the persisted arena in id order: snapshots
                // are written in canonical order, so arena ids here equal
                // checkpoint row indices and hash chains come back in
                // discovery order.
                let mappings = ckpt.validate_for::<E>(dfa).map_err(SfaError::Artifact)?;
                let num_states = ckpt.num_states as usize;
                for idx in 0..num_states {
                    let id = seed_row(&mappings[idx * n..(idx + 1) * n])?;
                    debug_assert_eq!(id as usize, idx);
                }
                // Processed rows keep their completed δₛ entries; frontier
                // rows stay NIL and are recomputed by the workers.
                for row in 0..ckpt.processed as usize {
                    for sym in 0..k {
                        shared
                            .store
                            .set_succ(row as u32, sym, ckpt.delta[row * k + sym]);
                    }
                }
                let frontier = ckpt.num_states - ckpt.processed;
                shared
                    .pending
                    .store(frontier * blocks as u64, Ordering::SeqCst);
                for id in ckpt.processed as u32..ckpt.num_states as u32 {
                    for blk in 0..blocks {
                        enqueue(id * blocks + blk);
                    }
                }
            }
        }
        if let Some(cfg) = checkpoint {
            shared.ckpt_next.store(
                shared.store.len() as u64 + cfg.every_states,
                Ordering::SeqCst,
            );
        }

        // Thread-local deques + stealer matrix (victim order per worker).
        let mut workers: Vec<Option<Worker>> = Vec::with_capacity(threads);
        let mut all_stealers: Vec<Stealer> = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (w, s) = work_stealing_deque(1024);
            workers.push(Some(w));
            all_stealers.push(s);
        }
        let victim_order: Vec<Vec<Stealer>> = (0..threads)
            .map(|w| {
                StealPolicy::closest_first(w, threads)
                    .victims()
                    .iter()
                    .map(|&v| all_stealers[v].clone())
                    .collect()
            })
            .collect();

        let mut merged_local = Vec::new();
        let mut deque_contention = ContentionSnapshot::default();
        let mut panics: Vec<String> = Vec::new();
        std::thread::scope(|scope| {
            let shared_ref = &shared;
            let mut handles = Vec::with_capacity(threads);
            for (index, (worker, victims)) in workers
                .iter_mut()
                .map(|w| w.take().unwrap())
                .zip(victim_order)
                .enumerate()
            {
                let fingerprinter = fingerprinter.clone();
                handles.push(scope.spawn(move || {
                    let ctx = WorkerCtx {
                        index,
                        shared: shared_ref,
                        deque: worker,
                        victims,
                        fingerprinter,
                    };
                    ctx.run()
                }));
            }
            for h in handles {
                // A panicking worker already marked the run failed and
                // left the barrier quorum (ExitGuard), so peers have
                // stopped; contain the payload instead of re-panicking.
                match h.join() {
                    Ok((stats, snap)) => {
                        merged_local.push(stats);
                        deque_contention = merge_snap(deque_contention, snap);
                    }
                    Err(payload) => panics.push(sfa_sync::pool::panic_message(payload)),
                }
            }
        });

        if !panics.is_empty() {
            return Err(SfaError::WorkerPanic {
                message: panics.join("; "),
            });
        }
        if let Some(err) = shared.error.lock().take() {
            return Err(err);
        }

        // Assemble statistics.
        let mut stats = ConstructionStats::with_threads(threads);
        for l in &merged_local {
            l.add_to(&mut stats);
        }
        let clock = shared.clock.lock();
        let total = t0.elapsed().as_secs_f64();
        stats.total_secs = total;
        match (clock.compression_start, clock.compression_end) {
            (Some(cs), Some(ce)) => {
                stats.phase1_secs = cs.duration_since(t0).as_secs_f64();
                stats.compression_secs = ce.duration_since(cs).as_secs_f64();
                stats.phase3_secs = total - stats.phase1_secs - stats.compression_secs;
                stats.compressed = true;
            }
            _ => {
                stats.phase1_secs = total;
                stats.compressed = start_compressed;
            }
        }
        drop(clock);

        // Harvest the SFA in **canonical order**: the store's snapshot
        // numbers states exactly as the sequential engine does, so the
        // automaton is byte-identical to a sequential build regardless of
        // thread count, scheduler, or CAS race outcomes. Arena ids wasted
        // on lost races are never BFS-reachable (only insert winners are
        // recorded as successors), so the canonical id space is dense by
        // construction: no gap handling, no aliasing.
        let compressed_mode = shared.phase.load(Ordering::SeqCst) == PHASE_COMPRESSED;
        let snap = shared.store.snapshot::<E>(compressed_mode)?;
        let num_states = snap.delta.len() / k;
        debug_assert_eq!(
            snap.processed, num_states,
            "unprocessed state escaped the frontier drain"
        );
        stats.states = num_states as u64;
        stats.uncompressed_bytes = (num_states * n * E::BYTES) as u64;
        let mappings = match snap.rows {
            Rows::Plain(flat) => E::into_store(flat),
            Rows::Compressed(blobs) => MappingStore::Compressed {
                elem_bytes: E::BYTES,
                blobs,
                codec: opts.codec,
            },
            // Payloads were dropped: reconstruct them from δₛ.
            Rows::Dropped => {
                E::into_store(reconstruct_mappings(&shared.table_typed, n, &snap.delta))
            }
        };
        stats.stored_bytes = mappings.payload_bytes() as u64;
        shared.store.record_stats(&mut stats);

        // Merge contention counters.
        stats.contention = merge_snap(
            merge_snap(deque_contention, shared.global_q.counters().snapshot()),
            merge_snap(shared.store.contention(), shared.mpmc.counters().snapshot()),
        );

        // The identity state is arena id 0 (first allocation, fresh and
        // resumed alike) and BFS starts there, so canonical start is 0 —
        // the same start id the sequential engine produces.
        let sfa = Sfa::from_parts(n, k, 0, snap.delta, mappings);
        // Phase spans + global metrics come from the very stats fields
        // assembled above, so spans always sum to `total_secs`.
        crate::obs::observe_construction(&stats);
        Ok(ConstructionResult { sfa, stats })
    }
}

/// Rebuild all mapping vectors from δₛ and the DFA transition table
/// (`n` states, row-major) for the probabilistic mode, whose construction
/// discards payloads. BFS from the identity start mapping, state 0.
fn reconstruct_mappings<E: Elem>(dfa_table: &[E], n: usize, delta: &[u32]) -> Vec<E> {
    let k = dfa_table.len() / n;
    let num_states = delta.len() / k;
    let mut flat: Vec<E> = vec![E::from_u32(0); num_states * n];
    let mut visited = vec![false; num_states];
    for (q, slot) in flat[..n].iter_mut().enumerate() {
        *slot = E::from_u32(q as u32);
    }
    visited[0] = true;
    let mut queue = std::collections::VecDeque::from([0u32]);
    while let Some(s) = queue.pop_front() {
        for sym in 0..k {
            let succ = delta[s as usize * k + sym];
            if visited[succ as usize] {
                continue;
            }
            visited[succ as usize] = true;
            for q in 0..n {
                let cur = flat[s as usize * n + q].to_u32() as usize;
                flat[succ as usize * n + q] = dfa_table[cur * k + sym];
            }
            queue.push_back(succ);
        }
    }
    debug_assert!(visited.iter().all(|&v| v), "unreachable SFA state");
    flat
}

fn merge_snap(a: ContentionSnapshot, b: ContentionSnapshot) -> ContentionSnapshot {
    ContentionSnapshot {
        cas_failures: a.cas_failures + b.cas_failures,
        cas_successes: a.cas_successes + b.cas_successes,
        steal_attempts: a.steal_attempts + b.steal_attempts,
        steal_successes: a.steal_successes + b.steal_successes,
        enqueues: a.enqueues + b.enqueues,
        dequeues: a.dequeues + b.dequeues,
    }
}

struct WorkerCtx<'s, E: Elem, F: Fingerprinter> {
    index: usize,
    shared: &'s Shared<E>,
    deque: Worker,
    victims: Vec<Stealer>,
    /// Concrete fingerprinter type: the per-candidate fingerprint call
    /// is statically dispatched (see `Engine::run`).
    fingerprinter: F,
}

impl<'s, E: Elem, F: Fingerprinter> WorkerCtx<'s, E, F> {
    fn run(self) -> (InternStats, ContentionSnapshot) {
        let shared = self.shared;
        // On ANY exit from this function — including a panic unwinding out
        // of process() — mark the run failed and leave the barrier quorum,
        // so peers stop instead of spinning on `pending` forever.
        struct ExitGuard<'a, E: Elem>(&'a Shared<E>);
        impl<'a, E: Elem> Drop for ExitGuard<'a, E> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    let mut slot = self.0.error.lock();
                    if slot.is_none() {
                        *slot = Some(SfaError::InvalidOptions(
                            "worker panicked during construction",
                        ));
                    }
                    self.0.has_error.store(true, Ordering::SeqCst);
                }
                self.0.barrier.deregister();
            }
        }
        let _guard = ExitGuard(shared);
        let n = shared.n;
        let k = shared.k;
        let governed = !shared.governor.is_unlimited();
        // Only the checkpoint trigger and the governor poll read the
        // state count, so an ungoverned build without checkpoints skips
        // the shared load.
        let counted = governed || shared.ckpt.is_some();
        let stats = InternStats::default();

        // Scratch buffers reused across states.
        let mut rows_u32: Vec<u32> = vec![0; n];
        let mut transposed: Vec<E> = vec![E::from_u32(0); k * n];
        let mut read_buf = ReadBuf::default();
        let mut elems_scratch: Vec<E> = Vec::new();

        let mut backoff = sfa_sync::backoff::Backoff::new();
        loop {
            // Stop-the-world protocols first: everyone must converge on
            // the rendezvous barrier, including idle and error-state
            // workers. Compression and checkpoint requests share ONE
            // entry barrier so workers can never split across two
            // different barrier sequences (see `rendezvous`).
            if shared.phase.load(Ordering::SeqCst) == PHASE_COMPRESS_REQUESTED
                || shared.ckpt_requested.load(Ordering::SeqCst)
                || shared.spill_requested.load(Ordering::SeqCst)
            {
                self.rendezvous();
                backoff.reset();
                continue;
            }
            // Checkpoint trigger, at the per-item cadence and BEFORE both
            // exits below — the error exit and the governor poll, which
            // sees the same state count: a stop on the state budget (a
            // work item that filled the store), a budget axis or the
            // cancel token still leaves the snapshot its cadence made due.
            // The worker that advances the discovered-state watermark
            // raises the request; everyone (including the raiser)
            // converges on the rendezvous at their next loop turn.
            let len = if counted {
                shared.store.len() as u64
            } else {
                0
            };
            if let Some(cfg) = &shared.ckpt {
                let due = shared.ckpt_next.load(Ordering::SeqCst);
                if len >= due
                    && shared
                        .ckpt_next
                        .compare_exchange(
                            due,
                            len + cfg.every_states,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_ok()
                {
                    shared.ckpt_requested.store(true, Ordering::SeqCst);
                    continue;
                }
            }
            if shared.has_error.load(Ordering::SeqCst) {
                break;
            }
            // Injectable fault at the same cadence the governor polls:
            // error kinds stop this worker (peers drain via has_error),
            // panic kinds unwind into ExitGuard + the join containment.
            if let Err(fault) = sfa_sync::fault_point!("construct/worker") {
                self.record_error(SfaError::Io(fault.to_string()));
                break;
            }
            if governed {
                // One poll per loop turn (≈ one per work item): budget
                // axes and the cancel token are polled against the live
                // arena and memory-manager counters.
                if let Err(e) = shared.governor.check(len, shared.store.resident_bytes()) {
                    self.record_error(e);
                    break;
                }
            }
            // Spill trigger (tier 3), at the same per-item cadence: once
            // the arena is compressed, the store says when a stop-the-world
            // spill pass is due.
            if shared.phase.load(Ordering::SeqCst) == PHASE_COMPRESSED && shared.store.spill_due() {
                shared.spill_requested.store(true, Ordering::SeqCst);
                continue;
            }
            match self.obtain_work() {
                Some(item) => {
                    backoff.reset();
                    let blocks = shared.opts.symbol_blocks as u32;
                    let (id, block) = (item / blocks, item % blocks);
                    if let Err(e) = self.process(
                        id,
                        block,
                        &stats,
                        &mut rows_u32,
                        &mut transposed,
                        &mut read_buf,
                        &mut elems_scratch,
                    ) {
                        self.record_error(e);
                    }
                    shared.pending.fetch_sub(1, Ordering::SeqCst);
                }
                None => {
                    if shared.pending.load(Ordering::SeqCst) == 0 {
                        // Re-check the flags: a compression or checkpoint
                        // request is ordered before the pending decrement
                        // that made us see 0 (all SeqCst), so this cannot
                        // miss one.
                        if shared.phase.load(Ordering::SeqCst) == PHASE_COMPRESS_REQUESTED
                            || shared.ckpt_requested.load(Ordering::SeqCst)
                            || shared.spill_requested.load(Ordering::SeqCst)
                        {
                            continue;
                        }
                        break;
                    }
                    backoff.spin();
                }
            }
        }
        let snap = self.deque.counters().snapshot();
        (stats, snap)
    }

    fn obtain_work(&self) -> Option<u32> {
        let shared = self.shared;
        match shared.opts.scheduler {
            Scheduler::SharedMpmc => shared.mpmc.dequeue(),
            Scheduler::GlobalOnly => shared.global_q.dequeue().or_else(|| self.deque.pop()),
            Scheduler::WorkStealing => {
                if let Some(id) = self.deque.pop() {
                    return Some(id);
                }
                if let Some(id) = shared.global_q.dequeue() {
                    return Some(id);
                }
                for victim in &self.victims {
                    loop {
                        match victim.steal() {
                            Steal::Success(id) => return Some(id),
                            Steal::Retry => continue,
                            Steal::Empty => break,
                        }
                    }
                }
                None
            }
        }
    }

    fn dispatch_work(&self, id: u32) {
        let shared = self.shared;
        match shared.opts.scheduler {
            Scheduler::SharedMpmc => shared.mpmc.enqueue(id),
            Scheduler::GlobalOnly => {
                if let sfa_sync::global_queue::Enqueue::Full = shared.global_q.enqueue(id) {
                    // Sized to the state budget, so Full implies budget
                    // exhaustion races; fall back to the local deque.
                    self.deque.push(id);
                }
            }
            Scheduler::WorkStealing => {
                // Start-up phase: the single global queue statically
                // distributes the first states; once it fills, switch to
                // the thread-local deques for good (§III-B2).
                if !shared.switched.load(Ordering::Relaxed) {
                    match shared.global_q.enqueue(id) {
                        sfa_sync::global_queue::Enqueue::Ok => return,
                        sfa_sync::global_queue::Enqueue::Full => {
                            shared.switched.store(true, Ordering::Relaxed);
                        }
                    }
                }
                self.deque.push(id);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn process(
        &self,
        id: u32,
        block: u32,
        stats: &InternStats,
        rows_u32: &mut [u32],
        transposed: &mut [E],
        read_buf: &mut ReadBuf,
        elems_scratch: &mut Vec<E>,
    ) -> Result<(), SfaError> {
        let shared = self.shared;
        let store = &shared.store;
        let n = shared.n;
        let k = shared.k;
        let blocks = shared.opts.symbol_blocks;
        let compressed_mode = shared.phase.load(Ordering::SeqCst) == PHASE_COMPRESSED;

        // Source mapping → u32 rows. `read_buf` is free again after the
        // copy: the duplicate checks below decode residents into it.
        E::read_bytes(store.read(id, read_buf)?, elems_scratch);
        for (r, e) in rows_u32.iter_mut().zip(elems_scratch.iter()) {
            *r = e.to_u32();
        }

        // Symbol range of this work item: the whole alphabet for the
        // coarse-grained default, one block of it for medium granularity.
        let per_block = k.div_ceil(blocks);
        let sym_lo = block as usize * per_block;
        let sym_hi = (sym_lo + per_block).min(k);

        if blocks == 1 {
            // All |Σ| successors at once (parameterized transposition).
            E::transpose_gather(&shared.table_typed, k, rows_u32, transposed);
        } else {
            // Medium-grained: generate this block symbol-by-symbol
            // (line 6 of Algorithm 1); the transposition kernel's
            // locality is the price of the finer distribution (§III-B1).
            for sym in sym_lo..sym_hi {
                for (i, &q) in rows_u32.iter().enumerate() {
                    transposed[sym * n + i] = shared.table_typed[q as usize * k + sym];
                }
            }
        }

        for sym in sym_lo..sym_hi {
            let cand = E::as_bytes(&transposed[sym * n..(sym + 1) * n]);
            let fp = self.fingerprinter.fingerprint(cand);
            // The fault site lets the regression suite force the
            // race-loser path: with it armed the store skips its duplicate
            // probe, so this worker allocates a record and then loses the
            // insert race whenever the candidate already exists — exactly
            // the arena gap pattern real CAS races produce.
            let probe_first = sfa_sync::fault_point!("construct/race").is_ok();
            let interned = store.intern(fp, cand, compressed_mode, probe_first, stats, read_buf)?;
            if interned.tripped && shared.phase.load(Ordering::SeqCst) == PHASE_RAW {
                // First crossing of the watermark: request compression.
                shared
                    .phase
                    .store(PHASE_COMPRESS_REQUESTED, Ordering::SeqCst);
            }
            store.set_succ(id, sym, interned.id);
            if interned.new {
                shared.pending.fetch_add(blocks as u64, Ordering::SeqCst);
                for blk in 0..blocks as u32 {
                    self.dispatch_work(interned.id * blocks as u32 + blk);
                }
            }
        }
        if shared.opts.probabilistic && blocks == 1 {
            // The mapping payload of a processed state is never read
            // again (identity is fingerprint-only and the final mappings
            // are reconstructed from δₛ): drop it to cap peak memory.
            // Safe: only the processing worker reads its state's payload,
            // and processing is over. (With medium granularity other
            // blocks of the same state may still need the payload, so the
            // drop is skipped — granularity 1 is the probabilistic mode's
            // intended configuration.)
            store.drop_payload(id);
        }
        Ok(())
    }

    fn record_error(&self, err: SfaError) {
        let shared = self.shared;
        let mut slot = shared.error.lock();
        if slot.is_none() {
            *slot = Some(err);
        }
        shared.has_error.store(true, Ordering::SeqCst);
    }

    /// Converge the workers for the stop-the-world sub-protocols. Both
    /// the compression request and a checkpoint request funnel through
    /// this single entry barrier: if each protocol had its own quiesce
    /// barrier, workers racing toward different protocols would merge
    /// into one barrier generation and corrupt both (e.g. a checkpoint
    /// reader scanning mappings while a compression peer swaps them).
    ///
    /// After R1 no worker is processing a state, so `phase` and
    /// `ckpt_requested` are frozen: every worker latches identical
    /// booleans and therefore executes an identical barrier sequence —
    /// compression first (it changes the stored representation), then
    /// the checkpoint snapshot (which must read a settled arena).
    fn rendezvous(&self) {
        let shared = self.shared;
        // R1: quiesce.
        shared.barrier.wait();
        let compress = shared.phase.load(Ordering::SeqCst) == PHASE_COMPRESS_REQUESTED;
        let ckpt = shared.ckpt_requested.load(Ordering::SeqCst);
        let spill = shared.spill_requested.load(Ordering::SeqCst);
        // R1b: everyone has latched the flags before anyone may mutate
        // them. Without this, the checkpoint writer's CAS (which clears
        // `ckpt_requested` inside `participate_checkpoint`) can race a
        // slow worker that hasn't latched yet — that worker would read
        // `ckpt = false`, skip R2, and re-enter the main loop while the
        // snapshot is still being written, merging barrier generations
        // (and, transitively, allowing two concurrent writers on the
        // same checkpoint path). Between R1 and R1b both flags are
        // stable: every registered worker is inside this protocol, and
        // the only mutators (the writer CAS, the compression leader's
        // phase switch) run strictly after R1b.
        shared.barrier.wait();
        if compress {
            self.participate_compression();
        }
        if spill {
            // After compression (the pass demotes compressed payloads)
            // and before a checkpoint snapshot (which reads through the
            // markers the pass installs).
            self.participate_spill();
        }
        if ckpt {
            self.participate_checkpoint();
        }
    }

    /// The stop-the-world compression phase (§III-C). Entered from
    /// [`WorkerCtx::rendezvous`] with all workers quiesced (R1); between
    /// the barriers nobody processes states, so mapping buffers can be
    /// swapped and freed safely. Unlike the paper's, the phase only
    /// re-encodes: the hash table compares plaintext in every phase.
    fn participate_compression(&self) {
        let shared = self.shared;
        let threads = shared.opts.threads;
        // Leader election by CAS, not worker index: worker 0 may already
        // have exited (error path), and an absent leader would leave the
        // phase flag stuck at COMPRESS_REQUESTED — the survivors would
        // re-enter this protocol forever. Compression is one-shot per
        // run, so a plain latch suffices.
        let leader = shared
            .compress_leader
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        if leader {
            shared.clock.lock().compression_start = Some(Instant::now());
        }
        let total = shared.store.len();
        let governed = !shared.governor.is_unlimited();
        // Jointly compress: worker w takes ids ≡ w (mod threads). A
        // worker that observes budget exhaustion or cancellation here
        // records the error and skips its remaining partition, but still
        // completes the whole barrier protocol — leaving the quorum
        // mid-phase could strand peers, and on the error path the
        // automaton is discarded anyway, so the skipped work is moot.
        for (processed, id) in (self.index..total).step_by(threads).enumerate() {
            if shared.has_error.load(Ordering::SeqCst) {
                break;
            }
            if governed && processed.is_multiple_of(64) {
                if let Err(e) = shared
                    .governor
                    .check(shared.store.len() as u64, shared.store.resident_bytes())
                {
                    self.record_error(e);
                    break;
                }
            }
            shared.store.compress(id as u32);
        }
        // C1: all states re-encoded.
        shared.barrier.wait();
        if leader {
            shared.clock.lock().compression_end = Some(Instant::now());
            shared.phase.store(PHASE_COMPRESSED, Ordering::SeqCst);
        }
        // C2: phase switch visible to everyone.
        shared.barrier.wait();
    }

    /// The stop-the-world spill pass (tier 3 of `crate::store`). Entered
    /// from [`WorkerCtx::rendezvous`] with all workers quiesced, so the
    /// store can swap payloads for spill markers safely. One leader — the
    /// CAS winner that clears the request flag — demotes; the closing
    /// barrier releases everyone.
    fn participate_spill(&self) {
        let shared = self.shared;
        let leader = shared
            .spill_requested
            .compare_exchange(true, false, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        if leader && !shared.has_error.load(Ordering::SeqCst) {
            if let Err(e) = shared.store.demote_oldest() {
                self.record_error(e);
            }
        }
        // Release the quiesced peers.
        shared.barrier.wait();
    }

    /// The stop-the-world checkpoint snapshot. Entered from
    /// [`WorkerCtx::rendezvous`] with all workers quiesced (R1, plus the
    /// compression sub-protocol when both were requested), so the arena
    /// is settled and the canonical prefix is stable. One worker —
    /// whichever wins the CAS that clears the request flag, NOT worker 0
    /// (which may already have exited on an error path) — snapshots and
    /// writes the artifact; the closing barrier releases everyone.
    fn participate_checkpoint(&self) {
        let shared = self.shared;
        if shared
            .ckpt_requested
            .compare_exchange(true, false, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            // A budget stop (a governor axis, the cancel token or the
            // state budget) leaves the store consistent, and a
            // peer's stop may land between the request and this
            // rendezvous: its due snapshot is still written. Any other
            // failure may have left the store half-updated, and a
            // checkpoint of it could shadow a good one.
            let consistent = shared
                .error
                .lock()
                .as_ref()
                .is_none_or(SfaError::is_degradable);
            if consistent {
                let cfg = shared
                    .ckpt
                    .as_ref()
                    .expect("checkpoint requested without a cadence config");
                if let Err(e) = self.write_checkpoint(cfg) {
                    self.record_error(e);
                }
            }
        }
        // R2: snapshot complete; peers resume.
        shared.barrier.wait();
    }

    /// Snapshot the canonical prefix to the checkpoint artifact (atomic
    /// write): `{mappings, δₛ, cursor}` in canonical order, plaintext
    /// rows, so the resuming build re-compresses under its own policy.
    fn write_checkpoint(&self, cfg: &CheckpointConfig) -> Result<(), SfaError> {
        sfa_sync::fault_point!("checkpoint/write")
            .map_err(|e| SfaError::Artifact(IoError::Io(e.to_string())))?;
        let shared = self.shared;
        let snap = shared.store.snapshot::<E>(false)?;
        let Rows::Plain(flat) = snap.rows else {
            unreachable!("checkpointed builds keep their payloads")
        };
        let ckpt = Checkpoint {
            dfa_states: shared.n as u32,
            symbols: shared.k as u32,
            elem_bytes: E::BYTES as u8,
            processed: snap.processed as u64,
            num_states: (snap.delta.len() / shared.k) as u64,
            dfa_crc: shared.dfa_crc,
            delta: snap.delta,
            mappings_le: artifact::mappings_to_le(&flat),
        };
        artifact::write_checkpoint(&cfg.path, &ckpt).map_err(SfaError::Artifact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::SequentialVariant;
    use sfa_automata::alphabet::Alphabet;
    use sfa_automata::pipeline::Pipeline;

    fn rg_dfa() -> Dfa {
        Pipeline::search(Alphabet::amino_acids())
            .compile_str("RG")
            .unwrap()
    }

    fn assert_equivalent(dfa: &Dfa, opts: &ParallelOptions) {
        let seq = Sfa::builder(dfa)
            .sequential(SequentialVariant::Transposed)
            .build()
            .unwrap();
        let par = Sfa::builder(dfa).options(opts).build().unwrap();
        assert_eq!(
            seq.sfa.num_states(),
            par.sfa.num_states(),
            "state count mismatch under {opts:?}"
        );
        par.sfa.validate(dfa).unwrap();
    }

    #[test]
    fn single_thread_matches_sequential() {
        assert_equivalent(&rg_dfa(), &ParallelOptions::with_threads(1));
    }

    #[test]
    fn multi_thread_matches_sequential() {
        for threads in [2, 4, 8] {
            assert_equivalent(&rg_dfa(), &ParallelOptions::with_threads(threads));
        }
    }

    #[test]
    fn larger_pattern_all_schedulers() {
        let dfa = Pipeline::search(Alphabet::amino_acids())
            .compile_str("R[GA]{2}N")
            .unwrap();
        for scheduler in [
            Scheduler::WorkStealing,
            Scheduler::GlobalOnly,
            Scheduler::SharedMpmc,
        ] {
            let opts = ParallelOptions::with_threads(4).scheduler(scheduler);
            assert_equivalent(&dfa, &opts);
        }
    }

    #[test]
    fn tiny_global_queue_forces_early_switch() {
        let mut opts = ParallelOptions::with_threads(4);
        opts.global_queue_capacity = 2;
        assert_equivalent(&rg_dfa(), &opts);
    }

    #[test]
    fn compression_from_start_matches() {
        let dfa = rg_dfa();
        let opts = ParallelOptions::with_threads(2).compression(CompressionPolicy::FromStart);
        let par = Sfa::builder(&dfa).options(&opts).build().unwrap();
        assert!(par.sfa.is_compressed());
        let seq = Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .build()
            .unwrap();
        assert_eq!(par.sfa.num_states(), seq.sfa.num_states());
        par.sfa.validate(&dfa).unwrap();
    }

    #[test]
    fn three_phase_compression_trips_mid_run() {
        // r100 generates enough states with 204-byte vectors; the tiny
        // watermark trips compression early.
        let dfa = sfa_automata::random::rn(100);
        let opts = ParallelOptions::with_threads(4)
            .compression(CompressionPolicy::WhenMemoryExceeds(4096));
        let par = Sfa::builder(&dfa).options(&opts).build().unwrap();
        assert!(par.stats.compressed, "compression phase must have run");
        assert!(par.sfa.is_compressed());
        assert!(par.stats.compression_secs >= 0.0);
        let seq = Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .build()
            .unwrap();
        assert_eq!(par.sfa.num_states(), seq.sfa.num_states());
        par.sfa.validate(&dfa).unwrap();
        // Ratio sanity: sink-dominated states compress well.
        assert!(par.stats.compression_ratio() > 4.0);
    }

    #[test]
    fn budget_exhaustion_reports_error() {
        let dfa = rg_dfa();
        let opts = ParallelOptions::with_threads(2).state_budget(3);
        match Sfa::builder(&dfa).options(&opts).build() {
            Err(SfaError::StateBudgetExceeded { budget: 3 }) => {}
            Err(other) => panic!("expected budget error, got {other:?}"),
            Ok(r) => panic!("expected budget error, got {} states", r.sfa.num_states()),
        }
    }

    #[test]
    fn zero_threads_rejected() {
        let err = Sfa::builder(&rg_dfa())
            .options(&ParallelOptions::with_threads(0))
            .build()
            .unwrap_err();
        assert_eq!(err, SfaError::NoThreads);
    }

    #[test]
    fn fingerprint_ablation_matches() {
        let dfa = rg_dfa();
        let mut opts = ParallelOptions::with_threads(2);
        opts.fingerprint_short_circuit = false;
        let par = Sfa::builder(&dfa).options(&opts).build().unwrap();
        par.sfa.validate(&dfa).unwrap();
        // Without the short-circuit every chain entry is byte-compared.
        assert!(par.stats.exhaustive_compares >= par.stats.duplicates);
    }

    #[test]
    fn stats_are_plausible() {
        let dfa = rg_dfa();
        let par = Sfa::builder(&dfa)
            .options(&ParallelOptions::with_threads(2))
            .build()
            .unwrap();
        assert_eq!(par.stats.states, 6);
        assert_eq!(par.stats.candidates, 6 * 20);
        assert_eq!(
            par.stats.duplicates,
            par.stats.candidates - (par.stats.states - 1)
        );
        assert!(par.stats.total_secs > 0.0);
    }
}

#[cfg(test)]
mod probabilistic_tests {
    use super::*;
    use crate::sequential::SequentialVariant;

    #[test]
    fn probabilistic_matches_exact_on_rn() {
        let dfa = sfa_automata::random::rn(60);
        let exact = Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .build()
            .unwrap();
        for algo in [FingerprintAlgo::City, FingerprintAlgo::Rabin] {
            let opts = ParallelOptions::with_threads(4).probabilistic(algo);
            let prob = Sfa::builder(&dfa).options(&opts).build().unwrap();
            // 64-bit fingerprints over a few thousand states: a collision
            // would be a genuine bug signal at these sizes.
            assert_eq!(prob.sfa.num_states(), exact.sfa.num_states(), "{algo:?}");
            // Reconstructed mappings must be fully consistent.
            prob.sfa.validate(&dfa).unwrap();
        }
    }

    #[test]
    fn probabilistic_reduces_peak_memory() {
        let dfa = sfa_automata::random::rn(100);
        let exact = Sfa::builder(&dfa)
            .options(&ParallelOptions::with_threads(2))
            .build()
            .unwrap();
        let prob = Sfa::builder(&dfa)
            .options(&ParallelOptions::with_threads(2).probabilistic(FingerprintAlgo::Rabin))
            .build()
            .unwrap();
        assert_eq!(prob.sfa.num_states(), exact.sfa.num_states());
        assert!(
            prob.stats.peak_bytes * 4 < exact.stats.peak_bytes,
            "probabilistic peak {} not well below exact peak {}",
            prob.stats.peak_bytes,
            exact.stats.peak_bytes
        );
    }

    #[test]
    fn probabilistic_rejects_compression() {
        let dfa = sfa_automata::random::rn(20);
        let mut opts = ParallelOptions::with_threads(2).probabilistic(FingerprintAlgo::City);
        opts.compression = CompressionPolicy::FromStart;
        assert_eq!(
            Sfa::builder(&dfa).options(&opts).build().unwrap_err(),
            SfaError::InvalidOptions("probabilistic mode stores no payloads to compress")
        );
    }

    #[test]
    fn probabilistic_matching_agrees() {
        let dfa = sfa_automata::random::rn(40);
        let opts = ParallelOptions::with_threads(2).probabilistic(FingerprintAlgo::City);
        let sfa = Sfa::builder(&dfa).options(&opts).build().unwrap().sfa;
        let text = sfa_workloads::protein_text(20_000, 5);
        assert_eq!(
            crate::matcher::match_with_sfa(&sfa, &dfa, &text, 4),
            crate::matcher::match_sequential(&dfa, &text)
        );
    }
}

#[cfg(test)]
mod granularity_tests {
    use super::*;
    use crate::sequential::SequentialVariant;

    #[test]
    fn medium_grained_matches_coarse() {
        let dfa = sfa_automata::random::rn(50);
        let expected = Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .build()
            .unwrap()
            .sfa
            .num_states();
        for blocks in [1usize, 2, 4, 5, 20] {
            for threads in [1usize, 4] {
                let opts = ParallelOptions::with_threads(threads).symbol_blocks(blocks);
                let r = Sfa::builder(&dfa).options(&opts).build().unwrap();
                assert_eq!(
                    r.sfa.num_states(),
                    expected,
                    "blocks {blocks} threads {threads}"
                );
                r.sfa.validate(&dfa).unwrap();
            }
        }
    }

    #[test]
    fn medium_grained_with_compression() {
        let dfa = sfa_automata::random::rn(60);
        let expected = Sfa::builder(&dfa)
            .options(&ParallelOptions::with_threads(2))
            .build()
            .unwrap()
            .sfa
            .num_states();
        let opts = ParallelOptions::with_threads(4)
            .symbol_blocks(4)
            .compression(CompressionPolicy::WhenMemoryExceeds(1 << 13));
        let r = Sfa::builder(&dfa).options(&opts).build().unwrap();
        assert_eq!(r.sfa.num_states(), expected);
        assert!(r.stats.compressed);
        r.sfa.validate(&dfa).unwrap();
    }

    #[test]
    fn invalid_block_counts_rejected() {
        let dfa = sfa_automata::random::rn(10);
        for blocks in [0usize, 21, 100] {
            let opts = ParallelOptions::with_threads(2).symbol_blocks(blocks);
            assert!(matches!(
                Sfa::builder(&dfa).options(&opts).build(),
                Err(SfaError::InvalidOptions(_))
            ));
        }
    }

    #[test]
    fn candidate_stats_account_for_blocks() {
        let dfa = sfa_automata::random::rn(30);
        let coarse = Sfa::builder(&dfa)
            .options(&ParallelOptions::with_threads(2))
            .build()
            .unwrap();
        let medium = Sfa::builder(&dfa)
            .options(&ParallelOptions::with_threads(2).symbol_blocks(4))
            .build()
            .unwrap();
        // Same candidates in total regardless of granularity.
        assert_eq!(coarse.stats.candidates, medium.stats.candidates);
        assert_eq!(coarse.stats.states, medium.stats.states);
    }
}

#[cfg(test)]
mod error_robustness_tests {
    use super::*;

    #[test]
    fn budget_error_racing_compression_request_does_not_deadlock() {
        // Regression: a worker exiting on StateBudgetExceeded while a peer
        // trips the compression watermark used to strand the fixed-count
        // barrier forever. The quorum-aware PhaseBarrier must let the run
        // finish with the budget error instead.
        let dfa = sfa_automata::random::rn(120);
        for _ in 0..5 {
            let opts = ParallelOptions::with_threads(4)
                .state_budget(400)
                .compression(CompressionPolicy::WhenMemoryExceeds(16 * 1024));
            match Sfa::builder(&dfa).options(&opts).build() {
                Err(SfaError::StateBudgetExceeded { budget: 400 }) => {}
                other => panic!("expected budget error, got {:?}", other.map(|r| r.stats)),
            }
        }
    }

    #[test]
    fn watermark_below_first_state_still_compresses() {
        // Regression: the seed state's charge used to consume the one-shot
        // watermark trip, so a watermark smaller than the first state
        // meant compression never ran.
        let dfa = sfa_automata::random::rn(80);
        let opts =
            ParallelOptions::with_threads(2).compression(CompressionPolicy::WhenMemoryExceeds(1));
        let r = Sfa::builder(&dfa).options(&opts).build().unwrap();
        assert!(r.stats.compressed, "compression must trigger");
        assert!(r.sfa.is_compressed());
        r.sfa.validate(&dfa).unwrap();
    }

    #[test]
    fn seed_items_survive_tiny_global_queue_with_blocks() {
        // Regression: seeding `blocks` items into a smaller global queue
        // silently dropped work and hung the run.
        let dfa = sfa_automata::random::rn(40);
        let mut opts = ParallelOptions::with_threads(2).symbol_blocks(8);
        opts.global_queue_capacity = 1;
        let r = Sfa::builder(&dfa).options(&opts).build().unwrap();
        r.sfa.validate(&dfa).unwrap();
    }

    #[test]
    fn memory_accounting_balances_over_racy_builds() {
        // Regression (tiered-store PR): race-loser records must uncharge
        // their payload when they lose the insert CAS. Before the fix,
        // `used` drifted up by one payload per lost race, inflating
        // spill-tier pressure for the rest of the build. With balanced
        // accounting, resident bytes at harvest equal the retained
        // store's bytes exactly — for any racy schedule.
        let dfa = sfa_automata::random::rn(60);
        for _ in 0..3 {
            let r = Sfa::builder(&dfa)
                .options(&ParallelOptions::with_threads(8))
                .build()
                .unwrap();
            assert_eq!(
                r.stats.resident_bytes, r.stats.stored_bytes,
                "charge/uncharge must balance over a racy parallel build"
            );
        }
    }

    #[test]
    fn memory_accounting_balances_after_compression() {
        // The same balance with the compressed tier in play: race losers,
        // the compression phase re-encoding raw payloads, and phase-3
        // payloads inserted compressed.
        let policies = [
            CompressionPolicy::WhenMemoryExceeds(4096),
            CompressionPolicy::FromStart,
        ];
        for (n, threads) in [(60, 8), (80, 4), (120, 2)] {
            let dfa = sfa_automata::random::rn(n);
            for policy in policies.into_iter().flat_map(|p| [p; 3]) {
                let opts = ParallelOptions::with_threads(threads).compression(policy);
                let s = Sfa::builder(&dfa).options(&opts).build().unwrap().stats;
                assert!(s.compressed, "rn({n}) {policy:?}");
                let context = format!("rn({n}) at {threads} threads under {policy:?}");
                assert_eq!(s.resident_bytes, s.stored_bytes, "{context}");
            }
        }
    }

    #[test]
    fn memory_accounting_credits_race_losers() {
        // After a run with no compression, `used` accounting should equal
        // live payload bytes (losers credited back), so peak ≥ used and
        // used ≈ states × state size.
        let dfa = sfa_automata::random::rn(60);
        let r = Sfa::builder(&dfa)
            .options(&ParallelOptions::with_threads(4))
            .build()
            .unwrap();
        assert!(r.stats.peak_bytes >= r.stats.uncompressed_bytes);
        // Peak can exceed live bytes by at most the transient losers.
        assert!(r.stats.peak_bytes < r.stats.uncompressed_bytes * 2);
    }
}

#[cfg(test)]
mod spill_tests {
    use super::*;
    use crate::budget::Budget;
    use crate::io;
    use sfa_workloads::ScratchDir;

    /// A build of `dfa` under `opts` whose payload-byte budget `cap` is
    /// the spill watermark.
    fn capped(dfa: &Dfa, opts: &ParallelOptions, cap: u64) -> Result<ConstructionResult, SfaError> {
        Sfa::builder(dfa)
            .options(opts)
            .budget(Budget::unlimited().with_max_payload_bytes(cap))
            .build()
    }

    #[test]
    fn capped_build_is_byte_identical_to_uncapped() {
        let dfa = sfa_automata::random::rn(120);
        let uncapped = Sfa::builder(&dfa)
            .options(&ParallelOptions::with_threads(4))
            .build()
            .unwrap();
        // A cap at 1/20th of the retained plaintext bytes sits well below
        // what even the compressed tier needs resident, forcing passes
        // all the way down to disk.
        let cap = (uncapped.stats.stored_bytes / 20).max(1);
        let dir = ScratchDir::new("par_spill_ident");
        let opts = ParallelOptions::with_threads(4).spill(dir.path());
        let capped = capped(&dfa, &opts, cap).unwrap();
        assert!(capped.stats.compressed, "cap must trip the compressed tier");
        assert!(
            capped.stats.demotions > 0 && capped.stats.spilled_bytes > 0,
            "cap must reach the disk tier (demotions {}, spilled {})",
            capped.stats.demotions,
            capped.stats.spilled_bytes
        );
        assert!(
            capped.stats.resident_bytes < uncapped.stats.stored_bytes,
            "spilling must shed resident bytes"
        );
        // The headline guarantee: the serialized artifact is unchanged by
        // the whole demotion/promotion schedule.
        assert_eq!(
            io::to_bytes(&capped.sfa),
            io::to_bytes(&uncapped.sfa),
            "capped artifact must be byte-identical to the uncapped one"
        );
        capped.sfa.validate(&dfa).unwrap();
    }

    #[test]
    fn spilled_frontier_states_promote_on_access() {
        // A tiny cap spills unprocessed frontier states, so workers must
        // fetch (and re-install) them to continue — promotions happen.
        let dfa = sfa_automata::random::rn(100);
        let dir = ScratchDir::new("par_spill_promote");
        let opts = ParallelOptions::with_threads(2).spill(dir.path());
        let r = capped(&dfa, &opts, 2048).unwrap();
        assert!(r.stats.spilled_bytes > 0);
        assert!(
            r.stats.promotions > 0,
            "spilled frontier must have been promoted back on access"
        );
        r.sfa.validate(&dfa).unwrap();
    }

    #[test]
    fn spill_rejects_probabilistic() {
        let dfa = sfa_automata::random::rn(20);
        let dir = ScratchDir::new("par_spill_prob");
        let opts = ParallelOptions::with_threads(2)
            .probabilistic(FingerprintAlgo::City)
            .spill(dir.path());
        assert!(matches!(
            capped(&dfa, &opts, 1024),
            Err(SfaError::InvalidOptions(_))
        ));
    }

    #[test]
    fn spill_dir_unavailable_is_typed() {
        // A path under a *file* can never become a directory.
        let dir = ScratchDir::new("par_spill_blocker");
        let blocker = dir.join("blocker");
        std::fs::write(&blocker, b"not a dir").unwrap();
        let dfa = sfa_automata::random::rn(20);
        let opts = ParallelOptions::with_threads(2).spill(blocker.join("sub"));
        match capped(&dfa, &opts, 1024) {
            Err(SfaError::SpillDirUnavailable { .. }) => {}
            other => panic!("expected SpillDirUnavailable, got {other:?}"),
        }
    }
}
