//! Tiered state storage — graceful degradation under memory pressure.
//!
//! The paper's memory manager (§III-C) has exactly two tiers: raw state
//! vectors, and — once the watermark trips — codec-compressed vectors.
//! Past that point a crossed payload budget was a hard
//! [`SfaError::BudgetExceeded`]. This module adds the third rung of the
//! ladder and turns the budget into a *demotion driver*:
//!
//! ```text
//! hot (raw arena)  →  compressed (in-memory, sfa_compress)  →  spilled
//!                                                              (mmap'd
//!                                                              file)
//! ```
//!
//! Demotion is cap-driven (`MemoryManager::over_limit`), promotion is
//! access-driven: touching a spilled payload fetches its bytes back
//! (and, in the parallel engine, re-installs them in the arena). Every
//! tier transition moves *byte-identical* payloads — the codecs are
//! lossless and the spill file stores the exact compressed blob that was
//! resident — so the constructed state graph, the canonical renumbering,
//! and therefore the final artifact are unchanged by any demotion
//! schedule. Spill files are scratch (checkpoints remain the durable
//! artifact): they are written through [`crate::io::atomic_write`], so a
//! crash mid-spill leaves at most a `.tmp` sibling, and a fresh
//! [`SpillStore`] sweeps stale segments on creation.
//!
//! Fault sites: `store/demote` (before a segment write), `store/promote`
//! (before a spilled fetch), `io/mmap` (inside [`crate::io::Mmap`]).
//! Transient faults are absorbed by the bounded-backoff
//! [`RetryPolicy`]; everything else surfaces typed.

use crate::elem::Elem;
use crate::io::{self, IoError, Mmap};
use crate::memory::MemoryManager;
use crate::runtime::RetryPolicy;
use crate::sfa::CodecChoice;
use crate::SfaError;
use sfa_compress::Codec;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

// Global-registry tier metrics (DESIGN.md §12). Gauges are set by the
// engines at demotion points; counters/histogram by the store itself.
static OBS_HOT_BYTES: crate::obs::LazyGauge = crate::obs::LazyGauge::new("sfa_store_hot_bytes");
static OBS_COMPRESSED_BYTES: crate::obs::LazyGauge =
    crate::obs::LazyGauge::new("sfa_store_compressed_bytes");
static OBS_SPILLED_BYTES: crate::obs::LazyGauge =
    crate::obs::LazyGauge::new("sfa_store_spilled_bytes");
static OBS_DEMOTIONS: crate::obs::LazyCounter =
    crate::obs::LazyCounter::new("sfa_store_demotions_total");
static OBS_PROMOTIONS: crate::obs::LazyCounter =
    crate::obs::LazyCounter::new("sfa_store_promotions_total");
static OBS_SPILL_WRITE_NANOS: crate::obs::LazyHistogram =
    crate::obs::LazyHistogram::new("sfa_store_spill_write_nanos");

/// Publish the per-tier byte gauges (engines call this whenever a tier
/// transition changes the split).
pub(crate) fn publish_tier_gauges(hot: u64, compressed: u64, spilled: u64) {
    OBS_HOT_BYTES.set(hot.min(i64::MAX as u64) as i64);
    OBS_COMPRESSED_BYTES.set(compressed.min(i64::MAX as u64) as i64);
    OBS_SPILLED_BYTES.set(spilled.min(i64::MAX as u64) as i64);
}

/// Configuration of the spill tier: where segments go and how many
/// resident payload bytes to allow before demoting. The compressed tier
/// uses the build's codec (`ParallelOptions::codec`), and spill I/O
/// retries transient errors under [`RetryPolicy::default`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillConfig {
    /// Directory the spill segments are written to (created if missing;
    /// must be writable — probed up front, see
    /// [`SfaError::SpillDirUnavailable`](crate::SfaError)).
    pub dir: PathBuf,
    /// Resident payload-byte watermark that drives demotion.
    pub cap_bytes: u64,
}

impl SpillConfig {
    /// Spill to `dir`, demoting once resident payloads exceed `cap_bytes`.
    pub fn new(dir: impl Into<PathBuf>, cap_bytes: u64) -> SpillConfig {
        SpillConfig {
            dir: dir.into(),
            cap_bytes,
        }
    }
}

/// Location of one spilled payload inside a [`SpillStore`] segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillRef {
    /// Segment index.
    pub seg: u32,
    /// Byte offset inside the segment.
    pub off: u32,
    /// Payload length in bytes.
    pub len: u32,
}

/// Retry `f` under `policy`, sleeping the exponential backoff between
/// transient failures (`Interrupted`/`WouldBlock`/`TimedOut`).
fn retry_io<T>(
    policy: &RetryPolicy,
    mut f: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<T> {
    let mut attempt = 1u32;
    loop {
        match f() {
            Ok(v) => return Ok(v),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::Interrupted
                        | std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                ) && attempt < policy.max_attempts =>
            {
                std::thread::sleep(policy.backoff(attempt));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

fn spill_io_error(e: std::io::Error) -> SfaError {
    SfaError::Artifact(IoError::Io(format!("spill tier: {e}")))
}

/// The disk tier: immutable append-only segments of compressed state
/// payloads, written atomically and read back through a memory map.
/// Thread-safe — the parallel engine's spill leader writes segments at
/// quiescence while any worker may fetch concurrently afterwards.
#[derive(Debug)]
pub struct SpillStore {
    dir: PathBuf,
    retry: RetryPolicy,
    segments: RwLock<Vec<Mmap>>,
    spilled_bytes: AtomicU64,
    demotions: AtomicU64,
    promotions: AtomicU64,
}

impl SpillStore {
    /// Open the spill directory: create it if missing, sweep stale
    /// `seg-*.spill` segments (and `.tmp` siblings) left by a killed
    /// predecessor, and probe writability — a read-only filesystem is
    /// rejected here, typed, before any construction work starts.
    pub fn create(dir: &Path, retry: RetryPolicy) -> Result<SpillStore, SfaError> {
        let unavailable = |reason: String| SfaError::SpillDirUnavailable {
            path: dir.to_path_buf(),
            reason,
        };
        std::fs::create_dir_all(dir).map_err(|e| unavailable(e.to_string()))?;
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.ends_with(".spill") || name.ends_with(".spill.tmp") {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        let probe = dir.join(".probe.spill");
        io::atomic_write(&probe, b"sfa-spill-probe").map_err(|e| unavailable(e.to_string()))?;
        std::fs::remove_file(&probe).map_err(|e| unavailable(e.to_string()))?;
        Ok(SpillStore {
            dir: dir.to_path_buf(),
            retry,
            segments: RwLock::new(Vec::new()),
            spilled_bytes: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
        })
    }

    /// Atomically write one segment holding `records` demoted payloads
    /// and map it back in; returns the segment index for [`SpillRef`]s.
    ///
    /// Fault sites: `store/demote` (before the write), `io/mmap` (inside
    /// the map-back). Transients are retried per the policy.
    pub fn write_segment(&self, bytes: &[u8], records: u64) -> Result<u32, SfaError> {
        // Poison-tolerant: a panic under this lock (e.g. an injected
        // crash inside the write) can only happen before the push, so
        // the segment list is still consistent for survivors and Drop.
        let mut segments = self
            .segments
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let seg = segments.len() as u32;
        let path = self.dir.join(format!("seg-{seg}.spill"));
        let watch = crate::obs::Stopwatch::start();
        retry_io(&self.retry, || {
            sfa_sync::fault_point!("store/demote")?;
            io::atomic_write(&path, bytes)
        })
        .map_err(spill_io_error)?;
        watch.record(&OBS_SPILL_WRITE_NANOS);
        let map = retry_io(&self.retry, || Mmap::open(&path)).map_err(spill_io_error)?;
        segments.push(map);
        self.spilled_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.demotions.fetch_add(records, Ordering::Relaxed);
        OBS_DEMOTIONS.add(records);
        Ok(seg)
    }

    /// Fetch the payload at `r` into `out` (cleared first). The bytes
    /// are exactly what was demoted — the promotion path's identity
    /// guarantee rests on this.
    ///
    /// Fault site: `store/promote` (before the read); transients retried.
    pub fn fetch(&self, r: SpillRef, out: &mut Vec<u8>) -> Result<(), SfaError> {
        retry_io(&self.retry, || {
            sfa_sync::fault_point!("store/promote")?;
            Ok(())
        })
        .map_err(spill_io_error)?;
        let segments = self
            .segments
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let seg = segments
            .get(r.seg as usize)
            .ok_or(SfaError::Artifact(IoError::Corrupt(
                "spill ref names a segment that was never written",
            )))?;
        let start = r.off as usize;
        let end = start + r.len as usize;
        let slice = seg
            .as_slice()
            .get(start..end)
            .ok_or(SfaError::Artifact(IoError::Corrupt(
                "spill ref exceeds its segment",
            )))?;
        out.clear();
        out.extend_from_slice(slice);
        self.promotions.fetch_add(1, Ordering::Relaxed);
        OBS_PROMOTIONS.inc();
        Ok(())
    }

    /// Total bytes written to the spill tier over the store's lifetime.
    pub fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes.load(Ordering::Relaxed)
    }

    /// Payload demotions into this store.
    pub fn demotions(&self) -> u64 {
        self.demotions.load(Ordering::Relaxed)
    }

    /// Payload fetches out of this store.
    pub fn promotions(&self) -> u64 {
        self.promotions.load(Ordering::Relaxed)
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        // Segments are scratch: unmap, then sweep the files. Tolerate a
        // poisoned lock — a crashed writer left the list consistent, and
        // panicking here during an unwind would abort the process.
        self.segments
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
        for seg in 0.. {
            let path = self.dir.join(format!("seg-{seg}.spill"));
            if std::fs::remove_file(&path).is_err() {
                break;
            }
        }
    }
}

/// Decoded-batch cache entries the sequential tier keeps hot.
const CACHE_BATCHES: usize = 2;
/// Target frozen-batch payload size in bytes.
const BATCH_BYTES: usize = 32 * 1024;

/// One frozen (demoted) batch of rows.
enum Frozen {
    /// Compressed in memory (middle tier).
    Compressed(Box<[u8]>),
    /// On disk (bottom tier) — the blob in the segment is the exact
    /// compressed bytes that were resident.
    Spilled(SpillRef),
}

/// The sequential engine's mapping arena with the tier ladder attached.
///
/// Logically this is the flat `Vec<E>` of `SeqEngine` — rows addressed
/// by state id, appended at the end. Physically the oldest *complete*
/// batches (strictly below the engine's processed cursor, so the rows
/// are no longer the current source state) are demoted while the
/// resident-byte cap is exceeded: first codec-compressed in memory, then
/// spilled to disk. Reads of frozen rows go through a tiny
/// most-recently-used decoded-batch cache, which is what keeps the
/// duplicate-heavy compare traffic of sink-dominated DFAs from
/// thrashing the codec.
pub(crate) struct TieredRows<E: Elem> {
    n: usize,
    batch_rows: usize,
    /// Rows `[frozen_rows() ..)`, flat.
    hot: Vec<E>,
    frozen: Vec<Frozen>,
    codec: Option<Box<dyn Codec>>,
    spill: Option<SpillStore>,
    mem: MemoryManager,
    /// MRU-first decoded batches: `(batch index, rows)`.
    cache: Vec<(usize, Vec<E>)>,
    scratch: Vec<u8>,
    pub demotions: u64,
    pub promotions: u64,
}

impl<E: Elem> TieredRows<E> {
    /// Plain passthrough arena (no cap, no demotion) — byte-for-byte the
    /// behaviour the engine had before tiering existed.
    pub fn plain(n: usize) -> TieredRows<E> {
        TieredRows {
            n,
            batch_rows: 1,
            hot: Vec::with_capacity(n * 64),
            frozen: Vec::new(),
            codec: None,
            spill: None,
            mem: MemoryManager::new(None),
            cache: Vec::new(),
            scratch: Vec::new(),
            demotions: 0,
            promotions: 0,
        }
    }

    /// Arena with the full ladder enabled per `cfg`, compressing with
    /// `codec`.
    pub fn spilling(n: usize, cfg: &SpillConfig, codec: CodecChoice) -> Result<Self, SfaError> {
        let store = SpillStore::create(&cfg.dir, RetryPolicy::default())?;
        let row_bytes = (n * E::BYTES).max(1);
        // A batch must be small relative to the cap, or demoting one can
        // never bring usage back under it (a 32 KiB batch is useless
        // under a 256-byte cap); a quarter of the cap keeps several
        // batches' worth of headroom hot.
        let batch_bytes = BATCH_BYTES.min(((cfg.cap_bytes / 4) as usize).max(row_bytes));
        Ok(TieredRows {
            n,
            batch_rows: (batch_bytes / row_bytes).max(1),
            hot: Vec::with_capacity(n * 64),
            frozen: Vec::new(),
            codec: Some(codec.codec()),
            spill: Some(store),
            mem: MemoryManager::new(Some(cfg.cap_bytes as usize)),
            cache: Vec::new(),
            scratch: Vec::new(),
            demotions: 0,
            promotions: 0,
        })
    }

    fn frozen_rows(&self) -> usize {
        self.frozen.len() * self.batch_rows
    }

    /// Total rows (all tiers).
    pub fn num_rows(&self) -> usize {
        self.frozen_rows() + self.hot.len() / self.n
    }

    /// Logical payload size in elements (as if nothing were demoted).
    pub fn total_elems(&self) -> usize {
        self.num_rows() * self.n
    }

    /// Bytes currently charged as resident (hot + compressed tiers).
    pub fn resident_bytes(&self) -> u64 {
        self.mem.used()
    }

    /// High-water mark of resident bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.mem.peak()
    }

    /// Total bytes ever written to the spill tier.
    pub fn spilled_bytes(&self) -> u64 {
        self.spill.as_ref().map_or(0, |s| s.spilled_bytes())
    }

    /// Append one row at the next id.
    pub fn push_row(&mut self, row: &[E]) {
        debug_assert_eq!(row.len(), self.n);
        self.hot.extend_from_slice(row);
        self.mem.charge(row.len() * E::BYTES);
    }

    /// The row for `id`. Hot rows are a direct slice; frozen rows are
    /// decoded through the batch cache (promoting from disk if spilled).
    pub fn row(&mut self, id: usize) -> Result<&[E], SfaError> {
        let fr = self.frozen_rows();
        if id >= fr {
            let off = (id - fr) * self.n;
            return Ok(&self.hot[off..off + self.n]);
        }
        let batch = id / self.batch_rows;
        let off = (id % self.batch_rows) * self.n;
        let pos = self.cache.iter().position(|(b, _)| *b == batch);
        let pos = match pos {
            Some(p) => p,
            None => {
                let rows = self.decode_batch(batch)?;
                self.cache.insert(0, (batch, rows));
                self.cache.truncate(CACHE_BATCHES);
                0
            }
        };
        if pos != 0 {
            let entry = self.cache.remove(pos);
            self.cache.insert(0, entry);
        }
        let rows = &self.cache[0].1;
        Ok(&rows[off..off + self.n])
    }

    fn decode_batch(&mut self, batch: usize) -> Result<Vec<E>, SfaError> {
        let codec = self
            .codec
            .as_ref()
            .expect("frozen batches only exist with a codec");
        let blob: &[u8] = match &self.frozen[batch] {
            Frozen::Compressed(b) => b,
            Frozen::Spilled(r) => {
                let store = self.spill.as_ref().expect("spilled batch without a store");
                store.fetch(*r, &mut self.scratch)?;
                self.promotions += 1;
                &self.scratch
            }
        };
        let plain = codec.decompress_to_vec(blob).map_err(|_| {
            SfaError::Artifact(IoError::Corrupt("demoted batch failed to decompress"))
        })?;
        let mut rows = Vec::with_capacity(plain.len() / E::BYTES);
        E::read_bytes(&plain, &mut rows);
        Ok(rows)
    }

    /// Demote while over the cap: freeze complete batches strictly below
    /// `completed_rows` (compressing them in memory), then push the
    /// oldest compressed batches to disk if compression alone is not
    /// enough. No-op in plain mode or while under the cap.
    pub fn maybe_demote(&mut self, completed_rows: usize) -> Result<(), SfaError> {
        if self.codec.is_none() || !self.mem.over_limit() {
            return Ok(());
        }
        // Stage 1: hot → compressed.
        while self.mem.over_limit() {
            let fr = self.frozen_rows();
            if fr + self.batch_rows > completed_rows || self.hot.len() < self.batch_rows * self.n {
                break;
            }
            let take = self.batch_rows * self.n;
            let raw: Vec<E> = self.hot.drain(..take).collect();
            let codec = self.codec.as_ref().expect("checked above");
            let blob = codec.compress_to_vec(E::as_bytes(&raw)).into_boxed_slice();
            self.mem.charge(blob.len());
            self.mem.credit(take * E::BYTES);
            self.frozen.push(Frozen::Compressed(blob));
            self.demotions += 1;
        }
        // Stage 2: compressed → disk, oldest first.
        while self.mem.over_limit() {
            let Some(idx) = self
                .frozen
                .iter()
                .position(|f| matches!(f, Frozen::Compressed(_)))
            else {
                break;
            };
            let Frozen::Compressed(blob) = std::mem::replace(
                &mut self.frozen[idx],
                Frozen::Spilled(SpillRef {
                    seg: 0,
                    off: 0,
                    len: 0,
                }),
            ) else {
                unreachable!()
            };
            let store = self.spill.as_ref().expect("ladder configured with a store");
            let seg = match store.write_segment(&blob, 1) {
                Ok(seg) => seg,
                Err(e) => {
                    // Restore the tier state before surfacing: the batch
                    // is still resident and compressed.
                    self.frozen[idx] = Frozen::Compressed(blob);
                    return Err(e);
                }
            };
            self.frozen[idx] = Frozen::Spilled(SpillRef {
                seg,
                off: 0,
                len: blob.len() as u32,
            });
            self.mem.credit(blob.len());
            self.demotions += 1;
        }
        let compressed: u64 = self
            .frozen
            .iter()
            .map(|f| match f {
                Frozen::Compressed(b) => b.len() as u64,
                Frozen::Spilled(_) => 0,
            })
            .sum();
        publish_tier_gauges(
            (self.hot.len() * E::BYTES) as u64,
            compressed,
            self.spilled_bytes(),
        );
        Ok(())
    }

    /// Decode every tier back into the flat plaintext arena — the shape
    /// checkpoints persist and `finish` hands to `MappingStore`. The
    /// result is byte-identical to a run that never demoted anything.
    pub fn materialize(&mut self) -> Result<Vec<E>, SfaError> {
        let mut out = Vec::with_capacity(self.total_elems());
        for batch in 0..self.frozen.len() {
            let rows = self.decode_batch(batch)?;
            debug_assert_eq!(rows.len(), self.batch_rows * self.n);
            out.extend_from_slice(&rows);
        }
        out.extend_from_slice(&self.hot);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfa_workloads::ScratchDir;

    #[test]
    fn spill_store_round_trips_segments() {
        let scratch = ScratchDir::new("store_roundtrip");
        let dir = scratch.path();
        let store = SpillStore::create(dir, RetryPolicy::none()).unwrap();
        let seg = store.write_segment(b"hello spill tier", 2).unwrap();
        let mut out = Vec::new();
        store
            .fetch(
                SpillRef {
                    seg,
                    off: 6,
                    len: 5,
                },
                &mut out,
            )
            .unwrap();
        assert_eq!(&out, b"spill");
        assert_eq!(store.demotions(), 2);
        assert_eq!(store.promotions(), 1);
        assert_eq!(store.spilled_bytes(), 16);
        // Out-of-range refs are typed, not panics.
        assert!(store
            .fetch(
                SpillRef {
                    seg,
                    off: 10,
                    len: 100
                },
                &mut out
            )
            .is_err());
        assert!(store
            .fetch(
                SpillRef {
                    seg: 99,
                    off: 0,
                    len: 1
                },
                &mut out
            )
            .is_err());
        drop(store);
        assert!(
            !dir.join("seg-0.spill").exists(),
            "segments are swept on drop"
        );
    }

    #[test]
    fn create_sweeps_stale_segments() {
        let scratch = ScratchDir::new("store_sweep");
        let dir = scratch.path();
        std::fs::write(dir.join("seg-7.spill"), b"stale").unwrap();
        std::fs::write(dir.join("seg-7.spill.tmp"), b"torn").unwrap();
        let _store = SpillStore::create(dir, RetryPolicy::none()).unwrap();
        assert!(!dir.join("seg-7.spill").exists());
        assert!(!dir.join("seg-7.spill.tmp").exists());
    }

    #[cfg(unix)]
    #[test]
    fn read_only_dir_is_rejected_typed() {
        use std::os::unix::fs::PermissionsExt;
        let scratch = ScratchDir::new("store_readonly");
        let dir = scratch.path();
        std::fs::set_permissions(dir, std::fs::Permissions::from_mode(0o555)).unwrap();
        // Root ignores permission bits; the scenario cannot be staged.
        if std::fs::write(dir.join(".cap_probe"), b"x").is_ok() {
            return;
        }
        let err = SpillStore::create(dir, RetryPolicy::none()).unwrap_err();
        std::fs::set_permissions(dir, std::fs::Permissions::from_mode(0o755)).unwrap();
        match err {
            SfaError::SpillDirUnavailable { path, .. } => assert_eq!(path, dir),
            other => panic!("expected SpillDirUnavailable, got {other:?}"),
        }
    }

    #[test]
    fn tiered_rows_round_trip_through_all_tiers() {
        let dir = ScratchDir::new("store_tiers");
        let n = 8usize;
        // Cap small enough that most batches demote all the way to disk.
        let cfg = SpillConfig::new(dir.path(), 256);
        let mut rows = TieredRows::<u16>::spilling(n, &cfg, CodecChoice::Deflate).unwrap();
        let mut plain = TieredRows::<u16>::plain(n);
        let total = 500usize;
        for id in 0..total {
            let row: Vec<u16> = (0..n as u16)
                .map(|q| (id as u16).wrapping_mul(31) ^ q)
                .collect();
            rows.push_row(&row);
            plain.push_row(&row);
            // Everything below the freshly appended row is "completed".
            rows.maybe_demote(id).unwrap();
        }
        assert!(rows.demotions > 0, "cap must have forced demotions");
        assert!(
            rows.spilled_bytes() > 0,
            "cap must have reached the disk tier"
        );
        assert!(
            rows.resident_bytes() < (total * n * 2) as u64,
            "resident bytes must be below the logical size"
        );
        // Every row reads back identical regardless of tier...
        for id in 0..total {
            let got = rows.row(id).unwrap().to_vec();
            let want = plain.row(id).unwrap().to_vec();
            assert_eq!(got, want, "row {id}");
        }
        assert!(rows.promotions > 0, "reads touched the disk tier");
        // ...and the materialized arena is byte-identical to plain.
        assert_eq!(rows.materialize().unwrap(), plain.materialize().unwrap());
    }
}
