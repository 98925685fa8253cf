//! The spill tier — graceful degradation under memory pressure.
//!
//! The paper's memory manager (§III-C) has exactly two tiers: raw state
//! vectors, and — once the watermark trips — codec-compressed vectors.
//! Past that point a crossed payload budget was a hard
//! [`SfaError::BudgetExceeded`]. This module adds the third rung of the
//! ladder and turns the budget into a *demotion driver*:
//!
//! ```text
//! hot (raw)  →  compressed (in-memory, sfa_compress)  →  spilled (mmap'd file)
//! ```
//!
//! The ladder belongs to the parallel engine. Its state store
//! (`crate::state`) keeps the one memory ledger and moves payloads:
//! demotion is cap-driven, promotion access-driven — touching a spilled
//! payload fetches its bytes back and re-installs them in the arena.
//! The sequential engine keeps a flat arena and takes no spill directory;
//! a one-thread parallel build is its byte-identical capped stand-in.
//! Every tier transition moves *byte-identical* payloads — the codecs
//! are lossless and the spill file stores the exact compressed blob that
//! was resident — so the constructed state graph, the canonical
//! renumbering, and therefore the final artifact are unchanged by any
//! demotion schedule. Spill files are scratch (checkpoints remain the
//! durable artifact): they are written through
//! [`crate::io::atomic_write`], so a crash mid-spill leaves at most a
//! `.tmp` sibling, and a fresh segment store sweeps stale segments on
//! creation.
//!
//! Fault sites: `store/demote` (before a segment write), `store/promote`
//! (before a spilled fetch), `io/mmap` (inside [`crate::io::Mmap`]).
//! Transient faults are retried with the bounded backoff the stream
//! reader uses too (4 attempts, 5 ms doubling to 250 ms); everything
//! else surfaces typed.

use crate::io::{self, IoError, Mmap};
use crate::SfaError;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

// Global-registry tier metrics (DESIGN.md §12). The state store sets the
// gauges after a spill pass and counts re-encodes; segment writes,
// promotions and their timings are counted here.
static OBS_HOT_BYTES: crate::obs::LazyGauge = crate::obs::LazyGauge::new("sfa_store_hot_bytes");
static OBS_COMPRESSED_BYTES: crate::obs::LazyGauge =
    crate::obs::LazyGauge::new("sfa_store_compressed_bytes");
static OBS_SPILLED_BYTES: crate::obs::LazyGauge =
    crate::obs::LazyGauge::new("sfa_store_spilled_bytes");
pub(crate) static OBS_DEMOTIONS: crate::obs::LazyCounter =
    crate::obs::LazyCounter::new("sfa_store_demotions_total");
static OBS_PROMOTIONS: crate::obs::LazyCounter =
    crate::obs::LazyCounter::new("sfa_store_promotions_total");
static OBS_SPILL_WRITE_NANOS: crate::obs::LazyHistogram =
    crate::obs::LazyHistogram::new("sfa_store_spill_write_nanos");

/// Publish the per-tier byte gauges (the state store calls this whenever
/// a spill pass changes the split).
pub(crate) fn publish_tier_gauges(hot: u64, compressed: u64, spilled: u64) {
    OBS_HOT_BYTES.set(hot.min(i64::MAX as u64) as i64);
    OBS_COMPRESSED_BYTES.set(compressed.min(i64::MAX as u64) as i64);
    OBS_SPILLED_BYTES.set(spilled.min(i64::MAX as u64) as i64);
}

/// Location of one spilled payload inside a [`SpillStore`] segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SpillRef {
    /// Segment index.
    pub seg: u32,
    /// Byte offset inside the segment.
    pub off: u32,
    /// Payload length in bytes.
    pub len: u32,
}

/// Retry `f`, sleeping the shared exponential backoff
/// ([`io::retry_backoff`]) between transient failures.
fn retry_io<T>(mut f: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    let mut attempt = 1u32;
    loop {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if io::is_transient(e.kind()) && attempt < io::RETRY_ATTEMPTS => {
                std::thread::sleep(io::retry_backoff(attempt));
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
pub(crate) struct SpillStore {
    dir: PathBuf,
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
    pub(crate) fn create(dir: &Path) -> Result<SpillStore, SfaError> {
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
    /// the map-back). Transients are retried.
    pub(crate) fn write_segment(&self, bytes: &[u8], records: u64) -> Result<u32, SfaError> {
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
        retry_io(|| {
            sfa_sync::fault_point!("store/demote")?;
            io::atomic_write(&path, bytes)
        })
        .map_err(spill_io_error)?;
        watch.record(&OBS_SPILL_WRITE_NANOS);
        let map = retry_io(|| Mmap::open(&path)).map_err(spill_io_error)?;
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
    pub(crate) fn fetch(&self, r: SpillRef, out: &mut Vec<u8>) -> Result<(), SfaError> {
        retry_io(|| {
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
        Ok(())
    }

    /// Count one fetched payload re-installed in memory; a fetch that
    /// only reads is not a promotion.
    pub(crate) fn record_promotion(&self) {
        self.promotions.fetch_add(1, Ordering::Relaxed);
        OBS_PROMOTIONS.inc();
    }

    /// Total bytes written to the spill tier over the store's lifetime.
    pub(crate) fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes.load(Ordering::Relaxed)
    }

    /// Payload demotions into this store.
    pub(crate) fn demotions(&self) -> u64 {
        self.demotions.load(Ordering::Relaxed)
    }

    /// Payloads promoted back into memory.
    pub(crate) fn promotions(&self) -> u64 {
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

#[cfg(test)]
mod tests {
    use super::*;
    use sfa_workloads::ScratchDir;

    #[test]
    fn spill_store_round_trips_segments() {
        let scratch = ScratchDir::new("store_roundtrip");
        let dir = scratch.path();
        let store = SpillStore::create(dir).unwrap();
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
        assert_eq!(store.promotions(), 0, "a fetch only reads");
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
        let _store = SpillStore::create(dir).unwrap();
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
        let err = SpillStore::create(dir).unwrap_err();
        std::fs::set_permissions(dir, std::fs::Permissions::from_mode(0o755)).unwrap();
        match err {
            SfaError::SpillDirUnavailable { path, .. } => assert_eq!(path, dir),
            other => panic!("expected SpillDirUnavailable, got {other:?}"),
        }
    }
}
