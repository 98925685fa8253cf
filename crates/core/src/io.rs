//! Binary serialization for constructed SFAs.
//!
//! Construction can take minutes for large automata while the SFA itself
//! is reusable across runs (and across machines — everything is stored
//! little-endian). The format keeps compressed mapping stores compressed,
//! so a Table-II-class SFA persists at its compressed size.
//!
//! ```text
//! magic   "SFA\x01"
//! u8      store kind: 0 = raw u16, 1 = raw u32, 2+codec = compressed
//! varint  n (DFA states), k (symbols), num_states, start
//! u32×(num_states·k)   δₛ, row-major, little-endian
//! payload raw: n·num_states elements LE
//!         compressed: per state varint(len) + blob
//! ```

use crate::sfa::{CodecChoice, MappingStore, Sfa};
use sfa_compress::varint;

// Global-registry artifact-path metrics (DESIGN.md §12).
static OBS_WRITE_BYTES: crate::obs::LazyCounter =
    crate::obs::LazyCounter::new("sfa_artifact_write_bytes_total");
static OBS_FSYNC_NANOS: crate::obs::LazyHistogram =
    crate::obs::LazyHistogram::new("sfa_artifact_fsync_nanos");

/// Errors produced while decoding a serialized SFA or artifact.
///
/// `#[non_exhaustive]`: future artifact versions may add failure shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IoError {
    /// Missing/incorrect magic bytes.
    BadMagic,
    /// Input ended prematurely.
    Truncated,
    /// Structurally invalid content (includes checksum mismatches).
    Corrupt(&'static str),
    /// The artifact was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the file.
        found: u16,
        /// Version this build reads and writes.
        expected: u16,
    },
    /// The underlying file I/O failed (open/read/write/fsync/rename).
    Io(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::BadMagic => write!(f, "not an SFA file (bad magic)"),
            IoError::Truncated => write!(f, "SFA file is truncated"),
            IoError::Corrupt(m) => write!(f, "SFA file is corrupt: {m}"),
            IoError::VersionMismatch { found, expected } => write!(
                f,
                "artifact format version {found} is not supported (expected {expected})"
            ),
            IoError::Io(m) => write!(f, "artifact I/O failed: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> IoError {
        IoError::Io(e.to_string())
    }
}

const MAGIC: &[u8; 4] = b"SFA\x01";

const KIND_U16: u8 = 0;
const KIND_U32: u8 = 1;
const KIND_COMPRESSED_BASE: u8 = 2;

fn codec_tag(c: CodecChoice) -> u8 {
    match c {
        CodecChoice::Deflate => 0,
        CodecChoice::Lz77 => 1,
        CodecChoice::Rle => 2,
        CodecChoice::Store => 3,
        CodecChoice::Hybrid => 4,
    }
}

fn codec_from_tag(t: u8) -> Result<CodecChoice, IoError> {
    Ok(match t {
        0 => CodecChoice::Deflate,
        1 => CodecChoice::Lz77,
        2 => CodecChoice::Rle,
        3 => CodecChoice::Store,
        4 => CodecChoice::Hybrid,
        _ => return Err(IoError::Corrupt("unknown codec tag")),
    })
}

/// Serialize `sfa` into a byte vector.
pub fn to_bytes(sfa: &Sfa) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(sfa));
    write_to(&mut out, sfa);
    out
}

/// An upper bound on the bytes [`write_to`] appends for `sfa`.
pub(crate) fn encoded_len(sfa: &Sfa) -> usize {
    const MAX_VARINT: usize = 10;
    let blob_lengths = match sfa.mappings() {
        MappingStore::Compressed { blobs, .. } => blobs.len() * MAX_VARINT,
        _ => 0,
    };
    MAGIC.len() + 1 + 4 * MAX_VARINT + sfa.delta().len() * 4 + sfa.mapping_bytes() + blob_lengths
}

/// Append the serialization of `sfa` to `out`.
pub(crate) fn write_to(out: &mut Vec<u8>, sfa: &Sfa) {
    out.extend_from_slice(MAGIC);
    let kind = match sfa.mappings() {
        MappingStore::U16(_) => KIND_U16,
        MappingStore::U32(_) => KIND_U32,
        MappingStore::Compressed {
            elem_bytes, codec, ..
        } => KIND_COMPRESSED_BASE + codec_tag(*codec) * 2 + u8::from(*elem_bytes == 4),
    };
    out.push(kind);
    varint::write_u64(out, sfa.dfa_states() as u64);
    varint::write_u64(out, sfa.num_symbols() as u64);
    varint::write_u64(out, sfa.num_states() as u64);
    varint::write_u64(out, sfa.start() as u64);
    extend_le(out, sfa.delta(), u32::to_le_bytes);
    match sfa.mappings() {
        MappingStore::U16(v) => extend_le(out, v, u16::to_le_bytes),
        MappingStore::U32(v) => extend_le(out, v, u32::to_le_bytes),
        MappingStore::Compressed { blobs, .. } => {
            for b in blobs {
                varint::write_u64(out, b.len() as u64);
                out.extend_from_slice(b);
            }
        }
    }
}

/// Hand `values` to `sink` as little-endian bytes, 4,096 values at a
/// time, so that the sink copies or checksums whole slices rather than
/// one element at a time.
pub(crate) fn le_bytes<T: Copy, const N: usize>(
    values: &[T],
    to_le: fn(T) -> [u8; N],
    mut sink: impl FnMut(&[u8]),
) {
    let mut buf = [[0u8; N]; 4096];
    for chunk in values.chunks(buf.len()) {
        let encoded = &mut buf[..chunk.len()];
        for (dst, &v) in encoded.iter_mut().zip(chunk) {
            *dst = to_le(v);
        }
        sink(encoded.as_flattened());
    }
}

/// Append `values` to `out` as little-endian bytes.
pub(crate) fn extend_le<T: Copy, const N: usize>(
    out: &mut Vec<u8>,
    values: &[T],
    to_le: fn(T) -> [u8; N],
) {
    le_bytes(values, to_le, |bytes| out.extend_from_slice(bytes));
}

/// Bounds-checked sub-slice: `bytes[pos .. pos + len]`, with the offset
/// addition itself checked so adversarial lengths can neither panic in
/// debug builds nor wrap in release builds.
pub(crate) fn take(bytes: &[u8], pos: usize, len: usize) -> Result<&[u8], IoError> {
    let end = pos.checked_add(len).ok_or(IoError::Truncated)?;
    bytes.get(pos..end).ok_or(IoError::Truncated)
}

/// `u64` (from a varint) → `usize`, erroring instead of truncating on
/// 32-bit targets.
fn to_usize(v: u64) -> Result<usize, IoError> {
    usize::try_from(v).map_err(|_| IoError::Corrupt("dimension overflow"))
}

/// Deserialize an SFA from bytes produced by [`to_bytes`].
///
/// Every length and offset read from the input is bounds-checked before
/// use, and no allocation larger than the input itself is made before
/// the bytes backing it have been verified to exist — malformed or
/// adversarial input yields a typed [`IoError`], never a panic or an
/// unbounded allocation.
pub fn from_bytes(bytes: &[u8]) -> Result<Sfa, IoError> {
    if bytes.len() < 5 || &bytes[..4] != MAGIC {
        return Err(IoError::BadMagic);
    }
    let kind = bytes[4];
    let mut pos = 5usize;
    let rd = |pos: &mut usize| -> Result<u64, IoError> {
        varint::read_u64(bytes, pos).map_err(|_| IoError::Truncated)
    };
    let n = to_usize(rd(&mut pos)?)?;
    let k = to_usize(rd(&mut pos)?)?;
    let num_states = to_usize(rd(&mut pos)?)?;
    let start = rd(&mut pos)?;
    if n == 0 || k == 0 || num_states == 0 {
        return Err(IoError::Corrupt("zero dimension"));
    }
    if start >= num_states as u64 {
        return Err(IoError::Corrupt("start state out of range"));
    }
    let start = start as u32;
    let delta_bytes = num_states
        .checked_mul(k)
        .and_then(|x| x.checked_mul(4))
        .ok_or(IoError::Corrupt("dimension overflow"))?;
    let delta_raw = take(bytes, pos, delta_bytes)?;
    let delta: Vec<u32> = delta_raw
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    if delta.iter().any(|&s| s as usize >= num_states) {
        return Err(IoError::Corrupt("transition out of range"));
    }
    pos += delta_bytes;

    let payload_len = |bytes_per: usize| {
        num_states
            .checked_mul(n)
            .and_then(|x| x.checked_mul(bytes_per))
            .ok_or(IoError::Corrupt("dimension overflow"))
    };
    let mappings = match kind {
        KIND_U16 => {
            let want = payload_len(2)?;
            let raw = take(bytes, pos, want)?;
            pos += want;
            MappingStore::U16(
                raw.chunks_exact(2)
                    .map(|c| u16::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            )
        }
        KIND_U32 => {
            let want = payload_len(4)?;
            let raw = take(bytes, pos, want)?;
            pos += want;
            MappingStore::U32(
                raw.chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            )
        }
        t if t >= KIND_COMPRESSED_BASE => {
            let rel = t - KIND_COMPRESSED_BASE;
            let codec = codec_from_tag(rel / 2)?;
            let elem_bytes = if rel % 2 == 1 { 4 } else { 2 };
            // Each blob needs at least its 1-byte length varint, so a
            // claimed state count beyond the remaining input is provably
            // truncated — reject it *before* sizing any allocation by it.
            if num_states > bytes.len() - pos {
                return Err(IoError::Truncated);
            }
            // Each mapping row must decompress to exactly n elements.
            // Matching trusts this (`Sfa::mapping_of` expects success),
            // so a blob that fails here must be rejected at load time —
            // it used to be accepted and abort the process on first use.
            let want_raw = n
                .checked_mul(elem_bytes)
                .ok_or(IoError::Corrupt("dimension overflow"))?;
            let decoder = codec.codec();
            let mut blobs = Vec::with_capacity(num_states);
            for _ in 0..num_states {
                let len = to_usize(rd(&mut pos)?)?;
                let blob = take(bytes, pos, len)?;
                match decoder.decompress_to_vec(blob) {
                    Ok(raw) if raw.len() == want_raw => {}
                    Ok(_) => return Err(IoError::Corrupt("mapping row has wrong length")),
                    Err(_) => return Err(IoError::Corrupt("mapping row failed to decompress")),
                }
                blobs.push(blob.to_vec().into_boxed_slice());
                pos += len;
            }
            MappingStore::Compressed {
                elem_bytes,
                blobs,
                codec,
            }
        }
        _ => return Err(IoError::Corrupt("unknown store kind")),
    };
    if pos != bytes.len() {
        return Err(IoError::Corrupt("trailing bytes after payload"));
    }
    Ok(Sfa::from_parts(n, k, start, delta, mappings))
}

/// Durably write `bytes` to `path`: write a sibling `<name>.tmp`, fsync
/// it, atomically rename it over `path`, then best-effort fsync the
/// containing directory. A crash at any point leaves either the old
/// file or the complete new one on disk — never a torn mix.
///
/// Fault sites: `io/write` (before the temp file is created),
/// `io/fsync` (before `sync_all`), `io/rename` (between the durable
/// temp write and the rename — a `Panic`-kind fault here simulates the
/// process dying with only the temp file on disk).
pub fn atomic_write(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    sfa_sync::fault_point!("io/write")?;
    OBS_WRITE_BYTES.add(bytes.len() as u64);
    let tmp = tmp_sibling(path);
    let written = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        sfa_sync::fault_point!("io/fsync")?;
        let watch = crate::obs::Stopwatch::start();
        let synced = f.sync_all();
        watch.record(&OBS_FSYNC_NANOS);
        synced
    })();
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = sfa_sync::fault_point!("io/rename") {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    // Renames become durable once the directory entry is synced; failure
    // here only widens the crash window, it cannot tear the file.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Attempts per read or write position when the error is transient
/// ([`is_transient`]): the first try plus three retries. The stream
/// reader (`crate::runtime`) and the spill store (`crate::store`) share
/// this schedule.
pub(crate) const RETRY_ATTEMPTS: u32 = 4;
const RETRY_BASE_BACKOFF: std::time::Duration = std::time::Duration::from_millis(5);
const RETRY_MAX_BACKOFF: std::time::Duration = std::time::Duration::from_millis(250);

/// Backoff before retry number `retry` (1-based): 5 ms doubling to a
/// 250 ms cap. It rides out scheduler-induced `Interrupted`/`WouldBlock`
/// blips while keeping the worst-case added latency per position under
/// a second.
pub(crate) fn retry_backoff(retry: u32) -> std::time::Duration {
    let factor = 1u32 << retry.saturating_sub(1).min(20);
    RETRY_BASE_BACKOFF
        .saturating_mul(factor)
        .min(RETRY_MAX_BACKOFF)
}

/// `true` for [`std::io::ErrorKind`]s worth retrying: the OS or remote
/// end may succeed on the next call. Everything else is permanent.
pub(crate) fn is_transient(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    )
}

/// Read-only memory map of a file — the spill tier's read path
/// (`crate::store`). On unix targets this is a real `mmap(2)` so spilled
/// state payloads are demand-paged rather than resident; elsewhere it
/// degrades to reading the file into an anonymous buffer (same API,
/// no paging benefit).
///
/// Fault site: `io/mmap` (before the file is opened).
#[derive(Debug)]
pub struct Mmap {
    repr: MmapRepr,
}

#[derive(Debug)]
enum MmapRepr {
    /// Zero-length files: mapping zero bytes is EINVAL, so hold nothing.
    Empty,
    #[cfg(unix)]
    Mapped {
        ptr: *mut std::ffi::c_void,
        len: usize,
    },
    #[allow(dead_code)]
    Buffered(Box<[u8]>),
}

// SAFETY: the mapping is immutable (PROT_READ, MAP_PRIVATE) for its whole
// lifetime; sharing the base pointer across threads is plain shared-read.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;
    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

impl Mmap {
    /// Map `path` read-only.
    pub fn open(path: &std::path::Path) -> std::io::Result<Mmap> {
        sfa_sync::fault_point!("io/mmap")?;
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        if len == 0 {
            return Ok(Mmap {
                repr: MmapRepr::Empty,
            });
        }
        let len = usize::try_from(len).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "spill file exceeds usize")
        })?;
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            // SAFETY: fd is valid for the duration of the call; length is
            // the file's current size; we never write through the mapping.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Mmap {
                repr: MmapRepr::Mapped { ptr, len },
            })
        }
        #[cfg(not(unix))]
        {
            let bytes = std::fs::read(path)?;
            Ok(Mmap {
                repr: MmapRepr::Buffered(bytes.into_boxed_slice()),
            })
        }
    }

    /// The mapped bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.repr {
            MmapRepr::Empty => &[],
            #[cfg(unix)]
            MmapRepr::Mapped { ptr, len } => {
                // SAFETY: the mapping stays valid until Drop; PROT_READ
                // private mappings of an unmodified file are plain bytes.
                unsafe { std::slice::from_raw_parts(*ptr as *const u8, *len) }
            }
            MmapRepr::Buffered(b) => b,
        }
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when zero bytes are mapped.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let MmapRepr::Mapped { ptr, len } = self.repr {
            // SAFETY: exactly the region mmap returned, unmapped once.
            unsafe { sys::munmap(ptr, len) };
        }
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

fn tmp_sibling(path: &std::path::Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| std::ffi::OsString::from("artifact"));
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{CompressionPolicy, ParallelOptions};
    use crate::sequential::SequentialVariant;
    use sfa_automata::pipeline::Pipeline;
    use sfa_automata::Alphabet;

    fn rg_sfa() -> (sfa_automata::Dfa, Sfa) {
        let dfa = Pipeline::search(Alphabet::amino_acids())
            .compile_str("R[GA]N")
            .unwrap();
        let sfa = Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .build()
            .unwrap()
            .sfa;
        (dfa, sfa)
    }

    #[test]
    fn raw_u16_round_trip() {
        let (dfa, sfa) = rg_sfa();
        let bytes = to_bytes(&sfa);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.num_states(), sfa.num_states());
        assert_eq!(back.start(), sfa.start());
        back.validate(&dfa).unwrap();
        for s in 0..sfa.num_states() {
            assert_eq!(back.mapping_of(s), sfa.mapping_of(s));
        }
    }

    #[test]
    fn compressed_round_trip_stays_compressed() {
        let dfa = sfa_workloads::rn(50);
        let sfa = Sfa::builder(&dfa)
            .options(&ParallelOptions::with_threads(2).compression(CompressionPolicy::FromStart))
            .build()
            .unwrap()
            .sfa;
        assert!(sfa.is_compressed());
        let bytes = to_bytes(&sfa);
        // Compressed payload dominates the file: far smaller than raw.
        assert!(bytes.len() < sfa.num_states() as usize * dfa.num_states() as usize * 2);
        let back = from_bytes(&bytes).unwrap();
        assert!(back.is_compressed());
        back.validate(&dfa).unwrap();
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert_eq!(from_bytes(b"not an sfa").unwrap_err(), IoError::BadMagic);
        let (_, sfa) = rg_sfa();
        let bytes = to_bytes(&sfa);
        for cut in [5usize, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Corrupt a delta entry to point out of range.
        let mut bad = bytes.clone();
        // delta starts right after header; find it: magic(4)+kind(1)+4 varints
        // (all small here, 1 byte each) = 9.
        bad[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(from_bytes(&bad), Err(IoError::Corrupt(_))));
    }

    /// A corpus of crafted malformed inputs: each used to panic, abort
    /// on allocation, or mis-round in an earlier `from_bytes`. All must
    /// return a typed error quickly, without unbounded allocation.
    #[test]
    fn adversarial_bytes_return_typed_errors() {
        let mut huge_dims = MAGIC.to_vec();
        huge_dims.push(KIND_U16);
        // n, k, num_states all u64::MAX: dimension math must not wrap.
        for _ in 0..3 {
            varint::write_u64(&mut huge_dims, u64::MAX);
        }
        varint::write_u64(&mut huge_dims, 0);

        let mut start_truncation = MAGIC.to_vec();
        start_truncation.push(KIND_U16);
        varint::write_u64(&mut start_truncation, 2); // n
        varint::write_u64(&mut start_truncation, 2); // k
        varint::write_u64(&mut start_truncation, 3); // num_states
                                                     // start = 2^32 + 1: `as u32` truncation would make this a valid 1.
        varint::write_u64(&mut start_truncation, (1u64 << 32) + 1);

        let mut blob_count_bomb = MAGIC.to_vec();
        blob_count_bomb.push(KIND_COMPRESSED_BASE); // deflate, u16 elems
        varint::write_u64(&mut blob_count_bomb, 4); // n
        varint::write_u64(&mut blob_count_bomb, 2); // k
        varint::write_u64(&mut blob_count_bomb, 1 << 40); // num_states
        varint::write_u64(&mut blob_count_bomb, 0);

        let mut bad_codec = MAGIC.to_vec();
        bad_codec.push(KIND_COMPRESSED_BASE + 5 * 2); // codec tag 5: unknown
        varint::write_u64(&mut bad_codec, 1);
        varint::write_u64(&mut bad_codec, 1);
        varint::write_u64(&mut bad_codec, 1);
        varint::write_u64(&mut bad_codec, 0);
        bad_codec.extend_from_slice(&0u32.to_le_bytes());

        let mut blob_len_overflow = MAGIC.to_vec();
        blob_len_overflow.push(KIND_COMPRESSED_BASE);
        varint::write_u64(&mut blob_len_overflow, 1);
        varint::write_u64(&mut blob_len_overflow, 1);
        varint::write_u64(&mut blob_len_overflow, 1);
        varint::write_u64(&mut blob_len_overflow, 0);
        blob_len_overflow.extend_from_slice(&0u32.to_le_bytes()); // delta row
        varint::write_u64(&mut blob_len_overflow, u64::MAX); // blob length

        let (_, sfa) = rg_sfa();
        let mut trailing = to_bytes(&sfa);
        trailing.extend_from_slice(b"junk");

        let corpus: Vec<(&str, Vec<u8>)> = vec![
            ("huge dimensions", huge_dims),
            ("start > u32::MAX", start_truncation),
            ("blob count beyond input", blob_count_bomb),
            ("unknown codec tag", bad_codec),
            ("blob length overflow", blob_len_overflow),
            ("trailing bytes", trailing),
            ("empty", Vec::new()),
            ("magic only", MAGIC.to_vec()),
        ];
        for (name, bytes) in corpus {
            let err = from_bytes(&bytes).expect_err(name);
            // Any typed error is fine; reaching here proves no panic and
            // no attempt to allocate by the claimed (bogus) sizes.
            let _ = err.to_string();
        }
    }

    /// Flipping any single byte of the legacy header region must never
    /// produce an out-of-bounds access (detection is the artifact
    /// store's job; the legacy format only has to stay memory-safe).
    #[test]
    fn single_byte_mutations_never_panic() {
        let (_, sfa) = rg_sfa();
        let bytes = to_bytes(&sfa);
        for i in 0..bytes.len().min(64) {
            for bit in [0x01u8, 0x80] {
                let mut m = bytes.clone();
                m[i] ^= bit;
                let _ = from_bytes(&m); // must return, Ok or Err — not panic
            }
        }
    }

    /// A compressed mapping blob that is undecodable — or decodes to the
    /// wrong row length — must be a load-time [`IoError::Corrupt`], not
    /// a deferred `expect` abort on first use (`Sfa::mapping_of` trusts
    /// stored rows).
    #[test]
    fn corrupt_compressed_blob_is_rejected_at_load() {
        let dfa = sfa_workloads::rn(50);
        let sfa = Sfa::builder(&dfa)
            .options(&ParallelOptions::with_threads(2).compression(CompressionPolicy::FromStart))
            .build()
            .unwrap()
            .sfa;
        assert!(sfa.is_compressed());
        let good = to_bytes(&sfa);
        // Scribble over the tail of the compressed payload: the last
        // mapping blob becomes undecodable or wrong-length.
        let mut bad = good.clone();
        let n = bad.len();
        for byte in &mut bad[n - 8..] {
            *byte ^= 0xA5;
        }
        match from_bytes(&bad) {
            Err(IoError::Corrupt(_)) | Err(IoError::Truncated) => {}
            Ok(_) => panic!("corrupted compressed payload decoded as Ok"),
            Err(other) => panic!("expected Corrupt/Truncated, got {other:?}"),
        }
        // The pristine bytes still load and validate.
        from_bytes(&good).unwrap().validate(&dfa).unwrap();
    }

    #[test]
    fn atomic_write_leaves_no_tmp_behind() {
        use crate::artifact::{read_sfa, write_sfa};
        let (_, sfa) = rg_sfa();
        let dir = sfa_workloads::ScratchDir::new("io_atomic_test");
        let path = dir.join("out.sfa");
        write_sfa(&path, &sfa).unwrap();
        assert!(path.exists());
        assert!(!dir.join("out.sfa.tmp").exists());
        // Overwrite in place: the old file is replaced whole.
        write_sfa(&path, &sfa).unwrap();
        read_sfa(&path).unwrap();
    }

    #[test]
    fn serialized_sfa_matches_like_the_original() {
        let (dfa, sfa) = rg_sfa();
        let back = from_bytes(&to_bytes(&sfa)).unwrap();
        let text = sfa_workloads::protein_text(10_000, 3);
        assert_eq!(
            crate::matcher::match_with_sfa(&sfa, &dfa, &text, 4),
            crate::matcher::match_with_sfa(&back, &dfa, &text, 4),
        );
    }
}
