//! Crash-safe, checksummed on-disk artifacts: serialized SFAs and
//! construction checkpoints.
//!
//! [`crate::io`] defines the *payload* encoding of an SFA; this module
//! wraps payloads in a versioned container that makes persistence safe
//! against the two failure shapes that actually destroy minutes of
//! construction work: torn writes (process killed mid-write) and silent
//! corruption (flipped bits on disk). The container is:
//!
//! ```text
//! offset  size  field
//!      0     4  magic "SFAR"
//!      4     2  format version (u16 LE, currently 1)
//!      6     1  kind: 0 = serialized SFA, 1 = construction checkpoint
//!      7     1  section count
//!      8     8  body CRC-64/XZ (u64 LE, over bytes 24..EOF)
//!     16     8  header CRC-64/XZ (u64 LE, over bytes 0..16)
//!     24     …  sections: tag u8 | len u64 LE | crc64 u64 LE | payload
//! ```
//!
//! Every byte of the file is covered by a checksum: the header by the
//! header CRC, everything after it by the body CRC, and each section
//! payload additionally by its own CRC for precise diagnostics. A
//! flipped bit anywhere outside the 4 magic bytes is therefore rejected
//! as [`IoError::Corrupt`] (a corrupted magic reads as "not an artifact
//! at all": [`IoError::BadMagic`]). Writing and loading each checksum
//! every byte once: the body CRC follows from the section headers' and
//! payloads' CRCs by [`sfa_hash::crc64::combine`]. All writes go through
//! [`crate::io::atomic_write`] — temp file, fsync, atomic rename — so a
//! crash leaves the previous artifact intact, never a torn mix.
//!
//! Checkpoints persist the parallel engine's canonical prefix — its
//! counts and the δₛ rows of its processed states, no mapping rows —
//! plus a fingerprint of the source DFA so a checkpoint can never
//! silently resume against the wrong automaton. Resume derives every
//! mapping row from δₛ and the DFA; see [`crate::parallel`] for the
//! snapshot and resume logic and `SfaBuilder::resume_from` for the entry
//! point.

use crate::io::{self, IoError};
use crate::sfa::Sfa;
use sfa_automata::Dfa;
use sfa_compress::varint;
use sfa_hash::crc64::{combine, crc64, Crc64};
use std::path::{Path, PathBuf};

/// Current on-disk container version.
pub const FORMAT_VERSION: u16 = 1;

const MAGIC: &[u8; 4] = b"SFAR";
const HEADER_BYTES: usize = 24;
/// Tag, payload length and payload CRC.
const SECTION_HEADER_BYTES: usize = 17;

const TAG_SFA: u8 = 1;
const TAG_CKPT_DELTA: u8 = 3;
/// Checkpoint meta. Tags 2 and 4 held the meta and the mapping rows of
/// the earlier checkpoint layout, so a checkpoint in that layout fails
/// as a missing section instead of being misread.
const TAG_CKPT_META: u8 = 5;

/// What an artifact file contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A fully constructed, serialized SFA.
    Sfa,
    /// A mid-construction checkpoint (resumable engine state).
    Checkpoint,
}

impl ArtifactKind {
    fn to_byte(self) -> u8 {
        match self {
            ArtifactKind::Sfa => 0,
            ArtifactKind::Checkpoint => 1,
        }
    }

    fn from_byte(b: u8) -> Result<ArtifactKind, IoError> {
        match b {
            0 => Ok(ArtifactKind::Sfa),
            1 => Ok(ArtifactKind::Checkpoint),
            _ => Err(IoError::Corrupt("unknown artifact kind")),
        }
    }
}

impl std::fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactKind::Sfa => write!(f, "sfa"),
            ArtifactKind::Checkpoint => write!(f, "checkpoint"),
        }
    }
}

/// One section of a verified artifact (for reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section tag byte.
    pub tag: u8,
    /// Payload length in bytes.
    pub len: u64,
}

/// Result of [`verify`]: the artifact parsed, every checksum matched,
/// and the payload decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactInfo {
    /// What the file contains.
    pub kind: ArtifactKind,
    /// Container format version.
    pub version: u16,
    /// Total file size in bytes.
    pub total_bytes: u64,
    /// The sections present, in file order.
    pub sections: Vec<SectionInfo>,
    /// A checkpoint's progress; `None` for an SFA.
    pub checkpoint: Option<CheckpointProgress>,
}

/// How far the build a checkpoint records had got (for reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointProgress {
    /// States whose δₛ rows the checkpoint holds.
    pub processed: u64,
    /// States discovered: the processed ones and the frontier.
    pub states: u64,
}

/// Checkpoint cadence for a parallel build: snapshot the canonical
/// prefix to `path` every `every_states` discovered states. A worker
/// raises a due snapshot just before its [`crate::budget::Governor`]
/// poll, so a budget or cancel abort still leaves it behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Artifact path the checkpoint is (atomically) written to.
    pub path: PathBuf,
    /// Snapshot after this many additional discovered states (min 1).
    pub every_states: u64,
}

impl CheckpointConfig {
    /// Checkpoint to `path` every `every_states` discovered states.
    pub fn new(path: impl Into<PathBuf>, every_states: u64) -> CheckpointConfig {
        CheckpointConfig {
            path: path.into(),
            every_states: every_states.max(1),
        }
    }
}

/// A deserialized construction checkpoint: everything the parallel
/// engine needs to continue an interrupted build to a byte-identical
/// SFA (see DESIGN.md §11). States are numbered canonically, in the
/// order of Algorithm 1's FIFO worklist, so the δₛ rows of the processed
/// prefix fix every discovered state and its mapping row: an SFA state
/// is the transformation of any word that reaches it, and resume derives
/// each row from its BFS parent's row and the DFA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// DFA state count `n` (mapping vector length).
    pub dfa_states: u32,
    /// Symbol count `k`.
    pub symbols: u32,
    /// SFA states whose δₛ rows are complete (the worklist cursor).
    pub processed: u64,
    /// SFA states discovered so far: the processed prefix and the
    /// frontier its rows reach.
    pub num_states: u64,
    /// [`dfa_fingerprint`] of the DFA this build belongs to.
    pub dfa_crc: u64,
    /// δₛ of the processed prefix, row-major `processed × k`.
    pub delta: Vec<u32>,
}

impl Checkpoint {
    /// Check that this checkpoint belongs to `dfa`. The parallel engine's
    /// resume path calls it before it derives a single row.
    pub fn validate_for(&self, dfa: &Dfa) -> Result<(), IoError> {
        if self.dfa_crc != dfa_fingerprint(dfa) {
            return Err(IoError::Corrupt(
                "checkpoint was built from a different DFA",
            ));
        }
        if self.dfa_states != dfa.num_states() || self.symbols as usize != dfa.num_symbols() {
            return Err(IoError::Corrupt(
                "checkpoint dimensions disagree with the DFA",
            ));
        }
        Ok(())
    }

    /// Serialize into an artifact byte vector (checksummed container).
    pub fn to_artifact_bytes(&self) -> Vec<u8> {
        // Four varints of at most 10 bytes and the DFA fingerprint.
        let meta_bytes = 48;
        let mut out = Container::new(
            ArtifactKind::Checkpoint,
            2 * SECTION_HEADER_BYTES + meta_bytes + self.delta.len() * 4,
        );
        out.section(TAG_CKPT_META, |meta| {
            varint::write_u64(meta, self.dfa_states as u64);
            varint::write_u64(meta, self.symbols as u64);
            varint::write_u64(meta, self.processed);
            varint::write_u64(meta, self.num_states);
            meta.extend_from_slice(&self.dfa_crc.to_le_bytes());
        });
        out.section(TAG_CKPT_DELTA, |rows| {
            io::extend_le(rows, &self.delta, u32::to_le_bytes)
        });
        out.finish()
    }

    /// Decode and validate an artifact byte vector. Every count is
    /// checked against the bytes present before anything is sized by it.
    pub fn from_artifact_bytes(bytes: &[u8]) -> Result<Checkpoint, IoError> {
        let (kind, sections) = parse(bytes)?;
        if kind != ArtifactKind::Checkpoint {
            return Err(IoError::Corrupt("artifact is not a checkpoint"));
        }
        Checkpoint::from_sections(&sections)
    }

    /// Decode a checkpoint from the sections of a verified container.
    fn from_sections(sections: &[(u8, &[u8])]) -> Result<Checkpoint, IoError> {
        let meta = section(sections, TAG_CKPT_META)?;
        let delta_raw = section(sections, TAG_CKPT_DELTA)?;

        let mut pos = 0usize;
        let mut rd = || -> Result<u64, IoError> {
            varint::read_u64(meta, &mut pos).map_err(|_| IoError::Truncated)
        };
        let dfa_states = rd()?;
        let symbols = rd()?;
        let processed = rd()?;
        let num_states = rd()?;
        let crc_at = pos;
        let crc_end = crc_at.checked_add(8).ok_or(IoError::Truncated)?;
        let dfa_crc = u64::from_le_bytes(
            meta.get(crc_at..crc_end)
                .ok_or(IoError::Truncated)?
                .try_into()
                .unwrap(),
        );
        if crc_end != meta.len() {
            return Err(IoError::Corrupt("trailing bytes in checkpoint meta"));
        }
        if dfa_states == 0 || symbols == 0 || num_states == 0 {
            return Err(IoError::Corrupt("zero dimension in checkpoint"));
        }
        if dfa_states > u32::MAX as u64 || symbols > u32::MAX as u64 {
            return Err(IoError::Corrupt("dimension overflow"));
        }
        let k = to_len(symbols)?;
        let delta_len = to_len(processed)?
            .checked_mul(k)
            .and_then(|x| x.checked_mul(4))
            .ok_or(IoError::Corrupt("dimension overflow"))?;
        if delta_raw.len() != delta_len {
            return Err(IoError::Corrupt("delta section size mismatch"));
        }
        let delta: Vec<u32> = delta_raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        check_canonical_prefix(&delta, k, to_len(num_states)?)?;
        Ok(Checkpoint {
            dfa_states: dfa_states as u32,
            symbols: symbols as u32,
            processed,
            num_states,
            dfa_crc,
            delta,
        })
    }
}

/// Check that `delta`, the δₛ rows of the first `delta.len() / k`
/// states, numbers states as the sequential FIFO worklist does and
/// discovers exactly `num_states` of them: each row belongs to a state
/// discovered before it, and each successor is a state already
/// discovered or the next new id. That bounds `num_states` by
/// `1 + rows·k`, so a caller may size allocations by it afterwards.
pub(crate) fn check_canonical_prefix(
    delta: &[u32],
    k: usize,
    num_states: usize,
) -> Result<(), IoError> {
    let mut discovered = 1usize;
    for (state, row) in delta.chunks_exact(k).enumerate() {
        if state >= discovered {
            return Err(IoError::Corrupt("δₛ row of an undiscovered state"));
        }
        for &succ in row {
            match (succ as usize).cmp(&discovered) {
                std::cmp::Ordering::Less => {}
                std::cmp::Ordering::Equal => discovered += 1,
                std::cmp::Ordering::Greater => {
                    return Err(IoError::Corrupt("δₛ does not number states canonically"))
                }
            }
        }
    }
    if discovered != num_states {
        return Err(IoError::Corrupt("state count disagrees with the δₛ prefix"));
    }
    Ok(())
}

fn to_len(v: u64) -> Result<usize, IoError> {
    usize::try_from(v).map_err(|_| IoError::Corrupt("dimension overflow"))
}

/// Content hash of artifact bytes (CRC-64/XZ). The serve registry
/// stores `.sfar` files under this hash: deterministic construction
/// makes equal automata byte-equal regardless of thread count or
/// scheduler, so identical patterns — across restarts and tenants —
/// share one artifact file.
pub fn content_hash(bytes: &[u8]) -> u64 {
    crc64(bytes)
}

/// Fingerprint of a DFA (CRC-64/XZ over dimensions, start state,
/// transition table and accepting set). Persisted in checkpoints so a
/// resume against a different automaton is rejected instead of silently
/// producing a wrong SFA.
pub fn dfa_fingerprint(dfa: &Dfa) -> u64 {
    let mut c = Crc64::new();
    c.update(&dfa.num_states().to_le_bytes());
    c.update(&(dfa.num_symbols() as u32).to_le_bytes());
    c.update(&dfa.start().to_le_bytes());
    io::le_bytes(dfa.table(), u32::to_le_bytes, |bytes| c.update(bytes));
    let accepting: Vec<u8> = (0..dfa.num_states())
        .map(|q| u8::from(dfa.is_accepting(q)))
        .collect();
    c.update(&accepting);
    c.finish()
}

/// Serialize `sfa` into an artifact byte vector: the checksummed
/// container around the [`io::to_bytes`] payload, written straight into
/// one buffer.
pub fn sfa_to_bytes(sfa: &Sfa) -> Vec<u8> {
    let mut out = Container::new(
        ArtifactKind::Sfa,
        SECTION_HEADER_BYTES + io::encoded_len(sfa),
    );
    out.section(TAG_SFA, |payload| io::write_to(payload, sfa));
    out.finish()
}

/// Decode an SFA from artifact bytes, verifying every checksum.
pub fn sfa_from_bytes(bytes: &[u8]) -> Result<Sfa, IoError> {
    let (kind, sections) = parse(bytes)?;
    if kind != ArtifactKind::Sfa {
        return Err(IoError::Corrupt("artifact is not a serialized SFA"));
    }
    io::from_bytes(section(&sections, TAG_SFA)?)
}

/// Atomically write `sfa` as a checksummed artifact at `path`.
pub fn write_sfa(path: &Path, sfa: &Sfa) -> Result<(), IoError> {
    io::atomic_write(path, &sfa_to_bytes(sfa)).map_err(IoError::from)
}

/// Load an SFA artifact, verifying every checksum.
pub fn read_sfa(path: &Path) -> Result<Sfa, IoError> {
    sfa_from_bytes(&read_artifact(path)?)
}

/// Atomically write a construction checkpoint at `path`.
pub fn write_checkpoint(path: &Path, ckpt: &Checkpoint) -> Result<(), IoError> {
    static OBS_CHECKPOINT_BYTES: crate::obs::LazyCounter =
        crate::obs::LazyCounter::new("sfa_artifact_checkpoint_bytes_total");
    static OBS_CHECKPOINTS: crate::obs::LazyCounter =
        crate::obs::LazyCounter::new("sfa_artifact_checkpoints_total");
    let bytes = ckpt.to_artifact_bytes();
    OBS_CHECKPOINT_BYTES.add(bytes.len() as u64);
    OBS_CHECKPOINTS.inc();
    io::atomic_write(path, &bytes).map_err(IoError::from)
}

/// Load and validate a construction checkpoint.
pub fn read_checkpoint(path: &Path) -> Result<Checkpoint, IoError> {
    Checkpoint::from_artifact_bytes(&read_artifact(path)?)
}

/// Verify an artifact end to end: container structure, header/body and
/// per-section checksums, and a full decode of the payload. Returns a
/// report of what the file contains.
pub fn verify(path: &Path) -> Result<ArtifactInfo, IoError> {
    let bytes = read_artifact(path)?;
    let (kind, sections) = parse(&bytes)?;
    let checkpoint = match kind {
        ArtifactKind::Sfa => {
            io::from_bytes(section(&sections, TAG_SFA)?)?;
            None
        }
        ArtifactKind::Checkpoint => {
            let ckpt = Checkpoint::from_sections(&sections)?;
            Some(CheckpointProgress {
                processed: ckpt.processed,
                states: ckpt.num_states,
            })
        }
    };
    Ok(ArtifactInfo {
        kind,
        version: FORMAT_VERSION,
        total_bytes: bytes.len() as u64,
        sections: sections
            .iter()
            .map(|(tag, payload)| SectionInfo {
                tag: *tag,
                len: payload.len() as u64,
            })
            .collect(),
        checkpoint,
    })
}

fn read_artifact(path: &Path) -> Result<Vec<u8>, IoError> {
    sfa_sync::fault_point!("io/read").map_err(|e| IoError::Io(e.to_string()))?;
    std::fs::read(path).map_err(IoError::from)
}

/// A container being written. Each section's payload goes straight into
/// the one buffer, and each byte is checksummed once: the body CRC
/// follows from the section headers' and payloads' CRCs by [`combine`].
struct Container {
    out: Vec<u8>,
    sections: u8,
    /// CRC-64 of `out[HEADER_BYTES..]`.
    body_crc: u64,
}

impl Container {
    /// An empty container with room for `body_bytes` of sections,
    /// their headers included.
    fn new(kind: ArtifactKind, body_bytes: usize) -> Container {
        let mut out = Vec::with_capacity(HEADER_BYTES + body_bytes);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.push(kind.to_byte());
        out.push(0); // section count, set by `finish`
        out.extend_from_slice(&[0u8; 16]); // body + header CRC placeholders
        Container {
            out,
            sections: 0,
            body_crc: 0,
        }
    }

    /// Append a section whose payload `write` appends to the buffer.
    fn section(&mut self, tag: u8, write: impl FnOnce(&mut Vec<u8>)) {
        let head = self.out.len();
        let start = head + SECTION_HEADER_BYTES;
        self.out.push(tag);
        self.out.resize(start, 0); // length + CRC placeholders
        write(&mut self.out);
        let len = (self.out.len() - start) as u64;
        let payload_crc = crc64(&self.out[start..]);
        self.out[head + 1..head + 9].copy_from_slice(&len.to_le_bytes());
        self.out[head + 9..start].copy_from_slice(&payload_crc.to_le_bytes());
        let head_crc = crc64(&self.out[head..start]);
        self.body_crc = combine(self.body_crc, head_crc, SECTION_HEADER_BYTES as u64);
        self.body_crc = combine(self.body_crc, payload_crc, len);
        self.sections += 1;
    }

    /// Fill in the section count and both CRCs.
    fn finish(mut self) -> Vec<u8> {
        self.out[7] = self.sections;
        self.out[8..16].copy_from_slice(&self.body_crc.to_le_bytes());
        let header_crc = crc64(&self.out[..16]);
        self.out[16..24].copy_from_slice(&header_crc.to_le_bytes());
        self.out
    }
}

/// A parsed section: `(tag, payload)` borrowed from the container.
type Sections<'a> = Vec<(u8, &'a [u8])>;

/// Parse and checksum-verify the container; returns the sections as
/// `(tag, payload)` borrows. Each byte is checksummed once.
fn parse(bytes: &[u8]) -> Result<(ArtifactKind, Sections<'_>), IoError> {
    if bytes.len() < HEADER_BYTES {
        if bytes.len() >= 4 && &bytes[..4] != MAGIC {
            return Err(IoError::BadMagic);
        }
        return Err(IoError::Truncated);
    }
    if &bytes[..4] != MAGIC {
        return Err(IoError::BadMagic);
    }
    let stored_header_crc = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    if crc64(&bytes[..16]) != stored_header_crc {
        return Err(IoError::Corrupt("header checksum mismatch"));
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(IoError::VersionMismatch {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let kind = ArtifactKind::from_byte(bytes[6])?;
    let nsections = bytes[7] as usize;
    let stored_body_crc = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let mut pos = HEADER_BYTES;
    let mut body_crc = 0;
    let sections = walk_sections(bytes, nsections, &mut pos, &mut body_crc);
    // The body CRC decides first, as if checked before the walk: a fault
    // the walk stopped at, or a trailing byte, is still a body mismatch.
    let rest = &bytes[pos..];
    if combine(body_crc, crc64(rest), rest.len() as u64) != stored_body_crc {
        // Covers truncation too: a shorter body hashes differently.
        return Err(IoError::Corrupt("body checksum mismatch"));
    }
    let sections = sections?;
    if !rest.is_empty() {
        return Err(IoError::Corrupt("trailing bytes after sections"));
    }
    Ok((kind, sections))
}

/// Walk `nsections` sections from `*pos`, checking each payload against
/// its section CRC. On return, `*body_crc` is the CRC-64 of
/// `bytes[HEADER_BYTES..*pos]`, whether the walk finished or stopped at
/// a fault.
fn walk_sections<'a>(
    bytes: &'a [u8],
    nsections: usize,
    pos: &mut usize,
    body_crc: &mut u64,
) -> Result<Sections<'a>, IoError> {
    let mut sections = Vec::with_capacity(nsections.min(16));
    for _ in 0..nsections {
        let header = io::take(bytes, *pos, SECTION_HEADER_BYTES)?;
        let tag = header[0];
        let len = to_len(u64::from_le_bytes(header[1..9].try_into().unwrap()))?;
        let section_crc = u64::from_le_bytes(header[9..17].try_into().unwrap());
        *body_crc = combine(*body_crc, crc64(header), header.len() as u64);
        *pos += header.len();
        let payload = io::take(bytes, *pos, len)?;
        let payload_crc = crc64(payload);
        *body_crc = combine(*body_crc, payload_crc, payload.len() as u64);
        *pos += payload.len();
        if payload_crc != section_crc {
            return Err(IoError::Corrupt("section checksum mismatch"));
        }
        sections.push((tag, payload));
    }
    Ok(sections)
}

fn section<'a>(sections: &[(u8, &'a [u8])], tag: u8) -> Result<&'a [u8], IoError> {
    sections
        .iter()
        .find(|(t, _)| *t == tag)
        .map(|(_, p)| *p)
        .ok_or(IoError::Corrupt("missing artifact section"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::SequentialVariant;
    use sfa_automata::pipeline::Pipeline;
    use sfa_automata::Alphabet;

    fn rg_sfa() -> (Dfa, Sfa) {
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
    fn sfa_artifact_round_trip() {
        let (dfa, sfa) = rg_sfa();
        let bytes = sfa_to_bytes(&sfa);
        let back = sfa_from_bytes(&bytes).unwrap();
        back.validate(&dfa).unwrap();
        assert_eq!(io::to_bytes(&back), io::to_bytes(&sfa));
    }

    /// A small checkpoint with two processed rows.
    fn small_checkpoint() -> Checkpoint {
        Checkpoint {
            dfa_states: 3,
            symbols: 2,
            processed: 2,
            num_states: 3,
            dfa_crc: 1,
            delta: vec![1, 0, 2, 1],
        }
    }

    type Load = fn(&[u8]) -> Result<(), IoError>;

    /// One artifact of each kind, with the loader of that kind.
    fn artifacts_of_each_kind() -> [(Vec<u8>, Load); 2] {
        let (_, sfa) = rg_sfa();
        [
            (sfa_to_bytes(&sfa), |b| sfa_from_bytes(b).map(drop)),
            (small_checkpoint().to_artifact_bytes(), |b| {
                Checkpoint::from_artifact_bytes(b).map(drop)
            }),
        ]
    }

    #[test]
    fn every_bit_flip_outside_magic_is_corrupt() {
        // The header CRC covers bytes 0..16 and is stored at 16..24; the
        // body CRC covers every byte after them, section lengths included.
        for (bytes, load) in artifacts_of_each_kind() {
            for i in 4..bytes.len() {
                let want = if i < HEADER_BYTES {
                    "header checksum mismatch"
                } else {
                    "body checksum mismatch"
                };
                for bit in 0..8 {
                    let mut m = bytes.clone();
                    m[i] ^= 1 << bit;
                    assert_eq!(load(&m), Err(IoError::Corrupt(want)), "flip at {i}:{bit}");
                }
            }
        }
    }

    #[test]
    fn bit_flip_in_magic_is_bad_magic() {
        let (_, sfa) = rg_sfa();
        let mut bytes = sfa_to_bytes(&sfa);
        bytes[0] ^= 0x20;
        assert_eq!(sfa_from_bytes(&bytes).unwrap_err(), IoError::BadMagic);
    }

    #[test]
    fn version_bump_is_detected() {
        let (_, sfa) = rg_sfa();
        let mut bytes = sfa_to_bytes(&sfa);
        // Patch the version *and* fix up the header CRC so the version
        // check itself (not the checksum) fires — this is the shape of a
        // well-formed file from a future release.
        bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
        let header_crc = crc64(&bytes[..16]);
        bytes[16..24].copy_from_slice(&header_crc.to_le_bytes());
        assert_eq!(
            sfa_from_bytes(&bytes).unwrap_err(),
            IoError::VersionMismatch {
                found: 2,
                expected: 1
            }
        );
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        for (bytes, load) in artifacts_of_each_kind() {
            for cut in 0..bytes.len() {
                let want = if cut < HEADER_BYTES {
                    IoError::Truncated
                } else {
                    IoError::Corrupt("body checksum mismatch")
                };
                assert_eq!(load(&bytes[..cut]), Err(want), "cut {cut}");
            }
        }
    }

    #[test]
    fn file_round_trip_and_verify() {
        let (dfa, sfa) = rg_sfa();
        let dir = sfa_workloads::ScratchDir::new("artifact_test");
        let path = dir.join("rg.sfar");
        write_sfa(&path, &sfa).unwrap();
        let info = verify(&path).unwrap();
        assert_eq!(info.kind, ArtifactKind::Sfa);
        assert_eq!(info.version, FORMAT_VERSION);
        assert_eq!(info.sections.len(), 1);
        let back = read_sfa(&path).unwrap();
        back.validate(&dfa).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dfa_fingerprint_distinguishes_automata() {
        let a = Pipeline::search(Alphabet::amino_acids())
            .compile_str("RG")
            .unwrap();
        let b = Pipeline::search(Alphabet::amino_acids())
            .compile_str("RGD")
            .unwrap();
        assert_ne!(dfa_fingerprint(&a), dfa_fingerprint(&b));
        assert_eq!(dfa_fingerprint(&a), dfa_fingerprint(&a));
    }

    /// `dfa_fingerprint` is persisted: checkpoints store it and serve
    /// names its reference files by it.
    #[test]
    fn dfa_fingerprint_values_are_pinned() {
        let (rg, _) = rg_sfa();
        assert_eq!(dfa_fingerprint(&rg), 0x42cc_f416_e7a3_e99c, "R[GA]N");
        assert_eq!(
            dfa_fingerprint(&sfa_workloads::rn(50)),
            0xc653_fa4e_7d10_7e58,
            "rn(50)"
        );
    }

    /// The artifact bytes of format version 1, pinned by content hash.
    #[test]
    fn artifact_bytes_are_pinned() {
        use crate::parallel::{CompressionPolicy, ParallelOptions};
        use crate::sfa::{CodecChoice, MappingStore};
        let compressed = |codec| {
            let options = ParallelOptions::with_threads(2)
                .compression(CompressionPolicy::FromStart)
                .codec(codec);
            let sfa = Sfa::builder(&sfa_workloads::rn(50))
                .options(&options)
                .build()
                .unwrap()
                .sfa;
            assert!(sfa.is_compressed());
            sfa_to_bytes(&sfa)
        };
        let u32_store = Sfa::from_parts(
            3,
            2,
            0,
            vec![1, 2, 2, 0, 1, 2],
            MappingStore::U32(vec![0, 1, 2, 1, 2, 0, 2, 0, 1]),
        );
        let cases = [
            (
                "raw u16, R[GA]N",
                sfa_to_bytes(&rg_sfa().1),
                0x6aeb_0437_96c7_a9c3,
            ),
            ("raw u32", sfa_to_bytes(&u32_store), 0xa5e3_c63f_07ae_2f22),
            (
                "rn(50), deflate",
                compressed(CodecChoice::Deflate),
                0x135c_0a1e_2285_3339,
            ),
            (
                "rn(50), RLE",
                compressed(CodecChoice::Rle),
                0x48fa_f309_c497_8dc7,
            ),
            (
                "checkpoint",
                small_checkpoint().to_artifact_bytes(),
                0xe76d_3406_dd87_cf15,
            ),
        ];
        for (name, bytes, want) in cases {
            let got = content_hash(&bytes);
            assert_eq!(got, want, "{name}: {got:#018x}");
        }
    }

    #[test]
    fn checkpoint_round_trip() {
        let ck = Checkpoint {
            dfa_states: 3,
            symbols: 2,
            processed: 1,
            num_states: 2,
            dfa_crc: 0xDEAD_BEEF,
            delta: vec![1, 0],
        };
        let bytes = ck.to_artifact_bytes();
        assert_eq!(Checkpoint::from_artifact_bytes(&bytes).unwrap(), ck);
    }

    #[test]
    fn checkpoint_validation_rejects_inconsistencies() {
        let good = small_checkpoint();
        assert!(Checkpoint::from_artifact_bytes(&good.to_artifact_bytes()).is_ok());
        let rejected = |mutate: fn(&mut Checkpoint)| {
            let mut bad = good.clone();
            mutate(&mut bad);
            let err = Checkpoint::from_artifact_bytes(&bad.to_artifact_bytes()).unwrap_err();
            assert!(matches!(err, IoError::Corrupt(_)), "{bad:?} gave {err:?}");
        };
        // Cursor beyond the rows present.
        rejected(|c| c.processed = 3);
        // More states than the rows discover, and fewer.
        rejected(|c| c.num_states = 4);
        rejected(|c| c.num_states = 2);
        // A successor id past the next new state.
        rejected(|c| c.delta[0] = 2);
        // Row 1 of a prefix whose row 0 discovers nothing new.
        rejected(|c| c.delta[0] = 0);
        // A wrong-kind read is typed, not misparsed.
        let (_, sfa) = rg_sfa();
        assert!(Checkpoint::from_artifact_bytes(&sfa_to_bytes(&sfa)).is_err());
        assert!(sfa_from_bytes(&good.to_artifact_bytes()).is_err());
    }
}
