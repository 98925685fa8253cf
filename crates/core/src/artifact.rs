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
//! at all": [`IoError::BadMagic`]). All writes go through
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
use sfa_hash::crc64::{crc64, Crc64};
use std::path::{Path, PathBuf};

/// Current on-disk container version.
pub const FORMAT_VERSION: u16 = 1;

const MAGIC: &[u8; 4] = b"SFAR";
const HEADER_BYTES: usize = 24;

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
        let mut meta = Vec::with_capacity(40);
        varint::write_u64(&mut meta, self.dfa_states as u64);
        varint::write_u64(&mut meta, self.symbols as u64);
        varint::write_u64(&mut meta, self.processed);
        varint::write_u64(&mut meta, self.num_states);
        meta.extend_from_slice(&self.dfa_crc.to_le_bytes());
        let mut delta = Vec::with_capacity(self.delta.len() * 4);
        for &d in &self.delta {
            delta.extend_from_slice(&d.to_le_bytes());
        }
        assemble(
            ArtifactKind::Checkpoint,
            &[(TAG_CKPT_META, &meta), (TAG_CKPT_DELTA, &delta)],
        )
    }

    /// Decode and validate an artifact byte vector. Every count is
    /// checked against the bytes present before anything is sized by it.
    pub fn from_artifact_bytes(bytes: &[u8]) -> Result<Checkpoint, IoError> {
        let (kind, sections) = parse(bytes)?;
        if kind != ArtifactKind::Checkpoint {
            return Err(IoError::Corrupt("artifact is not a checkpoint"));
        }
        let meta = section(&sections, TAG_CKPT_META)?;
        let delta_raw = section(&sections, TAG_CKPT_DELTA)?;

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
    for &t in dfa.table() {
        c.update(&t.to_le_bytes());
    }
    for q in 0..dfa.num_states() {
        c.update(&[u8::from(dfa.is_accepting(q))]);
    }
    c.finish()
}

/// Serialize `sfa` into an artifact byte vector (checksummed container
/// around [`io::to_bytes`]).
pub fn sfa_to_bytes(sfa: &Sfa) -> Vec<u8> {
    let payload = io::to_bytes(sfa);
    assemble(ArtifactKind::Sfa, &[(TAG_SFA, &payload)])
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
            let ckpt = Checkpoint::from_artifact_bytes(&bytes)?;
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

/// Build the checksummed container around `sections`.
fn assemble(kind: ArtifactKind, sections: &[(u8, &[u8])]) -> Vec<u8> {
    debug_assert!(sections.len() <= u8::MAX as usize);
    let body_len: usize = sections.iter().map(|(_, p)| 17 + p.len()).sum();
    let mut out = Vec::with_capacity(HEADER_BYTES + body_len);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(kind.to_byte());
    out.push(sections.len() as u8);
    out.extend_from_slice(&[0u8; 16]); // body + header CRC placeholders
    for (tag, payload) in sections {
        out.push(*tag);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc64(payload).to_le_bytes());
        out.extend_from_slice(payload);
    }
    let body_crc = crc64(&out[HEADER_BYTES..]);
    out[8..16].copy_from_slice(&body_crc.to_le_bytes());
    let header_crc = crc64(&out[..16]);
    out[16..24].copy_from_slice(&header_crc.to_le_bytes());
    out
}

/// A parsed section: `(tag, payload)` borrowed from the container.
type Sections<'a> = Vec<(u8, &'a [u8])>;

/// Parse and checksum-verify the container; returns the sections as
/// `(tag, payload)` borrows.
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
    if crc64(&bytes[HEADER_BYTES..]) != stored_body_crc {
        // Covers truncation too: a shorter body hashes differently.
        return Err(IoError::Corrupt("body checksum mismatch"));
    }
    let mut sections = Vec::with_capacity(nsections.min(16));
    let mut pos = HEADER_BYTES;
    for _ in 0..nsections {
        let header_end = pos.checked_add(17).ok_or(IoError::Truncated)?;
        let header = bytes.get(pos..header_end).ok_or(IoError::Truncated)?;
        let tag = header[0];
        let len = u64::from_le_bytes(header[1..9].try_into().unwrap());
        let section_crc = u64::from_le_bytes(header[9..17].try_into().unwrap());
        let len = to_len(len)?;
        let payload_end = header_end.checked_add(len).ok_or(IoError::Truncated)?;
        let payload = bytes
            .get(header_end..payload_end)
            .ok_or(IoError::Truncated)?;
        if crc64(payload) != section_crc {
            return Err(IoError::Corrupt("section checksum mismatch"));
        }
        sections.push((tag, payload));
        pos = payload_end;
    }
    if pos != bytes.len() {
        return Err(IoError::Corrupt("trailing bytes after sections"));
    }
    Ok((kind, sections))
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

    #[test]
    fn every_bit_flip_outside_magic_is_corrupt() {
        let (_, sfa) = rg_sfa();
        let bytes = sfa_to_bytes(&sfa);
        // Exhaustive over the header + section header, sampled over the
        // payload (the payload is fully covered by body + section CRCs).
        let probe: Vec<usize> = (4..48)
            .chain((48..bytes.len()).step_by(7))
            .chain([bytes.len() - 1])
            .collect();
        for i in probe {
            for bit in 0..8 {
                let mut m = bytes.clone();
                m[i] ^= 1 << bit;
                let err = sfa_from_bytes(&m).expect_err("undetected flip");
                assert!(
                    matches!(
                        err,
                        IoError::Corrupt(_) | IoError::VersionMismatch { .. } | IoError::Truncated
                    ),
                    "flip at {i}:{bit} gave {err:?}"
                );
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
        let (_, sfa) = rg_sfa();
        let bytes = sfa_to_bytes(&sfa);
        for cut in 0..bytes.len() {
            assert!(sfa_from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
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
        let good = Checkpoint {
            dfa_states: 3,
            symbols: 2,
            processed: 2,
            num_states: 3,
            dfa_crc: 1,
            delta: vec![1, 0, 2, 1],
        };
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
