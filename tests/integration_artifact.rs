//! Crash-safety integration tests for the artifact store and
//! checkpointed construction: corruption of a persisted artifact must
//! ALWAYS be detected (typed error, never a panic, never a silently
//! wrong automaton), and a build resumed from a checkpoint must be
//! byte-identical to an uninterrupted one.

use proptest::prelude::*;
use sfa_automata::pipeline::Pipeline;
use sfa_automata::Alphabet;
use sfa_core::artifact::{self, Checkpoint};
use sfa_core::io::{self, IoError};
use sfa_core::prelude::*;
use sfa_core::sfa::{CodecChoice, Sfa};
use sfa_hash::crc64::crc64;
use sfa_workloads::ScratchDir;
use std::sync::OnceLock;

fn rgd_dfa() -> sfa_automata::Dfa {
    Pipeline::search(Alphabet::amino_acids())
        .compile_str("R[GA]D")
        .unwrap()
}

fn build_seq(dfa: &sfa_automata::Dfa) -> Sfa {
    Sfa::builder(dfa)
        .sequential(SequentialVariant::Transposed)
        .build()
        .unwrap()
        .sfa
}

#[test]
fn sfa_artifact_round_trips_and_verifies() {
    let scratch = ScratchDir::new("artifact_it");
    let dfa = rgd_dfa();
    let sfa = build_seq(&dfa);
    let path = scratch.join("roundtrip.sfa");
    artifact::write_sfa(&path, &sfa).unwrap();

    let info = artifact::verify(&path).unwrap();
    assert_eq!(info.kind, ArtifactKind::Sfa);
    assert_eq!(
        info.total_bytes,
        std::fs::metadata(&path).unwrap().len(),
        "verify reports the real file size"
    );

    let loaded = artifact::read_sfa(&path).unwrap();
    assert_eq!(io::to_bytes(&loaded), io::to_bytes(&sfa));
    loaded.validate(&dfa).unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn interrupted_build_resumes_byte_identical() {
    let scratch = ScratchDir::new("artifact_it");
    let dfa = rgd_dfa();
    for threads in [1, 4] {
        let ckpt = scratch.join(format!("resume_t{threads}.ckpt"));
        let _ = std::fs::remove_file(&ckpt);

        // Interrupt mid-construction with the state budget; checkpoint
        // every discovered state. The store fills inside the first work
        // item, and the snapshot that item made due is raised before the
        // worker stops, so the abort leaves it.
        let err = Sfa::builder(&dfa)
            .threads(threads)
            .state_budget(4)
            .checkpoint(&ckpt, 1)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SfaError::StateBudgetExceeded { budget: 4 },
            "{threads} threads: interruption must be the typed state-budget error"
        );
        artifact::verify(&ckpt).unwrap_or_else(|e| {
            panic!("{threads} threads: interrupted build left no valid checkpoint: {e}")
        });

        let resumed = Sfa::builder(&dfa)
            .threads(threads)
            .resume_from(&ckpt)
            .build()
            .unwrap()
            .sfa;
        assert_eq!(
            io::to_bytes(&resumed),
            io::to_bytes(&build_seq(&dfa)),
            "{threads} threads: resumed SFA must be byte-identical to an uninterrupted build"
        );
        std::fs::remove_file(&ckpt).unwrap();
    }
}

#[test]
fn interrupted_parallel_build_resumes_byte_identical() {
    let scratch = ScratchDir::new("artifact_it");
    let dfa = rgd_dfa();
    let ckpt = scratch.join("parallel_resume.ckpt");
    let _ = std::fs::remove_file(&ckpt);

    // One symbol per work item so discovery is gradual enough for the
    // state budget to interrupt *between* checkpoints, not inside the
    // first work item.
    let interrupt = ParallelOptions::with_threads(4)
        .symbol_blocks(dfa.num_symbols())
        .state_budget(5);
    let err = Sfa::builder(&dfa)
        .options(&interrupt)
        .checkpoint(&ckpt, 1)
        .build()
        .unwrap_err();
    assert!(
        matches!(err, SfaError::StateBudgetExceeded { .. }),
        "interruption must be the typed budget error, got {err:?}"
    );
    artifact::verify(&ckpt).expect("interrupted parallel build left a valid checkpoint");

    // Resume under *different* parallel options: canonical renumbering
    // makes the result byte-identical to an uninterrupted sequential
    // build anyway.
    let resumed = Sfa::builder(&dfa)
        .options(&ParallelOptions::with_threads(8))
        .resume_from(&ckpt)
        .build()
        .unwrap()
        .sfa;
    assert_eq!(
        io::to_bytes(&resumed),
        io::to_bytes(&build_seq(&dfa)),
        "parallel resume must be byte-identical to an uninterrupted build"
    );
    std::fs::remove_file(&ckpt).unwrap();
}

#[test]
fn checkpoint_for_a_different_dfa_is_rejected() {
    let scratch = ScratchDir::new("artifact_it");
    let dfa = rgd_dfa();
    let other = Pipeline::search(Alphabet::amino_acids())
        .compile_str("NPST")
        .unwrap();
    let ckpt = scratch.join("wrong_dfa.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let _ = Sfa::builder(&dfa)
        .threads(1)
        .state_budget(5)
        .checkpoint(&ckpt, 1)
        .build()
        .unwrap_err();
    let err = Sfa::builder(&other)
        .threads(1)
        .resume_from(&ckpt)
        .build()
        .unwrap_err();
    assert!(
        matches!(err, SfaError::Artifact(_)),
        "fingerprint must bind checkpoints to their DFA, got {err:?}"
    );
    std::fs::remove_file(&ckpt).unwrap();
}

#[test]
fn compressed_builds_resume_byte_identical_from_every_cap() {
    // Resume into each stored form a checkpointed build can intern rows
    // in (raw rows are covered above): compressed from the start with
    // deflate and with RLE, one work item per state and one per symbol,
    // at 1 and 4 threads. Each build is stopped by a state cap at a
    // quarter, half and three quarters of its states, then resumed
    // without the cap under the same options.
    let scratch = ScratchDir::new("artifact_it");
    let dfa = sfa_automata::random::rn(24);
    let ckpt = scratch.join("stored_forms.ckpt");
    for codec in [CodecChoice::Deflate, CodecChoice::Rle] {
        for blocks in [1, dfa.num_symbols()] {
            for threads in [1, 4] {
                let opts = ParallelOptions::with_threads(threads)
                    .compression(CompressionPolicy::FromStart)
                    .codec(codec)
                    .symbol_blocks(blocks);
                let full = Sfa::builder(&dfa).options(&opts).build().unwrap().sfa;
                assert!(full.is_compressed());
                let (states, oracle) = (full.num_states() as usize, io::to_bytes(&full));
                for cap in [states / 4, states / 2, states * 3 / 4] {
                    let context =
                        format!("{codec:?}, {blocks} blocks, {threads} threads, cap {cap}");
                    let _ = std::fs::remove_file(&ckpt);
                    let err = Sfa::builder(&dfa)
                        .options(&opts.clone().state_budget(cap))
                        .checkpoint(&ckpt, 8)
                        .build()
                        .unwrap_err();
                    assert_eq!(
                        err,
                        SfaError::StateBudgetExceeded { budget: cap },
                        "{context}"
                    );
                    let progress = artifact::verify(&ckpt)
                        .unwrap_or_else(|e| panic!("{context}: no valid checkpoint: {e}"))
                        .checkpoint
                        .unwrap();
                    assert!(progress.processed > 0, "{context}: nothing processed");
                    let resumed = Sfa::builder(&dfa)
                        .options(&opts)
                        .resume_from(&ckpt)
                        .build()
                        .unwrap();
                    assert_eq!(io::to_bytes(&resumed.sfa), oracle, "{context}");
                }
            }
        }
    }
}

/// A checkpoint container holding `sections` as given, checksummed as
/// the artifact writer does.
fn checkpoint_container(sections: &[(u8, &[u8])]) -> Vec<u8> {
    let mut body = Vec::new();
    for (tag, payload) in sections {
        body.push(*tag);
        body.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        body.extend_from_slice(&crc64(payload).to_le_bytes());
        body.extend_from_slice(payload);
    }
    let mut out = b"SFAR".to_vec();
    out.extend_from_slice(&artifact::FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&[1, sections.len() as u8]);
    out.extend_from_slice(&crc64(&body).to_le_bytes());
    out.extend_from_slice(&crc64(&out).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

#[test]
fn checkpoint_in_the_earlier_layout_is_rejected_typed() {
    // The earlier layout: meta under tag 2 with a mapping element width,
    // δₛ rows for every state (`u32::MAX` on the frontier) and the
    // mapping rows under tag 4; here the start state, unprocessed.
    let dfa = rgd_dfa();
    let (n, k) = (dfa.num_states(), dfa.num_symbols() as u32);
    // n, k, element width, processed, states: one-byte varints.
    let mut meta = vec![n as u8, k as u8, 2, 0, 1];
    meta.extend_from_slice(&artifact::dfa_fingerprint(&dfa).to_le_bytes());
    let delta: Vec<u8> = (0..k).flat_map(|_| u32::MAX.to_le_bytes()).collect();
    let rows: Vec<u8> = (0..n as u16).flat_map(u16::to_le_bytes).collect();
    let bytes = checkpoint_container(&[(2, &meta), (3, &delta), (4, &rows)]);
    assert_eq!(
        Checkpoint::from_artifact_bytes(&bytes),
        Err(IoError::Corrupt("missing artifact section"))
    );
    let scratch = ScratchDir::new("artifact_it");
    let path = scratch.join("earlier_layout.ckpt");
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(artifact::verify(&path), Err(IoError::Corrupt(_))));
    let resumed = Sfa::builder(&dfa).threads(1).resume_from(&path).build();
    assert!(
        matches!(resumed, Err(SfaError::Artifact(IoError::Corrupt(_)))),
        "{:?}",
        resumed.map(|r| r.stats)
    );
}

/// A checkpoint with processed rows, and its DFA: rn(24) stopped by a
/// 150-state cap.
fn base_checkpoint() -> &'static (sfa_automata::Dfa, Checkpoint) {
    static BASE: OnceLock<(sfa_automata::Dfa, Checkpoint)> = OnceLock::new();
    BASE.get_or_init(|| {
        let dfa = sfa_automata::random::rn(24);
        let scratch = ScratchDir::new("artifact_fuzz_base");
        let path = scratch.join("base.ckpt");
        let _ = Sfa::builder(&dfa)
            .threads(1)
            .state_budget(150)
            .checkpoint(&path, 16)
            .build()
            .unwrap_err();
        let ckpt = artifact::read_checkpoint(&path).unwrap();
        assert!(ckpt.processed > 1, "the base checkpoint holds rows");
        (dfa, ckpt)
    })
}

/// Apply structured mutation `kind` to `c`, sized by `seed`. Kinds 0–5
/// break the checkpoint's own structure; kind 6 breaks its binding to
/// the DFA.
fn mutate(c: &mut Checkpoint, kind: u8, seed: u64) {
    let k = c.symbols as u64;
    match kind {
        // A cursor past the discovered states, with rows to match.
        0 => {
            let extra = c.num_states - c.processed + 1 + seed % 4;
            c.processed += extra;
            c.delta
                .extend((0..extra * k).map(|i| ((i ^ seed) % c.num_states) as u32));
        }
        // A cursor far beyond the rows present.
        1 => c.processed += 1 + seed % (1 << 40),
        // More states than 1 + processed·k, up to far beyond the bytes.
        2 => c.num_states = 2 + c.processed * k + seed % (1 << 40),
        // A successor id at or past the state count.
        3 => {
            let i = (seed % c.delta.len() as u64) as usize;
            c.delta[i] = (c.num_states + seed % 1000) as u32;
        }
        // Two states' discoveries swapped: a non-canonical numbering.
        4 => {
            let mut discovered = 1;
            let mut firsts = Vec::new();
            for (i, &succ) in c.delta.iter().enumerate() {
                if succ == discovered {
                    firsts.push(i);
                    discovered += 1;
                }
            }
            let a = (seed % (firsts.len() as u64 - 1)) as usize;
            let b = a + 1 + ((seed >> 32) % (firsts.len() - 1 - a) as u64) as usize;
            c.delta.swap(firsts[a], firsts[b]);
        }
        // A symbol count the rows present do not fill.
        5 => c.symbols += 1 + (seed % 1000) as u32,
        // Another DFA's dimensions or fingerprint.
        _ if seed.is_multiple_of(2) => c.dfa_states += 1 + (seed % 1000) as u32,
        _ => c.dfa_crc ^= 1 << (seed % 64),
    }
}

/// The serialized artifacts the corruption properties run against,
/// built once per test binary and shared read-only.
fn artifact_corpora() -> &'static [Vec<u8>] {
    static CORPORA: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CORPORA.get_or_init(|| {
        let dfa = rgd_dfa();
        let sfa = build_seq(&dfa);
        let sfa_bytes = artifact::sfa_to_bytes(&sfa);

        let scratch = ScratchDir::new("artifact_corpus");
        let ckpt = scratch.join("corpus.ckpt");
        let _ = Sfa::builder(&dfa)
            .threads(1)
            .state_budget(5)
            .checkpoint(&ckpt, 1)
            .build()
            .unwrap_err();
        let ckpt_bytes = std::fs::read(&ckpt).unwrap();
        vec![sfa_bytes, ckpt_bytes]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single flipped bit, anywhere in either artifact kind, must be
    /// detected as a typed load error — CRC-64 guarantees it.
    #[test]
    fn prop_single_bit_flip_is_always_detected(
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        for bytes in artifact_corpora() {
            let mut mutated = bytes.clone();
            let pos = (pos_seed % bytes.len() as u64) as usize;
            mutated[pos] ^= 1 << bit;
            prop_assert!(
                artifact::sfa_from_bytes(&mutated).is_err()
                    && artifact::Checkpoint::from_artifact_bytes(&mutated).is_err(),
                "flip at byte {pos} bit {bit} went undetected"
            );
        }
    }

    /// Any truncation (including to 0 bytes) must be detected.
    #[test]
    fn prop_truncation_is_always_detected(cut_seed in any::<u64>()) {
        for bytes in artifact_corpora() {
            let cut = (cut_seed % bytes.len() as u64) as usize;
            let truncated = &bytes[..cut];
            prop_assert!(
                artifact::sfa_from_bytes(truncated).is_err()
                    && artifact::Checkpoint::from_artifact_bytes(truncated).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    /// Garbage that happens to start with the magic must still fail
    /// cleanly (typed error, no panic).
    #[test]
    fn prop_magic_prefixed_garbage_never_panics(
        tail in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut bytes = b"SFAR".to_vec();
        bytes.extend_from_slice(&tail);
        prop_assert!(artifact::sfa_from_bytes(&bytes).is_err());
        prop_assert!(artifact::Checkpoint::from_artifact_bytes(&bytes).is_err());
    }

    /// Structured mutations of a real checkpoint, re-checksummed so that
    /// they reach the loader's checks: every one is a typed error from
    /// the loader or from resume, never a panic or an allocation sized
    /// by a count the bytes do not back.
    #[test]
    fn prop_mutated_checkpoints_fail_typed(kind in 0u8..7, seed in any::<u64>()) {
        let (dfa, base) = base_checkpoint();
        let mut c = base.clone();
        mutate(&mut c, kind, seed);
        let bytes = c.to_artifact_bytes();
        let loaded = Checkpoint::from_artifact_bytes(&bytes);
        prop_assert!(
            matches!(loaded, Err(IoError::Corrupt(_))) || kind == 6,
            "mutation {kind} (seed {seed}) loaded: {loaded:?}"
        );
        let scratch = ScratchDir::new("artifact_fuzz");
        let path = scratch.join("mutated.ckpt");
        std::fs::write(&path, &bytes).unwrap();
        let resumed = Sfa::builder(dfa).threads(1).resume_from(&path).build();
        prop_assert!(
            matches!(resumed, Err(SfaError::Artifact(IoError::Corrupt(_)))),
            "mutation {kind} (seed {seed}) resumed: {:?}",
            resumed.map(|r| r.sfa.num_states())
        );
    }
}
