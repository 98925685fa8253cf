//! Crash-safety integration tests for the artifact store and
//! checkpointed construction: corruption of a persisted artifact must
//! ALWAYS be detected (typed error, never a panic, never a silently
//! wrong automaton), and a build resumed from a checkpoint must be
//! byte-identical to an uninterrupted one.

use proptest::prelude::*;
use sfa_automata::pipeline::Pipeline;
use sfa_automata::Alphabet;
use sfa_core::artifact;
use sfa_core::io;
use sfa_core::prelude::*;
use sfa_core::sfa::Sfa;
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
}
