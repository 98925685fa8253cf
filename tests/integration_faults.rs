//! The fault-injection matrix (requires `--features fault-injection`).
//!
//! Every fault site in the stack is armed with every fault kind, and
//! each run must end in one of exactly three ways:
//!
//! 1. success with a result identical to the fault-free oracle,
//! 2. a *typed* error ([`SfaError`] / artifact [`IoError`] variants), or
//! 3. a contained panic (the simulated crash) — after which every
//!    artifact left on disk still verifies, and a resumed build still
//!    converges to the byte-identical oracle.
//!
//! Never a wrong verdict, never a hang (every run is deadline-bounded on
//! a watchdog thread), never a corrupt artifact.
//!
//! Seeds for the randomized plans come from `SFA_FAULT_SEEDS`
//! (whitespace-separated, default "17 23 42") so CI failures replay
//! locally by seed alone.

use sfa_automata::pipeline::Pipeline;
use sfa_automata::{Alphabet, Dfa};
use sfa_core::artifact;
use sfa_core::budget::Governor;
use sfa_core::faults::{self, FaultKind, FaultPlan, FaultRule};
use sfa_core::io;
use sfa_core::matcher::{match_sequential, ParallelMatcher};
use sfa_core::prelude::*;
use sfa_core::sfa::Sfa;
use sfa_workloads::ScratchDir;
use std::path::PathBuf;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Every fault site threaded through the stack.
const ALL_SITES: &[&str] = &[
    "io/read",
    "io/write",
    "io/fsync",
    "io/rename",
    "pool/worker",
    "pool/bookkeeping",
    "construct/worker",
    "construct/race",
    "checkpoint/write",
    "runtime/read_block",
    "store/demote",
    "store/promote",
    "io/mmap",
];

const KINDS: [FaultKind; 3] = [FaultKind::Transient, FaultKind::Io, FaultKind::Panic];

/// Per-run watchdog deadline. Generous: a debug-build construction is
/// milliseconds, so a timeout can only mean a real hang.
const DEADLINE: Duration = Duration::from_secs(60);

fn seeds() -> Vec<u64> {
    std::env::var("SFA_FAULT_SEEDS")
        .unwrap_or_else(|_| "17 23 42".to_string())
        .split_whitespace()
        .map(|s| s.parse().expect("SFA_FAULT_SEEDS entries must be u64"))
        .collect()
}

/// The armed fault plan is process-global, so a test's fault-free
/// oracle build would hit the plan another test armed meanwhile. Every
/// test holds this lock for its whole run.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn rgd_dfa() -> Dfa {
    Pipeline::search(Alphabet::amino_acids())
        .compile_str("R[GA]D")
        .unwrap()
}

enum Outcome<T> {
    Done(T),
    Panicked,
}

/// Run `f` on a watchdog thread: a deadline overrun fails the test (a
/// hang is never acceptable), a panic is reported as a contained
/// [`Outcome::Panicked`] (the simulated crash).
fn bounded<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> Outcome<T> {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(v) => {
            let _ = handle.join();
            Outcome::Done(v)
        }
        Err(RecvTimeoutError::Disconnected) => {
            assert!(handle.join().is_err());
            Outcome::Panicked
        }
        Err(RecvTimeoutError::Timeout) => panic!("HANG: {what} exceeded {DEADLINE:?}"),
    }
}

/// Assert the crash-safety invariant for a checkpoint path: whatever the
/// fault did, any file present must be a fully valid artifact, and
/// resuming from it (faults disarmed) must reach the byte-identical
/// oracle.
fn assert_resumable(dfa: &Dfa, ckpt: &PathBuf, oracle: &[u8], context: &str) {
    let mut builder = Sfa::builder(dfa).threads(1);
    if ckpt.exists() {
        artifact::verify(ckpt)
            .unwrap_or_else(|e| panic!("{context}: fault left a corrupt checkpoint: {e}"));
        builder = builder.resume_from(ckpt);
    }
    let resumed = builder.build().unwrap().sfa;
    assert_eq!(
        io::to_bytes(&resumed),
        oracle,
        "{context}: resume after fault must converge to the oracle"
    );
}

#[test]
fn one_thread_checkpoint_matrix() {
    let _serial = serial();
    let scratch = ScratchDir::new("fault_matrix");
    let dfa = rgd_dfa();
    let oracle = io::to_bytes(
        &Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .build()
            .unwrap()
            .sfa,
    );
    let sites = [
        "construct/worker",
        "checkpoint/write",
        "io/write",
        "io/fsync",
        "io/rename",
    ];
    for site in sites {
        for kind in KINDS {
            for nth in [1, 2] {
                let context = format!("one-thread build, {site} {kind:?} nth={nth}");
                let ckpt = scratch.join("one_thread_matrix.ckpt");
                let _ = std::fs::remove_file(&ckpt);
                let guard = faults::arm(FaultPlan::new().rule(FaultRule::nth(site, nth, kind)));
                let (dfa_t, ckpt_t) = (dfa.clone(), ckpt.clone());
                let outcome = bounded(&context, move || {
                    Sfa::builder(&dfa_t)
                        .threads(1)
                        .checkpoint(&ckpt_t, 1)
                        .build()
                        .map(|r| io::to_bytes(&r.sfa))
                });
                drop(guard);
                match outcome {
                    Outcome::Done(Ok(bytes)) => {
                        assert_eq!(bytes, oracle, "{context}: wrong SFA");
                    }
                    Outcome::Done(Err(e)) => {
                        assert!(
                            matches!(
                                e,
                                SfaError::Io(_)
                                    | SfaError::Artifact(_)
                                    | SfaError::WorkerPanic { .. }
                            ),
                            "{context}: untyped error {e:?}"
                        );
                    }
                    // The worker and the checkpoint writer both run on the
                    // engine's worker thread, which contains their panics.
                    Outcome::Panicked => panic!("{context}: worker panic escaped containment"),
                }
                assert_resumable(&dfa, &ckpt, &oracle, &context);
                let _ = std::fs::remove_file(&ckpt);
            }
        }
    }
}

#[test]
fn parallel_construction_matrix() {
    let _serial = serial();
    let dfa = rgd_dfa();
    let oracle_states = Sfa::builder(&dfa)
        .sequential(SequentialVariant::Transposed)
        .build()
        .unwrap()
        .sfa
        .num_states();
    for kind in KINDS {
        for nth in [1, 2, 4] {
            let context = format!("parallel build, construct/worker {kind:?} nth={nth}");
            let guard =
                faults::arm(FaultPlan::new().rule(FaultRule::nth("construct/worker", nth, kind)));
            let dfa_t = dfa.clone();
            let outcome = bounded(&context, move || {
                Sfa::builder(&dfa_t)
                    .options(&ParallelOptions::with_threads(3))
                    .build()
                    .map(|r| {
                        r.sfa.validate(&dfa_t).unwrap();
                        r.sfa.num_states()
                    })
            });
            drop(guard);
            match outcome {
                Outcome::Done(Ok(states)) => {
                    assert_eq!(states, oracle_states, "{context}: wrong SFA");
                }
                Outcome::Done(Err(e)) => {
                    assert!(
                        matches!(e, SfaError::Io(_) | SfaError::WorkerPanic { .. }),
                        "{context}: untyped error {e:?}"
                    );
                }
                Outcome::Panicked => panic!("{context}: worker panic escaped containment"),
            }
        }
    }
}

#[test]
fn forced_race_losers_still_yield_canonical_bytes() {
    let _serial = serial();
    // Regression for the dense-renumbering gap: `construct/race` makes
    // every worker skip the duplicate pre-check, so the insert CAS race
    // is lost as often as possible and the arena fills with tombstoned
    // loser records between live states. Canonical BFS renumbering must
    // skip every loser — the id space stays dense and the artifact
    // byte-identical to the sequential oracle.
    let dfa = rgd_dfa();
    let oracle = io::to_bytes(
        &Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .build()
            .unwrap()
            .sfa,
    );
    let guard = faults::arm(
        FaultPlan::new().rule(FaultRule::always("construct/race", FaultKind::Transient)),
    );
    for threads in [1usize, 2, 4, 8] {
        let r = Sfa::builder(&dfa)
            .options(&ParallelOptions::with_threads(threads))
            .build()
            .unwrap();
        r.sfa.validate(&dfa).unwrap();
        assert_eq!(
            io::to_bytes(&r.sfa),
            oracle,
            "{threads} threads with every race lost"
        );
    }
    drop(guard);
}

#[test]
fn parallel_checkpoint_write_faults_are_typed_and_resumable() {
    let _serial = serial();
    let scratch = ScratchDir::new("fault_matrix");
    let dfa = rgd_dfa();
    let oracle = io::to_bytes(
        &Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .build()
            .unwrap()
            .sfa,
    );
    for kind in KINDS {
        for nth in [1, 2] {
            let context = format!("parallel ckpt build, checkpoint/write {kind:?} nth={nth}");
            let ckpt = scratch.join("par_ckpt_fault.ckpt");
            let _ = std::fs::remove_file(&ckpt);
            let guard =
                faults::arm(FaultPlan::new().rule(FaultRule::nth("checkpoint/write", nth, kind)));
            let (dfa_t, ckpt_t) = (dfa.clone(), ckpt.clone());
            let outcome = bounded(&context, move || {
                let opts = ParallelOptions::with_threads(3).symbol_blocks(dfa_t.num_symbols());
                Sfa::builder(&dfa_t)
                    .options(&opts)
                    .checkpoint(&ckpt_t, 1)
                    .build()
                    .map(|r| io::to_bytes(&r.sfa))
            });
            drop(guard);
            match outcome {
                Outcome::Done(Ok(bytes)) => {
                    assert_eq!(bytes, oracle, "{context}: wrong SFA");
                }
                Outcome::Done(Err(e)) => {
                    assert!(
                        matches!(
                            e,
                            SfaError::Io(_) | SfaError::Artifact(_) | SfaError::WorkerPanic { .. }
                        ),
                        "{context}: untyped error {e:?}"
                    );
                }
                // The writer runs on a worker thread; its panic must be
                // contained by the engine like any other worker panic.
                Outcome::Panicked => panic!("{context}: writer panic escaped containment"),
            }
            // Whatever the fault did, an existing snapshot still
            // verifies and resumes to the byte-identical oracle.
            assert_resumable(&dfa, &ckpt, &oracle, &context);
            let _ = std::fs::remove_file(&ckpt);
        }
    }
}

#[test]
fn spill_tier_matrix() {
    let _serial = serial();
    let scratch = ScratchDir::new("fault_matrix");
    // The parallel engine's spill tier under fire: every tier-transition
    // fault site (`store/demote` before a segment write, `store/promote`
    // before a spilled fetch, `io/mmap` inside the segment map) armed
    // with every kind, under a cap small enough that every run demotes
    // to disk and promotes back, checkpointing as it goes. A single
    // transient must be absorbed by the bounded-backoff retry
    // (byte-identical success); a hard I/O error must surface typed; the
    // spill leader runs at quiescence inside the rendezvous, so its
    // simulated crash must be contained like any worker panic. Whatever
    // happened, the checkpoint left behind must verify and resume to the
    // oracle.
    let dfa = sfa_automata::random::rn(48);
    let oracle = io::to_bytes(
        &Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .build()
            .unwrap()
            .sfa,
    );
    const CAP: u64 = 2048;
    for site in ["store/demote", "store/promote", "io/mmap"] {
        for kind in KINDS {
            for nth in [1, 2] {
                let tag = format!("{}_{kind:?}_{nth}", site.replace('/', "_"));
                let context = format!("spill build, {site} {kind:?} nth={nth}");
                let ckpt = scratch.join("spill_matrix.ckpt");
                let _ = std::fs::remove_file(&ckpt);
                let dir = scratch.join(format!("spill_{tag}"));
                let guard = faults::arm(FaultPlan::new().rule(FaultRule::nth(site, nth, kind)));
                let (dfa_t, ckpt_t, dir_t) = (dfa.clone(), ckpt.clone(), dir.clone());
                let outcome = bounded(&context, move || {
                    Sfa::builder(&dfa_t)
                        .threads(3)
                        .budget(Budget::unlimited().with_max_payload_bytes(CAP))
                        .spill(&dir_t)
                        .checkpoint(&ckpt_t, 64)
                        .build()
                        .map(|r| (io::to_bytes(&r.sfa), r.stats.spilled_bytes))
                });
                drop(guard);
                match outcome {
                    Outcome::Done(Ok((bytes, spilled))) => {
                        assert_eq!(bytes, oracle, "{context}: wrong SFA");
                        assert!(spilled > 0, "{context}: cap never reached the disk tier");
                    }
                    Outcome::Done(Err(e)) => {
                        assert!(
                            kind != FaultKind::Transient,
                            "{context}: one transient must be absorbed by retry, got {e:?}"
                        );
                        assert!(
                            matches!(
                                e,
                                SfaError::Io(_)
                                    | SfaError::Artifact(_)
                                    | SfaError::WorkerPanic { .. }
                                    | SfaError::InvalidOptions(_)
                            ),
                            "{context}: untyped error {e:?}"
                        );
                    }
                    Outcome::Panicked => panic!("{context}: spill panic escaped containment"),
                }
                assert_resumable(&dfa, &ckpt, &oracle, &context);
                let _ = std::fs::remove_file(&ckpt);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

#[test]
fn spill_checkpoint_resumes_mid_spill_byte_identically() {
    let _serial = serial();
    let scratch = ScratchDir::new("fault_matrix");
    // Kill the build (simulated crash) while the spill tier is engaged,
    // then resume from the snapshot WITHOUT a spill tier: checkpoints
    // store plaintext rows, so the artifact must come out byte-identical
    // regardless of which tier each state was in at snapshot time.
    let dfa = sfa_automata::random::rn(48);
    let oracle = io::to_bytes(
        &Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .build()
            .unwrap()
            .sfa,
    );
    let ckpt = scratch.join("spill_resume.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let dir = scratch.join("spill_resume_dir");
    // The first spill pass needs the compression phase and then a cap's
    // worth of compressed payloads, over a hundred states in; by the
    // fourth pass the 16-state cadence has checkpointed many times.
    let guard =
        faults::arm(FaultPlan::new().rule(FaultRule::nth("store/demote", 4, FaultKind::Panic)));
    let (dfa_t, ckpt_t, dir_t) = (dfa.clone(), ckpt.clone(), dir.clone());
    let outcome = bounded("mid-spill crash", move || {
        Sfa::builder(&dfa_t)
            .threads(2)
            .budget(Budget::unlimited().with_max_payload_bytes(2048))
            .spill(&dir_t)
            .checkpoint(&ckpt_t, 16)
            .build()
            .map(|r| io::to_bytes(&r.sfa))
    });
    drop(guard);
    assert!(
        matches!(outcome, Outcome::Done(Err(SfaError::WorkerPanic { .. }))),
        "the fourth spill pass must crash the build"
    );
    assert!(
        ckpt.exists(),
        "a 16-state snapshot cadence must have checkpointed before the crash"
    );
    assert_resumable(&dfa, &ckpt, &oracle, "mid-spill crash");
    // Resuming WITH a spill tier converges identically too.
    artifact::verify(&ckpt).unwrap();
    let resumed = Sfa::builder(&dfa)
        .threads(2)
        .budget(Budget::unlimited().with_max_payload_bytes(2048))
        .spill(&dir)
        .resume_from(&ckpt)
        .build()
        .unwrap();
    assert_eq!(
        io::to_bytes(&resumed.sfa),
        oracle,
        "resume with the spill tier re-enabled must converge to the oracle"
    );
    assert!(resumed.stats.spilled_bytes > 0);
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streaming_match_matrix() {
    let _serial = serial();
    let dfa = rgd_dfa();
    let sfa_bytes = io::to_bytes(
        &Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .build()
            .unwrap()
            .sfa,
    );
    let alpha = Alphabet::amino_acids();
    let text = sfa_workloads::protein_text_with_motif(50_000, 9, b"RGD", &[31_000]);
    let bytes = alpha.decode_symbols(&text);
    let expected = match_sequential(&dfa, &text);
    assert!(expected);

    for site in ["runtime/read_block", "pool/worker", "pool/bookkeeping"] {
        for kind in KINDS {
            for nth in [1, 3] {
                let context = format!("stream match, {site} {kind:?} nth={nth}");
                let guard = faults::arm(FaultPlan::new().rule(FaultRule::nth(site, nth, kind)));
                let (dfa_t, sfa_bytes_t, alpha_t, bytes_t) =
                    (dfa.clone(), sfa_bytes.clone(), alpha.clone(), bytes.clone());
                let outcome = bounded(&context, move || {
                    let sfa_t = io::from_bytes(&sfa_bytes_t).unwrap();
                    let matcher = ParallelMatcher::new(&sfa_t, &dfa_t).unwrap();
                    let classifier = ByteClassifier::strict(&alpha_t);
                    // Private pool so an injected worker panic cannot
                    // leak into other tests through the shared pool;
                    // no-op sleeper keeps transient retries instant.
                    let rt = MatchRuntime::new(3)
                        .with_block_bytes(8 * 1024)
                        .with_sleeper(|_| {});
                    rt.matches_stream(
                        &matcher,
                        &classifier,
                        std::io::Cursor::new(bytes_t),
                        &Governor::unlimited(),
                    )
                });
                drop(guard);
                match outcome {
                    Outcome::Done(Ok((verdict, _stats))) => {
                        assert_eq!(verdict, expected, "{context}: WRONG VERDICT");
                    }
                    Outcome::Done(Err(e)) => {
                        assert!(
                            matches!(e, SfaError::Io(_) | SfaError::WorkerPanic { .. }),
                            "{context}: untyped error {e:?}"
                        );
                    }
                    // Only the calling-thread read loop may unwind; pool
                    // worker panics must be contained as WorkerPanic.
                    Outcome::Panicked => assert_eq!(
                        site, "runtime/read_block",
                        "{context}: pool panic escaped containment"
                    ),
                }
            }
        }
    }
}

#[test]
fn transient_read_faults_are_absorbed_by_retry() {
    let _serial = serial();
    let dfa = rgd_dfa();
    let sfa = Sfa::builder(&dfa)
        .sequential(SequentialVariant::Transposed)
        .build()
        .unwrap()
        .sfa;
    let alpha = Alphabet::amino_acids();
    let text = sfa_workloads::protein_text_with_motif(4_000, 3, b"RGD", &[1_000]);
    let bytes = alpha.decode_symbols(&text);
    let matcher = ParallelMatcher::new(&sfa, &dfa).unwrap();
    let classifier = ByteClassifier::strict(&alpha);
    let rt = MatchRuntime::new(2)
        .with_block_bytes(512)
        .with_sleeper(|_| {});

    // A 2-hit transient window is under the default 4-attempt policy, so
    // the match must succeed — with the retries visible in the stats.
    let guard = faults::arm(FaultPlan::new().rule(FaultRule::window(
        "runtime/read_block",
        2,
        2,
        FaultKind::Transient,
    )));
    let (verdict, stats) = rt
        .matches_stream(
            &matcher,
            &classifier,
            std::io::Cursor::new(bytes.clone()),
            &Governor::unlimited(),
        )
        .unwrap();
    drop(guard);
    assert!(verdict, "transient faults must not change the verdict");
    assert_eq!(stats.retries, 2);

    // A speculative file request reads through the same block reader.
    let scratch = ScratchDir::new("faults_speculative_file");
    let path = scratch.join("text.txt");
    std::fs::write(&path, &bytes).unwrap();
    let request = MatchRequest::file(&path).with_tier(TierPolicy::Speculative);
    let guard = faults::arm(FaultPlan::new().rule(FaultRule::window(
        "runtime/read_block",
        2,
        2,
        FaultKind::Transient,
    )));
    let outcome = rt.run_dfa(&dfa, &request, None).unwrap();
    drop(guard);
    assert!(
        outcome.verdict,
        "transient faults must not change the verdict"
    );
    assert!(outcome.stats.retries > 0);
    assert!(outcome.stats.blocks > 1);

    // An everlasting transient fault must exhaust the retry budget and
    // surface as a typed error — not spin forever.
    let guard = faults::arm(FaultPlan::new().rule(FaultRule::always(
        "runtime/read_block",
        FaultKind::Transient,
    )));
    let err = rt
        .matches_stream(
            &matcher,
            &classifier,
            std::io::Cursor::new(bytes),
            &Governor::unlimited(),
        )
        .unwrap_err();
    drop(guard);
    assert!(
        matches!(&err, SfaError::Io(msg) if msg.contains("transient")),
        "{err:?}"
    );
}

#[test]
fn kill_between_write_and_rename_preserves_the_old_artifact() {
    let _serial = serial();
    let scratch = ScratchDir::new("fault_matrix");
    let dfa = rgd_dfa();
    let sfa = Sfa::builder(&dfa)
        .sequential(SequentialVariant::Transposed)
        .build()
        .unwrap()
        .sfa;
    let path = scratch.join("torn_write.sfa");
    let _ = std::fs::remove_file(&path);
    artifact::write_sfa(&path, &sfa).unwrap();
    let before = std::fs::read(&path).unwrap();

    // Panic at io/rename = the process dying after the temp file is
    // fully written but before it replaces the target.
    let guard =
        faults::arm(FaultPlan::new().rule(FaultRule::nth("io/rename", 1, FaultKind::Panic)));
    let (path_t, sfa_bytes) = (path.clone(), io::to_bytes(&sfa));
    let outcome = bounded("torn write", move || {
        let sfa_t = io::from_bytes(&sfa_bytes).unwrap();
        artifact::write_sfa(&path_t, &sfa_t)
    });
    drop(guard);
    assert!(
        matches!(outcome, Outcome::Panicked),
        "rename fault must crash"
    );

    // The original artifact is untouched and still fully valid.
    assert_eq!(std::fs::read(&path).unwrap(), before);
    artifact::verify(&path).unwrap();
    artifact::read_sfa(&path).unwrap();

    // A crashed writer may leave its temp sibling behind; the next
    // successful write goes through the same tmp path and replaces the
    // target atomically.
    artifact::write_sfa(&path, &sfa).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), before);
    let tmp = path.with_file_name("torn_write.sfa.tmp");
    let _ = std::fs::remove_file(&tmp);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn seeded_whole_stack_plans() {
    let _serial = serial();
    let scratch = ScratchDir::new("fault_matrix");
    let dfa = rgd_dfa();
    let oracle = io::to_bytes(
        &Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .build()
            .unwrap()
            .sfa,
    );
    let alpha = Alphabet::amino_acids();
    let text = sfa_workloads::protein_text_with_motif(20_000, 5, b"RGD", &[11_000]);
    let bytes = alpha.decode_symbols(&text);
    let expected = match_sequential(&dfa, &text);

    for seed in seeds() {
        let context = format!("seeded plan {seed}");
        let ckpt = scratch.join(format!("seeded_{seed}.ckpt"));
        let _ = std::fs::remove_file(&ckpt);
        let plan = FaultPlan::seeded(seed, ALL_SITES);

        // Checkpointed one-thread build under the full plan.
        let guard = faults::arm(plan.clone());
        let (dfa_t, ckpt_t) = (dfa.clone(), ckpt.clone());
        let outcome = bounded(&context, move || {
            Sfa::builder(&dfa_t)
                .threads(1)
                .checkpoint(&ckpt_t, 1)
                .build()
                .map(|r| io::to_bytes(&r.sfa))
        });
        drop(guard);
        match outcome {
            Outcome::Done(Ok(b)) => assert_eq!(b, oracle, "{context}: wrong SFA"),
            Outcome::Done(Err(e)) => assert!(
                matches!(
                    e,
                    SfaError::Io(_) | SfaError::Artifact(_) | SfaError::WorkerPanic { .. }
                ),
                "{context}: untyped error {e:?}"
            ),
            Outcome::Panicked => panic!("{context}: worker panic escaped containment"),
        }
        assert_resumable(&dfa, &ckpt, &oracle, &context);
        let _ = std::fs::remove_file(&ckpt);

        // Streaming match under the same plan: correct verdict or typed
        // error, never a wrong verdict.
        let guard = faults::arm(plan);
        let sfa = io::from_bytes(&oracle).unwrap();
        let (dfa_t, alpha_t, bytes_t) = (dfa.clone(), alpha.clone(), bytes.clone());
        let outcome = bounded(&context, move || {
            let matcher = ParallelMatcher::new(&sfa, &dfa_t).unwrap();
            let classifier = ByteClassifier::strict(&alpha_t);
            let rt = MatchRuntime::new(3)
                .with_block_bytes(4 * 1024)
                .with_sleeper(|_| {});
            rt.matches_stream(
                &matcher,
                &classifier,
                std::io::Cursor::new(bytes_t),
                &Governor::unlimited(),
            )
            .map(|(verdict, _)| verdict)
        });
        drop(guard);
        match outcome {
            Outcome::Done(Ok(verdict)) => {
                assert_eq!(verdict, expected, "{context}: WRONG VERDICT")
            }
            Outcome::Done(Err(e)) => assert!(
                matches!(e, SfaError::Io(_) | SfaError::WorkerPanic { .. }),
                "{context}: untyped error {e:?}"
            ),
            Outcome::Panicked => {}
        }
    }
}
