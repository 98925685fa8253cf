//! End-to-end tests of the `sfa` binary (spawned as a real process).

use sfa_workloads::ScratchDir;
use std::process::{Command, Output, Stdio};

fn sfa(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sfa"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_lists_commands() {
    let out = sfa(&["help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for cmd in [
        "compile",
        "build",
        "match",
        "survey",
        "verify",
        "workloads",
        "dot",
    ] {
        assert!(text.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn unknown_command_fails_cleanly() {
    let out = sfa(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn compile_emits_grail() {
    let out = sfa(&["compile", "--regex", "RG"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("(START) |-"));
    assert!(text.contains("-| (FINAL)"));
}

#[test]
fn build_validates_and_reports() {
    let out = sfa(&["build", "--regex", "RG", "--threads", "2", "--validate"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("SFA states           6"));
    assert!(stderr(&out).contains("validation: ok"));
}

#[test]
fn build_json_is_parseable() {
    let out = sfa(&["build", "--regex", "RG", "--threads", "2", "--json"]);
    assert!(out.status.success());
    let v: sfa_json::Value = sfa_json::from_str(&stdout(&out)).expect("valid JSON");
    assert_eq!(v["sfa_states"], 6);
    assert_eq!(v["dfa_states"], 3);
}

#[test]
fn build_sequential_variants() {
    for variant in ["baseline", "pointer-tree", "hashing", "transposed"] {
        let out = sfa(&["build", "--regex", "RG", "--seq", variant]);
        assert!(out.status.success(), "variant {variant}");
        assert!(stdout(&out).contains("SFA states           6"));
    }
}

#[test]
fn sequential_build_obeys_the_state_budget() {
    let out = sfa(&[
        "build",
        "--rn",
        "100",
        "--seq",
        "transposed",
        "--budget",
        "10",
    ]);
    assert!(!out.status.success(), "a 10-state budget must stop rn(100)");
    assert!(stderr(&out).contains("state budget"), "{}", stderr(&out));
}

#[test]
fn sequential_build_refuses_a_spill_tier() {
    let scratch = ScratchDir::new("cli_seq_spill");
    let dir = scratch.join("spill");
    let out = sfa(&[
        "build",
        "--rn",
        "60",
        "--seq",
        "transposed",
        "--spill-dir",
        dir.to_str().unwrap(),
        "--max-bytes",
        "4K",
    ]);
    assert!(!out.status.success(), "--seq with --spill-dir must fail");
    assert!(stderr(&out).contains("parallel engine"), "{}", stderr(&out));
    assert!(!dir.exists(), "the refused build created {}", dir.display());
}

#[test]
fn unknown_options_are_usage_errors() {
    // A typo, and options this CLI no longer has: each must fail and
    // name the option rather than run the build without it.
    for option in ["--thread", "--max-states", "--memory-cap"] {
        let out = sfa(&["build", "--regex", "RG", option, "4"]);
        assert_eq!(out.status.code(), Some(1), "{option} was accepted");
        let err = stderr(&out);
        assert!(err.contains(&format!("unknown option {option};")), "{err}");
    }
    // An option of another command is refused by name, with the command.
    for (args, option) in [
        (
            &["build", "--regex", "RG", "--state-budget", "1"][..],
            "--state-budget",
        ),
        (&["compile", "--regex", "RG", "--threads", "9"], "--threads"),
        (
            &[
                "match", "--regex", "RGD", "--text", "ARGDA", "--seq", "baseline",
            ],
            "--seq",
        ),
        (&["verify", "--regex", "RG", "--json"], "--json"),
        (&["workloads", "--budget", "5"], "--budget"),
    ] {
        let out = sfa(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?} was accepted");
        let want = format!("{option} is not an option of `sfa {}`", args[0]);
        assert!(err.contains(&want), "{args:?}: {err}");
    }
}

#[test]
fn invalid_state_caps_exit_typed() {
    for args in [
        &["build", "--regex", "RG", "--budget", "0", "--threads", "2"][..],
        &[
            "build",
            "--regex",
            "RG",
            "--budget",
            "0",
            "--seq",
            "transposed",
        ],
        &["match", "--regex", "RG", "--text", "ARGA", "--budget", "0"],
        &[
            "match", "--regex", "RG", "--text", "ARGA", "--budget", "0", "--lazy",
        ],
        &[
            "match",
            "--regex",
            "RG",
            "--text",
            "ARGA",
            "--lazy",
            "--budget",
            "5000000000",
        ],
    ] {
        let out = sfa(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains("state_budget"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn build_checks_threads_and_blocks_on_both_engines() {
    // The sequential engine reads neither value, but a zero thread count
    // or block count is a usage error on every engine.
    for (extra, name) in [
        (&["--threads", "0"][..], "worker thread"),
        (&["--blocks", "0"], "symbol_blocks"),
    ] {
        for engine in [&[][..], &["--seq", "transposed"]] {
            let args = [&["build", "--regex", "RG"][..], extra, engine].concat();
            let out = sfa(&args);
            let err = stderr(&out);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
            assert!(err.contains(name), "{args:?}: {err}");
            assert!(!err.contains("panicked"), "{args:?}: {err}");
        }
    }
}

#[test]
fn closed_stdout_ends_output_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sfa"))
        .args(["build", "--rn", "100", "--json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // Close the read end before the build has anything to print.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("binary exits");
    let err = stderr(&out);
    assert!(!err.contains("panicked"), "{err}");
    assert!(out.status.success(), "{err}");
}

#[test]
fn sequential_build_refuses_a_checkpoint() {
    let scratch = ScratchDir::new("cli_seq_ckpt");
    let ckpt = scratch.join("seq.ckpt");
    let out = sfa(&[
        "build",
        "--regex",
        "R[GA]D",
        "--seq",
        "transposed",
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "--seq with --checkpoint must fail"
    );
    assert!(stderr(&out).contains("parallel engine"), "{}", stderr(&out));
    assert!(
        !ckpt.exists(),
        "the refused build created {}",
        ckpt.display()
    );
}

#[test]
fn artifact_verify_reports_checkpoint_progress() {
    let scratch = ScratchDir::new("cli_ckpt_verify");
    let ckpt = scratch.join("capped.ckpt");
    let path = ckpt.to_str().unwrap();
    // A state cap stops the build and leaves its due checkpoint.
    let build = sfa(&[
        "build",
        "--rn",
        "24",
        "--threads",
        "1",
        "--budget",
        "150",
        "--checkpoint",
        path,
        "--checkpoint-every",
        "16",
    ]);
    assert_eq!(build.status.code(), Some(1), "{}", stderr(&build));
    let text = stdout(&sfa(&["artifact", "verify", "--file", path]));
    let count = |label: &str| -> u64 {
        let line = text.lines().find_map(|l| l.strip_prefix(label));
        line.unwrap_or_else(|| panic!("no {label:?} in {text}"))
            .trim()
            .parse()
            .unwrap()
    };
    let (processed, states) = (count("processed rows"), count("discovered states"));
    assert!(
        0 < processed && processed < states && states <= 150,
        "{text}"
    );
    let json = stdout(&sfa(&["artifact", "verify", "--file", path, "--json"]));
    for field in [
        "\"sections\": 2".to_string(),
        format!("\"processed_rows\": {processed}"),
        format!("\"discovered_states\": {states}"),
    ] {
        assert!(json.contains(&field), "{field} missing from {json}");
    }
}

#[test]
fn match_with_planted_text() {
    let out = sfa(&[
        "match",
        "--regex",
        "RGD",
        "--text",
        "AAARGDAAA",
        "--threads",
        "2",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("match                true"));

    let out = sfa(&[
        "match",
        "--regex",
        "RGD",
        "--text",
        "AAAA",
        "--threads",
        "2",
    ]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("match                false"));
}

#[test]
fn lazy_match_reports_states() {
    let out = sfa(&["match", "--regex", "RGD", "--random", "50000", "--lazy"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("states discovered"));
}

#[test]
fn lazy_tier_answers_under_limits_and_on_streams() {
    let scratch = ScratchDir::new("cli_lazy_stream");
    let path = scratch.join("input.txt");
    std::fs::write(&path, "MKVARG\nAAGRGDWWY\n").unwrap();
    for args in [
        &[
            "match",
            "--regex",
            "RG",
            "--text",
            "ARGA",
            "--lazy",
            "--deadline-ms",
            "10000",
        ][..],
        &[
            "match",
            "--regex",
            "RG",
            "--stream",
            path.to_str().unwrap(),
            "--lazy",
        ],
    ] {
        let out = sfa(args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(
            text.contains("engine tier          lazy"),
            "{args:?}: {text}"
        );
        assert!(
            text.contains("match                true"),
            "{args:?}: {text}"
        );
        assert!(text.contains("states discovered"), "{args:?}: {text}");
    }
}

#[test]
fn require_full_fails_instead_of_answering_sequentially() {
    let out = sfa(&[
        "match",
        "--rn",
        "100",
        "--random",
        "1000",
        "--budget",
        "10",
        "--tier",
        "require_full",
    ]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("requires the full SFA tier"), "{err}");
    assert!(!stdout(&out).contains("engine tier"), "{}", stdout(&out));
}

#[test]
fn invalid_values_fail_on_every_match_tier() {
    for (extra, name) in [
        (
            &["--budget", "0", "--deadline-ms", "10000"][..],
            "state_budget",
        ),
        (
            &["--tier", "speculative", "--interleave", "3"],
            "interleave",
        ),
        (&["--tier", "speculative", "--budget", "0"], "state_budget"),
        (&["--tier", "sequential", "--budget", "0"], "state_budget"),
        (&["--lazy", "--threads", "0"], "worker thread"),
        (
            &["--tier", "speculative", "--threads", "0"],
            "worker thread",
        ),
        (&["--tier", "sequential", "--threads", "0"], "worker thread"),
    ] {
        let args = [&["match", "--regex", "RG", "--text", "ARGA"][..], extra].concat();
        let out = sfa(&args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(name), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn probabilistic_build() {
    let out = sfa(&["build", "--rn", "40", "--probabilistic", "--validate"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("validation: ok"));
}

#[test]
fn verify_cross_checks() {
    let out = sfa(&["verify", "--regex", "R[GA]N", "--threads", "3"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("ok:"));
}

#[test]
fn dot_renders() {
    let out = sfa(&["dot", "--regex", "RG"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.starts_with("digraph"));
    assert!(text.contains("doublecircle"));
}

#[test]
fn fasta_input_round_trip() {
    let dir = ScratchDir::new("cli_test");
    let path = dir.join("input.fasta");
    std::fs::write(&path, ">rec1\nMKVARGDAA\n>rec2\nKKKK\n").unwrap();
    let out = sfa(&["match", "--regex", "RGD", "--fasta", path.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("match                true"));
    assert!(stderr(&out).contains("2 FASTA records"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn grail_file_source() {
    let dir = ScratchDir::new("cli_test");
    let path = dir.join("auto.grail");
    std::fs::write(&path, "(START) |- 0\n0 a 1\n1 b 2\n2 -| (FINAL)\n").unwrap();
    let out = sfa(&["build", "--grail", path.to_str().unwrap(), "--validate"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    std::fs::remove_file(&path).ok();
}

#[test]
fn compression_flag_forces_compressed_build() {
    let out = sfa(&["build", "--rn", "60", "--compress", "1K", "--validate"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("compression ratio"));
}

#[test]
fn conflicting_pattern_sources_rejected() {
    let out = sfa(&["build", "--regex", "RG", "--rn", "10"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("exactly one"));
}

#[test]
fn bad_codec_rejected() {
    let out = sfa(&["build", "--rn", "20", "--codec", "zstd"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown codec"));
}
