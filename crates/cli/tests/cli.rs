//! End-to-end tests of the `sfa` binary (spawned as a real process).

use sfa_workloads::ScratchDir;
use std::process::{Command, Output};

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
        "--memory-cap",
        "4K",
    ]);
    assert!(!out.status.success(), "--seq with --spill-dir must fail");
    assert!(stderr(&out).contains("parallel engine"), "{}", stderr(&out));
    assert!(!dir.exists(), "the refused build created {}", dir.display());
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
