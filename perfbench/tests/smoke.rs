//! Reduced-size smoke runs of every workload, untraced and traced.
//!
//! Each run must pass its own oracle checks, emit exactly the metrics
//! `BENCHMARK.json` lists with their units, write a detailed result with
//! every named timing, and (traced) a well-formed span tree: every child
//! inside its parent and in its parent's operation, self times ≥ 0.

use sfa_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .to_path_buf()
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    sfa_json::from_str(&text).unwrap()
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn listed(key: &str) -> Vec<(String, String)> {
    let Some(Value::Array(items)) = benchmark_json().get(key).cloned() else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).unwrap().to_string();
            let unit = m.get("unit").and_then(Value::as_str).unwrap().to_string();
            (name, unit)
        })
        .collect()
}

/// A scratch directory for one test run, removed first if left over.
fn test_dir(name: &str) -> PathBuf {
    let dir =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Run {
    result: Value,
    detail: Value,
    spans: Option<String>,
}

fn run(workload: &str, trace: bool) -> Run {
    let dir = test_dir(&format!("{workload}-{}", u8::from(trace)));
    let out = dir.join("results");
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.3"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .arg("--scratch")
        .arg(&dir)
        .arg("--out")
        .arg(&out)
        .output()
        .unwrap();
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        output.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().unwrap();
    let stem = format!("{workload}-seed7-trace{}", u8::from(trace));
    let detail = std::fs::read_to_string(out.join(format!("{stem}.json"))).unwrap();
    let spans = std::fs::read_to_string(out.join(format!("{stem}.spans.jsonl"))).ok();
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .filter(|n| n != "results")
        .collect();
    assert!(
        leftovers.is_empty(),
        "scratch directories left behind: {leftovers:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
    Run {
        result: sfa_json::from_str(last).unwrap(),
        detail: sfa_json::from_str(&detail).unwrap(),
        spans,
    }
}

/// The result line's shape, and its metrics against `list`.
fn check_result(
    workload: &str,
    r: &Value,
    list: &[(String, String)],
    nonzero: bool,
) -> BTreeMap<String, f64> {
    let Value::Object(fields) = r else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        r.get("correct").and_then(Value::as_bool),
        Some(true),
        "{workload}"
    );
    assert_eq!(
        r.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{workload}"
    );
    assert!(r.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    let Some(Value::Object(metrics)) = r.get("metrics") else {
        panic!("no metrics")
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = list.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, want, "{workload} metric names");
    let mut values = BTreeMap::new();
    for ((name, unit), (_, m)) in list.iter().zip(metrics) {
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{workload} {name}"
        );
        let v = m.get("value").and_then(Value::as_f64).unwrap();
        assert!(v.is_finite(), "{workload} {name} = {v}");
        if nonzero {
            assert!(v > 0.0, "{workload} {name} = {v}");
        }
        values.insert(name.clone(), v);
    }
    values
}

/// Every named timing is in the detailed result, with a sample count.
fn check_timings(workload: &str, detail: &Value, names: &[&str]) {
    let timings = detail.get("timings").unwrap();
    for name in names {
        let t = timings
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: no timing {name}"));
        assert!(
            t.get("n").and_then(Value::as_f64).unwrap() >= 1.0,
            "{workload} {name}"
        );
        assert!(
            t.get("median").and_then(Value::as_f64).unwrap() > 0.0,
            "{workload} {name}"
        );
        assert!(
            t.get("unit").and_then(Value::as_str).is_some(),
            "{workload} {name}"
        );
    }
    let platform = detail.get("platform").unwrap();
    assert!(platform.get("cores").and_then(Value::as_f64).unwrap() >= 1.0);
    assert!(platform.get("cpu_model").and_then(Value::as_str).is_some());
    assert!(matches!(platform.get("caches"), Some(Value::Array(_))));
}

/// Children inside parents and in their operation; self ≤ duration.
fn check_span_tree(workload: &str, jsonl: &str) {
    let spans: Vec<Value> = jsonl
        .lines()
        .map(|l| sfa_json::from_str(l).unwrap())
        .collect();
    assert!(!spans.is_empty(), "{workload}: no spans");
    let num = |s: &Value, k: &str| s.get(k).and_then(Value::as_f64).unwrap();
    let by_id: BTreeMap<u64, &Value> = spans.iter().map(|s| (num(s, "id") as u64, s)).collect();
    for s in &spans {
        let (start, end, self_ns) = (num(s, "start_ns"), num(s, "end_ns"), num(s, "self_ns"));
        assert!(start <= end, "{workload}: span ends before it starts");
        assert!(
            (0.0..=end - start).contains(&self_ns),
            "{workload}: self time out of range"
        );
        if let Some(pid) = s.get("parent").and_then(Value::as_f64) {
            let p = by_id[&(pid as u64)];
            assert!(
                num(p, "start_ns") <= start && end <= num(p, "end_ns"),
                "{workload}: child outside parent"
            );
            assert_eq!(
                num(p, "op"),
                num(s, "op"),
                "{workload}: child in another operation"
            );
        }
    }
}

/// Layers each workload must show as exercised in its traced run.
fn exercised(workload: &str) -> &'static [&'static str] {
    match workload {
        "construct" => &[
            "automata.compile_s",
            "construct.engine_s",
            "construct.states",
            "construct.harvest_s",
            "construct.sequential_build_s",
            "artifact.bytes",
            "artifact.encode_mb_s",
            "artifact.decode_mb_s",
        ],
        "construct-compressed" => &[
            "construct.engine_s",
            "construct.compression_s",
            "construct.phase3_s",
            "store.compression_ratio",
            "artifact.decode_mb_s",
        ],
        "match" => &[
            "automata.compile_s",
            "runtime.classify_s",
            "scan.symbols_s",
            "scan.table_build_s",
            "match.chunks",
            "engine.full_matches",
            "engine.lazy_matches",
            "engine.pruned_matches",
            "engine.speculative_matches",
            "spec.chunks",
            "match.sequential_mb_s",
        ],
        "serve" => &[
            "automata.compile_s",
            "serve.client_encode_s",
            "serve.client_decode_s",
            "serve.parse_s",
            "serve.decode_s",
            "serve.match_s",
            "serve.reply_encode_s",
            "serve.handle_s",
            "serve.request_bytes",
            "serve.registry_load_s",
            "serve.sequential_share",
        ],
        _ => unreachable!(),
    }
}

fn smoke(workload: &str, timings: &[&str]) {
    let untraced = run(workload, false);
    check_result(workload, &untraced.result, &listed("end_to_end"), true);
    check_timings(workload, &untraced.detail, timings);
    assert!(
        untraced.spans.is_none(),
        "{workload}: an untraced run wrote spans"
    );

    let traced = run(workload, true);
    let values = check_result(workload, &traced.result, &listed("per_layer"), false);
    for layer in exercised(workload) {
        assert!(
            values[*layer] > 0.0,
            "{workload}: {layer} is {}",
            values[*layer]
        );
    }
    let share = values["trace.uncovered_share"];
    assert!(
        (0.0..1.0).contains(&share),
        "{workload}: uncovered share {share}"
    );
    check_span_tree(
        workload,
        traced.spans.as_deref().expect("traced run wrote no spans"),
    );
}

#[test]
fn construct() {
    smoke(
        "construct",
        &[
            "setup_s",
            "build_s",
            "prosite_build_s",
            "save_s",
            "load_s",
            "peak_rss_mib",
        ],
    );
}

#[test]
fn construct_compressed() {
    smoke(
        "construct-compressed",
        &["setup_s", "build_s", "save_s", "load_s", "peak_rss_mib"],
    );
}

#[test]
fn match_tiers() {
    smoke(
        "match",
        &[
            "setup_s",
            "full_mb_s",
            "degraded_mb_s",
            "spec_mb_s",
            "peak_rss_mib",
        ],
    );
}

#[test]
fn serve() {
    smoke(
        "serve",
        &[
            "setup_s",
            "serve_qps",
            "serve_p50_ms",
            "serve_p99_ms",
            "round_trip_ms",
            "peak_rss_mib",
        ],
    );
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "construct", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "construct",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .unwrap();
        assert!(!output.status.success(), "{args:?} succeeded");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
