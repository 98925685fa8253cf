//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <construct|construct-compressed|match|serve>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--scratch <dir>] [--out <dir>] [--smoke]
//! ```
//!
//! One run sets a workload up, repeats the workload's timed round for
//! `--seconds`, times set-up again later in the run (reporting the median
//! set-up time) and checks every output against an oracle. `--trace 0`
//! measures the end-to-end metrics with tracing off. `--trace 1`
//! interleaves untraced and traced work, and reports the per-layer
//! metrics derived from the spans and from the stats the layers return,
//! plus the tracing overhead and the share of time no span covers.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--out`, the full result (every timing with its sample count and
//! tail, the platform, the input sizes) and, for traced runs, the span
//! tree are written under that directory. `--smoke` shrinks every input
//! for the benchmark's own tests. See `README.md` for the workloads.

mod construct;
mod matching;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;

use report::Report;
use sfa_json::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{fresh_op, Tracer};

/// Construction and match threads, and serve client connections: the
/// benchmark host has two cores.
pub const THREADS: usize = 2;

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["construct", "construct-compressed", "match", "serve"];

/// Which part of a run a round belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The first round: fills caches and lazy state; checked, not timed.
    Warmup,
    /// A timed round with tracing off.
    Timed,
    /// A round recorded by the tracer (traced runs only).
    Traced,
}

/// One run's settings.
pub struct Config {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time of the run, seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Reduced input sizes (the benchmark's own tests).
    pub smoke: bool,
    /// Where to write the detailed result and the span file.
    pub out: Option<PathBuf>,
    /// Parent of the run's scratch directories.
    pub scratch: PathBuf,
}

impl Config {
    fn parse(args: &[String]) -> Result<Config, String> {
        let mut cfg = Config {
            workload: String::new(),
            seed: 0,
            seconds: 0.0,
            trace: false,
            smoke: false,
            out: None,
            scratch: std::env::temp_dir(),
        };
        let mut seen = [false; 4];
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                cfg.smoke = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
            let bad = |what: &str| format!("{flag} expects {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    if !WORKLOADS.contains(&value.as_str()) {
                        return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"));
                    }
                    cfg.workload = value.clone();
                    seen[0] = true;
                }
                "--seed" => {
                    cfg.seed = value.parse().map_err(|_| bad("an unsigned integer"))?;
                    seen[1] = true;
                }
                "--seconds" => {
                    cfg.seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| bad("a positive number"))?;
                    seen[2] = true;
                }
                "--trace" => {
                    cfg.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    };
                    seen[3] = true;
                }
                "--out" => cfg.out = Some(PathBuf::from(value)),
                "--scratch" => cfg.scratch = PathBuf::from(value),
                _ => return Err(format!("unknown option {flag:?}")),
            }
        }
        if seen.contains(&false) {
            return Err("--workload, --seed, --seconds and --trace are required".into());
        }
        Ok(cfg)
    }

    /// Set-up repetitions: `full` at full size, one in smoke runs.
    pub fn setup_reps(&self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }

    /// Run `round` once as a warm-up, then repeatedly for `--seconds`
    /// (and at least a few times). On traced runs, untraced and traced
    /// rounds alternate, so both see the same conditions and their
    /// difference is the tracing overhead. Each round runs under a root
    /// span `name` with a fresh operation id; `round` receives the id and
    /// the phase.
    pub fn for_rounds(
        &self,
        tracer: &Tracer,
        name: &'static str,
        mut round: impl FnMut(u64, Phase) -> Result<(), String>,
    ) -> Result<(), String> {
        let min_rounds = if self.smoke { 1 } else { 3 };
        let phases: &[Phase] = if self.trace {
            &[Phase::Timed, Phase::Traced]
        } else {
            &[Phase::Timed]
        };
        tracer.set_recording(false);
        round(fresh_op(), Phase::Warmup)?;
        let start = Instant::now();
        let mut rounds = 0;
        while rounds < min_rounds * phases.len() || start.elapsed().as_secs_f64() < self.seconds {
            let phase = phases[rounds % phases.len()];
            tracer.set_recording(phase == Phase::Traced);
            let op = fresh_op();
            tracer.span(name, op, || round(op, phase))?;
            rounds += 1;
        }
        tracer.set_recording(true);
        Ok(())
    }
}

fn run(cfg: &Config) -> Result<Report, String> {
    let tracer = Tracer::new(cfg.trace);
    match cfg.workload.as_str() {
        "construct" => construct::run(cfg, false, &tracer),
        "construct-compressed" => construct::run(cfg, true, &tracer),
        "match" => matching::run(cfg, &tracer),
        "serve" => serve::run(cfg, &tracer),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The detailed result written under `--out`.
fn detail(cfg: &Config, report: &Report, metrics: &Value) -> Value {
    let inputs = report
        .inputs
        .iter()
        .map(|(k, v)| (k.clone(), Value::Number(*v)))
        .collect();
    let timings = report
        .timings
        .iter()
        .map(|s| (s.name.clone(), s.to_json()))
        .collect();
    Value::Object(vec![
        ("workload".into(), Value::String(cfg.workload.clone())),
        ("seed".into(), Value::Number(cfg.seed as f64)),
        ("seconds".into(), Value::Number(cfg.seconds)),
        ("trace".into(), Value::Bool(cfg.trace)),
        ("threads".into(), Value::Number(THREADS as f64)),
        ("platform".into(), sys::platform()),
        ("inputs".into(), Value::Object(inputs)),
        ("timings".into(), Value::Object(timings)),
        (
            "attempted".into(),
            Value::Number(report.tally.attempted as f64),
        ),
        ("failed".into(), Value::Number(report.tally.failed as f64)),
        (
            "errors".into(),
            Value::Array(
                report
                    .tally
                    .errors
                    .iter()
                    .cloned()
                    .map(Value::String)
                    .collect(),
            ),
        ),
        ("metrics".into(), metrics.clone()),
    ])
}

fn write_outputs(cfg: &Config, report: &Report, metrics: &Value) -> Result<(), String> {
    let Some(dir) = &cfg.out else {
        return Ok(());
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    );
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(
        &path,
        sfa_json::to_string_pretty(&detail(cfg, report, metrics)),
    )
    .map_err(|e| format!("write {}: {e}", path.display()))?;
    if let Some(tree) = &report.spans {
        let path = dir.join(format!("{stem}.spans.jsonl"));
        std::fs::write(&path, tree.to_json_lines())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match Config::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} threads={THREADS}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    println!("platform {}", sfa_json::to_string(&sys::platform()));
    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload);
            return ExitCode::FAILURE;
        }
    };
    for (name, value) in &report.inputs {
        println!("input {name} = {value}");
    }
    for s in &report.timings {
        println!("timing {}", s.describe());
    }
    for e in &report.tally.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    let metrics = match report.metrics(cfg.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Value::Object(fields) = &metrics {
        for (name, v) in fields {
            let value = v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = v.get("unit").and_then(Value::as_str).unwrap_or("");
            println!("metric {name} = {value} {unit}");
        }
    }
    if let Err(e) = write_outputs(&cfg, &report, &metrics) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    let correct = report.tally.failed == 0;
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        (
            "attempted".into(),
            Value::Number(report.tally.attempted as f64),
        ),
        ("failed".into(), Value::Number(report.tally.failed as f64)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", sfa_json::to_string(&line));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
