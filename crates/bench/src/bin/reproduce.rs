//! `reproduce` — regenerate every table and figure of the paper.
//!
//! ```text
//! reproduce platform          Table I   platform characterization
//! reproduce fig4              Fig. 4    sequential-optimization speedups
//! reproduce r500-seq          §IV-A     r500 baseline/hashing/transposed times
//! reproduce fig5              Fig. 5    parallel speedup vs thread count
//! reproduce queues            §IV-B     thread-local deques vs shared MPMC queue
//! reproduce table2            Table II  three-phase compression experiment
//! reproduce codecs            §III-C    Squash-style codec survey on SFA states
//! reproduce matching          §IV-D     matching break-even analysis
//! reproduce scan-throughput   PR-3      sequential vs pooled vs interleaved vs compact scan
//! reproduce obs-overhead      DESIGN §12 metrics-recording overhead A/B (budget: ≤2%)
//! reproduce serve-load        DESIGN §13 closed-loop load against the `sfa serve` daemon
//! reproduce memory-cap        DESIGN §15 spill-tier builds under a resident-byte cap ladder
//! reproduce speculative       DESIGN §16 speculative raw-DFA matching vs the sequential oracle
//! reproduce hashes            §III-A    fingerprint throughput comparison
//! reproduce ablations         DESIGN    fingerprint / scheduler / compression ablations
//! reproduce all               everything above with default sizes
//! ```
//!
//! Options: `--quick` (smaller sweeps), `--threads 1,2,4,8`, `--n 500`
//! (rN size), `--patterns N` (synthetic pattern count), `--runs 3`,
//! `--connections N` (serve-load client connections, default 8).
//! Every experiment prints a table and writes `results/<name>.json`.
//!
//! Run in release mode: `cargo run --release -p sfa-bench --bin reproduce -- all`.

use sfa_automata::dfa::Dfa;
use sfa_bench::records::{
    self, CompressionRow, HashRow, MatchRow, ObsOverheadRow, QueueRow, ScaleRow, ScanThroughputRow,
    SeqRow, ThroughputRow,
};
use sfa_bench::workloads::{cap_dfa_size, evaluation_suite};
use sfa_bench::{median, time_once, PlatformInfo};
use sfa_core::prelude::*;
use sfa_hash::{CityFingerprinter, Fingerprinter, FxFingerprinter, RabinFingerprinter};
use sfa_workloads::{protein_text, rn};
use std::process::ExitCode;

struct Config {
    quick: bool,
    threads: Vec<usize>,
    rn_size: usize,
    patterns: usize,
    runs: usize,
    connections: usize,
}

impl Config {
    fn parse(argv: &[String]) -> Result<Config, String> {
        let mut cfg = Config {
            quick: false,
            threads: vec![1, 2, 4, 8],
            rn_size: 500,
            patterns: 30,
            runs: 3,
            connections: 8,
        };
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--quick" => {
                    cfg.quick = true;
                    i += 1;
                }
                "--threads" => {
                    let v = argv.get(i + 1).ok_or("--threads expects a list")?;
                    cfg.threads = v
                        .split(',')
                        .map(|s| s.parse().map_err(|_| format!("bad thread count {s:?}")))
                        .collect::<Result<_, _>>()?;
                    i += 2;
                }
                "--n" => {
                    cfg.rn_size = argv
                        .get(i + 1)
                        .ok_or("--n expects a number")?
                        .parse()
                        .map_err(|_| "--n expects a number")?;
                    i += 2;
                }
                "--patterns" => {
                    cfg.patterns = argv
                        .get(i + 1)
                        .ok_or("--patterns expects a number")?
                        .parse()
                        .map_err(|_| "--patterns expects a number")?;
                    i += 2;
                }
                "--runs" => {
                    cfg.runs = argv
                        .get(i + 1)
                        .ok_or("--runs expects a number")?
                        .parse()
                        .map_err(|_| "--runs expects a number")?;
                    i += 2;
                }
                "--connections" => {
                    cfg.connections = argv
                        .get(i + 1)
                        .ok_or("--connections expects a number")?
                        .parse()
                        .map_err(|_| "--connections expects a number")?;
                    i += 2;
                }
                other => return Err(format!("unknown option {other:?}")),
            }
        }
        if cfg.quick {
            cfg.rn_size = cfg.rn_size.min(200);
            cfg.patterns = cfg.patterns.min(10);
            cfg.runs = 1;
        }
        Ok(cfg)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(which) = argv.first().cloned() else {
        eprintln!("usage: reproduce <experiment> [options]; see the module docs");
        return ExitCode::FAILURE;
    };
    let cfg = match Config::parse(&argv[1..]) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match which.as_str() {
        "platform" => platform(&cfg),
        "fig4" => fig4(&cfg),
        "r500-seq" => r500_seq(&cfg),
        "fig5" => fig5(&cfg),
        "queues" => queues(&cfg),
        "table2" => table2(&cfg),
        "codecs" => codecs(&cfg),
        "matching" => matching(&cfg),
        "match-throughput" => match_throughput(&cfg),
        "scan-throughput" => scan_throughput(&cfg),
        "obs-overhead" => obs_overhead(&cfg),
        "serve-load" => serve_load(&cfg),
        "memory-cap" => memory_cap(&cfg),
        "speculative" => speculative(&cfg),
        "hashes" => hashes(&cfg),
        "ablations" => ablations(&cfg),
        "all" => all(&cfg),
        other => Err(format!("unknown experiment {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn all(cfg: &Config) -> Result<(), String> {
    for (name, f) in [
        ("platform", platform as fn(&Config) -> Result<(), String>),
        ("fig4", fig4),
        ("r500-seq", r500_seq),
        ("fig5", fig5),
        ("queues", queues),
        ("table2", table2),
        ("codecs", codecs),
        ("matching", matching),
        ("match-throughput", match_throughput),
        ("scan-throughput", scan_throughput),
        ("obs-overhead", obs_overhead),
        ("serve-load", serve_load),
        ("memory-cap", memory_cap),
        ("speculative", speculative),
        ("hashes", hashes),
        ("ablations", ablations),
    ] {
        println!("\n================ {name} ================");
        f(cfg)?;
    }
    Ok(())
}

// ---------------------------------------------------------------- Table I

fn platform(_cfg: &Config) -> Result<(), String> {
    let info = PlatformInfo::detect();
    println!("{}", info.table());
    records::write_record("platform", &info).map_err(|e| e.to_string())?;
    Ok(())
}

// ----------------------------------------------------------------- Fig. 4

/// Sequential optimization speedups over the tree-map baseline, per
/// workload, like Fig. 4's scatter (hashing and hashing+transposition).
fn fig4(cfg: &Config) -> Result<(), String> {
    let budget = if cfg.quick { 2_000 } else { 20_000 };
    let max_dfa = if cfg.quick { 300 } else { 2_000 };
    let suite = cap_dfa_size(evaluation_suite(cfg.patterns, budget), max_dfa);
    println!(
        "{:<12} {:>6} {:>8} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "workload", "DFA", "SFA", "btree s", "ptree s", "hash s", "transp s", "hash x", "transp x"
    );
    let mut rows = Vec::new();
    for w in &suite {
        let state_budget = 1 << 20;
        // The paper's std::map baseline is pointer-chasing; report both
        // Rust's BTreeMap and the pointer-per-node treap (speedups below
        // use the pointer tree, matching the paper's baseline class).
        let (bt, rb) = time_once(|| {
            Sfa::builder(&w.dfa)
                .sequential(SequentialVariant::Baseline)
                .state_budget(state_budget)
                .build()
        });
        let (b, _) = time_once(|| {
            Sfa::builder(&w.dfa)
                .sequential(SequentialVariant::BaselinePointerTree)
                .state_budget(state_budget)
                .build()
        });
        let (h, _) = time_once(|| {
            Sfa::builder(&w.dfa)
                .sequential(SequentialVariant::Hashing)
                .state_budget(state_budget)
                .build()
        });
        let (t, _) = time_once(|| {
            Sfa::builder(&w.dfa)
                .sequential(SequentialVariant::Transposed)
                .state_budget(state_budget)
                .build()
        });
        let Ok(rb) = rb else { continue };
        let row = SeqRow {
            name: w.name.clone(),
            dfa_states: w.dfa.num_states(),
            sfa_states: rb.sfa.num_states(),
            baseline_secs: b,
            hashing_secs: h,
            transposed_secs: t,
        };
        println!(
            "{:<12} {:>6} {:>8} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>7.2}x {:>7.2}x",
            row.name,
            row.dfa_states,
            row.sfa_states,
            bt,
            row.baseline_secs,
            row.hashing_secs,
            row.transposed_secs,
            row.hashing_speedup(),
            row.transposed_speedup()
        );
        rows.push(row);
    }
    if !rows.is_empty() {
        let mut hs: Vec<f64> = rows.iter().map(|r| r.hashing_speedup()).collect();
        let mut ts: Vec<f64> = rows.iter().map(|r| r.transposed_speedup()).collect();
        println!(
            "median speedups: hashing {:.2}x, hashing+transposition {:.2}x   \
             (paper: 1.7-2.0x and 2.8-2.9x median)",
            median(&mut hs),
            median(&mut ts)
        );
        let max_h = hs.iter().cloned().fold(0.0, f64::max);
        let max_t = ts.iter().cloned().fold(0.0, f64::max);
        println!(
            "max speedups:    hashing {max_h:.2}x, hashing+transposition {max_t:.2}x   \
             (paper: 3.1-4.1x and 5.2-6.8x max)"
        );
    }
    records::write_record("fig4", &rows).map_err(|e| e.to_string())?;
    Ok(())
}

// ----------------------------------------------------------- §IV-A (r500)

fn r500_seq(cfg: &Config) -> Result<(), String> {
    let dfa = rn(cfg.rn_size);
    let budget = 1 << 22;
    println!("r{} ({} DFA states):", cfg.rn_size, dfa.num_states());
    let (b, rb) = time_once(|| {
        Sfa::builder(&dfa)
            .sequential(SequentialVariant::BaselinePointerTree)
            .state_budget(budget)
            .build()
    });
    let (h, _) = time_once(|| {
        Sfa::builder(&dfa)
            .sequential(SequentialVariant::Hashing)
            .state_budget(budget)
            .build()
    });
    let (t, _) = time_once(|| {
        Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .state_budget(budget)
            .build()
    });
    let states = rb.map(|r| r.sfa.num_states()).unwrap_or(0);
    let row = SeqRow {
        name: format!("r{}", cfg.rn_size),
        dfa_states: dfa.num_states(),
        sfa_states: states,
        baseline_secs: b,
        hashing_secs: h,
        transposed_secs: t,
    };
    println!("  SFA states                {states}");
    println!("  baseline (pointer tree)   {b:.3} s      (paper r500 on Intel: 36.6 s)");
    println!(
        "  hashing                   {h:.3} s  {:.2}x (paper: 10.6 s, 3.5x)",
        row.hashing_speedup()
    );
    println!(
        "  hashing + transposition   {t:.3} s  {:.2}x (paper:  6.4 s, 5.7x)",
        row.transposed_speedup()
    );
    records::write_record("r500-seq", &row).map_err(|e| e.to_string())?;
    Ok(())
}

// ----------------------------------------------------------------- Fig. 5

fn fig5(cfg: &Config) -> Result<(), String> {
    let budget = if cfg.quick { 2_000 } else { 10_000 };
    let max_dfa = if cfg.quick { 200 } else { 800 };
    let mut suite = cap_dfa_size(evaluation_suite(cfg.patterns, budget), max_dfa);
    // Always include an rN workload (the paper's scaling showcase).
    suite.push(sfa_workloads::Workload {
        name: format!("r{}", cfg.rn_size.min(300)),
        pattern: String::new(),
        dfa: rn(cfg.rn_size.min(300)),
    });
    println!(
        "{:<12} {:>8} {:>6} {:>12} {:>12} {:>9}",
        "workload", "SFA", "thr", "seq s", "par s", "speedup"
    );
    let mut rows = Vec::new();
    for w in &suite {
        let seq = sfa_bench::time_secs(cfg.runs, || {
            let _ = Sfa::builder(&w.dfa)
                .sequential(SequentialVariant::Transposed)
                .build();
        });
        let states = Sfa::builder(&w.dfa)
            .sequential(SequentialVariant::Transposed)
            .build()
            .map(|r| r.sfa.num_states())
            .unwrap_or(0);
        for &t in &cfg.threads {
            let par = sfa_bench::time_secs(cfg.runs, || {
                let _ = Sfa::builder(&w.dfa)
                    .options(&ParallelOptions::with_threads(t))
                    .build();
            });
            let row = ScaleRow {
                name: w.name.clone(),
                sfa_states: states,
                threads: t,
                sequential_secs: seq,
                parallel_secs: par,
            };
            println!(
                "{:<12} {:>8} {:>6} {:>12.4} {:>12.4} {:>8.2}x",
                row.name,
                row.sfa_states,
                row.threads,
                seq,
                par,
                row.speedup()
            );
            rows.push(row);
        }
    }
    // Median/max per thread count (the paper's Fig. 5 summary statistics).
    for &t in &cfg.threads {
        let mut sp: Vec<f64> = rows
            .iter()
            .filter(|r| r.threads == t)
            .map(|r| r.speedup())
            .collect();
        if !sp.is_empty() {
            let max = sp.iter().cloned().fold(0.0, f64::max);
            println!(
                "threads {t}: median speedup {:.2}x, max {:.2}x",
                median(&mut sp),
                max
            );
        }
    }
    println!(
        "(paper: max 108.9x @64 threads AMD / 46.1x @88 threads Intel, medians ~4.6-4.9x;\n\
         this container has {} logical CPU(s) — speedups saturate accordingly)",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    records::write_record("fig5", &rows).map_err(|e| e.to_string())?;
    Ok(())
}

// ------------------------------------------------------------ §IV-B queues

fn queues(cfg: &Config) -> Result<(), String> {
    let dfa = rn(cfg.rn_size.min(if cfg.quick { 150 } else { 400 }));
    println!(
        "r{} queue comparison (paper: WS deques 0.16-1.43 s vs TBB 1.00-1.44 s,\n\
         HITM loads 2630 vs 5637 at 88 threads):",
        dfa.num_states() - 2
    );
    println!(
        "{:<10} {:>6} {:>12} {:>14} {:>16}",
        "scheduler", "thr", "secs", "CAS failures", "conflict events"
    );
    let mut rows = Vec::new();
    for &t in &cfg.threads {
        for (name, sched) in [
            ("stealing", Scheduler::WorkStealing),
            ("mpmc", Scheduler::SharedMpmc),
            ("global", Scheduler::GlobalOnly),
        ] {
            let opts = ParallelOptions::with_threads(t).scheduler(sched);
            let mut contention = Default::default();
            let secs = sfa_bench::time_secs(cfg.runs, || {
                let r = Sfa::builder(&dfa)
                    .options(&opts)
                    .build()
                    .expect("construction failed");
                contention = r.stats.contention;
            });
            let row = QueueRow {
                scheduler: name.into(),
                threads: t,
                secs,
                cas_failures: contention.cas_failures,
                conflict_events: contention.conflict_events(),
            };
            println!(
                "{:<10} {:>6} {:>12.4} {:>14} {:>16}",
                row.scheduler, row.threads, row.secs, row.cas_failures, row.conflict_events
            );
            rows.push(row);
        }
    }
    records::write_record("queues", &rows).map_err(|e| e.to_string())?;
    Ok(())
}

// ---------------------------------------------------------------- Table II

fn table2(cfg: &Config) -> Result<(), String> {
    // Workloads spanning tractable -> intractable at the container's
    // memory budget for raw SFA states.
    let mem_budget: u64 = if cfg.quick { 8 << 20 } else { 256 << 20 };
    let sizes: &[usize] = if cfg.quick {
        &[100, 150, 200]
    } else {
        &[200, 300, 400, 500, 600, 700]
    };
    // The paper forces compression on the tractable rows by setting the
    // threshold below their footprint ("we set our memory manager's
    // threshold to 200 GB to force compression"); we force it with a low
    // fixed watermark the same way.
    let watermark: usize = if cfg.quick { 1 << 20 } else { 8 << 20 };
    println!(
        "Table II reproduction (raw-state memory budget {} MB; forced watermark {} MB):",
        mem_budget >> 20,
        watermark >> 20
    );
    println!(
        "{:<8} {:>6} {:>10} {:>12} {:>10} {:>12} {:>10} {:>7}",
        "bench", "DFA", "SFA", "w/o B", "w/o s", "with B", "with s", "ratio"
    );
    let mut rows = Vec::new();
    for &n in sizes {
        let dfa = rn(n);
        // Run WITH compression first (always tractable).
        let opts = ParallelOptions::with_threads(*cfg.threads.last().unwrap())
            .compression(CompressionPolicy::WhenMemoryExceeds(watermark))
            .state_budget(1 << 22);
        let (with_secs, with_result) = time_once(|| Sfa::builder(&dfa).options(&opts).build());
        let with_result = with_result.map_err(|e| e.to_string())?;
        let states = with_result.stats.states;
        let uncompressed = with_result.stats.uncompressed_bytes;
        let compressed = with_result.sfa.mapping_bytes() as u64;

        // WITHOUT compression: only when the raw size fits the budget
        // (the paper's "n/a" rows — theoretical size computed from the
        // state count, exactly as the paper does).
        let without = if uncompressed <= mem_budget {
            let opts =
                ParallelOptions::with_threads(*cfg.threads.last().unwrap()).state_budget(1 << 22);
            let (secs, r) = time_once(|| Sfa::builder(&dfa).options(&opts).build());
            r.map_err(|e| e.to_string())?;
            Some(secs)
        } else {
            None
        };
        let row = CompressionRow {
            name: format!("r{n}"),
            dfa_states: dfa.num_states(),
            sfa_states: states,
            uncompressed_bytes: uncompressed,
            time_without_secs: without,
            compressed_bytes: compressed,
            time_with_secs: with_secs,
            ratio: uncompressed as f64 / compressed.max(1) as f64,
        };
        println!(
            "{:<8} {:>6} {:>10} {:>12} {:>10} {:>12} {:>10.3} {:>6.1}x",
            row.name,
            row.dfa_states,
            row.sfa_states,
            row.uncompressed_bytes,
            row.time_without_secs
                .map(|s| format!("{s:.3}"))
                .unwrap_or_else(|| "n/a".into()),
            row.compressed_bytes,
            row.time_with_secs,
            row.ratio
        );
        rows.push(row);
    }
    println!(
        "(paper: ratios 17-30x on PROSITE DFAs, ~95x on uncatenated r500-class states;\n\
              compression overhead only pays off for otherwise-intractable sizes)"
    );
    records::write_record("table2", &rows).map_err(|e| e.to_string())?;
    Ok(())
}

// ----------------------------------------------------------- §III-C codecs

fn codecs(cfg: &Config) -> Result<(), String> {
    // Sample SFA states from equidistant construction positions (§III-C
    // methodology) for an rN automaton and a PROSITE automaton, surveyed
    // separately: the paper's 95x claim is for the sink-dominated rN
    // family; the 17-30x range is for PROSITE SFAs.
    struct CodecRow {
        source: String,
        codec: String,
        input_bytes: usize,
        compressed_bytes: usize,
        ratio: f64,
    }
    sfa_json::impl_to_json!(CodecRow {
        source,
        codec,
        input_bytes,
        compressed_bytes,
        ratio,
    });
    let mut out = Vec::new();
    let mut sources: Vec<(String, Vec<Vec<u8>>)> = Vec::new();
    let rn_dfa = rn(cfg.rn_size.min(300));
    sources.push((
        format!("r{}", rn_dfa.num_states() - 2),
        sample_states(&rn_dfa, 32)?,
    ));
    let suite = cap_dfa_size(evaluation_suite(0, 20_000), 4_000);
    if let Some(w) = suite.iter().max_by_key(|w| w.dfa.num_states()) {
        sources.push((
            format!("{} ({} DFA states)", w.name, w.dfa.num_states()),
            sample_states(&w.dfa, 32)?,
        ));
    }
    for (name, samples) in &sources {
        println!("--- {name}: {} sampled states ---", samples.len());
        println!(
            "{:<10} {:>12} {:>12} {:>8} {:>12} {:>12}",
            "codec", "input B", "output B", "ratio", "comp MiB/s", "dec MiB/s"
        );
        for r in sfa_compress::survey::run_survey(samples) {
            println!(
                "{:<10} {:>12} {:>12} {:>7.1}x {:>12.1} {:>12.1}",
                r.codec,
                r.input_bytes,
                r.compressed_bytes,
                r.ratio(),
                r.compress_mib_s(),
                r.decompress_mib_s()
            );
            out.push(CodecRow {
                source: name.clone(),
                codec: r.codec.to_string(),
                input_bytes: r.input_bytes,
                compressed_bytes: r.compressed_bytes,
                ratio: r.ratio(),
            });
        }
    }
    println!(
        "(paper: deflate-class best at 17-30x typical, ~95x on sink-dominated states;\n\
              dictionary codecs >> RLE >> store, far above the ≤5x of text corpora)"
    );
    records::write_record("codecs", &out).map_err(|e| e.to_string())?;
    Ok(())
}

fn sample_states(dfa: &Dfa, count: usize) -> Result<Vec<Vec<u8>>, String> {
    let result = Sfa::builder(dfa)
        .options(&ParallelOptions::with_threads(2))
        .build()
        .map_err(|e| e.to_string())?;
    let sfa = result.sfa;
    let n_states = sfa.num_states().max(1);
    Ok((0..count)
        .map(|i| {
            let s = (i as u32 * n_states / count as u32).min(n_states - 1);
            let mapping = sfa.mapping_of(s);
            if sfa.dfa_states() <= u16::MAX as usize + 1 {
                mapping
                    .iter()
                    .flat_map(|&v| (v as u16).to_le_bytes())
                    .collect()
            } else {
                mapping.iter().flat_map(|&v| v.to_le_bytes()).collect()
            }
        })
        .collect())
}

// ---------------------------------------------------------- §IV-D matching

fn matching(cfg: &Config) -> Result<(), String> {
    let dfa = rn(cfg.rn_size.min(if cfg.quick { 150 } else { 500 }));
    let threads = *cfg.threads.last().unwrap();
    let (construction_secs, result) = time_once(|| {
        Sfa::builder(&dfa)
            .options(&ParallelOptions::with_threads(threads))
            .build()
    });
    let result = result.map_err(|e| e.to_string())?;
    let sfa = result.sfa;
    let sizes: &[usize] = if cfg.quick {
        &[100_000, 1_000_000]
    } else {
        &[100_000, 1_000_000, 10_000_000, 50_000_000]
    };
    println!(
        "matching break-even, r{} SFA ({} states, constructed in {:.3} s, {threads} threads):",
        dfa.num_states() - 2,
        sfa.num_states(),
        construction_secs
    );
    // The lazy-SFA extension: construct only visited states on the fly.
    let lazy = sfa_core::lazy::LazySfa::new(&dfa, 1 << 20).map_err(|e| e.to_string())?;
    println!(
        "{:>12} {:>12} {:>12} {:>14} {:>12} {:>10}",
        "input", "seq s", "SFA match s", "SFA total s", "lazy s", "winner"
    );
    let mut rows = Vec::new();
    for &len in sizes {
        let text = protein_text(len, 0xBEEF);
        let (seq_secs, seq_hit) = time_once(|| match_sequential(&dfa, &text));
        let (sfa_secs, sfa_hit) = time_once(|| match_with_sfa(&sfa, &dfa, &text, threads));
        let (lazy_secs, lazy_hit) = time_once(|| lazy.matches(&text, threads).unwrap());
        assert_eq!(seq_hit, sfa_hit, "matchers disagree");
        assert_eq!(seq_hit, lazy_hit, "lazy matcher disagrees");
        let row = MatchRow {
            input_len: len,
            sequential_secs: seq_secs,
            construction_secs,
            sfa_match_secs: sfa_secs,
            threads,
        };
        println!(
            "{:>12} {:>12.4} {:>12.4} {:>14.4} {:>12.4} {:>10}",
            len,
            seq_secs,
            sfa_secs,
            row.sfa_total_secs(),
            lazy_secs,
            if row.sfa_total_secs() < seq_secs {
                "SFA"
            } else {
                "sequential"
            }
        );
        rows.push(row);
    }
    println!(
        "lazy SFA discovered {} of {} states — the construction term of the\n\
         break-even equation all but disappears (extension, not in the paper)",
        lazy.states_built(),
        sfa.num_states()
    );
    println!(
        "(paper: break-even at ~20 MB for r500 with 88 threads; with one core the\n\
         SFA path cannot beat the sequential matcher on wall-clock — the structure\n\
         of the comparison [construction amortized against input size] is preserved)"
    );
    records::write_record("matching", &rows).map_err(|e| e.to_string())?;
    Ok(())
}

// ------------------------------------------- match-runtime throughput

/// Matching-throughput comparison across dispatch strategies: the
/// sequential matcher, the pre-pool per-call-spawn behavior (replicated
/// here as the dispatch-overhead baseline), the persistent pool, and the
/// blocked streaming path with fused byte classification. The delta
/// between the spawn and pool columns is exactly the per-query thread
/// cost the match runtime removes.
fn match_throughput(cfg: &Config) -> Result<(), String> {
    use sfa_core::budget::Governor;
    use sfa_core::runtime::{ByteClassifier, MatchRuntime};
    use std::io::Cursor;

    let dfa = rn(cfg.rn_size.min(if cfg.quick { 150 } else { 500 }));
    let threads = *cfg.threads.last().unwrap();
    let result = Sfa::builder(&dfa)
        .options(&ParallelOptions::with_threads(threads))
        .build()
        .map_err(|e| e.to_string())?;
    let sfa = result.sfa;
    let matcher = ParallelMatcher::new(&sfa, &dfa).map_err(|e| e.to_string())?;
    let runtime = MatchRuntime::new(threads);
    let governor = Governor::unlimited();
    let alpha = sfa_automata::Alphabet::amino_acids();
    let classifier = ByteClassifier::strict(&alpha);

    let sizes: &[usize] = if cfg.quick {
        &[100_000, 1_000_000]
    } else {
        &[1_000_000, 10_000_000, 50_000_000]
    };
    println!(
        "match-runtime throughput ({threads} threads, median of {} runs):",
        cfg.runs
    );
    println!(
        "{:>12} {:>10} {:>12} {:>10} {:>12} {:>12}",
        "input", "seq s", "spawn/call s", "pooled s", "streaming s", "pool gain"
    );
    let mut rows = Vec::new();
    for &len in sizes {
        let text = protein_text(len, 0xF00D);
        let bytes = alpha.decode_symbols(&text);
        let expected = match_sequential(&dfa, &text);

        let mut samples: Vec<f64> = (0..cfg.runs)
            .map(|_| {
                let (s, hit) = time_once(|| match_sequential(&dfa, &text));
                assert_eq!(hit, expected);
                s
            })
            .collect();
        let seq_secs = median(&mut samples);
        // The pre-pool behavior: scoped OS threads spawned per call.
        let mut samples: Vec<f64> = (0..cfg.runs)
            .map(|_| {
                let (s, hit) = time_once(|| {
                    let chunk = text.len().div_ceil(threads);
                    let mut q = dfa.start();
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = text
                            .chunks(chunk)
                            .map(|c| scope.spawn(|| sfa.run(c)))
                            .collect();
                        for h in handles {
                            q = sfa.apply(h.join().expect("matcher thread panicked"), q);
                        }
                    });
                    dfa.is_accepting(q)
                });
                assert_eq!(hit, expected);
                s
            })
            .collect();
        let spawn_secs = median(&mut samples);
        let mut samples: Vec<f64> = (0..cfg.runs)
            .map(|_| {
                let (s, r) = time_once(|| runtime.matches_symbols(&matcher, &text, &governor));
                assert_eq!(r.unwrap().0, expected);
                s
            })
            .collect();
        let pooled_secs = median(&mut samples);
        let mut samples: Vec<f64> = (0..cfg.runs)
            .map(|_| {
                let (s, r) = time_once(|| {
                    runtime.matches_stream(&matcher, &classifier, Cursor::new(&bytes), &governor)
                });
                assert_eq!(r.unwrap().0, expected);
                s
            })
            .collect();
        let streaming_secs = median(&mut samples);
        let row = ThroughputRow {
            input_len: len,
            threads,
            sequential_secs: seq_secs,
            spawn_per_call_secs: spawn_secs,
            pooled_secs,
            streaming_secs,
        };
        println!(
            "{:>12} {:>10.4} {:>12.4} {:>10.4} {:>12.4} {:>11.2}x",
            len,
            seq_secs,
            spawn_secs,
            pooled_secs,
            streaming_secs,
            row.pool_speedup()
        );
        rows.push(row);
    }
    records::write_record("match_throughput", &rows).map_err(|e| e.to_string())?;
    Ok(())
}

// ------------------------------------------------- scan-engine throughput

/// The scan-engine ladder: the sequential DFA matcher, the
/// pre-scan-engine pooled chunk scan (one `Sfa::run` chunk per thread,
/// sequential composition — replicated inline as the baseline), K-way
/// interleaved chains on the raw `u32` transition table, and the full
/// scan engine (interleaved chains on the compact pre-scaled table).
/// Every verdict is cross-checked against `match_sequential`; the delta
/// between the last two columns isolates the table format, the delta
/// between pooled and interleaved isolates load-latency hiding.
fn scan_throughput(cfg: &Config) -> Result<(), String> {
    use sfa_sync::pool::TaskPool;

    let alpha = sfa_automata::Alphabet::amino_acids();
    let dfa = sfa_automata::pipeline::Pipeline::search(alpha)
        .compile_str("RGD")
        .map_err(|e| e.to_string())?;
    let sfa = Sfa::builder(&dfa)
        .sequential(SequentialVariant::Transposed)
        .build()
        .map_err(|e| e.to_string())?
        .sfa;
    let threads = *cfg.threads.last().unwrap();
    let interleave = 4usize;
    let matcher = ParallelMatcher::new(&sfa, &dfa).map_err(|e| e.to_string())?;
    let tbl = matcher.scan().dfa_table().map_err(|e| e.to_string())?;
    let pool = TaskPool::shared();
    // The compact arm goes through the request API on a private pool of
    // exactly `threads` workers, mirroring the chunking of the old
    // pool+governor call.
    let runtime = MatchRuntime::new(threads);

    let sizes: &[usize] = if cfg.quick {
        &[1 << 20]
    } else {
        &[8 << 20, 64 << 20]
    };
    println!(
        "scan throughput (\"RGD\" search DFA, {}-byte entries, {threads} threads, K={interleave}, \
         median of {} runs):",
        tbl.entry_bytes(),
        cfg.runs
    );
    println!(
        "{:>12} {:>10} {:>10} {:>12} {:>10} {:>10} {:>8}",
        "input", "seq MB/s", "pool MB/s", "inter MB/s", "cmpt MB/s", "inter x", "cmpt x"
    );
    let mut rows = Vec::new();
    for &len in sizes {
        let text = protein_text(len, 0xACE5);
        let expected = match_sequential(&dfa, &text);

        let time = |f: &dyn Fn() -> bool| -> f64 {
            let mut samples: Vec<f64> = (0..cfg.runs)
                .map(|_| {
                    let (s, hit) = time_once(f);
                    assert_eq!(hit, expected, "scan variants must agree on the verdict");
                    s
                })
                .collect();
            median(&mut samples)
        };
        let sequential_secs = time(&|| match_sequential(&dfa, &text));
        let pooled_secs = time(&|| pooled_scan(pool, &sfa, &dfa, &text, threads));
        let interleaved_secs = time(&|| interleaved_scan(&sfa, &dfa, &text, interleave));
        // Built once outside the timed closure: the request owns its
        // input, so the clone happens per input size, not per run.
        let request = MatchRequest::symbols(text.clone());
        let compact_secs = time(&|| {
            runtime
                .run(&matcher, &request)
                .expect("scan-engine match failed")
                .verdict
        });

        let row = ScanThroughputRow {
            input_len: len,
            threads,
            interleave,
            sequential_secs,
            pooled_secs,
            interleaved_secs,
            compact_secs,
        };
        println!(
            "{:>12} {:>10.1} {:>10.1} {:>12.1} {:>10.1} {:>7.2}x {:>7.2}x",
            len,
            row.mb_per_sec(row.sequential_secs),
            row.mb_per_sec(row.pooled_secs),
            row.mb_per_sec(row.interleaved_secs),
            row.mb_per_sec(row.compact_secs),
            row.interleaved_speedup(),
            row.compact_speedup()
        );
        rows.push(row);
    }
    println!(
        "(acceptance: interleaved+compact ≥1.5x the pooled scan on the 64 MB row;\n\
         K dependent chains hide the table-load latency a single chain serializes on)"
    );
    records::write_record("scan_throughput", &rows).map_err(|e| e.to_string())?;
    Ok(())
}

/// The pre-scan-engine pooled scan: one chunk per thread, `Sfa::run`
/// per chunk on the pool, sequential composition of the results.
fn pooled_scan(
    pool: &sfa_sync::pool::TaskPool,
    sfa: &Sfa,
    dfa: &Dfa,
    text: &[u8],
    threads: usize,
) -> bool {
    let chunk = text.len().div_ceil(threads.max(1)).max(1);
    let chunks: Vec<&[u8]> = text.chunks(chunk).collect();
    let mut states = vec![0u32; chunks.len()];
    pool.scoped(|scope| {
        for (slot, c) in states.iter_mut().zip(&chunks) {
            let c = *c;
            scope.execute(move || *slot = sfa.run(c));
        }
    })
    .expect("scan worker panicked");
    let mut q = dfa.start();
    for &s in &states {
        q = sfa.apply(s, q);
    }
    dfa.is_accepting(q)
}

/// K dependent chains over K consecutive sub-chunks in one loop, on the
/// raw `u32` transition table — interleaving without the compact table.
fn interleaved_scan(sfa: &Sfa, dfa: &Dfa, text: &[u8], k: usize) -> bool {
    let chunk = text.len().div_ceil(k.max(1)).max(1);
    let lanes: Vec<&[u8]> = text.chunks(chunk).collect();
    let mut states = vec![sfa.start(); lanes.len()];
    let common = lanes.iter().map(|l| l.len()).min().unwrap_or(0);
    for j in 0..common {
        for (s, lane) in states.iter_mut().zip(&lanes) {
            *s = sfa.step(*s, lane[j]);
        }
    }
    for (s, lane) in states.iter_mut().zip(&lanes) {
        for &sym in &lane[common..] {
            *s = sfa.step(*s, sym);
        }
    }
    let mut q = dfa.start();
    for &s in &states {
        q = sfa.apply(s, q);
    }
    dfa.is_accepting(q)
}

// ------------------------------------------------- observability overhead

/// A/B the metrics-recording overhead on the hottest instrumented path
/// (the compact scan engine): time the same match with
/// `set_recording(false)` vs `(true)`, alternating arms within each
/// round so clock drift and cache warmth hit both equally. Fails when
/// the enabled arm regresses past the 2% budget (DESIGN.md §12). In an
/// obs-compiled-out build both arms are identical no-ops and the
/// overhead is structurally 0 — reported via the `compiled` column.
fn obs_overhead(cfg: &Config) -> Result<(), String> {
    use sfa_core::obs;

    let alpha = sfa_automata::Alphabet::amino_acids();
    let dfa = sfa_automata::pipeline::Pipeline::search(alpha)
        .compile_str("RGD")
        .map_err(|e| e.to_string())?;
    let sfa = Sfa::builder(&dfa)
        .sequential(SequentialVariant::Transposed)
        .build()
        .map_err(|e| e.to_string())?
        .sfa;
    let threads = *cfg.threads.last().unwrap();
    let matcher = ParallelMatcher::new(&sfa, &dfa).map_err(|e| e.to_string())?;
    let runtime = MatchRuntime::new(threads);

    let len: usize = if cfg.quick { 4 << 20 } else { 32 << 20 };
    let runs = cfg.runs.max(if cfg.quick { 5 } else { 9 });
    // Each timed sample is a batch of matches, so pool-dispatch jitter
    // (hundreds of µs per wakeup) amortizes instead of swamping the
    // per-match cost under test.
    let batch = if cfg.quick { 8 } else { 4 };
    let text = protein_text(len, 0xACE5);
    let expected = match_sequential(&dfa, &text);
    let request = MatchRequest::symbols(text.clone());

    let pass = || {
        let (s, ()) = time_once(|| {
            for _ in 0..batch {
                let hit = runtime
                    .run(&matcher, &request)
                    .expect("scan-engine match failed")
                    .verdict;
                assert_eq!(hit, expected, "obs A/B arms must agree on the verdict");
            }
        });
        s / batch as f64
    };
    // Warm the pool, tables, and page cache before either arm is timed.
    pass();

    let mut disabled = Vec::with_capacity(runs);
    let mut enabled = Vec::with_capacity(runs);
    for round in 0..runs {
        // Alternate which arm goes first so any second-call penalty
        // (frequency ramp, pool worker sleep/wake) hits both equally.
        let order: [bool; 2] = if round % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for on in order {
            obs::set_recording(on);
            let s = pass();
            if on { &mut enabled } else { &mut disabled }.push(s);
        }
    }
    obs::set_recording(true);

    // Min, not median: the best observed pass is the least-noise estimate
    // of each arm's true cost on a shared machine.
    let disabled_secs = disabled.iter().cloned().fold(f64::INFINITY, f64::min);
    let enabled_secs = enabled.iter().cloned().fold(f64::INFINITY, f64::min);
    let row = ObsOverheadRow {
        input_len: len,
        threads,
        runs,
        disabled_secs,
        enabled_secs,
        overhead_pct: ObsOverheadRow::compute_overhead_pct(disabled_secs, enabled_secs),
        compiled: obs::compiled(),
    };
    println!(
        "obs overhead (\"RGD\" compact scan, {} MB, {threads} threads, best of {runs}x{batch}):",
        len >> 20
    );
    println!(
        "  recording off   {:.4} s  ({:.1} MB/s)",
        row.disabled_secs,
        len as f64 / row.disabled_secs / 1e6
    );
    println!(
        "  recording on    {:.4} s  ({:.1} MB/s)",
        row.enabled_secs,
        len as f64 / row.enabled_secs / 1e6
    );
    println!(
        "  overhead        {:.2}%  (budget ≤2%; obs compiled: {})",
        row.overhead_pct, row.compiled
    );
    records::write_record("obs_overhead", &row).map_err(|e| e.to_string())?;
    if row.compiled && row.overhead_pct > 2.0 {
        return Err(format!(
            "observability overhead {:.2}% exceeds the 2% budget",
            row.overhead_pct
        ));
    }
    Ok(())
}

// ------------------------------------------------------------- serve-load

/// The serve-load pattern mix (regexes over the amino-acid alphabet).
const SERVE_PATTERNS: &[(&str, &str)] = &[("rg", "RG"), ("rgd", "RGD"), ("motif", "R[GA]N")];

#[derive(Debug, Default, Clone)]
struct ServeTally {
    sent: u64,
    served: u64,
    rejected: u64,
    mismatches: u64,
}

/// Closed-loop load against a real `sfa serve` daemon on an ephemeral
/// port: two tenants × `--connections` client connections × a
/// three-pattern mix. Every verdict is cross-checked against the
/// sequential DFA oracle; latency quantiles come from obs histograms.
/// The `bravo` tenant's byte quota is sized to exhaust mid-run, so the
/// run also demonstrates that typed `TENANT_OVER_QUOTA` rejections do
/// not disturb the unlimited tenant.
fn serve_load(cfg: &Config) -> Result<(), String> {
    use sfa_bench::records::ServeLoadRow;
    use sfa_core::obs::MetricsRegistry;
    use sfa_serve::client::{ServeClient, ServeReply};
    use sfa_serve::tenant::TenantSpec;
    use sfa_serve::ServeConfig;
    use std::sync::Arc;

    let connections = cfg.connections.max(2);
    let per_conn: u64 = if cfg.quick { 60 } else { 200 };

    let dir = std::env::temp_dir().join(format!("sfa-serve-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    for (id, regex) in SERVE_PATTERNS {
        std::fs::write(dir.join(format!("{id}.pat")), format!("{regex}\n"))
            .map_err(|e| e.to_string())?;
    }

    let inputs: Arc<Vec<Vec<u8>>> = Arc::new(
        [4096usize, 16384, 65536]
            .iter()
            .enumerate()
            .map(|(i, &len)| protein_text(len, 0xBEEF + i as u64))
            .collect(),
    );
    // Size bravo's quota so it admits roughly a quarter of its requests
    // and then collects typed rejections for the rest of the run.
    let avg_len: u64 = inputs.iter().map(|t| t.len() as u64).sum::<u64>() / inputs.len() as u64;
    let bravo_quota = avg_len * per_conn / 4;

    let config = ServeConfig::new("127.0.0.1:0", &dir)
        .with_tenants(vec![
            TenantSpec::unlimited("alpha"),
            TenantSpec::limited("bravo", bravo_quota),
        ])
        .with_workers(4);
    let handle = sfa_serve::server::start(&config)?;
    let addr = handle.addr();
    let state = handle.state().clone();

    // The sequential oracle, per (pattern, input), straight off the
    // registry's compiled DFAs.
    let oracle: Arc<Vec<Vec<bool>>> = Arc::new(
        SERVE_PATTERNS
            .iter()
            .map(|(id, _)| {
                let entry = state
                    .registry
                    .resolve(id)
                    .ok_or_else(|| format!("pattern {id:?} missing from the registry"))?;
                Ok(inputs
                    .iter()
                    .map(|t| match_sequential(entry.dfa, t))
                    .collect())
            })
            .collect::<Result<_, String>>()?,
    );

    // Client-side latency histograms: one per tenant plus an aggregate.
    let metrics = Arc::new(MetricsRegistry::new());

    println!(
        "serve-load: {connections} connections x {per_conn} requests, \
         2 tenants (bravo quota {bravo_quota} bytes), {} patterns, addr {addr}",
        SERVE_PATTERNS.len()
    );

    let t0 = std::time::Instant::now();
    let mut joins = Vec::new();
    for conn in 0..connections {
        // The last connection carries the quota-limited tenant.
        let tenant = if conn == connections - 1 {
            "bravo"
        } else {
            "alpha"
        };
        let inputs = Arc::clone(&inputs);
        let oracle = Arc::clone(&oracle);
        let metrics = Arc::clone(&metrics);
        joins.push(std::thread::spawn(move || -> Result<ServeTally, String> {
            let mut client = ServeClient::connect(addr).map_err(|e| e.to_string())?;
            client
                .set_timeout(std::time::Duration::from_secs(30))
                .map_err(|e| e.to_string())?;
            let hist = metrics.histogram(&format!("sfa_serve_load_{tenant}_nanos"));
            let all = metrics.histogram("sfa_serve_load_all_nanos");
            let mut tally = ServeTally::default();
            for i in 0..per_conn {
                let p = (conn + i as usize) % SERVE_PATTERNS.len();
                let x = (conn * 7 + i as usize * 3) % inputs.len();
                let request =
                    MatchRequest::symbols(inputs[x].clone()).with_pattern(SERVE_PATTERNS[p].0);
                let t = std::time::Instant::now();
                let reply = client.request(tenant, &request)?;
                let nanos = t.elapsed().as_nanos() as u64;
                tally.sent += 1;
                match reply {
                    ServeReply::Ok { outcome, .. } => {
                        hist.observe(nanos);
                        all.observe(nanos);
                        tally.served += 1;
                        if outcome.verdict != oracle[p][x] {
                            tally.mismatches += 1;
                        }
                    }
                    ServeReply::Rejected { code, .. } if code == "TENANT_OVER_QUOTA" => {
                        tally.rejected += 1;
                    }
                    ServeReply::Rejected { code, message, .. } => {
                        return Err(format!("unexpected rejection {code}: {message}"));
                    }
                }
            }
            Ok(tally)
        }));
    }

    let mut per_tenant: std::collections::BTreeMap<&str, (usize, ServeTally)> =
        std::collections::BTreeMap::new();
    for (conn, join) in joins.into_iter().enumerate() {
        let tenant = if conn == connections - 1 {
            "bravo"
        } else {
            "alpha"
        };
        let tally = join
            .join()
            .map_err(|_| "load connection panicked".to_string())??;
        let slot = per_tenant.entry(tenant).or_default();
        slot.0 += 1;
        slot.1.sent += tally.sent;
        slot.1.served += tally.served;
        slot.1.rejected += tally.rejected;
        slot.1.mismatches += tally.mismatches;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    handle.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);

    let mismatches: u64 = per_tenant.values().map(|(_, t)| t.mismatches).sum();
    if mismatches > 0 {
        return Err(format!(
            "{mismatches} verdicts disagree with the sequential oracle"
        ));
    }
    let alpha = &per_tenant["alpha"].1;
    let bravo = &per_tenant["bravo"].1;
    if bravo.rejected == 0 {
        return Err("bravo never hit its quota — the run exercised no admission path".into());
    }
    if alpha.rejected > 0 {
        return Err(format!(
            "unlimited tenant alpha was rejected {} times",
            alpha.rejected
        ));
    }
    if alpha.served == 0 || bravo.served == 0 {
        return Err("a tenant was never served".into());
    }

    let snapshot = metrics.snapshot();
    let quantiles = |name: &str| -> (f64, f64, f64) {
        match snapshot.histogram(name) {
            Some(h) => (
                h.quantile(0.5) / 1e3,
                h.quantile(0.99) / 1e3,
                h.quantile(0.999) / 1e3,
            ),
            None => (0.0, 0.0, 0.0),
        }
    };
    let mut rows = Vec::new();
    for (tenant, (conns, tally)) in &per_tenant {
        let (p50, p99, p999) = quantiles(&format!("sfa_serve_load_{tenant}_nanos"));
        rows.push(ServeLoadRow {
            tenant: tenant.to_string(),
            connections: *conns,
            requests: tally.sent,
            served: tally.served,
            rejected: tally.rejected,
            qps: tally.served as f64 / elapsed,
            p50_us: p50,
            p99_us: p99,
            p999_us: p999,
        });
    }
    let total_served: u64 = per_tenant.values().map(|(_, t)| t.served).sum();
    let total_sent: u64 = per_tenant.values().map(|(_, t)| t.sent).sum();
    let total_rejected: u64 = per_tenant.values().map(|(_, t)| t.rejected).sum();
    let (p50, p99, p999) = quantiles("sfa_serve_load_all_nanos");
    rows.push(ServeLoadRow {
        tenant: "(all)".into(),
        connections,
        requests: total_sent,
        served: total_served,
        rejected: total_rejected,
        qps: total_served as f64 / elapsed,
        p50_us: p50,
        p99_us: p99,
        p999_us: p999,
    });

    println!(
        "{:<8} {:>5} {:>8} {:>8} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "tenant", "conns", "sent", "served", "429s", "qps", "p50 us", "p99 us", "p999 us"
    );
    for r in &rows {
        println!(
            "{:<8} {:>5} {:>8} {:>8} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            r.tenant,
            r.connections,
            r.requests,
            r.served,
            r.rejected,
            r.qps,
            r.p50_us,
            r.p99_us,
            r.p999_us
        );
    }
    println!("verdicts: {total_served} served, all agree with the sequential oracle");

    records::write_record("serve_load", &rows).map_err(|e| e.to_string())?;
    std::fs::copy("results/serve_load.json", "BENCH_serve.json").map_err(|e| e.to_string())?;
    println!("wrote results/serve_load.json and BENCH_serve.json");
    Ok(())
}

// --------------------------------------------------------------- memory-cap

/// This process's resident high-water mark (`VmHWM`) in bytes; 0 where
/// unreadable. Per build only after [`reset_peak_rss`].
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb << 10;
        }
    }
    0
}

/// Return freed heap pages to the kernel (glibc), then reset the
/// resident high-water mark to the current RSS, so the next
/// [`peak_rss_bytes`] covers only what follows. Where
/// `/proc/self/clear_refs` is missing the mark stays process-wide.
fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free heap pages.
        unsafe { malloc_trim(0) };
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Run one measured build: trimmed heap and a fresh high-water mark
/// before, the mark read as soon as `build` returns (before anything is
/// serialized). Returns `(wall secs, peak RSS bytes, result)`.
fn measured_build(builder: SfaBuilder<'_>) -> (f64, u64, Result<ConstructionResult, SfaError>) {
    reset_peak_rss();
    let (secs, result) = time_once(|| builder.build());
    (secs, peak_rss_bytes(), result)
}

/// Beyond-RAM construction through the tiered state store: an r500-class
/// build under a ladder of resident payload caps that each previously
/// returned `BudgetExceeded`, now completing by spilling — with the
/// artifact checked byte-identical to the uncapped oracle at every level.
/// Each level's peak RSS is its own: the oracle's artifact waits on disk
/// and the oracle itself is dropped before the first capped build.
fn memory_cap(cfg: &Config) -> Result<(), String> {
    struct MemoryCapRow {
        cap_bytes: Option<u64>,
        fails_without_spill: bool,
        sfa_states: u32,
        peak_payload_bytes: u64,
        resident_bytes: u64,
        spilled_bytes: u64,
        demotions: u64,
        promotions: u64,
        wall_secs: f64,
        peak_rss_bytes: u64,
        identical: bool,
    }
    sfa_json::impl_to_json!(MemoryCapRow {
        cap_bytes,
        fails_without_spill,
        sfa_states,
        peak_payload_bytes,
        resident_bytes,
        spilled_bytes,
        demotions,
        promotions,
        wall_secs,
        peak_rss_bytes,
        identical,
    });
    fn print_row(label: &str, row: &MemoryCapRow) {
        println!(
            "{:<12} {:>8} {:>10} {:>10} {:>10} {:>9} {:>10} {:>8.3} {:>8} {:>9}",
            label,
            row.sfa_states,
            row.peak_payload_bytes >> 10,
            row.resident_bytes >> 10,
            row.spilled_bytes >> 10,
            row.demotions,
            row.promotions,
            row.wall_secs,
            row.peak_rss_bytes >> 20,
            if row.identical { "yes" } else { "NO" }
        );
    }

    let n = cfg.rn_size.min(if cfg.quick { 150 } else { 500 });
    let threads = *cfg.threads.last().unwrap();
    let dfa = rn(n);
    let opts = ParallelOptions::with_threads(threads).state_budget(1 << 22);
    let scratch = sfa_workloads::ScratchDir::new("memcap");
    let spill_dir = scratch.join("spill");
    let oracle_path = scratch.join("oracle.sfa");

    // Uncapped oracle: its artifact goes to disk and the automaton is
    // dropped, so no capped level carries it.
    let (oracle_secs, oracle_rss, oracle) = measured_build(Sfa::builder(&dfa).options(&opts));
    let oracle = oracle.map_err(|e| e.to_string())?;
    sfa_core::artifact::write_sfa(&oracle_path, &oracle.sfa).map_err(|e| e.to_string())?;
    let oracle_stats = oracle.stats;
    drop(oracle);
    let stored = oracle_stats.stored_bytes;

    println!(
        "memory-cap reproduction (r{n}, {threads} threads, uncapped store {} KB):",
        stored >> 10
    );
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>10} {:>9} {:>10} {:>8} {:>8} {:>9}",
        "cap",
        "states",
        "peak KB",
        "resid KB",
        "spill KB",
        "demote",
        "promote",
        "wall s",
        "RSS MB",
        "identical"
    );
    let mut rows = vec![MemoryCapRow {
        cap_bytes: None,
        fails_without_spill: false,
        sfa_states: oracle_stats.states as u32,
        peak_payload_bytes: oracle_stats.peak_bytes,
        resident_bytes: oracle_stats.resident_bytes,
        spilled_bytes: 0,
        demotions: 0,
        promotions: 0,
        wall_secs: oracle_secs,
        peak_rss_bytes: oracle_rss,
        identical: true,
    }];
    print_row("uncapped", &rows[0]);

    // Deep enough that the bottom level sits below what in-memory
    // compression alone can reach (~20x on rN states), forcing the
    // disk tier, not just the compressed tier.
    let dividers: &[u64] = if cfg.quick { &[8, 64] } else { &[2, 16, 128] };
    for &div in dividers {
        let cap = (stored / div).max(4096);
        // The cap was a hard failure before the spill tier existed:
        // demonstrate it still is when only the budget governor has it.
        let budget = Budget::unlimited().with_max_payload_bytes(cap);
        let fails_without_spill = matches!(
            Sfa::builder(&dfa)
                .options(&opts)
                .budget(budget.clone())
                .build(),
            Err(SfaError::BudgetExceeded { .. })
        );
        // Same budget plus a spill directory: graceful degradation.
        let (secs, peak_rss, capped) = measured_build(
            Sfa::builder(&dfa)
                .options(&opts)
                .budget(budget)
                .spill(&spill_dir, u64::MAX),
        );
        let capped = capped.map_err(|e| e.to_string())?;
        let oracle_bytes = std::fs::read(&oracle_path).map_err(|e| e.to_string())?;
        let identical = sfa_core::artifact::sfa_to_bytes(&capped.sfa) == oracle_bytes;
        let row = MemoryCapRow {
            cap_bytes: Some(cap),
            fails_without_spill,
            sfa_states: capped.stats.states as u32,
            peak_payload_bytes: capped.stats.peak_bytes,
            resident_bytes: capped.stats.resident_bytes,
            spilled_bytes: capped.stats.spilled_bytes,
            demotions: capped.stats.demotions,
            promotions: capped.stats.promotions,
            wall_secs: secs,
            peak_rss_bytes: peak_rss,
            identical,
        };
        print_row(&format!("1/{div}"), &row);
        if !identical {
            return Err(format!(
                "cap {cap} produced an artifact different from the uncapped oracle"
            ));
        }
        if !fails_without_spill {
            return Err(format!(
                "cap {cap} did not fail without a spill tier — the level proves nothing"
            ));
        }
        rows.push(row);
    }
    println!(
        "(every capped level fails typed without the spill tier and is byte-identical with it)"
    );
    records::write_record("memory_cap", &rows).map_err(|e| e.to_string())?;
    std::fs::copy("results/memory_cap.json", "BENCH_memory.json").map_err(|e| e.to_string())?;
    println!("wrote results/memory_cap.json and BENCH_memory.json");
    Ok(())
}

// ------------------------------------------------------- DESIGN §16 speculative

/// Generators of a large transformation monoid over `m` states: symbol
/// 0 is the cyclic shift, symbol 1 the saturating decrement, everything
/// else the identity. Compositions blow far past any reasonable SFA
/// state budget, and the identity tail keeps every chunk boundary's
/// feasible set full-width — exactly the regime the speculative
/// (predict/verify) mode exists for.
fn wide_monoid_dfa(m: u32) -> Dfa {
    use sfa_automata::dfa::DfaBuilder;
    let mut b = DfaBuilder::new(sfa_automata::Alphabet::amino_acids());
    for q in 0..m {
        b.add_state(q == 0);
    }
    for q in 0..m {
        b.add_transition(q, 0, (q + 1) % m);
        b.add_transition(q, 1, q.saturating_sub(1));
        b.default_transition(q, q);
    }
    b.set_start(0);
    b.build_strict().unwrap()
}

/// Speculative raw-DFA matching against the sequential oracle, on
/// automata whose SFA is infeasible under the construction budget.
/// Two workloads, one per mode: the rN exact-string pattern funnels to
/// the exact pruned mode (narrow feasible entry sets), and the wide
/// transformation monoid forces the predict/verify mode, where a
/// training pass warms the per-automaton state predictor first.
fn speculative(cfg: &Config) -> Result<(), String> {
    use sfa_core::budget::Governor;
    use sfa_core::speculative::{SpeculativeMatcher, StatePredictor};
    use sfa_sync::pool::TaskPool;
    use std::sync::Arc;

    struct SpeculativeRow {
        workload: String,
        sfa_infeasible: bool,
        text_symbols: u64,
        threads: u64,
        seq_secs: f64,
        spec_secs: f64,
        speedup: f64,
        chunks: u64,
        mispredicts: u64,
        reruns: u64,
        pruned: bool,
        verdict_agrees: bool,
    }
    sfa_json::impl_to_json!(SpeculativeRow {
        workload,
        sfa_infeasible,
        text_symbols,
        threads,
        seq_secs,
        spec_secs,
        speedup,
        chunks,
        mispredicts,
        reruns,
        pruned,
        verdict_agrees,
    });

    let text_len: usize = if cfg.quick { 8 << 20 } else { 64 << 20 };
    let budget_states: usize = if cfg.quick { 1 << 10 } else { 1 << 12 };
    let max_threads = *cfg.threads.last().unwrap();

    let rn_dfa = rn(cfg.rn_size);
    let monoid_dfa = wide_monoid_dfa(24);

    // Random protein text for the exact-string pattern; for the monoid,
    // a burst of counter activity up front and a pure identity tail, so
    // every later seam shares one entry state the predictor can learn.
    let rn_text = protein_text(text_len, 42);
    let monoid_text: Vec<u8> = (0..text_len)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 33;
            if i < 1024 {
                (h % 2) as u8
            } else {
                2 + (h % 18) as u8
            }
        })
        .collect();

    println!(
        "speculative-matching reproduction ({} MB text, SFA budget {budget_states} states):",
        text_len >> 20
    );
    println!(
        "{:<20} {:>4} {:>9} {:>9} {:>8} {:>8} {:>11} {:>7} {:>12}",
        "workload", "thr", "seq s", "spec s", "speedup", "chunks", "mispredicts", "reruns", "mode"
    );

    let mut rows = Vec::new();
    let mut headline = 0.0f64;
    for (name, dfa, text) in [
        ("rn-pruned", &rn_dfa, &rn_text),
        ("monoid-speculative", &monoid_dfa, &monoid_text),
    ] {
        // The tier's premise: the SFA of this automaton cannot be
        // constructed under the budget, so chunk-parallel matching has
        // to run on the raw DFA.
        let sfa_infeasible = Sfa::builder(dfa)
            .options(&ParallelOptions::with_threads(max_threads).state_budget(budget_states))
            .build()
            .is_err();
        let expected = match_sequential(dfa, text);
        let mut seq_samples: Vec<f64> = (0..cfg.runs.max(1))
            .map(|_| time_once(|| std::hint::black_box(match_sequential(dfa, text))).0)
            .collect();
        let seq_secs = median(&mut seq_samples);

        for &threads in &cfg.threads {
            let pool = TaskPool::new(threads);
            let governor = Governor::unlimited();
            let matcher = SpeculativeMatcher::new(dfa)
                .map_err(|e| e.to_string())?
                .with_predictor(Arc::new(StatePredictor::new(dfa.num_states())));
            // Training pass: warms the predictor (and the page cache).
            let (verdict, _) = matcher
                .matches(&pool, &governor, text, threads)
                .map_err(|e| e.to_string())?;
            if verdict != expected {
                return Err(format!(
                    "{name}: speculative verdict diverged from the oracle"
                ));
            }
            let mut samples = Vec::new();
            let mut last_stats = None;
            for _ in 0..cfg.runs.max(1) {
                let (secs, result) = time_once(|| matcher.matches(&pool, &governor, text, threads));
                let (verdict, stats) = result.map_err(|e| e.to_string())?;
                if verdict != expected {
                    return Err(format!(
                        "{name}: speculative verdict diverged from the oracle"
                    ));
                }
                samples.push(secs);
                last_stats = Some(stats);
            }
            let stats = last_stats.unwrap();
            let spec_secs = median(&mut samples);
            let speedup = seq_secs / spec_secs;
            if threads == max_threads {
                headline = headline.max(speedup);
            }
            println!(
                "{name:<20} {threads:>4} {seq_secs:>9.3} {spec_secs:>9.3} {speedup:>7.2}x \
                 {:>8} {:>11} {:>7} {:>12}",
                stats.chunks,
                stats.mispredicts,
                stats.reruns,
                if stats.pruned {
                    "pruned"
                } else {
                    "speculative"
                }
            );
            rows.push(SpeculativeRow {
                workload: name.to_string(),
                sfa_infeasible,
                text_symbols: text.len() as u64,
                threads: threads as u64,
                seq_secs,
                spec_secs,
                speedup,
                chunks: stats.chunks,
                mispredicts: stats.mispredicts,
                reruns: stats.reruns,
                pruned: stats.pruned,
                verdict_agrees: true,
            });
        }
    }
    println!("(best speedup over the sequential oracle at {max_threads} threads: {headline:.2}x)");
    records::write_record("speculative", &rows).map_err(|e| e.to_string())?;
    std::fs::copy("results/speculative.json", "BENCH_speculative.json")
        .map_err(|e| e.to_string())?;
    println!("wrote results/speculative.json and BENCH_speculative.json");
    Ok(())
}

// ------------------------------------------------------------ §III-A hashes

fn hashes(cfg: &Config) -> Result<(), String> {
    let mhz = PlatformInfo::detect().cpu_mhz;
    let sizes = if cfg.quick { 1 << 20 } else { 8 << 20 };
    let data: Vec<u8> = (0..sizes)
        .map(|i| ((i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 56) as u8)
        .collect();
    println!(
        "{:<12} {:>12} {:>14} (paper: CityHash 5.1 B/cyc, Rabin+PCLMULQDQ 1.1 B/cyc)",
        "hash", "GB/s", "bytes/cycle"
    );
    let mut rows = Vec::new();
    let rabin = RabinFingerprinter::default();
    let city = CityFingerprinter;
    let fx = FxFingerprinter;
    let fns: Vec<(&str, &dyn Fingerprinter)> = vec![
        ("cityhash64", &city),
        ("rabin64", &rabin),
        ("fxhash64", &fx),
    ];
    for (name, f) in fns {
        // Warm up, then measure over several passes.
        let mut sink = 0u64;
        sink ^= f.fingerprint(&data);
        let passes = if cfg.quick { 3 } else { 10 };
        let (secs, _) = time_once(|| {
            for _ in 0..passes {
                sink ^= f.fingerprint(&data);
            }
        });
        std::hint::black_box(sink);
        let bytes_per_sec = (data.len() * passes) as f64 / secs;
        let bytes_per_cycle = if mhz > 0.0 {
            bytes_per_sec / (mhz * 1e6)
        } else {
            0.0
        };
        println!(
            "{name:<12} {:>12.2} {bytes_per_cycle:>14.2}",
            bytes_per_sec / 1e9
        );
        rows.push(HashRow {
            name: name.into(),
            bytes_per_sec,
            bytes_per_cycle,
        });
    }
    records::write_record("hashes", &rows).map_err(|e| e.to_string())?;
    Ok(())
}

// ---------------------------------------------------------------- ablations

fn ablations(cfg: &Config) -> Result<(), String> {
    let dfa = rn(cfg.rn_size.min(if cfg.quick { 150 } else { 300 }));
    let threads = *cfg.threads.last().unwrap();
    println!(
        "ablations on r{} with {threads} threads:",
        dfa.num_states() - 2
    );

    struct AblationRow {
        name: String,
        secs: f64,
        states: u32,
        exhaustive_compares: u64,
        stored_bytes: u64,
    }
    sfa_json::impl_to_json!(AblationRow {
        name,
        secs,
        states,
        exhaustive_compares,
        stored_bytes,
    });
    let mut rows = Vec::new();
    let mut run = |name: &str, opts: ParallelOptions| -> Result<(), String> {
        let secs = sfa_bench::time_secs(cfg.runs, || {
            let _ = Sfa::builder(&dfa).options(&opts).build();
        });
        let r = Sfa::builder(&dfa)
            .options(&opts)
            .build()
            .map_err(|e| e.to_string())?;
        println!(
            "  {:<28} {:>10.4} s   {:>8} states  {:>12} compares  {:>10} bytes",
            name,
            secs,
            r.sfa.num_states(),
            r.stats.exhaustive_compares,
            r.stats.stored_bytes
        );
        rows.push(AblationRow {
            name: name.into(),
            secs,
            states: r.sfa.num_states(),
            exhaustive_compares: r.stats.exhaustive_compares,
            stored_bytes: r.stats.stored_bytes,
        });
        Ok(())
    };

    run(
        "default (ws + fingerprints)",
        ParallelOptions::with_threads(threads),
    )?;
    let mut no_fp = ParallelOptions::with_threads(threads);
    no_fp.fingerprint_short_circuit = false;
    run("no fingerprint short-circuit", no_fp)?;
    run(
        "global queue only",
        ParallelOptions::with_threads(threads).scheduler(Scheduler::GlobalOnly),
    )?;
    run(
        "shared MPMC queue",
        ParallelOptions::with_threads(threads).scheduler(Scheduler::SharedMpmc),
    )?;
    run(
        "compress from start",
        ParallelOptions::with_threads(threads).compression(CompressionPolicy::FromStart),
    )?;
    run(
        "medium-grained (4 blocks)",
        ParallelOptions::with_threads(threads).symbol_blocks(4),
    )?;
    records::write_record("ablations", &rows).map_err(|e| e.to_string())?;
    Ok(())
}
