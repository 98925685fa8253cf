//! Implementations of the `sfa` subcommands.

use crate::args::Parsed;
use crate::{dfa_from_args, parallel_options};
use sfa_automata::grail;
use sfa_automata::Alphabet;
use sfa_core::obs;
use sfa_core::prelude::*;
use sfa_core::stats::ConstructionStats;

/// `--metrics-out <path>` — scrape the process-global metrics registry
/// into a Prometheus text snapshot after the command's work is done.
/// Construction engines and the match runtime feed the global registry
/// automatically, so this needs no per-command wiring beyond the pool
/// gauges sampled here. A no-op (empty file) when the `obs` feature is
/// compiled out.
fn write_metrics_snapshot(parsed: &Parsed) -> Result<(), String> {
    let Some(path) = parsed.opt("metrics-out") else {
        return Ok(());
    };
    obs::record_shared_pool(obs::global());
    let text = obs::export::prometheus_text(&obs::global().snapshot());
    std::fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("# wrote metrics snapshot to {path}");
    Ok(())
}

/// Feed one CLI match into the process-global registry for the paths
/// (lazy, plain `ParallelMatcher`) that bypass [`MatchEngine`] and so
/// never hit its delivery hook.
fn record_cli_match(tier: MatchTier, bytes: usize, secs: f64) {
    let mut stats = MatchStats::default();
    stats.tier = tier;
    stats.blocks = 1;
    stats.bytes = bytes as u64;
    stats.elapsed = std::time::Duration::from_secs_f64(secs);
    obs::record_match(obs::global(), &stats);
}

/// `sfa metrics --file <path>` — re-parse and display a Prometheus
/// snapshot written by `--metrics-out` (validating it in the process);
/// `--json` renders the parsed samples as JSON instead.
pub fn metrics(parsed: &Parsed) -> Result<(), String> {
    let path = parsed
        .opt("file")
        .ok_or("usage: sfa metrics --file <path> [--json]")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let samples = obs::export::parse_prometheus(&text).map_err(|e| format!("{path}: {e}"))?;
    if parsed.flag("json") {
        use sfa_json::{ToJson, Value};
        let rows: Vec<Value> = samples
            .iter()
            .map(|s| {
                let labels = s
                    .labels
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_json()))
                    .collect();
                Value::Object(vec![
                    ("name".to_string(), s.name.to_json()),
                    ("labels".to_string(), Value::Object(labels)),
                    ("value".to_string(), s.value.to_json()),
                ])
            })
            .collect();
        println!(
            "{}",
            sfa_json::to_string_pretty(&Value::Object(vec![(
                "samples".to_string(),
                Value::Array(rows)
            )]))
        );
        return Ok(());
    }
    if samples.is_empty() {
        println!("(no samples — snapshot from an obs-disabled build?)");
        return Ok(());
    }
    for s in &samples {
        let labels = if s.labels.is_empty() {
            String::new()
        } else {
            let body: Vec<String> = s
                .labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{v}\""))
                .collect();
            format!("{{{}}}", body.join(","))
        };
        println!("{:<56} {}", format!("{}{labels}", s.name), s.value);
    }
    Ok(())
}

/// `sfa compile` — pattern → minimal DFA in Grail+ text.
pub fn compile(parsed: &Parsed) -> Result<(), String> {
    let dfa = dfa_from_args(parsed)?;
    eprintln!(
        "# {} states, {} symbols, {} accepting",
        dfa.num_states(),
        dfa.num_symbols(),
        dfa.accepting_states().len()
    );
    print!("{}", grail::write_dfa(&dfa));
    Ok(())
}

struct BuildReport {
    dfa_states: u32,
    sfa_states: u32,
    threads: usize,
    total_secs: f64,
    phase1_secs: f64,
    compression_secs: f64,
    phase3_secs: f64,
    compressed: bool,
    uncompressed_bytes: u64,
    stored_bytes: u64,
    compression_ratio: f64,
    resident_bytes: u64,
    spilled_bytes: u64,
    demotions: u64,
    promotions: u64,
    candidates: u64,
    duplicates: u64,
    exhaustive_compares: u64,
    fingerprint_collisions: u64,
    cas_failures: u64,
    steal_attempts: u64,
    steal_successes: u64,
}

sfa_json::impl_to_json!(BuildReport {
    dfa_states,
    sfa_states,
    threads,
    total_secs,
    phase1_secs,
    compression_secs,
    phase3_secs,
    compressed,
    uncompressed_bytes,
    stored_bytes,
    compression_ratio,
    resident_bytes,
    spilled_bytes,
    demotions,
    promotions,
    candidates,
    duplicates,
    exhaustive_compares,
    fingerprint_collisions,
    cas_failures,
    steal_attempts,
    steal_successes,
});

impl BuildReport {
    fn new(dfa_states: u32, sfa_states: u32, s: &ConstructionStats) -> Self {
        BuildReport {
            dfa_states,
            sfa_states,
            threads: s.threads,
            total_secs: s.total_secs,
            phase1_secs: s.phase1_secs,
            compression_secs: s.compression_secs,
            phase3_secs: s.phase3_secs,
            compressed: s.compressed,
            uncompressed_bytes: s.uncompressed_bytes,
            stored_bytes: s.stored_bytes,
            compression_ratio: s.compression_ratio(),
            resident_bytes: s.resident_bytes,
            spilled_bytes: s.spilled_bytes,
            demotions: s.demotions,
            promotions: s.promotions,
            candidates: s.candidates,
            duplicates: s.duplicates,
            exhaustive_compares: s.exhaustive_compares,
            fingerprint_collisions: s.fingerprint_collisions,
            cas_failures: s.contention.cas_failures,
            steal_attempts: s.contention.steal_attempts,
            steal_successes: s.contention.steal_successes,
        }
    }

    fn print_human(&self) {
        println!("DFA states           {}", self.dfa_states);
        println!("SFA states           {}", self.sfa_states);
        println!("threads              {}", self.threads);
        println!("total time           {:.3} s", self.total_secs);
        if self.compressed {
            println!("  phase 1 (raw)      {:.3} s", self.phase1_secs);
            println!("  compression        {:.3} s", self.compression_secs);
            println!("  phase 3 (compr.)   {:.3} s", self.phase3_secs);
            println!("compression ratio    {:.1}x", self.compression_ratio);
        }
        println!(
            "state memory         {} -> {} bytes",
            self.uncompressed_bytes, self.stored_bytes
        );
        if self.spilled_bytes > 0 {
            // Degraded mode: the build ran under memory pressure and
            // reached the disk tier. Say how much left RAM and how
            // often states came back.
            println!(
                "spill tier           {} bytes on disk, {} resident",
                self.spilled_bytes, self.resident_bytes
            );
            println!(
                "  demotions          {} ({} promotions back)",
                self.demotions, self.promotions
            );
        }
        println!(
            "candidates           {} ({} duplicates)",
            self.candidates, self.duplicates
        );
        println!(
            "exhaustive compares  {} ({} fingerprint collisions)",
            self.exhaustive_compares, self.fingerprint_collisions
        );
        println!(
            "contention           {} CAS failures, {}/{} steals",
            self.cas_failures, self.steal_successes, self.steal_attempts
        );
    }
}

/// Structured report for a build the budget governor aborted.
fn budget_error_json(err: &SfaError) -> sfa_json::Value {
    use sfa_json::{ToJson, Value};
    let mut fields: Vec<(String, Value)> = vec![("error".to_string(), err.to_string().to_json())];
    let progress = match err {
        SfaError::BudgetExceeded { resource, progress } => {
            fields.push(("resource".to_string(), resource.to_string().to_json()));
            Some(progress)
        }
        SfaError::Cancelled { progress } => {
            fields.push(("resource".to_string(), "cancelled".to_json()));
            Some(progress)
        }
        _ => None,
    };
    if let Some(p) = progress {
        fields.push(("states".to_string(), p.states.to_json()));
        fields.push(("payload_bytes".to_string(), p.payload_bytes.to_json()));
        fields.push((
            "elapsed_secs".to_string(),
            p.elapsed.as_secs_f64().to_json(),
        ));
    }
    Value::Object(fields)
}

/// `sfa build` — construct the SFA, print statistics.
pub fn build(parsed: &Parsed) -> Result<(), String> {
    let dfa = dfa_from_args(parsed)?;
    let budget = crate::budget_from_args(parsed)?;
    let checkpoint = parsed.opt("checkpoint");
    if parsed.flag("resume") && checkpoint.is_none() {
        return Err("--resume requires --checkpoint <path>".into());
    }
    // Both engines produce canonically numbered (byte-identical)
    // automata, so `--checkpoint`/`--resume` compose with either; a
    // checkpoint written by one engine can be resumed by the other.
    // `--budget` reaches both engines.
    let mut builder = Sfa::builder(&dfa)
        .options(&parallel_options(parsed)?)
        .budget(budget);
    if let Some(seq) = parsed.opt("seq") {
        builder = builder.sequential(match seq {
            "baseline" => SequentialVariant::Baseline,
            "pointer-tree" => SequentialVariant::BaselinePointerTree,
            "hashing" => SequentialVariant::Hashing,
            "transposed" => SequentialVariant::Transposed,
            other => return Err(format!("unknown sequential variant {other:?}")),
        });
    }
    // `--spill-dir` enables the parallel engine's spill tier: builds
    // that would abort on `--memory-cap` (or `--max-bytes`) instead
    // demote cold states — compressed, then to disk — and finish
    // byte-identical. With `--seq` the builder refuses it.
    let memory_cap = match parsed.opt("memory-cap") {
        Some(v) => Some(crate::args::parse_bytes(v)? as u64),
        None => None,
    };
    match (parsed.opt("spill-dir"), memory_cap) {
        (Some(dir), cap) => builder = builder.spill(dir, cap.unwrap_or(u64::MAX)),
        (None, Some(_)) => return Err("--memory-cap requires --spill-dir <dir>".into()),
        (None, None) => {}
    }
    if let Some(path) = checkpoint {
        builder = builder.checkpoint(path, parsed.num("checkpoint-every", 1024u64)?.max(1));
        if parsed.flag("resume") {
            if std::path::Path::new(path).exists() {
                eprintln!("# resuming from checkpoint {path}");
                builder = builder.resume_from(path);
            } else {
                // Keeps `build … --resume` usable as a retry loop: a
                // run that died before its first snapshot (or that
                // finished and was cleaned up) just starts over.
                eprintln!("# no checkpoint at {path}; starting fresh");
            }
        }
    }
    let built = builder.build();
    let result = match built {
        Ok(r) => r,
        Err(err) if err.is_degradable() => {
            // Degraded-mode reporting: the governor stopped the build.
            // Surface which axis fired and how far construction got,
            // then exit non-zero.
            if parsed.flag("json") {
                println!("{}", sfa_json::to_string_pretty(&budget_error_json(&err)));
            }
            return Err(format!("construction aborted by budget: {err}"));
        }
        Err(err) => return Err(err.to_string()),
    };
    if parsed.flag("validate") {
        result.sfa.validate(&dfa)?;
        eprintln!("validation: ok");
    }
    if let Some(out) = parsed.opt("out") {
        sfa_core::artifact::write_sfa(std::path::Path::new(out), &result.sfa)
            .map_err(|e| format!("{out}: {e}"))?;
        eprintln!("# wrote SFA artifact to {out}");
    }
    let report = BuildReport::new(dfa.num_states(), result.sfa.num_states(), &result.stats);
    if parsed.flag("json") {
        println!("{}", sfa_json::to_string_pretty(&report));
    } else {
        report.print_human();
    }
    write_metrics_snapshot(parsed)
}

/// `sfa artifact <verb>` — inspect persisted artifacts. The only verb
/// so far is `verify`: parse the container, check every checksum, and
/// fully decode the payload, failing with a typed error otherwise.
pub fn artifact(argv: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: sfa artifact verify --file <path>";
    let Some(verb) = argv.first() else {
        return Err(USAGE.into());
    };
    let parsed = Parsed::parse(&argv[1..])?;
    match verb.as_str() {
        "verify" => {
            let path = parsed.opt("file").ok_or(USAGE)?;
            let info = sfa_core::artifact::verify(std::path::Path::new(path))
                .map_err(|e| format!("{path}: {e}"))?;
            let kind = match info.kind {
                ArtifactKind::Sfa => "sfa",
                ArtifactKind::Checkpoint => "checkpoint",
            };
            if parsed.flag("json") {
                use sfa_json::ToJson;
                let fields: Vec<(String, sfa_json::Value)> = vec![
                    ("kind".to_string(), kind.to_json()),
                    ("version".to_string(), (info.version as u64).to_json()),
                    ("total_bytes".to_string(), info.total_bytes.to_json()),
                    (
                        "sections".to_string(),
                        (info.sections.len() as u64).to_json(),
                    ),
                ];
                println!(
                    "{}",
                    sfa_json::to_string_pretty(&sfa_json::Value::Object(fields))
                );
            } else {
                println!("kind                 {kind}");
                println!("format version       {}", info.version);
                println!("total bytes          {}", info.total_bytes);
                for s in &info.sections {
                    println!("  section tag {:>3}    {} bytes", s.tag, s.len);
                }
                println!("checksums            ok");
            }
            Ok(())
        }
        other => Err(format!("unknown artifact verb {other:?}; {USAGE}")),
    }
}

/// `--tier <auto|sequential|speculative|require_full>` — explicit tier
/// policy for `sfa match`. `None` when absent (auto behavior).
fn tier_from_args(parsed: &Parsed) -> Result<Option<TierPolicy>, String> {
    match parsed.opt("tier") {
        None => Ok(None),
        Some(s) => TierPolicy::parse(s).map(Some).ok_or_else(|| {
            format!("--tier expects auto|sequential|speculative|require_full, got {s:?}")
        }),
    }
}

/// `--interleave` / `--oversubscribe` — explicit scan-engine knobs.
/// `None` when neither was given, so the engine defaults apply.
fn scan_options_from_args(parsed: &Parsed) -> Result<Option<ScanOptions>, String> {
    if parsed.opt("interleave").is_none() && parsed.opt("oversubscribe").is_none() {
        return Ok(None);
    }
    let defaults = ScanOptions::default();
    let opts = ScanOptions {
        interleave: parsed.num("interleave", defaults.interleave)?,
        oversubscribe: parsed.num("oversubscribe", defaults.oversubscribe)?,
        min_chunk_symbols: defaults.min_chunk_symbols,
    };
    opts.validate().map_err(|e| e.to_string())?;
    Ok(Some(opts))
}

/// `sfa match` — parallel SFA matching of a text.
pub fn do_match(parsed: &Parsed) -> Result<(), String> {
    if let Some(path) = parsed.opt("stream") {
        return do_match_stream(parsed, path);
    }
    let dfa = dfa_from_args(parsed)?;
    let alpha = Alphabet::amino_acids();
    let text: Vec<u8> = if let Some(len) = parsed.opt("random") {
        let len: usize = len.parse().map_err(|_| "--random expects a length")?;
        sfa_workloads::protein_text(len, 0xC0FFEE)
    } else if let Some(t) = parsed.opt("text") {
        alpha
            .encode_bytes(t.as_bytes())
            .map_err(|e| e.to_string())?
    } else if let Some(path) = parsed.opt("text-file") {
        let raw = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
        let filtered: Vec<u8> = raw
            .into_iter()
            .filter(|b| !b.is_ascii_whitespace())
            .collect();
        alpha.encode_bytes(&filtered).map_err(|e| e.to_string())?
    } else if let Some(path) = parsed.opt("fasta") {
        let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let records = sfa_workloads::fasta::parse_fasta(&raw).map_err(|e| e.to_string())?;
        eprintln!("# {} FASTA records", records.len());
        sfa_workloads::fasta::concat_sequences(&records)
    } else {
        return Err("give one of --random, --text, --text-file, --fasta".into());
    };

    let threads = parsed.num("threads", 4)?;
    let budget = crate::budget_from_args(parsed)?;
    let tier = tier_from_args(parsed)?;
    if matches!(
        tier,
        Some(TierPolicy::Sequential) | Some(TierPolicy::Speculative)
    ) {
        // These tiers run on the raw DFA — no SFA construction at all.
        // `--tier speculative` is the escape hatch for automata whose
        // SFA is infeasible: chunk-parallel matching from predicted (or
        // feasible-set-pruned) entry states with seam verification.
        let policy = tier.unwrap();
        let runtime = MatchRuntime::new(threads);
        let request = MatchRequest::symbols(text.clone())
            .with_budget(budget.clone())
            .with_tier(policy);
        let t0 = std::time::Instant::now();
        let outcome = runtime
            .run_dfa(&dfa, &request, None)
            .map_err(|e| e.to_string())?;
        let secs = t0.elapsed().as_secs_f64();
        if outcome.verdict != match_sequential(&dfa, &text) {
            return Err("tiered and sequential matchers disagree (bug)".into());
        }
        obs::record_match(obs::global(), &outcome.stats);
        println!("text length          {} residues", text.len());
        println!("match                {}", outcome.verdict);
        println!("engine tier          {}", outcome.tier);
        if outcome.stats.chunks > 1 {
            println!(
                "speculation          {} chunks, {} mispredicts, {} re-runs",
                outcome.stats.chunks, outcome.stats.mispredicts, outcome.stats.reruns
            );
        }
        println!("tier match ({threads} thr)  {secs:.4} s");
        return write_metrics_snapshot(parsed);
    }
    if !budget.is_unlimited() || tier.is_some() {
        // Budgeted matching goes through the self-degrading engine:
        // if full construction is not possible under the budget, a
        // lower tier serves the query instead of failing.
        let opts = parallel_options(parsed)?;
        let mut engine = MatchEngine::with_budget(&dfa, &opts, &budget, None);
        if let Some(scan) = scan_options_from_args(parsed)? {
            engine.set_scan_options(scan).map_err(|e| e.to_string())?;
        }
        // Feed per-query stats into the process-global registry so a
        // `--metrics-out` snapshot carries `sfa_match_*`.
        let mut engine = engine.metrics(obs::global());
        let request = MatchRequest::symbols(text.clone())
            .with_budget(budget.clone())
            .with_tier(tier.unwrap_or_default());
        let t0 = std::time::Instant::now();
        let outcome = match engine.run(&request) {
            Ok(outcome) => outcome,
            Err(err) => {
                // Governance stopped the governed tiers mid-query; the
                // caller still asked for a verdict, so answer on the
                // ungoverned oracle.
                eprintln!("# governed match aborted ({err}); answering sequentially");
                engine
                    .run(&MatchRequest::symbols(text.clone()).with_tier(TierPolicy::Sequential))
                    .map_err(|e| e.to_string())?
            }
        };
        let secs = t0.elapsed().as_secs_f64();
        if outcome.verdict != match_sequential(&dfa, &text) {
            return Err("engine and sequential matchers disagree (bug)".into());
        }
        println!("text length          {} residues", text.len());
        println!("match                {}", outcome.verdict);
        println!("engine tier          {}", outcome.tier);
        if let Some(reason) = &outcome.degraded {
            println!("degraded             {reason}");
        }
        println!("engine match         {secs:.4} s");
        return write_metrics_snapshot(parsed);
    }
    if parsed.flag("lazy") {
        let lazy = sfa_core::lazy::LazySfa::new(&dfa, parsed.num("budget", 1 << 22)?)
            .map_err(|e| e.to_string())?;
        let t0 = std::time::Instant::now();
        let hit = lazy.matches(&text, threads).map_err(|e| e.to_string())?;
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(hit, match_sequential_oracle(&dfa, &text));
        record_cli_match(MatchTier::LazySfa, text.len(), secs);
        println!("text length          {} residues", text.len());
        println!("match                {hit}");
        println!(
            "lazy SFA match       {secs:.4} s ({} states discovered)",
            lazy.states_built()
        );
        return write_metrics_snapshot(parsed);
    }
    let opts = parallel_options(parsed)?;
    let t0 = std::time::Instant::now();
    let result = Sfa::builder(&dfa)
        .options(&opts)
        .build()
        .map_err(|e| e.to_string())?;
    let build_secs = t0.elapsed().as_secs_f64();

    let matcher = match scan_options_from_args(parsed)? {
        Some(scan) => {
            ParallelMatcher::with_options(&result.sfa, &dfa, scan).map_err(|e| e.to_string())?
        }
        None => ParallelMatcher::new(&result.sfa, &dfa).map_err(|e| e.to_string())?,
    };
    let runtime = MatchRuntime::new(threads);
    let request = MatchRequest::symbols(text.clone());
    let t1 = std::time::Instant::now();
    let outcome = runtime.run(&matcher, &request).map_err(|e| e.to_string())?;
    let sfa_match = outcome.verdict;
    let sfa_secs = t1.elapsed().as_secs_f64();
    record_cli_match(MatchTier::FullSfa, text.len(), sfa_secs);

    let t2 = std::time::Instant::now();
    let seq_match = match_sequential(&dfa, &text);
    let seq_secs = t2.elapsed().as_secs_f64();

    if sfa_match != seq_match {
        return Err("SFA and sequential matchers disagree (bug)".into());
    }
    println!("text length          {} residues", text.len());
    println!("match                {}", sfa_match);
    println!(
        "SFA construction     {build_secs:.4} s ({} states)",
        result.sfa.num_states()
    );
    println!("SFA match ({threads} thr)   {sfa_secs:.4} s");
    println!("sequential match     {seq_secs:.4} s");
    write_metrics_snapshot(parsed)
}

fn match_sequential_oracle(dfa: &sfa_automata::Dfa, text: &[u8]) -> bool {
    sfa_core::matcher::match_sequential(dfa, text)
}

/// `sfa match --stream <path>` — stream a file through the pooled match
/// runtime in fixed-size blocks: byte→symbol classification is fused
/// into the parallel chunk scans, so the file is never materialized as
/// a symbol vector. ASCII whitespace is skipped (line-wrapped text
/// streams as-is); any other non-alphabet byte is a typed error.
fn do_match_stream(parsed: &Parsed, path: &str) -> Result<(), String> {
    let dfa = dfa_from_args(parsed)?;
    let block_bytes = match parsed.opt("block-bytes") {
        Some(s) => crate::args::parse_bytes(s)?,
        None => sfa_core::runtime::DEFAULT_BLOCK_BYTES,
    };
    let opts = parallel_options(parsed)?;
    let budget = crate::budget_from_args(parsed)?;
    let mut engine = MatchEngine::with_budget(&dfa, &opts, &budget, None);
    if let Some(scan) = scan_options_from_args(parsed)? {
        engine.set_scan_options(scan).map_err(|e| e.to_string())?;
    }
    let mut engine = engine.metrics(obs::global());
    // An explicit --threads gets its own pool of that size; otherwise the
    // process-shared pool (one worker per CPU).
    let runtime = match parsed.opt("threads") {
        Some(_) => MatchRuntime::new(parsed.num("threads", 4)?),
        None => MatchRuntime::shared(),
    };
    engine.set_runtime(runtime.with_block_bytes(block_bytes));
    let request = MatchRequest::file(path)
        .with_classifier(ClassifierMode::SkipWhitespace)
        .with_budget(budget.clone())
        .with_tier(tier_from_args(parsed)?.unwrap_or_default());
    let t0 = std::time::Instant::now();
    let outcome = engine.run(&request).map_err(|e| e.to_string())?;
    let secs = t0.elapsed().as_secs_f64();
    let stats = &outcome.stats;
    println!("stream               {path}");
    println!(
        "streamed             {} bytes in {} blocks of {} ({} chunk scans)",
        stats.bytes, stats.blocks, block_bytes, stats.chunks
    );
    println!("match                {}", outcome.verdict);
    println!("engine tier          {}", outcome.tier);
    if let Some(reason) = &outcome.degraded {
        println!("degraded             {reason}");
    }
    // Sub-resolution matches get a clamped-but-plausible rate from
    // `bytes_per_sec()`; flag them rather than printing it as measured.
    let untimed = if stats.untimed() { " [untimed]" } else { "" };
    println!(
        "throughput           {:.1} MiB/s{untimed} ({secs:.4} s, pool depth {})",
        stats.bytes_per_sec() / (1024.0 * 1024.0),
        stats.queue_depth
    );
    write_metrics_snapshot(parsed)
}

/// `sfa serve` — run the multi-tenant match daemon until SIGTERM or
/// SIGINT, then drain gracefully (in-flight requests complete).
pub fn serve(parsed: &Parsed) -> Result<(), String> {
    let patterns_dir = parsed.opt("patterns-dir").ok_or(
        "usage: sfa serve --patterns-dir <dir> [--listen <host:port>] \
         [--tenants name=<bytes|unlimited>,...] [--workers <n>] \
         [--state-budget <n>] [--match-threads <n>]",
    )?;
    let listen = parsed.opt("listen").unwrap_or("127.0.0.1:7878");
    let mut tenants = Vec::new();
    if let Some(list) = parsed.opt("tenants") {
        for item in list.split(',').filter(|s| !s.trim().is_empty()) {
            tenants.push(sfa_serve::tenant::TenantSpec::parse(item.trim())?);
        }
    }
    let config = sfa_serve::ServeConfig::new(listen, patterns_dir)
        .with_tenants(tenants)
        .with_workers(parsed.num("workers", 0)?)
        .with_state_budget(parsed.num("state-budget", 1u64 << 20)?)
        .with_match_threads(parsed.num("match-threads", 0)?);
    let handle = sfa_serve::server::start(&config)?;

    let state = handle.state().clone();
    eprintln!(
        "# sfa serve listening on {} ({} patterns: {} reloaded from artifacts, {} constructed, \
         {} deduped)",
        handle.addr(),
        state.registry.entries().len(),
        state.registry.reloaded(),
        state.registry.constructed(),
        state.registry.deduped(),
    );
    if !state.registry.orphans().is_empty() {
        eprintln!(
            "# artifact cache holds {} unreferenced .sfar file(s) (safe to delete): {}",
            state.registry.orphans().len(),
            state.registry.orphans().join(", "),
        );
    }
    for entry in state.registry.entries() {
        match entry.degraded_reason() {
            Some(reason) => eprintln!(
                "#   pattern {:<12} {}  tier {} ({reason})",
                entry.id,
                entry.hash,
                entry.tier()
            ),
            None => eprintln!(
                "#   pattern {:<12} {}  tier {}",
                entry.id,
                entry.hash,
                entry.tier()
            ),
        }
    }
    for tenant in state.tenants.iter() {
        match tenant.spec.max_bytes {
            Some(max) => eprintln!("#   tenant  {:<12} quota {max} bytes", tenant.spec.name),
            None => eprintln!("#   tenant  {:<12} unlimited", tenant.spec.name),
        }
    }

    wait_for_shutdown();
    eprintln!("# signal received; draining");
    handle.shutdown_and_join();
    eprintln!("# drained cleanly");
    write_metrics_snapshot(parsed)
}

/// Block until SIGTERM or SIGINT arrives.
#[cfg(unix)]
fn wait_for_shutdown() {
    sfa_serve::sys::install_shutdown_handler();
    while !sfa_serve::sys::shutdown_signalled() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
}

/// Off unix there are no signal hooks: park until stdin closes
/// (Ctrl-C still kills the process, skipping the graceful drain).
#[cfg(not(unix))]
fn wait_for_shutdown() {
    use std::io::BufRead;
    let stdin = std::io::stdin();
    let mut line = String::new();
    while stdin.lock().read_line(&mut line).map_or(false, |n| n > 0) {
        line.clear();
    }
}

/// `sfa survey` — codec survey over sampled SFA states (E6 methodology).
pub fn survey(parsed: &Parsed) -> Result<(), String> {
    let dfa = dfa_from_args(parsed)?;
    let opts = parallel_options(parsed)?;
    let result = Sfa::builder(&dfa)
        .options(&opts)
        .build()
        .map_err(|e| e.to_string())?;
    let sfa = result.sfa;

    // Sample 10 states from equidistant positions (§III-C methodology).
    let n_states = sfa.num_states() as usize;
    let samples: Vec<Vec<u8>> = (0..10)
        .map(|i| {
            let s = (i * n_states.max(1) / 10) as u32;
            let mapping = sfa.mapping_of(s.min(sfa.num_states().saturating_sub(1)));
            // Serialize like the store does (little-endian u16 when they fit).
            if sfa.dfa_states() <= u16::MAX as usize + 1 {
                mapping
                    .iter()
                    .flat_map(|&v| (v as u16).to_le_bytes())
                    .collect()
            } else {
                mapping.iter().flat_map(|&v| v.to_le_bytes()).collect()
            }
        })
        .collect();

    let rows = sfa_compress::survey::run_survey(&samples);
    println!(
        "{:<10} {:>12} {:>12} {:>8} {:>12} {:>12}",
        "codec", "input B", "output B", "ratio", "comp MiB/s", "dec MiB/s"
    );
    for r in rows {
        println!(
            "{:<10} {:>12} {:>12} {:>7.1}x {:>12.1} {:>12.1}",
            r.codec,
            r.input_bytes,
            r.compressed_bytes,
            r.ratio(),
            r.compress_mib_s(),
            r.decompress_mib_s()
        );
    }
    Ok(())
}

/// `sfa verify` — cross-check parallel vs sequential construction.
pub fn verify(parsed: &Parsed) -> Result<(), String> {
    let dfa = dfa_from_args(parsed)?;
    let seq = Sfa::builder(&dfa)
        .sequential(SequentialVariant::Transposed)
        .build()
        .map_err(|e| e.to_string())?;
    seq.sfa.validate(&dfa)?;
    let opts = parallel_options(parsed)?;
    let par = Sfa::builder(&dfa)
        .options(&opts)
        .build()
        .map_err(|e| e.to_string())?;
    par.sfa.validate(&dfa)?;
    if seq.sfa.num_states() != par.sfa.num_states() {
        return Err(format!(
            "state count mismatch: sequential {} vs parallel {}",
            seq.sfa.num_states(),
            par.sfa.num_states()
        ));
    }
    println!(
        "ok: {} SFA states from {} DFA states; sequential {:.3}s, parallel {:.3}s ({} threads)",
        seq.sfa.num_states(),
        dfa.num_states(),
        seq.stats.total_secs,
        par.stats.total_secs,
        par.stats.threads,
    );
    Ok(())
}

/// `sfa dot` — Graphviz export of the pattern's DFA.
pub fn dot(parsed: &Parsed) -> Result<(), String> {
    let dfa = dfa_from_args(parsed)?;
    let opts = sfa_automata::dot::DotOptions {
        name: parsed.opt("name").unwrap_or("dfa").to_string(),
        ..Default::default()
    };
    print!("{}", sfa_automata::dot::dfa_to_dot(&dfa, &opts));
    Ok(())
}

/// `sfa workloads` — list the embedded PROSITE sample.
pub fn workloads(parsed: &Parsed) -> Result<(), String> {
    let budget = parsed.num("budget", 200_000usize)?;
    println!("{:<10} {:>10}  pattern", "id", "DFA");
    for p in sfa_workloads::embedded_patterns() {
        let size = sfa_automata::pipeline::Pipeline::search(Alphabet::amino_acids())
            .dfa_budget(budget)
            .compile_prosite(p.pattern)
            .map(|d| d.num_states().to_string())
            .unwrap_or_else(|_| format!(">{budget}"));
        println!("{:<10} {:>10}  {}", p.id, size, p.pattern);
    }
    Ok(())
}
