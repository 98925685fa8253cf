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
/// gauges sampled here.
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
        outln!(
            "{}",
            sfa_json::to_string_pretty(&Value::Object(vec![(
                "samples".to_string(),
                Value::Array(rows)
            )]))
        );
        return Ok(());
    }
    if samples.is_empty() {
        outln!("(no samples)");
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
        outln!("{:<56} {}", format!("{}{labels}", s.name), s.value);
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
    crate::write_stdout(format_args!("{}", grail::write_dfa(&dfa)));
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
        outln!("DFA states           {}", self.dfa_states);
        outln!("SFA states           {}", self.sfa_states);
        outln!("threads              {}", self.threads);
        outln!("total time           {:.3} s", self.total_secs);
        if self.compressed {
            outln!("  phase 1 (raw)      {:.3} s", self.phase1_secs);
            outln!("  compression        {:.3} s", self.compression_secs);
            outln!("  phase 3 (compr.)   {:.3} s", self.phase3_secs);
            outln!("compression ratio    {:.1}x", self.compression_ratio);
        }
        outln!(
            "state memory         {} -> {} bytes",
            self.uncompressed_bytes,
            self.stored_bytes
        );
        if self.spilled_bytes > 0 {
            // Degraded mode: the build ran under memory pressure and
            // reached the disk tier. Say how much left RAM and how
            // often states came back.
            outln!(
                "spill tier           {} bytes on disk, {} resident",
                self.spilled_bytes,
                self.resident_bytes
            );
            outln!(
                "  demotions          {} ({} promotions back)",
                self.demotions,
                self.promotions
            );
        }
        outln!(
            "candidates           {} ({} duplicates)",
            self.candidates,
            self.duplicates
        );
        outln!(
            "exhaustive compares  {} ({} fingerprint collisions)",
            self.exhaustive_compares,
            self.fingerprint_collisions
        );
        outln!(
            "contention           {} CAS failures, {}/{} steals",
            self.cas_failures,
            self.steal_successes,
            self.steal_attempts
        );
    }
}

/// Structured report for a build the budget governor aborted.
fn budget_error_json(err: &SfaError) -> sfa_json::Value {
    use sfa_json::{ToJson, Value};
    let mut fields: Vec<(String, Value)> = vec![("error".to_string(), err.to_string().to_json())];
    let progress = match err {
        SfaError::StateBudgetExceeded { budget } => {
            // The store holds `budget` states when the next one overflows it.
            fields.push(("resource".to_string(), "state count".to_json()));
            fields.push(("states".to_string(), (*budget as u64).to_json()));
            None
        }
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
    // `--budget` reaches both engines. `--checkpoint`/`--resume` and
    // `--spill-dir` run on the parallel engine, and the builder refuses
    // them with `--seq`: `--threads 1` builds the same bytes.
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
    // `--spill-dir` enables the parallel engine's spill tier: a build
    // that `--max-bytes` would abort instead demotes cold states —
    // compressed, then to disk — and finishes byte-identical.
    if let Some(dir) = parsed.opt("spill-dir") {
        builder = builder.spill(dir);
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
                outln!("{}", sfa_json::to_string_pretty(&budget_error_json(&err)));
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
        outln!("{}", sfa_json::to_string_pretty(&report));
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
    let parsed = Parsed::parse("artifact", &argv[1..])?;
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
                let mut fields: Vec<(String, sfa_json::Value)> = vec![
                    ("kind".to_string(), kind.to_json()),
                    ("version".to_string(), (info.version as u64).to_json()),
                    ("total_bytes".to_string(), info.total_bytes.to_json()),
                    (
                        "sections".to_string(),
                        (info.sections.len() as u64).to_json(),
                    ),
                ];
                if let Some(c) = info.checkpoint {
                    fields.push(("processed_rows".to_string(), c.processed.to_json()));
                    fields.push(("discovered_states".to_string(), c.states.to_json()));
                }
                outln!(
                    "{}",
                    sfa_json::to_string_pretty(&sfa_json::Value::Object(fields))
                );
            } else {
                outln!("kind                 {kind}");
                outln!("format version       {}", info.version);
                outln!("total bytes          {}", info.total_bytes);
                for s in &info.sections {
                    outln!("  section tag {:>3}    {} bytes", s.tag, s.len);
                }
                if let Some(c) = info.checkpoint {
                    outln!("processed rows       {}", c.processed);
                    outln!("discovered states    {}", c.states);
                }
                outln!("checksums            ok");
            }
            Ok(())
        }
        other => Err(format!("unknown artifact verb {other:?}; {USAGE}")),
    }
}

/// The symbols of an in-memory `sfa match` input: `--random`, `--text`,
/// `--text-file` (whitespace skipped) or `--fasta`.
fn text_from_args(parsed: &Parsed) -> Result<Vec<u8>, String> {
    let alpha = Alphabet::amino_acids();
    if let Some(len) = parsed.opt("random") {
        let len: usize = len.parse().map_err(|_| "--random expects a length")?;
        Ok(sfa_workloads::protein_text(len, 0xC0FFEE))
    } else if let Some(t) = parsed.opt("text") {
        alpha.encode_bytes(t.as_bytes()).map_err(|e| e.to_string())
    } else if let Some(path) = parsed.opt("text-file") {
        let raw = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
        let filtered: Vec<u8> = raw
            .into_iter()
            .filter(|b| !b.is_ascii_whitespace())
            .collect();
        alpha.encode_bytes(&filtered).map_err(|e| e.to_string())
    } else if let Some(path) = parsed.opt("fasta") {
        let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let records = sfa_workloads::fasta::parse_fasta(&raw).map_err(|e| e.to_string())?;
        eprintln!("# {} FASTA records", records.len());
        Ok(sfa_workloads::fasta::concat_sequences(&records))
    } else {
        Err("give one of --random, --text, --text-file, --fasta, --stream".into())
    }
}

/// `sfa match` — one [`MatchRequest`] through one [`MatchEngine`]. The
/// input is a symbol vector, or with `--stream` a file read block by
/// block (whitespace skipped; any other non-alphabet byte is an error).
/// `--tier` sets the request's tier policy, and `--tier
/// sequential|speculative` or `--lazy` start the engine below the full
/// tier. A request stopped by its own deadline is answered
/// sequentially; every other error exits 1.
pub fn do_match(parsed: &Parsed) -> Result<(), String> {
    let dfa = dfa_from_args(parsed)?;
    let tier = match parsed.opt("tier") {
        None => TierPolicy::Auto,
        Some(s) => TierPolicy::parse(s).ok_or_else(|| {
            format!("--tier expects auto|sequential|speculative|require_full, got {s:?}")
        })?,
    };
    let budget = crate::budget_from_args(parsed)?;
    let stream = parsed.opt("stream");
    let mut request = match stream {
        Some(path) => MatchRequest::file(path).with_classifier(ClassifierMode::SkipWhitespace),
        None => MatchRequest::symbols(text_from_args(parsed)?),
    }
    .with_tier(tier);
    request.deadline = budget.deadline;

    // The explicit raw-DFA tiers build no SFA; `--lazy` skips the batch
    // construction.
    let start = match tier {
        TierPolicy::Sequential => MatchTier::Sequential,
        TierPolicy::Speculative => MatchTier::Speculative,
        _ if parsed.flag("lazy") => MatchTier::LazySfa,
        _ => MatchTier::FullSfa,
    };
    let opts = parallel_options(parsed)?;
    let mut engine =
        MatchEngine::starting_at(&dfa, &opts, &budget, None, start).metrics(obs::global());
    // An invalid option is a usage error, not a reason to degrade.
    if let Some(err @ (SfaError::InvalidOptions(_) | SfaError::NoThreads)) =
        &engine.stats().last_error
    {
        return Err(err.to_string());
    }
    if parsed.opt("interleave").is_some() || parsed.opt("oversubscribe").is_some() {
        let defaults = ScanOptions::default();
        let scan = ScanOptions {
            interleave: parsed.num("interleave", defaults.interleave)?,
            oversubscribe: parsed.num("oversubscribe", defaults.oversubscribe)?,
            ..defaults
        };
        engine.set_scan_options(scan).map_err(|e| e.to_string())?;
    }
    let block_bytes = match parsed.opt("block-bytes") {
        Some(s) => crate::args::parse_bytes(s)?,
        None => sfa_core::runtime::DEFAULT_BLOCK_BYTES,
    };
    engine.set_runtime(MatchRuntime::new(opts.threads).with_block_bytes(block_bytes));

    let t0 = std::time::Instant::now();
    let outcome = match engine.run(&request) {
        Err(
            err @ (SfaError::BudgetExceeded {
                resource: BudgetResource::Deadline,
                ..
            }
            | SfaError::Cancelled { .. }),
        ) if tier != TierPolicy::RequireFull => {
            // The caller still asked for a verdict: answer on the
            // ungoverned oracle.
            eprintln!("# governed match aborted ({err}); answering sequentially");
            request.tier = TierPolicy::Sequential;
            request.deadline = None;
            engine.run(&request)
        }
        served => served,
    }
    .map_err(|e| e.to_string())?;
    let secs = t0.elapsed().as_secs_f64();
    let stats = &outcome.stats;

    if let InputSource::Symbols(text) = &request.input {
        let t1 = std::time::Instant::now();
        if outcome.verdict != match_sequential(&dfa, text) {
            return Err("engine and sequential matchers disagree (bug)".into());
        }
        let seq_secs = t1.elapsed().as_secs_f64();
        outln!("text length          {} residues", text.len());
        report_outcome(&engine, &outcome, secs);
        outln!("sequential match     {seq_secs:.4} s");
    } else {
        outln!("stream               {}", stream.unwrap_or_default());
        outln!(
            "streamed             {} bytes in {} blocks of {} ({} chunk scans)",
            stats.bytes,
            stats.blocks,
            block_bytes,
            stats.chunks
        );
        report_outcome(&engine, &outcome, secs);
        // Sub-resolution matches get a clamped-but-plausible rate from
        // `bytes_per_sec()`; flag them rather than printing it as measured.
        let untimed = if stats.untimed() { " [untimed]" } else { "" };
        outln!(
            "throughput           {:.1} MiB/s{untimed} (pool depth {})",
            stats.bytes_per_sec() / (1024.0 * 1024.0),
            stats.queue_depth
        );
    }
    write_metrics_snapshot(parsed)
}

/// The report lines every `sfa match` input shares: the verdict, the
/// tier that answered and why it was not the full one, what the engine
/// built, and the match time.
fn report_outcome(engine: &MatchEngine<'_>, outcome: &MatchOutcome, secs: f64) {
    let stats = &outcome.stats;
    outln!("match                {}", outcome.verdict);
    outln!("engine tier          {}", outcome.tier);
    if let Some(reason) = &outcome.degraded {
        outln!("degraded             {reason}");
    }
    if let Some(c) = &engine.stats().construction {
        outln!(
            "SFA construction     {:.4} s ({} states)",
            c.total_secs,
            c.states
        );
    }
    match outcome.tier {
        MatchTier::LazySfa => outln!(
            "lazy SFA             {} states discovered",
            engine.stats().lazy_states
        ),
        MatchTier::PrunedSfa | MatchTier::Speculative if stats.chunks > 1 => outln!(
            "speculation          {} chunks, {} mispredicts, {} re-runs",
            stats.chunks,
            stats.mispredicts,
            stats.reruns
        ),
        _ => {}
    }
    outln!(
        "match time           {secs:.4} s ({} threads)",
        engine.runtime().pool().threads()
    );
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
    let tenants = match parsed.opt("tenants") {
        Some(list) => crate::args::parse_tenants(list)?,
        None => Vec::new(),
    };
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
    outln!(
        "{:<10} {:>12} {:>12} {:>8} {:>12} {:>12}",
        "codec",
        "input B",
        "output B",
        "ratio",
        "comp MiB/s",
        "dec MiB/s"
    );
    for r in rows {
        outln!(
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
    outln!(
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
    crate::write_stdout(format_args!(
        "{}",
        sfa_automata::dot::dfa_to_dot(&dfa, &opts)
    ));
    Ok(())
}

/// `sfa workloads` — list the embedded PROSITE sample, with each
/// pattern's DFA size up to a cap of 200,000 states.
pub fn workloads(_: &Parsed) -> Result<(), String> {
    const DFA_BUDGET: usize = 200_000;
    outln!("{:<10} {:>10}  pattern", "id", "DFA");
    for p in sfa_workloads::embedded_patterns() {
        let size = sfa_automata::pipeline::Pipeline::search(Alphabet::amino_acids())
            .dfa_budget(DFA_BUDGET)
            .compile_prosite(p.pattern)
            .map(|d| d.num_states().to_string())
            .unwrap_or_else(|_| format!(">{DFA_BUDGET}"));
        outln!("{:<10} {:>10}  {}", p.id, size, p.pattern);
    }
    Ok(())
}
