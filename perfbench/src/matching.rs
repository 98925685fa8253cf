//! `match`: 64 MiB of seeded protein text through `MatchEngine::run`,
//! on real PROSITE motifs either side of the SFA-feasibility line.
//!
//! PS00001's SFA fits the 4096-state budget, so `TierPolicy::Auto`
//! answers on the full SFA tier. PS00029 and PS00402 are over budget:
//! under `Auto` the lazy tier answers, and the same engines also run
//! under `TierPolicy::Speculative` (pruned mode on PS00029,
//! predict/verify on PS00402). Construction is set-up only.

use crate::report::{ratio, Layers, Report, Tally};
use crate::stats::Samples;
use crate::trace::{fresh_op, Tracer};
use crate::{Config, Phase, THREADS};
use sfa_automata::{Alphabet, Dfa, Pipeline};
use sfa_core::budget::Governor;
use sfa_core::prelude::*;
use sfa_sync::pool::TaskPool;
use std::sync::Arc;
use std::time::Instant;

/// Motifs, in engine order: the full-tier one first, then the two
/// over-budget ones.
const MOTIFS: [&str; 3] = ["PS00001", "PS00029", "PS00402"];

/// SFA state budget of every engine.
const STATE_BUDGET: usize = 4096;

/// Input bytes per request.
fn text_len(cfg: &Config) -> usize {
    if cfg.smoke {
        1 << 20
    } else {
        64 << 20
    }
}

/// Seeded protein text as symbols and as the bytes a caller sends.
fn protein(len: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let alpha = Alphabet::amino_acids();
    let symbols = sfa_workloads::protein_text(len, seed);
    let bytes = symbols.iter().map(|&s| alpha.decode(s)).collect();
    (symbols, bytes)
}

/// Everything set-up produces besides the DFAs.
struct Prepared<'d> {
    engines: Vec<MatchEngine<'d>>,
    /// `match_sequential` verdict per motif on the workload text.
    oracle: Vec<bool>,
}

fn compile(tracer: &Tracer, op: u64) -> Result<Vec<Dfa>, String> {
    tracer.span("automata.compile", op, || {
        let pipeline = Pipeline::search(Alphabet::amino_acids());
        MOTIFS
            .iter()
            .map(|id| {
                let p = sfa_workloads::embedded_patterns()
                    .iter()
                    .find(|p| p.id == *id)
                    .ok_or_else(|| format!("{id} is not an embedded PROSITE pattern"))?;
                pipeline
                    .compile_prosite(p.pattern)
                    .map_err(|e| format!("compile {id}: {e}"))
            })
            .collect()
    })
}

/// Engines, oracle verdicts and warm-up (lazy-tier fill, predictor
/// training), checking the warm-up verdicts.
#[allow(clippy::too_many_arguments)]
fn prepare<'d>(
    dfas: &'d [Dfa],
    pool: &Arc<TaskPool>,
    symbols: &[u8],
    request: &mut MatchRequest,
    tracer: &Tracer,
    op: u64,
    tally: &mut Tally,
    layers: &mut Layers,
) -> Result<Prepared<'d>, String> {
    let opts = ParallelOptions::with_threads(THREADS).state_budget(STATE_BUDGET);
    let engines: Vec<MatchEngine<'d>> = dfas
        .iter()
        .map(|dfa| {
            tracer.span("engine.build", op, || {
                let mut engine = MatchEngine::with_budget(dfa, &opts, &Budget::unlimited(), None);
                engine.set_runtime(MatchRuntime::with_pool(Arc::clone(pool)));
                engine
            })
        })
        .collect();
    let oracle: Vec<bool> = dfas
        .iter()
        .map(|dfa| {
            let t = Instant::now();
            let verdict = tracer.span("matcher.sequential", op, || match_sequential(dfa, symbols));
            if tracer.available() {
                layers.push(
                    "match.sequential_mb_s",
                    symbols.len() as f64 / t.elapsed().as_secs_f64() / 1e6,
                );
            }
            verdict
        })
        .collect();
    let mut prepared = Prepared { engines, oracle };
    tracer.span("bench.warmup", op, || {
        for i in 0..MOTIFS.len() {
            run_checked(&mut prepared, i, TierPolicy::Auto, request, tally);
            if i > 0 {
                run_checked(&mut prepared, i, TierPolicy::Speculative, request, tally);
            }
        }
    });
    Ok(prepared)
}

/// The workload request on engine `i` under `tier`, its verdict checked
/// against the oracle. One request serves every tier, so the 64 MiB
/// input exists once.
fn run_checked(
    p: &mut Prepared<'_>,
    i: usize,
    tier: TierPolicy,
    request: &mut MatchRequest,
    tally: &mut Tally,
) -> Option<MatchOutcome> {
    request.tier = tier;
    let outcome = tally.record(
        p.engines[i]
            .run(request)
            .map_err(|e| format!("{}: {e}", MOTIFS[i])),
    )?;
    tally.check(outcome.verdict == p.oracle[i], || {
        format!(
            "{} {tier:?}: verdict {} but match_sequential says {}",
            MOTIFS[i], outcome.verdict, p.oracle[i]
        )
    });
    Some(outcome)
}

/// Run the `match` workload.
pub fn run(cfg: &Config, tracer: &Tracer) -> Result<Report, String> {
    let len = text_len(cfg);
    let (symbols, bytes) = protein(len, cfg.seed);
    let mut request = MatchRequest::bytes(bytes);
    let pool = Arc::new(TaskPool::new(THREADS));
    let mut tally = Tally::default();
    let mut layers = Layers::default();
    let mut setup_s = Samples::new("setup_s", "s");
    let op = fresh_op();
    let t = Instant::now();
    let span = tracer.enter("bench.setup", op);
    let dfas = compile(tracer, op)?;
    let prepared = prepare(
        &dfas,
        &pool,
        &symbols,
        &mut request,
        tracer,
        op,
        &mut tally,
        &mut layers,
    )?;
    drop(span);
    setup_s.push(t.elapsed().as_secs_f64());
    measure(
        cfg, tracer, &dfas, prepared, &symbols, request, setup_s, tally, layers,
    )
}

#[allow(clippy::too_many_arguments)]
fn measure(
    cfg: &Config,
    tracer: &Tracer,
    dfas: &[Dfa],
    mut p: Prepared<'_>,
    symbols: &[u8],
    mut request: MatchRequest,
    mut setup_s: Samples,
    mut tally: Tally,
    mut layers: Layers,
) -> Result<Report, String> {
    let mut report = Report::new();
    let mb = symbols.len() as f64 / 1e6;
    report.input("text_bytes", symbols.len() as f64);
    for (id, dfa) in MOTIFS.iter().zip(dfas) {
        report.input(&format!("{id}_dfa_states"), dfa.num_states() as f64);
    }
    if p.engines[0].tier() != MatchTier::FullSfa {
        return Err(format!("{} did not land on the full SFA tier", MOTIFS[0]));
    }

    // The traced run's extra layer calls: the PS00001 SFA and its scan
    // tables, for the full tier on pre-classified symbols.
    let traced_extras = if tracer.available() {
        let op = fresh_op();
        let sfa = tracer
            .span("construct.build", op, || {
                Sfa::builder(&dfas[0]).threads(THREADS).build()
            })
            .map_err(|e| format!("build {}: {e}", MOTIFS[0]))?
            .sfa;
        let scan = tracer.span("scan.table_build", op, || {
            Arc::new(ScanEngine::new(&sfa, &dfas[0]))
        });
        Some((sfa, scan))
    } else {
        None
    };
    layers.span_metric("automata.compile_s", "automata.compile");
    layers.span_metric("scan.table_build_s", "scan.table_build");
    layers.span_metric("runtime.classify_s", "runtime.classify");
    layers.span_metric("scan.symbols_s", "scan.symbols");

    let mut full_s = Samples::new("full_s", "s");
    let mut degraded_s = Samples::new("degraded_s", "s");
    let mut spec_s = Samples::new("spec_s", "s");
    let mut full_mb_s = Samples::new("full_mb_s", "MB/s");
    let mut degraded_mb_s = Samples::new("degraded_mb_s", "MB/s");
    let mut spec_mb_s = Samples::new("spec_mb_s", "MB/s");
    let mut peak_rss = Samples::new("peak_rss_mib", "MiB");
    let mut round_s = Samples::new("round_s", "s");
    let mut traced_round_s = Vec::new();
    let runtime = MatchRuntime::with_pool(Arc::clone(p.engines[0].runtime().pool()));

    cfg.for_rounds(tracer, "match.round", |op, phase| {
        crate::sys::reset_peak_rss()?;
        let mut timed = |i: usize, tier: TierPolicy| {
            let t = Instant::now();
            let outcome = tracer.span("engine.run", op, || {
                run_checked(&mut p, i, tier, &mut request, &mut tally)
            });
            (t.elapsed().as_secs_f64(), outcome)
        };
        let (full, full_outcome) = timed(0, TierPolicy::Auto);
        let (d1, _) = timed(1, TierPolicy::Auto);
        let (d2, _) = timed(2, TierPolicy::Auto);
        let (s1, spec1) = timed(1, TierPolicy::Speculative);
        let (s2, spec2) = timed(2, TierPolicy::Speculative);
        let rss = crate::sys::peak_rss_mib()?;
        match phase {
            Phase::Warmup => {}
            Phase::Timed => {
                full_s.push(full);
                degraded_s.push(d1 + d2);
                spec_s.push(s1 + s2);
                full_mb_s.push(mb / full);
                degraded_mb_s.push(2.0 * mb / (d1 + d2));
                spec_mb_s.push(2.0 * mb / (s1 + s2));
                peak_rss.push(rss);
                round_s.push(full + d1 + d2 + s1 + s2);
            }
            Phase::Traced => {
                traced_round_s.push(full + d1 + d2 + s1 + s2);
                if let Some(o) = full_outcome {
                    layers.push("match.blocks", o.stats.blocks as f64);
                    layers.push("match.chunks", o.stats.chunks as f64);
                }
                let specs: Vec<_> = [spec1, spec2].into_iter().flatten().collect();
                let sum = |f: fn(&MatchStats) -> u64| {
                    specs.iter().map(|o| f(&o.stats) as f64).sum::<f64>()
                };
                layers.push("spec.chunks", sum(|s| s.chunks));
                layers.push("spec.mispredicts", sum(|s| s.mispredicts));
                layers.push("spec.reruns", sum(|s| s.reruns));
                layers.push("spec.state_visits", sum(|s| s.state_visits));
                layers.push(
                    "spec.rerun_ratio",
                    ratio(sum(|s| s.reruns), sum(|s| s.chunks)),
                );
                if let Some((sfa, scan)) = &traced_extras {
                    let InputSource::Bytes(text) = &request.input else {
                        unreachable!("the workload sends a byte request")
                    };
                    traced_layer_calls(
                        &dfas[0],
                        sfa,
                        scan,
                        &runtime,
                        text,
                        symbols,
                        p.oracle[0],
                        tracer,
                        op,
                        &mut tally,
                    );
                }
            }
        }
        Ok(())
    })?;

    if tracer.available() {
        layers.overhead(&round_s, &traced_round_s);
        let mut totals = EngineStats::default();
        for e in &p.engines {
            let s = e.stats();
            totals.full_matches += s.full_matches;
            totals.lazy_matches += s.lazy_matches;
            totals.pruned_matches += s.pruned_matches;
            totals.speculative_matches += s.speculative_matches;
            totals.sequential_matches += s.sequential_matches;
            totals.degradations += s.degradations;
        }
        layers.push("engine.full_matches", totals.full_matches as f64);
        layers.push("engine.lazy_matches", totals.lazy_matches as f64);
        layers.push("engine.pruned_matches", totals.pruned_matches as f64);
        layers.push(
            "engine.speculative_matches",
            totals.speculative_matches as f64,
        );
        layers.push(
            "engine.sequential_matches",
            totals.sequential_matches as f64,
        );
        layers.push("engine.degradations", totals.degradations as f64);
        if let Some(c) = &p.engines[0].stats().construction {
            layers.push("construct.engine_s", c.total_secs);
            layers.push("construct.phase1_s", c.phase1_secs);
            layers.construction(c);
        }
    }

    // Verdicts beyond the workload text: for each motif, text with the
    // residues its first position needs removed, so at least one
    // engine must answer "no match".
    probe_negatives(cfg, dfas, &mut p, &mut tally);

    // Set up once more, after the measured engines are gone, so set-up
    // is sampled at both ends of the run (untraced runs only).
    let pool = Arc::clone(p.engines[0].runtime().pool());
    drop(p);
    for _ in 1..cfg.setup_reps(2) {
        if tracer.available() {
            break;
        }
        let t = Instant::now();
        let dfas = compile(tracer, 0)?;
        prepare(
            &dfas,
            &pool,
            symbols,
            &mut request,
            tracer,
            0,
            &mut tally,
            &mut layers,
        )?;
        setup_s.push(t.elapsed().as_secs_f64());
    }

    // op1: one full-tier request; op2: the two lazy-tier (Auto)
    // requests; op3: the two speculative requests.
    report.end_to_end([
        setup_s.median(),
        full_s.mean() * 1e3,
        degraded_s.mean() * 1e3,
        spec_s.mean() * 1e3,
        peak_rss.median(),
    ]);
    for s in [
        setup_s,
        full_s,
        degraded_s,
        spec_s,
        full_mb_s,
        degraded_mb_s,
        spec_mb_s,
        round_s,
        peak_rss,
    ] {
        report.timing(s);
    }
    report.finish(tally, layers, tracer)
}

/// The traced run's direct layer calls on the workload text: one
/// `ByteClassifier` pass, and the full tier on pre-classified symbols
/// through `MatchRuntime::matches_symbols`.
#[allow(clippy::too_many_arguments)]
fn traced_layer_calls(
    dfa: &Dfa,
    sfa: &Sfa,
    scan: &Arc<ScanEngine>,
    runtime: &MatchRuntime,
    text: &[u8],
    symbols: &[u8],
    expected: bool,
    tracer: &Tracer,
    op: u64,
    tally: &mut Tally,
) {
    let classifier = ByteClassifier::strict(dfa.alphabet());
    let classified = tracer.span("runtime.classify", op, || {
        text.iter()
            .map(|&b| match classifier.classify(b) {
                Classified::Symbol(s) => Ok(s),
                _ => Err(format!("byte {b:#04x} is outside the alphabet")),
            })
            .collect::<Result<Vec<u8>, String>>()
    });
    if let Some(classified) = tally.record(classified) {
        tally.check(classified == symbols, || {
            "ByteClassifier disagrees with the generator".into()
        });
    }
    let matcher = ParallelMatcher::with_scan(sfa, dfa, Arc::clone(scan));
    let governor = Governor::unlimited();
    let verdict = tracer.span("scan.symbols", op, || {
        runtime.matches_symbols(&matcher, symbols, &governor)
    });
    if let Some((verdict, _)) = tally.record(verdict.map_err(|e| format!("matches_symbols: {e}"))) {
        tally.check(verdict == expected, || {
            "matches_symbols disagrees with match_sequential".into()
        });
    }
}

/// Run every engine, under both tier policies, on texts where one motif
/// cannot occur; check every verdict against `match_sequential`.
fn probe_negatives(cfg: &Config, dfas: &[Dfa], p: &mut Prepared<'_>, tally: &mut Tally) {
    // Residues each motif's first position needs, and a replacement.
    const REMOVE: [(&[u8], u8); 3] = [(b"N", b'Q'), (b"L", b'I'), (b"GA", b'S')];
    let alpha = Alphabet::amino_acids();
    let (_, base) = protein(1 << 20, cfg.seed ^ 0x5EED);
    let mut saw_negative = false;
    for (remove, with) in REMOVE {
        let text: Vec<u8> = base
            .iter()
            .map(|b| if remove.contains(b) { with } else { *b })
            .collect();
        let symbols = alpha
            .encode_bytes(&text)
            .expect("protein text is in the alphabet");
        for (i, dfa) in dfas.iter().enumerate() {
            let expected = match_sequential(dfa, &symbols);
            saw_negative |= !expected;
            let policies: &[TierPolicy] = if i == 0 {
                &[TierPolicy::Auto]
            } else {
                &[TierPolicy::Auto, TierPolicy::Speculative]
            };
            for &tier in policies {
                let request = MatchRequest::bytes(text.clone()).with_tier(tier);
                let outcome = tally.record(
                    p.engines[i]
                        .run(&request)
                        .map_err(|e| format!("{} probe: {e}", MOTIFS[i])),
                );
                if let Some(o) = outcome {
                    tally.check(o.verdict == expected, || {
                        format!(
                            "{} {tier:?} probe: verdict {} but match_sequential says {expected}",
                            MOTIFS[i], o.verdict
                        )
                    });
                }
            }
        }
    }
    tally.check(saw_negative, || {
        "no probe text produced a negative verdict".into()
    });
}
