//! `construct` and `construct-compressed`: SFA construction, then the
//! artifact round trip of the result.
//!
//! `construct` builds r500 (the paper's synthetic pattern) and then the
//! embedded PROSITE motifs whose SFA fits in 2^16 states.
//! `construct-compressed` builds r400 under the three-phase compression
//! scheme. Both save the built SFA with `artifact::sfa_to_bytes` and
//! load it back with `sfa_from_bytes`; no matching runs.

use crate::report::{Layers, Report, Tally};
use crate::stats::Samples;
use crate::trace::{fresh_op, Tracer};
use crate::{Config, Phase, THREADS};
use sfa_automata::{Alphabet, Dfa, Pipeline};
use sfa_core::artifact::{sfa_from_bytes, sfa_to_bytes};
use sfa_core::sfa::MappingStore;
use sfa_core::{CompressionPolicy, ConstructionResult, SequentialVariant, Sfa};
use std::time::Instant;

/// The embedded PROSITE motifs whose SFA has at most 2^16 states.
pub const PROSITE_FIT: [&str; 34] = [
    "PS00001", "PS00002", "PS00004", "PS00005", "PS00006", "PS00007", "PS00008", "PS00009",
    "PS00010", "PS00016", "PS00017", "PS00018", "PS00022", "PS00038", "PS00070", "PS00071",
    "PS00086", "PS00087", "PS00097", "PS00098", "PS00108", "PS00109", "PS00133", "PS00141",
    "PS00142", "PS00178", "PS00198", "PS00211", "PS00213", "PS00215", "PS00217", "PS00239",
    "PS00606", "PS00678",
];

/// SFA states of r500, r400 and the whole PROSITE set (the oracle).
const R500_STATES: u64 = 124_524;
const R400_STATES: u64 = 79_659;
const PROSITE_STATES: u64 = 310_490;

/// Payload watermark that trips the compression phase on r400.
const COMPRESS_ABOVE: usize = 8 << 20;

/// What one of the two construction workloads builds.
struct Plan {
    /// rN size of the headline pattern.
    n: usize,
    /// Headline SFA states; `None` takes the count from a sequential
    /// build (the reduced-size smoke runs).
    states: Option<u64>,
    /// PROSITE motifs built after the headline pattern.
    prosite: &'static [&'static str],
    /// Compression watermark (`None`: never compress).
    compress_above: Option<usize>,
    /// Timed set-ups after each untraced round (set-up is cheap here).
    setup_reps: usize,
    /// Artifact round trips per round.
    artifact_reps: usize,
}

impl Plan {
    fn new(cfg: &Config, compressed: bool) -> Plan {
        match (compressed, cfg.smoke) {
            (false, false) => Plan {
                n: 500,
                states: Some(R500_STATES),
                prosite: &PROSITE_FIT,
                compress_above: None,
                setup_reps: 2,
                artifact_reps: 1,
            },
            (true, false) => Plan {
                n: 400,
                states: Some(R400_STATES),
                prosite: &[],
                compress_above: Some(COMPRESS_ABOVE),
                setup_reps: 51,
                artifact_reps: 3,
            },
            (false, true) => Plan {
                n: 80,
                states: None,
                prosite: &PROSITE_FIT[..6],
                compress_above: None,
                setup_reps: 1,
                artifact_reps: 1,
            },
            (true, true) => Plan {
                n: 80,
                states: None,
                prosite: &[],
                compress_above: Some(64 << 10),
                setup_reps: 1,
                artifact_reps: 1,
            },
        }
    }

    fn build(&self, dfa: &Dfa) -> Result<ConstructionResult, String> {
        let builder = Sfa::builder(dfa).threads(THREADS);
        let builder = match self.compress_above {
            Some(bytes) => builder.compression(CompressionPolicy::WhenMemoryExceeds(bytes)),
            None => builder,
        };
        builder
            .build()
            .map_err(|e| format!("build r{}: {e}", self.n))
    }
}

/// The headline DFA and the PROSITE DFAs, by id.
type Compiled = (Dfa, Vec<(&'static str, Dfa)>);

/// Set-up: the headline DFA and the PROSITE DFAs.
fn setup(plan: &Plan, tracer: &Tracer, op: u64) -> Result<Compiled, String> {
    tracer.span("automata.compile", op, || {
        let dfa = sfa_workloads::rn(plan.n);
        let pipeline = Pipeline::search(Alphabet::amino_acids());
        let prosite = plan
            .prosite
            .iter()
            .map(|&id| {
                let pattern = sfa_workloads::embedded_patterns()
                    .iter()
                    .find(|p| p.id == id)
                    .ok_or_else(|| format!("{id} is not an embedded PROSITE pattern"))?;
                let dfa = pipeline
                    .compile_prosite(pattern.pattern)
                    .map_err(|e| format!("compile {id}: {e}"))?;
                Ok((id, dfa))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok((dfa, prosite))
    })
}

/// One timed set-up under a `bench.setup` span.
fn timed_setup(plan: &Plan, tracer: &Tracer, setup_s: &mut Samples) -> Result<Compiled, String> {
    let op = fresh_op();
    let t = Instant::now();
    let built = tracer.span("bench.setup", op, || setup(plan, tracer, op))?;
    setup_s.push(t.elapsed().as_secs_f64());
    Ok(built)
}

/// `a` and `b` have equal transitions and equal mapping stores.
fn same_sfa(a: &Sfa, b: &Sfa) -> bool {
    let shape = (a.num_states(), a.num_symbols(), a.dfa_states(), a.start());
    if shape != (b.num_states(), b.num_symbols(), b.dfa_states(), b.start()) {
        return false;
    }
    let steps_equal = (0..a.num_states())
        .all(|s| (0..a.num_symbols() as u8).all(|sym| a.step(s, sym) == b.step(s, sym)));
    let mappings_equal = match (a.mappings(), b.mappings()) {
        (MappingStore::U16(x), MappingStore::U16(y)) => x == y,
        (MappingStore::U32(x), MappingStore::U32(y)) => x == y,
        (
            MappingStore::Compressed {
                elem_bytes: ea,
                blobs: ba,
                codec: ca,
            },
            MappingStore::Compressed {
                elem_bytes: eb,
                blobs: bb,
                codec: cb,
            },
        ) => ea == eb && ca == cb && ba == bb,
        _ => false,
    };
    steps_equal && mappings_equal
}

/// Run `construct` (`compressed == false`) or `construct-compressed`.
pub fn run(cfg: &Config, compressed: bool, tracer: &Tracer) -> Result<Report, String> {
    let plan = Plan::new(cfg, compressed);
    let mut report = Report::new();
    let mut tally = Tally::default();
    let mut layers = Layers::default();

    // Set-up once up front (kept), then again after every untraced
    // round, so the median spans the whole run, not one moment of it.
    let mut setup_s = Samples::new("setup_s", "s");
    let (dfa, prosite) = timed_setup(&plan, tracer, &mut setup_s)?;
    layers.span_metric("automata.compile_s", "automata.compile");

    // The state-count oracle: the embedded constants at full size, an
    // independent sequential build in the reduced smoke runs.
    let expected = match plan.states {
        Some(states) => states,
        None => sequential_states(&dfa)?,
    };
    let expected_prosite = if cfg.smoke {
        prosite
            .iter()
            .map(|(_, d)| sequential_states(d))
            .sum::<Result<u64, String>>()?
    } else {
        PROSITE_STATES
    };
    report.input("dfa_states", dfa.num_states() as f64);
    report.input("sfa_states", expected as f64);
    if !prosite.is_empty() {
        report.input("prosite_motifs", prosite.len() as f64);
        report.input("prosite_sfa_states", expected_prosite as f64);
    }

    let mut build_s = Samples::new("build_s", "s");
    let mut save_s = Samples::new("save_s", "s");
    let mut load_s = Samples::new("load_s", "s");
    let mut artifact_s = Samples::new("save_load_s", "s");
    let mut prosite_s = Samples::new("prosite_build_s", "s");
    let mut peak_rss = Samples::new("peak_rss_mib", "MiB");
    let mut traced_build_s = Vec::new();

    cfg.for_rounds(tracer, "construct.round", |round_op, phase| {
        crate::sys::reset_peak_rss()?;
        let t = Instant::now();
        let built = tracer.span("construct.build", round_op, || plan.build(&dfa));
        let build_secs = t.elapsed().as_secs_f64();
        let rss = crate::sys::peak_rss_mib()?;
        let Some(built) = tally.record(built) else {
            return Ok(());
        };
        tally.check(built.stats.states == expected, || {
            format!(
                "r{} built {} states, expected {expected}",
                plan.n, built.stats.states
            )
        });

        // The artifact round trip, `artifact_reps` times: a compressed
        // SFA saves and loads far faster than it builds, so repeating the
        // round trip evens out its samples at little cost. The first
        // loaded copy must equal the built SFA and, on the warm-up round,
        // validates against the DFA (decompressed first when compressed).
        for rep in 0..plan.artifact_reps {
            let t = Instant::now();
            let bytes = tracer.span("artifact.save", round_op, || sfa_to_bytes(&built.sfa));
            let save_secs = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let loaded = tracer.span("artifact.load", round_op, || sfa_from_bytes(&bytes));
            let load_secs = t.elapsed().as_secs_f64();
            let Some(mut loaded) =
                tally.record(loaded.map_err(|e| format!("load r{}: {e}", plan.n)))
            else {
                continue;
            };
            if rep == 0 {
                let same = tracer.span("bench.verify", round_op, || same_sfa(&built.sfa, &loaded));
                tally.check(same, || {
                    format!("r{} artifact did not round-trip to an equal SFA", plan.n)
                });
                if phase == Phase::Warmup {
                    loaded.decompress();
                    tally.check_result(loaded.validate(&dfa), "validate against the DFA");
                }
            }
            match phase {
                Phase::Warmup => {}
                Phase::Timed => {
                    save_s.push(save_secs);
                    load_s.push(load_secs);
                    artifact_s.push(save_secs + load_secs);
                }
                Phase::Traced => {
                    layers.push("artifact.bytes", bytes.len() as f64);
                    layers.push("artifact.encode_mb_s", bytes.len() as f64 / save_secs / 1e6);
                    layers.push("artifact.decode_mb_s", bytes.len() as f64 / load_secs / 1e6);
                }
            }
        }

        let mut prosite_secs = None;
        if !prosite.is_empty() {
            let t = Instant::now();
            let results: Vec<_> = tracer.span("construct.prosite", round_op, || {
                prosite
                    .iter()
                    .map(|(id, d)| {
                        tracer.span("construct.prosite_build", round_op, || {
                            Sfa::builder(d)
                                .threads(THREADS)
                                .build()
                                .map_err(|e| format!("build {id}: {e}"))
                        })
                    })
                    .collect()
            });
            prosite_secs = Some(t.elapsed().as_secs_f64());
            let mut states = 0;
            for ((_, d), r) in prosite.iter().zip(results) {
                if let Some(r) = tally.record(r) {
                    states += r.stats.states;
                    if phase == Phase::Warmup {
                        tally.check_result(r.sfa.validate(d), "validate PROSITE SFA");
                    }
                }
            }
            tally.check(states == expected_prosite, || {
                format!("PROSITE set built {states} states, expected {expected_prosite}")
            });
        }

        if phase != Phase::Traced {
            for _ in 0..plan.setup_reps {
                timed_setup(&plan, tracer, &mut setup_s)?;
            }
        }
        if phase == Phase::Traced {
            traced_build_s.push(build_secs);
            let s = &built.stats;
            layers.push("construct.engine_s", s.total_secs);
            layers.push("construct.phase1_s", s.phase1_secs);
            layers.push("construct.harvest_s", build_secs - s.total_secs);
            layers.push("construct.compression_s", s.compression_secs);
            layers.push("construct.phase3_s", s.phase3_secs);
            layers.construction(s);
        } else if phase == Phase::Timed {
            build_s.push(build_secs);
            peak_rss.push(rss);
            if let Some(v) = prosite_secs {
                prosite_s.push(v);
            }
        }
        Ok(())
    })?;

    if tracer.available() {
        layers.overhead(&build_s, &traced_build_s);
        // The single-thread construction baseline.
        let t = Instant::now();
        let seq = tracer.span("construct.sequential_build", fresh_op(), || {
            Sfa::builder(&dfa)
                .sequential(SequentialVariant::Transposed)
                .build()
                .map_err(|e| format!("sequential build r{}: {e}", plan.n))
        });
        layers.push("construct.sequential_build_s", t.elapsed().as_secs_f64());
        if let Some(seq) = tally.record(seq) {
            tally.check(seq.stats.states == expected, || {
                format!("sequential r{} built {} states", plan.n, seq.stats.states)
            });
        }
    }

    // op1: the headline build. construct: op2 is the artifact round trip
    // (save + load), op3 the PROSITE set. construct-compressed, which
    // builds no PROSITE set: op2 is the save, op3 the load.
    let (op2, op3) = if compressed {
        (&save_s, &load_s)
    } else {
        (&artifact_s, &prosite_s)
    };
    report.end_to_end([
        setup_s.median(),
        build_s.mean() * 1e3,
        op2.mean() * 1e3,
        op3.mean() * 1e3,
        peak_rss.median(),
    ]);
    for s in [
        setup_s, build_s, save_s, load_s, artifact_s, prosite_s, peak_rss,
    ] {
        report.timing(s);
    }
    report.finish(tally, layers, tracer)
}

/// States of the SFA built by the sequential transposed engine — an
/// independent oracle for the parallel engine's state count.
fn sequential_states(dfa: &Dfa) -> Result<u64, String> {
    Sfa::builder(dfa)
        .sequential(SequentialVariant::Transposed)
        .build()
        .map(|r| r.stats.states)
        .map_err(|e| format!("sequential oracle build: {e}"))
}
