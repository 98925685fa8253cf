//! Workload generation for the SFA evaluation.
//!
//! The paper evaluates on 1250 patterns from the PROSITE protein-sequence
//! database plus the synthetic `r500` pattern (§IV). The PROSITE database
//! itself is not redistributed here; instead this crate provides
//!
//! * [`prosite`] — a curated set of well-known PROSITE-syntax motifs
//!   (N-glycosylation, P-loop, zinc finger, EF-hand, …) embedded as text,
//! * [`synth`] — a seeded generator for arbitrarily many *synthetic*
//!   PROSITE-syntax patterns with the same structural mix (residue
//!   classes, negations, bounded `x` gaps), plus the `rN` exact-string
//!   family (`r500` is the paper's benchmark),
//! * [`text`] — seeded protein-like text with natural amino-acid
//!   frequencies and optional planted motif occurrences (for matching
//!   experiments),
//! * [`fasta`] — FASTA parsing so real protein files can feed the
//!   matchers,
//! * [`scratch`] — unique, self-removing scratch directories for tests.
//!
//! The construction algorithms only ever see the *DFA* compiled from a
//! pattern, so synthetic patterns over the same syntax exercise identical
//! code paths; DESIGN.md documents this substitution.

pub mod fasta;
pub mod prosite;
pub mod scratch;
pub mod synth;
pub mod text;

pub use prosite::{embedded_patterns, EmbeddedPattern};
pub use scratch::ScratchDir;
pub use synth::{r500, rn, synthetic_prosite_patterns, SynthConfig};
pub use text::{protein_text, protein_text_with_motif};

use sfa_automata::dfa::Dfa;
use sfa_automata::pipeline::Pipeline;
use sfa_automata::Alphabet;

/// A named workload: a pattern and its compiled minimal search DFA.
pub struct Workload {
    /// Identifier ("PS00001", "synth-0042", "r500", …).
    pub name: String,
    /// Pattern text (PROSITE syntax), or a description for rN workloads.
    pub pattern: String,
    /// Compiled minimal DFA (Σ*·motif·Σ* for PROSITE patterns).
    pub dfa: Dfa,
}

/// Compile every embedded PROSITE pattern (skipping any that exceed the
/// optional DFA budget) into workloads.
pub fn prosite_workloads(dfa_budget: Option<usize>) -> Vec<Workload> {
    let mut pipeline = Pipeline::search(Alphabet::amino_acids());
    if let Some(b) = dfa_budget {
        pipeline = pipeline.dfa_budget(b);
    }
    embedded_patterns()
        .iter()
        .filter_map(|p| {
            pipeline
                .compile_prosite(p.pattern)
                .ok()
                .map(|dfa| Workload {
                    name: p.id.to_string(),
                    pattern: p.pattern.to_string(),
                    dfa,
                })
        })
        .collect()
}

/// Compile `count` synthetic PROSITE patterns (seeded) into workloads.
pub fn synthetic_workloads(count: usize, seed: u64, dfa_budget: Option<usize>) -> Vec<Workload> {
    let mut pipeline = Pipeline::search(Alphabet::amino_acids());
    if let Some(b) = dfa_budget {
        pipeline = pipeline.dfa_budget(b);
    }
    synthetic_prosite_patterns(count, seed, &SynthConfig::default())
        .into_iter()
        .enumerate()
        .filter_map(|(i, pattern)| {
            pipeline.compile_prosite(&pattern).ok().map(|dfa| Workload {
                name: format!("synth-{i:04}"),
                pattern,
                dfa,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prosite_workloads_compile() {
        let w = prosite_workloads(Some(20_000));
        assert!(
            w.len() >= 20,
            "expected at least 20 embedded patterns, got {}",
            w.len()
        );
        for wl in &w {
            assert!(wl.dfa.num_states() >= 2, "{} is degenerate", wl.name);
            assert_eq!(wl.dfa.num_symbols(), 20);
        }
    }

    #[test]
    fn synthetic_workloads_compile_and_are_seeded() {
        let a = synthetic_workloads(20, 7, Some(20_000));
        let b = synthetic_workloads(20, 7, Some(20_000));
        assert_eq!(a.len(), b.len());
        assert!(a.len() >= 15, "most synthetic patterns must compile");
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.pattern, y.pattern);
            assert!(x.dfa.isomorphic(&y.dfa));
        }
    }

    #[test]
    fn workload_sizes_vary() {
        let w = prosite_workloads(Some(20_000));
        let sizes: std::collections::BTreeSet<u32> =
            w.iter().map(|wl| wl.dfa.num_states()).collect();
        assert!(sizes.len() > 10, "size diversity expected, got {sizes:?}");
    }
}
