//! Construction statistics.
//!
//! Everything the paper reports about a construction run: state counts,
//! comparison behaviour (fingerprint short-circuits vs exhaustive
//! compares — the §III-A argument), per-phase times (Table II's "with
//! compression" columns), memory, and queue-contention snapshots (the E4
//! HITM proxy).

use crate::sfa::Sfa;
use sfa_sync::counters::ContentionSnapshot;

/// Counters one construction run accumulates (workers keep thread-local
/// copies and merge at the end, so the hot path never touches shared
/// atomics for statistics).
/// `#[non_exhaustive]`: construct through [`ConstructionStats::with_threads`]
/// (or `Default`) so future counters can be added without breaking
/// downstream crates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[non_exhaustive]
pub struct ConstructionStats {
    /// SFA states in the result.
    pub states: u64,
    /// Candidate states generated (`|Qₛ| × |Σ|`).
    pub candidates: u64,
    /// Candidates that turned out to be duplicates of existing states.
    pub duplicates: u64,
    /// Pairs whose fingerprints matched and required the exhaustive,
    /// byte-by-byte comparison.
    pub exhaustive_compares: u64,
    /// Exhaustive comparisons that found the states *different* — true
    /// fingerprint collisions.
    pub fingerprint_collisions: u64,
    /// Worker threads used (1 for the sequential variants).
    pub threads: usize,
    /// Wall time of the whole construction in seconds.
    pub total_secs: f64,
    /// Wall time spent before the compression phase started.
    pub phase1_secs: f64,
    /// Wall time of the stop-the-world compression phase (0 when it never
    /// ran).
    pub compression_secs: f64,
    /// Wall time after compression resumed (0 when it never ran).
    pub phase3_secs: f64,
    /// Whether the compression phase ran.
    pub compressed: bool,
    /// Raw bytes all state vectors would occupy uncompressed.
    pub uncompressed_bytes: u64,
    /// Bytes the retained mapping store actually occupies.
    pub stored_bytes: u64,
    /// Peak bytes of state payloads held at any moment during
    /// construction (the probabilistic mode's headline saving).
    pub peak_bytes: u64,
    /// Payload bytes still charged to the memory manager when the build
    /// finished — for a build without compression or spill this equals
    /// [`stored_bytes`](Self::stored_bytes); a gap means accounting
    /// drifted (e.g. uncredited race losers).
    pub resident_bytes: u64,
    /// Total payload bytes written to the parallel engine's spill tier
    /// (`crate::store`) over the whole build (0 when no spill directory
    /// was configured or the cap was never exceeded).
    pub spilled_bytes: u64,
    /// State payloads demoted in the parallel engine's tier ladder: one
    /// demotion per payload moved down one tier (hot → compressed by the
    /// compression phase, compressed → disk by a spill pass). Payloads
    /// stored compressed from the start never move, and the sequential
    /// engine, which has no tiers, reports 0.
    pub demotions: u64,
    /// Spilled payloads promoted back on access.
    pub promotions: u64,
    /// Merged queue/table contention counters.
    pub contention: ContentionSnapshot,
}

impl ConstructionStats {
    /// Fresh counters for a run on `threads` workers (every other field
    /// zeroed) — the constructor the engines use, and the only way for
    /// downstream code to build a value of this `#[non_exhaustive]`
    /// struct.
    pub fn with_threads(threads: usize) -> Self {
        ConstructionStats {
            threads,
            ..Default::default()
        }
    }

    /// Compression ratio achieved by the retained store.
    ///
    /// `1.0` when nothing was measured (both byte counts zero — e.g. a
    /// fresh/default stats value). When the retained store is empty but
    /// the uncompressed size is not (every mapping compressed away), the
    /// ratio is genuinely unbounded and this returns [`f64::INFINITY`]
    /// rather than silently claiming "no compression". Callers that
    /// serialize the value should treat non-finite ratios as "degenerate"
    /// (the JSON layer renders them as `null`).
    pub fn compression_ratio(&self) -> f64 {
        match (self.uncompressed_bytes, self.stored_bytes) {
            (0, 0) => 1.0,
            (_, 0) => f64::INFINITY,
            (u, s) => u as f64 / s as f64,
        }
    }

    /// Fraction of candidate states that were duplicates.
    pub fn duplicate_rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.duplicates as f64 / self.candidates as f64
        }
    }

    /// Fraction of exhaustive comparisons that were *wasted* — i.e. run on
    /// states that turned out different (true fingerprint collisions).
    /// A duplicate candidate always costs exactly one exhaustive compare
    /// (to confirm equality); the fingerprint's job is to make this ratio
    /// ≈ 0 by filtering every *non*-matching chain neighbour (§III-A).
    pub fn wasted_compare_rate(&self) -> f64 {
        if self.exhaustive_compares == 0 {
            0.0
        } else {
            self.fingerprint_collisions as f64 / self.exhaustive_compares as f64
        }
    }
}

/// A constructed SFA together with its statistics.
#[derive(Debug)]
pub struct ConstructionResult {
    /// The automaton.
    pub sfa: Sfa,
    /// Run statistics.
    pub stats: ConstructionStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let stats = ConstructionStats {
            states: 10,
            candidates: 200,
            duplicates: 190,
            exhaustive_compares: 50,
            fingerprint_collisions: 2,
            uncompressed_bytes: 1000,
            stored_bytes: 50,
            ..Default::default()
        };
        assert!((stats.compression_ratio() - 20.0).abs() < 1e-12);
        assert!((stats.duplicate_rate() - 0.95).abs() < 1e-12);
        assert!((stats.wasted_compare_rate() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn zero_division_guards() {
        let stats = ConstructionStats::default();
        assert_eq!(stats.compression_ratio(), 1.0);
        assert_eq!(stats.duplicate_rate(), 0.0);
        assert_eq!(stats.wasted_compare_rate(), 0.0);
    }

    /// Regression: an empty retained store with a non-zero uncompressed
    /// size used to report `1.0` ("no compression") — the degenerate
    /// all-compressed-away case must be distinguishable from the
    /// nothing-measured case.
    #[test]
    fn compression_ratio_zero_field_combinations() {
        // Nothing measured at all: neutral 1.0.
        let nothing = ConstructionStats::default();
        assert_eq!(nothing.compression_ratio(), 1.0);

        // Empty retained store, non-empty uncompressed size: unbounded.
        let all_compressed = ConstructionStats {
            uncompressed_bytes: 4096,
            stored_bytes: 0,
            ..Default::default()
        };
        assert!(all_compressed.compression_ratio().is_infinite());
        assert!(all_compressed.compression_ratio() > 0.0);

        // Stored but nothing uncompressed (inflation-only corner): 0.0,
        // not a division panic.
        let inflated = ConstructionStats {
            uncompressed_bytes: 0,
            stored_bytes: 128,
            ..Default::default()
        };
        assert_eq!(inflated.compression_ratio(), 0.0);
    }
}
