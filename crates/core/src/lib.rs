//! # sfa-core — parallel construction of simultaneous finite automata
//!
//! Rust implementation of *"Parallel Construction of Simultaneous
//! Deterministic Finite Automata on Shared-memory Multicores"* (Jung,
//! Park, Blieberger, Burgstaller — ICPP 2017).
//!
//! Given a DFA `A` with `n` states, the **simultaneous DFA** (SFA) `S(A)`
//! simulates `n` instances of `A` at once: an SFA state is the vector
//! `⟨δ*(q₀,w), …, δ*(qₙ₋₁,w)⟩` — the state each instance reaches after the
//! input read so far. Because the SFA's start state is the identity
//! mapping, running the SFA over a *chunk* of input computes the DFA's
//! behaviour for **every possible entry state**, which removes the data
//! dependency that makes DFA matching sequential: split the input, match
//! chunks in parallel, compose the resulting mappings ([`matcher`]).
//!
//! The hard part is *constructing* the SFA (exponential state growth).
//! This crate provides the paper's full algorithm stack:
//!
//! * [`sequential`] — Algorithm 1 in three variants: the red-black-tree
//!   baseline, fingerprint+hashing, and hashing+parameterized SIMD
//!   transposition (the paper's Fig. 4 comparison),
//! * [`parallel`] — the lock-free multicore engine: work-stealing
//!   thread-local deques seeded from a CAS global queue, a lock-free
//!   chained hash table of states, and the three-phase in-memory
//!   compression scheme (§III-B, §III-C),
//! * [`matcher`] — sequential DFA matching and parallel SFA matching with
//!   mapping composition (§IV-D),
//! * [`engine`] and [`runtime`] — the request API
//!   ([`MatchRequest`] → [`MatchOutcome`]): one tier ladder (full SFA →
//!   lazy SFA → speculative → sequential) over a pooled, streaming match
//!   runtime,
//! * [`sfa::Sfa`] — the constructed automaton (optionally with its state
//!   vectors still compressed),
//! * [`stats`] — construction statistics: comparisons, collisions, phase
//!   times, memory, contention.
//!
//! ## Quick start
//!
//! ```
//! use sfa_automata::prelude::*;
//! use sfa_core::prelude::*;
//!
//! // DFA for "contains RG" (Fig. 1 of the paper).
//! let dfa = Pipeline::search(Alphabet::amino_acids())
//!     .compile_str("RG")
//!     .unwrap();
//!
//! // Build the SFA with the fastest sequential algorithm…
//! let sfa = Sfa::builder(&dfa)
//!     .sequential(SequentialVariant::Transposed)
//!     .build()
//!     .unwrap()
//!     .sfa;
//!
//! // …or in parallel, capped at a million states.
//! let parallel = Sfa::builder(&dfa)
//!     .threads(2)
//!     .state_budget(1 << 20)
//!     .build()
//!     .unwrap();
//! assert_eq!(sfa.num_states(), parallel.sfa.num_states());
//!
//! // Match in parallel chunks.
//! let text = Alphabet::amino_acids().encode_bytes(b"MKVARGAA").unwrap();
//! assert!(match_with_sfa(&sfa, &dfa, &text, 4));
//! ```

pub mod artifact;
pub mod budget;
pub mod builder;
pub mod elem;
pub mod engine;
pub mod io;
pub mod lazy;
pub mod matcher;
mod memory;
pub mod obs;
pub mod parallel;
pub mod request;
pub mod runtime;
pub mod scan;
pub mod sequential;
pub mod sfa;
pub mod speculative;
mod state;
pub mod stats;
mod store;
pub mod treemap;

pub use artifact::{ArtifactInfo, ArtifactKind, CheckpointConfig};
pub use budget::{Budget, BudgetProgress, BudgetResource};
pub use builder::SfaBuilder;
pub use engine::{EngineStats, MatchEngine, MatchTier};
pub use lazy::LazySfa;
pub use matcher::{match_sequential, match_with_sfa, ParallelMatcher};
pub use parallel::{CompressionPolicy, ParallelOptions, Scheduler};
pub use request::{ClassifierMode, InputSource, MatchOutcome, MatchRequest, TierPolicy};
pub use runtime::{ByteClassifier, Classified, MatchRuntime, MatchStats};
pub use scan::{ScanEngine, ScanOptions, ScanTable};
pub use sequential::SequentialVariant;
pub use sfa::Sfa;
pub use sfa_sync::fault_point;
/// Deterministic fault-injection layer (lives in `sfa_sync`; re-exported
/// so `sfa_core::faults::arm(..)` works for engine-level tests). No-ops
/// unless built with the `fault-injection` feature.
pub use sfa_sync::faults;
pub use sfa_sync::CancelToken;
pub use speculative::{shared_predictor, SpecStats, SpeculativeMatcher, StatePredictor};
pub use stats::{ConstructionResult, ConstructionStats};

/// Errors produced by SFA construction.
///
/// `#[non_exhaustive]`: downstream matches need a wildcard arm, which
/// lets future resource axes add variants without a breaking change.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SfaError {
    /// The state budget (`ParallelOptions::state_budget`, the one cap on
    /// SFA states, or the lazy SFA's `state_budget` argument) was
    /// exhausted.
    StateBudgetExceeded {
        /// The configured limit.
        budget: usize,
    },
    /// A [`Budget`] axis was exhausted mid-construction.
    BudgetExceeded {
        /// Which axis fired.
        resource: BudgetResource,
        /// Progress at the moment the check fired.
        progress: BudgetProgress,
    },
    /// The build's [`CancelToken`] was cancelled.
    Cancelled {
        /// Progress at the moment the cancellation was observed.
        progress: BudgetProgress,
    },
    /// A DFA with zero states was supplied.
    EmptyDfa,
    /// Thread pool configuration invalid (zero threads).
    NoThreads,
    /// Mutually exclusive options were combined.
    InvalidOptions(&'static str),
    /// An SFA was paired with a DFA it was not built from: the state or
    /// symbol counts disagree. Matching such a pair would index past the
    /// mapping vectors or silently return wrong verdicts.
    Mismatch {
        /// DFA states the SFA's mappings cover.
        sfa_dfa_states: usize,
        /// States of the DFA actually supplied.
        dfa_states: usize,
        /// Symbols in the SFA's transition table.
        sfa_symbols: usize,
        /// Symbols of the DFA actually supplied.
        dfa_symbols: usize,
    },
    /// A pooled matcher worker panicked while scanning its chunk. The
    /// panic was contained — the pool and the process survive — and the
    /// payload message is carried here.
    WorkerPanic {
        /// The panic payload (or `"; "`-joined payloads).
        message: String,
    },
    /// A streamed input byte is outside the alphabet (and the classifier
    /// was not configured to skip it).
    InvalidByte {
        /// The offending byte.
        byte: u8,
        /// Offset of the byte from the start of the stream.
        offset: u64,
    },
    /// An I/O error while reading a streamed input.
    Io(String),
    /// A persisted artifact (serialized SFA or construction checkpoint)
    /// could not be written or loaded: corrupt, truncated, wrong
    /// version, or the underlying file I/O failed.
    Artifact(io::IoError),
    /// The configured spill directory cannot be used (missing and not
    /// creatable, or not writable — e.g. a read-only filesystem).
    /// Raised up front, before construction starts, so a build never
    /// dies mid-spill on a predictable misconfiguration.
    SpillDirUnavailable {
        /// The rejected directory.
        path: std::path::PathBuf,
        /// What the writability probe reported.
        reason: String,
    },
}

impl SfaError {
    /// `true` for the errors produced by resource governance (budget
    /// exhaustion or cancellation) — the errors the
    /// [`MatchEngine`] degradation ladder recovers from, as opposed to
    /// configuration errors that no retry can fix.
    pub fn is_degradable(&self) -> bool {
        matches!(
            self,
            SfaError::StateBudgetExceeded { .. }
                | SfaError::BudgetExceeded { .. }
                | SfaError::Cancelled { .. }
        )
    }
}

impl std::fmt::Display for SfaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SfaError::StateBudgetExceeded { budget } => {
                write!(f, "SFA construction exceeded the state budget of {budget}")
            }
            SfaError::BudgetExceeded { resource, progress } => write!(
                f,
                "SFA construction exceeded its {resource} budget after {} states, \
                 {} payload bytes, {:.3}s",
                progress.states,
                progress.payload_bytes,
                progress.elapsed.as_secs_f64()
            ),
            SfaError::Cancelled { progress } => write!(
                f,
                "SFA construction was cancelled after {} states, {} payload bytes, {:.3}s",
                progress.states,
                progress.payload_bytes,
                progress.elapsed.as_secs_f64()
            ),
            SfaError::EmptyDfa => write!(f, "input DFA has no states"),
            SfaError::NoThreads => write!(f, "at least one worker thread is required"),
            SfaError::InvalidOptions(msg) => write!(f, "invalid option combination: {msg}"),
            SfaError::Mismatch {
                sfa_dfa_states,
                dfa_states,
                sfa_symbols,
                dfa_symbols,
            } => write!(
                f,
                "SFA/DFA mismatch: SFA built for {sfa_dfa_states} states x {sfa_symbols} \
                 symbols, DFA has {dfa_states} states x {dfa_symbols} symbols"
            ),
            SfaError::WorkerPanic { message } => {
                write!(f, "matcher worker panicked: {message}")
            }
            SfaError::InvalidByte { byte, offset } => write!(
                f,
                "input byte 0x{byte:02x} at offset {offset} is outside the alphabet"
            ),
            SfaError::Io(msg) => write!(f, "I/O error while streaming input: {msg}"),
            SfaError::Artifact(e) => write!(f, "artifact error: {e}"),
            SfaError::SpillDirUnavailable { path, reason } => write!(
                f,
                "spill directory {} is unusable: {reason}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for SfaError {}

impl From<io::IoError> for SfaError {
    fn from(e: io::IoError) -> SfaError {
        SfaError::Artifact(e)
    }
}

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::artifact::{ArtifactInfo, ArtifactKind, CheckpointConfig};
    pub use crate::budget::{Budget, BudgetProgress, BudgetResource};
    pub use crate::builder::SfaBuilder;
    pub use crate::engine::{EngineStats, MatchEngine, MatchTier};
    pub use crate::lazy::LazySfa;
    pub use crate::matcher::{match_sequential, match_with_sfa, ParallelMatcher};
    pub use crate::parallel::{CompressionPolicy, ParallelOptions, Scheduler};
    pub use crate::request::{ClassifierMode, InputSource, MatchOutcome, MatchRequest, TierPolicy};
    pub use crate::runtime::{ByteClassifier, Classified, MatchRuntime, MatchStats};
    pub use crate::scan::{ScanEngine, ScanOptions, ScanTable};
    pub use crate::sequential::SequentialVariant;
    pub use crate::sfa::Sfa;
    pub use crate::speculative::{shared_predictor, SpecStats, SpeculativeMatcher, StatePredictor};
    pub use crate::stats::{ConstructionResult, ConstructionStats};
    pub use crate::SfaError;
    pub use sfa_sync::CancelToken;
}
