//! The construction entry point: [`Sfa::builder`].
//!
//! The builder is the only public way to construct an SFA. One chain
//! selects the engine (parallel or a sequential variant), configures it,
//! and attaches resource limits, cancellation, checkpointing and
//! observability hooks:
//!
//! ```
//! use sfa_automata::prelude::*;
//! use sfa_core::prelude::*;
//! use std::time::Duration;
//!
//! let dfa = Pipeline::search(Alphabet::amino_acids())
//!     .compile_str("RG")
//!     .unwrap();
//!
//! let token = CancelToken::new();
//! let result = Sfa::builder(&dfa)
//!     .threads(4)
//!     .scheduler(Scheduler::WorkStealing)
//!     .budget(
//!         Budget::unlimited()
//!             .with_deadline(Duration::from_secs(5))
//!             .with_max_states(1 << 20),
//!     )
//!     .cancel(token.clone())
//!     .build()
//!     .unwrap();
//! assert_eq!(result.sfa.num_states(), 6);
//! ```

use crate::artifact::{self, CheckpointConfig};
use crate::budget::{Budget, Governor};
use crate::obs::{MetricsRegistry, Subscriber};
use crate::parallel::{
    construct_parallel_resumable, CompressionPolicy, FingerprintAlgo, ParallelOptions, Scheduler,
};
use crate::sequential::{construct_sequential, SequentialVariant};
use crate::sfa::{CodecChoice, Sfa};
use crate::stats::ConstructionResult;
use crate::store::SpillConfig;
use crate::SfaError;
use sfa_automata::dfa::Dfa;
use sfa_sync::CancelToken;
use std::path::{Path, PathBuf};
use std::sync::Arc;

impl Sfa {
    /// Start configuring a construction run for `dfa`. Defaults to the
    /// parallel engine with [`ParallelOptions::default`] and no resource
    /// limits.
    pub fn builder(dfa: &Dfa) -> SfaBuilder<'_> {
        SfaBuilder {
            dfa,
            opts: ParallelOptions::default(),
            variant: None,
            budget: Budget::unlimited(),
            cancel: None,
            checkpoint: None,
            resume_from: None,
            subscriber: None,
            metrics: None,
        }
    }
}

/// Builder for one SFA construction run — see [`Sfa::builder`].
#[derive(Clone)]
pub struct SfaBuilder<'d> {
    dfa: &'d Dfa,
    opts: ParallelOptions,
    /// `Some` switches from the parallel engine to a sequential variant.
    variant: Option<SequentialVariant>,
    budget: Budget,
    cancel: Option<CancelToken>,
    checkpoint: Option<CheckpointConfig>,
    resume_from: Option<PathBuf>,
    subscriber: Option<Arc<dyn Subscriber>>,
    metrics: Option<MetricsRegistry>,
}

impl std::fmt::Debug for SfaBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SfaBuilder")
            .field("dfa", &self.dfa)
            .field("opts", &self.opts)
            .field("variant", &self.variant)
            .field("budget", &self.budget)
            .field("cancel", &self.cancel)
            .field("checkpoint", &self.checkpoint)
            .field("resume_from", &self.resume_from)
            .field("subscriber", &self.subscriber.as_ref().map(|_| ".."))
            .field("metrics", &self.metrics.is_some())
            .finish()
    }
}

impl<'d> SfaBuilder<'d> {
    /// Use the parallel engine with `threads` workers (the default
    /// engine; this clears any sequential variant selected earlier).
    pub fn threads(mut self, threads: usize) -> Self {
        self.opts.threads = threads;
        self.variant = None;
        self
    }

    /// Use the single-threaded engine with the given algorithm variant.
    pub fn sequential(mut self, variant: SequentialVariant) -> Self {
        self.variant = Some(variant);
        self
    }

    /// Replace the whole parallel-option block (for callers that already
    /// carry a [`ParallelOptions`], e.g. benchmark sweeps).
    pub fn options(mut self, opts: &ParallelOptions) -> Self {
        self.opts = opts.clone();
        self
    }

    /// Work-distribution strategy of the parallel engine.
    pub fn scheduler(mut self, s: Scheduler) -> Self {
        self.opts.scheduler = s;
        self
    }

    /// Compression policy of the parallel engine.
    pub fn compression(mut self, c: CompressionPolicy) -> Self {
        self.opts.compression = c;
        self
    }

    /// Codec of the parallel engine's compressed tier: its compression
    /// phase and its spill tier.
    pub fn codec(mut self, c: CodecChoice) -> Self {
        self.opts.codec = c;
        self
    }

    /// Arena capacity (maximum SFA states; applies to the sequential
    /// engine too).
    pub fn state_budget(mut self, states: usize) -> Self {
        self.opts.state_budget = states;
        self
    }

    /// Work granularity (symbol blocks per state) of the parallel engine.
    pub fn symbol_blocks(mut self, blocks: usize) -> Self {
        self.opts.symbol_blocks = blocks;
        self
    }

    /// Probabilistic (fingerprint-only) parallel mode.
    pub fn probabilistic(mut self, algo: FingerprintAlgo) -> Self {
        self.opts.probabilistic = true;
        self.opts.fingerprint = algo;
        self
    }

    /// Enable the parallel engine's spill tier (`crate::store`): once
    /// resident state payloads exceed `cap_bytes`, cold payloads are
    /// demoted — compressed in memory first, then to mmap'd segments
    /// under `dir` — instead of the build failing on memory pressure,
    /// and promoted back on access. The finished artifact is
    /// byte-identical to an uncapped build. When the [`budget`] also
    /// carries a `max_payload_bytes` axis, the smaller of the two values
    /// becomes the cap and the axis stops being a hard error — graceful
    /// degradation replaces [`SfaError::BudgetExceeded`] for bytes.
    ///
    /// A [`sequential`] variant with a spill tier is
    /// [`SfaError::InvalidOptions`]; build with `threads(1)` instead,
    /// which yields the same bytes.
    ///
    /// [`budget`]: SfaBuilder::budget
    /// [`sequential`]: SfaBuilder::sequential
    pub fn spill(mut self, dir: impl Into<PathBuf>, cap_bytes: u64) -> Self {
        self.opts.spill = Some(SpillConfig::new(dir, cap_bytes));
        self
    }

    /// Resource limits enforced during the build.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Attach a cancellation token; cancelling any clone of it stops the
    /// build at the next work-item checkpoint.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The configured [`ParallelOptions`] (inspection / reuse).
    pub fn parallel_options(&self) -> &ParallelOptions {
        &self.opts
    }

    /// Deliver per-phase construction spans to `sub` when the build
    /// finishes (see the span taxonomy in DESIGN.md §12). Only this run's
    /// spans go to `sub`; the process-global subscriber installed via
    /// [`crate::obs::subscribe`] is unaffected. No-op when the `obs`
    /// feature is compiled out.
    pub fn with_subscriber(mut self, sub: Arc<dyn Subscriber>) -> Self {
        self.subscriber = Some(sub);
        self
    }

    /// Record this run's [`crate::stats::ConstructionStats`] into `reg`
    /// (counters, gauges, and phase histograms under `sfa_construct_*`)
    /// when the build finishes. The process-global registry is always fed
    /// regardless; this hook gives library callers a private registry.
    /// No-op when the `obs` feature is compiled out.
    pub fn metrics(mut self, reg: &MetricsRegistry) -> Self {
        self.metrics = Some(reg.clone());
        self
    }

    /// Periodically snapshot construction state to `path` (atomic write,
    /// CRC-checked artifact), so an interrupted build can be continued
    /// with [`resume_from`] (producing a byte-identical SFA). Works with
    /// both engines: the sequential engine snapshots every
    /// `every_states` processed states, the parallel engine every
    /// `every_states` discovered states (all workers quiesce at a
    /// barrier and one of them snapshots the canonical-order prefix —
    /// the state numbering both engines share, so either engine can
    /// resume the other's checkpoint). The parallel engine only rejects
    /// the combination with schedule-dependent options (probabilistic
    /// mode, `CompressionPolicy::WhenMemoryExceeds`).
    ///
    /// [`resume_from`]: SfaBuilder::resume_from
    pub fn checkpoint(mut self, path: impl Into<PathBuf>, every_states: u64) -> Self {
        self.checkpoint = Some(CheckpointConfig::new(path, every_states));
        self
    }

    /// Continue an interrupted build from the checkpoint artifact at
    /// `path`. The checkpoint must have been written for the same DFA
    /// (a fingerprint binds them); the finished SFA is byte-identical to
    /// an uninterrupted run, whichever engine wrote the checkpoint and
    /// whichever engine resumes it.
    pub fn resume_from(mut self, path: impl AsRef<Path>) -> Self {
        self.resume_from = Some(path.as_ref().to_path_buf());
        self
    }

    /// Run the configured construction. The budget clock starts here.
    pub fn build(self) -> Result<ConstructionResult, SfaError> {
        if self.variant.is_some() && self.opts.spill.is_some() {
            return Err(SfaError::InvalidOptions(
                "the spill tier runs on the parallel engine; a one-thread parallel \
                 build is byte-identical to a sequential one",
            ));
        }
        let mut opts = self.opts;
        let mut budget = self.budget;
        if let Some(cfg) = &mut opts.spill {
            // With a spill tier, the payload-byte axis stops being a hard
            // error: fold it into the demotion cap (tighter value wins)
            // and strip it from the governor — crossing it now demotes
            // instead of failing the build.
            if let Some(max) = budget.max_payload_bytes.take() {
                cfg.cap_bytes = cfg.cap_bytes.min(max);
            }
        }
        let governor = Governor::new(&budget, self.cancel);
        let resume = match &self.resume_from {
            Some(path) => Some(artifact::read_checkpoint(path)?),
            None => None,
        };
        let result = match self.variant {
            Some(variant) => construct_sequential(
                self.dfa,
                variant,
                opts.state_budget,
                &governor,
                self.checkpoint.as_ref(),
                resume.as_ref(),
            )?,
            None => construct_parallel_resumable(
                self.dfa,
                &opts,
                &governor,
                self.checkpoint.as_ref(),
                resume.as_ref(),
            )?,
        };
        if let Some(reg) = &self.metrics {
            crate::obs::record_construction(reg, &result.stats);
        }
        if let Some(sub) = &self.subscriber {
            crate::obs::emit_phase_spans_to(sub.as_ref(), &result.stats);
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfa_automata::alphabet::Alphabet;
    use sfa_automata::pipeline::Pipeline;
    use sfa_workloads::ScratchDir;

    fn rg_dfa() -> Dfa {
        Pipeline::search(Alphabet::amino_acids())
            .compile_str("RG")
            .unwrap()
    }

    #[test]
    fn builder_matches_both_engines() {
        let dfa = rg_dfa();
        let par = Sfa::builder(&dfa).threads(2).build().unwrap();
        let seq = Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .build()
            .unwrap();
        assert_eq!(par.sfa.num_states(), 6);
        assert_eq!(seq.sfa.num_states(), 6);
        par.sfa.validate(&dfa).unwrap();
        assert_eq!(par.stats.threads, 2);
        assert_eq!(seq.stats.threads, 1);
    }

    #[test]
    fn state_budget_applies_to_both_engines() {
        let dfa = rg_dfa();
        for b in [
            Sfa::builder(&dfa).threads(2).state_budget(3),
            Sfa::builder(&dfa)
                .sequential(SequentialVariant::Hashing)
                .state_budget(3),
        ] {
            assert_eq!(
                b.build().unwrap_err(),
                SfaError::StateBudgetExceeded { budget: 3 }
            );
        }
    }

    #[test]
    fn parallel_checkpointing_rejects_schedule_dependent_options() {
        // Parallel + checkpoint is supported now; only options whose
        // outcome depends on worker scheduling stay rejected (their
        // resumed artifacts could not be byte-identical).
        let dfa = rg_dfa();
        let dir = ScratchDir::new("builder_test");
        let mut probabilistic = ParallelOptions::with_threads(2);
        probabilistic.probabilistic = true;
        let mut watermark = ParallelOptions::with_threads(2);
        watermark.compression = CompressionPolicy::WhenMemoryExceeds(1);
        for opts in [probabilistic, watermark] {
            let b = Sfa::builder(&dfa)
                .options(&opts)
                .checkpoint(dir.join("reject.ckpt"), 8);
            assert!(matches!(
                b.build().unwrap_err(),
                SfaError::InvalidOptions(_)
            ));
        }
    }

    #[test]
    fn parallel_checkpoint_then_resume_is_byte_identical() {
        let dfa = rg_dfa();
        let dir = ScratchDir::new("builder_test");
        let path = dir.join("resume_par_unit.ckpt");
        let _ = std::fs::remove_file(&path);

        // Interrupt via a tight state budget, snapshotting at every
        // discovered state. Medium granularity (one symbol per work
        // item) makes discovery gradual enough that checkpoints land
        // before the arena overflows — with one state per item the
        // whole budget can blow inside the first item.
        let mut opts = ParallelOptions::with_threads(2);
        opts.symbol_blocks = dfa.num_symbols();
        opts.state_budget = 5;
        let err = Sfa::builder(&dfa)
            .options(&opts)
            .checkpoint(&path, 1)
            .build()
            .unwrap_err();
        assert_eq!(err, SfaError::StateBudgetExceeded { budget: 5 });

        // Resume with *different* parallel options (default coarse
        // granularity): canonical numbering makes the result identical
        // to both an uninterrupted parallel build and a sequential one.
        let resumed = Sfa::builder(&dfa).resume_from(&path).build().unwrap();
        let fresh_par = Sfa::builder(&dfa).threads(2).build().unwrap();
        let fresh_seq = Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .build()
            .unwrap();
        let bytes = crate::io::to_bytes(&resumed.sfa);
        assert_eq!(bytes, crate::io::to_bytes(&fresh_par.sfa));
        assert_eq!(bytes, crate::io::to_bytes(&fresh_seq.sfa));
        resumed.sfa.validate(&dfa).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoints_are_interchangeable_between_engines() {
        // A sequential snapshot resumed by the parallel engine (and vice
        // versa) finishes to the same bytes as any uninterrupted build —
        // both engines number states in canonical (BFS) order.
        let dfa = rg_dfa();
        let dir = ScratchDir::new("builder_test");
        let path = dir.join("resume_cross_unit.ckpt");
        let _ = std::fs::remove_file(&path);

        let err = Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .checkpoint(&path, 1)
            .state_budget(5)
            .build()
            .unwrap_err();
        assert_eq!(err, SfaError::StateBudgetExceeded { budget: 5 });

        let par_resumed = Sfa::builder(&dfa)
            .threads(4)
            .resume_from(&path)
            .build()
            .unwrap();
        let fresh_seq = Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .build()
            .unwrap();
        assert_eq!(
            crate::io::to_bytes(&par_resumed.sfa),
            crate::io::to_bytes(&fresh_seq.sfa)
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_then_resume_is_byte_identical() {
        let dfa = rg_dfa();
        let dir = ScratchDir::new("builder_test");
        let path = dir.join("resume_unit.ckpt");
        let _ = std::fs::remove_file(&path);

        // Interrupt via a tight state budget, checkpointing every state.
        // (The RG SFA has 6 states; a budget of 5 lets several states be
        // processed — and checkpointed — before the arena overflows.)
        let err = Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .checkpoint(&path, 1)
            .state_budget(5)
            .build()
            .unwrap_err();
        assert_eq!(err, SfaError::StateBudgetExceeded { budget: 5 });

        let resumed = Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .resume_from(&path)
            .build()
            .unwrap();
        let fresh = Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .build()
            .unwrap();
        assert_eq!(
            crate::io::to_bytes(&resumed.sfa),
            crate::io::to_bytes(&fresh.sfa)
        );
        resumed.sfa.validate(&dfa).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn spill_turns_payload_budget_errors_into_demotion() {
        use crate::budget::{Budget, BudgetResource};
        let dfa = sfa_automata::random::rn(80);
        let budget = Budget::unlimited().with_max_payload_bytes(4096);

        // Without a spill tier the byte axis is a hard error.
        let err = Sfa::builder(&dfa)
            .threads(2)
            .budget(budget.clone())
            .build()
            .unwrap_err();
        assert!(
            matches!(
                err,
                SfaError::BudgetExceeded {
                    resource: BudgetResource::PayloadBytes,
                    ..
                }
            ),
            "expected a payload-bytes budget failure, got {err:?}"
        );

        // With one, the same budget becomes the demotion cap and the
        // build completes byte-identical to an unrestricted run.
        let dir = ScratchDir::new("builder_spill");
        let capped = Sfa::builder(&dfa)
            .threads(2)
            .budget(budget)
            .spill(dir.path(), u64::MAX)
            .build()
            .unwrap();
        let free = Sfa::builder(&dfa).threads(2).build().unwrap();
        assert_eq!(
            crate::io::to_bytes(&capped.sfa),
            crate::io::to_bytes(&free.sfa),
            "spilled build must be byte-identical to the unrestricted one"
        );
        assert!(
            capped.stats.spilled_bytes > 0,
            "a 4 KiB cap on an rn(80) build must engage the spill tier"
        );
        capped.sfa.validate(&dfa).unwrap();
    }

    #[test]
    fn sequential_variants_reject_a_spill_tier() {
        let dfa = rg_dfa();
        let scratch = ScratchDir::new("builder_sspill");
        let dir = scratch.join("spill");
        for variant in [
            SequentialVariant::Baseline,
            SequentialVariant::BaselinePointerTree,
            SequentialVariant::Hashing,
            SequentialVariant::Transposed,
        ] {
            let err = Sfa::builder(&dfa)
                .sequential(variant)
                .spill(&dir, 2048)
                .build()
                .unwrap_err();
            assert!(
                matches!(err, SfaError::InvalidOptions(msg) if msg.contains("parallel engine")),
                "{variant:?}: {err:?}"
            );
            assert!(!dir.exists(), "{variant:?} created the spill directory");
        }
    }

    #[test]
    fn resume_from_missing_file_is_an_artifact_error() {
        let dfa = rg_dfa();
        let err = Sfa::builder(&dfa)
            .sequential(SequentialVariant::Transposed)
            .resume_from("/nonexistent/sfa-resume.ckpt")
            .build()
            .unwrap_err();
        assert!(matches!(err, SfaError::Artifact(_)));
    }

    #[cfg(feature = "obs")]
    #[test]
    fn builder_observability_hooks_deliver() {
        use crate::obs::{MetricsRegistry, RingSubscriber};
        let dfa = rg_dfa();
        let reg = MetricsRegistry::new();
        let sub = Arc::new(RingSubscriber::new(64));
        let result = Sfa::builder(&dfa)
            .threads(2)
            .metrics(&reg)
            .with_subscriber(sub.clone())
            .build()
            .unwrap();
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("sfa_construct_runs_total"),
            Some(1),
            "metrics hook must feed the private registry"
        );
        assert_eq!(
            snap.counter("sfa_construct_states_total"),
            Some(result.stats.states),
        );
        let spans = sub.spans();
        assert!(
            spans.iter().any(|s| s.name == "construct/total"),
            "subscriber hook must receive the per-phase spans, got {spans:?}"
        );
    }

    #[test]
    fn threads_clears_sequential_selection() {
        let dfa = rg_dfa();
        let r = Sfa::builder(&dfa)
            .sequential(SequentialVariant::Baseline)
            .threads(3)
            .build()
            .unwrap();
        assert_eq!(r.stats.threads, 3);
    }
}
