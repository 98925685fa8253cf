//! The self-degrading match engine.
//!
//! [`MatchEngine`] answers "does this input match?" under a resource
//! budget by climbing down a four-rung ladder instead of failing:
//!
//! 1. **Full SFA** — batch-construct the complete SFA under the budget;
//!    matching then runs in parallel chunks with no construction cost
//!    per input (the paper's intended operating point).
//! 2. **Lazy SFA** — if batch construction exhausts the budget or is
//!    cancelled, fall back to [`LazySfa`]: states are built on demand
//!    while matching, bounded by the same state budget and byte cap (the
//!    deadline was spent on the failed batch attempt, so it is dropped —
//!    [`Budget::without_deadline`]).
//! 3. **Speculative** — if even lazy discovery exhausts the state budget
//!    or the byte cap, keep data-parallelism *without* any SFA: chunks run over
//!    the raw DFA from predicted (or feasible-set-pruned) entry states
//!    with seam verification — see [`crate::speculative`]. Narrow
//!    feasible sets answer on the exact pruned-enumerative mode
//!    ([`MatchTier::PrunedSfa`]); wide ones speculate
//!    ([`MatchTier::Speculative`]).
//! 4. **Sequential** — if a speculative worker panics, fall back to
//!    plain sequential DFA matching, which needs no construction and
//!    always answers.
//!
//! [`MatchEngine::run`] walks this ladder (see its docs for the step-down
//! rule); [`MatchEngine::starting_at`] enters it below the top, skipping
//! the construction above. Every tier returns the *same verdict* — the
//! SFA simulates the DFA from every start state, and the speculative
//! tier re-runs every mispredicted seam, so degradation trades
//! throughput, never correctness. The engine records which tier served
//! each query in [`EngineStats`].

use crate::budget::{Budget, BudgetResource, Governor};
use crate::lazy::LazySfa;
use crate::obs::{MetricsRegistry, SpanRecord, Subscriber};
use crate::parallel::ParallelOptions;
use crate::request::{MatchOutcome, MatchRequest, TierPolicy};
use crate::runtime::{ByteClassifier, Input, MatchRuntime, MatchStats, Step};
use crate::scan::{ScanEngine, ScanOptions};
use crate::sfa::Sfa;
use crate::speculative::SpeculativeMatcher;
use crate::state::check_state_budget;
use crate::stats::ConstructionStats;
use crate::SfaError;
use sfa_automata::alphabet::SymbolId;
use sfa_automata::dfa::Dfa;
use sfa_sync::CancelToken;
use std::io::Read;
use std::sync::Arc;

/// Which rung of the degradation ladder is serving queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchTier {
    /// Complete batch-constructed SFA; parallel chunk matching.
    FullSfa,
    /// On-demand SFA construction during matching.
    LazySfa,
    /// Exact enumerative chunk matching over the raw DFA: every chunk
    /// runs from each of its PaREM feasible entry states — a pruned
    /// partial mapping instead of a full SFA row (see
    /// [`crate::speculative`]).
    PrunedSfa,
    /// Speculative chunk matching over the raw DFA: predicted entry
    /// states, seam verification, mispredicted suffixes re-run (see
    /// [`crate::speculative`]).
    Speculative,
    /// Plain sequential DFA simulation (no construction).
    Sequential,
}

impl std::fmt::Display for MatchTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MatchTier::FullSfa => "full",
            MatchTier::LazySfa => "lazy",
            MatchTier::PrunedSfa => "pruned",
            MatchTier::Speculative => "speculative",
            MatchTier::Sequential => "sequential",
        })
    }
}

/// What the engine did and why.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct EngineStats {
    /// Times the engine stepped down a tier (0–3).
    pub degradations: u64,
    /// Queries served by the full-SFA tier.
    pub full_matches: u64,
    /// Queries served by the lazy tier.
    pub lazy_matches: u64,
    /// Queries served by the speculative backend's exact
    /// pruned-enumerative mode.
    pub pruned_matches: u64,
    /// Queries served by the speculative backend's predict/verify mode.
    pub speculative_matches: u64,
    /// Queries served by the sequential tier.
    pub sequential_matches: u64,
    /// Statistics of the successful batch construction (full tier only).
    pub construction: Option<ConstructionStats>,
    /// SFA states the lazy tier had discovered when it last answered a
    /// query (0 until it does).
    pub lazy_states: u64,
    /// The governance error behind the most recent degradation, or the
    /// invalid option [`MatchEngine::starting_at`] found.
    pub last_error: Option<SfaError>,
    /// Telemetry of the most recent match (tier, chunks, throughput,
    /// pool backlog).
    pub last_match: Option<MatchStats>,
}

enum Backend<'d> {
    /// Complete SFA plus its precomputed [`ScanEngine`] — the compact
    /// tables are built once here, not per query.
    Full {
        sfa: Box<Sfa>,
        scan: Arc<ScanEngine>,
    },
    Lazy(Box<LazySfa<'d>>),
    /// Chunk-parallel matching over the raw DFA with the engine's
    /// [`SpeculativeMatcher`] (pruned or speculative per query — see
    /// [`crate::speculative`]); reported as [`MatchTier::PrunedSfa`] or
    /// [`MatchTier::Speculative`].
    Speculative,
    Sequential,
}

/// A matcher that builds the best automaton the budget allows and
/// degrades gracefully instead of failing — see the module docs.
pub struct MatchEngine<'d> {
    dfa: &'d Dfa,
    backend: Backend<'d>,
    /// The speculative tier, built once: finding its warm predictor
    /// takes a CRC-64 over the whole DFA. `None` only for an empty DFA.
    spec: Option<SpeculativeMatcher<'d>>,
    stats: EngineStats,
    runtime: MatchRuntime,
    /// Matching polls the same token construction did, so a server can
    /// abort an in-flight query with the handle it already holds.
    cancel: Option<CancelToken>,
    /// Per-engine span sink: every answered query emits a `match/query`
    /// span here (in addition to any process-global subscriber).
    subscriber: Option<Arc<dyn Subscriber>>,
    /// Per-engine metrics sink: every answered query is recorded here
    /// under `sfa_match_*` (the global registry is fed independently by
    /// the runtime).
    metrics: Option<MetricsRegistry>,
}

impl<'d> MatchEngine<'d> {
    /// Build with default parallel options and no limits (always lands
    /// on the full tier unless the DFA itself is degenerate).
    pub fn new(dfa: &'d Dfa, threads: usize) -> Self {
        let opts = ParallelOptions::with_threads(threads.max(1));
        MatchEngine::with_budget(dfa, &opts, &Budget::unlimited(), None)
    }

    /// Build under `budget` / `cancel`, starting at the full tier:
    /// [`Self::starting_at`] with [`MatchTier::FullSfa`].
    pub fn with_budget(
        dfa: &'d Dfa,
        opts: &ParallelOptions,
        budget: &Budget,
        cancel: Option<CancelToken>,
    ) -> Self {
        MatchEngine::starting_at(dfa, opts, budget, cancel, MatchTier::FullSfa)
    }

    /// Build under `budget` / `cancel`, starting on the rung `start`
    /// names instead of the full tier: [`MatchTier::LazySfa`] skips the
    /// batch construction, and [`MatchTier::PrunedSfa`],
    /// [`MatchTier::Speculative`] and [`MatchTier::Sequential`] build no
    /// SFA at all. Never fails: a rung whose construction fails is
    /// recorded in [`EngineStats`] as a degradation, and the engine
    /// starts one rung lower. A zero thread count or an invalid state
    /// cap is recorded in [`EngineStats::last_error`] whatever the start
    /// rung, and the engine builds no SFA.
    pub fn starting_at(
        dfa: &'d Dfa,
        opts: &ParallelOptions,
        budget: &Budget,
        cancel: Option<CancelToken>,
        start: MatchTier,
    ) -> Self {
        let mut stats = EngineStats::default();
        let spec = SpeculativeMatcher::new(dfa).ok();
        let mut rung = start;
        let checked = if opts.threads == 0 {
            Err(SfaError::NoThreads)
        } else {
            check_state_budget(opts.state_budget, 1)
        };
        if let Err(err) = checked {
            if matches!(rung, MatchTier::FullSfa | MatchTier::LazySfa) {
                stats.degradations += 1;
                rung = MatchTier::Speculative;
            }
            stats.last_error = Some(err);
        }
        let backend = loop {
            let built = match rung {
                MatchTier::FullSfa => {
                    let mut builder = Sfa::builder(dfa).options(opts).budget(budget.clone());
                    if let Some(token) = &cancel {
                        builder = builder.cancel(token.clone());
                    }
                    builder.build().map(|result| {
                        stats.construction = Some(result.stats);
                        let scan = Arc::new(ScanEngine::new(&result.sfa, dfa));
                        Backend::Full {
                            sfa: Box::new(result.sfa),
                            scan,
                        }
                    })
                }
                // The state budget and the byte cap bound lazy discovery;
                // the deadline is the request's (and a batch attempt has
                // already spent it).
                MatchTier::LazySfa => {
                    let lazy_budget = budget.clone().without_deadline();
                    LazySfa::with_budget(dfa, opts.state_budget, &lazy_budget, cancel.clone())
                        .map(|lazy| Backend::Lazy(Box::new(lazy)))
                }
                // Construction never lands on Sequential by itself — only
                // a speculative worker panic degrades that far.
                MatchTier::PrunedSfa | MatchTier::Speculative if spec.is_some() => {
                    break Backend::Speculative
                }
                _ => break Backend::Sequential,
            };
            match built {
                Ok(backend) => break backend,
                Err(err) => {
                    stats.degradations += 1;
                    stats.last_error = Some(err);
                    // A failed batch build falls to lazy discovery. When
                    // no SFA at all fits the budget, the speculative tier
                    // keeps the pool busy anyway (raw-DFA chunks,
                    // predicted entries).
                    rung = match rung {
                        MatchTier::FullSfa => MatchTier::LazySfa,
                        _ => MatchTier::Speculative,
                    };
                }
            }
        };
        MatchEngine {
            dfa,
            backend,
            spec,
            stats,
            runtime: MatchRuntime::shared(),
            cancel,
            subscriber: None,
            metrics: None,
        }
    }

    /// Replace the match runtime (pool / streaming block size). The
    /// default is the process-shared pool with the default block size.
    pub fn set_runtime(&mut self, runtime: MatchRuntime) {
        self.runtime = runtime;
    }

    /// Deliver a `match/query` span to `sub` for every answered query,
    /// whatever tier served it.
    pub fn with_subscriber(mut self, sub: Arc<dyn Subscriber>) -> Self {
        self.subscriber = Some(sub);
        self
    }

    /// Record every answered query's [`MatchStats`] into `reg`
    /// (`sfa_match_*` counters, gauges, and latency histogram).
    pub fn metrics(mut self, reg: &MetricsRegistry) -> Self {
        self.metrics = Some(reg.clone());
        self
    }

    /// Reconfigure the scan knobs (interleave width, oversubscription)
    /// of the full tier and the speculative tier. Rebuilds the full
    /// tier's compact tables once; the speculative predictor carries
    /// over. Fails only on invalid options.
    pub fn set_scan_options(&mut self, opts: ScanOptions) -> Result<(), SfaError> {
        opts.validate()?;
        if let Backend::Full { sfa, scan } = &mut self.backend {
            *scan = Arc::new(ScanEngine::with_options(sfa, self.dfa, opts)?);
        }
        if let Some(spec) = &mut self.spec {
            spec.set_options(opts);
        }
        Ok(())
    }

    /// The match runtime serving this engine.
    pub fn runtime(&self) -> &MatchRuntime {
        &self.runtime
    }

    /// The underlying DFA.
    pub fn dfa(&self) -> &Dfa {
        self.dfa
    }

    /// The tier currently serving queries. A speculative backend
    /// reports [`MatchTier::Speculative`]; whether a given query lands
    /// on the exact pruned mode instead is per-input (check the
    /// outcome's `tier`).
    pub fn tier(&self) -> MatchTier {
        self.step(TierPolicy::Auto)
            .map_or(MatchTier::Sequential, |step| step.tier())
    }

    /// Engine statistics (tier counters, degradation causes,
    /// construction stats of the full tier).
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Does `input` match? [`Self::run`] on a default request, so the
    /// same ladder answers. A query cancelled mid-match is answered by
    /// the ungoverned sequential oracle instead (the caller asked for a
    /// verdict); use [`Self::run`] to receive cancellation as a typed
    /// error.
    pub fn matches(&mut self, input: &[SymbolId]) -> bool {
        let request = MatchRequest::symbols(input);
        if let Ok(outcome) = self.run(&request) {
            return outcome.verdict;
        }
        let (verdict, stats) = self
            .runtime
            .run_step(Step::Sequential(self.dfa), &request, &Governor::unlimited())
            .expect("an ungoverned sequential pass over symbols cannot fail");
        self.record(&stats, false);
        verdict
    }

    /// Serve one [`MatchRequest`] — the engine's one ladder, shared by
    /// the CLI and the `sfa serve` daemon. The request's deadline is
    /// enforced by a fresh [`Governor`] carrying the engine's cancel
    /// token, so a server can still abort in-flight queries.
    ///
    /// Tier policy:
    /// * [`TierPolicy::Auto`] — the engine's current tier answers. A
    ///   worker panic, or the tier running out of its own space budget,
    ///   steps the engine down one rung for good and the query is
    ///   answered there. Cancellation or the request's deadline returns
    ///   the typed error and leaves the engine where it is.
    /// * [`TierPolicy::Sequential`] — the plain-DFA oracle, whatever
    ///   tier the engine is on. Used for verdict cross-checks.
    /// * [`TierPolicy::Speculative`] — the speculative raw-DFA tier
    ///   ([`crate::speculative`]), whatever tier the engine is on; the
    ///   outcome reports [`MatchTier::PrunedSfa`] when the exact pruned
    ///   mode answered.
    /// * [`TierPolicy::RequireFull`] — answer on the full tier or fail
    ///   with [`SfaError::InvalidOptions`]; never degrade silently.
    ///
    /// The outcome carries the verdict, the tier that *actually
    /// answered* (never the requested one), the query's [`MatchStats`],
    /// and — when an [`TierPolicy::Auto`] request was answered below
    /// the full tier by a degraded engine — the governance error that
    /// caused the most recent step-down. Explicitly requested
    /// sequential/speculative service is not a degradation and carries
    /// no `degraded` marker.
    pub fn run(&mut self, request: &MatchRequest) -> Result<MatchOutcome, SfaError> {
        if request.tier == TierPolicy::RequireFull && !matches!(self.backend, Backend::Full { .. })
        {
            return Err(SfaError::InvalidOptions(
                "tier policy requires the full SFA tier, but the engine is not on it",
            ));
        }
        let governor = request.governor(self.cancel.clone());
        // Explicit tiers are service as ordered; only the engine's own
        // backend steps down.
        let ladder = matches!(request.tier, TierPolicy::Auto | TierPolicy::RequireFull);
        let (verdict, stats) = loop {
            let step = self.step(request.tier)?;
            match self.runtime.run_step(step, request, &governor) {
                Err(err) if ladder && self.steps_down(&err) => self.step_down(err),
                served => break served?,
            }
        };
        self.record(&stats, request.trace);
        let outcome = MatchOutcome::new(verdict, stats);
        if request.tier == TierPolicy::RequireFull && outcome.tier != MatchTier::FullSfa {
            return Err(SfaError::InvalidOptions(
                "tier policy requires the full SFA tier, but the engine degraded mid-query",
            ));
        }
        // `degraded` means "this Auto request was answered below the
        // full tier because of <error>". An explicitly requested
        // sequential or speculative answer is service as ordered, not a
        // degradation.
        match &self.stats.last_error {
            Some(err) if request.tier == TierPolicy::Auto && outcome.tier != MatchTier::FullSfa => {
                Ok(outcome.with_degraded(err.to_string()))
            }
            _ => Ok(outcome),
        }
    }

    /// The block step of the tier `policy` selects on this engine's
    /// backend — one attempt at a request runs exactly one runtime tier.
    fn step(&self, policy: TierPolicy) -> Result<Step<'_>, SfaError> {
        Ok(match (policy, &self.backend) {
            (TierPolicy::Sequential, _) => Step::Sequential(self.dfa),
            (TierPolicy::Speculative, _) | (_, Backend::Speculative) => {
                Step::Speculative(self.spec.as_ref().ok_or(SfaError::EmptyDfa)?)
            }
            (_, Backend::Full { sfa, scan }) => Step::Full(sfa, self.dfa, scan),
            (_, Backend::Lazy(lazy)) => Step::Lazy(lazy),
            (_, Backend::Sequential) => Step::Sequential(self.dfa),
        })
    }

    /// The step-down rule: a worker panic, or the tier running out of its
    /// own space (the state budget or the payload-byte cap), moves the
    /// engine one rung down. Governance of the query itself
    /// (cancellation, the request's deadline) and input errors do not.
    /// Sequential is the last rung.
    fn steps_down(&self, err: &SfaError) -> bool {
        !matches!(self.backend, Backend::Sequential)
            && matches!(
                err,
                SfaError::WorkerPanic { .. }
                    | SfaError::StateBudgetExceeded { .. }
                    | SfaError::BudgetExceeded {
                        resource: BudgetResource::PayloadBytes,
                        ..
                    }
            )
    }

    /// Move one rung down for good: full-SFA and lazy failures fall to
    /// the speculative tier (chunk-parallel over the raw DFA — a
    /// full-tier worker panic poisons the SFA tables, not the DFA); a
    /// speculative failure falls to sequential, which always answers.
    fn step_down(&mut self, err: SfaError) {
        self.stats.degradations += 1;
        self.stats.last_error = Some(err);
        self.backend = match self.backend {
            Backend::Full { .. } | Backend::Lazy(_) => self
                .spec
                .as_ref()
                .map_or(Backend::Sequential, |_| Backend::Speculative),
            _ => Backend::Sequential,
        };
    }

    /// The one place an answered query is recorded: the tier counter
    /// `stats.tier` selects, the metrics and span sinks, `last_match`,
    /// and the request's `match/request` span when it asked for a trace.
    fn record(&mut self, stats: &MatchStats, trace: bool) {
        let served = &mut self.stats;
        if let (MatchTier::LazySfa, Backend::Lazy(lazy)) = (stats.tier, &self.backend) {
            served.lazy_states = u64::from(lazy.states_built());
        }
        *match stats.tier {
            MatchTier::FullSfa => &mut served.full_matches,
            MatchTier::LazySfa => &mut served.lazy_matches,
            MatchTier::PrunedSfa => &mut served.pruned_matches,
            MatchTier::Speculative => &mut served.speculative_matches,
            MatchTier::Sequential => &mut served.sequential_matches,
        } += 1;
        if let Some(reg) = &self.metrics {
            crate::obs::record_match(reg, stats);
        }
        if let Some(sub) = &self.subscriber {
            sub.on_span(&SpanRecord {
                name: "match/query",
                nanos: stats.elapsed_nanos(),
            });
        }
        if trace {
            crate::obs::report_span("match/request", stats.elapsed_nanos());
        }
        served.last_match = Some(stats.clone());
    }

    /// Stream an input through the engine in fixed-size blocks on the
    /// engine's own tier ([`Self::tier`]): peak memory stays at one
    /// block, and the verdict equals reading the whole input at once.
    /// The engine's cancel token is polled; a worker panic, or the tier
    /// running out of its space budget, steps the engine down but still
    /// fails this query, whose stream is partly consumed.
    pub fn match_stream<R: Read>(
        &mut self,
        classifier: &ByteClassifier,
        mut reader: R,
    ) -> Result<(bool, MatchStats), SfaError> {
        let governor = Governor::new(&Budget::unlimited(), self.cancel.clone());
        let served = self.step(TierPolicy::Auto).and_then(|step| {
            self.runtime
                .drive(step, classifier, Input::Stream(&mut reader), &governor)
        });
        match &served {
            Ok((_, stats)) => self.record(stats, false),
            Err(err) if self.steps_down(err) => self.step_down(err.clone()),
            Err(_) => {}
        }
        served
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::match_sequential;
    use sfa_automata::alphabet::Alphabet;
    use sfa_automata::pipeline::Pipeline;
    use sfa_workloads::protein_text;
    use std::time::Duration;

    fn rg_dfa() -> Dfa {
        Pipeline::search(Alphabet::amino_acids())
            .compile_str("RG")
            .unwrap()
    }

    #[test]
    fn unlimited_engine_uses_full_tier() {
        let dfa = rg_dfa();
        let mut engine = MatchEngine::new(&dfa, 2);
        assert_eq!(engine.tier(), MatchTier::FullSfa);
        assert!(engine.stats().construction.is_some());
        let text = protein_text(5_000, 7);
        assert_eq!(engine.matches(&text), match_sequential(&dfa, &text));
        assert_eq!(engine.stats().full_matches, 1);
        assert_eq!(engine.stats().degradations, 0);
    }

    #[test]
    fn zero_deadline_degrades_to_lazy_with_same_verdict() {
        let dfa = rg_dfa();
        let budget = Budget::unlimited().with_deadline(Duration::ZERO);
        let mut engine =
            MatchEngine::with_budget(&dfa, &ParallelOptions::with_threads(2), &budget, None);
        assert_eq!(engine.tier(), MatchTier::LazySfa);
        assert!(matches!(
            engine.stats().last_error,
            Some(SfaError::BudgetExceeded {
                resource: BudgetResource::Deadline,
                ..
            })
        ));
        for seed in 0..4 {
            let text = protein_text(8_000, seed);
            assert_eq!(engine.matches(&text), match_sequential(&dfa, &text));
        }
        assert_eq!(engine.stats().lazy_matches, 4);
    }

    #[test]
    fn engines_started_below_the_full_tier_build_no_full_sfa() {
        let dfa = rg_dfa();
        let opts = ParallelOptions::with_threads(2);
        let text = protein_text(5_000, 7);
        let request = MatchRequest::symbols(text.clone());
        let start = |tier| MatchEngine::starting_at(&dfa, &opts, &Budget::unlimited(), None, tier);

        let mut lazy = start(MatchTier::LazySfa);
        assert_eq!(lazy.tier(), MatchTier::LazySfa);
        assert!(lazy.stats().construction.is_none());
        let outcome = lazy.run(&request).unwrap();
        assert_eq!(outcome.tier, MatchTier::LazySfa);
        assert_eq!(outcome.verdict, match_sequential(&dfa, &text));
        assert!(
            outcome.degraded.is_none(),
            "a lazy start is not a degradation"
        );
        assert!(lazy.stats().lazy_states >= 1);

        let mut spec = start(MatchTier::Speculative);
        assert_eq!(spec.tier(), MatchTier::Speculative);
        assert!(spec.stats().construction.is_none());
        let outcome = spec.run(&request).unwrap();
        assert!(matches!(
            outcome.tier,
            MatchTier::PrunedSfa | MatchTier::Speculative
        ));
        assert_eq!(outcome.verdict, match_sequential(&dfa, &text));
        assert_eq!(spec.stats().lazy_states, 0);
        for engine in [&lazy, &spec] {
            assert_eq!(engine.stats().degradations, 0);
            assert!(engine.stats().last_error.is_none());
        }
    }

    #[test]
    fn invalid_options_are_recorded_from_every_start_rung() {
        let dfa = rg_dfa();
        let text = protein_text(2_000, 5);
        let zero_cap = ParallelOptions::with_threads(2).state_budget(0);
        let zero_threads = ParallelOptions::with_threads(0);
        for start in [
            MatchTier::FullSfa,
            MatchTier::LazySfa,
            MatchTier::PrunedSfa,
            MatchTier::Speculative,
            MatchTier::Sequential,
        ] {
            for opts in [&zero_cap, &zero_threads] {
                let mut engine =
                    MatchEngine::starting_at(&dfa, opts, &Budget::unlimited(), None, start);
                let err = engine.stats().last_error.clone();
                if opts.threads == 0 {
                    assert_eq!(err, Some(SfaError::NoThreads), "{start:?}");
                } else {
                    assert!(
                        matches!(err, Some(SfaError::InvalidOptions(_))),
                        "{start:?}: {err:?}"
                    );
                }
                // No SFA is built; the engine still answers below it.
                assert!(engine.stats().construction.is_none(), "{start:?}");
                assert!(!matches!(
                    engine.tier(),
                    MatchTier::FullSfa | MatchTier::LazySfa
                ));
                assert_eq!(engine.matches(&text), match_sequential(&dfa, &text));
            }
        }
    }

    #[test]
    fn lazy_space_exhaustion_degrades_to_speculative_mid_query() {
        // A one-state budget admits the identity state only; the first
        // lazy discovery fills it and the query falls through to the
        // speculative backend — with the right verdict. The search DFA
        // is narrow, so the query itself lands on the exact pruned mode.
        let dfa = rg_dfa();
        let budget = Budget::unlimited().with_deadline(Duration::ZERO);
        let opts = ParallelOptions::with_threads(2).state_budget(1);
        let mut engine = MatchEngine::with_budget(&dfa, &opts, &budget, None);
        assert_eq!(engine.tier(), MatchTier::LazySfa);
        let text = protein_text(5_000, 3);
        assert_eq!(engine.matches(&text), match_sequential(&dfa, &text));
        assert_eq!(engine.tier(), MatchTier::Speculative);
        assert_eq!(engine.stats().degradations, 2);
        assert_eq!(engine.stats().pruned_matches, 1);
        assert_eq!(engine.stats().sequential_matches, 0);
        // Further queries stay on the speculative backend.
        let text2 = protein_text(1_000, 4);
        assert_eq!(engine.matches(&text2), match_sequential(&dfa, &text2));
        assert_eq!(
            engine.stats().pruned_matches + engine.stats().speculative_matches,
            2
        );
        let last = engine.stats().last_match.clone().unwrap();
        assert!(matches!(
            last.tier,
            MatchTier::PrunedSfa | MatchTier::Speculative
        ));
    }

    #[test]
    fn engine_observability_hooks_deliver_on_every_tier() {
        use crate::obs::RingSubscriber;
        let dfa = rg_dfa();
        let reg = MetricsRegistry::new();
        let sub = Arc::new(RingSubscriber::new(64));
        let mut engine = MatchEngine::new(&dfa, 2)
            .metrics(&reg)
            .with_subscriber(sub.clone());
        let text = protein_text(5_000, 7);
        engine.matches(&text); // full tier
        let sequential = MatchRequest::symbols(text.clone()).with_tier(TierPolicy::Sequential);
        let seq = engine.run(&sequential).unwrap();
        assert_eq!(seq.tier, MatchTier::Sequential);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sfa_match_queries_total"), Some(2));
        assert_eq!(
            snap.counter("sfa_match_bytes_total"),
            Some(2 * text.len() as u64)
        );
        assert_eq!(snap.histogram("sfa_match_elapsed_nanos").unwrap().count, 2);
        let spans = sub.spans();
        assert_eq!(
            spans.iter().filter(|s| s.name == "match/query").count(),
            2,
            "one span per answered query, got {spans:?}"
        );
    }

    #[test]
    fn cancelled_before_start_still_answers() {
        let dfa = rg_dfa();
        let token = sfa_sync::CancelToken::new();
        token.cancel();
        let mut engine = MatchEngine::with_budget(
            &dfa,
            &ParallelOptions::with_threads(2),
            &Budget::unlimited(),
            Some(token),
        );
        // Batch construction refuses immediately; lazy discovery is also
        // cancelled, so the first query degrades to sequential.
        assert!(matches!(
            engine.stats().last_error,
            Some(SfaError::Cancelled { .. })
        ));
        let text = protein_text(2_000, 11);
        assert_eq!(engine.matches(&text), match_sequential(&dfa, &text));
    }
}
