//! The match request/response surface: every match in the workspace is
//! a [`MatchRequest`] → [`MatchOutcome`] exchange.
//!
//! * [`MatchRequest`] — *what* to match: a pattern reference (resolved
//!   by servers, ignored by an engine already bound to a DFA), an input
//!   source, an optional deadline, a [`TierPolicy`], a classifier mode
//!   for raw-byte inputs, and a trace flag.
//! * [`MatchOutcome`] — *what happened*: the verdict, the
//!   [`MatchTier`] that served it, the full [`MatchStats`] telemetry,
//!   and the degradation reason when a lower tier answered.
//!
//! [`MatchEngine::run`](crate::MatchEngine::run),
//! [`MatchRuntime::run`](crate::MatchRuntime::run), the CLI, and the
//! `sfa serve` daemon all speak these types; the serve wire protocol is
//! just their `sfa-json` serialization ([`MatchRequest::to_json`] /
//! [`MatchRequest::from_json`] and the same pair on the outcome).
//!
//! Both structs are `#[non_exhaustive]` with `with_*` builders (the
//! options/stats convention from PR 1), so new axes — another input
//! source, another policy — are non-breaking. The JSON decoders ignore
//! unknown fields for the same reason: an old server must accept a new
//! client's request.

use crate::budget::{Budget, Governor};
use crate::engine::MatchTier;
use crate::runtime::MatchStats;
use sfa_automata::alphabet::SymbolId;
use sfa_json::Value;
use std::path::PathBuf;
use std::time::Duration;

/// Where the input symbols come from.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum InputSource {
    /// Pre-encoded dense symbols. An id outside the DFA's alphabet fails
    /// the match with [`crate::SfaError::InvalidByte`].
    Symbols(Vec<SymbolId>),
    /// Raw bytes, classified per [`MatchRequest::classifier`].
    Bytes(Vec<u8>),
    /// A local file, streamed in runtime-sized blocks (peak memory one
    /// block). Servers reject this variant from the wire — a remote
    /// caller must not name server-side paths.
    File(PathBuf),
}

impl InputSource {
    /// Input length in symbols/bytes, when knowable without I/O.
    pub fn len_hint(&self) -> Option<u64> {
        match self {
            InputSource::Symbols(s) => Some(s.len() as u64),
            InputSource::Bytes(b) => Some(b.len() as u64),
            InputSource::File(_) => None,
        }
    }
}

/// How raw bytes map to symbols (ignored for pre-encoded inputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClassifierMode {
    /// Every byte must be in the alphabet ([`crate::ByteClassifier::strict`]).
    #[default]
    Strict,
    /// ASCII whitespace is skipped
    /// ([`crate::ByteClassifier::skipping_ascii_whitespace`]) — the
    /// natural mode for line-wrapped text files.
    SkipWhitespace,
}

impl ClassifierMode {
    fn as_str(&self) -> &'static str {
        match self {
            ClassifierMode::Strict => "strict",
            ClassifierMode::SkipWhitespace => "skip_whitespace",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "strict" => Some(ClassifierMode::Strict),
            "skip_whitespace" => Some(ClassifierMode::SkipWhitespace),
            _ => None,
        }
    }
}

/// Which degradation-ladder tiers may serve the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TierPolicy {
    /// Use the best tier available, degrading as needed (the default —
    /// always answers).
    #[default]
    Auto,
    /// Force the sequential DFA scan, whatever tier the engine holds —
    /// the oracle mode load generators cross-check against.
    Sequential,
    /// Force the speculative raw-DFA tier ([`crate::speculative`]):
    /// chunk-parallel matching from predicted or feasible-set-pruned
    /// entry states, no SFA needed. The outcome reports
    /// [`MatchTier::PrunedSfa`] when the exact pruned mode answered and
    /// [`MatchTier::Speculative`] otherwise.
    Speculative,
    /// Fail with [`crate::SfaError::InvalidOptions`] unless the full
    /// SFA tier serves the request — for callers that would rather
    /// error than eat a sequential-scan latency cliff.
    RequireFull,
}

impl TierPolicy {
    /// The wire name (`"auto"`, `"sequential"`, `"speculative"`,
    /// `"require_full"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            TierPolicy::Auto => "auto",
            TierPolicy::Sequential => "sequential",
            TierPolicy::Speculative => "speculative",
            TierPolicy::RequireFull => "require_full",
        }
    }

    /// Parse a wire name — the inverse of [`Self::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(TierPolicy::Auto),
            "sequential" => Some(TierPolicy::Sequential),
            "speculative" => Some(TierPolicy::Speculative),
            "require_full" => Some(TierPolicy::RequireFull),
            _ => None,
        }
    }
}

/// One match query — see the module docs. Construct with
/// [`MatchRequest::symbols`] / [`bytes`](MatchRequest::bytes) /
/// [`text`](MatchRequest::text) / [`file`](MatchRequest::file), then
/// refine with the `with_*` builders.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct MatchRequest {
    /// Pattern reference for registry-backed callers (the serve daemon
    /// resolves it to a compiled automaton); `None` for an engine
    /// already bound to a DFA.
    pub pattern: Option<String>,
    /// The input to match.
    pub input: InputSource,
    /// Wall-clock limit on the match, measured from the moment it is
    /// served; `None` (the default) never fires. The engine's cancel
    /// token can stop a request too. The lazy tier discovers states
    /// under the engine's construction limits, not the request's.
    pub deadline: Option<Duration>,
    /// Which tiers may answer.
    pub tier: TierPolicy,
    /// Byte→symbol mapping for [`InputSource::Bytes`]/[`InputSource::File`].
    pub classifier: ClassifierMode,
    /// Emit a `match/request` span for this query (in addition to the
    /// engine's usual per-query telemetry).
    pub trace: bool,
}

impl MatchRequest {
    fn with_input(input: InputSource) -> Self {
        MatchRequest {
            pattern: None,
            input,
            deadline: None,
            tier: TierPolicy::default(),
            classifier: ClassifierMode::default(),
            trace: false,
        }
    }

    /// Match pre-encoded dense symbols.
    pub fn symbols(symbols: impl Into<Vec<SymbolId>>) -> Self {
        Self::with_input(InputSource::Symbols(symbols.into()))
    }

    /// Match raw bytes (classified per [`Self::with_classifier`]).
    pub fn bytes(bytes: impl Into<Vec<u8>>) -> Self {
        Self::with_input(InputSource::Bytes(bytes.into()))
    }

    /// Match a text string's bytes — sugar for [`Self::bytes`].
    pub fn text(text: &str) -> Self {
        Self::bytes(text.as_bytes().to_vec())
    }

    /// Stream a local file.
    pub fn file(path: impl Into<PathBuf>) -> Self {
        Self::with_input(InputSource::File(path.into()))
    }

    /// Set the pattern reference (registry key or pattern id).
    pub fn with_pattern(mut self, pattern: impl Into<String>) -> Self {
        self.pattern = Some(pattern.into());
        self
    }

    /// Set the match deadline (see [`MatchRequest::deadline`]).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set the tier policy.
    pub fn with_tier(mut self, tier: TierPolicy) -> Self {
        self.tier = tier;
        self
    }

    /// Set the byte classifier mode.
    pub fn with_classifier(mut self, classifier: ClassifierMode) -> Self {
        self.classifier = classifier;
        self
    }

    /// Request a `match/request` trace span.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// The governor a match of this request polls: its deadline, whose
    /// clock starts now, and `cancel`.
    pub(crate) fn governor(&self, cancel: Option<sfa_sync::CancelToken>) -> Governor {
        let budget = Budget {
            deadline: self.deadline,
            ..Budget::unlimited()
        };
        Governor::new(&budget, cancel)
    }

    /// Serialize for the wire (see the module docs for field tolerance).
    /// The deadline travels as `"budget": {"deadline_ms": …}`.
    pub fn to_json(&self) -> Value {
        let input = match &self.input {
            InputSource::Symbols(syms) => Value::Object(vec![(
                "symbols".into(),
                Value::Array(syms.iter().map(|&s| Value::Number(s as f64)).collect()),
            )]),
            InputSource::Bytes(bytes) => Value::Object(vec![(
                "bytes".into(),
                Value::Array(bytes.iter().map(|&b| Value::Number(b as f64)).collect()),
            )]),
            InputSource::File(path) => Value::Object(vec![(
                "file".into(),
                Value::String(path.display().to_string()),
            )]),
        };
        Value::Object(vec![
            (
                "pattern".into(),
                match &self.pattern {
                    Some(p) => Value::String(p.clone()),
                    None => Value::Null,
                },
            ),
            ("input".into(), input),
            (
                "budget".into(),
                Value::Object(vec![(
                    "deadline_ms".into(),
                    match self.deadline {
                        Some(d) => Value::Number(d.as_secs_f64() * 1e3),
                        None => Value::Null,
                    },
                )]),
            ),
            ("tier".into(), Value::String(self.tier.as_str().into())),
            (
                "classifier".into(),
                Value::String(self.classifier.as_str().into()),
            ),
            ("trace".into(), Value::Bool(self.trace)),
        ])
    }

    /// Decode from the wire. Unknown fields are ignored, including
    /// `budget` keys other than `deadline_ms`; missing fields take their
    /// defaults; a missing/invalid `input` is an error (a request without
    /// input is meaningless). `{"text": "..."}` is accepted as an
    /// ergonomic alias for a byte input.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let input_v = v.get("input").ok_or("request is missing \"input\"")?;
        let input = if let Some(syms) = input_v.get("symbols") {
            InputSource::Symbols(number_array(syms, "input.symbols")?)
        } else if let Some(bytes) = input_v.get("bytes") {
            InputSource::Bytes(number_array(bytes, "input.bytes")?)
        } else if let Some(text) = input_v.get("text") {
            let s = text.as_str().ok_or("input.text must be a string")?;
            InputSource::Bytes(s.as_bytes().to_vec())
        } else if let Some(file) = input_v.get("file") {
            let s = file.as_str().ok_or("input.file must be a string")?;
            InputSource::File(PathBuf::from(s))
        } else {
            return Err("input must have one of symbols/bytes/text/file".into());
        };
        let mut req = Self::with_input(input);
        if let Some(p) = v.get("pattern").and_then(Value::as_str) {
            req.pattern = Some(p.to_string());
        }
        if let Some(ms) = v
            .get("budget")
            .and_then(|b| b.get("deadline_ms"))
            .and_then(Value::as_f64)
        {
            if !ms.is_finite() || ms < 0.0 {
                return Err("budget.deadline_ms must be a non-negative finite number".into());
            }
            req.deadline = Some(Duration::from_secs_f64(ms / 1e3));
        }
        if let Some(t) = v.get("tier") {
            let s = t.as_str().ok_or("tier must be a string")?;
            req.tier = TierPolicy::parse(s).ok_or("unknown tier policy")?;
        }
        if let Some(c) = v.get("classifier") {
            let s = c.as_str().ok_or("classifier must be a string")?;
            req.classifier = ClassifierMode::parse(s).ok_or("unknown classifier mode")?;
        }
        if let Some(t) = v.get("trace").and_then(Value::as_bool) {
            req.trace = t;
        }
        Ok(req)
    }
}

/// One answered match query — verdict, serving tier, telemetry, and
/// (when a lower tier answered) why the engine degraded.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct MatchOutcome {
    /// The accept decision — identical on every tier by the SFA
    /// construction, so degradation never changes this field.
    pub verdict: bool,
    /// The tier that served the query.
    pub tier: MatchTier,
    /// Full per-match telemetry.
    pub stats: MatchStats,
    /// Why the query was served below the full tier (rendered from the
    /// engine's last governance error), `None` on the full tier.
    pub degraded: Option<String>,
}

impl MatchOutcome {
    /// An outcome from a verdict and its stats (tier is read from the
    /// stats).
    pub fn new(verdict: bool, stats: MatchStats) -> Self {
        MatchOutcome {
            verdict,
            tier: stats.tier,
            stats,
            degraded: None,
        }
    }

    /// Attach the degradation reason.
    pub fn with_degraded(mut self, reason: impl Into<String>) -> Self {
        self.degraded = Some(reason.into());
        self
    }

    /// Serialize for the wire. `elapsed_secs` and `throughput_bps` are
    /// floats; `sfa-json` renders any non-finite value as `null`, which
    /// [`Self::from_json`] tolerates.
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("verdict".into(), Value::Bool(self.verdict)),
            ("tier".into(), Value::String(self.tier.to_string())),
            (
                "stats".into(),
                Value::Object(vec![
                    ("blocks".into(), Value::Number(self.stats.blocks as f64)),
                    ("chunks".into(), Value::Number(self.stats.chunks as f64)),
                    ("bytes".into(), Value::Number(self.stats.bytes as f64)),
                    (
                        "elapsed_secs".into(),
                        Value::Number(self.stats.elapsed.as_secs_f64()),
                    ),
                    (
                        "queue_depth".into(),
                        Value::Number(self.stats.queue_depth as f64),
                    ),
                    ("retries".into(), Value::Number(self.stats.retries as f64)),
                    (
                        "mispredicts".into(),
                        Value::Number(self.stats.mispredicts as f64),
                    ),
                    ("reruns".into(), Value::Number(self.stats.reruns as f64)),
                    (
                        "state_visits".into(),
                        Value::Number(self.stats.state_visits as f64),
                    ),
                    (
                        "throughput_bps".into(),
                        Value::Number(self.stats.bytes_per_sec()),
                    ),
                    ("untimed".into(), Value::Bool(self.stats.untimed())),
                ]),
            ),
            (
                "degraded".into(),
                match &self.degraded {
                    Some(r) => Value::String(r.clone()),
                    None => Value::Null,
                },
            ),
        ])
    }

    /// Decode from the wire. Unknown fields are ignored; numeric stats
    /// that are missing, `null`, or non-finite decode as zero (derived
    /// fields like `throughput_bps` are recomputed, not stored).
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let verdict = v
            .get("verdict")
            .and_then(Value::as_bool)
            .ok_or("outcome is missing \"verdict\"")?;
        let tier = match v.get("tier").and_then(Value::as_str) {
            Some("full") => MatchTier::FullSfa,
            Some("lazy") => MatchTier::LazySfa,
            Some("pruned") => MatchTier::PrunedSfa,
            Some("speculative") => MatchTier::Speculative,
            Some("sequential") | None => MatchTier::Sequential,
            Some(_) => return Err("unknown tier".into()),
        };
        let mut stats = MatchStats {
            tier,
            ..MatchStats::default()
        };
        if let Some(s) = v.get("stats") {
            stats.blocks = u64_field(s, "blocks");
            stats.chunks = u64_field(s, "chunks");
            stats.bytes = u64_field(s, "bytes");
            stats.queue_depth = u64_field(s, "queue_depth") as usize;
            stats.retries = u64_field(s, "retries");
            stats.mispredicts = u64_field(s, "mispredicts");
            stats.reruns = u64_field(s, "reruns");
            stats.state_visits = u64_field(s, "state_visits");
            let secs = s
                .get("elapsed_secs")
                .and_then(Value::as_f64)
                .filter(|f| f.is_finite() && *f >= 0.0)
                .unwrap_or(0.0);
            stats.elapsed = Duration::from_secs_f64(secs.min(u32::MAX as f64));
        }
        let degraded = v
            .get("degraded")
            .and_then(Value::as_str)
            .map(str::to_string);
        Ok(MatchOutcome {
            verdict,
            tier,
            stats,
            degraded,
        })
    }
}

fn u64_field(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_f64)
        .filter(|f| f.is_finite() && *f >= 0.0)
        .unwrap_or(0.0) as u64
}

fn number_array(v: &Value, what: &str) -> Result<Vec<u8>, String> {
    match v {
        Value::Array(items) => items
            .iter()
            .map(|item| {
                item.as_f64()
                    .filter(|f| f.is_finite() && (0.0..=255.0).contains(f) && f.fract() == 0.0)
                    .map(|f| f as u8)
                    .ok_or_else(|| format!("{what} entries must be integers in 0..=255"))
            })
            .collect(),
        _ => Err(format!("{what} must be an array")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_round_trip() {
        let req = MatchRequest::bytes(b"MKVARG".to_vec())
            .with_pattern("abcd1234")
            .with_deadline(Duration::from_millis(250))
            .with_tier(TierPolicy::RequireFull)
            .with_classifier(ClassifierMode::SkipWhitespace)
            .with_trace(true);
        let text = sfa_json::to_string(&req.to_json());
        let back = MatchRequest::from_json(&sfa_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn text_alias_and_unknown_fields_tolerated() {
        let v = sfa_json::from_str(
            r#"{"input": {"text": "RGD"}, "tier": "sequential",
                "some_future_field": {"nested": [1,2,3]}, "other": null}"#,
        )
        .unwrap();
        let req = MatchRequest::from_json(&v).unwrap();
        assert_eq!(req.input, InputSource::Bytes(b"RGD".to_vec()));
        assert_eq!(req.tier, TierPolicy::Sequential);
        assert_eq!(req.classifier, ClassifierMode::Strict);
        assert_eq!(req.deadline, None);
    }

    #[test]
    fn budget_keys_other_than_the_deadline_are_ignored() {
        // A client that still sends the construction axes of a budget
        // gets its request served with the deadline alone.
        let v = sfa_json::from_str(
            r#"{"input": {"text": "RGD"},
                "budget": {"deadline_ms": 40, "max_states": 3,
                           "max_payload_bytes": 0}}"#,
        )
        .unwrap();
        assert_eq!(
            MatchRequest::from_json(&v).unwrap(),
            MatchRequest::text("RGD").with_deadline(Duration::from_millis(40))
        );
    }

    #[test]
    fn missing_input_is_rejected() {
        let v = sfa_json::from_str(r#"{"tier": "auto"}"#).unwrap();
        assert!(MatchRequest::from_json(&v).is_err());
        let v = sfa_json::from_str(r#"{"input": {"bytes": [1, 999]}}"#).unwrap();
        assert!(MatchRequest::from_json(&v).is_err());
    }

    #[test]
    fn outcome_round_trip_and_null_float_tolerance() {
        let stats = MatchStats {
            tier: MatchTier::FullSfa,
            blocks: 3,
            chunks: 12,
            bytes: 1 << 20,
            elapsed: Duration::from_micros(750),
            queue_depth: 2,
            retries: 1,
            mispredicts: 5,
            reruns: 4,
            state_visits: 11,
            ..MatchStats::default()
        };
        let out = MatchOutcome::new(true, stats).with_degraded("test reason");
        let text = sfa_json::to_string(&out.to_json());
        let back = MatchOutcome::from_json(&sfa_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back.verdict, out.verdict);
        assert_eq!(back.tier, MatchTier::FullSfa);
        assert_eq!(back.stats.bytes, out.stats.bytes);
        assert_eq!(back.stats.elapsed, out.stats.elapsed);
        assert_eq!(back.stats.mispredicts, 5);
        assert_eq!(back.stats.reruns, 4);
        assert_eq!(back.stats.state_visits, 11);
        assert_eq!(back.degraded.as_deref(), Some("test reason"));

        // Non-finite floats render as null on the wire; decoding
        // tolerates that (and any other null/missing numeric).
        let v = sfa_json::from_str(
            r#"{"verdict": false, "tier": "lazy",
                "stats": {"bytes": 7, "elapsed_secs": null}}"#,
        )
        .unwrap();
        let lenient = MatchOutcome::from_json(&v).unwrap();
        assert!(!lenient.verdict);
        assert_eq!(lenient.tier, MatchTier::LazySfa);
        assert_eq!(lenient.stats.bytes, 7);
        assert_eq!(lenient.stats.elapsed, Duration::ZERO);
    }

    #[test]
    fn speculative_tier_round_trips_on_the_wire() {
        let req = MatchRequest::text("RGD").with_tier(TierPolicy::Speculative);
        let text = sfa_json::to_string(&req.to_json());
        let back = MatchRequest::from_json(&sfa_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back.tier, TierPolicy::Speculative);

        for (name, tier) in [
            ("pruned", MatchTier::PrunedSfa),
            ("speculative", MatchTier::Speculative),
        ] {
            let stats = MatchStats {
                tier,
                mispredicts: 2,
                reruns: 2,
                ..MatchStats::default()
            };
            let out = MatchOutcome::new(false, stats);
            let wire = sfa_json::to_string(&out.to_json());
            assert!(wire.contains(name), "tier {name} missing from {wire}");
            let back = MatchOutcome::from_json(&sfa_json::from_str(&wire).unwrap()).unwrap();
            assert_eq!(back.tier, tier);
            assert_eq!(back.stats.mispredicts, 2);
        }
    }
}
