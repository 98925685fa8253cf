//! `sfa serve` — a long-running multi-tenant match daemon.
//!
//! The library behind the CLI's `serve` subcommand and the
//! `reproduce serve-load` generator:
//!
//! * [`registry`] — patterns loaded from a directory of `<id>.pat`
//!   files, compiled once and keyed by the hex of
//!   [`sfa_core::artifact::dfa_fingerprint`]; constructed SFAs are
//!   cached as `.sfar` artifacts next to the patterns, so a restarted
//!   daemon reloads instead of rebuilding.
//! * [`tenant`] — per-tenant admission: a lifetime byte quota checked
//!   against one atomic accumulator per tenant (a `fetch_add` and a
//!   compare, no lock).
//! * [`proto`] — the wire: `SFA1`-magic length-prefixed JSON frames for
//!   the binary protocol, plus a minimal HTTP/1.1 face (`POST /match`,
//!   `GET /patterns`, `GET /metrics`). Both speak the same
//!   [`MatchRequest`](sfa_core::MatchRequest) /
//!   [`MatchOutcome`](sfa_core::MatchOutcome) JSON as the rest of the
//!   workspace.
//! * [`server`] — the event loop: one worker per core, each with its
//!   own epoll instance (raw syscalls, no external crates); worker 0
//!   owns the listener and deals accepted connections round-robin.
//!   Non-Linux hosts fall back to a thread-per-connection loop with the
//!   same observable behaviour.
//! * [`client`] — a small blocking client for the binary protocol,
//!   used by the load generator and the integration tests.
//!
//! Requests never spawn threads: every match runs on the server's one
//! shared [`MatchRuntime`](sfa_core::MatchRuntime) pool, inline on the
//! worker that read the frame — which is what makes graceful drain
//! trivial (a worker observing shutdown finishes the request it is
//! serving, flushes, and closes).

pub mod client;
pub mod proto;
pub mod registry;
pub mod server;
pub mod tenant;

#[cfg(unix)]
pub mod sys;

use sfa_obs::registry::{LazyCounter, LazyHistogram};
use std::path::PathBuf;

/// Total requests received (binary frames + HTTP `POST /match`).
pub(crate) static REQUESTS_TOTAL: LazyCounter = LazyCounter::new("sfa_serve_requests_total");
/// Requests rejected with a typed error (quota, unknown pattern, …).
pub(crate) static REJECTIONS_TOTAL: LazyCounter = LazyCounter::new("sfa_serve_rejections_total");
/// Frames that failed to decode (bad magic, oversized, invalid JSON).
pub(crate) static BAD_FRAMES_TOTAL: LazyCounter = LazyCounter::new("sfa_serve_bad_frames_total");
/// End-to-end service time of one request, nanoseconds.
pub(crate) static REQUEST_NANOS: LazyHistogram = LazyHistogram::new("sfa_serve_request_nanos");

/// Name of the connections-open gauge (needs `add`, which the lazy
/// handle does not expose, so call sites fetch it from the registry).
pub(crate) const CONNECTIONS_GAUGE: &str = "sfa_serve_connections_open";

/// Daemon configuration, assembled by the CLI or a test harness.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` for an ephemeral port).
    pub listen: String,
    /// Directory of `<id>.pat` pattern files; compiled artifacts are
    /// cached in an `artifacts/` subdirectory.
    pub patterns_dir: PathBuf,
    /// Tenant quotas. Empty means a single `default` unlimited tenant.
    pub tenants: Vec<tenant::TenantSpec>,
    /// Event-loop workers; `0` means one per available core.
    pub workers: usize,
    /// SFA construction state cap per pattern (the builder's
    /// `state_budget`): a pattern whose SFA exceeds it degrades to the
    /// sequential tier instead of failing.
    pub state_budget: u64,
    /// Threads of the shared match pool; `0` means one per core.
    pub match_threads: usize,
}

impl ServeConfig {
    /// A config with the defaults described on each field.
    pub fn new(listen: impl Into<String>, patterns_dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            listen: listen.into(),
            patterns_dir: patterns_dir.into(),
            tenants: Vec::new(),
            workers: 0,
            state_budget: 1 << 20,
            match_threads: 0,
        }
    }

    /// Set the tenant table.
    pub fn with_tenants(mut self, tenants: Vec<tenant::TenantSpec>) -> ServeConfig {
        self.tenants = tenants;
        self
    }

    /// Set the worker count.
    pub fn with_workers(mut self, workers: usize) -> ServeConfig {
        self.workers = workers;
        self
    }

    /// Set the per-pattern construction state budget.
    pub fn with_state_budget(mut self, states: u64) -> ServeConfig {
        self.state_budget = states;
        self
    }

    /// Set the match-pool thread count.
    pub fn with_match_threads(mut self, threads: usize) -> ServeConfig {
        self.match_threads = threads;
        self
    }
}

/// Typed rejection categories carried on the wire (`error.code`) and
/// mapped onto HTTP statuses for the `POST /match` face.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The tenant's cumulative byte quota is exhausted (HTTP 429).
    TenantOverQuota,
    /// The per-request budget fired mid-match (HTTP 429).
    BudgetExceeded,
    /// No pattern under the given id or artifact hash (HTTP 404).
    UnknownPattern,
    /// Malformed envelope/request, unknown tenant, or a `file` input
    /// from the wire (HTTP 400).
    BadRequest,
    /// The daemon is draining after SIGTERM (HTTP 503).
    ShuttingDown,
    /// Unexpected server-side failure (HTTP 500).
    Internal,
}

impl ErrorCode {
    /// Stable wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::TenantOverQuota => "TENANT_OVER_QUOTA",
            ErrorCode::BudgetExceeded => "BUDGET_EXCEEDED",
            ErrorCode::UnknownPattern => "UNKNOWN_PATTERN",
            ErrorCode::BadRequest => "BAD_REQUEST",
            ErrorCode::ShuttingDown => "SHUTTING_DOWN",
            ErrorCode::Internal => "INTERNAL",
        }
    }

    /// The HTTP status the `POST /match` face answers with.
    pub fn http_status(self) -> u16 {
        match self {
            ErrorCode::TenantOverQuota | ErrorCode::BudgetExceeded => 429,
            ErrorCode::UnknownPattern => 404,
            ErrorCode::BadRequest => 400,
            ErrorCode::ShuttingDown => 503,
            ErrorCode::Internal => 500,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed rejection: the wire `error` object in Rust form.
#[derive(Debug, Clone)]
pub struct ServeError {
    /// The category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ServeError {
    /// Construct from a code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ServeError {
        ServeError {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_map_to_http_statuses() {
        assert_eq!(ErrorCode::TenantOverQuota.http_status(), 429);
        assert_eq!(ErrorCode::UnknownPattern.http_status(), 404);
        assert_eq!(ErrorCode::BadRequest.http_status(), 400);
        assert_eq!(ErrorCode::ShuttingDown.http_status(), 503);
        assert_eq!(ErrorCode::Internal.http_status(), 500);
        assert_eq!(ErrorCode::TenantOverQuota.as_str(), "TENANT_OVER_QUOTA");
    }

    #[test]
    fn config_builders() {
        let cfg = ServeConfig::new("127.0.0.1:0", "/tmp/patterns")
            .with_workers(2)
            .with_state_budget(4096)
            .with_match_threads(3);
        assert_eq!(cfg.workers, 2);
        assert_eq!(cfg.state_budget, 4096);
        assert_eq!(cfg.match_threads, 3);
        assert!(cfg.tenants.is_empty());
    }
}
