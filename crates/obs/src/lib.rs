//! Structured observability for the SFA stack: spans, metrics,
//! Prometheus/JSON export.
//!
//! The paper's entire evaluation (§IV) is an observability exercise —
//! per-phase construction timings, duplicate/collision rates,
//! queue-contention counters. This crate gives those numbers one
//! substrate instead of three ad-hoc structs:
//!
//! * [`span!`]/[`event!`] — named timing spans and point events delivered
//!   to a pluggable [`Subscriber`] (a `tracing`-shaped API with an
//!   in-repo ring-buffer collector, [`RingSubscriber`]).
//! * [`MetricsRegistry`] — typed [`Counter`]s (lock-free thread-sharded,
//!   merged on scrape), [`Gauge`]s, and fixed-bucket log₂ latency
//!   [`Histogram`]s. [`LazyCounter`]/[`LazyGauge`]/[`LazyHistogram`] are
//!   `const`-constructible handles for hot-path statics that register in
//!   the process-wide [`global()`] registry on first use.
//! * [`export`] — Prometheus text format and JSON (via `sfa_json`)
//!   renderers over an immutable [`MetricsSnapshot`], plus a small
//!   Prometheus parser for round-trip tests and `sfa metrics`.
//!
//! # One build, one off switch
//!
//! The recording machinery is always compiled in. [`set_recording`]
//! turns metric recording off at runtime (one relaxed atomic load on the
//! fast path) — this is what the `reproduce obs-overhead` A/B benchmark
//! flips.
//!
//! Spans are cheaper still: a [`span!`] guard takes no timestamp at all
//! unless a subscriber is currently installed ([`subscribe`]).

pub mod bridge;
pub mod export;
pub mod registry;
pub mod snapshot;
pub mod subscriber;

/// The JSON substrate [`export::to_json`] renders into, re-exported so
/// downstream tests and tools can serialize/parse without a direct
/// `sfa_json` dependency.
pub use sfa_json as json;

pub use registry::{
    global, recording, set_recording, Counter, Gauge, Histogram, LazyCounter, LazyGauge,
    LazyHistogram, MetricsRegistry, Stopwatch, HISTOGRAM_BUCKETS,
};
pub use snapshot::{HistogramSnapshot, MetricsSnapshot};
pub use subscriber::{
    report_event, report_span, span, subscribe, subscriber_installed, EventRecord, RingSubscriber,
    SpanGuard, SpanRecord, Subscriber, SubscriberGuard,
};

/// Start a named timing span; the returned guard reports the elapsed
/// time to the installed [`Subscriber`] on drop. Inert (no timestamp
/// taken) unless a subscriber is installed.
///
/// ```
/// let _guard = sfa_obs::span!("scan/chunk_pass");
/// // ... timed work ...
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Report a named point event to the installed [`Subscriber`]. Inert
/// unless one is installed.
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        $crate::report_event($name)
    };
}

#[cfg(test)]
pub(crate) mod testutil {
    //! The runtime recording flag is process-global. Tests that flip it
    //! take the write side of this lock; tests that merely depend on it
    //! being on take the read side, so the default parallel test runner
    //! never interleaves them.
    use std::sync::{OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

    fn lock() -> &'static RwLock<()> {
        static LOCK: OnceLock<RwLock<()>> = OnceLock::new();
        LOCK.get_or_init(|| RwLock::new(()))
    }

    pub(crate) fn recording_on() -> RwLockReadGuard<'static, ()> {
        lock().read().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn recording_exclusive() -> RwLockWriteGuard<'static, ()> {
        lock().write().unwrap_or_else(PoisonError::into_inner)
    }
}
