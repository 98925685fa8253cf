//! The metrics registry: typed counters, gauges, and log₂ histograms.
//!
//! Handles are backed by atomics. Counters are sharded across
//! [`CachePadded`] cells indexed by a per-thread slot (merged on
//! scrape), so concurrent increments never contend on one cache line —
//! the same false-sharing discipline `sfa_sync` applies to its queues.
//!
//! Metric names follow `sfa_<subsystem>_<name>_<unit>` (DESIGN.md §12).

use crate::snapshot::{HistogramSnapshot, MetricsSnapshot};
use sfa_sync::CachePadded;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Fixed bucket count of every [`Histogram`]: one log₂ bucket per `u64`
/// bit, so any value lands in `buckets[value.max(1).ilog2()]`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// The process-wide registry that `Lazy*` hot-path statics register in
/// and the CLI's `--metrics-out` scrapes.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Shards per counter. Enough that a machine-full of workers rarely
/// collides on a line; small enough that a counter stays ~1 KiB.
const SHARDS: usize = 8;

/// Process-wide runtime kill switch (the `obs-overhead` benchmark's
/// A/B lever). Recording defaults to on.
static RECORDING: AtomicBool = AtomicBool::new(true);

/// Is metric recording currently enabled?
#[inline]
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Toggle metric recording at runtime (scrapes still work while off).
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// Stable per-thread shard slot, assigned on first use.
#[inline]
fn shard_index() -> usize {
    use std::cell::Cell;
    thread_local! {
        static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SLOT.with(|slot| {
        let mut ix = slot.get();
        if ix == usize::MAX {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            ix = NEXT.fetch_add(1, Ordering::Relaxed);
            slot.set(ix);
        }
        ix % SHARDS
    })
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A monotonic counter, thread-sharded; merge happens on scrape.
#[derive(Debug, Clone)]
pub struct Counter {
    shards: Arc<[CachePadded<AtomicU64>; SHARDS]>,
}

impl Counter {
    fn new_unregistered() -> Self {
        Counter {
            shards: Arc::new(std::array::from_fn(|_| CachePadded::new(AtomicU64::new(0)))),
        }
    }

    /// Add `n` (no-op while recording is off).
    #[inline]
    pub fn add(&self, n: u64) {
        if !recording() {
            return;
        }
        self.shards[shard_index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Merged value across all shards.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }
}

/// A last-write-wins signed gauge.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<CachePadded<AtomicU64>>,
}

impl Gauge {
    fn new_unregistered() -> Self {
        Gauge {
            cell: Arc::new(CachePadded::new(AtomicU64::new(0))),
        }
    }

    /// Set the gauge (no-op while recording is off).
    #[inline]
    pub fn set(&self, v: i64) {
        if !recording() {
            return;
        }
        self.cell.store(v as u64, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        if !recording() {
            return;
        }
        self.cell.fetch_add(delta as u64, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.cell.load(Ordering::Relaxed) as i64
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [CachePadded<AtomicU64>; HISTOGRAM_BUCKETS],
    count: CachePadded<AtomicU64>,
    sum: CachePadded<AtomicU64>,
}

/// A fixed-bucket log₂ histogram: bucket `i` counts observations in
/// `[2^i, 2^(i+1) - 1]` (bucket 0 also takes 0). Designed for
/// nanosecond latencies, where power-of-two resolution is plenty and
/// recording stays a single `fetch_add`.
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    fn new_unregistered() -> Self {
        Histogram {
            core: Arc::new(HistogramCore {
                buckets: std::array::from_fn(|_| CachePadded::new(AtomicU64::new(0))),
                count: CachePadded::new(AtomicU64::new(0)),
                sum: CachePadded::new(AtomicU64::new(0)),
            }),
        }
    }

    /// Record one observation (no-op while recording is off).
    #[inline]
    pub fn observe(&self, value: u64) {
        if !recording() {
            return;
        }
        let bucket = value.max(1).ilog2() as usize;
        self.core.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Record a duration in nanoseconds.
    #[inline]
    pub fn observe_nanos(&self, d: std::time::Duration) {
        self.observe(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Merged snapshot of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.core.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                let bound = if i + 1 >= 64 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                buckets.push((bound, n));
            }
        }
        HistogramSnapshot {
            count: self.core.count.load(Ordering::Relaxed),
            sum: self.core.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named collection of metrics. Cheap to clone (shared `Arc`);
/// registration is idempotent — asking for an existing name returns
/// a handle to the same metric. Registering a name as two different
/// types is a programming error and panics.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl MetricsRegistry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or look up) a counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = lock_unpoisoned(&self.metrics);
        let metric = map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new_unregistered()));
        match metric {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Register (or look up) a gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = lock_unpoisoned(&self.metrics);
        let metric = map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new_unregistered()));
        match metric {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Register (or look up) a histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = lock_unpoisoned(&self.metrics);
        let metric = map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new_unregistered()));
        match metric {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Scrape: merge every metric's shards into an immutable
    /// [`MetricsSnapshot`], sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = lock_unpoisoned(&self.metrics);
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push((name.clone(), c.value())),
                Metric::Gauge(g) => snap.gauges.push((name.clone(), g.value())),
                Metric::Histogram(h) => snap.histograms.push((name.clone(), h.snapshot())),
            }
        }
        snap
    }
}

/// `const`-constructible counter handle for hot-path statics;
/// registers in [`global()`] on first use.
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<Counter>,
}

impl LazyCounter {
    /// A handle for the global counter `name` (not yet registered).
    pub const fn new(name: &'static str) -> Self {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    #[inline]
    fn handle(&self) -> &Counter {
        self.cell.get_or_init(|| global().counter(self.name))
    }

    /// Add `n` to the global counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.handle().add(n);
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
}

/// `const`-constructible gauge handle (see [`LazyCounter`]).
pub struct LazyGauge {
    name: &'static str,
    cell: OnceLock<Gauge>,
}

impl LazyGauge {
    /// A handle for the global gauge `name` (not yet registered).
    pub const fn new(name: &'static str) -> Self {
        LazyGauge {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Set the global gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.get_or_init(|| global().gauge(self.name)).set(v);
    }
}

/// `const`-constructible histogram handle (see [`LazyCounter`]).
pub struct LazyHistogram {
    name: &'static str,
    cell: OnceLock<Histogram>,
}

impl LazyHistogram {
    /// A handle for the global histogram `name` (not yet registered).
    pub const fn new(name: &'static str) -> Self {
        LazyHistogram {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Record one observation in the global histogram.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.cell
            .get_or_init(|| global().histogram(self.name))
            .observe(value);
    }
}

/// A started timer that reports into a [`LazyHistogram`] — the
/// hot-path timing primitive. Takes **no timestamp** when recording
/// is off, so wrapping a block in a stopwatch costs nothing unless
/// metrics are live.
#[must_use = "a stopwatch records nothing unless `record` is called"]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Start timing (no-op value when recording is off).
    #[inline]
    pub fn start() -> Self {
        Stopwatch(if recording() {
            Some(Instant::now())
        } else {
            None
        })
    }

    /// Record the elapsed nanoseconds into `hist`.
    #[inline]
    pub fn record(self, hist: &LazyHistogram) {
        if let Some(t0) = self.0 {
            hist.observe(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{recording_exclusive, recording_on};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn counters_merge_across_threads() {
        let _on = recording_on();
        let reg = MetricsRegistry::new();
        let c = reg.counter("sfa_test_ops_total");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 8000);
        assert_eq!(reg.snapshot().counter("sfa_test_ops_total"), Some(8000));
    }

    #[test]
    fn gauge_set_and_add() {
        let _on = recording_on();
        let reg = MetricsRegistry::new();
        let g = reg.gauge("sfa_test_depth");
        g.set(10);
        g.add(-3);
        assert_eq!(g.value(), 7);
        assert_eq!(reg.snapshot().gauge("sfa_test_depth"), Some(7));
    }

    #[test]
    fn histogram_log2_bucketing() {
        let _on = recording_on();
        let reg = MetricsRegistry::new();
        let h = reg.histogram("sfa_test_nanos");
        for v in [0u64, 1, 2, 3, 1024, u64::MAX] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 6);
        // 0 and 1 share bucket 0 (bound 1); 2 and 3 share bucket 1
        // (bound 3); 1024 is bucket 10 (bound 2047); u64::MAX is the
        // last bucket (bound u64::MAX).
        assert_eq!(snap.buckets, vec![(1, 2), (3, 2), (2047, 1), (u64::MAX, 1)]);
        assert_eq!(
            snap.sum,
            0u64.wrapping_add(1 + 2 + 3 + 1024).wrapping_add(u64::MAX)
        );
    }

    #[test]
    fn registration_is_idempotent() {
        let _on = recording_on();
        let reg = MetricsRegistry::new();
        reg.counter("sfa_test_total").add(1);
        reg.counter("sfa_test_total").add(2);
        assert_eq!(reg.snapshot().counter("sfa_test_total"), Some(3));
        assert_eq!(reg.snapshot().counters.len(), 1);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_conflicts_panic() {
        let reg = MetricsRegistry::new();
        reg.counter("sfa_test_conflict");
        reg.gauge("sfa_test_conflict");
    }

    #[test]
    fn runtime_toggle_gates_recording() {
        let _exclusive = recording_exclusive();
        let reg = MetricsRegistry::new();
        let c = reg.counter("sfa_test_toggle_total");
        // The toggle is process-global; restore it even on panic.
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                set_recording(true);
            }
        }
        let _restore = Restore;
        set_recording(false);
        c.add(100);
        assert_eq!(c.value(), 0);
        set_recording(true);
        c.add(5);
        assert_eq!(c.value(), 5);
    }

    #[test]
    fn lazy_handles_register_globally() {
        let _on = recording_on();
        static LAZY: LazyCounter = LazyCounter::new("sfa_test_lazy_total");
        let before = global().snapshot().counter("sfa_test_lazy_total");
        LAZY.add(2);
        LAZY.inc();
        let after = global().snapshot().counter("sfa_test_lazy_total").unwrap();
        assert_eq!(after - before.unwrap_or(0), 3);
    }

    #[test]
    fn stopwatch_records_into_histogram() {
        let _on = recording_on();
        static HIST: LazyHistogram = LazyHistogram::new("sfa_test_watch_nanos");
        let shared = Arc::new(AtomicU64::new(0));
        let w = Stopwatch::start();
        shared.fetch_add(1, Ordering::Relaxed);
        w.record(&HIST);
        let snap = global().snapshot();
        assert!(snap.histogram("sfa_test_watch_nanos").unwrap().count >= 1);
    }
}
