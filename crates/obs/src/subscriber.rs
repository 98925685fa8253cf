//! Spans, events, and the pluggable `Subscriber` — the tracing side.
//!
//! The data types ([`SpanRecord`], [`EventRecord`], the [`Subscriber`]
//! trait, [`RingSubscriber`]) let library users hand a subscriber to an
//! `Engine` builder hook and receive per-run spans. The *global* span
//! pipeline ([`subscribe`], [`span`]/[`report_span`]) is armed by
//! installing a subscriber: until one is, a [`span!`](crate::span!)
//! guard takes no timestamp and reporting is one relaxed load.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// One completed timing span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name, `subsystem/what` (see DESIGN.md §12 for the taxonomy).
    pub name: &'static str,
    /// Elapsed wall time in nanoseconds.
    pub nanos: u64,
}

/// One point-in-time event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Event name, `subsystem/what`.
    pub name: &'static str,
}

/// Receives spans and events. Implementations must be cheap and
/// non-blocking — they run inline at the emit site.
pub trait Subscriber: Send + Sync {
    /// A span closed.
    fn on_span(&self, span: &SpanRecord);
    /// An event fired.
    fn on_event(&self, event: &EventRecord);
}

struct Ring {
    spans: VecDeque<SpanRecord>,
    events: VecDeque<EventRecord>,
}

/// The in-repo collector: a bounded ring buffer of the most recent spans
/// and events. Old entries are evicted once `capacity` is exceeded.
pub struct RingSubscriber {
    capacity: usize,
    inner: Mutex<Ring>,
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl RingSubscriber {
    /// A ring holding at most `capacity` spans and `capacity` events.
    pub fn new(capacity: usize) -> Self {
        RingSubscriber {
            capacity: capacity.max(1),
            inner: Mutex::new(Ring {
                spans: VecDeque::new(),
                events: VecDeque::new(),
            }),
        }
    }

    /// Copy of the retained spans, oldest first.
    pub fn spans(&self) -> Vec<SpanRecord> {
        lock_unpoisoned(&self.inner).spans.iter().copied().collect()
    }

    /// Copy of the retained events, oldest first.
    pub fn events(&self) -> Vec<EventRecord> {
        lock_unpoisoned(&self.inner)
            .events
            .iter()
            .copied()
            .collect()
    }

    /// Total nanoseconds across retained spans named `name`.
    pub fn span_nanos(&self, name: &str) -> u64 {
        lock_unpoisoned(&self.inner)
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos)
            .sum()
    }

    /// Drop everything retained so far.
    pub fn clear(&self) {
        let mut ring = lock_unpoisoned(&self.inner);
        ring.spans.clear();
        ring.events.clear();
    }
}

impl Subscriber for RingSubscriber {
    fn on_span(&self, span: &SpanRecord) {
        let mut ring = lock_unpoisoned(&self.inner);
        if ring.spans.len() == self.capacity {
            ring.spans.pop_front();
        }
        ring.spans.push_back(*span);
    }

    fn on_event(&self, event: &EventRecord) {
        let mut ring = lock_unpoisoned(&self.inner);
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
        }
        ring.events.push_back(*event);
    }
}

/// Fast-path flag mirroring whether a subscriber is installed.
static ARMED: AtomicBool = AtomicBool::new(false);

fn installed() -> &'static Mutex<Option<Arc<dyn Subscriber>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<dyn Subscriber>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Serializes installers: two concurrent `subscribe` calls (e.g. two
/// tests) queue instead of clobbering each other's subscriber.
fn arbiter() -> &'static Mutex<()> {
    static ARBITER: OnceLock<Mutex<()>> = OnceLock::new();
    ARBITER.get_or_init(|| Mutex::new(()))
}

/// Keeps the global subscriber installed; uninstalls on drop. Holds the
/// installer arbiter, so at most one subscriber is live at a time and
/// concurrent `subscribe` callers queue.
#[must_use = "dropping the guard immediately uninstalls the subscriber"]
pub struct SubscriberGuard {
    _serial: MutexGuard<'static, ()>,
}

impl Drop for SubscriberGuard {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::SeqCst);
        *lock_unpoisoned(installed()) = None;
    }
}

/// Install `sub` as the process-wide span/event subscriber until the
/// returned guard drops.
pub fn subscribe(sub: Arc<dyn Subscriber>) -> SubscriberGuard {
    let serial = lock_unpoisoned(arbiter());
    *lock_unpoisoned(installed()) = Some(sub);
    ARMED.store(true, Ordering::SeqCst);
    SubscriberGuard { _serial: serial }
}

/// Is a global subscriber currently installed?
#[inline]
pub fn subscriber_installed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Deliver a completed span to the global subscriber, if armed.
#[inline]
pub fn report_span(name: &'static str, nanos: u64) {
    if subscriber_installed() {
        report_span_slow(name, nanos);
    }
}

#[cold]
fn report_span_slow(name: &'static str, nanos: u64) {
    if let Some(sub) = lock_unpoisoned(installed()).as_ref() {
        sub.on_span(&SpanRecord { name, nanos });
    }
}

/// Deliver a point event to the global subscriber, if armed.
#[inline]
pub fn report_event(name: &'static str) {
    if subscriber_installed() {
        report_event_slow(name);
    }
}

#[cold]
fn report_event_slow(name: &'static str) {
    if let Some(sub) = lock_unpoisoned(installed()).as_ref() {
        sub.on_event(&EventRecord { name });
    }
}

/// An open span; reports its elapsed time on drop. See
/// [`span!`](crate::span!).
#[must_use = "the span measures until the guard is dropped"]
pub struct SpanGuard {
    open: Option<(&'static str, Instant)>,
}

/// Start a span named `name` — prefer the [`span!`](crate::span!) macro.
/// Takes a timestamp only when a subscriber is armed.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        open: if subscriber_installed() {
            Some((name, Instant::now()))
        } else {
            None
        },
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((name, t0)) = self.open.take() {
            report_span(name, t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_evicts_oldest() {
        let ring = RingSubscriber::new(2);
        ring.on_span(&SpanRecord {
            name: "a",
            nanos: 1,
        });
        ring.on_span(&SpanRecord {
            name: "b",
            nanos: 2,
        });
        ring.on_span(&SpanRecord {
            name: "c",
            nanos: 3,
        });
        let spans = ring.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "b");
        assert_eq!(spans[1].name, "c");
        ring.on_event(&EventRecord { name: "e1" });
        assert_eq!(ring.events().len(), 1);
        ring.clear();
        assert!(ring.spans().is_empty() && ring.events().is_empty());
    }

    #[test]
    fn span_nanos_sums_by_name() {
        let ring = RingSubscriber::new(8);
        ring.on_span(&SpanRecord {
            name: "x",
            nanos: 5,
        });
        ring.on_span(&SpanRecord {
            name: "y",
            nanos: 7,
        });
        ring.on_span(&SpanRecord {
            name: "x",
            nanos: 6,
        });
        assert_eq!(ring.span_nanos("x"), 11);
        assert_eq!(ring.span_nanos("y"), 7);
        assert_eq!(ring.span_nanos("z"), 0);
    }

    #[test]
    fn global_spans_reach_installed_subscriber() {
        let ring = std::sync::Arc::new(RingSubscriber::new(16));
        {
            let _guard = subscribe(ring.clone());
            assert!(subscriber_installed());
            {
                let _span = crate::span!("test/span");
                std::hint::black_box(0u64);
            }
            crate::event!("test/event");
            report_span("test/direct", 123);
        }
        assert!(!subscriber_installed());
        // After uninstall nothing more is delivered.
        report_span("test/after", 1);
        let spans = ring.spans();
        assert!(spans.iter().any(|s| s.name == "test/span"));
        assert!(spans
            .iter()
            .any(|s| s.name == "test/direct" && s.nanos == 123));
        assert!(!spans.iter().any(|s| s.name == "test/after"));
        assert_eq!(ring.events().len(), 1);
        assert_eq!(ring.events()[0].name, "test/event");
    }
}
