//! Memory accounting — the paper's "memory manager" (§III-C).
//!
//! "Once our memory manager detects that the overall memory usage exceeds
//! a critical threshold, it flags the start of our algorithm's compression
//! phase." [`MemoryManager`] tracks the bytes charged for SFA state
//! payloads and raises a one-shot flag when a watermark is crossed. The
//! state store (`crate::state`) is its only owner.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Byte accounting with a one-shot watermark trigger.
#[derive(Debug)]
pub(crate) struct MemoryManager {
    used: AtomicU64,
    peak: AtomicU64,
    limit: Option<u64>,
    tripped: AtomicBool,
}

impl MemoryManager {
    /// Manager with an optional watermark (`None` = never trips).
    pub(crate) fn new(limit_bytes: Option<usize>) -> Self {
        MemoryManager {
            used: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            limit: limit_bytes.map(|b| b as u64),
            tripped: AtomicBool::new(false),
        }
    }

    /// Charge `bytes`; returns `true` exactly once — for the charge that
    /// first crosses the watermark (the caller then initiates the
    /// compression phase).
    pub(crate) fn charge(&self, bytes: usize) -> bool {
        let new = self.used.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
        self.peak.fetch_max(new, Ordering::Relaxed);
        match self.limit {
            Some(limit) if new > limit => !self.tripped.swap(true, Ordering::AcqRel),
            _ => false,
        }
    }

    /// Credit back `bytes` (e.g. after compression shrinks a state).
    pub(crate) fn credit(&self, bytes: usize) {
        self.used.fetch_sub(bytes as u64, Ordering::Relaxed);
    }

    /// Bytes currently accounted.
    pub(crate) fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// High-water mark of accounted bytes.
    pub(crate) fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// The configured watermark, if any.
    pub(crate) fn limit(&self) -> Option<u64> {
        self.limit
    }

    /// Level-triggered companion to the one-shot [`charge`](Self::charge)
    /// edge: is current usage above the watermark *right now*? The state
    /// store polls this to decide whether another spill pass is due — it
    /// goes back to `false` once demotion has credited enough bytes.
    pub(crate) fn over_limit(&self) -> bool {
        match self.limit {
            Some(limit) => self.used() > limit,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_limit_never_trips() {
        let m = MemoryManager::new(None);
        assert!(!m.charge(usize::MAX / 2));
        assert!(!m.over_limit());
    }

    #[test]
    fn trips_exactly_once() {
        let m = MemoryManager::new(Some(100));
        assert!(!m.charge(60));
        assert!(m.charge(60), "first crossing must report true");
        assert!(!m.charge(60), "subsequent charges must not re-trigger");
        assert_eq!(m.used(), 180);
    }

    #[test]
    fn credit_reduces_usage_but_keeps_trip_state() {
        let m = MemoryManager::new(Some(100));
        assert!(m.charge(150));
        m.credit(140);
        assert_eq!(m.used(), 10);
        assert_eq!(m.peak(), 150, "peak must survive credits");
        assert!(!m.charge(140), "trip flag is one-shot by design");
    }

    #[test]
    fn over_limit_is_level_triggered() {
        let m = MemoryManager::new(Some(100));
        assert!(!m.over_limit());
        m.charge(150);
        assert!(m.over_limit());
        m.credit(100);
        assert!(!m.over_limit(), "dropping below the watermark clears it");
        assert!(!m.charge(100), "...but the one-shot edge stays latched");
        assert_eq!(m.limit(), Some(100));
        assert_eq!(MemoryManager::new(None).limit(), None);
        assert!(!MemoryManager::new(None).over_limit());
    }

    #[test]
    fn concurrent_charges_trip_once() {
        let m = std::sync::Arc::new(MemoryManager::new(Some(1000)));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                let mut fired = 0;
                for _ in 0..1000 {
                    if m.charge(10) {
                        fired += 1;
                    }
                }
                fired
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 1, "exactly one thread observes the crossing");
    }
}
