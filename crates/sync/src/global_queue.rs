//! The start-up-phase global work queue (§III-B2).
//!
//! "In the initial stage of the SFA construction algorithm, threads will
//! work on a single global queue. […] With our global queue, work is
//! statically allocated: threads use their thread ID to index into the
//! queue and de-queue work from the front. To en-queue work, threads use
//! a CAS operation to synchronize on the current back-position."
//!
//! The queue is a non-circular ticket queue over `u32` work items (SFA
//! state ids): `back` reserves write slots, `front` hands out read
//! tickets, and a slot whose writer has not finished is spun on briefly.
//! Capacity equals the start-up threshold (after which workers switch to
//! their thread-local deques), so wrap-around is unnecessary — a full
//! queue *is* the signal to switch.

use crate::backoff::Backoff;
use crate::counters::ContentionCounters;
use crate::padded::CachePadded;
use crate::NIL;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Bounded, non-circular, lock-free MPMC ticket queue; see module docs.
pub struct GlobalQueue {
    slots: Box<[AtomicU32]>,
    back: CachePadded<AtomicUsize>,
    front: CachePadded<AtomicUsize>,
    counters: ContentionCounters,
}

/// Result of [`GlobalQueue::enqueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    /// Item stored.
    Ok,
    /// Queue filled to capacity — caller should switch to local queues.
    Full,
}

impl GlobalQueue {
    /// Queue with room for `capacity` items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        GlobalQueue {
            slots: (0..capacity).map(|_| AtomicU32::new(NIL)).collect(),
            back: CachePadded::new(AtomicUsize::new(0)),
            front: CachePadded::new(AtomicUsize::new(0)),
            counters: ContentionCounters::new(),
        }
    }

    /// Capacity (the phase-switch threshold).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Enqueue `item` (must not be [`NIL`], which marks empty slots).
    pub fn enqueue(&self, item: u32) -> Enqueue {
        debug_assert_ne!(item, NIL, "NIL is reserved as the empty marker");
        let mut backoff = Backoff::new();
        loop {
            let b = self.back.load(Ordering::Relaxed);
            if b >= self.slots.len() {
                return Enqueue::Full;
            }
            match self
                .back
                .compare_exchange_weak(b, b + 1, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.counters.cas_success();
                    self.slots[b].store(item, Ordering::Release);
                    self.counters.enqueue();
                    return Enqueue::Ok;
                }
                Err(_) => {
                    self.counters.cas_failure();
                    backoff.spin();
                }
            }
        }
    }

    /// Dequeue one item, or `None` when every enqueued item has been
    /// claimed. Spins briefly when the claimed slot's writer is mid-store.
    pub fn dequeue(&self) -> Option<u32> {
        let mut backoff = Backoff::new();
        loop {
            let f = self.front.load(Ordering::Relaxed);
            let b = self.back.load(Ordering::Acquire);
            if f >= b.min(self.slots.len()) {
                return None;
            }
            match self
                .front
                .compare_exchange_weak(f, f + 1, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.counters.cas_success();
                    // The writer reserved slot f before we saw back > f,
                    // but its store may not have landed yet.
                    let mut spin = Backoff::new();
                    loop {
                        let v = self.slots[f].load(Ordering::Acquire);
                        if v != NIL {
                            self.counters.dequeue();
                            return Some(v);
                        }
                        spin.spin();
                    }
                }
                Err(_) => {
                    self.counters.cas_failure();
                    backoff.spin();
                }
            }
        }
    }

    /// Number of items currently enqueued but not yet claimed.
    pub fn pending(&self) -> usize {
        let b = self.back.load(Ordering::Acquire).min(self.slots.len());
        let f = self.front.load(Ordering::Acquire);
        b.saturating_sub(f)
    }

    /// Total items ever enqueued (clamped to capacity).
    pub fn total_enqueued(&self) -> usize {
        self.back.load(Ordering::Acquire).min(self.slots.len())
    }

    /// Contention counters for experiment E4.
    pub fn counters(&self) -> &ContentionCounters {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn fifo_single_thread() {
        let q = GlobalQueue::new(16);
        for i in 0..10 {
            assert_eq!(q.enqueue(i), Enqueue::Ok);
        }
        assert_eq!(q.pending(), 10);
        for i in 0..10 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn fills_then_reports_full() {
        let q = GlobalQueue::new(4);
        for i in 0..4 {
            assert_eq!(q.enqueue(i), Enqueue::Ok);
        }
        assert_eq!(q.enqueue(99), Enqueue::Full);
        assert_eq!(q.total_enqueued(), 4);
        // Items remain consumable after Full.
        assert_eq!(q.dequeue(), Some(0));
    }

    #[test]
    fn interleaved_enqueue_dequeue() {
        let q = GlobalQueue::new(8);
        q.enqueue(1);
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), None);
        q.enqueue(2);
        q.enqueue(3);
        assert_eq!(q.dequeue(), Some(2));
        q.enqueue(4);
        assert_eq!(q.dequeue(), Some(3));
        assert_eq!(q.dequeue(), Some(4));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn concurrent_producers_consumers_lose_nothing() {
        let n_items = 4_000u32;
        let q = Arc::new(GlobalQueue::new(n_items as usize));
        let producers = 4;
        let consumers = 4;
        let per = n_items / producers;

        // Consumers stop once the producers are done and the queue is
        // empty; a fixed number of empty polls gave up early whenever a
        // producer was not scheduled in time on a loaded host.
        let done = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for p in 0..producers {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    assert_eq!(q.enqueue(p * per + i), Enqueue::Ok);
                }
            }));
        }
        let mut consumed: Vec<std::thread::JoinHandle<Vec<u32>>> = Vec::new();
        for _ in 0..consumers {
            let q = q.clone();
            let done = done.clone();
            consumed.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                loop {
                    // Read `done` before polling: an empty queue after
                    // the producers finished is empty for good.
                    let finished = done.load(Ordering::Acquire);
                    match q.dequeue() {
                        Some(v) => got.push(v),
                        None if finished => break,
                        None => std::thread::yield_now(),
                    }
                }
                got
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        done.store(true, Ordering::Release);
        let mut all: Vec<u32> = consumed
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<u32> = (0..n_items).collect();
        assert_eq!(all, expected, "every item consumed exactly once");
    }
}
