//! Lock-free chained hash table over externally stored entries (§III-A).
//!
//! The paper stores SFA states in a hash table keyed by their fingerprint
//! "modulo the size of the hash-table", resolving both hash- and
//! fingerprint-collisions by chaining ("Our hash-table implementation thus
//! must allow duplicated keys. We store duplicated keys by chaining with
//! linked lists."). Entries themselves (and their chain links) live in the
//! caller's arena; the table owns only the bucket-head array, so one
//! contiguous CAS target per bucket.
//!
//! Insertion is *find-or-insert*: walk the chain comparing entries (the
//! caller's `eq` uses the fingerprint short-circuit + exhaustive compare),
//! and only if absent CAS the candidate at the bucket head. A lost CAS
//! re-walks the newly prepended prefix, so two threads inserting equal
//! states converge on one winner — exactly the duplicate-check the
//! sequential algorithm does at line 8 of Algorithm 1.

use crate::counters::ContentionCounters;
use crate::NIL;
use std::sync::atomic::{AtomicU32, Ordering};

/// Access to the chain-link slot of an entry. Implemented by the caller's
/// entry store (e.g. the SFA state arena).
pub trait Links {
    /// The `next` link slot of entry `id`.
    fn link(&self, id: u32) -> &AtomicU32;
}

/// Outcome of [`ChainedTable::find_or_insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindOrInsert {
    /// An equal entry already existed; its id.
    Found(u32),
    /// The candidate was inserted.
    Inserted,
}

/// Lock-free chained hash table; see module docs.
pub struct ChainedTable {
    buckets: Box<[AtomicU32]>,
    mask: u64,
    counters: ContentionCounters,
}

impl ChainedTable {
    /// Table with at least `min_buckets` buckets (rounded up to a power of
    /// two). The paper sizes this proportional to the expected SFA size.
    pub fn new(min_buckets: usize) -> Self {
        let n = min_buckets.max(16).next_power_of_two();
        ChainedTable {
            buckets: (0..n).map(|_| AtomicU32::new(NIL)).collect(),
            mask: (n - 1) as u64,
            counters: ContentionCounters::new(),
        }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    #[inline]
    fn bucket(&self, fingerprint: u64) -> &AtomicU32 {
        &self.buckets[(fingerprint & self.mask) as usize]
    }

    /// Look up an entry equal to the probe (per `eq`) under `fingerprint`.
    pub fn find<L, F>(&self, fingerprint: u64, links: &L, mut eq: F) -> Option<u32>
    where
        L: Links,
        F: FnMut(u32) -> bool,
    {
        let mut cur = self.bucket(fingerprint).load(Ordering::Acquire);
        while cur != NIL {
            if eq(cur) {
                return Some(cur);
            }
            cur = links.link(cur).load(Ordering::Acquire);
        }
        None
    }

    /// Find an entry equal to `candidate` (per `eq`) or insert `candidate`
    /// at the head of its bucket. `candidate`'s link slot is overwritten.
    ///
    /// `eq(id)` must answer "is existing entry `id` equal to the
    /// candidate?" and must be stable across the call.
    pub fn find_or_insert<L, F>(
        &self,
        fingerprint: u64,
        candidate: u32,
        links: &L,
        mut eq: F,
    ) -> FindOrInsert
    where
        L: Links,
        F: FnMut(u32) -> bool,
    {
        debug_assert_ne!(candidate, NIL);
        let bucket = self.bucket(fingerprint);
        // First pass: walk the whole current chain.
        let mut head = bucket.load(Ordering::Acquire);
        let mut walked_from = head; // everything from here on has been checked
        let mut cur = head;
        loop {
            while cur != NIL {
                if eq(cur) {
                    return FindOrInsert::Found(cur);
                }
                cur = links.link(cur).load(Ordering::Acquire);
            }
            // Not found among entries reachable from `head`: try to insert.
            links.link(candidate).store(head, Ordering::Relaxed);
            match bucket.compare_exchange(head, candidate, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    self.counters.cas_success();
                    self.counters.enqueue();
                    return FindOrInsert::Inserted;
                }
                Err(new_head) => {
                    // Someone prepended entries; only the new prefix
                    // (new_head .. walked_from) is unchecked.
                    self.counters.cas_failure();
                    cur = new_head;
                    head = new_head;
                    // Walk only until the prefix we already examined.
                    let stop = walked_from;
                    walked_from = new_head;
                    let mut p = cur;
                    let mut found = None;
                    while p != stop && p != NIL {
                        if eq(p) {
                            found = Some(p);
                            break;
                        }
                        p = links.link(p).load(Ordering::Acquire);
                    }
                    if let Some(id) = found {
                        return FindOrInsert::Found(id);
                    }
                    // Prefix clean: retry the CAS with the new head. The
                    // outer loop's chain walk is skipped by setting cur=NIL.
                    cur = NIL;
                }
            }
        }
    }

    /// Insert `id` at its bucket head **without** a duplicate check, for
    /// callers that already know every id unique (the SFA store seeding
    /// its start state or a checkpoint's rows). Safe to call concurrently.
    pub fn insert_unchecked<L: Links>(&self, fingerprint: u64, id: u32, links: &L) {
        debug_assert_ne!(id, NIL);
        let bucket = self.bucket(fingerprint);
        let mut head = bucket.load(Ordering::Acquire);
        loop {
            links.link(id).store(head, Ordering::Relaxed);
            match bucket.compare_exchange_weak(head, id, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    self.counters.cas_success();
                    return;
                }
                Err(new_head) => {
                    self.counters.cas_failure();
                    head = new_head;
                }
            }
        }
    }

    /// Iterate the ids stored in every bucket (diagnostics; quiescent
    /// callers only).
    pub fn iter_ids<'a, L: Links>(&'a self, links: &'a L) -> impl Iterator<Item = u32> + 'a {
        self.buckets.iter().flat_map(move |b| {
            let mut cur = b.load(Ordering::Acquire);
            std::iter::from_fn(move || {
                if cur == NIL {
                    None
                } else {
                    let id = cur;
                    cur = links.link(id).load(Ordering::Acquire);
                    Some(id)
                }
            })
        })
    }

    /// Chain-length histogram (diagnostics; quiescent callers only).
    pub fn chain_lengths<L: Links>(&self, links: &L) -> Vec<usize> {
        self.buckets
            .iter()
            .map(|b| {
                let mut len = 0;
                let mut cur = b.load(Ordering::Acquire);
                while cur != NIL {
                    len += 1;
                    cur = links.link(cur).load(Ordering::Acquire);
                }
                len
            })
            .collect()
    }

    /// Contention counters.
    pub fn counters(&self) -> &ContentionCounters {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Arena;
    use std::sync::Arc;

    /// Test entry: a value plus its chain link.
    struct Entry {
        value: u64,
        next: AtomicU32,
    }

    struct Store {
        arena: Arena<Entry>,
    }

    impl Store {
        fn new(cap: usize) -> Self {
            Store {
                arena: Arena::new(cap, 256),
            }
        }
        fn add(&self, value: u64) -> u32 {
            self.arena
                .push(Entry {
                    value,
                    next: AtomicU32::new(NIL),
                })
                .ok()
                .expect("store full")
        }
        fn value(&self, id: u32) -> u64 {
            self.arena.index(id).value
        }
    }

    impl Links for Store {
        fn link(&self, id: u32) -> &AtomicU32 {
            &self.arena.index(id).next
        }
    }

    fn fp(v: u64) -> u64 {
        // Deliberately weak "fingerprint" so tests exercise collisions.
        v % 7
    }

    #[test]
    fn insert_then_find() {
        let store = Store::new(100);
        let table = ChainedTable::new(16);
        let id = store.add(42);
        assert_eq!(
            table.find_or_insert(fp(42), id, &store, |e| store.value(e) == 42),
            FindOrInsert::Inserted
        );
        assert_eq!(
            table.find(fp(42), &store, |e| store.value(e) == 42),
            Some(id)
        );
        assert_eq!(table.find(fp(43), &store, |e| store.value(e) == 43), None);
    }

    #[test]
    fn duplicate_insert_finds_existing() {
        let store = Store::new(100);
        let table = ChainedTable::new(16);
        let a = store.add(42);
        let b = store.add(42);
        assert_eq!(
            table.find_or_insert(fp(42), a, &store, |e| store.value(e) == 42),
            FindOrInsert::Inserted
        );
        assert_eq!(
            table.find_or_insert(fp(42), b, &store, |e| store.value(e) == 42),
            FindOrInsert::Found(a)
        );
    }

    #[test]
    fn colliding_fingerprints_chain() {
        let store = Store::new(100);
        let table = ChainedTable::new(16);
        // 7, 14, 21 share fp()==0 but differ in value: all must insert.
        for v in [7u64, 14, 21] {
            let id = store.add(v);
            assert_eq!(
                table.find_or_insert(fp(v), id, &store, |e| store.value(e) == v),
                FindOrInsert::Inserted
            );
        }
        for v in [7u64, 14, 21] {
            assert!(table.find(fp(v), &store, |e| store.value(e) == v).is_some());
        }
        let lens = table.chain_lengths(&store);
        assert_eq!(lens.iter().sum::<usize>(), 3);
        assert_eq!(*lens.iter().max().unwrap(), 3, "chained in one bucket");
    }

    #[test]
    fn iter_ids_sees_everything() {
        let store = Store::new(100);
        let table = ChainedTable::new(4); // force chains
        for v in 0..50u64 {
            let id = store.add(v);
            table.find_or_insert(fp(v), id, &store, |e| store.value(e) == v);
        }
        let mut values: Vec<u64> = table.iter_ids(&store).map(|id| store.value(id)).collect();
        values.sort_unstable();
        assert_eq!(values, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_find_or_insert_deduplicates() {
        // All threads insert the same 500 values; each value must end up
        // in the table exactly once.
        let store = Arc::new(Store::new(100_000));
        let table = Arc::new(ChainedTable::new(64));
        let threads = 8;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let store = store.clone();
            let table = table.clone();
            handles.push(std::thread::spawn(move || {
                for v in 0..500u64 {
                    let cand = store.add(v);
                    let store2 = &*store;
                    table.find_or_insert(fp(v), cand, store2, |e| store2.value(e) == v);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut values: Vec<u64> = table.iter_ids(&*store).map(|id| store.value(id)).collect();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), 500, "each value exactly once");
        assert_eq!(table.iter_ids(&*store).count(), 500, "no duplicate entries");
    }
}
