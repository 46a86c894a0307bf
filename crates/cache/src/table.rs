//! The table both caches are rows of: key → one immutable entry, read and
//! replaced under snapshot isolation, evicted least-recently-used to a
//! byte budget.
//!
//! An entry is one value of one [`MvccStore`], so a lookup is a single
//! read-only snapshot and a replacement a single commit: there is no
//! second table to pair it with and nothing a reader can see half of.
//! The LRU stamp is an atomic beside the entry — recency is a hint for
//! eviction, not state a query reads — so a hit writes nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use tdb_storage::mvcc::MvccStore;

use crate::stats::CacheStats;

/// One committed entry, shared by every snapshot that reads it.
pub(crate) struct Row<E> {
    pub entry: E,
    /// Modelled on-SSD footprint, what the budget counts.
    pub bytes: u64,
    last_used: AtomicU64,
}

pub(crate) struct LruTable<K, E> {
    store: MvccStore<K, Arc<Row<E>>>,
    budget_bytes: u64,
    lru_clock: AtomicU64,
    stats: Mutex<CacheStats>,
}

impl<K: Ord + Clone, E> LruTable<K, E> {
    pub fn new(budget_bytes: u64) -> Self {
        Self {
            store: MvccStore::new(),
            budget_bytes,
            lru_clock: AtomicU64::new(1),
            stats: Mutex::new(CacheStats::default()),
        }
    }

    /// Counts `n` events in this cache's statistics and under the
    /// process-wide `metric`.
    pub fn add(&self, metric: &tdb_obs::Counter, n: u64, stat: fn(&mut CacheStats) -> &mut u64) {
        *stat(&mut self.stats.lock()) += n;
        metric.add(n);
    }

    pub fn stats(&self) -> CacheStats {
        *self.stats.lock()
    }

    /// The entry a snapshot taken now reads.
    pub fn get(&self, key: &K) -> Option<Arc<Row<E>>> {
        self.store.begin().get(key)
    }

    /// Stamps `row` most recently used.
    pub fn touch(&self, row: &Row<E>) {
        let now = self.lru_clock.fetch_add(1, Ordering::Relaxed);
        row.last_used.store(now, Ordering::Relaxed);
    }

    /// Stores `entry` under `key` in one commit: it replaces whatever the
    /// key held, and the least recently used other entries go until the
    /// budget holds. Returns `(conflicts, evictions)`.
    ///
    /// A commit conflicts only with another insert, eviction or removal
    /// of the same key — hits write nothing — so after two conflicts a
    /// competitor has just decided this key: the insert is abandoned and
    /// `evictions` is `None`.
    pub fn insert(&self, key: &K, entry: E, bytes: u64) -> (u64, Option<u64>) {
        let row = Arc::new(Row {
            entry,
            bytes,
            last_used: AtomicU64::new(0),
        });
        self.touch(&row);
        for conflicts in 0..2 {
            let mut txn = self.store.begin();
            let mut others = txn.scan();
            others.retain(|(k, _)| k != key);
            others.sort_by_key(|(_, r)| r.last_used.load(Ordering::Relaxed));
            let mut used: u64 = others.iter().map(|(_, r)| r.bytes).sum();
            let mut evictions = 0;
            for (victim, r) in others {
                if used + bytes <= self.budget_bytes {
                    break;
                }
                used -= r.bytes;
                txn.delete(victim);
                evictions += 1;
            }
            txn.put(key.clone(), Arc::clone(&row));
            if txn.commit().is_ok() {
                return (conflicts, Some(evictions));
            }
        }
        (2, None)
    }

    /// Drops `key`'s entry; with `only`, just if it still is that one. A
    /// conflict means a competitor replaced or dropped it first.
    pub fn remove(&self, key: &K, only: Option<&Arc<Row<E>>>) {
        let mut txn = self.store.begin();
        let current = txn.get(key);
        if current.is_some_and(|c| only.is_none_or(|o| Arc::ptr_eq(&c, o))) {
            txn.delete(key.clone());
            let _ = txn.commit();
        }
    }

    /// Drops everything committed before the call.
    pub fn clear(&self) {
        loop {
            let mut txn = self.store.begin();
            for (key, _) in txn.scan() {
                txn.delete(key);
            }
            if txn.commit().is_ok() {
                return;
            }
        }
    }

    /// Budget bytes held by live entries.
    pub fn used_bytes(&self) -> u64 {
        let live = self.store.begin().scan();
        live.iter().map(|(_, r)| r.bytes).sum()
    }

    pub fn len(&self) -> usize {
        self.store.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stamp is the one thing a hit moves; everything else of a row
    /// is what the store's dump compares.
    impl<E> std::fmt::Debug for Row<E> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "Row({:p}, {} B)", self, self.bytes)
        }
    }

    impl<K: std::fmt::Debug, E> LruTable<K, E> {
        /// The whole store: clock and newest table, entries by address.
        pub fn dump(&self) -> String {
            format!("{:?}", self.store)
        }
    }
}
