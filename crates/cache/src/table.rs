//! The table both caches are rows of: key → one immutable entry, read and
//! replaced under one lock, evicted least-recently-used to a byte budget.
//!
//! A row is shared behind an `Arc`, so a lookup clones one pointer under
//! the lock and reads the entry after releasing it: it holds the whole
//! entry, old or new, however long it reads. A replacement swaps the
//! pointer and evicts in the same critical section, so no reader sees the
//! one without the other. The LRU stamp is an atomic beside the entry —
//! recency is a hint for eviction, not state a query reads — so a hit
//! writes nothing else. Rows leaving the table are freed after the lock is
//! released, so dropping a large slab never stalls a lookup.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::stats::CacheStats;

/// One stored entry, shared by every reader that fetched it.
pub(crate) struct Row<E> {
    pub entry: E,
    /// Modelled on-SSD footprint, what the budget counts.
    pub bytes: u64,
    last_used: AtomicU64,
}

pub(crate) struct LruTable<K, E> {
    rows: Mutex<BTreeMap<K, Arc<Row<E>>>>,
    budget_bytes: u64,
    lru_clock: AtomicU64,
    stats: Mutex<CacheStats>,
}

impl<K: Ord + Clone, E> LruTable<K, E> {
    pub fn new(budget_bytes: u64) -> Self {
        Self {
            rows: Mutex::new(BTreeMap::new()),
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

    /// The entry `key` holds now.
    pub fn get(&self, key: &K) -> Option<Arc<Row<E>>> {
        self.rows.lock().get(key).cloned()
    }

    /// Stamps `row` most recently used.
    pub fn touch(&self, row: &Row<E>) {
        let now = self.lru_clock.fetch_add(1, Ordering::Relaxed);
        row.last_used.store(now, Ordering::Relaxed);
    }

    /// Stores `entry` under `key`: it replaces whatever the key held, and
    /// the least recently used other entries go until the budget holds,
    /// all under one lock. Returns how many were evicted.
    pub fn insert(&self, key: &K, entry: E, bytes: u64) -> u64 {
        let row = Arc::new(Row {
            entry,
            bytes,
            last_used: AtomicU64::new(0),
        });
        self.touch(&row);
        let mut rows = self.rows.lock();
        let _replaced = rows.insert(key.clone(), row);
        let mut others: Vec<(u64, u64, &K)> = rows
            .iter()
            .filter(|(k, _)| *k != key)
            .map(|(k, r)| (r.last_used.load(Ordering::Relaxed), r.bytes, k))
            .collect();
        let mut used: u64 = others.iter().map(|&(_, b, _)| b).sum();
        others.sort_unstable_by_key(|&(stamp, _, _)| stamp);
        let mut victims = Vec::new();
        for (_, b, victim) in others {
            if used + bytes <= self.budget_bytes {
                break;
            }
            used -= b;
            victims.push(victim.clone());
        }
        let evicted: Vec<_> = victims.iter().filter_map(|v| rows.remove(v)).collect();
        drop(rows);
        // `_replaced` and `evicted` are freed here, outside the lock
        evicted.len() as u64
    }

    /// Drops `key`'s entry; with `only`, just if it still is that one.
    pub fn remove(&self, key: &K, only: Option<&Arc<Row<E>>>) {
        let mut rows = self.rows.lock();
        let current = rows.get(key);
        if current.is_some_and(|c| only.is_none_or(|o| Arc::ptr_eq(c, o))) {
            let gone = rows.remove(key);
            drop(rows);
            drop(gone);
        }
    }

    /// Drops every entry whose key is `doomed`.
    pub fn remove_where(&self, mut doomed: impl FnMut(&K) -> bool) {
        let mut rows = self.rows.lock();
        let (gone, kept): (BTreeMap<_, _>, _) = std::mem::take(&mut *rows)
            .into_iter()
            .partition(|(k, _)| doomed(k));
        *rows = kept;
        drop(rows);
        drop(gone);
    }

    /// Budget bytes held by live entries.
    pub fn used_bytes(&self) -> u64 {
        self.rows.lock().values().map(|r| r.bytes).sum()
    }

    pub fn len(&self) -> usize {
        self.rows.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stamp is the one thing a hit moves; everything else of a row
    /// is what the table's dump compares.
    impl<E> std::fmt::Debug for Row<E> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "Row({:p}, {} B)", self, self.bytes)
        }
    }

    impl<K: std::fmt::Debug, E> LruTable<K, E> {
        /// The whole table: keys and entries by address.
        pub fn dump(&self) -> String {
            format!("{:?}", *self.rows.lock())
        }
    }

    #[test]
    fn a_replaced_row_lives_exactly_as_long_as_its_reader() {
        let table = LruTable::<u32, Vec<u32>>::new(100);
        table.insert(&1, vec![7; 1000], 60);
        let held = table.get(&1).unwrap();
        // replaced, then the replacement pushed out by budget pressure
        table.insert(&1, vec![8; 1000], 60);
        let replacement = Arc::downgrade(&table.get(&1).unwrap());
        assert_eq!(table.insert(&2, vec![9; 10], 60), 1);
        assert_eq!(table.len(), 1);
        assert!(table.get(&1).is_none());
        // nobody held the replacement: it went with its eviction
        assert!(replacement.upgrade().is_none());
        // the reader still holds its whole entry
        assert_eq!(held.entry, vec![7; 1000]);
        let held_weak = Arc::downgrade(&held);
        drop(held);
        assert!(held_weak.upgrade().is_none());
    }

    #[test]
    fn a_fetched_row_stays_whole_while_writers_replace_it() {
        let table = Arc::new(LruTable::<u32, Vec<u32>>::new(1 << 20));
        table.insert(&1, vec![0; 256], 8);
        let held = table.get(&1).unwrap();
        let writers: Vec<_> = (1..=2u32)
            .map(|t| {
                let table = Arc::clone(&table);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        table.insert(&1, vec![t * 1000 + i; 256], 8);
                    }
                })
            })
            .collect();
        // every fetch during the replacements is one writer's whole entry
        for _ in 0..500 {
            let now = table.get(&1).unwrap();
            assert!(now.entry.iter().all(|&v| v == now.entry[0]));
        }
        for w in writers {
            w.join().unwrap();
        }
        // the row fetched before them is unchanged; a new fetch sees a
        // writer's last entry
        assert_eq!(held.entry, vec![0; 256]);
        let last = table.get(&1).unwrap().entry[0];
        assert!(last == 1499 || last == 2499, "{last}");
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn overwrites_with_no_reader_leave_one_row() {
        let table = LruTable::<u32, u32>::new(1 << 20);
        table.insert(&0, 0, 8);
        let first = Arc::downgrade(&table.get(&0).unwrap());
        for i in 1..10_000 {
            table.insert(&0, i, 8);
        }
        assert!(first.upgrade().is_none());
        let last = table.get(&0).unwrap();
        // the table's reference and this one: nothing else kept it
        assert_eq!(
            (table.len(), last.entry, Arc::strong_count(&last)),
            (1, 9_999, 2)
        );
    }

    #[test]
    fn concurrent_inserts_from_threads_all_land() {
        // room for 100 rows of 8 B; 4 × 250 distinct keys
        let table = Arc::new(LruTable::<u32, u32>::new(800));
        let writers: Vec<_> = (0..4u32)
            .map(|t| {
                let table = Arc::clone(&table);
                std::thread::spawn(move || {
                    (0..250)
                        .map(|i| table.insert(&(t * 250 + i), i, 8))
                        .sum::<u64>()
                })
            })
            .collect();
        let evictions: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(
            (table.len(), table.used_bytes(), evictions),
            (100, 800, 900)
        );
    }

    #[test]
    fn remove_only_drops_the_row_it_names() {
        let table = LruTable::<u32, u32>::new(1 << 20);
        table.insert(&0, 1, 8);
        let stale = table.get(&0).unwrap();
        table.insert(&0, 2, 8);
        // a replacement stored since the row was fetched stays
        table.remove(&0, Some(&stale));
        assert_eq!(table.get(&0).map(|r| r.entry), Some(2));
        table.remove(&0, None);
        assert!(table.get(&0).is_none());
        assert_eq!(stale.entry, 1);
    }
}
