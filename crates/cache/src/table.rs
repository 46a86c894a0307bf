//! The table both caches are rows of: key → one immutable entry, read and
//! replaced under one lock, evicted by the storage crate's [`LruMap`], the
//! one least-recently-used policy, to a byte budget.
//!
//! A row is shared behind an `Arc`, so a lookup clones one pointer under
//! the lock and reads the entry after releasing it: it holds the whole
//! entry, old or new, however long it reads. The lookup restamps its key
//! under that same lock. A replacement swaps the pointer and evicts in the
//! same critical section, so no reader sees the one without the other.
//! Rows leaving the table are freed after the lock is released, so
//! dropping a large slab never stalls a lookup.

use std::sync::Arc;

use parking_lot::Mutex;
use tdb_storage::lru::LruMap;

use crate::stats::CacheStats;

/// One stored entry, shared by every reader that fetched it.
pub(crate) struct Row<E> {
    pub entry: E,
    /// Modelled on-SSD footprint, what the budget counts.
    pub bytes: u64,
}

pub(crate) struct LruTable<K, E> {
    rows: Mutex<LruMap<K, Arc<Row<E>>>>,
    stats: Mutex<CacheStats>,
}

impl<K: std::hash::Hash + Eq + Clone, E> LruTable<K, E> {
    pub fn new(budget_bytes: u64) -> Self {
        Self {
            rows: Mutex::new(LruMap::new(budget_bytes)),
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

    /// The entry `key` holds now, which becomes the most recently used.
    pub fn get(&self, key: &K) -> Option<Arc<Row<E>>> {
        self.rows.lock().get(key).cloned()
    }

    /// Stores `entry` under `key`: it replaces whatever the key held, and
    /// the least recently used other entries go until the budget holds,
    /// all under one lock. Returns how many were evicted.
    pub fn insert(&self, key: &K, entry: E, bytes: u64) -> u64 {
        let row = Arc::new(Row { entry, bytes });
        let (_replaced, evicted) = self.rows.lock().insert(key.clone(), row, bytes);
        evicted.len() as u64
    }

    /// Drops `key`'s entry; with `only`, just if it still is that one.
    pub fn remove(&self, key: &K, only: Option<&Arc<Row<E>>>) {
        let is_doomed = |c: &Arc<Row<E>>| only.is_none_or(|o| Arc::ptr_eq(c, o));
        let _gone = self.rows.lock().remove_if(key, is_doomed);
    }

    /// Drops every entry whose key is `doomed`.
    pub fn remove_where(&self, mut doomed: impl FnMut(&K) -> bool) {
        let _gone = self.rows.lock().retain(|k| !doomed(k));
    }

    /// Budget bytes held by live entries.
    pub fn used_bytes(&self) -> u64 {
        self.rows.lock().used()
    }

    pub fn len(&self) -> usize {
        self.rows.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<E> std::fmt::Debug for Row<E> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "Row({:p}, {} B)", self, self.bytes)
        }
    }

    impl<K: std::hash::Hash + Eq + Clone + Ord + std::fmt::Debug, E> LruTable<K, E> {
        /// The whole table in key order: keys and entries by address. The
        /// recency stamps, the one thing a hit moves, are left out.
        pub fn dump(&self) -> String {
            let rows = self.rows.lock();
            format!(
                "{:?}",
                rows.iter().collect::<std::collections::BTreeMap<_, _>>()
            )
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
