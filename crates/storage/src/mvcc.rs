//! Multi-version store with snapshot isolation.
//!
//! "All modifications of and queries to the cache are executed within a
//! transaction with snapshot isolation level to avoid dirty-reads or an
//! inconsistent view of the cache ... \[and\] to avoid locking the tables"
//! (paper §4). The cache tables live in stores like this one: readers see
//! a frozen snapshot, writers never block readers, and write-write
//! conflicts abort the later committer (first-committer-wins).
//!
//! A version is a whole table. The store holds the newest behind an
//! `Arc`; a transaction's snapshot is a clone of that pointer, and a
//! commit publishes the next table — edited in place when no snapshot
//! shares the current one, copied first when one does. So the store
//! reclaims by itself: its open snapshots *are* the references to its
//! tables, and an old table is freed when the last of them closes. Cache
//! tables are small (an entry per quantity and time-step) and their
//! values shared pointers, which is what keeps the copy cheap.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use parking_lot::Mutex;

/// Commit failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitError {
    /// Another transaction committed a conflicting write after this
    /// transaction's snapshot was taken.
    WriteConflict,
}

impl std::fmt::Display for CommitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitError::WriteConflict => write!(f, "snapshot-isolation write-write conflict"),
        }
    }
}

impl std::error::Error for CommitError {}

/// One version of the table: per key, its value and the timestamp of the
/// commit that wrote it.
type Rows<K, V> = BTreeMap<K, (u64, V)>;

#[derive(Debug)]
struct Head<K, V> {
    clock: u64,
    rows: Arc<Rows<K, V>>,
}

/// A snapshot-isolated multi-version key-value store.
#[derive(Debug, Clone)]
pub struct MvccStore<K, V> {
    head: Arc<Mutex<Head<K, V>>>,
}

impl<K: Ord + Clone, V: Clone> Default for MvccStore<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone, V: Clone> MvccStore<K, V> {
    /// Empty store at timestamp 0.
    pub fn new() -> Self {
        let rows = Arc::new(Rows::new());
        Self {
            head: Arc::new(Mutex::new(Head { clock: 0, rows })),
        }
    }

    /// Starts a transaction whose reads all observe the current snapshot.
    pub fn begin(&self) -> Txn<K, V> {
        Txn {
            store: self.clone(),
            snapshot: Arc::clone(&self.head.lock().rows),
            writes: BTreeMap::new(),
        }
    }

    /// Number of live rows at the latest snapshot.
    pub fn len(&self) -> usize {
        self.head.lock().rows.len()
    }

    /// Whether no rows are visible at the latest snapshot.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An open transaction. Dropping it without `commit` aborts it.
pub struct Txn<K: Ord + Clone, V: Clone> {
    store: MvccStore<K, V>,
    snapshot: Arc<Rows<K, V>>,
    writes: BTreeMap<K, Option<V>>,
}

impl<K: Ord + Clone, V: Clone> Txn<K, V> {
    /// Reads a key: own uncommitted writes first, then the snapshot.
    pub fn get(&self, key: &K) -> Option<V> {
        match self.writes.get(key) {
            Some(w) => w.clone(),
            None => self.snapshot.get(key).map(|(_, v)| v.clone()),
        }
    }

    /// Every row of the snapshot in key order (own writes merged in).
    pub fn scan(&self) -> Vec<(K, V)> {
        let keys: BTreeSet<&K> = self.snapshot.keys().chain(self.writes.keys()).collect();
        let row = |k: &K| self.get(k).map(|v| (k.clone(), v));
        keys.into_iter().filter_map(row).collect()
    }

    /// Buffers a write.
    pub fn put(&mut self, key: K, value: V) {
        self.writes.insert(key, Some(value));
    }

    /// Buffers a delete.
    pub fn delete(&mut self, key: K) {
        self.writes.insert(key, None);
    }

    /// Atomically publishes all writes, or fails with
    /// [`CommitError::WriteConflict`] if any written key was committed by
    /// another transaction after this snapshot (first-committer-wins).
    ///
    /// "Committed after" is read off the tables: the key's row in the
    /// newest one is not the row this snapshot holds. A key absent from
    /// both has not changed as far as any reader can tell.
    pub fn commit(self) -> Result<u64, CommitError> {
        let mut head = self.store.head.lock();
        let written = |rows: &Rows<K, V>, key| rows.get(key).map(|(ts, _)| *ts);
        let mut keys = self.writes.keys();
        if keys.any(|key| written(&head.rows, key) != written(&self.snapshot, key)) {
            return Err(CommitError::WriteConflict);
        }
        // this transaction's own snapshot must not be what forces a copy
        drop(self.snapshot);
        head.clock += 1;
        let ts = head.clock;
        let rows = Arc::make_mut(&mut head.rows);
        for (key, value) in self.writes {
            match value {
                Some(value) => rows.insert(key, (ts, value)),
                None => rows.remove(&key),
            };
        }
        Ok(ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_your_own_writes_before_commit() {
        let store: MvccStore<u32, String> = MvccStore::new();
        let mut t = store.begin();
        t.put(1, "a".into());
        assert_eq!(t.get(&1), Some("a".into()));
        // other transactions cannot see it (no dirty reads)
        let t2 = store.begin();
        assert_eq!(t2.get(&1), None);
        t.commit().unwrap();
        // t2's snapshot predates the commit: still invisible
        assert_eq!(t2.get(&1), None);
        // a fresh transaction sees it
        assert_eq!(store.begin().get(&1), Some("a".into()));
    }

    #[test]
    fn snapshot_is_stable_across_concurrent_commits() {
        let store: MvccStore<u32, u32> = MvccStore::new();
        let mut t = store.begin();
        t.put(1, 10);
        t.commit().unwrap();
        let reader = store.begin();
        assert_eq!(reader.get(&1), Some(10));
        let mut writer = store.begin();
        writer.put(1, 20);
        writer.commit().unwrap();
        // reader's view is frozen
        assert_eq!(reader.get(&1), Some(10));
        assert_eq!(store.begin().get(&1), Some(20));
    }

    #[test]
    fn first_committer_wins() {
        let store: MvccStore<u32, u32> = MvccStore::new();
        let mut a = store.begin();
        let mut b = store.begin();
        a.put(7, 1);
        b.put(7, 2);
        a.commit().unwrap();
        assert_eq!(b.commit(), Err(CommitError::WriteConflict));
        assert_eq!(store.begin().get(&7), Some(1));
    }

    #[test]
    fn disjoint_writes_do_not_conflict() {
        let store: MvccStore<u32, u32> = MvccStore::new();
        let mut a = store.begin();
        let mut b = store.begin();
        a.put(1, 1);
        b.put(2, 2);
        a.commit().unwrap();
        b.commit().unwrap();
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn delete_creates_tombstone() {
        let store: MvccStore<u32, u32> = MvccStore::new();
        let mut t = store.begin();
        t.put(1, 5);
        t.commit().unwrap();
        let old = store.begin();
        let mut d = store.begin();
        d.delete(1);
        d.commit().unwrap();
        assert_eq!(store.begin().get(&1), None);
        // older snapshot still sees the value
        assert_eq!(old.get(&1), Some(5));
        assert!(store.is_empty());
    }

    #[test]
    fn range_scan_merges_own_writes() {
        let store: MvccStore<u32, u32> = MvccStore::new();
        let mut seed = store.begin();
        for k in 0..5 {
            seed.put(k, k * 10);
        }
        seed.commit().unwrap();
        let mut t = store.begin();
        t.put(2, 999);
        t.delete(3);
        t.put(10, 100);
        assert_eq!(
            t.scan(),
            vec![(0, 0), (1, 10), (2, 999), (4, 40), (10, 100)]
        );
    }

    #[test]
    fn range_scan_is_snapshot_consistent() {
        let store: MvccStore<u32, u32> = MvccStore::new();
        let mut a = store.begin();
        a.put(1, 1);
        a.commit().unwrap();
        let reader = store.begin();
        let mut b = store.begin();
        b.put(2, 2);
        b.commit().unwrap();
        assert_eq!(reader.scan(), vec![(1, 1)]);
    }

    fn put(store: &MvccStore<u32, u32>, key: u32, value: u32) {
        let mut t = store.begin();
        t.put(key, value);
        t.commit().unwrap();
    }

    /// The newest table, and how many references (the store's own
    /// included) keep it alive.
    fn head(store: &MvccStore<u32, u32>) -> (Rows<u32, u32>, usize) {
        let head = store.head.lock();
        ((*head.rows).clone(), Arc::strong_count(&head.rows))
    }

    #[test]
    fn gc_prunes_dead_versions() {
        let store: MvccStore<u32, u32> = MvccStore::new();
        for i in 0..5 {
            put(&store, 1, i);
        }
        let mut d = store.begin();
        d.delete(1);
        d.delete(2); // never existed
        d.commit().unwrap();
        assert!(store.is_empty());
        // a deleted row leaves the table: no tombstone stays behind
        assert_eq!(head(&store), (Rows::new(), 1));
    }

    #[test]
    fn overwrites_with_no_reader_open_leave_one_version() {
        let store: MvccStore<u32, u32> = MvccStore::new();
        put(&store, 1, 0);
        let table = Arc::as_ptr(&store.head.lock().rows);
        for i in 1..10_000 {
            put(&store, 1, i);
        }
        // one table, one row, nobody else holding either — and it is the
        // table the first commit made: nothing was copied on the way
        assert_eq!(head(&store), (Rows::from([(1, (10_000, 9_999))]), 1));
        assert_eq!(Arc::as_ptr(&store.head.lock().rows), table);
    }

    #[test]
    fn history_behind_a_reader_is_dropped_when_it_closes() {
        let store: MvccStore<u32, u32> = MvccStore::new();
        put(&store, 1, 0);
        put(&store, 2, 0);
        let reader = store.begin();
        let pinned = Arc::downgrade(&reader.snapshot);
        for i in 1..=100 {
            put(&store, 1, i);
        }
        let mut d = store.begin();
        d.delete(2);
        d.commit().unwrap();
        // the reader pins the one table it reads; everything since went
        // into a single newer one
        assert_eq!((reader.get(&1), reader.get(&2)), (Some(0), Some(0)));
        assert_eq!(pinned.strong_count(), 1);
        assert_eq!(head(&store), (Rows::from([(1, (102, 100))]), 1));
        drop(reader);
        assert!(pinned.upgrade().is_none(), "history outlived its reader");
        // and the first commit after the close edits in place again
        let table = Arc::as_ptr(&store.head.lock().rows);
        put(&store, 3, 7);
        assert_eq!(Arc::as_ptr(&store.head.lock().rows), table);
    }

    #[test]
    fn commit_conflicts_on_the_newest_version_only() {
        let store: MvccStore<u32, u32> = MvccStore::new();
        put(&store, 1, 0);
        let pin = store.begin(); // keeps an old table alive throughout
        let mut early = store.begin();
        for i in 1..=50 {
            put(&store, 1, i);
        }
        let mut late = store.begin();
        early.put(1, 1000);
        late.put(1, 2000);
        assert_eq!(early.commit(), Err(CommitError::WriteConflict));
        // fifty commits came after `pin`'s snapshot; none after `late`'s
        assert!(late.commit().is_ok());
        assert_eq!(pin.get(&1), Some(0));
        assert_eq!(store.begin().get(&1), Some(2000));
    }

    #[test]
    fn delete_conflicts_like_any_other_write() {
        let store: MvccStore<u32, u32> = MvccStore::new();
        put(&store, 1, 5);
        let mut stale = store.begin();
        let mut d = store.begin();
        d.delete(1);
        d.commit().unwrap();
        // no tombstone is kept, yet the loser still loses: the row its
        // snapshot holds is not the (absent) row of the newest table
        stale.put(1, 6);
        assert_eq!(stale.commit(), Err(CommitError::WriteConflict));
        // a key absent then and now reads the same to everyone: no conflict
        let mut fresh = store.begin();
        put(&store, 2, 1);
        fresh.put(1, 7);
        assert!(fresh.commit().is_ok());
    }

    #[test]
    fn concurrent_commits_from_threads() {
        let store: MvccStore<u32, u32> = MvccStore::new();
        let mut handles = Vec::new();
        for thread in 0..8u32 {
            let s = store.clone();
            handles.push(std::thread::spawn(move || {
                let mut committed = 0;
                for i in 0..50u32 {
                    let mut t = s.begin();
                    t.put(thread * 1000 + i, i);
                    if t.commit().is_ok() {
                        committed += 1;
                    }
                }
                committed
            }));
        }
        let total: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        // disjoint keys: every commit must succeed
        assert_eq!(total, 400);
        assert_eq!(store.len(), 400);
    }

    #[test]
    fn contended_counter_loses_exactly_the_conflicts() {
        let store: MvccStore<u32, u32> = MvccStore::new();
        let mut init = store.begin();
        init.put(0, 0);
        init.commit().unwrap();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = store.clone();
            handles.push(std::thread::spawn(move || {
                let mut wins = 0u32;
                for _ in 0..100 {
                    let mut t = s.begin();
                    let v = t.get(&0).unwrap();
                    t.put(0, v + 1);
                    if t.commit().is_ok() {
                        wins += 1;
                    }
                }
                wins
            }));
        }
        let wins: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        // lost-update anomaly is prevented: final value == committed increments
        assert_eq!(store.begin().get(&0), Some(wins));
    }
}
