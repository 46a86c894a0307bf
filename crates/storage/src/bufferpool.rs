//! Shared block cache — the node's buffer pool.
//!
//! "SQL Server also benefits from a larger buffer pool, which reduces the
//! I/O time" (paper §5.3). Blocks read from partition files land here;
//! hits cost no device charge, so the modelled I/O time of a warm scan
//! shrinks exactly the way a real buffer pool would shrink it.
//!
//! The pool is generic over the cached value so callers can cache the
//! *decoded* form of a block (checksum verified and records parsed once,
//! on the miss path) while the eviction budget still tracks the on-disk
//! footprint through [`PoolValue::weight`]. The victim is the least
//! recently used block, as in the paper's SQL Server substrate (DESIGN.md
//! §9); a lone block larger than the budget is still admitted (the
//! `len() > 1` guard).
//!
//! A miss runs its loader (device read, CRC, decode) *outside* the pool
//! lock, single-flight per key: the first requester of an absent block
//! loads it, requesters arriving meanwhile wait for that load and count
//! as hits, and every other key hits, loads and evicts undisturbed. One
//! miss is therefore still one `bufferpool.misses`, one loader run and
//! one device charge, however many workers wanted the block at once.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::device::IoSession;
use crate::error::{StorageError, StorageResult};
use crate::faults::FaultPlan;

/// Cache key: a block within a partition file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockKey {
    pub file_id: u64,
    pub block_no: u32,
}

/// A value the pool can hold: cheap to clone, with a byte weight for the
/// eviction budget.
pub trait PoolValue: Clone {
    /// Bytes this entry accounts against the pool capacity.
    fn weight(&self) -> usize;
}

/// Raw bytes weigh their length (what the pool's own tests and the model
/// checker cache in place of a decoded block).
impl PoolValue for Arc<[u8]> {
    fn weight(&self) -> usize {
        self.len()
    }
}

/// Recency of the resident blocks: every insert and hit stamps the key
/// with a logical clock, and the `BTreeMap` keyed by stamp keeps the least
/// recently used key at the front.
#[derive(Default)]
struct Lru {
    clock: u64,
    stamps: HashMap<BlockKey, u64>,
    order: BTreeMap<u64, BlockKey>,
}

impl Lru {
    /// `key` was inserted or hit: it becomes the most recent.
    fn touch(&mut self, key: BlockKey) {
        self.clock += 1;
        if let Some(old) = self.stamps.insert(key, self.clock) {
            self.order.remove(&old);
        }
        self.order.insert(self.clock, key);
    }

    /// Chooses and forgets the least recently used key.
    fn evict(&mut self) -> Option<BlockKey> {
        let (_, key) = self.order.pop_first()?;
        self.stamps.remove(&key);
        Some(key)
    }

    fn clear(&mut self) {
        self.stamps.clear();
        self.order.clear();
    }
}

struct PoolInner<V> {
    capacity_bytes: usize,
    used_bytes: usize,
    blocks: HashMap<BlockKey, V>,
    /// Keys whose loader is running. A loading key is in neither `blocks`
    /// nor `lru`, so it can be neither hit nor chosen as a victim.
    loading: HashMap<BlockKey, Arc<Flight<V>>>,
    lru: Lru,
}

/// One load in progress: where its loader leaves the outcome for the
/// requesters that arrived while it ran.
struct Flight<V> {
    outcome: Mutex<Option<StorageResult<V>>>,
    landed: Condvar,
}

/// The loading requester's claim on a key. Landing it publishes the
/// loader's outcome; dropping it unlanded (the loader panicked) fails the
/// waiters instead of leaving them parked on a load that will never end.
struct Claim<'a, V: PoolValue> {
    pool: &'a BufferPool<V>,
    key: BlockKey,
    flight: Arc<Flight<V>>,
    landed: bool,
}

impl<V: PoolValue> Claim<'_, V> {
    fn land(&mut self, outcome: StorageResult<V>) {
        self.landed = true;
        {
            let mut inner = self.pool.inner.lock();
            inner.loading.remove(&self.key);
            if let Ok(data) = &outcome {
                self.pool.admit(&mut inner, self.key, data.clone());
            }
        }
        *self.flight.outcome.lock() = Some(outcome);
        self.flight.landed.notify_all();
    }
}

impl<V: PoolValue> Drop for Claim<'_, V> {
    fn drop(&mut self) {
        if !self.landed {
            self.land(Err(StorageError::internal("block loader panicked")));
        }
    }
}

/// A byte-bounded cache of partition blocks, shared by all worker
/// processes of a node.
pub struct BufferPool<V: PoolValue> {
    inner: Mutex<PoolInner<V>>,
    faults: Option<Arc<FaultPlan>>,
}

impl<V: PoolValue> BufferPool<V> {
    /// Pool bounded at `capacity_bytes`, evicting LRU.
    pub fn new(capacity_bytes: usize) -> Self {
        Self::with_faults(capacity_bytes, None)
    }

    /// Pool with an attached fault-injection plan consulted by loaders
    /// (see [`crate::sstable::PartitionReader`]). Pool hits are never
    /// faulted: a cached block needs no device access.
    pub fn with_faults(capacity_bytes: usize, faults: Option<Arc<FaultPlan>>) -> Self {
        Self {
            inner: Mutex::new(PoolInner {
                capacity_bytes,
                used_bytes: 0,
                blocks: HashMap::new(),
                loading: HashMap::new(),
                lru: Lru::default(),
            }),
            faults,
        }
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// Returns the cached block or loads it via `load`, charging the miss
    /// to `session` inside `load` (the loader performs the device charge).
    /// `load` runs without the pool lock; a requester that finds the key
    /// already loading waits for that load and shares its outcome: the
    /// value as a hit (recency refreshed like any hit), or a clone of the
    /// loader's error — the waiter does not run its own loader, so it
    /// sees the outcome of the loader's retries, not of its own.
    pub fn get_or_load(
        &self,
        key: BlockKey,
        session: &mut IoSession,
        load: impl FnOnce(&mut IoSession) -> StorageResult<V>,
    ) -> StorageResult<V> {
        let (flight, ours) = {
            let mut inner = self.inner.lock();
            if let Some(data) = inner.blocks.get(&key) {
                let data = data.clone();
                inner.lru.touch(key);
                session.pool_hits += 1;
                tdb_obs::m::BUFFERPOOL_HITS.inc();
                return Ok(data);
            }
            match inner.loading.get(&key) {
                Some(flight) => (Arc::clone(flight), false),
                None => {
                    let flight = Arc::new(Flight {
                        outcome: Mutex::new(None),
                        landed: Condvar::new(),
                    });
                    inner.loading.insert(key, Arc::clone(&flight));
                    (flight, true)
                }
            }
        };
        if !ours {
            let shared = {
                let mut outcome = flight.outcome.lock();
                loop {
                    if let Some(shared) = outcome.as_ref() {
                        break shared.clone();
                    }
                    flight.landed.wait(&mut outcome);
                }
            };
            if shared.is_ok() {
                // a hit like any other: it refreshes the block's recency,
                // unless the block was already evicted again
                let mut inner = self.inner.lock();
                if inner.blocks.contains_key(&key) {
                    inner.lru.touch(key);
                }
                session.pool_hits += 1;
                tdb_obs::m::BUFFERPOOL_HITS.inc();
            }
            return shared;
        }
        let mut claim = Claim {
            pool: self,
            key,
            flight,
            landed: false,
        };
        let outcome = load(session);
        if outcome.is_ok() {
            session.pool_misses += 1;
            tdb_obs::m::BUFFERPOOL_MISSES.inc();
        }
        claim.land(outcome.clone());
        outcome
    }

    /// Caches a freshly loaded block and evicts down to the byte budget.
    fn admit(&self, inner: &mut PoolInner<V>, key: BlockKey, data: V) {
        inner.used_bytes += data.weight();
        let displaced = inner.blocks.insert(key, data);
        debug_assert!(displaced.is_none(), "single-flight admits a key once");
        inner.lru.touch(key);
        while inner.used_bytes > inner.capacity_bytes && inner.blocks.len() > 1 {
            let Some(victim) = inner.lru.evict() else {
                break;
            };
            if let Some(evicted) = inner.blocks.remove(&victim) {
                inner.used_bytes -= evicted.weight();
                tdb_obs::m::BUFFERPOOL_EVICTIONS.inc();
            }
        }
    }

    /// Drops every cached block (cold-cache experiment setup). A load in
    /// flight is not cancelled: its block is admitted when it lands.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.blocks.clear();
        inner.lru.clear();
        inner.used_bytes = 0;
    }

    /// Bytes currently cached (by [`PoolValue::weight`]).
    pub fn used_bytes(&self) -> usize {
        self.inner.lock().used_bytes
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.inner.lock().blocks.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(i: u32) -> BlockKey {
        BlockKey {
            file_id: 1,
            block_no: i,
        }
    }

    type BytePool = BufferPool<Arc<[u8]>>;

    fn load_n(n: usize) -> impl FnOnce(&mut IoSession) -> StorageResult<Arc<[u8]>> {
        move |_s| Ok(vec![0u8; n].into())
    }

    #[test]
    fn hit_after_load() {
        let pool = BytePool::new(1024);
        let mut s = IoSession::new();
        let a = pool.get_or_load(key(0), &mut s, load_n(10)).unwrap();
        let b = pool
            .get_or_load(key(0), &mut s, |_| panic!("must not reload"))
            .unwrap();
        assert_eq!(a, b);
        assert_eq!((s.pool_hits, s.pool_misses), (1, 1));
    }

    #[test]
    fn eviction_respects_lru_order() {
        let pool = BytePool::new(25);
        let mut s = IoSession::new();
        pool.get_or_load(key(0), &mut s, load_n(10)).unwrap();
        pool.get_or_load(key(1), &mut s, load_n(10)).unwrap();
        // touch 0 so 1 becomes the LRU victim
        pool.get_or_load(key(0), &mut s, |_| panic!("hit expected"))
            .unwrap();
        pool.get_or_load(key(2), &mut s, load_n(10)).unwrap(); // evicts 1
        assert_eq!(pool.len(), 2);
        // key 0 survived the eviction (it was recently touched) ...
        pool.get_or_load(key(0), &mut s, |_| panic!("hit expected"))
            .unwrap();
        // ... while key 1 (the LRU victim) must reload
        let mut reloaded = false;
        pool.get_or_load(key(1), &mut s, |_| {
            reloaded = true;
            Ok([0; 10].into())
        })
        .unwrap();
        assert!(reloaded, "key 1 should have been evicted");
    }

    #[test]
    fn clear_empties_pool() {
        let pool = BytePool::new(1024);
        let mut s = IoSession::new();
        pool.get_or_load(key(0), &mut s, load_n(10)).unwrap();
        assert!(!pool.is_empty());
        pool.clear();
        assert!(pool.is_empty());
        assert_eq!(pool.used_bytes(), 0);
    }

    #[test]
    fn oversized_block_still_cacheable_once() {
        // a single block larger than capacity is admitted (len > 1 guard)
        let pool = BytePool::new(5);
        let mut s = IoSession::new();
        pool.get_or_load(key(0), &mut s, load_n(50)).unwrap();
        assert_eq!(pool.len(), 1);
        pool.get_or_load(key(1), &mut s, load_n(50)).unwrap();
        assert_eq!(pool.len(), 1, "previous oversized block evicted");
    }

    #[test]
    fn load_error_propagates_and_does_not_cache() {
        let pool = BytePool::new(100);
        let mut s = IoSession::new();
        let r = pool.get_or_load(key(0), &mut s, |_| {
            Err(crate::error::StorageError::KeyOrder { detail: "x".into() })
        });
        assert!(r.is_err());
        assert!(pool.is_empty());
    }

    #[test]
    fn loader_runs_without_the_pool_lock() {
        let pool = BytePool::new(1024);
        let mut s = IoSession::new();
        pool.get_or_load(key(0), &mut s, |s| {
            // both calls take the pool lock: they would self-deadlock if
            // it were held across the load
            assert!(pool.is_empty());
            pool.get_or_load(key(1), s, load_n(10))
        })
        .unwrap();
        assert_eq!((pool.len(), pool.used_bytes()), (2, 20));
        assert_eq!((s.pool_hits, s.pool_misses), (0, 2));
    }

    #[test]
    fn waiting_on_a_load_counts_as_a_reference() {
        // block 1 becomes resident while block 0's load is in flight with a
        // second requester parked on it; when the load lands, the waiter's
        // hit leaves 0 the most recent block, so the overflow evicts 1
        let pool = BytePool::new(25);
        let (release, parked) = std::sync::mpsc::channel::<()>();
        let pool = &pool;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut s = IoSession::new();
                pool.get_or_load(key(0), &mut s, |_| {
                    parked.recv().unwrap();
                    Ok([0; 10].into())
                })
                .unwrap();
                assert_eq!((s.pool_hits, s.pool_misses), (0, 1));
            });
            while pool.inner.lock().loading.is_empty() {
                std::thread::yield_now();
            }
            scope.spawn(|| {
                let mut s = IoSession::new();
                pool.get_or_load(key(0), &mut s, |_| panic!("one load per key"))
                    .unwrap();
                assert_eq!((s.pool_hits, s.pool_misses), (1, 0));
            });
            let mut s = IoSession::new();
            pool.get_or_load(key(1), &mut s, load_n(10)).unwrap();
            release.send(()).unwrap();
        });
        let mut s = IoSession::new();
        pool.get_or_load(key(2), &mut s, load_n(10)).unwrap(); // evicts 1, not 0
        pool.get_or_load(key(0), &mut s, |_| panic!("0 was referenced last"))
            .unwrap();
        let mut reloaded = false;
        pool.get_or_load(key(1), &mut s, |_| {
            reloaded = true;
            Ok([0; 10].into())
        })
        .unwrap();
        assert!(reloaded, "key 1 should have been the LRU victim");
    }

    #[test]
    fn custom_pool_value_weight_drives_eviction() {
        #[derive(Clone, PartialEq, Debug)]
        struct Weighted(u32, usize);
        impl PoolValue for Weighted {
            fn weight(&self) -> usize {
                self.1
            }
        }
        let pool: BufferPool<Weighted> = BufferPool::new(100);
        let mut s = IoSession::new();
        pool.get_or_load(key(0), &mut s, |_| Ok(Weighted(0, 60)))
            .unwrap();
        pool.get_or_load(key(1), &mut s, |_| Ok(Weighted(1, 60)))
            .unwrap();
        // 120 > 100: key 0 evicted
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.used_bytes(), 60);
        let v = pool
            .get_or_load(key(1), &mut s, |_| panic!("hit expected"))
            .unwrap();
        assert_eq!(v, Weighted(1, 60));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru = Lru::default();
        lru.touch(key(0));
        lru.touch(key(1));
        lru.touch(key(2));
        lru.touch(key(0)); // 1 is now least recent
        assert_eq!(lru.evict(), Some(key(1)));
        assert_eq!(lru.evict(), Some(key(2)));
        assert_eq!(lru.evict(), Some(key(0)));
        assert_eq!(lru.evict(), None);
    }

    proptest! {
        // Whatever the hit pattern, draining the LRU returns each tracked
        // key exactly once.
        #[test]
        fn lru_drains_to_a_permutation(
            inserts in prop::collection::vec(0u32..32, 1..40usize),
            hits in prop::collection::vec(0u32..32, 0..40usize),
        ) {
            let mut lru = Lru::default();
            let mut resident = std::collections::BTreeSet::new();
            for &i in &inserts {
                if resident.insert(i) {
                    lru.touch(key(i));
                }
            }
            for &h in &hits {
                if resident.contains(&h) {
                    lru.touch(key(h));
                }
            }
            let mut drained = std::collections::BTreeSet::new();
            while let Some(k) = lru.evict() {
                prop_assert!(drained.insert(k.block_no), "key {} evicted twice", k.block_no);
            }
            prop_assert_eq!(&drained, &resident);
        }

        // After any access sequence the pool is within capacity unless a
        // single oversized block remains.
        #[test]
        fn every_policy_honours_byte_budget(
            // each op packs (key, weight): key = op % 16, weight = 1 + op / 16
            ops in prop::collection::vec(0u32..16 * 59, 1..60usize),
        ) {
            let pool = BytePool::new(100);
            let mut s = IoSession::new();
            for &op in &ops {
                let (k, n) = (op % 16, 1 + (op / 16) as usize);
                pool.get_or_load(key(k), &mut s, load_n(n)).unwrap();
                prop_assert!(
                    pool.used_bytes() <= 100 || pool.len() == 1,
                    "{} bytes in {} blocks", pool.used_bytes(), pool.len()
                );
            }
            pool.clear();
            prop_assert_eq!(pool.used_bytes(), 0);
            prop_assert!(pool.is_empty());
        }
    }
}
