//! Component models under the `tdb-check` schedule-exploration checker.
//!
//! Four concurrency-critical components get models: the mediator's
//! failover-vs-rebalance lock discipline, the admission queue's WFQ
//! grant/evict/shed protocol (real code), the buffer pool's
//! eviction-vs-decode path and single-flight loads outside the pool lock
//! (real code), and the semantic cache's replace / lookup / invalidate on
//! one locked table of immutable rows (real code).
//! Where a PR fixed a real bug — the cache entry torn over two stores —
//! the *buggy* variant rides along as a regression model the checker must
//! still catch; the mediator's inverted lock order rides along the same
//! way as a guard for its discipline.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, RwLock};
use tdb_cache::{CacheConfig, CacheInfoKey, CacheLookup, SemanticCache, ThresholdPoint};
use tdb_check::{thread, FailureKind, Model};
use tdb_storage::bufferpool::BlockKey;
use tdb_storage::device::{DeviceProfile, DeviceRegistry};
use tdb_storage::{IoSession, StorageError};
use tdb_wire::admission::{Admission, AdmissionConfig, AdmissionQueue, TenantSpec};
use tdb_zorder::Box3;

/// The real pool, caching raw bytes in place of decoded blocks.
type BufferPool = tdb_storage::BufferPool<Arc<[u8]>>;

// ---------------------------------------------------------------------
// 1. Mediator: failover re-scatter vs topology generation swap
// ---------------------------------------------------------------------

/// Closed model of the mediator's lock discipline: both mutators (the
/// rebalancer and dead-node failover) take the `rebalance` planning lock
/// *before* the `topology` write lock, and the query path only ever
/// holds the topology read lock. Epochs observed by a re-scattering
/// query must be monotone.
fn failover_vs_swap_model() {
    let rebalance = Arc::new(Mutex::new(()));
    let topology = Arc::new(RwLock::new(1u64));

    let (r2, t2) = (Arc::clone(&rebalance), Arc::clone(&topology));
    let rebalancer = thread::spawn(move || {
        let _plan = r2.lock();
        *t2.write() += 1;
    });
    let (r3, t3) = (Arc::clone(&rebalance), Arc::clone(&topology));
    let failover = thread::spawn(move || {
        let _plan = r3.lock();
        *t3.write() += 1;
    });

    // the query path: scatter against a snapshot, lose a node, re-read
    // the topology for the re-scatter
    let first = *topology.read();
    let retry = *topology.read();
    assert!(retry >= first, "topology generation went backwards");

    rebalancer.join();
    failover.join();
    assert_eq!(*topology.read(), 3, "a swap was lost");
}

#[test]
fn mediator_failover_vs_topology_swap_passes() {
    let report = Model::new("mediator: failover vs topology swap")
        .budget(4096)
        .check_quiet(failover_vs_swap_model);
    assert!(report.failure.is_none(), "{:?}", report.failure);
}

/// Regression guard for the discipline itself: inverting the order in
/// one path (topology write held while acquiring the planning lock) is
/// an ABBA deadlock the checker must find.
#[test]
fn mediator_inverted_lock_order_is_caught() {
    let report = Model::new("mediator: inverted lock order").check_quiet(|| {
        let rebalance = Arc::new(Mutex::new(()));
        let topology = Arc::new(RwLock::new(1u64));
        let (r2, t2) = (Arc::clone(&rebalance), Arc::clone(&topology));
        let admin = thread::spawn(move || {
            let _plan = r2.lock();
            *t2.write() += 1;
        });
        let epoch = topology.write();
        let _plan = rebalance.lock();
        drop(epoch);
        admin.join();
    });
    let failure = report.failure.expect("checker must catch the ABBA order");
    assert_eq!(failure.kind, FailureKind::Deadlock, "{failure:?}");
}

// ---------------------------------------------------------------------
// 2. AdmissionQueue: WFQ grant / evict / shed (real code)
// ---------------------------------------------------------------------

/// The real `AdmissionQueue` under the checker: one slot, one queue
/// seat, an anonymous and a premium arrival racing a release. In every
/// interleaving the premium tenant must end up granted (it can evict the
/// anonymous waiter and nobody outranks it), no waiter may be lost, and
/// all threads must terminate — this exercises the granted-set handoff
/// and the notify-after-unlock protocol in `release`.
#[test]
fn admission_wfq_grant_evict_shed_passes() {
    let report = Model::new("admission: WFQ grant/evict/shed")
        .budget(4096)
        .check_quiet(|| {
            let q = AdmissionQueue::new(AdmissionConfig {
                max_inflight: 1,
                queue_depth: 1,
                busy_retry_ms: 1,
                tenants: vec![TenantSpec::new("premium", 2).with_shed_priority(5)],
            });
            let Admission::Granted(held) = q.admit(0) else {
                panic!("first query must take the free slot");
            };
            let q2 = Arc::clone(&q);
            let anon = thread::spawn(move || match q2.admit(1) {
                Admission::Granted(p) => {
                    drop(p);
                    true
                }
                Admission::Busy { .. } => false,
            });
            let q3 = Arc::clone(&q);
            let premium = thread::spawn(move || match q3.admit_keyed(2, Some("premium")) {
                Admission::Granted(p) => {
                    drop(p);
                    true
                }
                Admission::Busy { .. } => false,
            });
            drop(held);
            let _anon_granted = anon.join();
            let premium_granted = premium.join();
            assert!(premium_granted, "premium arrival must never be shed here");
        });
    assert!(report.failure.is_none(), "{:?}", report.failure);
}

// ---------------------------------------------------------------------
// 3. BufferPool: eviction vs concurrent decode (real code)
// ---------------------------------------------------------------------

fn pool_key(i: u32) -> BlockKey {
    BlockKey {
        file_id: 1,
        block_no: i,
    }
}

fn pool_block(tag: u8) -> Arc<[u8]> {
    [tag; 10].into()
}

/// The real `BufferPool` under the checker, sized so concurrent misses
/// force evictions while another thread decodes. Decoded bytes must be
/// identical whether they came from a hit or a (re)load, and the byte
/// budget must hold at quiescence.
#[test]
fn bufferpool_eviction_vs_decode_passes() {
    let report = Model::new("bufferpool: eviction vs decode")
        .budget(4096)
        .check_quiet(|| {
            let pool: Arc<BufferPool> = Arc::new(BufferPool::new(25));
            let p2 = Arc::clone(&pool);
            let t = thread::spawn(move || {
                let mut s = IoSession::new();
                for tag in [1u8, 2] {
                    let got = p2
                        .get_or_load(pool_key(tag.into()), &mut s, |_| Ok(pool_block(tag)))
                        .expect("in-memory load cannot fail");
                    assert_eq!(got, pool_block(tag), "decode returned wrong bytes");
                }
            });
            let mut s = IoSession::new();
            for tag in [3u8, 1] {
                let got = pool
                    .get_or_load(pool_key(tag.into()), &mut s, |_| Ok(pool_block(tag)))
                    .expect("in-memory load cannot fail");
                assert_eq!(got, pool_block(tag), "hit returned other bytes than load");
            }
            t.join();
            let (used, len) = (pool.used_bytes(), pool.len());
            assert!(
                used <= 25 || len == 1,
                "byte budget violated: {used} bytes in {len} blocks"
            );
        });
    assert!(report.failure.is_none(), "{:?}", report.failure);
}

// ---------------------------------------------------------------------
// 4. BufferPool: single-flight loads outside the pool lock (real code)
// ---------------------------------------------------------------------

/// A one-shot latch on the shim primitives, so the checker sees it.
#[derive(Default)]
struct Latch {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Latch {
    fn open(&self) {
        *self.open.lock() = true;
        self.opened.notify_all();
    }

    fn wait(&self) {
        let mut open = self.open.lock();
        while !*open {
            self.opened.wait(&mut open);
        }
    }
}

/// The loader of a missing block runs without the pool lock, once per
/// key however many requesters arrive while it runs.
#[test]
fn bufferpool_single_flight_passes() {
    // two requesters of one absent key: one loader run, one miss, one
    // hit, the same bytes — whichever of them gets there first
    let report = Model::new("bufferpool: two misses, one load")
        .budget(4096)
        .check_quiet(|| {
            let pool: Arc<BufferPool> = Arc::new(BufferPool::new(100));
            let loads = Arc::new(AtomicU32::new(0));
            let request = move |pool: &BufferPool, loads: &AtomicU32| {
                let mut s = IoSession::new();
                let got = pool
                    .get_or_load(pool_key(1), &mut s, |_| {
                        loads.fetch_add(1, Ordering::Relaxed);
                        Ok(pool_block(1))
                    })
                    .expect("in-memory load cannot fail");
                (got, s.pool_hits, s.pool_misses)
            };
            let (p2, l2) = (Arc::clone(&pool), Arc::clone(&loads));
            let t = thread::spawn(move || request(&p2, &l2));
            let (mine, hits, misses) = request(&pool, &loads);
            let (theirs, their_hits, their_misses) = t.join();
            assert_eq!(loads.load(Ordering::Relaxed), 1, "loader ran twice");
            assert_eq!((hits + their_hits, misses + their_misses), (1, 1));
            assert_eq!(mine, pool_block(1));
            assert_eq!(theirs, mine, "waiter saw different bytes");
            assert_eq!((pool.len(), pool.used_bytes()), (1, 10));
        });
    assert!(report.failure.is_none(), "{:?}", report.failure);

    // a load in flight on key 1 does not block a hit on key 2: the loader
    // parks until that hit has happened, which deadlocks any pool that
    // holds its lock across the load
    let report = Model::new("bufferpool: hit beside a load in flight")
        .budget(4096)
        .check_quiet(|| {
            let pool: Arc<BufferPool> = Arc::new(BufferPool::new(100));
            let mut s = IoSession::new();
            pool.get_or_load(pool_key(2), &mut s, |_| Ok(pool_block(2)))
                .expect("in-memory load cannot fail");
            let (started, hit_done) = (Arc::new(Latch::default()), Arc::new(Latch::default()));
            let (p2, st2, hd2) = (
                Arc::clone(&pool),
                Arc::clone(&started),
                Arc::clone(&hit_done),
            );
            let t = thread::spawn(move || {
                let mut s = IoSession::new();
                p2.get_or_load(pool_key(1), &mut s, |_| {
                    st2.open();
                    hd2.wait();
                    Ok(pool_block(1))
                })
                .expect("in-memory load cannot fail")
            });
            started.wait();
            let got = pool
                .get_or_load(pool_key(2), &mut s, |_| {
                    Err(StorageError::internal("key 2 is resident"))
                })
                .expect("hit beside an in-flight load");
            assert_eq!(got, pool_block(2));
            assert_eq!((s.pool_hits, s.pool_misses), (1, 1));
            hit_done.open();
            assert_eq!(t.join(), pool_block(1));
            assert_eq!((pool.len(), pool.used_bytes()), (2, 20));
        });
    assert!(report.failure.is_none(), "{:?}", report.failure);

    // a failed load hands its error to the requesters waiting on it,
    // caches nothing, and leaves the key loadable
    let report = Model::new("bufferpool: failed load wakes its waiters")
        .budget(4096)
        .check_quiet(|| {
            let pool: Arc<BufferPool> = Arc::new(BufferPool::new(100));
            let loads = Arc::new(AtomicU32::new(0));
            let request = move |pool: &BufferPool, loads: &AtomicU32| {
                let mut s = IoSession::new();
                let r = pool.get_or_load(pool_key(1), &mut s, |_| {
                    loads.fetch_add(1, Ordering::Relaxed);
                    Err(StorageError::Corrupt {
                        file: "p.tdb".into(),
                        detail: "crc mismatch".into(),
                    })
                });
                assert_eq!((s.pool_hits, s.pool_misses), (0, 0));
                r
            };
            let (p2, l2) = (Arc::clone(&pool), Arc::clone(&loads));
            let t = thread::spawn(move || request(&p2, &l2));
            let mine = request(&pool, &loads);
            let theirs = t.join();
            for r in [mine, theirs] {
                assert!(
                    matches!(&r, Err(StorageError::Corrupt { file, .. }) if file == "p.tdb"),
                    "{r:?}"
                );
            }
            assert!((1..=2).contains(&loads.load(Ordering::Relaxed)));
            assert!(
                pool.is_empty() && pool.used_bytes() == 0,
                "error was cached"
            );
            let mut s = IoSession::new();
            pool.get_or_load(pool_key(1), &mut s, |_| Ok(pool_block(1)))
                .expect("the failed claim was released");
            assert_eq!((s.pool_hits, s.pool_misses), (0, 1));
        });
    assert!(report.failure.is_none(), "{:?}", report.failure);

    // clear() and evictions racing loads in flight: the byte count always
    // matches the resident blocks (every block here weighs 10)
    let report = Model::new("bufferpool: clear and eviction vs loads in flight")
        .budget(4096)
        .check_quiet(|| {
            let pool: Arc<BufferPool> = Arc::new(BufferPool::new(25));
            let p2 = Arc::clone(&pool);
            let t = thread::spawn(move || {
                let mut s = IoSession::new();
                for tag in [1u8, 2, 3] {
                    let got = p2
                        .get_or_load(pool_key(tag.into()), &mut s, |_| Ok(pool_block(tag)))
                        .expect("in-memory load cannot fail");
                    assert_eq!(got, pool_block(tag));
                }
            });
            let mut s = IoSession::new();
            pool.get_or_load(pool_key(4), &mut s, |_| Ok(pool_block(4)))
                .expect("in-memory load cannot fail");
            pool.clear();
            let got = pool
                .get_or_load(pool_key(1), &mut s, |_| Ok(pool_block(1)))
                .expect("in-memory load cannot fail");
            assert_eq!(got, pool_block(1));
            t.join();
            let (used, len) = (pool.used_bytes(), pool.len());
            assert_eq!(used, 10 * len, "byte count drifted from the blocks");
            assert!(
                len <= 2,
                "byte budget violated: {used} bytes in {len} blocks"
            );
        });
    assert!(report.failure.is_none(), "{:?}", report.failure);
}

// ---------------------------------------------------------------------
// 5. SemanticCache: replace vs lookup vs invalidate (real code)
// ---------------------------------------------------------------------

/// The real `SemanticCache` under the checker: one thread replaces a
/// key's entry, one invalidates it, one looks it up. The paper's
/// snapshot-isolation requirement, in every interleaving: a lookup
/// answers from one whole generation or misses — it never pairs the
/// parts of two, so with no fault injected nothing is ever quarantined.
#[test]
fn semantic_cache_replace_vs_lookup_passes() {
    fn generation(g: u32) -> Vec<ThresholdPoint> {
        (0..3)
            .map(|x| ThresholdPoint::at(x, 0, 0, (50 + 10 * g + x) as f32))
            .collect()
    }
    let report = Model::new("semantic cache: replace vs lookup vs invalidate")
        .budget(4096)
        .check_quiet(|| {
            let mut reg = DeviceRegistry::new();
            let cache = Arc::new(SemanticCache::new(CacheConfig {
                budget_bytes: 1 << 20,
                ssd: reg.register(DeviceProfile::ssd()),
                faults: None,
            }));
            let key = CacheInfoKey {
                dataset: "mhd".into(),
                field: "velocity/curl_norm".into(),
                timestep: 0,
            };
            let region = Box3::cube(8);
            cache.insert(&key, region, 50.0, &generation(0), &mut IoSession::new());
            let (c2, k2) = (Arc::clone(&cache), key.clone());
            let replacer = thread::spawn(move || {
                c2.insert(&k2, region, 50.0, &generation(1), &mut IoSession::new());
            });
            let (c3, k3) = (Arc::clone(&cache), key.clone());
            let dropper = thread::spawn(move || c3.invalidate(&k3));
            let look = || match cache.lookup(&key, &region, 50.0, &mut IoSession::new()) {
                CacheLookup::Hit(points) => {
                    assert!(
                        points == generation(0) || points == generation(1),
                        "answer mixes generations: {points:?}"
                    );
                    true
                }
                CacheLookup::Miss => false,
                CacheLookup::Quarantined => panic!("healthy entry quarantined"),
            };
            look();
            replacer.join();
            dropper.join();
            // whichever of the two writers took the lock last decided the
            // key; an insert always lands, so both are counted
            let st = cache.stats();
            assert_eq!((st.quarantined, st.inserts), (0, 2), "{st:?}");
            assert_eq!(look(), cache.len() == 1);
        });
    assert!(report.failure.is_none(), "{:?}", report.failure);
}

/// Regression: the protocol this table replaced kept an entry in two
/// stores that began and committed separately — lookup took an info
/// snapshot, then a data snapshot; insert committed data, then info. A
/// lookup between the two commits pairs the old info row with the new
/// data, reads zero rows where the row says three, and "quarantines" a
/// healthy entry. The checker must find that interleaving.
#[test]
fn semantic_cache_two_store_torn_read_is_caught() {
    let report = Model::new("semantic cache: two-store torn read")
        .budget(4096)
        .check_quiet(|| {
            // cacheInfo: (ordinal, npoints); cacheData: ordinal → rows held
            let info = Arc::new(Mutex::new((1u64, 3usize)));
            let data = Arc::new(Mutex::new(std::collections::BTreeMap::from([(
                1u64, 3usize,
            )])));
            let (i2, d2) = (Arc::clone(&info), Arc::clone(&data));
            let replacer = thread::spawn(move || {
                {
                    let mut rows = d2.lock(); // data commit
                    rows.remove(&1);
                    rows.insert(2, 3);
                }
                *i2.lock() = (2, 3); // info commit
            });
            let (ordinal, npoints) = *info.lock(); // info snapshot
            let rows = data.lock().get(&ordinal).copied().unwrap_or(0); // data snapshot
            assert_eq!(rows, npoints, "healthy entry read torn");
            replacer.join();
        });
    let failure = report.failure.expect("checker must catch the torn read");
    assert_eq!(failure.kind, FailureKind::Panic, "{failure:?}");
    assert!(failure.message.contains("read torn"), "{failure:?}");
}
