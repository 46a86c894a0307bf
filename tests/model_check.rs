//! Component models under the `tdb-check` schedule-exploration checker.
//!
//! Five concurrency-critical components get a model each: the
//! scan-scheduler batch close, the mediator's failover-vs-rebalance lock
//! discipline, the admission queue's WFQ grant/evict/shed protocol (real
//! code), the buffer pool's eviction-vs-decode path and single-flight
//! loads outside the pool lock (real code), and the semantic cache's
//! replace / lookup / invalidate on one snapshot-isolated table (real
//! code).
//! Where a PR fixed a real bug — the scan-scheduler batch overshoot, the
//! cache entry torn over two stores — the *buggy* variant rides along as
//! a regression model the checker must still catch.
//!
//! Closed models use `wait_for(..).timed_out()` with bounded retries as
//! their loop exits: under the checker a timed wait is virtual time (the
//! scheduler may fire the timeout at any point), so models terminate
//! without wall-clock dependence.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
// 1. ScanScheduler: leader/joiner batch close
// ---------------------------------------------------------------------

/// Closed model of `tdb_cluster::scheduler::ScanScheduler::submit` for a
/// single scan-group key: the batch is `Some(entries)` while open, the
/// leader closes it by `take`-ing it. Mirrors the fixed protocol —
/// joiners check fullness before pushing and wait for the close, the
/// leader notifies on close.
struct BatchModel {
    open: Mutex<Option<Vec<usize>>>,
    joined: Condvar,
    ran: Mutex<Vec<Vec<usize>>>,
}

impl BatchModel {
    fn new() -> Self {
        Self {
            open: Mutex::new(None),
            joined: Condvar::new(),
            ran: Mutex::new(Vec::new()),
        }
    }

    fn submit(&self, me: usize, max_batch: usize, overshoot_bug: bool) {
        let leader = {
            let mut open = self.open.lock();
            loop {
                match open.as_mut() {
                    Some(batch) if overshoot_bug || batch.len() < max_batch => {
                        batch.push(me);
                        self.joined.notify_all();
                        break false;
                    }
                    Some(_) => self.joined.wait(&mut open),
                    None => {
                        *open = Some(vec![me]);
                        break true;
                    }
                }
            }
        };
        if leader {
            let mut open = self.open.lock();
            // the coalescing window: bounded timed waits stand in for the
            // Instant deadline of the real scheduler
            let mut rounds = 0;
            while open.as_ref().map_or(0, |b| b.len()) < max_batch {
                if self
                    .joined
                    .wait_for(&mut open, Duration::from_millis(1))
                    .timed_out()
                {
                    rounds += 1;
                    if rounds > 2 {
                        break;
                    }
                }
            }
            let batch = open.take().expect("batch vanished under its leader");
            self.joined.notify_all();
            drop(open);
            assert!(
                batch.len() <= max_batch,
                "batch of {} overshot max_batch={max_batch}",
                batch.len()
            );
            self.ran.lock().push(batch);
        }
    }
}

fn batch_close_model(overshoot_bug: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        let m = Arc::new(BatchModel::new());
        let handles: Vec<_> = (1..3)
            .map(|id| {
                let m2 = Arc::clone(&m);
                thread::spawn(move || m2.submit(id, 2, overshoot_bug))
            })
            .collect();
        m.submit(0, 2, overshoot_bug);
        for h in handles {
            h.join();
        }
        // every submitter ran in exactly one closed batch
        let mut served: Vec<usize> = m.ran.lock().iter().flatten().copied().collect();
        served.sort_unstable();
        assert_eq!(served, [0, 1, 2], "submitters lost or double-served");
    }
}

#[test]
fn scan_scheduler_batch_close_passes() {
    let report = Model::new("scheduler: batch close")
        .budget(4096)
        .check_quiet(batch_close_model(false));
    assert!(report.failure.is_none(), "{:?}", report.failure);
}

/// Regression: the pre-fix joiner pushed without checking fullness, so a
/// burst could overshoot `max_batch` while the leader slept. The checker
/// must find that interleaving.
#[test]
fn scan_scheduler_overshoot_regression_is_caught() {
    let report = Model::new("scheduler: overshoot regression")
        .budget(4096)
        .check_quiet(batch_close_model(true));
    let failure = report.failure.expect("checker must catch the overshoot");
    assert_eq!(failure.kind, FailureKind::Panic, "{failure:?}");
    assert!(
        failure.message.contains("overshot max_batch"),
        "{failure:?}"
    );
}

// ---------------------------------------------------------------------
// 2. Mediator: failover re-scatter vs topology generation swap
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
// 3. AdmissionQueue: WFQ grant / evict / shed (real code)
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
// 4. BufferPool: eviction vs concurrent decode (real code)
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
// 5. BufferPool: single-flight loads outside the pool lock (real code)
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
// 6. SemanticCache: replace vs lookup vs invalidate (real code)
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
            // whichever of the two writers committed last decided the key;
            // the insert loses at most one commit to the single invalidate
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
