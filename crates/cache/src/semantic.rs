//! Algorithm 1: `GetThreshold` against the cache table.
//!
//! The cache is *self-healing*: every entry stores a checksum over its
//! data rows, validated whenever the entry is about to answer a query. A
//! mismatch (SSD bit-rot, injected corruption) quarantines the entry —
//! it is dropped, the lookup reports [`CacheLookup::Quarantined`], and
//! the caller recomputes from raw data and re-inserts, rebuilding the
//! entry byte-identically to a fault-free evaluation.

use std::sync::Arc;

use tdb_field::at_or_above;
use tdb_obs::m;
use tdb_storage::device::{DeviceId, IoSession};
use tdb_storage::faults::{splitmix64, FaultPlan};
use tdb_zorder::{decode3, encode3, Box3, MortonBlockDecoder};

use crate::stats::CacheStats;
use crate::table::LruTable;

/// Primary key of a `cacheInfo` row: which derived quantity of which
/// time-step the entry describes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheInfoKey {
    pub dataset: String,
    /// Raw field + derived-field pair, e.g. `velocity/curl_norm`.
    pub field: String,
    pub timestep: u32,
}

/// A cached result: the `cacheInfo` row (paper §4: "start and end
/// coordinates of the spatial region examined and the threshold value")
/// together with its `cacheData` rows, immutable once committed.
struct Entry {
    region: Box3,
    threshold: f64,
    /// Checksum over `rows` as inserted, validated before the entry
    /// answers a query.
    checksum: u64,
    /// The `cacheData` rows as one slab in zindex order.
    rows: Vec<ThresholdPoint>,
}

/// One cached above-threshold grid point: Morton code of the location and
/// the field norm there (`cacheData`'s `zindex` / `dataValue` columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdPoint {
    pub zindex: u64,
    pub value: f32,
}

impl ThresholdPoint {
    /// Grid coordinates of the point.
    pub fn coords(&self) -> (u32, u32, u32) {
        decode3(self.zindex)
    }

    /// Builds a point from grid coordinates.
    pub fn at(x: u32, y: u32, z: u32, value: f32) -> Self {
        Self {
            zindex: encode3(x, y, z),
            value,
        }
    }
}

/// A scan hit `(zindex, value)`, so the scan kernels push points directly.
impl From<(u64, f32)> for ThresholdPoint {
    fn from((zindex, value): (u64, f32)) -> Self {
        Self { zindex, value }
    }
}

/// Bytes one `cacheData` row occupies on the SSD (8-byte zindex + 4-byte
/// value, matching the paper's ~40 MB for 10⁶ points including overhead).
pub const DATA_ROW_BYTES: u64 = 12;
/// Approximate on-SSD footprint of a `cacheInfo` row.
pub const INFO_ROW_BYTES: u64 = 64;

/// Cache sizing and device binding.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// SSD capacity available for cache tables on this node.
    pub budget_bytes: u64,
    /// Device charged for cache-table I/O.
    pub ssd: DeviceId,
    /// Fault-injection plan consulted on inserts (silent SSD corruption).
    pub faults: Option<Arc<FaultPlan>>,
}

/// Result of a cache lookup.
#[derive(Debug, Clone)]
pub enum CacheLookup {
    /// Answered from `cacheData`; points filtered to the query.
    Hit(Vec<ThresholdPoint>),
    /// No usable entry: evaluate from raw data and [`SemanticCache::insert`].
    Miss,
    /// A covering entry existed but failed checksum validation and was
    /// dropped. The caller must recompute from raw data and re-insert,
    /// which rebuilds (heals) the entry.
    Quarantined,
}

/// One node's application-aware semantic cache.
pub struct SemanticCache {
    table: LruTable<CacheInfoKey, Entry>,
    config: CacheConfig,
}

impl SemanticCache {
    /// Empty cache bound to an SSD device.
    pub fn new(config: CacheConfig) -> Self {
        Self {
            table: LruTable::new(config.budget_bytes),
            config,
        }
    }

    /// Algorithm 1, lines 4–28: looks up `(key)` and answers from the cache
    /// when the stored entry covers `query_box` at a threshold no higher
    /// than `threshold`. A hit reads one whole entry and writes nothing.
    pub fn lookup(
        &self,
        key: &CacheInfoKey,
        query_box: &Box3,
        threshold: f64,
        session: &mut IoSession,
    ) -> CacheLookup {
        // cacheInfo lookup: one clustered-index probe on the SSD
        session.charge(self.config.ssd, 1, INFO_ROW_BYTES);
        // written so that it cannot hold for a NaN on either side: an
        // entry stored at NaN would otherwise cover every later threshold
        let covering = self.table.get(key).filter(|row| {
            row.entry.threshold <= threshold && row.entry.region.contains_box(query_box)
        });
        let Some(row) = covering else {
            self.table
                .add(&m::CACHE_SEMANTIC_MISSES, 1, |s| &mut s.misses);
            return CacheLookup::Miss;
        };
        // cacheData scan: index lookup, then a run of rows off the SSD
        let rows = &row.entry.rows;
        let data_bytes = rows.len() as u64 * DATA_ROW_BYTES;
        session.charge(self.config.ssd, 1 + data_bytes / (64 * 1024), data_bytes);
        // validate the full entry before answering from it: a mismatch
        // means the stored rows rotted — drop this entry (not a replacement
        // committed meanwhile) and make the caller recompute it
        if rows_checksum(rows) != row.entry.checksum {
            self.table.remove(key, Some(&row));
            self.table
                .add(&m::CACHE_SEMANTIC_QUARANTINED, 1, |s| &mut s.quarantined);
            return CacheLookup::Quarantined;
        }
        // Rows are in zindex order, so consecutive points usually share
        // an 8³ atom: the block decoder re-derives the atom base only when
        // the run crosses an atom boundary, instead of de-interleaving all
        // 63 bits per point.
        let mut decoder = MortonBlockDecoder::default();
        let points: Vec<ThresholdPoint> = rows
            .iter()
            .filter(|p| {
                let (x, y, z) = decoder.decode(p.zindex);
                at_or_above(p.value, threshold) && query_box.contains_point(x, y, z)
            })
            .copied()
            .collect();
        self.table.touch(&row);
        self.table.add(&m::CACHE_SEMANTIC_HITS, 1, |s| &mut s.hits);
        CacheLookup::Hit(points)
    }

    /// Algorithm 1, line 37: stores a freshly evaluated result, replacing
    /// any previous entry for `key` and evicting least-recently-used
    /// entries (across all quantities) until the byte budget holds — all
    /// at once, so no lookup sees the one without the other.
    pub fn insert(
        &self,
        key: &CacheInfoKey,
        region: Box3,
        threshold: f64,
        points: &[ThresholdPoint],
        session: &mut IoSession,
    ) {
        let mut rows = points.to_vec();
        rows.sort_unstable_by_key(|p| p.zindex);
        let checksum = rows_checksum(&rows);
        // injected silent corruption: flip one stored value's bits while
        // leaving the checksum stale, so the next lookup quarantines
        let faults = self.config.faults.as_ref();
        if faults.is_some_and(|plan| plan.cache_insert_corrupts(key_hash(key))) {
            if let Some(first) = rows.first_mut() {
                rot(first);
            }
        }
        // one sequential SSD write of the new entry
        let bytes = INFO_ROW_BYTES + rows.len() as u64 * DATA_ROW_BYTES;
        session.charge(self.config.ssd, 1 + bytes / (64 * 1024), bytes);
        let entry = Entry {
            region,
            threshold,
            checksum,
            rows,
        };
        let table = &self.table;
        let evictions = table.insert(key, entry, bytes);
        table.add(&m::CACHE_SEMANTIC_INSERTS, 1, |s| &mut s.inserts);
        table.add(&m::CACHE_SEMANTIC_EVICTIONS, evictions, |s| {
            &mut s.evictions
        });
    }

    /// Chaos hook: flips the bits of one stored data row of `key`'s entry
    /// without touching its checksum, simulating silent SSD bit-rot.
    /// Returns `false` when the key has no entry with data rows to
    /// corrupt. The next covering lookup will quarantine the entry.
    pub fn corrupt_entry(&self, key: &CacheInfoKey) -> bool {
        let Some(row) = self.table.get(key) else {
            return false;
        };
        let mut rows = row.entry.rows.clone();
        let Some(first) = rows.first_mut() else {
            return false;
        };
        rot(first);
        let rotten = Entry { rows, ..row.entry };
        self.table.insert(key, rotten, row.bytes);
        true
    }

    /// Drops the entry for one key (used by experiments to force misses).
    pub fn invalidate(&self, key: &CacheInfoKey) {
        self.table.remove(key, None);
    }

    /// Drops everything.
    pub fn clear(&self) {
        self.table.remove_where(|_| true);
    }

    /// Bytes currently used by live entries.
    pub fn used_bytes(&self) -> u64 {
        self.table.used_bytes()
    }

    /// Number of live `cacheInfo` entries.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        self.table.stats()
    }
}

/// Checksum over `(zindex, value)` rows in slab (zindex) order.
fn rows_checksum(rows: &[ThresholdPoint]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in rows {
        h = splitmix64(h ^ p.zindex);
        h = splitmix64(h ^ u64::from(p.value.to_bits()));
    }
    h
}

/// Bit-rot of one stored row: its value's bits flipped.
fn rot(p: &mut ThresholdPoint) {
    p.value = f32::from_bits(p.value.to_bits() ^ 0x5A5A_5A5A);
}

/// Deterministic hash of a cache key, the identity fault plans roll on.
fn key_hash(key: &CacheInfoKey) -> u64 {
    let mut h = splitmix64(u64::from(key.timestep));
    for b in key.dataset.bytes().chain(key.field.bytes()) {
        h = splitmix64(h ^ u64::from(b));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_storage::device::{DeviceProfile, DeviceRegistry};

    fn mkcache(budget: u64) -> (SemanticCache, DeviceRegistry) {
        let mut reg = DeviceRegistry::new();
        let ssd = reg.register(DeviceProfile::ssd());
        (
            SemanticCache::new(CacheConfig {
                budget_bytes: budget,
                ssd,
                faults: None,
            }),
            reg,
        )
    }

    fn key(ts: u32) -> CacheInfoKey {
        CacheInfoKey {
            dataset: "mhd".into(),
            field: "velocity/curl_norm".into(),
            timestep: ts,
        }
    }

    fn pts(values: &[(u32, u32, u32, f32)]) -> Vec<ThresholdPoint> {
        values
            .iter()
            .map(|&(x, y, z, v)| ThresholdPoint::at(x, y, z, v))
            .collect()
    }

    #[test]
    fn miss_then_hit_roundtrip() {
        let (cache, _) = mkcache(1 << 20);
        let mut s = IoSession::new();
        let region = Box3::cube(64);
        let k = key(0);
        assert!(matches!(
            cache.lookup(&k, &region, 50.0, &mut s),
            CacheLookup::Miss
        ));
        let points = pts(&[(1, 2, 3, 55.0), (10, 10, 10, 80.0)]);
        cache.insert(&k, region, 50.0, &points, &mut s);
        match cache.lookup(&k, &region, 50.0, &mut s) {
            CacheLookup::Hit(got) => assert_eq!(got.len(), 2),
            other => panic!("expected hit, got {other:?}"),
        }
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.inserts), (1, 1, 1));
    }

    #[test]
    fn higher_threshold_filters_hit_lower_threshold_misses() {
        let (cache, _) = mkcache(1 << 20);
        let mut s = IoSession::new();
        let region = Box3::cube(64);
        let k = key(1);
        let points = pts(&[(0, 0, 0, 55.0), (1, 1, 1, 70.0), (2, 2, 2, 90.0)]);
        cache.insert(&k, region, 50.0, &points, &mut s);
        // same region, higher threshold: hit with filtering (paper: "the
        // ones that have a higher value are returned")
        match cache.lookup(&k, &region, 69.0, &mut s) {
            CacheLookup::Hit(got) => {
                assert_eq!(got.len(), 2);
                assert!(got.iter().all(|p| f64::from(p.value) >= 69.0));
            }
            other => panic!("expected hit, got {other:?}"),
        }
        // lower threshold than stored: the cache cannot answer, and a NaN
        // on either side covers nothing
        assert!(matches!(
            cache.lookup(&k, &region, 30.0, &mut s),
            CacheLookup::Miss
        ));
        assert!(matches!(
            cache.lookup(&k, &region, f64::NAN, &mut s),
            CacheLookup::Miss
        ));
        cache.insert(&k, region, f64::NAN, &[], &mut s);
        assert!(matches!(
            cache.lookup(&k, &region, 69.0, &mut s),
            CacheLookup::Miss
        ));
    }

    #[test]
    fn sub_region_hits_super_region_misses() {
        let (cache, _) = mkcache(1 << 20);
        let mut s = IoSession::new();
        let region = Box3::new([0, 0, 0], [31, 31, 31]);
        let k = key(2);
        let points = pts(&[(5, 5, 5, 60.0), (40, 1, 1, 75.0)]);
        // note: point (40,1,1) lies outside the region; insert anyway to
        // verify box filtering on hits
        cache.insert(&k, region, 50.0, &points, &mut s);
        let sub = Box3::new([0, 0, 0], [10, 10, 10]);
        match cache.lookup(&k, &sub, 50.0, &mut s) {
            CacheLookup::Hit(got) => {
                assert_eq!(got.len(), 1);
                assert_eq!(got[0].coords(), (5, 5, 5));
            }
            other => panic!("expected hit, got {other:?}"),
        }
        let superbox = Box3::new([0, 0, 0], [63, 63, 63]);
        assert!(matches!(
            cache.lookup(&k, &superbox, 50.0, &mut s),
            CacheLookup::Miss
        ));
    }

    #[test]
    fn different_timesteps_are_independent() {
        let (cache, _) = mkcache(1 << 20);
        let mut s = IoSession::new();
        let region = Box3::cube(16);
        cache.insert(&key(0), region, 10.0, &pts(&[(0, 0, 0, 20.0)]), &mut s);
        assert!(matches!(
            cache.lookup(&key(1), &region, 10.0, &mut s),
            CacheLookup::Miss
        ));
    }

    #[test]
    fn replacement_updates_threshold() {
        let (cache, _) = mkcache(1 << 20);
        let mut s = IoSession::new();
        let region = Box3::cube(16);
        let k = key(3);
        cache.insert(&k, region, 80.0, &pts(&[(0, 0, 0, 90.0)]), &mut s);
        // re-evaluated at a lower threshold: replaces the entry
        cache.insert(
            &k,
            region,
            40.0,
            &pts(&[(0, 0, 0, 90.0), (1, 0, 0, 45.0)]),
            &mut s,
        );
        match cache.lookup(&k, &region, 40.0, &mut s) {
            CacheLookup::Hit(got) => assert_eq!(got.len(), 2),
            other => panic!("expected hit after replacement, got {other:?}"),
        }
        assert_eq!(cache.len(), 1, "old entry replaced, not duplicated");
    }

    #[test]
    fn lru_eviction_under_budget_pressure() {
        // room for ~2 entries of 10 points each
        let budget = 2 * (INFO_ROW_BYTES + 10 * DATA_ROW_BYTES) + 8;
        let (cache, _) = mkcache(budget);
        let mut s = IoSession::new();
        let region = Box3::cube(16);
        let tenpts: Vec<ThresholdPoint> = (0..10)
            .map(|i| ThresholdPoint::at(i, 0, 0, 50.0 + i as f32))
            .collect();
        cache.insert(&key(0), region, 10.0, &tenpts, &mut s);
        cache.insert(&key(1), region, 10.0, &tenpts, &mut s);
        // touch entry 0 so entry 1 is the LRU victim
        assert!(matches!(
            cache.lookup(&key(0), &region, 10.0, &mut s),
            CacheLookup::Hit(_)
        ));
        cache.insert(&key(2), region, 10.0, &tenpts, &mut s);
        assert_eq!(cache.len(), 2);
        assert!(matches!(
            cache.lookup(&key(1), &region, 10.0, &mut s),
            CacheLookup::Miss
        ));
        assert!(matches!(
            cache.lookup(&key(0), &region, 10.0, &mut s),
            CacheLookup::Hit(_)
        ));
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.used_bytes() <= budget);
    }

    #[test]
    fn replacement_by_a_larger_entry_keeps_the_budget() {
        let entry = |n: u64| INFO_ROW_BYTES + n * DATA_ROW_BYTES;
        let budget = 2 * entry(10) + 8;
        let (cache, _) = mkcache(budget);
        let mut s = IoSession::new();
        let region = Box3::cube(16);
        let npts = |n: u32| -> Vec<ThresholdPoint> {
            (0..n).map(|i| ThresholdPoint::at(i, 0, 0, 50.0)).collect()
        };
        cache.insert(&key(0), region, 10.0, &npts(10), &mut s);
        cache.insert(&key(1), region, 10.0, &npts(10), &mut s);
        // the old entry's bytes are freed once, not counted twice: growing
        // key 0 to 20 points has to push key 1 out
        cache.insert(&key(0), region, 5.0, &npts(20), &mut s);
        assert!(cache.used_bytes() <= budget, "{} B", cache.used_bytes());
        assert_eq!((cache.len(), cache.stats().evictions), (1, 1));
    }

    #[test]
    fn invalidate_and_clear() {
        let (cache, _) = mkcache(1 << 20);
        let mut s = IoSession::new();
        let region = Box3::cube(16);
        cache.insert(&key(0), region, 10.0, &pts(&[(0, 0, 0, 20.0)]), &mut s);
        cache.insert(&key(1), region, 10.0, &pts(&[(0, 0, 0, 20.0)]), &mut s);
        cache.invalidate(&key(0));
        assert!(matches!(
            cache.lookup(&key(0), &region, 10.0, &mut s),
            CacheLookup::Miss
        ));
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn lookup_charges_ssd_not_hdd() {
        let (cache, reg) = mkcache(1 << 20);
        let mut s = IoSession::new();
        let region = Box3::cube(16);
        let many: Vec<ThresholdPoint> = (0..1000)
            .map(|i| ThresholdPoint::at(i % 16, (i / 16) % 16, 0, 60.0))
            .collect();
        // dedupe zindexes: at() may collide; rebuild uniquely
        let many: Vec<ThresholdPoint> = many
            .into_iter()
            .enumerate()
            .map(|(i, _)| ThresholdPoint {
                zindex: i as u64,
                value: 60.0,
            })
            .collect();
        cache.insert(&key(5), region, 50.0, &many, &mut s);
        let mut hit_session = IoSession::new();
        let _ = cache.lookup(&key(5), &region, 50.0, &mut hit_session);
        let ssd = hit_session.access(DeviceId(0));
        assert!(ssd.bytes >= 1000 * DATA_ROW_BYTES);
        // modelled time for the hit is far below a cold HDD scan of 1 GB
        let t = hit_session.makespan(&reg);
        assert!(t < 0.05, "cache hit should be milliseconds, got {t}");
    }

    #[test]
    fn corrupted_entry_is_quarantined_then_healed() {
        let (cache, _) = mkcache(1 << 20);
        let mut s = IoSession::new();
        let region = Box3::cube(16);
        let k = key(7);
        let points = pts(&[(1, 1, 1, 60.0), (2, 2, 2, 70.0)]);
        cache.insert(&k, region, 50.0, &points, &mut s);
        assert!(cache.corrupt_entry(&k));
        assert!(matches!(
            cache.lookup(&k, &region, 50.0, &mut s),
            CacheLookup::Quarantined
        ));
        assert_eq!(cache.stats().quarantined, 1);
        // the rotten entry is gone: the next lookup is a plain miss
        assert!(matches!(
            cache.lookup(&k, &region, 50.0, &mut s),
            CacheLookup::Miss
        ));
        // recompute-and-reinsert heals; the healed entry answers exactly
        cache.insert(&k, region, 50.0, &points, &mut s);
        match cache.lookup(&k, &region, 50.0, &mut s) {
            CacheLookup::Hit(got) => {
                let mut want = points.clone();
                want.sort_unstable_by_key(|p| p.zindex);
                assert_eq!(got, want);
            }
            other => panic!("expected healed hit, got {other:?}"),
        }
    }

    #[test]
    fn injected_insert_corruption_is_detected_on_lookup() {
        use tdb_storage::faults::FaultRule;
        let mut reg = DeviceRegistry::new();
        let ssd = reg.register(DeviceProfile::ssd());
        let plan = FaultPlan::new(0)
            .with_rule(FaultRule::corrupt_cache_inserts(1.0))
            .shared();
        let cache = SemanticCache::new(CacheConfig {
            budget_bytes: 1 << 20,
            ssd,
            faults: Some(Arc::clone(&plan)),
        });
        let mut s = IoSession::new();
        let region = Box3::cube(16);
        let k = key(9);
        cache.insert(&k, region, 50.0, &pts(&[(3, 3, 3, 66.0)]), &mut s);
        assert!(plan.counts().corrupt >= 1, "insert fault must have fired");
        assert!(matches!(
            cache.lookup(&k, &region, 50.0, &mut s),
            CacheLookup::Quarantined
        ));
    }

    #[test]
    fn concurrent_insert_and_lookup_never_sees_partial_entry() {
        let (cache, _) = mkcache(1 << 22);
        let cache = std::sync::Arc::new(cache);
        let region = Box3::cube(64);
        let writer = {
            let c = std::sync::Arc::clone(&cache);
            std::thread::spawn(move || {
                for ts in 0..20u32 {
                    let points: Vec<ThresholdPoint> = (0..500)
                        .map(|i| ThresholdPoint {
                            zindex: i,
                            value: 50.0 + (i % 10) as f32,
                        })
                        .collect();
                    let mut s = IoSession::new();
                    c.insert(&key(ts), region, 50.0, &points, &mut s);
                }
            })
        };
        let reader = {
            let c = std::sync::Arc::clone(&cache);
            std::thread::spawn(move || {
                let mut seen_hits = 0u32;
                for _ in 0..200 {
                    for ts in 0..20u32 {
                        let mut s = IoSession::new();
                        if let CacheLookup::Hit(points) = c.lookup(&key(ts), &region, 50.0, &mut s)
                        {
                            // snapshot isolation: all 500 rows or none
                            assert_eq!(points.len(), 500, "partial entry visible");
                            seen_hits += 1;
                        }
                    }
                }
                seen_hits
            })
        };
        writer.join().unwrap();
        // the concurrent reader may be scheduled entirely before the writer
        // on a loaded machine, so only the partial-entry assertion above is
        // required of it; visibility is asserted once the writer has joined
        reader.join().unwrap();
        for ts in 0..20u32 {
            let mut s = IoSession::new();
            match cache.lookup(&key(ts), &region, 50.0, &mut s) {
                CacheLookup::Hit(points) => assert_eq!(points.len(), 500),
                other => panic!("entry {ts} not visible after writer join: {other:?}"),
            }
        }
    }

    #[test]
    fn replacement_racing_lookup_never_quarantines_a_healthy_entry() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (cache, _) = mkcache(1 << 22);
        let cache = Arc::new(cache);
        let region = Box3::cube(64);
        let generation = |g: u32| -> Vec<ThresholdPoint> {
            (0..200u32)
                .map(|i| ThresholdPoint {
                    zindex: u64::from(i),
                    value: 50.0 + ((i + g) % 10) as f32,
                })
                .collect()
        };
        cache.insert(&key(0), region, 50.0, &generation(0), &mut IoSession::new());
        let done = Arc::new(AtomicBool::new(false));
        let writer = {
            let (c, done) = (Arc::clone(&cache), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut g = 0;
                while !done.load(Ordering::Relaxed) {
                    g += 1;
                    c.insert(&key(0), region, 50.0, &generation(g), &mut IoSession::new());
                }
            })
        };
        // no fault is injected and the key always has an entry, so every
        // lookup is a hit on one whole generation
        for i in 0..20_000 {
            match cache.lookup(&key(0), &region, 50.0, &mut IoSession::new()) {
                CacheLookup::Hit(points) => assert_eq!(points.len(), 200, "partial entry"),
                other => panic!("lookup {i} of a healthy entry: {other:?}"),
            }
        }
        done.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        assert!(matches!(
            cache.lookup(&key(0), &region, 50.0, &mut IoSession::new()),
            CacheLookup::Hit(_)
        ));
        let st = cache.stats();
        assert_eq!((st.quarantined, st.misses), (0, 0));
    }

    #[test]
    fn hits_leave_the_store_as_the_insert_left_it() {
        let (cache, _) = mkcache(1 << 20);
        let mut s = IoSession::new();
        let region = Box3::cube(16);
        for ts in 0..2 {
            cache.insert(&key(ts), region, 10.0, &pts(&[(0, 0, 0, 20.0)]), &mut s);
        }
        let stored = cache.table.dump();
        for i in 0..10_000 {
            assert!(matches!(
                cache.lookup(&key(i % 2), &region, 10.0, &mut s),
                CacheLookup::Hit(_)
            ));
        }
        // same clock, same rows, the very same entries
        assert_eq!(cache.table.dump(), stored);
    }
}
