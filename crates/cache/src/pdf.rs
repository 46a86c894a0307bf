//! Caching PDF (histogram) query results.
//!
//! "Nevertheless, it [the cache] can easily be extended to cache the
//! results of other query types as well if that becomes advantageous"
//! (paper §4). PDFs are natural candidates: like threshold queries they
//! scan a whole time-step, their results are tiny, and scientists consult
//! them repeatedly to pick thresholds (Fig. 2). Unlike threshold results
//! a histogram cannot be filtered to a sub-region or re-binned, so a hit
//! requires the *exact* region and binning.

use tdb_obs::m;
use tdb_storage::device::{DeviceId, IoSession};
use tdb_zorder::Box3;

use crate::semantic::CacheInfoKey;
use crate::stats::CacheStats;
use crate::table::LruTable;

/// Key of a cached PDF: the quantity plus the exact binning.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PdfKey {
    pub base: CacheInfoKey,
    /// Bit patterns of the f64 binning parameters (exact match).
    pub origin_bits: u64,
    pub width_bits: u64,
    pub nbins: u32,
}

impl PdfKey {
    /// Builds a key from the query parameters.
    pub fn new(base: CacheInfoKey, origin: f64, width: f64, nbins: u32) -> Self {
        Self {
            base,
            origin_bits: origin.to_bits(),
            width_bits: width.to_bits(),
            nbins,
        }
    }
}

struct PdfEntry {
    region: Box3,
    counts: Vec<u64>,
}

fn entry_bytes(nbins: usize) -> u64 {
    96 + nbins as u64 * 8
}

/// Result of a PDF-cache probe.
#[derive(Debug, Clone)]
pub enum PdfLookup {
    Hit(Vec<u64>),
    Miss,
}

/// Per-node cache of histogram results, sharing the node's SSD.
pub struct PdfCache {
    table: LruTable<PdfKey, PdfEntry>,
    ssd: DeviceId,
}

impl PdfCache {
    /// Empty cache with a byte budget on the node's SSD.
    pub fn new(ssd: DeviceId, budget_bytes: u64) -> Self {
        Self {
            table: LruTable::new(budget_bytes),
            ssd,
        }
    }

    /// Probes for a histogram over exactly `region` with exactly this
    /// binning.
    pub fn lookup(&self, key: &PdfKey, region: &Box3, session: &mut IoSession) -> PdfLookup {
        session.charge(self.ssd, 1, entry_bytes(key.nbins as usize));
        match self.table.get(key) {
            Some(row) if row.entry.region == *region => {
                self.table.touch(&row);
                self.table.add(&m::CACHE_PDF_HITS, 1, |s| &mut s.hits);
                PdfLookup::Hit(row.entry.counts.clone())
            }
            _ => {
                self.table.add(&m::CACHE_PDF_MISSES, 1, |s| &mut s.misses);
                PdfLookup::Miss
            }
        }
    }

    /// Stores a freshly computed histogram, evicting LRU entries to fit.
    pub fn insert(&self, key: &PdfKey, region: Box3, counts: Vec<u64>, session: &mut IoSession) {
        let bytes = entry_bytes(counts.len());
        session.charge(self.ssd, 1, bytes);
        let entry = PdfEntry { region, counts };
        let evictions = self.table.insert(key, entry, bytes);
        self.table.add(&m::CACHE_PDF_INSERTS, 1, |s| &mut s.inserts);
        self.table
            .add(&m::CACHE_PDF_EVICTIONS, evictions, |s| &mut s.evictions);
    }

    /// Drops every binning cached for one quantity.
    pub fn invalidate(&self, base: &CacheInfoKey) {
        self.table.remove_where(|k| k.base == *base);
    }

    /// Drops everything.
    pub fn clear(&self) {
        self.table.remove_where(|_| true);
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether no histograms are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.table.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_storage::device::{DeviceProfile, DeviceRegistry};

    fn key(ts: u32, nbins: u32) -> PdfKey {
        PdfKey::new(
            CacheInfoKey {
                dataset: "mhd".into(),
                field: "velocity/curl_norm".into(),
                timestep: ts,
            },
            0.0,
            10.0,
            nbins,
        )
    }

    fn mk() -> (PdfCache, DeviceRegistry) {
        let mut reg = DeviceRegistry::new();
        let ssd = reg.register(DeviceProfile::ssd());
        (PdfCache::new(ssd, 4096), reg)
    }

    #[test]
    fn miss_insert_hit() {
        let (cache, _) = mk();
        let mut s = IoSession::new();
        let region = Box3::cube(32);
        let k = key(0, 10);
        assert!(matches!(cache.lookup(&k, &region, &mut s), PdfLookup::Miss));
        cache.insert(&k, region, vec![5, 4, 3], &mut s);
        match cache.lookup(&k, &region, &mut s) {
            PdfLookup::Hit(counts) => assert_eq!(counts, vec![5, 4, 3]),
            PdfLookup::Miss => panic!("expected hit"),
        }
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.inserts), (1, 1, 1));
    }

    #[test]
    fn binning_and_region_must_match_exactly() {
        let (cache, _) = mk();
        let mut s = IoSession::new();
        let region = Box3::cube(32);
        cache.insert(&key(0, 10), region, vec![1; 11], &mut s);
        // different bin count
        assert!(matches!(
            cache.lookup(&key(0, 20), &region, &mut s),
            PdfLookup::Miss
        ));
        // different origin
        let mut k2 = key(0, 10);
        k2.origin_bits = 1.0f64.to_bits();
        assert!(matches!(
            cache.lookup(&k2, &region, &mut s),
            PdfLookup::Miss
        ));
        // different region
        let sub = Box3::cube(16);
        assert!(matches!(
            cache.lookup(&key(0, 10), &sub, &mut s),
            PdfLookup::Miss
        ));
    }

    #[test]
    fn lru_eviction_under_budget() {
        let mut reg = DeviceRegistry::new();
        let ssd = reg.register(DeviceProfile::ssd());
        // room for ~2 entries of 10 bins
        let cache = PdfCache::new(ssd, 2 * entry_bytes(11) + 8);
        let mut s = IoSession::new();
        let region = Box3::cube(8);
        cache.insert(&key(0, 10), region, vec![0; 11], &mut s);
        cache.insert(&key(1, 10), region, vec![0; 11], &mut s);
        // touch 0, insert 2 → 1 is evicted
        let _ = cache.lookup(&key(0, 10), &region, &mut s);
        cache.insert(&key(2, 10), region, vec![0; 11], &mut s);
        assert_eq!(cache.len(), 2);
        assert!(matches!(
            cache.lookup(&key(1, 10), &region, &mut s),
            PdfLookup::Miss
        ));
        assert!(matches!(
            cache.lookup(&key(0, 10), &region, &mut s),
            PdfLookup::Hit(_)
        ));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn invalidate_drops_every_binning_of_one_quantity() {
        let (cache, _) = mk();
        let mut s = IoSession::new();
        let region = Box3::cube(8);
        for (ts, nbins) in [(0, 10), (0, 20), (1, 10)] {
            cache.insert(&key(ts, nbins), region, vec![1; 11], &mut s);
        }
        cache.invalidate(&key(0, 10).base);
        assert_eq!(cache.len(), 1);
        assert!(matches!(
            cache.lookup(&key(1, 10), &region, &mut s),
            PdfLookup::Hit(_)
        ));
    }

    #[test]
    fn clear_empties() {
        let (cache, _) = mk();
        let mut s = IoSession::new();
        cache.insert(&key(0, 10), Box3::cube(8), vec![1; 11], &mut s);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn hits_leave_the_store_as_the_insert_left_it() {
        let (cache, _) = mk();
        let mut s = IoSession::new();
        let region = Box3::cube(8);
        cache.insert(&key(0, 10), region, vec![1; 11], &mut s);
        let stored = cache.table.dump();
        for _ in 0..10_000 {
            assert!(matches!(
                cache.lookup(&key(0, 10), &region, &mut s),
                PdfLookup::Hit(_)
            ));
        }
        assert_eq!(cache.table.dump(), stored);
    }
}
