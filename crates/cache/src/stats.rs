//! Cache observability counters.

/// Cumulative counters of one node's semantic cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no usable entry.
    pub misses: u64,
    /// Entries inserted (including replacements).
    pub inserts: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries dropped because their stored rows failed checksum
    /// validation on lookup (the caller recomputes and re-inserts).
    pub quarantined: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; `None` before any lookup.
    pub fn hit_ratio(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_handles_empty() {
        assert_eq!(CacheStats::default().hit_ratio(), None);
        let s = CacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert_eq!(s.hit_ratio(), Some(0.75));
    }
}
