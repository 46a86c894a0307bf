//! The one eviction policy of a node's stores, least recently used to a
//! byte budget (DESIGN.md §9): the buffer pool and both result caches each
//! hold an [`LruMap`], guarded by the lock its owner already takes.

use std::collections::{BTreeMap, HashMap};

/// Weighted entries evicted least-recently-used once their weights pass
/// the budget. A lone entry stays whatever it weighs.
pub struct LruMap<K, V> {
    /// Each key's value, weight and recency stamp.
    entries: HashMap<K, (V, u64, u64)>,
    /// Every key by its stamp, the least recently used first.
    order: BTreeMap<u64, K>,
    clock: u64,
    used: u64,
    budget: u64,
}

impl<K: std::hash::Hash + Eq + Clone, V> LruMap<K, V> {
    /// An empty map that evicts past `budget` weight.
    pub fn new(budget: u64) -> Self {
        Self {
            entries: HashMap::new(),
            order: BTreeMap::new(),
            clock: 0,
            used: 0,
            budget,
        }
    }

    /// The value under `key`, which becomes the most recently used. Its
    /// key moves to the new stamp, never cloned: a hit allocates nothing.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let (value, _, stamp) = self.entries.get_mut(key)?;
        self.clock += 1;
        let key = self.order.remove(&std::mem::replace(stamp, self.clock));
        self.order.extend(key.map(|key| (self.clock, key)));
        Some(value)
    }

    /// Stores `value` under `key` as the most recently used entry, then
    /// evicts the least recently used while the weights pass the budget.
    /// Returns the value the key held and the evicted ones, for the
    /// caller to drop outside its lock.
    pub fn insert(&mut self, key: K, value: V, weight: u64) -> (Option<V>, Vec<V>) {
        let replaced = self.remove_if(&key, |_| true);
        self.clock += 1;
        self.used += weight;
        self.order.insert(self.clock, key.clone());
        self.entries.insert(key, (value, weight, self.clock));
        let mut evicted = Vec::new();
        while self.used > self.budget && self.entries.len() > 1 {
            let Some(&victim) = self.order.keys().next() else {
                break;
            };
            evicted.extend(self.remove_at(victim));
        }
        (replaced, evicted)
    }

    /// Removes `key`'s entry if `pred` holds for its value.
    pub fn remove_if(&mut self, key: &K, pred: impl FnOnce(&V) -> bool) -> Option<V> {
        let &(ref value, _, stamp) = self.entries.get(key)?;
        pred(value).then_some(stamp).and_then(|s| self.remove_at(s))
    }

    /// Keeps the entries whose key `keep` accepts; returns the others.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) -> Vec<V> {
        let doomed: Vec<u64> = (self.order.iter())
            .filter(|(_, key)| !keep(key))
            .map(|(&stamp, _)| stamp)
            .collect();
        doomed
            .into_iter()
            .filter_map(|s| self.remove_at(s))
            .collect()
    }

    fn remove_at(&mut self, stamp: u64) -> Option<V> {
        let key = self.order.remove(&stamp)?;
        let (value, weight, _) = self.entries.remove(&key)?;
        self.used -= weight;
        Some(value)
    }

    /// The resident entries' total weight.
    pub fn used(&self) -> u64 {
        self.used
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The resident entries, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(key, (value, _, _))| (key, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Weightless entries under a zero budget stay until a weighted
    /// newcomer arrives: it evicts every other entry, least recent first.
    fn drain(lru: &mut LruMap<u32, u32>) -> Vec<u32> {
        lru.insert(u32::MAX, u32::MAX, 1).1
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru = LruMap::new(0);
        for k in 0..3 {
            lru.insert(k, k, 0);
        }
        lru.get(&0); // 1 is now least recent
        assert_eq!(drain(&mut lru), [1, 2, 0]);
        assert_eq!(lru.len(), 1);
    }

    proptest! {
        // Whatever the hit pattern, draining the map returns each resident
        // key exactly once.
        #[test]
        fn lru_drains_to_a_permutation(
            inserts in prop::collection::vec(0u32..32, 1..40usize),
            hits in prop::collection::vec(0u32..32, 0..40usize),
        ) {
            let mut lru = LruMap::new(0);
            let mut resident = BTreeSet::new();
            for &i in &inserts {
                if resident.insert(i) {
                    lru.insert(i, i, 0);
                }
            }
            for &h in &hits {
                prop_assert_eq!(lru.get(&h).is_some(), resident.contains(&h));
            }
            let mut drained = BTreeSet::new();
            for k in drain(&mut lru) {
                prop_assert!(drained.insert(k), "key {} evicted twice", k);
            }
            prop_assert_eq!(&drained, &resident);
        }

        // After any mix of inserts, replacements, hits and compare-and-
        // removes, the map holds what a plain model of it holds, `used()`
        // is the sum of the resident weights, and that sum is within the
        // budget unless one oversized entry remains.
        #[test]
        fn byte_budget_holds_under_every_operation(
            // each op packs (kind, key, weight): kind = op % 4,
            // key = op / 4 % 16, weight = 1 + op / 64
            ops in prop::collection::vec(0u32..64 * 59, 1..80usize),
        ) {
            let mut lru = LruMap::new(100);
            let mut model = std::collections::BTreeMap::new();
            for &op in &ops {
                let (k, w) = (op / 4 % 16, 1 + u64::from(op / 64));
                match op % 4 {
                    // a new key or the replacement of a resident one; the
                    // value is (key, weight)
                    0 | 1 => {
                        let replaced = model.insert(k, w).map(|old| (k, old));
                        let (gone, evicted) = lru.insert(k, (k, w), w);
                        prop_assert_eq!(gone, replaced);
                        for (victim, _) in evicted {
                            prop_assert!(victim != k && model.remove(&victim).is_some());
                        }
                    }
                    2 => prop_assert_eq!(lru.get(&k).map(|v| v.1), model.get(&k).copied()),
                    _ => {
                        let even = model.get(&k).copied().filter(|w| w % 2 == 0);
                        let gone = lru.remove_if(&k, |&(_, w)| w % 2 == 0);
                        prop_assert_eq!(gone.map(|v| v.1), even);
                        if even.is_some() {
                            model.remove(&k);
                        }
                    }
                }
                let resident: u64 = lru.iter().map(|(_, v)| v.1).sum();
                prop_assert_eq!(lru.used(), resident);
                let mut held: Vec<(u32, u64)> = lru.iter().map(|(_, &v)| v).collect();
                held.sort_unstable();
                prop_assert_eq!(held, model.iter().map(|(&k, &w)| (k, w)).collect::<Vec<_>>());
                prop_assert!(lru.used() <= 100 || lru.len() == 1, "{} in {}", lru.used(), lru.len());
            }
            lru.retain(|_| false);
            prop_assert_eq!((lru.used(), lru.len()), (0, 0));
        }
    }
}
