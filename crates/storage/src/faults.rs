//! Deterministic, seeded fault injection for the storage and query path.
//!
//! The paper's system is the production threshold-query subsystem of the
//! public JHTDB cluster, where disks throw transient errors, cached
//! entries rot, and whole nodes drop out while queries keep arriving. A
//! [`FaultPlan`] lets tests and experiments inject exactly those failures
//! — transient I/O errors, permanent block corruption, added latency, and
//! whole-node outages — **deterministically**: every decision is a pure
//! hash of `(seed, site, identity, attempt)`, so outcomes are independent
//! of thread scheduling and reproducible from a single seed
//! (`TDB_FAULT_SEED` in CI).
//!
//! A plan is threaded through the stack by configuration:
//! `ClusterConfig::faults` → each node's [`crate::BufferPool`] (block
//! reads), its semantic cache (insert-time corruption), and the mediator
//! (node outages). Injected latency and retry backoff are *modelled* — they
//! accumulate in [`crate::IoSession::injected_delay_s`], never in real
//! sleeps — so faulted runs stay fast and deterministic.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Where in the pipeline a rule applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A partition-block read off a disk array.
    BlockRead,
    /// A semantic-cache insert (the stored entry is silently corrupted).
    CacheInsert,
}

/// What the rule injects when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A retryable I/O error (the next attempt re-rolls the dice).
    Transient,
    /// Permanent corruption: the read fails checksum-style, every attempt.
    Corrupt,
    /// Extra modelled latency added to the session, in seconds.
    Latency { seconds: f64 },
}

/// One injection rule: a site, a kind, a firing probability, and optional
/// exact-match selectors.
#[derive(Debug, Clone)]
pub struct FaultRule {
    pub site: FaultSite,
    pub kind: FaultKind,
    /// Probability in `[0, 1]` that the rule fires at a matching site.
    pub probability: f64,
    /// Restrict to one partition file (`None` = any).
    pub file_id: Option<u64>,
    /// Restrict to one block (`None` = any).
    pub block_no: Option<u32>,
}

impl FaultRule {
    /// Transient read errors on a fraction of all block reads.
    pub fn transient_reads(probability: f64) -> Self {
        Self {
            site: FaultSite::BlockRead,
            kind: FaultKind::Transient,
            probability,
            file_id: None,
            block_no: None,
        }
    }

    /// Permanent corruption of one specific block.
    pub fn corrupt_block(file_id: u64, block_no: u32) -> Self {
        Self {
            site: FaultSite::BlockRead,
            kind: FaultKind::Corrupt,
            probability: 1.0,
            file_id: Some(file_id),
            block_no: Some(block_no),
        }
    }

    /// Extra modelled seconds on a fraction of block reads (a slow disk).
    pub fn slow_reads(probability: f64, seconds: f64) -> Self {
        Self {
            site: FaultSite::BlockRead,
            kind: FaultKind::Latency { seconds },
            probability,
            file_id: None,
            block_no: None,
        }
    }

    /// Corrupt a fraction of semantic-cache inserts (bad SSD cells).
    pub fn corrupt_cache_inserts(probability: f64) -> Self {
        Self {
            site: FaultSite::CacheInsert,
            kind: FaultKind::Corrupt,
            probability,
            file_id: None,
            block_no: None,
        }
    }

    fn matches_block(&self, file_id: u64, block_no: u32) -> bool {
        self.site == FaultSite::BlockRead
            && self.file_id.is_none_or(|f| f == file_id)
            && self.block_no.is_none_or(|b| b == block_no)
    }
}

/// Aggregated outcome of consulting the plan for one block-read attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlockReadFault {
    /// Modelled latency to add to the session before the read, seconds.
    pub latency_s: f64,
    /// The attempt fails with a retryable error.
    pub transient: bool,
    /// The block is permanently corrupt (retries cannot help).
    pub corrupt: bool,
}

/// Injection counters, visible to tests regardless of what other threads
/// do to the process-global metrics registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    pub transient: u64,
    pub corrupt: u64,
    pub latency: u64,
    pub node_down: u64,
}

/// A deterministic fault-injection plan shared by a whole cluster.
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    down_nodes: Mutex<BTreeSet<usize>>,
    n_transient: AtomicU64,
    n_corrupt: AtomicU64,
    n_latency: AtomicU64,
    n_node_down: AtomicU64,
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("rules", &self.rules)
            .field("down_nodes", &*self.down_nodes.lock())
            .finish()
    }
}

impl FaultPlan {
    /// Empty plan (no rules, no down nodes) with a decision seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rules: Vec::new(),
            down_nodes: Mutex::new(BTreeSet::new()),
            n_transient: AtomicU64::new(0),
            n_corrupt: AtomicU64::new(0),
            n_latency: AtomicU64::new(0),
            n_node_down: AtomicU64::new(0),
        }
    }

    /// Seed from the `TDB_FAULT_SEED` environment variable (used by CI for
    /// reproducible injected-fault runs), falling back to `default`.
    pub fn seed_from_env(default: u64) -> u64 {
        std::env::var("TDB_FAULT_SEED")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(default)
    }

    /// Adds a rule (builder style).
    #[must_use]
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Wraps the plan for sharing across nodes.
    pub fn shared(self) -> Arc<Self> {
        Arc::new(self)
    }

    /// The decision seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Marks a node dead or alive (takes effect on its next subquery).
    pub fn set_node_down(&self, node: usize, down: bool) {
        let mut set = self.down_nodes.lock();
        if down {
            set.insert(node);
        } else {
            set.remove(&node);
        }
    }

    /// Whether a node is currently marked dead. Counts the check as an
    /// injected node-outage when it is.
    pub fn node_is_down(&self, node: usize) -> bool {
        let down = self.down_nodes.lock().contains(&node);
        if down {
            self.n_node_down.fetch_add(1, Ordering::Relaxed);
            tdb_obs::m::FAULTS_INJECTED_NODE_DOWN.inc();
        }
        down
    }

    /// Consults every rule for one block-read attempt. Latency rules
    /// accumulate; the strongest failure (corrupt > transient) wins.
    /// Deterministic in `(seed, file_id, block_no, attempt)`.
    pub fn block_read_fault(&self, file_id: u64, block_no: u32, attempt: u32) -> BlockReadFault {
        let mut out = BlockReadFault::default();
        for (i, rule) in self.rules.iter().enumerate() {
            if !rule.matches_block(file_id, block_no) {
                continue;
            }
            let roll = self.roll(&[
                1,
                i as u64,
                file_id,
                u64::from(block_no),
                u64::from(attempt),
            ]);
            if roll >= rule.probability {
                continue;
            }
            match rule.kind {
                FaultKind::Transient => {
                    if !out.transient && !out.corrupt {
                        self.n_transient.fetch_add(1, Ordering::Relaxed);
                        tdb_obs::m::FAULTS_INJECTED_TRANSIENT.inc();
                    }
                    out.transient = true;
                }
                FaultKind::Corrupt => {
                    if !out.corrupt {
                        self.n_corrupt.fetch_add(1, Ordering::Relaxed);
                        tdb_obs::m::FAULTS_INJECTED_CORRUPT.inc();
                    }
                    out.corrupt = true;
                }
                FaultKind::Latency { seconds } => {
                    out.latency_s += seconds;
                    self.n_latency.fetch_add(1, Ordering::Relaxed);
                    tdb_obs::m::FAULTS_INJECTED_LATENCY.inc();
                }
            }
        }
        out
    }

    /// Whether a semantic-cache insert for `key_hash` silently corrupts
    /// the stored entry. Deterministic in `(seed, key_hash)`.
    pub fn cache_insert_corrupts(&self, key_hash: u64) -> bool {
        for (i, rule) in self.rules.iter().enumerate() {
            if rule.site != FaultSite::CacheInsert || !matches!(rule.kind, FaultKind::Corrupt) {
                continue;
            }
            if self.roll(&[2, i as u64, key_hash]) < rule.probability {
                self.n_corrupt.fetch_add(1, Ordering::Relaxed);
                tdb_obs::m::FAULTS_INJECTED_CORRUPT.inc();
                return true;
            }
        }
        false
    }

    /// Snapshot of this plan's injection counters.
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            transient: self.n_transient.load(Ordering::Relaxed),
            corrupt: self.n_corrupt.load(Ordering::Relaxed),
            latency: self.n_latency.load(Ordering::Relaxed),
            node_down: self.n_node_down.load(Ordering::Relaxed),
        }
    }

    /// Uniform roll in `[0, 1)` from the seed and a decision identity.
    fn roll(&self, parts: &[u64]) -> f64 {
        let mut h = splitmix64(self.seed);
        for &p in parts {
            h = splitmix64(h ^ p);
        }
        // use the top 53 bits for an unbiased double in [0, 1)
        (h >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// SplitMix64 finaliser: a well-mixed 64-bit permutation. Fault rolls,
/// replica placement and the cache's row checksums all mix with it.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_seed_dependent() {
        let a = FaultPlan::new(42).with_rule(FaultRule::transient_reads(0.5));
        let b = FaultPlan::new(42).with_rule(FaultRule::transient_reads(0.5));
        let c = FaultPlan::new(43).with_rule(FaultRule::transient_reads(0.5));
        let mut differs = false;
        for block in 0..64u32 {
            let fa = a.block_read_fault(7, block, 1);
            assert_eq!(fa, b.block_read_fault(7, block, 1));
            if fa != c.block_read_fault(7, block, 1) {
                differs = true;
            }
        }
        assert!(differs, "different seeds must change some decisions");
    }

    #[test]
    fn probability_controls_fire_rate() {
        let plan = FaultPlan::new(1).with_rule(FaultRule::transient_reads(0.1));
        let fired = (0..10_000u32)
            .filter(|&b| plan.block_read_fault(0, b, 1).transient)
            .count();
        // 10% ± generous slack
        assert!((700..1300).contains(&fired), "fired {fired}/10000");
    }

    #[test]
    fn retry_attempts_reroll() {
        let plan = FaultPlan::new(9).with_rule(FaultRule::transient_reads(0.5));
        // some block that faults on attempt 1 must clear within a few tries
        let block = (0..1000u32)
            .find(|&b| plan.block_read_fault(0, b, 1).transient)
            .expect("some block faults");
        let cleared = (2..=8u32).any(|a| !plan.block_read_fault(0, block, a).transient);
        assert!(cleared, "a 50% transient fault must clear on some retry");
    }

    #[test]
    fn exact_block_match_is_surgical() {
        let plan = FaultPlan::new(5).with_rule(FaultRule::corrupt_block(11, 3));
        assert!(plan.block_read_fault(11, 3, 1).corrupt);
        assert!(
            plan.block_read_fault(11, 3, 9).corrupt,
            "corruption persists"
        );
        assert!(!plan.block_read_fault(11, 4, 1).corrupt);
        assert!(!plan.block_read_fault(12, 3, 1).corrupt);
    }

    #[test]
    fn latency_accumulates_across_rules() {
        let plan = FaultPlan::new(0)
            .with_rule(FaultRule::slow_reads(1.0, 0.25))
            .with_rule(FaultRule::slow_reads(1.0, 0.75));
        let f = plan.block_read_fault(1, 1, 1);
        assert!((f.latency_s - 1.0).abs() < 1e-12);
        assert!(!f.transient && !f.corrupt);
        assert_eq!(plan.counts().latency, 2);
    }

    #[test]
    fn node_down_toggles_and_counts() {
        let plan = FaultPlan::new(0);
        assert!(!plan.node_is_down(2));
        plan.set_node_down(2, true);
        assert!(plan.node_is_down(2));
        plan.set_node_down(2, false);
        assert!(!plan.node_is_down(2));
        assert_eq!(plan.counts().node_down, 1);
    }

    #[test]
    fn cache_insert_corruption_is_keyed() {
        let plan = FaultPlan::new(3).with_rule(FaultRule::corrupt_cache_inserts(0.5));
        let fired: Vec<bool> = (0..32u64).map(|k| plan.cache_insert_corrupts(k)).collect();
        assert!(fired.iter().any(|&f| f) && fired.iter().any(|&f| !f));
        // deterministic per key
        for k in 0..32u64 {
            assert_eq!(plan.cache_insert_corrupts(k), fired[k as usize]);
        }
    }
}
