//! Process-wide metrics: named atomic counters, gauges and histograms.
//!
//! Subsystems report into the global registry as they work (buffer-pool
//! hits, semantic-cache outcomes, bytes per modelled device, queries by
//! outcome); [`MetricsRegistry::snapshot`] freezes everything into plain
//! maps for the `metrics` wire endpoint and the repro harness.
//!
//! Hot paths should cache a [`Counter`]/[`Gauge`] handle (one registry
//! lookup at construction, lock-free increments after); occasional
//! reporters can use the [`add`]/[`observe`] free functions.
//!
//! Concurrency instrumentation (DESIGN.md §7) lives under three
//! prefixes: `scan.*` (shared scans: `scan.shared`,
//! `scan.coalesced_queries`, `scan.atoms_saved`), `scheduler.*`
//! (cross-query coalescing: `scheduler.batches`, `scheduler.coalesced`)
//! and `admission.*` (wire-server load control: `admission.admitted`,
//! `admission.shed`, gauge `admission.queue_depth`, histogram
//! `admission.wait_s`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that can go up and down (queue depths,
/// in-flight work).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrements by one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: log₂ microseconds, so bucket `i` counts
/// observations in `[2^(i-1), 2^i)` µs — 1 µs to ~9 minutes.
pub const HISTOGRAM_BUCKETS: usize = 30;

/// A log₂-bucketed histogram of durations in seconds.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    /// Sum in nanoseconds (fits ~584 years).
    sum_ns: AtomicU64,
    /// Maximum in nanoseconds.
    max_ns: AtomicU64,
}

/// A histogram handle.
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Arc<Histogram>);

impl HistogramHandle {
    /// Records one observation (seconds; negatives clamp to zero).
    pub fn observe(&self, seconds: f64) {
        let h = &self.0;
        let s = seconds.max(0.0);
        let us = s * 1e6;
        // log2 bucket of the duration in microseconds; sub-µs lands in 0
        let idx = if us < 1.0 {
            0
        } else {
            ((us.log2().floor() as usize) + 1).min(HISTOGRAM_BUCKETS - 1)
        };
        h.buckets[idx].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        let ns = (s * 1e9) as u64;
        h.sum_ns.fetch_add(ns, Ordering::Relaxed);
        h.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let h = &self.0;
        HistogramSnapshot {
            count: h.count.load(Ordering::Relaxed),
            sum_s: h.sum_ns.load(Ordering::Relaxed) as f64 / 1e9,
            max_s: h.max_ns.load(Ordering::Relaxed) as f64 / 1e9,
            buckets: h
                .buckets
                .iter()
                .enumerate()
                .map(|(i, c)| (2f64.powi(i as i32) * 1e-6, c.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

/// A frozen histogram: `(upper_bound_seconds, count)` per bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum_s: f64,
    pub max_s: f64,
    pub buckets: Vec<(f64, u64)>,
}

/// A frozen view of every metric in a registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A named counter's value (0 if never reported).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A named gauge's value (0 if never reported).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Counter deltas relative to an earlier snapshot (saturating: metrics
    /// only move forward, so a negative delta means `earlier` is newer).
    pub fn counters_since(&self, earlier: &MetricsSnapshot) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .map(|(k, &v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
            .collect()
    }
}

/// Registry of named metrics. Usually accessed through [`global`].
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, HistogramHandle>>,
}

impl MetricsRegistry {
    /// An empty registry (tests; production code uses [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("metrics lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().expect("metrics lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        let mut map = self.histograms.lock().expect("metrics lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Adds to a counter by name.
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Records a histogram observation by name.
    pub fn observe(&self, name: &str, seconds: f64) {
        self.histogram(name).observe(seconds);
    }

    /// Freezes every metric into plain maps.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("metrics lock")
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("metrics lock")
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("metrics lock")
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// The process-wide registry every subsystem reports into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Adds to a global counter by name.
pub fn add(name: &str, n: u64) {
    global().add(name, n);
}

/// Records an observation into a global histogram by name.
pub fn observe(name: &str, seconds: f64) {
    global().observe(name, seconds);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a.hits");
        c.add(3);
        reg.add("a.hits", 2);
        reg.add("a.misses", 1);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a.hits"), 5);
        assert_eq!(snap.counter("a.misses"), 1);
        assert_eq!(snap.counter("never"), 0);
    }

    #[test]
    fn gauges_move_both_ways() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(reg.snapshot().gauge("depth"), 1);
        g.set(-4);
        assert_eq!(reg.snapshot().gauge("depth"), -4);
    }

    #[test]
    fn histogram_buckets_by_log2_microseconds() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("wall_s");
        h.observe(0.5e-6); // bucket 0
        h.observe(3e-6); // 3 µs → bucket 2 ([2,4) µs)
        h.observe(1.0); // 1 s = 2^~19.93 µs → bucket 20
        let snap = reg.snapshot();
        let hs = &snap.histograms["wall_s"];
        assert_eq!(hs.count, 3);
        assert_eq!(hs.buckets[0].1, 1);
        assert_eq!(hs.buckets[2].1, 1);
        assert_eq!(hs.buckets[20].1, 1);
        assert!(hs.max_s > 0.99 && hs.max_s <= 1.0);
        assert!(hs.sum_s > 0.99 && hs.sum_s < 1.02, "sum {}", hs.sum_s);
    }

    #[test]
    fn snapshot_deltas() {
        let reg = MetricsRegistry::new();
        reg.add("x", 2);
        let before = reg.snapshot();
        reg.add("x", 5);
        reg.add("y", 1);
        let after = reg.snapshot();
        let d = after.counters_since(&before);
        assert_eq!(d["x"], 5);
        assert_eq!(d["y"], 1);
    }

    #[test]
    fn handles_share_state_with_registry() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("shared");
        let b = reg.counter("shared");
        a.inc();
        b.inc();
        assert_eq!(reg.snapshot().counter("shared"), 2);
    }
}
