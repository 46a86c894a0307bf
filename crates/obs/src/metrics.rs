//! Metric types: atomic counters, gauges and log₂-bucketed histograms —
//! what the statics of [`crate::declared`] are made of — and
//! [`MetricsSnapshot`], the plain maps they freeze into for the `metrics`
//! wire endpoint and the repro harness. [`MetricsRegistry`] is the
//! by-name map behind a [`CounterFamily`]; on its own it is a stand-alone
//! registry that reports to nobody else (tests, probes).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

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

/// A gauge: a value that can go up and down (queue depths, in-flight
/// work).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Self {
        Self(AtomicI64::new(0))
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements by one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
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

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        // a `const` item, not a value: each array slot gets its own atomic
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            count: ZERO,
            sum_ns: ZERO,
            max_ns: ZERO,
        }
    }

    /// Records one observation (seconds; negatives clamp to zero).
    pub fn observe(&self, seconds: f64) {
        let s = seconds.max(0.0);
        let us = s * 1e6;
        // log2 bucket of the duration in microseconds; sub-µs lands in 0
        let idx = if us < 1.0 {
            0
        } else {
            ((us.log2().floor() as usize) + 1).min(HISTOGRAM_BUCKETS - 1)
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let ns = (s * 1e9) as u64;
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }
}

/// A declared name prefix (`io.bytes.`) whose members are counters keyed
/// by a label of bounded cardinality — a device, a configured tenant.
#[derive(Debug)]
pub struct CounterFamily {
    prefix: &'static str,
    members: MetricsRegistry,
}

impl CounterFamily {
    /// The family of counters named `prefix` + label.
    pub const fn new(prefix: &'static str) -> Self {
        Self {
            prefix,
            members: MetricsRegistry::new(),
        }
    }

    /// The member counter for `label`, listed in snapshots from now on.
    /// Takes a lock and allocates: resolve it where the labelled thing is
    /// built and keep the handle, never per report.
    pub fn with(&self, label: &str) -> Arc<Counter> {
        self.members.counter(&format!("{}{label}", self.prefix))
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

/// A frozen view of a set of metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A named counter's value (0 if there is none).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
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

/// How a metric enters a snapshot: under `name`, in the map of its kind.
pub(crate) trait Freeze: Sync {
    fn freeze(&self, name: &str, into: &mut MetricsSnapshot);
}

impl Freeze for Counter {
    fn freeze(&self, name: &str, into: &mut MetricsSnapshot) {
        into.counters.insert(name.to_string(), self.get());
    }
}

impl Freeze for Gauge {
    fn freeze(&self, name: &str, into: &mut MetricsSnapshot) {
        into.gauges.insert(name.to_string(), self.get());
    }
}

impl Freeze for Histogram {
    fn freeze(&self, name: &str, into: &mut MetricsSnapshot) {
        let frozen = HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_s: self.sum_ns.load(Ordering::Relaxed) as f64 / 1e9,
            max_s: self.max_ns.load(Ordering::Relaxed) as f64 / 1e9,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .map(|(i, c)| (2f64.powi(i as i32) * 1e-6, c.load(Ordering::Relaxed)))
                .collect(),
        };
        into.histograms.insert(name.to_string(), frozen);
    }
}

/// A family enters as its members, each under its own full name.
impl Freeze for CounterFamily {
    fn freeze(&self, _prefix: &str, into: &mut MetricsSnapshot) {
        freeze_all(&self.members.counters, into);
    }
}

/// A stand-alone map of metrics by name, each created on first use.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

/// The entry of `map` named `name`, created on first use.
fn named<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = map.lock().expect("metrics lock");
    Arc::clone(map.entry(name.to_string()).or_default())
}

fn freeze_all<T: Freeze>(map: &Mutex<BTreeMap<String, Arc<T>>>, into: &mut MetricsSnapshot) {
    for (name, metric) in map.lock().expect("metrics lock").iter() {
        metric.freeze(name, into);
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub const fn new() -> Self {
        Self {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        named(&self.counters, name)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        named(&self.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        named(&self.histograms, name)
    }

    /// Adds to a counter by name.
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Freezes every metric into plain maps.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        freeze_all(&self.counters, &mut snap);
        freeze_all(&self.gauges, &mut snap);
        freeze_all(&self.histograms, &mut snap);
        snap
    }
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
        assert_eq!(reg.snapshot().gauges["depth"], 1);
        g.set(-4);
        assert_eq!(reg.snapshot().gauges["depth"], -4);
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
