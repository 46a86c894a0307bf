//! The one table of every metric this workspace reports.
//!
//! A row is `kind IDENT "wire.name";`. From it the macro generates the
//! `static` that reporting sites name ([`m`]) and the entry
//! [`GlobalMetrics::snapshot`] walks, so a metric is listed from process
//! start (at zero) and a misspelt one does not compile. A `family` row
//! declares a prefix; its members are resolved by label
//! ([`CounterFamily::with`]). Keep the rows sorted by wire name.

use crate::metrics::{Counter, CounterFamily, Freeze, Gauge, Histogram, MetricsSnapshot};

macro_rules! metrics {
    ($($kind:ident $ident:ident $name:literal;)*) => {
        /// The declared metrics, one `static` each: report with
        /// `tdb_obs::m::CACHE_SEMANTIC_HITS.add(1)`.
        pub mod m {
            use super::*;
            $(metrics!(@static $kind $ident $name);)*
        }

        /// `(wire name, metric)` of every row, in table order.
        static DECLARED: &[(&str, &dyn Freeze)] = &[$(($name, &m::$ident)),*];
    };
    (@static counter $ident:ident $name:literal) => {
        #[doc = concat!("Counter `", $name, "`.")]
        pub static $ident: Counter = Counter::new();
    };
    (@static gauge $ident:ident $name:literal) => {
        #[doc = concat!("Gauge `", $name, "`.")]
        pub static $ident: Gauge = Gauge::new();
    };
    (@static histogram $ident:ident $name:literal) => {
        #[doc = concat!("Histogram `", $name, "`, seconds.")]
        pub static $ident: Histogram = Histogram::new();
    };
    (@static family $ident:ident $name:literal) => {
        #[doc = concat!("Counter family `", $name, "<label>`.")]
        pub static $ident: CounterFamily = CounterFamily::new($name);
    };
}

metrics! {
    counter   ADMISSION_ADMITTED                "admission.admitted";
    gauge     ADMISSION_QUEUE_DEPTH             "admission.queue_depth";
    counter   ADMISSION_SHED                    "admission.shed";
    histogram ADMISSION_WAIT_S                  "admission.wait_s";
    counter   BUFFERPOOL_EVICTIONS              "bufferpool.evictions";
    counter   BUFFERPOOL_HITS                   "bufferpool.hits";
    counter   BUFFERPOOL_MISSES                 "bufferpool.misses";
    counter   CACHE_PDF_EVICTIONS               "cache.pdf.evictions";
    counter   CACHE_PDF_HITS                    "cache.pdf.hits";
    counter   CACHE_PDF_INSERTS                 "cache.pdf.inserts";
    counter   CACHE_PDF_MISSES                  "cache.pdf.misses";
    counter   CACHE_SEMANTIC_EVICTIONS          "cache.semantic.evictions";
    counter   CACHE_SEMANTIC_HITS               "cache.semantic.hits";
    counter   CACHE_SEMANTIC_INSERTS            "cache.semantic.inserts";
    counter   CACHE_SEMANTIC_MISSES             "cache.semantic.misses";
    counter   CACHE_SEMANTIC_QUARANTINED        "cache.semantic.quarantined";
    counter   CACHE_SEMANTIC_REBUILT            "cache.semantic.rebuilt";
    counter   COMPRESS_BLOCKS_LOSSLESS          "compress.blocks.lossless";
    counter   COMPRESS_BLOCKS_LOSSY             "compress.blocks.lossy";
    counter   COMPRESS_BYTES_LOGICAL            "compress.bytes.logical";
    counter   COMPRESS_BYTES_STORED             "compress.bytes.stored";
    counter   COMPRESS_CORRECTIONS              "compress.corrections";
    gauge     COMPRESS_MAX_ERROR_MICRO          "compress.max_error_micro";
    histogram COMPRESS_RECONSTRUCT_S            "compress.reconstruct_s";
    counter   FAULTS_INJECTED_CORRUPT           "faults.injected.corrupt";
    counter   FAULTS_INJECTED_LATENCY           "faults.injected.latency";
    counter   FAULTS_INJECTED_NODE_DOWN         "faults.injected.node_down";
    counter   FAULTS_INJECTED_TRANSIENT         "faults.injected.transient";
    family    IO_BYTES                          "io.bytes.";
    family    IO_OPS                            "io.ops.";
    gauge     NODE_ACTIVE_SUBQUERIES            "node.active_subqueries";
    counter   NODE_ATOMS_SCANNED                "node.atoms_scanned";
    counter   NODE_DEADLINE_EXCEEDED            "node.deadline_exceeded";
    counter   NODE_UNAVAILABLE                  "node.unavailable";
    counter   NODE_WORKER_PANICS                "node.worker_panics";
    counter   NODE_WORKER_THREADS               "node.worker_threads";
    family    QOS_ADMITTED                      "qos.admitted.";
    counter   QOS_EVICTED                       "qos.evicted";
    family    QOS_SHED                          "qos.shed.";
    counter   QUERY_DEGRADED                    "query.degraded";
    counter   QUERY_PDF_COUNT                   "query.pdf.count";
    histogram QUERY_PDF_WALL_S                  "query.pdf.wall_s";
    counter   QUERY_POINTS_RETURNED             "query.points_returned";
    counter   QUERY_THRESHOLD_COUNT             "query.threshold.count";
    counter   QUERY_THRESHOLD_FAILED            "query.threshold.failed";
    counter   QUERY_THRESHOLD_OK                "query.threshold.ok";
    counter   QUERY_THRESHOLD_REJECTED          "query.threshold.rejected";
    histogram QUERY_THRESHOLD_WALL_S            "query.threshold.wall_s";
    counter   QUERY_TOPK_COUNT                  "query.topk.count";
    histogram QUERY_TOPK_WALL_S                 "query.topk.wall_s";
    counter   REPLICATION_FAILOVER_CHUNKS       "replication.failover.chunks";
    counter   REPLICATION_FAILOVER_NODES        "replication.failover.nodes";
    counter   REPLICATION_FAILOVER_ROUNDS       "replication.failover.rounds";
    counter   REPLICATION_LOST_CHUNKS           "replication.lost_chunks";
    counter   REPLICATION_REBALANCE_ATOMS_COPIED "replication.rebalance.atoms_copied";
    counter   REPLICATION_REBALANCE_CHUNKS_MOVED "replication.rebalance.chunks_moved";
    counter   REPLICATION_REBALANCE_JOINS       "replication.rebalance.joins";
    counter   REPLICATION_REBALANCE_LEAVES      "replication.rebalance.leaves";
    counter   SCAN_ATOMS_PRUNED                 "scan.atoms_pruned";
    counter   SCAN_ATOMS_SAVED                  "scan.atoms_saved";
    counter   SCAN_COALESCED_QUERIES            "scan.coalesced_queries";
    gauge     SCAN_SCRATCH_BYTES                "scan.scratch_bytes";
    counter   SCAN_SHARED                       "scan.shared";
    counter   SCAN_TOPK_RESCANS                 "scan.topk_rescans";
    counter   STORAGE_READ_RETRIES              "storage.read.retries";
    counter   STORAGE_READ_RETRY_SUCCESS        "storage.read.retry_success";
    counter   WIRE_CONNECTION_TIMEOUT           "wire.connection.timeout";
    counter   WIRE_REQUEST_OVERSIZED            "wire.request.oversized";
}

/// The process-wide metrics: what [`global`] returns. It only reads —
/// reporting goes through the statics of [`m`], never through a name:
///
/// ```
/// tdb_obs::m::CACHE_SEMANTIC_HITS.add(1);
/// assert!(tdb_obs::global().snapshot().counter("cache.semantic.hits") >= 1);
/// ```
///
/// ```compile_fail,E0599
/// tdb_obs::global().add("cache.semantic.hits", 1);
/// ```
#[derive(Debug)]
pub struct GlobalMetrics;

impl GlobalMetrics {
    /// Freezes every declared metric — reported yet or not — and every
    /// family member resolved so far into plain maps.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in DECLARED {
            metric.freeze(name, &mut snap);
        }
        snap
    }
}

/// The process-wide metrics every subsystem reports into.
pub fn global() -> &'static GlobalMetrics {
    &GlobalMetrics
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_family(name: &str) -> bool {
        name.ends_with('.')
    }

    #[test]
    fn list_is_sorted_and_unique() {
        for w in DECLARED.windows(2) {
            assert!(
                w[0].0 < w[1].0,
                "declared metrics out of order: {} >= {}",
                w[0].0,
                w[1].0
            );
        }
    }

    #[test]
    fn wildcard_and_exact_matching() {
        m::IO_OPS.with("obs-probe").add(2);
        let snap = global().snapshot();
        assert_eq!(snap.counter("io.ops.obs-probe"), 2);
        assert!(
            !snap.counters.contains_key("io.ops."),
            "a prefix is no metric"
        );
        assert!(!snap.counters.contains_key("io.bytes.obs-probe"));
        assert!(snap.counters.contains_key("bufferpool.hits"));
        assert!(!snap.counters.contains_key("bufferpool.hitz"));
    }

    /// Nothing in this crate's tests reports into a non-family static, so
    /// this is the snapshot of a process that has done no work yet.
    #[test]
    fn fresh_snapshot_lists_every_declared_metric_at_zero() {
        let snap = global().snapshot();
        for (name, _) in DECLARED.iter().filter(|(n, _)| !is_family(n)) {
            let found = [
                snap.counters.get(*name).map(|&v| v == 0),
                snap.gauges.get(*name).map(|&v| v == 0),
                snap.histograms.get(*name).map(|h| h.count == 0),
            ];
            let found: Vec<bool> = found.into_iter().flatten().collect();
            assert_eq!(found, [true], "{name}: once, in one map, at zero");
        }
        assert!(snap.counters.contains_key("admission.shed"));
        assert!(snap.gauges.contains_key("admission.queue_depth"));
        assert!(snap.histograms.contains_key("admission.wait_s"));
    }
}
