//! The central registry of every metric name this workspace reports.
//!
//! `tdb-lint`'s `metrics-registry` rule cross-checks this list against
//! every name passed to a reporting call (`counter`, `gauge`,
//! `histogram`, `add`, `observe`) in non-test code, in both directions:
//! a reported name missing here fails the lint (a typo silently splits a
//! counter), and an entry here that nothing reports fails too (a
//! dashboard that stays at zero forever). Entries ending in `*` declare
//! a dynamic family built with `format!` (the prefix is matched).
//!
//! Keep the list sorted; add the entry in the same commit that adds the
//! reporting call.

/// Every declared metric name (or `*`-suffixed prefix family).
pub const DECLARED_METRICS: &[&str] = &[
    "admission.admitted",
    "admission.queue_depth",
    "admission.shed",
    "admission.wait_s",
    "bufferpool.evictions",
    "bufferpool.hits",
    "bufferpool.misses",
    "cache.pdf.conflicts",
    "cache.pdf.evictions",
    "cache.pdf.hits",
    "cache.pdf.inserts",
    "cache.pdf.misses",
    "cache.semantic.conflicts",
    "cache.semantic.evictions",
    "cache.semantic.hits",
    "cache.semantic.inserts",
    "cache.semantic.misses",
    "cache.semantic.quarantined",
    "cache.semantic.rebuilt",
    "compress.blocks.lossless",
    "compress.blocks.lossy",
    "compress.bytes.logical",
    "compress.bytes.stored",
    "compress.corrections",
    "compress.max_error_micro",
    "compress.reconstruct_s",
    "faults.injected.corrupt",
    "faults.injected.latency",
    "faults.injected.node_down",
    "faults.injected.transient",
    "io.bytes.*",
    "io.ops.*",
    "node.active_subqueries",
    "node.atoms_scanned",
    "node.deadline_exceeded",
    "node.unavailable",
    "qos.admitted.*",
    "qos.evicted",
    "qos.shed.*",
    "query.degraded",
    "query.pdf.count",
    "query.pdf.wall_s",
    "query.points_returned",
    "query.threshold.count",
    "query.threshold.failed",
    "query.threshold.ok",
    "query.threshold.rejected",
    "query.threshold.wall_s",
    "query.topk.count",
    "query.topk.wall_s",
    "replication.failover.chunks",
    "replication.failover.nodes",
    "replication.failover.rounds",
    "replication.lost_chunks",
    "replication.rebalance.atoms_copied",
    "replication.rebalance.chunks_moved",
    "replication.rebalance.joins",
    "replication.rebalance.leaves",
    "scan.atoms_saved",
    "scan.coalesced_queries",
    "scan.scratch_bytes",
    "scan.shared",
    "scheduler.batches",
    "scheduler.coalesced",
    "storage.read.retries",
    "storage.read.retry_success",
    "wire.connection.timeout",
    "wire.request.oversized",
];

/// The declared metric names, for programmatic consumers (exporters,
/// dashboards, tests).
pub fn declared_metrics() -> &'static [&'static str] {
    DECLARED_METRICS
}

/// Whether `name` is covered by the declared list (exact entry or
/// `*`-prefix family).
pub fn is_declared(name: &str) -> bool {
    DECLARED_METRICS
        .iter()
        .any(|entry| match entry.strip_suffix('*') {
            Some(prefix) => name.starts_with(prefix),
            None => *entry == name,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_is_sorted_and_unique() {
        for w in DECLARED_METRICS.windows(2) {
            assert!(
                w[0] < w[1],
                "declared metrics out of order: {} >= {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn wildcard_and_exact_matching() {
        assert!(is_declared("bufferpool.hits"));
        assert!(is_declared("io.ops.read_block"));
        assert!(!is_declared("bufferpool.hitz"));
        assert!(!is_declared("io"));
    }
}
