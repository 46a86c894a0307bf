//! Cluster configuration.

use std::sync::Arc;

use tdb_kernels::FdOrder;
use tdb_storage::{CompressionConfig, CompressionMode, FaultPlan};

use crate::placement::PlacementMode;

/// k-way partition replication (DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationConfig {
    /// Copies of every chunk, on `k` distinct nodes. 1 = no replication.
    /// A failed or deadline-blown node's chunks are re-scanned on the next
    /// live replica in their chains; a chunk whose chain is exhausted (at
    /// `k = 1`, any chunk of a failed node) degrades the queries it meets.
    pub k: usize,
    /// How replica chains are derived. [`PlacementMode::Rendezvous`] is
    /// required for node join/leave rebalancing.
    pub placement: PlacementMode,
    /// Device sets provisioned ahead for future `join_node` calls
    /// (a simulated cluster racks its spare hardware at build time).
    pub spare_nodes: usize,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        Self {
            k: 1,
            placement: PlacementMode::Contiguous,
            spare_nodes: 0,
        }
    }
}

impl ReplicationConfig {
    /// `k` copies with read failover over the default placement.
    pub fn k(k: usize) -> Self {
        Self {
            k,
            ..Self::default()
        }
    }

    /// `k` copies over rendezvous placement (join/leave capable).
    pub fn rendezvous(k: usize) -> Self {
        Self {
            k,
            placement: PlacementMode::Rendezvous,
            ..Self::default()
        }
    }
}

/// Shape and sizing of the simulated analysis cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of database nodes (the paper's MHD dataset spans 4).
    pub num_nodes: usize,
    /// Worker processes per node evaluating chunks in parallel.
    pub procs_per_node: usize,
    /// Disk arrays per node (paper: four RAID-5 arrays).
    pub arrays_per_node: usize,
    /// Buffer-pool capacity per node, bytes.
    pub bufferpool_bytes: usize,
    /// Chunk edge length in atoms (chunk = `(8·chunk_atoms)³` grid points).
    /// Must be a power of two dividing the atom lattice on every axis.
    pub chunk_atoms: u32,
    /// Finite-difference order for derived-field kernels.
    pub fd_order: FdOrder,
    /// Calibration factor applied to measured kernel CPU time. The device
    /// models emulate the paper's 2008-era cluster, so pairing them with a
    /// modern host CPU would skew the I/O : compute ratio; the repro
    /// harness sets ~8 to stand in for the 2.66 GHz Harpertown nodes
    /// (see EXPERIMENTS.md). Default 1.0 = report measured CPU time.
    pub compute_scale: f64,
    /// When set, kernel compute time is modelled as this many seconds per
    /// evaluated grid point instead of measured thread CPU time, making
    /// the reported time model fully deterministic (used by the scaling
    /// tests so they cannot flake on loaded machines).
    pub synthetic_compute_s_per_point: Option<f64>,
    /// Multi-query scan coalescing. `None` (default) evaluates every
    /// query independently; `Some` routes queries through the mediator's
    /// scan scheduler, which batches concurrent queries over the same
    /// scan key into one shared atom scan.
    pub coalesce: Option<CoalesceConfig>,
    /// Deterministic fault-injection plan threaded through every node's
    /// buffer pool, semantic cache and query evaluator. `None` (default)
    /// disables injection entirely.
    pub faults: Option<Arc<FaultPlan>>,
    /// Block codec for the raw-field partition files. `Off` (default)
    /// keeps the seed on-disk format byte for byte; `Lossless` and
    /// `Lossy` write self-describing compressed blocks (DESIGN.md §10).
    pub compression: CompressionConfig,
    /// k-way partition replication with read failover (DESIGN.md §11).
    /// The default (`k = 1`, contiguous placement) reproduces the
    /// unreplicated layout byte for byte.
    pub replication: ReplicationConfig,
}

/// Scan-scheduler batching knobs.
#[derive(Debug, Clone, Copy)]
pub struct CoalesceConfig {
    /// How long the first query for a scan key holds the batch open
    /// waiting for companions, in milliseconds.
    pub window_ms: u64,
    /// Close the batch early once this many queries joined.
    pub max_batch: usize,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        Self {
            window_ms: 2,
            max_batch: 16,
        }
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            num_nodes: 4,
            procs_per_node: 4,
            arrays_per_node: 4,
            bufferpool_bytes: 256 << 20,
            chunk_atoms: 4,
            fd_order: FdOrder::O4,
            compute_scale: 1.0,
            synthetic_compute_s_per_point: None,
            coalesce: None,
            faults: None,
            compression: CompressionConfig::default(),
            replication: ReplicationConfig::default(),
        }
    }
}

impl ClusterConfig {
    /// Validates the configuration against a grid.
    ///
    /// # Panics
    /// Panics when a constraint is violated; configuration errors are
    /// programming errors in this embedded setting.
    pub fn validate(&self, dims: (usize, usize, usize)) {
        assert!(self.num_nodes >= 1, "need at least one node");
        assert!(self.procs_per_node >= 1, "need at least one process");
        assert!(self.arrays_per_node >= 1, "need at least one disk array");
        assert!(
            self.chunk_atoms.is_power_of_two(),
            "chunk_atoms must be a power of two for contiguous z-ranges"
        );
        let w = 8 * self.chunk_atoms as usize;
        for (ax, n) in [dims.0, dims.1, dims.2].into_iter().enumerate() {
            assert!(
                n % w == 0,
                "grid axis {ax} extent {n} is not a multiple of the chunk width {w}"
            );
        }
        let codec = self.compression;
        assert!(
            (1..=8).contains(&codec.stride),
            "compression stride must be in 1..=8"
        );
        if codec.mode == CompressionMode::Lossy {
            assert!(
                codec.max_error.is_finite() && codec.max_error >= 0.0,
                "lossy compression needs a finite non-negative max_error"
            );
        }
        let r = self.replication;
        assert!(
            (1..=self.num_nodes).contains(&r.k),
            "replication factor {} must be in 1..=num_nodes ({})",
            r.k,
            self.num_nodes
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let c = ClusterConfig::default();
        assert_eq!(c.num_nodes, 4);
        assert_eq!(c.procs_per_node, 4);
        assert_eq!(c.arrays_per_node, 4);
        c.validate((64, 64, 64));
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn validate_rejects_indivisible_grid() {
        ClusterConfig::default().validate((48, 64, 64));
    }

    #[test]
    #[should_panic(expected = "replication factor")]
    fn validate_rejects_k_beyond_nodes() {
        let c = ClusterConfig {
            num_nodes: 2,
            replication: ReplicationConfig::k(3),
            ..Default::default()
        };
        c.validate((64, 64, 64));
    }

    #[test]
    fn default_replication_is_single_copy() {
        let r = ReplicationConfig::default();
        assert_eq!(r.k, 1);
        assert_eq!(r.placement, PlacementMode::Contiguous);
        assert_eq!(
            ReplicationConfig::rendezvous(2).placement,
            PlacementMode::Rendezvous
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn validate_rejects_non_power_chunk() {
        let c = ClusterConfig {
            chunk_atoms: 3,
            ..Default::default()
        };
        c.validate((192, 192, 192));
    }
}
