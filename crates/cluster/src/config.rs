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
    /// harness sets 6 to stand in for the 2.66 GHz Harpertown nodes
    /// (see EXPERIMENTS.md). Default 1.0 = report measured CPU time.
    pub compute_scale: f64,
    /// When set, kernel compute time is modelled as this many seconds per
    /// evaluated grid point instead of measured thread CPU time, making
    /// the reported time model fully deterministic (used by the scaling
    /// tests so they cannot flake on loaded machines).
    pub synthetic_compute_s_per_point: Option<f64>,
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
            faults: None,
            compression: CompressionConfig::default(),
            replication: ReplicationConfig::default(),
        }
    }
}

impl ClusterConfig {
    /// Checks the configuration against a grid and returns the first rule
    /// it breaks.
    pub fn validate(&self, dims: (usize, usize, usize)) -> Result<(), String> {
        ensure(self.num_nodes >= 1, "need at least one node")?;
        ensure(self.procs_per_node >= 1, "need at least one process")?;
        ensure(self.arrays_per_node >= 1, "need at least one disk array")?;
        ensure(
            self.chunk_atoms.is_power_of_two(),
            "chunk_atoms must be a power of two for contiguous z-ranges",
        )?;
        let w = 8 * self.chunk_atoms as usize;
        for (ax, n) in [dims.0, dims.1, dims.2].into_iter().enumerate() {
            ensure(
                n % w == 0,
                format!("grid axis {ax} extent {n} is not a multiple of the chunk width {w}"),
            )?;
        }
        let chunks = [dims.0, dims.1, dims.2]
            .into_iter()
            .fold(1usize, |c, n| c.saturating_mul(n / w));
        let nodes = self.num_nodes;
        ensure(
            chunks >= nodes,
            format!("{chunks} chunks cannot be spread over {nodes} nodes"),
        )?;
        let codec = self.compression;
        ensure(
            (1..=8).contains(&codec.stride),
            "compression stride must be in 1..=8",
        )?;
        if codec.mode == CompressionMode::Lossy {
            ensure(
                codec.max_error.is_finite() && codec.max_error >= 0.0,
                "lossy compression needs a finite non-negative max_error",
            )?;
        }
        let k = self.replication.k;
        ensure(
            (1..=nodes).contains(&k),
            format!("replication factor {k} must be in 1..=num_nodes ({nodes})"),
        )
    }
}

/// `Ok` when `holds`, else the rule.
fn ensure(holds: bool, rule: impl Into<String>) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(rule.into())
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
        assert_eq!(c.validate((64, 64, 64)), Ok(()));
    }

    #[test]
    fn validate_rejects_indivisible_grid() {
        let rule = ClusterConfig::default().validate((48, 64, 64)).unwrap_err();
        assert!(rule.contains("not a multiple"), "{rule}");
    }

    #[test]
    fn validate_rejects_k_beyond_nodes() {
        let c = ClusterConfig {
            num_nodes: 2,
            replication: ReplicationConfig::k(3),
            ..Default::default()
        };
        let rule = c.validate((64, 64, 64)).unwrap_err();
        assert!(rule.contains("replication factor"), "{rule}");
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
    fn validate_rejects_non_power_chunk() {
        let c = ClusterConfig {
            chunk_atoms: 3,
            ..Default::default()
        };
        let rule = c.validate((192, 192, 192)).unwrap_err();
        assert!(rule.contains("power of two"), "{rule}");
    }
}
