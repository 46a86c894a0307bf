//! Per-node execution-time model.
//!
//! A node evaluates its chunk queue with `p` worker processes. Each chunk
//! first occupies its disk devices (the node's data "reside ... on the
//! same set of disks", paper §5.3), then occupies its worker for the
//! measured compute time. [`NodeTimeModel`] folds the two into the
//! serial-phase node time whose scaling with `p` is that of Figs. 7(a)
//! and 8.

/// Closed-form serial-phase node-time model.
///
/// The paper's per-process evaluation is synchronous: read a region, then
/// compute over it, so a node's time is `io(p) + compute(p)` with `io(p)`
/// by [`Self::io_s`] over what the node's own rack served and
/// `compute(p) = max(C/p, longest chunk)` — embarrassingly parallel
/// kernel work, limited only by chunk granularity.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeTimeModel {
    /// What the node's disk arrays served for the query, whoever asked,
    /// plus the injected stalls its own workers sat through.
    pub io_served: f64,
    /// The busiest single device the node depends on — of its rack by
    /// what it served, the LAN by what the node moved — plus those stalls.
    pub io_busiest: f64,
    /// Total kernel CPU time across chunks.
    pub compute_total: f64,
    /// Longest single-chunk kernel time (parallel granularity limit).
    pub compute_max_chunk: f64,
}

impl NodeTimeModel {
    /// The compute half, from the kernel time of each chunk; the I/O half
    /// is the mediator's to fill in, once it has seen every node's reads.
    pub(crate) fn from_chunk_compute(chunks: impl IntoIterator<Item = f64>) -> Self {
        let mut model = Self::default();
        for c in chunks {
            model.compute_total += c;
            model.compute_max_chunk = model.compute_max_chunk.max(c);
        }
        model
    }

    /// Modelled I/O phase time with `p` processes, by the one I/O-phase
    /// rule for a node and for a query alike (DESIGN.md §4): one process
    /// reads strictly serially; `p` processes drive the partitioned files
    /// on different arrays in parallel until the busiest single device (an
    /// array, a disk controller, the LAN) becomes the bound — "the time to
    /// perform I/O does not \[scale\] as the data ... reside on the same
    /// set of disks" (§5.3). `io_served` is what the disk arrays served;
    /// pass-through devices never join it (a serial process already waits
    /// on the end device of each request) but do bound it.
    pub fn io_s(&self, p: usize) -> f64 {
        (self.io_served / p.max(1) as f64).max(self.io_busiest)
    }

    /// Modelled compute phase time with `p` processes.
    pub fn compute_s(&self, p: usize) -> f64 {
        (self.compute_total / p.max(1) as f64).max(self.compute_max_chunk)
    }

    /// Node execution time (serial phases).
    pub fn total_s(&self, p: usize) -> f64 {
        self.io_s(p) + self.compute_s(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper-regime check for the closed-form model: 32 chunks of one
    /// second each over 4 arrays, behind a pass-through controller that
    /// serves every request at half the per-array time (so it caps
    /// aggregate I/O at 2x), io ≈ compute at p = 1.
    #[test]
    fn node_time_model_reproduces_paper_shapes() {
        let m = NodeTimeModel {
            io_served: 32.0,
            io_busiest: 16.0, // the controller binds, not an 8 s array
            ..NodeTimeModel::from_chunk_compute([1.0; 32])
        };
        assert!((m.compute_total - 32.0).abs() < 1e-9);
        let t1 = m.total_s(1); // 32 + 32 = 64
        let t2 = m.total_s(2); // 16 + 16 = 32  → 2.0x
        let t4 = m.total_s(4); // 16 +  8 = 24  → 2.67x
        let t8 = m.total_s(8); // 16 +  4 = 20  → 3.2x
        let (s2, s4, s8) = (t1 / t2, t1 / t4, t1 / t8);
        assert!((s2 - 2.0).abs() < 0.05, "s2 = {s2}");
        assert!((s4 - 2.67).abs() < 0.05, "s4 = {s4} (paper: 2.6)");
        assert!(s8 - s4 < 1.0, "gain 4→8 must be marginal: {s4} → {s8}");
        // Fig 8: io-only stops improving once the controller binds
        assert_eq!(m.io_s(4), m.io_s(8));
        assert_eq!(m.io_s(2), m.io_s(8));
        // total at 4-8 procs is in the ballpark of io-only at 1 proc
        assert!(t4 < m.io_s(1) && t4 > 0.5 * m.io_s(1));
    }

    #[test]
    fn node_time_model_compute_granularity_limit() {
        let m = NodeTimeModel::from_chunk_compute([4.0, 1.0, 1.0]);
        // cannot beat the longest chunk no matter how many processes
        assert_eq!(m.compute_s(64), 4.0);
        assert_eq!(m.compute_s(1), 6.0);
        assert_eq!(m.io_s(1), 0.0);
    }
}
