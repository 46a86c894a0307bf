//! Per-node execution-time model.
//!
//! A node evaluates its chunk queue with `p` worker processes. Each chunk
//! first occupies its disk devices (the node's data "reside ... on the
//! same set of disks", paper §5.3), then occupies its worker for the
//! measured compute time. [`NodeTimeModel`] folds the per-chunk costs into
//! the serial-phase node time whose scaling with `p` is that of Figs. 7(a)
//! and 8.

use std::collections::HashMap;

use tdb_storage::device::DeviceId;

/// The simulated cost of one chunk of work.
#[derive(Debug, Clone, Default)]
pub struct ChunkCost {
    /// Time this chunk occupies each disk device (modelled).
    pub io: Vec<(DeviceId, f64)>,
    /// Measured kernel + threshold-scan time.
    pub compute_s: f64,
}

/// Closed-form serial-phase node-time model.
///
/// The paper's per-process evaluation is synchronous: read a region, then
/// compute over it, so a node's time is `io(p) + compute(p)` with
///
/// * `io(p) = max(io_serial / p, io_floor)` — one process reads strictly
///   serially; more processes drive the partitioned files on different
///   arrays in parallel until the slowest shared resource (an array, the
///   node's disk controller, or the LAN) becomes the floor — "the time to
///   perform I/O does not \[scale\] as the data ... reside on the same set
///   of disks" (§5.3);
/// * `compute(p) = max(C/p, longest chunk)` — embarrassingly parallel
///   kernel work, limited only by chunk granularity.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeTimeModel {
    /// Strictly serial I/O schedule (one process).
    pub io_serial: f64,
    /// Per-device makespan floor (all devices driven concurrently).
    pub io_floor: f64,
    /// Total kernel CPU time across chunks.
    pub compute_total: f64,
    /// Longest single-chunk kernel time (parallel granularity limit).
    pub compute_max_chunk: f64,
}

impl NodeTimeModel {
    /// Aggregates per-chunk costs into the model. Pass-through devices
    /// (controllers, network links) never join the serial schedule — a
    /// serial process already waits on the end device of each request —
    /// but they do bound parallel throughput (the floor).
    pub fn from_costs(chunks: &[ChunkCost], registry: &tdb_storage::DeviceRegistry) -> Self {
        let mut per_device: HashMap<DeviceId, f64> = HashMap::new();
        let mut compute_total = 0.0;
        let mut compute_max_chunk = 0.0f64;
        for c in chunks {
            for &(dev, t) in &c.io {
                *per_device.entry(dev).or_insert(0.0) += t;
            }
            compute_total += c.compute_s;
            compute_max_chunk = compute_max_chunk.max(c.compute_s);
        }
        let io_serial = per_device
            .iter()
            .filter(|(dev, _)| !registry.profile(**dev).pass_through)
            .map(|(_, &t)| t)
            .sum();
        let io_floor = per_device.values().fold(0.0f64, |m, &v| m.max(v));
        Self {
            io_serial,
            io_floor,
            compute_total,
            compute_max_chunk,
        }
    }

    /// Modelled I/O phase time with `p` processes.
    pub fn io_s(&self, p: usize) -> f64 {
        (self.io_serial / p.max(1) as f64).max(self.io_floor)
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

    fn dev(i: u32) -> DeviceId {
        DeviceId(i)
    }

    /// Registry with 4 arrays (ids 0-3) and one pass-through controller.
    fn paper_registry() -> tdb_storage::DeviceRegistry {
        let mut reg = tdb_storage::DeviceRegistry::new();
        for _ in 0..4 {
            reg.register(tdb_storage::DeviceProfile::hdd_array());
        }
        reg.register(tdb_storage::DeviceProfile::node_controller());
        reg
    }

    /// The paper-regime check for the closed-form model: 4 arrays plus a
    /// pass-through controller capping aggregate I/O at 2x, io ≈ compute
    /// at p = 1.
    #[test]
    fn node_time_model_reproduces_paper_shapes() {
        let reg = paper_registry();
        let ctrl = dev(4);
        let chunks: Vec<ChunkCost> = (0..32)
            .map(|i| ChunkCost {
                // per-chunk read: its array + the shared controller at
                // half the per-array service time x4 arrays
                io: vec![(dev(i % 4), 1.0), (ctrl, 0.5)],
                compute_s: 1.0,
            })
            .collect();
        let m = NodeTimeModel::from_costs(&chunks, &reg);
        // controller is pass-through: excluded from the serial schedule
        assert!((m.io_serial - 32.0).abs() < 1e-9);
        assert!((m.io_floor - 16.0).abs() < 1e-9); // controller binds
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
        let reg = paper_registry();
        let chunks = vec![
            ChunkCost {
                io: vec![],
                compute_s: 4.0,
            },
            ChunkCost {
                io: vec![],
                compute_s: 1.0,
            },
            ChunkCost {
                io: vec![],
                compute_s: 1.0,
            },
        ];
        let m = NodeTimeModel::from_costs(&chunks, &reg);
        // cannot beat the longest chunk no matter how many processes
        assert_eq!(m.compute_s(64), 4.0);
        assert_eq!(m.compute_s(1), 6.0);
        assert_eq!(m.io_s(1), 0.0);
    }
}
