//! Shared-scan types: one atom scan serving many queries.
//!
//! Concurrent threshold/PDF/top-k queries over the same
//! `(dataset, raw field, derived kernel, timestep)` read the same atoms.
//! A [`SharedScanRequest`] groups such queries so each node decodes every
//! atom once and evaluates all pending kernels against it. Results are
//! byte-identical to independent execution because every kernel is a
//! pointwise stencil: the value at a grid point depends only on its halo
//! neighbourhood, never on the extent of the scanned domain.

use std::sync::Arc;

use tdb_cache::{CacheInfoKey, ThresholdPoint};
use tdb_field::Histogram;
use tdb_kernels::DerivedField;
use tdb_zorder::Box3;

use crate::node::{NodeResult, QueryMode};
use crate::placement::{Chunk, Layout};

/// The per-query kernel applied to the shared scan's decoded atoms.
#[derive(Debug, Clone)]
pub enum ScanKernel {
    /// All points with the derived norm at or above the threshold.
    Threshold { threshold: f64 },
    /// Histogram of the derived norm (PDF queries).
    Pdf {
        origin: f64,
        width: f64,
        nbins: usize,
    },
    /// Every point of the box but NaN: a node reads it as a
    /// [`ScanKernel::Threshold`] at −∞. The mediator never sends it (every
    /// top-k leaves it as a threshold scan, DESIGN.md §9); it is kept only
    /// because the frozen benchmark builds it for `evaluate_shared`.
    TopK,
}

/// The total order of top-k answers: value descending (`total_cmp`, so
/// NaN and ±0 have fixed places), then Morton code ascending. A code
/// names one grid point, so no two candidates ever compare equal and the
/// k best are the same set in the same order however the candidates were
/// split across chunks, nodes or batches.
pub fn topk_order(a: &ThresholdPoint, b: &ThresholdPoint) -> std::cmp::Ordering {
    b.value.total_cmp(&a.value).then(a.zindex.cmp(&b.zindex))
}

/// Drops all but the `k` best points under [`topk_order`], by selection;
/// the survivors are left unordered.
pub fn select_topk(points: &mut Vec<ThresholdPoint>, k: usize) {
    if k == 0 {
        points.clear();
    } else if points.len() > k {
        points.select_nth_unstable_by(k - 1, topk_order);
        points.truncate(k);
    }
}

/// One query participating in a shared scan.
#[derive(Debug, Clone)]
pub struct ScanParticipant {
    /// The participant's own region; clipped per chunk during the scan.
    pub query_box: Box3,
    pub kernel: ScanKernel,
    /// Whether this participant asks to probe and fill the node caches.
    pub use_cache: bool,
}

/// Which chunks each node scans, decided by the mediator from one
/// placement snapshot. Nodes never consult a layout of their own — the
/// assignment is the single source of placement truth for a scan, which
/// is what lets the mediator re-target a failed node's chunks at a
/// replica and keeps every scan of a batch on one consistent topology.
#[derive(Debug, Clone)]
pub struct ScanAssignment {
    /// The placement snapshot the assignment was computed from (also
    /// used for halo-atom routing during the scan).
    pub layout: Arc<Layout>,
    /// `chunks[node]` = indices into `layout.chunks()` of the chunks that
    /// node must scan; [`Self::chunks_of`] looks them up.
    pub chunks: Vec<Vec<usize>>,
    /// Whether this is the canonical primary-ownership assignment.
    /// Semantic-cache entries hold exactly a node's *primary* points for
    /// the full query box, so cache probes and fills are only sound on
    /// the canonical assignment; failover re-scans must bypass them.
    pub canonical: bool,
}

impl ScanAssignment {
    /// The canonical assignment: every node scans its primary chunks.
    pub fn canonical(layout: &Arc<Layout>) -> Self {
        let chunks = (0..layout.num_nodes())
            .map(|node| layout.chunk_indices_of_node(node))
            .collect();
        Self {
            layout: Arc::clone(layout),
            chunks,
            canonical: true,
        }
    }

    /// The chunks assigned to `node`, looked up in the layout by index
    /// (none when out of range).
    pub fn chunks_of(&self, node: usize) -> impl Iterator<Item = Chunk> + '_ {
        let idxs = self.chunks.get(node).map_or(&[][..], Vec::as_slice);
        (idxs.iter()).filter_map(|&c| self.layout.chunks().get(c).copied())
    }
}

/// A group of queries sharing one atom scan. All participants agree on
/// everything that shapes the scan itself; only the region, kernel and
/// cache policy vary per participant.
#[derive(Debug, Clone)]
pub struct SharedScanRequest {
    pub dataset: String,
    pub raw_field: String,
    pub derived: DerivedField,
    pub timestep: u32,
    /// Frozen-benchmark surface: `perfbench` names it, nothing reads it.
    pub mode: QueryMode,
    /// Worker processes per node for the shared scan.
    pub procs: usize,
    pub participants: Vec<ScanParticipant>,
    /// Chunk-to-node assignment for this scan.
    pub assignment: Arc<ScanAssignment>,
}

impl SharedScanRequest {
    /// Cache key shared by every participant (same dataset, field and
    /// time-step by construction).
    pub fn cache_key(&self) -> CacheInfoKey {
        cache_key(&self.dataset, &self.raw_field, self.derived, self.timestep)
    }
}

/// The semantic-cache key of one derived field of one time-step.
pub(crate) fn cache_key(
    dataset: &str,
    raw_field: &str,
    derived: DerivedField,
    timestep: u32,
) -> CacheInfoKey {
    CacheInfoKey {
        dataset: dataset.to_string(),
        field: format!("{raw_field}/{}", derived.name()),
        timestep,
    }
}

/// One participant's share of a node's shared-scan outcome.
#[derive(Debug)]
pub struct SharedOutcome {
    /// Timing, cache status and (for point kernels) the points found.
    pub result: NodeResult,
    /// `Some` for [`ScanKernel::Pdf`] participants.
    pub histogram: Option<Histogram>,
}

/// Convenience accessor for point-kernel outcomes.
impl SharedOutcome {
    /// Takes the points out of the outcome.
    pub fn take_points(&mut self) -> Vec<ThresholdPoint> {
        std::mem::take(&mut self.result.points)
    }
}
