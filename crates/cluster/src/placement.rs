//! Spatial data placement.
//!
//! "We use the Morton z-order space-filling curve to distribute the data
//! across nodes and databases" (paper §2). The atom lattice is tiled into
//! cubic *chunks* (octree-aligned, so each chunk is one contiguous Morton
//! range); chunks are ordered along the z-curve and split into contiguous
//! runs, one per node. A chunk is both the placement unit and the unit of
//! work a node's worker processes pull from the queue.
//!
//! With k-way replication every chunk has a *replica chain* of `k`
//! distinct nodes, primary first. Two placement modes exist:
//!
//! * [`PlacementMode::Contiguous`] keeps the paper's contiguous z-order
//!   runs as primaries (so k=1 is byte-identical to the unreplicated
//!   layout) and picks the extra replicas by rendezvous hashing.
//! * [`PlacementMode::Rendezvous`] derives the whole chain from
//!   highest-random-weight (HRW) hashing over the live node set, which is
//!   what makes node join/leave move only ~k/n of the chunks
//!   (see `rebalance.rs`).

use tdb_storage::faults::splitmix64;
use tdb_zorder::{encode3, AtomCoord, Box3, ZRange, ATOM_WIDTH};

/// One cubic tile of the atom lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Chunk-lattice coordinates.
    pub cx: u32,
    pub cy: u32,
    pub cz: u32,
    /// Edge length in atoms (power of two).
    pub atoms: u32,
}

impl Chunk {
    /// Contiguous Morton range of this chunk's atoms.
    pub fn zrange(&self) -> ZRange {
        let shift = 3 * self.atoms.trailing_zeros();
        let base = encode3(self.cx, self.cy, self.cz) << shift;
        ZRange::new(base, base + (u64::from(self.atoms).pow(3) - 1))
    }

    /// Grid-space box covered by this chunk.
    pub fn grid_box(&self) -> Box3 {
        let w = self.atoms * ATOM_WIDTH as u32;
        Box3::new(
            [self.cx * w, self.cy * w, self.cz * w],
            [
                (self.cx + 1) * w - 1,
                (self.cy + 1) * w - 1,
                (self.cz + 1) * w - 1,
            ],
        )
    }
}

/// How replica chains are derived from the node set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementMode {
    /// Paper-style contiguous z-order primary runs; extra replicas by
    /// rendezvous hashing. Static: no join/leave support.
    Contiguous,
    /// The whole chain by rendezvous (HRW) hashing — minimal-movement
    /// join/leave.
    Rendezvous,
}

/// The rendezvous weight of `node` for the chunk keyed by `chunk_key`.
/// Deterministic, uniform, and independent across nodes — so removing a
/// node never reorders the surviving nodes' relative ranks.
fn hrw_weight(chunk_key: u64, node: usize) -> u64 {
    splitmix64(chunk_key ^ splitmix64(node as u64 ^ 0xA076_1D64_78BD_642F))
}

/// The cluster-wide placement map.
#[derive(Debug, Clone)]
pub struct Layout {
    chunk_atoms: u32,
    /// Chunks sorted by z-order.
    chunks: Vec<Chunk>,
    /// `chunk_replicas[i]` = replica chain of `chunks[i]`, primary first,
    /// `k` distinct node ids.
    chunk_replicas: Vec<Vec<usize>>,
    /// Node-id space size (ids run `0..num_nodes`; some may have left).
    num_nodes: usize,
    /// Live node ids eligible to hold replicas, ascending.
    node_ids: Vec<usize>,
    mode: PlacementMode,
}

impl Layout {
    /// Tiles the grid and assigns contiguous z-order runs of chunks to
    /// `num_nodes` nodes (single copy; the seed layout).
    pub fn new(dims: (usize, usize, usize), chunk_atoms: u32, num_nodes: usize) -> Self {
        Self::with_replication(dims, chunk_atoms, num_nodes, 1, PlacementMode::Contiguous)
    }

    /// Tiles the grid and assigns every chunk a chain of `k` distinct
    /// replicas over nodes `0..num_nodes`.
    pub fn with_replication(
        dims: (usize, usize, usize),
        chunk_atoms: u32,
        num_nodes: usize,
        k: usize,
        mode: PlacementMode,
    ) -> Self {
        let node_ids: Vec<usize> = (0..num_nodes).collect();
        Self::over_nodes(dims, chunk_atoms, num_nodes, &node_ids, k, mode)
    }

    /// Tiles the grid and derives chains over an explicit live node set
    /// (ids within `0..num_nodes`; used by rebalancing, where departed
    /// ids leave holes in the id space).
    pub fn over_nodes(
        dims: (usize, usize, usize),
        chunk_atoms: u32,
        num_nodes: usize,
        node_ids: &[usize],
        k: usize,
        mode: PlacementMode,
    ) -> Self {
        let w = (8 * chunk_atoms) as usize;
        assert!(
            dims.0 % w == 0 && dims.1 % w == 0 && dims.2 % w == 0,
            "grid {dims:?} not tileable by chunk width {w}"
        );
        let mut node_ids = node_ids.to_vec();
        node_ids.sort_unstable();
        node_ids.dedup();
        assert!(!node_ids.is_empty(), "need at least one live node");
        assert!(
            node_ids.iter().all(|&id| id < num_nodes),
            "live node ids must fall inside the id space 0..{num_nodes}"
        );
        assert!(
            (1..=node_ids.len()).contains(&k),
            "replication factor {k} needs 1..={} live nodes",
            node_ids.len()
        );
        if mode == PlacementMode::Contiguous {
            assert_eq!(
                node_ids.len(),
                num_nodes,
                "contiguous placement is static: every node id must be live"
            );
        }
        let (ncx, ncy, ncz) = (dims.0 / w, dims.1 / w, dims.2 / w);
        let mut chunks = Vec::with_capacity(ncx * ncy * ncz);
        for cz in 0..ncz as u32 {
            for cy in 0..ncy as u32 {
                for cx in 0..ncx as u32 {
                    chunks.push(Chunk {
                        cx,
                        cy,
                        cz,
                        atoms: chunk_atoms,
                    });
                }
            }
        }
        chunks.sort_by_key(|c| c.zrange().start);
        let n = chunks.len();
        assert!(
            n >= node_ids.len(),
            "{n} chunks cannot be spread over {} nodes",
            node_ids.len()
        );
        let chunk_replicas: Vec<Vec<usize>> = chunks
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let key = c.zrange().start;
                match mode {
                    PlacementMode::Contiguous => {
                        // paper-style contiguous primary run …
                        let primary = i * node_ids.len() / n;
                        let mut chain = vec![primary];
                        // … plus the k-1 best-ranked other nodes by HRW
                        let mut rest: Vec<usize> = node_ids
                            .iter()
                            .copied()
                            .filter(|&id| id != primary)
                            .collect();
                        rest.sort_unstable_by_key(|&id| std::cmp::Reverse(hrw_weight(key, id)));
                        chain.extend(rest.into_iter().take(k - 1));
                        chain
                    }
                    PlacementMode::Rendezvous => {
                        let mut ranked = node_ids.clone();
                        ranked.sort_unstable_by_key(|&id| std::cmp::Reverse(hrw_weight(key, id)));
                        ranked.truncate(k);
                        ranked
                    }
                }
            })
            .collect();
        Self {
            chunk_atoms,
            chunks,
            chunk_replicas,
            num_nodes,
            node_ids,
            mode,
        }
    }

    /// Node-id space size (ids run `0..num_nodes`; rebalancing may have
    /// retired some — see [`Self::node_ids`]).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Live node ids, ascending.
    pub fn node_ids(&self) -> &[usize] {
        &self.node_ids
    }

    /// How chains were derived.
    pub fn mode(&self) -> PlacementMode {
        self.mode
    }

    /// All chunks in z-order.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// Replica chain of `chunks[idx]`, primary first.
    pub fn replicas_of_chunk(&self, idx: usize) -> &[usize] {
        self.chunk_replicas.get(idx).map_or(&[], Vec::as_slice)
    }

    /// Chunks whose *primary* is `node`, in z-order — the node's share of
    /// a canonical scan.
    pub fn chunks_of_node(&self, node: usize) -> Vec<Chunk> {
        self.chunks
            .iter()
            .zip(&self.chunk_replicas)
            .filter(|(_, chain)| chain.first() == Some(&node))
            .map(|(c, _)| *c)
            .collect()
    }

    /// Chunk indices whose primary is `node`, in z-order.
    pub fn chunk_indices_of_node(&self, node: usize) -> Vec<usize> {
        self.chunk_replicas
            .iter()
            .enumerate()
            .filter(|(_, chain)| chain.first() == Some(&node))
            .map(|(i, _)| i)
            .collect()
    }

    /// Chunks stored on `node` (primary or replica), in z-order.
    pub fn stored_chunks_of_node(&self, node: usize) -> Vec<Chunk> {
        self.chunks
            .iter()
            .zip(&self.chunk_replicas)
            .filter(|(_, chain)| chain.contains(&node))
            .map(|(c, _)| *c)
            .collect()
    }

    /// Merged contiguous z-ranges of a node's *primary* atoms.
    pub fn zranges_of_node(&self, node: usize) -> Vec<ZRange> {
        merge_ranges(self.chunks_of_node(node).iter().map(Chunk::zrange))
    }

    /// Merged contiguous z-ranges of every atom stored on `node`
    /// (primary or replica); its table partitions are built over these.
    pub fn stored_zranges_of_node(&self, node: usize) -> Vec<ZRange> {
        merge_ranges(self.stored_chunks_of_node(node).iter().map(Chunk::zrange))
    }

    /// Index into [`Self::chunks`] of the chunk containing the atom.
    pub fn chunk_index_of_atom(&self, atom: AtomCoord) -> usize {
        let ca = self.chunk_atoms;
        let chunk_code = encode3(atom.x / ca, atom.y / ca, atom.z / ca);
        let shift = 3 * ca.trailing_zeros();
        let code = (chunk_code << shift) | (atom.zindex() & ((1u64 << shift) - 1));
        // binary search the chunk whose range contains the code
        let idx = self.chunks.partition_point(|c| c.zrange().end < code);
        debug_assert!(self
            .chunks
            .get(idx)
            .is_some_and(|c| c.zrange().contains(code)));
        idx
    }

    /// Node owning (primary for) the atom.
    pub fn node_of_atom(&self, atom: AtomCoord) -> usize {
        let chain = self.replicas_of_chunk(self.chunk_index_of_atom(atom));
        chain.first().copied().unwrap_or(0)
    }

    /// Where to fetch an atom from: `prefer` when that node stores a
    /// replica of the atom's chunk (a local read), else the primary.
    pub fn fetch_node_for(&self, atom: AtomCoord, prefer: usize) -> usize {
        let chain = self.replicas_of_chunk(self.chunk_index_of_atom(atom));
        if chain.contains(&prefer) {
            prefer
        } else {
            chain.first().copied().unwrap_or(0)
        }
    }
}

/// Merges z-ranges that are contiguous along the curve (input in z-order).
fn merge_ranges(ranges: impl IntoIterator<Item = ZRange>) -> Vec<ZRange> {
    let mut out: Vec<ZRange> = Vec::new();
    for r in ranges {
        match out.last_mut() {
            Some(last) if last.end + 1 == r.start => last.end = r.end,
            _ => out.push(r),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn chunk_zrange_is_octree_aligned() {
        let c = Chunk {
            cx: 1,
            cy: 0,
            cz: 0,
            atoms: 4,
        };
        let r = c.zrange();
        assert_eq!(r.len(), 64);
        assert_eq!(r.start, encode3(4, 0, 0));
        // every atom of the chunk falls inside the range
        for ax in 4..8 {
            for ay in 0..4 {
                for az in 0..4 {
                    assert!(r.contains(encode3(ax, ay, az)));
                }
            }
        }
    }

    #[test]
    fn chunk_grid_box_matches() {
        let c = Chunk {
            cx: 0,
            cy: 1,
            cz: 2,
            atoms: 2,
        };
        assert_eq!(c.grid_box(), Box3::new([0, 16, 32], [15, 31, 47]));
    }

    #[test]
    fn layout_partitions_all_chunks_contiguously() {
        let l = Layout::new((64, 64, 64), 2, 4);
        assert_eq!(l.chunks().len(), 64);
        let mut total = 0;
        for node in 0..4 {
            let cs = l.chunks_of_node(node);
            assert_eq!(cs.len(), 16);
            total += cs.len();
            // contiguous run along the z-curve → one merged z-range
            assert_eq!(l.zranges_of_node(node).len(), 1);
        }
        assert_eq!(total, 64);
    }

    #[test]
    fn node_ranges_cover_the_lattice_disjointly() {
        let l = Layout::new((64, 64, 64), 2, 3);
        let mut ranges: Vec<ZRange> = (0..3).flat_map(|n| l.zranges_of_node(n)).collect();
        ranges.sort();
        let total: u64 = ranges.iter().map(ZRange::len).sum();
        assert_eq!(total, 8 * 8 * 8); // 512 atoms on the 8³ lattice
        for w in ranges.windows(2) {
            assert!(w[0].end < w[1].start);
        }
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, 511);
    }

    #[test]
    fn replication_keeps_contiguous_primaries() {
        let single = Layout::new((64, 64, 64), 2, 4);
        let repl = Layout::with_replication((64, 64, 64), 2, 4, 3, PlacementMode::Contiguous);
        for node in 0..4 {
            assert_eq!(single.chunks_of_node(node), repl.chunks_of_node(node));
            assert_eq!(single.zranges_of_node(node), repl.zranges_of_node(node));
        }
    }

    #[test]
    fn chains_have_k_distinct_members() {
        for mode in [PlacementMode::Contiguous, PlacementMode::Rendezvous] {
            let l = Layout::with_replication((64, 64, 64), 2, 4, 3, mode);
            for i in 0..l.chunks().len() {
                let chain = l.replicas_of_chunk(i);
                assert_eq!(chain.len(), 3);
                let mut sorted = chain.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), 3, "chain members must be distinct");
                assert!(sorted.iter().all(|&n| n < 4));
            }
        }
    }

    #[test]
    fn stored_chunks_cover_with_multiplicity_k() {
        let l = Layout::with_replication((64, 64, 64), 2, 4, 2, PlacementMode::Rendezvous);
        let stored: usize = (0..4).map(|n| l.stored_chunks_of_node(n).len()).sum();
        assert_eq!(stored, 2 * l.chunks().len());
        // every chunk's primary chunk list and stored chunk list agree
        for node in 0..4 {
            let primary = l.chunks_of_node(node);
            let stored = l.stored_chunks_of_node(node);
            assert!(primary.iter().all(|c| stored.contains(c)));
        }
    }

    #[test]
    fn rendezvous_join_moves_only_a_small_fraction() {
        let dims = (128, 128, 128);
        let before = Layout::with_replication(dims, 2, 5, 2, PlacementMode::Rendezvous);
        let after = Layout::with_replication(dims, 2, 6, 2, PlacementMode::Rendezvous);
        let total = before.chunks().len();
        let mut moved = 0usize;
        for i in 0..total {
            let old = before.replicas_of_chunk(i);
            for &n in after.replicas_of_chunk(i) {
                if !old.contains(&n) {
                    // a chunk only ever moves TO the new node on join
                    assert_eq!(n, 5, "HRW join must not shuffle existing nodes");
                    moved += 1;
                }
            }
        }
        // expected k/(n+1) = 1/3 of chunks gain the new node; allow 2×
        assert!(moved > 0, "the new node must receive some chunks");
        assert!(
            moved <= total * 2 * 2 / 6,
            "join moved {moved} of {total} chunks — not minimal"
        );
    }

    #[test]
    fn rendezvous_leave_moves_only_orphans() {
        let dims = (128, 128, 128);
        let all: Vec<usize> = (0..5).collect();
        let before = Layout::over_nodes(dims, 2, 5, &all, 2, PlacementMode::Rendezvous);
        let survivors: Vec<usize> = all.iter().copied().filter(|&n| n != 2).collect();
        let after = Layout::over_nodes(dims, 2, 5, &survivors, 2, PlacementMode::Rendezvous);
        for i in 0..before.chunks().len() {
            let old = before.replicas_of_chunk(i);
            let new = after.replicas_of_chunk(i);
            assert!(!new.contains(&2));
            if !old.contains(&2) {
                assert_eq!(
                    old, new,
                    "chunks untouched by the departed node must not move"
                );
            } else {
                // exactly one replacement member; survivors keep their spots
                let kept = new.iter().filter(|n| old.contains(n)).count();
                assert_eq!(kept, 1);
            }
        }
    }

    proptest! {
        #[test]
        fn node_of_atom_agrees_with_chunk_ownership(
            ax in 0u32..8, ay in 0u32..8, az in 0u32..8, nodes in 1usize..6
        ) {
            let l = Layout::new((64, 64, 64), 2, nodes);
            let atom = AtomCoord::new(ax, ay, az);
            let node = l.node_of_atom(atom);
            prop_assert!(node < nodes);
            // the owning node's chunk list contains the atom's chunk
            let owned = l.chunks_of_node(node);
            prop_assert!(owned.iter().any(|c| c.zrange().contains(atom.zindex())));
            // and its z-ranges contain the atom's code
            let zr = l.zranges_of_node(node);
            prop_assert!(zr.iter().any(|r| r.contains(atom.zindex())));
        }

        #[test]
        fn fetch_prefers_any_stored_replica(
            ax in 0u32..8, ay in 0u32..8, az in 0u32..8,
            prefer in 0usize..4, k in 1usize..4
        ) {
            let l = Layout::with_replication((64, 64, 64), 2, 4, k, PlacementMode::Rendezvous);
            let atom = AtomCoord::new(ax, ay, az);
            let src = l.fetch_node_for(atom, prefer);
            let chain = l.replicas_of_chunk(l.chunk_index_of_atom(atom));
            prop_assert!(chain.contains(&src));
            if chain.contains(&prefer) {
                prop_assert_eq!(src, prefer);
            } else {
                prop_assert_eq!(src, chain[0]);
            }
        }
    }
}
