//! Node join/leave rebalancing (DESIGN.md §11).
//!
//! Rendezvous placement makes membership changes move the minimal set of
//! chunks: a join moves only ~k/(n+1) of all chunks — each onto the new
//! node, never between existing nodes — and a leave re-homes exactly the
//! chunks whose chains contained the departed node. A change builds the
//! gaining nodes' new tables against the *old* topology (every source,
//! including a voluntarily leaving node, is still readable), then
//! atomically installs the next [`Topology`] generation. In-flight scans
//! hold an `Arc` to the old generation and finish on it undisturbed —
//! the shared-scan scheduler stays snapshot-consistent across the move.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use tdb_storage::device::IoSession;
use tdb_storage::{BlockCache, StorageError, StorageResult, Table, TableBuilder};

use crate::mediator::{split_zones, Cluster, NodeDevices, Topology};
use crate::node::NodeRuntime;
use crate::placement::{Layout, PlacementMode};

/// What a membership change moved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceReport {
    /// The node that joined or left.
    pub node: usize,
    /// Chunks that changed nodes.
    pub chunks_moved: usize,
    /// Atom records copied between nodes (all fields × time-steps).
    pub atoms_copied: u64,
    /// The topology generation after the change.
    pub epoch: u64,
    /// Live nodes after the change.
    pub live_nodes: usize,
}

impl Cluster {
    /// Brings a pre-provisioned spare node into the cluster
    /// ([`crate::config::ReplicationConfig::spare_nodes`]), re-deriving
    /// chains over the grown node set and bulk-copying exactly the chunks
    /// the new node now stores. Requires rendezvous placement; existing
    /// nodes neither gain nor exchange chunks.
    pub fn join_node(&self) -> StorageResult<RebalanceReport> {
        let mut state = self.rebalance.lock();
        let old = self.topology_snapshot();
        if old.layout.mode() != PlacementMode::Rendezvous {
            return Err(StorageError::internal(
                "node join requires rendezvous placement (ReplicationConfig::rendezvous)",
            ));
        }
        let devices = state.spares.pop().ok_or_else(|| {
            StorageError::internal(
                "no spare node slots configured (ReplicationConfig::spare_nodes)",
            )
        })?;
        let node = state.node_devices.len();
        state.node_devices.push(devices.clone());
        let mut ids: Vec<usize> = old.layout.node_ids().to_vec();
        ids.push(node);
        let new_layout = Arc::new(Layout::over_nodes(
            self.grid.dims(),
            self.config.chunk_atoms,
            node + 1,
            &ids,
            self.config.replication.k,
            PlacementMode::Rendezvous,
        ));
        let epoch = old.epoch + 1;
        let mut next_file_id = state.next_file_id;
        let (runtime, gained, copied) =
            self.rebuild_node(&old, &new_layout, node, &devices, epoch, &mut next_file_id)?;
        state.next_file_id = next_file_id;
        let mut nodes = old.nodes.clone();
        nodes.resize(node + 1, None);
        if let Some(slot) = nodes.get_mut(node) {
            *slot = Some(Arc::new(runtime));
        }
        let live_nodes = nodes.iter().flatten().count();
        *self.topology.write() = Arc::new(Topology {
            layout: new_layout,
            nodes,
            epoch,
        });
        // chunk primaries changed hands, and semantic-cache entries hold
        // exactly the old canonical per-node point sets — drop them all
        self.clear_caches();
        tdb_obs::add("replication.rebalance.joins", 1);
        tdb_obs::add("replication.rebalance.chunks_moved", gained as u64);
        tdb_obs::add("replication.rebalance.atoms_copied", copied);
        Ok(RebalanceReport {
            node,
            chunks_moved: gained,
            atoms_copied: copied,
            epoch,
            live_nodes,
        })
    }

    /// Retires a node: survivors whose chains must absorb the departed
    /// node's chunks rebuild their tables (copying only the gained
    /// chunks' atoms — the rest is a local re-pack), then the shrunken
    /// topology is installed and the node's runtime dropped.
    pub fn leave_node(&self, node: usize) -> StorageResult<RebalanceReport> {
        let mut state = self.rebalance.lock();
        let old = self.topology_snapshot();
        if old.layout.mode() != PlacementMode::Rendezvous {
            return Err(StorageError::internal(
                "node leave requires rendezvous placement (ReplicationConfig::rendezvous)",
            ));
        }
        if !old.nodes.get(node).is_some_and(Option::is_some) {
            return Err(StorageError::internal(format!(
                "node {node} is not a live member of the cluster"
            )));
        }
        let survivors: Vec<usize> = old
            .layout
            .node_ids()
            .iter()
            .copied()
            .filter(|&n| n != node)
            .collect();
        if survivors.len() < self.config.replication.k {
            return Err(StorageError::internal(format!(
                "retiring node {node} would leave {} nodes, fewer than replication factor {}",
                survivors.len(),
                self.config.replication.k
            )));
        }
        let new_layout = Arc::new(Layout::over_nodes(
            self.grid.dims(),
            self.config.chunk_atoms,
            old.layout.num_nodes(),
            &survivors,
            self.config.replication.k,
            PlacementMode::Rendezvous,
        ));
        let epoch = old.epoch + 1;
        let mut next_file_id = state.next_file_id;
        let mut nodes = old.nodes.clone();
        let mut chunks_moved = 0usize;
        let mut atoms_copied = 0u64;
        for &g in &survivors {
            let gains = (0..new_layout.chunks().len()).any(|c| {
                new_layout.replicas_of_chunk(c).contains(&g)
                    && !old.layout.replicas_of_chunk(c).contains(&g)
            });
            if !gains {
                continue;
            }
            let devices = state.node_devices.get(g).cloned().ok_or_else(|| {
                StorageError::internal(format!("no device record for surviving node {g}"))
            })?;
            let (runtime, gained, copied) =
                self.rebuild_node(&old, &new_layout, g, &devices, epoch, &mut next_file_id)?;
            chunks_moved += gained;
            atoms_copied += copied;
            if let Some(slot) = nodes.get_mut(g) {
                *slot = Some(Arc::new(runtime));
            }
        }
        state.next_file_id = next_file_id;
        if let Some(slot) = nodes.get_mut(node) {
            *slot = None;
        }
        let live_nodes = survivors.len();
        *self.topology.write() = Arc::new(Topology {
            layout: new_layout,
            nodes,
            epoch,
        });
        self.clear_caches();
        tdb_obs::add("replication.rebalance.leaves", 1);
        tdb_obs::add("replication.rebalance.chunks_moved", chunks_moved as u64);
        tdb_obs::add("replication.rebalance.atoms_copied", atoms_copied);
        Ok(RebalanceReport {
            node,
            chunks_moved,
            atoms_copied,
            epoch,
            live_nodes,
        })
    }

    /// Builds `node`'s tables for the new layout in an epoch-suffixed
    /// directory, sourcing every chunk from the old topology: chunks the
    /// node already stored come from its own old tables (a local re-pack,
    /// not counted), gained chunks from the first live member of their
    /// old chain (counted as copied). Returns the fresh runtime, the
    /// gained-chunk count and the records copied.
    fn rebuild_node(
        &self,
        old: &Topology,
        new_layout: &Arc<Layout>,
        node: usize,
        devices: &NodeDevices,
        epoch: u64,
        next_file_id: &mut u64,
    ) -> StorageResult<(NodeRuntime, usize, u64)> {
        let stored_new: Vec<usize> = (0..new_layout.chunks().len())
            .filter(|&c| new_layout.replicas_of_chunk(c).contains(&node))
            .collect();
        let stored_old: HashSet<usize> = (0..old.layout.chunks().len())
            .filter(|&c| old.layout.replicas_of_chunk(c).contains(&node))
            .collect();
        let own_old = old.nodes.get(node).and_then(Option::as_ref);
        let gained = stored_new
            .iter()
            .filter(|c| !stored_old.contains(c))
            .count();
        let node_dir = self.dir.join(format!("node{node}_e{epoch}"));
        let zones = split_zones(
            &new_layout.stored_zranges_of_node(node),
            self.config.arrays_per_node,
        );
        let mut builders: Vec<(String, TableBuilder)> = Vec::with_capacity(self.fields.len());
        for (name, ncomp) in &self.fields {
            builders.push((
                name.clone(),
                TableBuilder::new(
                    &node_dir,
                    name,
                    *ncomp,
                    zones.clone(),
                    &devices.arrays,
                    self.config.compression,
                )?,
            ));
        }
        let mut copied = 0u64;
        let mut session = IoSession::new();
        for &timestep in &self.timesteps {
            for (name, builder) in &mut builders {
                let mut records = Vec::new();
                // layout.chunks() is z-ordered, so iterating stored chunks
                // in index order appends records in ascending key order
                for &c in &stored_new {
                    let local = stored_old.contains(&c);
                    let source = if local {
                        own_old
                    } else {
                        old.layout
                            .replicas_of_chunk(c)
                            .iter()
                            .find_map(|&r| old.nodes.get(r).and_then(Option::as_ref))
                    };
                    let Some(source) = source else {
                        return Err(StorageError::internal(format!(
                            "no live source for chunk {c} while rebuilding node {node}"
                        )));
                    };
                    let Some(chunk) = new_layout.chunks().get(c) else {
                        return Err(StorageError::internal(format!(
                            "chunk index {c} out of range rebuilding node {node}"
                        )));
                    };
                    let zr = chunk.zrange();
                    let codes: Vec<u64> = (zr.start..=zr.end).collect();
                    let recs = source.fetch_atoms(name, timestep, &codes, &mut session)?;
                    if !local {
                        copied += recs.len() as u64;
                    }
                    records.extend(recs);
                }
                builder.append_timestep(timestep, records)?;
            }
        }
        let pool = Arc::new(BlockCache::with_faults(
            self.config.bufferpool_bytes,
            self.config.faults.clone(),
        ));
        let mut tables: HashMap<String, Table> = HashMap::new();
        for (name, builder) in builders {
            let table = builder.finish(Arc::clone(&pool), *next_file_id)?;
            *next_file_id += 1024;
            tables.insert(name, table);
        }
        let runtime = NodeRuntime::new(
            node,
            tables,
            pool,
            devices.ssd,
            devices.controller,
            self.config.compute_scale,
            self.config.synthetic_compute_s_per_point,
            self.config.cache_budget_bytes,
            Arc::clone(&self.grid),
            Arc::clone(&self.scheme),
            Arc::clone(&self.registry),
            self.lan,
            self.config.faults.clone(),
        );
        Ok((runtime, gained, copied))
    }
}
