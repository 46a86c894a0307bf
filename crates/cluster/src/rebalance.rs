//! Node join/leave rebalancing (DESIGN.md §11).
//!
//! Rendezvous placement makes membership changes move the minimal set of
//! chunks: a join moves only ~k/(n+1) of all chunks — each onto the new
//! node, never between existing nodes — and a leave re-homes exactly the
//! chunks whose chains contained the departed node. A change builds the
//! gaining nodes' new tables against the *old* topology (every source,
//! including a voluntarily leaving node, is still readable), then
//! atomically installs the next `Topology` generation. In-flight scans
//! hold an `Arc` to the old generation and finish on it undisturbed, so
//! a shared scan stays snapshot-consistent across the move.

use std::sync::Arc;

use tdb_storage::device::IoSession;
use tdb_storage::{AtomRecord, StorageError, StorageResult};
use tdb_zorder::{AtomCoord, ZRange};

use crate::mediator::Cluster;
use crate::node::NodeRuntime;
use crate::placement::{Layout, PlacementMode};
use crate::topology::{
    routed_read, start_node, table_builders, NodeDevices, RebalanceState, Topology,
};

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
        let spare = state.spares.last().cloned().ok_or_else(|| {
            StorageError::internal(
                "no spare node slots configured (ReplicationConfig::spare_nodes)",
            )
        })?;
        // node ids are never reused: a departed node keeps its (empty) slot
        let node = old.nodes.len();
        let mut members = old.layout.node_ids().to_vec();
        members.push(node);
        let report = self.install_members(&mut state, &old, node, &members, Some(spare))?;
        // the rack is spent only once the node is up on it
        state.spares.pop();
        tdb_obs::m::REPLICATION_REBALANCE_JOINS.inc();
        Ok(report)
    }

    /// Retires a node: survivors whose chains must absorb the departed
    /// node's chunks rebuild their tables (copying only the gained
    /// chunks' atoms — the rest is a local re-pack), then the shrunken
    /// topology is installed and the node's runtime dropped.
    pub fn leave_node(&self, node: usize) -> StorageResult<RebalanceReport> {
        let mut state = self.rebalance.lock();
        let old = self.topology_snapshot();
        if !old.nodes.get(node).is_some_and(Option::is_some) {
            return Err(StorageError::internal(format!(
                "node {node} is not a live member of the cluster"
            )));
        }
        let mut members = old.layout.node_ids().to_vec();
        members.retain(|&n| n != node);
        let k = self.env.config.replication.k;
        if members.len() < k {
            return Err(StorageError::internal(format!(
                "retiring node {node} would leave {} nodes, fewer than replication factor {k}",
                members.len(),
            )));
        }
        let report = self.install_members(&mut state, &old, node, &members, None)?;
        tdb_obs::m::REPLICATION_REBALANCE_LEAVES.inc();
        Ok(report)
    }

    /// Installs the topology generation whose members are `members`,
    /// after `node` joined (on the rack `joiner`) or left. Every member
    /// whose share grew is rebuilt against the *old* topology — every
    /// source, a voluntarily leaving node included, is still readable —
    /// on the rack it already has; the rest keep their runtimes.
    fn install_members(
        &self,
        state: &mut RebalanceState,
        old: &Topology,
        node: usize,
        members: &[usize],
        mut joiner: Option<NodeDevices>,
    ) -> StorageResult<RebalanceReport> {
        if old.layout.mode() != PlacementMode::Rendezvous {
            return Err(StorageError::internal(
                "node join / leave requires rendezvous placement (ReplicationConfig::rendezvous)",
            ));
        }
        let slots = old.nodes.len().max(node + 1);
        let layout = Arc::new(Layout::over_nodes(
            self.env.grid.dims(),
            self.env.config.chunk_atoms,
            slots,
            members,
            self.env.config.replication.k,
            PlacementMode::Rendezvous,
        ));
        let epoch = old.epoch + 1;
        let mut nodes = old.nodes.clone();
        nodes.resize(slots, None);
        let (mut chunks_moved, mut atoms_copied) = (0usize, 0u64);
        for (id, slot) in nodes.iter_mut().enumerate() {
            if !members.contains(&id) {
                *slot = None;
                continue;
            }
            let gained: Vec<ZRange> = (layout.chunks().iter().enumerate())
                .filter(|(c, _)| {
                    layout.replicas_of_chunk(*c).contains(&id)
                        && !old.layout.replicas_of_chunk(*c).contains(&id)
                })
                .map(|(_, chunk)| chunk.zrange())
                .collect();
            let devices = match slot.as_ref() {
                Some(_) if gained.is_empty() => continue,
                Some(runtime) => runtime.devices.clone(),
                None => joiner.take().ok_or_else(|| {
                    StorageError::internal(format!("member {id} has no runtime and no rack"))
                })?,
            };
            let runtime =
                self.rebuild_node(old, &layout, id, devices, epoch, &mut state.next_file_id)?;
            *slot = Some(Arc::new(runtime));
            chunks_moved += gained.len();
            atoms_copied += gained.iter().map(ZRange::len).sum::<u64>()
                * (self.timesteps.len() * self.fields.len()) as u64;
        }
        *self.topology.write() = Arc::new(Topology::new(layout, nodes, epoch));
        // chunk primaries changed hands, and semantic-cache entries hold
        // exactly the old canonical per-node point sets — drop them all
        self.clear_caches();
        tdb_obs::m::REPLICATION_REBALANCE_CHUNKS_MOVED.add(chunks_moved as u64);
        tdb_obs::m::REPLICATION_REBALANCE_ATOMS_COPIED.add(atoms_copied);
        Ok(RebalanceReport {
            node,
            chunks_moved,
            atoms_copied,
            epoch,
            live_nodes: members.len(),
        })
    }

    /// Builds `node`'s tables for the new layout in an epoch-suffixed
    /// directory, reading every atom through the old topology with the
    /// node's old runtime (if it had one) as the reader: chunks it already
    /// stored come from its own old tables (a local re-pack), gained
    /// chunks from the first live member of their old chain.
    fn rebuild_node(
        &self,
        old: &Topology,
        new_layout: &Layout,
        node: usize,
        devices: NodeDevices,
        epoch: u64,
        next_file_id: &mut u64,
    ) -> StorageResult<NodeRuntime> {
        let reader = old.nodes.get(node).and_then(Option::as_deref);
        let stored = new_layout.stored_zranges_of_node(node);
        let node_dir = self.dir.join(format!("node{node}_e{epoch}"));
        let mut builders = table_builders(
            &self.env,
            new_layout,
            node,
            &node_dir,
            &self.fields,
            &devices.arrays,
        )?;
        let mut session = IoSession::new();
        for &timestep in &self.timesteps {
            for (name, builder) in &mut builders {
                let atoms = stored
                    .iter()
                    .flat_map(|zr| zr.start..=zr.end)
                    .map(AtomCoord::from_zindex);
                let mut records: Vec<AtomRecord> = routed_read(
                    &old.layout,
                    &old.nodes,
                    reader,
                    name,
                    timestep,
                    atoms,
                    &mut session,
                )?
                .into_values()
                .collect();
                records.sort_unstable_by_key(|rec| rec.key);
                builder.append_timestep(timestep, records)?;
            }
        }
        start_node(&self.env, node, builders, devices, next_file_id)
    }
}
