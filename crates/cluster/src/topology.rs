//! Topology: "each request is broken down into multiple parts based on
//! the spatial layout of the data" (paper §2) — the immutable
//! [`Topology`] generations queries snapshot, the devices racked per
//! node, [`ClusterBuilder`] (bulk load), [`start_node`] (the one way a
//! node comes up — at build, join and leave alike) and [`routed_read`]
//! (the one way an atom is reached: scan halo, point query, cutout or
//! rebuild).

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};
use tdb_field::Grid3;
use tdb_kernels::DiffScheme;
use tdb_storage::device::{DeviceId, DeviceProfile, DeviceRegistry, IoSession};
use tdb_storage::{AtomKey, AtomRecord, BlockCache, StorageError, StorageResult, TableBuilder};
use tdb_zorder::{AtomCoord, ZRange};

use crate::config::ClusterConfig;
use crate::maxima::AtomMaxima;
use crate::mediator::Cluster;
use crate::node::NodeRuntime;
use crate::placement::Layout;
use crate::scan::ScanAssignment;

/// What every node of one cluster shares with the mediator: sizing,
/// geometry, the differencing scheme and the (frozen) device registry.
pub(crate) struct ClusterEnv {
    pub config: ClusterConfig,
    pub grid: Grid3,
    pub scheme: DiffScheme,
    pub registry: DeviceRegistry,
    pub lan: DeviceId,
    pub wan: DeviceId,
    /// The per-octant maxima, set once by [`ClusterBuilder::finish`].
    pub maxima: OnceLock<AtomMaxima>,
}

/// The devices racked for one node: its disk arrays, semantic-cache SSD
/// and I/O controller.
#[derive(Debug, Clone)]
pub(crate) struct NodeDevices {
    pub arrays: Vec<DeviceId>,
    pub ssd: DeviceId,
    pub controller: DeviceId,
}

/// Mutable cluster-membership state, serialized under one lock so joins
/// and leaves cannot interleave.
pub(crate) struct RebalanceState {
    /// Pre-registered device sets for future [`Cluster::join_node`] calls
    /// ([`crate::config::ReplicationConfig::spare_nodes`]).
    pub spares: Vec<NodeDevices>,
    /// Next unused partition-file id block (file ids advance by 1024 per
    /// table so fault rules can target files of rebuilt nodes too).
    pub next_file_id: u64,
}

/// One immutable topology generation: the placement snapshot plus the
/// node runtimes serving it. Queries grab an `Arc<Topology>` once and run
/// entirely against it, so a concurrent join/leave installing the next
/// generation never tears an in-flight scan.
pub(crate) struct Topology {
    pub layout: Arc<Layout>,
    /// Runtimes indexed by node id; `None` marks a departed node.
    pub nodes: Vec<Option<Arc<NodeRuntime>>>,
    /// Monotone generation counter, bumped per join/leave.
    pub epoch: u64,
    /// The one copy of every node's primary chunks of `layout`, as chunk
    /// indices: the first scatter wave of every query of this generation.
    pub canonical: Arc<ScanAssignment>,
}

impl Topology {
    /// The generation `epoch` of `nodes` serving `layout`.
    pub fn new(layout: Arc<Layout>, nodes: Vec<Option<Arc<NodeRuntime>>>, epoch: u64) -> Self {
        Self {
            canonical: Arc::new(ScanAssignment::canonical(&layout)),
            layout,
            nodes,
            epoch,
        }
    }

    /// Live `(node id, runtime)` pairs in id order.
    pub fn live(&self) -> impl Iterator<Item = (usize, &Arc<NodeRuntime>)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|n| (i, n)))
    }

    /// Number of live nodes.
    pub fn live_count(&self) -> usize {
        self.nodes.iter().flatten().count()
    }
}

/// Fetches `atoms` of one field and time-step from the nodes that store
/// them, keyed by zindex. An atom comes from `reader` itself when it holds
/// a replica of the atom's chunk, else from the first live member of the
/// chunk's chain — down-marked nodes keep serving storage, so that is
/// normally the primary. Each owner gets one sorted, duplicate-free
/// request; a node reading from a peer pays one LAN round trip per peer,
/// and a read without a `reader` (the mediator's own) does not: its
/// transfer is the answer's.
pub(crate) fn routed_read(
    layout: &Layout,
    nodes: &[Option<Arc<NodeRuntime>>],
    reader: Option<&NodeRuntime>,
    field: &str,
    timestep: u32,
    atoms: impl IntoIterator<Item = AtomCoord>,
    session: &mut IoSession,
) -> StorageResult<HashMap<u64, AtomRecord>> {
    let node = |id: usize| nodes.get(id).and_then(Option::as_deref);
    let mut by_owner: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for atom in atoms {
        let chain = layout.replicas_of_chunk(layout.chunk_index_of_atom(atom));
        let owner = match reader {
            Some(r) if chain.contains(&r.id) => r.id,
            _ => chain
                .iter()
                .copied()
                .find(|&id| node(id).is_some())
                .ok_or_else(|| {
                    StorageError::internal(format!("no live replica stores atom {atom:?}"))
                })?,
        };
        by_owner.entry(owner).or_default().push(atom.zindex());
    }
    // a reader starts with its own atoms and goes round the ring from
    // there, so nodes scanning in step do not all queue on one peer's pool
    let from_reader = by_owner.split_off(&reader.map_or(0, |r| r.id));
    let mut out = HashMap::new();
    for (owner, mut codes) in from_reader.into_iter().chain(by_owner) {
        codes.sort_unstable();
        codes.dedup();
        let source = reader
            .filter(|r| r.id == owner)
            .or(node(owner))
            .ok_or_else(|| {
                StorageError::internal(format!("atom owner {owner} is not a live member"))
            })?;
        let records = source.fetch_atoms(field, timestep, &codes, session)?;
        if let Some(r) = reader.filter(|r| r.id != owner) {
            let bytes: u64 = records
                .iter()
                .map(|rec| AtomRecord::encoded_len(rec.ncomp) as u64)
                .sum();
            session.charge(r.env.lan, 1, bytes);
        }
        out.reserve(records.len());
        out.extend(records.into_iter().map(|rec| (rec.key.zindex, rec)));
    }
    Ok(out)
}

/// One empty [`TableBuilder`] per field for `node`'s share of `layout`:
/// partition files under `dir`, one per disk array.
pub(crate) fn table_builders(
    env: &ClusterEnv,
    layout: &Layout,
    node: usize,
    dir: &Path,
    fields: &[(String, u8)],
    arrays: &[DeviceId],
) -> StorageResult<Vec<(String, TableBuilder)>> {
    let zones = split_zones(
        &layout.stored_zranges_of_node(node),
        env.config.arrays_per_node,
    );
    fields
        .iter()
        .map(|(name, ncomp)| {
            let builder = TableBuilder::new(
                dir,
                name,
                *ncomp,
                zones.clone(),
                arrays,
                env.config.compression,
            )?;
            Ok((name.clone(), builder))
        })
        .collect()
}

/// Seals a node's loaded tables behind a fresh buffer pool and starts its
/// runtime. Partition files take ids from `next_file_id`, 1024 per table
/// in field order.
pub(crate) fn start_node(
    env: &Arc<ClusterEnv>,
    id: usize,
    builders: Vec<(String, TableBuilder)>,
    devices: NodeDevices,
    next_file_id: &mut u64,
) -> StorageResult<NodeRuntime> {
    let pool = Arc::new(BlockCache::with_faults(
        env.config.bufferpool_bytes,
        env.config.faults.clone(),
    ));
    let mut tables = HashMap::with_capacity(builders.len());
    for (name, builder) in builders {
        tables.insert(name, builder.finish(Arc::clone(&pool), *next_file_id)?);
        *next_file_id += 1024;
    }
    Ok(NodeRuntime::new(id, tables, pool, devices, Arc::clone(env)))
}

/// Builds a cluster: devices, placement, and bulk-loaded tables.
pub struct ClusterBuilder {
    env: Arc<ClusterEnv>,
    dataset: String,
    layout: Arc<Layout>,
    /// Per node: its rack and its tables under load.
    nodes: Vec<(NodeDevices, Vec<(String, TableBuilder)>)>,
    spares: Vec<NodeDevices>,
    fields: Vec<(String, u8)>,
    timesteps: Vec<u32>,
    dir: PathBuf,
}

impl ClusterBuilder {
    /// Prepares storage for `fields` (`(name, ncomp)`) under `dir`. A
    /// configuration that breaks a rule of [`ClusterConfig::validate`] is
    /// an internal error: callers validate it first.
    pub fn new(
        dir: impl AsRef<Path>,
        dataset: &str,
        grid: Grid3,
        fields: &[(&str, u8)],
        config: ClusterConfig,
    ) -> StorageResult<Self> {
        config
            .validate(grid.dims())
            .map_err(StorageError::internal)?;
        let layout = Arc::new(Layout::with_replication(
            grid.dims(),
            config.chunk_atoms,
            config.num_nodes,
            config.replication.k,
            config.replication.placement,
        ));
        let mut registry = DeviceRegistry::new();
        let lan = registry.register(DeviceProfile::lan());
        let wan = registry.register(DeviceProfile::user_wan());
        // spare hardware for future join_node calls is racked now, after
        // the nodes': the device registry is frozen once the cluster runs
        let mut racks: Vec<NodeDevices> = (0..config.num_nodes + config.replication.spare_nodes)
            .map(|_| NodeDevices {
                arrays: (0..config.arrays_per_node)
                    .map(|_| registry.register(DeviceProfile::hdd_array()))
                    .collect(),
                ssd: registry.register(DeviceProfile::ssd()),
                controller: registry.register(DeviceProfile::node_controller()),
            })
            .collect();
        let spares = racks.split_off(config.num_nodes);
        let env = Arc::new(ClusterEnv {
            scheme: DiffScheme::new(&grid, config.fd_order),
            config,
            grid,
            registry,
            lan,
            wan,
            maxima: OnceLock::new(),
        });
        let dir = dir.as_ref().to_path_buf();
        let fields: Vec<(String, u8)> = fields
            .iter()
            .map(|&(name, ncomp)| (name.to_string(), ncomp))
            .collect();
        let nodes = racks
            .into_iter()
            .enumerate()
            .map(|(node, devices)| {
                let node_dir = dir.join(format!("node{node}"));
                let builders =
                    table_builders(&env, &layout, node, &node_dir, &fields, &devices.arrays)?;
                Ok((devices, builders))
            })
            .collect::<StorageResult<_>>()?;
        Ok(Self {
            env,
            dataset: dataset.to_string(),
            layout,
            nodes,
            spares,
            fields,
            timesteps: Vec::new(),
            dir,
        })
    }

    /// Ingests one field of one time-step. `extract(atom)` returns the
    /// atom's payload (`ncomp × 512` values, component-major). With
    /// replication every node stores all `k` chains it belongs to, so an
    /// atom is ingested once per replica.
    pub fn ingest_timestep(
        &mut self,
        timestep: u32,
        field: &str,
        ncomp: u8,
        extract: impl Fn(AtomCoord) -> Vec<f32> + Sync,
    ) -> StorageResult<()> {
        if !self.timesteps.contains(&timestep) {
            self.timesteps.push(timestep);
        }
        for (node, (_, builders)) in self.nodes.iter_mut().enumerate() {
            let zones = self.layout.stored_zranges_of_node(node);
            let mut records = Vec::new();
            for zr in zones {
                for code in zr.start..=zr.end {
                    let atom = AtomCoord::from_zindex(code);
                    let rec = AtomRecord::new(AtomKey::new(timestep, code), ncomp, extract(atom))?;
                    records.push(rec);
                }
            }
            builders
                .iter_mut()
                .find(|(name, _)| name == field)
                .ok_or_else(|| StorageError::internal(format!("unknown field {field}")))?
                .1
                .append_timestep(timestep, records)?;
        }
        Ok(())
    }

    /// Seals the tables, brings the node runtimes up and computes the
    /// per-octant maxima, which leaves the buffer pools empty: the first
    /// query starts cold.
    pub fn finish(self) -> StorageResult<Cluster> {
        let mut next_file_id = 0u64;
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for (id, (devices, builders)) in self.nodes.into_iter().enumerate() {
            let node = start_node(&self.env, id, builders, devices, &mut next_file_id)?;
            nodes.push(Some(Arc::new(node)));
        }
        let cluster = Cluster {
            env: self.env,
            dataset: self.dataset,
            topology: RwLock::new(Arc::new(Topology::new(self.layout, nodes, 0))),
            fields: self.fields,
            timesteps: self.timesteps,
            rebalance: Mutex::new(RebalanceState {
                spares: self.spares,
                next_file_id,
            }),
            dir: self.dir,
        };
        let maxima = cluster.compute_atom_maxima();
        // a freshly built environment: nothing else sets it
        let _ = cluster.env.maxima.set(maxima);
        Ok(cluster)
    }
}

/// Splits a node's merged z-ranges into `k` contiguous pieces of roughly
/// equal atom count — one partition file per disk array.
fn split_zones(zones: &[ZRange], k: usize) -> Vec<ZRange> {
    let total: u64 = zones.iter().map(ZRange::len).sum();
    let k = (k as u64).min(total).max(1);
    let per = total.div_ceil(k);
    let mut out = Vec::new();
    for z in zones {
        let mut start = z.start;
        while start <= z.end {
            let end = (start + per - 1).min(z.end);
            out.push(ZRange::new(start, end));
            if end == z.end {
                break;
            }
            start = end + 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_zones_is_contiguous_and_complete() {
        let zones = vec![ZRange::new(0, 99)];
        let parts = split_zones(&zones, 4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0].start, 0);
        assert_eq!(parts.last().unwrap().end, 99);
        let total: u64 = parts.iter().map(ZRange::len).sum();
        assert_eq!(total, 100);
        for w in parts.windows(2) {
            assert_eq!(w[0].end + 1, w[1].start);
        }
    }

    #[test]
    fn split_zones_handles_more_parts_than_atoms() {
        let zones = vec![ZRange::new(0, 1)];
        let parts = split_zones(&zones, 8);
        assert_eq!(parts.len(), 2);
    }
}
