//! The Web-server / mediator and cluster assembly.
//!
//! "Each request is broken down into multiple parts based on the spatial
//! layout of the data. Each part is asynchronously submitted for
//! evaluation to the database which stores the data needed ... The
//! Web-server assembles the results from the distributed computation and
//! sends them back to the client." (paper §2)

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use tdb_cache::{CacheStats, ThresholdPoint};
use tdb_field::{Grid3, Histogram, VectorField};
use tdb_kernels::{DerivedField, DiffScheme};
use tdb_obs::{QueryTrace, TraceSpan};
use tdb_storage::device::{DeviceId, DeviceProfile, DeviceRegistry, IoSession};
use tdb_storage::{AtomKey, AtomRecord, BlockCache, StorageError, StorageResult, TableBuilder};
use tdb_zorder::{AtomCoord, Box3, ZRange};

use crate::config::ClusterConfig;
use crate::node::{NodeResult, NodeRuntime, QueryMode};
use crate::placement::{Chunk, Layout};
use crate::scan::{
    self, select_topk, topk_order, ScanAssignment, ScanKernel, ScanParticipant, SharedOutcome,
    SharedScanRequest,
};
use crate::scheduler::ScanScheduler;
use crate::sim::NodeTimeModel;
use crate::timing::TimeBreakdown;
use crate::wire;

/// A threshold query as the mediator receives it.
#[derive(Debug, Clone)]
pub struct ThresholdRequest {
    pub raw_field: String,
    pub derived: DerivedField,
    pub timestep: u32,
    pub query_box: Box3,
    pub threshold: f64,
    pub use_cache: bool,
    pub mode: QueryMode,
    /// Worker processes per node; defaults to the cluster configuration.
    pub procs_override: Option<usize>,
    /// Fail-fast mode: a node failure or deadline violation that leaves
    /// part of the query box unanswered fails the query instead of
    /// degrading it.
    pub strict: bool,
    /// Per-node modelled-time deadline, seconds. A node whose modelled
    /// time (cache lookup + I/O + compute) exceeds it is treated as
    /// failed: its chunks move to their next replica, and those with none
    /// left degrade the answer (or fail it under [`Self::strict`]).
    pub node_deadline_s: Option<f64>,
}

/// One node that could not contribute to a degraded answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedNode {
    pub node: usize,
    pub reason: String,
}

/// What a degraded (partial) answer is missing: which nodes failed and
/// exactly which sub-boxes of the query box their absence leaves
/// unanswered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedInfo {
    pub failed_nodes: Vec<FailedNode>,
    pub missing_boxes: Vec<Box3>,
}

/// Assembled answer of a threshold query.
#[derive(Debug)]
pub struct ThresholdResponse {
    pub points: Vec<ThresholdPoint>,
    pub breakdown: TimeBreakdown,
    /// How many nodes answered from their cache.
    pub cache_hits: usize,
    pub nodes: usize,
    /// Real wall-clock of the in-process evaluation.
    pub wall_s: f64,
    /// Per-surviving-node closed-form time models (zero for cache hits),
    /// letting callers evaluate `t(p)` at any process count deterministically.
    pub node_models: Vec<NodeTimeModel>,
    /// Span tree of the query's phases and per-node work.
    pub trace: Option<QueryTrace>,
    /// `Some` when one or more nodes failed and the answer is partial.
    pub degraded: Option<DegradedInfo>,
}

/// One query of a multi-query batch evaluated against shared scans.
#[derive(Debug, Clone)]
pub enum BatchQuery {
    Threshold(ThresholdRequest),
    Pdf {
        req: ThresholdRequest,
        origin: f64,
        width: f64,
        nbins: usize,
    },
    TopK {
        req: ThresholdRequest,
        k: usize,
    },
}

impl BatchQuery {
    /// The underlying threshold-shaped request.
    pub fn request(&self) -> &ThresholdRequest {
        match self {
            BatchQuery::Threshold(r) => r,
            BatchQuery::Pdf { req, .. } | BatchQuery::TopK { req, .. } => req,
        }
    }

    fn participant(&self) -> ScanParticipant {
        match self {
            BatchQuery::Threshold(r) => ScanParticipant {
                query_box: r.query_box,
                kernel: ScanKernel::Threshold {
                    threshold: r.threshold,
                },
                use_cache: r.use_cache,
            },
            BatchQuery::Pdf {
                req,
                origin,
                width,
                nbins,
            } => ScanParticipant {
                query_box: req.query_box,
                kernel: ScanKernel::Pdf {
                    origin: *origin,
                    width: *width,
                    nbins: *nbins,
                },
                use_cache: req.use_cache,
            },
            BatchQuery::TopK { req, .. } => ScanParticipant {
                query_box: req.query_box,
                kernel: ScanKernel::TopK,
                use_cache: false,
            },
        }
    }
}

/// The per-kind answer of a [`BatchQuery`].
#[derive(Debug)]
pub enum BatchAnswer {
    Threshold(ThresholdResponse),
    Pdf(PdfResponse),
    TopK(TopKResponse),
}

/// Everything that must agree for two queries to share one atom scan.
/// The threshold value, query box and kernel are per-participant; the
/// degradation policy (strict / deadline) is part of the key so a group
/// is filtered uniformly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ScanGroupKey {
    raw_field: String,
    derived: DerivedField,
    timestep: u32,
    full_mode: bool,
    procs_override: Option<usize>,
    strict: bool,
    deadline_bits: Option<u64>,
}

impl ScanGroupKey {
    pub(crate) fn of(req: &ThresholdRequest) -> Self {
        Self {
            raw_field: req.raw_field.clone(),
            derived: req.derived,
            timestep: req.timestep,
            full_mode: req.mode == QueryMode::Full,
            procs_override: req.procs_override,
            strict: req.strict,
            deadline_bits: req.node_deadline_s.map(f64::to_bits),
        }
    }
}

/// Assembled answer of a PDF query.
#[derive(Debug)]
pub struct PdfResponse {
    pub histogram: Histogram,
    pub breakdown: TimeBreakdown,
    pub wall_s: f64,
    pub trace: Option<QueryTrace>,
    /// `Some` when one or more nodes failed and the answer is partial.
    pub degraded: Option<DegradedInfo>,
}

/// Assembled answer of a top-k query.
#[derive(Debug)]
pub struct TopKResponse {
    pub points: Vec<ThresholdPoint>,
    pub breakdown: TimeBreakdown,
    pub wall_s: f64,
    pub trace: Option<QueryTrace>,
    /// `Some` when one or more nodes failed and the answer is partial.
    pub degraded: Option<DegradedInfo>,
}

/// The devices racked for one node: its disk arrays, semantic-cache SSD
/// and I/O controller. Kept after build so rebalancing can rebuild a
/// node's tables against the same simulated hardware.
#[derive(Debug, Clone)]
pub(crate) struct NodeDevices {
    pub arrays: Vec<DeviceId>,
    pub ssd: DeviceId,
    pub controller: DeviceId,
}

/// Mutable cluster-membership state, serialized under one lock so joins
/// and leaves cannot interleave.
pub(crate) struct RebalanceState {
    /// Devices of every node id ever racked (index = node id).
    pub node_devices: Vec<NodeDevices>,
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
}

impl Topology {
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

/// Builds a cluster: devices, placement, and bulk-loaded tables.
pub struct ClusterBuilder {
    config: ClusterConfig,
    dataset: String,
    grid: Arc<Grid3>,
    layout: Arc<Layout>,
    registry: DeviceRegistry,
    lan: DeviceId,
    wan: DeviceId,
    node_devices: Vec<NodeDevices>,
    spares: Vec<NodeDevices>,
    builders: Vec<HashMap<String, TableBuilder>>,
    pools: Vec<Arc<BlockCache>>,
    fields: Vec<(String, u8)>,
    timesteps: Vec<u32>,
    dir: PathBuf,
}

impl ClusterBuilder {
    /// Prepares storage for `fields` (`(name, ncomp)`) under `dir`.
    pub fn new(
        dir: impl AsRef<Path>,
        dataset: &str,
        grid: Grid3,
        fields: &[(&str, u8)],
        config: ClusterConfig,
    ) -> StorageResult<Self> {
        config.validate(grid.dims());
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
        let rack = |registry: &mut DeviceRegistry| NodeDevices {
            arrays: (0..config.arrays_per_node)
                .map(|_| registry.register(DeviceProfile::hdd_array()))
                .collect(),
            ssd: registry.register(DeviceProfile::ssd()),
            controller: registry.register(DeviceProfile::node_controller()),
        };
        let dir = dir.as_ref().to_path_buf();
        let mut builders: Vec<HashMap<String, TableBuilder>> = Vec::with_capacity(config.num_nodes);
        let mut pools = Vec::with_capacity(config.num_nodes);
        let mut node_devices = Vec::with_capacity(config.num_nodes);
        for node in 0..config.num_nodes {
            let devices = rack(&mut registry);
            let zones = split_zones(&layout.stored_zranges_of_node(node), config.arrays_per_node);
            let node_dir = dir.join(format!("node{node}"));
            let mut per_field = HashMap::new();
            for &(name, ncomp) in fields {
                per_field.insert(
                    name.to_string(),
                    TableBuilder::new(
                        &node_dir,
                        name,
                        ncomp,
                        zones.clone(),
                        &devices.arrays,
                        config.compression,
                    )?,
                );
            }
            node_devices.push(devices);
            builders.push(per_field);
            pools.push(Arc::new(BlockCache::with_faults(
                config.bufferpool_bytes,
                config.faults.clone(),
            )));
        }
        // spare hardware for future join_node calls is racked now: the
        // device registry is frozen once the cluster is running
        let spares = (0..config.replication.spare_nodes)
            .map(|_| rack(&mut registry))
            .collect();
        Ok(Self {
            config,
            dataset: dataset.to_string(),
            grid: Arc::new(grid),
            layout,
            registry,
            lan,
            wan,
            node_devices,
            spares,
            builders,
            pools,
            fields: fields
                .iter()
                .map(|&(name, ncomp)| (name.to_string(), ncomp))
                .collect(),
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
        for (node, per_field) in self.builders.iter_mut().enumerate() {
            let zones = self.layout.stored_zranges_of_node(node);
            let mut records = Vec::new();
            for zr in zones {
                for code in zr.start..=zr.end {
                    let atom = AtomCoord::from_zindex(code);
                    let rec = AtomRecord::new(AtomKey::new(timestep, code), ncomp, extract(atom))?;
                    records.push(rec);
                }
            }
            per_field
                .get_mut(field)
                .ok_or_else(|| StorageError::internal(format!("unknown field {field}")))?
                .append_timestep(timestep, records)?;
        }
        Ok(())
    }

    /// Seals the tables and brings the node runtimes up.
    pub fn finish(self) -> StorageResult<Cluster> {
        let registry = Arc::new(self.registry);
        let scheme = Arc::new(DiffScheme::new(&self.grid, self.config.fd_order));
        let mut nodes = Vec::with_capacity(self.config.num_nodes);
        let mut file_id = 0u64;
        for (node, ((per_field, pool), devices)) in self
            .builders
            .into_iter()
            .zip(&self.pools)
            .zip(&self.node_devices)
            .enumerate()
        {
            let mut tables = HashMap::new();
            for (name, builder) in per_field {
                let table = builder.finish(Arc::clone(pool), file_id)?;
                file_id += 1024;
                tables.insert(name, table);
            }
            nodes.push(Some(Arc::new(NodeRuntime::new(
                node,
                tables,
                Arc::clone(pool),
                devices.ssd,
                devices.controller,
                self.config.compute_scale,
                self.config.synthetic_compute_s_per_point,
                self.config.cache_budget_bytes,
                Arc::clone(&self.grid),
                Arc::clone(&scheme),
                Arc::clone(&registry),
                self.lan,
                self.config.faults.clone(),
            ))));
        }
        let scheduler = self.config.coalesce.map(ScanScheduler::new);
        let array_racks = self
            .node_devices
            .iter()
            .chain(&self.spares)
            .map(|rack| rack.arrays.clone())
            .collect();
        Ok(Cluster {
            config: self.config,
            dataset: self.dataset,
            grid: self.grid,
            registry,
            array_racks,
            scheme,
            lan: self.lan,
            wan: self.wan,
            topology: RwLock::new(Arc::new(Topology {
                layout: self.layout,
                nodes,
                epoch: 0,
            })),
            fields: self.fields,
            timesteps: self.timesteps,
            rebalance: Mutex::new(RebalanceState {
                node_devices: self.node_devices,
                spares: self.spares,
                next_file_id: file_id,
            }),
            scheduler,
            dir: self.dir,
        })
    }
}

/// Splits a node's merged z-ranges into `k` contiguous pieces of roughly
/// equal atom count — one partition file per disk array.
pub(crate) fn split_zones(zones: &[ZRange], k: usize) -> Vec<ZRange> {
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

/// One node's share of a scatter wave: which chunks it was asked to scan
/// and what came back. `chunk_idxs` (indices into `Layout::chunks`) are
/// kept so a failed node orphans exactly its own assignment — including
/// failover chunks it inherited in a previous round — and nothing else.
struct WaveEntry {
    node: usize,
    chunk_idxs: Vec<usize>,
    result: StorageResult<Vec<SharedOutcome>>,
}

/// The running cluster: mediator entry points.
pub struct Cluster {
    pub(crate) config: ClusterConfig,
    pub(crate) dataset: String,
    pub(crate) grid: Arc<Grid3>,
    pub(crate) registry: Arc<DeviceRegistry>,
    /// The disk arrays of every rack, spares included (the registry is
    /// frozen at build, so a node that joins later drives one of these).
    array_racks: Vec<Vec<DeviceId>>,
    pub(crate) scheme: Arc<DiffScheme>,
    pub(crate) lan: DeviceId,
    pub(crate) wan: DeviceId,
    /// The current topology generation. Queries snapshot the `Arc` once
    /// and never observe a half-installed join/leave.
    pub(crate) topology: RwLock<Arc<Topology>>,
    /// `(name, ncomp)` of every stored field — needed to rebuild tables
    /// when nodes join or leave.
    pub(crate) fields: Vec<(String, u8)>,
    /// Every ingested time-step, in ingest order.
    pub(crate) timesteps: Vec<u32>,
    /// Membership-change state; the lock serializes joins/leaves.
    pub(crate) rebalance: Mutex<RebalanceState>,
    /// `Some` when [`ClusterConfig::coalesce`] is set: queries route
    /// through the scan scheduler and may share atom scans.
    scheduler: Option<ScanScheduler>,
    pub(crate) dir: PathBuf,
}

impl Cluster {
    /// Cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Dataset name.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// Grid geometry.
    pub fn grid(&self) -> &Grid3 {
        &self.grid
    }

    /// The current topology snapshot.
    pub(crate) fn topology_snapshot(&self) -> Arc<Topology> {
        Arc::clone(&self.topology.read())
    }

    /// The current placement map (a snapshot: joins/leaves replace it).
    pub fn layout(&self) -> Arc<Layout> {
        Arc::clone(&self.topology.read().layout)
    }

    /// Current topology generation (bumped per join/leave).
    pub fn epoch(&self) -> u64 {
        self.topology.read().epoch
    }

    /// Device registry (for custom time modelling in benches).
    pub fn registry(&self) -> &DeviceRegistry {
        &self.registry
    }

    /// The live node runtimes (departed nodes are skipped).
    pub fn nodes(&self) -> Vec<Arc<NodeRuntime>> {
        self.topology
            .read()
            .nodes
            .iter()
            .flatten()
            .map(Arc::clone)
            .collect()
    }

    /// Ids of the live nodes, ascending.
    pub fn live_node_ids(&self) -> Vec<usize> {
        self.topology.read().live().map(|(id, _)| id).collect()
    }

    /// The cluster-wide I/O phase: nodes run in parallel, so the phase is
    /// the busiest node's serial disk schedule divided by its processes —
    /// but never less than any single device's total service time (devices
    /// serve *all* nodes' requests: a peer fetching halo atoms still
    /// occupies the owner's arrays and controller).
    ///
    /// A node's serial schedule is what *its own arrays* served, whoever
    /// asked: a block two nodes both need is read once, by whichever
    /// worker reaches it first, and which one that is varies from run to
    /// run. Charging the read to the node whose disk did it makes the
    /// phase a function of the set of blocks read, not of thread timing.
    /// Injected stalls block a process wherever it runs and ride on top.
    fn cluster_io_ref(&self, results: &[&NodeResult], procs: usize) -> f64 {
        let cold: Vec<&&NodeResult> = results.iter().filter(|r| !r.cache_hit).collect();
        if cold.is_empty() {
            return 0.0;
        }
        let mut merged = IoSession::new();
        for r in &cold {
            merged.merge(&r.session);
        }
        let served = |dev: &DeviceId| {
            let a = merged.access(*dev);
            self.registry.profile(*dev).time(a.ops, a.bytes)
        };
        let max_serial = self
            .array_racks
            .iter()
            .map(|arrays| arrays.iter().map(served).sum::<f64>())
            .fold(0.0f64, f64::max)
            + merged.injected_delay_s;
        let global_floor = merged.makespan(&self.registry);
        (max_serial / procs.max(1) as f64).max(global_floor)
    }

    /// Builds the span tree of a finished query. Phase spans carry the
    /// final breakdown's durations verbatim (so the trace is always
    /// consistent with the reported [`TimeBreakdown`]); per-node child
    /// spans under `phase.io` carry the measured detail — cache outcome,
    /// atoms scanned, buffer-pool hits/misses, bytes charged per device.
    #[allow(clippy::too_many_arguments)]
    fn build_trace(
        &self,
        kind: &str,
        results: &[&NodeResult],
        node_ids: &[usize],
        node_points: &[u64],
        breakdown: &TimeBreakdown,
        points_returned: u64,
        wall_s: f64,
        degraded: Option<&DegradedInfo>,
    ) -> QueryTrace {
        let mut root = TraceSpan::new(format!("query.{kind}"), 0.0, breakdown.total_s())
            .with_attr("points", points_returned)
            .with_attr("nodes", results.len() as u64)
            .with_attr("wall_s", wall_s);
        if let Some(d) = degraded {
            root.set_attr("degraded", "true");
            let mut span = TraceSpan::new("phase.degraded", 0.0, 0.0)
                .with_attr("failed_nodes", d.failed_nodes.len() as u64)
                .with_attr("missing_boxes", d.missing_boxes.len() as u64);
            for f in &d.failed_nodes {
                span.push_child(
                    TraceSpan::new(format!("failed.node.{}", f.node), 0.0, 0.0)
                        .with_attr("reason", f.reason.as_str()),
                );
            }
            root.push_child(span);
        }
        let mut t = 0.0;
        root.push_child(TraceSpan::new(
            "phase.cache_lookup",
            t,
            breakdown.cache_lookup_s,
        ));
        t += breakdown.cache_lookup_s;
        let mut io = TraceSpan::new("phase.io", t, breakdown.io_s);
        for ((r, id), points) in results.iter().zip(node_ids).zip(node_points) {
            let mut node = TraceSpan::new(format!("node.{id}"), t, r.io_s)
                .with_attr("cache", if r.cache_hit { "hit" } else { "miss" })
                .with_attr("atoms_scanned", r.atoms_scanned)
                .with_attr("points", *points)
                .with_attr("pool_hits", r.session.pool_hits)
                .with_attr("pool_misses", r.session.pool_misses)
                .with_attr("cache_lookup_s", r.cache_lookup_s)
                .with_attr("compute_s", r.compute_s)
                .with_attr("node_wall_s", r.wall_s);
            // several devices can share a profile name (a node has many
            // identical disk arrays), so aggregate bytes per name
            let mut by_device: BTreeMap<String, u64> = BTreeMap::new();
            for (dev, a) in r.session.devices() {
                *by_device
                    .entry(format!("bytes.{}", self.registry.profile(dev).name))
                    .or_default() += a.bytes;
            }
            for (key, bytes) in by_device {
                node.set_attr(key, bytes);
            }
            io.push_child(node);
        }
        root.push_child(io);
        t += breakdown.io_s;
        root.push_child(TraceSpan::new("phase.compute", t, breakdown.compute_s));
        t += breakdown.compute_s;
        root.push_child(TraceSpan::new(
            "phase.mediator_db",
            t,
            breakdown.mediator_db_s,
        ));
        t += breakdown.mediator_db_s;
        root.push_child(TraceSpan::new(
            "phase.mediator_user",
            t,
            breakdown.mediator_user_s,
        ));
        QueryTrace::new(root)
    }

    /// Routes one query through the scan scheduler when coalescing is
    /// configured, or runs it as a batch of one, and unwraps the answer
    /// variant of its kind.
    fn submit<T>(
        &self,
        query: BatchQuery,
        pick: impl FnOnce(BatchAnswer) -> Option<T>,
    ) -> StorageResult<T> {
        let answer = match &self.scheduler {
            Some(s) => s.submit(self, query),
            None => self
                .run_batch(vec![query])
                .pop()
                .unwrap_or_else(|| Err(StorageError::internal("batch of one produced no answer"))),
        };
        of_kind(answer, pick)
    }

    /// Evaluates a threshold query: scatter to nodes, gather, assemble.
    /// Node outages (and deadline violations) degrade the answer instead
    /// of failing it unless [`ThresholdRequest::strict`] is set.
    pub fn get_threshold(&self, req: &ThresholdRequest) -> StorageResult<ThresholdResponse> {
        self.submit(BatchQuery::Threshold(req.clone()), threshold_answer)
    }

    /// Evaluates a PDF query over the same scan machinery (paper Fig. 2).
    pub fn get_pdf(
        &self,
        req: &ThresholdRequest,
        origin: f64,
        width: f64,
        nbins: usize,
    ) -> StorageResult<PdfResponse> {
        let query = BatchQuery::Pdf {
            req: req.clone(),
            origin,
            width,
            nbins,
        };
        self.submit(query, |a| match a {
            BatchAnswer::Pdf(r) => Some(r),
            _ => None,
        })
    }

    /// Evaluates a top-k query (no caching: results are tiny but the scan
    /// is the same as a threshold query).
    pub fn get_topk(&self, req: &ThresholdRequest, k: usize) -> StorageResult<TopKResponse> {
        let req = req.clone();
        self.submit(BatchQuery::TopK { req, k }, |a| match a {
            BatchAnswer::TopK(r) => Some(r),
            _ => None,
        })
    }

    /// Evaluates many threshold queries as one batch: queries over the
    /// same scan key share atom scans (each atom decoded once per group
    /// instead of once per query), with byte-identical results.
    pub fn get_threshold_batch(
        &self,
        reqs: &[ThresholdRequest],
    ) -> Vec<StorageResult<ThresholdResponse>> {
        self.run_batch(reqs.iter().cloned().map(BatchQuery::Threshold).collect())
            .into_iter()
            .map(|answer| of_kind(answer, threshold_answer))
            .collect()
    }

    /// Evaluates a set of queries, sharing one atom scan per
    /// [`ScanGroupKey`] group. Answers are positionally aligned with the
    /// input; a per-node failure inside a group is fanned out to every
    /// query of that group (and degraded per query by the usual policy).
    pub fn run_batch(&self, queries: Vec<BatchQuery>) -> Vec<StorageResult<BatchAnswer>> {
        let wall = std::time::Instant::now();
        let mut answers: Vec<Option<StorageResult<BatchAnswer>>> =
            queries.iter().map(|_| None).collect();
        let mut groups: Vec<(ScanGroupKey, Vec<usize>)> = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            let key = ScanGroupKey::of(q.request());
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((key, vec![i])),
            }
        }
        for (_, idxs) in &groups {
            self.run_group(&queries, idxs, &mut answers, wall);
        }
        answers
            .into_iter()
            .map(|a| {
                a.unwrap_or_else(|| {
                    Err(StorageError::internal("query was never assigned an answer"))
                })
            })
            .collect()
    }

    /// Runs one shared-scan group: scatter a [`SharedScanRequest`] over
    /// one topology snapshot, then assemble each participant's answer.
    ///
    /// One degradation policy at every replication factor: chunks of an
    /// unavailable (or deadline-blown) node are re-scattered to the next
    /// live replica in their chains, round by round, until every chunk is
    /// answered or its chain is exhausted. A successful failover leaves
    /// the answer *complete* — no [`DegradedInfo`] — and byte-identical to
    /// an unfaulted run; a chunk whose whole chain died (at `k = 1`, any
    /// chunk of a failed node) degrades — or fails, under `strict` —
    /// exactly the queries whose box it intersects. Any other node error
    /// fails the group: partial data is only acceptable for
    /// *unavailability*, never for corruption.
    fn run_group(
        &self,
        queries: &[BatchQuery],
        idxs: &[usize],
        answers: &mut [Option<StorageResult<BatchAnswer>>],
        wall: std::time::Instant,
    ) {
        let Some(first) = idxs
            .first()
            .and_then(|&i| queries.get(i))
            .map(BatchQuery::request)
        else {
            return;
        };
        let procs = first.procs_override.unwrap_or(self.config.procs_per_node);
        let topo = self.topology_snapshot();
        let layout = Arc::clone(&topo.layout);
        let live = topo.live_count();
        let deadline = first.node_deadline_s;
        let participants: Vec<ScanParticipant> = idxs
            .iter()
            .filter_map(|&i| queries.get(i))
            .map(BatchQuery::participant)
            .collect();
        let modelled_time =
            |o: &SharedOutcome| o.result.cache_lookup_s + o.result.io_s + o.result.compute_s;
        // one scatter wave: targeted nodes evaluate their assigned chunks
        // in parallel against the snapshot
        let scatter = |targets: &[(usize, Vec<usize>)], canonical: bool| -> Vec<WaveEntry> {
            let mut chunks: Vec<Vec<Chunk>> = vec![Vec::new(); topo.nodes.len()];
            for (node, cidxs) in targets {
                let assigned = cidxs
                    .iter()
                    .filter_map(|&c| layout.chunks().get(c).copied())
                    .collect();
                if let Some(slot) = chunks.get_mut(*node) {
                    *slot = assigned;
                }
            }
            let assignment = Arc::new(ScanAssignment {
                layout: Arc::clone(&layout),
                chunks,
                canonical,
            });
            let req = SharedScanRequest {
                dataset: self.dataset.clone(),
                raw_field: first.raw_field.clone(),
                derived: first.derived,
                timestep: first.timestep,
                mode: first.mode,
                procs,
                participants: participants.clone(),
                assignment,
            };
            std::thread::scope(|scope| {
                let handles: Vec<_> = targets
                    .iter()
                    .map(|(node, _)| {
                        let req = &req;
                        let peers = &topo.nodes;
                        let node = *node;
                        let runtime = peers.get(node).and_then(Option::as_ref).map(Arc::clone);
                        scope.spawn(move || match runtime {
                            Some(runtime) => runtime.evaluate_shared(peers, req),
                            None => Err(StorageError::NodeUnavailable {
                                node,
                                detail: "scatter target is not a live member".into(),
                            }),
                        })
                    })
                    .collect();
                targets
                    .iter()
                    .zip(handles)
                    .map(|((node, cidxs), h)| WaveEntry {
                        node: *node,
                        chunk_idxs: cidxs.clone(),
                        result: h.join().unwrap_or_else(|_| {
                            Err(StorageError::internal("node evaluation thread panicked"))
                        }),
                    })
                    .collect()
            })
        };
        // wave 0: the canonical assignment over every live node. Entries
        // land in `done` in wave order (node-id order within a wave).
        let initial: Vec<(usize, Vec<usize>)> = topo
            .live()
            .map(|(id, _)| (id, layout.chunk_indices_of_node(id)))
            .collect();
        let mut wave = scatter(&initial, true);
        let mut done: Vec<(usize, std::vec::IntoIter<SharedOutcome>)> = Vec::new();
        let mut excluded: HashSet<usize> = HashSet::new();
        let mut failed_nodes: Vec<FailedNode> = Vec::new();
        let mut lost_chunks: Vec<usize> = Vec::new();
        let mut fatal: Option<StorageError> = None;
        let mut rounds = 0u64;
        loop {
            let mut orphans: Vec<usize> = Vec::new();
            for e in wave.drain(..) {
                let reason = match e.result {
                    Ok(outs) => {
                        // a deadline violation is handled like an outage:
                        // the node's chunks move on
                        let t = outs.iter().map(&modelled_time).fold(0.0f64, f64::max);
                        match deadline {
                            Some(d) if t > d => {
                                tdb_obs::add("node.deadline_exceeded", 1);
                                format!("deadline exceeded: modelled {t:.3}s > {d:.3}s")
                            }
                            _ => {
                                done.push((e.node, outs.into_iter()));
                                continue;
                            }
                        }
                    }
                    Err(err) if err.is_unavailable() => err.to_string(),
                    // corruption is never papered over by replicas
                    Err(err) => {
                        fatal.get_or_insert(err);
                        continue;
                    }
                };
                excluded.insert(e.node);
                failed_nodes.push(FailedNode {
                    node: e.node,
                    reason,
                });
                orphans.extend(e.chunk_idxs);
            }
            if fatal.is_some() || orphans.is_empty() {
                break;
            }
            orphans.sort_unstable();
            orphans.dedup();
            // a one-element chain has no replacement: single-copy clusters
            // take this loop with zero re-scatter rounds
            let mut retargets: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for c in orphans {
                let replacement = layout.replicas_of_chunk(c).iter().copied().find(|r| {
                    !excluded.contains(r) && topo.nodes.get(*r).is_some_and(Option::is_some)
                });
                match replacement {
                    Some(r) => retargets.entry(r).or_default().push(c),
                    None => lost_chunks.push(c),
                }
            }
            if retargets.is_empty() {
                break;
            }
            rounds += 1;
            let moved: u64 = retargets.values().map(|v| v.len() as u64).sum();
            tdb_obs::add("replication.failover.chunks", moved);
            let targets: Vec<(usize, Vec<usize>)> = retargets.into_iter().collect();
            wave = scatter(&targets, false);
        }
        if rounds > 0 {
            tdb_obs::add("replication.failover.rounds", rounds);
            tdb_obs::add("replication.failover.nodes", failed_nodes.len() as u64);
        }
        if !lost_chunks.is_empty() {
            tdb_obs::add("replication.lost_chunks", lost_chunks.len() as u64);
        }
        let node_ids: Vec<usize> = done.iter().map(|(node, _)| *node).collect();
        for &qi in idxs {
            // every node answers the participants in the order they were sent
            let results: Option<Vec<SharedOutcome>> =
                done.iter_mut().map(|(_, outs)| outs.next()).collect();
            let Some((query, slot)) = queries.get(qi).zip(answers.get_mut(qi)) else {
                continue;
            };
            let req = query.request();
            let missing: Vec<Box3> = lost_chunks
                .iter()
                .filter_map(|&c| layout.chunks().get(c))
                .filter_map(|chunk| chunk.grid_box().intersect(&req.query_box))
                .collect();
            *slot = Some(if let Some(err) = &fatal {
                Err(err.clone())
            } else if !missing.is_empty() && req.strict {
                Err(StorageError::NodeUnavailable {
                    node: failed_nodes.first().map_or(0, |f| f.node),
                    detail: "replica chains exhausted for part of the query box".to_string(),
                })
            } else {
                let degraded = (!missing.is_empty()).then(|| {
                    tdb_obs::add("query.degraded", 1);
                    DegradedInfo {
                        failed_nodes: failed_nodes.clone(),
                        missing_boxes: missing,
                    }
                });
                results
                    .map(|r| self.assemble(query, r, &node_ids, degraded, procs, live, wall))
                    .ok_or_else(|| StorageError::internal("a node answered too few participants"))
            });
        }
    }

    /// Merges one query's per-node outcomes into its answer. Only the
    /// merge of the payloads differs by kind; the time breakdown, wall
    /// clock and span tree are computed one way for all of them.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        &self,
        query: &BatchQuery,
        mut results: Vec<SharedOutcome>,
        node_ids: &[usize],
        degraded: Option<DegradedInfo>,
        procs: usize,
        nnodes: usize,
        wall: std::time::Instant,
    ) -> BatchAnswer {
        // run by each kind once its payload is merged: `n` points came
        // back, `node_points[i]` of them from the i-th node, or a histogram
        // of `bins` bins did
        let finish = |kind: &str,
                      results: &[SharedOutcome],
                      node_points: &[u64],
                      n: u64,
                      bins: Option<usize>| {
            let node_results: Vec<&NodeResult> = results.iter().map(|o| &o.result).collect();
            let mut breakdown = TimeBreakdown::default();
            for r in &node_results {
                breakdown = breakdown.max_merge(&r.breakdown());
            }
            breakdown.io_s = self.cluster_io_ref(&node_results, procs);
            // the answer crosses the LAN in binary rows, the WAN as XML
            let (db_bytes, user_bytes) = match bins {
                Some(bins) => ((bins as u64 + 1) * 16, (bins as u64 + 1) * 64),
                None => (wire::binary_result_bytes(n), wire::xml_result_bytes(n)),
            };
            breakdown.mediator_db_s = self
                .registry
                .profile(self.lan)
                .time(2 * nnodes as u64, db_bytes);
            breakdown.mediator_user_s = self.registry.profile(self.wan).time(2, user_bytes);
            let wall_s = wall.elapsed().as_secs_f64();
            let trace = self.build_trace(
                kind,
                &node_results,
                node_ids,
                node_points,
                &breakdown,
                n,
                wall_s,
                degraded.as_ref(),
            );
            (breakdown, wall_s, Some(trace))
        };
        let mut points = Vec::new();
        let mut node_points = vec![0u64; results.len()];
        match query {
            BatchQuery::Threshold(_) => {
                let cache_hits = results.iter().filter(|o| o.result.cache_hit).count();
                let node_models = results.iter().map(|o| o.result.model).collect();
                for (o, n) in results.iter_mut().zip(&mut node_points) {
                    *n = o.result.points.len() as u64;
                    points.append(&mut o.result.points);
                }
                points.sort_unstable_by_key(|p| p.zindex);
                let n = points.len() as u64;
                let (breakdown, wall_s, trace) =
                    finish("threshold", &results, &node_points, n, None);
                tdb_obs::add("query.threshold.count", 1);
                tdb_obs::add("query.points_returned", n);
                tdb_obs::observe("query.threshold.wall_s", wall_s);
                BatchAnswer::Threshold(ThresholdResponse {
                    points,
                    breakdown,
                    cache_hits,
                    nodes: nnodes,
                    wall_s,
                    node_models,
                    trace,
                    degraded,
                })
            }
            BatchQuery::Pdf {
                origin,
                width,
                nbins,
                ..
            } => {
                let mut histogram = Histogram::new(*origin, *width, *nbins);
                for h in results.iter_mut().filter_map(|o| o.histogram.take()) {
                    histogram.merge(&h);
                }
                let (breakdown, wall_s, trace) =
                    finish("pdf", &results, &node_points, 0, Some(*nbins));
                tdb_obs::add("query.pdf.count", 1);
                tdb_obs::observe("query.pdf.wall_s", wall_s);
                BatchAnswer::Pdf(PdfResponse {
                    histogram,
                    breakdown,
                    wall_s,
                    trace,
                    degraded,
                })
            }
            // each node contributes at most its own k best, then the
            // mediator keeps the global k best: a selection per list and
            // one sort of the survivors, all under the one total order, so
            // ties break the same way whatever the node count
            BatchQuery::TopK { k, .. } => {
                for (o, n) in results.iter_mut().zip(&mut node_points) {
                    let mut p = o.take_points();
                    select_topk(&mut p, *k);
                    *n = p.len() as u64;
                    points.append(&mut p);
                }
                select_topk(&mut points, *k);
                points.sort_unstable_by(topk_order);
                let n = points.len() as u64;
                let (breakdown, wall_s, trace) = finish("topk", &results, &node_points, n, None);
                tdb_obs::add("query.topk.count", 1);
                tdb_obs::add("query.points_returned", n);
                tdb_obs::observe("query.topk.wall_s", wall_s);
                BatchAnswer::TopK(TopKResponse {
                    points,
                    breakdown,
                    wall_s,
                    trace,
                    degraded,
                })
            }
        }
    }

    /// Reads a raw-field cutout (no kernel), as a user downloading data
    /// would. Returns the assembled field over `cutout` and the breakdown
    /// including the XML-inflated user transfer (§5.3 baseline).
    pub fn get_cutout(
        &self,
        raw_field: &str,
        timestep: u32,
        cutout: &Box3,
    ) -> StorageResult<(VectorField<3>, TimeBreakdown)> {
        let (nx, ny, nz) = self.grid.dims();
        let (hx, hy, hz) = cutout.hi3();
        assert!(
            (hx as usize) < nx && (hy as usize) < ny && (hz as usize) < nz,
            "cutout outside grid"
        );
        let topo = self.topology_snapshot();
        let mut session = IoSession::new();
        let mut field = VectorField::zeros(nx, ny, nz);
        let mut ncomp = 1u64;
        for atom in cutout.atoms() {
            let rec = storage_source(&topo, atom)?
                .fetch_atom(
                    raw_field,
                    AtomKey::new(timestep, atom.zindex()),
                    &mut session,
                )?
                .ok_or_else(|| tdb_storage::StorageError::MissingData {
                    detail: format!("atom {atom:?} of {raw_field} timestep {timestep}"),
                })?;
            ncomp = u64::from(rec.ncomp);
            field.insert_atom(atom, &pad_components(&rec.data, usize::from(rec.ncomp)));
        }
        let mut breakdown = TimeBreakdown {
            io_s: session.makespan(&self.registry),
            ..Default::default()
        };
        let npoints = cutout.num_points();
        breakdown.mediator_db_s = self
            .registry
            .profile(self.lan)
            .time(2 * topo.live_count() as u64, npoints * ncomp * 4);
        breakdown.mediator_user_s = self
            .registry
            .profile(self.wan)
            .time(2, wire::xml_cutout_bytes(npoints, ncomp));
        let sub = field.extract_box(cutout);
        Ok((sub, breakdown))
    }

    /// Interpolates a raw field at arbitrary positions (grid units) with
    /// Lagrange polynomials — the JHTDB `GetVelocity`-style point query
    /// (paper §2 lists interpolation among the built-in routines).
    ///
    /// Positions wrap on periodic axes and clamp at walls.
    pub fn get_points(
        &self,
        raw_field: &str,
        timestep: u32,
        positions: &[[f64; 3]],
        order: tdb_kernels::interp::LagOrder,
    ) -> StorageResult<(Vec<[f32; 3]>, TimeBreakdown)> {
        let topo = self.topology_snapshot();
        let mut session = IoSession::new();
        let out =
            self.interpolate_points(&topo, raw_field, timestep, positions, order, &mut session)?;
        let mut breakdown = TimeBreakdown {
            io_s: session.makespan(&self.registry),
            ..Default::default()
        };
        breakdown.mediator_db_s = self
            .registry
            .profile(self.lan)
            .time(2 * topo.live_count() as u64, positions.len() as u64 * 12);
        breakdown.mediator_user_s = self
            .registry
            .profile(self.wan)
            .time(2, wire::xml_cutout_bytes(positions.len() as u64, 3));
        Ok((out, breakdown))
    }

    /// The reads and arithmetic of [`Cluster::get_points`], charged to
    /// `session`. Neighbouring positions share stencil atoms, so every
    /// distinct atom of the call is fetched once, in one batched request
    /// per owner; each position is then interpolated from its own cell.
    fn interpolate_points(
        &self,
        topo: &Topology,
        raw_field: &str,
        timestep: u32,
        positions: &[[f64; 3]],
        order: tdb_kernels::interp::LagOrder,
        session: &mut IoSession,
    ) -> StorageResult<Vec<[f32; 3]>> {
        use crate::assemble::{assemble_padded_into, needed_atoms};
        let dims = self.grid.dims();
        let periodic = self.grid.periodic;
        let [per_x, per_y, per_z] = periodic;
        let halo = order.halo();
        // wrap on periodic axes, clamp at walls; then the cell under the
        // position and the offset inside it
        let locate = |v: f64, n: usize, periodic: bool| {
            let p = if periodic {
                v.rem_euclid(n as f64)
            } else {
                v.clamp(0.0, n as f64 - 1.0)
            };
            let cell = (p.floor() as u32).min(n as u32 - 1);
            (cell, p - f64::from(cell))
        };
        let cells: Vec<(Box3, [f64; 3])> = positions
            .iter()
            .map(|&[rx, ry, rz]| {
                let (cx, lx) = locate(rx, dims.0, per_x);
                let (cy, ly) = locate(ry, dims.1, per_y);
                let (cz, lz) = locate(rz, dims.2, per_z);
                (Box3::new([cx, cy, cz], [cx, cy, cz]), [lx, ly, lz])
            })
            .collect();
        let mut by_owner: BTreeMap<usize, (&Arc<NodeRuntime>, BTreeSet<u64>)> = BTreeMap::new();
        for (cell, _) in &cells {
            for atom in needed_atoms(cell, halo, dims, periodic) {
                let source = storage_source(topo, atom)?;
                by_owner
                    .entry(source.id)
                    .or_insert_with(|| (source, BTreeSet::new()))
                    .1
                    .insert(atom.zindex());
            }
        }
        let mut atoms = HashMap::new();
        for (source, codes) in by_owner.into_values() {
            let codes: Vec<u64> = codes.into_iter().collect();
            let records = source.fetch_atoms(raw_field, timestep, &codes, session)?;
            atoms.extend(records.into_iter().map(|rec| (rec.key.zindex, rec)));
        }
        let mut padded = tdb_field::PaddedVector::default();
        cells
            .iter()
            .map(|(cell, local)| {
                assemble_padded_into(&mut padded, cell, halo, dims, periodic, &atoms)?;
                Ok(tdb_kernels::interp::interpolate::<3>(
                    &padded, order, *local,
                ))
            })
            .collect()
    }

    /// Clears every node's semantic cache (cold-cache experiments).
    pub fn clear_caches(&self) {
        for n in self.topology.read().nodes.iter().flatten() {
            n.cache.clear();
            n.pdf_cache.clear();
        }
    }

    /// Drops cache entries for one (field, derived, timestep) — the
    /// paper's per-run "cache entries ... were dropped" setup.
    pub fn invalidate_cache_entry(&self, raw_field: &str, derived: DerivedField, timestep: u32) {
        let key = scan::cache_key(&self.dataset, raw_field, derived, timestep);
        for n in self.topology.read().nodes.iter().flatten() {
            n.cache.invalidate(&key);
        }
    }

    /// Flips bits in the stored rows of one cached threshold entry on
    /// every node that holds it, leaving its checksum stale (chaos
    /// testing: the next lookup must quarantine and self-heal the entry).
    /// Returns how many node-local entries were corrupted.
    pub fn corrupt_cache_entry(
        &self,
        raw_field: &str,
        derived: DerivedField,
        timestep: u32,
    ) -> usize {
        let key = scan::cache_key(&self.dataset, raw_field, derived, timestep);
        self.topology
            .read()
            .nodes
            .iter()
            .flatten()
            .filter(|n| n.cache.corrupt_entry(&key))
            .count()
    }

    /// Clears every node's buffer pool (cold-I/O experiments).
    pub fn clear_buffer_pools(&self) {
        for n in self.topology.read().nodes.iter().flatten() {
            n.buffer_pool().clear();
        }
    }

    /// Aggregate cache statistics across nodes (semantic + PDF caches).
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for n in self.topology.read().nodes.iter().flatten() {
            for s in [n.cache.stats(), n.pdf_cache.stats()] {
                total.hits += s.hits;
                total.misses += s.misses;
                total.inserts += s.inserts;
                total.evictions += s.evictions;
                total.conflicts += s.conflicts;
                total.quarantined += s.quarantined;
            }
        }
        total
    }
}

/// Unwraps the answer variant `pick` selects — the one a query of that
/// kind always produces.
fn of_kind<T>(
    answer: StorageResult<BatchAnswer>,
    pick: impl FnOnce(BatchAnswer) -> Option<T>,
) -> StorageResult<T> {
    pick(answer?).ok_or_else(|| StorageError::internal("query yielded an answer of another kind"))
}

fn threshold_answer(answer: BatchAnswer) -> Option<ThresholdResponse> {
    match answer {
        BatchAnswer::Threshold(r) => Some(r),
        _ => None,
    }
}

/// The first live node along an atom's replica chain — the storage
/// source for direct point access (cutouts, interpolation). Down-marked
/// nodes keep serving storage (only their query evaluator refuses), so
/// the chain head is normally the primary, exactly as before replication.
pub(crate) fn storage_source(topo: &Topology, atom: AtomCoord) -> StorageResult<&Arc<NodeRuntime>> {
    let chunk = topo.layout.chunk_index_of_atom(atom);
    topo.layout
        .replicas_of_chunk(chunk)
        .iter()
        .find_map(|&r| topo.nodes.get(r).and_then(Option::as_ref))
        .ok_or_else(|| StorageError::internal(format!("no live replica stores atom {atom:?}")))
}

/// Pads a record payload (component-major) out to three components.
fn pad_components(data: &[f32], ncomp: usize) -> Vec<f32> {
    use tdb_zorder::ATOM_POINTS;
    let mut out = vec![0.0f32; 3 * ATOM_POINTS];
    for (dst, src) in out
        .chunks_exact_mut(ATOM_POINTS)
        .zip(data.chunks_exact(ATOM_POINTS))
        .take(ncomp.min(3))
    {
        dst.copy_from_slice(src);
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

    #[test]
    fn pad_components_zero_fills() {
        use tdb_zorder::ATOM_POINTS;
        let data = vec![2.0f32; ATOM_POINTS];
        let p = pad_components(&data, 1);
        assert_eq!(p.len(), 3 * ATOM_POINTS);
        assert_eq!(p[0], 2.0);
        assert_eq!(p[ATOM_POINTS], 0.0);
    }

    /// Two nodes both need some blocks of node 0's array; each is read
    /// once, by whichever worker gets there first. The phase must not
    /// depend on who that was — and a real cold scan must report the same
    /// `io_s` run after run, and in I/O-only mode.
    #[test]
    fn io_phase_does_not_depend_on_who_touched_a_shared_block_first() {
        use tdb_zorder::ATOM_POINTS;

        let dir = std::env::temp_dir().join(format!("tdb_iophase_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ClusterConfig {
            num_nodes: 4,
            chunk_atoms: 2,
            synthetic_compute_s_per_point: Some(2e-7),
            ..ClusterConfig::default()
        };
        let grid = Grid3::periodic_cube(32, std::f64::consts::TAU);
        let mut builder = ClusterBuilder::new(&dir, "io", grid, &[("u", 3)], config).unwrap();
        builder
            .ingest_timestep(0, "u", 3, |atom| {
                vec![atom.zindex() as f32; 3 * ATOM_POINTS]
            })
            .unwrap();
        let cluster = builder.finish().unwrap();

        let (own0, own1) = (cluster.array_racks[0][0], cluster.array_racks[1][0]);
        let block = 65_536;
        let node = |reads: &[(DeviceId, u64)]| {
            let mut session = IoSession::new();
            for &(dev, blocks) in reads {
                session.charge(dev, blocks, blocks * block);
            }
            NodeResult {
                points: Vec::new(),
                cache_hit: false,
                cache_lookup_s: 0.0,
                io_s: 0.0,
                compute_s: 0.0,
                wall_s: 0.0,
                atoms_scanned: 0,
                model: NodeTimeModel::default(),
                session,
            }
        };
        // ten private blocks each, four of node 0's that both need
        let node0_first = [node(&[(own0, 14)]), node(&[(own1, 10)])];
        let node1_first = [node(&[(own0, 10)]), node(&[(own1, 10), (own0, 4)])];
        let mixed = [node(&[(own0, 11)]), node(&[(own1, 10), (own0, 3)])];
        let phase = |r: &[NodeResult; 2]| cluster.cluster_io_ref(&r.iter().collect::<Vec<_>>(), 1);
        let want = cluster.registry.profile(own0).time(14, 14 * block);
        for split in [&node0_first, &node1_first, &mixed] {
            assert_eq!(phase(split), want);
        }

        let cold = |mode| {
            cluster.clear_buffer_pools();
            let r = cluster
                .get_threshold(&ThresholdRequest {
                    raw_field: "u".into(),
                    derived: DerivedField::CurlNorm,
                    timestep: 0,
                    query_box: Box3::grid(32, 32, 32),
                    threshold: 1e12,
                    use_cache: false,
                    mode,
                    procs_override: Some(1),
                    strict: true,
                    node_deadline_s: None,
                })
                .unwrap();
            r.breakdown.io_s
        };
        let first = cold(QueryMode::Full);
        assert!(first > 0.0);
        for _ in 0..4 {
            assert_eq!(cold(QueryMode::Full), first);
            assert_eq!(cold(QueryMode::IoOnly), first);
        }
        drop(cluster);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `get_points` fetches every distinct atom of a call once, batched
    /// per owner; the per-position, one-atom-per-request loop it replaced
    /// is the reference here: same values bit for bit, and — with buffer
    /// pools too small to hold the call's blocks, so that coming back to
    /// an atom means reading it again — strictly fewer device operations.
    #[test]
    fn get_points_batches_atom_fetches_with_identical_values() {
        use crate::assemble::{assemble_padded, needed_atoms};
        use tdb_kernels::interp::{interpolate, LagOrder};
        use tdb_zorder::ATOM_POINTS;

        let dir = std::env::temp_dir().join(format!("tdb_points_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ClusterConfig {
            num_nodes: 4,
            chunk_atoms: 2,
            bufferpool_bytes: 64 << 10,
            ..ClusterConfig::default()
        };
        let grid = Grid3::periodic_cube(32, std::f64::consts::TAU);
        let mut builder = ClusterBuilder::new(&dir, "points", grid, &[("u", 3)], config).unwrap();
        builder
            .ingest_timestep(0, "u", 3, |atom| {
                let (ox, oy, oz) = atom.grid_origin();
                (0..3 * ATOM_POINTS)
                    .map(|i| ((i as u32 * 31 + ox * 7 + oy * 13 + oz * 17) % 1009) as f32 * 0.25)
                    .collect()
            })
            .unwrap();
        let cluster = builder.finish().unwrap();
        // 64 positions: neighbours inside one cell, across atom, chunk and
        // node borders, and some that wrap around the grid edge
        let positions: Vec<[f64; 3]> = (0..64)
            .map(|i| {
                let t = f64::from(i);
                [
                    (t * 1.37) % 40.0 - 4.0,
                    14.5 + (t * 0.11) % 3.0,
                    (t * 0.73) % 32.0,
                ]
            })
            .collect();
        let order = LagOrder::Lag6;

        // both sides start from empty buffer pools
        let topo = cluster.topology_snapshot();
        cluster.clear_buffer_pools();
        let mut batched = IoSession::new();
        let got = cluster
            .interpolate_points(&topo, "u", 0, &positions, order, &mut batched)
            .unwrap();

        let (dims, periodic) = (cluster.grid.dims(), cluster.grid.periodic);
        cluster.clear_buffer_pools();
        let mut one_by_one = IoSession::new();
        let want: Vec<[f32; 3]> = positions
            .iter()
            .map(|p| {
                let wrapped = p.map(|v| v.rem_euclid(32.0));
                let cell = wrapped.map(|v| v.floor() as u32);
                let domain = Box3::new(cell, cell);
                let mut atoms = HashMap::new();
                for atom in needed_atoms(&domain, order.halo(), dims, periodic) {
                    let rec = storage_source(&topo, atom)
                        .unwrap()
                        .fetch_atoms("u", 0, &[atom.zindex()], &mut one_by_one)
                        .unwrap()
                        .remove(0);
                    atoms.insert(rec.key.zindex, rec);
                }
                let padded =
                    assemble_padded(&domain, order.halo(), dims, periodic, &atoms).unwrap();
                let local = [0, 1, 2].map(|ax| wrapped[ax] - f64::from(cell[ax]));
                interpolate::<3>(&padded, order, local)
            })
            .collect();

        let bits =
            |v: &[[f32; 3]]| -> Vec<[u32; 3]> { v.iter().map(|p| p.map(f32::to_bits)).collect() };
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(
            bits(&cluster.get_points("u", 0, &positions, order).unwrap().0),
            bits(&want)
        );
        assert!(
            batched.total_ops() < one_by_one.total_ops(),
            "batched {} ops vs one-by-one {}",
            batched.total_ops(),
            one_by_one.total_ops()
        );
        assert!(batched.total_bytes() < one_by_one.total_bytes());
        assert!(
            batched.pool_hits + batched.pool_misses < one_by_one.pool_hits + one_by_one.pool_misses
        );
        drop(cluster);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
