//! The Web-server / mediator: the running cluster and its entry points.
//!
//! "Each request is broken down into multiple parts based on the spatial
//! layout of the data. Each part is asynchronously submitted for
//! evaluation to the database which stores the data needed ... The
//! Web-server assembles the results from the distributed computation and
//! sends them back to the client." (paper §2) — one module per verb:
//! `topology`, `scatter`, `merge`. This one holds [`Cluster`], the
//! requests it accepts, their lowering to scan participants (a top-k's
//! floor and rescan included) and the reads that need no scan (cutouts,
//! points).

use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use tdb_cache::CacheStats;
use tdb_field::{Grid3, PaddedVector, VectorField};
use tdb_kernels::DerivedField;
use tdb_storage::device::{DeviceRegistry, IoSession};
use tdb_storage::{StorageError, StorageResult};
use tdb_zorder::Box3;

use crate::assemble::{assemble_padded_into, needed_atoms};
use crate::config::ClusterConfig;
use crate::maxima::topk_floor;
use crate::node::{NodeRuntime, QueryMode};
use crate::placement::Layout;
use crate::scan::{self, ScanKernel, ScanParticipant};
use crate::timing::TimeBreakdown;
use crate::topology::{routed_read, ClusterEnv, RebalanceState, Topology};
use crate::wire;

pub use crate::merge::{BatchAnswer, DegradedInfo, FailedNode, PdfResponse, ThresholdResponse};
pub use crate::topology::ClusterBuilder;

/// A threshold query as the mediator receives it.
#[derive(Debug, Clone)]
pub struct ThresholdRequest {
    pub raw_field: String,
    pub derived: DerivedField,
    pub timestep: u32,
    pub query_box: Box3,
    pub threshold: f64,
    pub use_cache: bool,
    /// Frozen-benchmark surface: `perfbench` names it, nothing reads it.
    pub mode: QueryMode,
    /// Frozen-benchmark surface: `perfbench` names it, nothing reads it.
    /// Every scan runs at [`ClusterConfig::procs_per_node`], and an
    /// answer's `model` gives its time at any other process count.
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

    /// What the query asks of a shared scan — its lowering, which
    /// [`Cluster::run_batch`] hands to the scatter. A top-k is an uncached
    /// threshold scan: at its `floor` ([`crate::maxima::topk_floor`]),
    /// which holds every point of its answer, or without one at −∞, which
    /// holds every point of its box but NaN.
    pub(crate) fn participant(&self, floor: Option<f64>) -> ScanParticipant {
        let req = self.request();
        let (kernel, use_cache) = match *self {
            BatchQuery::Threshold(_) => {
                let threshold = req.threshold;
                (ScanKernel::Threshold { threshold }, req.use_cache)
            }
            BatchQuery::Pdf {
                origin,
                width,
                nbins,
                ..
            } => {
                let kernel = ScanKernel::Pdf {
                    origin,
                    width,
                    nbins,
                };
                (kernel, req.use_cache)
            }
            BatchQuery::TopK { .. } => {
                let threshold = floor.unwrap_or(f64::NEG_INFINITY);
                (ScanKernel::Threshold { threshold }, false)
            }
        };
        ScanParticipant {
            query_box: req.query_box,
            kernel,
            use_cache,
        }
    }
}

/// The running cluster: mediator entry points.
pub struct Cluster {
    /// Sizing, geometry and devices, shared with every node.
    pub(crate) env: Arc<ClusterEnv>,
    pub(crate) dataset: String,
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
    pub(crate) dir: PathBuf,
}

impl Cluster {
    /// Cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.env.config
    }

    /// Dataset name.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// Grid geometry.
    pub fn grid(&self) -> &Grid3 {
        &self.env.grid
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
        &self.env.registry
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

    /// Runs one query as a batch of one.
    fn submit(&self, query: BatchQuery) -> StorageResult<BatchAnswer> {
        self.run_batch(vec![query])
            .pop()
            .unwrap_or_else(|| Err(StorageError::internal("batch of one produced no answer")))
    }

    /// Evaluates a set of queries, sharing one atom scan per group of
    /// queries with one `ScanGroupKey` (`scatter.rs`). Answers are
    /// positionally aligned with the input; a per-node failure inside a
    /// group is fanned out to every query of that group (and degraded per
    /// query by the usual policy).
    ///
    /// Here each query is lowered to the participant it scans as
    /// (`BatchQuery::participant`): a top-k at the floor its box's
    /// witnesses set (`floor_of`), else at −∞. One whose floored answer
    /// comes back short of k points lost a witness to a chunk no replica
    /// answered; it alone is lowered again at −∞ and rescanned
    /// (`scan.topk_rescans`), so its answer is the unfloored one, degraded
    /// or not. A top-k answer's root span carries `floor` (absent at −∞)
    /// and `rescanned`.
    pub fn run_batch(&self, queries: Vec<BatchQuery>) -> Vec<StorageResult<BatchAnswer>> {
        let wall = std::time::Instant::now();
        let mut answers: Vec<Option<StorageResult<BatchAnswer>>> =
            queries.iter().map(|_| None).collect();
        let floors: Vec<Option<f64>> = queries.iter().map(|q| self.floor_of(q)).collect();
        let parts = (queries.iter().zip(&floors))
            .map(|(q, floor)| q.participant(*floor))
            .enumerate()
            .collect();
        self.run_groups(&queries, parts, &mut answers, wall);
        let short: Vec<(usize, ScanParticipant)> = (queries.iter().zip(&floors).zip(&answers))
            .enumerate()
            .filter(|(_, ((q, floor), answer))| {
                floor.is_some()
                    && matches!((q, answer), (BatchQuery::TopK { k, .. }, Some(Ok(BatchAnswer::Threshold(r))))
                        if r.points.len() < *k)
            })
            .map(|(i, ((q, _), _))| (i, q.participant(None)))
            .collect();
        let rescanned: Vec<usize> = short.iter().map(|(i, _)| *i).collect();
        if !short.is_empty() {
            tdb_obs::m::SCAN_TOPK_RESCANS.add(short.len() as u64);
            self.run_groups(&queries, short, &mut answers, wall);
        }
        // a top-k's root span names the floor its answer was scanned at
        // (none at −∞) and whether it was rescanned
        let annotated = queries.iter().zip(&floors).zip(&mut answers).enumerate();
        for (i, ((q, floor), answer)) in annotated {
            if let (BatchQuery::TopK { .. }, Some(Ok(BatchAnswer::Threshold(r)))) = (q, answer) {
                let rescanned = rescanned.contains(&i);
                if let Some(floor) = floor.filter(|_| !rescanned) {
                    r.trace.root.set_attr("floor", floor);
                }
                r.trace.root.set_attr("rescanned", rescanned);
            }
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

    /// The floor a top-k scans at, if its maxima set one
    /// ([`crate::maxima::topk_floor`]).
    fn floor_of(&self, query: &BatchQuery) -> Option<f64> {
        let BatchQuery::TopK { req, k } = query else {
            return None;
        };
        let maxima = self.env.maxima.get()?;
        let maxima = maxima.of(&req.raw_field, req.derived, req.timestep)?;
        topk_floor(maxima, &req.query_box, *k)
    }

    /// Evaluates a threshold query: scatter to nodes, gather, assemble.
    /// Node outages (and deadline violations) degrade the answer instead
    /// of failing it unless [`ThresholdRequest::strict`] is set.
    pub fn get_threshold(&self, req: &ThresholdRequest) -> StorageResult<ThresholdResponse> {
        self.submit(BatchQuery::Threshold(req.clone()))?
            .into_threshold()
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
        self.submit(query)?.into_pdf()
    }

    /// Evaluates a top-k query: the `k` largest values in the box under
    /// [`crate::topk_order`], NaN dropped, bit for bit those of a ranking
    /// of every point. Uncached, and always a threshold scan (DESIGN.md
    /// §9): with at least `k` witnesses in the box (stored values of atoms
    /// and maxima of octants wholly inside it), at the floor they set,
    /// which reads only the octants that can hold the answer; otherwise at
    /// −∞. A floored answer short of `k` points (a chunk no replica
    /// answered held a witness) is scanned again at −∞
    /// (`scan.topk_rescans`).
    pub fn get_topk(&self, req: &ThresholdRequest, k: usize) -> StorageResult<ThresholdResponse> {
        let req = req.clone();
        self.submit(BatchQuery::TopK { req, k })?.into_threshold()
    }

    /// Reads a raw-field cutout (no kernel), as a user downloading data
    /// would. Returns the field over `cutout` (scalar fields land in
    /// component 0) and the breakdown including the XML-inflated user
    /// transfer (§5.3 baseline).
    pub fn get_cutout(
        &self,
        raw_field: &str,
        timestep: u32,
        cutout: &Box3,
    ) -> StorageResult<(VectorField<3>, TimeBreakdown)> {
        let grid = &self.env.grid;
        let (nx, ny, nz) = grid.dims();
        if !Box3::grid(nx as u32, ny as u32, nz as u32).contains_box(cutout) {
            return Err(StorageError::MissingData {
                detail: format!("cutout {cutout:?} reaches outside the {nx}x{ny}x{nz} grid"),
            });
        }
        let topo = self.topology_snapshot();
        let mut session = IoSession::new();
        let atoms = routed_read(
            &topo.layout,
            &topo.nodes,
            None,
            raw_field,
            timestep,
            needed_atoms(cutout, 0, grid.dims(), grid.periodic),
            &mut session,
        )?;
        let ncomp = atoms.values().next().map_or(1, |rec| u64::from(rec.ncomp));
        let mut padded = PaddedVector::default();
        assemble_padded_into(&mut padded, cutout, 0, grid.dims(), grid.periodic, &atoms)?;
        let npoints = cutout.num_points();
        let user_bytes = wire::xml_cutout_bytes(npoints, ncomp);
        // the devices the read touched run in parallel
        let breakdown = TimeBreakdown {
            io_s: session.makespan(self.registry()),
            ..self.transfer(&topo, npoints * ncomp * 4, user_bytes)
        };
        Ok((padded.interior(), breakdown))
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
        let n = positions.len() as u64;
        let breakdown = TimeBreakdown {
            io_s: session.makespan(self.registry()),
            ..self.transfer(&topo, n * 12, wire::xml_cutout_bytes(n, 3))
        };
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
        let dims = self.env.grid.dims();
        let periodic = self.env.grid.periodic;
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
        let atoms = routed_read(
            &topo.layout,
            &topo.nodes,
            None,
            raw_field,
            timestep,
            cells
                .iter()
                .flat_map(|(cell, _)| needed_atoms(cell, halo, dims, periodic)),
            session,
        )?;
        let mut padded = PaddedVector::default();
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
            n.pdf_cache.invalidate(&key);
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
        let nodes = self.nodes();
        nodes.iter().filter(|n| n.cache.corrupt_entry(&key)).count()
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
                total.quarantined += s.quarantined;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReplicationConfig;
    use crate::scan::ScanAssignment;

    /// A 32³ periodic cube of 3-component atoms over four nodes with 16³
    /// chunks, so every chunk's halo reaches into a neighbour's blocks.
    fn halo_sharing_cluster(tag: &str) -> (Cluster, PathBuf) {
        cluster_with(tag, Default::default())
    }

    fn cluster_with(tag: &str, replication: ReplicationConfig) -> (Cluster, PathBuf) {
        use tdb_zorder::ATOM_POINTS;

        let dir = std::env::temp_dir().join(format!("tdb_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ClusterConfig {
            num_nodes: 4,
            chunk_atoms: 2,
            synthetic_compute_s_per_point: Some(2e-7),
            procs_per_node: 1,
            replication,
            ..ClusterConfig::default()
        };
        let grid = Grid3::periodic_cube(32, std::f64::consts::TAU);
        let mut builder = ClusterBuilder::new(&dir, "io", grid, &[("u", 3)], config).unwrap();
        builder
            .ingest_timestep(0, "u", 3, |atom| {
                vec![atom.zindex() as f32; 3 * ATOM_POINTS]
            })
            .unwrap();
        (builder.finish().unwrap(), dir)
    }

    /// One cold whole-grid curl-norm scan with one process per node. A
    /// norm is never below 0, so no atom is pruned: this reads everything.
    fn cold_scan(cluster: &Cluster) -> ThresholdResponse {
        cluster.clear_buffer_pools();
        cluster
            .get_threshold(&ThresholdRequest {
                raw_field: "u".into(),
                derived: DerivedField::CurlNorm,
                timestep: 0,
                query_box: Box3::grid(32, 32, 32),
                threshold: 0.0,
                use_cache: false,
                mode: QueryMode::Full,
                procs_override: None,
                strict: true,
                node_deadline_s: None,
            })
            .unwrap()
    }

    /// A top-k leaves the mediator as an uncached threshold scan: at its
    /// floor, or at −∞ without one.
    #[test]
    fn an_unfloored_topk_is_a_threshold_scan_at_negative_infinity() {
        let req = ThresholdRequest {
            raw_field: "u".into(),
            derived: DerivedField::CurlNorm,
            timestep: 0,
            query_box: Box3::grid(32, 32, 32),
            threshold: 0.0,
            use_cache: true,
            mode: QueryMode::Full,
            procs_override: None,
            strict: false,
            node_deadline_s: None,
        };
        let topk = BatchQuery::TopK { req, k: 3 };
        for (floor, want) in [(Some(2.5), 2.5), (None, f64::NEG_INFINITY)] {
            let part = topk.participant(floor);
            assert!(
                matches!(part.kernel, ScanKernel::Threshold { threshold } if threshold == want),
                "floor {floor:?}: {:?}",
                part.kernel
            );
            assert!(!part.use_cache, "floor {floor:?}");
        }
    }

    /// Wave 0 of every query borrows the generation's canonical assignment
    /// instead of rebuilding it: whoever installs a generation — build,
    /// join, leave — must have built it from that generation's layout.
    #[test]
    fn topology_holds_the_canonical_assignment_across_join_and_leave() {
        let replication = ReplicationConfig {
            spare_nodes: 1,
            ..ReplicationConfig::rendezvous(2)
        };
        let (cluster, dir) = cluster_with("canonical", replication);
        let check = |when: &str| {
            let topo = cluster.topology_snapshot();
            let want = ScanAssignment::canonical(&cluster.layout());
            assert!(Arc::ptr_eq(&topo.canonical.layout, &topo.layout), "{when}");
            assert!(topo.canonical.canonical, "{when}");
            assert_eq!(topo.canonical.chunks, want.chunks, "{when}");
            for (node, idxs) in topo.canonical.chunks.iter().enumerate() {
                let chunks: Vec<_> = idxs.iter().map(|&c| topo.layout.chunks()[c]).collect();
                assert_eq!(
                    chunks,
                    want.chunks_of(node).collect::<Vec<_>>(),
                    "{when}, node {node}"
                );
            }
        };
        check("as built");
        let joined = cluster.join_node().unwrap().node;
        check("after the join");
        assert!(!cluster.topology_snapshot().canonical.chunks[joined].is_empty());
        cluster.leave_node(0).unwrap();
        check("after the leave");
        assert!(cluster.topology_snapshot().canonical.chunks[0].is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two nodes both need some blocks of node 0's array; each is read
    /// once, by whichever worker gets there first. Neither the cluster's
    /// phase nor either node's may depend on who that was — and a real
    /// cold scan must report the same `io_s` run after run.
    #[test]
    fn io_phase_does_not_depend_on_who_touched_a_shared_block_first() {
        use crate::node::NodeResult;
        use tdb_storage::device::DeviceId;

        let (cluster, dir) = halo_sharing_cluster("iophase");
        let topo = cluster.topology_snapshot();
        let array = |node: usize| topo.nodes[node].as_ref().unwrap().devices.arrays[0];
        let (own0, own1) = (array(0), array(1));
        let block = 65_536;
        let node = |reads: &[(DeviceId, u64)]| {
            let mut session = IoSession::new();
            for &(dev, blocks) in reads {
                session.charge(dev, blocks, blocks * block);
            }
            NodeResult {
                session,
                ..NodeResult::default()
            }
        };
        // ten private blocks each, four of node 0's that both need
        let node0_first = [node(&[(own0, 14)]), node(&[(own1, 10)])];
        let node1_first = [node(&[(own0, 10)]), node(&[(own1, 10), (own0, 4)])];
        let mixed = [node(&[(own0, 11)]), node(&[(own1, 10), (own0, 3)])];
        let time = |dev, blocks| cluster.registry().profile(dev).time(blocks, blocks * block);
        for mut split in [node0_first, node1_first, mixed] {
            let phase = cluster
                .query_model(&topo, &split.iter().collect::<Vec<_>>())
                .io_s(1);
            assert_eq!(phase, time(own0, 14));
            let mut answered: Vec<_> = split.iter_mut().enumerate().collect();
            cluster.node_io(&topo, &mut answered);
            assert_eq!(split[0].model.io_s(1), time(own0, 14));
            assert_eq!(split[1].model.io_s(1), time(own1, 10));
        }

        let first = cold_scan(&cluster).breakdown.io_s;
        assert!(first > 0.0);
        for _ in 0..4 {
            assert_eq!(cold_scan(&cluster).breakdown.io_s, first);
        }
        drop(cluster);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// What each node reports — the `node.N` spans under `phase.io` and
    /// the I/O half of `node_models` — is a function of the blocks read
    /// too: five cold runs of one query agree to the last bit, whichever
    /// neighbour's worker reached a shared halo block first.
    #[test]
    fn per_node_io_is_bit_equal_across_cold_runs() {
        let (cluster, dir) = halo_sharing_cluster("nodeio");
        let per_node = |r: &ThresholdResponse| -> Vec<[u64; 3]> {
            let trace = &r.trace;
            let spans = &trace.span("phase.io").unwrap().children;
            assert_eq!(spans.len(), r.node_models.len());
            spans
                .iter()
                .zip(&r.node_models)
                .map(|(span, m)| {
                    assert_eq!(span.duration_s, m.io_s(1));
                    [span.duration_s, m.io_served, m.io_busiest].map(f64::to_bits)
                })
                .collect()
        };
        let first = per_node(&cold_scan(&cluster));
        assert_eq!(first.len(), 4);
        assert!(first.iter().all(|n| f64::from_bits(n[0]) > 0.0));
        for _ in 0..4 {
            assert_eq!(per_node(&cold_scan(&cluster)), first);
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
        use crate::assemble::assemble_padded;
        use std::collections::HashMap;
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

        let (dims, periodic) = (cluster.grid().dims(), cluster.grid().periodic);
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
                    atoms.extend(
                        routed_read(
                            &topo.layout,
                            &topo.nodes,
                            None,
                            "u",
                            0,
                            [atom],
                            &mut one_by_one,
                        )
                        .unwrap(),
                    );
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
