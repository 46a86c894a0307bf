//! Per-node query evaluation.
//!
//! A node holds a partitioned table per raw field (over every chunk it
//! stores a replica of), a buffer pool, and a semantic cache on its SSD.
//! Threshold subqueries follow Algorithm 1: probe the cache, otherwise
//! evaluate from the raw data chunk-by-chunk with `procs` worker
//! processes and update the cache. The two halves are two calls,
//! `NodeRuntime::probe` and `NodeRuntime::scan`: the mediator probes
//! every node on its own thread and fans out only the scans.
//!
//! A node holds no placement state of its own: which chunks it scans
//! arrives with every [`SharedScanRequest`] as a
//! [`ScanAssignment`](crate::scan::ScanAssignment) computed by the
//! mediator from one topology snapshot (`placement.rs` is the single
//! source of placement truth). That is what lets the mediator re-target a
//! dead node's chunks at a surviving replica.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;
use tdb_cache::{
    CacheConfig, CacheInfoKey, CacheLookup, PdfCache, PdfKey, PdfLookup, SemanticCache,
    ThresholdPoint,
};
use tdb_field::{Histogram, PaddedVector};
use tdb_kernels::scan::{pdf_scan_row, threshold_scan_row, ClipRows};
use tdb_obs::m;
use tdb_storage::device::{DeviceId, IoSession};
use tdb_storage::{AtomRecord, BlockCache, StorageError, StorageResult, Table};
use tdb_zorder::Box3;

use tdb_kernels::DerivedField;

use crate::assemble::{assemble_reach_into, reached_atoms, scan_reach};
use crate::cputime::thread_cpu_time_s;
use crate::maxima::surviving_domains;
use crate::placement::Layout;
use crate::scan::{ScanKernel, ScanParticipant, SharedOutcome, SharedScanRequest};
use crate::sim::NodeTimeModel;
use crate::topology::{routed_read, ClusterEnv, NodeDevices};

/// Frozen-benchmark surface: the type of [`SharedScanRequest::mode`] and
/// `ThresholdRequest::mode`, which the frozen `perfbench` names in its
/// literals. Nothing reads it; every query does its full work, and Fig. 8's
/// I/O-only series is the cold run's modelled `io_s` (DESIGN.md §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMode {
    Full,
}

/// Outcome of one node's threshold subquery.
#[derive(Debug, Default)]
pub struct NodeResult {
    pub points: Vec<ThresholdPoint>,
    pub cache_hit: bool,
    /// Modelled + measured cache-probe time.
    pub cache_lookup_s: f64,
    /// Raw measured wall-clock of the node evaluation.
    pub wall_s: f64,
    /// Atoms fetched (local + halo) while evaluating from raw data.
    pub atoms_scanned: u64,
    /// Atoms the unpruned scan would have fetched on top of
    /// [`Self::atoms_scanned`], skipped by their maxima (DESIGN.md §9).
    pub atoms_pruned: u64,
    /// Closed-form time model of this node's scan (zero on cache hits),
    /// the one copy of its phase times: `model.io_s(p)` and
    /// `model.compute_s(p)` at any process count from one run. The node
    /// fills the compute half; only the mediator sees every node's reads,
    /// so it fills the I/O half once the scatter wave has answered
    /// (`Cluster::node_io`, DESIGN.md §4).
    pub model: NodeTimeModel,
    /// Device accesses of the whole subquery.
    pub session: IoSession,
}

/// What [`NodeRuntime::probe`] leaves for [`NodeRuntime::scan`]: the
/// request's cache key and, per participant, the probe's one reading of
/// it — its reducer, whether it uses its cache, its answer on a hit.
pub(crate) struct Probe {
    key: CacheInfoKey,
    slots: Vec<Slot>,
    /// When the evaluation started.
    wall: Instant,
    /// Holds `node.active_subqueries` from the probe to the scan's end.
    _active: ActiveGuard,
}

impl Probe {
    /// Whether a participant is left for [`NodeRuntime::scan`].
    pub(crate) fn pending(&self) -> bool {
        self.slots.iter().any(|s| s.outcome.is_none())
    }
}

/// One participant's probe: its reducer and cache decision, its outcome
/// on a hit, else what the probe cost and whether it quarantined the
/// entry the scan then rebuilds.
struct Slot {
    reducer: Reducer,
    /// Whether the probe read its cache, and so the scan fills it.
    cached: bool,
    outcome: Option<SharedOutcome>,
    cache_lookup_s: f64,
    probe_session: IoSession,
    healing: bool,
}

impl Slot {
    fn take_outcome(self) -> StorageResult<SharedOutcome> {
        self.outcome
            .ok_or_else(|| StorageError::internal("participant slot never produced an outcome"))
    }
}

/// What a clip reduces its part of the derived rows to.
#[derive(Clone)]
enum Reducer {
    Points {
        threshold: f64,
        points: Vec<ThresholdPoint>,
    },
    Hist(Histogram),
}

impl Reducer {
    /// The one reading of a participant's kernel: the reducer its clips
    /// feed, and whether the kernel asks for the cache of that reducer's
    /// kind (semantic for points, PDF for a histogram). The frozen top-k
    /// kernel is the threshold scan at −∞, uncached: every point of its
    /// box but NaN (DESIGN.md §9).
    fn of(part: &ScanParticipant) -> (Self, bool) {
        let (threshold, cached) = match part.kernel {
            ScanKernel::Threshold { threshold } => (threshold, part.use_cache),
            ScanKernel::TopK => (f64::NEG_INFINITY, false),
            ScanKernel::Pdf {
                origin,
                width,
                nbins,
            } => {
                let hist = Histogram::new(origin, width, nbins);
                return (Reducer::Hist(hist), part.use_cache);
            }
        };
        let points = Vec::new();
        (Reducer::Points { threshold, points }, cached)
    }

    /// Folds another clip's reduction for the same participant into this.
    fn merge(&mut self, other: Reducer) {
        match (self, other) {
            (Reducer::Points { points, .. }, Reducer::Points { points: more, .. }) => {
                points.extend(more)
            }
            (Reducer::Hist(hist), Reducer::Hist(more)) => hist.merge(&more),
            _ => {}
        }
    }
}

/// Semantic-cache SSD budget per node, bytes (paper: ~200 GB SSD).
const CACHE_BUDGET_BYTES: u64 = 200 << 30;

/// One simulated database node.
pub struct NodeRuntime {
    pub id: usize,
    tables: HashMap<String, Table>,
    pub cache: SemanticCache,
    pub pdf_cache: PdfCache,
    pool: Arc<BlockCache>,
    pub(crate) devices: NodeDevices,
    pub(crate) env: Arc<ClusterEnv>,
    /// `io.ops.<device>` / `io.bytes.<device>` counters of every
    /// registered device, indexed by [`DeviceId`] — resolved once here,
    /// not per subquery.
    io_counters: Vec<(Arc<tdb_obs::Counter>, Arc<tdb_obs::Counter>)>,
}

impl NodeRuntime {
    /// Assembles a node from its sealed tables, its rack and the
    /// cluster's shared environment ([`crate::topology::start_node`]).
    pub(crate) fn new(
        id: usize,
        tables: HashMap<String, Table>,
        pool: Arc<BlockCache>,
        devices: NodeDevices,
        env: Arc<ClusterEnv>,
    ) -> Self {
        let io_counters = (0..env.registry.len() as u32)
            .map(|dev| {
                let name = &env.registry.profile(DeviceId(dev)).name;
                (m::IO_OPS.with(name), m::IO_BYTES.with(name))
            })
            .collect();
        Self {
            id,
            tables,
            cache: SemanticCache::new(CacheConfig {
                budget_bytes: CACHE_BUDGET_BYTES,
                ssd: devices.ssd,
                faults: env.config.faults.clone(),
            }),
            // histograms are tiny; a small slice of the SSD suffices
            pdf_cache: PdfCache::new(devices.ssd, CACHE_BUDGET_BYTES / 64),
            pool,
            devices,
            env,
            io_counters,
        }
    }

    /// Fails with [`StorageError::NodeUnavailable`] when the fault plan
    /// has this node marked dead. Only the node's *query evaluator* is
    /// gated: peers fetching halo atoms still reach its storage (the
    /// failover model of DESIGN.md — data stays reachable, compute dies),
    /// so one dead node degrades exactly its own boxes.
    fn check_available(&self) -> StorageResult<()> {
        if let Some(plan) = &self.env.config.faults {
            if plan.node_is_down(self.id) {
                m::NODE_UNAVAILABLE.inc();
                return Err(StorageError::NodeUnavailable {
                    node: self.id,
                    detail: "injected node failure".into(),
                });
            }
        }
        Ok(())
    }

    /// The node's buffer pool (exposed for cold-cache experiment setup).
    pub fn buffer_pool(&self) -> &BlockCache {
        &self.pool
    }

    /// Table for a raw field.
    pub fn table(&self, field: &str) -> StorageResult<&Table> {
        self.tables
            .get(field)
            .ok_or_else(|| StorageError::internal(format!("node {} has no field {field}", self.id)))
    }

    /// Batched atom fetch from this node's own tables: one request for
    /// many atoms (sorted, unique zindexes), served by clustered-index
    /// range scans. Every atom asked for comes back, or the fetch fails
    /// with `MissingData`. Callers that do not already know which node
    /// stores an atom go through `topology::routed_read`.
    pub fn fetch_atoms(
        &self,
        field: &str,
        timestep: u32,
        zindexes: &[u64],
        session: &mut IoSession,
    ) -> StorageResult<Vec<AtomRecord>> {
        let mut local = IoSession::new();
        let out = self.table(field)?.get_many(timestep, zindexes, &mut local);
        // every request and byte the arrays serve also crosses the node's
        // shared controller, which caps how far I/O parallelises
        let (ops, bytes) = (local.total_ops(), local.total_bytes());
        if bytes > 0 || ops > 0 {
            local.charge(self.devices.controller, ops, bytes);
        }
        session.merge(&local);
        let records = out?;
        if records.len() != zindexes.len() {
            return Err(StorageError::MissingData {
                detail: format!(
                    "node {} returned {} of {} atoms for field {field} timestep {timestep}",
                    self.id,
                    records.len(),
                    zindexes.len()
                ),
            });
        }
        Ok(records)
    }

    /// The one scan worker, run by query scans and by the build pass of
    /// the atom maxima alike: one [`routed_read`] of every atom the
    /// `domains` and their halos reach ([`scan_reach`] of each domain and
    /// the `derived` fields), then per domain the padded cube and the rows
    /// of every field of `derived`, handed to `visit(domain, field, y, z,
    /// row)` as they appear (`y`, `z` relative to the domain). Returns the
    /// atoms read and the thread CPU seconds spent after the read.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn derive_domains(
        &self,
        layout: &Layout,
        peers: &[Option<Arc<NodeRuntime>>],
        field: &str,
        timestep: u32,
        domains: &[Box3],
        derived: &[DerivedField],
        scratch: &mut ScanScratch,
        session: &mut IoSession,
        mut visit: impl FnMut(usize, usize, usize, usize, &[f32]),
    ) -> StorageResult<(u64, f64)> {
        let (dims, periodic) = (self.env.grid.dims(), self.env.grid.periodic);
        let reach_of = |d: &Box3| scan_reach(derived, &self.env.scheme, d);
        let needed = domains.iter().flat_map(|d| {
            let (halo, reach) = reach_of(d);
            reached_atoms(d, halo, reach, dims, periodic)
        });
        let atoms = routed_read(layout, peers, Some(self), field, timestep, needed, session)?;
        let read = atoms.len() as u64;
        let c0 = thread_cpu_time_s();
        let last = domains.len().saturating_sub(1);
        let mut atoms = Some(atoms);
        for (d, domain) in domains.iter().enumerate() {
            let Some(records) = &atoms else { break };
            let (halo, reach) = reach_of(domain);
            assemble_reach_into(
                &mut scratch.padded,
                domain,
                halo,
                reach,
                dims,
                periodic,
                records,
            )?;
            if d == last {
                // the records are copied into the cube: release them before
                // the answers start to grow
                atoms = None;
            }
            let (x, y, z) = domain.lo3();
            DerivedField::eval_rows_many(
                derived,
                &scratch.padded,
                &self.env.scheme,
                [x as usize, y as usize, z as usize],
                &mut scratch.rows,
                |f, y, z, row| visit(d, f, y, z, row),
            );
        }
        Ok((read, (thread_cpu_time_s() - c0).max(0.0)))
    }

    /// Evaluates a group of queries against one shared atom scan:
    /// `Self::probe`, then `Self::scan` of whatever the probes left.
    ///
    /// Every participant's cache is probed first; the remaining misses
    /// share one pass over this node's chunks. Per chunk the scanned
    /// domain is the hull of all pending clips, so each atom is fetched
    /// and each derived field evaluated exactly once, then every pending
    /// kernel is applied over its own clip. Results are byte-identical to
    /// independent execution (kernels are pointwise over halo stencils),
    /// and every cache-eligible participant's entry is filled afterwards.
    pub fn evaluate_shared(
        &self,
        peers: &[Option<Arc<NodeRuntime>>],
        req: &SharedScanRequest,
    ) -> StorageResult<Vec<SharedOutcome>> {
        let probe = self.probe(req)?;
        self.scan(peers, req, probe)
    }

    /// The first half of [`Self::evaluate_shared`]: checks that the node
    /// is available (once per evaluation), reads every participant once
    /// and probes the caches it uses, answering the hits. Cheap enough for
    /// the caller's thread.
    ///
    /// The one cache rule, for lookup and fill alike: a participant uses
    /// its cache when its kernel asks for it and the assignment is
    /// canonical. Entries are keyed by the full query box but hold exactly
    /// this node's primary points, so a failover re-scan of another node's
    /// chunks bypasses them.
    pub(crate) fn probe(&self, req: &SharedScanRequest) -> StorageResult<Probe> {
        self.check_available()?;
        let active = ActiveGuard::new();
        let wall = Instant::now();
        let key = req.cache_key();
        let mut slots: Vec<Slot> = (req.participants.iter())
            .map(|part| {
                let (reducer, cached) = Reducer::of(part);
                Slot {
                    reducer,
                    cached: cached && req.assignment.canonical,
                    outcome: None,
                    cache_lookup_s: 0.0,
                    probe_session: IoSession::new(),
                    healing: false,
                }
            })
            .collect();
        for (slot, part) in slots.iter_mut().zip(&req.participants) {
            if !slot.cached {
                continue;
            }
            let probe = thread_cpu_time_s();
            let mut probe_session = IoSession::new();
            let found = match &slot.reducer {
                Reducer::Points { threshold, .. } => {
                    match self
                        .cache
                        .lookup(&key, &part.query_box, *threshold, &mut probe_session)
                    {
                        CacheLookup::Hit(points) => Some((points, None)),
                        // a quarantined entry falls through to the raw
                        // evaluation, whose insert rebuilds it
                        CacheLookup::Quarantined => {
                            slot.healing = true;
                            None
                        }
                        CacheLookup::Miss => None,
                    }
                }
                Reducer::Hist(hist) => {
                    let (origin, width, nbins) = hist.binning();
                    let pdf_key = PdfKey::new(key.clone(), origin, width, nbins as u32);
                    match (self.pdf_cache).lookup(&pdf_key, &part.query_box, &mut probe_session) {
                        PdfLookup::Hit(counts) => {
                            let mut hist = hist.clone();
                            hist.set_counts(&counts);
                            Some((Vec::new(), Some(hist)))
                        }
                        PdfLookup::Miss => None,
                    }
                }
            };
            slot.cache_lookup_s =
                (thread_cpu_time_s() - probe).max(0.0) + probe_session.makespan(&self.env.registry);
            match found {
                Some((points, histogram)) => {
                    self.report_session(&probe_session);
                    // answered by the probe alone: no scan, so no I/O
                    // phase, compute or time model
                    slot.outcome = Some(SharedOutcome {
                        result: NodeResult {
                            points,
                            cache_hit: true,
                            cache_lookup_s: slot.cache_lookup_s,
                            wall_s: wall.elapsed().as_secs_f64(),
                            session: probe_session,
                            ..NodeResult::default()
                        },
                        histogram,
                    });
                }
                None => slot.probe_session = probe_session,
            }
        }
        Ok(Probe {
            key,
            slots,
            wall,
            _active: active,
        })
    }

    /// The second half of [`Self::evaluate_shared`]: one shared scan for
    /// the participants `probe` left without an answer, feeding the
    /// reducers it read and filling exactly the caches it probed; returns
    /// at once when it left none. Every participant's outcome comes back
    /// in request order.
    pub(crate) fn scan(
        &self,
        peers: &[Option<Arc<NodeRuntime>>],
        req: &SharedScanRequest,
        probe: Probe,
    ) -> StorageResult<Vec<SharedOutcome>> {
        let Probe {
            key,
            mut slots,
            wall,
            _active,
        } = probe;
        let pending: Vec<usize> = (slots.iter().enumerate())
            .filter_map(|(i, s)| s.outcome.is_none().then_some(i))
            .collect();
        if pending.is_empty() {
            return slots.into_iter().map(Slot::take_outcome).collect();
        }

        // --- shared scan over all pending participants -------------------
        // per chunk, scan the hull of every pending clip so each atom is
        // decoded once no matter how many queries need it, less the atom
        // octants whose maximum answers none of them (DESIGN.md §9)
        struct ScanTask {
            domains: Vec<Box3>,
            clips: Vec<(usize, Box3)>,
            /// Atoms the hull would have read.
            unpruned: u64,
        }
        let grid = &self.env.grid;
        let derived = std::slice::from_ref(&req.derived);
        let reach_of = |b: &Box3| scan_reach(derived, &self.env.scheme, b);
        let maxima = (self.env.maxima.get())
            .and_then(|maxima| maxima.of(&req.raw_field, req.derived, req.timestep));
        let mut tasks: Vec<ScanTask> = Vec::new();
        let mut atoms_pruned = 0u64;
        for c in req.assignment.chunks_of(self.id) {
            let grid_box = c.grid_box();
            // each clip with the floor an octant's maximum must reach to be
            // read for it: a point reducer's threshold; a histogram has none
            let (mut clips, mut floors) = (Vec::new(), Vec::new());
            for &i in &pending {
                let (Some(part), Some(slot)) = (req.participants.get(i), slots.get(i)) else {
                    continue;
                };
                if let Some(clip) = grid_box.intersect(&part.query_box) {
                    let floor = match slot.reducer {
                        Reducer::Points { threshold, .. } => Some(threshold),
                        Reducer::Hist(_) => None,
                    };
                    clips.push((i, clip));
                    floors.push((floor, clip));
                }
            }
            let Some(&(_, first)) = clips.first() else {
                continue;
            };
            let hull = clips.iter().skip(1).fold(first, |d, (_, b)| d.hull(b));
            let domains = surviving_domains(maxima, &hull, &floors, |b| reach_of(b).0);
            let (halo, reach) = reach_of(&hull);
            let unpruned =
                reached_atoms(&hull, halo, reach, grid.dims(), grid.periodic).len() as u64;
            if domains.is_empty() {
                atoms_pruned += unpruned;
                continue;
            }
            tasks.push(ScanTask {
                domains,
                clips,
                unpruned,
            });
        }

        // reduced clips, kernel seconds, device charges, atoms, atoms saved,
        // atoms pruned
        type TaskOutcome = (Vec<(usize, Reducer)>, f64, IoSession, u64, u64, u64);
        let peak_scratch = AtomicUsize::new(0);
        let results: Vec<StorageResult<TaskOutcome>> =
            run_workers(req.procs, tasks, |scratch: &mut ScanScratch, task| {
                let mut chunk_session = IoSession::new();
                let mut outs: Vec<(usize, Reducer)> = (task.clips.iter())
                    .filter_map(|&(i, _)| Some((i, slots.get(i)?.reducer.clone())))
                    .collect();
                // per domain, the clips that meet it and the reducer each feeds
                let rows: Vec<Vec<(ClipRows, usize)>> = (task.domains.iter())
                    .map(|domain| {
                        (task.clips.iter().enumerate())
                            .filter_map(|(r, (_, clip))| {
                                let clip = clip.intersect(domain)?;
                                Some((ClipRows::new(domain, &clip), r))
                            })
                            .collect()
                    })
                    .collect();
                // one pass: each derived row meets every clip's reducer as
                // it appears; the derived field is never stored
                let (chunk_atoms, cpu_s) = self.derive_domains(
                    &req.assignment.layout,
                    peers,
                    &req.raw_field,
                    req.timestep,
                    &task.domains,
                    derived,
                    scratch,
                    &mut chunk_session,
                    |d, _, y, z, row| {
                        for (clip, r) in rows.get(d).into_iter().flatten() {
                            let (Some((sub, global)), Some((_, reducer))) =
                                (clip.slice(y, z, row), outs.get_mut(*r))
                            else {
                                continue;
                            };
                            match reducer {
                                Reducer::Points { threshold, points } => {
                                    threshold_scan_row(sub, global, *threshold, points)
                                }
                                Reducer::Hist(hist) => pdf_scan_row(sub, hist),
                            }
                        }
                    },
                )?;
                let saved = chunk_atoms * (task.clips.len() as u64 - 1);
                let pruned = task.unpruned.saturating_sub(chunk_atoms);
                peak_scratch.fetch_max(
                    scratch.padded.heap_bytes() + std::mem::size_of_val(&*scratch.rows),
                    Ordering::Relaxed,
                );
                // when set, a deterministic per-point cost replaces the
                // measurement, making the time model load-immune
                let compute_s = match self.env.config.synthetic_compute_s_per_point {
                    Some(rate) => {
                        let points: u64 = task.domains.iter().map(Box3::num_points).sum();
                        points as f64 * rate
                    }
                    None => cpu_s * self.env.config.compute_scale,
                };
                Ok((outs, compute_s, chunk_session, chunk_atoms, saved, pruned))
            });
        // a scan its maxima pruned whole assembled nothing to report
        let peak_scratch = peak_scratch.into_inner();
        if peak_scratch > 0 {
            m::SCAN_SCRATCH_BYTES.set(peak_scratch as i64);
        }

        let mut shared_session = IoSession::new();
        let mut chunk_compute = Vec::with_capacity(results.len());
        let mut atoms_scanned = 0u64;
        let mut atoms_saved = 0u64;
        for r in results {
            let (outs, compute_s, chunk_session, chunk_atoms, saved, pruned) = r?;
            for (i, out) in outs {
                if let Some(slot) = slots.get_mut(i) {
                    slot.reducer.merge(out);
                }
            }
            chunk_compute.push(compute_s);
            atoms_scanned += chunk_atoms;
            atoms_saved += saved;
            atoms_pruned += pruned;
            shared_session.merge(&chunk_session);
        }
        // --- serial-phase timing (DESIGN.md §4) --------------------------
        let model = NodeTimeModel::from_chunk_compute(chunk_compute);
        if pending.len() >= 2 {
            m::SCAN_SHARED.inc();
            m::SCAN_COALESCED_QUERIES.add((pending.len() - 1) as u64);
            m::SCAN_ATOMS_SAVED.add(atoms_saved);
        }
        m::NODE_ATOMS_SCANNED.add(atoms_scanned);
        m::SCAN_ATOMS_PRUNED.add(atoms_pruned);

        // --- per-participant assembly and cache fills --------------------
        let mut report = IoSession::new();
        report.merge(&shared_session);
        let mut outcomes = Vec::with_capacity(slots.len());
        for (part, slot) in req.participants.iter().zip(slots) {
            if let Some(outcome) = slot.outcome {
                outcomes.push(outcome);
                continue;
            }
            let mut session = slot.probe_session;
            report.merge(&session);
            session.merge(&shared_session);
            let mut fill_session = IoSession::new();
            // the points stay in scan order: the cache sorts its own copy
            // and the mediator every answer
            let (points, histogram) = match slot.reducer {
                Reducer::Points { threshold, points } => {
                    if slot.cached {
                        self.cache.insert(
                            &key,
                            part.query_box,
                            threshold,
                            &points,
                            &mut fill_session,
                        );
                        if slot.healing {
                            m::CACHE_SEMANTIC_REBUILT.inc();
                        }
                    }
                    (points, None)
                }
                Reducer::Hist(hist) => {
                    if slot.cached {
                        let (origin, width, nbins) = hist.binning();
                        let pdf_key = PdfKey::new(key.clone(), origin, width, nbins as u32);
                        self.pdf_cache.insert(
                            &pdf_key,
                            part.query_box,
                            hist.counts().to_vec(),
                            &mut fill_session,
                        );
                    }
                    (Vec::new(), Some(hist))
                }
            };
            session.merge(&fill_session);
            report.merge(&fill_session);
            outcomes.push(SharedOutcome {
                result: NodeResult {
                    points,
                    cache_hit: false,
                    cache_lookup_s: slot.cache_lookup_s,
                    wall_s: wall.elapsed().as_secs_f64(),
                    atoms_scanned,
                    atoms_pruned,
                    model,
                    session,
                },
                histogram,
            });
        }
        self.report_session(&report);
        Ok(outcomes)
    }

    /// Mirrors a subquery's device charges into the global metrics
    /// registry as `io.ops.<device>` / `io.bytes.<device>` counters.
    fn report_session(&self, session: &IoSession) {
        for (dev, access) in session.devices() {
            if let Some((ops, bytes)) = self.io_counters.get(dev.0 as usize) {
                ops.add(access.ops);
                bytes.add(access.bytes);
            }
        }
    }
}

/// The one fan-out: runs up to `procs` workers over the task list — a
/// node's chunks, a scatter wave's scans — and returns the per-task
/// outcomes in task order. Each task goes to one worker, which owns one
/// `S` for all the tasks it handles; a task that panics is an
/// [`StorageError::internal`] outcome, not a lost thread.
pub(crate) fn run_workers<I: Send, S: Default, T: Send>(
    procs: usize,
    tasks: Vec<I>,
    work: impl Fn(&mut S, I) -> StorageResult<T> + Sync,
) -> Vec<StorageResult<T>> {
    // the time model scales with the *requested* process count; the
    // real thread count is capped at the hardware so CPU-time
    // measurements stay clean. Asked once per process: on Linux every
    // call re-reads the affinity mask and the cgroup files (~12 µs)
    static HW: OnceLock<usize> = OnceLock::new();
    let hw = *HW.get_or_init(|| std::thread::available_parallelism().map_or(8, |n| n.get()));
    let n = tasks.len();
    let procs = procs.max(1).min(hw).min(n);
    let next = Mutex::new(tasks.into_iter().enumerate());
    let out: Mutex<Vec<(usize, StorageResult<T>)>> = Mutex::new(Vec::with_capacity(n));
    let worker = || {
        let mut state = S::default();
        loop {
            let Some((i, task)) = next.lock().next() else {
                break;
            };
            // what a panic leaves in `state` is not trusted: the worker
            // starts its next task from a fresh one
            let attempt = catch_unwind(AssertUnwindSafe(|| work(&mut state, task)));
            let r = attempt.unwrap_or_else(|_| {
                m::NODE_WORKER_PANICS.inc();
                state = S::default();
                Err(StorageError::internal("evaluation worker panicked"))
            });
            out.lock().push((i, r));
        }
    };
    // the calling thread is the first worker: a one-task fan-out spawns
    // nothing, and any other touches one thread (and allocator arena) fewer
    std::thread::scope(|scope| {
        for _ in 1..procs {
            m::NODE_WORKER_THREADS.inc();
            scope.spawn(worker);
        }
        worker();
    });
    let mut results = out.into_inner();
    results.sort_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// RAII increment of the `node.active_subqueries` gauge.
struct ActiveGuard;

impl ActiveGuard {
    fn new() -> Self {
        m::NODE_ACTIVE_SUBQUERIES.inc();
        Self
    }
}

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        m::NODE_ACTIVE_SUBQUERIES.dec();
    }
}

/// What one scan worker reuses from chunk to chunk: the padded input cube
/// and the partial-derivative rows of the derive kernels. This is all the
/// memory a chunk's evaluation takes besides its answers.
#[derive(Default)]
pub(crate) struct ScanScratch {
    padded: PaddedVector<3>,
    rows: Vec<f32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::ScanAssignment;
    use tdb_field::ScalarField;
    use tdb_kernels::DerivedField;

    /// The kernel scan over a whole domain, collecting the point type the
    /// node pipeline collects.
    fn threshold_scan(norm: &ScalarField, domain: &Box3, threshold: f64) -> Vec<ThresholdPoint> {
        let mut hits = Vec::new();
        tdb_kernels::scan::threshold_scan_clip(norm, domain, domain, threshold, &mut hits);
        hits.into_iter().map(ThresholdPoint::from).collect()
    }

    #[test]
    fn threshold_scan_finds_exact_points() {
        let mut f = ScalarField::zeros(4, 4, 4);
        f.set(1, 2, 3, 5.0);
        f.set(0, 0, 0, 4.9);
        let domain = Box3::new([8, 8, 8], [11, 11, 11]);
        let pts = threshold_scan(&f, &domain, 5.0);
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].coords(), (9, 10, 11));
        assert_eq!(pts[0].value, 5.0);
        // threshold is inclusive
        let pts = threshold_scan(&f, &domain, 4.9);
        assert_eq!(pts.len(), 2);
    }

    #[test]
    fn threshold_scan_compares_in_f64() {
        // 25.000000001 is not representable in f32: it rounds to exactly
        // 25.0, so an f32 comparison would wrongly admit a 25.0 point.
        // The warm-path cache filter compares in f64 and would then drop
        // it, making warm results differ from cold ones.
        let mut f = ScalarField::zeros(2, 2, 2);
        f.set(0, 0, 0, 25.0);
        f.set(1, 1, 1, 26.0);
        let domain = Box3::new([0, 0, 0], [1, 1, 1]);
        let thr = 25.000000001_f64;
        assert_eq!(thr as f32, 25.0_f32, "threshold must round to 25 in f32");
        let pts = threshold_scan(&f, &domain, thr);
        assert_eq!(pts.len(), 1, "the 25.0 point must be excluded");
        assert_eq!(pts[0].value, 26.0);
    }

    /// A task that panics is an `Internal` outcome in its own slot and one
    /// `node.worker_panics`; every other task's result is intact and in
    /// task order.
    #[test]
    fn a_panicking_task_is_an_internal_error_in_its_own_slot_and_one_count() {
        let before = m::NODE_WORKER_PANICS.get();
        let tasks: Vec<u32> = (0..9).collect();
        let results = run_workers(2, tasks.clone(), |_: &mut (), task| {
            assert_ne!(task, 4, "the seeded panic");
            Ok(10 * task)
        });
        assert_eq!(m::NODE_WORKER_PANICS.get() - before, 1);
        assert_eq!(results.len(), tasks.len());
        for (task, r) in tasks.iter().zip(&results) {
            match r {
                Err(StorageError::Internal { .. }) if *task == 4 => {}
                Ok(v) if *task != 4 => assert_eq!(*v, 10 * task),
                other => panic!("task {task}: {other:?}"),
            }
        }
    }

    #[test]
    fn cache_key_includes_derived_field() {
        let layout = Arc::new(crate::placement::Layout::new((8, 8, 8), 1, 1));
        let q = SharedScanRequest {
            dataset: "mhd".into(),
            raw_field: "velocity".into(),
            derived: DerivedField::CurlNorm,
            timestep: 3,
            mode: QueryMode::Full,
            procs: 1,
            participants: Vec::new(),
            assignment: Arc::new(ScanAssignment::canonical(&layout)),
        };
        let k = q.cache_key();
        assert_eq!(k.field, "velocity/curl_norm");
        assert_eq!(k.timestep, 3);
    }
}
