//! Per-node query evaluation.
//!
//! A node holds a partitioned table per raw field (over every chunk it
//! stores a replica of), a buffer pool, and a semantic cache on its SSD.
//! Threshold subqueries follow Algorithm 1: probe the cache, otherwise
//! evaluate from the raw data chunk-by-chunk with `procs` worker
//! processes and update the cache.
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
    CacheConfig, CacheLookup, PdfCache, PdfKey, PdfLookup, SemanticCache, ThresholdPoint,
};
use tdb_field::{Histogram, PaddedVector};
use tdb_kernels::scan::{pdf_scan_row, threshold_scan_row, ClipRows};
use tdb_obs::m;
use tdb_storage::device::{DeviceId, IoSession};
use tdb_storage::{AtomRecord, BlockCache, StorageError, StorageResult, Table};
use tdb_zorder::Box3;

use crate::assemble::{assemble_padded_into, needed_atoms};
use crate::cputime::thread_cpu_time_s;
use crate::scan::{ScanKernel, SharedOutcome, SharedScanRequest};
use crate::sim::NodeTimeModel;
use crate::topology::{routed_read, ClusterEnv, NodeDevices};

/// Whether a query does real work or only the disk reads (Fig. 8's
/// "I/O only" series).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMode {
    Full,
    IoOnly,
}

/// Outcome of one node's threshold subquery.
#[derive(Debug, Default)]
pub struct NodeResult {
    pub points: Vec<ThresholdPoint>,
    pub cache_hit: bool,
    /// Modelled + measured cache-probe time.
    pub cache_lookup_s: f64,
    /// Modelled I/O phase at the configured process count: what this
    /// node's own rack served for the query, whoever asked (DESIGN.md §4).
    /// Only the mediator sees every node's reads, so the node reports 0
    /// here and in the I/O half of [`Self::model`], and the mediator
    /// fills both in when the scatter wave has answered.
    pub io_s: f64,
    /// Modelled compute residency (total pipeline − I/O schedule), i.e.
    /// the measured kernel time as overlapped by the worker pipeline.
    pub compute_s: f64,
    /// Raw measured wall-clock of the node evaluation.
    pub wall_s: f64,
    /// Atoms fetched (local + halo) while evaluating from raw data.
    pub atoms_scanned: u64,
    /// Closed-form time model of this node's scan (zero on cache hits);
    /// lets callers evaluate `t(p)` at any process count from one run.
    pub model: NodeTimeModel,
    /// Device accesses of the whole subquery.
    pub session: IoSession,
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
    /// stores an atom go through [`routed_read`].
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

    /// Evaluates a group of queries against one shared atom scan.
    ///
    /// Every participant's cache is probed first; the remaining misses
    /// share one pass over this node's chunks. Per chunk the scanned
    /// domain is the hull of all pending clips, so each atom is fetched
    /// and each derived field evaluated exactly once, then every pending
    /// kernel is applied over its own clip. Results are byte-identical to
    /// independent execution (kernels are pointwise over halo stencils),
    /// and every cache-eligible participant's entry is filled afterwards.
    ///
    /// Caches are only consulted (or filled) when the assignment is
    /// canonical: entries are keyed by the full query box but hold
    /// exactly this node's primary points, so a failover re-scan of
    /// another node's chunks must bypass them in both directions.
    pub fn evaluate_shared(
        &self,
        peers: &[Option<Arc<NodeRuntime>>],
        req: &SharedScanRequest,
    ) -> StorageResult<Vec<SharedOutcome>> {
        self.check_available()?;
        let _active = ActiveGuard::new();
        let wall = Instant::now();
        let key = req.cache_key();
        let cacheable = req.assignment.canonical;

        #[derive(Default)]
        struct Slot {
            outcome: Option<SharedOutcome>,
            cache_lookup_s: f64,
            probe_session: IoSession,
            healing: bool,
        }
        fn take_outcome(s: Slot) -> StorageResult<SharedOutcome> {
            s.outcome
                .ok_or_else(|| StorageError::internal("participant slot never produced an outcome"))
        }
        let mut slots: Vec<Slot> = req.participants.iter().map(|_| Slot::default()).collect();

        // --- per-participant cache probes --------------------------------
        for (slot, part) in slots.iter_mut().zip(&req.participants) {
            if !part.use_cache || !cacheable {
                continue;
            }
            let probe = thread_cpu_time_s();
            let mut probe_session = IoSession::new();
            let found = match &part.kernel {
                ScanKernel::Threshold { threshold } => {
                    match self
                        .cache
                        .lookup(&key, &part.query_box, *threshold, &mut probe_session)
                    {
                        CacheLookup::Hit(points) => Some((points, None)),
                        // a quarantined entry falls through to the raw
                        // evaluation, whose insert below rebuilds it
                        CacheLookup::Quarantined => {
                            slot.healing = true;
                            None
                        }
                        CacheLookup::Miss => None,
                    }
                }
                ScanKernel::Pdf {
                    origin,
                    width,
                    nbins,
                } => {
                    let pdf_key = PdfKey::new(key.clone(), *origin, *width, *nbins as u32);
                    match self
                        .pdf_cache
                        .lookup(&pdf_key, &part.query_box, &mut probe_session)
                    {
                        PdfLookup::Hit(counts) => {
                            let mut hist = Histogram::new(*origin, *width, *nbins);
                            hist.set_counts(&counts);
                            Some((Vec::new(), Some(hist)))
                        }
                        PdfLookup::Miss => None,
                    }
                }
                ScanKernel::TopK => continue,
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

        let pending: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.outcome.is_none())
            .map(|(i, _)| i)
            .collect();
        if pending.is_empty() {
            return slots.into_iter().map(take_outcome).collect();
        }

        // --- shared scan over all pending participants -------------------
        // per chunk, scan the hull of every pending clip so each atom is
        // decoded once no matter how many queries need it
        struct ScanTask {
            domain: Box3,
            clips: Vec<(usize, Box3)>,
        }
        let mut tasks: Vec<ScanTask> = Vec::new();
        for c in req.assignment.chunks_of(self.id) {
            let grid_box = c.grid_box();
            let mut clips = Vec::new();
            for &i in &pending {
                let Some(part) = req.participants.get(i) else {
                    continue;
                };
                if let Some(clip) = grid_box.intersect(&part.query_box) {
                    clips.push((i, clip));
                }
            }
            let Some(&(_, first)) = clips.first() else {
                continue;
            };
            let domain = clips.iter().skip(1).fold(first, |d, (_, b)| d.hull(b));
            tasks.push(ScanTask { domain, clips });
        }

        // what a clip reduces its part of the derived rows to
        enum Reducer {
            Points {
                threshold: f64,
                points: Vec<ThresholdPoint>,
            },
            Hist(Histogram),
        }
        // reduced clips, kernel seconds, device charges, atoms, atoms saved
        type TaskOutcome = (Vec<(usize, ClipRows, Reducer)>, f64, IoSession, u64, u64);
        let grid = &self.env.grid;
        let halo = req.derived.halo(&self.env.scheme);
        let peak_scratch = AtomicUsize::new(0);
        let results: Vec<StorageResult<TaskOutcome>> =
            run_workers(req.procs, &tasks, |scratch: &mut ScanScratch, task| {
                let mut chunk_session = IoSession::new();
                // I/O-only probes (Fig. 8) read exactly what the full
                // evaluation reads — boundary bands included — they just
                // skip the kernel
                let atoms = routed_read(
                    &req.assignment.layout,
                    peers,
                    Some(self),
                    &req.raw_field,
                    req.timestep,
                    needed_atoms(&task.domain, halo, grid.dims(), grid.periodic),
                    &mut chunk_session,
                )?;
                let chunk_atoms = atoms.len() as u64;
                let saved = chunk_atoms * (task.clips.len() as u64 - 1);
                let mut outs: Vec<(usize, ClipRows, Reducer)> = Vec::new();
                let mut compute_s = 0.0;
                if req.mode == QueryMode::Full {
                    let c0 = thread_cpu_time_s();
                    assemble_padded_into(
                        &mut scratch.padded,
                        &task.domain,
                        halo,
                        grid.dims(),
                        grid.periodic,
                        &atoms,
                    )?;
                    // the records are copied into the cube: release them
                    // before the answers start to grow
                    drop(atoms);
                    for (i, clip) in &task.clips {
                        let Some(part) = req.participants.get(*i) else {
                            continue;
                        };
                        let reducer = match &part.kernel {
                            ScanKernel::Threshold { threshold } => Reducer::Points {
                                threshold: *threshold,
                                points: Vec::new(),
                            },
                            // the mediator keeps the k best; nodes collect
                            // every point of the clip, so its size is known
                            ScanKernel::TopK => Reducer::Points {
                                threshold: f64::NEG_INFINITY,
                                points: Vec::with_capacity(clip.num_points() as usize),
                            },
                            ScanKernel::Pdf {
                                origin,
                                width,
                                nbins,
                            } => Reducer::Hist(Histogram::new(*origin, *width, *nbins)),
                        };
                        outs.push((*i, ClipRows::new(&task.domain, clip), reducer));
                    }
                    // one pass: each derived row meets every clip's reducer
                    // as it appears; the derived field is never stored
                    let (dlx, dly, dlz) = task.domain.lo3();
                    req.derived.eval_rows(
                        &scratch.padded,
                        &self.env.scheme,
                        [dlx as usize, dly as usize, dlz as usize],
                        &mut scratch.rows,
                        |y, z, row| {
                            for (_, clip, reducer) in &mut outs {
                                let Some((sub, global)) = clip.slice(y, z, row) else {
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
                    );
                    peak_scratch.fetch_max(
                        scratch.padded.heap_bytes() + std::mem::size_of_val(&*scratch.rows),
                        Ordering::Relaxed,
                    );
                    let measured =
                        (thread_cpu_time_s() - c0).max(0.0) * self.env.config.compute_scale;
                    // when set, a deterministic per-point cost replaces the
                    // measurement, making the time model load-immune
                    compute_s = match self.env.config.synthetic_compute_s_per_point {
                        Some(rate) => task.domain.num_points() as f64 * rate,
                        None => measured,
                    };
                }
                Ok((outs, compute_s, chunk_session, chunk_atoms, saved))
            });
        if req.mode == QueryMode::Full {
            m::SCAN_SCRATCH_BYTES.set(peak_scratch.into_inner() as i64);
        }

        let mut acc_points: Vec<Vec<ThresholdPoint>> =
            (0..slots.len()).map(|_| Vec::new()).collect();
        let mut acc_hist: Vec<Option<Histogram>> = (0..slots.len()).map(|_| None).collect();
        let mut shared_session = IoSession::new();
        let mut chunk_compute = Vec::with_capacity(results.len());
        let mut atoms_scanned = 0u64;
        let mut atoms_saved = 0u64;
        for r in results {
            let (outs, compute_s, chunk_session, chunk_atoms, saved) = r?;
            for (i, _, out) in outs {
                match out {
                    Reducer::Points { mut points, .. } => match acc_points.get_mut(i) {
                        Some(acc) if acc.is_empty() => *acc = points,
                        Some(acc) => acc.append(&mut points),
                        None => {}
                    },
                    Reducer::Hist(h) => match acc_hist.get_mut(i) {
                        Some(Some(acc)) => acc.merge(&h),
                        Some(slot) => *slot = Some(h),
                        None => {}
                    },
                }
            }
            chunk_compute.push(compute_s);
            atoms_scanned += chunk_atoms;
            atoms_saved += saved;
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

        // --- per-participant assembly and cache fills --------------------
        let mut report = IoSession::new();
        report.merge(&shared_session);
        for &i in &pending {
            let (Some(part), Some(slot)) = (req.participants.get(i), slots.get_mut(i)) else {
                continue;
            };
            let mut session = IoSession::new();
            session.merge(&slot.probe_session);
            session.merge(&shared_session);
            report.merge(&slot.probe_session);
            let mut points = acc_points
                .get_mut(i)
                .map(std::mem::take)
                .unwrap_or_default();
            let mut histogram = None;
            let fill = part.use_cache && cacheable && req.mode == QueryMode::Full;
            let mut fill_session = IoSession::new();
            match &part.kernel {
                ScanKernel::Threshold { threshold } => {
                    points.sort_unstable_by_key(|p| p.zindex);
                    if fill {
                        self.cache.insert(
                            &key,
                            part.query_box,
                            *threshold,
                            &points,
                            &mut fill_session,
                        );
                        if slot.healing {
                            m::CACHE_SEMANTIC_REBUILT.inc();
                        }
                    }
                }
                // the mediator orders top-k candidates itself (by value)
                ScanKernel::TopK => {}
                ScanKernel::Pdf {
                    origin,
                    width,
                    nbins,
                } => {
                    let hist = acc_hist
                        .get_mut(i)
                        .and_then(Option::take)
                        .unwrap_or_else(|| Histogram::new(*origin, *width, *nbins));
                    if fill {
                        let pdf_key = PdfKey::new(key.clone(), *origin, *width, *nbins as u32);
                        self.pdf_cache.insert(
                            &pdf_key,
                            part.query_box,
                            hist.counts().to_vec(),
                            &mut fill_session,
                        );
                    }
                    histogram = Some(hist);
                }
            }
            session.merge(&fill_session);
            report.merge(&fill_session);
            slot.outcome = Some(SharedOutcome {
                result: NodeResult {
                    points,
                    cache_hit: false,
                    cache_lookup_s: slot.cache_lookup_s,
                    // the mediator's to fill in (DESIGN.md §4)
                    io_s: 0.0,
                    compute_s: model.compute_s(req.procs),
                    wall_s: wall.elapsed().as_secs_f64(),
                    atoms_scanned,
                    model,
                    session,
                },
                histogram,
            });
        }
        self.report_session(&report);
        slots.into_iter().map(take_outcome).collect()
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
/// node's chunks, a scatter wave's nodes — and returns the per-task
/// outcomes in task order. Each worker owns one `S` for all the tasks it
/// handles; a task that panics is an [`StorageError::internal`] outcome,
/// not a lost thread.
pub(crate) fn run_workers<I: Sync, S: Default, T: Send>(
    procs: usize,
    tasks: &[I],
    work: impl Fn(&mut S, &I) -> StorageResult<T> + Sync,
) -> Vec<StorageResult<T>> {
    // the time model scales with the *requested* process count; the
    // real thread count is capped at the hardware so CPU-time
    // measurements stay clean. Asked once per process: on Linux every
    // call re-reads the affinity mask and the cgroup files (~12 µs)
    static HW: OnceLock<usize> = OnceLock::new();
    let hw = *HW.get_or_init(|| std::thread::available_parallelism().map_or(8, |n| n.get()));
    let procs = procs.max(1).min(hw);
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<(usize, StorageResult<T>)>> = Mutex::new(Vec::with_capacity(tasks.len()));
    let worker = || {
        let mut state = S::default();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(task) = tasks.get(i) else { break };
            // what a panic leaves in `state` is not trusted: the worker
            // starts its next task from a fresh one
            let attempt = catch_unwind(AssertUnwindSafe(|| work(&mut state, task)));
            let r = attempt.unwrap_or_else(|_| {
                state = S::default();
                Err(StorageError::internal("evaluation worker panicked"))
            });
            out.lock().push((i, r));
        }
    };
    // the calling thread is the first worker: a one-task fan-out spawns
    // nothing, and any other touches one thread (and allocator arena) fewer
    std::thread::scope(|scope| {
        for _ in 1..procs.min(tasks.len()) {
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
struct ScanScratch {
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
