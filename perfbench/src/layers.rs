//! The traced run: a seeded sample of the workload's queries, each
//! executed at successive altitudes with a span around every call into a
//! layer's public functions.
//!
//! Altitudes, top down: `Client` over TCP → `handle_line_admitted` →
//! `TurbulenceService::get_*` → `Cluster::get_*` → `evaluate_shared` on
//! each node in turn (`procs` = 1) → the node pipeline re-issued by hand
//! (`needed_atoms` → `fetch_atoms` → `assemble_padded` → `DerivedField::eval`
//! → scan kernels → cache lookup/insert). The sample is replayed a
//! block of queries at a time, the block at one altitude after the other:
//! a slow stretch of the machine hits a parent and its children alike,
//! every altitude starts the block from the same semantic-cache entries
//! and (near enough) the same buffer-pool contents, so every altitude
//! does the same work, and every altitude's answer is checked against
//! the oracle.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use tdb_cache::{CacheInfoKey, CacheLookup, PdfKey, PdfLookup, ThresholdPoint};
use tdb_cluster::assemble::{assemble_padded, needed_atoms};
use tdb_cluster::mediator::ThresholdRequest;
use tdb_cluster::node::NodeRuntime;
use tdb_cluster::{
    Layout, QueryMode, ScanAssignment, ScanKernel, ScanParticipant, SharedScanRequest,
};
use tdb_core::ThresholdQuery;
use tdb_field::Histogram;
use tdb_kernels::interp::{interpolate, LagOrder};
use tdb_kernels::scan::{pdf_scan_clip, threshold_scan_clip};
use tdb_kernels::DiffScheme;
use tdb_storage::{AtomRecord, IoSession};
use tdb_wire::server::{handle_line_admitted, ServerState};
use tdb_wire::{Request, Response};
use tdb_zorder::Box3;

use crate::oracle::{digest, Answer};
use crate::stats;
use crate::trace::{Layer, Recorder};
use crate::workload::{field_name, Clear, Prime, Query, Region, Tier, LAG_WIDTH, PDF_BINS, TOPK};
use crate::world::World;

/// A scan-shaped query (threshold, PDF or top-k) spelled out for the
/// cluster and node interfaces.
struct ScanSpec {
    raw_field: &'static str,
    derived: tdb_core::DerivedField,
    timestep: u32,
    query_box: Box3,
    kernel: ScanKernel,
}

impl ScanSpec {
    fn request(&self) -> ThresholdRequest {
        ThresholdRequest {
            raw_field: self.raw_field.to_string(),
            derived: self.derived,
            timestep: self.timestep,
            query_box: self.query_box,
            threshold: match self.kernel {
                ScanKernel::Threshold { threshold } => threshold,
                _ => 0.0,
            },
            use_cache: true,
            mode: QueryMode::Full,
            procs_override: None,
            strict: false,
            node_deadline_s: None,
        }
    }

    fn uses_cache(&self) -> bool {
        !matches!(self.kernel, ScanKernel::TopK)
    }
}

/// One node's share of a scan answer.
#[derive(Default)]
struct NodePart {
    points: Vec<ThresholdPoint>,
    histogram: Option<Histogram>,
    cache_hit: bool,
}

/// Exact atom counts of the hand-replayed scans.
#[derive(Debug, Default, Clone, Copy)]
pub struct AtomCounts {
    /// Atoms fetched (inside the clip plus halo band).
    pub fetched: u64,
    /// Atoms inside the clipped query boxes themselves.
    pub inside: u64,
    /// Fetched atoms that another node stores.
    pub remote: u64,
}

/// Durations of one altitude, one entry per replayed query.
#[derive(Debug, Default, Clone)]
pub struct ReplayTimes {
    pub untraced_rtt_s: Vec<f64>,
    pub rtt_s: Vec<f64>,
    pub handle_s: Vec<f64>,
    pub service_s: Vec<f64>,
    pub cluster_s: Vec<f64>,
    /// `Σ evaluate_shared` over the nodes; 0 for point queries.
    pub node_sum_s: Vec<f64>,
    /// Node evaluations the mediator overlaps for this query.
    pub par: Vec<f64>,
}

pub struct ReplayReport {
    pub queries: Vec<Query>,
    pub recorder: Recorder,
    pub times: ReplayTimes,
    /// Counter deltas of the process-wide registry over the traced
    /// `Client` altitude (one client, so they are exact per query).
    pub counters: BTreeMap<String, u64>,
    /// `Σ cache_hits`, `Σ nodes` of the threshold answers at the `Client`
    /// altitude.
    pub cache_hits: (u64, u64),
    pub atoms: AtomCounts,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

pub struct Replay<'w> {
    world: &'w World,
    state: ServerState,
    scheme: DiffScheme,
    layout: Arc<Layout>,
    nodes: Vec<Arc<NodeRuntime>>,
    peers: Vec<Option<Arc<NodeRuntime>>>,
    dataset: String,
    nproc: usize,
    rec: Recorder,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl<'w> Replay<'w> {
    pub fn new(world: &'w World) -> Self {
        let cluster = world.service.cluster();
        let nodes = cluster.nodes();
        Replay {
            world,
            // a second admission queue in front of the same service, as
            // `Server::start` builds one
            state: ServerState::new(Arc::clone(&world.service), 256 << 20),
            scheme: DiffScheme::new(cluster.grid(), cluster.config().fd_order),
            layout: cluster.layout(),
            peers: nodes.iter().cloned().map(Some).collect(),
            nodes,
            dataset: cluster.dataset().to_string(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rec: Recorder::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    fn verify(
        &mut self,
        altitude: &str,
        q: &Query,
        answer: Result<Answer, String>,
    ) -> Option<Answer> {
        self.attempted += 1;
        let verdict = answer.and_then(|a| self.world.oracle.check(q, &a).map(|()| a));
        match verdict {
            Ok(a) => Some(a),
            Err(e) => {
                self.failed += 1;
                if self.failures.len() < 5 {
                    self.failures.push(format!("{altitude}: {e}"));
                }
                None
            }
        }
    }

    /// Re-inserts `key`'s semantic-cache entry by hand, node by node, as
    /// the answer to a threshold query over `region` at `tier` would have
    /// left it: each node holds its own points of the oracle's answer.
    fn restore_entry(&self, key: usize, region: Region, tier: Tier) {
        let k = self.world.key(key);
        let mut by_node: Vec<Vec<ThresholdPoint>> = vec![Vec::new(); self.nodes.len()];
        for (zindex, value) in self.world.oracle.expected_points(key, tier, region) {
            let (x, y, z) = tdb_zorder::decode3(zindex);
            let owner = self
                .layout
                .node_of_atom(tdb_zorder::AtomCoord::containing(x, y, z));
            if let Some(slot) = by_node.get_mut(owner) {
                slot.push(ThresholdPoint { zindex, value });
            }
        }
        let cache_key = self.cache_key(k.field_name(), k.derived, k.timestep);
        for (node, points) in self.nodes.iter().zip(&by_node) {
            node.cache.insert(
                &cache_key,
                region.to_box(self.world.oracle.grid()),
                self.world.oracle.threshold(key, tier),
                points,
                &mut IoSession::new(),
            );
        }
    }

    /// Whether an entry left by `(region, tier)` answers a query for
    /// `(q_region, q_tier)`: Algorithm 1's rule, from the oracle's numbers.
    fn covers(&self, key: usize, entry: (Region, Tier), q_region: Region, q_tier: Tier) -> bool {
        let inside = entry.0 == Region::Whole || entry.0 == q_region;
        inside
            && self.world.oracle.threshold(key, entry.1) <= self.world.oracle.threshold(key, q_tier)
    }

    fn cache_key(
        &self,
        raw_field: &str,
        derived: tdb_core::DerivedField,
        timestep: u32,
    ) -> CacheInfoKey {
        CacheInfoKey {
            dataset: self.dataset.clone(),
            field: format!("{raw_field}/{}", derived.name()),
            timestep,
        }
    }

    fn scan_spec(&self, q: &Query) -> Option<ScanSpec> {
        let n = self.world.oracle.grid();
        let (key, query_box, kernel) = match *q {
            Query::Threshold { key, tier, region } => (
                key,
                region.to_box(n),
                ScanKernel::Threshold {
                    threshold: self.world.oracle.threshold(key, tier),
                },
            ),
            Query::Pdf { key } => (
                key,
                Box3::cube(n),
                ScanKernel::Pdf {
                    origin: 0.0,
                    width: self.world.oracle.pdf_width(key),
                    nbins: PDF_BINS as usize,
                },
            ),
            Query::TopK { key } => (key, Box3::cube(n), ScanKernel::TopK),
            Query::Points { .. } => return None,
        };
        let k = self.world.key(key);
        Some(ScanSpec {
            raw_field: k.field_name(),
            derived: k.derived,
            timestep: k.timestep,
            query_box,
            kernel,
        })
    }

    /// The wire request of a query, as `Client` would build it.
    pub fn wire_request(world: &World, q: &Query) -> Request {
        let n = world.oracle.grid();
        match *q {
            Query::Threshold { key, tier, region } => {
                let k = world.key(key);
                Request::GetThreshold {
                    raw_field: k.field_name().to_string(),
                    derived: k.derived,
                    timestep: k.timestep,
                    query_box: region.wire_box(n),
                    threshold: world.oracle.threshold(key, tier),
                    use_cache: true,
                }
            }
            Query::Pdf { key } => {
                let k = world.key(key);
                Request::GetPdf {
                    raw_field: k.field_name().to_string(),
                    derived: k.derived,
                    timestep: k.timestep,
                    origin: 0.0,
                    bin_width: world.oracle.pdf_width(key),
                    nbins: PDF_BINS,
                }
            }
            Query::TopK { key } => {
                let k = world.key(key);
                Request::GetTopK {
                    raw_field: k.field_name().to_string(),
                    derived: k.derived,
                    timestep: k.timestep,
                    k: TOPK,
                }
            }
            Query::Points {
                field,
                timestep,
                set,
            } => Request::GetPoints {
                raw_field: field_name(field).to_string(),
                timestep,
                lag_width: LAG_WIDTH,
                positions: world.oracle.positions(set).to_vec(),
            },
        }
    }

    fn answer_of(response: Response) -> Result<Answer, String> {
        match response {
            Response::Threshold {
                points,
                breakdown,
                cache_hits,
                nodes,
                degraded,
            } => Ok(Answer::threshold(
                points,
                cache_hits,
                nodes,
                &breakdown,
                degraded.is_some(),
            )),
            Response::Pdf {
                counts, degraded, ..
            } => Ok(Answer::Pdf {
                counts,
                degraded: degraded.is_some(),
            }),
            Response::TopK { points, degraded } => Ok(Answer::TopK {
                points,
                degraded: degraded.is_some(),
            }),
            Response::Points { values } => Ok(Answer::Points { values }),
            Response::Error { message } => Err(format!("server error: {message}")),
            Response::Busy { queue_depth, .. } => Err(format!("busy at depth {queue_depth}")),
            other => Err(format!("unexpected response {other:?}")),
        }
    }

    fn call_service(&self, q: &Query) -> Result<Answer, String> {
        let svc = &self.world.service;
        let Some(spec) = self.scan_spec(q) else {
            let Query::Points {
                field,
                timestep,
                set,
            } = *q
            else {
                return Err(format!("no service call for {q:?}"));
            };
            return svc
                .interpolate_at(
                    field_name(field),
                    timestep,
                    self.world.oracle.positions(set),
                    LagOrder::Lag6,
                )
                .map(|(values, _)| Answer::Points { values })
                .map_err(|e| e.to_string());
        };
        let mut tq =
            ThresholdQuery::whole_timestep(spec.raw_field, spec.derived, spec.timestep, 0.0);
        tq.query_box = Some(spec.query_box);
        match spec.kernel {
            ScanKernel::Threshold { threshold } => {
                tq.threshold = threshold;
                svc.get_threshold(&tq)
                    .map(|r| {
                        let degraded = r.degraded.is_some();
                        Answer::threshold(
                            r.points,
                            r.cache_hits as u32,
                            r.nodes as u32,
                            &r.breakdown,
                            degraded,
                        )
                    })
                    .map_err(|e| e.to_string())
            }
            ScanKernel::Pdf {
                origin,
                width,
                nbins,
            } => svc
                .get_pdf(&tq, origin, width, nbins)
                .map(|r| Answer::Pdf {
                    counts: r.histogram.counts().to_vec(),
                    degraded: r.degraded.is_some(),
                })
                .map_err(|e| e.to_string()),
            ScanKernel::TopK => svc
                .get_topk(&tq, TOPK as usize)
                .map(|r| Answer::TopK {
                    points: r.points,
                    degraded: r.degraded.is_some(),
                })
                .map_err(|e| e.to_string()),
        }
    }

    fn call_cluster(&self, q: &Query) -> Result<Answer, String> {
        let cluster = self.world.service.cluster();
        let Some(spec) = self.scan_spec(q) else {
            let Query::Points {
                field,
                timestep,
                set,
            } = *q
            else {
                return Err(format!("no cluster call for {q:?}"));
            };
            return cluster
                .get_points(
                    field_name(field),
                    timestep,
                    self.world.oracle.positions(set),
                    LagOrder::Lag6,
                )
                .map(|(values, _)| Answer::Points { values })
                .map_err(|e| e.to_string());
        };
        let req = spec.request();
        match spec.kernel {
            ScanKernel::Threshold { .. } => cluster
                .get_threshold(&req)
                .map(|r| {
                    let degraded = r.degraded.is_some();
                    Answer::threshold(
                        r.points,
                        r.cache_hits as u32,
                        r.nodes as u32,
                        &r.breakdown,
                        degraded,
                    )
                })
                .map_err(|e| e.to_string()),
            ScanKernel::Pdf {
                origin,
                width,
                nbins,
            } => cluster
                .get_pdf(&req, origin, width, nbins)
                .map(|r| Answer::Pdf {
                    counts: r.histogram.counts().to_vec(),
                    degraded: r.degraded.is_some(),
                })
                .map_err(|e| e.to_string()),
            ScanKernel::TopK => cluster
                .get_topk(&req, TOPK as usize)
                .map(|r| Answer::TopK {
                    points: r.points,
                    degraded: r.degraded.is_some(),
                })
                .map_err(|e| e.to_string()),
        }
    }

    /// How many node evaluations the mediator overlaps for this box: one
    /// thread per node, each with up to `procs_per_node` workers over its
    /// chunks, on `nproc` cores.
    fn parallelism(&self, query_box: &Box3) -> f64 {
        let procs = self.world.service.cluster().config().procs_per_node;
        let workers: usize = self
            .nodes
            .iter()
            .map(|node| {
                let tasks = self
                    .layout
                    .chunks_of_node(node.id)
                    .iter()
                    .filter(|c| c.grid_box().intersect(query_box).is_some())
                    .count();
                tasks.min(procs).min(self.nproc)
            })
            .sum();
        workers.clamp(1, self.nproc) as f64
    }

    /// Mediator-side assembly of the per-node parts, as
    /// `assemble_{threshold,pdf,topk}` do it.
    fn assemble(spec: &ScanSpec, parts: Vec<NodePart>) -> Answer {
        let nodes = parts.len() as u32;
        let cache_hits = parts.iter().filter(|p| p.cache_hit).count() as u32;
        match spec.kernel {
            ScanKernel::Threshold { .. } => {
                let mut points: Vec<ThresholdPoint> =
                    parts.into_iter().flat_map(|p| p.points).collect();
                points.sort_unstable_by_key(|p| p.zindex);
                Answer::Threshold {
                    points,
                    cache_hits,
                    nodes,
                    modelled_s: 0.0,
                    degraded: false,
                }
            }
            ScanKernel::Pdf {
                origin,
                width,
                nbins,
            } => {
                let mut hist = Histogram::new(origin, width, nbins);
                for h in parts.iter().filter_map(|p| p.histogram.as_ref()) {
                    hist.merge(h);
                }
                Answer::Pdf {
                    counts: hist.counts().to_vec(),
                    degraded: false,
                }
            }
            ScanKernel::TopK => {
                let k = TOPK as usize;
                let mut points = Vec::new();
                for mut p in parts {
                    p.points
                        .sort_unstable_by(|a, b| b.value.total_cmp(&a.value));
                    p.points.truncate(k);
                    points.append(&mut p.points);
                }
                points.sort_unstable_by(|a, b| b.value.total_cmp(&a.value));
                points.truncate(k);
                Answer::TopK {
                    points,
                    degraded: false,
                }
            }
        }
    }

    /// `evaluate_shared` on every node in turn, one worker each.
    fn node_altitude(
        &mut self,
        qi: u32,
        parent: Option<usize>,
        spec: &ScanSpec,
    ) -> (Result<Answer, String>, f64, Vec<usize>) {
        let req = SharedScanRequest {
            dataset: self.dataset.clone(),
            raw_field: spec.raw_field.to_string(),
            derived: spec.derived,
            timestep: spec.timestep,
            mode: QueryMode::Full,
            procs: 1,
            participants: vec![ScanParticipant {
                query_box: spec.query_box,
                kernel: spec.kernel.clone(),
                use_cache: spec.uses_cache(),
            }],
            assignment: Arc::new(ScanAssignment::canonical(&self.layout)),
        };
        let mut parts = Vec::with_capacity(self.nodes.len());
        let mut ids = Vec::with_capacity(self.nodes.len());
        let mut sum_s = 0.0;
        for node in &self.nodes {
            let (out, id) = self.rec.time("node.evaluate_shared", None, qi, parent, || {
                node.evaluate_shared(&self.peers, &req)
            });
            sum_s += self.rec.duration_s(id);
            ids.push(id);
            match out.map(|mut v| v.pop()) {
                Ok(Some(o)) => parts.push(NodePart {
                    cache_hit: o.result.cache_hit,
                    points: o.result.points,
                    histogram: o.histogram,
                }),
                Ok(None) => return (Err("node returned no outcome".into()), sum_s, ids),
                Err(e) => return (Err(format!("node {}: {e}", node.id)), sum_s, ids),
            }
        }
        (Ok(Self::assemble(spec, parts)), sum_s, ids)
    }

    /// One node's share of a scan, call by call.
    fn hand_node(
        &mut self,
        qi: u32,
        parent: Option<usize>,
        node: &Arc<NodeRuntime>,
        spec: &ScanSpec,
        atoms: &mut AtomCounts,
    ) -> Result<NodePart, String> {
        let grid = self.world.service.cluster().grid();
        let (dims, periodic) = (grid.dims(), grid.periodic);
        let cache_key = self.cache_key(spec.raw_field, spec.derived, spec.timestep);
        let mut session = IoSession::new();
        let mut part = NodePart::default();
        match &spec.kernel {
            ScanKernel::Threshold { threshold } => {
                let (found, _) =
                    self.rec
                        .time("cache.lookup", Some(Layer::Cache), qi, parent, || {
                            node.cache
                                .lookup(&cache_key, &spec.query_box, *threshold, &mut session)
                        });
                if let CacheLookup::Hit(points) = found {
                    part.points = points;
                    part.cache_hit = true;
                    return Ok(part);
                }
            }
            ScanKernel::Pdf {
                origin,
                width,
                nbins,
            } => {
                let pdf_key = PdfKey::new(cache_key.clone(), *origin, *width, *nbins as u32);
                let (found, _) =
                    self.rec
                        .time("cache.pdf_lookup", Some(Layer::Cache), qi, parent, || {
                            node.pdf_cache
                                .lookup(&pdf_key, &spec.query_box, &mut session)
                        });
                if let PdfLookup::Hit(counts) = found {
                    let mut hist = Histogram::new(*origin, *width, *nbins);
                    hist.set_counts(&counts);
                    part.histogram = Some(hist);
                    part.cache_hit = true;
                    return Ok(part);
                }
            }
            ScanKernel::TopK => {}
        }
        let halo = spec.derived.halo(&self.scheme);
        let mut hits: Vec<tdb_kernels::ScanHit> = Vec::new();
        for chunk in self.layout.chunks_of_node(node.id) {
            let Some(clip) = chunk.grid_box().intersect(&spec.query_box) else {
                continue;
            };
            let (needed, _) = self.rec.time(
                "cluster.needed_atoms",
                Some(Layer::Cluster),
                qi,
                parent,
                || needed_atoms(&clip, halo, dims, periodic),
            );
            let mut by_owner: HashMap<usize, Vec<u64>> = HashMap::new();
            for atom in &needed {
                let owner = self.layout.fetch_node_for(*atom, node.id);
                atoms.remote += u64::from(owner != node.id);
                by_owner.entry(owner).or_default().push(atom.zindex());
            }
            atoms.fetched += needed.len() as u64;
            atoms.inside += clip.atom_box().num_points();
            let peers = &self.peers;
            let (fetched, _) = self.rec.time(
                "storage.fetch_atoms",
                Some(Layer::Storage),
                qi,
                parent,
                || {
                    let mut out: HashMap<u64, AtomRecord> = HashMap::with_capacity(needed.len());
                    for (owner, mut codes) in by_owner {
                        codes.sort_unstable();
                        let peer = peers
                            .get(owner)
                            .and_then(Option::as_ref)
                            .ok_or_else(|| format!("atom owner {owner} is not a live node"))?;
                        let records = peer
                            .fetch_atoms(spec.raw_field, spec.timestep, &codes, &mut session)
                            .map_err(|e| e.to_string())?;
                        out.extend(records.into_iter().map(|r| (r.key.zindex, r)));
                    }
                    Ok::<_, String>(out)
                },
            );
            let fetched = fetched?;
            let (padded, _) = self.rec.time(
                "cluster.assemble_padded",
                Some(Layer::Cluster),
                qi,
                parent,
                || assemble_padded(&clip, halo, dims, periodic, &fetched),
            );
            let padded = padded.map_err(|e| e.to_string())?;
            let (lx, ly, lz) = clip.lo3();
            let (norm, _) =
                self.rec
                    .time("kernels.derive", Some(Layer::Kernels), qi, parent, || {
                        spec.derived.eval(
                            &padded,
                            &self.scheme,
                            [lx as usize, ly as usize, lz as usize],
                        )
                    });
            self.rec.time(
                "kernels.scan",
                Some(Layer::Kernels),
                qi,
                parent,
                || match &spec.kernel {
                    ScanKernel::Threshold { threshold } => {
                        threshold_scan_clip(&norm, &clip, &clip, *threshold, &mut hits)
                    }
                    ScanKernel::TopK => {
                        threshold_scan_clip(&norm, &clip, &clip, f64::NEG_INFINITY, &mut hits)
                    }
                    ScanKernel::Pdf {
                        origin,
                        width,
                        nbins,
                    } => {
                        let hist = part
                            .histogram
                            .get_or_insert_with(|| Histogram::new(*origin, *width, *nbins));
                        pdf_scan_clip(&norm, &clip, &clip, hist);
                    }
                },
            );
        }
        // what `evaluate_shared` does between its workers and its caller
        let (points, _) = self.rec.time(
            "cluster.collect_points",
            Some(Layer::Cluster),
            qi,
            parent,
            || {
                let mut points: Vec<ThresholdPoint> = hits
                    .into_iter()
                    .map(|(zindex, value)| ThresholdPoint { zindex, value })
                    .collect();
                points.sort_unstable_by_key(|p| p.zindex);
                points
            },
        );
        part.points = points;
        match &spec.kernel {
            ScanKernel::Threshold { threshold } => {
                self.rec
                    .time("cache.insert", Some(Layer::Cache), qi, parent, || {
                        node.cache.insert(
                            &cache_key,
                            spec.query_box,
                            *threshold,
                            &part.points,
                            &mut session,
                        )
                    });
            }
            ScanKernel::Pdf {
                origin,
                width,
                nbins,
            } => {
                let hist = part
                    .histogram
                    .get_or_insert_with(|| Histogram::new(*origin, *width, *nbins));
                let pdf_key = PdfKey::new(cache_key, *origin, *width, *nbins as u32);
                let counts = hist.counts().to_vec();
                self.rec
                    .time("cache.pdf_insert", Some(Layer::Cache), qi, parent, || {
                        node.pdf_cache
                            .insert(&pdf_key, spec.query_box, counts, &mut session)
                    });
            }
            ScanKernel::TopK => {}
        }
        Ok(part)
    }

    /// `Cluster::get_points` call by call: per position, the atoms under
    /// its stencil from their owners, a one-cell padded block, the
    /// interpolation. One span per kind of call, summed over positions.
    fn hand_points(
        &mut self,
        qi: u32,
        parent: Option<usize>,
        field: usize,
        timestep: u32,
        set: usize,
    ) -> Result<Answer, String> {
        let grid = self.world.service.cluster().grid();
        let (dims, periodic) = (grid.dims(), grid.periodic);
        let name = field_name(field);
        let halo = LagOrder::Lag6.halo();
        let mut session = IoSession::new();
        let mut spent = [0.0f64; 4];
        let mut values = Vec::new();
        let mut lap = |slot: usize, since: Instant| {
            if let Some(s) = spent.get_mut(slot) {
                *s += since.elapsed().as_secs_f64();
            }
        };
        for &[px, py, pz] in self.world.oracle.positions(set) {
            // positions are drawn inside the grid: no wrap needed
            let cell = [px, py, pz].map(|p| p.floor() as u32);
            let domain = Box3::new(cell, cell);
            let t = Instant::now();
            let needed = needed_atoms(&domain, halo, dims, periodic);
            lap(0, t);
            let t = Instant::now();
            let mut atoms: HashMap<u64, AtomRecord> = HashMap::new();
            for atom in needed {
                let owner = self.layout.node_of_atom(atom);
                let node = self
                    .nodes
                    .iter()
                    .find(|n| n.id == owner)
                    .ok_or_else(|| format!("atom owner {owner} is not a live node"))?;
                let rec = node
                    .fetch_atoms(name, timestep, &[atom.zindex()], &mut session)
                    .map_err(|e| e.to_string())?
                    .into_iter()
                    .next()
                    .ok_or_else(|| format!("atom {atom:?} missing"))?;
                atoms.insert(rec.key.zindex, rec);
            }
            lap(1, t);
            let t = Instant::now();
            let padded = assemble_padded(&domain, halo, dims, periodic, &atoms)
                .map_err(|e| e.to_string())?;
            lap(2, t);
            let t = Instant::now();
            let local = [
                px - f64::from(cell[0]),
                py - f64::from(cell[1]),
                pz - f64::from(cell[2]),
            ];
            values.push(interpolate::<3>(&padded, LagOrder::Lag6, local));
            lap(3, t);
        }
        let kinds = [
            ("cluster.needed_atoms", Layer::Cluster),
            ("storage.fetch_atoms", Layer::Storage),
            ("cluster.assemble_padded", Layer::Cluster),
            ("kernels.interp", Layer::Kernels),
        ];
        for ((name, layer), s) in kinds.into_iter().zip(spent) {
            self.rec.add(name, Some(layer), qi, parent, s);
        }
        Ok(Answer::Points { values })
    }

    /// Runs one block of queries at one altitude. `entries` is each key's
    /// semantic-cache entry as the block found it; keys the block's misses
    /// replace are put back first, so every altitude starts the block
    /// from the same cache state and replays the same hits and misses.
    fn block_pass(
        &mut self,
        block: &[Query],
        entries: &[Option<(Region, Tier)>],
        mut execute: impl FnMut(&mut Self, usize, &Query, bool),
    ) -> Vec<Option<(Region, Tier)>> {
        let mut entries = entries.to_vec();
        let misses = |this: &Self, entries: &[Option<(Region, Tier)>], q: &Query| match *q {
            Query::Threshold { key, tier, region } => {
                let entry = entries.get(key).copied().flatten();
                Some((
                    key,
                    entry,
                    !entry.is_some_and(|e| this.covers(key, e, region, tier)),
                ))
            }
            _ => None,
        };
        let mut replaced: Vec<usize> = Vec::new();
        let mut model = entries.clone();
        for q in block {
            if let (Some((key, _, true)), Query::Threshold { tier, region, .. }) =
                (misses(self, &model, q), q)
            {
                replaced.push(key);
                if let Some(slot) = model.get_mut(key) {
                    *slot = Some((*region, *tier));
                }
            }
        }
        for key in replaced {
            if let Some((region, tier)) = entries.get(key).copied().flatten() {
                self.restore_entry(key, region, tier);
            }
        }
        for (j, q) in block.iter().enumerate() {
            self.world.clear();
            let verdict = misses(self, &entries, q);
            let hit = verdict.is_some_and(|(_, _, miss)| !miss);
            execute(self, j, q, hit);
            if let (Some((key, _, true)), Query::Threshold { tier, region, .. }) = (verdict, q) {
                // the program replaced the entry (unless the workload
                // clears the caches before every query anyway)
                if let Some(slot) = entries.get_mut(key) {
                    *slot = match self.world.spec.clear {
                        Clear::Nothing => Some((*region, *tier)),
                        _ => None,
                    };
                }
            }
        }
        entries
    }

    /// Replays the stream of client 0 for about `budget_s` seconds (at
    /// most `max_queries` queries), every query at every altitude.
    pub fn run(mut self, budget_s: f64, max_queries: usize) -> Result<ReplayReport, String> {
        let world = self.world;
        let mut times = ReplayTimes::default();
        let mut atoms = AtomCounts::default();
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut cache_hits = (0u64, 0u64);
        let mut queries: Vec<Query> = Vec::new();
        let mut client = world.connect()?;
        // What each key's semantic-cache entry holds, kept in step with
        // the program's replace-on-miss rule. Workloads that clear before
        // each query have no entry to restore; PDF entries are written
        // once by the priming and never change.
        let primed = match world.spec.prime {
            Prime::Nothing => None,
            Prime::AllKeysBelowEveryTier => Some((Region::Whole, Tier::Prime)),
            Prime::ThresholdAndPdf => Some((Region::Whole, Tier::Medium)),
        };
        let mut entries: Vec<Option<(Region, Tier)>> = vec![primed; world.keys.len()];
        let mut stream = world.queries(0);
        let started = Instant::now();
        for block_index in 0.. {
            let done = queries.len();
            if done >= max_queries || (done > 0 && started.elapsed().as_secs_f64() >= budget_s) {
                break;
            }
            let block: Vec<Query> = stream
                .by_ref()
                .take(BLOCK.min(max_queries - done))
                .collect();
            let base = done as u32;

            // --- Client over TCP, traced and untraced; which goes first
            // alternates so neither always meets the warmer machine
            let mut roots: Vec<usize> = Vec::with_capacity(block.len());
            for traced in [block_index % 2 == 0, block_index % 2 != 0] {
                if !traced {
                    self.block_pass(&block, &entries, |this, _, q, _| {
                        let sent = Instant::now();
                        let out = world.issue(&mut client, q);
                        times.untraced_rtt_s.push(sent.elapsed().as_secs_f64());
                        this.verify("client, untraced", q, out.map_err(|e| e.to_string()));
                    });
                    continue;
                }
                self.block_pass(&block, &entries, |this, j, q, predicted_hit| {
                    let before = tdb_obs::global().snapshot();
                    let (out, id) = this.rec.time(
                        "wire.client_rtt",
                        Some(Layer::Wire),
                        base + j as u32,
                        None,
                        || world.issue(&mut client, q),
                    );
                    for (name, delta) in tdb_obs::global().snapshot().counters_since(&before) {
                        *counters.entry(name).or_default() += delta;
                    }
                    roots.push(id);
                    times.rtt_s.push(this.rec.duration_s(id));
                    let answer = this.verify("client", q, out.map_err(|e| e.to_string()));
                    if let Some(Answer::Threshold {
                        cache_hits: h,
                        nodes,
                        ..
                    }) = answer
                    {
                        cache_hits.0 += u64::from(h);
                        cache_hits.1 += u64::from(nodes);
                        // the entry model must predict the program's hits,
                        // or the altitudes would not replay the same work
                        if predicted_hit != (h == nodes) || (h != 0 && h != nodes) {
                            this.failed += 1;
                            this.failures.push(format!(
                                "query {}: {h}/{nodes} nodes hit, the entry model said {predicted_hit}",
                                base as usize + j
                            ));
                        }
                    }
                });
            }

            // --- handle_line_admitted --------------------------------------
            let mut handles: Vec<usize> = Vec::with_capacity(block.len());
            self.block_pass(&block, &entries, |this, j, q, _| {
                let line = Self::wire_request(world, q).to_json().encode();
                let (response, id) = this.rec.time(
                    "wire.handle_line",
                    Some(Layer::Wire),
                    base + j as u32,
                    roots.get(j).copied(),
                    || handle_line_admitted(&line, &this.state, 0),
                );
                handles.push(id);
                times.handle_s.push(this.rec.duration_s(id));
                this.verify("handle_line", q, Self::answer_of(response));
            });

            // --- TurbulenceService -----------------------------------------
            let mut services: Vec<usize> = Vec::with_capacity(block.len());
            self.block_pass(&block, &entries, |this, j, q, _| {
                let start = Instant::now();
                let out = this.call_service(q);
                let id = this.rec.add(
                    "core.service_call",
                    Some(Layer::Core),
                    base + j as u32,
                    handles.get(j).copied(),
                    start.elapsed().as_secs_f64(),
                );
                services.push(id);
                times.service_s.push(this.rec.duration_s(id));
                this.verify("service", q, out);
            });

            // --- Cluster ---------------------------------------------------
            let mut clusters: Vec<usize> = Vec::with_capacity(block.len());
            self.block_pass(&block, &entries, |this, j, q, _| {
                let start = Instant::now();
                let out = this.call_cluster(q);
                let id = this.rec.add(
                    "cluster.mediator_call",
                    Some(Layer::Cluster),
                    base + j as u32,
                    services.get(j).copied(),
                    start.elapsed().as_secs_f64(),
                );
                let par = this
                    .scan_spec(q)
                    .map_or(1.0, |spec| this.parallelism(&spec.query_box));
                this.rec.set_par(id, par);
                times.par.push(par);
                clusters.push(id);
                times.cluster_s.push(this.rec.duration_s(id));
                this.verify("cluster", q, out);
            });

            // --- evaluate_shared, node by node ------------------------------
            // (point queries have no per-node entry point: the mediator
            // does that work itself)
            let mut node_spans: Vec<Vec<usize>> = Vec::with_capacity(block.len());
            let mut by_nodes: Vec<Option<(u64, u64)>> = Vec::with_capacity(block.len());
            self.block_pass(&block, &entries, |this, j, q, _| {
                let Some(spec) = this.scan_spec(q) else {
                    times.node_sum_s.push(0.0);
                    node_spans.push(Vec::new());
                    by_nodes.push(None);
                    return;
                };
                let (out, sum_s, ids) =
                    this.node_altitude(base + j as u32, clusters.get(j).copied(), &spec);
                times.node_sum_s.push(sum_s);
                node_spans.push(ids);
                by_nodes.push(
                    this.verify("evaluate_shared", q, out)
                        .as_ref()
                        .map(answer_digest),
                );
            });

            // --- the node pipeline by hand ----------------------------------
            let final_entries = self.block_pass(&block, &entries, |this, j, q, _| {
                let qi = base + j as u32;
                let out = match (this.scan_spec(q), q) {
                    (Some(spec), _) => {
                        let nodes = this.nodes.clone();
                        nodes
                            .iter()
                            .enumerate()
                            .map(|(k, node)| {
                                let parent = node_spans.get(j).and_then(|ids| ids.get(k)).copied();
                                this.hand_node(qi, parent, node, &spec, &mut atoms)
                            })
                            .collect::<Result<Vec<_>, _>>()
                            .map(|parts| Self::assemble(&spec, parts))
                    }
                    (
                        None,
                        &Query::Points {
                            field,
                            timestep,
                            set,
                        },
                    ) => this.hand_points(qi, clusters.get(j).copied(), field, timestep, set),
                    (None, other) => Err(format!("no pipeline for {other:?}")),
                };
                let by_hand = this.verify("pipeline", q, out);
                // the hand-replayed pipeline must return what
                // evaluate_shared returned, not merely a correct answer
                if let (Some(a), Some(Some(want))) = (&by_hand, by_nodes.get(j)) {
                    if answer_digest(a) != *want {
                        this.failed += 1;
                        this.failures
                            .push(format!("pipeline: query {qi} differs from evaluate_shared"));
                    }
                }
            });
            entries = final_entries;
            queries.extend(block);
        }
        drop(client);
        self.failures.truncate(5);
        Ok(ReplayReport {
            queries,
            recorder: self.rec,
            times,
            counters,
            cache_hits,
            atoms,
            attempted: self.attempted,
            failed: self.failed,
            failures: self.failures,
        })
    }
}

/// Queries per block of the replay: one block runs at one altitude after
/// the other. Long enough that what the buffer pools hold when an
/// altitude starts the block is what the block's own last queries left
/// there (the same for every altitude, as it is in a long run); short
/// enough that the machine drifts little between a parent's execution
/// and its children's.
const BLOCK: usize = 16;

/// What two answers to one query must agree on.
fn answer_digest(a: &Answer) -> (u64, u64) {
    match a {
        Answer::Threshold { points, .. } | Answer::TopK { points, .. } => {
            digest(points.iter().map(|p| (p.zindex, p.value)))
        }
        Answer::Pdf { counts, .. } => digest(counts.iter().map(|&c| (c, 0.0))),
        Answer::Points { values } => {
            digest(values.iter().flat_map(|v| v.iter().map(|&c| (0u64, c))))
        }
    }
}

/// `1 − traced qps / untraced qps` of the client altitude: one client,
/// the same queries from the same cache state, once inside a span with
/// the counters snapshotted around it and once bare.
pub fn trace_overhead_frac(times: &ReplayTimes) -> f64 {
    let untraced: f64 = times.untraced_rtt_s.iter().sum();
    let traced: f64 = times.rtt_s.iter().sum();
    if traced > 0.0 {
        1.0 - untraced / traced
    } else {
        0.0
    }
}

/// Mean over the queries of one kind of `a[i] − b[i]`, in ms.
pub fn mean_gap_ms(queries: &[Query], kind: Option<&str>, a: &[f64], b: &[f64]) -> f64 {
    let gaps: Vec<f64> = queries
        .iter()
        .zip(a.iter().zip(b))
        .filter(|(q, _)| kind.is_none_or(|k| q.kind() == k))
        .map(|(_, (a, b))| (a - b) * 1e3)
        .collect();
    stats::mean(&gaps)
}
