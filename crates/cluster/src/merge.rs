//! Merge: "the Web-server assembles the results from the distributed
//! computation and sends them back to the client" (paper §2) — the
//! response types, [`Cluster::assemble`], the modelled I/O phase of a
//! node and of the cluster (one rule, DESIGN.md §4) and the span tree.

use std::collections::BTreeMap;

use tdb_cache::ThresholdPoint;
use tdb_field::Histogram;
use tdb_obs::{m, QueryTrace, TraceSpan};
use tdb_storage::device::{DeviceId, IoSession};
use tdb_storage::{StorageError, StorageResult};
use tdb_zorder::Box3;

use crate::mediator::{BatchQuery, Cluster};
use crate::node::NodeResult;
use crate::scan::{select_topk, topk_order, SharedOutcome};
use crate::sim::NodeTimeModel;
use crate::timing::TimeBreakdown;
use crate::topology::Topology;
use crate::wire;

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

/// Assembled answer of a threshold query, and of a top-k, which is
/// lowered to a threshold scan (DESIGN.md §9).
#[derive(Debug)]
pub struct ThresholdResponse {
    pub points: Vec<ThresholdPoint>,
    pub breakdown: TimeBreakdown,
    /// The query-wide closed-form time model: `breakdown.io_s` and
    /// `compute_s` are it read at the configured process count, and
    /// `t(p)` at any other count is read the same way.
    pub model: NodeTimeModel,
    /// How many nodes answered from their cache.
    pub cache_hits: usize,
    pub nodes: usize,
    /// Real wall-clock of the in-process evaluation.
    pub wall_s: f64,
    /// Per-surviving-node closed-form time models (zero for cache hits),
    /// letting callers evaluate `t(p)` at any process count deterministically.
    pub node_models: Vec<NodeTimeModel>,
    /// Span tree of the query's phases and per-node work.
    pub trace: QueryTrace,
    /// `Some` when one or more nodes failed and the answer is partial.
    pub degraded: Option<DegradedInfo>,
}

/// Assembled answer of a PDF query.
#[derive(Debug)]
pub struct PdfResponse {
    pub histogram: Histogram,
    pub breakdown: TimeBreakdown,
    /// The query-wide time model, as [`ThresholdResponse::model`].
    pub model: NodeTimeModel,
    pub wall_s: f64,
    pub trace: QueryTrace,
    /// `Some` when one or more nodes failed and the answer is partial.
    pub degraded: Option<DegradedInfo>,
}

/// The answer of a [`BatchQuery`], by what it carries: points (a
/// threshold or a top-k) or a histogram (a PDF).
#[derive(Debug)]
pub enum BatchAnswer {
    Threshold(ThresholdResponse),
    Pdf(PdfResponse),
}

impl BatchAnswer {
    /// The points of a threshold or top-k answer.
    pub fn into_threshold(self) -> StorageResult<ThresholdResponse> {
        match self {
            BatchAnswer::Threshold(r) => Ok(r),
            BatchAnswer::Pdf(_) => Err(StorageError::internal("a histogram where points were due")),
        }
    }

    /// The histogram of a PDF answer.
    pub fn into_pdf(self) -> StorageResult<PdfResponse> {
        match self {
            BatchAnswer::Pdf(r) => Ok(r),
            BatchAnswer::Threshold(_) => {
                Err(StorageError::internal("points where a histogram was due"))
            }
        }
    }
}

/// Every device access of the results that read raw data. Which worker
/// read a block two nodes need varies run to run; the merged record does not.
fn merged_reads<'a>(results: impl IntoIterator<Item = &'a NodeResult>) -> IoSession {
    let mut merged = IoSession::new();
    for r in results.into_iter().filter(|r| !r.cache_hit) {
        merged.merge(&r.session);
    }
    merged
}

impl Cluster {
    /// Seconds `dev` spent serving `reads`, whoever asked.
    fn served(&self, reads: &IoSession, dev: &DeviceId) -> f64 {
        let a = reads.access(*dev);
        self.env.registry.profile(*dev).time(a.ops, a.bytes)
    }

    /// Fills in the I/O half of the time model of every node of one
    /// scatter wave (one participant's results, each with the id of its
    /// node), from which its I/O phase is read: what the node's *own
    /// rack* served, whoever asked — its arrays as the serial schedule; its
    /// busiest array, controller or cache SSD as the bound
    /// ([`NodeTimeModel::io_s`]) — so it is a function of the blocks
    /// read, not of which neighbour touched a shared block first. From the
    /// node's own session come the LAN time of the halo atoms it fetched
    /// (fixed by the atoms needed), which joins the bound, and injected
    /// stalls, which block the worker that met them.
    pub(crate) fn node_io(&self, topo: &Topology, answered: &mut [(usize, &mut NodeResult)]) {
        let reads = merged_reads(answered.iter().map(|(_, r)| &**r));
        for (node, r) in answered.iter_mut().filter(|(_, r)| !r.cache_hit) {
            let Some(rack) = topo.nodes.get(*node).and_then(Option::as_ref) else {
                continue;
            };
            let rack = &rack.devices;
            let stall = r.session.injected_delay_s;
            let arrays = rack.arrays.iter().map(|d| self.served(&reads, d));
            r.model.io_served = arrays.clone().sum::<f64>() + stall;
            r.model.io_busiest = arrays
                .chain([&rack.ssd, &rack.controller].map(|d| self.served(&reads, d)))
                .fold(self.served(&r.session, &self.env.lan), f64::max)
                + stall;
        }
    }

    /// The time model of one query, by the rule of [`Cluster::node_io`]
    /// over every rack at once: nodes run in parallel, so the busiest
    /// rack's arrays are the serial schedule, bounded by the busiest single
    /// device anywhere (a peer fetching halo atoms still occupies the
    /// owner's arrays and controller, and the LAN carries everyone's), with
    /// every worker's stalls; the compute halves are the slowest node's.
    pub(crate) fn query_model(&self, topo: &Topology, results: &[&NodeResult]) -> NodeTimeModel {
        let reads = merged_reads(results.iter().copied());
        let busiest_rack = topo
            .nodes
            .iter()
            .flatten()
            .map(|n| {
                let arrays = n.devices.arrays.iter();
                arrays.map(|d| self.served(&reads, d)).sum::<f64>()
            })
            .fold(0.0f64, f64::max);
        let slowest = |half: fn(&NodeTimeModel) -> f64| {
            results.iter().map(|r| half(&r.model)).fold(0.0, f64::max)
        };
        NodeTimeModel {
            io_served: busiest_rack + reads.injected_delay_s,
            io_busiest: reads.makespan(&self.env.registry),
            compute_total: slowest(|m| m.compute_total),
            compute_max_chunk: slowest(|m| m.compute_max_chunk),
        }
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
        let procs = self.env.config.procs_per_node;
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
            let mut node = TraceSpan::new(format!("node.{id}"), t, r.model.io_s(procs))
                .with_attr("cache", if r.cache_hit { "hit" } else { "miss" })
                .with_attr("atoms_scanned", r.atoms_scanned)
                .with_attr("atoms_pruned", r.atoms_pruned)
                .with_attr("points", *points)
                .with_attr("pool_hits", r.session.pool_hits)
                .with_attr("pool_misses", r.session.pool_misses)
                .with_attr("cache_lookup_s", r.cache_lookup_s)
                .with_attr("compute_s", r.model.compute_s(procs))
                .with_attr("node_wall_s", r.wall_s);
            // several devices can share a profile name (a node has many
            // identical disk arrays), so aggregate bytes per name
            let mut by_device: BTreeMap<String, u64> = BTreeMap::new();
            for (dev, a) in r.session.devices() {
                *by_device
                    .entry(format!("bytes.{}", self.env.registry.profile(dev).name))
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

    /// What moving an answer costs the mediator: `db` bytes of binary
    /// rows from every live node over the LAN, then `user` bytes of XML to
    /// the user over the WAN. Every other phase is zero.
    pub(crate) fn transfer(&self, topo: &Topology, db: u64, user: u64) -> TimeBreakdown {
        let registry = &self.env.registry;
        TimeBreakdown {
            mediator_db_s: (registry.profile(self.env.lan)).time(2 * topo.live_count() as u64, db),
            mediator_user_s: registry.profile(self.env.wan).time(2, user),
            ..TimeBreakdown::default()
        }
    }

    /// Merges one query's per-node outcomes into its answer. Only the
    /// merge of the payloads and the `query.*` counts differ by kind; the
    /// time breakdown, wall clock and span tree are computed one way for
    /// all of them, and the answer is wrapped by what it carries.
    pub(crate) fn assemble(
        &self,
        query: &BatchQuery,
        mut results: Vec<SharedOutcome>,
        node_ids: &[usize],
        degraded: Option<DegradedInfo>,
        topo: &Topology,
        wall: std::time::Instant,
    ) -> BatchAnswer {
        let nnodes = topo.live_count();
        let mut points = Vec::new();
        let mut node_points = vec![0u64; results.len()];
        let mut histogram = None;
        let (kind, count, wall_hist) = match query {
            BatchQuery::Threshold(_) => {
                for (o, n) in results.iter_mut().zip(&mut node_points) {
                    *n = o.result.points.len() as u64;
                    points.append(&mut o.result.points);
                }
                points.sort_unstable_by_key(|p| p.zindex);
                let (count, wall) = (&m::QUERY_THRESHOLD_COUNT, &m::QUERY_THRESHOLD_WALL_S);
                ("threshold", count, wall)
            }
            BatchQuery::Pdf {
                origin,
                width,
                nbins,
                ..
            } => {
                let merged = histogram.insert(Histogram::new(*origin, *width, *nbins));
                for h in results.iter_mut().filter_map(|o| o.histogram.take()) {
                    merged.merge(&h);
                }
                ("pdf", &m::QUERY_PDF_COUNT, &m::QUERY_PDF_WALL_S)
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
                ("topk", &m::QUERY_TOPK_COUNT, &m::QUERY_TOPK_WALL_S)
            }
        };
        let n = points.len() as u64;
        let node_results: Vec<&NodeResult> = results.iter().map(|o| &o.result).collect();
        // the answer crosses the LAN in binary rows, the WAN as XML
        let (db_bytes, user_bytes) = match &histogram {
            Some(h) => ((h.nbins() as u64 + 1) * 16, (h.nbins() as u64 + 1) * 64),
            None => (wire::binary_result_bytes(n), wire::xml_result_bytes(n)),
        };
        // nodes run in parallel: the cache probe is the slowest node's, and
        // the I/O and compute phases are the query's model read at the
        // configured process count
        let procs = self.env.config.procs_per_node;
        let model = self.query_model(topo, &node_results);
        let breakdown = TimeBreakdown {
            cache_lookup_s: (node_results.iter().map(|r| r.cache_lookup_s)).fold(0.0, f64::max),
            io_s: model.io_s(procs),
            compute_s: model.compute_s(procs),
            ..self.transfer(topo, db_bytes, user_bytes)
        };
        let wall_s = wall.elapsed().as_secs_f64();
        let trace = self.build_trace(
            kind,
            &node_results,
            node_ids,
            &node_points,
            &breakdown,
            n,
            wall_s,
            degraded.as_ref(),
        );
        count.inc();
        wall_hist.observe(wall_s);
        match histogram {
            Some(histogram) => BatchAnswer::Pdf(PdfResponse {
                histogram,
                breakdown,
                model,
                wall_s,
                trace,
                degraded,
            }),
            None => {
                m::QUERY_POINTS_RETURNED.add(n);
                BatchAnswer::Threshold(ThresholdResponse {
                    points,
                    breakdown,
                    model,
                    cache_hits: node_results.iter().filter(|r| r.cache_hit).count(),
                    nodes: nnodes,
                    wall_s,
                    node_models: node_results.iter().map(|r| r.model).collect(),
                    trace,
                    degraded,
                })
            }
        }
    }
}
