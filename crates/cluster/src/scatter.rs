//! Scatter: "each part is asynchronously submitted for evaluation to the
//! database which stores the data needed" (paper §2) — a batch grouped by
//! [`ScanGroupKey`], each group run as waves over one topology snapshot,
//! the chunks of an unavailable or deadline-blown node moved down their
//! replica chains, and every query's per-node outcomes handed to
//! [`Cluster::assemble`]. In a wave every node probes its caches on the
//! caller's thread; only the nodes left with a scan are fanned out.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use tdb_kernels::DerivedField;
use tdb_storage::{StorageError, StorageResult};
use tdb_zorder::Box3;

use crate::maxima::topk_floor;
use crate::mediator::{BatchQuery, Cluster, ThresholdRequest};
use crate::merge::{BatchAnswer, DegradedInfo, FailedNode};
use crate::node::{run_workers, NodeResult, QueryMode};
use crate::placement::Chunk;
use crate::scan::{ScanAssignment, ScanParticipant, SharedOutcome, SharedScanRequest};

/// Everything that must agree for two queries to share one atom scan.
/// The threshold value, query box and kernel are per-participant, and so
/// is `strict`, applied to each answer after the scan; the node deadline
/// is part of the key because it shapes the waves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ScanGroupKey {
    raw_field: String,
    derived: DerivedField,
    timestep: u32,
    full_mode: bool,
    procs_override: Option<usize>,
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
            deadline_bits: req.node_deadline_s.map(f64::to_bits),
        }
    }
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

impl Cluster {
    /// Evaluates a set of queries, sharing one atom scan per
    /// [`ScanGroupKey`] group. Answers are positionally aligned with the
    /// input; a per-node failure inside a group is fanned out to every
    /// query of that group (and degraded per query by the usual policy).
    ///
    /// Every top-k is a threshold scan ([`BatchQuery::participant`]): in
    /// [`QueryMode::Full`] at the floor its box's octant maxima set
    /// (`maxima::topk_floor`), else at −∞. One whose floored answer comes
    /// back short of k points lost a witness to a chunk no replica
    /// answered, and is scanned once more at −∞, so its answer is the
    /// unfloored one, degraded or not.
    pub fn run_batch(&self, queries: Vec<BatchQuery>) -> Vec<StorageResult<BatchAnswer>> {
        let wall = std::time::Instant::now();
        let mut answers: Vec<Option<StorageResult<BatchAnswer>>> =
            queries.iter().map(|_| None).collect();
        let floors: Vec<Option<f64>> = queries.iter().map(|q| self.floor_of(q)).collect();
        let parts: Vec<_> = (queries.iter().zip(&floors))
            .map(|(q, floor)| q.participant(*floor))
            .collect();
        self.run_groups(&queries, &parts, 0..queries.len(), &mut answers, wall);
        let short: Vec<usize> = (queries.iter().zip(&floors).zip(&answers).enumerate())
            .filter(|(_, ((q, floor), answer))| {
                floor.is_some()
                    && matches!((q, answer), (BatchQuery::TopK { k, .. }, Some(Ok(BatchAnswer::TopK(r))))
                        if r.points.len() < *k)
            })
            .map(|(i, _)| i)
            .collect();
        if !short.is_empty() {
            tdb_obs::m::SCAN_TOPK_RESCANS.add(short.len() as u64);
            let unfloored: Vec<_> = queries.iter().map(|q| q.participant(None)).collect();
            self.run_groups(&queries, &unfloored, short, &mut answers, wall);
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

    /// The floor a top-k scans at, if its maxima set one.
    fn floor_of(&self, query: &BatchQuery) -> Option<f64> {
        let BatchQuery::TopK { req, k } = query else {
            return None;
        };
        if req.mode != QueryMode::Full {
            return None;
        }
        let maxima = self.env.maxima.get()?;
        let maxima = maxima.of(&req.raw_field, req.derived, req.timestep)?;
        topk_floor(maxima, &req.query_box, *k)
    }

    /// Runs the queries `idxs` names, one shared scan per [`ScanGroupKey`]
    /// group, each as its entry of `participants`.
    fn run_groups(
        &self,
        queries: &[BatchQuery],
        participants: &[ScanParticipant],
        idxs: impl IntoIterator<Item = usize>,
        answers: &mut [Option<StorageResult<BatchAnswer>>],
        wall: std::time::Instant,
    ) {
        let mut groups: Vec<(ScanGroupKey, Vec<usize>)> = Vec::new();
        for i in idxs {
            let Some(q) = queries.get(i) else {
                continue;
            };
            let key = ScanGroupKey::of(q.request());
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((key, vec![i])),
            }
        }
        for (_, idxs) in &groups {
            self.run_group(queries, participants, idxs, answers, wall);
        }
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
        participants: &[ScanParticipant],
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
        let procs = first
            .procs_override
            .unwrap_or(self.env.config.procs_per_node);
        let topo = self.topology_snapshot();
        let layout = Arc::clone(&topo.layout);
        let deadline = first.node_deadline_s;
        let participants: Vec<ScanParticipant> = idxs
            .iter()
            .filter_map(|&i| participants.get(i).cloned())
            .collect();
        let modelled_time =
            |o: &SharedOutcome| o.result.cache_lookup_s + o.result.io_s + o.result.compute_s;
        // one scatter wave: every targeted node probes its caches on this
        // thread, then the nodes left with a scan scan their assigned
        // chunks in parallel against the snapshot; once all have answered,
        // each node's I/O phase is what its arrays served in the wave
        let scatter = |targets: &[(usize, Vec<usize>)], assignment: Arc<ScanAssignment>| {
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
            let peers = &topo.nodes;
            // a probe's error is its node's result, like a scan's
            let mut scans = Vec::new();
            let probed: Vec<Option<StorageResult<Vec<SharedOutcome>>>> = (targets.iter())
                .map(|(node, _)| {
                    let runtime = peers.get(*node).and_then(Option::as_ref);
                    let runtime = runtime.ok_or_else(|| StorageError::NodeUnavailable {
                        node: *node,
                        detail: "scatter target is not a live member".into(),
                    });
                    match runtime.and_then(|runtime| Ok((runtime, runtime.probe(&req)?))) {
                        Ok((runtime, probe)) if probe.pending() => {
                            scans.push((runtime, probe));
                            None
                        }
                        Ok((runtime, probe)) => Some(runtime.scan(peers, &req, probe)),
                        Err(err) => Some(Err(err)),
                    }
                })
                .collect();
            let mut scanned = run_workers(scans.len(), scans, |_: &mut (), (runtime, probe)| {
                runtime.scan(peers, &req, probe)
            })
            .into_iter();
            let mut wave: Vec<WaveEntry> = (targets.iter().zip(probed))
                .map(|((node, cidxs), result)| WaveEntry {
                    node: *node,
                    chunk_idxs: cidxs.clone(),
                    // the scans answer in the order their probes left them
                    result: result.or_else(|| scanned.next()).unwrap_or_else(|| {
                        Err(StorageError::internal("scatter target was never evaluated"))
                    }),
                })
                .collect();
            for p in 0..participants.len() {
                let mut answered: Vec<(usize, &mut NodeResult)> = wave
                    .iter_mut()
                    .filter_map(|e| {
                        let outcome = e.result.as_mut().ok()?.get_mut(p)?;
                        Some((e.node, &mut outcome.result))
                    })
                    .collect();
                self.node_io(&topo, &mut answered, procs);
            }
            wave
        };
        // wave 0: the generation's canonical assignment over every live
        // node. Entries land in `done` in wave order (node-id order within
        // a wave).
        let initial: Vec<(usize, Vec<usize>)> = topo
            .live()
            .map(|(id, _)| (id, topo.primary_chunks.get(id).cloned().unwrap_or_default()))
            .collect();
        let mut wave = scatter(&initial, Arc::clone(&topo.canonical));
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
                                tdb_obs::m::NODE_DEADLINE_EXCEEDED.inc();
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
            tdb_obs::m::REPLICATION_FAILOVER_CHUNKS.add(moved);
            // a failover wave scans exactly the re-targeted chunks
            let targets: Vec<(usize, Vec<usize>)> = retargets.into_iter().collect();
            let mut chunks: Vec<Vec<Chunk>> = vec![Vec::new(); topo.nodes.len()];
            for (node, cidxs) in &targets {
                if let Some(slot) = chunks.get_mut(*node) {
                    *slot = (cidxs.iter())
                        .filter_map(|&c| layout.chunks().get(c).copied())
                        .collect();
                }
            }
            let partial = ScanAssignment {
                layout: Arc::clone(&layout),
                chunks,
                canonical: false,
            };
            wave = scatter(&targets, Arc::new(partial));
        }
        if rounds > 0 {
            tdb_obs::m::REPLICATION_FAILOVER_ROUNDS.add(rounds);
            tdb_obs::m::REPLICATION_FAILOVER_NODES.add(failed_nodes.len() as u64);
        }
        if !lost_chunks.is_empty() {
            tdb_obs::m::REPLICATION_LOST_CHUNKS.add(lost_chunks.len() as u64);
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
                    tdb_obs::m::QUERY_DEGRADED.inc();
                    DegradedInfo {
                        failed_nodes: failed_nodes.clone(),
                        missing_boxes: missing,
                    }
                });
                results
                    .map(|r| self.assemble(query, r, &node_ids, degraded, procs, &topo, wall))
                    .ok_or_else(|| StorageError::internal("a node answered too few participants"))
            });
        }
    }
}
