//! Fault tolerance of the query path: corrupted partition blocks are
//! detected by the CRC and surfaced as query errors — never as silent
//! wrong answers or crashes; injected transient faults are retried away;
//! corrupted cache entries self-heal; a dead node degrades the answer
//! instead of failing it (unless strict mode asks otherwise).

use std::io::{Read, Seek, SeekFrom, Write};
use std::sync::Arc;

use tdb_bench::{bits, bits_outside, harness, points_outside, ranked_bits, Harness, TestService};
use tdb_cluster::{ClusterConfig, CompressionConfig, ReplicationConfig};
use tdb_core::{DerivedField, QueryError, QueryLimits, ThresholdQuery};
use tdb_storage::{FaultPlan, FaultRule};
use tdb_zorder::Box3;

/// This suite's archive — 32³, one time-step, two nodes — before the
/// faults, codec, replication or limits a test adds to it.
fn archive(tag: &str) -> Harness {
    harness(tag, 32, 1).seed(0xdead)
}

/// [`archive`] with a fault plan and a failure policy.
fn faulted_archive(tag: &str, plan: &Arc<FaultPlan>, strict: bool) -> Harness {
    let plan = Arc::clone(plan);
    archive(tag)
        .cluster(|c| c.faults = Some(plan))
        .limits(QueryLimits {
            strict,
            ..Default::default()
        })
}

/// Flips one byte in the middle of a data block of every velocity
/// partition of node 0.
fn corrupt_velocity_partitions(dir: &std::path::Path) -> usize {
    let node_dir = dir.join("node0");
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&node_dir).expect("node dir") {
        let path = entry.expect("entry").path();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        if !name.starts_with("velocity_part") {
            continue;
        }
        let mut f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .expect("open partition");
        let len = f.metadata().unwrap().len();
        // flip a byte well inside the first data block (after the header,
        // before the footer)
        let pos = (len / 4).clamp(16, len - 64);
        f.seek(SeekFrom::Start(pos)).unwrap();
        let mut b = [0u8; 1];
        f.read_exact(&mut b).unwrap();
        f.seek(SeekFrom::Start(pos)).unwrap();
        f.write_all(&[b[0] ^ 0xa5]).unwrap();
        f.sync_all().unwrap();
        corrupted += 1;
    }
    corrupted
}

/// The query failed loudly: a backend error naming one of `causes`, not
/// an answer and not another kind of error.
fn assert_backend_error<T: std::fmt::Debug>(result: Result<T, QueryError>, causes: &[&str]) {
    match result {
        Err(QueryError::Backend(msg)) => assert!(
            causes.iter().any(|cause| msg.contains(cause)),
            "unexpected backend message: {msg}"
        ),
        other => panic!("expected a backend error ({causes:?}), got {other:?}"),
    }
}

/// The query answers, then a byte of every velocity partition of node 0
/// rots on disk, and the same query — cold again — is a loud error.
fn assert_corruption_fails_loudly(service: &TestService) {
    let q = curl_query().without_cache();
    let ok = service.get_threshold(&q).expect("pre-corruption query");
    assert!(!ok.points.is_empty());
    assert!(
        corrupt_velocity_partitions(service.dir()) > 0,
        "no partitions found"
    );
    service.cluster().clear_buffer_pools(); // force re-reads from disk
    assert_backend_error(service.get_threshold(&q), &["corrupt", "crc"]);
}

#[test]
fn corrupted_block_fails_the_query_loudly() {
    assert_corruption_fails_loudly(&archive("fi_corrupt").build());
}

#[test]
fn corruption_in_one_field_leaves_others_usable() {
    let service = archive("fi_isolated").build();
    corrupt_velocity_partitions(service.dir());
    service.cluster().clear_buffer_pools();
    // magnetic-field queries never touch the corrupted velocity partitions
    let q = ThresholdQuery::whole_timestep("magnetic", DerivedField::Norm, 0, 2.0).without_cache();
    let r = service
        .get_threshold(&q)
        .expect("unrelated field must work");
    assert!(!r.points.is_empty());
}

fn curl_query() -> ThresholdQuery {
    ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 25.0)
}

#[test]
fn transient_read_faults_retry_to_a_byte_identical_answer() {
    // the 32³ test archive only loads a handful of blocks, so a realistic
    // 1% rate would often fire zero faults; 25% guarantees exercise while
    // the fixed seed keeps every attempt sequence short of exhaustion
    let plan = FaultPlan::new(0x5eed)
        .with_rule(FaultRule::transient_reads(0.25))
        .shared();
    let faulted = faulted_archive("fi_transient", &plan, false).build();
    let clean = archive("fi_transient_ref").build();
    // bulk load leaves the blocks in the pool; faults only fire on the
    // disk-load path, so make the query cold
    faulted.cluster().clear_buffer_pools();
    let q = curl_query().without_cache();
    let a = faulted
        .get_threshold(&q)
        .expect("retries must absorb transient faults");
    let b = clean.get_threshold(&q).expect("clean reference");
    assert_eq!(bits(&a.points), bits(&b.points));
    assert!(a.degraded.is_none());
    let counts = plan.counts();
    assert!(
        counts.transient > 0,
        "seed 0x5eed must fire at least one transient fault"
    );
}

/// A warm cache entry rots: the next query quarantines it and recomputes
/// from raw atoms, the one after hits the rebuilt entry — both
/// bit-identical to the original cold scan.
fn assert_cache_entry_self_heals(service: &TestService) {
    let q = curl_query();
    let cold = service.get_threshold(&q).expect("cold scan");
    let warm = service.get_threshold(&q).expect("warm hit");
    assert_eq!(warm.cache_hits, warm.nodes, "cache should be warm");

    let corrupted = service
        .cluster()
        .corrupt_cache_entry("velocity", DerivedField::CurlNorm, 0);
    assert!(corrupted > 0, "no cached entries to corrupt");
    service.cluster().clear_buffer_pools();

    // the poisoned entry must not answer: it is quarantined and the node
    // recomputes from raw atoms, bit-identical to the original cold scan
    let healed = service.get_threshold(&q).expect("healing query");
    assert_eq!(healed.cache_hits, 0, "a quarantined entry must not answer");
    assert_eq!(bits(&healed.points), bits(&cold.points));
    assert!(service.cluster().cache_stats().quarantined >= corrupted as u64);

    // the recomputation rebuilt the entry: hits serve again, still identical
    let rewarm = service.get_threshold(&q).expect("rebuilt entry");
    assert_eq!(rewarm.cache_hits, rewarm.nodes, "healed entry must serve");
    assert_eq!(bits(&rewarm.points), bits(&cold.points));
}

#[test]
fn corrupted_cache_entry_is_quarantined_and_self_heals() {
    assert_cache_entry_self_heals(&archive("fi_heal").build());
}

#[test]
fn killed_node_yields_degraded_answer_with_exact_missing_boxes() {
    let plan = FaultPlan::new(1).shared();
    let faulted = faulted_archive("fi_down", &plan, false).build();
    let clean = archive("fi_down_ref").build();
    let q = curl_query().without_cache();
    let full = clean.get_threshold(&q).expect("reference");

    plan.set_node_down(1, true);
    let r = faulted.get_threshold(&q).expect("must degrade, not fail");
    let degraded = r.degraded.expect("partial answer must be flagged");
    assert_eq!(degraded.failed_nodes.len(), 1);
    assert_eq!(degraded.failed_nodes[0].node, 1);
    assert!(degraded.failed_nodes[0].reason.contains("unavailable"));

    // missing boxes are exactly the killed node's chunks ∩ the query box
    let query_box = faulted.full_box();
    let expected: Vec<Box3> = faulted
        .cluster()
        .layout()
        .chunks_of_node(1)
        .iter()
        .filter_map(|c| c.grid_box().intersect(&query_box))
        .collect();
    assert!(!expected.is_empty());
    assert_eq!(degraded.missing_boxes, expected);

    // surviving points are the fault-free answer outside those boxes
    assert_eq!(
        bits(&r.points),
        bits_outside(&full.points, &degraded.missing_boxes)
    );
    assert!(plan.counts().node_down > 0);

    // reviving the node restores the full answer
    plan.set_node_down(1, false);
    let back = faulted.get_threshold(&q).expect("revived");
    assert!(back.degraded.is_none());
    assert_eq!(bits(&back.points), bits(&full.points));
}

/// The one degradation path serves every kind of query: with a single
/// copy of the data and node 1 down, PDF and top-k answers are the clean
/// ones restricted to the surviving boxes and carry the `DegradedInfo` the
/// threshold query carries; a query over a box the dead node holds nothing
/// of is complete; strict mode fails exactly the queries that would
/// otherwise have been degraded.
#[test]
fn killed_node_degrades_pdf_and_topk_like_threshold() {
    let plan = FaultPlan::new(1).shared();
    let faulted = faulted_archive("fi_kinds", &plan, false).build();
    let strict_plan = FaultPlan::new(1).shared();
    let strict = faulted_archive("fi_kinds_strict", &strict_plan, true).build();
    let clean = archive("fi_kinds_ref").build();
    plan.set_node_down(1, true);
    strict_plan.set_node_down(1, true);

    // every point of the time-step (the curl norm is never negative)
    let all =
        ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 0.0).without_cache();
    let (origin, width, nbins, k) = (0.0, 5.0, 16, 20);
    let layout = faulted.cluster().layout();
    let boxes_of = |node: usize| -> Vec<Box3> {
        let chunks = layout.chunks_of_node(node).into_iter();
        chunks.map(|c| c.grid_box()).collect()
    };
    let (surviving, lost) = (boxes_of(0), boxes_of(1));

    let t = faulted.get_threshold(&all).expect("threshold degrades");
    let degraded = t.degraded.expect("threshold answer is partial");
    assert_eq!(degraded.failed_nodes.len(), 1);
    assert_eq!(degraded.failed_nodes[0].node, 1);
    assert_eq!(degraded.missing_boxes, lost);

    // PDF: the clean histograms of the surviving boxes, added up
    let p = faulted
        .get_pdf(&all, origin, width, nbins)
        .expect("pdf degrades");
    assert_eq!(p.degraded.as_ref(), Some(&degraded));
    let mut expected = vec![0u64; p.histogram.counts().len()];
    for b in &surviving {
        let part = clean
            .get_pdf(&all.clone().in_box(*b), origin, width, nbins)
            .expect("clean pdf of a surviving box");
        for (e, c) in expected.iter_mut().zip(part.histogram.counts()) {
            *e += c;
        }
    }
    assert_eq!(p.histogram.counts(), expected);
    assert_eq!(expected.iter().sum::<u64>(), 32 * 32 * 32 / 2);

    // top-k: the k best of the clean points outside the missing boxes
    let top = faulted.get_topk(&all, k).expect("top-k degrades");
    assert_eq!(top.degraded.as_ref(), Some(&degraded));
    let everything = clean.get_threshold(&all).expect("clean reference");
    let mut survivors = points_outside(&everything.points, &lost);
    tdb_cluster::select_topk(&mut survivors, k);
    survivors.sort_unstable_by(tdb_cluster::topk_order);
    assert_eq!(ranked_bits(&top.points), ranked_bits(&survivors));

    // a box the dead node holds nothing of: complete, under either policy
    let inside = all.clone().in_box(surviving[0]);
    for service in [&faulted, &strict] {
        let t = service.get_threshold(&inside).expect("complete threshold");
        let p = service
            .get_pdf(&inside, origin, width, nbins)
            .expect("complete pdf");
        let top = service.get_topk(&inside, k).expect("complete top-k");
        assert!(t.degraded.is_none() && p.degraded.is_none() && top.degraded.is_none());
        let reference = clean.get_threshold(&inside).expect("clean reference");
        assert_eq!(bits(&t.points), bits(&reference.points));
        let reference = clean
            .get_pdf(&inside, origin, width, nbins)
            .expect("clean reference");
        assert_eq!(p.histogram.counts(), reference.histogram.counts());
        let reference = clean.get_topk(&inside, k).expect("clean reference");
        assert_eq!(ranked_bits(&top.points), ranked_bits(&reference.points));
    }

    // strict: each kind refuses the partial whole-grid answer
    assert_backend_error(strict.get_threshold(&all), &["unavailable"]);
    assert_backend_error(strict.get_pdf(&all, origin, width, nbins), &["unavailable"]);
    assert_backend_error(strict.get_topk(&all, k), &["unavailable"]);
}

#[test]
fn strict_mode_fails_loudly_when_a_node_is_down() {
    let plan = FaultPlan::new(2).shared();
    let service = faulted_archive("fi_strict", &plan, true).build();
    plan.set_node_down(0, true);
    let q = curl_query().without_cache();
    assert_backend_error(service.get_threshold(&q), &["unavailable"]);
}

/// The issue's acceptance scenario end to end: 1% transient block reads, a
/// corrupted cached entry, and a killed node — and the full-box query still
/// completes, byte-identical outside the dead node's boxes, with matching
/// process-wide counters.
#[test]
fn combined_faults_still_complete_a_full_box_query() {
    let seed = FaultPlan::seed_from_env(0x7411);
    let plan = FaultPlan::new(seed)
        .with_rule(FaultRule::transient_reads(0.01))
        .shared();
    let faulted = faulted_archive("fi_combined", &plan, false).build();
    let clean = archive("fi_combined_ref").build();
    let q = curl_query();
    let reference = clean.get_threshold(&q).expect("clean reference");
    // the build pass of the atom maxima read through the plan too
    let (before, built) = (faulted.metrics_snapshot(), plan.counts());

    // warm the cache under transient read faults: already byte-identical
    faulted.cluster().clear_buffer_pools();
    let warm = faulted
        .get_threshold(&q)
        .expect("warm under transient faults");
    assert_eq!(bits(&warm.points), bits(&reference.points));

    // poison the cache, kill a node, drop the buffer pools
    let corrupted = faulted
        .cluster()
        .corrupt_cache_entry("velocity", DerivedField::CurlNorm, 0);
    assert!(corrupted > 0);
    plan.set_node_down(1, true);
    faulted.cluster().clear_buffer_pools();

    let r = faulted
        .get_threshold(&q)
        .expect("query must complete despite all three fault kinds");
    let degraded = r.degraded.expect("killed node must be reported");
    assert_eq!(degraded.failed_nodes.len(), 1);
    assert_eq!(degraded.failed_nodes[0].node, 1);
    // the surviving node healed its cache entry from raw atoms: the answer
    // is the fault-free one restricted to the live node's boxes
    assert_eq!(
        bits(&r.points),
        bits_outside(&reference.points, &degraded.missing_boxes)
    );

    // the process-wide registry saw at least this plan's faults (other
    // tests share the registry, so deltas are lower bounds)
    let after = faulted.metrics_snapshot();
    let delta = |name: &str| after.counter(name) - before.counter(name);
    let counts = plan.counts();
    let transient = counts.transient - built.transient;
    assert!(counts.node_down >= 1);
    assert!(delta("faults.injected.node_down") >= counts.node_down - built.node_down);
    assert!(delta("faults.injected.transient") >= transient);
    assert!(delta("cache.semantic.quarantined") >= 1);
    assert!(delta("cache.semantic.rebuilt") >= 1);
    assert!(delta("query.degraded") >= 1);
    if transient > 0 {
        assert!(delta("storage.read.retries") >= transient);
    }
}

#[test]
fn lossy_tier_under_transient_faults_stays_within_bound() {
    // transient read faults retry over *compressed* blocks too, and the
    // decoded samples a cutout returns still honour the codec's bound
    // against the uncompressed archive
    let bound = 1e-2;
    let plan = FaultPlan::new(0x5eed)
        .with_rule(FaultRule::transient_reads(0.25))
        .shared();
    let lossy = faulted_archive("fi_lossy", &plan, false)
        .cluster(|c| c.compression = CompressionConfig::lossy(2, bound))
        .build();
    let clean = archive("fi_lossy_ref").build();
    lossy.cluster().clear_buffer_pools();
    let full = lossy.full_box();
    let (a, _) = lossy
        .get_cutout("velocity", 0, &full)
        .expect("lossy cutout");
    let (b, _) = clean
        .get_cutout("velocity", 0, &full)
        .expect("clean cutout");
    for c in 0..3 {
        for (x, y) in a.comp(c).as_slice().iter().zip(b.comp(c).as_slice()) {
            assert!(
                (f64::from(*x) - f64::from(*y)).abs() <= bound,
                "decoded {x} vs original {y} breaks the {bound} bound"
            );
        }
    }
    assert!(
        plan.counts().transient > 0,
        "seed 0x5eed must fire at least one transient fault"
    );
}

#[test]
fn corrupted_compressed_partition_fails_loudly() {
    // CRC protection covers compressed partitions identically: a flipped
    // byte is a loud backend error, never a silently wrong decode
    let service = archive("fi_comp_corrupt")
        .cluster(|c| c.compression = CompressionConfig::lossless())
        .build();
    assert_corruption_fails_loudly(&service);
}

#[test]
fn quarantined_cache_entry_heals_identically_over_compressed_tier() {
    // the self-heal path recomputes from *decoded* atoms; decode is
    // deterministic, so the rebuilt entry is byte-identical to the
    // original cold scan even under a lossy codec
    let service = archive("fi_comp_heal")
        .cluster(|c| c.compression = CompressionConfig::lossy(2, 1e-2))
        .build();
    assert_cache_entry_self_heals(&service);
}

#[test]
fn cached_results_survive_storage_corruption() {
    // the semantic cache holds *results*, so a warm entry keeps answering
    // even when the raw data underneath has rotted — and the paper's
    // recovery path (re-evaluating at a lower threshold) fails loudly.
    let service = archive("fi_cache").build();
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 25.0);
    let cold = service.get_threshold(&q).expect("warm the cache");
    corrupt_velocity_partitions(service.dir());
    service.cluster().clear_buffer_pools();
    let warm = service
        .get_threshold(&q)
        .expect("cache hit needs no raw data");
    assert_eq!(warm.cache_hits, warm.nodes);
    assert_eq!(warm.points.len(), cold.points.len());
    // a lower threshold forces re-evaluation from (corrupt) raw data
    let lower = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 20.0);
    assert!(matches!(
        service.get_threshold(&lower),
        Err(QueryError::Backend(_))
    ));
}

/// The lossless compressed tier at replication factor `k`.
fn lossless_k(k: usize) -> impl FnOnce(&mut ClusterConfig) {
    move |c| {
        c.compression = CompressionConfig::lossless();
        c.replication = ReplicationConfig::k(k);
    }
}

/// A replica node dies and revives *while a scan workload is running*
/// over the lossless compressed tier: whether a query sees the outage
/// at scatter time or mid-scan, every answer stays complete and
/// byte-identical (lossless decode is deterministic).
#[test]
fn kill_replica_mid_scan_completes_over_compressed_tier() {
    let plan = FaultPlan::new(FaultPlan::seed_from_env(0x7411)).shared();
    let service = faulted_archive("fi_midscan", &plan, false)
        .cluster(lossless_k(2))
        .build();
    let clean = archive("fi_midscan_ref").cluster(lossless_k(1)).build();
    let q = curl_query().without_cache();
    let reference = bits(&clean.get_threshold(&q).expect("reference").points);

    let toggler_plan = Arc::clone(&plan);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    // only node 1 flaps, so some replica is always live for every chunk
    let toggler = std::thread::spawn(move || {
        while !stop_flag.load(std::sync::atomic::Ordering::Relaxed) {
            toggler_plan.set_node_down(1, true);
            std::thread::sleep(std::time::Duration::from_millis(2));
            toggler_plan.set_node_down(1, false);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    });
    for _ in 0..10 {
        service.cluster().clear_buffer_pools();
        let r = service
            .get_threshold(&q)
            .expect("scan under a flapping replica");
        assert!(r.degraded.is_none(), "k=2 must absorb the flapping node");
        assert_eq!(bits(&r.points), reference);
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    toggler.join().expect("toggler");
}

/// A slow-disk primary blows the per-node modelled-time deadline over
/// the compressed tier. Unreplicated, that deadline costs part of the
/// answer; at k=2 the mediator treats the timed-out node like a dead
/// one and fails the work over to its fast replica — the answer comes
/// back complete and byte-identical, inside the deadline.
#[test]
fn primary_timeout_fails_over_to_fast_replica() {
    // node 0's three field tables are exactly file ids 0/1024/2048
    // (file ids advance by 1024 per table, nodes built in order), so
    // these rules model one node with pathological disks
    let slow_node_0 = || {
        let mut plan = FaultPlan::new(FaultPlan::seed_from_env(0x7411));
        for file_id in [0, 1024, 2048] {
            plan = plan.with_rule(FaultRule {
                site: tdb_storage::FaultSite::BlockRead,
                kind: tdb_storage::FaultKind::Latency { seconds: 30.0 },
                probability: 1.0,
                file_id: Some(file_id),
                block_no: None,
            });
        }
        plan.shared()
    };
    let deadline = QueryLimits {
        node_deadline_s: Some(10.0),
        ..Default::default()
    };
    let q = curl_query().without_cache();

    // control: without replicas the deadline drops node 0's boxes
    let lone = faulted_archive("fi_timeout_k1", &slow_node_0(), false)
        .cluster(lossless_k(1))
        .limits(deadline)
        .build();
    let degraded = lone
        .get_threshold(&q)
        .expect("deadline must degrade, not fail")
        .degraded
        .expect("the slow node must miss the deadline");
    assert!(degraded.failed_nodes[0].reason.contains("deadline"));

    // replicated: the same pathology fails over and completes
    let replicated = faulted_archive("fi_timeout_k2", &slow_node_0(), false)
        .cluster(lossless_k(2))
        .limits(deadline)
        .build();
    let clean = archive("fi_timeout_ref").cluster(lossless_k(1)).build();
    let r = replicated
        .get_threshold(&q)
        .expect("failover must beat the deadline");
    assert!(r.degraded.is_none(), "the fast replica must fill in");
    let reference = clean.get_threshold(&q).expect("reference");
    assert_eq!(bits(&r.points), bits(&reference.points));
}
