//! Fault tolerance of the query path: corrupted partition blocks are
//! detected by the CRC and surfaced as query errors — never as silent
//! wrong answers or crashes; injected transient faults are retried away;
//! corrupted cache entries self-heal; a dead node degrades the answer
//! instead of failing it (unless strict mode asks otherwise).

use std::io::{Read, Seek, SeekFrom, Write};
use std::sync::Arc;

use tdb_cluster::ClusterConfig;
use tdb_core::{
    DerivedField, QueryError, QueryLimits, ServiceConfig, ThresholdPoint, ThresholdQuery,
    TurbulenceService,
};
use tdb_storage::{FaultPlan, FaultRule};
use tdb_turbgen::SyntheticDataset;
use tdb_zorder::Box3;

fn build(tag: &str) -> (TurbulenceService, std::path::PathBuf) {
    let dir = tdb_bench::scratch_dir(tag);
    let config = ServiceConfig {
        dataset: SyntheticDataset::mhd(32, 1, 0xdead),
        cluster: ClusterConfig {
            num_nodes: 2,
            procs_per_node: 2,
            arrays_per_node: 2,
            chunk_atoms: 2,
            ..ClusterConfig::default()
        },
        limits: Default::default(),
        data_dir: dir.clone(),
    };
    (TurbulenceService::build(config).expect("build"), dir)
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

#[test]
fn corrupted_block_fails_the_query_loudly() {
    let (service, dir) = build("fi_corrupt");
    // sanity: the query works before corruption
    let q =
        ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 25.0).without_cache();
    let ok = service.get_threshold(&q).expect("pre-corruption query");
    assert!(!ok.points.is_empty());

    assert!(corrupt_velocity_partitions(&dir) > 0, "no partitions found");
    service.cluster().clear_buffer_pools(); // force re-reads from disk

    match service.get_threshold(&q) {
        Err(QueryError::Backend(msg)) => {
            assert!(
                msg.contains("corrupt") || msg.contains("crc"),
                "unexpected backend message: {msg}"
            );
        }
        Ok(_) => panic!("corrupted data must not produce an answer"),
        Err(other) => panic!("expected Backend error, got {other:?}"),
    }
}

#[test]
fn corruption_in_one_field_leaves_others_usable() {
    let (service, dir) = build("fi_isolated");
    corrupt_velocity_partitions(&dir);
    service.cluster().clear_buffer_pools();
    // magnetic-field queries never touch the corrupted velocity partitions
    let q = ThresholdQuery::whole_timestep("magnetic", DerivedField::Norm, 0, 2.0).without_cache();
    let r = service
        .get_threshold(&q)
        .expect("unrelated field must work");
    assert!(!r.points.is_empty());
}

/// Same shape as [`build`] but with a fault plan and failure policy.
fn build_faulted(tag: &str, plan: Option<Arc<FaultPlan>>, strict: bool) -> TurbulenceService {
    let config = ServiceConfig {
        dataset: SyntheticDataset::mhd(32, 1, 0xdead),
        cluster: ClusterConfig {
            num_nodes: 2,
            procs_per_node: 2,
            arrays_per_node: 2,
            chunk_atoms: 2,
            faults: plan,
            ..ClusterConfig::default()
        },
        limits: QueryLimits {
            strict,
            ..Default::default()
        },
        data_dir: tdb_bench::scratch_dir(tag),
    };
    TurbulenceService::build(config).expect("build")
}

/// Bit-exact, order-independent view of a threshold answer.
fn point_bits(points: &[ThresholdPoint]) -> Vec<(u64, u32)> {
    let mut v: Vec<(u64, u32)> = points
        .iter()
        .map(|p| (p.zindex, p.value.to_bits()))
        .collect();
    v.sort_unstable();
    v
}

/// The fault-free answer restricted to points outside `missing` — what a
/// degraded answer must equal bit for bit.
fn surviving_bits(reference: &[ThresholdPoint], missing: &[Box3]) -> Vec<(u64, u32)> {
    let mut v: Vec<(u64, u32)> = reference
        .iter()
        .filter(|p| {
            let (x, y, z) = p.coords();
            !missing.iter().any(|b| b.contains_point(x, y, z))
        })
        .map(|p| (p.zindex, p.value.to_bits()))
        .collect();
    v.sort_unstable();
    v
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
    let faulted = build_faulted("fi_transient", Some(Arc::clone(&plan)), false);
    let (clean, _dir) = build("fi_transient_ref");
    // bulk load leaves the blocks in the pool; faults only fire on the
    // disk-load path, so make the query cold
    faulted.cluster().clear_buffer_pools();
    let q = curl_query().without_cache();
    let a = faulted
        .get_threshold(&q)
        .expect("retries must absorb transient faults");
    let b = clean.get_threshold(&q).expect("clean reference");
    assert_eq!(point_bits(&a.points), point_bits(&b.points));
    assert!(a.degraded.is_none());
    let counts = plan.counts();
    assert!(
        counts.transient > 0,
        "seed 0x5eed must fire at least one transient fault"
    );
}

#[test]
fn corrupted_cache_entry_is_quarantined_and_self_heals() {
    let (service, _dir) = build("fi_heal");
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
    assert_eq!(point_bits(&healed.points), point_bits(&cold.points));
    assert!(service.cluster().cache_stats().quarantined >= corrupted as u64);

    // the recomputation rebuilt the entry: hits serve again, still identical
    let rewarm = service.get_threshold(&q).expect("rebuilt entry");
    assert_eq!(rewarm.cache_hits, rewarm.nodes, "healed entry must serve");
    assert_eq!(point_bits(&rewarm.points), point_bits(&cold.points));
}

#[test]
fn killed_node_yields_degraded_answer_with_exact_missing_boxes() {
    let plan = FaultPlan::new(1).shared();
    let faulted = build_faulted("fi_down", Some(Arc::clone(&plan)), false);
    let (clean, _dir) = build("fi_down_ref");
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
        point_bits(&r.points),
        surviving_bits(&full.points, &degraded.missing_boxes)
    );
    assert!(plan.counts().node_down > 0);

    // reviving the node restores the full answer
    plan.set_node_down(1, false);
    let back = faulted.get_threshold(&q).expect("revived");
    assert!(back.degraded.is_none());
    assert_eq!(point_bits(&back.points), point_bits(&full.points));
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
    let faulted = build_faulted("fi_kinds", Some(Arc::clone(&plan)), false);
    let strict_plan = FaultPlan::new(1).shared();
    let strict = build_faulted("fi_kinds_strict", Some(Arc::clone(&strict_plan)), true);
    let (clean, _dir) = build("fi_kinds_ref");
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
    let mut survivors: Vec<ThresholdPoint> = clean
        .get_threshold(&all)
        .expect("clean reference")
        .points
        .into_iter()
        .filter(|p| {
            let (x, y, z) = p.coords();
            !lost.iter().any(|b| b.contains_point(x, y, z))
        })
        .collect();
    tdb_cluster::select_topk(&mut survivors, k);
    survivors.sort_unstable_by(tdb_cluster::topk_order);
    let ranked = |points: &[ThresholdPoint]| -> Vec<(u64, u32)> {
        points
            .iter()
            .map(|p| (p.zindex, p.value.to_bits()))
            .collect()
    };
    assert_eq!(ranked(&top.points), ranked(&survivors));

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
        assert_eq!(point_bits(&t.points), point_bits(&reference.points));
        let reference = clean
            .get_pdf(&inside, origin, width, nbins)
            .expect("clean reference");
        assert_eq!(p.histogram.counts(), reference.histogram.counts());
        let reference = clean.get_topk(&inside, k).expect("clean reference");
        assert_eq!(ranked(&top.points), ranked(&reference.points));
    }

    // strict: each kind refuses the partial whole-grid answer
    let unavailable = |r: Result<(), QueryError>| match r {
        Err(QueryError::Backend(msg)) => {
            assert!(msg.contains("unavailable"), "unexpected message: {msg}")
        }
        other => panic!("strict mode must fail with a backend error, got {other:?}"),
    };
    unavailable(strict.get_threshold(&all).map(|_| ()));
    unavailable(strict.get_pdf(&all, origin, width, nbins).map(|_| ()));
    unavailable(strict.get_topk(&all, k).map(|_| ()));
}

#[test]
fn strict_mode_fails_loudly_when_a_node_is_down() {
    let plan = FaultPlan::new(2).shared();
    let service = build_faulted("fi_strict", Some(Arc::clone(&plan)), true);
    plan.set_node_down(0, true);
    let q = curl_query().without_cache();
    match service.get_threshold(&q) {
        Err(QueryError::Backend(msg)) => {
            assert!(msg.contains("unavailable"), "unexpected message: {msg}");
        }
        Ok(_) => panic!("strict mode must not return a partial answer"),
        Err(other) => panic!("expected Backend error, got {other:?}"),
    }
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
    let faulted = build_faulted("fi_combined", Some(Arc::clone(&plan)), false);
    let (clean, _dir) = build("fi_combined_ref");
    let q = curl_query();
    let reference = clean.get_threshold(&q).expect("clean reference");
    let before = faulted.metrics_snapshot();

    // warm the cache under transient read faults: already byte-identical
    faulted.cluster().clear_buffer_pools();
    let warm = faulted
        .get_threshold(&q)
        .expect("warm under transient faults");
    assert_eq!(point_bits(&warm.points), point_bits(&reference.points));

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
        point_bits(&r.points),
        surviving_bits(&reference.points, &degraded.missing_boxes)
    );

    // the process-wide registry saw at least this plan's faults (other
    // tests share the registry, so deltas are lower bounds)
    let after = faulted.metrics_snapshot();
    let delta = |name: &str| after.counter(name) - before.counter(name);
    let counts = plan.counts();
    assert!(counts.node_down >= 1);
    assert!(delta("faults.injected.node_down") >= counts.node_down);
    assert!(delta("faults.injected.transient") >= counts.transient);
    assert!(delta("cache.semantic.quarantined") >= 1);
    assert!(delta("cache.semantic.rebuilt") >= 1);
    assert!(delta("query.degraded") >= 1);
    if counts.transient > 0 {
        assert!(delta("storage.read.retries") >= counts.transient);
    }
}

/// Same shape as [`build_faulted`] but with a storage codec.
fn build_codec(
    tag: &str,
    codec: tdb_cluster::CompressionConfig,
    plan: Option<Arc<FaultPlan>>,
) -> (TurbulenceService, std::path::PathBuf) {
    let dir = tdb_bench::scratch_dir(tag);
    let config = ServiceConfig {
        dataset: SyntheticDataset::mhd(32, 1, 0xdead),
        cluster: ClusterConfig {
            num_nodes: 2,
            procs_per_node: 2,
            arrays_per_node: 2,
            chunk_atoms: 2,
            compression: codec,
            faults: plan,
            ..ClusterConfig::default()
        },
        limits: Default::default(),
        data_dir: dir.clone(),
    };
    (TurbulenceService::build(config).expect("build"), dir)
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
    let (lossy, _dir) = build_codec(
        "fi_lossy",
        tdb_cluster::CompressionConfig::lossy(2, bound),
        Some(Arc::clone(&plan)),
    );
    let (clean, _dir) = build("fi_lossy_ref");
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
    let (service, dir) = build_codec(
        "fi_comp_corrupt",
        tdb_cluster::CompressionConfig::lossless(),
        None,
    );
    let q = curl_query().without_cache();
    service.get_threshold(&q).expect("pre-corruption query");
    assert!(corrupt_velocity_partitions(&dir) > 0, "no partitions found");
    service.cluster().clear_buffer_pools();
    match service.get_threshold(&q) {
        Err(QueryError::Backend(msg)) => {
            assert!(
                msg.contains("corrupt") || msg.contains("crc"),
                "unexpected backend message: {msg}"
            );
        }
        Ok(_) => panic!("corrupted compressed data must not produce an answer"),
        Err(other) => panic!("expected Backend error, got {other:?}"),
    }
}

#[test]
fn quarantined_cache_entry_heals_identically_over_compressed_tier() {
    // the self-heal path recomputes from *decoded* atoms; decode is
    // deterministic, so the rebuilt entry is byte-identical to the
    // original cold scan even under a lossy codec
    let (service, _dir) = build_codec(
        "fi_comp_heal",
        tdb_cluster::CompressionConfig::lossy(2, 1e-2),
        None,
    );
    let q = curl_query();
    let cold = service.get_threshold(&q).expect("cold scan");
    let warm = service.get_threshold(&q).expect("warm hit");
    assert_eq!(warm.cache_hits, warm.nodes, "cache should be warm");

    let corrupted = service
        .cluster()
        .corrupt_cache_entry("velocity", DerivedField::CurlNorm, 0);
    assert!(corrupted > 0, "no cached entries to corrupt");
    service.cluster().clear_buffer_pools();

    let healed = service.get_threshold(&q).expect("healing query");
    assert_eq!(healed.cache_hits, 0, "a quarantined entry must not answer");
    assert_eq!(point_bits(&healed.points), point_bits(&cold.points));

    let rewarm = service.get_threshold(&q).expect("rebuilt entry");
    assert_eq!(rewarm.cache_hits, rewarm.nodes, "healed entry must serve");
    assert_eq!(point_bits(&rewarm.points), point_bits(&cold.points));
}

#[test]
fn cached_results_survive_storage_corruption() {
    // the semantic cache holds *results*, so a warm entry keeps answering
    // even when the raw data underneath has rotted — and the paper's
    // recovery path (re-evaluating at a lower threshold) fails loudly.
    let (service, dir) = build("fi_cache");
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 25.0);
    let cold = service.get_threshold(&q).expect("warm the cache");
    corrupt_velocity_partitions(&dir);
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

/// Same shape as [`build_codec`] but replicated, with a failure policy.
fn build_replicated_codec(
    tag: &str,
    codec: tdb_cluster::CompressionConfig,
    plan: Option<Arc<FaultPlan>>,
    limits: QueryLimits,
) -> TurbulenceService {
    let config = ServiceConfig {
        dataset: SyntheticDataset::mhd(32, 1, 0xdead),
        cluster: ClusterConfig {
            num_nodes: 2,
            procs_per_node: 2,
            arrays_per_node: 2,
            chunk_atoms: 2,
            compression: codec,
            replication: tdb_cluster::ReplicationConfig::k(2),
            faults: plan,
            ..ClusterConfig::default()
        },
        limits,
        data_dir: tdb_bench::scratch_dir(tag),
    };
    TurbulenceService::build(config).expect("build")
}

/// A replica node dies and revives *while a scan workload is running*
/// over the lossless compressed tier: whether a query sees the outage
/// at scatter time or mid-scan, every answer stays complete and
/// byte-identical (lossless decode is deterministic).
#[test]
fn kill_replica_mid_scan_completes_over_compressed_tier() {
    let plan = FaultPlan::new(FaultPlan::seed_from_env(0x7411)).shared();
    let service = build_replicated_codec(
        "fi_midscan",
        tdb_cluster::CompressionConfig::lossless(),
        Some(Arc::clone(&plan)),
        Default::default(),
    );
    let (clean, _dir) = build_codec(
        "fi_midscan_ref",
        tdb_cluster::CompressionConfig::lossless(),
        None,
    );
    let q = curl_query().without_cache();
    let reference = point_bits(&clean.get_threshold(&q).expect("reference").points);

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
        assert_eq!(point_bits(&r.points), reference);
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
    let lone = build_codec_limits(
        "fi_timeout_k1",
        tdb_cluster::CompressionConfig::lossless(),
        Some(slow_node_0()),
        deadline,
    );
    let degraded = lone
        .get_threshold(&q)
        .expect("deadline must degrade, not fail")
        .degraded
        .expect("the slow node must miss the deadline");
    assert!(degraded.failed_nodes[0].reason.contains("deadline"));

    // replicated: the same pathology fails over and completes
    let replicated = build_replicated_codec(
        "fi_timeout_k2",
        tdb_cluster::CompressionConfig::lossless(),
        Some(slow_node_0()),
        deadline,
    );
    let (clean, _dir) = build_codec(
        "fi_timeout_ref",
        tdb_cluster::CompressionConfig::lossless(),
        None,
    );
    let r = replicated
        .get_threshold(&q)
        .expect("failover must beat the deadline");
    assert!(r.degraded.is_none(), "the fast replica must fill in");
    let reference = clean.get_threshold(&q).expect("reference");
    assert_eq!(point_bits(&r.points), point_bits(&reference.points));
}

/// Same shape as [`build_codec`] but with query limits.
fn build_codec_limits(
    tag: &str,
    codec: tdb_cluster::CompressionConfig,
    plan: Option<Arc<FaultPlan>>,
    limits: QueryLimits,
) -> TurbulenceService {
    let config = ServiceConfig {
        dataset: SyntheticDataset::mhd(32, 1, 0xdead),
        cluster: ClusterConfig {
            num_nodes: 2,
            procs_per_node: 2,
            arrays_per_node: 2,
            chunk_atoms: 2,
            compression: codec,
            faults: plan,
            ..ClusterConfig::default()
        },
        limits,
        data_dir: tdb_bench::scratch_dir(tag),
    };
    TurbulenceService::build(config).expect("build")
}
