//! Deterministic concurrency suite: explicit batches that share one scan,
//! the threads a scatter creates, and wire-level admission control.
//!
//! Metric-delta assertions read process-wide counters, so every test in
//! this binary that evaluates queries holds [`METRICS`] for its whole
//! body. The suite is then correct under `--test-threads=1` and under
//! the default parallel runner alike (CI runs both).

use std::sync::{Arc, Barrier, Mutex, MutexGuard};

use proptest::prelude::*;
use tdb_bench::{bits, bits_outside, harness, ranked_bits, reference_points, test_service};
use tdb_cluster::mediator::ThresholdRequest;
use tdb_cluster::{BatchAnswer, BatchQuery, QueryMode, ReplicationConfig};
use tdb_core::{Box3, DerivedField, ThresholdQuery, TurbulenceService};
use tdb_storage::{FaultPlan, FaultRule, StorageError};
use tdb_wire::admission::{Admission, AdmissionConfig};
use tdb_wire::client::ClientError;
use tdb_wire::server::{Server, ServerConfig};

static METRICS: Mutex<()> = Mutex::new(());

fn metrics_lock() -> MutexGuard<'static, ()> {
    // a panicking test must not wedge the rest of the suite
    METRICS.lock().unwrap_or_else(|e| e.into_inner())
}

fn counter(name: &str) -> u64 {
    tdb_obs::global().snapshot().counter(name)
}

fn curl_query(threshold: f64) -> ThresholdQuery {
    ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, threshold)
}

/// The PR's acceptance criterion: four concurrent identical queries
/// through the coalesced path decode at least 2x fewer atoms than four
/// independent evaluations, with byte-identical results.
#[test]
fn coalesced_batch_halves_atom_decodes_with_identical_answers() {
    let _g = metrics_lock();
    let service = test_service("conc_accept", 64, 1, 4);
    let q = curl_query(25.0).without_cache();

    // baseline: four independent sequential evaluations
    service.cluster().clear_buffer_pools();
    let before = counter("node.atoms_scanned");
    let mut sequential = Vec::new();
    for _ in 0..4 {
        sequential.push(service.get_threshold(&q).unwrap());
    }
    let independent_atoms = counter("node.atoms_scanned") - before;

    // the same four queries as one coalesced batch
    service.cluster().clear_buffer_pools();
    let before = counter("node.atoms_scanned");
    let saved_before = counter("scan.atoms_saved");
    let batch = service.get_threshold_batch(&vec![q; 4]);
    let shared_atoms = counter("node.atoms_scanned") - before;

    let reference = bits(&sequential[0].points);
    assert!(!reference.is_empty(), "threshold must select some points");
    for r in &sequential {
        assert_eq!(bits(&r.points), reference);
    }
    for r in batch {
        let r = r.expect("batched query must succeed");
        assert_eq!(
            bits(&r.points),
            reference,
            "coalesced answers must be byte-identical to independent ones"
        );
    }
    assert!(
        shared_atoms > 0,
        "the shared scan still decodes every atom once"
    );
    assert!(
        shared_atoms * 2 <= independent_atoms,
        "coalescing must at least halve atom decodes: shared {shared_atoms} vs independent {independent_atoms}"
    );
    assert!(
        counter("scan.atoms_saved") > saved_before,
        "the shared scan must account its savings"
    );
}

/// Threshold, PDF and top-k queries over the same (field, derived,
/// timestep) share one scan and still answer exactly like independent
/// evaluations. The batch decodes each atom once: its scan reads exactly
/// the atoms the PDF — the widest participant, which no maximum prunes —
/// reads alone, and fewer than the three read one after another.
#[test]
fn mixed_query_kinds_share_one_scan() {
    let _g = metrics_lock();
    let service = test_service("conc_mixed", 32, 1, 2);
    let cluster = service.cluster();
    let req = ThresholdRequest {
        raw_field: "velocity".into(),
        derived: DerivedField::CurlNorm,
        timestep: 0,
        query_box: Box3::grid(32, 32, 32),
        threshold: 25.0,
        use_cache: false,
        mode: QueryMode::Full,
        procs_override: None,
        strict: false,
        node_deadline_s: None,
    };

    cluster.clear_buffer_pools();
    let before = counter("node.atoms_scanned");
    let t_ref = cluster.get_threshold(&req).unwrap();
    let before_pdf = counter("node.atoms_scanned");
    let pdf_ref = cluster.get_pdf(&req, 0.0, 10.0, 9).unwrap();
    let pdf_atoms = counter("node.atoms_scanned") - before_pdf;
    let topk_ref = cluster.get_topk(&req, 5).unwrap();
    let independent_atoms = counter("node.atoms_scanned") - before;

    cluster.clear_buffer_pools();
    let before = counter("node.atoms_scanned");
    let answers = cluster.run_batch(vec![
        BatchQuery::Threshold(req.clone()),
        BatchQuery::Pdf {
            req: req.clone(),
            origin: 0.0,
            width: 10.0,
            nbins: 9,
        },
        BatchQuery::TopK { req, k: 5 },
    ]);
    let shared_atoms = counter("node.atoms_scanned") - before;

    let mut answers = answers.into_iter();
    match answers.next().unwrap().unwrap() {
        BatchAnswer::Threshold(t) => {
            assert_eq!(bits(&t.points), bits(&t_ref.points))
        }
        other => panic!("expected a threshold answer, got {other:?}"),
    }
    match answers.next().unwrap().unwrap() {
        BatchAnswer::Pdf(p) => {
            assert_eq!(p.histogram.counts(), pdf_ref.histogram.counts())
        }
        other => panic!("expected a pdf answer, got {other:?}"),
    }
    match answers.next().unwrap().unwrap() {
        BatchAnswer::Threshold(t) => {
            assert_eq!(bits(&t.points), bits(&topk_ref.points))
        }
        other => panic!("expected a top-k answer, got {other:?}"),
    }
    assert_eq!(
        shared_atoms, pdf_atoms,
        "three kernels over one scan read what the widest reads alone"
    );
    assert!(
        shared_atoms < independent_atoms,
        "three kernels over one scan: shared {shared_atoms} vs independent {independent_atoms}"
    );
}

/// Strictness is applied to each answer after the scan, so it does not
/// split one: at k = 1 with node 1 down, a strict and a lenient query over
/// one key share a scan. The strict one fails with `NodeUnavailable`; the
/// lenient one is degraded and equals the reference outside what it names
/// missing.
#[test]
fn strict_and_lenient_queries_over_one_key_share_one_scan() {
    let _g = metrics_lock();
    let plan = FaultPlan::new(1).shared();
    let service = harness("conc_strict", 32, 1)
        .nodes(2)
        .cluster(|c| {
            c.replication = ReplicationConfig::k(1);
            c.faults = Some(Arc::clone(&plan));
        })
        .build();
    let lenient = ThresholdRequest {
        raw_field: "velocity".into(),
        derived: DerivedField::CurlNorm,
        timestep: 0,
        query_box: Box3::grid(32, 32, 32),
        threshold: 25.0,
        use_cache: false,
        mode: QueryMode::Full,
        procs_override: None,
        strict: false,
        node_deadline_s: None,
    };
    let strict = ThresholdRequest {
        strict: true,
        ..lenient.clone()
    };
    let reference = reference_points(&service, "velocity", DerivedField::CurlNorm, 0, 25.0);
    assert!(!reference.is_empty());

    plan.set_node_down(1, true);
    let coalesced = counter("scan.coalesced_queries");
    let answers = service.cluster().run_batch(vec![
        BatchQuery::Threshold(strict),
        BatchQuery::Threshold(lenient),
    ]);
    plan.set_node_down(1, false);
    assert_eq!(
        counter("scan.coalesced_queries") - coalesced,
        1,
        "the two queries share node 0's scan"
    );
    let mut answers = answers
        .into_iter()
        .map(|a| a.and_then(BatchAnswer::into_threshold));
    match answers.next().unwrap() {
        Err(StorageError::NodeUnavailable { node: 1, .. }) => {}
        other => panic!("the strict query must fail naming node 1, got {other:?}"),
    }
    let lenient = answers.next().unwrap().expect("the lenient query degrades");
    let missing = &lenient
        .degraded
        .as_ref()
        .expect("node 1's chunks are lost")
        .missing_boxes;
    assert!(!missing.is_empty());
    assert_eq!(bits(&lenient.points), bits_outside(&reference, missing));
}

/// Clips that are strict sub-boxes of the scanned hull on all three
/// axes: the row pipeline hands every derived row of the hull to every
/// clip's reducer, which must skip the rows outside the clip and cut the
/// rows inside it — for each kind, exactly as an independent scan of the
/// clip alone.
#[test]
fn shared_scan_over_strict_sub_box_clips_equals_independent_execution() {
    let _g = metrics_lock();
    let service = test_service("conc_subbox", 32, 1, 2);
    let cluster = service.cluster();
    let req = |query_box: Box3| ThresholdRequest {
        raw_field: "velocity".into(),
        derived: DerivedField::QCriterion,
        timestep: 0,
        query_box,
        threshold: 40.0,
        use_cache: false,
        mode: QueryMode::Full,
        procs_override: None,
        strict: false,
        node_deadline_s: None,
    };
    // 16³ chunks: the first two boxes sit inside chunk (0,0,0) and are
    // disjoint on every axis, the other two cross chunk and node borders
    let boxes = [
        Box3::new([1, 2, 3], [6, 9, 5]),
        Box3::new([8, 11, 9], [14, 13, 15]),
        Box3::new([3, 5, 17], [27, 29, 30]),
        Box3::new([13, 1, 2], [18, 30, 21]),
    ];
    let mut batch = Vec::new();
    let mut want_points = Vec::new();
    let mut want_counts = Vec::new();
    let mut want_topk = Vec::new();
    for b in boxes {
        want_points.push(ranked_bits(&cluster.get_threshold(&req(b)).unwrap().points));
        want_counts.push(
            cluster
                .get_pdf(&req(b), -400.0, 50.0, 16)
                .unwrap()
                .histogram
                .counts()
                .to_vec(),
        );
        want_topk.push(ranked_bits(&cluster.get_topk(&req(b), 7).unwrap().points));
        batch.push(BatchQuery::Threshold(req(b)));
        batch.push(BatchQuery::Pdf {
            req: req(b),
            origin: -400.0,
            width: 50.0,
            nbins: 16,
        });
        batch.push(BatchQuery::TopK { req: req(b), k: 7 });
    }
    assert!(want_points.iter().any(|p| !p.is_empty()));
    let shared_before = counter("scan.shared");
    let answers = cluster.run_batch(batch);
    assert!(
        counter("scan.shared") > shared_before,
        "the batch must share scans"
    );
    for (i, answer) in answers.into_iter().enumerate() {
        match answer.unwrap() {
            BatchAnswer::Threshold(t) if i % 3 == 0 => {
                assert_eq!(ranked_bits(&t.points), want_points[i / 3])
            }
            BatchAnswer::Pdf(p) => assert_eq!(p.histogram.counts(), want_counts[i / 3]),
            BatchAnswer::Threshold(t) => assert_eq!(ranked_bits(&t.points), want_topk[i / 3]),
        }
    }
}

/// Runs each query alone, then the whole set as one coalesced batch, and
/// demands slot-by-slot byte-identical answers.
fn assert_batch_equals_sequential(service: &TurbulenceService, queries: &[ThresholdQuery]) {
    let sequential: Vec<_> = queries
        .iter()
        .map(|q| {
            service
                .get_threshold(q)
                .expect("sequential query must succeed")
        })
        .collect();
    for (i, r) in service.get_threshold_batch(queries).into_iter().enumerate() {
        let r = r.expect("batched query must succeed");
        assert_eq!(
            bits(&r.points),
            bits(&sequential[i].points),
            "query {i} diverged between sequential and coalesced evaluation"
        );
    }
}

/// Random overlapping query sets answer identically whether each
/// query runs alone or the set runs as one coalesced batch — with
/// caching on (later queries may hit entries earlier ones built) and
/// with random sub-boxes that overlap arbitrarily.
#[test]
fn coalesced_equals_sequential_for_random_query_sets() {
    let _g = metrics_lock();
    let service = test_service("conc_prop", 32, 1, 2);
    proptest!(ProptestConfig::with_cases(8), |(
        corner in prop::array::uniform3(0u32..16),
        sizes in prop::collection::vec(prop::array::uniform3(3u32..16), 3..6),
        thresholds in prop::collection::vec(5.0f64..60.0, 3..6),
        cached in prop::collection::vec(any::<bool>(), 3..6),
    )| {
        let queries: Vec<ThresholdQuery> = sizes
            .iter()
            .zip(&thresholds)
            .zip(&cached)
            .map(|((size, &threshold), &use_cache)| {
                let lo = corner;
                let hi = [
                    (lo[0] + size[0]).min(31),
                    (lo[1] + size[1]).min(31),
                    (lo[2] + size[2]).min(31),
                ];
                let q = curl_query(threshold).in_box(Box3::new(lo, hi));
                if use_cache { q } else { q.without_cache() }
            })
            .collect();
        assert_batch_equals_sequential(&service, &queries);
    });
}

/// The same property under deterministic fault injection: transient
/// read faults fire (fixed `TDB_FAULT_SEED` default 0x7411) on both
/// paths and retries absorb them to the same byte-identical answers.
#[test]
fn coalesced_equals_sequential_under_injected_faults() {
    let _g = metrics_lock();
    let seed = FaultPlan::seed_from_env(0x7411);
    let plan = FaultPlan::new(seed)
        .with_rule(FaultRule::transient_reads(0.2))
        .shared();
    let service = harness("conc_prop_faults", 32, 1)
        .cluster(|c| c.faults = Some(plan))
        .build();
    proptest!(ProptestConfig::with_cases(8), |(
        thresholds in prop::collection::vec(10.0f64..50.0, 2..5),
    )| {
        let queries: Vec<ThresholdQuery> = thresholds
            .iter()
            .map(|&t| curl_query(t).without_cache())
            .collect();
        service.cluster().clear_buffer_pools();
        assert_batch_equals_sequential(&service, &queries);
    });
}

/// Wire-level load shedding: with its one in-flight slot held and no
/// queue, the server sheds every request of a burst of four concurrent
/// clients with `Busy` and the configured hint; once the slot is free,
/// each shed client that retries after the hint, and a fresh one, gets a
/// correct answer.
#[test]
fn wire_server_sheds_concurrent_burst_with_busy() {
    let _g = metrics_lock();
    let service = test_service("conc_wire", 32, 1, 2);
    let config = ServerConfig {
        admission: AdmissionConfig {
            max_inflight: 1,
            queue_depth: 0,
            busy_retry_ms: 25,
            tenants: Vec::new(),
        },
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&service), "127.0.0.1:0", config).expect("bind");
    let addr = server.addr();

    let reference = bits(&service.get_threshold(&curl_query(25.0)).unwrap().points);
    let shed_before = counter("admission.shed");
    // the test holds the one slot itself, so the burst is shed however
    // fast a query runs
    let Admission::Granted(held) = server.admission().admit(u64::MAX) else {
        panic!("an idle server must grant its one slot");
    };
    let barrier = Arc::new(Barrier::new(4));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = tdb_wire::Client::connect(addr).expect("connect");
                barrier.wait();
                let reply = client.get_threshold("velocity", DerivedField::CurlNorm, 0, None, 25.0);
                (client, reply)
            })
        })
        .collect();
    let mut ok = 0usize;
    let mut busy = 0usize;
    let mut clients = Vec::new();
    for h in handles {
        let (client, reply) = h.join().unwrap();
        match reply {
            Ok(answer) => {
                ok += 1;
                assert_eq!(bits(&answer.points), reference);
            }
            Err(ClientError::Busy {
                queue_depth,
                retry_ms,
            }) => {
                busy += 1;
                assert_eq!(queue_depth, 0);
                assert_eq!(retry_ms, 25);
            }
            Err(e) => panic!("unexpected client error: {e}"),
        }
        clients.push(client);
    }
    assert_eq!(ok + busy, 4);
    assert_eq!(busy, 4, "a burst of 4 with its one slot held must shed");
    assert!(counter("admission.shed") > shed_before);
    drop(held);

    // back-off and retry drains: every shed client and a fresh one keep
    // retrying on Busy and must all get through once the slot is free
    clients.push(tdb_wire::Client::connect(addr).expect("connect"));
    let drains: Vec<_> = (clients.into_iter())
        .map(|mut client| {
            std::thread::spawn(move || loop {
                match client.get_threshold("velocity", DerivedField::CurlNorm, 0, None, 25.0) {
                    Ok(a) => break a,
                    Err(ClientError::Busy { retry_ms, .. }) => {
                        std::thread::sleep(std::time::Duration::from_millis(retry_ms));
                    }
                    Err(e) => panic!("unexpected client error: {e}"),
                }
            })
        })
        .collect();
    for h in drains {
        let answer = h.join().unwrap();
        ok += 1;
        assert_eq!(bits(&answer.points), reference);
    }
    assert!(ok >= 1, "at least one query must be admitted");
    server.stop();
}

/// A query every node answers from its cache — threshold over the whole
/// grid or an octant, or a PDF — runs on the caller's thread: 100 rounds
/// of hits leave `node.worker_threads` where priming left it, and answer
/// bit-identically to evaluations that bypass the cache. One uncached
/// query does move the counter on a host with two cores or more.
#[test]
fn queries_every_node_answers_from_cache_create_no_thread() {
    let _g = metrics_lock();
    let service = test_service("conc_hits", 32, 1, 4);
    let whole = curl_query(25.0);
    // one entry per quantity: the octant is answered from the whole grid's
    let octant = curl_query(30.0).in_box(Box3::new([0, 0, 0], [15, 15, 15]));
    let pdf = curl_query(0.0);
    let counts = |q: &ThresholdQuery| {
        let answer = service.get_pdf(q, 0.0, 5.0, 16).unwrap();
        answer.histogram.counts().to_vec()
    };
    let want_whole = bits(
        &service
            .get_threshold(&whole.clone().without_cache())
            .unwrap()
            .points,
    );
    let want_octant = bits(
        &service
            .get_threshold(&octant.clone().without_cache())
            .unwrap()
            .points,
    );
    let want_pdf = counts(&pdf.clone().without_cache());
    assert!(!want_whole.is_empty() && !want_octant.is_empty());
    // priming fills every node's entries
    service.get_threshold(&whole).unwrap();
    counts(&pdf);

    let threads = counter("node.worker_threads");
    let pdf_hits = counter("cache.pdf.hits");
    for _ in 0..100 {
        for (q, want) in [(&whole, &want_whole), (&octant, &want_octant)] {
            let answer = service.get_threshold(q).unwrap();
            assert_eq!(answer.cache_hits, answer.nodes);
            assert_eq!(&bits(&answer.points), want);
        }
        assert_eq!(counts(&pdf), want_pdf);
    }
    assert_eq!(
        counter("cache.pdf.hits") - pdf_hits,
        100 * 4,
        "every PDF node probe hits"
    );
    assert_eq!(
        counter("node.worker_threads"),
        threads,
        "a query answered from cache alone must not spawn"
    );

    if std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2 {
        service.get_threshold(&whole.without_cache()).unwrap();
        assert!(
            counter("node.worker_threads") > threads,
            "an uncached whole-grid query fans out"
        );
    }
}

/// A partial hit scans only the node that missed, and a failed probe
/// fails over like a failed scan. At k = 2 with node 1 down, node 0 also
/// scans node 1's chunks — under a failover assignment, which caches
/// nothing. With node 1 back, node 0 answers from its cache, node 1 alone
/// scans and fills its entry, and the answer is unchanged. The outage
/// counts once per unavailable evaluation.
#[test]
fn a_partial_hit_scans_only_the_node_that_missed() {
    let _g = metrics_lock();
    let plan = FaultPlan::new(1).shared();
    let service = harness("conc_partial", 32, 1)
        .nodes(2)
        .cluster(|c| {
            c.replication = ReplicationConfig::k(2);
            c.faults = Some(Arc::clone(&plan));
        })
        .build();
    let nodes = service.cluster().nodes();
    let stats = |n: usize| nodes[n].cache.stats();
    let q = curl_query(25.0);
    let reference = bits(
        &service
            .get_threshold(&q.clone().without_cache())
            .unwrap()
            .points,
    );
    assert!(!reference.is_empty());

    plan.set_node_down(1, true);
    let down_before = (
        plan.counts().node_down,
        counter("faults.injected.node_down"),
    );
    let unavailable_before = counter("node.unavailable");
    let failed_over = service.get_threshold(&q).unwrap();
    assert!(
        failed_over.degraded.is_none(),
        "node 0 holds a replica of every chunk"
    );
    assert_eq!(bits(&failed_over.points), reference);
    assert_eq!(plan.counts().node_down - down_before.0, 1);
    assert_eq!(counter("faults.injected.node_down") - down_before.1, 1);
    assert_eq!(counter("node.unavailable") - unavailable_before, 1);
    // node 0's entry holds its own chunks only; node 1 has none
    assert_eq!((nodes[0].cache.len(), nodes[1].cache.len()), (1, 0));

    plan.set_node_down(1, false);
    let before = [stats(0), stats(1)];
    let revived = service.get_threshold(&q).unwrap();
    assert_eq!(bits(&revived.points), reference);
    assert_eq!(revived.cache_hits, revived.nodes - 1);
    let after = [stats(0), stats(1)];
    assert_eq!(
        after[0].hits - before[0].hits,
        1,
        "node 0 answers from its cache"
    );
    assert_eq!(after[0].inserts, before[0].inserts, "node 0 does not scan");
    assert_eq!(after[1].misses - before[1].misses, 1, "node 1 missed");
    assert_eq!(
        after[1].inserts - before[1].inserts,
        1,
        "node 1 scans and fills"
    );
}

/// Control-plane requests are never shed: even with a zero-size queue
/// and a data query in flight, `ping`/`info`/`metrics` answer.
#[test]
fn control_plane_requests_bypass_admission() {
    let _g = metrics_lock();
    let service = test_service("conc_ctl", 32, 1, 2);
    let config = ServerConfig {
        admission: AdmissionConfig {
            max_inflight: 1,
            queue_depth: 0,
            busy_retry_ms: 10,
            tenants: Vec::new(),
        },
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&service), "127.0.0.1:0", config).expect("bind");
    let addr = server.addr();
    let barrier = Arc::new(Barrier::new(2));
    let b = Arc::clone(&barrier);
    let data = std::thread::spawn(move || {
        let mut client = tdb_wire::Client::connect(addr).expect("connect");
        b.wait();
        client.get_threshold("velocity", DerivedField::CurlNorm, 0, None, 25.0)
    });
    let mut client = tdb_wire::Client::connect(addr).expect("connect");
    barrier.wait();
    for _ in 0..20 {
        client.ping().expect("ping must never be shed");
        let (counters, _) = client.metrics().expect("metrics must never be shed");
        assert!(!counters.is_empty());
    }
    data.join()
        .unwrap()
        .expect("the data query itself succeeds");
    server.stop();
}
