//! Deterministic concurrency suite: shared-scan coalescing, the mediator
//! scan scheduler, and wire-level admission control.
//!
//! Metric-delta assertions read process-wide counters, so every test in
//! this binary that evaluates queries holds [`METRICS`] for its whole
//! body. The suite is then correct under `--test-threads=1` and under
//! the default parallel runner alike (CI runs both).

use std::sync::{Arc, Barrier, Mutex, MutexGuard};

use proptest::prelude::*;
use tdb_bench::{bits, harness, ranked_bits, test_service};
use tdb_cluster::mediator::ThresholdRequest;
use tdb_cluster::{BatchAnswer, BatchQuery, CoalesceConfig};
use tdb_core::{Box3, DerivedField, QueryMode, ThresholdQuery, TurbulenceService};
use tdb_storage::{FaultPlan, FaultRule};
use tdb_wire::admission::AdmissionConfig;
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
        "the scheduler must account its savings"
    );
}

/// The scan scheduler: four threads admitted inside one coalescing
/// window become exactly one batch, and each gets the answer it would
/// have received alone.
#[test]
fn scheduler_coalesces_concurrent_identical_queries() {
    let _g = metrics_lock();
    // a window far above thread-startup jitter plus a batch cap equal to
    // the thread count makes the grouping deterministic: the batch closes
    // the moment the fourth query joins, never by timeout
    let coalesce = CoalesceConfig {
        window_ms: 2000,
        max_batch: 4,
    };
    let service = harness("conc_sched", 32, 1)
        .cluster(|c| c.coalesce = Some(coalesce))
        .build();
    let q = curl_query(25.0).without_cache();
    // reference through the direct batch path, which bypasses the
    // scheduler (no 2 s window wait for a solo query)
    let reference = bits(
        &service.get_threshold_batch(std::slice::from_ref(&q))[0]
            .as_ref()
            .expect("reference query")
            .points,
    );

    let batches_before = counter("scheduler.batches");
    let coalesced_before = counter("scheduler.coalesced");
    let barrier = Arc::new(Barrier::new(4));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            let q = q.clone();
            std::thread::spawn(move || {
                barrier.wait();
                service.get_threshold(&q).unwrap()
            })
        })
        .collect();
    for h in handles {
        let r = h.join().unwrap();
        assert_eq!(bits(&r.points), reference);
    }
    assert_eq!(
        counter("scheduler.batches") - batches_before,
        1,
        "all four queries must land in one batch"
    );
    assert_eq!(counter("scheduler.coalesced") - coalesced_before, 3);
}

/// Threshold, PDF and top-k queries over the same (field, derived,
/// timestep) share one scan and still answer exactly like independent
/// evaluations.
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
    let pdf_ref = cluster.get_pdf(&req, 0.0, 10.0, 9).unwrap();
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
        BatchAnswer::TopK(t) => {
            assert_eq!(bits(&t.points), bits(&topk_ref.points))
        }
        other => panic!("expected a top-k answer, got {other:?}"),
    }
    assert!(
        shared_atoms * 2 <= independent_atoms,
        "three kernels over one scan: shared {shared_atoms} vs independent {independent_atoms}"
    );
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
            BatchAnswer::Threshold(t) => assert_eq!(ranked_bits(&t.points), want_points[i / 3]),
            BatchAnswer::Pdf(p) => assert_eq!(p.histogram.counts(), want_counts[i / 3]),
            BatchAnswer::TopK(t) => assert_eq!(ranked_bits(&t.points), want_topk[i / 3]),
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

/// Wire-level load shedding: with one in-flight slot and no queue, a
/// burst of four concurrent clients gets at least one `Busy` and at
/// least one full answer; every admitted answer is correct, and a shed
/// client that retries after the hint eventually succeeds.
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
    let barrier = Arc::new(Barrier::new(4));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = tdb_wire::Client::connect(addr).expect("connect");
                barrier.wait();
                client.get_threshold("velocity", DerivedField::CurlNorm, 0, None, 25.0)
            })
        })
        .collect();
    let mut ok = 0usize;
    let mut busy = 0usize;
    for h in handles {
        match h.join().unwrap() {
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
    }
    assert_eq!(ok + busy, 4);
    assert!(ok >= 1, "at least one query must be admitted");
    assert!(busy >= 1, "a burst of 4 with one slot must shed");
    assert!(counter("admission.shed") > shed_before);

    // back-off and retry drains: a fresh client keeps retrying on Busy
    // and must get through once the burst is over
    let mut client = tdb_wire::Client::connect(addr).expect("connect");
    let answer = loop {
        match client.get_threshold("velocity", DerivedField::CurlNorm, 0, None, 25.0) {
            Ok(a) => break a,
            Err(ClientError::Busy { retry_ms, .. }) => {
                std::thread::sleep(std::time::Duration::from_millis(retry_ms));
            }
            Err(e) => panic!("unexpected client error: {e}"),
        }
    };
    assert_eq!(bits(&answer.points), reference);
    server.stop();
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
