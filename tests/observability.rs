//! The observability layer end-to-end: process-wide metrics move when
//! queries run, query traces agree with the modelled time breakdown, and
//! the f64 threshold comparison keeps warm answers byte-identical to cold
//! ones even at thresholds no f32 can represent.
//!
//! Metrics are process-global and the test binary runs tests in parallel,
//! so every assertion here is on a *delta* between two snapshots and only
//! ever checks `>=` — concurrent tests can add to a counter but never
//! subtract from it.

use tdb_bench::{harness, test_service};
use tdb_core::{AttrValue, DerivedField, FdOrder, ThresholdQuery};

#[test]
fn cold_then_warm_query_moves_bufferpool_and_cache_counters() {
    let service = test_service("obs_counters", 32, 1, 2);
    let stats = service
        .derived_stats("velocity", DerivedField::CurlNorm, 0)
        .unwrap();
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 3.0 * stats.rms);

    let before = service.metrics_snapshot();
    let cold = service.get_threshold(&q).unwrap();
    assert_eq!(cold.cache_hits, 0);
    let warm = service.get_threshold(&q).unwrap();
    assert_eq!(warm.cache_hits, warm.nodes);
    let delta = service.metrics_snapshot().counters_since(&before);
    let get = |k: &str| delta.get(k).copied().unwrap_or(0);

    // the cold run faulted blocks into the buffer pool and missed the
    // semantic cache on every node; the warm run hit it on every node
    assert!(get("bufferpool.misses") > 0, "cold query faults blocks in");
    assert!(get("cache.semantic.misses") >= warm.nodes as u64);
    assert!(get("cache.semantic.inserts") >= warm.nodes as u64);
    assert!(get("cache.semantic.hits") >= warm.nodes as u64);
    assert!(get("node.atoms_scanned") > 0);
    assert!(get("query.threshold.count") >= 2);
    assert!(get("query.threshold.ok") >= 2);
    assert!(get("query.points_returned") >= cold.points.len() as u64);
    let io_bytes: u64 = delta
        .iter()
        .filter(|(k, _)| k.starts_with("io.bytes."))
        .map(|(_, &v)| v)
        .sum();
    assert!(io_bytes > 0, "per-device I/O counters must move");

    // re-evaluating from raw data with the semantic cache bypassed hits
    // the (still warm) buffer pool
    let before = service.metrics_snapshot();
    service
        .cluster()
        .invalidate_cache_entry("velocity", DerivedField::CurlNorm, 0);
    service.get_threshold(&q.clone().without_cache()).unwrap();
    let delta = service.metrics_snapshot().counters_since(&before);
    assert!(
        delta.get("bufferpool.hits").copied().unwrap_or(0) > 0,
        "re-read of resident blocks must count pool hits"
    );
}

#[test]
fn trace_phase_durations_match_the_time_breakdown() {
    let service = test_service("obs_trace", 32, 1, 2);
    let stats = service
        .derived_stats("velocity", DerivedField::CurlNorm, 0)
        .unwrap();
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 2.5 * stats.rms);
    let r = service.get_threshold(&q).unwrap();
    let trace = r.trace.as_ref().expect("threshold queries carry a trace");
    let b = &r.breakdown;

    let phase = |name: &str| {
        trace
            .span(name)
            .unwrap_or_else(|| panic!("missing span {name}"))
            .duration_s
    };
    assert_eq!(phase("phase.cache_lookup"), b.cache_lookup_s);
    assert_eq!(phase("phase.io"), b.io_s);
    assert_eq!(phase("phase.compute"), b.compute_s);
    assert_eq!(phase("phase.mediator_db"), b.mediator_db_s);
    assert_eq!(phase("phase.mediator_user"), b.mediator_user_s);
    assert_eq!(trace.root.duration_s, b.total_s());

    // one child span per node under the I/O phase; their point counts sum
    // to the answer and each records its cache outcome
    let io = trace.span("phase.io").unwrap();
    assert_eq!(io.children.len(), r.nodes);
    let node_points: u64 = io
        .children
        .iter()
        .map(|c| match c.attr("points") {
            Some(AttrValue::U64(n)) => *n,
            other => panic!("node span points attr: {other:?}"),
        })
        .sum();
    assert_eq!(node_points, r.points.len() as u64);
    for c in &io.children {
        assert!(
            matches!(c.attr("cache"), Some(AttrValue::Str(s)) if s == "hit" || s == "miss"),
            "node spans record their cache outcome"
        );
        assert!(c.attr("atoms_scanned").is_some());
    }
}

#[test]
fn pdf_and_topk_queries_return_traces_too() {
    let service = test_service("obs_trace_kinds", 32, 1, 2);
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 0.0);

    let pdf = service.get_pdf(&q, 0.0, 10.0, 9).unwrap();
    let t = pdf.trace.as_ref().expect("pdf queries carry a trace");
    assert_eq!(t.root.name, "query.pdf");
    assert_eq!(t.span("phase.io").unwrap().duration_s, pdf.breakdown.io_s);

    let topk = service.get_topk(&q, 5).unwrap();
    let t = topk.trace.as_ref().expect("topk queries carry a trace");
    assert_eq!(t.root.name, "query.topk");
    assert_eq!(
        t.span("phase.compute").unwrap().duration_s,
        topk.breakdown.compute_s
    );
}

#[test]
fn scan_scratch_stays_within_twice_the_padded_cube() {
    // ROADMAP item 5's memory gate: what a worker holds for one 32³ chunk
    // at order 8 was 769 280 B at af2cacd — the padded cube, 3 × 40³ floats,
    // plus ten rows — and no faster kernel may take more than twice that
    let service = harness("obs_scratch", 64, 1)
        .cluster(|c| {
            c.chunk_atoms = 4;
            c.fd_order = FdOrder::O8;
        })
        .build();
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::QCriterion, 0, 1.0e9)
        .without_cache();
    // a gauge is overwritten by whichever scan finished last, and the other
    // tests of this binary scan smaller chunks at order 4: the largest of a
    // few readings is this test's own
    let peak = (0..3)
        .map(|_| {
            service.get_threshold(&q).unwrap();
            service.metrics_snapshot().gauges["scan.scratch_bytes"]
        })
        .max()
        .unwrap();
    assert!(
        peak >= 3 * 40 * 40 * 40 * 4,
        "the padded cube is counted: {peak}"
    );
    assert!(peak <= 2 * 769_280, "scan.scratch_bytes {peak}");
}

#[test]
fn warm_answers_are_byte_identical_at_non_f32_representable_thresholds() {
    let service = test_service("obs_f64_boundary", 32, 1, 2);
    let stats = service
        .derived_stats("velocity", DerivedField::CurlNorm, 0)
        .unwrap();
    // a first run to find a value the field actually attains
    let q0 = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 2.5 * stats.rms);
    let base = service.get_threshold(&q0).unwrap();
    assert!(!base.points.is_empty());
    let v = base
        .points
        .iter()
        .map(|p| p.value)
        .fold(f32::INFINITY, f32::min);

    // nudge the threshold just above that value in f64: no f32 can
    // represent the difference, so an f32 comparison (`threshold as f32`)
    // would wrongly admit points with value exactly `v`
    let thr = f64::from(v) + 1e-9;
    assert_eq!(thr as f32, v, "threshold must round to v in f32");
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, thr);

    service
        .cluster()
        .invalidate_cache_entry("velocity", DerivedField::CurlNorm, 0);
    let cold = service.get_threshold(&q).unwrap();
    assert_eq!(cold.cache_hits, 0);
    assert!(
        cold.points.len() < base.points.len(),
        "points with value exactly v must be excluded by the f64 comparison"
    );
    assert!(cold.points.iter().all(|p| f64::from(p.value) >= thr));

    let warm = service.get_threshold(&q).unwrap();
    assert_eq!(warm.cache_hits, warm.nodes);
    assert_eq!(cold.points.len(), warm.points.len());
    for (a, b) in cold.points.iter().zip(&warm.points) {
        assert_eq!(a.zindex, b.zindex);
        assert_eq!(a.value.to_bits(), b.value.to_bits());
    }
}
