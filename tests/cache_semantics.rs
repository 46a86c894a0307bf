//! The semantic cache end-to-end: hits must be answer-equivalent to cold
//! evaluation, misses must fall back correctly, and the paper's
//! warm-up / pollute / re-issue protocol (§5.2) must produce hits.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use tdb_bench::{harness, test_service};
use tdb_cluster::CoalesceConfig;
use tdb_core::{DerivedField, ThresholdPoint, ThresholdQuery};

#[test]
fn cache_hit_answers_are_identical_to_cold_answers() {
    let service = test_service("cache_ident", 32, 2, 3);
    let stats = service
        .derived_stats("velocity", DerivedField::CurlNorm, 0)
        .unwrap();
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 3.0 * stats.rms);
    let cold = service.get_threshold(&q).unwrap();
    assert_eq!(cold.cache_hits, 0, "first query must miss");
    let warm = service.get_threshold(&q).unwrap();
    assert_eq!(warm.cache_hits, warm.nodes, "every node should hit");
    assert_eq!(cold.points.len(), warm.points.len());
    for (a, b) in cold.points.iter().zip(&warm.points) {
        assert_eq!(a.zindex, b.zindex);
        assert_eq!(a.value, b.value);
    }
}

#[test]
fn higher_threshold_is_served_from_cache_with_filtering() {
    let service = test_service("cache_filter", 32, 1, 2);
    let stats = service
        .derived_stats("velocity", DerivedField::CurlNorm, 0)
        .unwrap();
    let low = 2.0 * stats.rms;
    let high = 3.5 * stats.rms;
    // warm at the low threshold
    let q_low = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, low);
    let cold_low = service.get_threshold(&q_low).unwrap();
    // higher threshold: must hit and equal a cold evaluation at `high`
    let q_high = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, high);
    let warm_high = service.get_threshold(&q_high).unwrap();
    assert_eq!(warm_high.cache_hits, warm_high.nodes);
    let expect: Vec<_> = cold_low
        .points
        .iter()
        .filter(|p| f64::from(p.value) >= high)
        .collect();
    assert_eq!(warm_high.points.len(), expect.len());
    assert!(warm_high.points.len() < cold_low.points.len());
}

#[test]
fn lower_threshold_misses_and_updates_the_cache() {
    let service = test_service("cache_update", 32, 1, 2);
    let stats = service
        .derived_stats("velocity", DerivedField::CurlNorm, 0)
        .unwrap();
    let q_high =
        ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 3.5 * stats.rms);
    service.get_threshold(&q_high).unwrap();
    // lower threshold cannot be answered from the cached (higher) one
    let q_low =
        ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 2.5 * stats.rms);
    let r = service.get_threshold(&q_low).unwrap();
    assert_eq!(r.cache_hits, 0);
    // but the entry was replaced: re-issuing now hits
    let r2 = service.get_threshold(&q_low).unwrap();
    assert_eq!(r2.cache_hits, r2.nodes);
    assert_eq!(r.points.len(), r2.points.len());
}

#[test]
fn paper_protocol_warm_pollute_reissue() {
    // §5.2: warm the cache, pollute it with unrelated queries, re-issue
    // the originals and observe hits.
    let service = test_service("cache_pollute", 32, 4, 2);
    let stats = service
        .derived_stats("velocity", DerivedField::CurlNorm, 0)
        .unwrap();
    let originals: Vec<ThresholdQuery> = [2.2, 2.8, 3.4]
        .iter()
        .map(|&k| {
            ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, k * stats.rms)
        })
        .collect();
    // issue from lowest threshold up so later ones hit the cached superset
    service.get_threshold(&originals[0]).unwrap();
    // pollute: different time-steps and fields
    for t in 1..4 {
        let q =
            ThresholdQuery::whole_timestep("magnetic", DerivedField::CurlNorm, t, 3.0 * stats.rms);
        service.get_threshold(&q).unwrap();
        let q = ThresholdQuery::whole_timestep("velocity", DerivedField::QCriterion, t, 1e9);
        service.get_threshold(&q).unwrap();
    }
    // re-issue all three: thresholds ≥ the cached one → hits
    for q in &originals {
        let r = service.get_threshold(q).unwrap();
        assert_eq!(r.cache_hits, r.nodes, "polluted cache must still hit");
    }
    let cs = service.cluster().cache_stats();
    assert!(cs.hit_ratio().unwrap() > 0.2);
}

#[test]
fn cache_hit_is_an_order_of_magnitude_faster_modelled() {
    // the paper's headline: hits cut modelled query time by >10x
    let service = test_service("cache_speed", 64, 1, 4);
    let stats = service
        .derived_stats("velocity", DerivedField::CurlNorm, 0)
        .unwrap();
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 3.0 * stats.rms);
    let cold = service.get_threshold(&q).unwrap();
    let warm = service.get_threshold(&q).unwrap();
    // compare the server-side phases (cache lookup + I/O + compute): the
    // user-bound WAN round-trip is a constant shared by both paths and at
    // this small grid scale it would mask the effect the paper measures
    // on 1024³ (where totals themselves drop >10x).
    let server = |b: &tdb_core::TimeBreakdown| b.cache_lookup_s + b.io_s + b.compute_s;
    let cold_t = server(&cold.breakdown);
    let warm_t = server(&warm.breakdown);
    assert!(
        warm_t * 10.0 < cold_t,
        "expected >10x modelled server-side speedup: cold {cold_t}, warm {warm_t}"
    );
    // and the miss overhead of probing the cache first is small
    service
        .cluster()
        .invalidate_cache_entry("velocity", DerivedField::CurlNorm, 0);
    service.cluster().clear_buffer_pools();
    let miss = service.get_threshold(&q).unwrap();
    service
        .cluster()
        .invalidate_cache_entry("velocity", DerivedField::CurlNorm, 0);
    service.cluster().clear_buffer_pools();
    let no_cache = service.get_threshold(&q.clone().without_cache()).unwrap();
    let overhead = miss.breakdown.io_s / no_cache.breakdown.io_s;
    assert!(
        overhead < 1.15,
        "cache-miss I/O overhead should be small, got {overhead}"
    );
}

#[test]
fn io_only_mode_reads_without_computing() {
    let service = test_service("cache_ioonly", 32, 1, 2);
    let q = ThresholdQuery {
        mode: tdb_core::QueryMode::IoOnly,
        ..ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 10.0)
            .without_cache()
    };
    let r = service.get_threshold(&q).unwrap();
    assert!(r.points.is_empty(), "I/O-only runs return no points");
    assert!(r.breakdown.io_s > 0.0);
    assert!(r.breakdown.compute_s < 1e-4);
}

#[test]
fn pdf_queries_are_cached_too() {
    // the paper's §4 extensibility claim, implemented: repeated PDF
    // queries with identical region and binning answer from the cache
    let service = test_service("cache_pdf", 32, 1, 2);
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 0.0);
    let cold = service.get_pdf(&q, 0.0, 10.0, 9).unwrap();
    assert!(cold.breakdown.io_s > 0.0, "cold PDF reads raw data");
    let warm = service.get_pdf(&q, 0.0, 10.0, 9).unwrap();
    assert_eq!(warm.histogram.counts(), cold.histogram.counts());
    assert_eq!(warm.breakdown.io_s, 0.0, "warm PDF skips raw data");
    // different binning: a fresh evaluation
    let rebinned = service.get_pdf(&q, 0.0, 5.0, 18).unwrap();
    assert!(rebinned.breakdown.io_s > 0.0, "re-binned PDF must re-scan");
    assert_eq!(rebinned.histogram.total(), cold.histogram.total());
    // sub-region: a fresh evaluation with its own entry
    let sub = q.clone().in_box(tdb_core::Box3::cube(16));
    let sub_cold = service.get_pdf(&sub, 0.0, 10.0, 9).unwrap();
    assert!(sub_cold.breakdown.io_s > 0.0);
    assert_eq!(sub_cold.histogram.total(), 16 * 16 * 16);
    let sub_warm = service.get_pdf(&sub, 0.0, 10.0, 9).unwrap();
    assert_eq!(sub_warm.breakdown.io_s, 0.0);
}

#[test]
fn mid_scan_queries_never_observe_partial_cache_entries() {
    // Snapshot isolation under the shared-scan scheduler: a writer thread
    // repeatedly invalidates the cache entry and rebuilds it from a cold
    // scan, while reader threads issue the same query the whole time. A
    // reader admitted mid-rebuild must either hit the old complete entry,
    // miss and scan for itself (possibly sharing the writer's scan), or
    // hit the freshly completed entry — never a half-built one. Any
    // partial entry would change the answer bytes.
    let service = harness("cache_snapshot", 32, 1)
        .cluster(|c| {
            c.coalesce = Some(CoalesceConfig {
                window_ms: 1,
                max_batch: 4,
            });
        })
        .build();
    let stats = service
        .derived_stats("velocity", DerivedField::CurlNorm, 0)
        .unwrap();
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 2.5 * stats.rms);
    let bits = |points: &[ThresholdPoint]| {
        let mut v: Vec<(u64, u32)> = points
            .iter()
            .map(|p| (p.zindex, p.value.to_bits()))
            .collect();
        v.sort_unstable();
        v
    };
    let reference = bits(&service.get_threshold(&q).unwrap().points);
    assert!(!reference.is_empty());

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (service, q, reference, stop) =
            (service.clone(), q.clone(), reference.clone(), stop.clone());
        std::thread::spawn(move || {
            for _ in 0..12 {
                service
                    .cluster()
                    .invalidate_cache_entry("velocity", DerivedField::CurlNorm, 0);
                service.cluster().clear_buffer_pools();
                let r = service.get_threshold(&q).unwrap();
                assert_eq!(bits(&r.points), reference, "writer rebuild diverged");
            }
            stop.store(true, Ordering::SeqCst);
        })
    };
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let (service, q, reference, stop) =
                (service.clone(), q.clone(), reference.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut runs = 0u32;
                while !stop.load(Ordering::SeqCst) {
                    let r = service.get_threshold(&q).unwrap();
                    assert_eq!(
                        bits(&r.points),
                        reference,
                        "mid-scan reader observed a partial cache entry"
                    );
                    runs += 1;
                }
                runs
            })
        })
        .collect();
    writer.join().unwrap();
    let total: u32 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(
        total > 0,
        "readers must have raced the writer at least once"
    );
}

#[test]
fn distinct_derived_fields_have_distinct_cache_entries() {
    let service = test_service("cache_fields", 32, 1, 2);
    let q_vort = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 25.0);
    service.get_threshold(&q_vort).unwrap();
    // same raw field, different derived quantity: must miss
    let q_grad = ThresholdQuery::whole_timestep("velocity", DerivedField::GradientNorm, 0, 25.0);
    let r = service.get_threshold(&q_grad).unwrap();
    assert_eq!(r.cache_hits, 0);
    // magnetic-field current norm is independent of velocity vorticity
    let q_cur = ThresholdQuery::whole_timestep("magnetic", DerivedField::CurlNorm, 0, 25.0);
    let r = service.get_threshold(&q_cur).unwrap();
    assert_eq!(r.cache_hits, 0);
    // and the vorticity entry is still there
    let r = service.get_threshold(&q_vort).unwrap();
    assert_eq!(r.cache_hits, r.nodes);
}
