//! The first slice of the configuration matrix: every way of answering a
//! threshold query — cache off, cold or warm; raw or lossless-compressed
//! storage; one copy or two; every node up or one down; over the whole grid,
//! one point, one x-row or a box that cuts atoms on every face — returns the
//! points of the dense reference, bit for bit, or says exactly which boxes
//! it could not reach; a PDF over the whole grid or that box is the
//! histogram of the reference's values it could reach; a top-k at k = 1,
//! 10, 100 or 1000 returns the reference's ranking of what it could reach,
//! whatever threshold entry the cache holds, scanned a second time only
//! when a lost chunk held a witness of its floor; the field's statistics
//! are the healthy ones or an error, never numbers over part of the grid.
//! The channel slice does the
//! same on a wall-bounded grid at every order, for every field. Everything
//! here comes from the harness: a later slice adds rows, not helpers.

use std::sync::Arc;

use tdb_bench::{bits, bits_outside, harness, points_outside, ranked_bits, reference_points};
use tdb_cluster::{topk_order, CompressionConfig, ReplicationConfig};
use tdb_core::{DerivedField, FdOrder, QueryError, SyntheticDataset, ThresholdQuery};
use tdb_storage::FaultPlan;
use tdb_zorder::Box3;

#[test]
fn every_configuration_answers_with_the_reference_points_or_names_what_is_missing() {
    let codecs = [
        ("raw", CompressionConfig::default()),
        ("lossless", CompressionConfig::lossless()),
    ];
    for (codec_name, codec) in codecs {
        for k in [1, 2] {
            let plan = FaultPlan::new(1).shared();
            let service = harness(&format!("matrix_{codec_name}_k{k}"), 32, 1)
                .cluster(|c| {
                    c.compression = codec;
                    c.replication = ReplicationConfig::k(k);
                    c.faults = Some(Arc::clone(&plan));
                })
                .build();
            let dense = |threshold| {
                reference_points(&service, "velocity", DerivedField::CurlNorm, 0, threshold)
            };
            // a threshold *equal to* a stored value (the comparison is
            // inclusive: that point is in the answer) and one no point
            // reaches (an empty answer, not an error)
            let mut values: Vec<f32> = dense(0.0).iter().map(|p| p.value).collect();
            values.sort_by(f32::total_cmp);
            let tie = f64::from(values[values.len() - 300]);
            let above = f64::from(values[values.len() - 1]) * 2.0;
            let tie_point = dense(tie).into_iter().find(|p| f64::from(p.value) == tie);
            let (px, py, pz) = tie_point.expect("the tie value is a point").coords();
            assert!(dense(above).is_empty());
            // the whole grid, and the boxes where a clip and an atom's box
            // disagree: the tie point alone, its x-row, and a box that cuts
            // atoms on every face
            let boxes = [
                Box3::cube(32),
                Box3::new([px, py, pz], [px, py, pz]),
                Box3::new([0, py, pz], [31, py, pz]),
                Box3::new([3, 5, 6], [20, 26, 29]),
            ];
            let lost: Vec<Box3> = service
                .cluster()
                .layout()
                .chunks_of_node(1)
                .iter()
                .map(|c| c.grid_box())
                .collect();
            let healthy = service
                .derived_stats("velocity", DerivedField::CurlNorm, 0)
                .expect("every node up");
            let mut every = dense(f64::NEG_INFINITY);
            assert_eq!(every.len(), 32 * 32 * 32, "the field holds no NaN");
            every.sort_by(topk_order);
            let mut rescanned = 0;

            for dead in [false, true] {
                plan.set_node_down(1, dead);
                // statistics vouch only for data the archive can serve whole
                // (positive and finite, so == here is bit equality)
                let stats = service.derived_stats("velocity", DerivedField::CurlNorm, 0);
                let row = format!("{codec_name}, k = {k}, node 1 down: {dead}, stats");
                if dead && k == 1 {
                    assert!(
                        matches!(stats, Err(QueryError::Backend(_))),
                        "{row}: {stats:?}"
                    );
                } else {
                    assert_eq!(stats, Ok(healthy), "{row}");
                }
                for (threshold, qbox) in
                    [tie, above].into_iter().flat_map(|t| boxes.map(|b| (t, b)))
                {
                    let expected: Vec<_> = (dense(threshold).into_iter())
                        .filter(|p| {
                            let (x, y, z) = p.coords();
                            qbox.contains_point(x, y, z)
                        })
                        .collect();
                    let missing: Vec<Box3> =
                        lost.iter().filter_map(|b| b.intersect(&qbox)).collect();
                    service.cluster().clear_caches();
                    service.cluster().clear_buffer_pools();
                    let cached = ThresholdQuery::whole_timestep(
                        "velocity",
                        DerivedField::CurlNorm,
                        0,
                        threshold,
                    )
                    .in_box(qbox);
                    let modes = [
                        ("cache off", cached.clone().without_cache(), false),
                        ("cold", cached.clone(), false),
                        ("warm", cached, true),
                    ];
                    for (mode, q, warm) in modes {
                        let row = format!(
                            "{codec_name}, k = {k}, node 1 {}, threshold {threshold}, \
                             box {qbox:?}, {mode}",
                            if dead { "down" } else { "up" }
                        );
                        let answer = service
                            .get_threshold(&q)
                            .unwrap_or_else(|e| panic!("{row}: {e}"));
                        if dead && k == 1 && !missing.is_empty() {
                            let degraded = answer.degraded.unwrap_or_else(|| {
                                panic!("{row}: a partial answer is not flagged")
                            });
                            let failed: Vec<usize> =
                                degraded.failed_nodes.iter().map(|f| f.node).collect();
                            assert_eq!(failed, [1], "{row}");
                            assert_eq!(degraded.missing_boxes, missing, "{row}");
                            assert_eq!(
                                bits(&answer.points),
                                bits_outside(&expected, &missing),
                                "{row}"
                            );
                        } else {
                            assert!(answer.degraded.is_none(), "{row}: nothing is lost");
                            assert_eq!(bits(&answer.points), bits(&expected), "{row}");
                        }
                        if !warm {
                            assert_eq!(answer.cache_hits, 0, "{row}");
                        } else if !dead {
                            assert_eq!(answer.cache_hits, answer.nodes, "{row}");
                        }
                    }
                }
                // a PDF is the histogram of the reference's values in the
                // box, less what is lost, binned so that the overflow bin
                // holds the values at or above `tie`
                for qbox in [boxes[0], boxes[3]] {
                    let missing: Vec<Box3> =
                        lost.iter().filter_map(|b| b.intersect(&qbox)).collect();
                    let degraded = dead && k == 1 && !missing.is_empty();
                    let mut inside: Vec<_> = (every.iter())
                        .filter(|p| {
                            let (x, y, z) = p.coords();
                            qbox.contains_point(x, y, z)
                        })
                        .copied()
                        .collect();
                    if degraded {
                        inside = points_outside(&inside, &missing);
                    }
                    let mut expected = tdb_field::Histogram::new(0.0, tie / 4.0, 4);
                    inside
                        .iter()
                        .for_each(|p| expected.push(f64::from(p.value)));
                    service.cluster().clear_caches();
                    service.cluster().clear_buffer_pools();
                    let cached =
                        ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 0.0)
                            .in_box(qbox);
                    let modes = [
                        ("cache off", cached.clone().without_cache()),
                        ("cold", cached.clone()),
                        ("warm", cached),
                    ];
                    for (mode, q) in modes {
                        let row = format!(
                            "{codec_name}, k = {k}, node 1 {}, pdf, box {qbox:?}, {mode}",
                            if dead { "down" } else { "up" }
                        );
                        let answer = service
                            .get_pdf(&q, 0.0, tie / 4.0, 4)
                            .unwrap_or_else(|e| panic!("{row}: {e}"));
                        assert_eq!(answer.histogram.counts(), expected.counts(), "{row}");
                        if degraded {
                            let degraded = answer.degraded.unwrap_or_else(|| {
                                panic!("{row}: a partial answer is not flagged")
                            });
                            let failed: Vec<usize> =
                                degraded.failed_nodes.iter().map(|f| f.node).collect();
                            assert_eq!(failed, [1], "{row}");
                            assert_eq!(degraded.missing_boxes, missing, "{row}");
                        } else {
                            assert!(answer.degraded.is_none(), "{row}: nothing is lost");
                        }
                    }
                }
                // a top-k is the reference's ranking of the box, less what is
                // lost; it is scanned twice only when a lost chunk held one of
                // the witnesses its floor was taken from (512 octants: k = 1000
                // has no floor). A whole-grid top-1 or top-100 answers the same
                // after the cache took a whole-grid threshold entry at its k-th
                // value, at the next lower value, or above the maximum.
                for (top, qbox) in [1, 10, 100, 1000]
                    .into_iter()
                    .flat_map(|top| boxes.map(|b| (top, b)))
                {
                    let missing: Vec<Box3> =
                        lost.iter().filter_map(|b| b.intersect(&qbox)).collect();
                    let degraded = dead && k == 1 && !missing.is_empty();
                    let mut expected: Vec<_> = (every.iter())
                        .filter(|p| {
                            let (x, y, z) = p.coords();
                            qbox.contains_point(x, y, z)
                        })
                        .copied()
                        .collect();
                    if degraded {
                        expected = points_outside(&expected, &missing);
                    }
                    let mut warm = vec![None];
                    if qbox == Box3::cube(32) && matches!(top, 1 | 100) {
                        let kth = expected[top - 1].value;
                        let lower = expected[top..].iter().find(|p| p.value < kth);
                        let lower = lower.expect("a lower value").value;
                        warm.extend([f64::from(kth), f64::from(lower), above].map(Some));
                    }
                    expected.truncate(top);
                    let q =
                        ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 0.0)
                            .in_box(qbox);
                    for entry in warm {
                        let row = format!(
                            "{codec_name}, k = {k}, node 1 {}, top {top}, box {qbox:?}, \
                             cached entry at {entry:?}",
                            if dead { "down" } else { "up" }
                        );
                        if let Some(threshold) = entry {
                            service.cluster().clear_caches();
                            let fill = ThresholdQuery::whole_timestep(
                                "velocity",
                                DerivedField::CurlNorm,
                                0,
                                threshold,
                            );
                            service
                                .get_threshold(&fill)
                                .unwrap_or_else(|e| panic!("{row}: {e}"));
                        }
                        let before = tdb_obs::m::SCAN_TOPK_RESCANS.get();
                        let answer = service
                            .get_topk(&q, top)
                            .unwrap_or_else(|e| panic!("{row}: {e}"));
                        let rescans = tdb_obs::m::SCAN_TOPK_RESCANS.get() - before;
                        assert_eq!(ranked_bits(&answer.points), ranked_bits(&expected), "{row}");
                        let flagged = answer.degraded.map(|d| d.missing_boxes);
                        assert_eq!(flagged, degraded.then(|| missing.clone()), "{row}");
                        assert!(rescans <= u64::from(degraded), "{row}: {rescans}");
                        rescanned += rescans;
                    }
                }
            }
            // with one copy, node 1 held the witness of a top-1 (the box that
            // cuts atoms): that row ran the re-scan
            assert_eq!(rescanned > 0, k == 1, "{codec_name}, k = {k}: {rescanned}");
        }
    }
}

/// The channel slice: a 64³ wall-bounded, stretched-grid archive in 16³
/// chunks on four nodes — so chunks, octants and build blocks all meet a
/// wall — answers at every order, for every field and both box filters,
/// over the whole grid, each wall's two-point slab and a box that cuts
/// atoms at a wall, with cache off, cold and warm, with the points of the
/// dense reference at its 10⁻³ tier, bit for bit; at O4 also stored
/// lossless in two copies. No scan worker panics on the way.
#[test]
fn every_order_and_field_on_a_wall_bounded_grid_answers_with_the_reference_points() {
    let started = std::time::Instant::now();
    let panics = tdb_obs::m::NODE_WORKER_PANICS.get();
    let mut fields = DerivedField::all().to_vec();
    fields.extend([1, 2].map(|radius| DerivedField::BoxFilteredNorm { radius }));
    let boxes = [
        Box3::cube(64),
        Box3::new([0, 0, 0], [63, 1, 63]),
        Box3::new([0, 62, 0], [63, 63, 63]),
        Box3::new([5, 50, 3], [42, 63, 29]),
    ];
    let raw = CompressionConfig::default;
    let archives = [
        (FdOrder::O2, "raw", raw(), 1),
        (FdOrder::O4, "raw", raw(), 1),
        (FdOrder::O4, "lossless", CompressionConfig::lossless(), 2),
        (FdOrder::O6, "raw", raw(), 1),
        (FdOrder::O8, "raw", raw(), 1),
    ];
    for (order, codec_name, codec, k) in archives {
        let archive = format!("{order:?}, {codec_name}, k = {k}");
        let service = harness(&format!("matrix_channel_{order:?}_{codec_name}"), 64, 1)
            .nodes(4)
            .dataset(SyntheticDataset::channel(64, 64, 64, 1, 0xc4c))
            .cluster(|c| {
                c.fd_order = order;
                c.compression = codec;
                c.replication = ReplicationConfig::k(k);
            })
            .build();
        for &derived in &fields {
            // one dense reference per field: every point, and its 10⁻³ tier
            let every = reference_points(&service, "velocity", derived, 0, f64::NEG_INFINITY);
            let mut values: Vec<f32> = every.iter().map(|p| p.value).collect();
            values.sort_by(f32::total_cmp);
            let threshold = f64::from(values[values.len() - values.len() / 1000]);
            for qbox in boxes {
                let expected: Vec<_> = (every.iter())
                    .filter(|p| {
                        let (x, y, z) = p.coords();
                        f64::from(p.value) >= threshold && qbox.contains_point(x, y, z)
                    })
                    .copied()
                    .collect();
                service.cluster().clear_caches();
                service.cluster().clear_buffer_pools();
                let cached =
                    ThresholdQuery::whole_timestep("velocity", derived, 0, threshold).in_box(qbox);
                let modes = [
                    ("cache off", cached.clone().without_cache(), false),
                    ("cold", cached.clone(), false),
                    ("warm", cached, true),
                ];
                for (mode, q, warm) in modes {
                    let row = format!("{archive}, {}, box {qbox:?}, {mode}", derived.name());
                    let answer = service
                        .get_threshold(&q)
                        .unwrap_or_else(|e| panic!("{row}: {e}"));
                    assert!(answer.degraded.is_none(), "{row}: nothing is lost");
                    assert_eq!(bits(&answer.points), bits(&expected), "{row}");
                    let hits = if warm { answer.nodes } else { 0 };
                    assert_eq!(answer.cache_hits, hits, "{row}");
                }
            }
        }
    }
    assert_eq!(
        tdb_obs::m::NODE_WORKER_PANICS.get(),
        panics,
        "a scan worker panicked"
    );
    println!("channel slice: {:.1} s", started.elapsed().as_secs_f64());
}
