//! End-to-end correctness: generator → storage → cluster → query answers
//! must match a direct whole-field evaluation of the same data.

use tdb_bench::{reference_points, test_service};
use tdb_core::{DerivedField, QueryError, ThresholdQuery};
use tdb_field::PaddedVector;
use tdb_turbgen::dataset::FieldData;
use tdb_zorder::Box3;

#[test]
fn threshold_query_matches_direct_evaluation() {
    let service = test_service("e2e_match", 32, 2, 3);
    let stats = service
        .derived_stats("velocity", DerivedField::CurlNorm, 1)
        .unwrap();
    let threshold = 3.0 * stats.rms;
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 1, threshold)
        .without_cache();
    let result = service.get_threshold(&q).unwrap();
    let mut expect = reference_points(&service, "velocity", DerivedField::CurlNorm, 1, threshold);
    assert!(!expect.is_empty(), "test threshold should select something");
    expect.sort_by_key(|e| e.zindex);
    assert_eq!(result.points.len(), expect.len());
    for (p, e) in result.points.iter().zip(&expect) {
        assert_eq!(p.coords(), e.coords());
        let v = e.value;
        assert!(
            (p.value - v).abs() <= 1e-5 * v.abs().max(1.0),
            "value mismatch at {:?}",
            p.coords()
        );
    }
}

#[test]
fn raw_field_threshold_needs_no_kernel_and_matches() {
    let service = test_service("e2e_raw", 32, 1, 2);
    let stats = service
        .derived_stats("magnetic", DerivedField::Norm, 0)
        .unwrap();
    let threshold = 2.5 * stats.rms;
    let q = ThresholdQuery::whole_timestep("magnetic", DerivedField::Norm, 0, threshold)
        .without_cache();
    let result = service.get_threshold(&q).unwrap();
    let expect = reference_points(&service, "magnetic", DerivedField::Norm, 0, threshold);
    assert_eq!(result.points.len(), expect.len());
    // raw-field queries spend no compute phase worth mentioning vs I/O
    assert!(result.breakdown.io_s > 0.0);
}

#[test]
fn boxed_query_returns_only_points_inside() {
    let service = test_service("e2e_box", 32, 1, 3);
    let qbox = Box3::new([4, 8, 0], [27, 23, 15]);
    let stats = service
        .derived_stats("velocity", DerivedField::CurlNorm, 0)
        .unwrap();
    let threshold = 2.0 * stats.rms;
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, threshold)
        .without_cache()
        .in_box(qbox);
    let result = service.get_threshold(&q).unwrap();
    assert!(!result.points.is_empty());
    for p in &result.points {
        let (x, y, z) = p.coords();
        assert!(
            qbox.contains_point(x, y, z),
            "point {:?} outside box",
            (x, y, z)
        );
    }
    // equals the reference restricted to the box
    let expect: Vec<_> =
        reference_points(&service, "velocity", DerivedField::CurlNorm, 0, threshold)
            .into_iter()
            .filter(|e| {
                let (x, y, z) = e.coords();
                qbox.contains_point(x, y, z)
            })
            .collect();
    assert_eq!(result.points.len(), expect.len());
}

#[test]
fn pdf_matches_direct_histogram_and_guides_thresholds() {
    let service = test_service("e2e_pdf", 32, 1, 2);
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 0.0);
    let pdf = service.get_pdf(&q, 0.0, 10.0, 9).unwrap();
    assert_eq!(pdf.histogram.total(), 32 * 32 * 32);
    // monotone-ish decay: first bin outweighs the overflow region
    assert!(pdf.histogram.count(0) > pdf.histogram.count(9));
    // histogram matches a direct evaluation
    let expect = reference_points(&service, "velocity", DerivedField::CurlNorm, 0, 0.0);
    let mut direct = tdb_field::Histogram::new(0.0, 10.0, 9);
    for e in expect {
        direct.push(f64::from(e.value));
    }
    assert_eq!(pdf.histogram.counts(), direct.counts());
}

#[test]
fn topk_returns_the_global_maxima() {
    let service = test_service("e2e_topk", 32, 1, 3);
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 0.0);
    let top = service.get_topk(&q, 10).unwrap();
    assert_eq!(top.points.len(), 10);
    // sorted descending and globally correct
    let mut expect = reference_points(&service, "velocity", DerivedField::CurlNorm, 0, 0.0);
    expect.sort_by(|a, b| b.value.total_cmp(&a.value));
    for (p, e) in top.points.iter().zip(expect.iter().take(10)) {
        assert!((p.value - e.value).abs() < 1e-5 * e.value.abs().max(1.0));
    }
    let stats = service
        .derived_stats("velocity", DerivedField::CurlNorm, 0)
        .unwrap();
    assert!(f64::from(top.points[0].value) <= stats.max * (1.0 + 1e-6));
}

#[test]
fn guided_topk_equals_full_scan_topk() {
    let service = test_service("e2e_guided", 32, 1, 2);
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 0.0);
    let full = service.get_topk(&q, 25).unwrap();
    let guided = service.get_topk_guided(&q, 25).unwrap();
    assert_eq!(guided.len(), 25);
    for (a, b) in guided.iter().zip(&full.points) {
        assert_eq!(a.zindex, b.zindex, "guided top-k must match the full scan");
        assert_eq!(a.value, b.value);
    }
    // second run reuses the cached PDF and threshold entries
    let again = service.get_topk_guided(&q, 25).unwrap();
    assert_eq!(again.len(), 25);
    assert!(service.cluster().cache_stats().hits > 0);
    // k = 1 degenerate case
    let one = service.get_topk_guided(&q, 1).unwrap();
    assert_eq!(one[0].zindex, full.points[0].zindex);
}

#[test]
fn cutout_returns_exact_raw_data() {
    let service = test_service("e2e_cutout", 32, 1, 2);
    let b = Box3::new([8, 8, 8], [15, 15, 15]);
    let (cut, breakdown) = service.get_cutout("velocity", 0, &b).unwrap();
    assert_eq!(cut.dims(), (8, 8, 8));
    let step = service.dataset().generate(0);
    let FieldData::Vector(v) = &step.fields[0].1 else {
        panic!()
    };
    for z in 0..8 {
        for y in 0..8 {
            for x in 0..8 {
                assert_eq!(cut.at(x, y, z), v.at(8 + x, 8 + y, 8 + z));
            }
        }
    }
    assert!(breakdown.mediator_user_s > 0.0, "user transfer modelled");
}

#[test]
fn cutout_crossing_node_and_partition_boundaries_is_exact() {
    // 2³ chunks of 16³ over three nodes, two partition files each: this
    // box starts and ends mid-atom and takes a piece of every chunk
    let service = test_service("e2e_cutout_span", 32, 1, 3);
    let layout = service.cluster().layout();
    let b = Box3::new([5, 9, 3], [26, 22, 29]);
    let owners: std::collections::BTreeSet<usize> =
        b.atoms().map(|atom| layout.node_of_atom(atom)).collect();
    assert_eq!(owners.len(), 3, "the box must reach every node");
    let step = service.dataset().generate(0);
    for (name, data) in &step.fields {
        let (cut, _) = service.cluster().get_cutout(name, 0, &b).unwrap();
        assert_eq!(cut.dims(), b.extent3());
        let want = data.as_vector3();
        for (x, y, z) in b.points() {
            let got = cut.at((x - 5) as usize, (y - 9) as usize, (z - 3) as usize);
            let want = want.at(x as usize, y as usize, z as usize);
            assert_eq!(got.map(f32::to_bits), want.map(f32::to_bits), "{name}");
        }
    }
}

#[test]
fn cutout_of_a_scalar_field_lands_in_component_zero() {
    let service = test_service("e2e_cutout_scalar", 32, 1, 2);
    let b = Box3::new([4, 12, 20], [11, 19, 27]);
    let (cut, breakdown) = service.cluster().get_cutout("pressure", 0, &b).unwrap();
    let step = service.dataset().generate(0);
    let Some((_, FieldData::Scalar(p))) = step.fields.iter().find(|(n, _)| *n == "pressure") else {
        panic!("mhd stores a scalar pressure")
    };
    for (x, y, z) in b.points() {
        let got = cut.at((x - 4) as usize, (y - 12) as usize, (z - 20) as usize);
        let want = p.get(x as usize, y as usize, z as usize);
        assert_eq!(got.map(f32::to_bits), [want.to_bits(), 0, 0]);
    }
    // one component crosses the wire, not three
    let (_, vector) = service.cluster().get_cutout("velocity", 0, &b).unwrap();
    assert!(breakdown.mediator_user_s < vector.mediator_user_s);
}

#[test]
fn cutout_pays_the_controller_like_every_other_read() {
    // one node, four arrays: the arrays share the blocks of a whole-grid
    // read, so the controller every block also crosses is the busiest
    // device — for a cutout exactly as for a halo-free scan of the same
    // atoms with enough processes to keep all four arrays busy
    let service = tdb_bench::harness("e2e_cutout_ctrl", 32, 1)
        .nodes(1)
        .cluster(|c| c.arrays_per_node = 4)
        .build();
    let whole = Box3::grid(32, 32, 32);
    service.cluster().clear_buffer_pools();
    let (_, cutout) = service.cluster().get_cutout("velocity", 0, &whole).unwrap();
    service.cluster().clear_buffer_pools();
    let scan = ThresholdQuery {
        mode: tdb_core::QueryMode::IoOnly,
        ..ThresholdQuery::whole_timestep("velocity", DerivedField::Norm, 0, 1e12)
            .without_cache()
            .with_procs(64)
    };
    let scan = service.get_threshold(&scan).unwrap().breakdown;
    assert!(cutout.io_s > 0.0);
    assert_eq!(cutout.io_s, scan.io_s);
}

#[test]
fn cutout_outside_the_grid_is_an_error_not_a_panic() {
    // straight at the cluster: `TurbulenceService::validate` would have
    // refused these boxes before they got here
    let service = test_service("e2e_cutout_oob", 32, 1, 2);
    for b in [
        Box3::new([24, 24, 24], [32, 31, 31]),
        Box3::new([0, 0, 40], [7, 7, 47]),
    ] {
        let err = service
            .cluster()
            .get_cutout("velocity", 0, &b)
            .expect_err("a box past the grid edge stores no data");
        assert!(err.to_string().contains("outside"), "{err}");
    }
    // the last in-grid point is still served
    let edge = Box3::new([31, 31, 31], [31, 31, 31]);
    assert!(service.cluster().get_cutout("velocity", 0, &edge).is_ok());
}

#[test]
fn point_interpolation_matches_direct_evaluation() {
    let service = test_service("e2e_interp", 32, 1, 3);
    let step = service.dataset().generate(0);
    let tdb_turbgen::dataset::FieldData::Vector(v) = &step.fields[0].1 else {
        panic!()
    };
    // on-node positions reproduce stored values exactly
    let on_grid = [[5.0, 6.0, 7.0], [31.0, 0.0, 16.0]];
    let (vals, breakdown) = service
        .interpolate_at("velocity", 0, &on_grid, tdb_core::LagOrder::Lag6)
        .unwrap();
    for (val, pos) in vals.iter().zip(&on_grid) {
        let expect = v.at(pos[0] as usize, pos[1] as usize, pos[2] as usize);
        for c in 0..3 {
            assert!(
                (val[c] - expect[c]).abs() < 1e-4,
                "on-grid mismatch at {pos:?}"
            );
        }
    }
    assert!(breakdown.io_s > 0.0);
    // off-grid positions agree with a direct whole-field interpolation
    let off_grid = [[5.25, 6.5, 7.75], [0.1, 31.9, 15.5]];
    let (vals, _) = service
        .interpolate_at("velocity", 0, &off_grid, tdb_core::LagOrder::Lag6)
        .unwrap();
    let (nx, ny, nz) = v.dims();
    let mut padded = PaddedVector::zeros(nx, ny, nz, 4);
    padded.fill_periodic_from(v, [0, 0, 0]);
    for (val, pos) in vals.iter().zip(&off_grid) {
        let expect = tdb_kernels::interp::interpolate::<3>(
            &padded,
            tdb_kernels::interp::LagOrder::Lag6,
            *pos,
        );
        for c in 0..3 {
            assert!(
                (val[c] - expect[c]).abs() < 1e-4,
                "off-grid mismatch at {pos:?}: {val:?} vs {expect:?}"
            );
        }
    }
    // periodic wrap: position beyond the domain equals its wrapped twin
    let (a, _) = service
        .interpolate_at("velocity", 0, &[[33.5, 2.0, 2.0]], tdb_core::LagOrder::Lag4)
        .unwrap();
    let (b, _) = service
        .interpolate_at("velocity", 0, &[[1.5, 2.0, 2.0]], tdb_core::LagOrder::Lag4)
        .unwrap();
    assert_eq!(a[0], b[0]);
}

#[test]
fn query_validation_errors() {
    let service = test_service("e2e_valid", 32, 2, 2);
    // unknown field
    let q = ThresholdQuery::whole_timestep("nonexistent", DerivedField::Norm, 0, 1.0);
    assert!(matches!(
        service.get_threshold(&q),
        Err(QueryError::UnknownField(_))
    ));
    // bad timestep
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::Norm, 9, 1.0);
    assert!(matches!(
        service.get_threshold(&q),
        Err(QueryError::UnknownTimestep { .. })
    ));
    // out-of-bounds box
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::Norm, 0, 1.0)
        .in_box(Box3::new([0, 0, 0], [40, 10, 10]));
    assert!(matches!(
        service.get_threshold(&q),
        Err(QueryError::RegionOutOfBounds)
    ));
}

#[test]
fn threshold_too_low_is_rejected() {
    let service = tdb_bench::harness("e2e_limit", 32, 1)
        .nodes(4)
        .seed(7)
        .cluster(|c| {
            c.procs_per_node = 4;
            c.arrays_per_node = 4;
        })
        .limits(tdb_core::QueryLimits {
            max_points: 100,
            ..Default::default()
        })
        .build();
    let q =
        ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 0.0).without_cache();
    match service.get_threshold(&q) {
        Err(QueryError::ThresholdTooLow { points, limit }) => {
            assert_eq!(points, 32 * 32 * 32);
            assert_eq!(limit, 100);
        }
        other => panic!("expected ThresholdTooLow, got {other:?}"),
    }
}

#[test]
fn derived_stats_match_field_stats() {
    let service = test_service("e2e_stats", 32, 1, 2);
    let s = service
        .derived_stats("velocity", DerivedField::CurlNorm, 0)
        .unwrap();
    // generator rescaled vorticity RMS to 10
    assert!((s.rms - 10.0).abs() < 0.1, "rms {}", s.rms);
    assert!(s.max > s.rms * 3.0);
    // threshold_for_fraction is consistent with the PDF
    let thr = service
        .threshold_for_fraction("velocity", DerivedField::CurlNorm, 0, 0.01)
        .unwrap();
    let q =
        ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, thr).without_cache();
    let r = service.get_threshold(&q).unwrap();
    let frac = r.points.len() as f64 / 32.0_f64.powi(3);
    assert!((frac - 0.01).abs() < 0.003, "got fraction {frac}");
}
