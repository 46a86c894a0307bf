//! End-to-end correctness: generator → storage → cluster → query answers
//! must match a direct whole-field evaluation of the same data.

use tdb_bench::{bits, harness, ranked_bits, reference_points, test_service, ScratchDir};
use tdb_cluster::CompressionConfig;
use tdb_core::{
    BuildError, DerivedField, QueryError, ServiceConfig, ThresholdQuery, TurbulenceService,
};
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

/// A cluster the grid cannot hold is refused with the rule it breaks
/// before anything is generated (`tdb-server` prints it and exits 2).
#[test]
fn unservable_cluster_configurations_are_build_errors_not_panics() {
    let dir = ScratchDir::new("e2e_bad_config");
    for (n, nodes, rule) in [
        (32, 0, "need at least one node"),
        (
            40,
            4,
            "grid axis 0 extent 40 is not a multiple of the chunk width 16",
        ),
        (32, 100, "8 chunks cannot be spread over 100 nodes"),
    ] {
        let mut config = ServiceConfig::mhd(dir.path(), n, 1, 0x7db);
        config.cluster.num_nodes = nodes;
        match TurbulenceService::build(config) {
            Err(BuildError::InvalidConfig(got)) => assert_eq!(got, rule),
            Err(e) => panic!("{n}³ on {nodes} nodes: wrong error {e}"),
            Ok(_) => panic!("{n}³ on {nodes} nodes was built"),
        }
    }
}

#[test]
fn raw_field_threshold_needs_no_kernel_and_matches() {
    let service = test_service("e2e_raw", 32, 1, 2);
    let stats = service
        .derived_stats("magnetic", DerivedField::Norm, 0)
        .unwrap();
    // picking the threshold scanned the archive: start the query cold
    service.cluster().clear_buffer_pools();
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
    // ranked and globally correct, down to the degenerate k = 1
    let mut expect = reference_points(&service, "velocity", DerivedField::CurlNorm, 0, 0.0);
    expect.sort_by(tdb_cluster::topk_order);
    for k in [1, 10, 25] {
        let top = ranked_bits(&service.get_topk(&q, k).unwrap().points);
        assert_eq!(top, ranked_bits(&expect[..k]), "k = {k}");
    }
    // k = 0 and k past the cap are refused with the rule, not asserted
    let refused = QueryError::InvalidParameter("k must satisfy 0 < k <= 100000");
    for k in [0, 100_001] {
        let answer = service.get_topk(&q, k).map(|r| r.points.len());
        assert_eq!(answer, Err(refused.clone()), "k = {k}");
    }
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
    // atoms read at enough processes to keep all four arrays busy (at a
    // threshold of 0 a norm prunes no atom)
    let service = tdb_bench::harness("e2e_cutout_ctrl", 32, 1)
        .nodes(1)
        .cluster(|c| c.arrays_per_node = 4)
        .build();
    let whole = Box3::grid(32, 32, 32);
    service.cluster().clear_buffer_pools();
    let (_, cutout) = service.cluster().get_cutout("velocity", 0, &whole).unwrap();
    service.cluster().clear_buffer_pools();
    let scan =
        ThresholdQuery::whole_timestep("velocity", DerivedField::Norm, 0, 0.0).without_cache();
    let scan = service.get_threshold(&scan).unwrap().model;
    assert!(cutout.io_s > 0.0);
    assert_eq!(cutout.io_s, scan.io_s(64));
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
fn non_finite_interpolation_positions_are_refused() {
    let service = test_service("e2e_interp_nan", 32, 1, 2);
    let refused = QueryError::InvalidParameter("positions must be finite numbers");
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for axis in 0..3 {
            let mut pos = [[1.5, 2.0, 2.0], [4.0, 5.0, 6.0]];
            pos[1][axis] = bad;
            let answer = service
                .interpolate_at("velocity", 0, &pos, tdb_core::LagOrder::Lag4)
                .map(|(vals, _)| vals);
            assert_eq!(answer, Err(refused.clone()), "{bad} on axis {axis}");
        }
    }
}

#[test]
fn query_validation_errors() {
    let service = test_service("e2e_valid", 32, 2, 2);
    let query =
        |field, timestep| ThresholdQuery::whole_timestep(field, DerivedField::Norm, timestep, 1.0);
    let cases = [
        (
            query("nonexistent", 0),
            QueryError::UnknownField("nonexistent".into()),
        ),
        (
            query("velocity", 9),
            QueryError::UnknownTimestep {
                timestep: 9,
                available: 2,
            },
        ),
        (
            query("velocity", 0).in_box(Box3::new([0, 0, 0], [40, 10, 10])),
            QueryError::RegionOutOfBounds,
        ),
    ];
    // every entry point that takes the input refuses it the same way
    for (q, want) in &cases {
        let (field, t) = (q.raw_field.as_str(), q.timestep);
        let query_box = q.query_box.unwrap_or_else(|| service.full_box());
        let mut errors = vec![
            ("get_threshold", service.get_threshold(q).err()),
            ("get_pdf", service.get_pdf(q, 0.0, 1.0, 8).err()),
            ("get_topk", service.get_topk(q, 5).err()),
            ("get_cutout", service.get_cutout(field, t, &query_box).err()),
        ];
        // the whole-grid entry points take no box
        if q.query_box.is_none() {
            let stats = service.derived_stats(field, q.derived, t).err();
            let fraction = service.threshold_for_fraction(field, q.derived, t, 0.1);
            let at = [[1.5, 2.5, 3.5]];
            let points = service.interpolate_at(field, t, &at, tdb_core::LagOrder::Lag4);
            errors.extend([
                ("derived_stats", stats),
                ("threshold_for_fraction", fraction.err()),
                ("interpolate_at", points.err()),
            ]);
        }
        for (entry, error) in errors {
            assert_eq!(error.as_ref(), Some(want), "{q:?} through {entry}");
        }
    }
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
    let at = |threshold| {
        let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, threshold);
        service.get_threshold(&q.without_cache())
    };
    match at(0.0) {
        Err(QueryError::ThresholdTooLow { points, limit }) => {
            assert_eq!(points, 32 * 32 * 32);
            assert_eq!(limit, 100);
        }
        other => panic!("expected ThresholdTooLow, got {other:?}"),
    }
    // the limit is on `points > max_points`: at the 100th-largest value
    // the reference count equals max_points and the answer comes back;
    // at the 101st it is max_points + 1 and it does not
    let dense = |t| reference_points(&service, "velocity", DerivedField::CurlNorm, 0, t);
    let mut values: Vec<f32> = dense(0.0).iter().map(|p| p.value).collect();
    values.sort_by(|a, b| b.total_cmp(a));
    let (at_limit, over) = (f64::from(values[99]), f64::from(values[100]));
    assert!(at_limit > over, "the two values must be distinct");
    let answer = at(at_limit).expect("exactly max_points points");
    assert_eq!(bits(&answer.points), bits(&dense(at_limit)));
    match at(over) {
        Err(QueryError::ThresholdTooLow { points, limit }) => {
            assert_eq!((points, limit), (101, 100))
        }
        other => panic!("expected ThresholdTooLow, got {other:?}"),
    }
}

#[test]
fn derived_stats_match_field_stats() {
    // (codec, whether it stores the generated values bit for bit)
    let codecs = [
        ("raw", CompressionConfig::default(), true),
        ("lossless", CompressionConfig::lossless(), true),
        ("lossy", CompressionConfig::lossy(2, 5e-2), false),
    ];
    for (codec_name, codec, exact) in codecs {
        let service = harness(&format!("e2e_stats_{codec_name}"), 32, 1)
            .cluster(|c| c.compression = codec)
            .build();
        let s = service
            .derived_stats("velocity", DerivedField::CurlNorm, 0)
            .unwrap();
        // generator rescaled vorticity RMS to 10
        assert!((s.rms - 10.0).abs() < 0.1, "{codec_name}: rms {}", s.rms);
        assert!(s.max > s.rms * 3.0, "{codec_name}");
        let thr = service
            .threshold_for_fraction("velocity", DerivedField::CurlNorm, 0, 0.01)
            .unwrap();
        if exact {
            // the dense reference, accumulated x fastest as it comes
            let mut dense = reference_points(
                &service,
                "velocity",
                DerivedField::CurlNorm,
                0,
                f64::NEG_INFINITY,
            );
            let mut acc = tdb_field::FieldStats::empty();
            acc.extend(dense.iter().map(|p| f64::from(p.value)));
            let want = acc.finish();
            let got_bits = [s.mean, s.rms, s.min, s.max].map(f64::to_bits);
            let want_bits = [want.mean, want.rms, want.min, want.max].map(f64::to_bits);
            assert_eq!((s.count, got_bits), (want.count, want_bits), "{codec_name}");
            dense.sort_by(tdb_cluster::topk_order);
            let kth = f64::from(dense[327].value);
            assert_eq!(thr.to_bits(), kth.to_bits(), "{codec_name}");
        }
        // on every codec the threshold selects round(0.01 · 32³) points,
        // and the largest value the archive holds is the reported maximum
        let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, thr)
            .without_cache();
        let selected = service.get_threshold(&q).unwrap().points.len();
        assert_eq!(selected, 328, "{codec_name}");
        let top = service.get_topk(&q, 1).unwrap().points[0].value;
        assert_eq!(f64::from(top).to_bits(), s.max.to_bits(), "{codec_name}");
        // a fraction outside [0, 1] is refused, not asserted
        let refused = QueryError::InvalidParameter("fraction must satisfy 0 <= fraction <= 1");
        for fraction in [-0.1, 1.5, f64::NAN] {
            let answer =
                service.threshold_for_fraction("velocity", DerivedField::CurlNorm, 0, fraction);
            assert_eq!(answer, Err(refused.clone()), "{codec_name}: {fraction}");
        }
    }
}

/// Every selectivity tier `repro` picks a threshold for is, bit for bit,
/// the k-th largest value of the dense reference, k = round(N · fraction)
/// raised to 1 — the last point of a top-k of k points — for each
/// parameter-free field at 32³.
#[test]
fn threshold_for_fraction_is_the_kth_dense_value_at_every_repro_tier() {
    let service = test_service("e2e_fractions", 32, 1, 2);
    let n = 32 * 32 * 32;
    for derived in DerivedField::all() {
        let mut dense = reference_points(&service, "velocity", derived, 0, f64::NEG_INFINITY);
        dense.sort_by(tdb_cluster::topk_order);
        for (fraction, tier, _) in tdb_bench::FRACTIONS {
            let k = ((n as f64 * fraction).round() as usize).max(1);
            let got = service
                .threshold_for_fraction("velocity", derived, 0, fraction)
                .unwrap();
            let want = f64::from(dense[k - 1].value);
            assert_eq!(got.to_bits(), want.to_bits(), "{}, {tier}", derived.name());
        }
    }
}

/// `repro` records every experiment it runs as one table whose rows each
/// hold exactly the table's columns, and refuses an unknown experiment or
/// a `TDB_GRID` the cluster cannot hold with exit 2 before it writes
/// anything.
#[test]
fn repro_records_every_experiment_as_one_table_and_refuses_bad_input() {
    let dir = ScratchDir::new("e2e_repro");
    let repro = |grid: &str, args: &[&str]| {
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .env("TDB_GRID", grid)
            .current_dir(dir.path())
            .output()
            .expect("repro starts");
        let stderr = String::from_utf8_lossy(&run.stderr).into_owned();
        (run.status.code(), stderr)
    };
    let results = dir.path().join("repro_results.json");
    let (code, stderr) = repro("32", &[]);
    assert_eq!(code, Some(0), "{stderr}");
    let doc = tdb_wire::Json::parse(&std::fs::read_to_string(&results).unwrap()).unwrap();
    let Some(tdb_wire::Json::Obj(tables)) = doc.get("tables") else {
        panic!("repro_results.json has no `tables` object");
    };
    let mut all: Vec<&str> = "fig2 fig3 fig4 table1 fig7a fig7b fig8 fig9 local hitratio \
                              concurrent compression replication ablations"
        .split_whitespace()
        .collect();
    all.sort_unstable();
    assert!(tables.keys().eq(&all), "{:?}", tables.keys());
    for (name, table) in tables {
        let columns = table.get("columns").and_then(|c| c.as_arr()).unwrap();
        let mut columns: Vec<&str> = columns.iter().map(|c| c.as_str().unwrap()).collect();
        columns.sort_unstable();
        let rows = table.get("rows").and_then(|r| r.as_arr()).unwrap();
        assert!(!rows.is_empty(), "{name} recorded no rows");
        for row in rows {
            let tdb_wire::Json::Obj(cells) = row else {
                panic!("{name}: {}", row.encode());
            };
            assert!(cells.keys().eq(&columns), "{name}: {}", row.encode());
        }
    }
    // the scaling figures read one cold run per query at every process
    // count, so their shapes are the model's, exact at any grid: Fig. 7(a)'s
    // speed-ups start at 1 and never fall, and Fig. 8's columns are each
    // run's total and its modelled I/O, a part of its total, less for the
    // pruned threshold query than for the whole box, and never rising with
    // the process count (I/O halves, then flattens at the controller: the
    // paper's shape)
    let rows = |name: &str| {
        let rows = tables.get(name).and_then(|t| t.get("rows"));
        rows.and_then(|r| r.as_arr()).unwrap()
    };
    let cell =
        |row: &tdb_wire::Json, column: &str| row.get(column).and_then(|c| c.as_f64()).unwrap();
    for row in rows("fig7a") {
        let speedups = ["p1", "p2", "p4", "p8"].map(|p| cell(row, p));
        assert_eq!(speedups[0], 1.0, "{}", row.encode());
        assert!(speedups.is_sorted(), "{}", row.encode());
    }
    let mut previous = [f64::INFINITY; 4];
    for row in rows("fig8") {
        let procs = cell(row, "procs");
        let (io, total) = (cell(row, "io_only_s"), cell(row, "total_s"));
        let (pruned_io, pruned) = (
            cell(row, "threshold_io_only_s"),
            cell(row, "threshold_total_s"),
        );
        assert!(0.0 < io && io <= total, "p={procs}: {io} of {total}");
        assert!(
            0.0 < pruned_io && pruned_io <= pruned,
            "p={procs}: {pruned_io} of {pruned}"
        );
        assert!(pruned_io <= io, "p={procs}: {pruned_io} against {io}");
        let now = [io, pruned_io, total, pruned];
        assert!(
            now.iter().zip(&previous).all(|(now, before)| now <= before),
            "p={procs}: {now:?} after {previous:?}"
        );
        previous = now;
    }
    std::fs::remove_file(&results).unwrap();
    for (grid, args) in [("32", &["fig5"][..]), ("abc", &[]), ("40", &[])] {
        let (code, stderr) = repro(grid, args);
        assert_eq!(code, Some(2), "TDB_GRID={grid} {args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(!results.exists(), "TDB_GRID={grid} {args:?} wrote results");
    }
}
