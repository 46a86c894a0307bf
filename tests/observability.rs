//! The observability layer end-to-end: process-wide metrics move when
//! queries run, query traces agree with the modelled time breakdown, and
//! the f64 threshold comparison keeps warm answers byte-identical to cold
//! ones even at thresholds no f32 can represent.
//!
//! Metrics are process-global and the test binary runs tests in parallel,
//! so every assertion here is on a *delta* between two snapshots and only
//! ever checks `>=` — concurrent tests can add to a counter but never
//! subtract from it.

use std::path::{Path, PathBuf};

use tdb_bench::{harness, ranked_bits, reference_points, test_service};
use tdb_core::{AttrValue, DerivedField, FdOrder, SyntheticDataset, ThresholdQuery};

#[test]
fn cold_then_warm_query_moves_bufferpool_and_cache_counters() {
    let service = test_service("obs_counters", 32, 1, 2);
    let stats = service
        .derived_stats("velocity", DerivedField::CurlNorm, 0)
        .unwrap();
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 3.0 * stats.rms);
    // picking the threshold scanned the archive: start the query cold
    service.cluster().clear_buffer_pools();

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
    let trace = &r.trace;
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
    let t = &pdf.trace;
    assert_eq!(t.root.name, "query.pdf");
    assert_eq!(t.span("phase.io").unwrap().duration_s, pdf.breakdown.io_s);

    let topk = service.get_topk(&q, 5).unwrap();
    let t = &topk.trace;
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
    // a PDF scans every chunk whole: no maximum prunes it
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::QCriterion, 0, 0.0)
        .without_cache();
    // a gauge is overwritten by whichever scan finished last, and the other
    // tests of this binary scan smaller chunks at order 4: the largest of a
    // few readings is this test's own
    let peak = (0..3)
        .map(|_| {
            service.get_pdf(&q, 0.0, 1.0, 16).unwrap();
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

/// The per-atom maxima show in the system's own output: at the paper's
/// medium selectivity a cold whole-grid query fetches at least 5× fewer
/// atoms than a PDF of the same box — which nothing prunes — and fewer bytes
/// on every device (a 64 KiB block holds ~10 atoms, and the survivors' halos
/// reach into many blocks); a threshold of 0 on a norm reads exactly what
/// the PDF reads. The PDF's halo is read along the axes like every other
/// scan's: a chunk of 4³ atoms and its face neighbours, 64 + 6 × 16 = 160
/// atoms, not the 6³ = 216 of the whole dilated cube; and what the pruned
/// query scanned plus what it skipped is that read. On a wall-bounded grid
/// in 16³ chunks (8 + 6 × 4 = 32 atoms a chunk, 28 at a wall: 1920) a
/// 10⁻³ query prunes as well — at least 8× — its wall octants included.
#[test]
fn a_cold_medium_tier_query_reads_a_fifth_of_the_atoms_of_a_whole_box() {
    let archives = [
        // `cold_scan`'s geometry: 64³ in 32³ chunks
        ("mhd", 8.06e-5, 8 * 160, 5),
        ("channel", 1e-3, 1920, 8),
    ];
    for (name, fraction, whole_read, fewer) in archives {
        let service = match name {
            "mhd" => harness("obs_pruned", 64, 1).cluster(|c| c.chunk_atoms = 4),
            _ => harness("obs_pruned_channel", 64, 1)
                .nodes(4)
                .dataset(SyntheticDataset::channel(64, 64, 64, 1, 0xc4c)),
        }
        .build();
        let medium = service
            .threshold_for_fraction("velocity", DerivedField::CurlNorm, 0, fraction)
            .unwrap();
        // per trace: atoms scanned and bytes per device, summed over the nodes
        let reads = |trace: &tdb_core::QueryTrace| {
            let mut sums: std::collections::BTreeMap<String, u64> = Default::default();
            for node in &trace.span("phase.io").unwrap().children {
                for (key, value) in &node.attrs {
                    let counted = key.starts_with("bytes.") || key.starts_with("atoms_");
                    if let (true, AttrValue::U64(n)) = (counted, value) {
                        *sums.entry(key.clone()).or_default() += n;
                    }
                }
            }
            sums
        };
        let q = |t| ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, t);
        service.cluster().clear_buffer_pools();
        let pdf = service
            .get_pdf(&q(0.0).without_cache(), 0.0, 10.0, 9)
            .unwrap();
        let whole = reads(&pdf.trace);
        service.cluster().clear_buffer_pools();
        let pruned = service.get_threshold(&q(medium).without_cache()).unwrap();
        let pruned = reads(&pruned.trace);
        service.cluster().clear_buffer_pools();
        let zero = service.get_threshold(&q(0.0).without_cache()).unwrap();
        let zero = reads(&zero.trace);

        assert_eq!(zero, whole, "{name}: a norm at or above 0 prunes nothing");
        assert_eq!(whole["atoms_pruned"], 0, "{name}");
        assert_eq!(whole["atoms_scanned"], whole_read, "{name}: axes only");
        assert!(pruned["atoms_pruned"] > 0, "{name}: {pruned:?}");
        assert_eq!(
            pruned["atoms_scanned"] + pruned["atoms_pruned"],
            whole["atoms_scanned"],
            "{name}: {pruned:?}"
        );
        let (read, all) = (pruned["atoms_scanned"], whole["atoms_scanned"]);
        assert!(fewer * read <= all, "{name}: atoms: {read} of {all}");
        for (key, &all) in whole.iter().filter(|(k, _)| k.starts_with("bytes.")) {
            let read = pruned.get(key).copied().unwrap_or(0);
            assert!(read < all, "{name}: {key}: {read} of {all}");
        }
    }
}

/// A whole-grid top-k on `mixed_zipf`'s geometry (64³ in 16³ chunks, 32
/// atoms read per chunk; here on four nodes) is a threshold scan at the
/// floor its octant maxima set: it answers the dense ranking bit for bit
/// at every k from 1 to 10 000, and reads at least 50× fewer atoms than a
/// whole-box PDF at k ≤ 10 and 6× fewer at k = 100 (8.7–10.3× measured;
/// the floor's octants pull in their halo atoms) — without a re-scan.
#[test]
fn a_whole_grid_topk_reads_only_the_octants_that_can_hold_its_answer() {
    let service = harness("obs_topk", 64, 1).nodes(4).build();
    let scanned = |trace: &tdb_core::QueryTrace| -> u64 {
        let nodes = &trace.span("phase.io").unwrap().children;
        (nodes.iter())
            .map(|node| match node.attr("atoms_scanned") {
                Some(AttrValue::U64(n)) => *n,
                other => panic!("atoms_scanned: {other:?}"),
            })
            .sum()
    };
    let fields = [
        DerivedField::CurlNorm,
        DerivedField::QCriterion,
        DerivedField::GradientNorm,
        DerivedField::StrainRateNorm,
    ];
    for derived in fields {
        let name = derived.name();
        let mut ranked = reference_points(&service, "velocity", derived, 0, f64::NEG_INFINITY);
        ranked.sort_by(tdb_cluster::topk_order);
        let q = ThresholdQuery::whole_timestep("velocity", derived, 0, 0.0).without_cache();
        let pdf = service.get_pdf(&q, 0.0, 10.0, 9).unwrap();
        let whole = scanned(&pdf.trace);
        assert_eq!(whole, 64 * 32, "{name}: the whole box");
        for (k, fewer) in [(1, 50), (10, 50), (100, 6), (1000, 1), (10_000, 1)] {
            let rescans = tdb_obs::m::SCAN_TOPK_RESCANS.get();
            let top = service.get_topk(&q, k).unwrap();
            assert_eq!(
                ranked_bits(&top.points),
                ranked_bits(&ranked[..k]),
                "{name}, k = {k}"
            );
            let read = scanned(&top.trace);
            assert!(fewer * read <= whole, "{name}, k = {k}: {read} of {whole}");
            assert_eq!(tdb_obs::m::SCAN_TOPK_RESCANS.get(), rescans, "{name}");
        }
    }
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

/// Metric names are checked by the compiler (a metric is a `static` of
/// `tdb_obs::m`), but an unused `pub static` gets no dead-code warning: a
/// row of the table that nothing reports would be a dashboard line stuck
/// at zero forever. Reporting means production code outside `tdb-obs`:
/// `crates/*/src`, each file before its first top-level `#[cfg(test)]`,
/// comments aside.
#[test]
fn every_declared_metric_is_reported() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |p: &Path| std::fs::read_to_string(p).expect("readable source");
    let table = read(&root.join("crates/obs/src/declared.rs"));
    let kinds = ["counter", "gauge", "histogram", "family"];
    let mut idle: Vec<&str> = table
        .lines()
        .filter_map(|row| match row.split_whitespace().collect::<Vec<_>>()[..] {
            [kind, ident, _name] if kinds.contains(&kind) => Some(ident),
            _ => None,
        })
        .collect();
    assert!(idle.len() > 60, "table rows not recognised: {idle:?}");
    let crates = root.join("crates").read_dir().expect("crates/");
    let mut stack: Vec<PathBuf> = crates
        .flatten()
        .filter(|e| e.file_name() != "obs")
        .map(|e| e.path().join("src"))
        .collect();
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    while let Some(path) = stack.pop() {
        if path.is_dir() {
            stack.extend(path.read_dir().expect("dir").flatten().map(|e| e.path()));
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = read(&path);
            let production = text.split("\n#[cfg(test)]").next().unwrap_or_default();
            for line in production.lines().filter_map(|l| l.split("//").next()) {
                idle.retain(|id| {
                    !line.match_indices(id).any(|(i, _)| {
                        !line[..i].ends_with(is_ident)
                            && !line[i + id.len()..].starts_with(is_ident)
                    })
                });
            }
        }
    }
    assert!(idle.is_empty(), "declared but never reported: {idle:?}");
}
