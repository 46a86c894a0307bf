//! Distribution transparency: the number of nodes, processes, chunk size
//! or FD order of the *storage layout* must never change query answers —
//! only their cost.

use tdb_bench::{harness, ranked_bits, ScratchDir, TestService};
use tdb_cluster::mediator::ThresholdRequest;
use tdb_cluster::{BatchAnswer, BatchQuery, Cluster, ClusterBuilder, ClusterConfig, QueryMode};
use tdb_core::{Box3, DerivedField, ThresholdQuery, TurbulenceService};
use tdb_field::{Grid3, ScalarField};

fn build(nodes: usize, procs: usize, chunk_atoms: u32, tag: &str) -> TestService {
    harness(tag, 32, 1)
        .nodes(nodes)
        .seed(0xfeed)
        .cluster(|c| {
            c.procs_per_node = procs;
            c.chunk_atoms = chunk_atoms;
        })
        .build()
}

/// The answer in the order it arrived: distribution must not change that
/// either.
fn answer(service: &TurbulenceService) -> Vec<(u64, u32)> {
    let q =
        ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 28.0).without_cache();
    ranked_bits(&service.get_threshold(&q).unwrap().points)
}

#[test]
fn answers_are_independent_of_node_count() {
    let reference = answer(&build(1, 2, 2, "dc_n1"));
    assert!(!reference.is_empty());
    for nodes in [2, 3, 4, 8] {
        let got = answer(&build(nodes, 2, 2, &format!("dc_n{nodes}")));
        assert_eq!(got, reference, "{nodes}-node answer differs");
    }
}

#[test]
fn answers_are_independent_of_process_count() {
    let reference = answer(&build(2, 1, 2, "dc_p1"));
    for procs in [2, 4, 8] {
        let got = answer(&build(2, procs, 2, &format!("dc_p{procs}")));
        assert_eq!(got, reference, "{procs}-process answer differs");
    }
}

#[test]
fn answers_are_independent_of_chunk_size() {
    let reference = answer(&build(2, 2, 1, "dc_c1"));
    let got = answer(&build(2, 2, 2, "dc_c2"));
    assert_eq!(got, reference, "chunk_atoms=2 answer differs");
    // chunk_atoms=4 tiles a 32³ grid into a single chunk: single node only
    let got = answer(&build(1, 2, 4, "dc_c4"));
    assert_eq!(got, reference, "chunk_atoms=4 answer differs");
}

#[test]
fn halo_exchange_is_exact_at_node_boundaries() {
    // With 8 nodes on a 32³ grid every chunk borders foreign atoms, so a
    // kernel bug at node boundaries would corrupt many points: compare a
    // wide-halo (order-8) query across node counts.
    let mk = |nodes: usize, tag: &str| {
        harness(tag, 32, 1)
            .nodes(nodes)
            .seed(0xbeef)
            .cluster(|c| {
                c.chunk_atoms = 1;
                c.fd_order = tdb_kernels::FdOrder::O8;
            })
            .build()
    };
    let a = answer(&mk(1, "dc_h1"));
    let b = answer(&mk(8, "dc_h8"));
    assert_eq!(a, b);
}

#[test]
fn pdf_and_topk_are_distribution_transparent() {
    let s1 = build(1, 1, 2, "dc_pdf1");
    let s4 = build(4, 2, 2, "dc_pdf4");
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::QCriterion, 0, 0.0);
    let p1 = s1.get_pdf(&q, -200.0, 25.0, 16).unwrap();
    let p4 = s4.get_pdf(&q, -200.0, 25.0, 16).unwrap();
    assert_eq!(p1.histogram.counts(), p4.histogram.counts());
    let t1 = s1.get_topk(&q, 25).unwrap();
    let t4 = s4.get_topk(&q, 25).unwrap();
    let v1: Vec<f32> = t1.points.iter().map(|p| p.value).collect();
    let v4: Vec<f32> = t4.points.iter().map(|p| p.value).collect();
    assert_eq!(v1, v4);
}

/// A 32³ scalar archive on `nodes` nodes (16³ chunks, so 4 nodes hold two
/// chunks each and the node boundaries fall at y = 16 and z = 16).
fn scalar_cluster(field: &ScalarField, nodes: usize, tag: &str) -> (Cluster, ScratchDir) {
    let config = ClusterConfig {
        num_nodes: nodes,
        procs_per_node: 2,
        arrays_per_node: 2,
        chunk_atoms: 2,
        ..ClusterConfig::default()
    };
    let dir = ScratchDir::new(tag);
    let mut builder = ClusterBuilder::new(
        dir.path(),
        "ties",
        Grid3::periodic_cube(32, std::f64::consts::TAU),
        &[("s", 1)],
        config,
    )
    .expect("builder");
    builder
        .ingest_timestep(0, "s", 1, |atom| field.extract_atom(atom).to_vec())
        .expect("ingest");
    (builder.finish().expect("cluster"), dir)
}

/// Top-k ties are broken by one total order — value descending, then
/// Morton code ascending — so which of several equal values survive the
/// cut cannot depend on how the points were split across nodes, nor on
/// whether the query ran alone or inside a coalesced batch.
#[test]
fn topk_ties_break_identically_across_node_counts_and_batching() {
    // a flat field (one huge tie group at 0.5), six points at 9.0 on
    // both sides of the node boundaries y = 16 and z = 16 and of the
    // chunk boundary x = 16, and three clear maxima
    let nines = [
        (5, 15, 3),
        (5, 16, 3),
        (15, 20, 15),
        (16, 20, 16),
        (31, 31, 31),
        (0, 0, 0),
    ];
    let tens = [(7, 7, 7), (24, 8, 17), (9, 30, 30)];
    let field = ScalarField::from_fn(32, 32, 32, |x, y, z| {
        if tens.contains(&(x, y, z)) {
            10.0
        } else if nines.contains(&(x, y, z)) {
            9.0
        } else {
            0.5
        }
    });
    // the pinned order, computed naively over every grid point
    let mut all: Vec<(u64, f32)> = Box3::grid(32, 32, 32)
        .points()
        .map(|(x, y, z)| {
            (
                tdb_zorder::encode3(x, y, z),
                field.get(x as usize, y as usize, z as usize),
            )
        })
        .collect();
    all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let expect = |k: usize| -> Vec<(u64, u32)> {
        all.iter().take(k).map(|&(z, v)| (z, v.to_bits())).collect()
    };
    let req = ThresholdRequest {
        raw_field: "s".into(),
        derived: DerivedField::Norm,
        timestep: 0,
        query_box: Box3::grid(32, 32, 32),
        threshold: 0.0,
        use_cache: false,
        mode: QueryMode::Full,
        procs_override: None,
        strict: false,
        node_deadline_s: None,
    };
    // k = 5 cuts through the six 9.0s, k = 12 through the flat 0.5s
    for nodes in [1, 4] {
        let (cluster, _dir) = scalar_cluster(&field, nodes, &format!("dc_ties{nodes}"));
        for k in [5, 12] {
            let single = cluster.get_topk(&req, k).unwrap();
            assert_eq!(
                ranked_bits(&single.points),
                expect(k),
                "{nodes} nodes, k = {k}"
            );
        }
        let batch = cluster.run_batch(vec![
            BatchQuery::TopK {
                req: req.clone(),
                k: 5,
            },
            BatchQuery::Threshold(req.clone()),
            BatchQuery::TopK {
                req: req.clone(),
                k: 12,
            },
        ]);
        for (answer, k) in batch.into_iter().step_by(2).zip([5, 12]) {
            match answer.unwrap() {
                BatchAnswer::TopK(t) => {
                    assert_eq!(
                        ranked_bits(&t.points),
                        expect(k),
                        "{nodes} nodes, coalesced, k = {k}"
                    )
                }
                other => panic!("expected a top-k answer, got {other:?}"),
            }
        }
    }
}
