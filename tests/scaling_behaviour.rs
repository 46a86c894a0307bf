//! Modelled scaling shapes (paper Figs. 7 & 8) hold on the integration
//! scale: scale-out is near-linear, scale-up saturates, I/O is a large
//! share of cold queries, and cache hits collapse the total.

use tdb_bench::{harness, TestService};
use tdb_cluster::NodeTimeModel;
use tdb_core::{DerivedField, QueryLimits, ThresholdQuery, TurbulenceService};

fn build_with(nodes: usize, tag: &str, synthetic: Option<f64>) -> TestService {
    // 128³ with 32³ chunks (`ServiceConfig::mhd`'s choice at this size)
    // keeps the halo band a realistic fraction of the data read (a 64³
    // grid with 16³ chunks nearly doubles every read, which drowns the
    // scaling signal the paper measures at 1024³). The limit admits a
    // whole-grid answer: `cold_models` reads everything.
    harness(tag, 128, 1)
        .nodes(nodes)
        .seed(0xabc)
        .limits(QueryLimits {
            max_points: 128 * 128 * 128,
            ..Default::default()
        })
        .cluster(|c| {
            c.procs_per_node = 1;
            c.arrays_per_node = 4;
            c.compute_scale = 6.0;
            c.synthetic_compute_s_per_point = synthetic;
        })
        .build()
}

fn build(nodes: usize, tag: &str) -> TestService {
    // deterministic kernel-time model: the scaling assertions must not
    // depend on how loaded the host is
    build_with(nodes, tag, Some(2e-7))
}

/// Runs one cold scan of the whole box and returns the per-node
/// closed-form time models; `t(p)` is then evaluated from the models
/// instead of re-running the query, so the derived speedups cannot flake
/// on wall-clock noise. A norm is never below 0, so no atom is pruned:
/// this is the whole-box evaluation whose scaling the paper measures.
fn cold_models(service: &TurbulenceService) -> Vec<NodeTimeModel> {
    service.cluster().clear_buffer_pools();
    let q =
        ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 0.0).without_cache();
    let r = service.get_threshold(&q).unwrap();
    assert!(r.degraded.is_none());
    r.node_models
}

/// Cluster time at `p` processes per node: the slowest node bounds the
/// (barrier-synchronised) scatter-gather.
fn modelled_total(models: &[NodeTimeModel], procs: usize) -> f64 {
    models.iter().map(|m| m.total_s(procs)).fold(0.0, f64::max)
}

#[test]
fn scale_out_is_nearly_linear() {
    let t1 = modelled_total(&cold_models(&build(1, "so1")), 1);
    let t4 = modelled_total(&cold_models(&build(4, "so4")), 1);
    let speedup = t1 / t4;
    // deterministic (fixed kernel-time model, I/O charged to the rack that
    // served it). One process per node, so `NodeTimeModel::io_s` is in its
    // `io_served / p` term on both sides: what a node's arrays served. That
    // is every block of its quarter of the grid once: the halo shell its
    // neighbours read from it (along the axes, 10 240 atoms in all) comes
    // from blocks its own chunks load anyway, as pool hits, and only the
    // LAN carries it, which binds at no process count here. What keeps
    // 3.945 under 4 is block granularity: four nodes' sixteen partition
    // files hold the grid in 384 blocks, one node's four in 376, and every
    // block read pays its own access. (The repro harness at 128³+ with
    // paper-sized chunks lands closer to the paper's near-perfect
    // scaling.)
    assert!(
        (speedup / 3.945 - 1.0).abs() < 0.01,
        "4-node scale-out speedup should read 3.945 ± 1 %, got {speedup:.4}"
    );
}

#[test]
fn scale_up_speedup_diminishes() {
    // one cold run; t(p) then comes from the per-node time models, which
    // is both deterministic and exactly the quantity the paper's Fig. 7
    // plots (modelled node time against worker count)
    let models = cold_models(&build(4, "su"));
    let t1 = modelled_total(&models, 1);
    let t2 = modelled_total(&models, 2);
    let t8 = modelled_total(&models, 8);
    let s2 = t1 / t2;
    let s8 = t1 / t8;
    // both deterministic. At p = 2 `NodeTimeModel::io_s` sits exactly
    // where its two terms meet — `io_served / 2` equals `io_busiest`, the
    // rack's controller, which carries all the traffic of the node's
    // arrays — and compute halves, so the speedup is 2 to the last digit.
    assert!(
        (s2 / 2.0 - 1.0).abs() < 0.01,
        "2-process speedup should read 2.000 ± 1 %, got {s2:.4}"
    );
    // At p = 8 I/O is pinned to the `io_busiest` term — the controller,
    // which does not get faster with more readers ("the time to perform
    // I/O does not scale", §5.3), not the LAN that carries the halo shell
    // — while compute falls to an eighth: saturation well below linear,
    // at 2.548.
    assert!(
        (s8 / 2.548 - 1.0).abs() < 0.01,
        "8-process speedup should read 2.548 ± 1 %, got {s8:.4}"
    );
}

#[test]
fn io_is_substantial_share_of_cold_queries() {
    // Fig. 8: the I/O time is about half of the total running time
    let service = build(4, "ioshare");
    service.cluster().clear_buffer_pools();
    let q =
        ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 30.0).without_cache();
    let r = service.get_threshold(&q).unwrap();
    let share = r.breakdown.io_s / (r.breakdown.io_s + r.breakdown.compute_s);
    assert!(
        (0.15..=0.98).contains(&share),
        "I/O share out of plausible range: {share:.2}"
    );
    // a cold answer's breakdown is its query model read at the configured
    // process count, to the last bit, for a threshold, a PDF and a top-k
    // (a threshold answer too) alike
    let p = service.cluster().config().procs_per_node;
    service.cluster().clear_buffer_pools();
    let pdf = service.get_pdf(&q, 0.0, 10.0, 9).unwrap();
    service.cluster().clear_buffer_pools();
    let top = service.get_topk(&q, 10).unwrap();
    assert_eq!(
        (top.nodes, top.node_models.len(), top.cache_hits),
        (4, 4, 0)
    );
    for (kind, breakdown, model) in [
        ("threshold", &r.breakdown, &r.model),
        ("pdf", &pdf.breakdown, &pdf.model),
        ("topk", &top.breakdown, &top.model),
    ] {
        assert!(breakdown.io_s > 0.0 && breakdown.compute_s > 0.0, "{kind}");
        assert_eq!(breakdown.io_s.to_bits(), model.io_s(p).to_bits(), "{kind}");
        let compute = model.compute_s(p).to_bits();
        assert_eq!(breakdown.compute_s.to_bits(), compute, "{kind}");
    }
}

#[test]
fn derived_fields_cost_more_compute_than_raw_fields() {
    // Fig. 9: Q-criterion compute > vorticity compute > magnetic (raw).
    // This ordering IS about per-kernel cost differences, so it uses
    // measured CPU time, not the synthetic per-point model. Contention
    // and host-speed bursts only ever inflate a measurement, so the
    // minimum over five runs is a stable per-kernel estimate — with the
    // fields interleaved round by round, so a burst lasting a few hundred
    // milliseconds cannot cover every run of one field. A PDF derives
    // every point of the box: nothing prunes it.
    let service = build_with(2, "fieldcost", None);
    let fields = [
        ("velocity", DerivedField::CurlNorm),
        ("velocity", DerivedField::QCriterion),
        ("magnetic", DerivedField::Norm),
    ];
    // (compute, io) per field
    let mut best = [(f64::INFINITY, f64::INFINITY); 3];
    for _ in 0..5 {
        for ((raw, derived), (compute, io)) in fields.iter().zip(&mut best) {
            service.cluster().clear_buffer_pools();
            let q = ThresholdQuery::whole_timestep(raw, *derived, 0, 0.0).without_cache();
            let b = service.get_pdf(&q, 0.0, 1.0, 16).unwrap().breakdown;
            *compute = compute.min(b.compute_s);
            *io = io.min(b.io_s);
        }
    }
    let [(vort_compute, vort_io), (qcrit_compute, _), (raw_compute, raw_io)] = best;
    assert!(
        qcrit_compute > vort_compute,
        "Q ({qcrit_compute:.4}s) should out-cost vorticity ({vort_compute:.4}s)"
    );
    assert!(
        raw_compute < vort_compute,
        "raw field ({raw_compute:.4}s) should be cheapest (vort {vort_compute:.4}s)"
    );
    // raw field needs no halo → strictly less I/O than a derived field
    assert!(raw_io <= vort_io);
}
