//! Every derived field in the catalogue answers threshold queries through
//! the full distributed stack, including the parameterized filtered norms
//! and the channel-flow (wall-bounded, stretched-grid) dataset.

use tdb_bench::{harness, ranked_bits, test_service};
use tdb_core::{DerivedField, ThresholdQuery, TurbulenceService};
use tdb_turbgen::SyntheticDataset;

#[test]
fn every_catalogue_field_evaluates_and_caches() {
    let service = test_service("cat_all", 32, 1, 2);
    let mut fields: Vec<DerivedField> = DerivedField::all().to_vec();
    fields.push(DerivedField::BoxFilteredNorm { radius: 2 });
    for derived in fields {
        let thr = service
            .threshold_for_fraction("velocity", derived, 0, 0.01)
            .unwrap_or_else(|e| panic!("{}: {e}", derived.name()));
        let q = ThresholdQuery::whole_timestep("velocity", derived, 0, thr);
        let cold = service
            .get_threshold(&q)
            .unwrap_or_else(|e| panic!("{}: {e}", derived.name()));
        let warm = service.get_threshold(&q).unwrap();
        assert_eq!(
            warm.cache_hits,
            warm.nodes,
            "{} should hit the cache on re-issue",
            derived.name()
        );
        assert_eq!(cold.points.len(), warm.points.len(), "{}", derived.name());
        // ~1% selectivity by construction
        let frac = cold.points.len() as f64 / 32f64.powi(3);
        assert!(
            (0.002..0.05).contains(&frac),
            "{}: fraction {frac}",
            derived.name()
        );
    }
}

#[test]
fn filtered_norm_radius_changes_the_answer_and_the_cache_entry() {
    let service = test_service("cat_filter", 32, 1, 2);
    let r1 = DerivedField::BoxFilteredNorm { radius: 1 };
    let r3 = DerivedField::BoxFilteredNorm { radius: 3 };
    let q1 = ThresholdQuery::whole_timestep("velocity", r1, 0, 1.0);
    let q3 = ThresholdQuery::whole_timestep("velocity", r3, 0, 1.0);
    let a1 = service.get_threshold(&q1).unwrap();
    // different radius: its own cache entry, so this must miss
    let a3 = service.get_threshold(&q3).unwrap();
    assert_eq!(a3.cache_hits, 0, "distinct radius must not share entries");
    // a wider filter smooths harder → different (usually smaller) result
    assert_ne!(a1.points.len(), a3.points.len());
    // both re-issue as hits
    assert_eq!(service.get_threshold(&q1).unwrap().cache_hits, 2);
    assert_eq!(service.get_threshold(&q3).unwrap().cache_hits, 2);
}

#[test]
fn channel_flow_threshold_queries_respect_walls() {
    // wall-bounded in y, stretched grid: one-sided stencils at the walls,
    // periodic halo in x/z only
    let service = harness("cat_channel", 32, 1)
        .dataset(SyntheticDataset::channel(32, 32, 32, 1, 0xc4a))
        .build();
    let stats = service
        .derived_stats("velocity", DerivedField::Norm, 0)
        .unwrap();
    assert!(stats.max > 0.0);
    // velocity norm thresholds: no point can sit on the walls (u = 0 there)
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::Norm, 0, 0.5 * stats.rms);
    let r = service.get_threshold(&q).unwrap();
    assert!(!r.points.is_empty());
    for p in &r.points {
        let (_, y, _) = p.coords();
        assert!(y > 0 && y < 31, "wall point {y} above threshold");
    }
    // vorticity (derivatives incl. one-sided wall stencils) matches a
    // direct evaluation restricted to a couple of spot checks: the
    // distributed answer must at least be internally consistent on re-issue
    let qv = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 1.0);
    let cold = service.get_threshold(&qv).unwrap();
    let warm = service.get_threshold(&qv).unwrap();
    assert_eq!(cold.points.len(), warm.points.len());
    assert_eq!(warm.cache_hits, warm.nodes);
}

#[test]
fn channel_distributed_equals_single_node() {
    let build = |nodes: usize, tag: &str| {
        harness(tag, 32, 1)
            .nodes(nodes)
            .dataset(SyntheticDataset::channel(32, 32, 32, 1, 0xc4b))
            .build()
    };
    let answer = |s: &TurbulenceService| {
        let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 2.0)
            .without_cache();
        ranked_bits(&s.get_threshold(&q).unwrap().points)
    };
    let one = answer(&build(1, "cat_ch1"));
    let four = answer(&build(4, "cat_ch4"));
    assert!(!one.is_empty());
    assert_eq!(one, four, "wall stencils must survive distribution");
}
