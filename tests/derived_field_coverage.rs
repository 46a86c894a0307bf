//! Every derived field in the catalogue answers threshold queries through
//! the full distributed stack, including the parameterized filtered norms
//! and the channel-flow (wall-bounded, stretched-grid) dataset.

use tdb_bench::{bits, harness, ranked_bits, reference_points, test_service};
use tdb_cluster::CompressionConfig;
use tdb_core::{DerivedField, ThresholdQuery, TurbulenceService};
use tdb_turbgen::SyntheticDataset;
use tdb_zorder::{AtomCoord, Box3};

/// Every field, the box filter included, answers a cold threshold query
/// with the dense reference's points, bit for bit, and re-issues it as a
/// cache hit.
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
        let want = reference_points(&service, "velocity", derived, 0, thr);
        assert_eq!(bits(&cold.points), bits(&want), "{}", derived.name());
        // ~1% selectivity by construction
        let frac = cold.points.len() as f64 / 32f64.powi(3);
        assert!(
            (0.002..0.05).contains(&frac),
            "{}: fraction {frac}",
            derived.name()
        );
    }
}

/// Every atom's and every octant's stored maximum (DESIGN.md §9) is, bit
/// for bit, the largest value the archive itself holds there — read back
/// through a top-k of every grid point, which nothing prunes — on every
/// codec, raw field and parameter-free derived field, and on a 64³
/// wall-bounded grid whose build blocks meet a wall; none is the +∞ of a
/// block the build could not derive.
#[test]
fn stored_atom_maxima_are_the_maxima_of_the_archive_values() {
    let archives = [
        ("raw", 32, CompressionConfig::default(), None),
        ("lossless", 32, CompressionConfig::lossless(), None),
        ("lossy", 32, CompressionConfig::lossy(2, 5e-2), None),
        ("channel", 64, CompressionConfig::default(), Some(0xc4c)),
    ];
    for (name, n, codec, channel) in archives {
        let mut build =
            harness(&format!("cat_maxima_{name}"), n, 1).cluster(|c| c.compression = codec);
        if let Some(seed) = channel {
            build = build
                .nodes(4)
                .dataset(SyntheticDataset::channel(n, n, n, 1, seed));
        }
        let service = build.build();
        let atoms = n as u32 / 8;
        for field in service.dataset().raw_fields().iter().map(|f| f.name) {
            for derived in DerivedField::all() {
                let row = format!("{name}, {field}, {}", derived.name());
                let q = ThresholdQuery::whole_timestep(field, derived, 0, 0.0).without_cache();
                // in slabs of 16 planes: a top-k is at most 100 000 points
                let every: Vec<_> = (0..n as u32)
                    .step_by(16)
                    .flat_map(|z| {
                        let slab = Box3::new([0, 0, z], [n as u32 - 1, n as u32 - 1, z + 15]);
                        let k = slab.num_points() as usize;
                        service.get_topk(&q.clone().in_box(slab), k).unwrap().points
                    })
                    .collect();
                assert_eq!(every.len(), n * n * n, "{row}");
                // the largest non-NaN value in `total_cmp` order (+0 above −0),
                // per atom and per octant (its half along x, y, z: bits 0–2)
                let mut want = vec![[f32::NAN; 9]; (atoms * atoms * atoms) as usize];
                for p in &every {
                    let (x, y, z) = p.coords();
                    let atom = AtomCoord::containing(x, y, z);
                    let octant = (x % 8 / 4 + 2 * (y % 8 / 4) + 4 * (z % 8 / 4)) as usize;
                    let maxima = &mut want[(atom.x + atoms * (atom.y + atoms * atom.z)) as usize];
                    for i in [octant, 8] {
                        let max = &mut maxima[i];
                        if !p.value.is_nan() && (max.is_nan() || p.value.total_cmp(max).is_gt()) {
                            *max = p.value;
                        }
                    }
                }
                let cluster = service.cluster();
                let unbuilt: usize = (Box3::cube(n as u32).atoms())
                    .map(|atom| cluster.octant_maxima(field, derived, 0, atom).unwrap())
                    .map(|got| got.iter().filter(|&&m| m == f32::INFINITY).count())
                    .sum();
                assert_eq!(unbuilt, 0, "{row}: octant maxima at +∞");
                for atom in Box3::cube(n as u32).atoms() {
                    let want = want[(atom.x + atoms * (atom.y + atoms * atom.z)) as usize];
                    let got = cluster.octant_maxima(field, derived, 0, atom).unwrap();
                    let octants: [u32; 8] = std::array::from_fn(|o| want[o].to_bits());
                    assert_eq!(got.map(f32::to_bits), octants, "{row}, {atom:?}");
                    let got = cluster.atom_max(field, derived, 0, atom);
                    assert_eq!(
                        got.map(f32::to_bits),
                        Some(want[8].to_bits()),
                        "{row}, {atom:?}"
                    );
                }
            }
        }
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
