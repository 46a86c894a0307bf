//! The first slice of the configuration matrix: every way of answering a
//! threshold query — cache off, cold or warm; raw or lossless-compressed
//! storage; one copy or two; every node up or one down — returns the
//! points of the dense reference, bit for bit, or says exactly which boxes
//! it could not reach. Everything here comes from the harness: a later
//! slice adds rows, not helpers.

use std::sync::Arc;

use tdb_bench::{bits, bits_outside, harness, reference_points};
use tdb_cluster::{CompressionConfig, ReplicationConfig};
use tdb_core::{DerivedField, ThresholdQuery};
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
            assert!(dense(tie).iter().any(|p| f64::from(p.value) == tie));
            assert!(dense(above).is_empty());
            let lost: Vec<Box3> = service
                .cluster()
                .layout()
                .chunks_of_node(1)
                .iter()
                .map(|c| c.grid_box())
                .collect();

            for dead in [false, true] {
                plan.set_node_down(1, dead);
                for threshold in [tie, above] {
                    let expected = dense(threshold);
                    service.cluster().clear_caches();
                    service.cluster().clear_buffer_pools();
                    let cached = ThresholdQuery::whole_timestep(
                        "velocity",
                        DerivedField::CurlNorm,
                        0,
                        threshold,
                    );
                    let modes = [
                        ("cache off", cached.clone().without_cache(), false),
                        ("cold", cached.clone(), false),
                        ("warm", cached, true),
                    ];
                    for (mode, q, warm) in modes {
                        let row = format!(
                            "{codec_name}, k = {k}, node 1 {}, threshold {threshold}, {mode}",
                            if dead { "down" } else { "up" }
                        );
                        let answer = service
                            .get_threshold(&q)
                            .unwrap_or_else(|e| panic!("{row}: {e}"));
                        if dead && k == 1 {
                            let degraded = answer.degraded.unwrap_or_else(|| {
                                panic!("{row}: a partial answer is not flagged")
                            });
                            let failed: Vec<usize> =
                                degraded.failed_nodes.iter().map(|f| f.node).collect();
                            assert_eq!(failed, [1], "{row}");
                            assert_eq!(degraded.missing_boxes, lost, "{row}");
                            assert_eq!(
                                bits(&answer.points),
                                bits_outside(&expected, &lost),
                                "{row}"
                            );
                        } else {
                            assert!(answer.degraded.is_none(), "{row}: a replica survives");
                            assert_eq!(bits(&answer.points), bits(&expected), "{row}");
                        }
                        if !warm {
                            assert_eq!(answer.cache_hits, 0, "{row}");
                        } else if !dead {
                            assert_eq!(answer.cache_hits, answer.nodes, "{row}");
                        }
                    }
                }
            }
        }
    }
}
