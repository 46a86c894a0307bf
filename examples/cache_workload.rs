//! A structured exploration workload against the semantic cache —
//! "currently we observe fairly high cache-hit ratios as the workload is
//! very structured and queries tend to examine the same regions in space
//! and time" (paper §5.2). Also demonstrates the §5.3 comparison against
//! a user evaluating thresholds locally.
//!
//! ```sh
//! cargo run --release -p tdb-bench --example cache_workload
//! ```

use tdb_core::baseline::local_evaluation_estimate;
use tdb_core::{DerivedField, ServiceConfig, ThresholdQuery, TurbulenceService};
use tdb_storage::DeviceProfile;

fn main() {
    let dir = tdb_bench::ScratchDir::new("cache_workload");
    let service = TurbulenceService::build(ServiceConfig::small_mhd(dir.path())).expect("build");
    let stats = service
        .derived_stats("velocity", DerivedField::CurlNorm, 0)
        .expect("stats");
    // the statistics were one scan of the archive: start the session cold
    service.cluster().clear_buffer_pools();

    // a scientist zooming in: whole step at a conservative threshold, then
    // repeatedly raising the threshold over the same step — every refined
    // query is served from the cache
    println!("structured exploration of time-step 0:");
    let mut total_cold = 0.0;
    let mut total_all = 0.0;
    for (i, sigma) in [3.0, 3.5, 4.0, 4.5, 5.0, 6.0].iter().enumerate() {
        let q = ThresholdQuery::whole_timestep(
            "velocity",
            DerivedField::CurlNorm,
            0,
            sigma * stats.rms,
        );
        let r = service.get_threshold(&q).expect("query");
        let t = r.breakdown.total_s();
        total_all += t;
        if i == 0 {
            total_cold = t;
        }
        println!(
            "  k = {:5.1} ({sigma}σ): {:>6} pts, {} hit/{} nodes, modelled {:7.3}s",
            sigma * stats.rms,
            r.points.len(),
            r.cache_hits,
            r.nodes,
            t
        );
    }
    let counters = service.cluster().cache_stats();
    println!(
        "cache counters: {} hits / {} misses (ratio {:.0}%), {} inserts",
        counters.hits,
        counters.misses,
        counters.hit_ratio().unwrap_or(0.0) * 100.0,
        counters.inserts
    );
    println!(
        "whole session cost {:.3}s modelled; re-running it cold would cost ≈ {:.3}s",
        total_all,
        total_cold * 6.0
    );

    // --- the §5.3 local-evaluation comparison ----------------------------
    println!("\nintegrated vs local evaluation (paper §5.3):");
    service.cluster().clear_caches();
    service.cluster().clear_buffer_pools();
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 4.0 * stats.rms)
        .without_cache();
    let integrated = service.get_threshold(&q).expect("query");
    let full = service.full_box();
    let report = local_evaluation_estimate(
        service.cluster(),
        "velocity",
        DerivedField::CurlNorm,
        0,
        &full,
        32,
        &DeviceProfile::user_wan(),
    )
    .expect("baseline estimate");
    println!(
        "  integrated (server-side): {:9.2}s modelled, {} points returned",
        integrated.breakdown.total_s(),
        integrated.points.len()
    );
    println!(
        "  local evaluation: download {} MB of XML-wrapped gradient in {} subqueries",
        report.download_bytes / 1_000_000,
        report.num_subqueries
    );
    println!(
        "  local evaluation total: {:9.2}s modelled ({:.0}x slower)",
        report.total_s,
        report.total_s / integrated.breakdown.total_s()
    );
}
