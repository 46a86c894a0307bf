//! Quickstart: build a small synthetic MHD archive, run a threshold query
//! of the vorticity (curl of velocity), and watch the semantic cache kick
//! in on the second query.
//!
//! ```sh
//! cargo run --release -p tdb-bench --example quickstart
//! ```

use tdb_core::{DerivedField, ServiceConfig, ThresholdQuery, TurbulenceService};

fn main() {
    // a scratch directory, removed when `dir` goes out of scope; a real
    // deployment names a directory it keeps
    let dir = tdb_bench::ScratchDir::new("quickstart");
    println!(
        "building a 64³ MHD archive with 4 time-steps under {:?} ...",
        dir.path()
    );
    let service =
        TurbulenceService::build(ServiceConfig::small_mhd(dir.path())).expect("build service");

    // pick a threshold from the field statistics, like a scientist
    // consulting the PDF (paper Fig. 2) before querying
    let stats = service
        .derived_stats("velocity", DerivedField::CurlNorm, 0)
        .expect("stats");
    println!(
        "vorticity norm: rms = {:.2}, max = {:.2}",
        stats.rms, stats.max
    );
    let threshold = 4.0 * stats.rms;
    // the statistics were one scan of the archive: start the query cold
    service.cluster().clear_buffer_pools();

    let query = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, threshold);

    println!("\n-- cold query (evaluated from raw data, data-parallel) --");
    let cold = service.get_threshold(&query).expect("query");
    println!(
        "{} locations above {threshold:.1}; modelled {}",
        cold.points.len(),
        cold.breakdown
    );

    println!("\n-- same query again (answered from the semantic cache) --");
    let warm = service.get_threshold(&query).expect("query");
    println!(
        "{} locations; {} of {} nodes hit their cache; modelled {}",
        warm.points.len(),
        warm.cache_hits,
        warm.nodes,
        warm.breakdown
    );
    let speedup = cold.breakdown.total_s() / warm.breakdown.total_s();
    println!("\ncache speedup: {speedup:.1}x (paper reports >10x)");

    // show the hottest locations
    let mut top = warm.points.clone();
    top.sort_by(|a, b| b.value.total_cmp(&a.value));
    println!("\nmost intense locations:");
    for p in top.iter().take(5) {
        let (x, y, z) = p.coords();
        println!("  |ω| = {:8.2} at ({x:3}, {y:3}, {z:3})", p.value);
    }
}
