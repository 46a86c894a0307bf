//! The paper's science use case (§3, Fig. 3): find the most intense
//! vorticity events across time with threshold queries and cluster them
//! with friends-of-friends in 4-D to follow the strongest "worm" as it
//! develops.
//!
//! ```sh
//! cargo run --release -p tdb-bench --example intense_events
//! ```

use tdb_analysis::{fof_clusters_4d, SpaceTimePoint};
use tdb_core::{DerivedField, ServiceConfig, ThresholdQuery, TurbulenceService};
use tdb_turbgen::SyntheticDataset;

fn main() {
    let timesteps = 8;
    let dir = tdb_bench::ScratchDir::new("intense_events");
    let mut config = ServiceConfig::mhd(dir.path(), 64, timesteps, 2025);
    config.dataset = SyntheticDataset::isotropic(64, timesteps, 2025);
    println!("building a 64³ isotropic archive with {timesteps} time-steps ...");
    let service = TurbulenceService::build(config).expect("build");
    let dims = {
        let (nx, ny, nz) = service.dataset().grid.dims();
        (nx as u32, ny as u32, nz as u32)
    };

    // threshold every time-step at 4.5x the RMS of step 0
    let stats = service
        .derived_stats("velocity", DerivedField::CurlNorm, 0)
        .expect("stats");
    let threshold = 4.5 * stats.rms;
    println!("thresholding all {timesteps} steps at |ω| >= {threshold:.1} (4.5σ)\n");

    let mut spacetime: Vec<SpaceTimePoint> = Vec::new();
    for t in 0..timesteps {
        let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, t, threshold);
        let r = service.get_threshold(&q).expect("query");
        println!(
            "  t = {t}: {:5} points above threshold (modelled {:.2}s)",
            r.points.len(),
            r.breakdown.total_s()
        );
        spacetime.extend(
            r.points
                .iter()
                .map(|&point| SpaceTimePoint { timestep: t, point }),
        );
    }

    // 4-D friends-of-friends across the whole archive (paper Fig. 3)
    let clusters = fof_clusters_4d(&spacetime, dims, 2, 1);
    println!(
        "\n4-D friends-of-friends: {} space-time clusters",
        clusters.len()
    );
    let strongest = &clusters[0];
    println!(
        "most intense event: |ω| = {:.1} at {:?}, t = {}",
        strongest.peak_value, strongest.peak_location, strongest.peak_timestep
    );
    println!(
        "its cluster spans {} time-steps with {} member points",
        strongest.timespan, strongest.size
    );
    let per_step: Vec<usize> = (0..timesteps)
        .map(|t| {
            strongest
                .members
                .iter()
                .filter(|&&m| spacetime[m].timestep == t)
                .count()
        })
        .collect();
    println!("members per step (development of the worm): {per_step:?}");
}
