//! Regenerates every table and figure of the paper's evaluation (§5).
//!
//! ```sh
//! cargo run --release -p tdb-bench --bin repro           # everything
//! cargo run --release -p tdb-bench --bin repro -- table1 # one experiment
//! TDB_GRID=256 cargo run --release -p tdb-bench --bin repro
//! ```
//!
//! Experiments: `fig2 fig3 fig4 table1 fig7a fig7b fig8 fig9 local
//! hitratio concurrent compression replication ablations`; an unknown name
//! exits 2 before anything is built. Absolute numbers differ from the
//! paper (simulated cluster, smaller grid); EXPERIMENTS.md records the
//! paper-vs-measured comparison. Every recorded row lands in one document,
//! `repro_results.json`. How *fast* the code is is not measured here: that
//! is the frozen benchmark's job (`perfbench/`, BENCHMARK.json).

use std::collections::BTreeMap;

use tdb_wire::Json;

use tdb_analysis::{fof_clusters_4d, SpaceTimePoint};
use tdb_bench::{harness, TestService};
use tdb_cluster::{ClusterConfig, CompressionConfig};
use tdb_core::baseline::local_evaluation_estimate;
use tdb_core::{DerivedField, FdOrder, QueryMode, ThresholdQuery};
use tdb_obs::m;
use tdb_storage::{DeviceProfile, FaultPlan};
use tdb_zorder::{decompose_box, Box3};

type Experiment = (&'static str, fn(&mut Repro));

/// Every experiment, in the order a bare `repro` runs them.
const EXPERIMENTS: [Experiment; 14] = [
    ("fig2", Repro::fig2),
    ("fig3", Repro::fig3),
    ("fig4", Repro::fig4),
    ("table1", Repro::table1),
    ("fig7a", Repro::fig7a),
    ("fig7b", Repro::fig7b),
    ("fig8", Repro::fig8),
    ("fig9", Repro::fig9),
    ("local", Repro::local),
    ("hitratio", Repro::hitratio),
    ("concurrent", Repro::concurrent),
    ("compression", Repro::compression),
    ("replication", Repro::replication),
    ("ablations", Repro::ablations),
];

/// The paper's threshold selectivities on the MHD dataset: fractions of
/// all grid points above thresholds 80 / 60 / 44 (≈4 300, 87 000 and
/// 909 000 points of 1024³).
const FRACTIONS: [(f64, &str, f64); 3] = [
    (3.95e-6, "high (80.0)", 80.0),
    (8.06e-5, "medium (60.0)", 60.0),
    (8.47e-4, "low (44.0)", 44.0),
];

struct Repro {
    service: TestService,
    grid_n: usize,
    timesteps: u32,
    /// threshold per selectivity tier, per (field, derived)
    thresholds: BTreeMap<(String, String), [f64; 3]>,
    /// `results` of repro_results.json: rows tagged with their experiment
    results: Vec<Json>,
    /// its `concurrency`: shared-vs-independent decode deltas
    concurrency: Vec<Json>,
    /// its `compression`: per-codec byte/accuracy sweep rows
    compression: Vec<Json>,
    /// its `replication`: availability/tail-latency vs replication factor
    replication: Vec<Json>,
}

fn main() {
    // Figure 6 plots Table 1
    let args: Vec<String> = std::env::args()
        .skip(1)
        .map(|a| if a == "fig6" { "table1".into() } else { a })
        .collect();
    let lookup = |name: &String| EXPERIMENTS.iter().find(|(known, _)| known == name);
    if let Some(unknown) = args.iter().find(|a| lookup(a).is_none()) {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "unknown experiment '{unknown}'; valid: {} (fig6 = table1)",
            names.join(" ")
        );
        std::process::exit(2);
    }
    let wanted: Vec<_> = if args.is_empty() {
        EXPERIMENTS.iter().collect()
    } else {
        args.iter().filter_map(lookup).collect()
    };
    let grid_n: usize = std::env::var("TDB_GRID")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(128);
    let timesteps: u32 = if wanted.iter().any(|(name, _)| *name == "fig3") {
        8
    } else {
        2
    };

    println!("== ThresholDB paper reproduction ==");
    println!("grid {grid_n}³ MHD-like dataset, {timesteps} time-steps, 4 nodes x 4 arrays\n");
    let t0 = std::time::Instant::now();
    let service = build_service(grid_n, timesteps, 4, "repro_main", |_| {});
    println!(
        "archive built and bulk-loaded in {:.1}s\n",
        t0.elapsed().as_secs_f64()
    );

    let mut repro = Repro {
        service,
        grid_n,
        timesteps,
        thresholds: BTreeMap::new(),
        results: Vec::new(),
        concurrency: Vec::new(),
        compression: Vec::new(),
        replication: Vec::new(),
    };
    for (name, run) in wanted {
        let t = std::time::Instant::now();
        run(&mut repro);
        repro.results.push(Json::obj([
            ("experiment", Json::Str(name.to_string())),
            ("harness_wall_s", Json::Num(t.elapsed().as_secs_f64())),
        ]));
    }
    // every recorded row, plus the process-wide observability counters
    // accumulated across the whole run: buffer-pool traffic, cache
    // hits/misses, per-device I/O, query outcomes
    let snap = repro.service.metrics_snapshot();
    let doc = Json::obj([
        ("grid", Json::Num(grid_n as f64)),
        ("timesteps", Json::Num(f64::from(timesteps))),
        ("results", Json::Arr(repro.results)),
        ("concurrency", Json::Arr(repro.concurrency)),
        ("compression", Json::Arr(repro.compression)),
        ("replication", Json::Arr(repro.replication)),
        (
            "counters",
            Json::Obj(
                snap.counters
                    .into_iter()
                    .map(|(k, v)| (k, Json::Num(v as f64)))
                    .collect(),
            ),
        ),
        (
            "gauges",
            Json::Obj(
                snap.gauges
                    .into_iter()
                    .map(|(k, v)| (k, Json::Num(v as f64)))
                    .collect(),
            ),
        ),
    ]);
    let path = "repro_results.json";
    if let Err(e) = std::fs::write(path, doc.encode()) {
        eprintln!("could not write {path}: {e}");
        std::process::exit(1);
    }
    println!("(machine-readable results written to {path})");
}

/// The archive every experiment runs on: the harness's MHD service at
/// the paper's node shape, in a scratch directory that goes with it.
fn build_service(
    grid_n: usize,
    timesteps: u32,
    nodes: usize,
    tag: &str,
    tweak: impl FnOnce(&mut ClusterConfig),
) -> TestService {
    harness(tag, grid_n, timesteps)
        .nodes(nodes)
        .seed(0x7db2015)
        .cluster(|c| {
            c.procs_per_node = 4;
            c.arrays_per_node = 4;
            // stand-in for the 2.66 GHz 2008-era nodes (EXPERIMENTS.md)
            c.compute_scale = 6.0;
            tweak(c);
        })
        .build()
}

impl Repro {
    /// Thresholds matching the paper's three selectivity tiers.
    fn tiers(&mut self, raw: &str, derived: DerivedField) -> [f64; 3] {
        let key = (raw.to_string(), derived.name());
        if let Some(t) = self.thresholds.get(&key) {
            return *t;
        }
        let t = std::array::from_fn(|i| {
            self.service
                .threshold_for_fraction(raw, derived, 0, FRACTIONS[i].0)
                .expect("threshold")
        });
        self.thresholds.insert(key, t);
        t
    }

    fn cold_query(&self, q: &ThresholdQuery) -> tdb_core::ThresholdResult {
        self.service.cluster().clear_buffer_pools();
        self.service.get_threshold(q).expect("query")
    }

    // --- Figure 2: PDF of the vorticity norm -----------------------------
    fn fig2(&mut self) {
        println!("---- Figure 2: PDF of the vorticity norm (one time-step) ----");
        let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 0.0);
        let pdf = self.service.get_pdf(&q, 0.0, 10.0, 9).expect("pdf");
        println!("{:>10} | {:>12} | log10", "bin", "points");
        for i in 0..=pdf.histogram.nbins() {
            let (lo, hi) = pdf.histogram.bin_range(i);
            let label = if hi.is_infinite() {
                format!("[{lo:.0},..)")
            } else {
                format!("[{lo:.0},{hi:.0})")
            };
            let c = pdf.histogram.count(i);
            let log = if c > 0 {
                (c as f64).log10()
            } else {
                f64::NEG_INFINITY
            };
            println!("{label:>10} | {c:>12} | {log:5.2}");
        }
        println!("paper shape: monotone log-decay from ~1e9 to ~1e1 over bins [0,10)..[90,..)\n");
    }

    // --- Figure 3: 4-D FoF cluster of the most intense event --------------
    fn fig3(&mut self) {
        println!("---- Figure 3: 4-D cluster containing the most intense event ----");
        let [_, _, low] = self.tiers("velocity", DerivedField::CurlNorm);
        let mut spacetime: Vec<SpaceTimePoint> = Vec::new();
        for t in 0..self.timesteps {
            let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, t, low);
            let r = self.service.get_threshold(&q).expect("query");
            spacetime.extend(
                r.points
                    .iter()
                    .map(|&point| SpaceTimePoint { timestep: t, point }),
            );
        }
        let dims = {
            let (nx, ny, nz) = self.service.dataset().grid.dims();
            (nx as u32, ny as u32, nz as u32)
        };
        let clusters = fof_clusters_4d(&spacetime, dims, 2, 1);
        println!(
            "{} space-time points clustered into {} 4-D clusters",
            spacetime.len(),
            clusters.len()
        );
        let c = &clusters[0];
        println!(
            "most intense event: |ω| = {:.1} at {:?}, t = {} — cluster of {} points spanning {} steps",
            c.peak_value, c.peak_location, c.peak_timestep, c.size, c.timespan
        );
        let per_step: Vec<usize> = (0..self.timesteps)
            .map(|t| {
                c.members
                    .iter()
                    .filter(|&&m| spacetime[m].timestep == t)
                    .count()
            })
            .collect();
        println!("members per time-step: {per_step:?}");
        println!("paper shape: the strongest cluster develops over several steps and interacts with multiple worms\n");
    }

    // --- Figure 4: points above 7x RMS ------------------------------------
    fn fig4(&mut self) {
        println!("---- Figure 4: points above multiples of the vorticity RMS ----");
        let stats = self
            .service
            .derived_stats("velocity", DerivedField::CurlNorm, 0)
            .expect("stats");
        let total = self.service.dataset().grid.num_points() as f64;
        println!(
            "vorticity rms = {:.2}, max = {:.2} ({:.1}x rms)",
            stats.rms,
            stats.max,
            stats.max / stats.rms
        );
        for k in [7.0, 8.0] {
            let q = ThresholdQuery::whole_timestep(
                "velocity",
                DerivedField::CurlNorm,
                0,
                k * stats.rms,
            );
            let r = self.service.get_threshold(&q).expect("query");
            println!(
                "|ω| >= {k}x rms: {} points ({:.5}% of grid)",
                r.points.len(),
                100.0 * r.points.len() as f64 / total
            );
        }
        println!(
            "paper: 2.4e5 points above 7x rms, 2.6e5 above 8x rms (0.022% / 0.024% of 1024³)\n"
        );
    }

    // --- Table 1 / Figure 6: cache effectiveness ---------------------------
    fn table1(&mut self) {
        println!("---- Table 1 / Figure 6: effectiveness of caching ----");
        let tiers = self.tiers("velocity", DerivedField::CurlNorm);
        println!(
            "{:>14} | {:>9} | {:>12} | {:>12} | {:>12}",
            "tier", "points", "no cache (s)", "miss (s)", "hit (s)"
        );
        for (i, (frac, label, _)) in FRACTIONS.iter().enumerate() {
            let k = tiers[i];
            let mk = |use_cache: bool| {
                let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, k);
                if use_cache {
                    q
                } else {
                    q.without_cache()
                }
            };
            // no cache
            let no_cache = avg(3, || self.cold_query(&mk(false)).breakdown.total_s());
            // cache miss: drop the entry before each run (paper protocol)
            let miss = avg(3, || {
                self.service.cluster().invalidate_cache_entry(
                    "velocity",
                    DerivedField::CurlNorm,
                    0,
                );
                self.cold_query(&mk(true)).breakdown.total_s()
            });
            // cache hit: warm once, then measure
            let warm = self.service.get_threshold(&mk(true)).expect("warm");
            let npoints = warm.points.len();
            let hit = avg(3, || {
                self.service
                    .get_threshold(&mk(true))
                    .expect("hit")
                    .breakdown
                    .total_s()
            });
            println!("{label:>14} | {npoints:>9} | {no_cache:>12.3} | {miss:>12.3} | {hit:>12.3}");
            self.results.push(Json::obj([
                ("experiment", Json::Str("table1".into())),
                ("tier", Json::Str(label.to_string())),
                ("selectivity", Json::Num(*frac)),
                ("points", Json::Num(npoints as f64)),
                ("no_cache_s", Json::Num(no_cache)),
                ("miss_s", Json::Num(miss)),
                ("hit_s", Json::Num(hit)),
            ]));
        }
        println!("paper (1024³, 4 nodes): 97.1/100.2/0.5  113.7/115.9/1.2  111.6/115.0/9.1 s");
        println!("shape: miss ≈ no-cache (probe overhead <3%), hit >10x faster");
        println!(
            "note: at {0}³ the user round-trip floors the hit column; the server-side",
            self.grid_n
        );
        println!("      (cache+io+compute) hit/miss ratio and larger grids (TDB_GRID=256)");
        println!("      recover the paper's >10x end-to-end gap\n");
    }

    // --- Figure 7(a): scale-up ---------------------------------------------
    fn fig7a(&mut self) {
        println!("---- Figure 7(a): scale-up, 1-8 processes per node (4 nodes) ----");
        let tiers = self.tiers("velocity", DerivedField::CurlNorm);
        println!(
            "{:>14} | {:>7} | {:>7} | {:>7} | {:>7}",
            "tier", "p=1", "p=2", "p=4", "p=8"
        );
        for (i, (_, label, _)) in FRACTIONS.iter().enumerate() {
            let k = tiers[i];
            let mut times = Vec::new();
            for procs in [1usize, 2, 4, 8] {
                let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, k)
                    .without_cache()
                    .with_procs(procs);
                let b = self.cold_query(&q).breakdown;
                times.push(b.io_s + b.compute_s);
            }
            let s: Vec<String> = times
                .iter()
                .map(|t| format!("{:.2}x", times[0] / t))
                .collect();
            println!(
                "{label:>14} | {:>7} | {:>7} | {:>7} | {:>7}",
                s[0], s[1], s[2], s[3]
            );
        }
        println!("paper: ≈2x at p=2, ≈2.6x at p=4, little further gain at p=8\n");
    }

    // --- Figure 7(b): scale-out --------------------------------------------
    fn fig7b(&mut self) {
        println!("---- Figure 7(b): scale-out, 1-8 nodes (1 process per node) ----");
        let tiers = self.tiers("velocity", DerivedField::CurlNorm);
        // smaller grid per-cluster build cost: reuse main grid but build
        // separate clusters with 1, 2, 4, 8 nodes
        let mut services = Vec::new();
        for nodes in [1usize, 2, 4, 8] {
            services.push((
                nodes,
                build_service(self.grid_n, 1, nodes, &format!("repro_so{nodes}"), |_| {}),
            ));
        }
        println!(
            "{:>14} | {:>7} | {:>7} | {:>7} | {:>7}",
            "tier", "n=1", "n=2", "n=4", "n=8"
        );
        for (i, (_, label, _)) in FRACTIONS.iter().enumerate() {
            let k = tiers[i];
            let mut times = Vec::new();
            for (_, svc) in &services {
                let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, k)
                    .without_cache()
                    .with_procs(1);
                svc.cluster().clear_buffer_pools();
                let b = svc.get_threshold(&q).expect("query").breakdown;
                times.push(b.io_s + b.compute_s);
            }
            let s: Vec<String> = times
                .iter()
                .map(|t| format!("{:.2}x", times[0] / t))
                .collect();
            println!(
                "{label:>14} | {:>7} | {:>7} | {:>7} | {:>7}",
                s[0], s[1], s[2], s[3]
            );
        }
        println!("paper: nearly perfect linear speedup\n");
    }

    // --- Figure 8: total vs I/O-only ----------------------------------------
    fn fig8(&mut self) {
        println!("---- Figure 8: total running time vs I/O-only (medium threshold) ----");
        let tiers = self.tiers("velocity", DerivedField::CurlNorm);
        let k = tiers[1];
        println!(
            "{:>6} | {:>10} | {:>10} | {:>6}",
            "procs", "total (s)", "io-only (s)", "io %"
        );
        for procs in [1usize, 2, 4, 8] {
            let full = {
                let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, k)
                    .without_cache()
                    .with_procs(procs);
                let b = self.cold_query(&q).breakdown;
                b.io_s + b.compute_s
            };
            let io_only = {
                let q = ThresholdQuery {
                    mode: QueryMode::IoOnly,
                    ..ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, k)
                        .without_cache()
                        .with_procs(procs)
                };
                let b = self.cold_query(&q).breakdown;
                b.io_s
            };
            println!(
                "{procs:>6} | {full:>10.3} | {io_only:>10.3} | {:>5.0}%",
                100.0 * io_only / full
            );
            self.results.push(Json::obj([
                ("experiment", Json::Str("fig8".into())),
                ("procs", Json::Num(procs as f64)),
                ("total_s", Json::Num(full)),
                ("io_only_s", Json::Num(io_only)),
            ]));
        }
        println!("paper: I/O ≈ half of total at p=1; total at p=4-8 ≈ I/O-only at p=1\n");
    }

    // --- Figure 9: per-field breakdowns --------------------------------------
    fn fig9(&mut self) {
        println!("---- Figure 9: execution-time breakdown by field and threshold ----");
        let fields: [(&str, DerivedField, &str); 3] = [
            ("velocity", DerivedField::CurlNorm, "vorticity"),
            ("velocity", DerivedField::QCriterion, "Q-criterion"),
            ("magnetic", DerivedField::Norm, "magnetic (raw)"),
        ];
        for (raw, derived, label) in fields {
            let tiers = self.tiers(raw, derived);
            println!("\n  [{label}] cold (cache miss) runs:");
            println!(
                "  {:>14} | {:>8} | {:>8} | {:>8} | {:>8} | {:>8} | {:>8}",
                "tier", "points", "cache", "io", "compute", "med-db", "med-user"
            );
            for (i, (_, tier_label, _)) in FRACTIONS.iter().enumerate() {
                let q = ThresholdQuery::whole_timestep(raw, derived, 0, tiers[i]);
                self.service
                    .cluster()
                    .invalidate_cache_entry(raw, derived, 0);
                let r = self.cold_query(&q);
                let b = r.breakdown;
                println!(
                    "  {tier_label:>14} | {:>8} | {:>8.4} | {:>8.3} | {:>8.3} | {:>8.4} | {:>8.4}",
                    r.points.len(),
                    b.cache_lookup_s,
                    b.io_s,
                    b.compute_s,
                    b.mediator_db_s,
                    b.mediator_user_s
                );
            }
            println!("  [{label}] warm (cache hit) runs:");
            for (i, (_, tier_label, _)) in FRACTIONS.iter().enumerate() {
                let q = ThresholdQuery::whole_timestep(raw, derived, 0, tiers[i]);
                let r = self.service.get_threshold(&q).expect("query");
                let b = r.breakdown;
                println!(
                    "  {tier_label:>14} | {:>8} | {:>8.4} | {:>8.3} | {:>8.3} | {:>8.4} | {:>8.4}",
                    r.points.len(),
                    b.cache_lookup_s,
                    b.io_s,
                    b.compute_s,
                    b.mediator_db_s,
                    b.mediator_user_s
                );
            }
        }
        println!("\npaper shapes: Q-criterion compute > vorticity compute; raw field ≈ no compute and less I/O (no halo);");
        println!("hits dominated by result transfer; cache lookup negligible in all cases\n");
    }

    // --- §5.2: hit ratio of a structured exploration workload -----------------
    fn hitratio(&mut self) {
        println!("---- §5.2: cache-hit ratio of a structured workload ----");
        // "queries tend to examine the same regions in space and time":
        // a scientist sweeps thresholds downward-then-upward over a few
        // time-steps and fields, revisiting the interesting ones
        self.service.cluster().clear_caches();
        let tiers = self.tiers("velocity", DerivedField::CurlNorm);
        let steps: Vec<u32> = (0..self.timesteps.min(2)).collect();
        let mut issued = 0u32;
        for &t in &steps {
            for k in [tiers[2], tiers[1], tiers[0], tiers[1], tiers[2], tiers[0]] {
                let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, t, k);
                self.service.get_threshold(&q).expect("query");
                issued += 1;
            }
            // revisit the most interesting step with the PDF first
            let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, t, 0.0);
            self.service.get_pdf(&q, 0.0, 10.0, 9).expect("pdf");
            self.service.get_pdf(&q, 0.0, 10.0, 9).expect("pdf");
            issued += 2;
        }
        let stats = self.service.cluster().cache_stats();
        let ratio = stats.hit_ratio().unwrap_or(0.0);
        println!(
            "{issued} queries issued → {} hits / {} misses per node-subquery (ratio {:.0}%)",
            stats.hits,
            stats.misses,
            ratio * 100.0
        );
        println!("paper: \"fairly high cache-hit ratios as the workload is very structured\"\n");
        self.results.push(Json::obj([
            ("experiment", Json::Str("hitratio".into())),
            ("queries", Json::Num(f64::from(issued))),
            ("hits", Json::Num(stats.hits as f64)),
            ("misses", Json::Num(stats.misses as f64)),
            ("ratio", Json::Num(ratio)),
        ]));
    }

    /// Shared-scan amplification: N clients issuing the same cold query,
    /// evaluated independently (one scan each) vs as one coalesced batch
    /// (one shared scan). Reports the atoms-decoded delta.
    fn concurrent(&mut self) {
        println!("---- concurrent clients: shared scan vs independent scans ----");
        let tiers = self.tiers("velocity", DerivedField::CurlNorm);
        let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, tiers[1])
            .without_cache();
        let atoms = || m::NODE_ATOMS_SCANNED.get();
        for clients in [1usize, 4, 16] {
            self.service.cluster().clear_buffer_pools();
            let before = atoms();
            for _ in 0..clients {
                self.service.get_threshold(&q).expect("query");
            }
            let independent = atoms() - before;
            self.service.cluster().clear_buffer_pools();
            let before = atoms();
            let qs = vec![q.clone(); clients];
            for r in self.service.get_threshold_batch(&qs) {
                r.expect("batched query");
            }
            let shared = atoms() - before;
            let saved = independent as f64 / shared.max(1) as f64;
            println!(
                "{clients:>2} clients: atoms decoded independent={independent} shared={shared} ({saved:.1}x saved)"
            );
            self.concurrency.push(Json::obj([
                ("clients", Json::Num(clients as f64)),
                ("atoms_decoded_independent", Json::Num(independent as f64)),
                ("atoms_decoded_shared", Json::Num(shared as f64)),
                ("atoms_saved", Json::Num((independent - shared) as f64)),
                ("amplification", Json::Num(saved)),
            ]));
        }
        println!("(one decode serves every concurrently admitted query over the span)\n");
    }

    /// Byte/accuracy sweep of the compressed atom tier: the same dataset
    /// is bulk-loaded under each codec mode, then a cold whole-timestep
    /// threshold scan measures how many modelled device bytes the arrays
    /// actually move, and the returned points are compared against the
    /// uncompressed answer.
    fn compression(&mut self) {
        println!("---- compression: compressed atom tier, byte / accuracy sweep ----");
        let n = self.grid_n.min(64);
        // lossy bounds are absolute; the synthetic velocity field has an
        // RMS of ~1.4, so the sweep spans ~0.07% to ~3.5% of RMS
        let modes: [(&str, CompressionConfig); 5] = [
            ("off", CompressionConfig::default()),
            ("lossless", CompressionConfig::lossless()),
            ("lossy-1e-3", CompressionConfig::lossy(2, 1e-3)),
            ("lossy-1e-2", CompressionConfig::lossy(2, 1e-2)),
            ("lossy-5e-2", CompressionConfig::lossy(2, 5e-2)),
        ];
        let array_bytes = m::IO_BYTES.with("hdd-raid5");
        let mut thresh: Option<f64> = None;
        let mut baseline: Option<std::collections::BTreeMap<(u32, u32, u32), f32>> = None;
        let mut off_scan_bytes = 0u64;
        println!(
            "{:>12} | {:>9} | {:>14} | {:>8} | {:>7} | {:>12}",
            "mode", "stored", "cold scan (B)", "vs off", "points", "max |Δvalue|"
        );
        for (label, codec) in modes {
            let logical0 = m::COMPRESS_BYTES_LOGICAL.get();
            let stored0 = m::COMPRESS_BYTES_STORED.get();
            let svc = build_service(n, 1, 2, &format!("repro_comp_{label}"), |c| {
                c.compression = codec;
            });
            let logical = m::COMPRESS_BYTES_LOGICAL.get() - logical0;
            let stored = m::COMPRESS_BYTES_STORED.get() - stored0;
            let k = *thresh.get_or_insert_with(|| {
                svc.threshold_for_fraction("velocity", DerivedField::CurlNorm, 0, FRACTIONS[2].0)
                    .expect("threshold")
            });
            let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, k)
                .without_cache();
            svc.cluster().clear_buffer_pools();
            let bytes0 = array_bytes.get();
            let r = svc.get_threshold(&q).expect("query");
            let scan_bytes = array_bytes.get() - bytes0;
            let stored_ratio = if stored > 0 {
                logical as f64 / stored as f64
            } else {
                1.0
            };
            let vs_off = if off_scan_bytes > 0 {
                off_scan_bytes as f64 / scan_bytes.max(1) as f64
            } else {
                off_scan_bytes = scan_bytes;
                1.0
            };
            let max_dv = match &baseline {
                None => {
                    baseline = Some(r.points.iter().map(|p| (p.coords(), p.value)).collect());
                    0.0
                }
                Some(base) => r
                    .points
                    .iter()
                    .filter_map(|p| {
                        base.get(&p.coords())
                            .map(|&v| (f64::from(p.value) - f64::from(v)).abs())
                    })
                    .fold(0.0, f64::max),
            };
            println!(
                "{label:>12} | {stored_ratio:>8.2}x | {scan_bytes:>14} | {vs_off:>7.2}x | {:>7} | {max_dv:>12.2e}",
                r.points.len()
            );
            let row = Json::obj([
                ("mode", Json::Str(label.to_string())),
                ("bytes_logical", Json::Num(logical as f64)),
                ("bytes_stored", Json::Num(stored as f64)),
                ("stored_ratio", Json::Num(stored_ratio)),
                ("cold_scan_array_bytes", Json::Num(scan_bytes as f64)),
                ("array_bytes_vs_off", Json::Num(vs_off)),
                ("points", Json::Num(r.points.len() as f64)),
                ("max_value_delta", Json::Num(max_dv)),
                (
                    "max_error_micro",
                    Json::Num(m::COMPRESS_MAX_ERROR_MICRO.get() as f64),
                ),
            ]);
            self.compression.push(row);
        }
        println!(
            "(a cold threshold scan over the lossy tier should move ≥4x fewer array bytes\n\
             \x20than the uncompressed tier; stored samples reconstruct within the\n\
             \x20configured bound, and derived values — CurlNorm differentiates the\n\
             \x20samples — inherit a finite-difference-amplified but still proportional\n\
             \x20error, the max |Δvalue| column — see DESIGN.md §10)\n"
        );
    }

    /// Availability and modelled tail latency of cold threshold scans
    /// against a 4-node cluster with one node killed, as the replication
    /// factor grows. At k=1 every whole-box query loses the dead node's
    /// boxes; at k≥2 read failover completes every answer, paying a
    /// failover round on the latency tail.
    fn replication(&mut self) {
        println!("---- replication: availability / tail latency vs k, one node down ----");
        let n = self.grid_n.min(64);
        let mut thresh: Option<f64> = None;
        println!(
            "{:>3} | {:>12} | {:>9} | {:>9} | {:>9}",
            "k", "availability", "p50 (s)", "p95 (s)", "max (s)"
        );
        for k in [1usize, 2, 3] {
            let plan = FaultPlan::new(0x7411).shared();
            let faults = std::sync::Arc::clone(&plan);
            let svc = build_service(n, 1, 4, &format!("repro_repl_{k}"), |c| {
                c.replication = tdb_cluster::ReplicationConfig::k(k);
                c.faults = Some(faults);
            });
            let thr = *thresh.get_or_insert_with(|| {
                svc.threshold_for_fraction("velocity", DerivedField::CurlNorm, 0, FRACTIONS[1].0)
                    .expect("threshold")
            });
            plan.set_node_down(2, true);
            let total = 12usize;
            let mut complete = 0usize;
            let mut lat = Vec::with_capacity(total);
            for _ in 0..total {
                let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, thr)
                    .without_cache();
                svc.cluster().clear_buffer_pools();
                let r = svc.get_threshold(&q).expect("query under a dead node");
                if r.degraded.is_none() {
                    complete += 1;
                }
                lat.push(r.breakdown.total_s());
            }
            lat.sort_by(f64::total_cmp);
            let availability = complete as f64 / total as f64;
            let p50 = lat[total / 2];
            let p95 = lat[(total * 95) / 100];
            let max = lat[total - 1];
            println!(
                "{k:>3} | {:>11.0}% | {p50:>9.3} | {p95:>9.3} | {max:>9.3}",
                availability * 100.0
            );
            let row = Json::obj([
                ("k", Json::Num(k as f64)),
                ("availability", Json::Num(availability)),
                ("queries", Json::Num(total as f64)),
                ("p50_s", Json::Num(p50)),
                ("p95_s", Json::Num(p95)),
                ("max_s", Json::Num(max)),
            ]);
            self.replication.push(row);
        }
        println!(
            "(k=1 answers lose the dead node's boxes — availability 0% for whole-box\n\
             \x20queries; k>=2 completes everything via read failover, and the extra\n\
             \x20failover round shows up in the latency tail)\n"
        );
    }

    /// The design choices DESIGN.md calls out, one at a time, at 64³
    /// whatever `TDB_GRID` says (chunks of 4 atoms need a 64³ grid to give
    /// each of the 4 nodes one): finite-difference order (halo width and
    /// stencil cost), chunk granularity (halo-to-volume ratio), exact
    /// z-range decomposition against one covering range, and top-k by full
    /// scan against the PDF-guided plan. Each cold row is the fastest of
    /// seven runs — its real `wall_s` beside its modelled breakdown — with
    /// the configurations interleaved round by round, so a burst of host
    /// slowness cannot cover every run of one of them.
    fn ablations(&mut self) {
        const N: usize = 64;
        println!("---- ablations: design choices, one at a time ({N}³, 4 nodes) ----");
        let configs = [
            (FdOrder::O2, 2u32),
            (FdOrder::O4, 2),
            (FdOrder::O6, 2),
            (FdOrder::O8, 2),
            (FdOrder::O4, 1),
            (FdOrder::O4, 4),
        ];
        let services = configs.map(|(fd_order, chunk_atoms)| {
            let tag = format!("repro_abl_o{}_c{chunk_atoms}", fd_order.order());
            build_service(N, 1, 4, &tag, |c| {
                c.fd_order = fd_order;
                c.chunk_atoms = chunk_atoms;
            })
        });
        let baseline = &services[1];
        let threshold = baseline
            .threshold_for_fraction("velocity", DerivedField::CurlNorm, 0, FRACTIONS[1].0)
            .expect("threshold");
        let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, threshold)
            .without_cache();
        let mut best: [Option<tdb_core::ThresholdResult>; 6] = Default::default();
        for _ in 0..7 {
            for (svc, best) in services.iter().zip(&mut best) {
                svc.cluster().clear_buffer_pools();
                let r = svc.get_threshold(&q).expect("query");
                if best.as_ref().is_none_or(|b| r.wall_s < b.wall_s) {
                    *best = Some(r);
                }
            }
        }
        let mut table = |ablation: &'static str, rows: &[(usize, usize)]| {
            println!(
                "{ablation:>11} | {:>8} | {:>8} | {:>11} | {:>12}",
                "wall (s)", "io (s)", "compute (s)", "modelled (s)"
            );
            for &(value, config) in rows {
                let r = best[config].as_ref().expect("seven rounds ran");
                let b = r.breakdown;
                println!(
                    "{value:>11} | {:>8.4} | {:>8.3} | {:>11.3} | {:>12.3}",
                    r.wall_s,
                    b.io_s,
                    b.compute_s,
                    b.total_s()
                );
                self.results.push(Json::obj([
                    ("experiment", Json::Str("ablations".into())),
                    ("ablation", Json::Str(ablation.into())),
                    ("value", Json::Num(value as f64)),
                    ("wall_s", Json::Num(r.wall_s)),
                    ("io_s", Json::Num(b.io_s)),
                    ("compute_s", Json::Num(b.compute_s)),
                    ("modelled_s", Json::Num(b.total_s())),
                ]));
            }
        };
        // (swept value, index into `configs`)
        table("fd_order", &[(2, 0), (4, 1), (6, 2), (8, 3)]);
        println!("(wider stencils: cold cost rises with the order)\n");
        table("chunk_atoms", &[(1, 4), (2, 1), (4, 5)]);
        println!("(8³-point chunks re-read their halo many times over; ≥ 16³ amortise it)\n");
        let n = N as u32;
        for (label, b3) in [
            ("thin slab", Box3::new([0, 0, 12], [n - 1, n - 1, 19])),
            ("centred cube", Box3::new([n / 4; 3], [3 * n / 4 - 1; 3])),
            ("column", Box3::new([24, 24, 0], [39, 39, n - 1])),
        ] {
            let ranges = decompose_box(&b3.atom_box(), (n / 8).trailing_zeros());
            let exact: u64 = ranges.iter().map(|r| r.len()).sum();
            let (first, last) = (&ranges[0], &ranges[ranges.len() - 1]);
            let cover = last.end - first.start + 1;
            let saved = cover as f64 / exact as f64;
            println!(
                "z-ranges [{label}]: {} ranges, {exact} atoms exact vs {cover} in one covering range ({saved:.1}x saved)",
                ranges.len()
            );
            self.results.push(Json::obj([
                ("experiment", Json::Str("ablations".into())),
                ("ablation", Json::Str("zrange_decomposition".into())),
                ("box", Json::Str(label.into())),
                ("ranges", Json::Num(ranges.len() as f64)),
                ("atoms_exact", Json::Num(exact as f64)),
                ("atoms_covering", Json::Num(cover as f64)),
                ("saved", Json::Num(saved)),
            ]));
        }
        println!();

        // pools and caches warm for both plans: the strategies differ in
        // how much they scan, not in what they read
        let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 0.0);
        let wall = |f: &dyn Fn()| {
            f();
            (0..5)
                .map(|_| {
                    let t = std::time::Instant::now();
                    f();
                    t.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let full = wall(&|| drop(baseline.get_topk(&q, 50).expect("top-k")));
        let guided = wall(&|| drop(baseline.get_topk_guided(&q, 50).expect("guided top-k")));
        println!(
            "top-50: full scan {full:.4}s vs PDF-guided {guided:.4}s wall ({:.0}x)\n",
            full / guided
        );
        self.results.push(Json::obj([
            ("experiment", Json::Str("ablations".into())),
            ("ablation", Json::Str("topk_strategy".into())),
            ("full_scan_wall_s", Json::Num(full)),
            ("pdf_guided_wall_s", Json::Num(guided)),
        ]));
    }

    // --- §5.3: local evaluation baseline --------------------------------------
    fn local(&mut self) {
        println!("---- §5.3: integrated evaluation vs local (client-side) evaluation ----");
        let tiers = self.tiers("velocity", DerivedField::CurlNorm);
        let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, tiers[1])
            .without_cache();
        let integrated = self.cold_query(&q);
        let full = self.service.full_box();
        let report = local_evaluation_estimate(
            self.service.cluster(),
            "velocity",
            DerivedField::CurlNorm,
            0,
            &full,
            64,
            &DeviceProfile::user_wan(),
        )
        .expect("baseline estimate");
        let integrated_total = integrated.breakdown.total_s();
        println!("integrated (server-side): {integrated_total:.2}s modelled");
        println!(
            "local evaluation: {} subqueries, {:.1} GB download ({} gradient components, XML-wrapped)",
            report.num_subqueries,
            report.download_bytes as f64 / 1e9,
            report.ncomp_shipped
        );
        println!(
            "local evaluation total: {:.1}s modelled = {:.0}x slower (paper: 20+ hours vs ~2 minutes, ≈600x)",
            report.total_s,
            report.total_s / integrated_total
        );
        println!();
    }
}

fn avg(n: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..n).map(|_| f()).sum::<f64>() / n as f64
}
