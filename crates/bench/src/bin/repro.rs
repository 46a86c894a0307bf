//! Regenerates every table and figure of the paper's evaluation (§5).
//!
//! ```sh
//! cargo run --release -p tdb-bench --bin repro           # everything
//! cargo run --release -p tdb-bench --bin repro -- table1 # one experiment
//! TDB_GRID=256 cargo run --release -p tdb-bench --bin repro
//! ```
//!
//! Experiments: `fig2 fig3 fig4 table1 fig7a fig7b fig8 fig9 local
//! hitratio concurrent compression replication ablations`; an unknown name,
//! or a `TDB_GRID` the cluster cannot hold, exits 2 before anything is
//! built. Absolute numbers differ from the paper (simulated cluster,
//! smaller grid); EXPERIMENTS.md records the paper-vs-measured comparison.
//! Each experiment is one [`Table`]: what is printed is what lands under
//! `tables.<experiment>` of `repro_results.json`, beside the run's
//! `counters` and `gauges`. How *fast* the code is is not measured here:
//! that is the frozen benchmark's job (`perfbench/`, BENCHMARK.json).

use std::collections::BTreeMap;
use std::num::NonZeroUsize;

use tdb_wire::Json;

use tdb_analysis::{fof_clusters_4d, SpaceTimePoint};
use tdb_bench::{harness, TestService, FRACTIONS};
use tdb_cluster::{ClusterConfig, CompressionConfig, NodeTimeModel};
use tdb_core::baseline::local_evaluation_estimate;
use tdb_core::{DerivedField, FdOrder, ServiceConfig, ThresholdQuery, TurbulenceService};
use tdb_field::at_or_above;
use tdb_obs::m;
use tdb_storage::{DeviceProfile, FaultPlan};
use tdb_zorder::{decompose_box, Box3};

type Experiment = (&'static str, fn(&mut Repro) -> Table);

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

/// The node counts of Fig. 7(b); the widest is the most any archive of
/// `TDB_GRID` points a side is spread over.
const SCALE_OUT: [usize; 4] = [1, 2, 4, 8];

/// One experiment's result: named columns, rows of cells and the shape the
/// paper reports, as a note.
struct Table {
    title: &'static str,
    columns: Vec<&'static str>,
    rows: Vec<Vec<Json>>,
    note: String,
}

/// A value a table cell holds.
trait Cell {
    fn cell(self) -> Json;
}

/// Numbers are JSON numbers, whatever their width.
macro_rules! numeric_cells {
    ($($t:ty),+) => {
        $(impl Cell for $t {
            fn cell(self) -> Json {
                Json::Num(self as f64)
            }
        })+
    };
}
numeric_cells!(f64, f32, u64, i64, usize, u32);

impl Cell for &str {
    fn cell(self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: Cell> Cell for Option<T> {
    fn cell(self) -> Json {
        self.map_or(Json::Null, Cell::cell)
    }
}

/// Appends one row, a cell per column, to a [`Table`].
macro_rules! row {
    ($table:expr, $($cell:expr),+ $(,)?) => {
        $table.push(vec![$(Cell::cell($cell)),+])
    };
}

impl Table {
    /// A table of `columns`, named in one whitespace-separated string.
    fn new(title: &'static str, columns: &'static str) -> Self {
        Self {
            title,
            columns: columns.split_whitespace().collect(),
            rows: Vec::new(),
            note: String::new(),
        }
    }

    fn push(&mut self, row: Vec<Json>) {
        assert_eq!(row.len(), self.columns.len(), "{}", self.title);
        self.rows.push(row);
    }

    fn note(self, note: impl Into<String>) -> Self {
        Self {
            note: note.into(),
            ..self
        }
    }
}

/// A cell as printed: a whole number in full, any other to four
/// significant digits, a missing value as `-`.
fn render(cell: &Json) -> String {
    match cell {
        Json::Str(s) => s.clone(),
        Json::Num(x) if x.fract() == 0.0 && x.abs() < 1e15 => format!("{x}"),
        Json::Num(x) if x.is_finite() => {
            let magnitude = x.abs().log10().floor();
            if (-3.0..6.0).contains(&magnitude) {
                format!("{x:.*}", (3.0 - magnitude).max(0.0) as usize)
            } else {
                format!("{x:.3e}")
            }
        }
        _ => "-".into(),
    }
}

struct Repro {
    service: TestService,
    grid_n: usize,
    timesteps: u32,
    /// threshold per selectivity tier, per (field, derived)
    thresholds: BTreeMap<(String, String), [f64; 3]>,
    /// `tables` of repro_results.json: every experiment run, by name
    tables: BTreeMap<String, Json>,
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
        refuse(format!(
            "unknown experiment '{unknown}'; valid: {} (fig6 = table1)",
            names.join(" ")
        ));
    }
    let wanted: Vec<_> = if args.is_empty() {
        EXPERIMENTS.iter().collect()
    } else {
        args.iter().filter_map(lookup).collect()
    };
    let grid_n = grid_n().unwrap_or_else(|rule| refuse(rule));
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
        tables: BTreeMap::new(),
    };
    for (name, run) in wanted {
        let t = std::time::Instant::now();
        let table = run(&mut repro);
        repro.record(name, table, t.elapsed().as_secs_f64());
    }
    // every table, plus the process-wide observability counters
    // accumulated across the whole run: buffer-pool traffic, cache
    // hits/misses, per-device I/O, query outcomes
    let snap = repro.service.metrics_snapshot();
    fn numbers(pairs: BTreeMap<String, impl Cell>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k, v.cell())).collect())
    }
    let doc = Json::obj([
        ("grid", Json::Num(grid_n as f64)),
        ("timesteps", Json::Num(f64::from(timesteps))),
        ("tables", Json::Obj(repro.tables)),
        ("counters", numbers(snap.counters)),
        ("gauges", numbers(snap.gauges)),
    ]);
    let path = "repro_results.json";
    if let Err(e) = std::fs::write(path, doc.encode()) {
        eprintln!("could not write {path}: {e}");
        std::process::exit(1);
    }
    println!("(machine-readable results written to {path})");
}

/// Exits 2 with `why` on one line, before anything is built.
fn refuse(why: String) -> ! {
    eprintln!("{why}");
    std::process::exit(2);
}

/// `TDB_GRID` (128 when unset), or the rule it breaks: an archive of that
/// size must hold the widest cluster of Fig. 7(b), and so every other.
fn grid_n() -> Result<usize, String> {
    let Ok(value) = std::env::var("TDB_GRID") else {
        return Ok(128);
    };
    let n = value
        .parse::<NonZeroUsize>()
        .map_err(|_| format!("TDB_GRID={value}: the grid size must be a positive integer"))?
        .get();
    let widest = ClusterConfig {
        num_nodes: SCALE_OUT[3],
        ..ServiceConfig::mhd("", n, 1, 0).cluster
    };
    let rule = widest.validate((n, n, n));
    rule.map(|()| n)
        .map_err(|rule| format!("TDB_GRID={value}: {rule}"))
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

/// What `run` returns and the atoms the nodes scanned meanwhile.
fn scanned<T>(run: impl FnOnce() -> T) -> (T, u64) {
    let before = m::NODE_ATOMS_SCANNED.get();
    let out = run();
    (out, m::NODE_ATOMS_SCANNED.get() - before)
}

impl Repro {
    /// Prints `table` aligned under its title, then its note, and keeps
    /// the same table, with the experiment's wall time, as
    /// `tables.<name>`.
    fn record(&mut self, name: &str, table: Table, wall_s: f64) {
        println!("---- {name}: {} ----", table.title);
        let cells: Vec<Vec<String>> = table
            .rows
            .iter()
            .map(|row| row.iter().map(render).collect())
            .collect();
        let widths: Vec<usize> = (0..table.columns.len())
            .map(|c| {
                let widest = cells.iter().map(|row| row[c].chars().count());
                widest.fold(table.columns[c].len(), usize::max)
            })
            .collect();
        let line = |cells: &mut dyn Iterator<Item = &str>| {
            let padded: Vec<String> = cells
                .zip(&widths)
                .map(|(cell, width)| format!("{cell:>width$}"))
                .collect();
            println!("{}", padded.join(" | "));
        };
        line(&mut table.columns.iter().copied());
        for row in &cells {
            line(&mut row.iter().map(String::as_str));
        }
        println!("{}\n", table.note);

        let columns = || table.columns.iter().map(|c| c.to_string());
        let rows = table
            .rows
            .into_iter()
            .map(|row| Json::Obj(columns().zip(row).collect()))
            .collect();
        let recorded = Json::obj([
            ("title", Json::Str(table.title.into())),
            ("columns", Json::Arr(columns().map(Json::Str).collect())),
            ("rows", Json::Arr(rows)),
            ("note", Json::Str(table.note)),
            ("harness_wall_s", Json::Num(wall_s)),
        ]);
        self.tables.insert(name.into(), recorded);
    }

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

    /// The time model of one cold vorticity evaluation, which the
    /// scaling figures read at every process count: the threshold query at
    /// `threshold`, or — `None` — the whole-box evaluation the paper's
    /// Figs. 7 and 8 time, a PDF, which derives every point and which
    /// nothing prunes.
    fn cold_curl(service: &TurbulenceService, threshold: Option<f64>) -> NodeTimeModel {
        service.cluster().clear_buffer_pools();
        let q = ThresholdQuery::whole_timestep(
            "velocity",
            DerivedField::CurlNorm,
            0,
            threshold.unwrap_or(0.0),
        )
        .without_cache();
        match threshold {
            Some(_) => service.get_threshold(&q).expect("query").model,
            None => service.get_pdf(&q, 0.0, 10.0, 9).expect("pdf").model,
        }
    }

    // --- Figure 2: PDF of the vorticity norm -----------------------------
    fn fig2(&mut self) -> Table {
        let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 0.0);
        let pdf = self.service.get_pdf(&q, 0.0, 10.0, 9).expect("pdf");
        let mut table = Table::new(
            "Figure 2: PDF of the vorticity norm (one time-step)",
            "bin_lo bin_hi points",
        );
        for i in 0..=pdf.histogram.nbins() {
            let (lo, hi) = pdf.histogram.bin_range(i);
            let hi = Some(hi).filter(|hi| hi.is_finite());
            row!(table, lo, hi, pdf.histogram.count(i));
        }
        table.note("paper shape: monotone log-decay from ~1e9 to ~1e1 over bins [0,10)..[90,..)")
    }

    // --- Figure 3: 4-D FoF cluster of the most intense event --------------
    /// Per time-step: the points above the low tier, the 4-D clusters with
    /// a member there, and the strongest cluster's members and peak.
    fn fig3(&mut self) -> Table {
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
        let mut table = Table::new(
            "Figure 3: the 4-D cluster containing the most intense event",
            "timestep points clusters members peak",
        );
        for t in 0..self.timesteps {
            let at_t = |&m: &usize| spacetime[m].timestep == t;
            let members = clusters[0].members.iter().filter(|m| at_t(m));
            let peak = members.clone().map(|&m| spacetime[m].point.value);
            let points = spacetime.iter().filter(|p| p.timestep == t).count();
            let active = clusters.iter().filter(|c| c.members.iter().any(at_t));
            row!(
                table,
                t,
                points,
                active.count(),
                members.count(),
                peak.reduce(f32::max)
            );
        }
        table.note("paper shape: the strongest cluster develops over several steps and interacts with multiple worms")
    }

    // --- Figure 4: points above 7x RMS ------------------------------------
    /// The points at or above the vorticity maximum and 7x and 8x its RMS.
    fn fig4(&mut self) -> Table {
        let stats = self
            .service
            .derived_stats("velocity", DerivedField::CurlNorm, 0)
            .expect("stats");
        let total = self.service.dataset().grid.num_points() as f64;
        let mut table = Table::new(
            "Figure 4: points above multiples of the vorticity RMS",
            "rms_multiple threshold points grid_fraction",
        );
        for threshold in [stats.max, 7.0 * stats.rms, 8.0 * stats.rms] {
            let q =
                ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, threshold);
            let points = self.service.get_threshold(&q).expect("query").points.len();
            let share = points as f64 / total;
            row!(table, threshold / stats.rms, threshold, points, share);
        }
        table
            .note("paper: 2.4e5 points above 7x rms, 2.6e5 above 8x rms (0.022% / 0.024% of 1024³)")
    }

    // --- Table 1 / Figure 6: cache effectiveness ---------------------------
    /// Per tier, the modelled seconds without the cache, on a miss and on a
    /// hit, and what pruning saves: the atoms whose stored vorticity
    /// maximum reaches the threshold and the atoms a cold query reads,
    /// beside what a PDF of the whole box — which nothing prunes — reads.
    fn table1(&mut self) -> Table {
        let tiers = self.tiers("velocity", DerivedField::CurlNorm);
        let cluster = self.service.cluster();
        let all: Vec<_> = self.service.full_box().atoms().collect();
        let (_, unpruned) = scanned(|| Self::cold_curl(&self.service, None));
        let mut table = Table::new(
            "Table 1 / Figure 6: effectiveness of caching",
            "tier selectivity points no_cache_s miss_s hit_s atoms surviving_atoms atoms_read unpruned_atoms_read",
        );
        for (i, (frac, label, _)) in FRACTIONS.iter().enumerate() {
            let k = tiers[i];
            let max = |atom| {
                let max = cluster.atom_max("velocity", DerivedField::CurlNorm, 0, atom);
                max.expect("curl norm has maxima")
            };
            let surviving = all.iter().filter(|&&a| at_or_above(max(a), k)).count();
            let mk = |use_cache: bool| {
                let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, k);
                if use_cache {
                    q
                } else {
                    q.without_cache()
                }
            };
            // no cache
            let mut read = 0;
            let no_cache = avg(3, || {
                let (r, atoms) = scanned(|| self.cold_query(&mk(false)));
                read = atoms;
                r.breakdown.total_s()
            });
            // cache miss: drop the entry before each run (paper protocol)
            let miss = avg(3, || {
                cluster.invalidate_cache_entry("velocity", DerivedField::CurlNorm, 0);
                self.cold_query(&mk(true)).breakdown.total_s()
            });
            // cache hit: warm once, then measure
            let warm = self.service.get_threshold(&mk(true)).expect("warm");
            let hit = avg(3, || {
                self.service
                    .get_threshold(&mk(true))
                    .expect("hit")
                    .breakdown
                    .total_s()
            });
            row!(
                table,
                *label,
                *frac,
                warm.points.len(),
                no_cache,
                miss,
                hit,
                all.len(),
                surviving,
                read,
                unpruned,
            );
        }
        table.note(format!(
            "paper (1024³, 4 nodes): 97.1/100.2/0.5  113.7/115.9/1.2  111.6/115.0/9.1 s\n\
             shape: miss ≈ no-cache (probe overhead <3%), hit >10x faster\n\
             note: at {0}³ the user round-trip floors the hit column; the server-side\n\
             \x20     (cache+io+compute) hit/miss ratio and larger grids (TDB_GRID=256)\n\
             \x20     recover the paper's >10x end-to-end gap",
            self.grid_n
        ))
    }

    // --- Figure 7(a): scale-up ---------------------------------------------
    /// One cold run per query, read at 1, 2, 4 and 8 processes per node.
    fn fig7a(&mut self) -> Table {
        let tiers = self.tiers("velocity", DerivedField::CurlNorm);
        let mut table = Table::new(
            "Figure 7(a): scale-up, speed-up at 1-8 processes per node (4 nodes)",
            "query p1 p2 p4 p8",
        );
        for (label, threshold) in curl_rows(&tiers) {
            let model = Self::cold_curl(&self.service, threshold);
            let times = [1, 2, 4, 8].map(|procs| model.total_s(procs));
            let [s1, s2, s4, s8] = times.map(|t| times[0] / t);
            row!(table, label, s1, s2, s4, s8);
        }
        table.note("paper (whole box): ≈2x at p=2, ≈2.6x at p=4, little further gain at p=8")
    }

    // --- Figure 7(b): scale-out --------------------------------------------
    /// One cold run per query and cluster size, read at one process per
    /// node.
    fn fig7b(&mut self) -> Table {
        let tiers = self.tiers("velocity", DerivedField::CurlNorm);
        // smaller grid per-cluster build cost: reuse main grid but build
        // separate clusters with 1, 2, 4, 8 nodes
        let services = SCALE_OUT
            .map(|nodes| build_service(self.grid_n, 1, nodes, &format!("repro_so{nodes}"), |_| {}));
        let mut table = Table::new(
            "Figure 7(b): scale-out, speed-up at 1-8 nodes (1 process per node)",
            "query n1 n2 n4 n8",
        );
        for (label, threshold) in curl_rows(&tiers) {
            let times = services
                .each_ref()
                .map(|svc| Self::cold_curl(svc, threshold).total_s(1));
            let [s1, s2, s4, s8] = times.map(|t| times[0] / t);
            row!(table, label, s1, s2, s4, s8);
        }
        table.note("paper (whole box): nearly perfect linear speedup")
    }

    // --- Figure 8: total vs I/O-only ----------------------------------------
    /// The whole box, as the paper measures it, and the medium-tier
    /// threshold query: one cold run each, read at 1, 2, 4 and 8 processes
    /// per node for its total and its modelled I/O phase, which is all an
    /// I/O-only run would report (DESIGN.md §4).
    fn fig8(&mut self) -> Table {
        let tiers = self.tiers("velocity", DerivedField::CurlNorm);
        let k = tiers[1];
        let mut table = Table::new(
            "Figure 8: total running time vs I/O-only",
            "procs total_s io_only_s threshold_total_s threshold_io_only_s",
        );
        let models = [None, Some(k)].map(|threshold| Self::cold_curl(&self.service, threshold));
        for procs in [1usize, 2, 4, 8] {
            let [(full, io_only), (pruned, pruned_io)] =
                models.map(|m| (m.total_s(procs), m.io_s(procs)));
            row!(table, procs, full, io_only, pruned, pruned_io);
        }
        table
            .note("paper (whole box): I/O ≈ half of total at p=1; total at p=4-8 ≈ I/O-only at p=1")
    }

    // --- Figure 9: per-field breakdowns --------------------------------------
    /// Per field and tier, the breakdown of a cold (cache miss) run, then
    /// of a warm (cache hit) one.
    fn fig9(&mut self) -> Table {
        let fields: [(&str, DerivedField, &str); 3] = [
            ("velocity", DerivedField::CurlNorm, "vorticity"),
            ("velocity", DerivedField::QCriterion, "Q-criterion"),
            ("magnetic", DerivedField::Norm, "magnetic (raw)"),
        ];
        let mut table = Table::new(
            "Figure 9: execution-time breakdown by field and threshold",
            "field cache tier points cache_s io_s compute_s mediator_db_s mediator_user_s",
        );
        for (raw, derived, label) in fields {
            let tiers = self.tiers(raw, derived);
            for cache in ["miss", "hit"] {
                for (i, (_, tier_label, _)) in FRACTIONS.iter().enumerate() {
                    let q = ThresholdQuery::whole_timestep(raw, derived, 0, tiers[i]);
                    let r = if cache == "miss" {
                        self.service
                            .cluster()
                            .invalidate_cache_entry(raw, derived, 0);
                        self.cold_query(&q)
                    } else {
                        self.service.get_threshold(&q).expect("query")
                    };
                    let b = r.breakdown;
                    row!(
                        table,
                        label,
                        cache,
                        *tier_label,
                        r.points.len(),
                        b.cache_lookup_s,
                        b.io_s,
                        b.compute_s,
                        b.mediator_db_s,
                        b.mediator_user_s,
                    );
                }
            }
        }
        table.note(
            "paper shapes: Q-criterion compute > vorticity compute; raw field ≈ no compute and less I/O (no halo);\n\
             hits dominated by result transfer; cache lookup negligible in all cases",
        )
    }

    // --- §5.2: hit ratio of a structured exploration workload -----------------
    /// Counts the workload's own lookups, not those of the experiments
    /// that ran before it on the same archive.
    fn hitratio(&mut self) -> Table {
        // "queries tend to examine the same regions in space and time":
        // a scientist sweeps thresholds downward-then-upward over a few
        // time-steps and fields, revisiting the interesting ones
        self.service.cluster().clear_caches();
        let tiers = self.tiers("velocity", DerivedField::CurlNorm);
        let before = self.service.cluster().cache_stats();
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
        let after = self.service.cluster().cache_stats();
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        let mut table = Table::new(
            "§5.2: cache hits per node-subquery of a structured workload",
            "queries hits misses ratio",
        );
        let ratio = hits as f64 / (hits + misses) as f64;
        row!(table, issued, hits, misses, ratio);
        table.note("paper: \"fairly high cache-hit ratios as the workload is very structured\"")
    }

    /// Shared-scan amplification: N clients issuing the same cold query,
    /// evaluated independently (one scan each) vs as one batch
    /// (one shared scan). Reports the atoms-decoded delta.
    fn concurrent(&mut self) -> Table {
        let tiers = self.tiers("velocity", DerivedField::CurlNorm);
        let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, tiers[1])
            .without_cache();
        let mut table = Table::new(
            "N concurrent clients: one shared scan vs N independent scans",
            "clients atoms_decoded_independent atoms_decoded_shared atoms_saved amplification",
        );
        for clients in [1usize, 4, 16] {
            self.service.cluster().clear_buffer_pools();
            let ((), independent) = scanned(|| {
                for _ in 0..clients {
                    self.service.get_threshold(&q).expect("query");
                }
            });
            self.service.cluster().clear_buffer_pools();
            let ((), shared) = scanned(|| {
                for r in self.service.get_threshold_batch(&vec![q.clone(); clients]) {
                    r.expect("batched query");
                }
            });
            let saved = independent as f64 / shared.max(1) as f64;
            row!(
                table,
                clients,
                independent,
                shared,
                independent - shared,
                saved
            );
        }
        table.note("(one decode serves every concurrently admitted query over the span)")
    }

    /// Byte/accuracy sweep of the compressed atom tier: the same dataset
    /// is bulk-loaded under each codec mode, then a cold whole-timestep
    /// threshold scan measures how many modelled device bytes the arrays
    /// actually move, and the returned points are compared against the
    /// uncompressed answer.
    fn compression(&mut self) -> Table {
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
        let mut baseline: Option<BTreeMap<(u32, u32, u32), f32>> = None;
        let mut table = Table::new(
            "compressed atom tier, byte / accuracy sweep",
            "mode bytes_logical bytes_stored stored_ratio cold_scan_array_bytes points max_value_delta max_error_micro",
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
            row!(
                table,
                label,
                logical,
                stored,
                stored_ratio,
                scan_bytes,
                r.points.len(),
                max_dv,
                m::COMPRESS_MAX_ERROR_MICRO.get(),
            );
        }
        table.note(
            "(a cold threshold scan over the lossy tier should move ≥4x fewer array bytes\n\
             \x20than the uncompressed tier; stored samples reconstruct within the\n\
             \x20configured bound, and derived values — CurlNorm differentiates the\n\
             \x20samples — inherit a finite-difference-amplified but still proportional\n\
             \x20error, the max_value_delta column — see DESIGN.md §10)",
        )
    }

    /// Availability and modelled tail latency of cold threshold scans
    /// against a 4-node cluster with one node killed, as the replication
    /// factor grows. At k=1 every whole-box query loses the dead node's
    /// boxes; at k≥2 read failover completes every answer, paying a
    /// failover round on the latency tail.
    fn replication(&mut self) -> Table {
        let n = self.grid_n.min(64);
        let mut thresh: Option<f64> = None;
        let mut table = Table::new(
            "availability / tail latency vs replication factor k, one node down",
            "k availability queries p50_s p95_s max_s",
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
            let (p50, p95, max) = (lat[total / 2], lat[(total * 95) / 100], lat[total - 1]);
            row!(table, k, availability, total, p50, p95, max);
        }
        table.note(
            "(k=1 answers lose the dead node's boxes — availability 0 for whole-box\n\
             \x20queries; k>=2 completes everything via read failover, and the extra\n\
             \x20failover round shows up in the latency tail)",
        )
    }

    /// The design choices DESIGN.md calls out, one at a time, at 64³
    /// whatever `TDB_GRID` says (chunks of 4 atoms need a 64³ grid to give
    /// each of the 4 nodes one): finite-difference order (halo width and
    /// stencil cost), chunk granularity (halo-to-volume ratio) and exact
    /// z-range decomposition against one covering range. Each cold row is
    /// the fastest of seven runs — its real `wall_s` beside its modelled
    /// breakdown — with the configurations interleaved round by round, so a
    /// burst of host slowness cannot cover every run of one of them.
    fn ablations(&mut self) -> Table {
        const N: usize = 64;
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
        let mut table = Table::new(
            "design choices, one at a time (64³, 4 nodes)",
            "ablation value wall_s io_s compute_s modelled_s ranges atoms_exact atoms_covering saved",
        );
        // (ablation, swept value, index into `configs`)
        for (ablation, value, config) in [
            ("fd_order", 2u32, 0),
            ("fd_order", 4, 1),
            ("fd_order", 6, 2),
            ("fd_order", 8, 3),
            ("chunk_atoms", 1, 4),
            ("chunk_atoms", 2, 1),
            ("chunk_atoms", 4, 5),
        ] {
            let r = best[config].as_ref().expect("seven rounds ran");
            let b = r.breakdown;
            let mut cells = vec![ablation.cell(), value.cell()];
            cells.extend([r.wall_s, b.io_s, b.compute_s, b.total_s()].map(Cell::cell));
            cells.resize(table.columns.len(), Json::Null);
            table.push(cells);
        }
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
            // no query ran: `wall_s` to `modelled_s` stay empty
            let mut cells = vec!["zrange_decomposition".cell(), label.cell()];
            cells.resize(6, Json::Null);
            cells.extend([ranges.len() as u64, exact, cover].map(Cell::cell));
            cells.push((cover as f64 / exact as f64).cell());
            table.push(cells);
        }
        table.note(
            "(wider stencils: cold cost rises with the order; 8³-point chunks re-read their\n\
             \x20halo many times over, ≥ 16³ amortise it; exact z-ranges read fewer atoms\n\
             \x20than one covering range)",
        )
    }

    // --- §5.3: local evaluation baseline --------------------------------------
    fn local(&mut self) -> Table {
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
        let mut table = Table::new(
            "§5.3: integrated evaluation vs local (client-side) evaluation, modelled",
            "integrated_s subqueries download_bytes components_shipped local_s",
        );
        row!(
            table,
            integrated.breakdown.total_s(),
            report.num_subqueries,
            report.download_bytes,
            report.ncomp_shipped,
            report.total_s,
        );
        table.note("paper: 20+ hours local (XML-wrapped gradient download) vs ~2 minutes integrated, ≈600x")
    }
}

/// The rows of Figs. 7(a) and 7(b): the whole-box evaluation (`None`),
/// then the threshold query at each tier.
fn curl_rows(tiers: &[f64; 3]) -> [(&'static str, Option<f64>); 4] {
    [
        ("whole box (pdf)", None),
        (FRACTIONS[0].1, Some(tiers[0])),
        (FRACTIONS[1].1, Some(tiers[1])),
        (FRACTIONS[2].1, Some(tiers[2])),
    ]
}

fn avg(n: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..n).map(|_| f()).sum::<f64>() / n as f64
}
