//! The metric catalogue (names, units, directions, bounds — mirrored by
//! `BENCHMARK.json`) and the result documents `perf` prints.

use tdb_wire::Json;

use crate::driver::RunReport;
use crate::layers::{mean_gap_ms, trace_overhead_frac, ReplayReport};
use crate::stats;
use crate::trace::{self, Layer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening of the median that counts as a regression;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the service sees, per workload, tracing off.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("qps", "1/s", Higher, 0.25),
    e2e("p50_ms", "ms", Lower, 0.25),
    e2e("p90_ms", "ms", Lower, 0.25),
    e2e("modelled_p50_ms", "ms", Lower, 0.10),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
];

/// One layer each (layer = crate), from the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // the budget: self time per layer and query, summing to the wire RTT
    layer("budget.rtt_ms", "ms", Lower),
    layer("budget.wire_ms", "ms", Lower),
    layer("budget.core_ms", "ms", Lower),
    layer("budget.cluster_ms", "ms", Lower),
    layer("budget.storage_ms", "ms", Lower),
    layer("budget.kernels_ms", "ms", Lower),
    layer("budget.cache_ms", "ms", Lower),
    layer("budget.unattributed_ms", "ms", Lower),
    layer("budget.unattributed_frac", "frac", Lower),
    // wire
    layer("wire.rtt_self_ms", "ms", Lower),
    layer("wire.handle_self_ms", "ms", Lower),
    layer("wire.request_parse_us", "us", Lower),
    layer("wire.response_encode_us_per_kpt", "us/kpt", Lower),
    layer("wire.response_decode_us_per_kpt", "us/kpt", Lower),
    layer("wire.response_bytes_per_point", "B/pt", Lower),
    layer("wire.admission_admit_us", "us", Lower),
    layer("wire.ping_rtt_us", "us", Lower),
    layer("wire.busy_frac", "frac", Lower),
    layer("wire.large_answer_rtt_ms", "ms", Lower),
    // core
    layer("core.get_threshold_self_ms", "ms", Lower),
    // cluster
    layer("cluster.get_threshold_ms", "ms", Lower),
    layer("cluster.node_evaluate_sum_ms", "ms", Lower),
    layer("cluster.parallel_efficiency", "frac", Higher),
    layer("cluster.needed_atoms_us_per_chunk", "us", Lower),
    layer("cluster.assemble_padded_mpts_s", "Mpts/s", Higher),
    layer("cluster.halo_read_amplification", "ratio", Lower),
    layer("cluster.remote_atom_frac", "frac", Lower),
    layer("cluster.atoms_scanned_per_query", "count", Lower),
    layer("cluster.node_unattributed_frac", "frac", Lower),
    // storage
    layer("storage.fetch_atoms_cold_katoms_s", "katoms/s", Higher),
    layer("storage.fetch_atoms_warm_katoms_s", "katoms/s", Higher),
    layer("storage.block_decode_mb_s", "MB/s", Higher),
    layer("storage.checksum_mb_s", "MB/s", Higher),
    layer("storage.pool_hit_frac", "frac", Higher),
    layer("storage.pool_evictions_per_query", "count", Lower),
    layer("storage.io_bytes_per_query", "B", Lower),
    layer("storage.io_ops_per_query", "count", Lower),
    layer("storage.ingest_katoms_s", "katoms/s", Higher),
    layer("storage.stored_bytes_per_user_byte", "ratio", Lower),
    // compress (through tdb_storage::encode_block_with / decode_block_meta)
    layer("compress.lossless_encode_mb_s", "MB/s", Higher),
    layer("compress.lossless_decode_mb_s", "MB/s", Higher),
    layer("compress.lossless_ratio", "ratio", Higher),
    layer("compress.lossy_decode_mb_s", "MB/s", Higher),
    layer("compress.lossy_ratio", "ratio", Higher),
    // kernels
    layer("kernels.derive_mpts_s.curl_norm", "Mpts/s", Higher),
    layer("kernels.derive_mpts_s.q_criterion", "Mpts/s", Higher),
    layer("kernels.derive_mpts_s.gradient_norm", "Mpts/s", Higher),
    layer("kernels.derive_mpts_s.strain_rate_norm", "Mpts/s", Higher),
    layer("kernels.scan_mpts_s", "Mpts/s", Higher),
    layer("kernels.pdf_scan_mpts_s", "Mpts/s", Higher),
    layer("kernels.interp_kpts_s", "kpts/s", Higher),
    layer("kernels.derive_bytes_per_point", "B/pt", Lower),
    // cache
    layer("cache.lookup_hit_us", "us", Lower),
    layer("cache.lookup_miss_us", "us", Lower),
    layer("cache.insert_us_per_kpt", "us/kpt", Lower),
    layer("cache.hit_frac", "frac", Higher),
    layer("cache.pdf_hit_frac", "frac", Higher),
    layer("cache.replacements_per_query", "count", Lower),
    // zorder
    layer("zorder.decode_mcodes_s", "Mcodes/s", Higher),
    layer("zorder.encode_mcodes_s", "Mcodes/s", Higher),
    layer("zorder.decompose_box_us", "us", Lower),
    // turbgen / field (setup only)
    layer("turbgen.generate_mpts_s", "Mpts/s", Higher),
    layer("field.extract_atom_katoms_s", "katoms/s", Higher),
    // obs: what measuring costs
    layer("obs.counter_add_ns", "ns", Lower),
    layer("obs.snapshot_us", "us", Lower),
    layer("obs.trace_overhead_frac", "frac", Lower),
];

/// How long one run measures; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 20;
/// The benchmark's own directory; `BENCHMARK.json`'s only path.
pub const PATH: &str = "perfbench";
/// What the acceptance driver runs from the root of a checkout, before
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--bin",
    "perf",
    "--",
];

/// `BENCHMARK.json`, generated from the catalogue so the two cannot
/// drift (`perf manifest` prints it; a test compares the committed file).
pub fn manifest() -> Json {
    let strings =
        |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str(s.to_string())).collect());
    let metric = |d: &MetricDef| {
        let mut row = vec![
            ("name", Json::Str(d.name.to_string())),
            ("unit", Json::Str(d.unit.to_string())),
            ("better", Json::Str(d.better.as_str().to_string())),
        ];
        if let Some(b) = d.bound {
            row.push(("bound", Json::Num(b)));
        }
        Json::obj(row)
    };
    Json::obj([
        ("command", strings(COMMAND)),
        ("paths", strings(&[PATH])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                crate::workload::Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name().to_string())),
                            ("why", Json::Str(w.why().to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

/// `doc` with one array element or object field per line.
pub fn pretty(doc: &Json) -> String {
    fn go(v: &Json, depth: usize, out: &mut String) {
        let pad = |out: &mut String, d: usize| out.push_str(&"  ".repeat(d));
        // rows of scalars (a metric, a workload) stay on one line
        let flat = |v: &Json| match v {
            Json::Arr(a) => a.iter().all(|x| !matches!(x, Json::Arr(_) | Json::Obj(_))),
            Json::Obj(o) => {
                depth > 0
                    && o.values()
                        .all(|x| !matches!(x, Json::Arr(_) | Json::Obj(_)))
            }
            _ => true,
        };
        if flat(v) {
            out.push_str(&v.encode());
            return;
        }
        match v {
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, depth + 1);
                    go(item, depth + 1, out);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push(']');
            }
            Json::Obj(map) => {
                out.push_str("{\n");
                for (i, (k, item)) in map.iter().enumerate() {
                    pad(out, depth + 1);
                    out.push_str(&Json::Str(k.clone()).encode());
                    out.push_str(": ");
                    go(item, depth + 1, out);
                    out.push_str(if i + 1 < map.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push('}');
            }
            scalar => out.push_str(&scalar.encode()),
        }
    }
    let mut out = String::new();
    go(doc, 0, &mut out);
    out.push('\n');
    out
}

/// Named values of one run, in catalogue order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Every catalogue metric, exactly once, finite — or what is wrong.
    pub fn validate(&self, defs: &[MetricDef]) -> Result<(), String> {
        for d in defs {
            match self.get(d.name) {
                Some(v) if v.is_finite() => {}
                Some(v) => return Err(format!("metric {} is not finite: {v}", d.name)),
                None => return Err(format!("metric {} was not measured", d.name)),
            }
        }
        match self
            .0
            .iter()
            .find(|(n, _)| defs.iter().all(|d| d.name != *n))
        {
            Some((n, _)) => Err(format!("metric {n} is not in the catalogue")),
            None => Ok(()),
        }
    }

    /// `{"name": {"value": v, "unit": u}, …}` in the shape the acceptance
    /// driver reads.
    pub fn to_json(&self, defs: &[MetricDef]) -> Json {
        Json::Obj(
            defs.iter()
                .filter_map(|d| {
                    let v = self.get(d.name)?;
                    Some((
                        d.name.to_string(),
                        Json::obj([
                            ("value", Json::Num(v)),
                            ("unit", Json::Str(d.unit.to_string())),
                        ]),
                    ))
                })
                .collect(),
        )
    }
}

/// The contract line: the last line of standard output.
pub fn contract_line(attempted: u64, failed: u64, metrics: &Metrics, defs: &[MetricDef]) -> Json {
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics.to_json(defs)),
    ])
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Commit of the checkout the benchmark runs from, read from `.git`
/// without spawning git; `unknown` outside a repository (the acceptance
/// driver's checkouts are plain directories).
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let head = match read(".git/HEAD") {
        Some(h) => h.trim().to_string(),
        None => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find_map(|l| l.strip_suffix(r).map(|sha| sha.trim().to_string()))
            })
            .unwrap_or_else(|| "unknown".into()),
        None => head,
    }
}

/// Window count of the `qps` median.
pub const QPS_WINDOWS: usize = 8;

/// End-to-end metrics of one untraced run, as measured.
pub fn end_to_end_raw(report: &RunReport, setups_s: &[f64]) -> Metrics {
    let lat = report.latencies_ms();
    let modelled: Vec<f64> = report
        .samples
        .iter()
        .filter_map(|s| s.modelled_s.map(|m| m * 1e3))
        .collect();
    let mut m = Metrics::default();
    m.set("setup_s", stats::median(setups_s).unwrap_or(0.0));
    m.set("qps", report.qps(QPS_WINDOWS));
    m.set("p50_ms", stats::percentile(&lat, 50.0).unwrap_or(0.0));
    m.set("p90_ms", stats::percentile(&lat, 90.0).unwrap_or(0.0));
    m.set("modelled_p50_ms", stats::median(&modelled).unwrap_or(0.0));
    m.set("peak_rss_mib", peak_rss_mib());
    m
}

/// The metrics the contract line carries: the wall-clock ones scaled to
/// the nominal machine by the speed the calibration bursts saw during the
/// measured interval (see [`crate::calib`]). The setups end seconds before
/// that interval and the machine changes state over minutes, so `setup_s`
/// takes the same index: in ten runs per workload it spread less that way
/// (10–17 %) than scaled by thirty bursts of its own (17–23 %) or as
/// measured (13–22 %). `modelled_p50_ms` (mostly device-modelled) and
/// `peak_rss_mib` stay as measured.
pub fn scaled_to_nominal(raw: &Metrics, speed: f64) -> Metrics {
    let mut m = raw.clone();
    for (name, value) in &mut m.0 {
        match *name {
            "qps" => *value /= speed,
            "p50_ms" | "p90_ms" | "setup_s" => *value *= speed,
            _ => {}
        }
    }
    m
}

/// Per-layer metrics of one traced run: the budget and ratios from the
/// replay, plus the fixed-input micro-timings.
pub fn per_layer(replay: &ReplayReport, micro: &[(&'static str, f64)]) -> Metrics {
    let mut m = Metrics::default();
    let spans = replay.recorder.spans();
    let b = trace::budget(spans);
    let per_query_ms = |s: f64| 1e3 * stats::ratio(s, b.queries as f64);
    m.set("budget.rtt_ms", per_query_ms(b.rtt_s));
    m.set("budget.wire_ms", per_query_ms(b.layer(Layer::Wire)));
    m.set("budget.core_ms", per_query_ms(b.layer(Layer::Core)));
    m.set("budget.cluster_ms", per_query_ms(b.layer(Layer::Cluster)));
    m.set("budget.storage_ms", per_query_ms(b.layer(Layer::Storage)));
    m.set("budget.kernels_ms", per_query_ms(b.layer(Layer::Kernels)));
    m.set("budget.cache_ms", per_query_ms(b.layer(Layer::Cache)));
    m.set("budget.unattributed_ms", per_query_ms(b.unattributed_s));
    m.set("budget.unattributed_frac", b.unattributed_frac());

    let (q, t) = (&replay.queries, &replay.times);
    m.set(
        "wire.rtt_self_ms",
        mean_gap_ms(q, None, &t.rtt_s, &t.handle_s),
    );
    m.set(
        "wire.handle_self_ms",
        mean_gap_ms(q, None, &t.handle_s, &t.service_s),
    );
    m.set(
        "core.get_threshold_self_ms",
        mean_gap_ms(q, Some("threshold"), &t.service_s, &t.cluster_s),
    );
    let zeros = vec![0.0; q.len()];
    m.set(
        "cluster.get_threshold_ms",
        mean_gap_ms(q, Some("threshold"), &t.cluster_s, &zeros),
    );
    // queries that reached the nodes (point queries never do)
    let scans: Vec<usize> = (0..q.len())
        .filter(|&i| t.node_sum_s.get(i).is_some_and(|&s| s > 0.0))
        .collect();
    let sum_over = |v: &[f64]| -> f64 { scans.iter().filter_map(|&i| v.get(i)).sum() };
    m.set(
        "cluster.node_evaluate_sum_ms",
        1e3 * stats::ratio(sum_over(&t.node_sum_s), scans.len() as f64),
    );
    let overlapped: f64 = scans
        .iter()
        .filter_map(|&i| Some(t.par.get(i)? * t.cluster_s.get(i)?))
        .sum();
    m.set(
        "cluster.parallel_efficiency",
        stats::ratio(sum_over(&t.node_sum_s), overlapped),
    );
    let selfs = trace::self_times(spans);
    let (node_self, node_total) = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "node.evaluate_shared")
        .fold((0.0, 0.0), |(a, b), (s, own)| (a + own, b + s.duration_s()));
    m.set(
        "cluster.node_unattributed_frac",
        stats::ratio(node_self, node_total),
    );
    let a = replay.atoms;
    m.set(
        "cluster.halo_read_amplification",
        stats::ratio(a.fetched as f64, a.inside as f64),
    );
    m.set(
        "cluster.remote_atom_frac",
        stats::ratio(a.remote as f64, a.fetched as f64),
    );

    let n = q.len() as f64;
    let count = |name: &str| replay.counters.get(name).copied().unwrap_or(0) as f64;
    m.set(
        "cluster.atoms_scanned_per_query",
        stats::ratio(count("node.atoms_scanned"), n),
    );
    m.set(
        "storage.pool_hit_frac",
        stats::ratio(
            count("bufferpool.hits"),
            count("bufferpool.hits") + count("bufferpool.misses"),
        ),
    );
    m.set(
        "storage.pool_evictions_per_query",
        stats::ratio(count("bufferpool.evictions"), n),
    );
    m.set(
        "storage.io_bytes_per_query",
        stats::ratio(count("io.bytes.hdd-raid5"), n),
    );
    m.set(
        "storage.io_ops_per_query",
        stats::ratio(count("io.ops.hdd-raid5"), n),
    );
    m.set(
        "cache.hit_frac",
        stats::ratio(replay.cache_hits.0 as f64, replay.cache_hits.1 as f64),
    );
    m.set(
        "cache.pdf_hit_frac",
        stats::ratio(
            count("cache.pdf.hits"),
            count("cache.pdf.hits") + count("cache.pdf.misses"),
        ),
    );
    m.set(
        "cache.replacements_per_query",
        stats::ratio(count("cache.semantic.inserts"), n),
    );
    m.set("wire.busy_frac", stats::ratio(count("admission.shed"), n));
    m.set("obs.trace_overhead_frac", trace_overhead_frac(t));
    for &(name, value) in micro {
        m.set(name, value);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn catalogue_names_and_units_fit_the_manifest_grammar() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name), "bad metric name {}", d.name);
            assert!(unit_ok(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for d in END_TO_END {
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `perf manifest > BENCHMARK.json`"
        );
        assert!(text.len() <= 64 * 1024);
    }

    #[test]
    fn manifest_has_the_contract_shape() {
        let doc = manifest();
        assert_eq!(
            Json::parse(&pretty(&doc)).expect("pretty output parses"),
            doc
        );
        let keys: Vec<&str> = match &doc {
            Json::Obj(m) => m.keys().map(String::as_str).collect(),
            _ => panic!("manifest is not an object"),
        };
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let rows = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();
        assert!((2..=8).contains(&rows("workloads").len()));
        assert!(rows("command").len() <= 32);
        // the command names nothing outside the benchmark's path
        for arg in COMMAND {
            assert!(!arg.starts_with('/') && !arg.contains(".."));
            assert!(!arg.contains('/') || arg.starts_with(PATH), "{arg}");
        }
        for row in rows("end_to_end") {
            let Json::Obj(m) = row else { panic!("row") };
            assert_eq!(
                m.keys().map(String::as_str).collect::<Vec<_>>(),
                ["better", "bound", "name", "unit"]
            );
        }
        for row in rows("per_layer") {
            let Json::Obj(m) = row else { panic!("row") };
            assert_eq!(
                m.keys().map(String::as_str).collect::<Vec<_>>(),
                ["better", "name", "unit"]
            );
        }
        // 4 + 22 runs per workload, each a setup or three plus the run,
        // must fit the acceptance driver's 3420 s with two builds
        let runs = 4 + 22 * rows("workloads").len() as u64;
        assert!(runs * (RUN_SECONDS + 14) + 2 * 60 < 3420);
    }

    #[test]
    fn result_documents_round_trip_through_the_wire_json() {
        let mut m = Metrics::default();
        for (i, d) in END_TO_END.iter().enumerate() {
            m.set(d.name, 1.25 + i as f64 / 7.0);
        }
        m.validate(END_TO_END).expect("complete");
        let line = contract_line(10, 0, &m, END_TO_END);
        let back = Json::parse(&line.encode()).expect("parses");
        assert_eq!(back, line);
        let keys: Vec<&str> = match &back {
            Json::Obj(o) => o.keys().map(String::as_str).collect(),
            _ => Vec::new(),
        };
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(back.get("correct").and_then(Json::as_bool), Some(true));
        let Some(Json::Obj(metrics)) = back.get("metrics") else {
            panic!("metrics object");
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        for (name, v) in metrics {
            assert!(name_ok(name));
            assert!(v.get("value").and_then(Json::as_f64).is_some());
            assert!(v.get("unit").and_then(Json::as_str).is_some_and(unit_ok));
        }
        // all digits survive
        let third = END_TO_END[2].name;
        assert_eq!(
            metrics[third].get("value").and_then(Json::as_f64),
            Some(1.25 + 2.0 / 7.0)
        );
    }

    #[test]
    fn incomplete_or_foreign_metrics_are_refused() {
        let mut m = Metrics::default();
        m.set("qps", 1.0);
        assert!(m.validate(END_TO_END).is_err());
        let mut m = Metrics::default();
        for d in END_TO_END {
            m.set(d.name, 1.0);
        }
        m.set("bogus", 1.0);
        assert!(m.validate(END_TO_END).unwrap_err().contains("bogus"));
        m.0.pop();
        m.set("qps", f64::NAN);
        assert!(m.validate(END_TO_END).unwrap_err().contains("qps"));
        assert!(contract_line(0, 0, &m, END_TO_END)
            .get("attempted")
            .and_then(Json::as_u64)
            .is_some_and(|a| a >= 1));
    }

    #[test]
    fn scaling_touches_only_the_wall_clock_metrics() {
        let mut raw = Metrics::default();
        for d in END_TO_END {
            raw.set(d.name, 10.0);
        }
        // a machine running at 80 % of nominal: fewer answers, longer waits
        let m = scaled_to_nominal(&raw, 0.8);
        assert_eq!(m.get("qps"), Some(12.5));
        for name in ["p50_ms", "p90_ms", "setup_s"] {
            assert_eq!(m.get(name), Some(8.0), "{name}");
        }
        for name in ["modelled_p50_ms", "peak_rss_mib"] {
            assert_eq!(m.get(name), Some(10.0), "{name}");
        }
        m.validate(END_TO_END).expect("still the whole catalogue");
    }

    #[test]
    fn rss_is_readable() {
        assert!(peak_rss_mib() > 1.0);
    }
}
