//! `perf compare <a.jsonl> <b.jsonl>`: per workload × end-to-end metric,
//! the relative change of the medians against the benchmark's bounds.
//!
//! Each file holds result documents as `perf --append <file>` writes them,
//! one per line, several runs per workload. `a` is the base (the parent
//! commit, or the first set of runs), `b` the candidate.

use std::collections::BTreeMap;

use tdb_wire::Json;

use crate::report::{Better, MetricDef, END_TO_END};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b`'s median is no worse than `a`'s by more than the bound.
    Pass,
    /// Worse by more than the bound, and the runs are steady enough to say so.
    Regress,
    /// A side's interquartile spread exceeds the bound, so a change of
    /// that size cannot be told from noise (unless every run of `b` reads
    /// better than every run of `a`).
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "PASS",
            Verdict::Regress => "REGRESS",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub runs: (usize, usize),
    pub medians: (f64, f64),
    /// Relative change of the median in the metric's bad direction
    /// (positive = `b` is worse).
    pub worsening: f64,
    pub spreads: (f64, f64),
    pub bound: f64,
    pub verdict: Verdict,
}

/// How much worse `b` is than `a`, as a share of `a`.
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    let change = stats::ratio(b - a, a.abs());
    match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Option<(f64, (f64, f64), Verdict)> {
    let bound = def.bound?;
    let (ma, mb) = (stats::median(a)?, stats::median(b)?);
    let worse = worsening(def, ma, mb);
    let spreads = (
        stats::spread(a).unwrap_or(0.0),
        stats::spread(b).unwrap_or(0.0),
    );
    let all_better = a
        .iter()
        .all(|&x| b.iter().all(|&y| worsening(def, x, y) < 0.0));
    let noisy = spreads.0 > bound || spreads.1 > bound;
    let verdict = if noisy && !all_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regress
    } else {
        Verdict::Pass
    };
    Some((worse, spreads, verdict))
}

/// `workload → metric → values`, from a file of result documents.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("line {}: no workload", n + 1))?;
        // traced runs carry per-layer metrics only
        if doc.get("trace").and_then(Json::as_bool) == Some(true) {
            continue;
        }
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("line {}: no metrics", n + 1));
        };
        let slot = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                slot.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

pub fn compare(a: &Runs, b: &Runs) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, ma) in a {
        let Some(mb) = b.get(workload) else { continue };
        for def in END_TO_END {
            let (Some(va), Some(vb)) = (ma.get(def.name), mb.get(def.name)) else {
                continue;
            };
            let Some((worsening, spreads, verdict)) = judge(def, va, vb) else {
                continue;
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name,
                runs: (va.len(), vb.len()),
                medians: (
                    stats::median(va).unwrap_or(0.0),
                    stats::median(vb).unwrap_or(0.0),
                ),
                worsening,
                spreads,
                bound: def.bound.unwrap_or(0.0),
                verdict,
            });
        }
    }
    rows
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<12} {:<16} {:>5} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict\n",
        "workload", "metric", "runs", "median a", "median b", "worse", "iqr a", "iqr b", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:<16} {:>2}/{:<2} {:>12.4} {:>12.4} {:>+7.1}% {:>7.1}% {:>7.1}% {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            r.runs.0,
            r.runs.1,
            r.medians.0,
            r.medians.1,
            100.0 * r.worsening,
            100.0 * r.spreads.0,
            100.0 * r.spreads.1,
            100.0 * r.bound,
            r.verdict.as_str()
        ));
    }
    out
}

/// Runs the comparison; `Ok(true)` when no row regressed.
pub fn main(path_a: &str, path_b: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let rows = compare(&parse_runs(&read(path_a)?)?, &parse_runs(&read(path_b)?)?);
    if rows.is_empty() {
        return Err("the two files share no workload with end-to-end metrics".into());
    }
    print!("{}", render(&rows));
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} PASS, {} REGRESS, {} UNRESOLVED",
        count(Verdict::Pass),
        count(Verdict::Regress),
        count(Verdict::Unresolved)
    );
    Ok(count(Verdict::Regress) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        END_TO_END.iter().find(|d| d.name == name).expect(name)
    }

    #[test]
    fn direction_aware_verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let scaled = |f: f64| steady.map(|x| x * f);
        // qps: higher is better
        let qps = def("qps");
        let bound = qps.bound.expect("bound");
        let (w, _, v) = judge(qps, &steady, &scaled(1.0 - bound - 0.05)).expect("judged");
        assert!((w - (bound + 0.05)).abs() < 1e-9);
        assert_eq!(v, Verdict::Regress);
        let (_, _, v) = judge(qps, &steady, &scaled(1.0 - bound + 0.05)).expect("judged");
        assert_eq!(v, Verdict::Pass);
        let (w, _, v) = judge(qps, &steady, &scaled(1.5)).expect("judged");
        assert!(w < 0.0);
        assert_eq!(v, Verdict::Pass);
        // p50_ms: lower is better
        let p50 = def("p50_ms");
        let bound = p50.bound.expect("bound");
        let (_, _, v) = judge(p50, &steady, &scaled(1.0 + bound + 0.05)).expect("judged");
        assert_eq!(v, Verdict::Regress);
        let (_, _, v) = judge(p50, &steady, &scaled(0.5)).expect("judged");
        assert_eq!(v, Verdict::Pass);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let p50 = def("p50_ms");
        let bound = p50.bound.expect("bound");
        // quartiles a bound and a half apart
        let noisy = [
            1.0 - 1.5 * bound,
            1.0 - 0.75 * bound,
            1.0,
            1.0 + 0.75 * bound,
            1.0 + 1.5 * bound,
        ]
        .map(|x| 100.0 * x);
        let (_, spreads, v) = judge(p50, &noisy, &noisy.map(|x| x * 1.3)).expect("judged");
        assert!(spreads.0 > bound);
        assert_eq!(v, Verdict::Unresolved);
        // every run of b below every run of a: resolved despite the noise
        let (_, _, v) = judge(p50, &noisy, &noisy.map(|x| x * 0.2)).expect("judged");
        assert_eq!(v, Verdict::Pass);
    }

    #[test]
    fn documents_group_by_workload_and_skip_traced_runs() {
        let line = |w: &str, trace: bool, qps: f64| {
            format!(
                r#"{{"workload":"{w}","trace":{trace},"metrics":{{"qps":{{"value":{qps},"unit":"1/s"}}}}}}"#
            )
        };
        let a = [
            line("cold_scan", false, 10.0),
            line("cold_scan", false, 12.0),
            line("cold_scan", true, 99.0),
            line("warm_cache", false, 1000.0),
        ]
        .join("\n");
        let runs = parse_runs(&a).expect("parses");
        assert_eq!(runs["cold_scan"]["qps"], vec![10.0, 12.0]);
        assert_eq!(runs["warm_cache"]["qps"], vec![1000.0]);
        let rows = compare(&runs, &runs);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.verdict != Verdict::Regress));
        assert!(render(&rows).contains("cold_scan"));
        assert!(parse_runs("{nope").is_err());
    }
}
