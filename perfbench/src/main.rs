//! `perf`: wire-level end-to-end benchmark of ThresholDB on four workloads,
//! plus an externally traced per-layer budget. `README.md` beside this
//! package's manifest has the metric glossary and how to run it.

mod calib;
mod compare;
mod driver;
mod layers;
mod micro;
mod oracle;
mod report;
mod rng;
mod stats;
mod trace;
mod workload;
mod world;

use std::io::Write;
use std::time::Duration;

use tdb_wire::Json;

use report::{MetricDef, Metrics, END_TO_END, PER_LAYER};
use workload::Workload;
use world::World;

const USAGE: &str = "usage:
  perf --workload <cold_scan|derive_scan|warm_cache|mixed_zipf> --seed <u64>
       [--seconds <s>] [--trace <0|1>] [--smoke] [--append <file.jsonl>]
  perf --smoke [--seconds <s>]          all four workloads and their traces, small
  perf compare <a.jsonl> <b.jsonl>      judge two sets of appended results
  perf manifest                         print BENCHMARK.json from the metric catalogue";

/// Where `trace.<workload>.json` goes, inside the checkout.
const OUT_DIR: &str = ".perf_out";
/// Replayed queries per traced run: bounds `trace.json` and the span store.
const MAX_REPLAYED: usize = 1500;
/// Complete setups per untraced run; `setup_s` is their median.
const SETUPS_PER_RUN: usize = 3;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    append: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: report::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        append: None,
    };
    let mut seconds: Option<f64> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                out.workload = Some(Workload::parse(v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => out.trace = value()? != "0",
            "--append" => out.append = Some(value()?.clone()),
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if out.workload.is_none() && !out.smoke {
        return Err("--workload <name> is required (or --smoke for all four, small)".into());
    }
    match seconds {
        Some(s) => out.seconds = s,
        None if out.smoke => out.seconds = 2.0,
        None => {}
    }
    if !(out.seconds > 0.0 && out.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(out)
}

/// One run's results: the contract fields plus what only the full
/// document carries.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    defs: &'static [MetricDef],
    extra: Vec<(&'static str, Json)>,
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn end_to_end(args: &Args, workload: Workload) -> Result<Outcome, String> {
    let spec = workload.spec(args.smoke);
    let mut setups_s = Vec::new();
    let mut world = None;
    for _ in 0..if args.smoke { 1 } else { SETUPS_PER_RUN } {
        // the previous world goes first: two archives never coexist
        drop(world.take());
        let (w, secs) = World::setup(spec, args.seed)?;
        setups_s.push(secs);
        world = Some(w);
    }
    let world = world.ok_or("no setup ran")?;
    let measure = Duration::from_secs_f64(args.seconds);
    let report = driver::run(&world, measure.mul_f64(0.05), measure)?;
    for f in &report.failures {
        eprintln!("FAILED: {f}");
    }
    let lat = report.latencies_ms();
    let raw = report::end_to_end_raw(&report, &setups_s);
    let speed = report.calibration.speed();
    let mut by_kind = std::collections::BTreeMap::new();
    for kind in ["threshold", "pdf", "topk", "points"] {
        let l: Vec<f64> = report
            .samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.latency_s * 1e3)
            .collect();
        if !l.is_empty() {
            let l = stats::sorted(&l);
            by_kind.insert(
                kind.to_string(),
                Json::obj([
                    ("samples", num(l.len() as f64)),
                    ("p50_ms", num(stats::percentile(&l, 50.0).unwrap_or(0.0))),
                    ("p90_ms", num(stats::percentile(&l, 90.0).unwrap_or(0.0))),
                ]),
            );
        }
    }
    let extra = vec![
        ("clients", num(report.clients as f64)),
        ("samples", num(report.samples.len() as f64)),
        ("busy", num(report.busy as f64)),
        (
            "setups_s",
            Json::Arr(setups_s.iter().copied().map(num).collect()),
        ),
        ("driver.untimed_frac", num(report.untimed_frac())),
        // what the metrics were before scaling to the nominal machine
        ("speed_index", num(speed)),
        (
            "calibration_bursts",
            num(report.calibration.bursts() as f64),
        ),
        (
            "calibration_us",
            Json::Obj(
                calib::Kernel::ALL
                    .iter()
                    .map(|&k| {
                        (
                            k.name().to_string(),
                            num(1e6 * report.calibration.typical_s(k)),
                        )
                    })
                    .collect(),
            ),
        ),
        ("raw", raw.to_json(END_TO_END)),
        ("cache.hit_frac", num(report.cache_hit_frac())),
        // informational: the contract wants every end-to-end metric on
        // every workload, and the scan workloads collect too few samples
        // for a p99 with ten samples beyond it
        ("p99_ms", num(stats::percentile(&lat, 99.0).unwrap_or(0.0))),
        (
            "p99_supported",
            Json::Bool(stats::tail_supported(lat.len(), 99.0)),
        ),
        (
            "p90_supported",
            Json::Bool(stats::tail_supported(lat.len(), 90.0)),
        ),
        ("by_kind", Json::Obj(by_kind)),
    ];
    Ok(Outcome {
        attempted: report.attempted,
        failed: report.failed,
        metrics: report::scaled_to_nominal(&raw, speed),
        defs: END_TO_END,
        extra,
    })
}

fn traced(args: &Args, workload: Workload) -> Result<Outcome, String> {
    let (world, _) = World::setup(workload.spec(args.smoke), args.seed)?;
    // about half the run replays queries, the rest is micro-timings
    let replay = layers::Replay::new(&world).run(args.seconds * 0.5, MAX_REPLAYED)?;
    for f in &replay.failures {
        eprintln!("FAILED: {f}");
    }
    let micro = micro::run(&world, (args.seconds / 150.0).min(0.05))?;
    let metrics = report::per_layer(&replay, &micro);
    let budget = trace::budget(replay.recorder.spans());
    eprint!("{}", budget.render(workload.name()));
    let t = &replay.times;
    eprintln!(
        "  altitude means, ms: untraced client {:.3}, client {:.3}, handle_line {:.3}, service {:.3}, cluster {:.3}, Σ nodes {:.3}",
        1e3 * stats::mean(&t.untraced_rtt_s),
        1e3 * stats::mean(&t.rtt_s),
        1e3 * stats::mean(&t.handle_s),
        1e3 * stats::mean(&t.service_s),
        1e3 * stats::mean(&t.cluster_s),
        1e3 * stats::mean(&t.node_sum_s),
    );
    let path = format!("{OUT_DIR}/trace.{}.json", workload.name());
    let doc = trace::to_json(workload.name(), args.seed, replay.recorder.spans());
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, doc.encode()))
        .map_err(|e| format!("{path}: {e}"))?;
    let extra = vec![
        ("replayed_queries", num(replay.queries.len() as f64)),
        ("spans", num(replay.recorder.spans().len() as f64)),
        (
            "slowest_layer",
            Json::Str(budget.slowest().name().to_string()),
        ),
        ("trace_file", Json::Str(path)),
    ];
    Ok(Outcome {
        attempted: replay.attempted,
        failed: replay.failed,
        metrics,
        defs: PER_LAYER,
        extra,
    })
}

/// The full result document: who ran what where, then the metrics.
fn document(args: &Args, workload: Workload, trace: bool, o: &Outcome) -> Json {
    let mut doc = std::collections::BTreeMap::new();
    let mut put = |k: &str, v: Json| {
        doc.insert(k.to_string(), v);
    };
    put("benchmark", Json::Str("perf".into()));
    put("workload", Json::Str(workload.name().into()));
    put("seed", num(args.seed as f64));
    put("seconds", num(args.seconds));
    put("trace", Json::Bool(trace));
    put("smoke", Json::Bool(args.smoke));
    put(
        "nproc",
        num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
    );
    put("git_commit", Json::Str(report::git_commit()));
    put("attempted", num(o.attempted as f64));
    put("failed", num(o.failed as f64));
    put(
        "fail_frac",
        num(stats::ratio(o.failed as f64, o.attempted as f64)),
    );
    for (k, v) in &o.extra {
        put(k, v.clone());
    }
    put("metrics", o.metrics.to_json(o.defs));
    Json::Obj(doc)
}

/// Runs one workload once, prints the full document and then the contract
/// line, and returns whether every answer was correct.
fn run_and_print(args: &Args, workload: Workload, trace: bool) -> Result<bool, String> {
    let outcome = if trace {
        traced(args, workload)?
    } else {
        end_to_end(args, workload)?
    };
    outcome.metrics.validate(outcome.defs)?;
    let doc = document(args, workload, trace, &outcome).encode();
    if let Some(path) = &args.append {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{doc}"))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{doc}");
    println!(
        "{}",
        report::contract_line(
            outcome.attempted,
            outcome.failed,
            &outcome.metrics,
            outcome.defs
        )
        .encode()
    );
    Ok(outcome.failed == 0)
}

/// All four workloads and their traces at smoke scale.
fn smoke_all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for w in Workload::ALL {
        for trace in [false, true] {
            ok &= run_and_print(args, w, trace)?;
        }
    }
    Ok(ok)
}

fn real_main(argv: &[String]) -> Result<bool, String> {
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv {
            [_, a, b] => compare::main(a, b),
            _ => Err(USAGE.into()),
        };
    }
    if argv == ["manifest"] {
        print!("{}", report::pretty(&report::manifest()));
        return Ok(true);
    }
    let args = parse_args(argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    match args.workload {
        Some(w) => run_and_print(&args, w, args.trace),
        None => smoke_all(&args),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&argv) {
        Ok(true) => {}
        // wrong answers, Busy or degraded: the result line is out, the
        // exit code says not to trust it
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perf: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse_args(&argv(
            "--workload mixed_zipf --seed 42 --seconds 20 --trace 1",
        ))
        .expect("the acceptance driver's arguments");
        assert_eq!(a.workload, Some(Workload::MixedZipf));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (42, 20.0, true, false)
        );
        assert!(
            !parse_args(&argv("--workload cold_scan --seed 1 --trace 0"))
                .expect("parses")
                .trace
        );
        assert_eq!(parse_args(&argv("--smoke")).expect("parses").seconds, 2.0);
        assert!(parse_args(&argv("--seed 3")).is_err());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload cold_scan --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload cold_scan --bogus")).is_err());
    }

    /// The whole benchmark end to end at smoke scale (32³ archives): four
    /// workloads and their traced runs, every answer checked against the
    /// oracle at every altitude, every catalogue metric produced.
    #[test]
    fn smoke_runs_all_workloads_and_traces() {
        let args = parse_args(&argv("--smoke --seconds 1 --seed 7")).expect("parses");
        for w in Workload::ALL {
            for trace in [false, true] {
                let outcome = if trace {
                    traced(&args, w)
                } else {
                    end_to_end(&args, w)
                }
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name()));
                assert_eq!(outcome.failed, 0, "{} trace={trace}", w.name());
                assert!(outcome.attempted > 0);
                outcome
                    .metrics
                    .validate(outcome.defs)
                    .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name()));
                let doc = document(&args, w, trace, &outcome);
                assert_eq!(Json::parse(&doc.encode()).expect("document parses"), doc);
                if trace {
                    let hit = outcome.metrics.get("cache.hit_frac").expect("hit_frac");
                    match w {
                        Workload::WarmCache => assert_eq!(hit, 1.0),
                        Workload::MixedZipf => assert!(hit > 0.0 && hit < 1.0, "{hit}"),
                        _ => assert_eq!(hit, 0.0),
                    }
                }
            }
        }
    }
}
