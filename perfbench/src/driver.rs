//! Closed-loop load: each client thread sends its next query only after
//! the previous answer arrived and was checked.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use tdb_wire::client::ClientError;

use crate::calib::{Calibration, Calibrator, BURST_EVERY_S};
use crate::oracle::Answer;
use crate::stats;
use crate::workload::{Query, Region};
use crate::world::World;

/// One answered query.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, seconds since measuring began.
    pub end_s: f64,
    /// Send → parsed answer.
    pub latency_s: f64,
    pub kind: &'static str,
    /// Modelled `breakdown` total (whole-time-step threshold queries
    /// only: one population on every workload).
    pub modelled_s: Option<f64>,
    /// Nodes that answered from their semantic cache, of `nodes`
    /// (threshold queries only).
    pub cache_hits: u32,
    pub nodes: u32,
}

#[derive(Debug, Default)]
pub struct RunReport {
    pub clients: usize,
    /// Length of the measured interval.
    pub measured_s: f64,
    pub samples: Vec<Sample>,
    pub attempted: u64,
    /// Errors, `Busy`, degraded answers and oracle mismatches.
    pub failed: u64,
    pub busy: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Client seconds spent in untimed driver work (state clears, answer
    /// verification, calibration bursts) during the measured interval.
    pub untimed_s: f64,
    /// Calibration bursts run between queries of the measured interval.
    pub calibration: Calibration,
}

impl RunReport {
    fn merge(&mut self, other: RunReport) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy += other.busy;
        self.untimed_s += other.untimed_s;
        self.calibration.absorb(other.calibration);
        for f in other.failures {
            if self.failures.len() < 5 {
                self.failures.push(f);
            }
        }
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        stats::sorted(
            &self
                .samples
                .iter()
                .map(|s| s.latency_s * 1e3)
                .collect::<Vec<_>>(),
        )
    }

    /// Correct answers per second of client time, as the median over
    /// `windows` equal slices of the measured interval. Client time is the
    /// answers' own latency, so untimed clears and verification between
    /// queries do not count against the program; with every client busy
    /// all the time this is completions per wall second.
    pub fn qps(&self, windows: usize) -> f64 {
        let width = self.measured_s / windows.max(1) as f64;
        let mut count = vec![0.0f64; windows];
        let mut busy = vec![0.0f64; windows];
        for s in &self.samples {
            let w = ((s.end_s / width) as usize).min(windows.saturating_sub(1));
            if let (Some(c), Some(b)) = (count.get_mut(w), busy.get_mut(w)) {
                *c += 1.0;
                *b += s.latency_s;
            }
        }
        let rates: Vec<f64> = count
            .iter()
            .zip(&busy)
            .filter(|(_, &b)| b > 0.0)
            .map(|(&c, &b)| c * self.clients as f64 / b)
            .collect();
        stats::median(&rates).unwrap_or(0.0)
    }

    /// Share of the clients' wall time that went into untimed driver work.
    pub fn untimed_frac(&self) -> f64 {
        stats::ratio(self.untimed_s, self.measured_s * self.clients as f64)
    }

    /// `Σ cache_hits / Σ nodes` over the threshold answers.
    pub fn cache_hit_frac(&self) -> f64 {
        let (hits, nodes) = self.samples.iter().fold((0u64, 0u64), |(h, n), s| {
            (h + u64::from(s.cache_hits), n + u64::from(s.nodes))
        });
        stats::ratio(hits as f64, nodes as f64)
    }
}

pub fn sample_of(query: &Query, answer: &Answer, end_s: f64, latency_s: f64) -> Sample {
    let (modelled_s, cache_hits, nodes) = match (query, answer) {
        (
            Query::Threshold { region, .. },
            Answer::Threshold {
                modelled_s,
                cache_hits,
                nodes,
                ..
            },
        ) => (
            (*region == Region::Whole).then_some(*modelled_s),
            *cache_hits,
            *nodes,
        ),
        _ => (None, 0, 0),
    };
    Sample {
        end_s,
        latency_s,
        kind: query.kind(),
        modelled_s,
        cache_hits,
        nodes,
    }
}

/// Runs the world's workload from `spec.clients` closed-loop clients:
/// `settle` of unrecorded traffic (caches and connections reach their
/// steady state), then `measure` of recorded traffic.
pub fn run(world: &World, settle: Duration, measure: Duration) -> Result<RunReport, String> {
    let clients = world.spec.clients;
    let barrier = Barrier::new(clients);
    let mut report = RunReport {
        clients,
        measured_s: measure.as_secs_f64(),
        ..Default::default()
    };
    let parts: Vec<Result<RunReport, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                let barrier = &barrier;
                scope.spawn(move || client_loop(world, id, barrier, settle, measure))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    for part in parts {
        report.merge(part?);
    }
    report
        .samples
        .sort_unstable_by(|a, b| a.end_s.total_cmp(&b.end_s));
    Ok(report)
}

fn client_loop(
    world: &World,
    id: usize,
    barrier: &Barrier,
    settle: Duration,
    measure: Duration,
) -> Result<RunReport, String> {
    let connected = world.connect();
    // every client reaches the barrier, connected or not, so one failed
    // connect cannot strand the others
    barrier.wait();
    let mut client = connected?;
    let mut out = RunReport::default();
    let mut calibrator = Calibrator::default();
    let started = Instant::now();
    let mut last_burst = Instant::now();
    for query in world.queries(id) {
        let begin = started.elapsed();
        if begin >= settle + measure {
            break;
        }
        let recorded = begin >= settle;
        let untimed = Instant::now();
        world.clear();
        let clear_s = untimed.elapsed().as_secs_f64();
        let sent = Instant::now();
        let result = world.issue(&mut client, &query);
        let latency_s = sent.elapsed().as_secs_f64();
        let end_s = (started.elapsed().as_secs_f64() - settle.as_secs_f64()).max(0.0);
        let untimed = Instant::now();
        let verdict = match &result {
            Ok(answer) => world.oracle.check(&query, answer),
            Err(e) => Err(format!("{query:?}: {e}")),
        };
        if !recorded {
            // a wrong answer while settling still fails the run
            if let Err(e) = verdict {
                return Err(format!("while settling: {e}"));
            }
            continue;
        }
        out.attempted += 1;
        match verdict {
            // a passing verdict implies an answer
            Ok(()) => {
                if let Ok(answer) = &result {
                    out.samples
                        .push(sample_of(&query, answer, end_s, latency_s));
                }
            }
            Err(e) => {
                out.failed += 1;
                if out.failures.len() < 5 {
                    out.failures.push(e);
                }
            }
        }
        if matches!(result, Err(ClientError::Busy { .. })) {
            out.busy += 1;
        }
        if last_burst.elapsed().as_secs_f64() >= BURST_EVERY_S {
            calibrator.sample();
            last_burst = Instant::now();
        }
        out.untimed_s += clear_s + untimed.elapsed().as_secs_f64();
    }
    out.calibration = calibrator.seen;
    Ok(out)
}
