//! Machine-speed calibration.
//!
//! The sandbox does not run at one speed. For tens of minutes at a time
//! the host runs everything here about 30 % slower than at other times
//! (`cold_scan` 47 → 36 q/s, `warm_cache` 3600 → 2600 q/s, from one run to
//! the next, with no steal time reported), and within either state it
//! wanders by another 5–10 %. Ten runs spread over an hour therefore
//! disagree by more than any regression bound, whatever the program does.
//!
//! So each run also times three fixed kernels of the benchmark's own —
//! independent of the program under test — in short bursts between
//! queries, and the wall-clock end-to-end metrics are scaled to a nominal
//! machine by what the bursts saw. In a trial of 20 short runs per
//! workload that straddled such a change of state, the interquartile
//! spread of `qps` fell from 23–39 % to 6–16 %. Raw values, the speed
//! index and the kernels' times are in the full result document.
//!
//! The kernels never touch the program, so a change to the program moves
//! the metrics and not the scale. A register-only compute chain was tried
//! and dropped: it saw a tenth of the slowdown the workloads did — the
//! slow state costs memory traffic, thread wake-ups and the second core,
//! not arithmetic.

use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// Seconds between bursts in a client's loop.
pub const BURST_EVERY_S: f64 = 0.1;

/// What one burst exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// A three-point stencil streamed over 2 MiB into 2 MiB: the caches.
    Memory,
    /// Eight thread spawn + join pairs: the scheduler and the syscall path.
    Threads,
    /// The stencil on two threads at once: both cores busy, as under load.
    Pair,
}

impl Kernel {
    pub const ALL: [Kernel; 3] = [Kernel::Memory, Kernel::Threads, Kernel::Pair];

    pub fn name(self) -> &'static str {
        match self {
            Kernel::Memory => "memory",
            Kernel::Threads => "threads",
            Kernel::Pair => "pair",
        }
    }

    /// Seconds the kernel takes on the nominal machine: about this
    /// sandbox in its slower, more usual state. Only ratios of metrics
    /// matter, so these fix the scale, not any verdict.
    pub fn nominal_s(self) -> f64 {
        match self {
            Kernel::Memory => 465e-6,
            Kernel::Threads => 720e-6,
            Kernel::Pair => 490e-6,
        }
    }
}

const STENCIL_LEN: usize = 512 * 1024;

/// Burst times of one run (or one client of it).
#[derive(Debug, Default, Clone)]
pub struct Calibration {
    /// Seconds per burst, per [`Kernel::ALL`] entry (declaration order).
    times: [Vec<f64>; 3],
}

impl Calibration {
    pub fn absorb(&mut self, other: Calibration) {
        for (mine, theirs) in self.times.iter_mut().zip(other.times) {
            mine.extend(theirs);
        }
    }

    pub fn bursts(&self) -> usize {
        self.times[0].len()
    }

    /// Median seconds of one kernel's bursts (its nominal time when none
    /// ran, so an uncalibrated run scales by 1).
    pub fn typical_s(&self, kernel: Kernel) -> f64 {
        stats::median(&self.times[kernel as usize]).unwrap_or(kernel.nominal_s())
    }

    /// Machine speed relative to the nominal machine (> 1 = faster): the
    /// geometric mean of the kernels' speeds.
    pub fn speed(&self) -> f64 {
        let log_sum: f64 = Kernel::ALL
            .iter()
            .map(|&k| (k.nominal_s() / self.typical_s(k)).ln())
            .sum();
        (log_sum / Kernel::ALL.len() as f64).exp()
    }
}

/// Runs the bursts of one client: the buffers the stencils stream
/// through, allocated once, and the times seen so far.
pub struct Calibrator {
    src: Vec<f32>,
    dst: Vec<f32>,
    dst2: Vec<f32>,
    pub seen: Calibration,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            src: (0..STENCIL_LEN).map(|i| (i % 97) as f32).collect(),
            dst: vec![0.0; STENCIL_LEN],
            dst2: vec![0.0; STENCIL_LEN],
            seen: Calibration::default(),
        }
    }
}

impl Calibrator {
    fn stencil(src: &[f32], dst: &mut [f32]) {
        let src = black_box(src);
        for (d, w) in dst.iter_mut().skip(1).zip(src.windows(3)) {
            if let [a, b, c] = w {
                *d = 0.25 * a + 0.5 * b + 0.25 * c;
            }
        }
        black_box(dst);
    }

    fn pair(&mut self) {
        let (src, dst, dst2) = (&self.src, &mut self.dst, &mut self.dst2);
        std::thread::scope(|scope| {
            scope.spawn(|| Self::stencil(src, dst2));
            Self::stencil(src, dst);
        });
    }

    fn threads() {
        for _ in 0..8 {
            // a failed spawn would show as a fast burst, never as a wrong
            // answer; the join result carries nothing
            let _ = std::thread::spawn(|| black_box(1u32)).join();
        }
    }

    /// Runs each kernel once and records its time.
    pub fn sample(&mut self) {
        for kernel in Kernel::ALL {
            let started = Instant::now();
            match kernel {
                Kernel::Memory => Self::stencil(&self.src, &mut self.dst),
                Kernel::Threads => Self::threads(),
                Kernel::Pair => self.pair(),
            }
            self.seen.times[kernel as usize].push(started.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_take_a_fraction_of_a_millisecond_each() {
        let mut c = Calibrator::default();
        for _ in 0..10 {
            c.sample();
        }
        assert_eq!(c.seen.bursts(), 10);
        for k in Kernel::ALL {
            let t = c.seen.typical_s(k);
            assert!(t > 10e-6 && t < 50e-3, "{}: {t} s", k.name());
        }
        assert!(c.seen.speed() > 0.01 && c.seen.speed() < 100.0);
        // the stencils really ran, on both threads
        assert_eq!(c.dst[1], 0.25 * 0.0 + 0.5 * 1.0 + 0.25 * 2.0);
        assert_eq!(c.dst2[1], c.dst[1]);
    }

    #[test]
    fn an_uncalibrated_run_scales_by_one() {
        assert_eq!(Calibration::default().speed(), 1.0);
        let mut a = Calibration::default();
        a.times[Kernel::Memory as usize].push(Kernel::Memory.nominal_s() / 2.0);
        let mut b = Calibration::default();
        b.absorb(a);
        // one kernel twice as fast, the others at nominal: ∛2
        assert!((b.speed() - 2f64.cbrt()).abs() < 1e-12);
        assert_eq!(Kernel::ALL.map(|k| k as usize), [0, 1, 2]);
    }
}
