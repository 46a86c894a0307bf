//! Per-thread CPU time.
//!
//! Worker compute is measured with `CLOCK_THREAD_CPUTIME_ID` rather than
//! wall-clock: the simulated nodes all share this machine's cores, so a
//! wall clock would charge one node's chunks for another node's
//! scheduling pressure. Thread CPU time is what the chunk actually cost,
//! and the node time model turns it back into elapsed time at the
//! configured process count.

/// Seconds of CPU time consumed by the calling thread.
pub fn thread_cpu_time_s() -> f64 {
    let mut ts = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: ts is a valid out-pointer; the clock id is a constant.
    let rc = unsafe { libc::clock_gettime(libc::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    debug_assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Measures the thread CPU time spent in `f`.
    fn measure_cpu<T>(f: impl FnOnce() -> T) -> (T, f64) {
        let before = thread_cpu_time_s();
        let out = f();
        (out, (thread_cpu_time_s() - before).max(0.0))
    }

    #[test]
    fn cpu_time_is_monotone_and_counts_work() {
        let (_, t) = measure_cpu(|| {
            let mut acc = 0u64;
            for i in 0..5_000_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            std::hint::black_box(acc)
        });
        assert!(t > 0.0, "busy loop must consume CPU time");
        assert!(t < 10.0);
    }

    #[test]
    fn sleeping_consumes_no_cpu_time() {
        let (_, t) = measure_cpu(|| std::thread::sleep(std::time::Duration::from_millis(30)));
        assert!(t < 0.01, "sleep charged {t}s of CPU");
    }
}
