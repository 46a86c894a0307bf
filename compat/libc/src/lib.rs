//! Offline shim for the `libc` crate: only the items this workspace uses
//! (per-thread CPU clocks on Linux).

#![allow(non_camel_case_types)]

pub type c_int = i32;
pub type c_long = i64;
pub type time_t = i64;
pub type clockid_t = c_int;

#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct timespec {
    pub tv_sec: time_t,
    pub tv_nsec: c_long,
}

/// Linux clock id for the calling thread's consumed CPU time.
pub const CLOCK_THREAD_CPUTIME_ID: clockid_t = 3;

extern "C" {
    pub fn clock_gettime(clk_id: clockid_t, tp: *mut timespec) -> c_int;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_clock_ticks() {
        let mut ts = timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0);
        assert!(ts.tv_sec >= 0 && ts.tv_nsec >= 0);
    }
}
