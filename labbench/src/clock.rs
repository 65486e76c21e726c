//! The process's CPU clock.
//!
//! The benchmark's times are CPU time of the whole process (every
//! thread, finished ones included), not wall time: on a shared
//! virtual machine the wall clock also counts the time the host gives
//! to other guests, which drifts by 1.5–2× over minutes (README.md,
//! Noise).

use std::os::raw::{c_int, c_long};

/// `struct timespec` of the C library.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// CPU seconds the process has used so far.
pub fn cpu_time_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let start = cpu_time_s();
        let mut x = 0u64;
        while cpu_time_s() - start < 0.01 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_time_s() > start);
    }
}
