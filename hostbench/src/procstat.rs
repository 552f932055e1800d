//! Process CPU time and peak resident set size, from `getrusage(2)`.
//!
//! `getrusage` counts every thread the process ever ran (the sweep
//! harness's workers come and go) at microsecond resolution; the
//! clock-tick fields of `/proc/self/stat` are 10 ms coarse, too coarse
//! for a sub-second repetition. The function is declared directly, as
//! the trace crate declares `mmap`, since the workspace has no `libc`.

use std::mem::MaybeUninit;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 `long`s of
/// which the first is `ru_maxrss` (KiB).
#[repr(C)]
#[derive(Clone, Copy)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// `RUSAGE_SELF`: the calling process, all its threads.
const RUSAGE_SELF: i32 = 0;

fn usage() -> Option<Rusage> {
    let mut ru = MaybeUninit::<Rusage>::zeroed();
    // SAFETY: on 64-bit Linux `Rusage` has the layout of `struct rusage`
    // (2 × 16-byte timeval + 14 × 8-byte long = 144 bytes), so the kernel
    // writes only inside the zero-initialized buffer; a zeroed `Rusage`
    // is a valid value whether or not the call succeeds.
    let rc = unsafe { getrusage(RUSAGE_SELF, ru.as_mut_ptr()) };
    // SAFETY: zero-initialized above, and every bit pattern of `i64`
    // fields is valid.
    (rc == 0).then(|| unsafe { ru.assume_init() })
}

/// User + system CPU seconds this process has used so far (all threads,
/// finished ones included), or 0 if the call fails.
pub fn cpu_seconds() -> f64 {
    usage().map_or(0.0, |ru| {
        let secs = |t: Timeval| t.sec as f64 + t.usec as f64 / 1e6;
        secs(ru.utime) + secs(ru.stime)
    })
}

/// Peak resident set size of this process in MiB, or 0 if the call
/// fails.
pub fn peak_rss_mb() -> f64 {
    usage().map_or(0.0, |ru| ru.maxrss as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn struct_matches_the_kernel_layout() {
        assert_eq!(std::mem::size_of::<Rusage>(), 144);
    }

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_positive() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_seconds() > before, "{x}");
        assert!(peak_rss_mb() > 0.0);
    }
}
