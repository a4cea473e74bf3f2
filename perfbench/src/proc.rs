//! Per-thread CPU time and process memory, on Linux.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const THREAD_CPUTIME: i32 = 3;

/// CPU time of the calling thread in ns. `/proc/thread-self/stat` and
/// `schedstat` only advance at scheduler ticks (milliseconds) while a
/// thread runs, too coarse for a one-millisecond epoch; the thread CPU
/// clock is exact.
pub fn thread_cpu_ns() -> u64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that lives across the call, and
    // `CLOCK_THREAD_CPUTIME_ID` is a clock every Linux kernel provides.
    let rc = unsafe { clock_gettime(THREAD_CPUTIME, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    t.tv_sec as u64 * 1_000_000_000 + t.tv_nsec as u64
}

fn status_kb(path: &str, key: &str) -> Option<u64> {
    let s = std::fs::read_to_string(path).ok()?;
    let line = s.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Resident set size of this process in KiB.
pub fn rss_kb() -> u64 {
    status_kb("/proc/self/status", "VmRSS:").expect("/proc/self/status has VmRSS")
}

/// Peak resident set size (`VmHWM`) of this process in KiB.
pub fn peak_rss_kb() -> u64 {
    status_kb("/proc/self/status", "VmHWM:").expect("/proc/self/status has VmHWM")
}

/// Resident set size of process `pid` in KiB, if it still exists.
pub fn rss_kb_of(pid: u32) -> Option<u64> {
    status_kb(&format!("/proc/{pid}/status"), "VmRSS:")
}
