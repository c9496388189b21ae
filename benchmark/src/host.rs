//! What the host charges the process: CPU time and memory from `/proc`, a
//! fixed calibration kernel, and the benchmark's own counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// `USER_HZ`: the unit of the `utime`/`stime` fields of `/proc/<pid>/stat`.
/// Fixed at 100 on every Linux ABI, independent of the kernel's tick rate.
const TICKS_PER_S: f64 = 100.0;

/// `(utime, stime)` in clock ticks from the text of `/proc/<pid>/stat`. The
/// second field is the executable name in parentheses and may itself hold
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
}

/// The `kB` value of `key` (e.g. `VmHWM`) from the text of
/// `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?.trim();
        value.strip_suffix("kB")?.trim().parse().ok()
    })
}

/// User + system CPU seconds of the whole process so far (10 ms steps).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_stat_ticks(&stat).map_or(f64::NAN, |(u, s)| (u + s) as f64 / TICKS_PER_S)
}

fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_status_kb(&status, key).map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// Peak resident set of the process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Current resident set, MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

/// Wall time of a fixed single-threaded integer kernel (about 20 ms on the
/// reference host). Run between passes: when two runs of the same code
/// disagree, a matching shift here pins it on the host, not the program.
pub fn calib_ms() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..12_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus an exact allocation count, taken only while
/// [`count_allocations`] runs (the traced run's single-threaded layer
/// drives); otherwise the hook is one relaxed load per allocation.
pub struct CountingAllocator;

// SAFETY: every method delegates verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the added atomics touch no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout, forwarded to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout, forwarded to the system allocator.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `work` and returns its result with the number of heap allocations
/// the whole process made meanwhile — exact for the calling thread when no
/// other thread allocates, which holds in the single-threaded layer drives.
pub fn count_allocations<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = work();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_last_parenthesis() {
        let stat = "4242 (odd name) x) R 1 4242 4242 0 -1 4194304 900 0 3 0 \
                    1234 56 0 0 20 0 9 0 100 200 300";
        assert_eq!(parse_stat_ticks(stat), Some((1234, 56)));
        assert_eq!(parse_stat_ticks("4242 (short) R 1 2"), None);
        assert_eq!(parse_stat_ticks("no parenthesis"), None);
    }

    #[test]
    fn status_values_are_read_by_exact_key() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t   2048 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(123_456));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(2048));
        assert_eq!(parse_status_kb(status, "Vm"), None);
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn own_proc_files_parse() {
        assert!(cpu_seconds() >= 0.0);
        assert!(rss_mb() > 0.0 && peak_rss_mb() > 0.0);
    }
}
