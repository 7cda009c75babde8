//! Measurements taken from outside the program: process CPU time,
//! per-thread scheduler statistics, and order statistics.

use std::collections::HashMap;
use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const PR_SET_TIMERSLACK: i32 = 29;

/// CPU time (user + system) of every thread this process has run,
/// exited ones included, in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of
    // the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// With `tight`, makes the calling thread's sleeps end as close to
/// their deadline as the kernel allows (1 ns timer slack instead of the
/// default 50 µs), so the open-loop generator wakes when a packet is
/// due; without, restores the default. Threads spawned meanwhile would
/// inherit the tight slack, so the system under test must be started
/// with it off.
pub fn timer_slack(tight: bool) {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument (0
    // restores the default) and touches only the calling thread's
    // scheduling attributes.
    unsafe {
        prctl(PR_SET_TIMERSLACK, u64::from(tight));
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One thread's scheduler statistics.
#[derive(Debug, Clone)]
pub struct ThreadStat {
    /// The thread's name (`comm`).
    pub name: String,
    /// Nanoseconds spent running on a CPU.
    pub run_ns: u64,
    /// Nanoseconds spent runnable but waiting for a CPU.
    pub wait_ns: u64,
}

/// Scheduler statistics of every live thread of this process, by
/// thread id (`/proc/self/task/*/schedstat`).
pub fn threads() -> HashMap<u64, ThreadStat> {
    let mut out = HashMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse::<u64>().ok()) else {
            continue;
        };
        let path = entry.path();
        let (Ok(comm), Ok(stat)) =
            (fs::read_to_string(path.join("comm")), fs::read_to_string(path.join("schedstat")))
        else {
            continue; // the thread exited between listing and reading
        };
        let mut fields = stat.split_whitespace().map(|f| f.parse::<u64>().unwrap_or(0));
        let run_ns = fields.next().unwrap_or(0);
        let wait_ns = fields.next().unwrap_or(0);
        out.insert(tid, ThreadStat { name: comm.trim().to_string(), run_ns, wait_ns });
    }
    out
}

/// Run and wait seconds accrued between two [`threads`] snapshots by
/// the threads whose name satisfies `select`. A thread born after
/// `before` counts from zero; one that died before `after` is lost.
pub fn stage_delta(
    before: &HashMap<u64, ThreadStat>,
    after: &HashMap<u64, ThreadStat>,
    select: impl Fn(&str) -> bool,
) -> (f64, f64) {
    let (mut run, mut wait) = (0u64, 0u64);
    for (tid, now) in after {
        if !select(&now.name) {
            continue;
        }
        let (run0, wait0) = before.get(tid).map_or((0, 0), |b| (b.run_ns, b.wait_ns));
        run += now.run_ns.saturating_sub(run0);
        wait += now.wait_ns.saturating_sub(wait0);
    }
    (run as f64 * 1e-9, wait as f64 * 1e-9)
}

/// This process's peak resident memory (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nanoseconds the calling thread has spent on a CPU.
pub fn own_run_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0)
}

/// Value at quantile `q` (0..=1) of an ascending slice, by nearest
/// rank; 0 for an empty slice.
pub fn quantile<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A 64-bit mix of `x` (splitmix64's finaliser), for seeded inputs.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
