//! Host-side measurements of the benchmark process itself: memory high
//! water mark, CPU time and run-queue wait of the measuring thread, and
//! the core count. These sit beside every host-time figure so that a
//! run disturbed by other load on the machine shows as such.

use std::time::Instant;

/// A `VmHWM`/`VmRSS`-style field of `/proc/self/status`, in MiB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Peak resident set size of the process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size, MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Cores the process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// `(cpu_ns, runqueue_wait_ns)` of the calling thread, from
/// `/proc/thread-self/schedstat`; zeros where the kernel lacks it.
fn schedstat() -> (u64, u64) {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut it = s.split_whitespace().map(|v| v.parse::<u64>().unwrap_or(0));
    (it.next().unwrap_or(0), it.next().unwrap_or(0))
}

/// Wall time, thread CPU time and run-queue wait over one timed region.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timed {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub rq_wait_s: f64,
}

/// Time `f`, returning its result with the wall/CPU/wait figures.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let (cpu0, wait0) = schedstat();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let (cpu1, wait1) = schedstat();
    let t = Timed {
        wall_s,
        cpu_s: cpu1.saturating_sub(cpu0) as f64 / 1e9,
        rq_wait_s: wait1.saturating_sub(wait0) as f64 / 1e9,
    };
    (out, t)
}
