//! Host diagnostics read from `/proc`, so a slow host phase can be told
//! apart from a change in the program.

/// Counters sampled at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSample {
    /// On-CPU nanoseconds, summed over this process's threads.
    pub on_cpu_ns: u64,
    /// Nanoseconds this process's threads waited on a run queue.
    pub runqueue_ns: u64,
    /// Steal ticks of the whole machine (`/proc/stat`).
    pub steal_ticks: u64,
    /// Minor page faults of this process.
    pub minor_faults: u64,
}

impl HostSample {
    /// Read the counters now. Missing files read as zero.
    pub fn now() -> HostSample {
        let (on_cpu_ns, runqueue_ns) = thread_schedstat_sum();
        HostSample {
            on_cpu_ns,
            runqueue_ns,
            steal_ticks: steal_ticks(),
            minor_faults: minor_faults(),
        }
    }
}

/// Diagnostics over an interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostDiag {
    /// On-CPU time of this process over wall time.
    pub cpu_share: f64,
    /// Run-queue wait of this process's threads, in milliseconds.
    pub runqueue_wait_ms: f64,
    /// Steal ticks of the machine.
    pub steal_ticks: u64,
    /// Minor page faults of this process.
    pub minor_faults: u64,
}

impl HostDiag {
    /// Diagnostics between two samples `wall_s` seconds apart.
    pub fn between(a: &HostSample, b: &HostSample, wall_s: f64) -> HostDiag {
        HostDiag {
            cpu_share: b.on_cpu_ns.saturating_sub(a.on_cpu_ns) as f64 / 1e9 / wall_s.max(1e-9),
            runqueue_wait_ms: b.runqueue_ns.saturating_sub(a.runqueue_ns) as f64 / 1e6,
            steal_ticks: b.steal_ticks.saturating_sub(a.steal_ticks),
            minor_faults: b.minor_faults.saturating_sub(a.minor_faults),
        }
    }
}

fn thread_schedstat_sum() -> (u64, u64) {
    let mut sum = (0, 0);
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return sum;
    };
    for task in dir.flatten() {
        let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) else {
            continue;
        };
        let mut it = text
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        sum.0 += it.next().unwrap_or(0);
        sum.1 += it.next().unwrap_or(0);
    }
    sum
}

fn steal_ticks() -> u64 {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    text.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

fn minor_faults() -> u64 {
    let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; minflt is field 10.
    text.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread, and every thread and process it starts
/// afterwards, to the lowest-numbered CPU it may run on. Returns that
/// CPU, or `None` when the kernel refused. Call before starting any
/// thread.
///
/// With one closed-loop client the workloads need one core. Keeping the
/// server's threads off a second core avoids hand-offs that pay its
/// scheduling delays, and always choosing the same core keeps runs
/// comparable on hosts whose cores differ in speed.
pub fn pin_to_first_cpu() -> Option<usize> {
    let mut mask = [0u64; 16]; // a 1024-bit cpu_set_t
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live 128-byte buffer for the whole call and
    // `cpusetsize` is its size; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().find(|(_, w)| **w != 0)?;
    let cpu = word * 64 + bits.trailing_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << (cpu % 64);
    // SAFETY: as above, with `one` as the mask.
    let rc = unsafe { sched_setaffinity(0, size, one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
