//! CPU time of this process's `raincore-node-*` threads, read from
//! `/proc/self/task`, so the generator thread is excluded.

use std::fs;

/// Thread-name prefix of the node driver threads (the runtime's and the
/// traced copy's alike).
pub const NODE_THREAD: &str = "raincore-node-";

/// The tids of live threads whose name starts with [`NODE_THREAD`].
pub fn node_threads() -> Vec<u64> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut tids: Vec<u64> = dir
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .filter(|tid| {
            fs::read_to_string(format!("/proc/self/task/{tid}/comm"))
                .is_ok_and(|c| c.starts_with(NODE_THREAD))
        })
        .collect();
    tids.sort_unstable();
    tids
}

/// CPU time of thread `tid` in nanoseconds: the scheduler's on-CPU time
/// from `schedstat` (nanosecond resolution) where the kernel provides it,
/// else `utime + stime` from `stat` (clock ticks, assumed 100 Hz).
pub fn thread_cpu_ns(tid: u64) -> Option<u64> {
    let sched = fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok();
    if let Some(ns) = sched
        .as_deref()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .filter(|&ns| ns > 0)
    {
        return Some(ns);
    }
    let stat = fs::read_to_string(format!("/proc/self/task/{tid}/stat")).ok()?;
    // Fields after the parenthesised comm: state is field 3, utime 14,
    // stime 15 (1-based), i.e. indices 11 and 12 after the ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
    Some(ticks * 10_000_000)
}

/// Summed CPU nanoseconds of `tids` (threads that have exited count 0).
pub fn cpu_ns(tids: &[u64]) -> u64 {
    tids.iter().filter_map(|&t| thread_cpu_ns(t)).sum()
}
