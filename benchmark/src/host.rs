//! What the machine did while a number was measured: CPU time of the process
//! and of single threads, resident memory, and hypervisor steal. Linux
//! `/proc` only — the benchmark runs nowhere else.

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/*/stat`. `sysconf(_SC_CLK_TCK)` is 100 on every Linux port this
/// repository builds on; std has no call to ask.
const CLK_TCK: f64 = 100.0;

/// CPU seconds (user + system) the whole process has used, threads that have
/// already exited included — the planner's short-lived fan-out threads must
/// count as server work.
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name, which may contain spaces.
    let rest = stat.rsplit_once(')').expect("stat has a command field").1;
    let f: Vec<&str> = rest.split_whitespace().collect();
    // rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    let ticks: f64 = f[11].parse::<f64>().expect("utime") + f[12].parse::<f64>().expect("stime");
    ticks / CLK_TCK
}

/// CPU seconds the calling thread has spent on a processor, from
/// `schedstat` (nanosecond resolution). A generator thread reads this when
/// it starts and ends a round so its own cost can be taken off the process
/// total.
pub fn thread_cpu_s() -> f64 {
    let s = fs::read_to_string("/proc/thread-self/schedstat").expect("read thread schedstat");
    let ns: f64 = s.split_whitespace().next().expect("run time field").parse().expect("ns");
    ns / 1e9
}

/// Resident set size in MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmRSS line");
    kb / 1024.0
}

/// Machine-wide CPU ticks: (steal, total), from the first line of
/// `/proc/stat`. The difference of two readings gives the share of the
/// interval the hypervisor ran someone else.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let line = stat.lines().next().expect("cpu line");
    let v: Vec<u64> = line.split_whitespace().skip(1).filter_map(|x| x.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already inside user, so the total stops at steal.
    let total = v.iter().take(8).sum();
    (v.get(7).copied().unwrap_or(0), total)
}

/// Steal as a percentage of all CPU time between two [`cpu_ticks`] readings.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_return_plausible_values() {
        assert!(rss_mb() > 0.5);
        let t0 = thread_cpu_s();
        let p0 = process_cpu_s();
        let mut x = 0u64;
        for i in 0..30_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(thread_cpu_s() > t0, "spinning uses thread CPU");
        assert!(process_cpu_s() >= p0);
        let (steal, total) = cpu_ticks();
        assert!(total > 0 && steal <= total);
        assert_eq!(steal_pct((10, 1000), (15, 1100)), 5.0);
        assert_eq!(steal_pct((10, 1000), (10, 1000)), 0.0);
    }
}
