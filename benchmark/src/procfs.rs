//! What Linux's `/proc` says about this process: CPU time, peak resident
//! set, and one named thread's CPU time. Plain file reads — the container
//! has no `libc` crate to call `getrusage` with.

use std::fs;

/// Kernel clock ticks per second of `/proc/<pid>/stat`'s `utime`/`stime`.
/// `USER_HZ` is 100 on every Linux ABI; `sysconf` would need `libc`.
const USER_HZ: u64 = 100;

/// User + system CPU time of the whole process so far, nanoseconds,
/// including threads that have already exited. 10 ms granularity.
pub fn process_cpu_ns() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields resume after
    // the closing parenthesis with field 3.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |field: usize| -> u64 { fields[field - 3].parse().expect("stat tick field") };
    (ticks(14) + ticks(15)) * (1_000_000_000 / USER_HZ)
}

/// Peak resident set size (`VmHWM`) of the process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Reset `VmHWM` to the current resident set (`clear_refs` value 5), so
/// that memory the harness used and freed before the request does not
/// count as the program's peak. Best effort: where `/proc` refuses the
/// write the peak simply includes the calibration table's 8 MiB.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// On-CPU time of the live thread named `name` (first field of its
/// `schedstat`, nanosecond resolution), or `None` when no such thread
/// exists right now.
pub fn thread_cpu_ns(name: &str) -> Option<u64> {
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let dir = entry.ok()?.path();
        let comm = fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if comm.trim_end() == name {
            let sched = fs::read_to_string(dir.join("schedstat")).ok()?;
            return sched.split_whitespace().next()?.parse().ok();
        }
    }
    None
}
