//! Process accounting read from procfs: CPU time and peak resident memory.

use std::fs;

/// CPU time (user + system) this process has consumed so far, in seconds.
///
/// Summed from every live thread's `schedstat`, which the scheduler keeps in
/// nanoseconds; threads that already exited are not counted, so callers read
/// it while the threads they account for are still alive. Falls back to the
/// 10 ms ticks of `/proc/self/stat` where `schedstat` is not compiled in.
pub fn cpu_seconds() -> f64 {
    let mut total_ns = 0u64;
    let mut seen = false;
    if let Ok(tasks) = fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            let on_cpu = fs::read_to_string(task.path().join("schedstat"))
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok());
            if let Some(ns) = on_cpu {
                total_ns += ns;
                seen = true;
            }
        }
    }
    if seen {
        return total_ns as f64 / 1e9;
    }
    // Fields 14 and 15 (utime, stime) counted after the parenthesised
    // command name, in USER_HZ = 100 ticks.
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = s.rsplit_once(')')?.1.to_string();
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some((f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?) as f64 / 100.0)
        })
        .unwrap_or(0.0)
}

/// Restarts the kernel's peak-RSS watermark at the current RSS (writing `5`
/// to `clear_refs`). Where the kernel refuses, the watermark simply keeps
/// covering the whole process lifetime — on both sides of any comparison.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`) of this process since the last
/// [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores this process may run on (what `nproc` prints).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_is_readable() {
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        // Other test threads come and go, so only this thread's own burn is
        // certain to be in the sum.
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mb() > 0.0);
        reset_peak_rss();
        assert!(peak_rss_mb() > 0.0);
        assert!(host_cores() >= 1);
    }
}
