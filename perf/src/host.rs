//! What the kernel reports about this process.

use std::fs;

/// Peak resident set size so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Time this process has spent on a CPU so far, in seconds (first field
/// of `/proc/self/schedstat`, nanoseconds).
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/schedstat").ok()?;
    let ns: f64 = stat.split_whitespace().next()?.parse().ok()?;
    Some(ns / 1e9)
}

/// `nproc`, CPU model and compiler, for the record beside the numbers.
pub fn describe() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown CPU".into());
    format!("{cpus} x {model}, {}", env!("PERF_RUSTC_VERSION"))
}
