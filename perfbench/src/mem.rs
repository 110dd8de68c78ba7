//! Process memory, read from `/proc/self/status`.

/// Current resident set in MiB (`VmRSS`).
pub fn rss_mib() -> f64 {
    status_kib("VmRSS:") / 1024.0
}

/// Peak resident set of this process in MiB (`VmHWM`). It only ever
/// grows, so each measured run needs a process of its own.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

fn status_kib(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {key} line"))
}
