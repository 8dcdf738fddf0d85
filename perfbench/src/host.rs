//! The host block printed with every result.

use std::process::Command;

/// `rustc -V` of the compiler that built the benchmark.
pub const RUSTC_VERSION: &str = env!("PERFBENCH_RUSTC_VERSION");

/// `std::thread::available_parallelism`, or 1 when it cannot be read.
#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checked-out commit when the working directory is a git checkout
/// root, else `"unknown"`.
#[must_use]
pub fn git_rev() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_owned();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_owned(),
        )
}

/// The process's peak resident set size (`VmHWM`) in MiB; 0 where
/// `/proc/self/status` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
