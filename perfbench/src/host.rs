//! The host record every output carries: CPU count, git sha, rustc version,
//! and the workload seed.

use revmax_core::json::{self, JsonValue};
use std::process::Command;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit being measured, read from `.git` in the working directory;
/// a source checkout without `.git` reports `unknown`.
fn git_sha() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|sha| sha.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

pub fn record(seed: u64) -> JsonValue {
    json::object(vec![
        ("nproc", JsonValue::Number(nproc() as f64)),
        ("git_sha", JsonValue::String(git_sha())),
        ("rustc", JsonValue::String(rustc_version())),
        ("seed", JsonValue::Number(seed as f64)),
    ])
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
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
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
