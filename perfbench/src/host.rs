//! What the numbers ran on: the host fingerprint stored with every
//! result, and the peak resident memory of a process.

use serde::{Number, Value};
use std::path::Path;
use std::process::{Command, Stdio};

/// The host half of a result's fingerprint. Two result files whose host
/// objects differ were not measured on the same machine and toolchain,
/// so `perf compare` warns before comparing them.
pub fn fingerprint(tmp_dir: &Path) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Value::Object(vec![
        ("nproc".into(), Value::Num(Number::U(nproc as u64))),
        ("cpu".into(), Value::Str(cpu)),
        ("kernel".into(), Value::Str(kernel)),
        ("rustc".into(), Value::Str(command_line("rustc", &["-V"]))),
        ("profile".into(), Value::Str(profile.into())),
        ("tmp_fs".into(), Value::Str(fs_type(tmp_dir))),
    ])
}

/// The source revision measured, when the working directory is the root
/// of a git checkout (git is not asked to search parent directories).
pub fn git_revision() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    command_line("git", &["--git-dir", ".git", "rev-parse", "HEAD"])
}

/// First line of a command's stdout, or `unknown` when it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `path` (fsync cost depends on
/// it): the longest mount point in `/proc/mounts` that prefixes the path.
fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// Peak resident set size (`VmHWM`) of process `pid` (`None` = this
/// process), in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
