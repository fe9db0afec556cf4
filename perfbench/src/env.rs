//! The environment a run measures in: variables that would silently change
//! what is measured, the stamp recorded with every result, and the
//! directory the benchmark writes into.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Environment variables whose name starts with `TMI_`. The simulator
/// reads its accelerator, host-thread and executor-pool settings from
/// such variables; any of them set changes what a run measures, so the
/// benchmark refuses to start (and refuses the whole prefix, so a knob
/// renamed or removed later needs no edit here).
pub fn refused_vars() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("TMI_"))
        .collect();
    names.sort();
    names
}

/// What a result depends on besides the code: recorded with every run.
#[derive(Clone, Debug, PartialEq)]
pub struct Stamp {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// Host cores available to the process.
    pub nproc: usize,
    /// `rustc --version`.
    pub rustc: String,
    /// Filesystem type under the service data directory (`stat -f`);
    /// journal fsync cost depends on it.
    pub fs_type: String,
}

impl Stamp {
    /// Collects the stamp; `data_dir` must exist.
    pub fn collect(data_dir: &Path) -> Stamp {
        Stamp {
            git_rev: command_line("git", &["rev-parse", "HEAD"]),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: command_line("rustc", &["--version"]),
            fs_type: command_line("stat", &["-f", "-c", "%T", &data_dir.to_string_lossy()]),
        }
    }
}

/// The first line a command prints, or `unknown` if it cannot run or
/// fails.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(|l| l.trim().to_string())
        })
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The directory runs write into: `perfbench-run` under the cargo target
/// directory (`CARGO_TARGET_DIR` if set, else this package's `target`).
pub fn run_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("perfbench-run")
}

/// The high-water resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
