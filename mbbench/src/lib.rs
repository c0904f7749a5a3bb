//! # mbbench — the layered performance ledger
//!
//! One harness for the reproduction's host-side performance: how long a
//! paper campaign takes cold, how the campaign service performs under a
//! closed-loop job mix, and where the time goes layer by layer. Every
//! layer is measured from outside, by timing calls into its public
//! functions; nothing in the measured program is instrumented.
//!
//! | Module | Measures |
//! |---|---|
//! | [`cold`] | a campaign in a fresh process, `main` entry to verified digest |
//! | [`service`] | a live `mb-lab serve`: set-up, closed-loop submit → watch → verify |
//! | [`layers`] | kernels / `ModelExec` / `Hierarchy`+`Tlb` / fabric / journal split |
//! | [`bench`] | the workloads' end-to-end and per-layer measurements |
//! | [`catalog`] | workload, campaign, digest and metric tables |
//!
//! `BENCHMARK.md` beside this crate documents the workloads, metrics,
//! the layer → metric → end-to-end map, and how to run and compare.

pub mod bench;
pub mod catalog;
pub mod cold;
pub mod json;
pub mod layers;
pub mod service;
pub mod stats;

use json::Json;
use std::process::{Command, Stdio};

/// Peak resident set (`VmHWM`) in kB of process `pid`, or of this
/// process for `None`.
///
/// # Errors
///
/// When `/proc/<pid>/status` cannot be read or has no `VmHWM` line.
pub fn peak_rss_kb(pid: Option<u32>) -> Result<u64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// First line of `program args…`'s standard output, or `"unknown"`.
fn probe(program: &str, args: &[&str]) -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    Command::new(program)
        .args(args)
        // Keep `git` from searching above the directory it runs in.
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
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
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host record every result carries: cores, the worker-thread
/// setting the measured processes run with, commit, compiler and build
/// profile.
pub fn host() -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    json::obj([
        ("cores", Json::Num(cores as f64)),
        ("MB_THREADS", json::str(bench::MB_THREADS)),
        ("commit", json::str(probe("git", &["rev-parse", "HEAD"]))),
        ("rustc", json::str(probe("rustc", &["-V"]))),
        (
            "profile",
            json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ])
}
