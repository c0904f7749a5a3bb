//! Cold campaign runs: each one is a fresh `mbbench child` process,
//! timed from its own `main` entry, doing what `mb-lab run` does —
//! look the campaign up, open a fresh journal, drive every slot
//! through `mb_lab::driver::run_campaign_with`, and check the digest.
//!
//! The child checks its digest against the pin and exits 1 on a
//! mismatch; otherwise it prints one `mbbench-child key=value …` line,
//! and the parent ([`run_child`]) adds the spawn-to-exit wall time it
//! saw from outside.

use crate::catalog::pinned_digest;
use mb_lab::campaign;
use mb_lab::driver::{run_campaign_with, RunOptions};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// What a child does after looking its campaign up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Set-up only: `run_campaign_with(max_slots: Some(0))` on a fresh
    /// journal (lookup, task labels, journal create and lock), no slot.
    Setup,
    /// The whole campaign.
    Run,
}

impl Mode {
    fn as_str(self) -> &'static str {
        match self {
            Mode::Setup => "setup",
            Mode::Run => "run",
        }
    }

    fn parse(text: &str) -> Option<Mode> {
        [Mode::Setup, Mode::Run]
            .into_iter()
            .find(|m| m.as_str() == text)
    }
}

/// The journal a child writes inside its directory.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join("campaign.journal")
}

/// What one child reported.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildReport {
    /// Seconds from the child's `main` entry to the end of its work
    /// (set-up for [`Mode::Setup`], the verified digest otherwise).
    pub secs: f64,
    /// Spawn-to-exit seconds, seen by the parent.
    pub wall_s: f64,
    /// The child's peak resident set (`VmHWM`), MB.
    pub rss_mb: f64,
    /// Seconds inside `run_campaign_with`.
    pub run_s: f64,
    /// Every slot's `run_slot` seconds, as the driver timed them
    /// (`RunOutcome::slot_secs`); empty for [`Mode::Setup`].
    pub slot_s: Vec<f64>,
}

/// Runs `campaign` in a fresh child process with its journal in `dir`,
/// one worker thread (`MB_THREADS=1`).
///
/// # Errors
///
/// A spawn failure, a nonzero exit (including a digest that misses its
/// pin) or an unreadable report line.
pub fn run_child(
    exe: &Path,
    campaign: &str,
    mode: Mode,
    dir: &Path,
) -> Result<ChildReport, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let started = Instant::now();
    let out = Command::new(exe)
        .arg("child")
        .arg(campaign)
        .arg("--dir")
        .arg(dir)
        .arg("--mode")
        .arg(mode.as_str())
        .env("MB_THREADS", crate::bench::MB_THREADS)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
    let wall_s = started.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!(
            "{campaign} ({}) child failed: {}",
            mode.as_str(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("mbbench-child "))
        .ok_or_else(|| format!("{campaign} child printed no report"))?;
    let field = |key: &str| {
        line.split(' ')
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            .ok_or_else(|| format!("{campaign} child report lacks {key}"))
    };
    let number = |key: &str| -> Result<f64, String> {
        field(key)?
            .parse()
            .map_err(|_| format!("{campaign} child report: bad {key}"))
    };
    let slot_s = match field("slots")? {
        "" => Vec::new(),
        list => list
            .split(',')
            .map(|s| {
                s.parse()
                    .map_err(|_| format!("{campaign} child report: bad slots"))
            })
            .collect::<Result<_, _>>()?,
    };
    Ok(ChildReport {
        secs: number("secs")?,
        wall_s,
        rss_mb: number("rss_kb")? / 1024.0,
        run_s: number("run_s")?,
        slot_s,
    })
}

/// The child side: `mbbench child <campaign> --dir <d> --mode <m>`.
/// `started` is taken first thing in `main`.
pub fn child_main(started: Instant, args: &[String]) -> ExitCode {
    let (Some(name), Some(dir), Some(mode)) = (
        args.first(),
        flag(args, "--dir").map(PathBuf::from),
        flag(args, "--mode").and_then(Mode::parse),
    ) else {
        eprintln!("usage: mbbench child <campaign> --dir <path> --mode setup|run");
        return ExitCode::from(2);
    };
    let Some(found) = campaign::find(name) else {
        eprintln!("mbbench child: unknown campaign '{name}'");
        return ExitCode::from(2);
    };
    let journal = journal_path(&dir);
    let opts = match mode {
        Mode::Setup => RunOptions {
            max_slots: Some(0),
            ..RunOptions::default()
        },
        Mode::Run => RunOptions::default(),
    };
    let run_started = Instant::now();
    let outcome = match run_campaign_with(found.as_ref(), &journal, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mbbench child: {name}: {e}");
            return ExitCode::from(1);
        }
    };
    let run_s = run_started.elapsed().as_secs_f64();
    let digest = match (mode, outcome.digest) {
        (Mode::Setup, _) => "none".to_string(),
        (_, Some(d)) if Some(d) == pinned_digest(name) => format!("{d:#018x}"),
        (_, got) => {
            eprintln!("mbbench child: {name}: digest {got:x?} does not match its pin");
            return ExitCode::from(1);
        }
    };
    let secs = started.elapsed().as_secs_f64();
    let rss_kb = match crate::peak_rss_kb(None) {
        Ok(kb) => kb,
        Err(e) => {
            eprintln!("mbbench child: {e}");
            return ExitCode::from(1);
        }
    };
    let slots: Vec<String> = outcome
        .slot_secs
        .iter()
        .map(|(_, secs)| secs.to_string())
        .collect();
    println!(
        "mbbench-child secs={secs} rss_kb={rss_kb} digest={digest} run_s={run_s} slots={}",
        slots.join(",")
    );
    ExitCode::SUCCESS
}

/// The value after `name` in `args`.
pub fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}
