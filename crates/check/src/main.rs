//! The `mb-check` command-line interface.
//!
//! ```text
//! mb-check [check] [--root <dir>] [--format human|json]
//!          [--baseline <file>] [--write-baseline] [--list-rules]
//! mb-check explain <fn> [--root <dir>]
//! ```
//!
//! `check` (the default) exits 0 when no finding survives suppressions
//! and the baseline, 1 when new findings remain, 2 on usage or I/O
//! errors. `explain` prints a function's taint verdict with the full
//! source→sink call path.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mb_check::{
    baseline::{self, Baseline},
    render_human, render_json, taint, Workspace, ALL_RULES,
};

const USAGE: &str = "\
mb-check: determinism lints for the Mont-Blanc simulator

usage: mb-check [check] [--root <dir>] [--format human|json]
                [--baseline <file>] [--write-baseline] [--list-rules]
       mb-check explain <fn> [--root <dir>]

Walks crates/*/{src,tests,benches} and examples/ under the root
(default: .), runs the line rules plus the call-graph passes
(determinism taint, hot-path allocations), and diffs
the findings against .mb-check-baseline.json when present. Suppress a
finding with a `// mb-check: allow(<rule>)` comment on or above the
line. Exit codes: 0 clean, 1 findings, 2 errors.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some("check") => ("check", &args[1..]),
        Some("explain") => ("explain", &args[1..]),
        _ => ("check", &args[..]),
    };
    match cmd {
        "explain" => cmd_explain(rest),
        _ => cmd_check(rest),
    }
}

/// `mb-check [check] ...` — run every pass and report.
fn cmd_check(args: &[String]) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut format = "human".to_string();
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage_error("--root needs a directory"),
            },
            "--format" => match it.next() {
                Some(f) if ["human", "json"].contains(&f.as_str()) => {
                    format = f.clone();
                }
                Some(f) => return usage_error(&format!("unknown format {f:?}")),
                None => return usage_error("--format needs human|json"),
            },
            "--baseline" => match it.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => return usage_error("--baseline needs a file"),
            },
            "--write-baseline" => write_baseline = true,
            "--list-rules" => {
                for rule in ALL_RULES {
                    println!("{:<20} {}", rule.name(), rule.description());
                }
                return ExitCode::SUCCESS;
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                return usage_error(&format!("unknown argument {other:?} (try --help)"));
            }
        }
    }

    let findings = match mb_check::run_check(&root) {
        Ok(findings) => findings,
        Err(err) => {
            eprintln!("mb-check: {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };

    let baseline_file = baseline_path.unwrap_or_else(|| root.join(baseline::BASELINE_FILE));
    if write_baseline {
        let text = baseline::render(&findings);
        let entries = baseline::Baseline::parse(&text).map_or(0, |b| b.len());
        if let Err(err) = std::fs::write(&baseline_file, text) {
            eprintln!("mb-check: {}: {err}", baseline_file.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "mb-check: wrote {} entries ({} findings) to {}",
            entries,
            findings.len(),
            baseline_file.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = match load_baseline(&baseline_file) {
        Ok(b) => b,
        Err(err) => {
            eprintln!("mb-check: {}: {err}", baseline_file.display());
            return ExitCode::from(2);
        }
    };
    let (new, accepted) = baseline.split(&findings);

    match format.as_str() {
        "json" => print!("{}", render_json(&findings)),
        _ => {
            let new_owned: Vec<_> = new.iter().map(|f| (*f).clone()).collect();
            print!("{}", render_human(&new_owned));
            if !accepted.is_empty() {
                println!(
                    "mb-check: {} baselined finding{} not shown (see {})",
                    accepted.len(),
                    if accepted.len() == 1 { "" } else { "s" },
                    baseline::BASELINE_FILE
                );
            }
        }
    }
    if new.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Reads the baseline file; a missing file is an empty baseline.
fn load_baseline(path: &Path) -> Result<Baseline, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => Baseline::parse(&text),
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => Ok(Baseline::default()),
        Err(err) => Err(err.to_string()),
    }
}

/// `mb-check explain <fn>` — the taint verdict with its call path.
fn cmd_explain(args: &[String]) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut query: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage_error("--root needs a directory"),
            },
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if query.is_none() && !other.starts_with('-') => {
                query = Some(other.to_string());
            }
            other => {
                return usage_error(&format!("unknown argument {other:?} (try --help)"));
            }
        }
    }
    let Some(query) = query else {
        return usage_error("explain needs a function name or path suffix");
    };
    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(err) => {
            eprintln!("mb-check: {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };
    let analysis = ws.taint();
    print!(
        "{}",
        taint::explain(&ws.files, &ws.graph, &analysis, &query)
    );
    ExitCode::SUCCESS
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("mb-check: {message}");
    ExitCode::from(2)
}
