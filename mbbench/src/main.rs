//! `mbbench` — the layered performance ledger of the reproduction.
//!
//! ```text
//! mbbench --workload <name> --seed <n> --seconds <s> --trace 0|1
//! mbbench run   [--seed n] [--out file.json] [--smoke]
//! mbbench trace [--seed n] [--out file.json] [--smoke]
//! mbbench compare <a.json> <b.json> [--bench BENCHMARK.json]
//! ```
//!
//! The first form measures one window of one workload lasting about
//! `--seconds` seconds and ends its output with one JSON line:
//! `correct`, `attempted`, `failed` and the window's value of every
//! end-to-end metric (`--trace 0`, see `bench::Window::value`), or the
//! workload's traced run with every per-layer metric (`--trace 1`).
//! `run` measures every workload in five windows of fixed repetitions
//! and reports the median, quartiles and count of the window values;
//! `trace` is the separate traced run of every workload; `compare` is
//! the regression gate between two `run` files. `--smoke` runs the
//! quick grids once each. See `BENCHMARK.md`.
//!
//! The `mb-lab` binary serves the service workload; it is looked up in
//! `MB_LAB_BIN`, then beside this executable.

use mbbench::bench::{self, Ctx, Layers, Tally};
use mbbench::catalog::{self, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use mbbench::cold::{self, flag};
use mbbench::json::{self, Json};
use mbbench::stats::{self, Summary};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  mbbench --workload <name> --seed <n> --seconds <s> --trace 0|1
  mbbench run   [--seed n] [--out file.json] [--smoke]
  mbbench trace [--seed n] [--out file.json] [--smoke]
  mbbench compare <a.json> <b.json> [--bench BENCHMARK.json]";

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") => return cold::child_main(started, &args[1..]),
        Some("run") => cmd_set(&args[1..], false),
        Some("trace") => cmd_set(&args[1..], true),
        Some("compare") => cmd_compare(&args[1..]),
        Some(a) if a.starts_with("--") => cmd_workload(&args),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("mbbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Removes the scratch directory however the measurement ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The measurement context, with scratch space under the build
/// directory (`<target>/mbbench-work/<pid>`). Prints the host record,
/// and a `skipped` line when `mb-lab` is missing.
fn context(seed: u64, smoke: bool) -> Result<(Ctx, Scratch), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let bin_dir = exe.parent().ok_or("executable has no directory")?;
    let mb_lab = std::env::var_os("MB_LAB_BIN")
        .map(PathBuf::from)
        .unwrap_or_else(|| bin_dir.join("mb-lab"));
    let work = bin_dir
        .parent()
        .unwrap_or(bin_dir)
        .join("mbbench-work")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    println!("host {}", json::compact(&mbbench::host()));
    let found = mb_lab.is_file();
    if !found {
        println!(
            "serve: skipped (no mb-lab binary at {}; build it with `cargo build --release -p mb-lab`)",
            mb_lab.display()
        );
    }
    let ctx = Ctx::new(
        exe.clone(),
        found.then_some(mb_lab),
        work.clone(),
        smoke,
        seed,
    );
    Ok((ctx, Scratch(work)))
}

fn parse_seed(args: &[String]) -> Result<u64, String> {
    flag(args, "--seed").map_or(Ok(1), |s| {
        s.parse().map_err(|_| format!("bad --seed '{s}'"))
    })
}

fn summary_json(s: &Summary, unit: &str) -> Json {
    json::obj([
        ("unit", json::str(unit)),
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("n", Json::Num(s.n as f64)),
    ])
}

/// A value right-aligned for the report, whole numbers for counts.
fn shown(v: f64, unit: &str) -> String {
    if matches!(unit, "count" | "bytes") {
        format!("{v:>14.0}")
    } else {
        format!("{v:>14.6}")
    }
}

fn print_summary(workload: &str, metric: &str, unit: &str, s: &Summary) {
    println!(
        "{workload:<13} {metric:<24} median {:>12.6} {unit:<8} q1 {:.6}  q3 {:.6}  n={}",
        s.median, s.q1, s.q3, s.n
    );
}

fn print_tally(workload: &str, t: &Tally) {
    println!(
        "{workload:<13} {:<24} {} ({}/{})",
        "fail_frac",
        fail_frac(t),
        t.failed,
        t.attempted
    );
}

fn fail_frac(t: &Tally) -> f64 {
    if t.attempted == 0 {
        0.0
    } else {
        t.failed as f64 / t.attempted as f64
    }
}

/// `--workload W --seed N --seconds T --trace 0|1`: one workload, one
/// JSON result line.
fn cmd_workload(args: &[String]) -> Result<ExitCode, String> {
    let required =
        |name: &str| flag(args, name).ok_or_else(|| format!("{name} is required\n{USAGE}"));
    let name = required("--workload")?;
    let w = catalog::workload(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed = parse_seed(args)?;
    let seconds: f64 = required("--seconds")?
        .parse()
        .map_err(|_| "bad --seconds".to_string())?;
    let traced = match required("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace '{other}' (0 or 1)")),
    };
    let (ctx, _scratch) = context(seed, false)?;

    let (metrics, missing, tally) = if traced {
        let layers = bench::measure_layers(&ctx, &w);
        let (metrics, _, missing) = report_layers(&w, &layers);
        (metrics, missing, layers.tally)
    } else {
        let (win, tally) = bench::measure_e2e(&ctx, &w, seconds);
        let (mut metrics, mut missing) = (Vec::new(), Vec::new());
        for &(metric, unit) in END_TO_END.iter() {
            match (win.value(metric), stats::summarize(win.samples(metric))) {
                (Some(v), Some(s)) => {
                    println!(
                        "{:<13} {metric:<24} {} {unit:<8} of n={} (median {:.6})",
                        w.name,
                        shown(v, unit),
                        s.n,
                        s.median
                    );
                    metrics.push((metric, value_json(v, unit)));
                }
                _ => missing.push(metric),
            }
        }
        (metrics, missing, tally)
    };
    print_tally(w.name, &tally);
    if !missing.is_empty() {
        eprintln!("mbbench: {}: no value for {}", w.name, missing.join(", "));
        return Ok(ExitCode::FAILURE);
    }
    let result = json::obj([
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", json::obj(metrics)),
    ]);
    println!("{}", json::compact(&result));
    Ok(ExitCode::SUCCESS)
}

fn value_json(v: f64, unit: &str) -> Json {
    json::obj([("value", Json::Num(v)), ("unit", json::str(unit))])
}

/// Prints a traced run's per-layer values and breakdowns. Returns the
/// values and the breakdowns as JSON, and the metrics with no value.
fn report_layers(
    w: &Workload,
    layers: &Layers,
) -> (Vec<(&'static str, Json)>, Json, Vec<&'static str>) {
    let (mut metrics, mut missing) = (Vec::new(), Vec::new());
    for &(metric, unit) in PER_LAYER.iter() {
        match layers.metrics.get(metric) {
            Some(&v) => {
                println!("{:<13} {metric:<26} {} {unit}", w.name, shown(v, unit));
                metrics.push((metric, value_json(v, unit)));
            }
            None => missing.push(metric),
        }
    }
    let extras = layers.extras.iter().map(|(name, v, unit)| {
        println!("{:<13} + {name:<24} {} {unit}", w.name, shown(*v, unit));
        (name.clone(), value_json(*v, unit))
    });
    (metrics, json::obj(extras.collect::<Vec<_>>()), missing)
}

/// `run` / `trace`: every workload, printed and optionally written to
/// `--out`. Exits 1 on any failure or missing metric.
fn cmd_set(args: &[String], traced: bool) -> Result<ExitCode, String> {
    let seed = parse_seed(args)?;
    let smoke = args.iter().any(|a| a == "--smoke");
    let (ctx, _scratch) = context(seed, smoke)?;
    let mut clean = true;
    let mut workloads: Vec<(String, Json)> = Vec::new();

    let skipped = |w: &Workload| w.served && ctx.mb_lab.is_none();
    if traced {
        for w in &WORKLOADS {
            if skipped(w) {
                workloads.push((
                    w.name.into(),
                    json::obj([("skipped", json::str("no mb-lab binary"))]),
                ));
                continue;
            }
            let layers = bench::measure_layers(&ctx, w);
            let (metrics, extras, mut missing) = report_layers(w, &layers);
            // Without mb-lab the service probe cannot run.
            missing.retain(|m| !(m.starts_with("serve.") && ctx.mb_lab.is_none()));
            if !missing.is_empty() {
                eprintln!("mbbench: {}: no value for {}", w.name, missing.join(", "));
                clean = false;
            }
            print_tally(w.name, &layers.tally);
            clean &= layers.tally.failed == 0;
            workloads.push((w.name.into(), workload_json(&layers.tally, metrics, extras)));
        }
    } else {
        for (w, windows, tally) in bench::run_set(&ctx) {
            if skipped(&w) {
                workloads.push((
                    w.name.into(),
                    json::obj([("skipped", json::str("no mb-lab binary"))]),
                ));
                continue;
            }
            let mut metrics = Vec::new();
            for &(metric, unit) in END_TO_END.iter() {
                let values: Vec<f64> = windows.iter().filter_map(|win| win.value(metric)).collect();
                match stats::summarize(&values) {
                    Some(s) => {
                        print_summary(w.name, metric, unit, &s);
                        metrics.push((metric, summary_json(&s, unit)));
                    }
                    None => {
                        eprintln!("mbbench: {}: no samples of {metric}", w.name);
                        clean = false;
                    }
                }
            }
            print_tally(w.name, &tally);
            clean &= tally.failed == 0;
            workloads.push((
                w.name.into(),
                workload_json(&tally, metrics, json::obj::<&str>([])),
            ));
        }
    }

    if let Some(out) = flag(args, "--out") {
        let doc = json::obj([
            ("kind", json::str(if traced { "trace" } else { "run" })),
            ("seed", Json::Num(seed as f64)),
            ("smoke", Json::Bool(smoke)),
            ("host", mbbench::host()),
            ("workloads", Json::Obj(workloads)),
        ]);
        std::fs::write(out, json::pretty(&doc)).map_err(|e| format!("{out}: {e}"))?;
        println!("results written to {out}");
    }
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn workload_json(tally: &Tally, metrics: Vec<(&str, Json)>, extras: Json) -> Json {
    json::obj([
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("fail_frac", Json::Num(fail_frac(tally))),
        ("metrics", json::obj(metrics)),
        ("extras", extras),
    ])
}

fn load_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `v` to four significant digits.
fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (3 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.decimals$}")
}

fn file_summary(metric: &Json) -> Option<Summary> {
    let get = |k: &str| metric.get(k).and_then(Json::as_num);
    Some(Summary {
        median: get("median")?,
        q1: get("q1")?,
        q3: get("q3")?,
        n: get("n")? as usize,
    })
}

/// `compare A B`: every workload × end-to-end metric of `BENCHMARK.json`
/// with both sets' medians and quartiles and B's change against its
/// bound. Exits 1 on a regression, a failure in either set, or a
/// workload or metric missing from either file.
fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let files: Vec<&String> = args.iter().take_while(|a| !a.starts_with("--")).collect();
    let [a_path, b_path] = files[..] else {
        return Err(USAGE.to_string());
    };
    let bench_path = flag(args, "--bench").unwrap_or("BENCHMARK.json");
    let (a, b, spec) = (
        load_json(Path::new(a_path))?,
        load_json(Path::new(b_path))?,
        load_json(Path::new(bench_path))?,
    );
    let list = |key: &str| -> Result<Vec<Json>, String> {
        spec.get(key)
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .ok_or_else(|| format!("{bench_path}: no '{key}' list"))
    };
    let mut bad = false;
    println!(
        "{:<13} {:<13} {:>31} {:>31} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    for workload in list("workloads")? {
        let name = workload.get("name").and_then(Json::as_str).unwrap_or("?");
        let side = |doc: &Json| doc.get("workloads").and_then(|w| w.get(name)).cloned();
        let (Some(wa), Some(wb)) = (side(&a), side(&b)) else {
            println!("{name:<13} missing from a file");
            bad = true;
            continue;
        };
        for (label, w) in [("A", &wa), ("B", &wb)] {
            let frac = w.get("fail_frac").and_then(Json::as_num);
            if frac != Some(0.0) {
                println!("{name:<13} fail_frac {label} = {frac:?}");
                bad = true;
            }
        }
        for metric in list("end_to_end")? {
            let m = metric.get("name").and_then(Json::as_str).unwrap_or("?");
            let bound = metric.get("bound").and_then(Json::as_num).unwrap_or(0.0);
            let lower = metric.get("better").and_then(Json::as_str) == Some("lower");
            let summary = |w: &Json| {
                w.get("metrics")
                    .and_then(|x| x.get(m))
                    .and_then(file_summary)
            };
            let (Some(sa), Some(sb)) = (summary(&wa), summary(&wb)) else {
                println!("{name:<13} {m:<13} missing from a file");
                bad = true;
                continue;
            };
            let change = (sb.median - sa.median) / sa.median;
            let worse = if lower { change } else { -change };
            let verdict = if sa.spread().max(sb.spread()) > bound {
                "unresolved"
            } else if worse > bound {
                bad = true;
                "REGRESSION"
            } else if worse < -bound {
                "better"
            } else {
                "ok"
            };
            let cell = |s: &Summary| format!("{} [{}, {}]", sig(s.median), sig(s.q1), sig(s.q3));
            println!(
                "{name:<13} {m:<13} {:>31} {:>31} {:>+7.2}% {:>5.0}%  {verdict}",
                cell(&sa),
                cell(&sb),
                change * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
