//! `BENCHMARK.json` is well formed and agrees with the harness, and a
//! smoke pass (`run --smoke`, `trace --smoke`: one repetition of the
//! quick grids) prints every declared metric with its unit and fails
//! nothing.

use mbbench::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use mbbench::json::{self, Json};
use std::path::PathBuf;
use std::process::Command;

fn spec() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(spec: &'a Json, key: &str) -> &'a [Json] {
    spec.get(key).and_then(Json::as_arr).expect(key)
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).expect(key)
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_is_within_limits_and_matches_the_harness() {
    let spec = spec();
    let keys: Vec<&str> = json::members(&spec)
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads = list(&spec, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    let names: Vec<&str> = workloads.iter().map(|w| text(w, "name")).collect();
    assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
    for w in workloads {
        assert!(text(w, "why").len() <= 200 && !text(w, "why").contains('\n'));
    }

    let e2e = list(&spec, "end_to_end");
    let layers = list(&spec, "per_layer");
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));
    let declared = |entries: &[Json]| -> Vec<(String, String)> {
        entries
            .iter()
            .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(e2e), table(&END_TO_END));
    assert_eq!(declared(layers), table(&PER_LAYER));

    let mut all: Vec<&str> = names.clone();
    for m in e2e.iter().chain(layers) {
        let name = text(m, "name");
        let unit = text(m, "unit");
        assert!(is_name(name), "bad metric name {name:?}");
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')),
            "bad unit {unit:?}"
        );
        assert!(matches!(text(m, "better"), "lower" | "higher"));
        all.push(name);
    }
    for m in e2e {
        let bound = m.get("bound").and_then(Json::as_num).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
        assert_eq!(json::members(m).expect("object").len(), 4);
    }
    for m in layers {
        assert_eq!(json::members(m).expect("object").len(), 3);
    }
    let setup = e2e
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    let mut unique = all.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), all.len(), "names are used once");
}

/// Runs `mbbench <sub> --smoke --out <file>`; returns stdout and the
/// parsed file.
fn smoke(sub: &str) -> (String, Json) {
    let out_file = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{sub}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_mbbench"))
        .args([sub, "--smoke", "--out"])
        .arg(&out_file)
        .output()
        .expect("spawn mbbench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "mbbench {sub} --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let file = std::fs::read_to_string(&out_file).expect("result file");
    (stdout, json::parse(&file).expect("result file parses"))
}

#[test]
fn smoke_run_and_trace_print_every_metric_with_its_unit() {
    let spec = spec();
    for (sub, table) in [("run", "end_to_end"), ("trace", "per_layer")] {
        let (stdout, file) = smoke(sub);
        let skipped = stdout.lines().any(|l| l.starts_with("serve: skipped"));
        for m in list(&spec, table) {
            let (name, unit) = (text(m, "name"), text(m, "unit"));
            if skipped && name.starts_with("serve.") {
                continue; // the service probe needs the mb-lab binary
            }
            assert!(
                stdout.lines().any(|l| {
                    let tokens: Vec<&str> = l.split_whitespace().collect();
                    tokens.get(1) == Some(&name) && tokens.contains(&unit)
                }),
                "`mbbench {sub} --smoke` printed no `{name}` line in {unit}:\n{stdout}"
            );
        }
        for line in stdout.lines().filter(|l| l.contains(" fail_frac ")) {
            assert_eq!(line.split_whitespace().nth(2), Some("0"), "{line}");
        }
        let workloads = file
            .get("workloads")
            .and_then(json::members)
            .expect("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (name, w) in workloads {
            if w.get("skipped").is_some() {
                assert!(skipped && name == "serve-mix", "{name} skipped");
                continue;
            }
            assert_eq!(
                w.get("fail_frac").and_then(Json::as_num),
                Some(0.0),
                "{name}"
            );
        }
    }
}
