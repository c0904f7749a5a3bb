//! End-to-end taint tests over the seeded fixture workspace in
//! `fixtures/taintws/`: a two-crate tree where `alpha::clock::stamp`
//! reads the wall clock and everything else reaches it through the call
//! graph — across a `crate::` path, a `use … as` rename, and a method
//! call. The edge list is pinned golden-style, so any resolver change
//! shows up as a diff here before it shows up as a missed taint.

use mb_check::taint;
use mb_check::Workspace;
use std::path::PathBuf;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/taintws")
}

fn load() -> Workspace {
    Workspace::load(&fixture_root()).expect("fixture workspace loads")
}

/// The full call graph, rendered `caller -> callee` and sorted — the
/// golden view of cross-crate resolution.
#[test]
fn call_graph_matches_golden_edges() {
    let ws = load();
    let mut edges: Vec<String> = Vec::new();
    for (id, node) in ws.graph.nodes.iter().enumerate() {
        for &callee in &ws.graph.edges[id] {
            edges.push(format!("{} -> {}", node.path, ws.graph.nodes[callee].path));
        }
    }
    edges.sort();
    let expected = [
        // crate-relative path: `crate::clock::stamp()`.
        "mb_alpha::model::timed_model -> mb_alpha::clock::stamp",
        // use-rename: `use mb_alpha::model as m; m::timed_model()`.
        "mb_beta::Runner::run -> mb_alpha::model::timed_model",
        // method call: `r.run()` over-approximated to the impl fn.
        "mb_beta::drive -> mb_beta::Runner::run",
    ];
    assert_eq!(edges, expected, "call-graph edges drifted");
}

/// The taint pass rediscovers the v1 source line *and* flags every
/// transitive caller — including `model.rs`, a file the line rules have
/// nothing to say about.
#[test]
fn taint_covers_v1_sources_plus_transitive_callers() {
    let ws = load();
    let findings = ws.check();

    // v1 coverage: the wall-clock line rule still fires at the source.
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "wall-clock-in-model" && f.file == "crates/alpha/src/clock.rs"),
        "line rule lost at the source:\n{:#?}",
        findings
    );

    let tainted: Vec<&str> = findings
        .iter()
        .filter(|f| f.rule == "determinism-taint")
        .map(|f| f.symbol.as_str())
        .collect();
    for expect in [
        "mb_alpha::clock::stamp",
        "mb_alpha::model::timed_model",
        "mb_beta::Runner::run",
        "mb_beta::drive",
    ] {
        assert!(
            tainted.contains(&expect),
            "missing taint on {expect}: {tainted:?}"
        );
    }
    for clean in [
        "mb_alpha::clock::constant",
        "mb_alpha::model::pure_model",
        "mb_beta::idle",
    ] {
        assert!(
            !tainted.contains(&clean),
            "{clean} must stay clean: {tainted:?}"
        );
    }

    // The transitive finding lands in a file with zero line findings.
    assert!(
        findings
            .iter()
            .all(|f| f.file != "crates/alpha/src/model.rs" || f.rule == "determinism-taint"),
        "model.rs must only carry graph findings:\n{findings:#?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.file == "crates/alpha/src/model.rs" && f.rule == "determinism-taint"),
        "model.rs must carry the transitive finding"
    );
}

/// `explain` prints the complete sink→source call path with file:line
/// anchors — the ISSUE's acceptance example.
#[test]
fn explain_prints_the_full_call_path() {
    let ws = load();
    let analysis = ws.taint();
    let out = taint::explain(&ws.files, &ws.graph, &analysis, "mb_beta::drive");
    assert!(out.contains("mb_beta::drive"), "{out}");
    assert!(out.contains("is TAINTED"), "{out}");
    assert!(out.contains("wall clock"), "{out}");
    // Every hop, in order, sink first.
    let hops = [
        "sink  mb_beta::drive",
        "calls mb_beta::Runner::run",
        "calls mb_alpha::model::timed_model",
        "calls mb_alpha::clock::stamp",
        "source `Instant` at crates/alpha/src/clock.rs:7",
    ];
    let mut cursor = 0;
    for hop in hops {
        let at = out[cursor..]
            .find(hop)
            .unwrap_or_else(|| panic!("missing/out-of-order hop `{hop}` in:\n{out}"));
        cursor += at + hop.len();
    }
}

/// A clean function explains as clean, and an unknown one suggests
/// close matches instead of erroring.
#[test]
fn explain_handles_clean_and_unknown_queries() {
    let ws = load();
    let analysis = ws.taint();
    let clean = taint::explain(&ws.files, &ws.graph, &analysis, "mb_beta::idle");
    assert!(clean.contains("determinism-clean"), "{clean}");
    let unknown = taint::explain(&ws.files, &ws.graph, &analysis, "no_such_fn");
    assert!(unknown.contains("no function matches"), "{unknown}");
}
