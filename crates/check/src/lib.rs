//! # mb-check — the determinism lint engine
//!
//! The simulator's core promise is that every experiment is a pure
//! function of its explicit seeds: serial and parallel runs are
//! bit-identical, and a rerun months later reproduces every figure
//! exactly. That promise is easy to break silently — one `HashMap`
//! iteration feeding a result, one `Instant::now()` in a model, one
//! unseeded RNG — which is the simulation analogue of the OS-level
//! measurement pitfalls in §V of the paper.
//!
//! `mb-check` machine-checks the contract in two layers. The line
//! layer is a token-level lint over stripped source lines; the graph
//! layer parses every file into items and call expressions, links a
//! cross-crate call graph, and propagates *determinism taint* from
//! nondeterminism sources to everything that can reach them, plus a
//! hot-path allocation pass rooted at the registered slot measurers:
//!
//! * [`walker`] — deterministic discovery of workspace sources;
//! * [`lexer`] — a lossless Rust tokenizer (tokens tile the source);
//! * [`source`] — line stripping, `#[cfg(test)]` tracking and
//!   `// mb-check: allow(<rule>)` suppressions, built on the lexer;
//! * [`ast`] — a lightweight item/call parser (fns, impls, mods,
//!   use-trees, call expressions);
//! * [`graph`] — the cross-crate call graph and reachability;
//! * [`taint`] — determinism taint and hot-path allocation analysis;
//! * [`rules`] — the rule registry (seven line rules, two workspace
//!   rules);
//! * [`baseline`] — the accepted-findings baseline CI diffs against;
//! * [`report`] — human and JSON rendering;
//! * [`json`] — the hand-rolled JSON reader behind the baseline.
//!
//! Run it with `cargo run -p mb-check`; it exits nonzero when any
//! non-baselined finding survives suppressions, and `scripts/ci.sh`
//! treats that as a failed build. `mb-check explain <fn>` prints the
//! full source→sink call path behind a taint verdict. The runtime half
//! of the contract (trace and operand-stream invariants) lives in
//! `mb_cpu::validate` behind the `validate` feature; see DESIGN.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod baseline;
pub mod graph;
pub mod json;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;
pub mod taint;
pub mod walker;

pub use report::{render_human, render_json, Finding};
pub use rules::{check_file, RuleId, ALL_RULES};
pub use source::SourceFile;

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// What kind of code a file holds. Graph passes only analyze library
/// code; line rules relax to `unseeded-rng` outside it (tests may time,
/// thread and unwrap freely — but even harness randomness must be
/// seeded or sweeps stop being reproducible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// `crates/*/src` — the determinism contract applies in full.
    Lib,
    /// `crates/*/tests` — integration-test harness context.
    Test,
    /// `crates/*/benches` — bench harness context.
    Bench,
    /// Top-level `examples/` — demo harness context.
    Example,
}

impl FileClass {
    /// Whether the full library rule set applies.
    pub fn is_lib(self) -> bool {
        matches!(self, FileClass::Lib)
    }

    /// Classifies a workspace-relative path.
    pub fn classify(rel: &str) -> FileClass {
        if rel.starts_with("examples/") {
            FileClass::Example
        } else if rel.contains("/tests/") {
            FileClass::Test
        } else if rel.contains("/benches/") {
            FileClass::Bench
        } else {
            FileClass::Lib
        }
    }
}

/// Everything the passes need to know about one source file: raw text,
/// tokens, stripped lines and the parsed item tree.
#[derive(Debug, Clone)]
pub struct FileAnalysis {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Library vs harness context.
    pub class: FileClass,
    /// Raw file contents.
    pub source: String,
    /// Lossless token stream over `source`.
    pub tokens: Vec<lexer::Token>,
    /// Per-line stripped code, test tracking and suppressions.
    pub lines: SourceFile,
    /// Items, use-trees and call expressions.
    pub ast: ast::ParsedFile,
}

impl FileAnalysis {
    /// Analyzes one file from its source text. `crate_name` is the
    /// crate's Rust name (`montblanc`, `mb_net`, …); `module_path` is
    /// the file's module chain within the crate (empty at a crate
    /// root).
    pub fn from_source(
        rel: &str,
        class: FileClass,
        crate_name: &str,
        module_path: Vec<String>,
        source: String,
    ) -> FileAnalysis {
        let tokens = lexer::tokenize(&source);
        let lines = SourceFile::from_tokens(&source, &tokens);
        let ast = ast::parse(&source, &tokens, rel, crate_name, &module_path);
        FileAnalysis {
            rel: rel.to_string(),
            class,
            source,
            tokens,
            lines,
            ast,
        }
    }

    /// The crate directory under `crates/` this file belongs to
    /// (empty for `examples/`).
    pub fn crate_dir(&self) -> &str {
        self.rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("")
    }
}

/// A fully analyzed workspace: every scanned file plus the cross-crate
/// call graph over them.
#[derive(Debug)]
pub struct Workspace {
    /// Workspace root directory.
    pub root: PathBuf,
    /// All scanned files, in walker (byte-sorted) order.
    pub files: Vec<FileAnalysis>,
    /// Call graph over `files` (node ids follow file order, then
    /// function order within each file).
    pub graph: graph::Graph,
}

impl Workspace {
    /// Walks, reads and parses every workspace source under `root`,
    /// then links the call graph.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error hit while walking or reading
    /// sources.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut rust_names: BTreeMap<String, String> = BTreeMap::new();
        let mut files = Vec::new();
        for path in walker::workspace_sources(root)? {
            let source = std::fs::read_to_string(root.join(&path))?;
            let rel = path.to_string_lossy().replace('\\', "/");
            let class = FileClass::classify(&rel);
            let crate_name = crate_rust_name(root, &rel, &mut rust_names);
            let module_path = module_path_of(&rel);
            files.push(FileAnalysis::from_source(
                &rel,
                class,
                &crate_name,
                module_path,
                source,
            ));
        }
        let asts: Vec<ast::ParsedFile> = files.iter().map(|f| f.ast.clone()).collect();
        let graph = graph::Graph::build(&asts);
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
            graph,
        })
    }

    /// Runs every pass — line rules, determinism taint, hot-path
    /// allocations — and returns the findings sorted
    /// and deduplicated, each annotated with its enclosing function
    /// symbol where one exists.
    pub fn check(&self) -> Vec<Finding> {
        let mut findings = Vec::new();
        for f in &self.files {
            findings.extend(rules::check_file(&f.rel, &f.lines, f.class));
        }
        let analysis = taint::analyze(&self.files, &self.graph);
        findings.extend(taint::findings(&self.files, &self.graph, &analysis));
        findings.extend(taint::hot_alloc_findings(&self.files, &self.graph));
        for finding in &mut findings {
            if finding.symbol.is_empty() {
                if let Some(symbol) = self.enclosing_fn(&finding.file, finding.line) {
                    finding.symbol = symbol;
                }
            }
        }
        findings.sort();
        findings.dedup();
        findings
    }

    /// The taint analysis for `explain` (and anything else that wants
    /// the raw source/taint sets rather than findings).
    pub fn taint(&self) -> taint::TaintAnalysis {
        taint::analyze(&self.files, &self.graph)
    }

    /// Qualified path of the innermost function whose body spans
    /// `line` of `rel`, if any.
    fn enclosing_fn(&self, rel: &str, line: usize) -> Option<String> {
        let file = self.files.iter().find(|f| f.rel == rel)?;
        let mut best: Option<(usize, &ast::FnDef)> = None;
        for f in &file.ast.fns {
            let (b0, b1) = f.body;
            if b1 == 0 || b1 > file.tokens.len() || b0 >= b1 {
                continue;
            }
            let start_line = f.line;
            let end_line = file.tokens[b1 - 1].line;
            if line >= start_line && line <= end_line {
                let span = end_line - start_line;
                if best.is_none_or(|(s, _)| span < s) {
                    best = Some((span, f));
                }
            }
        }
        best.map(|(_, f)| f.path.clone())
    }
}

/// The crate's Rust name for a workspace-relative file path: the
/// `[lib] name` from its `Cargo.toml` when set, else the package name
/// with dashes mapped to underscores, else the directory name likewise
/// (so Cargo-less fixture trees still parse). `examples/` files are
/// each their own crate, named after the file stem.
fn crate_rust_name(root: &Path, rel: &str, cache: &mut BTreeMap<String, String>) -> String {
    if let Some(stem) = rel
        .strip_prefix("examples/")
        .and_then(|r| r.strip_suffix(".rs"))
    {
        return stem.replace('-', "_");
    }
    let dir = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("");
    if let Some(name) = cache.get(dir) {
        return name.clone();
    }
    let manifest = root.join("crates").join(dir).join("Cargo.toml");
    let name = std::fs::read_to_string(&manifest)
        .ok()
        .and_then(|text| manifest_crate_name(&text))
        .unwrap_or_else(|| dir.replace('-', "_"));
    cache.insert(dir.to_string(), name.clone());
    name
}

/// Extracts the crate's Rust name from manifest text: `[lib] name`
/// wins over `[package] name`; dashes become underscores.
fn manifest_crate_name(text: &str) -> Option<String> {
    let mut section = "";
    let mut package = None;
    let mut lib = None;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            section = line;
        } else if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(value) = rest.strip_prefix('=') {
                let value = value.trim().trim_matches('"').replace('-', "_");
                match section {
                    "[package]" => package = Some(value),
                    "[lib]" => lib = Some(value),
                    _ => {}
                }
            }
        }
    }
    lib.or(package)
}

/// The module chain of a file within its crate. Only `src/` trees have
/// intra-crate modules; test, bench and example files are each their
/// own crate root.
fn module_path_of(rel: &str) -> Vec<String> {
    let Some(idx) = rel.find("/src/") else {
        return Vec::new();
    };
    let tail = &rel[idx + "/src/".len()..];
    if tail == "lib.rs" || tail == "main.rs" || tail.starts_with("bin/") {
        return Vec::new();
    }
    let mut segs: Vec<String> = tail.split('/').map(str::to_string).collect();
    let last = segs.pop().unwrap_or_default();
    if let Some(stem) = last.strip_suffix(".rs") {
        if stem != "mod" {
            segs.push(stem.to_string());
        }
    }
    segs
}

/// Lints every workspace source file under `root`. Findings come back
/// sorted by rule, then file, then line — the full set, before any
/// baseline is applied.
///
/// # Errors
///
/// Returns the first I/O error hit while walking or reading sources.
pub fn run_check(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(Workspace::load(root)?.check())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workspace_root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root exists")
            .to_path_buf()
    }

    #[test]
    fn workspace_is_clean_modulo_baseline() {
        // The acceptance gate, from the inside: every finding in the
        // real workspace is in the reviewed baseline. CI also enforces
        // this via the binary.
        let root = workspace_root();
        let findings = run_check(&root).expect("walk succeeds");
        let baseline = match std::fs::read_to_string(root.join(baseline::BASELINE_FILE)) {
            Ok(text) => baseline::Baseline::parse(&text).expect("baseline parses"),
            Err(_) => baseline::Baseline::default(),
        };
        let (new, _) = baseline.split(&findings);
        assert!(
            new.is_empty(),
            "workspace must be lint-clean modulo the baseline:\n{}",
            render_human(&new.into_iter().cloned().collect::<Vec<_>>())
        );
    }

    #[test]
    fn module_paths_derive_from_src_layout() {
        assert!(module_path_of("crates/net/src/lib.rs").is_empty());
        assert!(module_path_of("crates/bench/src/main.rs").is_empty());
        assert!(module_path_of("crates/bench/src/bin/tool.rs").is_empty());
        assert_eq!(module_path_of("crates/net/src/graph.rs"), vec!["graph"]);
        assert_eq!(
            module_path_of("crates/net/src/fabric/router.rs"),
            vec!["fabric", "router"]
        );
        assert_eq!(
            module_path_of("crates/net/src/fabric/mod.rs"),
            vec!["fabric"]
        );
        assert!(module_path_of("crates/net/tests/smoke.rs").is_empty());
        assert!(module_path_of("examples/quickstart.rs").is_empty());
    }

    #[test]
    fn manifest_names_resolve_lib_over_package() {
        let toml = "[package]\nname = \"mb-check\"\n\n[lib]\nname = \"mb_check\"\n";
        assert_eq!(manifest_crate_name(toml), Some("mb_check".to_string()));
        let plain = "[package]\nname = \"mb-net\"\nversion = \"0.1.0\"\n";
        assert_eq!(manifest_crate_name(plain), Some("mb_net".to_string()));
        assert_eq!(manifest_crate_name("# empty"), None);
    }

    #[test]
    fn real_crate_names_resolve() {
        let root = workspace_root();
        let mut cache = BTreeMap::new();
        assert_eq!(
            crate_rust_name(&root, "crates/core/src/fig3.rs", &mut cache),
            "montblanc"
        );
        assert_eq!(
            crate_rust_name(&root, "crates/net/src/graph.rs", &mut cache),
            "mb_net"
        );
        assert_eq!(
            crate_rust_name(&root, "examples/quickstart.rs", &mut cache),
            "quickstart"
        );
    }

    #[test]
    fn file_classes_classify_by_tree() {
        assert_eq!(
            FileClass::classify("crates/net/src/graph.rs"),
            FileClass::Lib
        );
        assert_eq!(
            FileClass::classify("crates/net/tests/smoke.rs"),
            FileClass::Test
        );
        assert_eq!(
            FileClass::classify("crates/bench/benches/kernels.rs"),
            FileClass::Bench
        );
        assert_eq!(
            FileClass::classify("examples/quickstart.rs"),
            FileClass::Example
        );
    }

    #[test]
    fn enclosing_fn_finds_the_innermost_body() {
        let file = FileAnalysis::from_source(
            "crates/x/src/lib.rs",
            FileClass::Lib,
            "mb_x",
            Vec::new(),
            "pub fn outer() {\n    work();\n}\npub fn later() {}\n".to_string(),
        );
        let asts = vec![file.ast.clone()];
        let ws = Workspace {
            root: PathBuf::new(),
            files: vec![file],
            graph: graph::Graph::build(&asts),
        };
        assert_eq!(
            ws.enclosing_fn("crates/x/src/lib.rs", 2),
            Some("mb_x::outer".to_string())
        );
        assert_eq!(
            ws.enclosing_fn("crates/x/src/lib.rs", 4),
            Some("mb_x::later".to_string())
        );
        assert_eq!(ws.enclosing_fn("crates/x/src/lib.rs", 999), None);
    }
}
