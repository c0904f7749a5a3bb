//! Deterministic workspace file discovery.
//!
//! Walks `crates/*/src/**/*.rs` plus the harness trees —
//! `crates/*/tests`, `crates/*/benches` and a top-level `examples/` —
//! under a workspace root, visiting directories and files in
//! byte-sorted name order so the finding list — and therefore CI
//! output — is identical on every filesystem. Directories named
//! `fixtures` are skipped: they hold deliberately-dirty lint fixtures,
//! not workspace code.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// All workspace `.rs` files under `<root>`, workspace-relative and
/// byte-sorted: `crates/*/src`, `crates/*/tests`, `crates/*/benches`
/// and `examples/`.
///
/// # Errors
///
/// Returns any I/O error hit while listing directories (a missing
/// `crates/` directory is an error: it means the root is wrong).
pub fn workspace_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    let mut files = Vec::new();
    for dir in crate_dirs {
        for sub in ["src", "tests", "benches"] {
            let tree = dir.join(sub);
            if tree.is_dir() {
                collect_rs(&tree, &mut files)?;
            }
        }
    }
    let examples = root.join("examples");
    if examples.is_dir() {
        collect_rs(&examples, &mut files)?;
    }
    // Report paths relative to the root.
    for f in &mut files {
        if let Ok(rel) = f.strip_prefix(root) {
            *f = rel.to_path_buf();
        }
    }
    files.sort();
    Ok(files)
}

/// Recursively collects `.rs` files under `dir`, sorted per level.
/// `fixtures` directories are lint-fixture data, not workspace code.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            if entry.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            collect_rs(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The real workspace: this test runs from `crates/check`, two
    /// levels below the root.
    fn root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("crates/check sits two levels under the workspace root")
            .to_path_buf()
    }

    #[test]
    fn finds_known_sources_sorted() {
        let files = workspace_sources(&root()).expect("workspace walk succeeds");
        assert!(files.len() > 30, "got {}", files.len());
        let as_str: Vec<String> = files
            .iter()
            .map(|p| p.to_string_lossy().replace('\\', "/"))
            .collect();
        assert!(as_str.iter().any(|p| p == "crates/net/src/graph.rs"));
        assert!(as_str.iter().any(|p| p == "crates/check/src/walker.rs"));
        let mut sorted = as_str.clone();
        sorted.sort();
        assert_eq!(as_str, sorted, "walk order must be sorted");
    }

    #[test]
    fn includes_tests_and_benches() {
        let files = workspace_sources(&root()).expect("workspace walk succeeds");
        let as_str: Vec<String> = files
            .iter()
            .map(|p| p.to_string_lossy().replace('\\', "/"))
            .collect();
        assert!(
            as_str.iter().any(|p| p.contains("/tests/")),
            "integration tests are scanned"
        );
        assert!(
            as_str
                .iter()
                .any(|p| p == "crates/core/tests/common/digest.rs"),
            "shared test fixtures are scanned"
        );
    }

    #[test]
    fn skips_fixture_directories() {
        let files = workspace_sources(&root()).expect("workspace walk succeeds");
        assert!(
            files
                .iter()
                .all(|p| !p.to_string_lossy().contains("fixtures")),
            "fixtures/ trees are lint-fixture data, never scanned"
        );
    }

    #[test]
    fn missing_root_is_an_error() {
        assert!(workspace_sources(Path::new("/nonexistent/nowhere")).is_err());
    }
}
