//! mb-check passes over its own crate with zero findings — baseline
//! excluded on purpose: the linter's own source never gets to lean on
//! grandfathered debt — and its registered hot roots all exist.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root exists")
        .to_path_buf()
}

#[test]
fn own_crate_is_finding_free() {
    let findings = mb_check::run_check(&workspace_root()).expect("workspace walks");
    let own: Vec<_> = findings
        .iter()
        .filter(|f| f.file.starts_with("crates/check/"))
        .collect();
    assert!(
        own.is_empty(),
        "mb-check must self-lint clean, no baseline allowed:\n{own:#?}"
    );
}

/// A renamed or deleted slot measurer must not silently drop out of the
/// hot-alloc pass: every registered root names a function that exists.
#[test]
fn every_hot_root_resolves_to_a_function() {
    let ws = mb_check::Workspace::load(&workspace_root()).expect("workspace walks");
    for root in mb_check::taint::HOT_ROOTS {
        assert!(
            !ws.graph.lookup_path(root).is_empty(),
            "hot root `{root}` names no function in the workspace"
        );
    }
}
