//! The cross-crate call graph.
//!
//! Nodes are the functions [`crate::ast`] recovered from every workspace
//! file; edges are its call sites, resolved with a deliberately simple
//! name model:
//!
//! * `crate::` / `super::` / `self::` prefixes are rewritten against the
//!   file's own crate and module path;
//! * the head segment is substituted through the file's `use` bindings
//!   (renames included), then retried against the crate-name table;
//! * an unqualified path is looked up in the same module first, then at
//!   the crate root;
//! * method calls (`x.f()`) resolve to *every* impl function named `f` —
//!   a sound over-approximation for reachability passes, never used to
//!   claim a unique callee.
//!
//! Paths that resolve to nothing (std, vendored externals) simply add no
//! edge. The graph can therefore miss nothing it claims to have — every
//! edge corresponds to a real call expression — but reachability answers
//! are upper bounds.

use crate::ast::{Call, CallKind, FnDef, ParsedFile};
use std::collections::BTreeMap;

/// One function node in the workspace graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// Qualified path (`montblanc::fig7::measure_slot`).
    pub path: String,
    /// Bare name.
    pub name: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the definition.
    pub line: usize,
    /// Defined inside an `impl`/`trait` block.
    pub in_impl: bool,
    /// Test-only code (`#[cfg(test)]` / `#[test]`).
    pub is_test: bool,
    /// Body token range in the owning file's token stream.
    pub body: (usize, usize),
    /// Index of the owning file in the workspace file list.
    pub file_idx: usize,
}

/// The resolved workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    /// All function nodes; index = node id.
    pub nodes: Vec<Node>,
    /// Forward edges: `edges[n]` = callee node ids (sorted, deduped).
    pub edges: Vec<Vec<usize>>,
    /// Reverse edges: `callers[n]` = caller node ids.
    pub callers: Vec<Vec<usize>>,
    /// Qualified path → node ids (duplicate paths possible under
    /// `cfg`-gated impls).
    by_path: BTreeMap<String, Vec<usize>>,
    /// Bare name → impl-function node ids (method resolution).
    methods_by_name: BTreeMap<String, Vec<usize>>,
}

impl Graph {
    /// Builds the graph from every parsed file. `files[i]` must be the
    /// file the `file_idx = i` nodes came from.
    pub fn build(files: &[ParsedFile]) -> Graph {
        let mut g = Graph::default();
        for (file_idx, file) in files.iter().enumerate() {
            for f in &file.fns {
                let id = g.nodes.len();
                g.by_path.entry(f.path.clone()).or_default().push(id);
                if f.in_impl {
                    g.methods_by_name
                        .entry(f.name.clone())
                        .or_default()
                        .push(id);
                }
                g.nodes.push(Node {
                    path: f.path.clone(),
                    name: f.name.clone(),
                    file: file.rel.clone(),
                    line: f.line,
                    in_impl: f.in_impl,
                    is_test: f.is_test,
                    body: f.body,
                    file_idx,
                });
            }
        }
        g.edges = vec![Vec::new(); g.nodes.len()];
        g.callers = vec![Vec::new(); g.nodes.len()];
        let mut next_node = 0usize;
        for file in files {
            let uses: BTreeMap<&str, &[String]> = file
                .uses
                .iter()
                .map(|u| (u.alias.as_str(), u.segments.as_slice()))
                .collect();
            for f in &file.fns {
                let caller = next_node;
                next_node += 1;
                for call in &f.calls {
                    for callee in g.resolve(file, f, &uses, call) {
                        if callee != caller {
                            g.edges[caller].push(callee);
                        }
                    }
                }
            }
        }
        for (caller, callees) in g.edges.iter_mut().enumerate() {
            callees.sort_unstable();
            callees.dedup();
            for &callee in callees.iter() {
                g.callers[callee].push(caller);
            }
        }
        g
    }

    /// Node ids whose qualified path is exactly `path`.
    pub fn lookup_path(&self, path: &str) -> &[usize] {
        self.by_path.get(path).map_or(&[], Vec::as_slice)
    }

    /// Node ids whose path ends with `suffix` (segment-aligned): the
    /// `explain` subcommand's fuzzy lookup.
    pub fn lookup_suffix(&self, suffix: &str) -> Vec<usize> {
        let exact = self.lookup_path(suffix);
        if !exact.is_empty() {
            return exact.to_vec();
        }
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.path == suffix || n.path.ends_with(&format!("::{suffix}")))
            .map(|(id, _)| id)
            .collect()
    }

    /// Resolves one call site to zero or more callee node ids.
    fn resolve(
        &self,
        file: &ParsedFile,
        caller: &FnDef,
        uses: &BTreeMap<&str, &[String]>,
        call: &Call,
    ) -> Vec<usize> {
        match call.kind {
            CallKind::Macro => Vec::new(),
            CallKind::Method => {
                let name = call.segments.last().map(String::as_str).unwrap_or("");
                self.methods_by_name.get(name).cloned().unwrap_or_default()
            }
            CallKind::Path => {
                let mut segs = call.segments.clone();
                // One round of `use`-map substitution on the head.
                if let Some(&target) = uses.get(segs[0].as_str()) {
                    let mut expanded: Vec<String> = target.to_vec();
                    expanded.extend(segs.drain(1..));
                    segs = expanded;
                }
                let segs = normalize(&segs, file, caller);
                if segs.is_empty() {
                    return Vec::new();
                }
                let full = segs.join("::");
                let hit = self.lookup_path(&full);
                if !hit.is_empty() {
                    return hit.to_vec();
                }
                // Same-module then crate-root fallbacks for unqualified
                // (or partially qualified) paths.
                let mut scope: Vec<String> = vec![file.crate_name.clone()];
                scope.extend(file.module_path.iter().cloned());
                loop {
                    let mut candidate = scope.clone();
                    candidate.extend(segs.iter().cloned());
                    let hit = self.lookup_path(&candidate.join("::"));
                    if !hit.is_empty() {
                        return hit.to_vec();
                    }
                    if scope.len() <= 1 {
                        break;
                    }
                    scope.pop();
                }
                // `Type::method` where `Type` is in scope without a
                // `use` (same file): try impl-method lookup by the
                // final two segments.
                if segs.len() >= 2 {
                    let tail = segs[segs.len() - 2..].join("::");
                    let hits: Vec<usize> = self
                        .nodes
                        .iter()
                        .enumerate()
                        .filter(|(_, n)| n.in_impl && n.path.ends_with(&format!("::{tail}")))
                        .map(|(id, _)| id)
                        .collect();
                    if !hits.is_empty() {
                        return hits;
                    }
                }
                Vec::new()
            }
        }
    }
}

/// Rewrites `crate`/`super`/`self` path heads against the caller's
/// location. Returns `[]` when a `super` walks off the crate root.
fn normalize(segs: &[String], file: &ParsedFile, _caller: &FnDef) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut rest = segs;
    match segs.first().map(String::as_str) {
        Some("crate") => {
            out.push(file.crate_name.clone());
            rest = &segs[1..];
        }
        Some("self") => {
            out.push(file.crate_name.clone());
            out.extend(file.module_path.iter().cloned());
            rest = &segs[1..];
        }
        Some("super") => {
            out.push(file.crate_name.clone());
            out.extend(file.module_path.iter().cloned());
            let mut k = 0;
            while segs.get(k).map(String::as_str) == Some("super") {
                if out.len() <= 1 {
                    return Vec::new();
                }
                out.pop();
                k += 1;
            }
            rest = &segs[k..];
        }
        _ => {}
    }
    out.extend(rest.iter().cloned());
    out
}

/// Forward reachability over the graph from `roots` (inclusive).
pub fn reachable(graph: &Graph, roots: &[usize]) -> Vec<bool> {
    bfs(roots, &graph.edges)
}

/// Reverse reachability: every node that can reach one of `roots`.
pub fn reaches(graph: &Graph, roots: &[usize]) -> Vec<bool> {
    bfs(roots, &graph.callers)
}

fn bfs(roots: &[usize], adj: &[Vec<usize>]) -> Vec<bool> {
    let mut seen = vec![false; adj.len()];
    let mut queue: Vec<usize> = Vec::new();
    for &r in roots {
        if !seen[r] {
            seen[r] = true;
            queue.push(r);
        }
    }
    while let Some(n) = queue.pop() {
        for &m in &adj[n] {
            if !seen[m] {
                seen[m] = true;
                queue.push(m);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast;
    use crate::lexer::tokenize;

    fn parse_file(rel: &str, krate: &str, mods: &[&str], src: &str) -> ParsedFile {
        let toks = tokenize(src);
        let mods: Vec<String> = mods.iter().map(|s| s.to_string()).collect();
        ast::parse(src, &toks, rel, krate, &mods)
    }

    fn edge(g: &Graph, from: &str, to: &str) -> bool {
        let f = g.lookup_path(from);
        let t = g.lookup_path(to);
        f.iter()
            .any(|&fi| t.iter().any(|&ti| g.edges[fi].contains(&ti)))
    }

    #[test]
    fn resolves_cross_crate_use_calls() {
        let a = parse_file("crates/a/src/lib.rs", "a", &[], "pub fn helper() {}\n");
        let b = parse_file(
            "crates/b/src/lib.rs",
            "b",
            &[],
            "use a::helper;\nfn entry() { helper(); a::helper(); }\n",
        );
        let g = Graph::build(&[a, b]);
        assert!(edge(&g, "b::entry", "a::helper"));
    }

    #[test]
    fn resolves_use_renames() {
        let a = parse_file(
            "crates/a/src/lib.rs",
            "a",
            &[],
            "pub mod inner { pub fn target() {} }\n",
        );
        let b = parse_file(
            "crates/b/src/lib.rs",
            "b",
            &[],
            "use a::inner as ren;\nuse a::inner::target as t2;\n\
             fn f() { ren::target(); }\nfn g() { t2(); }\n",
        );
        let g = Graph::build(&[a, b]);
        assert!(edge(&g, "b::f", "a::inner::target"));
        assert!(edge(&g, "b::g", "a::inner::target"));
    }

    #[test]
    fn resolves_crate_super_self_prefixes() {
        let lib = parse_file("crates/a/src/lib.rs", "a", &[], "pub fn root() {}\n");
        let deep = parse_file(
            "crates/a/src/m/n.rs",
            "a",
            &["m", "n"],
            "fn here() {}\n\
             fn f() { crate::root(); super::sibling(); self::here(); }\n",
        );
        let sib = parse_file("crates/a/src/m.rs", "a", &["m"], "pub fn sibling() {}\n");
        let g = Graph::build(&[lib, deep, sib]);
        assert!(edge(&g, "a::m::n::f", "a::root"));
        assert!(edge(&g, "a::m::n::f", "a::m::sibling"));
        assert!(edge(&g, "a::m::n::f", "a::m::n::here"));
    }

    #[test]
    fn same_module_call_resolves_without_use() {
        let f = parse_file(
            "crates/a/src/x.rs",
            "a",
            &["x"],
            "fn one() { two(); }\nfn two() {}\n",
        );
        let g = Graph::build(&[f]);
        assert!(edge(&g, "a::x::one", "a::x::two"));
    }

    #[test]
    fn method_calls_over_approximate_to_all_impls() {
        let a = parse_file(
            "crates/a/src/lib.rs",
            "a",
            &[],
            "struct A; impl A { fn go(&self) {} }\n",
        );
        let b = parse_file(
            "crates/b/src/lib.rs",
            "b",
            &[],
            "struct B; impl B { fn go(&self) {} }\n\
             fn call(x: &B) { x.go(); }\n",
        );
        let g = Graph::build(&[a, b]);
        assert!(edge(&g, "b::call", "a::A::go"), "over-approximation");
        assert!(edge(&g, "b::call", "b::B::go"));
        // But free functions of the same name are not method targets.
        let c = parse_file("crates/c/src/lib.rs", "c", &[], "fn go() {}\n");
        let g2 = Graph::build(&[
            c,
            parse_file(
                "crates/d/src/lib.rs",
                "d",
                &[],
                "fn call(x: &X) { x.go(); }\n",
            ),
        ]);
        let caller = g2.lookup_path("d::call")[0];
        assert!(g2.edges[caller].is_empty());
    }

    #[test]
    fn type_method_path_calls_resolve() {
        let a = parse_file(
            "crates/a/src/fig5.rs",
            "a",
            &["fig5"],
            "pub struct SlotMeasurer;\nimpl SlotMeasurer {\n\
             pub fn new() -> Self { SlotMeasurer }\n\
             pub fn measure(&self) {}\n}\n",
        );
        let b = parse_file(
            "crates/b/src/lib.rs",
            "b",
            &[],
            "use a::fig5;\nfn f() { let m = fig5::SlotMeasurer::new(); }\n",
        );
        let g = Graph::build(&[a, b]);
        assert!(edge(&g, "b::f", "a::fig5::SlotMeasurer::new"));
    }

    #[test]
    fn reachability_and_paths() {
        let f = parse_file(
            "crates/a/src/lib.rs",
            "a",
            &[],
            "fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn lone() {}\n",
        );
        let g = Graph::build(&[f]);
        let a = g.lookup_path("a::a")[0];
        let c = g.lookup_path("a::c")[0];
        let lone = g.lookup_path("a::lone")[0];
        let fwd = reachable(&g, &[a]);
        assert!(fwd[c] && !fwd[lone]);
        let rev = reaches(&g, &[c]);
        assert!(rev[a] && !rev[lone]);
    }

    #[test]
    fn suffix_lookup_finds_qualified_fns() {
        let f = parse_file(
            "crates/a/src/fig7.rs",
            "a",
            &["fig7"],
            "pub fn measure_slot() {}\n",
        );
        let g = Graph::build(&[f]);
        assert_eq!(g.lookup_suffix("fig7::measure_slot").len(), 1);
        assert_eq!(g.lookup_suffix("measure_slot").len(), 1);
        assert_eq!(g.lookup_suffix("a::fig7::measure_slot").len(), 1);
        assert!(g.lookup_suffix("nope").is_empty());
    }
}
