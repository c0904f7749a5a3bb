//! Determinism taint and hot-path allocation analysis.
//!
//! **Determinism taint** finds every function that can *transitively*
//! reach a nondeterminism source — a wall-clock read, an unseeded RNG,
//! `HashMap`/`HashSet` iteration, a thread spawn outside
//! `mb_simcore::par`. The v1 line rules catch the source line itself;
//! the taint pass walks the call graph backwards from each source so a
//! model function three crates away from an `Instant::now()` is flagged
//! too, with the full source→sink path available via `mb-check explain`.
//!
//! Taint is sanctioned only through the typed allowlist in
//! [`SANCTIONS`]: the deterministic sweep engine's internals, the host
//! harness crates whose whole job is to touch the wall clock, test
//! code, and explicit `// mb-check: allow(...)` suppressions.
//!
//! **Hot-alloc** runs the same graph forwards: starting from the
//! registered slot measurers ([`HOT_ROOTS`]) every reachable function is
//! scanned for allocation sites (`Vec::new`, `vec![]`, `format!`,
//! `to_string`, `collect`, `Box::new`, ...). Slot measurers run tens of
//! thousands of times per campaign, so a per-call allocation there is a
//! real cost — the ROADMAP's 10× slot-time item starts with this list.

use crate::ast::CallKind;
use crate::graph::{self, Graph};
use crate::report::Finding;
use crate::FileAnalysis;

/// What kind of nondeterminism a source token introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// `Instant` / `SystemTime` — host time.
    WallClock,
    /// `thread_rng`, `OsRng`, `rand::random`, ... — ambient entropy.
    UnseededRng,
    /// `HashMap` / `HashSet` — iteration order.
    HashOrder,
    /// `thread::spawn`, `mpsc`, `rayon`, ... — unmanaged parallelism.
    Threads,
}

impl SourceKind {
    /// The v1 line rule this source kind corresponds to; an
    /// `allow(<this>)` on the source line sanctions the taint too.
    pub fn line_rule(self) -> &'static str {
        match self {
            SourceKind::WallClock => "wall-clock-in-model",
            SourceKind::UnseededRng => "unseeded-rng",
            SourceKind::HashOrder => "hashmap-iter-order",
            SourceKind::Threads => "rogue-threads",
        }
    }

    fn label(self) -> &'static str {
        match self {
            SourceKind::WallClock => "wall clock",
            SourceKind::UnseededRng => "unseeded RNG",
            SourceKind::HashOrder => "hash iteration order",
            SourceKind::Threads => "unmanaged threads",
        }
    }
}

/// Why a would-be source is sanctioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SanctionKind {
    /// `mb_simcore::par` — the deterministic sweep engine owns its
    /// threads and panic containment.
    ParInternals,
    /// Host-measurement harness crates (`bench`, `check`): wall clock
    /// and hash containers are their job.
    HarnessCrate,
    /// `#[cfg(test)]` / `#[test]` code, and everything outside
    /// `crates/*/src`.
    TestCode,
    /// An explicit `// mb-check: allow(<rule>)` on the source line.
    AllowDirective,
}

/// One typed allowlist entry: which source kinds it sanctions, where.
#[derive(Debug, Clone, Copy)]
pub struct Sanction {
    /// The entry's kind (for reporting and tests).
    pub kind: SanctionKind,
    /// File-path suffix this entry is scoped to (`None` = any file).
    pub path_suffix: Option<&'static str>,
    /// Crate directory this entry is scoped to (`None` = any crate).
    pub crate_dir: Option<&'static str>,
    /// Source kinds the entry sanctions.
    pub kinds: &'static [SourceKind],
}

/// The typed taint allowlist. `TestCode` and `AllowDirective` are
/// positional (checked against the token's line), the rest are scoped
/// here. Mirrors the v1 rule scoping exactly, so the taint pass never
/// fires where a line rule was deliberately silent.
pub const SANCTIONS: &[Sanction] = &[
    Sanction {
        kind: SanctionKind::ParInternals,
        path_suffix: Some("crates/simcore/src/par.rs"),
        crate_dir: None,
        kinds: &[SourceKind::Threads],
    },
    Sanction {
        kind: SanctionKind::HarnessCrate,
        path_suffix: None,
        crate_dir: Some("bench"),
        kinds: &[SourceKind::WallClock, SourceKind::HashOrder],
    },
    Sanction {
        kind: SanctionKind::HarnessCrate,
        path_suffix: None,
        crate_dir: Some("check"),
        kinds: &[SourceKind::WallClock, SourceKind::HashOrder],
    },
];

/// A direct nondeterminism source inside one function body.
#[derive(Debug, Clone)]
pub struct TaintSource {
    /// Node id of the containing function.
    pub node: usize,
    /// Source classification.
    pub kind: SourceKind,
    /// The offending token as written (`Instant`, `thread_rng`, ...).
    pub token: String,
    /// 1-based line of the token.
    pub line: usize,
}

/// Result of the backward taint pass.
#[derive(Debug)]
pub struct TaintAnalysis {
    /// Every unsanctioned direct source.
    pub sources: Vec<TaintSource>,
    /// Per node: index into `sources` of the nearest reachable source,
    /// or `None` when the function is determinism-clean.
    pub tainted: Vec<Option<usize>>,
    /// Per node: the next hop on the shortest path toward its source
    /// (`None` for the source function itself).
    pub via: Vec<Option<usize>>,
}

impl TaintAnalysis {
    /// The source→sink call path for a tainted node, as node ids ending
    /// at the source function.
    pub fn path_to_source(&self, node: usize) -> Vec<usize> {
        let mut path = vec![node];
        let mut cur = node;
        while let Some(next) = self.via[cur] {
            path.push(next);
            cur = next;
        }
        path
    }
}

/// Runs the backward determinism-taint pass.
pub fn analyze(files: &[FileAnalysis], graph: &Graph) -> TaintAnalysis {
    let mut sources = Vec::new();
    for (node_id, node) in graph.nodes.iter().enumerate() {
        if node.is_test {
            continue;
        }
        let file = &files[node.file_idx];
        if !file.class.is_lib() {
            continue;
        }
        for hit in direct_sources(file, node.body, nested_bodies(graph, node_id)) {
            sources.push(TaintSource {
                node: node_id,
                kind: hit.0,
                token: hit.1,
                line: hit.2,
            });
        }
    }
    // Multi-source BFS over reverse edges; sources seeded in order so
    // ties resolve deterministically.
    let mut tainted: Vec<Option<usize>> = vec![None; graph.nodes.len()];
    let mut via: Vec<Option<usize>> = vec![None; graph.nodes.len()];
    let mut queue = std::collections::VecDeque::new();
    for (idx, s) in sources.iter().enumerate() {
        if tainted[s.node].is_none() {
            tainted[s.node] = Some(idx);
            queue.push_back(s.node);
        }
    }
    while let Some(n) = queue.pop_front() {
        for &caller in &graph.callers[n] {
            if tainted[caller].is_none() {
                tainted[caller] = tainted[n];
                via[caller] = Some(n);
                queue.push_back(caller);
            }
        }
    }
    TaintAnalysis {
        sources,
        tainted,
        via,
    }
}

/// Body token ranges of other functions nested inside this node's body
/// (their tokens belong to them, not to the enclosing function).
fn nested_bodies(graph: &Graph, node_id: usize) -> Vec<(usize, usize)> {
    let node = &graph.nodes[node_id];
    graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(id, n)| {
            *id != node_id
                && n.file_idx == node.file_idx
                && n.body.0 > node.body.0
                && n.body.1 <= node.body.1
        })
        .map(|(_, n)| n.body)
        .collect()
}

/// Scans one function body for unsanctioned nondeterminism tokens.
fn direct_sources(
    file: &FileAnalysis,
    body: (usize, usize),
    nested: Vec<(usize, usize)>,
) -> Vec<(SourceKind, String, usize)> {
    use crate::lexer::TokenKind;
    let sig: Vec<usize> = (body.0..body.1.min(file.tokens.len()))
        .filter(|&i| {
            !nested.iter().any(|&(s, e)| i >= s && i < e)
                && matches!(file.tokens[i].kind, TokenKind::Ident | TokenKind::PathSep)
        })
        .collect();
    let text = |k: usize| -> &str { file.tokens[sig[k]].text(&file.source) };
    let mut out = Vec::new();
    for k in 0..sig.len() {
        if file.tokens[sig[k]].kind != TokenKind::Ident {
            continue;
        }
        let t = text(k);
        let prev_path = |name: &str| k >= 2 && text(k - 1) == "::" && text(k - 2) == name;
        let next_is_sep = k + 1 < sig.len() && text(k + 1) == "::";
        let hit = match t {
            "Instant" | "SystemTime" => Some(SourceKind::WallClock),
            "HashMap" | "HashSet" => Some(SourceKind::HashOrder),
            "thread_rng" | "from_entropy" | "OsRng" | "getrandom" | "from_os_rng" => {
                Some(SourceKind::UnseededRng)
            }
            "random" if prev_path("rand") => Some(SourceKind::UnseededRng),
            "spawn" | "Builder" | "scope" if prev_path("thread") => Some(SourceKind::Threads),
            "mpsc" | "crossbeam" | "rayon" if next_is_sep => Some(SourceKind::Threads),
            _ => None,
        };
        let Some(kind) = hit else { continue };
        let line = file.tokens[sig[k]].line;
        if sanctioned(file, kind, line) {
            continue;
        }
        let token = match t {
            "random" => "rand::random".to_string(),
            "spawn" => "thread::spawn".to_string(),
            "Builder" => "thread::Builder".to_string(),
            "scope" => "thread::scope".to_string(),
            other => other.to_string(),
        };
        out.push((kind, token, line));
    }
    out
}

/// Whether any allowlist entry (typed or positional) sanctions a source
/// of `kind` on this `line` of `file`.
pub fn sanctioned(file: &FileAnalysis, kind: SourceKind, line: usize) -> bool {
    for s in SANCTIONS {
        if !s.kinds.contains(&kind) {
            continue;
        }
        if let Some(suffix) = s.path_suffix {
            if file.rel.ends_with(suffix) {
                return true;
            }
        }
        if let Some(dir) = s.crate_dir {
            if file.crate_dir() == dir {
                return true;
            }
        }
    }
    if let Some(l) = file.lines.lines.get(line.saturating_sub(1)) {
        // Positional entries: TestCode and AllowDirective.
        if l.in_test || l.allows(kind.line_rule()) || l.allows("determinism-taint") {
            return true;
        }
    }
    false
}

/// Builds `determinism-taint` findings from the analysis: one per
/// tainted non-test library function.
pub fn findings(files: &[FileAnalysis], graph: &Graph, analysis: &TaintAnalysis) -> Vec<Finding> {
    let mut out = Vec::new();
    for (node_id, node) in graph.nodes.iter().enumerate() {
        let Some(src_idx) = analysis.tainted[node_id] else {
            continue;
        };
        if node.is_test || !files[node.file_idx].class.is_lib() {
            continue;
        }
        let src = &analysis.sources[src_idx];
        let src_node = &graph.nodes[src.node];
        let message = if src.node == node_id {
            format!(
                "`{}` reads a nondeterminism source: {} (`{}`) at line {}",
                node.path,
                src.kind.label(),
                src.token,
                src.line
            )
        } else {
            let path = analysis.path_to_source(node_id);
            let route: Vec<&str> = path.iter().map(|&n| graph.nodes[n].name.as_str()).collect();
            format!(
                "`{}` transitively reaches {} (`{}` in {}:{}) via {}",
                node.path,
                src.kind.label(),
                src.token,
                src_node.file,
                src.line,
                route.join(" -> ")
            )
        };
        out.push(Finding {
            rule: "determinism-taint".to_string(),
            file: node.file.clone(),
            line: node.line,
            message,
            symbol: node.path.clone(),
        });
    }
    out
}

/// Qualified paths of the registered slot measurers — the hot roots of
/// the allocation pass. Kernel inner loops are reachable from these, so
/// rooting here covers them too.
pub const HOT_ROOTS: &[&str] = &[
    "montblanc::fig3::SlotMeasurer::measure",
    "montblanc::fig3::measure_faulted_slot",
    "montblanc::fig5::SlotMeasurer::measure",
    "montblanc::fig7::SlotMeasurer::measure",
    "montblanc::fig7::measure_slot",
    "montblanc::table2::SlotMeasurer::measure",
    "montblanc::table2::measure_cell",
];

/// Harness crates that are never linked into the simulator binaries.
/// The method-call over-approximation can route a hot path into them
/// (`montblanc`'s `.parse()` resolving to `Baseline::parse`, say), but
/// nothing a slot measurer executes lives here — so the hot-alloc pass
/// skips them, the same scoping the `HarnessCrate` sanction gives the
/// taint pass.
pub const HARNESS_CRATE_DIRS: &[&str] = &["bench", "check"];

/// Allocation shapes flagged on hot paths, matched against the AST's
/// call sites.
fn alloc_label(kind: CallKind, segments: &[String]) -> Option<String> {
    let last = segments.last().map(String::as_str).unwrap_or("");
    match kind {
        CallKind::Macro => match last {
            "vec" | "format" => Some(format!("{last}!")),
            _ => None,
        },
        CallKind::Method => match last {
            "to_string" | "to_owned" | "to_vec" | "collect" => Some(format!(".{last}()")),
            _ => None,
        },
        CallKind::Path => {
            if segments.len() < 2 {
                return None;
            }
            let ty = segments[segments.len() - 2].as_str();
            match (ty, last) {
                ("Vec", "new" | "with_capacity")
                | ("Box", "new")
                | ("String", "new" | "from" | "with_capacity") => Some(format!("{ty}::{last}")),
                _ => None,
            }
        }
    }
}

/// Runs the forward hot-alloc pass: allocation sites inside functions
/// reachable from [`HOT_ROOTS`].
pub fn hot_alloc_findings(files: &[FileAnalysis], graph: &Graph) -> Vec<Finding> {
    let mut roots = Vec::new();
    for path in HOT_ROOTS {
        roots.extend_from_slice(graph.lookup_path(path));
    }
    roots.sort_unstable();
    roots.dedup();
    if roots.is_empty() {
        return Vec::new();
    }
    let hot = graph::reachable(graph, &roots);
    // Per-root reachability so each finding names a concrete measurer.
    let per_root: Vec<(usize, Vec<bool>)> = roots
        .iter()
        .map(|&r| (r, graph::reachable(graph, &[r])))
        .collect();
    let mut out = Vec::new();
    // Node ids enumerate files then fns — the same order Graph::build
    // assigned them.
    let mut node_iter = 0usize;
    for file in files {
        let harness = HARNESS_CRATE_DIRS.contains(&file.crate_dir());
        for f in &file.ast.fns {
            let node_id = node_iter;
            node_iter += 1;
            if !hot[node_id] || f.is_test || !file.class.is_lib() || harness {
                continue;
            }
            let root = per_root
                .iter()
                .find(|(_, m)| m[node_id])
                .map_or(roots[0], |(r, _)| *r);
            for call in &f.calls {
                let Some(label) = alloc_label(call.kind, &call.segments) else {
                    continue;
                };
                if let Some(l) = file.lines.lines.get(call.line.saturating_sub(1)) {
                    if l.in_test || l.allows("hot-alloc") {
                        continue;
                    }
                }
                out.push(Finding {
                    rule: "hot-alloc".to_string(),
                    file: file.rel.clone(),
                    line: call.line,
                    message: format!(
                        "`{label}` allocates on a hot slot path: `{}` is reachable \
                         from `{}`; hoist the buffer into reusable state",
                        f.path, graph.nodes[root].path
                    ),
                    symbol: f.path.clone(),
                });
            }
        }
    }
    out
}

/// Renders the `explain <fn>` report: the function's taint verdict and,
/// when tainted, the full sink→source call path with file:line anchors.
pub fn explain(
    files: &[FileAnalysis],
    graph: &Graph,
    analysis: &TaintAnalysis,
    query: &str,
) -> String {
    use std::fmt::Write as _;
    let matches = graph.lookup_suffix(query);
    let mut out = String::new();
    if matches.is_empty() {
        let _ = writeln!(out, "mb-check explain: no function matches `{query}`");
        let mut near: Vec<&str> = graph
            .nodes
            .iter()
            .filter(|n| n.name.contains(query.rsplit("::").next().unwrap_or(query)))
            .map(|n| n.path.as_str())
            .collect();
        near.sort_unstable();
        near.dedup();
        for n in near.iter().take(8) {
            let _ = writeln!(out, "  close match: {n}");
        }
        return out;
    }
    for &node_id in &matches {
        let node = &graph.nodes[node_id];
        match analysis.tainted[node_id] {
            None => {
                let _ = writeln!(
                    out,
                    "{} ({}:{}) is determinism-clean: no reachable \
                     nondeterminism source",
                    node.path, node.file, node.line
                );
            }
            Some(src_idx) => {
                let src = &analysis.sources[src_idx];
                let path = analysis.path_to_source(node_id);
                let _ = writeln!(
                    out,
                    "{} ({}:{}) is TAINTED: reaches {} (`{}`)",
                    node.path,
                    node.file,
                    node.line,
                    src.kind.label(),
                    src.token
                );
                for (depth, &hop) in path.iter().enumerate() {
                    let n = &graph.nodes[hop];
                    let marker = if depth == 0 { "sink  " } else { "calls " };
                    let _ = writeln!(out, "  {}{} ({}:{})", marker, n.path, n.file, n.line);
                }
                let file = &files[graph.nodes[src.node].file_idx];
                let _ = writeln!(out, "  source `{}` at {}:{}", src.token, file.rel, src.line);
            }
        }
    }
    out
}
