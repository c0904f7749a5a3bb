//! A lightweight item/expression parser over [`crate::lexer`] tokens.
//!
//! This is not a Rust grammar — it recovers exactly the structure the
//! call-graph passes need: module/impl/fn nesting (so every function
//! gets a qualified path like `montblanc::fig7::measure_slot`), `use`
//! declarations with renames, and the call expressions inside each
//! function body (path calls, method calls, macro invocations). The
//! parser is conservative: anything it does not understand falls into
//! an anonymous block scope, which can hide a call edge but never
//! invents one with a wrong path.

use crate::lexer::{Token, TokenKind};

/// How a call site was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `path::to::fn(...)` — full path available.
    Path,
    /// `recv.name(...)` — only the method name is known.
    Method,
    /// `name!(...)` — a macro invocation.
    Macro,
}

/// One call expression inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Path or method-name shape.
    pub kind: CallKind,
    /// Path segments as written (`["fig5", "SlotMeasurer", "new"]`);
    /// method and macro calls carry a single segment.
    pub segments: Vec<String>,
    /// 1-based source line of the call head.
    pub line: usize,
}

/// One function (or method) definition with a body.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Fully qualified path: crate name, file module path, then every
    /// enclosing `mod`/`impl`/`trait`/`fn` name.
    pub path: String,
    /// The bare function name (last path segment).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the innermost named scope is an `impl`/`trait` block —
    /// method calls only resolve to such functions.
    pub in_impl: bool,
    /// Whether the definition sits under a `#[test]`-ish attribute or a
    /// `#[cfg(test)]` scope.
    pub is_test: bool,
    /// Token-index range `[start, end)` of the body (including braces)
    /// into the token vector the file was parsed from.
    pub body: (usize, usize),
    /// Call sites found in the body, in source order.
    pub calls: Vec<Call>,
}

/// One expanded `use` binding: `alias` names `segments` in this file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseEntry {
    /// The local name the import binds (`as` rename honored).
    pub alias: String,
    /// The imported path as written (`crate`/`super`/`self` included).
    pub segments: Vec<String>,
}

/// Everything the graph layer needs from one file.
#[derive(Debug, Clone)]
pub struct ParsedFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Rust crate name (`montblanc`, `mb_check`, ...).
    pub crate_name: String,
    /// Module path derived from the file's location under `src/`.
    pub module_path: Vec<String>,
    /// All function definitions with bodies.
    pub fns: Vec<FnDef>,
    /// All `use` bindings, file-wide (scopes are over-approximated).
    pub uses: Vec<UseEntry>,
}

/// Parses one file. `tokens` must come from `lexer::tokenize(source)`.
pub fn parse(
    source: &str,
    tokens: &[Token],
    rel: &str,
    crate_name: &str,
    module_path: &[String],
) -> ParsedFile {
    let sig: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .map(|(i, _)| i)
        .collect();
    let mut p = Parser {
        src: source,
        toks: tokens,
        sig,
        i: 0,
        scopes: Vec::new(),
        fns: Vec::new(),
        uses: Vec::new(),
        pending_test: false,
        prefix: {
            let mut v = vec![crate_name.to_string()];
            v.extend(module_path.iter().cloned());
            v
        },
    };
    p.run();
    ParsedFile {
        rel: rel.to_string(),
        crate_name: crate_name.to_string(),
        module_path: module_path.to_vec(),
        fns: p.fns,
        uses: p.uses,
    }
}

#[derive(Debug)]
enum ScopeKind {
    /// `mod name { ... }`
    Mod(String),
    /// `impl Type { ... }` / `trait Name { ... }`
    Type(String),
    /// `fn name { ... }` — index into `fns`.
    Fn(usize),
    /// Any other brace pair (match, struct body, closure, ...).
    Block,
}

struct Scope {
    kind: ScopeKind,
    is_test: bool,
}

struct Parser<'s> {
    src: &'s str,
    toks: &'s [Token],
    /// Indices of significant (non-trivia) tokens.
    sig: Vec<usize>,
    /// Cursor into `sig`.
    i: usize,
    scopes: Vec<Scope>,
    fns: Vec<FnDef>,
    uses: Vec<UseEntry>,
    /// A `#[test]`/`#[cfg(test)]`-ish attribute awaits its item.
    pending_test: bool,
    /// Crate name plus file module path.
    prefix: Vec<String>,
}

/// Keywords that can never head a call path (path-head keywords
/// `crate`/`super`/`self`/`Self` are handled separately).
const STMT_KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "dyn", "else", "enum", "extern",
    "false", "for", "if", "in", "let", "loop", "match", "move", "mut", "pub", "ref", "return",
    "static", "struct", "true", "type", "union", "unsafe", "where", "while",
];

impl<'s> Parser<'s> {
    fn run(&mut self) {
        while self.i < self.sig.len() {
            self.step();
        }
        // Close any scopes left open by truncated input.
        while !self.scopes.is_empty() {
            self.close_scope(self.sig.len());
        }
    }

    /// Text of the `k`-th significant token from the cursor.
    fn peek(&self, k: usize) -> Option<&'s str> {
        let idx = *self.sig.get(self.i + k)?;
        Some(self.toks[idx].text(self.src))
    }

    fn peek_kind(&self, k: usize) -> Option<TokenKind> {
        let idx = *self.sig.get(self.i + k)?;
        Some(self.toks[idx].kind)
    }

    fn line_at(&self, k: usize) -> usize {
        self.sig
            .get(self.i + k)
            .map_or(0, |&idx| self.toks[idx].line)
    }

    /// Raw token index of the `k`-th significant token from the cursor.
    fn raw_idx(&self, k: usize) -> usize {
        self.sig.get(self.i + k).copied().unwrap_or(self.toks.len())
    }

    fn in_test_scope(&self) -> bool {
        self.scopes.iter().any(|s| s.is_test)
    }

    fn current_fn(&self) -> Option<usize> {
        self.scopes.iter().rev().find_map(|s| match s.kind {
            ScopeKind::Fn(idx) => Some(idx),
            _ => None,
        })
    }

    /// Name of the innermost `impl`/`trait` scope (for `Self::` calls).
    fn current_type(&self) -> Option<&str> {
        self.scopes.iter().rev().find_map(|s| match &s.kind {
            ScopeKind::Type(name) => Some(name.as_str()),
            _ => None,
        })
    }

    fn step(&mut self) {
        let text = self.peek(0).expect("cursor in bounds");
        let kind = self.peek_kind(0).expect("cursor in bounds");
        match (kind, text) {
            (TokenKind::Punct, "#") => self.attribute(),
            (TokenKind::Ident, "use") => self.use_decl(),
            (TokenKind::Ident, "mod") => self.mod_decl(),
            (TokenKind::Ident, "impl") => self.impl_or_trait_header(false),
            (TokenKind::Ident, "trait") => self.impl_or_trait_header(true),
            (TokenKind::Ident, "fn") => self.fn_decl(),
            (TokenKind::Punct, "{") => {
                self.scopes.push(Scope {
                    kind: ScopeKind::Block,
                    is_test: self.in_test_scope(),
                });
                self.i += 1;
            }
            (TokenKind::Punct, "}") => {
                let end = self.raw_idx(0) + 1;
                self.close_scope(end);
                self.i += 1;
            }
            (TokenKind::Punct, ";") => {
                // An attribute on a statement-like item is spent here.
                self.pending_test = false;
                self.i += 1;
            }
            (TokenKind::Ident, _) => self.maybe_call(),
            _ => self.i += 1,
        }
    }

    fn close_scope(&mut self, end_token: usize) {
        if let Some(scope) = self.scopes.pop() {
            if let ScopeKind::Fn(idx) = scope.kind {
                self.fns[idx].body.1 = end_token;
            }
        }
    }

    /// `#` `!`? `[ ... ]` — marks the next item as test code when the
    /// attribute mentions `test` (and is not a `not(test)` gate).
    fn attribute(&mut self) {
        self.i += 1; // '#'
        if self.peek(0) == Some("!") {
            self.i += 1;
        }
        if self.peek(0) != Some("[") {
            return;
        }
        self.i += 1;
        let mut depth = 1u32;
        let mut saw_test = false;
        let mut saw_not = false;
        while depth > 0 && self.i < self.sig.len() {
            match self.peek(0) {
                Some("[") => depth += 1,
                Some("]") => depth -= 1,
                Some("test") if self.peek_kind(0) == Some(TokenKind::Ident) => saw_test = true,
                Some("not") if self.peek_kind(0) == Some(TokenKind::Ident) => saw_not = true,
                _ => {}
            }
            self.i += 1;
        }
        if saw_test && !saw_not {
            self.pending_test = true;
        }
    }

    /// `use tree ;` — expands the tree into alias bindings.
    fn use_decl(&mut self) {
        self.i += 1; // 'use'
        let mut entries = Vec::new();
        self.use_tree(&mut Vec::new(), &mut entries);
        if self.peek(0) == Some(";") {
            self.i += 1;
        }
        self.uses.extend(entries);
        self.pending_test = false;
    }

    /// Parses one use-tree at the cursor, appending bindings.
    fn use_tree(&mut self, stem: &mut Vec<String>, out: &mut Vec<UseEntry>) {
        let rollback = stem.len();
        loop {
            match (self.peek_kind(0), self.peek(0)) {
                (Some(TokenKind::Ident), Some(seg)) => {
                    stem.push(strip_raw(seg).to_string());
                    self.i += 1;
                }
                (_, Some("*")) => {
                    // Glob: nothing to bind by name.
                    self.i += 1;
                    break;
                }
                (_, Some("{")) => {
                    self.i += 1;
                    loop {
                        match self.peek(0) {
                            Some("}") => {
                                self.i += 1;
                                break;
                            }
                            Some(",") => self.i += 1,
                            Some(_) => self.use_tree(stem, out),
                            None => break,
                        }
                    }
                    break;
                }
                _ => break,
            }
            match self.peek(0) {
                Some("::") => self.i += 1,
                Some("as") => {
                    self.i += 1;
                    if let (Some(TokenKind::Ident), Some(alias)) = (self.peek_kind(0), self.peek(0))
                    {
                        out.push(UseEntry {
                            alias: strip_raw(alias).to_string(),
                            segments: resolve_self_segment(stem),
                        });
                        self.i += 1;
                    }
                    stem.truncate(rollback);
                    return;
                }
                _ => {
                    // Plain leaf: binds its last segment.
                    if let Some(last) = stem.last() {
                        let segments = resolve_self_segment(stem);
                        let alias = if last == "self" {
                            segments.last().cloned().unwrap_or_default()
                        } else {
                            last.clone()
                        };
                        if !alias.is_empty() {
                            out.push(UseEntry { alias, segments });
                        }
                    }
                    stem.truncate(rollback);
                    return;
                }
            }
        }
        stem.truncate(rollback);
    }

    fn mod_decl(&mut self) {
        self.i += 1; // 'mod'
        let Some(TokenKind::Ident) = self.peek_kind(0) else {
            return;
        };
        let name = strip_raw(self.peek(0).expect("ident")).to_string();
        self.i += 1;
        let test = self.pending_test || self.in_test_scope();
        self.pending_test = false;
        match self.peek(0) {
            Some("{") => {
                self.scopes.push(Scope {
                    kind: ScopeKind::Mod(name),
                    is_test: test,
                });
                self.i += 1;
            }
            Some(";") => self.i += 1,
            _ => {}
        }
    }

    /// Consumes an `impl`/`trait` header up to its `{`, extracting the
    /// self-type (or trait) name that scopes the methods inside.
    fn impl_or_trait_header(&mut self, is_trait: bool) {
        self.i += 1; // keyword
        let test = self.pending_test || self.in_test_scope();
        self.pending_test = false;
        let mut header: Vec<&str> = Vec::new();
        let mut paren = 0i32;
        let mut bracket = 0i32;
        while self.i < self.sig.len() {
            let t = self.peek(0).expect("in bounds");
            match t {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "{" if paren == 0 && bracket == 0 => break,
                ";" if paren == 0 && bracket == 0 => {
                    self.i += 1;
                    return;
                }
                _ => {}
            }
            header.push(t);
            self.i += 1;
        }
        let name = if is_trait {
            header
                .iter()
                .find(|t| !t.starts_with('<'))
                .copied()
                .unwrap_or("")
                .to_string()
        } else {
            impl_type_name(&header)
        };
        if self.peek(0) == Some("{") {
            self.scopes.push(Scope {
                kind: ScopeKind::Type(name),
                is_test: test,
            });
            self.i += 1;
        }
    }

    /// `fn name ( ... ) ... { body }` — records the definition and
    /// enters its body scope. Signatures without a body (trait method
    /// declarations) are skipped.
    fn fn_decl(&mut self) {
        let fn_line = self.line_at(0);
        self.i += 1; // 'fn'
        let Some(TokenKind::Ident) = self.peek_kind(0) else {
            return; // `fn(u8) -> u8` pointer type
        };
        let name = strip_raw(self.peek(0).expect("ident")).to_string();
        self.i += 1;
        let test = self.pending_test || self.in_test_scope();
        self.pending_test = false;
        // Scan the signature for the body brace.
        let mut paren = 0i32;
        let mut bracket = 0i32;
        while self.i < self.sig.len() {
            match self.peek(0).expect("in bounds") {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "{" if paren == 0 && bracket == 0 => {
                    let body_start = self.raw_idx(0);
                    let mut path: Vec<String> = self.prefix.clone();
                    path.extend(self.scopes.iter().filter_map(|s| match &s.kind {
                        ScopeKind::Mod(n) | ScopeKind::Type(n) => Some(n.clone()),
                        ScopeKind::Fn(idx) => Some(self.fns[*idx].name.clone()),
                        ScopeKind::Block => None,
                    }));
                    path.push(name.clone());
                    let in_impl = matches!(
                        self.scopes
                            .iter()
                            .rev()
                            .find(|s| { matches!(s.kind, ScopeKind::Mod(_) | ScopeKind::Type(_)) }),
                        Some(Scope {
                            kind: ScopeKind::Type(_),
                            ..
                        })
                    );
                    let idx = self.fns.len();
                    self.fns.push(FnDef {
                        path: path.join("::"),
                        name,
                        line: fn_line,
                        in_impl,
                        is_test: test,
                        body: (body_start, body_start),
                        calls: Vec::new(),
                    });
                    self.scopes.push(Scope {
                        kind: ScopeKind::Fn(idx),
                        is_test: test,
                    });
                    self.i += 1;
                    return;
                }
                ";" if paren == 0 && bracket == 0 => {
                    self.i += 1;
                    return;
                }
                _ => {}
            }
            self.i += 1;
        }
    }

    /// At a plain identifier: extract a call if one starts here, and
    /// always advance past the full path so inner segments are not
    /// re-examined as call heads.
    fn maybe_call(&mut self) {
        let head = self.peek(0).expect("ident");
        if STMT_KEYWORDS.contains(&head) {
            self.i += 1;
            return;
        }
        // The significant token before the path: a `.` marks a method
        // position.
        let after_dot = self.i > 0 && {
            let prev = self.toks[self.sig[self.i - 1]].text(self.src);
            prev == "."
        };
        let line = self.line_at(0);
        let mut segments = vec![strip_raw(head).to_string()];
        self.i += 1;
        // Collect `::seg` continuations and at most one turbofish.
        loop {
            if self.peek(0) != Some("::") {
                break;
            }
            match (self.peek_kind(1), self.peek(1)) {
                (Some(TokenKind::Ident), Some(seg)) if !STMT_KEYWORDS.contains(&seg) => {
                    segments.push(strip_raw(seg).to_string());
                    self.i += 2;
                }
                (_, Some("<")) => {
                    // Turbofish; segments may continue after it
                    // (`Grid::<f64>::random`).
                    self.i += 2;
                    self.skip_angles();
                }
                _ => break,
            }
        }
        let Some(fn_idx) = self.current_fn() else {
            return;
        };
        if self.in_test_scope() && !self.fns[fn_idx].is_test {
            // Cannot happen (fn scopes inherit), but stay safe.
            return;
        }
        if segments[0] == "Self" {
            if let Some(ty) = self.current_type() {
                segments[0] = ty.to_string();
            }
        }
        let call = match self.peek(0) {
            Some("(") => Some(Call {
                kind: if after_dot {
                    CallKind::Method
                } else {
                    CallKind::Path
                },
                segments,
                line,
            }),
            Some("!") if matches!(self.peek(1), Some("(" | "[" | "{")) => {
                self.i += 1; // the '!'; the delimiter is handled normally
                Some(Call {
                    kind: CallKind::Macro,
                    segments: vec![segments.last().cloned().unwrap_or_default()],
                    line,
                })
            }
            _ => None,
        };
        if let Some(call) = call {
            // Method calls keep only the name; a dotted path cannot
            // have multiple segments anyway.
            self.fns[fn_idx].calls.push(call);
        }
    }

    /// Skips a `<...>` block already entered (cursor past the `<`).
    /// `->` arrows inside are not closers.
    fn skip_angles(&mut self) {
        let mut depth = 1i32;
        while depth > 0 && self.i < self.sig.len() {
            let t = self.peek(0).expect("in bounds");
            let prev_is_dash = self.i > 0
                && self.toks[self.sig[self.i - 1]].text(self.src) == "-"
                && self.sig[self.i - 1] + 1 == self.sig[self.i];
            match t {
                "<" => depth += 1,
                ">" if !prev_is_dash => depth -= 1,
                "(" | ")" | "[" | "]" => {}
                ";" | "{" => break, // damaged input: bail before eating items
                _ => {}
            }
            self.i += 1;
        }
    }
}

/// Extracts the self-type name from an `impl` header's tokens (between
/// `impl` and `{`): the last path identifier of the type after `for`
/// when present, else of the first type path after the generic params.
fn impl_type_name(header: &[&str]) -> String {
    // Split off leading generic params `<...>`.
    let mut idx = 0;
    if header.first() == Some(&"<") {
        let mut depth = 0i32;
        for (k, t) in header.iter().enumerate() {
            match *t {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        idx = k + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    // Prefer the segment after a top-level `for`.
    let mut depth = 0i32;
    for (k, t) in header.iter().enumerate().skip(idx) {
        match *t {
            "<" => depth += 1,
            ">" => depth -= 1,
            "for" if depth == 0 => {
                idx = k + 1;
            }
            "where" if depth == 0 => break,
            _ => {}
        }
    }
    // Last identifier of the path before its generics.
    let mut name = String::new();
    let mut depth = 0i32;
    for t in header.iter().skip(idx) {
        match *t {
            "<" => depth += 1,
            ">" => depth -= 1,
            "where" if depth == 0 => break,
            "&" | "mut" | "dyn" => {}
            t if depth == 0 => {
                if t == "::" {
                    continue;
                }
                if t.chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_')
                {
                    name = strip_raw(t).to_string();
                } else {
                    break;
                }
            }
            _ => {}
        }
    }
    name
}

/// `use a::b::{self, c}` — a `self` leaf names its parent module.
fn resolve_self_segment(stem: &[String]) -> Vec<String> {
    if stem.last().map(String::as_str) == Some("self") {
        stem[..stem.len() - 1].to_vec()
    } else {
        stem.to_vec()
    }
}

fn strip_raw(ident: &str) -> &str {
    ident.strip_prefix("r#").unwrap_or(ident)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn parse_src(src: &str) -> ParsedFile {
        let toks = tokenize(src);
        parse(src, &toks, "crates/x/src/m.rs", "x", &["m".to_string()])
    }

    fn fn_paths(p: &ParsedFile) -> Vec<&str> {
        p.fns.iter().map(|f| f.path.as_str()).collect()
    }

    #[test]
    fn qualifies_nested_items() {
        let p = parse_src(
            "fn top() {}\n\
             mod inner { pub fn leaf() {} }\n\
             struct S;\n\
             impl S { fn method(&self) {} }\n\
             trait T { fn provided(&self) { helper(); } fn required(&self); }\n",
        );
        assert_eq!(
            fn_paths(&p),
            [
                "x::m::top",
                "x::m::inner::leaf",
                "x::m::S::method",
                "x::m::T::provided"
            ]
        );
        assert!(p.fns[2].in_impl);
        assert!(p.fns[3].in_impl);
        assert!(!p.fns[0].in_impl);
    }

    #[test]
    fn generic_impl_for_extracts_self_type() {
        let p = parse_src(
            "impl<T: Clone> std::fmt::Display for Grid<T> {\n\
             fn fmt(&self) -> u8 { 0 }\n}\n\
             impl<'a> Wrapper<'a> { fn get(&self) {} }\n",
        );
        assert_eq!(fn_paths(&p), ["x::m::Grid::fmt", "x::m::Wrapper::get"]);
    }

    #[test]
    fn extracts_path_method_and_macro_calls() {
        let p = parse_src(
            "fn f() {\n\
             let g = fig5::SlotMeasurer::new(cfg);\n\
             let v = data.iter().collect::<Vec<_>>();\n\
             let s = format!(\"x{}\", 1);\n\
             crate::helper(vec![1, 2]);\n\
             }\n",
        );
        let calls = &p.fns[0].calls;
        let find = |kind: CallKind, last: &str| {
            calls
                .iter()
                .any(|c| c.kind == kind && c.segments.last().map(String::as_str) == Some(last))
        };
        assert!(find(CallKind::Path, "new"));
        assert!(
            calls
                .iter()
                .any(|c| c.segments == ["fig5".to_string(), "SlotMeasurer".into(), "new".into()]),
            "{calls:?}"
        );
        assert!(find(CallKind::Method, "iter"));
        assert!(find(CallKind::Method, "collect"));
        assert!(find(CallKind::Macro, "format"));
        assert!(find(CallKind::Macro, "vec"));
        assert!(
            calls
                .iter()
                .any(|c| c.segments == ["crate".to_string(), "helper".into()]),
            "{calls:?}"
        );
    }

    #[test]
    fn self_type_calls_resolve_to_impl_type() {
        let p = parse_src("struct W; impl W { fn a() { Self::b(); self.c(); } fn b() {} }\n");
        let calls = &p.fns[0].calls;
        assert!(calls
            .iter()
            .any(|c| c.segments == ["W".to_string(), "b".into()]));
        assert!(calls
            .iter()
            .any(|c| c.kind == CallKind::Method && c.segments == ["c".to_string()]));
    }

    #[test]
    fn use_trees_expand_with_renames() {
        let p = parse_src(
            "use montblanc::{fig5, fig7 as seven};\n\
             use std::collections::BTreeMap;\n\
             use crate::graph::{self, Node as N};\n",
        );
        let has = |alias: &str, segs: &[&str]| {
            p.uses.iter().any(|u| {
                u.alias == alias
                    && u.segments.iter().map(String::as_str).collect::<Vec<_>>() == segs
            })
        };
        assert!(has("fig5", &["montblanc", "fig5"]), "{:?}", p.uses);
        assert!(has("seven", &["montblanc", "fig7"]), "{:?}", p.uses);
        assert!(has("BTreeMap", &["std", "collections", "BTreeMap"]));
        assert!(has("graph", &["crate", "graph"]), "{:?}", p.uses);
        assert!(has("N", &["crate", "graph", "Node"]), "{:?}", p.uses);
    }

    #[test]
    fn cfg_test_marks_fns() {
        let p = parse_src(
            "fn lib() {}\n\
             #[cfg(test)]\nmod tests {\n  #[test]\n  fn t() {}\n  fn helper() {}\n}\n\
             #[cfg(not(test))]\nfn gated() {}\n",
        );
        let by_name = |n: &str| p.fns.iter().find(|f| f.name == n).expect("fn exists");
        assert!(!by_name("lib").is_test);
        assert!(by_name("t").is_test);
        assert!(by_name("helper").is_test, "whole cfg(test) mod is test");
        assert!(!by_name("gated").is_test, "not(test) is not a test gate");
    }

    #[test]
    fn fn_declaration_is_not_a_call() {
        let p = parse_src("fn outer() { fn inner(x: u8) {} inner(3); }\n");
        assert_eq!(fn_paths(&p), ["x::m::outer", "x::m::outer::inner"]);
        let outer_calls = &p.fns[0].calls;
        assert_eq!(outer_calls.len(), 1, "{outer_calls:?}");
        assert_eq!(outer_calls[0].segments, ["inner".to_string()]);
    }

    #[test]
    fn body_ranges_cover_the_braces() {
        let src = "fn f() { let x = 1; }";
        let toks = tokenize(src);
        let p = parse(src, &toks, "r.rs", "x", &[]);
        let (start, end) = p.fns[0].body;
        assert_eq!(toks[start].text(src), "{");
        assert_eq!(toks[end - 1].text(src), "}");
    }

    #[test]
    fn trait_method_signatures_are_skipped() {
        let p = parse_src("trait T { fn sig(&self) -> u8; }\nfn after() {}\n");
        assert_eq!(fn_paths(&p), ["x::m::after"]);
    }

    #[test]
    fn match_arms_and_struct_literals_stay_blocks() {
        let p = parse_src(
            "fn f(g: u8) -> S {\n\
             match g { 0 => zero(), _ => other() }\n\
             S { field: build() }\n\
             }\nfn g() {}\n",
        );
        assert_eq!(fn_paths(&p), ["x::m::f", "x::m::g"]);
        let names: Vec<&str> = p.fns[0]
            .calls
            .iter()
            .map(|c| c.segments.last().expect("segments").as_str())
            .collect();
        assert_eq!(names, ["zero", "other", "build"]);
    }
}
