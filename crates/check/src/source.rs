//! A lossy line-oriented model of a Rust source file.
//!
//! The line rules are token-level, so the only parsing they need is the
//! part that prevents false positives: comment and string/char literal
//! stripping (a `"thread_rng"` inside a doc example or a format string
//! must not fire), `#[cfg(test)]` module tracking (test code is exempt
//! from the determinism contract), and `// mb-check: allow(<rule>)`
//! suppression comments.
//!
//! Since v2 this view is *derived from the lexer*: [`SourceFile::parse`]
//! distributes [`crate::lexer`] tokens across lines — code tokens keep
//! their text, literals are blanked to spaces, comment tokens feed the
//! per-line comment field. One tokenizer therefore backs both the line
//! rules and the call-graph passes, and every test in this module pins
//! the lexer's classification decisions.

use crate::lexer::{tokenize, Token, TokenKind};

/// One analysed source line.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// Code content with comments and string/char literals blanked out
    /// (each stripped character becomes a space, so columns survive).
    pub code: String,
    /// Concatenated comment text of this line (without `//` / `/* */`
    /// markers).
    pub comment: String,
    /// Whether any part of the line lies inside a `#[cfg(test)]` module.
    pub in_test: bool,
    /// Whether the line carries any code tokens. String literals count
    /// even though their text is blanked in `code`, so a trailing
    /// `allow(...)` on a literal-only line still binds to that line.
    pub has_code: bool,
    /// Rule names suppressed on this line via `mb-check: allow(...)`.
    pub allowed: Vec<String>,
}

impl Line {
    /// Whether `rule` is suppressed on this line.
    pub fn allows(&self, rule: &str) -> bool {
        self.allowed.iter().any(|r| r == rule)
    }
}

/// A parsed source file.
#[derive(Debug, Clone, Default)]
pub struct SourceFile {
    /// The analysed lines, in order (index 0 = line 1).
    pub lines: Vec<Line>,
}

impl SourceFile {
    /// Parses a source file into stripped lines with test/suppression
    /// annotations.
    pub fn parse(source: &str) -> Self {
        Self::from_tokens(source, &tokenize(source))
    }

    /// Builds the line view from an existing token stream (callers that
    /// also feed the AST layer tokenize once and share).
    pub fn from_tokens(source: &str, tokens: &[Token]) -> Self {
        let mut lines = Vec::new();
        let mut code = String::new();
        let mut comment = String::new();
        let mut saw_code = false;
        let flush =
            |code: &mut String, comment: &mut String, saw: &mut bool, lines: &mut Vec<Line>| {
                lines.push(Line {
                    code: std::mem::take(code),
                    comment: std::mem::take(comment),
                    has_code: std::mem::take(saw),
                    ..Line::default()
                });
            };
        for tok in tokens {
            let text = tok.text(source);
            match tok.kind {
                TokenKind::Ident
                | TokenKind::Number
                | TokenKind::Punct
                | TokenKind::PathSep
                | TokenKind::Lifetime => {
                    saw_code = true;
                    code.push_str(text);
                }
                TokenKind::Whitespace => {
                    for c in text.chars() {
                        if c == '\n' {
                            flush(&mut code, &mut comment, &mut saw_code, &mut lines);
                        } else {
                            code.push(c);
                        }
                    }
                }
                TokenKind::Literal => {
                    // Blanked to spaces so columns survive; newlines in
                    // multi-line strings still break lines.
                    saw_code = true;
                    for c in text.chars() {
                        if c == '\n' {
                            flush(&mut code, &mut comment, &mut saw_code, &mut lines);
                            saw_code = true;
                        } else {
                            code.push(' ');
                        }
                    }
                }
                TokenKind::LineComment => {
                    // Drop the leading `//`; the rest is comment text.
                    comment.push_str(&text[2..]);
                }
                TokenKind::BlockComment => {
                    // The opening marker keeps its columns; interior
                    // `/*`/`*/` pairs vanish like in the v1 scanner.
                    code.push_str("  ");
                    let inner = &text[2..];
                    let bytes = inner.as_bytes();
                    let mut k = 0;
                    while k < bytes.len() {
                        if k + 1 < bytes.len()
                            && (&bytes[k..k + 2] == b"/*" || &bytes[k..k + 2] == b"*/")
                        {
                            k += 2;
                            continue;
                        }
                        let c = inner[k..].chars().next().expect("in bounds");
                        if c == '\n' {
                            flush(&mut code, &mut comment, &mut saw_code, &mut lines);
                        } else {
                            comment.push(c);
                        }
                        k += c.len_utf8();
                    }
                }
            }
        }
        if !code.is_empty() || !comment.is_empty() {
            flush(&mut code, &mut comment, &mut saw_code, &mut lines);
        }
        let mut file = SourceFile { lines };
        file.mark_test_modules();
        file.apply_suppressions();
        file
    }

    /// Marks lines inside `#[cfg(test)]` modules by tracking brace depth
    /// on the stripped code.
    fn mark_test_modules(&mut self) {
        let mut depth = 0i64;
        // Depth at which the innermost `#[cfg(test)]` region opened.
        let mut test_open: Option<i64> = None;
        // A `#[cfg(test)]` attribute was seen and is waiting for its
        // item's opening brace.
        let mut pending_attr = false;
        for line in &mut self.lines {
            let starts_in_test = test_open.is_some();
            if line.code.contains("#[cfg(test)]") {
                pending_attr = true;
            }
            let mut in_test_now = starts_in_test;
            for c in line.code.chars() {
                match c {
                    '{' => {
                        if pending_attr && test_open.is_none() {
                            test_open = Some(depth);
                            pending_attr = false;
                            in_test_now = true;
                        }
                        depth += 1;
                    }
                    '}' => {
                        depth -= 1;
                        if let Some(open) = test_open {
                            if depth <= open {
                                test_open = None;
                            }
                        }
                    }
                    // `#[cfg(test)] use …;` gates a statement, not a
                    // block — the attribute is spent at the semicolon.
                    ';' if test_open.is_none() => pending_attr = false,
                    _ => {}
                }
            }
            line.in_test = starts_in_test || in_test_now || test_open.is_some();
        }
    }

    /// Attaches `mb-check: allow(...)` directives: a trailing comment
    /// suppresses on its own line; a standalone comment line suppresses
    /// on the next line that carries code.
    fn apply_suppressions(&mut self) {
        let mut pending: Vec<String> = Vec::new();
        for line in &mut self.lines {
            let mut here = parse_allow_directives(&line.comment);
            let has_code = line.has_code || !line.code.trim().is_empty();
            if has_code {
                here.append(&mut pending);
                line.allowed = here;
            } else {
                pending.append(&mut here);
            }
        }
    }
}

/// Extracts every rule name from `mb-check: allow(a, b)` directives in a
/// comment. Unknown rule names are kept — the rule layer validates them.
pub fn parse_allow_directives(comment: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(at) = rest.find("mb-check:") {
        rest = &rest[at + "mb-check:".len()..];
        let trimmed = rest.trim_start();
        if let Some(args) = trimmed.strip_prefix("allow(") {
            if let Some(close) = args.find(')') {
                for rule in args[..close].split(',') {
                    let rule = rule.trim();
                    if !rule.is_empty() {
                        out.push(rule.to_string());
                    }
                }
                rest = &args[close + 1..];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<String> {
        SourceFile::parse(src)
            .lines
            .iter()
            .map(|l| l.code.clone())
            .collect()
    }

    #[test]
    fn strips_line_comments() {
        let c = codes("let x = 1; // HashMap here\nlet y = 2;");
        assert!(!c[0].contains("HashMap"));
        assert!(c[0].contains("let x = 1;"));
        assert_eq!(c[1], "let y = 2;");
    }

    #[test]
    fn strips_doc_comments_and_block_comments() {
        let c = codes("/// uses HashMap\n/* multi\nline HashMap */ let z = 3;");
        assert!(c.iter().all(|l| !l.contains("HashMap")));
        assert!(c[2].contains("let z = 3;"));
    }

    #[test]
    fn nested_block_comments() {
        let c = codes("/* outer /* inner */ still comment */ code();");
        assert!(!c[0].contains("still"));
        assert!(c[0].contains("code();"));
    }

    #[test]
    fn strips_string_and_char_literals() {
        let c = codes(r#"let s = "thread_rng"; let c = 'x'; let l: &'static str = s;"#);
        assert!(!c[0].contains("thread_rng"));
        assert!(
            !c[0].contains('x') || c[0].contains("&'static"),
            "{:?}",
            c[0]
        );
        assert!(
            c[0].contains("&'static str"),
            "lifetimes survive: {:?}",
            c[0]
        );
    }

    #[test]
    fn strips_raw_strings() {
        let src = "let s = r#\"Instant \"quoted\" inside\"#; after();";
        let c = codes(src);
        assert!(!c[0].contains("Instant"));
        assert!(c[0].contains("after();"));
    }

    #[test]
    fn escaped_quote_in_string() {
        let c = codes(r#"let s = "a\"b SystemTime"; done();"#);
        assert!(!c[0].contains("SystemTime"));
        assert!(c[0].contains("done();"));
    }

    #[test]
    fn multiline_string_preserves_line_numbers() {
        let src = "let s = \"first\nthread_rng\nlast\";\nafter();";
        let c = codes(src);
        assert_eq!(c.len(), 4);
        assert!(!c[1].contains("thread_rng"));
        assert_eq!(c[3], "after();");
    }

    #[test]
    fn marks_cfg_test_modules() {
        let src = "\
fn lib_code() {}
#[cfg(test)]
mod tests {
    fn helper() {}
    #[test]
    fn t() {}
}
fn more_lib() {}
";
        let f = SourceFile::parse(src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[2].in_test);
        assert!(f.lines[3].in_test);
        assert!(f.lines[5].in_test);
        assert!(!f.lines[7].in_test, "after the mod closes");
    }

    #[test]
    fn cfg_test_on_statement_does_not_open_region() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn real() { body(); }\n";
        let f = SourceFile::parse(src);
        assert!(!f.lines[2].in_test);
    }

    #[test]
    fn trailing_suppression_applies_to_own_line() {
        let src = "let m = HashMap::new(); // mb-check: allow(hashmap-iter-order)\n";
        let f = SourceFile::parse(src);
        assert!(f.lines[0].allows("hashmap-iter-order"));
    }

    #[test]
    fn standalone_suppression_applies_to_next_code_line() {
        let src = "\
// mb-check: allow(unwrap-in-lib)

let v = x.unwrap();
let w = y.unwrap();
";
        let f = SourceFile::parse(src);
        assert!(!f.lines[0].allows("unwrap-in-lib"), "comment line itself");
        assert!(f.lines[2].allows("unwrap-in-lib"));
        assert!(!f.lines[3].allows("unwrap-in-lib"), "only the next line");
    }

    #[test]
    fn trailing_suppression_binds_to_literal_only_lines() {
        // The literal's text is blanked, but the line still carries
        // code — the allow is trailing, not standalone.
        let src = "\
fn name() -> &'static str {
    \"adhoc\" // mb-check: allow(unit-suffix)
}
";
        let f = SourceFile::parse(src);
        assert!(f.lines[1].has_code);
        assert!(f.lines[1].allows("unit-suffix"));
        assert!(!f.lines[2].allows("unit-suffix"));
    }

    #[test]
    fn multiple_rules_in_one_directive() {
        let got = parse_allow_directives(" mb-check: allow(a-rule , b-rule)");
        assert_eq!(got, vec!["a-rule".to_string(), "b-rule".to_string()]);
    }

    #[test]
    fn directive_in_code_position_is_ignored() {
        let src = "let s = \"mb-check: allow(unwrap-in-lib)\"; x.unwrap();\n";
        let f = SourceFile::parse(src);
        assert!(
            !f.lines[0].allows("unwrap-in-lib"),
            "strings are not comments"
        );
    }
}
