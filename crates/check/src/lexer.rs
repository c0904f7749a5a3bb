//! A hand-rolled Rust tokenizer.
//!
//! The v1 line scanner blanked comments and strings; the v2 analyses
//! (item parsing, call-graph construction, taint propagation) need real
//! tokens with spans. The lexer is *lossless*: every byte of the source
//! belongs to exactly one token, so concatenating the token spans
//! reconstructs the input — a property pinned by proptests in
//! `tests/lexer_props.rs`. It handles the Rust constructs that defeat
//! naive scanners: nested block comments, string escapes, raw (byte)
//! strings with arbitrary hash fences, byte strings, char literals
//! versus lifetimes, and numeric literals with type suffixes.

/// What a token is, coarsely — just enough structure for item parsing
/// and rule matching, not a full Rust grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `HashMap`, `r#raw_ident`).
    Ident,
    /// A lifetime (`'a`, `'static`) — the tick plus the name.
    Lifetime,
    /// String, raw-string, byte-string, or char literal.
    Literal,
    /// Numeric literal (including suffixes: `1_000u64`, `1.5e-3`).
    Number,
    /// `//` or `//!`/`///` comment, *without* the trailing newline.
    LineComment,
    /// `/* ... */` comment, nesting included.
    BlockComment,
    /// Whitespace run (spaces, tabs, newlines).
    Whitespace,
    /// `::` — the only multi-byte punctuation the parser needs fused.
    PathSep,
    /// Any other single punctuation character.
    Punct,
}

/// One token: kind, byte span, and the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Coarse classification.
    pub kind: TokenKind,
    /// Byte range `start..end` into the source.
    pub start: usize,
    /// Exclusive end byte.
    pub end: usize,
    /// 1-based line number of the token's first byte.
    pub line: usize,
}

impl Token {
    /// The token's text within `source`.
    pub fn text<'s>(&self, source: &'s str) -> &'s str {
        &source[self.start..self.end]
    }

    /// Whether this token is an identifier with exactly this text.
    pub fn is_ident(&self, source: &str, word: &str) -> bool {
        self.kind == TokenKind::Ident && self.text(source) == word
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, source: &str, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text(source).starts_with(c)
    }
}

/// Tokenizes `source` losslessly: the returned tokens tile the input.
pub fn tokenize(source: &str) -> Vec<Token> {
    Lexer {
        src: source.as_bytes(),
        text: source,
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'s> {
    src: &'s [u8],
    text: &'s str,
    pos: usize,
    line: usize,
    out: Vec<Token>,
}

impl<'s> Lexer<'s> {
    fn run(mut self) -> Vec<Token> {
        while self.pos < self.src.len() {
            let start = self.pos;
            let line = self.line;
            let kind = self.next_kind();
            debug_assert!(self.pos > start, "lexer must consume at least one byte");
            self.out.push(Token {
                kind,
                start,
                end: self.pos,
                line,
            });
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    /// Advances one byte, tracking line numbers.
    fn bump(&mut self) {
        if self.src[self.pos] == b'\n' {
            self.line += 1;
        }
        self.pos += 1;
    }

    /// Advances over one full `char` (multi-byte UTF-8 safe).
    fn bump_char(&mut self) {
        let c = self.text[self.pos..].chars().next().expect("in bounds");
        if c == '\n' {
            self.line += 1;
        }
        self.pos += c.len_utf8();
    }

    fn next_kind(&mut self) -> TokenKind {
        let b = self.src[self.pos];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                while matches!(self.peek(0), Some(b' ' | b'\t' | b'\r' | b'\n')) {
                    self.bump();
                }
                TokenKind::Whitespace
            }
            b'/' if self.peek(1) == Some(b'/') => {
                while self.peek(0).is_some_and(|c| c != b'\n') {
                    self.bump();
                }
                TokenKind::LineComment
            }
            b'/' if self.peek(1) == Some(b'*') => {
                self.bump();
                self.bump();
                let mut depth = 1u32;
                while depth > 0 && self.pos < self.src.len() {
                    if self.peek(0) == Some(b'/') && self.peek(1) == Some(b'*') {
                        depth += 1;
                        self.bump();
                        self.bump();
                    } else if self.peek(0) == Some(b'*') && self.peek(1) == Some(b'/') {
                        depth -= 1;
                        self.bump();
                        self.bump();
                    } else {
                        self.bump_char();
                    }
                }
                TokenKind::BlockComment
            }
            b'"' => self.string_literal(),
            b'\'' => self.tick(),
            b'r' | b'b' if self.raw_string_ahead() => self.raw_string(),
            b'b' if self.peek(1) == Some(b'"') => {
                self.bump();
                self.string_literal()
            }
            b'b' if self.peek(1) == Some(b'\'') => {
                self.bump();
                // A byte literal is always a literal, never a lifetime.
                self.char_literal();
                TokenKind::Literal
            }
            b'r' if self.peek(1) == Some(b'#') && self.peek(2).is_some_and(is_ident_start) => {
                // Raw identifier `r#match`.
                self.bump();
                self.bump();
                while self.peek(0).is_some_and(is_ident_continue) {
                    self.bump();
                }
                TokenKind::Ident
            }
            _ if is_ident_start(b) => {
                while self.peek(0).is_some_and(is_ident_continue) {
                    self.bump();
                }
                TokenKind::Ident
            }
            _ if b.is_ascii_digit() => self.number(),
            b':' if self.peek(1) == Some(b':') => {
                self.bump();
                self.bump();
                TokenKind::PathSep
            }
            _ => {
                self.bump_char();
                TokenKind::Punct
            }
        }
    }

    /// Consumes a `"..."` body starting at the opening quote.
    fn string_literal(&mut self) -> TokenKind {
        self.bump(); // opening quote
        while let Some(c) = self.peek(0) {
            match c {
                b'\\' => {
                    self.bump();
                    if self.pos < self.src.len() {
                        self.bump_char();
                    }
                }
                b'"' => {
                    self.bump();
                    break;
                }
                _ => self.bump_char(),
            }
        }
        TokenKind::Literal
    }

    /// A tick: char literal or lifetime. `'x'` / `'\n'` are literals;
    /// `'a` in `&'a str` (no closing tick) is a lifetime.
    fn tick(&mut self) -> TokenKind {
        let next = self.peek(1);
        let is_literal = match next {
            Some(b'\\') => true,
            Some(c) if is_ident_start(c) => {
                // `'a'` is a literal; `'a` followed by anything else is
                // a lifetime. Scan the identifier to find out.
                let mut j = 2;
                while self.peek(j).is_some_and(is_ident_continue) {
                    j += 1;
                }
                self.peek(j) == Some(b'\'') && j == 2
            }
            Some(_) => {
                // `'('` style single-char literal (any non-ident char
                // then a closing tick).
                self.char_after_is_tick()
            }
            None => false,
        };
        if is_literal {
            self.char_literal();
            TokenKind::Literal
        } else {
            self.bump(); // the tick
            while self.peek(0).is_some_and(is_ident_continue) {
                self.bump();
            }
            TokenKind::Lifetime
        }
    }

    /// Whether the char after the opening tick is followed by a tick
    /// (handles multi-byte chars like `'λ'`).
    fn char_after_is_tick(&self) -> bool {
        let rest = &self.text[self.pos + 1..];
        let mut chars = rest.chars();
        match chars.next() {
            Some(_) => chars.next() == Some('\''),
            None => false,
        }
    }

    /// Consumes `'<char-or-escape>'` starting at the opening tick.
    fn char_literal(&mut self) {
        self.bump(); // tick
        match self.peek(0) {
            Some(b'\\') => {
                self.bump();
                if self.pos < self.src.len() {
                    self.bump_char();
                }
                // Multi-char escapes (`\u{1F600}`, `\x7f`): scan to the
                // closing tick.
                while self.peek(0).is_some_and(|c| c != b'\'') {
                    self.bump_char();
                }
            }
            Some(_) => self.bump_char(),
            None => return,
        }
        if self.peek(0) == Some(b'\'') {
            self.bump();
        }
    }

    /// Whether `r"`, `r#"`, `br"`, `br#"` starts here.
    fn raw_string_ahead(&self) -> bool {
        let mut j = 0;
        if self.peek(0) == Some(b'b') {
            j = 1;
        }
        if self.peek(j) != Some(b'r') {
            return false;
        }
        j += 1;
        while self.peek(j) == Some(b'#') {
            j += 1;
        }
        self.peek(j) == Some(b'"')
    }

    fn raw_string(&mut self) -> TokenKind {
        if self.peek(0) == Some(b'b') {
            self.bump();
        }
        self.bump(); // 'r'
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        while self.pos < self.src.len() {
            if self.peek(0) == Some(b'"') && (1..=hashes).all(|k| self.peek(k) == Some(b'#')) {
                for _ in 0..=hashes {
                    self.bump();
                }
                break;
            }
            self.bump_char();
        }
        TokenKind::Literal
    }

    /// Numeric literal: digits, underscores, a fractional part, an
    /// exponent, hex/octal/binary digits, and alphanumeric suffixes.
    fn number(&mut self) -> TokenKind {
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == b'_' {
                // `1.5e-3` / `2E+8`: pull the sign in only right after
                // an exponent marker inside a decimal literal.
                self.bump();
                if matches!(self.src[self.pos - 1], b'e' | b'E')
                    && !self.hex_prefixed()
                    && matches!(self.peek(0), Some(b'+' | b'-'))
                    && self.peek(1).is_some_and(|d| d.is_ascii_digit())
                {
                    self.bump();
                }
            } else if c == b'.'
                && self.peek(1).is_some_and(|d| d.is_ascii_digit())
                && !self.hex_prefixed()
            {
                // A fractional part — but `1..n` range syntax and
                // `1.max(2)` method calls keep their dots.
                self.bump();
            } else {
                break;
            }
        }
        TokenKind::Number
    }

    /// Whether the token being lexed started with `0x`/`0o`/`0b`.
    fn hex_prefixed(&self) -> bool {
        let start = self.out.len(); // current token not yet pushed
        let _ = start;
        let tok_start = self.token_start();
        self.src.get(tok_start) == Some(&b'0')
            && matches!(self.src.get(tok_start + 1), Some(b'x' | b'o' | b'b' | b'X'))
    }

    /// Byte offset where the token currently being lexed began.
    fn token_start(&self) -> usize {
        self.out.last().map_or(0, |t| t.end)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        tokenize(src)
            .into_iter()
            .filter(|t| t.kind != TokenKind::Whitespace)
            .map(|t| (t.kind, &src[t.start..t.end]))
            .collect()
    }

    fn reconstruct(src: &str) -> String {
        tokenize(src).iter().map(|t| t.text(src)).collect()
    }

    #[test]
    fn tokens_tile_the_source() {
        for src in [
            "fn main() { let x = 1; }",
            "let s = \"a\\\"b\"; // trailing\n/* block /* nested */ */",
            "let r = r#\"raw \"string\"\"#; let b = b\"bytes\"; let c = b'\\n';",
            "let l: &'static str = \"x\"; let c = 'y'; for i in 0..10 {}",
            "let f = 1.5e-3 + 0xFFu64 + 1_000.25; let g = 2E+8;",
            "mod a { pub fn f::<T>() {} } // λ 'λ' ok",
        ] {
            assert_eq!(reconstruct(src), src, "lossless for {src:?}");
        }
    }

    #[test]
    fn classifies_core_constructs() {
        let got = kinds("fn f(x: &'a str) -> Vec<u8> { x.len() }");
        assert_eq!(got[0], (TokenKind::Ident, "fn"));
        assert!(got.contains(&(TokenKind::Lifetime, "'a")));
        assert!(got.contains(&(TokenKind::Ident, "Vec")));
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let got = kinds("let c = 'x'; let l: &'abc str = s;");
        assert!(got.contains(&(TokenKind::Literal, "'x'")));
        assert!(got.contains(&(TokenKind::Lifetime, "'abc")));
    }

    #[test]
    fn escaped_char_literals() {
        let got = kinds(r"let a = '\n'; let b = '\u{1F600}'; let q = '\'';");
        let lits: Vec<&str> = got
            .iter()
            .filter(|(k, _)| *k == TokenKind::Literal)
            .map(|(_, s)| *s)
            .collect();
        assert_eq!(lits, [r"'\n'", r"'\u{1F600}'", r"'\''"]);
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let got = kinds("/* a /* b */ c */ after");
        assert_eq!(got[0].0, TokenKind::BlockComment);
        assert_eq!(got[1], (TokenKind::Ident, "after"));
    }

    #[test]
    fn raw_strings_with_fences() {
        let src = "let s = r##\"has \"# inside\"##; end";
        let got = kinds(src);
        assert!(got.contains(&(TokenKind::Literal, "r##\"has \"# inside\"##")));
        assert!(got.contains(&(TokenKind::Ident, "end")));
    }

    #[test]
    fn path_sep_is_fused() {
        let got = kinds("a::b::<T>::c");
        let seps = got.iter().filter(|(k, _)| *k == TokenKind::PathSep).count();
        assert_eq!(seps, 3);
    }

    #[test]
    fn numbers_do_not_eat_range_dots() {
        let got = kinds("for i in 1..12 {}");
        assert!(got.contains(&(TokenKind::Number, "1")));
        assert!(got.contains(&(TokenKind::Number, "12")));
    }

    #[test]
    fn line_numbers_advance() {
        let toks = tokenize("a\nb\n\nc");
        let ids: Vec<(String, usize)> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| (t.text("a\nb\n\nc").to_string(), t.line))
            .collect();
        assert_eq!(
            ids,
            [
                ("a".to_string(), 1),
                ("b".to_string(), 2),
                ("c".to_string(), 4)
            ]
        );
    }

    #[test]
    fn exponent_sign_only_after_decimal_exponent() {
        // `0xE-1` is hex E then minus; `1e-1` is one number.
        let got = kinds("0xE5 - 1; 1e-1");
        assert!(got.contains(&(TokenKind::Number, "0xE5")));
        assert!(got.contains(&(TokenKind::Number, "1e-1")));
    }
}
