//! A hand-rolled, span-tracking Rust lexer.
//!
//! The rule engine needs exactly one guarantee from this module: a token
//! stream in which *nothing inside a comment, string literal, char
//! literal, or raw string* can be mistaken for code. Every rule in
//! [`crate::rules`] is a pattern over this stream, so the lexer is the
//! single place where "the word `seed` appears in a doc example" is
//! separated from "the code computes `seed + core`".
//!
//! The lexer is deliberately lossless about *where* things are: each
//! token and comment carries its byte span, and [`LineIndex`] converts
//! spans to 1-based line/column pairs for diagnostics.
//!
//! Covered syntax: line and block comments (nested; `sdbp-allow`
//! escapes live in comments), string/char/byte/raw-string literals
//! (including `r#".."#` hash counting), lifetimes vs. char literals,
//! numeric literals (enough structure that `0..4` lexes as two numbers
//! and a range, not one malformed number), identifiers, and single-char
//! punctuation. Multi-char operators are left as single-char punctuation
//! tokens; rules match short sequences instead.

/// What a token is.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TokenKind {
    /// Identifier or keyword (`unwrap`, `pub`, `as`, ...).
    Ident,
    /// A lifetime (`'a`); kept distinct so it is never confused with a
    /// char literal.
    Lifetime,
    /// Integer or float literal, suffix included (`0x7f`, `1_000u64`).
    Number,
    /// String literal of any flavor (`"..."`, `r#"..."#`, `b"..."`).
    Str,
    /// Char or byte literal (`'a'`, `b'\n'`).
    Char,
    /// A single punctuation character (`.`, `[`, `!`, ...).
    Punct,
}

/// One lexed token with its byte span.
#[derive(Copy, Clone, Debug)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

/// One comment with its byte span; comments are collected out-of-band so
/// token-stream rules never see them.
#[derive(Copy, Clone, Debug)]
pub struct Comment {
    /// Byte offset of the leading `/`.
    pub start: usize,
    /// Byte offset one past the end (past the newline-exclusive text for
    /// line comments, past the closing `*/` for block comments).
    pub end: usize,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens, in source order.
    pub tokens: Vec<Token>,
    /// Comments, in source order.
    pub comments: Vec<Comment>,
}

/// Byte-offset → line/column conversion table.
#[derive(Debug)]
pub struct LineIndex {
    /// Byte offset at which each line starts; `starts[0] == 0`.
    starts: Vec<usize>,
}

impl LineIndex {
    /// Builds the index for `src`.
    pub fn new(src: &str) -> Self {
        let mut starts = vec![0];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                starts.push(i + 1);
            }
        }
        LineIndex { starts }
    }

    /// 1-based line number holding byte offset `byte`.
    pub fn line(&self, byte: usize) -> u32 {
        match self.starts.binary_search(&byte) {
            Ok(i) => i as u32 + 1,
            Err(i) => i as u32,
        }
    }

    /// 1-based (line, column) of byte offset `byte`; the column counts
    /// characters, not bytes, so diagnostics stay honest in the presence
    /// of non-ASCII text.
    pub fn line_col(&self, src: &str, byte: usize) -> (u32, u32) {
        let line = self.line(byte);
        let start = self.starts[(line - 1) as usize];
        let col = src
            .get(start..byte)
            .map_or(byte - start, |s| s.chars().count())
            as u32
            + 1;
        (line, col)
    }

    /// The full text of 1-based line `line` (newline excluded), or `""`
    /// when out of range.
    pub fn line_text<'a>(&self, src: &'a str, line: u32) -> &'a str {
        let i = (line as usize).wrapping_sub(1);
        let Some(&start) = self.starts.get(i) else { return "" };
        let end = self.starts.get(i + 1).map_or(src.len(), |&e| e);
        src.get(start..end).map_or("", |s| s.trim_end_matches(['\n', '\r']))
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Scans a normal (escape-processing) string starting at the opening
/// quote `open` at offset `i`; returns the offset one past the closing
/// quote (or `len` on unterminated input).
fn scan_quoted(b: &[u8], mut i: usize, open: u8) -> usize {
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            c if c == open => return i + 1,
            _ => i += 1,
        }
    }
    b.len()
}

/// Scans a raw string whose body starts right after `r` + `hashes` `#`s +
/// the opening quote; `i` is the offset of the opening quote. Returns the
/// offset one past the final closing hash.
fn scan_raw_string(b: &[u8], i: usize, hashes: usize) -> usize {
    let mut j = i + 1;
    while j < b.len() {
        if b[j] == b'"' && b.len() - j > hashes && b[j + 1..j + 1 + hashes].iter().all(|&h| h == b'#')
        {
            return j + 1 + hashes;
        }
        j += 1;
    }
    b.len()
}

/// Counts `#`s at `i` and, when they are followed by `"`, returns
/// `(hash_count, quote_offset)` — the raw-string introducer after an `r`.
fn raw_string_intro(b: &[u8], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    (j < b.len() && b[j] == b'"').then_some((j - i, j))
}

/// Lexes `src` into tokens and comments. Never panics: malformed input
/// degrades to best-effort tokens, which is the right trade for a linter
/// that runs over code `rustc` has already accepted.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment { start, end: i });
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let start = i;
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                out.comments.push(Comment { start, end: i });
            }
            b'"' => {
                let start = i;
                i = scan_quoted(b, i, b'"');
                out.tokens.push(Token { kind: TokenKind::Str, start, end: i });
            }
            b'\'' => {
                let start = i;
                // Lifetime: 'ident not closed by another quote.
                let lifetime = b
                    .get(i + 1)
                    .is_some_and(|&n| is_ident_start(n))
                    && b.get(i + 2) != Some(&b'\'');
                if lifetime {
                    i += 2;
                    while i < b.len() && is_ident_continue(b[i]) {
                        i += 1;
                    }
                    out.tokens.push(Token { kind: TokenKind::Lifetime, start, end: i });
                } else {
                    i = scan_quoted(b, i, b'\'');
                    out.tokens.push(Token { kind: TokenKind::Char, start, end: i });
                }
            }
            b'r' | b'b' if {
                // String-literal prefixes: r"", r#""#, b"", b'', br"", br#""#.
                let n1 = b.get(i + 1).copied();
                match c {
                    b'r' => n1 == Some(b'"') || (n1 == Some(b'#') && raw_string_intro(b, i + 1).is_some()),
                    _ => matches!(n1, Some(b'"') | Some(b'\'')) || (n1 == Some(b'r')
                        && matches!(b.get(i + 2).copied(), Some(b'"') | Some(b'#'))
                        && (b.get(i + 2) == Some(&b'"') || raw_string_intro(b, i + 2).is_some())),
                }
            } =>
            {
                let start = i;
                let (kind, end) = match (c, b.get(i + 1).copied()) {
                    (b'r', _) => {
                        let (hashes, quote) = raw_string_intro(b, i + 1).unwrap_or((0, i + 1));
                        (TokenKind::Str, scan_raw_string(b, quote, hashes))
                    }
                    (b'b', Some(b'"')) => (TokenKind::Str, scan_quoted(b, i + 1, b'"')),
                    (b'b', Some(b'\'')) => (TokenKind::Char, scan_quoted(b, i + 1, b'\'')),
                    (b'b', Some(b'r')) => {
                        let (hashes, quote) = raw_string_intro(b, i + 2).unwrap_or((0, i + 2));
                        (TokenKind::Str, scan_raw_string(b, quote, hashes))
                    }
                    _ => (TokenKind::Str, i + 1),
                };
                i = end;
                out.tokens.push(Token { kind, start, end });
            }
            c if is_ident_start(c) => {
                let start = i;
                i += 1;
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
                out.tokens.push(Token { kind: TokenKind::Ident, start, end: i });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let mut seen_dot = false;
                i += 1;
                while i < b.len() {
                    if is_ident_continue(b[i]) {
                        i += 1;
                    } else if b[i] == b'.'
                        && !seen_dot
                        && b.get(i + 1).is_some_and(u8::is_ascii_digit)
                    {
                        // `1.5` is one number; `0..4` stops before the range.
                        seen_dot = true;
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token { kind: TokenKind::Number, start, end: i });
            }
            _ => {
                // Single punctuation character; advance by the full UTF-8
                // character so multi-byte text cannot desynchronize spans.
                let width = src
                    .get(i..)
                    .and_then(|s| s.chars().next())
                    .map_or(1, char::len_utf8);
                out.tokens.push(Token { kind: TokenKind::Punct, start: i, end: i + width });
                i += width;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<&str> {
        lex(src).tokens.iter().map(|t| &src[t.start..t.end]).collect()
    }

    #[test]
    fn code_inside_strings_and_comments_is_invisible() {
        let src = r##"
            // calls unwrap() in a comment
            /* block .unwrap() */
            /// doc: x.unwrap()
            let s = "call .unwrap() here";
            let r = r#"raw "quoted" .unwrap()"#;
            let c = '"';
            real.unwrap();
        "##;
        let toks = texts(src);
        let unwraps = toks.iter().filter(|t| **t == "unwrap").count();
        assert_eq!(unwraps, 1, "only the real call lexes as code: {toks:?}");
    }

    #[test]
    fn raw_strings_with_hashes_terminate_correctly() {
        let src = r##"let x = r#"embedded " quote"# ; after"##;
        let toks = texts(src);
        assert!(toks.contains(&"after"));
        assert!(toks.contains(&";"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'q'; }";
        let lexed = lex(src);
        let lifetimes =
            lexed.tokens.iter().filter(|t| t.kind == TokenKind::Lifetime).count();
        let chars = lexed.tokens.iter().filter(|t| t.kind == TokenKind::Char).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn ranges_do_not_swallow_dots() {
        let toks = texts("&frame[0..4]");
        assert!(toks.contains(&"0"));
        assert!(toks.contains(&"4"));
        assert!(!toks.iter().any(|t| t.contains("..")));
    }

    #[test]
    fn nested_block_comments_close_at_the_right_depth() {
        let src = "/* outer /* inner */ still comment */ code";
        let toks = texts(src);
        assert_eq!(toks, vec!["code"]);
    }

    #[test]
    fn line_index_maps_spans() {
        let src = "ab\ncd\nef";
        let idx = LineIndex::new(src);
        assert_eq!(idx.line_col(src, 0), (1, 1));
        assert_eq!(idx.line_col(src, 4), (2, 2));
        assert_eq!(idx.line_text(src, 2), "cd");
        assert_eq!(idx.line_text(src, 9), "");
    }

    #[test]
    fn byte_strings_and_byte_chars_lex_as_literals() {
        let lexed = lex(r#"let m = b"SDBT"; let c = b'\n'; let r = br"raw";"#);
        let strs = lexed.tokens.iter().filter(|t| t.kind == TokenKind::Str).count();
        let chars = lexed.tokens.iter().filter(|t| t.kind == TokenKind::Char).count();
        assert_eq!(strs, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn multi_hash_raw_strings_ignore_shorter_closers() {
        let src = "let x = r##\"one \"# two\"## ; after";
        let lexed = lex(src);
        let s = lexed
            .tokens
            .iter()
            .find(|t| t.kind == TokenKind::Str)
            .expect("raw string token");
        assert_eq!(&src[s.start..s.end], "r##\"one \"# two\"##", "`\"#` must not close `r##`");
        assert!(texts(src).contains(&"after"));
    }

    #[test]
    fn raw_byte_strings_with_hashes_lex_as_one_literal() {
        let src = "let m = br#\"tag \" byte\"# ; done";
        let lexed = lex(src);
        let s = lexed
            .tokens
            .iter()
            .find(|t| t.kind == TokenKind::Str)
            .expect("raw byte string token");
        assert_eq!(&src[s.start..s.end], "br#\"tag \" byte\"#");
        assert!(texts(src).contains(&"done"));
    }

    #[test]
    fn raw_identifiers_are_not_raw_strings() {
        let src = "let r#match = r#struct + 1; tail";
        let lexed = lex(src);
        assert!(
            lexed.tokens.iter().all(|t| t.kind != TokenKind::Str),
            "`r#ident` must not open a raw string"
        );
        let toks = texts(src);
        assert!(toks.contains(&"match"));
        assert!(toks.contains(&"tail"));
    }

    #[test]
    fn unterminated_literals_degrade_without_panicking() {
        for src in
            ["let s = \"never ends", "let r = r#\"open", "/* open comment", "let c = '"]
        {
            let lexed = lex(src);
            assert!(
                !lexed.tokens.is_empty() || !lexed.comments.is_empty(),
                "{src:?} lexes to something"
            );
        }
    }

    #[test]
    fn static_anonymous_and_label_lifetimes_all_lex_as_lifetimes() {
        let src = "fn f(x: &'static str, y: &'_ u8) { 'outer: loop { break 'outer; } }";
        let lexed = lex(src);
        let lifetimes: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| &src[t.start..t.end])
            .collect();
        assert_eq!(lifetimes, vec!["'static", "'_", "'outer", "'outer"]);
        assert!(lexed.tokens.iter().all(|t| t.kind != TokenKind::Char));
    }

    #[test]
    fn escaped_char_literals_are_not_lifetimes() {
        let src = r"let q = '\''; let b = '\\'; let n = '\n';";
        let lexed = lex(src);
        assert_eq!(lexed.tokens.iter().filter(|t| t.kind == TokenKind::Char).count(), 3);
        assert_eq!(lexed.tokens.iter().filter(|t| t.kind == TokenKind::Lifetime).count(), 0);
    }

    #[test]
    fn block_comments_containing_quotes_and_markers_close_at_depth() {
        let src = "/* \" // /* 'nested */ \" */ code";
        assert_eq!(texts(src), vec!["code"]);
    }

    #[test]
    fn multibyte_text_does_not_desynchronize_spans() {
        let src = "// caché — naïve\nlet s = \"héllo ≤ wörld\"; done";
        let toks = texts(src);
        assert!(toks.contains(&"let"), "{toks:?}");
        assert!(toks.contains(&"done"), "{toks:?}");
        let lexed = lex(src);
        for t in &lexed.tokens {
            assert!(src.get(t.start..t.end).is_some(), "span off a char boundary");
        }
    }
}
