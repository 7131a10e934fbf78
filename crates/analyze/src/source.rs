//! One analyzed file: its lexed form, its classification, and the
//! test-code regions rules must skip.

use crate::lexer::{lex, Lexed, LineIndex, Token, TokenKind};
use crate::parser::{parse, Ast};

/// What kind of code a file holds, which decides which rules apply.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FileClass {
    /// Library code under a crate's `src/` — the full rule set applies.
    Library,
    /// Binary entry points (`src/bin/**`) — CLI orchestration, outside
    /// the library-only rules.
    Binary,
    /// Tests, benches, examples, fixtures — exempt from library rules.
    Test,
}

/// A lexed source file plus everything rules need to query about it.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// Classification by path.
    pub class: FileClass,
    /// Raw source text.
    pub src: String,
    /// Token and comment streams.
    pub lexed: Lexed,
    /// Item-level parse of the file (functions, enums, impls, mods).
    pub ast: Ast,
    line_index: LineIndex,
    /// Byte ranges of `#[cfg(test)]` modules and `#[test]` functions.
    test_ranges: Vec<(usize, usize)>,
}

/// Classifies `rel_path` (workspace-relative, `/`-separated).
pub fn classify(rel_path: &str) -> FileClass {
    let is_test_dir = rel_path.starts_with("tests/")
        || rel_path.starts_with("examples/")
        || rel_path.starts_with("benches/")
        || rel_path.contains("/tests/")
        || rel_path.contains("/examples/")
        || rel_path.contains("/benches/");
    if is_test_dir {
        FileClass::Test
    } else if rel_path.contains("/src/bin/") {
        FileClass::Binary
    } else {
        FileClass::Library
    }
}

impl SourceFile {
    /// Builds a `SourceFile` from in-memory text (the unit-test entry
    /// point; [`crate::workspace`] uses it after reading from disk).
    pub fn from_source(rel_path: &str, src: String) -> Self {
        let lexed = lex(&src);
        let ast = parse(&src, &lexed.tokens);
        let line_index = LineIndex::new(&src);
        let test_ranges = find_test_ranges(&src, &lexed);
        SourceFile {
            rel_path: rel_path.to_owned(),
            class: classify(rel_path),
            src,
            lexed,
            ast,
            line_index,
            test_ranges,
        }
    }

    /// The text of `token`.
    pub fn text(&self, token: &Token) -> &str {
        self.src.get(token.start..token.end).unwrap_or("")
    }

    /// 1-based (line, column) of byte offset `byte`.
    pub fn line_col(&self, byte: usize) -> (u32, u32) {
        self.line_index.line_col(&self.src, byte)
    }

    /// The text of 1-based line `line`, for diagnostics.
    pub fn line_text(&self, line: u32) -> &str {
        self.line_index.line_text(&self.src, line)
    }

    /// Whether byte offset `byte` sits inside `#[cfg(test)]` / `#[test]`
    /// code (or the whole file is test code).
    pub fn in_test(&self, byte: usize) -> bool {
        self.class == FileClass::Test
            || self.test_ranges.iter().any(|&(s, e)| byte >= s && byte < e)
    }
}

/// Finds the byte ranges of `#[cfg(test)] mod ... { }` blocks and
/// `#[test] fn ... { }` bodies so rules can skip test-only code.
fn find_test_ranges(src: &str, lexed: &Lexed) -> Vec<(usize, usize)> {
    let toks = &lexed.tokens;
    let text = |i: usize| toks.get(i).map_or("", |t| src.get(t.start..t.end).unwrap_or(""));
    let is_punct = |i: usize, c: &str| {
        toks.get(i).is_some_and(|t| t.kind == TokenKind::Punct) && text(i) == c
    };
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        // `#[cfg(test)]` or `#[test]` attribute?
        let matched = is_punct(i, "#")
            && is_punct(i + 1, "[")
            && ((text(i + 2) == "test" && is_punct(i + 3, "]"))
                || (text(i + 2) == "cfg"
                    && is_punct(i + 3, "(")
                    && text(i + 4) == "test"
                    && is_punct(i + 5, ")")
                    && is_punct(i + 6, "]")));
        if !matched {
            i += 1;
            continue;
        }
        // Skip to the end of this attribute, then over any further
        // attributes, to the item keyword.
        let mut j = i + 2;
        while j < toks.len() && !is_punct(j, "]") {
            j += 1;
        }
        j += 1;
        while is_punct(j, "#") && is_punct(j + 1, "[") {
            j += 2;
            let mut depth = 1usize;
            while j < toks.len() && depth > 0 {
                if is_punct(j, "[") {
                    depth += 1;
                } else if is_punct(j, "]") {
                    depth -= 1;
                }
                j += 1;
            }
        }
        // Find the item's opening brace and match it.
        while j < toks.len() && !is_punct(j, "{") {
            // A `;` first means an item without a body (e.g. `mod tests;`).
            if is_punct(j, ";") {
                break;
            }
            j += 1;
        }
        if j < toks.len() && is_punct(j, "{") {
            let open = toks[j].start;
            let mut depth = 0usize;
            while j < toks.len() {
                if is_punct(j, "{") {
                    depth += 1;
                } else if is_punct(j, "}") {
                    depth -= 1;
                    if depth == 0 {
                        ranges.push((open, toks[j].end));
                        break;
                    }
                }
                j += 1;
            }
        }
        i = j.max(i + 1);
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_path() {
        assert_eq!(classify("crates/traceio/src/reader.rs"), FileClass::Library);
        assert_eq!(classify("src/lib.rs"), FileClass::Library);
        assert_eq!(classify("crates/harness/src/bin/sdbp_repro.rs"), FileClass::Binary);
        assert_eq!(classify("crates/cache/tests/properties.rs"), FileClass::Test);
        assert_eq!(classify("tests/end_to_end.rs"), FileClass::Test);
        assert_eq!(classify("examples/quickstart.rs"), FileClass::Test);
    }

    #[test]
    fn cfg_test_modules_are_masked() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let f = SourceFile::from_source("crates/x/src/lib.rs", src.to_owned());
        let unwraps: Vec<usize> = f
            .lexed
            .tokens
            .iter()
            .filter(|t| f.text(t) == "unwrap")
            .map(|t| t.start)
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!f.in_test(unwraps[0]), "library unwrap is live");
        assert!(f.in_test(unwraps[1]), "test unwrap is masked");
    }

    #[test]
    fn test_attribute_functions_are_masked() {
        let src = "#[test]\nfn check() { z.unwrap(); }\nfn live() {}\n";
        let f = SourceFile::from_source("crates/x/src/lib.rs", src.to_owned());
        let unwrap = f
            .lexed
            .tokens
            .iter()
            .find(|t| f.text(t) == "unwrap")
            .map(|t| t.start)
            .expect("unwrap token");
        assert!(f.in_test(unwrap));
        let live = f
            .lexed
            .tokens
            .iter()
            .find(|t| f.text(t) == "live")
            .map(|t| t.start)
            .expect("live token");
        assert!(!f.in_test(live));
    }

    #[test]
    fn derived_attributes_between_cfg_and_mod_are_skipped() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn t() { a.unwrap(); } }\n";
        let f = SourceFile::from_source("crates/x/src/lib.rs", src.to_owned());
        let unwrap = f
            .lexed
            .tokens
            .iter()
            .find(|t| f.text(t) == "unwrap")
            .map(|t| t.start)
            .expect("unwrap token");
        assert!(f.in_test(unwrap));
    }

    #[test]
    fn code_after_a_test_module_is_live_again() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { if x { a.unwrap(); } }\n}\n\
                   fn live() { b.unwrap(); }\n";
        let f = SourceFile::from_source("crates/x/src/lib.rs", src.to_owned());
        let unwraps: Vec<usize> = f
            .lexed
            .tokens
            .iter()
            .filter(|t| f.text(t) == "unwrap")
            .map(|t| t.start)
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(f.in_test(unwraps[0]), "nested braces stay inside the masked range");
        assert!(!f.in_test(unwraps[1]), "the mask ends at the module's closing brace");
    }

    #[test]
    fn bodyless_test_mod_declaration_masks_nothing() {
        let src = "#[cfg(test)]\nmod tests;\nfn live() { a.unwrap(); }\n";
        let f = SourceFile::from_source("crates/x/src/lib.rs", src.to_owned());
        let unwrap = f
            .lexed
            .tokens
            .iter()
            .find(|t| f.text(t) == "unwrap")
            .map(|t| t.start)
            .expect("unwrap token");
        assert!(!f.in_test(unwrap), "`mod tests;` must not mask the rest of the file");
    }

    #[test]
    fn every_byte_of_a_tests_dir_file_is_test_code() {
        let f =
            SourceFile::from_source("crates/x/tests/t.rs", "fn t() { a.unwrap(); }".to_owned());
        assert!(f.in_test(0));
        assert!(f.in_test(f.src.len().saturating_sub(1)));
    }

    #[test]
    fn cfg_test_in_a_comment_or_string_masks_nothing() {
        let src = "// #[cfg(test)] mod tests { }\n\
                   fn live() { let s = \"#[cfg(test)]\"; a.unwrap(); }\n";
        let f = SourceFile::from_source("crates/x/src/lib.rs", src.to_owned());
        let unwrap = f
            .lexed
            .tokens
            .iter()
            .find(|t| f.text(t) == "unwrap")
            .map(|t| t.start)
            .expect("unwrap token");
        assert!(!f.in_test(unwrap));
    }
}
