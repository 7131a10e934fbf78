//! Per-file *facts* and the cross-file workspace graph.
//!
//! Per-file rules can only see one file at a time; the contract rule
//! `wire-exhaustive` needs to relate declarations in one file to uses
//! in another. The bridge is a two-phase design:
//!
//! 1. **Fact extraction**: each file is lexed, parsed and reduced to a
//!    small [`FileFacts`] — enum variant sites, `Path::Segment`
//!    references with their enclosing function, escape comments.
//!    Everything a cross-file rule could later anchor a finding at
//!    carries its line/column/snippet *here*, so phase 2 never needs
//!    the source text again.
//! 2. **Graph assembly** (cheap): the facts of every file are joined
//!    into a [`Graph`] — a per-file reference index — and the graph
//!    rules run over it.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// A source location with its diagnostic context, precomputed at
/// extraction time so graph rules can build findings without the file.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Site {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Trimmed text of the line, for diagnostics.
    pub snippet: String,
}

/// One enum variant declaration site.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VariantFact {
    /// Variant name.
    pub name: String,
    /// Declaration site.
    pub site: Site,
}

/// One enum with its variants.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EnumFact {
    /// Enum name.
    pub name: String,
    /// Variants in declaration order.
    pub variants: Vec<VariantFact>,
}

/// One `Type::Segment` path reference (use or pattern) in non-test code.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct RefFact {
    /// Name of the enclosing function (`""` at item level).
    pub context_fn: String,
    /// The two-segment path text, e.g. `Frame::Hello`.
    pub path: String,
}

/// One `sdbp-allow(rule): reason` escape comment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EscapeFact {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// The rule id named in the escape.
    pub rule: String,
    /// The justification text. Empty reasons are dropped at extraction:
    /// an unexplained suppression is no suppression.
    pub reason: String,
}

/// Everything the cross-file rules need to know about one file.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct FileFacts {
    /// Enums with variant declaration sites.
    pub enums: Vec<EnumFact>,
    /// Deduplicated `Type::Segment` references in non-test code.
    pub refs: Vec<RefFact>,
    /// `sdbp-allow` escape comments, for finding suppression.
    pub escapes: Vec<EscapeFact>,
}

/// Extracts [`FileFacts`] from a lexed+parsed file.
pub fn extract(file: &SourceFile) -> FileFacts {
    let mut facts = FileFacts::default();
    let toks = &file.lexed.tokens;
    let site = |byte: usize| {
        let (line, col) = file.line_col(byte);
        Site { line, col, snippet: file.line_text(line).trim().to_owned() }
    };

    // Enums come straight from the AST.
    for item in file.ast.walk() {
        if let crate::parser::ItemKind::Enum { variants } = &item.kind {
            if file.in_test(item.start) {
                continue;
            }
            facts.enums.push(EnumFact {
                name: item.name.clone(),
                variants: variants
                    .iter()
                    .map(|v| VariantFact { name: v.name.clone(), site: site(v.start) })
                    .collect(),
            });
        }
    }

    // Token-pattern facts.
    let text = |i: usize| toks.get(i).map_or("", |t| file.text(t));
    let is_punct = |i: usize, c: &str| {
        toks.get(i).is_some_and(|t| t.kind == TokenKind::Punct) && text(i) == c
    };
    let mut refs = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if file.in_test(t.start) {
            continue;
        }
        // `Type::Segment` references (uses and match patterns alike).
        if t.kind == TokenKind::Ident
            && text(i).starts_with(|c: char| c.is_ascii_uppercase())
            && is_punct(i + 1, ":")
            && is_punct(i + 2, ":")
            && toks.get(i + 3).is_some_and(|n| n.kind == TokenKind::Ident)
            && text(i + 3).starts_with(|c: char| c.is_ascii_uppercase())
        {
            let context_fn =
                file.ast.enclosing_fn(i).map(|f| f.name.clone()).unwrap_or_default();
            refs.insert(RefFact { context_fn, path: format!("{}::{}", text(i), text(i + 3)) });
        }
    }
    facts.refs = refs.into_iter().collect();

    // `sdbp-allow(rule): reason` escapes, from the comment stream.
    for c in &file.lexed.comments {
        let Some(body) = file.src.get(c.start..c.end) else { continue };
        let Some(pos) = body.find("sdbp-allow(") else { continue };
        let rest = &body[pos + "sdbp-allow(".len()..];
        let Some(close) = rest.find(')') else { continue };
        let rule = rest[..close].trim();
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if rule.is_empty() || reason.is_empty() {
            continue;
        }
        facts.escapes.push(EscapeFact {
            line: file.line_col(c.start).0,
            rule: rule.to_owned(),
            reason: reason.to_owned(),
        });
    }
    facts
}

/// One analyzed file: its path plus extracted facts.
#[derive(Clone, Debug)]
pub struct GraphFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// The file's facts.
    pub facts: FileFacts,
}

/// The assembled cross-file view of the workspace.
#[derive(Debug, Default)]
pub struct Graph {
    /// Every analyzed file, in sorted path order.
    pub files: Vec<GraphFile>,
    /// For non-test workspace files: path → deduplicated reference set.
    refs_by_file: BTreeMap<String, BTreeSet<RefFact>>,
}

impl Graph {
    /// Assembles the graph from per-file facts (must be pre-sorted by
    /// path for deterministic rule output).
    pub fn build(files: Vec<GraphFile>) -> Graph {
        let mut refs_by_file = BTreeMap::new();
        for f in &files {
            refs_by_file
                .insert(f.path.clone(), f.facts.refs.iter().cloned().collect::<BTreeSet<_>>());
        }
        Graph { files, refs_by_file }
    }

    /// The facts of `path`, if analyzed.
    pub fn file(&self, path: &str) -> Option<&GraphFile> {
        self.files.iter().find(|f| f.path == path)
    }

    /// Whether `path` references `two_segment_path` (e.g. `Frame::Hello`)
    /// inside function `context_fn` — or anywhere in the file when
    /// `context_fn` is `None`.
    pub fn references(&self, path: &str, two_segment_path: &str, context_fn: Option<&str>) -> bool {
        let Some(refs) = self.refs_by_file.get(path) else { return false };
        refs.iter().any(|r| {
            r.path == two_segment_path && context_fn.is_none_or(|f| r.context_fn == f)
        })
    }

    /// Whether any file whose path starts with `prefix` references
    /// `two_segment_path`.
    pub fn referenced_under(&self, prefix: &str, two_segment_path: &str, exclude: &str) -> bool {
        self.refs_by_file.iter().any(|(p, refs)| {
            p.starts_with(prefix)
                && p != exclude
                && refs.iter().any(|r| r.path == two_segment_path)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(path: &str, src: &str) -> FileFacts {
        extract(&SourceFile::from_source(path, src.to_owned()))
    }

    #[test]
    fn enum_facts_are_extracted() {
        let f = facts(
            "crates/x/src/lib.rs",
            "pub fn fallible() -> Result<(), String> { Ok(()) }\n\
             fn infallible() -> u32 { 0 }\n\
             pub enum Wire { Ping, Pong }\n",
        );
        assert_eq!(f.enums.len(), 1);
        assert_eq!(f.enums[0].variants.len(), 2);
        assert_eq!(f.enums[0].variants[1].name, "Pong");
        assert_eq!(f.enums[0].variants[1].site.line, 3);
    }

    #[test]
    fn refs_carry_their_enclosing_fn() {
        let f = facts(
            "crates/x/src/lib.rs",
            "fn encode() { let _x = Wire::Ping; }\nfn decode() { match w { Wire::Pong => {} _ => {} } }\n",
        );
        assert!(f.refs.contains(&RefFact { context_fn: "encode".into(), path: "Wire::Ping".into() }));
        assert!(f.refs.contains(&RefFact { context_fn: "decode".into(), path: "Wire::Pong".into() }));
    }

    #[test]
    fn lowercase_paths_and_test_code_are_not_refs() {
        let f = facts(
            "crates/x/src/lib.rs",
            "fn f() { std::mem::drop(()); }\n#[cfg(test)]\nmod tests { fn t() { let _x = Wire::Ping; } }\n",
        );
        assert!(f.refs.is_empty(), "{:?}", f.refs);
    }

    #[test]
    fn refs_inside_discarded_expressions_are_still_refs() {
        let f = facts(
            "crates/x/src/lib.rs",
            "fn f() { let _ = Frame::ErrorReply { code: ErrorCode::BadVersion }.write_to(w); }\n",
        );
        assert!(f.refs.iter().any(|r| r.path == "ErrorCode::BadVersion"), "{:?}", f.refs);
        assert!(f.refs.iter().any(|r| r.path == "Frame::ErrorReply"), "{:?}", f.refs);
    }

    #[test]
    fn escapes_are_collected() {
        let f = facts(
            "crates/x/src/lib.rs",
            "// sdbp-allow(flat-metadata): built once per campaign\n\
             fn f() { let s = \"tdbp\"; } // sdbp-allow(reasonless)\n",
        );
        assert_eq!(f.escapes.len(), 1, "{:?}", f.escapes);
        assert_eq!(f.escapes[0].line, 1);
        assert_eq!(f.escapes[0].rule, "flat-metadata");
        assert_eq!(f.escapes[0].reason, "built once per campaign");
    }

    #[test]
    fn graph_joins_refs_across_files() {
        let a = GraphFile {
            path: "crates/a/src/lib.rs".into(),
            facts: facts(
                "crates/a/src/lib.rs",
                "pub fn write_to() -> Result<(), E> { Ok(()) }\n",
            ),
        };
        let b = GraphFile {
            path: "crates/b/src/lib.rs".into(),
            facts: facts("crates/b/src/lib.rs", "fn handle() { let _x = Wire::Ping; }\n"),
        };
        let g = Graph::build(vec![a, b]);
        assert!(g.file("crates/a/src/lib.rs").is_some());
        assert!(g.references("crates/b/src/lib.rs", "Wire::Ping", Some("handle")));
        assert!(!g.references("crates/b/src/lib.rs", "Wire::Ping", Some("other")));
        assert!(g.referenced_under("crates/b/", "Wire::Ping", "crates/a/src/lib.rs"));
        assert!(!g.referenced_under("crates/b/", "Wire::Pong", ""));
    }
}
