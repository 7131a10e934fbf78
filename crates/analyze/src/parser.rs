//! A hand-rolled, error-tolerant recursive-descent *item* parser on top
//! of [`crate::lexer`].
//!
//! The workspace is std-only, so there is no `syn` to lean on — and the
//! cross-file rules ([`crate::graph`]) do not need expression-level
//! precision anyway. What they need is the *shape* of each file:
//!
//! * which items exist (`fn`, `enum`, `struct`, `impl`, `mod`, ...),
//!   with byte spans;
//! * every enum's variant list, span-accurate (so `wire-exhaustive` can
//!   anchor "variant X has no decode arm" at the declaration);
//! * every function's name and body token range (so a `Type::Variant`
//!   reference knows which function it sits in — `wire-exhaustive` asks
//!   "does `decode` match `Frame::Pong`?").
//!
//! The parser is deliberately tolerant: anything it does not recognize
//! is skipped token-by-token, because it runs over code `rustc` already
//! accepted — a parse gap must degrade to "no facts extracted", never to
//! a crash or a false finding.

use crate::lexer::{Token, TokenKind};

/// One enum variant, anchored at its identifier.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Variant {
    /// Variant name (`Hello`, `Archive`, ...).
    pub name: String,
    /// Byte offset of the variant identifier.
    pub start: usize,
}

/// What kind of item an [`Item`] is, with per-kind payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ItemKind {
    /// `fn name(...) -> Ret { ... }`.
    Fn,
    /// `enum Name { V1, V2(..), .. }`.
    Enum {
        /// The variants, in declaration order.
        variants: Vec<Variant>,
    },
    /// `struct Name ...`.
    Struct,
    /// `impl Type { .. }` or `impl Trait for Type { .. }`; `type_name`
    /// is the implementing type's path text.
    Impl {
        /// Path text of the type being implemented.
        type_name: String,
    },
    /// `mod name { .. }` (inline) or `mod name;`.
    Mod,
    /// `trait Name { .. }`.
    Trait,
    /// Anything else recognized enough to skip (`use`, `const`,
    /// `static`, `type`, macro invocations, ...).
    Other,
}

/// One parsed item.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Item {
    /// Item kind and payload.
    pub kind: ItemKind,
    /// Item name (`""` for unnamed/unrecognized items).
    pub name: String,
    /// Byte offset where the item starts (at its first keyword token).
    pub start: usize,
    /// Byte offset one past the item's last token.
    pub end: usize,
    /// Token-index range `[lo, hi)` of the item's `{ ... }` body
    /// *contents* (braces excluded); `None` for bodyless items.
    pub body: Option<(usize, usize)>,
    /// Nested items (for `mod` and `impl` bodies).
    pub children: Vec<Item>,
}

/// The parsed shape of one file.
#[derive(Clone, Default, Debug)]
pub struct Ast {
    /// Top-level items, in source order.
    pub items: Vec<Item>,
}

impl Ast {
    /// Depth-first iteration over all items (top-level and nested).
    pub fn walk(&self) -> Vec<&Item> {
        let mut out = Vec::new();
        fn visit<'a>(items: &'a [Item], out: &mut Vec<&'a Item>) {
            for item in items {
                out.push(item);
                visit(&item.children, out);
            }
        }
        visit(&self.items, &mut out);
        out
    }

    /// Every function item (including those inside `impl`/`mod` blocks).
    pub fn fns(&self) -> Vec<&Item> {
        self.walk()
            .into_iter()
            .filter(|i| matches!(i.kind, ItemKind::Fn))
            .collect()
    }

    /// Every enum item.
    pub fn enums(&self) -> Vec<&Item> {
        self.walk()
            .into_iter()
            .filter(|i| matches!(i.kind, ItemKind::Enum { .. }))
            .collect()
    }

    /// The innermost function item whose body token range contains token
    /// index `tok_idx`, if any.
    pub fn enclosing_fn(&self, tok_idx: usize) -> Option<&Item> {
        let mut best: Option<&Item> = None;
        for item in self.walk() {
            if let (ItemKind::Fn, Some((lo, hi))) = (&item.kind, item.body) {
                if tok_idx >= lo && tok_idx < hi {
                    let tighter =
                        best.and_then(|b| b.body).is_none_or(|(blo, _)| lo >= blo);
                    if tighter {
                        best = Some(item);
                    }
                }
            }
        }
        best
    }
}

/// Parser state: a token slice plus the source it indexes into.
struct Parser<'a> {
    src: &'a str,
    toks: &'a [Token],
    pos: usize,
}

/// Parses the item structure of `src` from its lexed `toks`.
pub fn parse(src: &str, toks: &[Token]) -> Ast {
    let mut p = Parser { src, toks, pos: 0 };
    Ast { items: p.items_until(toks.len()) }
}

impl<'a> Parser<'a> {
    fn text(&self, i: usize) -> &'a str {
        self.toks
            .get(i)
            .and_then(|t| self.src.get(t.start..t.end))
            .unwrap_or("")
    }

    fn is_punct(&self, i: usize, c: &str) -> bool {
        self.toks.get(i).is_some_and(|t| t.kind == TokenKind::Punct) && self.text(i) == c
    }

    fn start_of(&self, i: usize) -> usize {
        self.toks.get(i).map_or(self.src.len(), |t| t.start)
    }

    fn end_of(&self, i: usize) -> usize {
        self.toks.get(i).map_or(self.src.len(), |t| t.end)
    }

    /// Advances past one balanced `open`..`close` group assuming `pos`
    /// is at the opening token; tolerant of truncation.
    fn skip_balanced(&mut self, open: &str, close: &str) {
        let mut depth = 0usize;
        while self.pos < self.toks.len() {
            if self.is_punct(self.pos, open) {
                depth += 1;
            } else if self.is_punct(self.pos, close) {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    self.pos += 1;
                    return;
                }
            }
            self.pos += 1;
        }
    }

    /// Advances past a generics list if `pos` is at `<`. Angle brackets
    /// are matched by depth; `->` and comparison operators cannot appear
    /// inside a declaration-site generics list, so this is safe.
    fn skip_generics(&mut self) {
        if self.is_punct(self.pos, "<") {
            self.skip_balanced("<", ">");
        }
    }

    /// Skips `#[...]` attributes and doc comments live out-of-band, so
    /// only the bracket groups need skipping.
    fn skip_attributes(&mut self) {
        while self.is_punct(self.pos, "#") {
            self.pos += 1; // `#`
            if self.is_punct(self.pos, "!") {
                self.pos += 1; // inner attribute `#![...]`
            }
            if self.is_punct(self.pos, "[") {
                self.skip_balanced("[", "]");
            }
        }
    }

    /// Skips visibility (`pub`, `pub(crate)`, `pub(in path)`) and other
    /// item modifiers (`unsafe`, `async`, `extern "C"`, `default`).
    fn skip_modifiers(&mut self) {
        loop {
            match self.text(self.pos) {
                "pub" => {
                    self.pos += 1;
                    if self.is_punct(self.pos, "(") {
                        self.skip_balanced("(", ")");
                    }
                }
                "unsafe" | "async" | "default" => self.pos += 1,
                "extern" => {
                    self.pos += 1;
                    if self.toks.get(self.pos).is_some_and(|t| t.kind == TokenKind::Str) {
                        self.pos += 1;
                    }
                }
                _ => return,
            }
        }
    }

    /// Parses items until token index `limit`, advancing tolerantly.
    fn items_until(&mut self, limit: usize) -> Vec<Item> {
        let mut items = Vec::new();
        while self.pos < limit {
            let before = self.pos;
            if let Some(item) = self.item(limit) {
                items.push(item);
            }
            if self.pos <= before {
                self.pos = before + 1; // never stall
            }
        }
        items
    }

    /// Parses one item at `pos`, or skips one unrecognized token.
    fn item(&mut self, limit: usize) -> Option<Item> {
        self.skip_attributes();
        self.skip_modifiers();
        if self.pos >= limit {
            return None;
        }
        let start_tok = self.pos;
        let start = self.start_of(start_tok);
        match self.text(self.pos) {
            "fn" => Some(self.fn_item(start)),
            "const" => {
                // `const fn` is a function; `const NAME: T = ..;` is not.
                self.pos += 1;
                if self.text(self.pos) == "fn" {
                    Some(self.fn_item(start))
                } else {
                    self.skip_to_semicolon();
                    Some(self.other(start, String::new()))
                }
            }
            "enum" => Some(self.enum_item(start)),
            "struct" | "union" => Some(self.struct_item(start)),
            "impl" => Some(self.impl_item(start)),
            "mod" => Some(self.mod_item(start)),
            "trait" => Some(self.trait_item(start)),
            "use" | "static" | "type" | "macro_rules" | "macro" => {
                let name = self.text(self.pos + 1).to_owned();
                self.skip_statement_like();
                Some(self.other(start, name))
            }
            _ => {
                self.pos += 1;
                None
            }
        }
    }

    fn other(&self, start: usize, name: String) -> Item {
        Item {
            kind: ItemKind::Other,
            name,
            start,
            end: self.end_of(self.pos.saturating_sub(1)),
            body: None,
            children: Vec::new(),
        }
    }

    /// Skips to just past the next `;`, balancing braces on the way (so
    /// `static X: [u8; 2] = { .. };` and `macro_rules! m { .. }` are both
    /// survived; a `{..}` group at depth 0 also terminates, covering
    /// brace-bodied macros without a trailing semicolon).
    fn skip_statement_like(&mut self) {
        while self.pos < self.toks.len() {
            if self.is_punct(self.pos, ";") {
                self.pos += 1;
                return;
            }
            if self.is_punct(self.pos, "{") {
                self.skip_balanced("{", "}");
                // `macro_rules! m { .. }` ends here; `= { .. };` has the
                // `;` next, consumed on the next loop turn.
                if !self.is_punct(self.pos, ";") {
                    return;
                }
                continue;
            }
            if self.is_punct(self.pos, "(") {
                self.skip_balanced("(", ")");
                continue;
            }
            if self.is_punct(self.pos, "[") {
                self.skip_balanced("[", "]");
                continue;
            }
            self.pos += 1;
        }
    }

    fn skip_to_semicolon(&mut self) {
        self.skip_statement_like();
    }

    /// Parses `fn name<G>(params) -> Ret where .. { body }` with `pos`
    /// at `fn`.
    fn fn_item(&mut self, start: usize) -> Item {
        self.pos += 1; // `fn`
        let name = self.text(self.pos).to_owned();
        self.pos += 1;
        self.skip_generics();
        if self.is_punct(self.pos, "(") {
            self.skip_balanced("(", ")");
        }
        // Return type: skip to `{` / `;` / `where`, stepping over `<..>`
        // groups whole so `Result<Foo, {integer}>`-ish text never
        // confuses the brace scan.
        if self.is_punct(self.pos, "-") && self.is_punct(self.pos + 1, ">") {
            self.pos += 2;
            while self.pos < self.toks.len()
                && self.text(self.pos) != "where"
                && !self.is_punct(self.pos, "{")
                && !self.is_punct(self.pos, ";")
            {
                if self.is_punct(self.pos, "<") {
                    self.skip_balanced("<", ">");
                } else {
                    self.pos += 1;
                }
            }
        }
        // `where` clause: skip until the body brace or `;`.
        while self.pos < self.toks.len()
            && !self.is_punct(self.pos, "{")
            && !self.is_punct(self.pos, ";")
        {
            self.pos += 1;
        }
        let mut body = None;
        if self.is_punct(self.pos, "{") {
            let body_lo = self.pos + 1;
            self.skip_balanced("{", "}");
            body = Some((body_lo, self.pos.saturating_sub(1)));
        } else if self.is_punct(self.pos, ";") {
            self.pos += 1;
        }
        Item {
            kind: ItemKind::Fn,
            name,
            start,
            end: self.end_of(self.pos.saturating_sub(1)),
            body,
            children: Vec::new(),
        }
    }

    /// Parses `enum Name<G> { V1, V2(..), V3 { .. }, V4 = expr, }`.
    fn enum_item(&mut self, start: usize) -> Item {
        self.pos += 1; // `enum`
        let name = self.text(self.pos).to_owned();
        self.pos += 1;
        self.skip_generics();
        // `where` clause before the brace.
        while self.pos < self.toks.len() && !self.is_punct(self.pos, "{") {
            if self.is_punct(self.pos, ";") {
                // `enum Foo;` is not Rust, but stay tolerant.
                self.pos += 1;
                return Item {
                    kind: ItemKind::Enum { variants: Vec::new() },
                    name,
                    start,
                    end: self.end_of(self.pos - 1),
                    body: None,
                    children: Vec::new(),
                };
            }
            self.pos += 1;
        }
        let body_lo = self.pos + 1;
        let mut variants = Vec::new();
        self.pos += 1; // `{`
        // Variant list: at brace depth 1, an identifier directly after
        // `{` or `,` (attributes skipped) is a variant name.
        let mut expect_variant = true;
        let mut depth = 1usize;
        while self.pos < self.toks.len() && depth > 0 {
            if self.is_punct(self.pos, "{") || self.is_punct(self.pos, "(") {
                depth += 1;
                self.pos += 1;
                continue;
            }
            if self.is_punct(self.pos, "}") || self.is_punct(self.pos, ")") {
                depth -= 1;
                self.pos += 1;
                continue;
            }
            if depth == 1 {
                if expect_variant {
                    self.skip_attributes();
                    if let Some(t) = self.toks.get(self.pos) {
                        if t.kind == TokenKind::Ident && !self.is_punct(self.pos, "}") {
                            variants.push(Variant {
                                name: self.text(self.pos).to_owned(),
                                start: t.start,
                            });
                            expect_variant = false;
                        }
                    }
                } else if self.is_punct(self.pos, ",") {
                    expect_variant = true;
                }
            }
            self.pos += 1;
        }
        Item {
            kind: ItemKind::Enum { variants },
            name,
            start,
            end: self.end_of(self.pos.saturating_sub(1)),
            body: Some((body_lo, self.pos.saturating_sub(1))),
            children: Vec::new(),
        }
    }

    fn struct_item(&mut self, start: usize) -> Item {
        self.pos += 1; // `struct`
        let name = self.text(self.pos).to_owned();
        self.pos += 1;
        self.skip_generics();
        // Tuple struct `(..);`, unit struct `;`, or braced fields.
        while self.pos < self.toks.len() {
            if self.is_punct(self.pos, ";") {
                self.pos += 1;
                break;
            }
            if self.is_punct(self.pos, "(") {
                self.skip_balanced("(", ")");
                continue;
            }
            if self.is_punct(self.pos, "{") {
                self.skip_balanced("{", "}");
                break;
            }
            self.pos += 1;
        }
        Item {
            kind: ItemKind::Struct,
            name,
            start,
            end: self.end_of(self.pos.saturating_sub(1)),
            body: None,
            children: Vec::new(),
        }
    }

    /// Parses `impl<G> Type { .. }` and `impl<G> Trait for Type { .. }`,
    /// recursing into the body for methods.
    fn impl_item(&mut self, start: usize) -> Item {
        self.pos += 1; // `impl`
        self.skip_generics();
        // Collect path text until `{`, `for`, or `where`; a `for` resets
        // the collection (the implementing type follows it).
        let mut ty_start = self.start_of(self.pos);
        let mut ty_end = ty_start;
        while self.pos < self.toks.len() && !self.is_punct(self.pos, "{") {
            if self.text(self.pos) == "for" {
                self.pos += 1;
                ty_start = self.start_of(self.pos);
                ty_end = ty_start;
                continue;
            }
            if self.text(self.pos) == "where" {
                // Skip the clause without extending the type text.
                while self.pos < self.toks.len() && !self.is_punct(self.pos, "{") {
                    self.pos += 1;
                }
                break;
            }
            if self.is_punct(self.pos, "<") {
                self.skip_balanced("<", ">");
                ty_end = self.end_of(self.pos.saturating_sub(1));
                continue;
            }
            ty_end = self.end_of(self.pos);
            self.pos += 1;
        }
        let type_name = self.src.get(ty_start..ty_end).unwrap_or("").trim().to_owned();
        let mut children = Vec::new();
        let mut body = None;
        if self.is_punct(self.pos, "{") {
            let body_lo = self.pos + 1;
            // Find the matching close, then parse the contents.
            let save = self.pos;
            self.skip_balanced("{", "}");
            let body_hi = self.pos.saturating_sub(1);
            let after = self.pos;
            self.pos = save + 1;
            children = self.items_until(body_hi);
            self.pos = after;
            body = Some((body_lo, body_hi));
        }
        Item {
            kind: ItemKind::Impl { type_name },
            name: String::new(),
            start,
            end: self.end_of(self.pos.saturating_sub(1)),
            body,
            children,
        }
    }

    fn mod_item(&mut self, start: usize) -> Item {
        self.pos += 1; // `mod`
        let name = self.text(self.pos).to_owned();
        self.pos += 1;
        let mut children = Vec::new();
        let mut body = None;
        if self.is_punct(self.pos, "{") {
            let body_lo = self.pos + 1;
            let save = self.pos;
            self.skip_balanced("{", "}");
            let body_hi = self.pos.saturating_sub(1);
            let after = self.pos;
            self.pos = save + 1;
            children = self.items_until(body_hi);
            self.pos = after;
            body = Some((body_lo, body_hi));
        } else if self.is_punct(self.pos, ";") {
            self.pos += 1;
        }
        Item {
            kind: ItemKind::Mod,
            name,
            start,
            end: self.end_of(self.pos.saturating_sub(1)),
            body,
            children,
        }
    }

    fn trait_item(&mut self, start: usize) -> Item {
        self.pos += 1; // `trait`
        let name = self.text(self.pos).to_owned();
        self.pos += 1;
        while self.pos < self.toks.len() && !self.is_punct(self.pos, "{") {
            if self.is_punct(self.pos, ";") {
                self.pos += 1;
                return Item {
                    kind: ItemKind::Trait,
                    name,
                    start,
                    end: self.end_of(self.pos - 1),
                    body: None,
                    children: Vec::new(),
                };
            }
            self.pos += 1;
        }
        let body_lo = self.pos + 1;
        let save = self.pos;
        self.skip_balanced("{", "}");
        let body_hi = self.pos.saturating_sub(1);
        let after = self.pos;
        self.pos = save + 1;
        let children = self.items_until(body_hi);
        self.pos = after;
        Item {
            kind: ItemKind::Trait,
            name,
            start,
            end: self.end_of(self.pos.saturating_sub(1)),
            body: Some((body_lo, body_hi)),
            children,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ast_of(src: &str) -> Ast {
        parse(src, &lex(src).tokens)
    }

    #[test]
    fn fn_signatures_capture_name_and_skip_the_return_type() {
        let ast = ast_of(
            "fn plain() {}\n\
             pub fn with_ret(x: u32) -> Result<u32, String> { Ok(x) }\n\
             pub(crate) const fn k() -> usize { 4 }\n\
             fn generic<T: Clone>(t: T) -> Option<T> where T: Send { Some(t) }\n",
        );
        let fns = ast.fns();
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["plain", "with_ret", "k", "generic"]);
        assert!(fns.iter().all(|f| f.body.is_some()), "every body found past its return type");
    }

    #[test]
    fn enum_variants_are_listed_with_spans() {
        let src = "pub enum Frame {\n    Hello { version: u32 },\n    #[allow(dead_code)]\n    TraceChunk(Vec<u8>),\n    Goodbye,\n}\n";
        let ast = ast_of(src);
        let enums = ast.enums();
        assert_eq!(enums.len(), 1);
        assert_eq!(enums[0].name, "Frame");
        let ItemKind::Enum { variants } = &enums[0].kind else { panic!("enum") };
        let names: Vec<&str> = variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, vec!["Hello", "TraceChunk", "Goodbye"]);
        // Span accuracy: the recorded offset is the variant identifier.
        for v in variants {
            assert_eq!(&src[v.start..v.start + v.name.len()], v.name);
        }
    }

    #[test]
    fn enum_payload_identifiers_are_not_variants() {
        let src = "enum E { A(Result<u32, String>), B { field: Vec<u8> }, C = 3 }";
        let ast = ast_of(src);
        let ItemKind::Enum { variants } = &ast.enums()[0].kind else { panic!("enum") };
        let names: Vec<&str> = variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, vec!["A", "B", "C"]);
    }

    #[test]
    fn impl_blocks_nest_methods() {
        let src = "struct S;\nimpl S {\n    fn a(&self) -> bool { true }\n    pub fn b(&self) {}\n}\nimpl std::fmt::Display for S {\n    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }\n}\n";
        let ast = ast_of(src);
        let fns = ast.fns();
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "fmt"]);
        let impls: Vec<&Item> = ast
            .walk()
            .into_iter()
            .filter(|i| matches!(i.kind, ItemKind::Impl { .. }))
            .collect();
        assert_eq!(impls.len(), 2);
        let ItemKind::Impl { type_name } = &impls[1].kind else { panic!("impl") };
        assert_eq!(type_name, "S", "trait impls name the implementing type");
    }

    #[test]
    fn mods_nest_and_bodyless_items_are_tolerated() {
        let src = "mod outer {\n    mod inner;\n    pub fn f() -> std::io::Result<()> { Ok(()) }\n}\nuse std::io::Read;\nconst N: usize = 4;\nstatic T: [u8; 2] = [0, 1];\ntype Alias = u64;\n";
        let ast = ast_of(src);
        assert_eq!(ast.items[0].name, "outer");
        assert_eq!(ast.items[0].children.len(), 2);
        let fns = ast.fns();
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "f");
    }

    #[test]
    fn enclosing_fn_resolves_the_innermost_body() {
        let src = "fn outer() { helper(); }\nfn target() -> Result<(), ()> { other(); Ok(()) }\n";
        let toks = lex(src).tokens;
        let ast = parse(src, &toks);
        let other_idx = toks
            .iter()
            .position(|t| &src[t.start..t.end] == "other")
            .expect("token");
        assert_eq!(ast.enclosing_fn(other_idx).expect("enclosing").name, "target");
    }

    #[test]
    fn traits_and_macros_do_not_derail_parsing() {
        let src = "trait T {\n    fn required(&self) -> Result<u8, ()>;\n    fn provided(&self) {}\n}\nmacro_rules! m { ($x:expr) => { $x }; }\nfn after() {}\n";
        let ast = ast_of(src);
        let names: Vec<&str> = ast.fns().iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["required", "provided", "after"]);
    }

    #[test]
    fn malformed_input_degrades_without_panicking() {
        for src in ["fn", "enum {", "impl {{{", "struct ;;;", "fn f( {", "mod m {"] {
            let _ = ast_of(src);
        }
    }

    #[test]
    fn fn_body_token_ranges_exclude_braces() {
        let src = "fn f() { a(); }";
        let toks = lex(src).tokens;
        let ast = parse(src, &toks);
        let (lo, hi) = ast.fns()[0].body.expect("body");
        let texts: Vec<&str> = toks[lo..hi].iter().map(|t| &src[t.start..t.end]).collect();
        assert_eq!(texts, vec!["a", "(", ")", ";"]);
    }
}
