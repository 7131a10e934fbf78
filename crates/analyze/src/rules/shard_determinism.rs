//! `shard-determinism`: shard results must be merged by shard index,
//! never in arrival order.
//!
//! The set-sharded replay kernel (PR 9, `DESIGN.md` §13) promises
//! bit-identical output at every shard count. That promise survives
//! parallel execution only because every aggregation point indexes
//! results by their *task* order: the kernel's `merge_shards` walks
//! results by shard index, `ThreadRunner` joins handles in spawn order,
//! and the engine's worker pool fills pre-sized slots by submission
//! index (`slots[index] = outcome`). The one shape that silently breaks the
//! guarantee is accumulating results as they *arrive* — `.push(...)`
//! inside a channel-receive loop — because completion order depends on
//! scheduling, so two runs of the same input can merge in different
//! orders.
//!
//! The rule is scoped to the modules that own shard merge and
//! submission-order aggregation (the cache kernel and the engine pool). Inside any
//! loop that drains a channel — a `recv`/`try_recv`/`recv_timeout`/
//! `try_iter` call, or iterating a receiver binding (`for r in rx`) —
//! every `.push(` / `.extend(` in the loop body is flagged: write into
//! an index-addressed slot instead.

use super::{finding_at, Finding, Rule};
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// The merge and aggregation modules the invariant governs.
const SCOPE: &[&str] = &[
    "crates/cache/src/kernel.rs",
    "crates/engine/src/pool.rs",
];

/// Channel-drain calls that yield results in completion order. Plain
/// `.iter()` is deliberately absent: slice iteration is everywhere in
/// the merge paths and never arrival-ordered.
const ARRIVAL_CALLS: &[&str] = &["recv", "try_recv", "recv_timeout", "try_iter"];

/// Receiver naming conventions, for `for r in rx`-style drains that
/// never spell a method call.
const RECEIVER_NAMES: &[&str] = &["rx", "receiver"];

/// See the [module docs](self).
#[derive(Debug)]
pub struct ShardDeterminism;

impl Rule for ShardDeterminism {
    fn id(&self) -> &'static str {
        "shard-determinism"
    }

    fn summary(&self) -> &'static str {
        "shard results pushed in channel-arrival order (index a pre-sized slot instead)"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !SCOPE.contains(&file.rel_path.as_str()) {
            return;
        }
        let toks = &file.lexed.tokens;
        let text = |i: usize| toks.get(i).map_or("", |t| file.text(t));
        let is_punct = |i: usize, c: &str| {
            toks.get(i).is_some_and(|t| t.kind == TokenKind::Punct) && text(i) == c
        };
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident
                || !matches!(text(i), "for" | "while" | "loop")
                || file.in_test(t.start)
            {
                continue;
            }
            // The loop body opens at the first top-level `{` after the
            // keyword (Rust forbids bare struct literals in loop
            // headers, so no depth tracking is needed to find it).
            let mut open = i + 1;
            while open < toks.len() && !is_punct(open, "{") {
                open += 1;
            }
            if open >= toks.len() {
                continue;
            }
            // Match the body's braces to find its end.
            let mut depth = 1i32;
            let mut close = open + 1;
            while close < toks.len() && depth > 0 {
                if is_punct(close, "{") {
                    depth += 1;
                } else if is_punct(close, "}") {
                    depth -= 1;
                }
                close += 1;
            }
            // Does this loop drain a channel? Either an arrival-order
            // call anywhere in its span, or the header iterates a
            // receiver binding by name.
            let drains_calls = (i..close).any(|j| {
                toks.get(j).is_some_and(|t| t.kind == TokenKind::Ident)
                    && ARRIVAL_CALLS.contains(&text(j))
                    && is_punct(j + 1, "(")
            });
            let drains_receiver = (i..open).any(|j| {
                toks.get(j).is_some_and(|t| t.kind == TokenKind::Ident)
                    && RECEIVER_NAMES.contains(&text(j))
            });
            if !(drains_calls || drains_receiver) {
                continue;
            }
            // Flag every order-dependent accumulation in the body.
            for j in open..close {
                let method = text(j + 1);
                if is_punct(j, ".")
                    && matches!(method, "push" | "extend")
                    && is_punct(j + 2, "(")
                {
                    out.push(finding_at(
                        self.id(),
                        file,
                        toks[j + 1].start,
                        format!(
                            "`.{method}(...)` inside a channel-draining loop accumulates \
                             shard results in arrival order; results must be merged by \
                             shard index — write into a pre-sized slot \
                             (`slots[index] = ...`) as the engine pool does"
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let f = SourceFile::from_source(path, src.to_owned());
        let mut out = Vec::new();
        ShardDeterminism.check(&f, &mut out);
        out
    }

    #[test]
    fn push_in_a_recv_loop_is_flagged() {
        let src = "fn merge() {\n    let mut results = Vec::new();\n    while let Ok(r) = rx.recv() {\n        results.push(r);\n    }\n}\n";
        let found = run("crates/cache/src/kernel.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 4);
        assert!(found[0].message.contains("arrival order"), "{}", found[0].message);
    }

    #[test]
    fn iterating_a_receiver_is_flagged_without_a_recv_call() {
        let src = "fn merge() {\n    let mut results = Vec::new();\n    for r in rx {\n        results.push(r);\n    }\n}\n";
        assert_eq!(run("crates/engine/src/pool.rs", src).len(), 1);
    }

    #[test]
    fn indexed_slot_fill_is_clean() {
        let src = "fn merge(n: usize) {\n    let mut slots: Vec<Option<u32>> = (0..n).map(|_| None).collect();\n    while let Ok((index, r)) = rx.recv() {\n        slots[index] = Some(r);\n    }\n}\n";
        assert!(run("crates/engine/src/pool.rs", src).is_empty());
    }

    #[test]
    fn push_outside_channel_loops_is_clean() {
        let src = "fn ranges() {\n    let mut v = Vec::new();\n    for i in 0..4 {\n        v.push(i);\n    }\n}\n";
        assert!(run("crates/cache/src/kernel.rs", src).is_empty());
    }

    #[test]
    fn out_of_scope_files_are_ignored() {
        let src = "fn f() { for r in rx { v.push(r); } }\n";
        assert!(run("crates/serve/src/server.rs", src).is_empty());
        assert!(run("crates/harness/src/runner.rs", src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { for r in rx { v.push(r); } }\n}\n";
        assert!(run("crates/engine/src/pool.rs", src).is_empty());
    }
}
