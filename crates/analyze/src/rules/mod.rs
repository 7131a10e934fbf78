//! The rule engine: each rule is a pattern over the token stream of one
//! [`SourceFile`], reporting span-accurate [`Finding`]s.
//!
//! Only invariants the pinned clippy cannot express live here: this
//! system's own contracts (wire exhaustiveness, registry coverage, shard
//! merge order, lock scope, flat metadata, seed forking). The generic
//! lexical checks — panics, narrowing casts, wall-clock reads, hashed
//! containers, missing docs, discarded `Result`s — are clippy lints
//! configured in `Cargo.toml` and `clippy.toml` (DESIGN.md §9).
//!
//! Rules are deliberately *lexical*: the workspace is std-only and
//! offline, so there is no type information to lean on. Each rule is
//! therefore scoped to the paths where its invariant actually matters
//! (see each rule's module docs), which keeps the false-positive rate
//! near zero — and anything residual is handled by the two escape
//! hatches ([`crate::config`] `[[exempt]]` entries and
//! `// sdbp-allow(rule)` line escapes).

mod flat_metadata;
mod mutex_discipline;
mod registry_coverage;
mod seed;
mod shard_determinism;
mod wire_exhaustive;

use std::path::Path;

use crate::graph::{Graph, Site};
use crate::source::SourceFile;

pub use flat_metadata::FlatMetadata;
pub use mutex_discipline::MutexDiscipline;
pub use registry_coverage::RegistryCoverage;
pub use seed::SeedDiscipline;
pub use shard_determinism::ShardDeterminism;
pub use wire_exhaustive::WireExhaustive;

/// One diagnostic: where, which rule, and why.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Finding {
    /// Stable rule identifier (e.g. `seed-discipline`).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (characters).
    pub col: u32,
    /// What is wrong and what to do instead.
    pub message: String,
    /// The full offending source line, trimmed, for context.
    pub snippet: String,
}

/// A single invariant check over one file.
pub trait Rule {
    /// Stable identifier used in reports, `[[exempt]]` entries, and
    /// `sdbp-allow(...)` escapes.
    fn id(&self) -> &'static str;

    /// One-line description of the invariant the rule protects.
    fn summary(&self) -> &'static str;

    /// Scans `file`, appending findings to `out`.
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>);
}

/// A cross-file invariant check over the assembled workspace [`Graph`].
///
/// Graph rules run after every file's facts are extracted (phase 2 of
/// the scan), so they can relate declarations in one file to uses in
/// another — e.g. a wire variant with an encode arm but no decode arm.
pub trait GraphRule {
    /// Stable identifier used in reports, `[[exempt]]` entries, and
    /// `sdbp-allow(...)` escapes.
    fn id(&self) -> &'static str;

    /// One-line description of the invariant the rule protects.
    fn summary(&self) -> &'static str;

    /// Scans `graph`, appending findings to `out`.
    fn check(&self, graph: &Graph, ctx: &GraphContext, out: &mut Vec<Finding>);
}

/// Ambient workspace information graph rules may consult beyond the
/// Rust sources (e.g. the golden replay fixture).
#[derive(Debug)]
pub struct GraphContext<'a> {
    /// Workspace root directory.
    pub root: &'a Path,
}

/// Rule metadata shared by per-file and graph rules, for reports,
/// SARIF, and `--list-rules`.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Stable rule identifier.
    pub id: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// Every per-file rule, in stable report order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(SeedDiscipline),
        Box::new(FlatMetadata),
        Box::new(MutexDiscipline),
        Box::new(ShardDeterminism),
    ]
}

/// Every graph rule, in stable report order.
pub fn graph_rules() -> Vec<Box<dyn GraphRule>> {
    vec![Box::new(WireExhaustive), Box::new(RegistryCoverage)]
}

/// Metadata for every rule — per-file first, then graph — in stable
/// report order.
pub fn all_rule_info() -> Vec<RuleInfo> {
    all_rules()
        .iter()
        .map(|r| RuleInfo { id: r.id(), summary: r.summary() })
        .chain(graph_rules().iter().map(|r| RuleInfo { id: r.id(), summary: r.summary() }))
        .collect()
}

/// The stable id list over both rule kinds (for config validation and
/// `--list-rules`).
pub fn rule_ids() -> Vec<&'static str> {
    all_rule_info().iter().map(|r| r.id).collect()
}

/// Builds a [`Finding`] anchored at a precomputed fact [`Site`] (graph
/// rules work from facts and never hold the source text).
pub(crate) fn finding_at_site(
    rule: &'static str,
    path: &str,
    site: &Site,
    message: String,
) -> Finding {
    Finding {
        rule,
        path: path.to_owned(),
        line: site.line,
        col: site.col,
        message,
        snippet: site.snippet.clone(),
    }
}

/// Builds a [`Finding`] anchored at byte offset `byte` of `file`.
pub(crate) fn finding_at(
    rule: &'static str,
    file: &SourceFile,
    byte: usize,
    message: String,
) -> Finding {
    let (line, col) = file.line_col(byte);
    Finding {
        rule,
        path: file.rel_path.clone(),
        line,
        col,
        message,
        snippet: file.line_text(line).trim().to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique_and_kebab_case() {
        let ids = rule_ids();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "duplicate rule id");
        for id in ids {
            assert!(
                id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "rule id {id} is not kebab-case"
            );
        }
    }
}
