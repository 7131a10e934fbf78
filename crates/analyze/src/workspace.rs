//! Workspace discovery and the two-phase scan driver.
//!
//! **Phase 1 (per file):** every `.rs` file under the root is lexed,
//! parsed, run through the per-file rules, and reduced to
//! [`crate::graph::FileFacts`], one file at a time in sorted path order.
//!
//! **Phase 2 (cross-file):** the facts are joined into a [`Graph`] and
//! the graph rules run over it — contract checks such as wire
//! exhaustiveness that no single file can decide.
//!
//! Raw findings from both phases then pass through two routing gates,
//! each demanding a written justification: `analyze.toml` `[[exempt]]`
//! entries (rule opt-outs — rules apply workspace-wide by default) and
//! per-line `// sdbp-allow(rule): reason` escapes. Escapes without a
//! reason text are ignored — an unexplained suppression is no
//! suppression.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::config::Config;
use crate::graph::{extract, EscapeFact, FileFacts, Graph, GraphFile};
use crate::report::{sort_findings, Allowed, Report};
use crate::rules::{all_rules, graph_rules, Finding};
use crate::source::SourceFile;

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "node_modules"];

/// Path prefixes excluded from the scan: the fixture corpus is
/// *deliberately* full of violations.
const SKIP_PREFIXES: &[&str] = &["crates/analyze/tests/fixtures/"];

/// The phase-1 result for one file: per-file rule findings plus the
/// facts the graph rules consume.
#[derive(Debug)]
pub struct FileAnalysis {
    /// Raw (unrouted) per-file findings.
    pub findings: Vec<Finding>,
    /// Extracted facts.
    pub facts: FileFacts,
}

/// Finds the workspace root at or above `start`: the nearest ancestor
/// holding a `Cargo.toml` with a `[workspace]` section.
///
/// # Errors
///
/// No such ancestor exists.
pub fn find_root(start: &Path) -> Result<PathBuf, String> {
    let mut dir = start
        .canonicalize()
        .map_err(|e| format!("cannot resolve {}: {e}", start.display()))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest)
                .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(format!(
                "no workspace Cargo.toml found at or above {}",
                start.display()
            ));
        }
    }
}

/// Collects every workspace-relative `.rs` path under `root`, sorted.
///
/// # Errors
///
/// Directory reads fail.
pub fn collect_rust_files(root: &Path) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort_unstable();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("path {} escapes root: {e}", path.display()))?;
            let rel = rel.to_string_lossy().replace('\\', "/");
            if SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
                continue;
            }
            out.push(rel);
        }
    }
    Ok(())
}

/// Runs phase 1 for one file already read into `src`.
#[must_use]
pub fn analyze_file(rel_path: &str, src: String) -> FileAnalysis {
    let file = SourceFile::from_source(rel_path, src);
    let mut findings = Vec::new();
    for rule in all_rules() {
        rule.check(&file, &mut findings);
    }
    FileAnalysis { findings, facts: extract(&file) }
}

/// Scans the workspace at `root` under `config`, returning the filtered,
/// deterministically-ordered report.
///
/// # Errors
///
/// File reads fail; individual findings never error.
pub fn analyze_workspace(root: &Path, config: &Config) -> Result<Report, String> {
    let files = collect_rust_files(root)?;

    // Phase 1: per-file analysis, in sorted path order.
    let mut escapes_by_path: BTreeMap<String, Vec<EscapeFact>> = BTreeMap::new();
    let mut raw: Vec<Finding> = Vec::new();
    let mut graph_files = Vec::with_capacity(files.len());
    for rel in &files {
        let abs = root.join(rel);
        let src = std::fs::read_to_string(&abs)
            .map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
        let analysis = analyze_file(rel, src);
        escapes_by_path.insert(rel.clone(), analysis.facts.escapes.clone());
        raw.extend(analysis.findings);
        graph_files.push(GraphFile { path: rel.clone(), facts: analysis.facts });
    }

    // Phase 2: graph assembly and cross-file rules.
    let graph = Graph::build(graph_files);
    for rule in graph_rules() {
        rule.check(&graph, &mut raw);
    }

    // Routing.
    let mut report = Report { files_scanned: files.len(), ..Report::default() };
    for finding in raw {
        route_finding(&escapes_by_path, config, finding, &mut report);
    }
    sort_findings(&mut report.findings);
    report.allowed.sort_by(|a, b| {
        (a.finding.path.as_str(), a.finding.line, a.finding.col, a.finding.rule)
            .cmp(&(b.finding.path.as_str(), b.finding.line, b.finding.col, b.finding.rule))
    });
    Ok(report)
}

/// Sends `finding` through the routing gates: exempt (dropped, counted),
/// line escape (kept for audit), or the failing bucket.
fn route_finding(
    escapes_by_path: &BTreeMap<String, Vec<EscapeFact>>,
    config: &Config,
    finding: Finding,
    report: &mut Report,
) {
    if config.exempts(finding.rule, &finding.path).is_some() {
        report.exempted += 1;
        return;
    }
    let escapes = escapes_by_path.get(&finding.path).map_or(&[][..], Vec::as_slice);
    if let Some(reason) = line_escape_reason(escapes, &finding) {
        report.allowed.push(Allowed { finding, reason });
        return;
    }
    report.findings.push(finding);
}

/// Looks for an `sdbp-allow(<rule>): <reason>` escape on the finding's
/// line or the line directly above (reasonless escapes were already
/// dropped at fact extraction).
fn line_escape_reason(escapes: &[EscapeFact], finding: &Finding) -> Option<String> {
    escapes
        .iter()
        .find(|e| {
            e.rule == finding.rule && (e.line == finding.line || e.line + 1 == finding.line)
        })
        .map(|e| e.reason.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(path: &str, line: u32, rule: &'static str) -> Finding {
        Finding {
            rule,
            path: path.to_owned(),
            line,
            col: 1,
            message: String::new(),
            snippet: String::new(),
        }
    }

    fn escapes_of(path: &str, src: &str) -> BTreeMap<String, Vec<EscapeFact>> {
        let analysis = analyze_file(path, src.to_owned());
        let mut map = BTreeMap::new();
        map.insert(path.to_owned(), analysis.facts.escapes);
        map
    }

    #[test]
    fn line_escape_same_line_and_line_above() {
        let src = "let a: Vec<Vec<u8>>; // sdbp-allow(flat-metadata): cold report rows\n\
                   // sdbp-allow(flat-metadata): built once per campaign\n\
                   let b: Vec<Vec<u8>>;\n\
                   let c: Vec<Vec<u8>>;\n";
        let path = "crates/sample/src/lib.rs";
        let map = escapes_of(path, src);
        let escapes = map.get(path).expect("escapes recorded");
        assert!(line_escape_reason(escapes, &finding(path, 1, "flat-metadata")).is_some());
        assert!(line_escape_reason(escapes, &finding(path, 3, "flat-metadata")).is_some());
        assert!(line_escape_reason(escapes, &finding(path, 4, "flat-metadata")).is_none());
    }

    #[test]
    fn escape_must_name_the_rule_and_carry_a_reason() {
        let src = "let a: Vec<Vec<u8>>; // sdbp-allow(seed-discipline): wrong rule\n\
                   let b: Vec<Vec<u8>>; // sdbp-allow(flat-metadata)\n";
        let path = "crates/sample/src/lib.rs";
        let map = escapes_of(path, src);
        let escapes = map.get(path).expect("escapes recorded");
        assert!(line_escape_reason(escapes, &finding(path, 1, "flat-metadata")).is_none());
        assert!(
            line_escape_reason(escapes, &finding(path, 2, "flat-metadata")).is_none(),
            "reasonless escape must not suppress"
        );
    }

    #[test]
    fn route_prefers_exempt_then_escape_then_fails() {
        let cfg = Config::parse(
            "[[exempt]]\nrule = \"flat-metadata\"\npath = \"crates/harness/\"\n\
             reason = \"cold result matrices\"\n",
            &crate::rules::rule_ids(),
        )
        .expect("valid config");
        let path = "crates/sample/src/sampled.rs";
        let escapes = escapes_of(path, "// sdbp-allow(flat-metadata): built once per campaign\n");
        let mut report = Report::default();
        route_finding(
            &escapes,
            &cfg,
            finding("crates/harness/src/table.rs", 1, "flat-metadata"),
            &mut report,
        );
        assert_eq!(report.exempted, 1);
        assert!(report.allowed.is_empty() && report.findings.is_empty());

        route_finding(&escapes, &cfg, finding(path, 2, "flat-metadata"), &mut report);
        assert_eq!(report.allowed.len(), 1);
        assert!(report.findings.is_empty());

        route_finding(
            &escapes,
            &cfg,
            finding("crates/cache/src/lru.rs", 1, "flat-metadata"),
            &mut report,
        );
        assert_eq!(report.findings.len(), 1, "no exempt or escape for cache");
    }

    #[test]
    fn collect_skips_target_and_fixture_corpus() {
        let tmp = std::env::temp_dir().join(format!("sdbp-analyze-walk-{}", std::process::id()));
        let mk = |rel: &str| {
            let p = tmp.join(rel);
            std::fs::create_dir_all(p.parent().expect("parent")).expect("mkdir");
            std::fs::write(&p, "fn x() {}\n").expect("write");
        };
        mk("crates/a/src/lib.rs");
        mk("target/debug/build/generated.rs");
        mk("crates/analyze/tests/fixtures/bad/seed.rs");
        let files = collect_rust_files(&tmp).expect("walk");
        std::fs::remove_dir_all(&tmp).expect("cleanup");
        assert_eq!(files, vec!["crates/a/src/lib.rs".to_owned()]);
    }

    #[test]
    fn analyze_on_real_rules_is_deterministic() {
        let tmp = std::env::temp_dir().join(format!("sdbp-analyze-det-{}", std::process::id()));
        for i in 0..4 {
            let p = tmp.join(format!("crates/traceio/src/f{i}.rs"));
            std::fs::create_dir_all(p.parent().expect("parent")).expect("mkdir");
            std::fs::write(&p, format!("fn f{i}(seed: u64) -> u64 {{ seed + {i} }}\n"))
                .expect("write");
        }
        let cfg = Config::default();
        let a = analyze_workspace(&tmp, &cfg).expect("scan");
        let b = analyze_workspace(&tmp, &cfg).expect("scan");
        std::fs::remove_dir_all(&tmp).expect("cleanup");
        assert_eq!(a.findings, b.findings);
        assert_eq!(
            crate::report::render_json(&a, &crate::rules::all_rule_info()),
            crate::report::render_json(&b, &crate::rules::all_rule_info()),
            "two scans of one tree must render byte-identical reports"
        );
        assert_eq!(a.findings.len(), 4);
        assert!(a.findings.iter().all(|f| f.rule == "seed-discipline"));
    }
}
