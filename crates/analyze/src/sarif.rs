//! SARIF 2.1.0 emitter: findings as GitHub code-scanning annotations.
//!
//! SARIF (Static Analysis Results Interchange Format) is the schema
//! GitHub's `upload-sarif` action ingests; once uploaded, each finding
//! becomes an inline annotation on the offending line of the PR diff.
//! The document is the minimal valid subset: one `run`, a `tool.driver`
//! carrying the full rule table (ids, short descriptions, help text),
//! and one `result` per unsuppressed finding with a `physicalLocation`
//! region. Suppressed findings are *not* emitted — the audit trail for
//! those lives in the JSON report; code scanning only sees what fails.
//!
//! Ordering mirrors the report (path, line, column, rule), so the SARIF
//! document is as byte-deterministic as every other output.

use sdbp_engine::json::JsonWriter;

use crate::report::Report;
use crate::rules::RuleInfo;

/// The SARIF version this emitter targets.
pub const SARIF_VERSION: &str = "2.1.0";

/// The schema URI embedded in the document.
pub const SARIF_SCHEMA: &str = "https://json.schemastore.org/sarif-2.1.0.json";

/// Renders `report` as a SARIF 2.1.0 document.
#[must_use]
pub fn render_sarif(report: &Report, rules: &[RuleInfo]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("$schema").string(SARIF_SCHEMA);
    w.key("version").string(SARIF_VERSION);
    w.key("runs").begin_array();
    w.begin_object();

    w.key("tool").begin_object();
    w.key("driver").begin_object();
    w.key("name").string("sdbp-analyze");
    w.key("informationUri").string("https://github.com/sdbp-repro/sdbp-repro");
    w.key("rules").begin_array();
    for r in rules {
        w.begin_object();
        w.key("id").string(r.id);
        w.key("shortDescription").begin_object();
        w.key("text").string(r.summary);
        w.end_object();
        w.key("defaultConfiguration").begin_object();
        w.key("level").string("error");
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object(); // driver
    w.end_object(); // tool

    w.key("results").begin_array();
    for f in &report.findings {
        let rule_index = rules.iter().position(|r| r.id == f.rule);
        w.begin_object();
        w.key("ruleId").string(f.rule);
        if let Some(idx) = rule_index {
            w.key("ruleIndex").uint(idx as u64);
        }
        w.key("level").string("error");
        w.key("message").begin_object();
        w.key("text").string(&f.message);
        w.end_object();
        w.key("locations").begin_array();
        w.begin_object();
        w.key("physicalLocation").begin_object();
        w.key("artifactLocation").begin_object();
        w.key("uri").string(&f.path);
        w.key("uriBaseId").string("%SRCROOT%");
        w.end_object();
        w.key("region").begin_object();
        w.key("startLine").uint(u64::from(f.line));
        w.key("startColumn").uint(u64::from(f.col));
        w.end_object();
        w.end_object(); // physicalLocation
        w.end_object(); // location
        w.end_array();
        w.end_object(); // result
    }
    w.end_array();

    w.end_object(); // run
    w.end_array();
    w.end_object();
    let mut doc = w.finish();
    doc.push('\n');
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{all_rule_info, Finding};

    fn sample_report() -> Report {
        let mut report = Report { files_scanned: 2, ..Report::default() };
        report.findings.push(Finding {
            rule: "seed-discipline",
            path: "crates/workloads/src/lib.rs".to_owned(),
            line: 14,
            col: 9,
            message: "seed arithmetic on `seed` \"quoted\"".to_owned(),
            snippet: "let s = seed + core;".to_owned(),
        });
        report
    }

    #[test]
    fn document_carries_schema_version_rules_and_results() {
        let doc = render_sarif(&sample_report(), &all_rule_info());
        assert!(doc.contains("\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\""));
        assert!(doc.contains("\"version\":\"2.1.0\""));
        assert!(doc.contains("\"ruleId\":\"seed-discipline\""));
        assert!(doc.contains("\"startLine\":14"));
        assert!(doc.contains("\"startColumn\":9"));
        assert!(doc.contains("\"uri\":\"crates/workloads/src/lib.rs\""));
        // Message text is escaped, not raw.
        assert!(doc.contains("\\\"quoted\\\""));
        // Every rule is declared in the driver table.
        for r in all_rule_info() {
            assert!(doc.contains(&format!("\"id\":\"{}\"", r.id)), "missing rule {}", r.id);
        }
    }

    #[test]
    fn rule_index_points_into_the_driver_table() {
        let rules = all_rule_info();
        let doc = render_sarif(&sample_report(), &rules);
        let idx = rules.iter().position(|r| r.id == "seed-discipline").expect("rule exists");
        assert!(doc.contains(&format!("\"ruleIndex\":{idx}")));
    }

    #[test]
    fn clean_report_yields_empty_results() {
        let doc = render_sarif(&Report::default(), &all_rule_info());
        assert!(doc.contains("\"results\":[]"), "{doc}");
    }

    #[test]
    fn output_is_deterministic() {
        let a = render_sarif(&sample_report(), &all_rule_info());
        let b = render_sarif(&sample_report(), &all_rule_info());
        assert_eq!(a, b);
    }
}
