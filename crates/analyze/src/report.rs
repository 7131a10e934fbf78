//! Report rendering: human-readable diagnostics on stderr-style text and
//! a machine-readable JSON document (`target/analyze-report.json`).
//!
//! Both renderings consume the same deterministically-ordered finding
//! list (path, then line, then column, then rule id), so two runs over
//! the same tree produce byte-identical reports — the linter holds
//! itself to the determinism bar it enforces.

use sdbp_engine::json::JsonWriter;

use crate::rules::{Finding, RuleInfo};

/// JSON schema identifier, bumped on breaking shape changes.
pub const REPORT_SCHEMA: &str = "sdbp-analyze-report/v3";

/// A finding suppressed by a `// sdbp-allow(rule): reason` line escape
/// and therefore not failing the run, retained for the audit section of
/// the report.
#[derive(Clone, Debug)]
pub struct Allowed {
    /// The suppressed finding.
    pub finding: Finding,
    /// The justification text attached to the escape.
    pub reason: String,
}

/// The outcome of one workspace scan.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings — these fail the run.
    pub findings: Vec<Finding>,
    /// Suppressed findings with their justifications.
    pub allowed: Vec<Allowed>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Findings dropped by `[[exempt]]` rule opt-outs.
    pub exempted: usize,
}

/// Sorts findings into the canonical report order.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
}

/// Renders the human-readable report.
#[must_use]
pub fn render_human(report: &Report, rules: &[RuleInfo]) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}:{}:{}: [{}] {}\n    {}\n",
            f.path, f.line, f.col, f.rule, f.message, f.snippet
        ));
    }
    if !report.findings.is_empty() {
        out.push('\n');
    }
    let mut per_rule: Vec<(&str, usize)> = rules
        .iter()
        .map(|r| (r.id, report.findings.iter().filter(|f| f.rule == r.id).count()))
        .collect();
    per_rule.retain(|(_, n)| *n > 0);
    if per_rule.is_empty() {
        out.push_str(&format!(
            "analyze: clean — {} files scanned, 0 findings ({} allowed, {} exempted)\n",
            report.files_scanned,
            report.allowed.len(),
            report.exempted
        ));
    } else {
        for (id, n) in &per_rule {
            out.push_str(&format!("analyze: {n} finding(s) for {id}\n"));
        }
        out.push_str(&format!(
            "analyze: FAILED — {} files scanned, {} finding(s) ({} allowed, {} exempted)\n",
            report.files_scanned,
            report.findings.len(),
            report.allowed.len(),
            report.exempted
        ));
    }
    out
}

/// Renders the JSON report document.
#[must_use]
pub fn render_json(report: &Report, rules: &[RuleInfo]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema").string(REPORT_SCHEMA);
    w.key("files_scanned").uint(report.files_scanned as u64);
    w.key("exempted").uint(report.exempted as u64);
    w.key("clean").boolean(report.findings.is_empty());

    w.key("rules").begin_array();
    for r in rules {
        let count = report.findings.iter().filter(|f| f.rule == r.id).count();
        w.begin_object();
        w.key("id").string(r.id);
        w.key("summary").string(r.summary);
        w.key("findings").uint(count as u64);
        w.end_object();
    }
    w.end_array();

    w.key("findings").begin_array();
    for f in &report.findings {
        write_finding(&mut w, f);
    }
    w.end_array();

    w.key("allowed").begin_array();
    for a in &report.allowed {
        w.begin_object();
        w.key("reason").string(&a.reason);
        w.key("finding");
        write_finding(&mut w, &a.finding);
        w.end_object();
    }
    w.end_array();

    w.end_object();
    let mut doc = w.finish();
    doc.push('\n');
    doc
}

fn write_finding(w: &mut JsonWriter, f: &Finding) {
    w.begin_object();
    w.key("rule").string(f.rule);
    w.key("path").string(&f.path);
    w.key("line").uint(u64::from(f.line));
    w.key("col").uint(u64::from(f.col));
    w.key("message").string(&f.message);
    w.key("snippet").string(&f.snippet);
    w.end_object();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::all_rule_info;

    fn finding(path: &str, line: u32, col: u32, rule: &'static str) -> Finding {
        Finding {
            rule,
            path: path.to_owned(),
            line,
            col,
            message: "m".to_owned(),
            snippet: "s".to_owned(),
        }
    }

    #[test]
    fn findings_sort_by_path_line_col_rule() {
        let mut v = vec![
            finding("b.rs", 1, 1, "flat-metadata"),
            finding("a.rs", 2, 1, "flat-metadata"),
            finding("a.rs", 1, 5, "seed-discipline"),
            finding("a.rs", 1, 5, "flat-metadata"),
        ];
        sort_findings(&mut v);
        assert_eq!(v[0].rule, "flat-metadata");
        assert_eq!(v[0].path, "a.rs");
        assert_eq!(v[1].rule, "seed-discipline");
        assert_eq!(v[3].path, "b.rs");
    }

    #[test]
    fn clean_report_renders_clean_line_and_valid_json() {
        let report = Report { files_scanned: 12, ..Report::default() };
        let rules = all_rule_info();
        let human = render_human(&report, &rules);
        assert!(human.contains("clean"), "{human}");
        let json = render_json(&report, &rules);
        assert!(json.contains("\"schema\":\"sdbp-analyze-report/v3\""));
        assert!(json.contains("\"clean\":true"));
        assert!(json.contains("\"files_scanned\":12"));
    }

    #[test]
    fn failing_report_lists_findings_in_both_formats() {
        let mut report = Report { files_scanned: 3, ..Report::default() };
        report.findings.push(finding("crates/x/src/lib.rs", 4, 9, "seed-discipline"));
        report.allowed.push(Allowed {
            finding: finding("crates/y/src/lib.rs", 1, 1, "flat-metadata"),
            reason: "cold report rows".to_owned(),
        });
        let rules = all_rule_info();
        let human = render_human(&report, &rules);
        assert!(human.contains("crates/x/src/lib.rs:4:9"), "{human}");
        assert!(human.contains("FAILED"), "{human}");
        let json = render_json(&report, &rules);
        assert!(json.contains("\"clean\":false"));
        assert!(json.contains("\"reason\":\"cold report rows\""));
    }
}
