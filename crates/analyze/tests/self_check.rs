//! Self-check: the committed tree, scanned with the committed
//! `analyze.toml`, has zero unsuppressed findings — the same gate CI
//! applies via `sdbp-analyze`.

use sdbp_analyze::config::Config;
use sdbp_analyze::rules::rule_ids;
use sdbp_analyze::workspace::{analyze_workspace, collect_rust_files, find_root};
use std::path::Path;

fn committed_scan() -> (std::path::PathBuf, Config, sdbp_analyze::report::Report) {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_root(here).expect("workspace root above crates/analyze");
    let config =
        Config::load(&root.join("analyze.toml"), &rule_ids()).expect("committed analyze.toml parses");
    let report = analyze_workspace(&root, &config).expect("scan succeeds");
    (root, config, report)
}

#[test]
fn committed_workspace_is_clean_under_committed_config() {
    let (_, _, report) = committed_scan();
    assert!(
        report.findings.is_empty(),
        "workspace has unsuppressed findings:\n{:#?}",
        report.findings
    );
    assert!(report.files_scanned > 50, "walk found only {} files", report.files_scanned);
}

/// Rules apply workspace-wide by default; `[[exempt]]` entries opt code
/// out one rule at a time. No crate may opt out of *everything* — a
/// crate covered by zero rules has silently left the lint regime, which
/// is exactly the erosion the inverted default exists to prevent.
#[test]
fn every_crate_is_covered_by_at_least_one_rule() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_root(here).expect("workspace root above crates/analyze");
    let config =
        Config::load(&root.join("analyze.toml"), &rule_ids()).expect("committed analyze.toml parses");
    let files = collect_rust_files(&root).expect("walk succeeds");

    let mut crates: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for f in &files {
        if let Some(rest) = f.strip_prefix("crates/") {
            if let Some((name, _)) = rest.split_once('/') {
                crates.insert(format!("crates/{name}/"));
            }
        }
    }
    assert!(crates.len() >= 5, "expected a multi-crate workspace, found {crates:?}");

    for krate in &crates {
        // A crate is covered by a rule if at least one of its files is
        // not exempted from that rule.
        let crate_files: Vec<&String> =
            files.iter().filter(|f| f.starts_with(krate.as_str())).collect();
        let covered = rule_ids().iter().any(|rule| {
            crate_files.iter().any(|f| config.exempts(rule, f).is_none())
        });
        assert!(
            covered,
            "{krate} is exempted from every rule — remove at least one \
             [[exempt]] entry or justify the crate's existence to the linter"
        );
    }
}

/// The committed tree's exempt entries must each name a path that still
/// exists: an opt-out that outlived its code is an audit hole.
#[test]
fn exempt_entries_point_at_real_paths() {
    let (root, config, _) = committed_scan();
    for entry in &config.exempts {
        let p = root.join(&entry.path);
        assert!(
            p.exists(),
            "[[exempt]] {} at {} names a path that no longer exists",
            entry.rule,
            entry.path
        );
    }
}
