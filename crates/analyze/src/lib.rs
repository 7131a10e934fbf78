//! `sdbp-analyze`: a workspace-graph invariant linter for the SDBP
//! reproduction.
//!
//! The simulator's correctness claims rest on invariants the compiler
//! does not check. The generic ones — no panics on I/O paths, no
//! narrowing casts in codecs, no wall-clock reads or hashed-container
//! iteration in simulation code, documented public APIs, no discarded
//! `Result`s — are clippy lints configured in the workspace `Cargo.toml`
//! and `clippy.toml` (DESIGN.md §9). This crate keeps only the rules
//! clippy cannot express, because they encode this system's own
//! contracts: every wire variant must have an encode arm, a decode arm,
//! and a handler; every registered policy must be gated by the golden
//! fixture and the sampling smoke test; shard results merge in shard
//! order. It walks every `.rs` file in the workspace with a hand-rolled,
//! span-tracking lexer and item parser (the workspace is std-only, so
//! no `syn`), joins the per-file facts into a workspace graph, and
//! enforces the invariants as lint rules:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `seed-discipline` | derived streams use `Rng64::fork`, not seed arithmetic |
//! | `flat-metadata` | per-line replacement metadata stays flat |
//! | `mutex-discipline` | no lock guard held across a blocking call |
//! | `shard-determinism` | shard results merge in shard order, not arrival order |
//! | `wire-exhaustive` | wire enum variants encode, decode, and are handled |
//! | `registry-coverage` | registered policies are gated by golden + smoke |
//!
//! Rules apply workspace-wide by default; `analyze.toml` `[[exempt]]`
//! entries opt a path out with a written reason, and
//! `// sdbp-allow(rule): reason` escapes excuse single findings in-line.
//! Findings are span-accurate (`file:line:col`) and rendered
//! human-readable, as JSON (`target/analyze-report.json`, path
//! overridable via `--report` / `SDBP_ANALYZE_REPORT`), and as SARIF
//! 2.1.0 (`--sarif`) for GitHub code-scanning upload. The binary exits
//! nonzero on any unsuppressed finding, so CI can gate on it.

pub mod config;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod sarif;
pub mod source;
pub mod workspace;

use std::path::PathBuf;

use config::Config;
use report::{render_human, render_json};
use rules::all_rule_info;
use workspace::{analyze_workspace, find_root};

/// Parsed command-line options.
#[derive(Debug, Default)]
struct Options {
    root: Option<PathBuf>,
    config: Option<PathBuf>,
    report_out: Option<PathBuf>,
    sarif_out: Option<PathBuf>,
    list_rules: bool,
    quiet: bool,
}

const USAGE: &str = "usage: sdbp-analyze [--root DIR] [--config FILE] [--report FILE] \
[--sarif FILE] [--list-rules] [--quiet]

Scans every .rs file in the workspace for invariant violations.

  --root DIR     workspace root (default: nearest [workspace] Cargo.toml)
  --config FILE  policy file (default: <root>/analyze.toml)
  --report FILE  JSON report path (default: $SDBP_ANALYZE_REPORT, then
                 <root>/target/analyze-report.json); --json is an alias
  --sarif FILE   also write a SARIF 2.1.0 document for code scanning
  --list-rules   print the rule table and exit
  --quiet        suppress per-finding output; print only the summary line

exit status: 0 clean, 1 findings, 2 usage or I/O error";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                opts.root =
                    Some(it.next().ok_or("--root needs a directory argument")?.into());
            }
            "--config" => {
                opts.config = Some(it.next().ok_or("--config needs a file argument")?.into());
            }
            "--report" | "--json" => {
                opts.report_out =
                    Some(it.next().ok_or("--report needs a file argument")?.into());
            }
            "--sarif" => {
                opts.sarif_out = Some(it.next().ok_or("--sarif needs a file argument")?.into());
            }
            "--list-rules" => opts.list_rules = true,
            "--quiet" => opts.quiet = true,
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// Runs the linter CLI; returns the process exit code (0 clean,
/// 1 findings, 2 error).
#[must_use]
pub fn run_cli(args: &[String]) -> i32 {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    if opts.list_rules {
        for r in all_rule_info() {
            println!("{:<24} {}", r.id, r.summary);
        }
        return 0;
    }
    match run_scan(&opts) {
        Ok(clean) => i32::from(!clean),
        Err(msg) => {
            eprintln!("sdbp-analyze: {msg}");
            2
        }
    }
}

/// Writes `content` to `path`, creating parent directories.
fn write_out(path: &PathBuf, content: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, content).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Performs the scan described by `opts`, writes the reports and prints
/// the human rendering; returns whether the tree is clean.
fn run_scan(opts: &Options) -> Result<bool, String> {
    let root = match &opts.root {
        Some(r) => r.clone(),
        None => find_root(&std::env::current_dir().map_err(|e| format!("cwd: {e}"))?)?,
    };
    let config_path = opts.config.clone().unwrap_or_else(|| root.join("analyze.toml"));
    let config = Config::load(&config_path, &rules::rule_ids())?;
    let report = analyze_workspace(&root, &config)?;
    let rules = all_rule_info();

    let report_path = opts
        .report_out
        .clone()
        .or_else(|| std::env::var_os("SDBP_ANALYZE_REPORT").map(PathBuf::from))
        .unwrap_or_else(|| root.join("target").join("analyze-report.json"));
    write_out(&report_path, &render_json(&report, &rules))?;
    if let Some(sarif_path) = &opts.sarif_out {
        write_out(sarif_path, &sarif::render_sarif(&report, &rules))?;
    }

    let human = render_human(&report, &rules);
    if opts.quiet {
        if let Some(summary) = human.lines().last() {
            println!("{summary}");
        }
    } else {
        print!("{human}");
    }
    Ok(report.findings.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn unknown_flags_and_missing_values_are_usage_errors() {
        assert_eq!(run_cli(&args(&["--frobnicate"])), 2);
        assert_eq!(run_cli(&args(&["--root"])), 2);
        assert_eq!(run_cli(&args(&["--jobs", "4"])), 2, "the scan has no fan-out option");
        assert!(parse_args(&args(&["--help"])).is_err());
    }

    #[test]
    fn list_rules_exits_clean() {
        assert_eq!(run_cli(&args(&["--list-rules"])), 0);
    }

    #[test]
    fn scan_of_clean_and_dirty_trees_yields_exit_codes() {
        let tmp = std::env::temp_dir().join(format!("sdbp-analyze-cli-{}", std::process::id()));
        let src_dir = tmp.join("crates/traceio/src");
        std::fs::create_dir_all(&src_dir).expect("mkdir");
        std::fs::write(tmp.join("Cargo.toml"), "[workspace]\n").expect("manifest");
        std::fs::write(src_dir.join("clean.rs"), "fn f() -> u32 { 0 }\n").expect("write");
        let root = tmp.to_string_lossy().into_owned();
        assert_eq!(run_cli(&args(&["--root", &root, "--quiet"])), 0);

        std::fs::write(src_dir.join("dirty.rs"), "fn f(seed: u64) -> u64 { seed + 1 }\n")
            .expect("write");
        assert_eq!(run_cli(&args(&["--root", &root, "--quiet"])), 1);
        let json = std::fs::read_to_string(tmp.join("target/analyze-report.json"))
            .expect("report written");
        assert!(json.contains("\"clean\":false"));
        std::fs::remove_dir_all(&tmp).expect("cleanup");
    }

    #[test]
    fn report_flag_overrides_default_path() {
        let tmp = std::env::temp_dir().join(format!("sdbp-analyze-rpt-{}", std::process::id()));
        let src_dir = tmp.join("crates/traceio/src");
        std::fs::create_dir_all(&src_dir).expect("mkdir");
        std::fs::write(tmp.join("Cargo.toml"), "[workspace]\n").expect("manifest");
        std::fs::write(src_dir.join("clean.rs"), "fn f() -> u32 { 0 }\n").expect("write");
        let root = tmp.to_string_lossy().into_owned();
        let custom = tmp.join("out/custom-report.json");
        let custom_arg = custom.to_string_lossy().into_owned();
        assert_eq!(
            run_cli(&args(&["--root", &root, "--quiet", "--report", &custom_arg])),
            0
        );
        assert!(custom.is_file(), "--report path honored");
        assert!(
            !tmp.join("target/analyze-report.json").exists(),
            "default path not written when --report is given"
        );
        std::fs::remove_dir_all(&tmp).expect("cleanup");
    }

    #[test]
    fn sarif_flag_writes_a_sarif_document() {
        let tmp = std::env::temp_dir().join(format!("sdbp-analyze-sarif-{}", std::process::id()));
        let src_dir = tmp.join("crates/traceio/src");
        std::fs::create_dir_all(&src_dir).expect("mkdir");
        std::fs::write(tmp.join("Cargo.toml"), "[workspace]\n").expect("manifest");
        std::fs::write(src_dir.join("dirty.rs"), "fn f(seed: u64) -> u64 { seed + 1 }\n")
            .expect("write");
        let root = tmp.to_string_lossy().into_owned();
        let sarif = tmp.join("out/findings.sarif");
        let sarif_arg = sarif.to_string_lossy().into_owned();
        assert_eq!(run_cli(&args(&["--root", &root, "--quiet", "--sarif", &sarif_arg])), 1);
        let doc = std::fs::read_to_string(&sarif).expect("sarif written");
        assert!(doc.contains("\"version\":\"2.1.0\""));
        assert!(doc.contains("seed-discipline"));
        std::fs::remove_dir_all(&tmp).expect("cleanup");
    }
}
