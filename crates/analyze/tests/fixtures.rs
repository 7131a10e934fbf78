//! Fixture corpus tests: every `bad/` snippet produces the expected
//! findings for its rule and every `good/` snippet comes back clean,
//! with each fixture routed through the full pipeline (walk → lex →
//! rules → exempt/escape filtering) in a synthetic workspace.

use sdbp_analyze::config::Config;
use sdbp_analyze::workspace::analyze_workspace;
use std::path::{Path, PathBuf};

/// Builds a synthetic workspace under the test-scoped tmpdir: each
/// `(fixture, scan_path)` pair is copied in, and `golden_specs` (when
/// given) becomes a `tests/golden/replay_miss_counts.tsv` with one row
/// per spec — the shape the registry-coverage rule reads.
fn scan_fixture_set(
    case: &str,
    files: &[(&str, &str)],
    golden_specs: Option<&[&str]>,
) -> sdbp_analyze::report::Report {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("fixture-{case}"));
    if root.exists() {
        std::fs::remove_dir_all(&root).expect("clean slate");
    }
    std::fs::create_dir_all(&root).expect("mkdir root");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("manifest");
    for (fixture, scan_path) in files {
        let dest = root.join(scan_path);
        std::fs::create_dir_all(dest.parent().expect("scan path has a parent")).expect("mkdir");
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(fixture);
        std::fs::copy(&src, &dest).expect("fixture copied");
    }
    if let Some(specs) = golden_specs {
        std::fs::create_dir_all(root.join("tests/golden")).expect("mkdir golden");
        let mut tsv = String::from("# workload\taccesses\tsets\tways\tspec\tmisses\n");
        for s in specs {
            tsv.push_str(&format!("wl\t1000\t256\t16\t{s}\t42\n"));
        }
        std::fs::write(root.join("tests/golden/replay_miss_counts.tsv"), tsv).expect("tsv");
    }
    analyze_workspace(&root, &Config::default()).expect("scan succeeds")
}

/// One-file convenience wrapper over [`scan_fixture_set`].
fn scan_fixture(case: &str, fixture: &str, scan_path: &str) -> sdbp_analyze::report::Report {
    scan_fixture_set(case, &[(fixture, scan_path)], None)
}

fn count(report: &sdbp_analyze::report::Report, rule: &str) -> usize {
    report.findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn bad_seed_fixture_flags_each_derivation() {
    let r = scan_fixture("bad-seed", "bad/seed.rs", "crates/workloads/src/fixture.rs");
    assert_eq!(count(&r, "seed-discipline"), 3, "{:#?}", r.findings);
}

#[test]
fn good_seed_fixture_is_clean() {
    let r = scan_fixture("good-seed", "good/seed.rs", "crates/workloads/src/fixture.rs");
    assert!(r.findings.is_empty(), "{:#?}", r.findings);
}

#[test]
fn bad_flat_metadata_fixture_flags_each_nested_vec() {
    let r = scan_fixture(
        "bad-flat",
        "bad/flat_metadata.rs",
        "crates/replacement/src/fixture.rs",
    );
    assert_eq!(count(&r, "flat-metadata"), 3, "{:#?}", r.findings);
}

#[test]
fn good_flat_metadata_fixture_is_clean() {
    let r = scan_fixture(
        "good-flat",
        "good/flat_metadata.rs",
        "crates/replacement/src/fixture.rs",
    );
    assert_eq!(count(&r, "flat-metadata"), 0, "{:#?}", r.findings);
}

#[test]
fn bad_wire_protocol_fixture_is_one_finding_at_the_variant() {
    let r = scan_fixture_set(
        "bad-wire",
        &[
            ("bad/wire_protocol.rs", "crates/serve/src/protocol.rs"),
            ("good/wire_handler.rs", "crates/serve/src/session.rs"),
        ],
        None,
    );
    assert_eq!(count(&r, "wire-exhaustive"), 1, "{:#?}", r.findings);
    let f = r.findings.iter().find(|f| f.rule == "wire-exhaustive").expect("finding");
    assert!(f.message.contains("`Frame::Pong` has no decode arm"), "{}", f.message);
    assert_eq!(f.path, "crates/serve/src/protocol.rs");
    assert_eq!(f.line, 9, "anchored at the variant declaration");
    assert!(f.snippet.contains("Pong"), "{}", f.snippet);
}

#[test]
fn good_wire_protocol_fixture_is_clean() {
    let r = scan_fixture_set(
        "good-wire",
        &[
            ("good/wire_protocol.rs", "crates/serve/src/protocol.rs"),
            ("good/wire_handler.rs", "crates/serve/src/session.rs"),
        ],
        None,
    );
    assert!(r.findings.is_empty(), "{:#?}", r.findings);
}

#[test]
fn bad_registry_fixture_flags_the_uncovered_policy_at_its_registration() {
    let r = scan_fixture_set(
        "bad-registry",
        &[
            ("bad/registry.rs", "crates/core/src/registry.rs"),
            ("good/sample_smoke.rs", "crates/harness/src/bin/sample_smoke.rs"),
        ],
        Some(&["lru", "sampler:32"]),
    );
    assert_eq!(count(&r, "registry-coverage"), 1, "{:#?}", r.findings);
    let f = r.findings.iter().find(|f| f.rule == "registry-coverage").expect("finding");
    assert!(f.message.contains("`tdbp`"), "{}", f.message);
    assert!(f.message.contains("no row in"), "{}", f.message);
    assert_eq!(f.line, 8, "anchored at the `name:` literal");
}

#[test]
fn good_registry_fixture_is_clean_when_the_golden_tsv_covers_it() {
    let r = scan_fixture_set(
        "good-registry",
        &[
            ("bad/registry.rs", "crates/core/src/registry.rs"),
            ("good/sample_smoke.rs", "crates/harness/src/bin/sample_smoke.rs"),
        ],
        Some(&["lru", "tdbp:tables=2"]),
    );
    assert!(r.findings.is_empty(), "{:#?}", r.findings);
}

#[test]
fn bad_mutex_discipline_fixture_flags_both_blocking_calls() {
    let r = scan_fixture(
        "bad-mutex",
        "bad/mutex_discipline.rs",
        "crates/serve/src/fixture.rs",
    );
    assert_eq!(count(&r, "mutex-discipline"), 2, "{:#?}", r.findings);
    let lines: Vec<u32> =
        r.findings.iter().filter(|f| f.rule == "mutex-discipline").map(|f| f.line).collect();
    assert_eq!(lines, vec![10, 20], "spans of the recv and write_all calls");
}

#[test]
fn good_mutex_discipline_fixture_is_clean() {
    let r = scan_fixture(
        "good-mutex",
        "good/mutex_discipline.rs",
        "crates/serve/src/fixture.rs",
    );
    assert!(r.findings.is_empty(), "{:#?}", r.findings);
}

#[test]
fn bad_shard_determinism_fixture_flags_every_arrival_order_merge() {
    let r = scan_fixture(
        "bad-shard",
        "bad/shard_determinism.rs",
        "crates/cache/src/kernel.rs",
    );
    assert_eq!(count(&r, "shard-determinism"), 3, "{:#?}", r.findings);
}

#[test]
fn good_shard_determinism_fixture_is_clean() {
    let r = scan_fixture(
        "good-shard",
        "good/shard_determinism.rs",
        "crates/engine/src/pool.rs",
    );
    assert_eq!(count(&r, "shard-determinism"), 0, "{:#?}", r.findings);
}

#[test]
fn shard_determinism_is_scoped_to_the_kernel_and_fanout_modules() {
    // The same arrival-order merge outside the kernel/pool modules is
    // out of scope — the rule must not leak into e.g. the harness.
    let r = scan_fixture(
        "scoped-shard",
        "bad/shard_determinism.rs",
        "crates/harness/src/runner.rs",
    );
    assert_eq!(count(&r, "shard-determinism"), 0, "{:#?}", r.findings);
}

#[test]
fn injected_violation_fails_the_cli_and_writes_the_report() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fixture-cli-inject");
    if root.exists() {
        std::fs::remove_dir_all(&root).expect("clean slate");
    }
    let dir = root.join("crates/traceio/src");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("manifest");
    std::fs::write(dir.join("lib.rs"), "/// Fine.\npub fn ok() {}\n").expect("clean file");
    let root_arg = root.to_string_lossy().into_owned();
    let args = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
    assert_eq!(sdbp_analyze::run_cli(&args(&["--root", &root_arg, "--quiet"])), 0);

    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bad/seed.rs");
    std::fs::copy(&fixture, dir.join("injected.rs")).expect("inject violation");
    assert_eq!(sdbp_analyze::run_cli(&args(&["--root", &root_arg, "--quiet"])), 1);
    let json =
        std::fs::read_to_string(root.join("target/analyze-report.json")).expect("report exists");
    assert!(json.contains("\"clean\":false"));
    assert!(json.contains("seed-discipline"));
}
