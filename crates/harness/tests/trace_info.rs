//! `sdbp-repro trace info` output is pinned byte for byte: a 150 000
//! instruction `456.hmmer` recording (three chunks at the default chunk
//! size) and its v2 conversion, each with and without
//! `--set-histogram 64`, must print exactly `golden/trace_info.txt`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdbp-trace-info-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `sdbp-repro trace <args>` in `dir`, returning stdout; any
/// failure or non-zero exit fails the test with the command's stderr.
fn trace(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_sdbp-repro"))
        .arg("trace")
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "trace {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn trace_info_output_matches_the_golden_text_for_v1_and_v2() {
    let dir = scratch_dir();
    trace(
        &dir,
        &[
            "record",
            "--workload",
            "456.hmmer",
            "--instructions",
            "150000",
            "--out",
            "h.sdbt",
        ],
    );
    trace(
        &dir,
        &["convert", "h.sdbt", "--out", "h.v2.sdbt", "--to", "2"],
    );
    let mut got = String::new();
    for file in ["h.sdbt", "h.v2.sdbt"] {
        for extra in [&[][..], &["--set-histogram", "64"][..]] {
            let args: Vec<&str> = ["info", file].iter().chain(extra).copied().collect();
            got.push_str(&format!("$ sdbp-repro trace {}\n", args.join(" ")));
            got.push_str(&trace(&dir, &args));
        }
    }
    let want = include_str!("golden/trace_info.txt");
    assert_eq!(
        got, want,
        "trace info output drifted from golden/trace_info.txt"
    );
    #[expect(
        clippy::unused_result_ok,
        reason = "best-effort temp cleanup; a leftover file is harmless"
    )]
    std::fs::remove_dir_all(&dir).ok();
}
