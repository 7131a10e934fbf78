//! End-to-end trace I/O integration: `trace record` → `trace replay`
//! must be byte-identical to a direct synthetic run — per-policy summary
//! lines and the underlying recordings alike — and a run configured with a
//! trace directory (`sdbp-repro --trace-dir`) must route `RecordStore`
//! recording through an archive transparently. A corrupt archive fails
//! naming its path, and one shorter than the run panics naming the
//! shortfall.

use sdbp_cache::recorder::record_for_core;
use sdbp_cache::CacheConfig;
use sdbp_harness::runner::{archived_trace_path, RecordStore, RunConfig};
use sdbp_harness::tracecmd::{default_policies, replay_table, workload_from_file};
use sdbp_traceio::{TraceMeta, TraceWriter};
use sdbp_workloads::benchmark;
use std::path::{Path, PathBuf};

const INSTRUCTIONS: u64 = 60_000;

/// Three workload kernels of very different LLC behaviour: streaming-ish,
/// generational, and hot-set dominated.
const BENCHES: [&str; 3] = ["470.lbm", "456.hmmer", "416.gamess"];

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdbp-traceio-it-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Archives `name`'s synthetic stream for `core` into `dir`, exactly as
/// `sdbp-repro trace record` does.
fn record_archive(dir: &Path, name: &str, core: u8, n: u64) -> PathBuf {
    let bench = benchmark(name).unwrap();
    let path = dir.join(format!("{name}.c{core}.sdbt"));
    let meta = TraceMeta::new(bench.name, bench.stream_seed(u64::from(core)));
    let mut writer = TraceWriter::create(&path, meta).unwrap();
    writer
        .write_all(bench.trace_seeded(u64::from(core)).take(n as usize))
        .unwrap();
    writer.finish().unwrap();
    path
}

#[test]
fn replay_is_byte_identical_to_direct_run_for_three_kernels() {
    let dir = scratch_dir("replay");
    let llc = CacheConfig::llc_2mb();
    for name in BENCHES {
        let bench = benchmark(name).unwrap();
        let path = record_archive(&dir, name, 0, INSTRUCTIONS);

        let direct = record_for_core(bench.name, bench.trace_seeded(0), INSTRUCTIONS, 0);
        let replayed = workload_from_file(&path, 0).unwrap();

        // The recordings themselves are identical...
        assert_eq!(
            direct.records, replayed.records,
            "{name}: timing records differ"
        );
        assert_eq!(direct.llc, replayed.llc, "{name}: LLC streams differ");

        // ...and so is every printed summary byte, across both policies —
        // including when the archived replay runs set-sharded.
        let summary = |w, shards| {
            replay_table(w, llc, &default_policies(), None, shards).expect("default policies")
        };
        let a = summary(&direct, 1);
        let b = summary(&replayed, 1);
        assert_eq!(a, b, "{name}: replay output is not byte-identical");
        assert!(a.contains("LRU") && a.contains("Sampler"), "{name}: {a}");
        let sharded = summary(&replayed, 4);
        assert_eq!(a, sharded, "{name}: sharded replay output differs");
    }
    #[expect(
        clippy::unused_result_ok,
        reason = "best-effort temp cleanup; a leftover file is harmless"
    )]
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn record_store_replays_archives_when_trace_dir_is_set() {
    let dir = scratch_dir("store");
    let name = "433.milc";
    let bench = benchmark(name).unwrap();
    record_archive(&dir, name, 0, INSTRUCTIONS);
    // A plain `{name}.sdbt` (no core suffix) must also resolve for core 0.
    let plain = "462.libquantum";
    let plain_bench = benchmark(plain).unwrap();
    let src = record_archive(&dir, plain, 0, INSTRUCTIONS);
    std::fs::rename(src, dir.join(format!("{plain}.sdbt"))).unwrap();

    assert!(archived_trace_path(&dir, name, 0).is_some());
    assert!(archived_trace_path(&dir, plain, 0).is_some());
    assert!(
        archived_trace_path(&dir, name, 1).is_none(),
        "no core-1 archive exists"
    );

    let config = RunConfig {
        instructions: INSTRUCTIONS,
        trace_dir: Some(dir.clone()),
        ..RunConfig::default()
    };
    let store = RecordStore::new(config);
    assert!(store.source_label(name, 0).starts_with("file:"));
    assert_eq!(store.source_label(name, 1), "synthetic");
    assert_eq!(RecordStore::default().source_label(name, 0), "synthetic");
    for b in [&bench, &plain_bench] {
        let from_file = store.record(b, 0);
        let direct = record_for_core(b.name, b.trace_seeded(0), INSTRUCTIONS, 0);
        assert_eq!(
            from_file.llc, direct.llc,
            "{}: archive replay differs",
            b.name
        );
    }
    #[expect(
        clippy::unused_result_ok,
        reason = "best-effort temp cleanup; a leftover file is harmless"
    )]
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_archives_fail_with_their_path() {
    let dir = scratch_dir("corrupt");
    let bytes = std::fs::read(record_archive(&dir, "456.hmmer", 0, 20_000)).unwrap();
    let truncated = dir.join("truncated.sdbt");
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
    let mut flipped_bytes = bytes.clone();
    let mid = flipped_bytes.len() / 2;
    flipped_bytes[mid] ^= 0x10;
    let flipped = dir.join("flipped.sdbt");
    std::fs::write(&flipped, &flipped_bytes).unwrap();
    for path in [truncated, flipped] {
        let err = workload_from_file(&path, 0).unwrap_err();
        let named = format!("{}: ", path.display());
        assert!(err.starts_with(&named) && err.len() > named.len(), "{err}");
    }
    #[expect(
        clippy::unused_result_ok,
        reason = "best-effort temp cleanup; a leftover file is harmless"
    )]
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn record_store_panics_on_an_archive_shorter_than_the_run() {
    let dir = scratch_dir("short");
    let bench = benchmark("429.mcf").unwrap();
    record_archive(&dir, bench.name, 0, 5_000);
    let store = RecordStore::new(RunConfig {
        instructions: 10_000,
        trace_dir: Some(dir.clone()),
        ..RunConfig::default()
    });
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.record(&bench, 0)))
        .expect_err("a short archive must not record");
    let msg = panic.downcast_ref::<String>().expect("formatted panic");
    assert_eq!(
        msg,
        "replaying archived trace: instruction stream ended at 5000 of 10000"
    );
    #[expect(
        clippy::unused_result_ok,
        reason = "best-effort temp cleanup; a leftover file is harmless"
    )]
    std::fs::remove_dir_all(&dir).ok();
}
