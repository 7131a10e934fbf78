//! End-to-end trace I/O integration: `trace record` → `trace replay`
//! must be byte-identical to a direct synthetic run — per-policy summary
//! lines and the underlying recordings alike — and `SDBP_TRACE_DIR` must
//! route `RecordStore` recording through an archive transparently.

use sdbp_cache::recorder::record_for_core;
use sdbp_harness::runner::{archived_trace_path, record_source_label, RecordStore};
use sdbp_harness::tracecmd::{default_policies, replay_table, workload_from_file};
use sdbp_cache::CacheConfig;
use sdbp_traceio::{TraceMeta, TraceWriter};
use sdbp_workloads::benchmark;
use std::path::{Path, PathBuf};

const INSTRUCTIONS: u64 = 60_000;

/// Three workload kernels of very different LLC behaviour: streaming-ish,
/// generational, and hot-set dominated.
const BENCHES: [&str; 3] = ["470.lbm", "456.hmmer", "416.gamess"];

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("sdbp-traceio-it-{}-{tag}", std::process::id()));
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
    writer.write_all(bench.trace_seeded(u64::from(core)).take(n as usize)).unwrap();
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

        let direct =
            record_for_core(bench.name, bench.trace_seeded(0), INSTRUCTIONS, 0);
        let replayed = workload_from_file(&path, 0).unwrap();

        // The recordings themselves are identical...
        assert_eq!(direct.records, replayed.records, "{name}: timing records differ");
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
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn record_store_replays_archives_when_trace_dir_is_set() {
    // One test owns the env var (env mutation is process-global; keeping
    // every SDBP_TRACE_DIR interaction here avoids cross-test races).
    let dir = scratch_dir("store");
    let name = "433.milc";
    let bench = benchmark(name).unwrap();
    record_archive(&dir, name, 0, INSTRUCTIONS);
    // A plain `{name}.sdbt` (no core suffix) must also resolve for core 0.
    let plain = "462.libquantum";
    let plain_bench = benchmark(plain).unwrap();
    {
        let src = scratch_dir("store").join(format!("{plain}.c0.sdbt"));
        record_archive(&dir, plain, 0, INSTRUCTIONS);
        std::fs::rename(src, dir.join(format!("{plain}.sdbt"))).unwrap();
    }

    std::env::set_var("SDBP_TRACE_DIR", &dir);
    std::env::set_var("SDBP_INSTRUCTIONS", INSTRUCTIONS.to_string());
    let outcome = std::panic::catch_unwind(|| {
        assert!(archived_trace_path(name, 0).is_some());
        assert!(archived_trace_path(plain, 0).is_some());
        assert!(archived_trace_path(name, 1).is_none(), "no core-1 archive exists");
        assert!(record_source_label(name, 0).starts_with("file:"));
        assert_eq!(record_source_label(name, 1), "synthetic");

        let store = RecordStore::new();
        for b in [&bench, &plain_bench] {
            let from_file = store.record(b, 0);
            let direct = record_for_core(b.name, b.trace_seeded(0), INSTRUCTIONS, 0);
            assert_eq!(from_file.llc, direct.llc, "{}: archive replay differs", b.name);
        }
    });
    std::env::remove_var("SDBP_TRACE_DIR");
    std::env::remove_var("SDBP_INSTRUCTIONS");
    std::fs::remove_dir_all(&dir).ok();
    if let Err(e) = outcome {
        std::panic::resume_unwind(e);
    }
}
