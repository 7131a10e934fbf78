//! Engine/harness integration: the experiment matrix must be identical —
//! cell for cell — whether it runs serially or through a parallel worker
//! pool, and an experiment rendered through either engine must be
//! byte-identical. This is the determinism contract `sdbp-repro --jobs N`
//! relies on.

use sdbp_engine::Engine;
use sdbp_harness::experiments::Context;
use sdbp_harness::runner::{cells, run_matrix, RecordStore, RunConfig, SingleResult};
use sdbp_workloads::subset;

/// Keep the recorded traces tiny: the test compares outputs, the workload
/// size is irrelevant.
fn small_traces() -> RunConfig {
    RunConfig {
        instructions: 120_000,
        ..RunConfig::default()
    }
}

fn matrix_with(engine: &Engine) -> Vec<Vec<SingleResult>> {
    let store = RecordStore::new(small_traces());
    let benchmarks: Vec<_> = subset().into_iter().take(4).collect();
    let llc = sdbp_cache::CacheConfig::llc_2mb();
    run_matrix(
        engine,
        &store,
        &benchmarks,
        &cells(&["lru", "sampler"]),
        llc,
    )
}

fn canonical(matrix: &[Vec<SingleResult>]) -> String {
    matrix
        .iter()
        .flatten()
        .map(|r| {
            format!(
                "{} {} misses={} mpki={:.9} ipc={:.9}",
                r.benchmark, r.policy, r.misses, r.mpki, r.ipc
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn parallel_matrix_is_byte_identical_to_serial() {
    let serial = canonical(&matrix_with(&Engine::serial()));
    let jobs4 = canonical(&matrix_with(&Engine::with_workers(4)));
    assert_eq!(serial, jobs4, "4-worker matrix differs from serial matrix");
}

#[test]
fn rendered_experiment_is_identical_across_worker_counts() {
    let render = |engine: Engine| {
        let ctx = Context::new(engine, small_traces());
        sdbp_harness::experiments::run(&ctx, "fig4").expect("fig4 runs")
    };
    let serial = render(Engine::serial());
    let jobs2 = render(Engine::with_workers(2));
    assert_eq!(serial, jobs2, "fig4 rendered differently under 2 workers");
    assert!(
        serial.contains("amean"),
        "fig4 report should include the mean row"
    );
}

#[test]
fn engine_telemetry_covers_every_matrix_job() {
    let engine = Engine::with_workers(2);
    let matrix = matrix_with(&engine);
    let telemetry = engine.telemetry();
    // One record batch (4 jobs) + one matrix batch (4 benchmarks x 2
    // policies), all succeeding.
    assert_eq!(matrix.len(), 4);
    assert_eq!(telemetry.jobs(), 4 + 8);
    assert_eq!(telemetry.failed(), 0);
    assert!(
        telemetry.accesses() > 0,
        "jobs should declare access counts"
    );
    let labels: Vec<&str> = telemetry.batches.iter().map(|b| b.label.as_str()).collect();
    assert_eq!(labels, ["record", "matrix"]);
}
