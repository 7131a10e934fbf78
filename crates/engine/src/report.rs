//! Exports the engine's accumulated telemetry as a machine-readable JSON
//! report (`target/engine-report.json` by convention): per-job and
//! per-batch timings of one engine run.

use crate::json::JsonWriter;
use crate::telemetry::EngineTelemetry;
use std::io;
use std::path::Path;

/// Default report location, relative to the workspace root. Concurrent
/// consumers — a serve daemon and a CI sweep, or two CI jobs sharing a
/// workspace — pass `--engine-report FILE` with distinct files so reports
/// never clobber each other.
pub const DEFAULT_REPORT_PATH: &str = "target/engine-report.json";

/// Renders `telemetry` (for an engine with `workers` threads) as a JSON
/// document.
#[must_use]
pub fn render_json(workers: usize, telemetry: &EngineTelemetry) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema").string("sdbp-engine-report/v1");
    w.key("workers").uint(workers as u64);
    w.key("serial").boolean(workers <= 1);
    w.key("jobs").uint(telemetry.jobs() as u64);
    w.key("jobs_failed").uint(telemetry.failed() as u64);
    w.key("elapsed_seconds")
        .float(telemetry.elapsed().as_secs_f64());
    w.key("busy_seconds").float(telemetry.busy().as_secs_f64());
    w.key("speedup").float(telemetry.speedup());
    w.key("accesses").uint(telemetry.accesses());
    let elapsed = telemetry.elapsed().as_secs_f64();
    w.key("accesses_per_second").float(if elapsed > 0.0 {
        telemetry.accesses() as f64 / elapsed
    } else {
        0.0
    });
    w.key("batches").begin_array();
    for b in &telemetry.batches {
        w.begin_object();
        w.key("label").string(&b.label);
        w.key("workers").uint(b.workers as u64);
        w.key("jobs").uint(b.jobs as u64);
        w.key("failed").uint(b.failed as u64);
        w.key("elapsed_seconds").float(b.elapsed.as_secs_f64());
        w.key("busy_seconds").float(b.busy.as_secs_f64());
        w.key("speedup").float(b.speedup());
        w.key("accesses").uint(b.accesses);
        w.key("accesses_per_second").float(b.throughput());
        w.key("mean_queue_wait_seconds")
            .float(b.mean_queue_wait().as_secs_f64());
        w.key("per_job").begin_array();
        for j in &b.per_job {
            w.begin_object();
            w.key("name").string(&j.name);
            if let Some(source) = &j.source {
                w.key("source").string(source);
            }
            w.key("seconds").float(j.ran_for.as_secs_f64());
            w.key("queue_wait_seconds")
                .float(j.queued_for.as_secs_f64());
            w.key("accesses").uint(j.accesses);
            w.key("accesses_per_second").float(j.throughput());
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Writes the report to `path`, creating parent directories as needed.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_json(path: &Path, workers: usize, telemetry: &EngineTelemetry) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, render_json(workers, telemetry))
}
