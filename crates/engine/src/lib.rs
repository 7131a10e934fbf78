//! `sdbp-engine` — the parallel experiment execution engine.
//!
//! The paper's evaluation methodology — sweeping many independent
//! `(workload, cache config, policy)` simulations — is embarrassingly
//! parallel. This crate turns that observation into infrastructure: a
//! [`Job`] wraps one simulation as an owned closure, an [`Engine`] runs a
//! batch of jobs over a `std`-only worker pool, and the results come back
//! **in submission order, regardless of completion order**, so a parallel
//! run's aggregated output is byte-identical to the serial reference run.
//!
//! Three properties the harness relies on:
//!
//! * **Deterministic aggregation** — `run_batch` returns `Vec` slots
//!   indexed by submission order; thread scheduling can never reorder
//!   result tables.
//! * **Panic isolation** — a panicking simulation is reported as a failed
//!   job ([`JobFailure`]) while its siblings complete; one poisoned
//!   configuration does not sink a whole sweep.
//! * **Built-in telemetry** — per-job wall clock, queue wait and
//!   accesses/second, per-batch realized speedup, and engine-wide
//!   counters, exportable as hand-rolled JSON
//!   ([`report::write_json`], by convention `target/engine-report.json`).
//!
//! # Example
//!
//! ```
//! use sdbp_engine::{Engine, Job};
//! let engine = Engine::with_workers(4);
//! let batch = engine.run_batch(
//!     "squares",
//!     (0u64..8).map(|i| Job::new(format!("sq{i}"), move || i * i)).collect(),
//! );
//! let squares: Vec<u64> = batch.expect_all();
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
)]
#![warn(missing_debug_implementations)]

pub mod job;
pub mod json;
mod pool;
pub mod report;
pub mod telemetry;

pub use job::{Job, JobFailure, JobStats};
pub use telemetry::{BatchStats, EngineTelemetry};

use std::sync::Mutex;
use std::time::Instant;

/// How many workers an [`Engine`] should use.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Parallelism {
    /// One job at a time on the calling thread (the reference path).
    Serial,
    /// Exactly this many worker threads.
    Workers(usize),
    /// One worker per available hardware thread.
    #[default]
    Auto,
}

impl Parallelism {
    /// Resolves to a concrete worker count.
    #[must_use]
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Workers(n) => n.max(1),
            Parallelism::Auto => {
                std::thread::available_parallelism().map(usize::from).unwrap_or(1)
            }
        }
    }
}

/// The execution engine: a worker count plus accumulated telemetry.
///
/// Engines are cheap; the harness keeps one per invocation so every
/// experiment's batches land in a single report.
#[derive(Debug)]
pub struct Engine {
    workers: usize,
    telemetry: Mutex<EngineTelemetry>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(Parallelism::Auto)
    }
}

impl Engine {
    /// Creates an engine with the given parallelism.
    #[must_use]
    pub fn new(parallelism: Parallelism) -> Self {
        Engine { workers: parallelism.workers(), telemetry: Mutex::new(EngineTelemetry::default()) }
    }

    /// A single-threaded engine (the serial reference path).
    #[must_use]
    pub fn serial() -> Self {
        Engine::new(Parallelism::Serial)
    }

    /// An engine with exactly `n` workers.
    #[must_use]
    pub fn with_workers(n: usize) -> Self {
        Engine::new(Parallelism::Workers(n))
    }

    /// The concrete worker count this engine schedules onto.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// True when the engine runs jobs inline on the calling thread.
    #[must_use]
    pub fn is_serial(&self) -> bool {
        self.workers == 1
    }

    /// Runs `jobs` and returns their results in submission order.
    ///
    /// Panicking jobs become `Err(JobFailure)` entries; all other jobs
    /// still run. Batch timing is recorded in the engine's telemetry
    /// under `label`.
    pub fn run_batch<T: Send>(&self, label: &str, jobs: Vec<Job<'_, T>>) -> Batch<T> {
        #[expect(
            clippy::disallowed_methods,
            reason = "batch telemetry: wall-clock elapsed time is the engine's own reporting output, not simulation state"
        )]
        let started = Instant::now();
        let outcomes = pool::execute(self.workers, jobs);
        let elapsed = started.elapsed();

        let mut results = Vec::with_capacity(outcomes.len());
        let mut per_job = Vec::with_capacity(outcomes.len());
        let mut failed = 0usize;
        for outcome in outcomes {
            if outcome.result.is_err() {
                failed += 1;
            }
            per_job.push(outcome.stats);
            results.push(outcome.result);
        }
        let stats = BatchStats {
            label: label.to_owned(),
            workers: self.workers,
            jobs: results.len(),
            failed,
            elapsed,
            busy: per_job.iter().map(|j| j.ran_for).sum(),
            accesses: per_job.iter().map(|j| j.accesses).sum(),
            per_job,
        };
        #[expect(
            clippy::expect_used,
            reason = "telemetry mutex poisons only if a prior batch panicked mid-push"
        )]
        self.telemetry.lock().expect("telemetry poisoned").batches.push(stats.clone());
        Batch { results, stats }
    }

    /// Runs a single job with the same panic isolation and telemetry as
    /// a batch (a one-job batch executes inline on the calling thread).
    ///
    /// This is the entry point for callers that multiplex independent
    /// jobs themselves — e.g. a server executing one queued request per
    /// executor thread — but still want every run timed, counted, and
    /// panic-contained in the engine report.
    ///
    /// # Errors
    ///
    /// Returns the [`JobFailure`] if the job panicked.
    pub fn run_one<T: Send>(&self, label: &str, job: Job<'_, T>) -> Result<T, JobFailure> {
        let mut batch = self.run_batch(label, vec![job]);
        match batch.results.pop() {
            Some(result) => result,
            None => Err(JobFailure {
                job: label.to_owned(),
                message: "engine returned no result for a one-job batch".to_owned(),
            }),
        }
    }

    /// Convenience wrapper: runs plain closures (no names, no access
    /// counts) and unwraps the results, panicking if any job panicked.
    pub fn run_all<T: Send>(
        &self,
        label: &str,
        work: Vec<Box<dyn FnOnce() -> T + Send + '_>>,
    ) -> Vec<T> {
        let jobs = work
            .into_iter()
            .enumerate()
            .map(|(i, w)| Job::new(format!("{label}#{i}"), w))
            .collect();
        self.run_batch(label, jobs).expect_all()
    }

    /// Snapshot of everything this engine has run.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "telemetry mutex poisons only if a prior batch panicked mid-push"
    )]
    pub fn telemetry(&self) -> EngineTelemetry {
        self.telemetry.lock().expect("telemetry poisoned").clone()
    }

    /// Writes the accumulated telemetry as JSON to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_report(&self, path: &std::path::Path) -> std::io::Result<()> {
        report::write_json(path, self.workers, &self.telemetry())
    }
}

#[cfg(test)]
mod run_one_tests {
    use super::*;

    #[test]
    fn run_one_returns_the_value_and_records_telemetry() {
        let engine = Engine::serial();
        let v = engine.run_one("one", Job::new("answer", || 42u64).accesses(7));
        assert_eq!(v, Ok(42));
        let t = engine.telemetry();
        assert_eq!(t.jobs(), 1);
        assert_eq!(t.accesses(), 7);
        assert_eq!(t.batches.len(), 1);
        assert_eq!(t.batches[0].label, "one");
    }

    #[test]
    fn run_one_isolates_a_panicking_job() {
        let engine = Engine::serial();
        let r: Result<(), JobFailure> =
            engine.run_one("boom", Job::new("boom", || panic!("sank")));
        let failure = r.expect_err("panic must surface as a JobFailure");
        assert_eq!(failure.job, "boom");
        assert!(failure.message.contains("sank"));
        // The engine stays usable after an isolated panic.
        assert_eq!(engine.run_one("after", Job::new("after", || 1u8)), Ok(1));
        assert_eq!(engine.telemetry().failed(), 1);
    }
}

/// Results of one batch, in submission order, plus its timing.
#[derive(Debug)]
pub struct Batch<T> {
    /// Per-job results (submission order); panicked jobs are `Err`.
    pub results: Vec<Result<T, JobFailure>>,
    /// Batch timing summary (also retained in the engine telemetry).
    pub stats: BatchStats,
}

impl<T> Batch<T> {
    /// Unwraps every result, panicking with the first failure.
    ///
    /// # Panics
    ///
    /// Panics if any job panicked.
    #[must_use]
    pub fn expect_all(self) -> Vec<T> {
        self.results
            .into_iter()
            .map(|r| match r {
                Ok(v) => v,
                #[expect(
                    clippy::panic,
                    reason = "documented panicking accessor; fallible callers use successes()"
                )]
                Err(e) => panic!("{e}"),
            })
            .collect()
    }

    /// The successful results, dropping failed jobs (submission order
    /// preserved among survivors).
    #[must_use]
    pub fn successes(self) -> Vec<T> {
        self.results.into_iter().filter_map(Result::ok).collect()
    }
}
