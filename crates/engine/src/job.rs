//! The unit of work the engine schedules: one named, self-contained
//! simulation closure plus everything the telemetry layer wants to know
//! about how it ran.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// One schedulable simulation: a name for telemetry, an access count for
/// throughput accounting, and the work itself.
///
/// The closure owns its inputs (cheap `Arc` clones of recorded workloads,
/// `Copy` configs) and returns an owned result, so a job can run on any
/// worker thread without sharing mutable state with its siblings.
pub struct Job<'env, T> {
    /// Telemetry label, e.g. `"456.hmmer/Sampler"`.
    pub name: String,
    /// Number of simulated LLC accesses (or another work unit) the job
    /// processes; feeds the accesses/second throughput counters. Zero is
    /// fine for jobs where no such count applies.
    pub accesses: u64,
    /// Where the job's input comes from (e.g. `"synthetic"` or
    /// `"file:traces/hmmer.sdbt"`), surfaced in telemetry so a report
    /// records whether a run was generated or replayed from an archive.
    pub source: Option<String>,
    work: Box<dyn FnOnce() -> T + Send + 'env>,
}

impl<T> std::fmt::Debug for Job<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("name", &self.name)
            .field("accesses", &self.accesses)
            .finish_non_exhaustive()
    }
}

impl<'env, T> Job<'env, T> {
    /// Wraps `work` as a job named `name`.
    pub fn new(name: impl Into<String>, work: impl FnOnce() -> T + Send + 'env) -> Self {
        Job {
            name: name.into(),
            accesses: 0,
            source: None,
            work: Box::new(work),
        }
    }

    /// Sets the access count used for throughput telemetry.
    #[must_use]
    pub fn accesses(mut self, accesses: u64) -> Self {
        self.accesses = accesses;
        self
    }

    /// Sets the input-source label surfaced in telemetry.
    #[must_use]
    pub fn source(mut self, source: impl Into<String>) -> Self {
        self.source = Some(source.into());
        self
    }

    /// Runs the job with panic isolation, timing it relative to
    /// `submitted` (the batch submission instant, for queue-wait time).
    pub(crate) fn run(self, submitted: Instant) -> JobOutcome<T> {
        #[expect(
            clippy::disallowed_methods,
            reason = "job telemetry: timestamps wall-clock queue/run durations around the job closure; results never depend on them"
        )]
        let started = Instant::now();
        let queued_for = started.duration_since(submitted);
        let name = self.name;
        let work = self.work;
        // `&*payload`, not `&payload`: a `&Box<dyn Any>` would unsize to a
        // `&dyn Any` whose concrete type is the Box, defeating the downcast.
        let result = catch_unwind(AssertUnwindSafe(work)).map_err(|payload| JobFailure {
            job: name.clone(),
            message: panic_message(&*payload),
        });
        JobOutcome {
            result,
            stats: JobStats {
                name,
                accesses: self.accesses,
                source: self.source,
                queued_for,
                ran_for: started.elapsed(),
            },
        }
    }
}

/// Extracts the human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// A job that panicked: the batch keeps going, this records which job
/// sank and why.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JobFailure {
    /// Name of the panicking job.
    pub job: String,
    /// The panic message.
    pub message: String,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job '{}' panicked: {}", self.job, self.message)
    }
}

impl std::error::Error for JobFailure {}

/// Timing record of one executed job.
#[derive(Clone, Debug)]
pub struct JobStats {
    /// The job's telemetry label.
    pub name: String,
    /// Work units processed (for accesses/second).
    pub accesses: u64,
    /// Input-source label, when the job declared one.
    pub source: Option<String>,
    /// Time between batch submission and this job starting on a worker.
    pub queued_for: Duration,
    /// Wall-clock execution time of the closure itself.
    pub ran_for: Duration,
}

impl JobStats {
    /// Accesses per second of simulation, if the job declared a count.
    pub fn throughput(&self) -> f64 {
        let secs = self.ran_for.as_secs_f64();
        if secs > 0.0 {
            self.accesses as f64 / secs
        } else {
            0.0
        }
    }
}

/// What one job produced: its result (or isolated panic) plus timing.
#[derive(Debug)]
pub struct JobOutcome<T> {
    /// The job's return value, or the captured panic.
    pub result: Result<T, JobFailure>,
    /// Timing record.
    pub stats: JobStats,
}
