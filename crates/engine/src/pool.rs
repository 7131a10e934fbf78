//! The worker pool: a chunk-free, self-balancing scheduler over
//! `std::thread::scope` and an `mpsc` results channel.
//!
//! Workers pull `(submission index, job)` pairs off a shared queue, so a
//! long job never blocks the others (work stealing degenerates to a
//! single shared deque, which is ideal for coarse simulation jobs: each
//! job runs for milliseconds to seconds, so queue contention is noise).
//! Results flow back tagged with their submission index and are written
//! into a slot table — **aggregation order is submission order**, no
//! matter which worker finishes first, which is what makes parallel runs
//! byte-identical to serial ones.

use crate::job::{Job, JobOutcome};
use std::collections::VecDeque;
use std::sync::{mpsc, Mutex};
use std::time::Instant;

/// Runs `jobs` on `workers` threads (1 = inline serial execution) and
/// returns their outcomes in submission order.
#[expect(
    clippy::expect_used,
    reason = "a lost result is an engine bug, not a recoverable state"
)]
pub(crate) fn execute<T: Send>(workers: usize, jobs: Vec<Job<'_, T>>) -> Vec<JobOutcome<T>> {
    #[expect(
        clippy::disallowed_methods,
        reason = "batch telemetry: records submission time so per-job queueing delay can be reported"
    )]
    let submitted = Instant::now();
    let n = jobs.len();
    if workers <= 1 || n <= 1 {
        // Serial reference path: same code path the deterministic-
        // aggregation tests compare against, no threads involved.
        return jobs.into_iter().map(|j| j.run(submitted)).collect();
    }

    let queue: Mutex<VecDeque<(usize, Job<'_, T>)>> =
        Mutex::new(jobs.into_iter().enumerate().collect());
    let mut slots: Vec<Option<JobOutcome<T>>> = (0..n).map(|_| None).collect();
    let (tx, rx) = mpsc::channel::<(usize, JobOutcome<T>)>();

    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            let tx = tx.clone();
            let queue = &queue;
            scope.spawn(move || {
                loop {
                    // The lock only wraps `pop_front`, so poisoning means
                    // another worker panicked outside a job — already fatal.
                    #[expect(
                        clippy::expect_used,
                        reason = "propagating mutex poisoning after a worker panic is deliberate"
                    )]
                    let next = queue.lock().expect("job queue poisoned").pop_front();
                    let Some((index, job)) = next else { break };
                    // Job panics are caught inside `run`; a send failure
                    // means the receiver is gone, which cannot happen
                    // while this scope is alive.
                    let outcome = job.run(submitted);
                    if tx.send((index, outcome)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        for (index, outcome) in rx {
            // Indices come from `enumerate` over the `n` submitted jobs
            // and `slots` has length `n`; a miss here would surface as a
            // lost result in the collect below.
            if let Some(slot) = slots.get_mut(index) {
                debug_assert!(slot.is_none(), "job {index} completed twice");
                *slot = Some(outcome);
            }
        }
    });

    slots
        .into_iter()
        // Every queued job sends exactly one tagged result before the
        // scope joins, so each slot is filled.
        .map(|s| s.expect("worker pool lost a job result"))
        .collect()
}
