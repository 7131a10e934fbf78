//! Engine contract tests: deterministic aggregation, panic isolation,
//! telemetry accounting.

use sdbp_engine::{Engine, Job, Parallelism};
use sdbp_trace::rng::Rng64;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Jobs with deliberately skewed runtimes so completion order differs
/// from submission order under parallel execution.
fn skewed_jobs(n: usize) -> Vec<Job<'static, usize>> {
    (0..n)
        .map(|i| {
            Job::new(format!("job{i}"), move || {
                // Later submissions finish first.
                std::thread::sleep(Duration::from_millis(((n - i) % 7) as u64));
                i * i + 1
            })
            .accesses(100)
        })
        .collect()
}

#[test]
fn parallel_results_match_serial_order() {
    let serial = Engine::serial()
        .run_batch("s", skewed_jobs(24))
        .expect_all();
    for workers in [2, 4, 8] {
        let parallel = Engine::with_workers(workers)
            .run_batch("p", skewed_jobs(24))
            .expect_all();
        assert_eq!(serial, parallel, "workers={workers} reordered results");
    }
}

#[test]
fn shuffled_runtimes_still_aggregate_in_submission_order() {
    // Randomized (but seeded) sleep times: a stress variant of the
    // ordering contract.
    let mut rng = Rng64::seed_from_u64(0xe61);
    let delays: Vec<u64> = (0..32).map(|_| rng.gen_range(0u64..5)).collect();
    let make = |delays: &[u64]| -> Vec<Job<'static, usize>> {
        delays
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                Job::new(format!("j{i}"), move || {
                    std::thread::sleep(Duration::from_millis(d));
                    i
                })
            })
            .collect()
    };
    let out = Engine::with_workers(4)
        .run_batch("shuffled", make(&delays))
        .expect_all();
    assert_eq!(out, (0..32).collect::<Vec<_>>());
}

#[test]
fn panicking_job_is_isolated() {
    let jobs: Vec<Job<'static, u32>> = (0..8)
        .map(|i| {
            Job::new(format!("job{i}"), move || {
                assert!(i != 3, "job 3 exploded");
                i
            })
        })
        .collect();
    let batch = Engine::with_workers(4).run_batch("panic", jobs);
    assert_eq!(batch.stats.failed, 1);
    for (i, result) in batch.results.iter().enumerate() {
        if i == 3 {
            let failure = result.as_ref().unwrap_err();
            assert_eq!(failure.job, "job3");
            assert!(
                failure.message.contains("job 3 exploded"),
                "{}",
                failure.message
            );
        } else {
            assert_eq!(*result.as_ref().unwrap(), i as u32);
        }
    }
}

#[test]
fn panicking_job_does_not_stop_siblings() {
    static RAN: AtomicUsize = AtomicUsize::new(0);
    let jobs: Vec<Job<'static, ()>> = (0..16)
        .map(|i| {
            Job::new(format!("job{i}"), move || {
                RAN.fetch_add(1, Ordering::SeqCst);
                assert!(i % 4 != 0, "every fourth job dies");
            })
        })
        .collect();
    let batch = Engine::with_workers(4).run_batch("siblings", jobs);
    assert_eq!(RAN.load(Ordering::SeqCst), 16, "all jobs must run");
    assert_eq!(batch.stats.failed, 4);
    assert_eq!(batch.successes(), vec![(); 12]);
}

#[test]
fn jobs_can_borrow_from_the_environment() {
    // Scoped threads let jobs reference stack data without 'static.
    let inputs: Vec<u64> = (0..10).collect();
    let engine = Engine::with_workers(3);
    let jobs: Vec<Job<'_, u64>> = inputs
        .iter()
        .map(|v| Job::new(format!("borrow{v}"), move || v * 2))
        .collect();
    let doubled = engine.run_batch("borrow", jobs).expect_all();
    assert_eq!(doubled, vec![0, 2, 4, 6, 8, 10, 12, 14, 16, 18]);
}

#[test]
fn telemetry_counts_jobs_and_accesses() {
    let engine = Engine::with_workers(2);
    engine.run_batch("a", skewed_jobs(5));
    engine.run_batch("b", skewed_jobs(3));
    let t = engine.telemetry();
    assert_eq!(t.batches.len(), 2);
    assert_eq!(t.jobs(), 8);
    assert_eq!(t.failed(), 0);
    assert_eq!(t.accesses(), 800);
    assert_eq!(t.batches[0].label, "a");
    assert_eq!(t.batches[0].per_job.len(), 5);
    assert_eq!(t.batches[0].per_job[0].name, "job0");
    assert!(t.elapsed() >= t.batches[0].elapsed);
    assert!(t.busy() > Duration::ZERO);
}

#[test]
fn report_renders_valid_shape() {
    let engine = Engine::with_workers(2);
    engine.run_batch("smoke", skewed_jobs(4));
    let json = sdbp_engine::report::render_json(engine.workers(), &engine.telemetry());
    assert!(json.starts_with('{') && json.ends_with('}'));
    for needle in [
        "\"schema\":\"sdbp-engine-report/v1\"",
        "\"workers\":2",
        "\"jobs\":4",
        "\"batches\":[",
        "\"label\":\"smoke\"",
        "\"accesses_per_second\":",
        "\"mean_queue_wait_seconds\":",
    ] {
        assert!(json.contains(needle), "missing {needle} in {json}");
    }
    // Balanced braces/brackets as a cheap well-formedness check.
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}

#[test]
fn parallelism_resolution() {
    assert_eq!(Parallelism::Serial.workers(), 1);
    assert_eq!(Parallelism::Workers(6).workers(), 6);
    assert_eq!(Parallelism::Workers(0).workers(), 1);
    assert!(Parallelism::Auto.workers() >= 1);
    assert!(Engine::serial().is_serial());
    assert!(!Engine::with_workers(2).is_serial());
}

#[test]
fn run_all_unwraps_plain_closures() {
    let engine = Engine::with_workers(2);
    let work: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..6u32)
        .map(|i| Box::new(move || i + 10) as Box<_>)
        .collect();
    assert_eq!(engine.run_all("plain", work), vec![10, 11, 12, 13, 14, 15]);
}
