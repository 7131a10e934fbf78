//! A minimal, offline micro-bench harness with a Criterion-shaped API.
//!
//! The sandbox builds with no network, so the criterion crate is not
//! available; this module provides the small surface the benches in
//! `benches/` actually use — [`Criterion::bench_function`],
//! [`Criterion::benchmark_group`], [`Bencher::iter`],
//! [`Throughput::Elements`], and the [`criterion_group!`]/
//! [`criterion_main!`] macros — backed by a straightforward adaptive
//! timer: one warm-up iteration to estimate cost, then enough timed
//! iterations to fill a ~200 ms window (between 5 and 1000), reporting
//! mean and minimum wall-clock per iteration plus optional elements/sec.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target measurement window per benchmark.
const TARGET: Duration = Duration::from_millis(200);
const MIN_ITERS: u32 = 5;
const MAX_ITERS: u32 = 1_000;

/// Declared work per iteration, used to derive a throughput figure.
#[derive(Copy, Clone, Debug)]
pub enum Throughput {
    /// The iteration processes this many elements (accesses, instructions).
    Elements(u64),
}

/// Top-level harness handle; mirrors `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion {
    results: Vec<BenchResult>,
}

/// One measured benchmark.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// `group/name` label.
    pub name: String,
    /// Timed iterations.
    pub iters: u32,
    /// Mean wall clock per iteration.
    pub mean: Duration,
    /// Fastest iteration.
    pub min: Duration,
    /// Declared per-iteration work, if any.
    pub throughput: Option<Throughput>,
}

impl BenchResult {
    /// Elements per second at the mean iteration time, if declared.
    pub fn elements_per_second(&self) -> Option<f64> {
        match self.throughput {
            Some(Throughput::Elements(n)) if self.mean > Duration::ZERO => {
                Some(n as f64 / self.mean.as_secs_f64())
            }
            _ => None,
        }
    }
}

impl Criterion {
    /// Measures a standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        self.run(name.to_owned(), None, f);
        self
    }

    /// Opens a named group; benches inside report as `group/name`.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.to_owned(), throughput: None }
    }

    fn run<F: FnMut(&mut Bencher)>(
        &mut self,
        name: String,
        throughput: Option<Throughput>,
        mut f: F,
    ) {
        let mut b = Bencher { iters: 1, total: Duration::ZERO, min: Duration::MAX };
        // Warm-up: one iteration, which also estimates the per-iter cost.
        f(&mut b);
        let estimate = b.total.max(Duration::from_nanos(1));
        let iters = ((TARGET.as_nanos() / estimate.as_nanos().max(1)) as u32)
            .clamp(MIN_ITERS, MAX_ITERS);
        b = Bencher { iters, total: Duration::ZERO, min: Duration::MAX };
        f(&mut b);
        let result = BenchResult {
            name,
            iters,
            mean: b.total / iters.max(1),
            min: b.min,
            throughput,
        };
        print_result(&result);
        self.results.push(result);
    }

    /// Everything measured so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }
}

fn print_result(r: &BenchResult) {
    let mean_us = r.mean.as_secs_f64() * 1e6;
    let min_us = r.min.as_secs_f64() * 1e6;
    match r.elements_per_second() {
        Some(eps) => println!(
            "bench {:<40} {:>12.1} us/iter (min {:>12.1})  {:>12.0} elem/s  [{} iters]",
            r.name, mean_us, min_us, eps, r.iters
        ),
        None => println!(
            "bench {:<40} {:>12.1} us/iter (min {:>12.1})  [{} iters]",
            r.name, mean_us, min_us, r.iters
        ),
    }
}

/// A group of related benchmarks sharing a throughput declaration.
#[derive(Debug)]
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declares per-iteration work for subsequent benches in the group.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Measures one benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        let label = format!("{}/{}", self.name, name);
        self.criterion.run(label, self.throughput, f);
        self
    }

    /// Ends the group (a no-op; results were reported as they ran).
    pub fn finish(self) {}
}

/// Passed to the closure under measurement; mirrors `criterion::Bencher`.
#[derive(Debug)]
pub struct Bencher {
    iters: u32,
    total: Duration,
    min: Duration,
}

impl Bencher {
    /// Times `routine` for the configured number of iterations.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..self.iters {
            #[expect(
                clippy::disallowed_methods,
                reason = "the bench crate measures wall-clock throughput; timing is its deliverable"
            )]
            let start = Instant::now();
            black_box(routine());
            let dt = start.elapsed();
            self.total += dt;
            self.min = self.min.min(dt);
        }
    }
}

/// Bundles bench functions into a runner, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        /// Runs every bench function of this group.
        pub fn $name() {
            let mut criterion = $crate::micro::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` for a bench target, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_reports_throughput() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.throughput(Throughput::Elements(1000));
        group.bench_function("sum", |b| b.iter(|| (0u64..1000).sum::<u64>()));
        group.finish();
        c.bench_function("plain", |b| b.iter(|| 2 + 2));
        let results = c.results();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].name, "g/sum");
        assert!(results[0].elements_per_second().unwrap() > 0.0);
        assert_eq!(results[1].name, "plain");
        assert!(results[1].elements_per_second().is_none());
        assert!(results.iter().all(|r| r.iters >= MIN_ITERS));
    }
}
