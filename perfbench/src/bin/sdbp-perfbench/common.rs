//! Pieces every workload shares: the policy set, the paper's LLC, timed
//! loops, the correctness bookkeeping and the calls every workload makes
//! into the trace, cache and timing layers.

use crate::host::{Probe, PROBE_NOMINAL_MS};
use crate::trace::Tracer;
use sdbp_cache::recorder::try_record_batches;
use sdbp_cache::replay::replay;
use sdbp_cache::{Cache, CacheConfig, CacheStats, RecordedWorkload};
use sdbp_cpu::CoreModel;
use sdbp_traceio::BufferedTrace;
use std::path::Path;
use std::time::Instant;

/// The four policies every workload evaluates: the LRU and SRRIP
/// baselines, the paper's sampling predictor and the reftrace predictor.
pub const POLICIES: [&str; 4] = ["lru", "srrip", "sampler", "tdbp"];

/// How many times a run repeats its set-up; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The paper's single-core LLC (2 MB, 16-way).
pub fn llc() -> CacheConfig {
    CacheConfig::llc_2mb()
}

/// A cold LLC running `policy`, built through the registry.
pub fn fresh_cache(policy: &str) -> Cache {
    let built = sdbp::registry::standard()
        .build_str(policy, llc(), 1)
        .expect("the benchmark's policies are registered");
    Cache::with_policy(llc(), built)
}

/// Span name of an exact replay under `policy`.
pub fn replay_span(policy: &str) -> &'static str {
    match policy {
        "lru" => "cache.replay.lru",
        "srrip" => "cache.replay.srrip",
        "sampler" => "cache.replay.sampler",
        _ => "cache.replay.tdbp",
    }
}

/// Span name of a sampled replay under `policy`.
pub fn sampled_span(policy: &str) -> &'static str {
    match policy {
        "lru" => "sample.replay.lru",
        "srrip" => "sample.replay.srrip",
        "sampler" => "sample.replay.sampler",
        _ => "sample.replay.tdbp",
    }
}

/// The simulated statistics of one evaluation, compared exactly between
/// repeats, modes and formats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// LLC accesses.
    pub accesses: u64,
    /// LLC hits.
    pub hits: u64,
    /// LLC misses.
    pub misses: u64,
    /// IPC from the timing model, as bits.
    pub ipc_bits: u64,
}

impl Outcome {
    /// The outcome of an exact replay.
    pub fn of(stats: &CacheStats, ipc: f64) -> Self {
        Outcome {
            accesses: stats.accesses,
            hits: stats.hits,
            misses: stats.misses,
            ipc_bits: ipc.to_bits(),
        }
    }

    /// IPC as a float.
    pub fn ipc(&self) -> f64 {
        f64::from_bits(self.ipc_bits)
    }
}

/// Counter conservation: `hits + misses = accesses` and
/// `fills + bypasses = misses`.
pub fn conservation(stats: &CacheStats) -> Option<String> {
    if stats.hits + stats.misses != stats.accesses {
        return Some(format!(
            "hits {} + misses {} != accesses {}",
            stats.hits, stats.misses, stats.accesses
        ));
    }
    if stats.fills + stats.bypasses != stats.misses {
        return Some(format!(
            "fills {} + bypasses {} != misses {}",
            stats.fills, stats.bypasses, stats.misses
        ));
    }
    None
}

/// Operations attempted and failed. An operation fails when any of its
/// oracles is violated; each violation is printed.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations checked.
    pub attempted: u64,
    /// Operations with at least one violation.
    pub failed: u64,
}

impl Ops {
    /// Records one operation named `what` with its violations.
    pub fn record(&mut self, what: &str, violations: impl IntoIterator<Item = Option<String>>) {
        self.attempted += 1;
        let mut ok = true;
        for v in violations.into_iter().flatten() {
            println!("VIOLATION {what}: {v}");
            ok = false;
        }
        if !ok {
            self.failed += 1;
        }
    }
}

/// What a workload measured: set-up times, the timed loop, and the host
/// probe timed after every job.
#[derive(Debug, Default)]
pub struct Run {
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each round of the timed loop; every round runs the
    /// same jobs.
    pub round_s: Vec<f64>,
    /// Instructions simulated in the timed loop, summed over evaluations.
    pub sim_instructions: u64,
    /// Latency of each timed job, in ms.
    pub pooled_ms: Vec<f64>,
    /// The same latencies grouped by cell: one cell per (input, evaluator).
    pub cell_ms: Vec<Vec<f64>>,
    /// Time of the host probe after each job, in ms.
    pub probe_ms: Vec<f64>,
    probe: Probe,
}

impl Run {
    /// Records a job of `cell` that started at `started`, then times the
    /// host probe.
    pub fn job(&mut self, cell: usize, started: Instant) {
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.pooled_ms.push(ms);
        if self.cell_ms.len() <= cell {
            self.cell_ms.resize(cell + 1, Vec::new());
        }
        if let Some(c) = self.cell_ms.get_mut(cell) {
            c.push(ms);
        }
        self.probe_ms.push(self.probe.time_ms());
    }

    /// How much slower the host ran than the reference host during the
    /// timed loop: the probe's median over its nominal time. Jobs and
    /// probes alternate, so both see the same host.
    pub fn host_factor(&self) -> f64 {
        crate::stats::median(&self.probe_ms) / PROBE_NOMINAL_MS
    }

    /// Each cell's median latency over rounds, in ms.
    fn cell_medians(&self) -> Vec<f64> {
        self.cell_ms
            .iter()
            .map(|c| crate::stats::median(c))
            .collect()
    }

    /// Typical job latency in ms: the geometric mean over cells of each
    /// cell's median latency. Cells differ in cost by up to 3x, so a
    /// median over pooled jobs lands on the slowest or fastest job of
    /// one cell; averaging every cell's median in log space weighs each
    /// cell equally and lets their independent noise cancel.
    pub fn typical_job_ms(&self) -> f64 {
        let medians = self.cell_medians();
        let logs: f64 = medians.iter().map(|m| m.ln()).sum();
        (logs / medians.len().max(1) as f64).exp()
    }

    /// Simulated instructions per second of a typical round, in millions:
    /// one round's instructions over the sum of the cells' median
    /// latencies. Medians discard jobs slowed by a burst of load from
    /// other tenants of the host.
    pub fn sim_minstr_per_s(&self) -> f64 {
        let per_round = self.sim_instructions as f64 / self.round_s.len().max(1) as f64;
        per_round / 1e3 / self.cell_medians().iter().sum::<f64>()
    }
}

/// A timed loop of whole rounds that runs until both `seconds` have
/// passed and at least `min_rounds` rounds have completed, timing each
/// round.
#[derive(Debug)]
pub struct Deadline {
    start: Instant,
    round: Instant,
    seconds: f64,
    min_rounds: usize,
}

impl Deadline {
    /// Starts the clock.
    pub fn start(seconds: f64, min_rounds: usize) -> Self {
        let now = Instant::now();
        Deadline {
            start: now,
            round: now,
            seconds,
            min_rounds,
        }
    }

    /// Whether another round is needed; closes the previous round, if
    /// any, into `run`.
    pub fn more(&mut self, run: &mut Run) -> bool {
        let now = Instant::now();
        if !run.pooled_ms.is_empty() {
            run.round_s
                .push(now.duration_since(self.round).as_secs_f64());
        }
        self.round = now;
        run.round_s.len() < self.min_rounds
            || now.duration_since(self.start).as_secs_f64() < self.seconds
    }
}

/// Loads, validates and records one trace file: the set-up a user pays
/// before any policy can be evaluated.
pub fn load_and_record(t: &mut Tracer, path: &Path) -> Result<RecordedWorkload, String> {
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let trace = t
        .span("traceio.load", bytes, || BufferedTrace::load(path))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    record_buffered(t, &trace)
}

/// Records an indexed trace through the L1/L2 filter.
pub fn record_buffered(
    t: &mut Tracer,
    trace: &BufferedTrace<'_>,
) -> Result<RecordedWorkload, String> {
    let meta = trace.meta().clone();
    t.span("cache.record", meta.count, || {
        try_record_batches(&meta.name, &mut trace.batches(), meta.count, 0)
    })
    .map_err(|e| format!("{}: {e}", meta.name))
}

/// One exact evaluation: replay under `policy`, then the timing model.
pub fn exact_eval(t: &mut Tracer, w: &RecordedWorkload, policy: &str) -> (CacheStats, f64) {
    let mut cache = fresh_cache(policy);
    let result = t.span(replay_span(policy), w.llc.len() as u64, || {
        replay(&w.llc, &mut cache)
    });
    let timing = t.span("cpu.timing", w.instructions(), || {
        CoreModel::default().simulate(&w.records, &result.hits)
    });
    (result.stats, timing.ipc())
}

/// Prints one result line per (trace, evaluator), so two commits can be
/// diffed for identical simulated statistics.
pub fn print_result(trace: &str, evaluator: &str, misses: u64, extra: &str) {
    println!("result {trace} {evaluator} misses={misses}{extra}");
}

/// Named metric values in report order: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}
