//! Shared experiment machinery: the run options, workload recording with
//! caching, single-core replay + timing, the memoised experiment matrix,
//! and exact replays of quad-core merged streams.
//!
//! Every matrix cell is a pure function of (benchmark, policy spec, LLC
//! geometry, [`RunConfig`]), so a [`RecordStore`] replays each distinct
//! cell once per run however many experiments show it. Recordings are
//! made the same way: [`record_all`] runs one `record` batch for the
//! (benchmark, core) pairs the store does not hold, before any replay
//! batch. Every replay here goes through the replay front door,
//! [`sdbp::replay`].

use sdbp::registry::{standard, PolicySpec};
use sdbp::replay::{ReplayError, ReplayMode, ReplayOutcome, ReplayRequest, SampledExtras};
use sdbp_cache::recorder::{record_for_core, try_record_batches, LlcAccess, RecordedWorkload};
use sdbp_cache::{CacheConfig, CacheStats};
use sdbp_cpu::CoreModel;
use sdbp_engine::{Engine, Job};
use sdbp_optimal::OptimalResult;
use sdbp_sample::SamplingPlan;
use sdbp_traceio::BufferedTrace;
use sdbp_workloads::{Benchmark, DEFAULT_INSTRUCTIONS};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// One column of a result table: its label and the registry spec it
/// replays.
pub type Cell = (String, PolicySpec);

/// The cell for registry policy `name`, labelled by its registry entry.
///
/// # Panics
///
/// If `name` is not registered — cell lists are fixed in the source.
pub fn cell(name: &str) -> Cell {
    let entry = standard().find(name).map(|e| e.label);
    let label = entry.unwrap_or_else(|| panic!("{name} is not a registry policy"));
    (label.to_owned(), PolicySpec::plain(name))
}

/// The cells for registry policies `names`, in order.
pub fn cells(names: &[&str]) -> Vec<Cell> {
    names.iter().map(|name| cell(name)).collect()
}

/// What one `sdbp-repro` run records and replays, built once from its
/// flags.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Instructions recorded per benchmark (`--instructions`).
    pub instructions: u64,
    /// Set shards each replay asks for (`--shards`, `auto` already
    /// resolved). Policies that are not set-local replay serially;
    /// results are bit-identical either way (DESIGN.md §13).
    pub shards: usize,
    /// Directory of `{name}.sdbs` sampling plans (`--sampled`): a
    /// benchmark with a plan there replays sampled instead of exact.
    pub plan_dir: Option<PathBuf>,
    /// Directory of archived `.sdbt` traces (`--trace-dir`): a benchmark
    /// with an archive there records from it instead of the generator.
    pub trace_dir: Option<PathBuf>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            instructions: DEFAULT_INSTRUCTIONS,
            shards: 1,
            plan_dir: None,
            trace_dir: None,
        }
    }
}

/// Outcome of one (benchmark, policy) single-core run.
#[derive(Clone, Debug)]
pub struct SingleResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Policy label.
    pub policy: String,
    /// LLC misses.
    pub misses: u64,
    /// Misses per kilo-instruction.
    pub mpki: f64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Full cache statistics (including predictor counters).
    pub stats: CacheStats,
    /// Bound and work figures, present exactly when the replay was
    /// sampled.
    pub sampled: Option<SampledExtras>,
    /// The shard count the replay actually ran on.
    pub shards: usize,
}

/// (benchmark, spec string, (sets, ways)): what a matrix cell's result
/// depends on besides the store's [`RunConfig`].
type CellKey = (String, String, (usize, usize));

/// (benchmark, (sets, ways)): what a MIN result depends on besides the
/// store's [`RunConfig`].
type MinKey = (String, (usize, usize));

/// (benchmark name, core id) → its recording.
type RecordMap = BTreeMap<(String, u8), Arc<RecordedWorkload>>;

/// Recordings, sampling plans, matrix cells and MIN results of one run,
/// each computed once and shared across experiments and policies. Clones
/// share the same caches. The maps are ordered so any iteration over them
/// is deterministic.
#[derive(Clone, Debug, Default)]
pub struct RecordStore {
    config: RunConfig,
    recordings: Arc<Mutex<RecordMap>>,
    plans: Arc<Mutex<BTreeMap<String, Arc<SamplingPlan>>>>,
    cells: Arc<Mutex<BTreeMap<CellKey, SingleResult>>>,
    min: Arc<Mutex<BTreeMap<MinKey, OptimalResult>>>,
}

/// `map[key]`, computing it with `make` when absent. The lock is not held
/// while `make` runs, so concurrent jobs never queue behind one another.
fn memoized<K: Ord, V: Clone>(map: &Mutex<BTreeMap<K, V>>, key: K, make: impl FnOnce() -> V) -> V {
    if let Some(v) = map.lock().expect("record store poisoned").get(&key) {
        return v.clone();
    }
    let v = make();
    map.lock()
        .expect("record store poisoned")
        .entry(key)
        .or_insert(v)
        .clone()
}

/// The archived trace in `dir` for (`name`, `core`), if there is one:
/// `{name}.c{core}.sdbt`, or `{name}.sdbt` for core 0.
pub fn archived_trace_path(dir: &Path, name: &str, core: u8) -> Option<PathBuf> {
    let per_core = dir.join(format!("{name}.c{core}.sdbt"));
    let plain = dir.join(format!("{name}.sdbt"));
    [Some(per_core), (core == 0).then_some(plain)]
        .into_iter()
        .flatten()
        .find(|p| p.is_file())
}

impl RecordStore {
    /// An empty store for a run configured by `config`.
    pub fn new(config: RunConfig) -> Self {
        RecordStore {
            config,
            ..Self::default()
        }
    }

    /// The run options this store records and replays under.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Records (or fetches the cached recording of) `bench` for `core`.
    ///
    /// With a trace directory configured and an archive there (see
    /// [`archived_trace_path`]), the recording streams from the file
    /// instead of the generator; a corrupt or short archive panics with
    /// the trace error, since silently falling back would produce results
    /// that do not match the archive the user asked for.
    pub fn record(&self, bench: &Benchmark, core: u8) -> Arc<RecordedWorkload> {
        memoized(&self.recordings, (bench.name.to_owned(), core), || {
            let n = self.config.instructions;
            Arc::new(match self.archive(bench.name, core) {
                Some(path) => {
                    let trace = BufferedTrace::load(&path)
                        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                    try_record_batches(bench.name, &mut trace.batches(), n, core)
                        .unwrap_or_else(|e| panic!("replaying archived trace: {e}"))
                }
                None => record_for_core(bench.name, bench.trace_seeded(u64::from(core)), n, core),
            })
        })
    }

    fn archive(&self, name: &str, core: u8) -> Option<PathBuf> {
        archived_trace_path(self.config.trace_dir.as_deref()?, name, core)
    }

    /// The telemetry source label for recording (`name`, `core`):
    /// `"file:{path}"` when an archived trace will be replayed, else
    /// `"synthetic"`.
    pub fn source_label(&self, name: &str, core: u8) -> String {
        match self.archive(name, core) {
            Some(path) => format!("file:{}", path.display()),
            None => "synthetic".to_owned(),
        }
    }

    /// The sampling plan `name` replays under, loaded once per run: the
    /// plan directory's `{name}.sdbs`, if both exist. A corrupt plan
    /// panics with the plan error, since silently falling back to an
    /// exact replay would misreport a 10–100× slower run as sampled.
    pub fn plan(&self, name: &str) -> Option<Arc<SamplingPlan>> {
        let path = self.config.plan_dir.as_ref()?.join(format!("{name}.sdbs"));
        path.is_file().then(|| {
            memoized(&self.plans, name.to_owned(), || {
                let plan = SamplingPlan::load(&path);
                Arc::new(plan.unwrap_or_else(|e| panic!("{}: {e}", path.display())))
            })
        })
    }

    /// Registry policy `name` replayed exactly over `stream` through the
    /// replay front door with the store's shards, built for `cores` cores.
    /// Panics if `name` is not registered.
    pub fn replay_exact(
        &self,
        stream: &[LlcAccess],
        cores: usize,
        name: &str,
        llc: CacheConfig,
    ) -> ReplayOutcome {
        ReplayRequest {
            stream,
            llc,
            policy: &PolicySpec::plain(name),
            mode: ReplayMode::Exact { probe: None },
            shards: self.config.shards,
            cores,
        }
        .run()
        .unwrap_or_else(|e| panic!("replay under {name}: {e}"))
    }
}

/// Replays `cell` over a recorded single-core workload through the replay
/// front door with `shards` requested set shards — sampled under `plan`
/// if one is given, exact otherwise — and computes IPC from the resulting
/// hit map. A sampled row carries the extrapolated misses.
///
/// # Errors
///
/// An invalid spec, or a plan built for a different trace.
pub fn run_policy(
    workload: &RecordedWorkload,
    (label, spec): &Cell,
    llc: CacheConfig,
    shards: usize,
    plan: Option<&SamplingPlan>,
) -> Result<SingleResult, ReplayError> {
    let mode = match plan {
        Some(plan) => ReplayMode::Sampled(plan),
        None => ReplayMode::Exact { probe: None },
    };
    let outcome = ReplayRequest {
        stream: &workload.llc,
        llc,
        policy: spec,
        mode,
        shards,
        cores: 1,
    }
    .run()?;
    let timing = CoreModel::default().simulate(&workload.records, &outcome.hits);
    Ok(SingleResult {
        benchmark: workload.name.clone(),
        policy: label.clone(),
        misses: outcome.stats.misses,
        mpki: outcome.stats.mpki(workload.instructions()),
        ipc: timing.ipc(),
        stats: outcome.stats,
        sampled: outcome.sampled,
        shards: outcome.shards,
    })
}

/// Runs `cells` for every benchmark through `engine`. Results are grouped
/// per benchmark, in suite order, one per cell in cell order — the engine
/// aggregates in submission order, so the output is identical for any
/// worker count.
///
/// Only cells the store has not replayed yet (by benchmark, spec string
/// and geometry) run, each once, in two batches: [`record_all`]'s batch
/// for the benchmarks the store does not hold, then one replay job per
/// missing cell, so replays of a slow benchmark don't serialize behind
/// each other. The store's memo is read and filled, and sampling plans
/// are loaded, here on the caller's thread, never inside a job, so which
/// jobs run never depends on scheduling. Each replay shards on scoped threads
/// inside its job when the store's config asks for shards.
pub fn run_matrix(
    engine: &Engine,
    store: &RecordStore,
    benchmarks: &[Benchmark],
    cells: &[Cell],
    llc: CacheConfig,
) -> Vec<Vec<SingleResult>> {
    let key = |b: usize, spec: &PolicySpec| -> CellKey {
        (
            benchmarks[b].name.to_owned(),
            spec.to_string(),
            (llc.sets, llc.ways),
        )
    };
    let mut todo: Vec<(usize, &Cell)> = Vec::new();
    {
        let memo = store.cells.lock().expect("cell memo poisoned");
        let mut queued = BTreeSet::new();
        for b in 0..benchmarks.len() {
            for cell in cells {
                let k = key(b, &cell.1);
                if !memo.contains_key(&k) && queued.insert(k) {
                    todo.push((b, cell));
                }
            }
        }
    }
    if !todo.is_empty() {
        let pairs: Vec<_> = todo
            .iter()
            .map(|&(b, _)| (benchmarks[b].clone(), 0))
            .collect();
        record_all(engine, store, &pairs);
        let shards = store.config.shards;
        let cell_jobs: Vec<Job<'_, SingleResult>> = todo
            .iter()
            .map(|&(b, cell)| {
                let bench = &benchmarks[b];
                let (w, plan) = (store.record(bench, 0), store.plan(bench.name));
                let cell = cell.clone();
                let accesses = w.llc.len() as u64;
                Job::new(format!("{}/{}", w.name, cell.0), move || {
                    run_policy(&w, &cell, llc, shards, plan.as_deref())
                        .unwrap_or_else(|e| panic!("replay of {} under {}: {e}", w.name, cell.1))
                })
                .accesses(accesses)
            })
            .collect();
        let results = engine.run_batch("matrix", cell_jobs).expect_all();
        let mut memo = store.cells.lock().expect("cell memo poisoned");
        for (&(b, (_, spec)), r) in todo.iter().zip(results) {
            memo.insert(key(b, spec), r);
        }
    }
    let memo = store.cells.lock().expect("cell memo poisoned");
    (0..benchmarks.len())
        .map(|b| {
            cells
                .iter()
                .map(|(label, spec)| SingleResult {
                    policy: label.clone(),
                    ..memo[&key(b, spec)].clone()
                })
                .collect()
        })
        .collect()
}

/// MIN with optimal bypass ([`sdbp_optimal::simulate`]) over each of
/// `benchmarks`' recordings on `llc`, in benchmark order.
///
/// As in [`run_matrix`], only benchmarks the store holds no MIN result
/// for at this geometry run, one `min` engine job each, and the store's
/// memo is read and filled on the caller's thread, never inside a job.
pub fn run_min(
    engine: &Engine,
    store: &RecordStore,
    benchmarks: &[Benchmark],
    llc: CacheConfig,
) -> Vec<OptimalResult> {
    let key = |bench: &Benchmark| -> MinKey { (bench.name.to_owned(), (llc.sets, llc.ways)) };
    let todo: Vec<&Benchmark> = {
        let memo = store.min.lock().expect("MIN memo poisoned");
        benchmarks
            .iter()
            .filter(|bench| !memo.contains_key(&key(bench)))
            .collect()
    };
    if !todo.is_empty() {
        let jobs: Vec<Job<'_, OptimalResult>> = todo
            .iter()
            .map(|&bench| {
                let store = store.clone();
                Job::new(format!("min/{}", bench.name), move || {
                    sdbp_optimal::simulate(&store.record(bench, 0).llc, llc)
                })
            })
            .collect();
        let results = engine.run_batch("min", jobs).expect_all();
        let mut memo = store.min.lock().expect("MIN memo poisoned");
        for (bench, result) in todo.into_iter().zip(results) {
            memo.insert(key(bench), result);
        }
    }
    let memo = store.min.lock().expect("MIN memo poisoned");
    benchmarks
        .iter()
        .map(|bench| memo[&key(bench)].clone())
        .collect()
}

/// Makes `store` hold a recording of every (benchmark, core) pair: the
/// store is read on the caller's thread, and one `record` batch records
/// the missing pairs, one job per distinct pair (no batch when none is
/// missing), so that no replay job records.
pub fn record_all(engine: &Engine, store: &RecordStore, pairs: &[(Benchmark, u8)]) {
    let held = store.recordings.lock().expect("record store poisoned");
    let mut queued = BTreeSet::new();
    let jobs: Vec<Job<'_, _>> = pairs
        .iter()
        .filter(|(bench, core)| {
            let key = (bench.name.to_owned(), *core);
            !held.contains_key(&key) && queued.insert(key)
        })
        .map(|(bench, core)| {
            let job = Job::new(format!("record/{}.c{core}", bench.name), {
                let store = store.clone();
                move || store.record(bench, *core)
            });
            job.accesses(store.config.instructions)
                .source(store.source_label(bench.name, *core))
        })
        .collect();
    drop(held);
    if !jobs.is_empty() {
        drop(engine.run_batch("record", jobs).expect_all());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::singlecore::{ablation_cells, lru_cells, random_cells};
    use sdbp_workloads::benchmark;

    /// A store recording 100K instructions per benchmark: these tests
    /// compare runs, so the budget only has to exercise the LLC.
    fn small_store() -> RecordStore {
        RecordStore::new(RunConfig {
            instructions: 100_000,
            ..RunConfig::default()
        })
    }

    #[test]
    fn policy_labels_are_unique_in_comparisons() {
        let mut labels: Vec<String> = lru_cells().into_iter().map(|(label, _)| label).collect();
        labels.extend(random_cells().into_iter().skip(1).map(|(label, _)| label));
        labels.extend(ablation_cells().into_iter().skip(1).map(|(label, _)| label));
        let n = labels.len();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), n);
    }

    #[test]
    fn record_store_caches() {
        let store = small_store();
        let b = benchmark("416.gamess").unwrap();
        let a1 = store.record(&b, 0);
        let a2 = store.record(&b, 0);
        assert!(Arc::ptr_eq(&a1, &a2));
        assert_eq!(a1.instructions(), 100_000);
        let other_core = store.record(&b, 1);
        assert!(!Arc::ptr_eq(&a1, &other_core));
    }

    #[test]
    fn sharded_rows_are_bit_identical_to_serial() {
        let store = small_store();
        let b = benchmark("416.gamess").unwrap();
        let w = store.record(&b, 0);
        let llc = CacheConfig::new(64, 8);
        // A shardable policy shards; a dueling policy must silently fall
        // back to serial — either way the row cannot depend on `shards`.
        for cell in cells(&["lru", "rrip"]) {
            let serial = run_policy(&w, &cell, llc, 1, None).unwrap();
            for shards in [2usize, 8] {
                let sharded = run_policy(&w, &cell, llc, shards, None).unwrap();
                assert_eq!(sharded.misses, serial.misses, "{}/{shards}", cell.0);
                assert_eq!(sharded.stats, serial.stats, "{}/{shards}", cell.0);
                assert_eq!(sharded.mpki.to_bits(), serial.mpki.to_bits());
                assert_eq!(sharded.ipc.to_bits(), serial.ipc.to_bits());
            }
        }
    }

    /// Every (label, spec) cell of the figure matrices builds.
    #[test]
    fn every_policy_kind_builds() {
        let llc = CacheConfig::new(256, 16);
        let mut all = lru_cells();
        all.extend(random_cells());
        all.extend(ablation_cells());
        all.extend(cells(&["tadip", "tdbp-bursts", "aip", "sampler-srrip"]));
        for (label, spec) in all {
            let p = standard().build(&spec, llc, 4).expect("spec builds");
            assert!(!p.name().is_empty());
            assert!(!label.is_empty());
            let reparsed: PolicySpec = spec.to_string().parse().expect("round trip");
            assert_eq!(reparsed, spec);
        }
    }

    #[test]
    fn matrix_replays_each_distinct_cell_once() {
        let engine = Engine::serial();
        let store = small_store();
        let benches = [benchmark("416.gamess").unwrap()];
        let llc = CacheConfig::new(64, 8);
        let paper = ("Sampler (paper)".to_owned(), PolicySpec::plain("sampler"));
        let first = run_matrix(&engine, &store, &benches, &cells(&["lru", "sampler"]), llc);
        let second = run_matrix(&engine, &store, &benches, &[cell("lru"), paper], llc);
        // Two cells the first call replayed: no new job, same numbers,
        // the second call's labels.
        assert_eq!(engine.telemetry().jobs(), 1 + 2);
        assert_eq!(second[0][1].policy, "Sampler (paper)");
        assert_eq!(second[0][1].stats, first[0][1].stats);
        // Another geometry is another cell, over a recording the store
        // already holds: one replay job and no `record` batch.
        run_matrix(
            &engine,
            &store,
            &benches,
            &cells(&["lru"]),
            CacheConfig::new(128, 8),
        );
        let report = engine.telemetry();
        assert_eq!(report.jobs(), 1 + 2 + 1);
        let labels: Vec<&str> = report.batches.iter().map(|b| b.label.as_str()).collect();
        assert_eq!(labels, ["record", "matrix", "matrix"]);
    }

    #[test]
    fn min_runs_once_per_benchmark_and_geometry() {
        let engine = Engine::serial();
        let store = small_store();
        let benches = [benchmark("416.gamess").unwrap()];
        let llc = CacheConfig::new(64, 8);
        let first = run_min(&engine, &store, &benches, llc);
        assert_eq!(engine.telemetry().jobs(), 1);
        let w = store.record(&benches[0], 0);
        assert_eq!(first, vec![sdbp_optimal::simulate(&w.llc, llc)]);
        assert_eq!(run_min(&engine, &store, &benches, llc), first);
        assert_eq!(engine.telemetry().jobs(), 1, "a memoised MIN runs no job");
        run_min(&engine, &store, &benches, CacheConfig::new(128, 8));
        assert_eq!(
            engine.telemetry().jobs(),
            2,
            "another geometry is another MIN"
        );
    }
}
