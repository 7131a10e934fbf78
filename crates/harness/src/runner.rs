//! Shared experiment machinery: the run options, workload recording with
//! caching, single-core replay + timing, the memoised experiment matrix,
//! and the multi-core weighted speedup pipeline.
//!
//! Every matrix cell is a pure function of (benchmark, policy spec, LLC
//! geometry, [`RunConfig`]), so a [`RecordStore`] replays each distinct
//! cell once per run however many experiments show it.

use sdbp::registry::{standard, PolicySpec};
use sdbp::replay::{ReplayError, ReplayMode, ReplayRequest, SampledExtras};
use sdbp_cache::recorder::{
    merge_llc_streams, record_for_core, try_record_batches, try_record_for_core, LlcAccess,
    RecordError, RecordedWorkload,
};
use sdbp_cache::replay::{replay, split_hits_by_core};
use sdbp_cache::{CacheConfig, CacheStats};
use sdbp_cpu::CoreModel;
use sdbp_engine::{Engine, Job};
use sdbp_optimal::OptimalResult;
use sdbp_sample::SamplingPlan;
use sdbp_trace::TraceSource;
use sdbp_traceio::FileSource;
use sdbp_workloads::{Benchmark, Mix, DEFAULT_INSTRUCTIONS};
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

/// Records `instructions` instructions streamed from any [`TraceSource`]
/// (a synthetic generator or a `.sdbt` file) for `core`.
///
/// Sources with a columnar fast path
/// ([`TraceSource::open_batched`]) are consumed a decoded chunk at a
/// time through [`try_record_batches`]; everything else takes the
/// per-record stream. Both doors are bit-identical by contract, so the
/// choice is invisible to every caller.
///
/// # Errors
///
/// A stream that fails to open, errors mid-flight (corrupt archive), or
/// ends before `instructions` instructions, described as a string.
pub fn record_from_source(
    source: &dyn TraceSource,
    name: &str,
    instructions: u64,
    core: u8,
) -> Result<RecordedWorkload, String> {
    let recorded = match source.open_batched()? {
        Some(mut batches) => try_record_batches(name, batches.as_mut(), instructions, core),
        None => try_record_for_core(name, source.open()?, instructions, core),
    };
    recorded.map_err(|e| match e {
        RecordError::Source(msg) => msg,
        other => other.to_string(),
    })
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
                    let source = FileSource::new(&path)
                        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                    record_from_source(&source, bench.name, n, core)
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
/// and geometry) run, each once, in two batches: one recording job per
/// benchmark (cached in the store, which also loads its sampling plan),
/// then one replay job per missing cell, so replays of a slow benchmark
/// don't serialize behind each other. The store's memo is read and
/// filled here on the caller's thread, never inside a job, so which jobs
/// run never depends on scheduling. Each replay shards on scoped threads
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
        let mut to_record: Vec<usize> = todo.iter().map(|&(b, _)| b).collect();
        to_record.dedup();
        let record_jobs: Vec<Job<'_, _>> = to_record
            .iter()
            .map(|&b| {
                let bench = &benchmarks[b];
                let job = Job::new(format!("record/{}", bench.name), {
                    let store = store.clone();
                    move || (store.record(bench, 0), store.plan(bench.name))
                });
                job.accesses(store.config.instructions)
                    .source(store.source_label(bench.name, 0))
            })
            .collect();
        let recorded: BTreeMap<usize, _> = to_record
            .into_iter()
            .zip(engine.run_batch("record", record_jobs).expect_all())
            .collect();

        let shards = store.config.shards;
        let cell_jobs: Vec<Job<'_, SingleResult>> = todo
            .iter()
            .map(|&(b, cell)| {
                let (w, plan) = recorded[&b].clone();
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

/// Outcome of one (mix, policy) quad-core run.
#[derive(Clone, Debug)]
pub struct MixResult {
    /// Policy label.
    pub policy: String,
    /// Weighted speedup `Σ IPC_i / SingleIPC_i` (not yet normalised).
    pub weighted_ipc: f64,
    /// Total LLC misses across cores.
    pub misses: u64,
}

/// Merges the members' LLC streams into the shared-LLC access order
/// (policy independent; compute once per mix).
pub fn merged_stream(workloads: &[Arc<RecordedWorkload>]) -> Vec<LlcAccess> {
    let streams: Vec<&[LlcAccess]> = workloads.iter().map(|w| w.llc.as_slice()).collect();
    merge_llc_streams(&streams)
}

/// Runs one policy on one quad-core mix over an 8 MB shared LLC.
///
/// `merged` is the shared-LLC stream from [`merged_stream`]; `single_ipcs`
/// are the members' isolated IPCs (8 MB LRU), computed once per mix via
/// [`isolated_ipcs`].
pub fn run_mix_policy(
    workloads: &[Arc<RecordedWorkload>],
    merged: &[LlcAccess],
    single_ipcs: &[f64],
    (label, spec): &Cell,
    llc: CacheConfig,
) -> MixResult {
    let cores = workloads.len();
    let policy = standard()
        .build(spec, llc, cores)
        .expect("matrix cells are registered and valid");
    let mut cache = sdbp_cache::Cache::with_policy(llc, policy);
    let result = replay(merged, &mut cache);
    let per_core_hits = split_hits_by_core(merged, &result.hits, cores)
        .expect("replay hit map aligns with its own input stream");
    let model = CoreModel::default();
    let ipcs: Vec<f64> = workloads
        .iter()
        .zip(&per_core_hits)
        .map(|(w, hits)| model.simulate(&w.records, hits).ipc())
        .collect();
    MixResult {
        policy: label.clone(),
        weighted_ipc: sdbp_cpu::weighted_ipc(&ipcs, single_ipcs),
        misses: result.stats.misses,
    }
}

/// Isolated IPC of each mix member: the program running alone on an 8 MB
/// LRU LLC (the paper's `SingleIPC_i`).
pub fn isolated_ipcs(workloads: &[Arc<RecordedWorkload>], llc: CacheConfig) -> Vec<f64> {
    workloads
        .iter()
        .map(|w| {
            let mut cache = sdbp_cache::Cache::new(llc);
            let r = replay(&w.llc, &mut cache);
            CoreModel::default().simulate(&w.records, &r.hits).ipc()
        })
        .collect()
}

/// Records the four members of a mix (each on its own core id).
pub fn record_mix(store: &RecordStore, mix: &Mix) -> Vec<Arc<RecordedWorkload>> {
    mix.benchmarks()
        .iter()
        .enumerate()
        .map(|(core, b)| store.record(b, core as u8))
        .collect()
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
        // Another geometry is another cell.
        run_matrix(
            &engine,
            &store,
            &benches,
            &cells(&["lru"]),
            CacheConfig::new(128, 8),
        );
        assert_eq!(engine.telemetry().jobs(), 1 + 2 + 2);
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
