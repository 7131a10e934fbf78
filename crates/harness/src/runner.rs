//! Shared experiment machinery: policy factories, workload recording with
//! caching, single-core replay + timing, and the multi-core weighted
//! speedup pipeline.

use sdbp::replay::{ReplayMode, ReplayRequest};
use sdbp_cache::recorder::{
    merge_llc_streams, record_for_core, try_record_batches, try_record_for_core,
    LlcAccess, RecordError,
    RecordedWorkload,
};
use sdbp_cache::replay::{replay, split_hits_by_core};
use sdbp_cache::{CacheConfig, CacheStats};
use sdbp_cpu::CoreModel;
use sdbp_engine::{Engine, Job};
use sdbp_sample::SamplingPlan;
use sdbp_trace::TraceSource;
use sdbp_traceio::FileSource;
use sdbp_workloads::{instructions, Benchmark, Mix};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// The experiment-matrix policy enumeration, now defined next to the
/// registry it builds through (`sdbp::registry`).
pub use sdbp::registry::PolicyKind;

/// Outcome of one (benchmark, policy) single-core run.
#[derive(Clone, Debug)]
pub struct SingleResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Policy label.
    pub policy: &'static str,
    /// LLC misses.
    pub misses: u64,
    /// Misses per kilo-instruction.
    pub mpki: f64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Full cache statistics (including predictor counters).
    pub stats: CacheStats,
}

/// A process-wide cache of recorded workloads, so the expensive
/// record-once pass is shared across experiments and policies.
/// Map from (benchmark name, core id) to its recording. Ordered so any
/// future iteration over the store (reports, eviction) is deterministic.
type RecordMap = BTreeMap<(String, u8), Arc<RecordedWorkload>>;

/// A process-wide cache of recorded workloads, so the expensive
/// record-once pass is shared across experiments and policies.
#[derive(Clone, Debug, Default)]
pub struct RecordStore {
    inner: Arc<Mutex<RecordMap>>,
}

/// Environment variable naming a directory of archived `.sdbt` traces.
/// When set, [`RecordStore::record`] prefers `{name}.c{core}.sdbt` (then
/// `{name}.sdbt` for core 0) over the synthetic generator, so a whole
/// experiment run can replay from archives produced by
/// `sdbp-repro trace record`.
pub const TRACE_DIR_ENV: &str = "SDBP_TRACE_DIR";

/// The archived trace file [`RecordStore::record`] would use for
/// (`name`, `core`), if `SDBP_TRACE_DIR` is set and the file exists.
pub fn archived_trace_path(name: &str, core: u8) -> Option<PathBuf> {
    let dir = PathBuf::from(std::env::var_os(TRACE_DIR_ENV)?);
    let per_core = dir.join(format!("{name}.c{core}.sdbt"));
    if per_core.is_file() {
        return Some(per_core);
    }
    if core == 0 {
        let plain = dir.join(format!("{name}.sdbt"));
        if plain.is_file() {
            return Some(plain);
        }
    }
    None
}

/// The telemetry source label for recording (`name`, `core`):
/// `"file:{path}"` when an archived trace will be replayed, else
/// `"synthetic"`.
pub fn record_source_label(name: &str, core: u8) -> String {
    match archived_trace_path(name, core) {
        Some(path) => format!("file:{}", path.display()),
        None => "synthetic".to_owned(),
    }
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
    if let Some(mut batches) = source.open_batched()? {
        return try_record_batches(name, batches.as_mut(), instructions, core)
            .map_err(|e| match e {
                RecordError::Source(msg) => msg,
                other => other.to_string(),
            });
    }
    let stream = source.open()?;
    try_record_for_core(name, stream, instructions, core).map_err(|e| match e {
        RecordError::Source(msg) => msg,
        other => other.to_string(),
    })
}

impl RecordStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records (or fetches the cached recording of) `bench` for `core`.
    ///
    /// With `SDBP_TRACE_DIR` set and an archived `.sdbt` present (see
    /// [`archived_trace_path`]), the recording streams from the file
    /// instead of the generator; a corrupt or short archive panics with
    /// the trace error, since silently falling back would produce results
    /// that do not match the archive the user asked for.
    pub fn record(&self, bench: &Benchmark, core: u8) -> Arc<RecordedWorkload> {
        let key = (bench.name.to_owned(), core);
        if let Some(w) = self.inner.lock().expect("record store poisoned").get(&key) {
            return Arc::clone(w);
        }
        let n = instructions();
        let recorded = match archived_trace_path(bench.name, core) {
            Some(path) => {
                let source = FileSource::new(&path)
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                let w = record_from_source(&source, bench.name, n, core)
                    .unwrap_or_else(|e| panic!("replaying archived trace: {e}"));
                Arc::new(w)
            }
            None => {
                let trace = bench.trace_seeded(u64::from(core));
                Arc::new(record_for_core(bench.name, trace, n, core))
            }
        };
        self.inner
            .lock()
            .expect("record store poisoned")
            .entry(key)
            .or_insert(recorded)
            .clone()
    }
}

/// Environment variable naming a directory of `.sdbs` sampling plans.
/// When set, [`run_policy`] (and therefore every single-core experiment
/// cell) replays `{name}.sdbs` plans sampled instead of exact — the
/// `--sampled` mode of the experiment runner. Plans are produced by
/// `sdbp-repro trace sample`.
pub const SAMPLE_DIR_ENV: &str = "SDBP_SAMPLE_DIR";

/// The sampling plan [`run_policy`] would use for `name`, if
/// `SDBP_SAMPLE_DIR` is set and `{name}.sdbs` exists there.
pub fn sampling_plan_path(name: &str) -> Option<PathBuf> {
    let dir = PathBuf::from(std::env::var_os(SAMPLE_DIR_ENV)?);
    let plan = dir.join(format!("{name}.sdbs"));
    plan.is_file().then_some(plan)
}

/// Environment variable carrying the shard count for set-sharded replay.
/// When set to `N > 1`, every experiment cell asks the replay front door
/// (`sdbp::replay`) for `N` set shards — the `--shards` mode of the
/// experiment runner. Policies whose registry entry is not set-local
/// replay serially; sharded and serial results are bit-identical either
/// way (DESIGN.md §13).
pub const SHARDS_ENV: &str = "SDBP_SHARDS";

/// The shard count requested via [`SHARDS_ENV`] (default 1 = serial).
pub fn shards_from_env() -> usize {
    std::env::var(SHARDS_ENV).ok().and_then(|v| v.parse().ok()).filter(|&n| n >= 1).unwrap_or(1)
}

/// Replays `policy` over a recorded single-core workload through the
/// replay front door with `shards` requested set shards, and computes
/// IPC from the resulting hit map.
///
/// With `SDBP_SAMPLE_DIR` set and a `{name}.sdbs` plan present (see
/// [`sampling_plan_path`]), the replay runs sampled under that plan and
/// the row carries the extrapolated misses; a corrupt plan or one built
/// for a different trace panics with the plan error, since silently
/// falling back to an exact replay would misreport a 10–100× slower run
/// as sampled.
pub fn run_policy(
    workload: &RecordedWorkload,
    policy: &PolicyKind,
    llc: CacheConfig,
    shards: usize,
) -> SingleResult {
    let plan = sampling_plan_path(&workload.name).map(|path| {
        SamplingPlan::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    });
    let mode = match &plan {
        Some(plan) => ReplayMode::Sampled(plan),
        None => ReplayMode::Exact { probe: None },
    };
    let spec = policy.spec();
    let outcome = ReplayRequest { stream: &workload.llc, llc, policy: &spec, mode, shards }
        .run()
        .unwrap_or_else(|e| panic!("replay of {} under {spec}: {e}", workload.name));
    let timing = CoreModel::default().simulate(&workload.records, &outcome.hits);
    SingleResult {
        benchmark: workload.name.clone(),
        policy: policy.label(),
        misses: outcome.stats.misses,
        mpki: outcome.stats.mpki(workload.instructions()),
        ipc: timing.ipc(),
        stats: outcome.stats,
    }
}

/// Runs a list of policies for every benchmark through `engine`. Results
/// are grouped per benchmark, in suite order — the engine aggregates in
/// submission order, so the output is identical for any worker count.
///
/// Two batches: one recording job per benchmark (cached in the store),
/// then one replay job per (benchmark, policy) cell, so replays of a slow
/// benchmark don't serialize behind each other. With [`SHARDS_ENV`] set
/// above 1, each cell's replay shards on scoped threads inside its job.
pub fn run_matrix(
    engine: &Engine,
    store: &RecordStore,
    benchmarks: &[Benchmark],
    policies: &[PolicyKind],
    llc: CacheConfig,
) -> Vec<Vec<SingleResult>> {
    let record_jobs: Vec<Job<'_, Arc<RecordedWorkload>>> = benchmarks
        .iter()
        .map(|bench| {
            let store = store.clone();
            Job::new(format!("record/{}", bench.name), move || store.record(bench, 0))
                .accesses(instructions())
                .source(record_source_label(bench.name, 0))
        })
        .collect();
    let recordings = engine.run_batch("record", record_jobs).expect_all();

    let shards = shards_from_env();
    let mut cell_jobs: Vec<Job<'_, SingleResult>> = Vec::new();
    for w in &recordings {
        for policy in policies {
            let w = Arc::clone(w);
            let policy = policy.clone();
            let name = format!("{}/{}", w.name, policy.label());
            let accesses = w.llc.len() as u64;
            cell_jobs.push(
                Job::new(name, move || run_policy(&w, &policy, llc, shards)).accesses(accesses),
            );
        }
    }
    let flat = engine.run_batch("matrix", cell_jobs).expect_all();
    flat.chunks(policies.len().max(1)).map(<[SingleResult]>::to_vec).collect()
}

/// Outcome of one (mix, policy) quad-core run.
#[derive(Clone, Debug)]
pub struct MixResult {
    /// Mix name.
    pub mix: String,
    /// Policy label.
    pub policy: &'static str,
    /// Weighted speedup `Σ IPC_i / SingleIPC_i` (not yet normalised).
    pub weighted_ipc: f64,
    /// Total LLC misses across cores.
    pub misses: u64,
    /// Total instructions across cores.
    pub instructions: u64,
}

impl MixResult {
    /// Aggregate MPKI over all cores.
    pub fn mpki(&self) -> f64 {
        self.misses as f64 * 1000.0 / self.instructions as f64
    }
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
    policy: &PolicyKind,
    llc: CacheConfig,
) -> MixResult {
    let cores = workloads.len();
    let mut cache = sdbp_cache::Cache::with_policy(llc, policy.build(llc, cores));
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
        mix: String::new(),
        policy: policy.label(),
        weighted_ipc: sdbp_cpu::weighted_ipc(&ipcs, single_ipcs),
        misses: result.stats.misses,
        instructions: workloads.iter().map(|w| w.instructions()).sum(),
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
    use sdbp_workloads::benchmark;

    fn small_env() -> RecordStore {
        // Tests run with the default instruction budget unless the
        // environment overrides it; keep runs tiny by truncating here.
        RecordStore::new()
    }

    #[test]
    fn policy_labels_are_unique_in_comparisons() {
        let mut labels: Vec<&str> =
            PolicyKind::lru_comparison().iter().map(|p| p.label()).collect();
        labels.extend(PolicyKind::random_comparison().iter().map(|p| p.label()));
        labels.extend(PolicyKind::ablation_ladder().iter().map(|p| p.label()));
        let n = labels.len();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), n);
    }

    #[test]
    fn record_store_caches() {
        let store = small_env();
        let b = benchmark("416.gamess").unwrap();
        let a1 = store.record(&b, 0);
        let a2 = store.record(&b, 0);
        assert!(Arc::ptr_eq(&a1, &a2));
        let other_core = store.record(&b, 1);
        assert!(!Arc::ptr_eq(&a1, &other_core));
    }

    #[test]
    fn sharded_rows_are_bit_identical_to_serial() {
        let store = small_env();
        let b = benchmark("416.gamess").unwrap();
        let w = store.record(&b, 0);
        let llc = CacheConfig::new(64, 8);
        // A shardable policy shards; a dueling policy must silently fall
        // back to serial — either way the row cannot depend on `shards`.
        for policy in [PolicyKind::Lru, PolicyKind::Rrip] {
            let serial = run_policy(&w, &policy, llc, 1);
            for shards in [2usize, 8] {
                let sharded = run_policy(&w, &policy, llc, shards);
                assert_eq!(sharded.misses, serial.misses, "{}/{shards}", policy.label());
                assert_eq!(sharded.stats, serial.stats, "{}/{shards}", policy.label());
                assert_eq!(sharded.mpki.to_bits(), serial.mpki.to_bits());
                assert_eq!(sharded.ipc.to_bits(), serial.ipc.to_bits());
            }
        }
    }

    #[test]
    fn every_policy_kind_builds() {
        let llc = CacheConfig::new(256, 16);
        let mut kinds = PolicyKind::lru_comparison();
        kinds.extend(PolicyKind::random_comparison());
        kinds.extend(PolicyKind::ablation_ladder());
        kinds.push(PolicyKind::Lru);
        kinds.push(PolicyKind::Tadip);
        for k in kinds {
            let p = k.build(llc, 4);
            assert!(!p.name().is_empty());
            assert!(!k.label().is_empty());
        }
    }
}
