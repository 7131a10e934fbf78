//! One module per paper artifact, plus the shared experiment [`Context`].

pub mod ablation;
pub mod extensions;
pub mod fig1;
pub mod multicore;
pub mod singlecore;
pub mod tables;

use crate::runner::{record_all, run_matrix, Cell, RecordStore, RunConfig, SingleResult};
use sdbp_cache::recorder::{merge_llc_streams, LlcAccess, RecordedWorkload};
use sdbp_cache::CacheConfig;
use sdbp_engine::{Engine, Job};
use sdbp_workloads::{mixes, subset, Mix};
use std::sync::Arc;

/// Shared state for a harness invocation: the execution engine and the
/// record store, whose cell memo means `sdbp-repro all` replays each
/// (benchmark, policy spec, geometry) once however many figures show it.
#[derive(Debug, Default)]
pub struct Context {
    /// The execution engine every experiment submits its jobs through.
    pub engine: Engine,
    /// Recordings, plans and matrix cells, shared across experiments.
    pub store: RecordStore,
}

impl Context {
    /// A context running every experiment through `engine` under `config`.
    pub fn new(engine: Engine, config: RunConfig) -> Self {
        Context {
            engine,
            store: RecordStore::new(config),
        }
    }

    /// The single-core LLC geometry (2 MB, 16-way).
    pub fn llc(&self) -> CacheConfig {
        CacheConfig::llc_2mb()
    }

    /// The shared quad-core LLC geometry (8 MB, 16-way).
    pub fn llc_shared(&self) -> CacheConfig {
        CacheConfig::llc_8mb()
    }

    /// `cells` over the 19-benchmark subset on the single-core LLC: per
    /// benchmark, one result per cell in order (see [`run_matrix`]).
    pub fn matrix(&self, cells: &[Cell]) -> Vec<Vec<SingleResult>> {
        run_matrix(&self.engine, &self.store, &subset(), cells, self.llc())
    }

    /// `per_mix` over every quad-core mix, one `{label}/{mix}` job each,
    /// after [`record_all`] (member `i` on core `i`). Each job merges its
    /// members' LLC streams once and declares `replays` merged streams of
    /// accesses. The merged stream dies with its job, since at 8M
    /// instructions one is about 240 MB and rebuilds in about 0.6 s.
    pub fn mixes<T: Send>(
        &self,
        label: &str,
        replays: usize,
        per_mix: impl Fn(&Mix, &[Arc<RecordedWorkload>], &[LlcAccess]) -> T + Sync,
    ) -> Vec<T> {
        let mixes = mixes();
        let pairs: Vec<_> = mixes
            .iter()
            .flat_map(|m| m.benchmarks().into_iter().zip(0u8..))
            .collect();
        record_all(&self.engine, &self.store, &pairs);
        let per_mix = &per_mix;
        let jobs: Vec<Job<'_, T>> = mixes
            .iter()
            // Every mix has four members, one per core.
            .zip(pairs.chunks(4))
            .map(|(mix, pairs)| {
                let workloads: Vec<_> = pairs
                    .iter()
                    .map(|(b, core)| self.store.record(b, *core))
                    .collect();
                let merged_len: usize = workloads.iter().map(|w| w.llc.len()).sum();
                Job::new(format!("{label}/{}", mix.name), move || {
                    let streams: Vec<_> = workloads.iter().map(|w| w.llc.as_slice()).collect();
                    per_mix(mix, &workloads, &merge_llc_streams(&streams))
                })
                .accesses((merged_len * replays) as u64)
            })
            .collect();
        self.engine.run_batch(label, jobs).expect_all()
    }
}

/// Experiment ids in paper order, plus the extra ablation sweeps.
pub const ALL_EXPERIMENTS: [&str; 14] = [
    "table1",
    "table2",
    "fig1",
    "table3",
    "table4",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "ablation",
    "extensions",
];

/// Runs one experiment by id, returning its rendered report.
///
/// # Errors
///
/// Returns an error message for an unknown id.
pub fn run(ctx: &Context, id: &str) -> Result<String, String> {
    match id {
        "table1" => Ok(tables::table1()),
        "table2" => Ok(tables::table2()),
        "table3" => Ok(tables::table3(ctx)),
        "table4" => Ok(tables::table4(ctx)),
        "fig1" => Ok(fig1::run(ctx)),
        "fig4" => Ok(singlecore::fig4(ctx)),
        "fig5" => Ok(singlecore::fig5(ctx)),
        "fig6" => Ok(singlecore::fig6(ctx)),
        "fig7" => Ok(singlecore::fig7(ctx)),
        "fig8" => Ok(singlecore::fig8(ctx)),
        "fig9" => Ok(singlecore::fig9(ctx)),
        "fig10" => Ok(multicore::fig10(ctx)),
        "ablation" => Ok(ablation::run(ctx)),
        "extensions" => Ok(extensions::run(ctx)),
        other => Err(format!(
            "unknown experiment '{other}'; known: {}",
            ALL_EXPERIMENTS.join(", ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_free_experiments_render() {
        // table1/table2 need no simulation; they must render instantly and
        // contain the headline numbers.
        let ctx = Context::default();
        let t1 = run(&ctx, "table1").expect("table1 runs");
        assert!(t1.contains("13.75"));
        assert!(t1.contains("reftrace"));
        let t2 = run(&ctx, "table2").expect("table2 runs");
        assert!(t2.contains("sampler"));
        assert!(t2.contains("% LLC"));
    }

    #[test]
    fn unknown_experiment_is_an_error() {
        let ctx = Context::default();
        let err = run(&ctx, "fig99").unwrap_err();
        assert!(err.contains("unknown experiment"));
        assert!(err.contains("fig10"), "error should list known ids");
    }

    #[test]
    fn experiment_index_is_complete_and_unique() {
        let mut ids = ALL_EXPERIMENTS.to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ALL_EXPERIMENTS.len());
    }
}
