//! Beyond-the-paper extensions (DESIGN.md §6): the Access Interval
//! Predictor (AIP) that the counting paper pairs with LvP, the
//! burst-filtered reference trace predictor (paper §II-A3), and SDBP over
//! an SRRIP default policy — all evaluated with the same DBRB harness.

use super::Context;
use crate::runner::{cells, SingleResult};
use crate::table::{amean, f3, TextTable};
use sdbp::vvc::VirtualVictimCache;
use sdbp_engine::Job;
use sdbp_workloads::subset;

fn normalized_means(matrix: &[Vec<SingleResult>]) -> Vec<(String, f64, f64)> {
    let n_policies = matrix[0].len() - 1;
    (0..n_policies)
        .map(|i| {
            let norms: Vec<f64> = matrix
                .iter()
                .map(|row| row[i + 1].misses as f64 / row[0].misses.max(1) as f64)
                .collect();
            let speedups: Vec<f64> = matrix
                .iter()
                .map(|row| row[i + 1].ipc / row[0].ipc)
                .collect();
            (
                matrix[0][i + 1].policy.clone(),
                amean(&norms),
                crate::table::gmean(&speedups),
            )
        })
        .collect()
}

/// Runs the extension policies over the subset.
pub fn run(ctx: &Context) -> String {
    let matrix = ctx.matrix(&cells(&[
        "lru",
        "tdbp",
        "tdbp-bursts",
        "cdbp",
        "aip",
        "sampler",
        "sampler-srrip",
    ]));
    let mut t = TextTable::new(vec![
        "Policy".into(),
        "mean normalized misses".into(),
        "gmean speedup".into(),
    ]);
    for (label, norm, speedup) in normalized_means(&matrix) {
        t.row(vec![label, f3(norm), f3(speedup)]);
    }
    // Virtual victim cache (reference [10]): misses only (its cross-set
    // motion bypasses the timing-model hit map); its LRU baseline is exact
    // even under `--sampled`, where the matrix's LRU column is an estimate.
    let llc = ctx.llc();
    let vvc_jobs: Vec<Job<'_, f64>> = subset()
        .into_iter()
        .map(|bench| {
            let store = ctx.store.clone();
            Job::new(format!("extensions/vvc/{}", bench.name), move || {
                let w = store.record(&bench, 0);
                let vvc = VirtualVictimCache::run(&w.llc, llc);
                let lru = store.replay_exact(&w.llc, 1, "lru", llc);
                vvc.misses as f64 / lru.stats.misses.max(1) as f64
            })
        })
        .collect();
    let vvc_norms = ctx
        .engine
        .run_batch("extensions/vvc", vvc_jobs)
        .expect_all();
    format!(
        "Extensions: predictor variants under the same DBRB harness \
         (LRU baseline; 2MB LLC)\n\n{}\nVirtual victim cache (SDBP-driven, \
         ref. [10]): mean normalized misses {} (replacement-free capacity \
         borrowing; complements rather than competes with DBRB)\n",
        t.render(),
        f3(amean(&vvc_norms))
    )
}
