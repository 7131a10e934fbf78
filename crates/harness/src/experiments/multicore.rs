//! Figure 10: quad-core workloads sharing an 8 MB LLC.

use super::Context;
use crate::runner::{
    cell, cells, isolated_ipcs, merged_stream, record_mix, run_mix_policy, Cell, MixResult,
};
use crate::table::{amean, f3, gmean, TextTable};
use sdbp_engine::Job;
use sdbp_workloads::mixes;
use std::ops::Range;

/// Policies of Figure 10(a), LRU-default techniques (`rrip` is TA-DRRIP
/// with 4 cores), then of Figure 10(b), random-default techniques.
const POLICIES: [&str; 8] = [
    "tdbp",
    "cdbp",
    "tadip",
    "rrip",
    "sampler",
    "random",
    "random-cdbp",
    "random-sampler",
];

/// Figure 10(a)'s and 10(b)'s columns of [`POLICIES`].
const HALVES: [Range<usize>; 2] = [0..5, 5..8];

struct MixRun {
    name: &'static str,
    baseline: MixResult,
    /// One result per entry of [`POLICIES`].
    results: Vec<MixResult>,
}

/// One job per mix: its merged stream, isolated IPCs and LRU baseline are
/// computed once and shared by every policy of both halves.
fn run_all(ctx: &Context) -> Vec<MixRun> {
    let llc = ctx.llc_shared();
    let jobs: Vec<Job<'_, MixRun>> = mixes()
        .into_iter()
        .map(|mix| {
            let store = ctx.store.clone();
            Job::new(format!("fig10/{}", mix.name), move || {
                let workloads = record_mix(&store, &mix);
                let merged = merged_stream(&workloads);
                let singles = isolated_ipcs(&workloads, llc);
                let run = |c: &Cell| run_mix_policy(&workloads, &merged, &singles, c, llc);
                let baseline = run(&cell("lru"));
                let results = cells(&POLICIES).iter().map(run).collect();
                MixRun {
                    name: mix.name,
                    baseline,
                    results,
                }
            })
        })
        .collect();
    ctx.engine.run_batch("fig10", jobs).expect_all()
}

fn speedup_table(runs: &[MixRun], cols: Range<usize>) -> String {
    let mut header = vec!["Mix".into()];
    header.extend(
        runs[0].results[cols.clone()]
            .iter()
            .map(|r| r.policy.clone()),
    );
    let mut t = TextTable::new(header);
    let mut per_policy: Vec<Vec<f64>> = vec![Vec::new(); cols.len()];
    for run in runs {
        let mut cells = vec![run.name.to_owned()];
        for (i, r) in run.results[cols.clone()].iter().enumerate() {
            let s = r.weighted_ipc / run.baseline.weighted_ipc;
            per_policy[i].push(s);
            cells.push(f3(s));
        }
        t.row(cells);
    }
    let mut means = vec!["gmean".to_owned()];
    for s in &per_policy {
        means.push(f3(gmean(s)));
    }
    t.row(means);
    t.render()
}

fn mpki_summary(runs: &[MixRun], cols: Range<usize>) -> String {
    let mut parts = Vec::new();
    for i in cols {
        let norm: Vec<f64> = runs
            .iter()
            .map(|r| r.results[i].misses as f64 / r.baseline.misses.max(1) as f64)
            .collect();
        parts.push(format!("{} {:.2}", runs[0].results[i].policy, amean(&norm)));
    }
    parts.join(", ")
}

/// Runs both halves of Figure 10 and the §VII-D normalized-MPKI summary.
pub fn fig10(ctx: &Context) -> String {
    let runs = run_all(ctx);
    let [lru, random] = HALVES;
    format!(
        "Figure 10: quad-core normalized weighted speedup, 8MB shared LLC\n\n\
         (a) default LRU\n{}\n(b) default random\n{}\n\
         Average normalized MPKI (LRU baseline = 1.0): {}; {}\n",
        speedup_table(&runs, lru.clone()),
        speedup_table(&runs, random.clone()),
        mpki_summary(&runs, lru),
        mpki_summary(&runs, random),
    )
}
