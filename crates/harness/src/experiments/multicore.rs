//! Figure 10: quad-core workloads sharing an 8 MB LLC.
//!
//! One `fig10` job per mix ([`Context::mixes`]) replays the LRU baseline
//! and every policy from the mix's merged stream through the replay front
//! door, the policy built for four cores, then runs the timing model per
//! member on its share of the hit map.

use super::Context;
use crate::runner::{cell, run_policy};
use crate::table::{amean, f3, gmean, TextTable};
use sdbp_cache::replay::split_hits_by_core;
use sdbp_cpu::CoreModel;
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

/// Outcome of one (mix, policy) quad-core run.
struct MixResult {
    /// Weighted speedup `Σ IPC_i / SingleIPC_i` (not yet normalised).
    weighted_ipc: f64,
    /// Total LLC misses across cores.
    misses: u64,
}

struct MixRun {
    name: &'static str,
    baseline: MixResult,
    /// One result per entry of [`POLICIES`].
    results: Vec<MixResult>,
}

/// Per mix, the isolated IPCs (each member alone under exact LRU: the
/// paper's `SingleIPC_i`) and the LRU baseline are shared by every policy.
fn run_all(ctx: &Context) -> Vec<MixRun> {
    let llc = ctx.llc_shared();
    let shards = ctx.store.config().shards;
    // The LRU baseline and every policy replay the merged stream; the
    // members' isolated replays add up to one more.
    ctx.mixes("fig10", POLICIES.len() + 2, |mix, workloads, merged| {
        let alone = |w| run_policy(w, &cell("lru"), llc, shards, None).expect("LRU replays");
        let singles: Vec<f64> = workloads.iter().map(|w| alone(w).ipc).collect();
        let run = |name: &str| {
            let outcome = ctx.store.replay_exact(merged, workloads.len(), name, llc);
            let hits = split_hits_by_core(merged, &outcome.hits, workloads.len())
                .expect("replay hit map aligns with its own input stream");
            let ipcs: Vec<f64> = workloads
                .iter()
                .zip(&hits)
                .map(|(w, hits)| CoreModel::default().simulate(&w.records, hits).ipc())
                .collect();
            MixResult {
                weighted_ipc: sdbp_cpu::weighted_ipc(&ipcs, &singles),
                misses: outcome.stats.misses,
            }
        };
        MixRun {
            name: mix.name,
            baseline: run("lru"),
            results: POLICIES.map(run).into(),
        }
    })
}

fn speedup_table(runs: &[MixRun], cols: Range<usize>) -> String {
    let mut header = vec!["Mix".into()];
    header.extend(POLICIES[cols.clone()].iter().map(|name| cell(name).0));
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
        parts.push(format!("{} {:.2}", cell(POLICIES[i]).0, amean(&norm)));
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
