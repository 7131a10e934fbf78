//! Scenario: consolidating four services onto one socket — a latency-
//! critical pointer-chasing service, a streaming ETL job, and two cache-
//! friendly web workers — sharing an 8 MB LLC. Reports each core's IPC
//! relative to running alone and the weighted speedup of SDBP and TA-DRRIP
//! over shared LRU (the paper's Figure 10 methodology).
//!
//! Run with: `cargo run --release --example shared_cache_consolidation`

use sdbp_suite::cache::recorder::{merge_streams, record_for_core, RecordedWorkload};
use sdbp_suite::cache::replay::{replay, split_hits_by_core};
use sdbp_suite::cache::{Cache, CacheConfig, ReplacementPolicy};
use sdbp_suite::cpu::{weighted_ipc, CoreModel};
use sdbp_suite::replacement::Drrip;
use sdbp_suite::sdbp::policies;
use sdbp_suite::trace::kernel::KernelSpec;
use sdbp_suite::trace::TraceBuilder;

const INSTRUCTIONS: u64 = 1_500_000;

fn service(core: u8, kernels: Vec<KernelSpec>) -> RecordedWorkload {
    let trace = TraceBuilder::new(100 + u64::from(core))
        .kernels(kernels)
        .build();
    record_for_core(&format!("core{core}"), trace, INSTRUCTIONS, core)
}

fn main() {
    let services = vec![
        service(
            0,
            vec![
                KernelSpec::pointer_chase(24 << 20).weight(2.0),
                KernelSpec::hot_set(512 << 10).weight(1.0),
            ],
        ),
        service(1, vec![KernelSpec::streaming(32 << 20).weight(3.0)]),
        service(
            2,
            vec![
                KernelSpec::hot_set(1536 << 10).weight(2.0),
                KernelSpec::classed(4 << 20, 8000, vec![(2.0, 1), (1.0, 4)]).weight(1.0),
            ],
        ),
        service(3, vec![KernelSpec::hot_set(1 << 20).weight(2.0)]),
    ];
    let llc = CacheConfig::llc_8mb();
    let merged = merge_streams(&services);
    let model = CoreModel::default();

    // Isolated IPCs: each service alone on the 8 MB LRU LLC.
    let singles: Vec<f64> = services
        .iter()
        .map(|w| {
            let mut cache = Cache::new(llc);
            let r = replay(&w.llc, &mut cache);
            model.simulate(&w.records, &r.hits).ipc()
        })
        .collect();

    let run = |policy: Box<dyn ReplacementPolicy>| -> (Vec<f64>, f64) {
        let mut cache = Cache::with_policy(llc, policy);
        let result = replay(&merged, &mut cache);
        let per_core = split_hits_by_core(&merged, &result.hits, services.len())
            .expect("replay hit map aligns with the merged stream");
        let ipcs: Vec<f64> = services
            .iter()
            .zip(&per_core)
            .map(|(w, hits)| model.simulate(&w.records, hits).ipc())
            .collect();
        let weighted = weighted_ipc(&ipcs, &singles);
        (ipcs, weighted)
    };

    let (lru_ipcs, lru_weighted) = run(Box::new(sdbp_suite::cache::policy::Lru::new(
        llc.sets, llc.ways,
    )));
    let (rrip_ipcs, rrip_weighted) = run(Box::new(Drrip::new(llc, 4, 1)));
    let (sdbp_ipcs, sdbp_weighted) = run(policies::sampler_lru(llc));

    println!("core  role             alone-IPC  LRU     TA-DRRIP  Sampler");
    println!("-------------------------------------------------------------");
    let roles = ["chaser", "etl-stream", "web-worker-a", "web-worker-b"];
    for i in 0..services.len() {
        println!(
            "{i}     {:<15}  {:8.3}  {:6.3}  {:8.3}  {:7.3}",
            roles[i], singles[i], lru_ipcs[i], rrip_ipcs[i], sdbp_ipcs[i]
        );
    }
    println!(
        "\nnormalized weighted speedup vs shared LRU: TA-DRRIP {:+.1}%, Sampler {:+.1}%",
        (rrip_weighted / lru_weighted - 1.0) * 100.0,
        (sdbp_weighted / lru_weighted - 1.0) * 100.0
    );
}
