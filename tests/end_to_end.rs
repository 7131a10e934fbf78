//! Cross-crate integration tests: trace → recorder → replay → timing, for
//! every policy in the experiment matrix.

use sdbp_suite::cache::policy::ReplacementPolicy;
use sdbp_suite::cache::recorder::{merge_streams, record, record_for_core};
use sdbp_suite::cache::replay::{replay, split_hits_by_core};
use sdbp_suite::cache::{Cache, CacheConfig};
use sdbp_suite::cpu::CoreModel;
use sdbp_suite::harness::experiments::singlecore::{ablation_cells, lru_cells, random_cells};
use sdbp_suite::harness::Cell;
use sdbp_suite::sdbp::registry::{standard, PolicySpec};
use sdbp_suite::workloads::{benchmark, mixes, suite};

const N: u64 = 200_000;

/// LRU and every policy of Figures 4 to 8, labelled as in the tables.
fn all_policies() -> Vec<Cell> {
    let mut cells = lru_cells();
    cells.extend(random_cells().into_iter().skip(1));
    cells.extend(ablation_cells().into_iter().skip(1));
    cells
}

fn build(spec: &PolicySpec, llc: CacheConfig, cores: usize) -> Box<dyn ReplacementPolicy> {
    standard()
        .build(spec, llc, cores)
        .expect("registered policy")
}

fn sampler(llc: CacheConfig) -> Box<dyn ReplacementPolicy> {
    build(&PolicySpec::plain("sampler"), llc, 1)
}

#[test]
fn every_policy_runs_every_shape_consistently() {
    let bench = benchmark("456.hmmer").unwrap();
    let w = record(bench.name, bench.trace(), N);
    let llc = CacheConfig::new(256, 16); // small LLC keeps the test fast
    for (label, spec) in all_policies() {
        let mut cache = Cache::with_policy(llc, build(&spec, llc, 1));
        let r = replay(&w.llc, &mut cache);
        assert_eq!(r.stats.accesses, w.llc.len() as u64, "{label}");
        assert_eq!(r.stats.hits + r.stats.misses, r.stats.accesses, "{label}");
        assert!(r.stats.bypasses <= r.stats.misses, "{label}");
        assert_eq!(
            r.stats.fills + r.stats.bypasses,
            r.stats.misses,
            "{}: every miss either fills or bypasses",
            label
        );
        let timing = CoreModel::default().simulate(&w.records, &r.hits);
        assert!(timing.ipc() > 0.0 && timing.ipc() <= 4.0, "{label}");
    }
}

#[test]
fn full_pipeline_is_deterministic() {
    let bench = benchmark("403.gcc").unwrap();
    let run = || {
        let w = record(bench.name, bench.trace(), N);
        let llc = CacheConfig::llc_2mb();
        let mut cache = Cache::with_policy(llc, sampler(llc));
        let r = replay(&w.llc, &mut cache);
        let t = CoreModel::default().simulate(&w.records, &r.hits);
        (r.stats, t.cycles)
    };
    assert_eq!(run(), run());
}

#[test]
fn optimal_is_a_lower_bound_for_every_policy() {
    let bench = benchmark("462.libquantum").unwrap();
    let w = record(bench.name, bench.trace(), N);
    let llc = CacheConfig::new(512, 16);
    let optimal = sdbp_suite::optimal::simulate(&w.llc, llc);
    for (label, spec) in all_policies() {
        let mut cache = Cache::with_policy(llc, build(&spec, llc, 1));
        let r = replay(&w.llc, &mut cache);
        assert!(
            optimal.misses <= r.stats.misses,
            "{} beat MIN: {} < {}",
            label,
            r.stats.misses,
            optimal.misses
        );
    }
}

#[test]
fn multicore_pipeline_conserves_accesses() {
    let mix = &mixes()[0];
    let workloads: Vec<_> = mix
        .benchmarks()
        .iter()
        .enumerate()
        .map(|(core, b)| record_for_core(b.name, b.trace_seeded(core as u64), N / 4, core as u8))
        .collect();
    let merged = merge_streams(&workloads);
    assert_eq!(
        merged.len(),
        workloads.iter().map(|w| w.llc.len()).sum::<usize>()
    );

    let llc = CacheConfig::new(1024, 16);
    let mut cache = Cache::with_policy(llc, build(&PolicySpec::plain("tadip"), llc, 4));
    let r = replay(&merged, &mut cache);
    let per_core = split_hits_by_core(&merged, &r.hits, 4)
        .expect("replay hit map aligns with the merged stream");
    for (w, hits) in workloads.iter().zip(&per_core) {
        assert_eq!(w.llc.len(), hits.len());
        let t = CoreModel::default().simulate(&w.records, hits);
        assert!(t.cycles > 0);
    }
}

#[test]
fn whole_suite_records_nonempty_llc_streams() {
    // Memory-intensive benchmarks must stress the LLC; insensitive ones
    // may be quiet but still record cleanly.
    for b in suite() {
        let w = record(b.name, b.trace(), 60_000);
        assert_eq!(w.instructions(), 60_000, "{}", b.name);
        if b.in_subset {
            assert!(
                w.llc_apki() > 1.0,
                "{} is in the memory-intensive subset but has APKI {}",
                b.name,
                w.llc_apki()
            );
        }
    }
}

#[test]
fn sampler_beats_lru_on_its_showcase_benchmark() {
    let bench = benchmark("456.hmmer").unwrap();
    let w = record(bench.name, bench.trace(), 1_000_000);
    let llc = CacheConfig::llc_2mb();
    let mut lru = Cache::new(llc);
    let lru_misses = replay(&w.llc, &mut lru).stats.misses;
    let mut sdbp = Cache::with_policy(llc, sampler(llc));
    let sdbp_misses = replay(&w.llc, &mut sdbp).stats.misses;
    assert!(
        (sdbp_misses as f64) < 0.97 * lru_misses as f64,
        "sampler ({sdbp_misses}) should clearly beat LRU ({lru_misses}) on hmmer"
    );
}

#[test]
fn bypassing_policies_fill_less_than_lru() {
    let bench = benchmark("462.libquantum").unwrap();
    let w = record(bench.name, bench.trace(), 500_000);
    let llc = CacheConfig::llc_2mb();
    let mut lru = Cache::new(llc);
    let lru_fills = replay(&w.llc, &mut lru).stats.fills;
    let mut sdbp = Cache::with_policy(llc, sampler(llc));
    let s = replay(&w.llc, &mut sdbp).stats;
    assert!(s.bypasses > 0, "streaming workload must trigger bypasses");
    assert!(s.fills < lru_fills);
}
