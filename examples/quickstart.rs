//! Quickstart: build a synthetic workload, record its LLC stream once, and
//! compare LRU against the paper's sampling dead block predictor.
//!
//! Run with: `cargo run --release --example quickstart`

use sdbp_suite::cache::recorder::record;
use sdbp_suite::cache::replay::replay;
use sdbp_suite::cache::{Cache, CacheConfig};
use sdbp_suite::sdbp::policies;
use sdbp_suite::trace::kernel::KernelSpec;
use sdbp_suite::trace::TraceBuilder;

fn main() {
    // 1. Describe a workload: a generational working set whose blocks die
    //    after a PC-correlated number of touches, plus a polluting stream.
    let trace = TraceBuilder::new(42)
        .memory_fraction(0.35)
        .kernel(
            KernelSpec::classed(8 << 20, 12_000, vec![(3.0, 1), (1.0, 4), (0.5, 8)])
                .variants(8)
                .weight(3.0),
        )
        .kernel(KernelSpec::streaming(16 << 20).weight(1.0))
        .build();

    // 2. Record 2M instructions through the fixed L1/L2 front once.
    let workload = record("quickstart", trace, 2_000_000);
    println!(
        "recorded {} instructions -> {} LLC accesses ({:.1} per kilo-instruction)",
        workload.instructions(),
        workload.llc.len(),
        workload.llc_apki()
    );

    // 3. Replay the same LLC stream under both policies.
    let llc = CacheConfig::llc_2mb();
    let mut lru = Cache::new(llc);
    let lru_result = replay(&workload.llc, &mut lru);

    let mut sdbp = Cache::with_policy(llc, policies::sampler_lru(llc));
    let sdbp_result = replay(&workload.llc, &mut sdbp);

    let n = workload.instructions();
    println!(
        "LRU     : {:8} misses  (MPKI {:.3})",
        lru_result.misses(),
        lru_result.mpki(n)
    );
    println!(
        "Sampler : {:8} misses  (MPKI {:.3}), {} bypassed fills",
        sdbp_result.misses(),
        sdbp_result.mpki(n),
        sdbp_result.stats.bypasses
    );
    let reduction = 1.0 - sdbp_result.misses() as f64 / lru_result.misses() as f64;
    println!("miss reduction over LRU: {:.1}%", reduction * 100.0);
    println!(
        "predictor coverage {:.1}%, false positives {:.1}% of accesses",
        sdbp_result.stats.coverage() * 100.0,
        sdbp_result.stats.false_positive_rate() * 100.0
    );
}
