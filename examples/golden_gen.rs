//! Regenerates `tests/golden/replay_miss_counts.tsv`, the fixture behind
//! the registry golden test (`tests/golden_replay.rs`) and the CI golden
//! gate: per-policy LLC miss counts on fixed-seed workloads. It also
//! writes `tests/golden/predictor_counters.tsv`: the paper's §VII-C
//! counters (predictions, dead predictions, false positives) of every
//! row whose policy consults a dead block predictor.
//!
//! Every row is keyed by the policy's registry spec string and every
//! policy is built through `sdbp::registry::standard()` — the same path
//! the golden test replays — so the fixture pins both the policies'
//! behaviour and the spec grammar. Re-run this only when a policy's
//! behaviour changes *on purpose*:
//!
//! ```text
//! cargo run --release --offline --example golden_gen
//! ```

use sdbp_suite::cache::recorder::record;
use sdbp_suite::cache::replay::replay;
use sdbp_suite::cache::{Cache, CacheConfig};
use sdbp_suite::sdbp::registry::standard;

/// Workloads × LLC geometries covered by the fixture. The 256-set LLC
/// keeps every set under pressure (policies diverge quickly); the
/// 2048 × 16 row pins the paper geometry.
const ROWS: &[(&str, u64, usize, usize)] = &[
    ("456.hmmer", 500_000, 256, 16),
    ("462.libquantum", 500_000, 256, 16),
    ("456.hmmer", 500_000, 2048, 16),
];

/// Every registry spec the golden gate pins: each base entry plus the
/// parameterized sampler ablation rungs.
const SPECS: &[&str] = &[
    "lru",
    "random",
    "plru",
    "srrip",
    "dip",
    "tadip",
    "rrip",
    "tdbp",
    "tdbp-bursts",
    "cdbp",
    "aip",
    "sampler",
    "sampler-srrip",
    "random-sampler",
    "random-cdbp",
    "sampler:sampler=none,tables=1,entries=16384,threshold=2",
    "sampler:sampler=none",
    "sampler:assoc=16,tables=1,entries=16384,threshold=2",
    "sampler:assoc=16",
    "sampler:tables=1,entries=16384,threshold=2",
];

fn main() {
    let registry = standard();
    let mut counters = String::from(
        "# Golden §VII-C predictor counters (see examples/golden_gen.rs).\n\
         # workload\tinstructions\tsets\tways\tspec\tpredictions\tpredictions_dead\tfalse_positives\n",
    );
    let mut out = String::from(
        "# Golden per-policy LLC miss counts (see examples/golden_gen.rs).\n\
         # workload\tinstructions\tsets\tways\tspec\tmisses\n",
    );
    for &(name, instructions, sets, ways) in ROWS {
        let bench = sdbp_suite::workloads::benchmark(name).expect("workload in suite");
        let w = record(bench.name, bench.trace(), instructions);
        let llc = CacheConfig::new(sets, ways);
        for spec in SPECS {
            let policy = registry
                .build_str(spec, llc, 1)
                .expect("golden spec builds");
            let mut cache = Cache::with_policy(llc, policy);
            let stats = replay(&w.llc, &mut cache).stats;
            let misses = stats.misses;
            out.push_str(&format!(
                "{name}\t{instructions}\t{sets}\t{ways}\t{spec}\t{misses}\n"
            ));
            if stats.predictions > 0 {
                counters.push_str(&format!(
                    "{name}\t{instructions}\t{sets}\t{ways}\t{spec}\t{}\t{}\t{}\n",
                    stats.predictions, stats.predictions_dead, stats.false_positives
                ));
            }
            println!("{name} {sets}x{ways} {spec}: {misses}");
        }
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    std::fs::create_dir_all(dir).expect("create tests/golden");
    for (file, body) in [
        ("replay_miss_counts.tsv", out),
        ("predictor_counters.tsv", counters),
    ] {
        let path = format!("{dir}/{file}");
        std::fs::write(&path, body).expect("write fixture");
        println!("wrote {path}");
    }
}
