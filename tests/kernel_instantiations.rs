//! The LLC kernel has two instantiations of one body (`DESIGN.md` §10):
//! `Cache::access` runs `CacheCore::access` with every policy callback
//! behind the vtable, and `replay` runs the policy's monomorphised
//! `run_stream` loop. For every registry entry, on fixed-seed streams at
//! a small and at the paper's LLC geometry, the two must produce the same
//! per-access hit map and the same counters, predictor counters included.

use sdbp_suite::cache::meta::HitMap;
use sdbp_suite::cache::policy::Access;
use sdbp_suite::cache::recorder::{record, LlcAccess};
use sdbp_suite::cache::replay::replay;
use sdbp_suite::cache::{Cache, CacheConfig};
use sdbp_suite::sdbp::registry::standard;
use sdbp_suite::trace::rng::Rng64;
use sdbp_suite::trace::{AccessKind, BlockAddr, Pc};

/// A random demand stream over `blocks` blocks and a few dozen PCs, with
/// a hot subset so sets see reuse as well as streaming.
fn random_stream(seed: u64, len: usize, blocks: u64) -> Vec<LlcAccess> {
    let mut rng = Rng64::seed_from_u64(seed);
    (0..len)
        .map(|i| {
            let block = if rng.gen_bool(0.6) {
                rng.gen_range(0..blocks / 8)
            } else {
                rng.gen_range(0..blocks)
            };
            LlcAccess {
                pc: Pc::new(0x400 + rng.gen_range(0u64..48) * 4),
                block: BlockAddr::new(block),
                kind: if rng.gen_bool(0.3) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                core: 0,
                instr: u32::try_from(i).unwrap_or(u32::MAX),
            }
        })
        .collect()
}

fn assert_instantiations_agree(stream: &[LlcAccess], llc: CacheConfig) {
    let registry = standard();
    for entry in registry.entries() {
        let build = || {
            let policy = registry
                .build_str(entry.name, llc, 1)
                .expect("bare entry builds");
            Cache::with_policy(llc, policy)
        };
        let mut single = build();
        let hits: HitMap = stream
            .iter()
            .map(|a| single.access(&Access::from(a)).is_hit())
            .collect();
        let batch = replay(stream, &mut build());
        assert_eq!(
            (hits, single.stats()),
            (batch.hits, batch.stats),
            "{} at {}x{}: Cache::access and replay disagree",
            entry.name,
            llc.sets,
            llc.ways
        );
    }
}

#[test]
fn access_loop_equals_batch_replay_at_64_by_4() {
    let llc = CacheConfig::new(64, 4);
    for seed in [1, 2] {
        assert_instantiations_agree(&random_stream(seed, 20_000, 1_024), llc);
    }
}

#[test]
fn access_loop_equals_batch_replay_at_the_paper_llc() {
    let llc = CacheConfig::llc_2mb();
    let bench = sdbp_suite::workloads::benchmark("456.hmmer").expect("workload in suite");
    let recorded = record(bench.name, bench.trace(), 150_000);
    assert!(recorded.llc.len() > 10_000, "hmmer must reach the LLC");
    assert_instantiations_agree(&recorded.llc, llc);
    assert_instantiations_agree(&random_stream(3, 60_000, 1 << 17), llc);
}
