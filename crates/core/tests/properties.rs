//! Property-style tests for the sampler and skewed tables, driven by the
//! in-repo deterministic RNG (fixed seeds, exact reproduction, offline
//! build).

use sdbp::config::{SamplerConfig, TableConfig};
use sdbp::{Sampler, SkewedTables};
use sdbp_trace::rng::Rng64;
use sdbp_trace::{BlockAddr, Pc};

const CASES: u64 = 64;

/// Draws one randomized table config, mirroring the old proptest
/// strategy: threshold is always achievable (`<= tables * counter_max`).
fn arb_table_config(rng: &mut Rng64) -> TableConfig {
    let tables = rng.gen_range(1usize..4);
    let log2 = rng.gen_range(8u32..14);
    let max = rng.gen_range(1u8..4);
    let threshold = rng.gen_range(1u32..tables as u32 * u32::from(max) + 1);
    TableConfig {
        tables,
        entries_per_table: 1 << log2,
        threshold,
        counter_max: max,
    }
}

#[test]
fn confidence_is_bounded_by_table_capacity() {
    let mut rng = Rng64::seed_from_u64(0x5dbb_0001);
    for _ in 0..CASES {
        let cfg = arb_table_config(&mut rng);
        let mut t = SkewedTables::new(cfg);
        let max_sum = cfg.tables as u32 * u32::from(cfg.counter_max);
        for _ in 0..rng.gen_range(1usize..500) {
            let sig = rng.next_u64();
            if rng.gen_bool(0.5) {
                t.train_dead(sig);
            } else {
                t.train_live(sig);
            }
            assert!(t.confidence(sig) <= max_sum);
            assert_eq!(t.predict(sig), t.confidence(sig) >= cfg.threshold);
        }
    }
}

#[test]
fn pure_dead_training_saturates_and_pure_live_clears() {
    let mut rng = Rng64::seed_from_u64(0x5dbb_0002);
    for _ in 0..CASES {
        let cfg = arb_table_config(&mut rng);
        let sig = rng.next_u64();
        let mut t = SkewedTables::new(cfg);
        let max_sum = cfg.tables as u32 * u32::from(cfg.counter_max);
        for _ in 0..16 {
            t.train_dead(sig);
        }
        assert_eq!(t.confidence(sig), max_sum);
        assert!(t.predict(sig));
        for _ in 0..16 {
            t.train_live(sig);
        }
        assert_eq!(t.confidence(sig), 0);
        assert!(!t.predict(sig));
    }
}

#[test]
fn sampler_never_exceeds_declared_capacity_and_stays_deterministic() {
    let mut rng = Rng64::seed_from_u64(0x5dbb_0003);
    for _ in 0..CASES {
        let sets = rng.gen_range(1usize..8);
        let assoc = rng.gen_range(1usize..16);
        let accesses: Vec<(u64, u64)> = (0..rng.gen_range(1usize..500))
            .map(|_| (rng.next_u64(), rng.next_u64()))
            .collect();
        let cfg = SamplerConfig {
            sets,
            assoc,
            ..SamplerConfig::default()
        };
        let run = || {
            let mut sampler = Sampler::new(cfg, 2048);
            let mut tables = SkewedTables::new(TableConfig::skewed());
            let mut outcomes = Vec::new();
            for &(block, pc) in &accesses {
                let set = (block as usize) % sets;
                outcomes.push(sampler.access(set, BlockAddr::new(block), Pc::new(pc), &mut tables));
            }
            (outcomes, sampler.hits(), sampler.misses())
        };
        let (a, hits, misses) = run();
        let (b, _, _) = run();
        assert_eq!(&a, &b, "sampler not deterministic");
        assert_eq!(hits + misses, accesses.len() as u64);
    }
}

#[test]
fn sampler_hit_follows_recent_access_of_same_partial_tag() {
    let mut rng = Rng64::seed_from_u64(0x5dbb_0004);
    for _ in 0..CASES {
        let assoc = rng.gen_range(2usize..13);
        let blocks: Vec<u64> = (0..rng.gen_range(2usize..200))
            .map(|_| rng.gen_range(0u64..32))
            .collect();
        // Accessing the same block twice with fewer than `assoc` distinct
        // other tags in between must hit (LRU guarantee). Dead-block
        // victim selection is disabled so strict LRU order holds.
        let cfg = SamplerConfig {
            sets: 1,
            assoc,
            dead_block_victims: false,
            ..SamplerConfig::default()
        };
        let mut sampler = Sampler::new(cfg, 64);
        let mut tables = SkewedTables::new(TableConfig::skewed());
        let mut recent: Vec<u64> = Vec::new(); // most recent first
        for &b in &blocks {
            let block = BlockAddr::new(b << 11); // distinct partial tags
            let hit = sampler.access(0, block, Pc::new(0x400), &mut tables);
            let depth = recent.iter().position(|&x| x == b);
            if let Some(d) = depth {
                if d < assoc {
                    assert!(hit, "block {b} at LRU depth {d} missed (assoc {assoc})");
                }
                recent.remove(d);
            }
            recent.insert(0, b);
        }
    }
}
