//! Property-style tests for the cache substrate, driven by the in-repo
//! deterministic RNG (fixed seeds, exact reproduction, offline build).

use sdbp_cache::efficiency::EfficiencyTracker;
use sdbp_cache::full::FullHierarchy;
use sdbp_cache::lru::LruArray;
use sdbp_cache::policy::Access;
use sdbp_cache::recorder::LlcAccess;
use sdbp_cache::replay::replay_with_probe;
use sdbp_cache::{Cache, CacheConfig};
use sdbp_trace::rng::Rng64;
use sdbp_trace::{AccessKind, Addr, BlockAddr, Instr, MemRef, Pc};

const CASES: u64 = 64;

/// set_index/tag decompose and reassemble any block address for any
/// power-of-two geometry.
#[test]
fn set_and_tag_reassemble() {
    let mut rng = Rng64::seed_from_u64(0xcac_0001);
    for _ in 0..CASES * 8 {
        let block = rng.next_u64();
        let log2_sets = rng.gen_range(0u32..20);
        let sets = 1usize << log2_sets;
        let b = BlockAddr::new(block);
        let set = b.set_index(sets) as u64;
        let tag = b.tag(sets);
        assert_eq!((tag << log2_sets) | set, block);
    }
}

/// The lean LRU array and the policy-driven cache with the LRU policy
/// agree on every access of any stream.
#[test]
fn lean_and_policy_lru_agree() {
    let mut rng = Rng64::seed_from_u64(0xcac_0002);
    for _ in 0..CASES {
        let cfg = CacheConfig::new(1 << rng.gen_range(0u32..5), rng.gen_range(1usize..9));
        let accesses: Vec<(u64, bool)> = (0..rng.gen_range(1usize..800))
            .map(|_| (rng.gen_range(0u64..512), rng.gen_bool(0.5)))
            .collect();
        match cfg.ways {
            1 => lean_and_policy_agree::<1>(cfg, &accesses),
            2 => lean_and_policy_agree::<2>(cfg, &accesses),
            3 => lean_and_policy_agree::<3>(cfg, &accesses),
            4 => lean_and_policy_agree::<4>(cfg, &accesses),
            5 => lean_and_policy_agree::<5>(cfg, &accesses),
            6 => lean_and_policy_agree::<6>(cfg, &accesses),
            7 => lean_and_policy_agree::<7>(cfg, &accesses),
            8 => lean_and_policy_agree::<8>(cfg, &accesses),
            ways => unreachable!("drew {ways} ways"),
        }
    }
}

/// One stream of `lean_and_policy_lru_agree` on a `W`-way geometry.
fn lean_and_policy_agree<const W: usize>(cfg: CacheConfig, accesses: &[(u64, bool)]) {
    let mut lean = LruArray::<W>::new(cfg);
    let mut policy = Cache::new(cfg);
    for &(block, write) in accesses {
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let a = Access::demand(Pc::new(0), BlockAddr::new(block), kind, 0);
        let lean_hit = lean.access(BlockAddr::new(block), write).hit;
        assert_eq!(lean_hit, policy.access(&a).is_hit());
    }
    assert_eq!(lean.hits(), policy.stats().hits);
}

/// LRU residency never exceeds ways per set, and contains() agrees with
/// observed outcomes.
#[test]
fn residency_is_bounded_by_capacity() {
    let mut rng = Rng64::seed_from_u64(0xcac_0003);
    for _ in 0..CASES / 2 {
        let ways = rng.gen_range(1usize..6);
        let accesses: Vec<u64> = (0..rng.gen_range(1usize..600))
            .map(|_| rng.gen_range(0u64..256))
            .collect();
        let cfg = CacheConfig::new(4, ways);
        let mut cache = Cache::new(cfg);
        for &b in &accesses {
            cache.access(&Access::demand(
                Pc::new(0),
                BlockAddr::new(b),
                AccessKind::Read,
                0,
            ));
            let resident = (0u64..256)
                .filter(|&x| cache.contains(BlockAddr::new(x)))
                .count();
            assert!(resident <= cfg.lines());
        }
    }
}

/// The full hierarchy's non-inclusive LLC statistics match record+replay
/// on arbitrary little instruction streams.
#[test]
fn full_hierarchy_matches_record_replay() {
    let mut rng = Rng64::seed_from_u64(0xcac_0004);
    for _ in 0..CASES {
        let instrs: Vec<Instr> = (0..rng.gen_range(1usize..600))
            .map(|_| {
                let block = rng.gen_range(0u64..4096);
                let write = rng.gen_bool(0.5);
                if rng.gen_bool(0.5) {
                    let addr = Addr::new(block << 6);
                    let m = if write {
                        MemRef::write(addr)
                    } else {
                        MemRef::read(addr)
                    };
                    Instr::mem(Pc::new(0x400), m)
                } else {
                    Instr::non_mem(Pc::new(0x100))
                }
            })
            .collect();
        let llc_cfg = CacheConfig::new(32, 4);
        let mut full = FullHierarchy::new(Cache::new(llc_cfg));
        for i in &instrs {
            full.execute(i);
        }
        let w = sdbp_cache::record("p", instrs.clone(), instrs.len() as u64);
        let mut cache = Cache::new(llc_cfg);
        let r = sdbp_cache::replay(&w.llc, &mut cache);
        assert_eq!(full.llc().stats().hits, r.stats.hits);
        assert_eq!(full.llc().stats().misses, r.stats.misses);
    }
}

/// Efficiency, driven as a replay probe, is always a valid ratio: no
/// frame is live for longer than it is resident, and a stream that never
/// hits is fully dead.
#[test]
fn efficiency_is_a_valid_ratio() {
    let mut rng = Rng64::seed_from_u64(0xcac_0006);
    let cfg = CacheConfig::new(4, 2);
    let tracked = |blocks: &[u64]| {
        let stream: Vec<LlcAccess> = blocks
            .iter()
            .map(|&b| LlcAccess {
                pc: Pc::new(0),
                block: BlockAddr::new(b),
                kind: AccessKind::Read,
                core: 0,
                instr: 0,
            })
            .collect();
        let mut tracker = EfficiencyTracker::new(cfg);
        let r = replay_with_probe(&stream, &mut Cache::new(cfg), &mut tracker);
        tracker.finish();
        (r.stats.hits, tracker)
    };
    for _ in 0..CASES {
        let blocks: Vec<u64> = (0..rng.gen_range(2usize..400))
            .map(|_| rng.gen_range(0u64..128))
            .collect();
        let (_, tracker) = tracked(&blocks);
        let overall = tracker.overall();
        assert!((0.0..=1.0).contains(&overall), "efficiency {overall}");
        for set in 0..cfg.sets {
            for way in 0..cfg.ways {
                let (live, total) = tracker.times(set, way);
                assert!(
                    live <= total,
                    "frame ({set}, {way}): live {live} > total {total}"
                );
            }
        }
        let fresh: Vec<u64> = (0..blocks.len() as u64).collect();
        let (hits, tracker) = tracked(&fresh);
        assert_eq!(hits, 0, "distinct blocks never hit");
        assert_eq!(tracker.overall(), 0.0);
    }
}
