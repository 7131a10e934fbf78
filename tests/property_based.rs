//! Property-style tests over the core invariants, driven by the in-repo
//! deterministic RNG (fixed seeds, exact reproduction, offline build).

use sdbp_suite::cache::policy::Access;
use sdbp_suite::cache::recorder::LlcAccess;
use sdbp_suite::cache::{Cache, CacheConfig, HitMap};
use sdbp_suite::sdbp::registry::standard;
use sdbp_suite::optimal;
use sdbp_suite::trace::rng::Rng64;
use sdbp_suite::trace::{AccessKind, BlockAddr, Pc};

const CASES: u64 = 48;

/// A compact random access stream: (pc index, block, is_write).
fn random_stream(rng: &mut Rng64, max_len: usize) -> Vec<(u8, u16, bool)> {
    (0..rng.gen_range(1usize..max_len))
        .map(|_| (rng.next_u64() as u8, rng.gen_range(0u64..2048) as u16, rng.gen_bool(0.5)))
        .collect()
}

fn to_accesses(raw: &[(u8, u16, bool)]) -> Vec<Access> {
    raw.iter()
        .map(|&(pc, block, w)| {
            Access::demand(
                Pc::new(0x400 + u64::from(pc) * 4),
                BlockAddr::new(u64::from(block)),
                if w { AccessKind::Write } else { AccessKind::Read },
                0,
            )
        })
        .collect()
}

fn to_llc_stream(raw: &[(u8, u16, bool)]) -> Vec<LlcAccess> {
    raw.iter()
        .enumerate()
        .map(|(i, &(pc, block, w))| LlcAccess {
            pc: Pc::new(0x400 + u64::from(pc) * 4),
            block: BlockAddr::new(u64::from(block)),
            kind: if w { AccessKind::Write } else { AccessKind::Read },
            core: 0,
            instr: i as u32,
        })
        .collect()
}

/// Every registry policy, by name.
fn policy_set() -> Vec<&'static str> {
    standard().entries().iter().map(|e| e.name).collect()
}

/// A cold single-core cache of geometry `cfg` running registry policy `name`.
fn cold_cache(name: &str, cfg: CacheConfig) -> Cache {
    Cache::with_policy(cfg, standard().build_str(name, cfg, 1).expect("registered policy"))
}

/// Counter bookkeeping holds for every policy on any stream.
#[test]
fn stats_are_consistent_for_all_policies() {
    let mut rng = Rng64::seed_from_u64(0x5017_0001);
    for _ in 0..CASES {
        let raw = random_stream(&mut rng, 600);
        let cfg = CacheConfig::new(16, 4);
        let accesses = to_accesses(&raw);
        for policy in policy_set() {
            let mut cache = cold_cache(policy, cfg);
            for a in &accesses {
                cache.access(a);
            }
            let s = cache.stats();
            assert_eq!(s.accesses, accesses.len() as u64);
            assert_eq!(s.hits + s.misses, s.accesses);
            assert_eq!(s.fills + s.bypasses, s.misses);
            assert!(s.evictions <= s.fills);
            assert!(s.writebacks <= s.evictions);
        }
    }
}

/// A cache never reports a hit for a block it has not filled since the
/// block's last eviction (checked via a reference model).
#[test]
#[expect(
    clippy::disallowed_types,
    reason = "the reference residency model is a membership set; its order never reaches an assertion"
)]
fn hits_match_reference_residency_model() {
    let mut rng = Rng64::seed_from_u64(0x5017_0002);
    for _ in 0..CASES {
        let raw = random_stream(&mut rng, 600);
        let cfg = CacheConfig::new(8, 4);
        let accesses = to_accesses(&raw);
        for policy in policy_set() {
            let mut cache = cold_cache(policy, cfg);
            let mut resident: std::collections::HashSet<u64> = Default::default();
            for a in &accesses {
                let outcome = cache.access(a);
                match outcome {
                    sdbp_suite::cache::AccessOutcome::Hit => {
                        assert!(
                            resident.contains(&a.block.raw()),
                            "{}: phantom hit",
                            policy
                        );
                    }
                    sdbp_suite::cache::AccessOutcome::Filled { evicted } => {
                        if let Some(v) = evicted {
                            resident.remove(&v.raw());
                        }
                        resident.insert(a.block.raw());
                    }
                    sdbp_suite::cache::AccessOutcome::Bypassed => {
                        assert!(
                            !resident.contains(&a.block.raw()),
                            "{}: bypassed a resident block",
                            policy
                        );
                    }
                }
            }
        }
    }
}

/// Belady MIN with bypass never misses more than any policy, nor more
/// than MIN without bypass, and its next-use links are sound.
#[test]
fn min_is_optimal_and_next_use_links_sound() {
    let mut rng = Rng64::seed_from_u64(0x5017_0003);
    for _ in 0..CASES {
        let raw = random_stream(&mut rng, 800);
        let cfg = CacheConfig::new(8, 2);
        let stream = to_llc_stream(&raw);
        let next = optimal::next_use_distances(&stream);
        for (i, &n) in next.iter().enumerate() {
            if n != optimal::NEVER {
                let n = n as usize;
                assert!(n > i);
                assert_eq!(stream[n].block, stream[i].block);
                // No intermediate access to the same block.
                for a in &stream[i + 1..n] {
                    assert_ne!(a.block, stream[i].block);
                }
            }
        }
        let min = optimal::simulate(&stream, cfg);
        for policy in policy_set() {
            let mut cache = cold_cache(policy, cfg);
            let misses = sdbp_suite::cache::replay(&stream, &mut cache).stats.misses;
            assert!(min.misses <= misses, "{policy}: {misses} below MIN {}", min.misses);
        }
        let no_bypass = optimal::simulate_no_bypass(&stream, cfg);
        assert!(min.misses <= no_bypass.misses, "bypass made MIN worse");
        assert_eq!(min.hits + min.misses, stream.len() as u64);
    }
}

/// The LRU stack property: with the same set count, a higher-
/// associativity LRU cache hits on a superset of accesses.
#[test]
fn lru_inclusion_across_associativities() {
    let mut rng = Rng64::seed_from_u64(0x5017_0004);
    for _ in 0..CASES {
        let raw = random_stream(&mut rng, 800);
        let stream = to_llc_stream(&raw);
        let mut small = Cache::new(CacheConfig::new(8, 2));
        let mut large = Cache::new(CacheConfig::new(8, 8));
        let rs = sdbp_suite::cache::replay(&stream, &mut small);
        let rl = sdbp_suite::cache::replay(&stream, &mut large);
        for (s, l) in rs.hits.iter().zip(rl.hits.iter()) {
            assert!(!s | l, "small-cache hit missing from large cache");
        }
    }
}

/// The timing model is monotone: turning misses into hits never increases
/// cycles, with and without dependent-load serialization.
///
/// The dependent leg gives every miss its own MSHR. With a bounded MSHR
/// ring and dependent loads the model is *not* monotone: each miss waits
/// for the miss `mshrs` misses earlier, and a hit shifts that pairing onto
/// a miss that can complete later. Smallest case found, 2 MSHRs:
/// `[L1Hit*, Llc, Llc*, Llc, Llc*, L2Hit]` (`*` = dependent) takes 410
/// cycles all-miss and 411 with the second LLC access a hit.
#[test]
fn timing_is_monotone_in_hits() {
    use sdbp_suite::cache::recorder::{InstrKind, InstrRecord};
    use sdbp_suite::cpu::CoreModel;
    let mut rng = Rng64::seed_from_u64(0x5017_0005);
    for _ in 0..CASES {
        let kinds: Vec<(u8, bool)> = (0..rng.gen_range(1usize..400))
            .map(|_| (rng.gen_range(0u64..4) as u8, rng.gen_bool(0.3)))
            .collect();
        let flip = rng.next_u64() as u16;
        let records = |with_dependence: bool| -> Vec<InstrRecord> {
            kinds
                .iter()
                .map(|&(k, dependent)| {
                    let kind = match k {
                        0 => InstrKind::NonMem,
                        1 => InstrKind::L1Hit,
                        2 => InstrKind::L2Hit,
                        _ => InstrKind::Llc,
                    };
                    InstrRecord::new(kind, dependent && with_dependence)
                })
                .collect()
        };
        let llc_count = kinds.iter().filter(|&&(k, _)| k == 3).count();
        let mut hit_bools = vec![false; llc_count];
        let all_miss: HitMap = hit_bools.iter().copied().collect();
        if llc_count > 0 {
            let idx = flip as usize % llc_count;
            hit_bools[idx] = true;
        }
        let one_hit: HitMap = hit_bools.into_iter().collect();
        let legs = [
            (records(false), CoreModel::default()),
            (records(true), CoreModel { mshrs: llc_count.max(1), ..CoreModel::default() }),
        ];
        for (records, model) in &legs {
            let miss_cycles = model.simulate(records, &all_miss).cycles;
            let hit_cycles = model.simulate(records, &one_hit).cycles;
            assert!(hit_cycles <= miss_cycles, "{model:?}: {hit_cycles} > {miss_cycles}");
        }
    }
}

/// Replay determinism for every policy (seeded RNGs, no hidden state).
#[test]
fn replay_is_deterministic_for_all_policies() {
    let mut rng = Rng64::seed_from_u64(0x5017_0006);
    for _ in 0..CASES {
        let raw = random_stream(&mut rng, 400);
        let cfg = CacheConfig::new(16, 4);
        let stream = to_llc_stream(&raw);
        for policy in policy_set() {
            let mut a = cold_cache(policy, cfg);
            let mut b = cold_cache(policy, cfg);
            let ra = sdbp_suite::cache::replay(&stream, &mut a);
            let rb = sdbp_suite::cache::replay(&stream, &mut b);
            assert_eq!(&ra, &rb, "{policy} not deterministic");
        }
    }
}
