//! Property-style tests over the core invariants, driven by the in-repo
//! deterministic RNG (fixed seeds, exact reproduction, offline build).

use sdbp_suite::cache::policy::Access;
use sdbp_suite::cache::recorder::LlcAccess;
use sdbp_suite::cache::{Cache, CacheConfig, HitMap};
use sdbp_suite::harness::runner::PolicyKind;
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

fn policy_set() -> Vec<PolicyKind> {
    let mut kinds = vec![PolicyKind::Lru];
    kinds.extend(PolicyKind::lru_comparison());
    kinds.extend(PolicyKind::random_comparison());
    kinds
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
            let mut cache = Cache::with_policy(cfg, policy.build(cfg, 1));
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
            let mut cache = Cache::with_policy(cfg, policy.build(cfg, 1));
            let mut resident: std::collections::HashSet<u64> = Default::default();
            for a in &accesses {
                let outcome = cache.access(a);
                match outcome {
                    sdbp_suite::cache::AccessOutcome::Hit => {
                        assert!(
                            resident.contains(&a.block.raw()),
                            "{}: phantom hit",
                            policy.label()
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
                            policy.label()
                        );
                    }
                }
            }
        }
    }
}

/// Belady MIN with bypass never misses more than LRU, and its next-use
/// links are sound.
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
        let mut lru = Cache::new(cfg);
        let lru_result = sdbp_suite::cache::replay(&stream, &mut lru);
        assert!(min.misses <= lru_result.stats.misses);
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
/// cycles.
#[test]
fn timing_is_monotone_in_hits() {
    use sdbp_suite::cache::recorder::{InstrKind, InstrRecord};
    use sdbp_suite::cpu::CoreModel;
    let mut rng = Rng64::seed_from_u64(0x5017_0005);
    for _ in 0..CASES {
        let kinds: Vec<u8> =
            (0..rng.gen_range(1usize..400)).map(|_| rng.gen_range(0u64..4) as u8).collect();
        let flip = rng.next_u64() as u16;
        let records: Vec<InstrRecord> = kinds
            .iter()
            .map(|&k| {
                let kind = match k {
                    0 => InstrKind::NonMem,
                    1 => InstrKind::L1Hit,
                    2 => InstrKind::L2Hit,
                    _ => InstrKind::Llc,
                };
                InstrRecord::new(kind, false)
            })
            .collect();
        let llc_count = records.iter().filter(|r| r.kind() == InstrKind::Llc).count();
        let mut hit_bools = vec![false; llc_count];
        let all_miss: HitMap = hit_bools.iter().copied().collect();
        if llc_count > 0 {
            let idx = flip as usize % llc_count;
            hit_bools[idx] = true;
        }
        let one_hit: HitMap = hit_bools.into_iter().collect();
        let model = CoreModel::default();
        let miss_cycles = model.simulate(&records, &all_miss).cycles;
        let hit_cycles = model.simulate(&records, &one_hit).cycles;
        assert!(hit_cycles <= miss_cycles);
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
            let mut a = Cache::with_policy(cfg, policy.build(cfg, 1));
            let mut b = Cache::with_policy(cfg, policy.build(cfg, 1));
            let ra = sdbp_suite::cache::replay(&stream, &mut a);
            let rb = sdbp_suite::cache::replay(&stream, &mut b);
            assert_eq!(&ra, &rb, "{} not deterministic", policy.label());
        }
    }
}
