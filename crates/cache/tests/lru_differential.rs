//! Differential test of the fixed-way [`LruArray`] against a plain
//! stamp-based LRU model kept here: one `(tag, valid, dirty, stamp)`
//! frame per way, lookups by scanning the set, the victim the lowest
//! empty way or else the valid way with the oldest stamp. Both see the
//! same random streams of accesses, `contains` and `write_back`, compared
//! per operation on seven geometries. Then the L1/L2 pair
//! ([`UpperLevels`]) is checked against the same model, on random
//! streams and on two suite workloads.

use sdbp_cache::hierarchy::{ServiceLevel, UpperLevels};
use sdbp_cache::lru::{LruArray, LruOutcome, MAX_WAYS};
use sdbp_cache::CacheConfig;
use sdbp_trace::rng::Rng64;
use sdbp_trace::BlockAddr;

#[derive(Clone, Copy, Default)]
struct Frame {
    tag: u64,
    valid: bool,
    dirty: bool,
    stamp: u64,
}

/// The reference model.
struct StampLru {
    config: CacheConfig,
    frames: Vec<Frame>,
    clock: u64,
}

impl StampLru {
    fn new(config: CacheConfig) -> Self {
        StampLru {
            config,
            frames: vec![Frame::default(); config.lines()],
            clock: 0,
        }
    }

    fn set(&mut self, block: BlockAddr) -> &mut [Frame] {
        let ways = self.config.ways;
        let base = block.set_index(self.config.sets) * ways;
        &mut self.frames[base..base + ways]
    }

    fn contains(&mut self, block: BlockAddr) -> bool {
        self.set(block)
            .iter()
            .any(|f| f.valid && f.tag == block.raw())
    }

    fn access(&mut self, block: BlockAddr, is_write: bool) -> LruOutcome {
        self.clock += 1;
        let now = self.clock;
        let set = self.set(block);
        if let Some(f) = set.iter_mut().find(|f| f.valid && f.tag == block.raw()) {
            f.stamp = now;
            f.dirty |= is_write;
            return LruOutcome {
                hit: true,
                writeback: None,
            };
        }
        let victim = match set.iter().position(|f| !f.valid) {
            Some(w) => w,
            None => (0..set.len()).min_by_key(|&w| set[w].stamp).unwrap(),
        };
        let f = &mut set[victim];
        let writeback = (f.valid && f.dirty).then(|| BlockAddr::new(f.tag));
        *f = Frame {
            tag: block.raw(),
            valid: true,
            dirty: is_write,
            stamp: now,
        };
        LruOutcome {
            hit: false,
            writeback,
        }
    }
}

/// A block from a footprint about `spread` times the cache, now and then
/// one whose raw address is the all-ones empty-frame tag or has the high
/// bits set (each still maps to one set).
fn block(rng: &mut Rng64, config: CacheConfig, spread: u64) -> BlockAddr {
    let footprint = spread * config.lines() as u64;
    match rng.gen_range(0u32..40) {
        0 => BlockAddr::new(u64::MAX),
        1 => BlockAddr::new(u64::MAX - rng.gen_range(0..footprint)),
        _ => BlockAddr::new(rng.gen_range(0..footprint)),
    }
}

/// The geometries under test, from a single frame to the widest set
/// (`MAX_WAYS`, every mask bit and the whole recency word in use).
#[test]
fn fixed_way_array_matches_stamp_model_per_operation() {
    let mut rng = Rng64::seed_from_u64(0x1_2a_11);
    check_geometry::<1>(&mut rng, 1);
    check_geometry::<2>(&mut rng, 2);
    check_geometry::<4>(&mut rng, 4);
    check_geometry::<8>(&mut rng, 64);
    check_geometry::<8>(&mut rng, 512);
    check_geometry::<16>(&mut rng, 32);
    check_geometry::<{ MAX_WAYS }>(&mut rng, 4);
}

/// Random accesses, `contains` and `write_back` on a `sets` x `W` array
/// and the stamp model, compared per operation.
fn check_geometry<const W: usize>(rng: &mut Rng64, sets: usize) {
    let config = CacheConfig::new(sets, W);
    for spread in [1, 2, 4] {
        let mut fast = LruArray::<W>::new(config);
        let mut model = StampLru::new(config);
        for step in 0..20_000 {
            let b = block(rng, config, spread);
            let at = format!("{sets}x{W} spread {spread} step {step} block {b}");
            match rng.gen_range(0u32..10) {
                0 => assert_eq!(fast.contains(b), model.contains(b), "contains at {at}"),
                1 => {
                    let resident = model.contains(b);
                    if resident {
                        model.access(b, true);
                    }
                    assert_eq!(fast.write_back(b), resident, "write_back at {at}");
                }
                _ => {
                    let write = rng.gen_bool(0.3);
                    assert_eq!(
                        fast.access(b, write),
                        model.access(b, write),
                        "access at {at}"
                    );
                }
            }
        }
        let accesses = fast.hits() + fast.misses();
        assert!(
            fast.hits() > 0 && fast.misses() > 0,
            "{sets}x{W}: {accesses} accesses"
        );
    }
}

/// The reference L1/L2 pair: the logic of [`UpperLevels::access`] over
/// two stamp models.
struct ModelUpper {
    l1: StampLru,
    l2: StampLru,
}

impl ModelUpper {
    fn access(&mut self, block: BlockAddr, is_write: bool) -> ServiceLevel {
        let l1 = self.l1.access(block, is_write);
        if l1.hit {
            return ServiceLevel::L1;
        }
        if let Some(wb) = l1.writeback {
            if self.l2.contains(wb) {
                self.l2.access(wb, true);
            }
        }
        if self.l2.access(block, is_write).hit {
            ServiceLevel::L2
        } else {
            ServiceLevel::Llc
        }
    }
}

impl ModelUpper {
    fn new(l1: CacheConfig, l2: CacheConfig) -> Self {
        ModelUpper {
            l1: StampLru::new(l1),
            l2: StampLru::new(l2),
        }
    }
}

#[test]
fn upper_levels_service_levels_match_stamp_model() {
    let mut rng = Rng64::seed_from_u64(0x0bb_e125);
    check_pair::<1, 2>(&mut rng, 1, 2);
    check_pair::<2, 4>(&mut rng, 2, 4);
    check_pair::<8, 8>(&mut rng, 64, 512);
    check_pair::<4, 16>(&mut rng, 4, 32);
}

/// Random demand accesses on an `L1W`/`L2W`-way pair of `l1_sets` and
/// `l2_sets` sets and on the model pair.
fn check_pair<const L1W: usize, const L2W: usize>(rng: &mut Rng64, l1_sets: usize, l2_sets: usize) {
    let (l1, l2) = (
        CacheConfig::new(l1_sets, L1W),
        CacheConfig::new(l2_sets, L2W),
    );
    let mut fast = UpperLevels::<L1W, L2W>::with_configs(l1, l2);
    let mut model = ModelUpper::new(l1, l2);
    for step in 0..50_000 {
        let b = block(rng, l2, 2);
        let write = rng.gen_bool(0.4);
        assert_eq!(
            fast.access(b, write),
            model.access(b, write),
            "{l1:?}/{l2:?} step {step}"
        );
    }
    assert!(fast.l1_hits() > 0 && fast.l2_hits() > 0 && fast.llc_accesses() > 0);
}

/// The paper's pair on the first 400K instructions of two fixed-seed
/// suite streams: 429.mcf (dependent pointer chasing) and 456.hmmer
/// (generational working sets), every memory instruction compared.
#[test]
fn paper_upper_levels_match_stamp_model_on_suite_streams() {
    for name in ["429.mcf", "456.hmmer"] {
        let bench = sdbp_workloads::benchmark(name).expect("suite benchmark");
        let mut fast = UpperLevels::new();
        let mut model = ModelUpper::new(CacheConfig::l1d(), CacheConfig::l2());
        let mut levels = [0u64; 3];
        for (i, instr) in bench.trace().take(400_000).enumerate() {
            let Some(m) = instr.mem else { continue };
            let (block, write) = (m.addr.block(), m.kind.is_write());
            let level = fast.access(block, write);
            assert_eq!(level, model.access(block, write), "{name} instruction {i}");
            levels[level as usize] += 1;
        }
        assert!(levels.iter().all(|&n| n > 0), "{name}: {levels:?}");
        assert_eq!(
            (fast.l1_hits(), fast.l2_hits(), fast.llc_accesses()),
            (levels[0], levels[1], levels[2]),
            "{name}"
        );
    }
}
