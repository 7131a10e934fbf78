//! The dead-block wrapper keeps one row per set (its ways in touch order
//! and their dead bits in that order) and a shadow table whose recall
//! first consults per-set counts of in-window records (`DESIGN.md` §3).
//! It replaced a per-line `last_touch` stamp plane scanned for the oldest
//! dead way, a per-line dead plane, and a shadow recall that walked its
//! hash chain on every miss. That older wrapper is kept below, unchanged
//! but for the set-wide `reassess`, as a model.
//!
//! For every DBRB entry of the registry (over LRU, random and SRRIP
//! bases), on recorded 429.mcf and 456.hmmer streams and on a single-set
//! bypass flood longer than the shadow window, the two must agree on
//! every access outcome and on the §VII-C counters.

use sdbp_suite::cache::policy::{Access, Lru, ReplacementPolicy, Victim};
use sdbp_suite::cache::recorder::{record, LlcAccess};
use sdbp_suite::cache::{Cache, CacheConfig, CacheStats, MetaPlane};
use sdbp_suite::predictors::counting::{Aip, Lvp};
use sdbp_suite::predictors::predictor::{DeadBlockPredictor, PredictorStats};
use sdbp_suite::predictors::reftrace::{BurstMode, RefTrace};
use sdbp_suite::replacement::{Random, Srrip};
use sdbp_suite::sdbp::registry::standard;
use sdbp_suite::sdbp::SamplingPredictor;
use sdbp_suite::trace::{AccessKind, BlockAddr, Pc};
use std::any::Any;
use std::borrow::Cow;

/// The seed the registry's random-based DBRB entries give their base.
const RANDOM_SEED: u64 = 0x5db9;

/// The chained shadow table: hash chains through a tick-indexed ring,
/// walked on every recall.
struct ChainedShadow {
    window: u64,
    blocks: Vec<u64>,
    back: Vec<u32>,
    heads: Vec<u64>,
    shift: u32,
}

impl ChainedShadow {
    fn new(window: u64) -> Self {
        let ring = usize::try_from(window + 1)
            .expect("window fits")
            .next_power_of_two();
        let buckets = (ring / 2).max(2);
        ChainedShadow {
            window,
            blocks: vec![0; ring],
            back: vec![0; ring],
            heads: vec![0; buckets],
            shift: 64 - buckets.trailing_zeros(),
        }
    }

    fn bucket(&self, block: u64) -> usize {
        (block.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    fn slot(&self, tick: u64) -> usize {
        tick as usize & (self.blocks.len() - 1)
    }

    fn insert(&mut self, block: BlockAddr, clock: u64) {
        let bucket = self.bucket(block.raw());
        let prev = self.heads[bucket];
        let age = clock - prev;
        let slot = self.slot(clock);
        self.blocks[slot] = block.raw();
        self.back[slot] = if prev != 0 && age <= self.window {
            age as u32
        } else {
            0
        };
        self.heads[bucket] = clock;
    }

    fn recall(&mut self, block: BlockAddr, clock: u64) -> bool {
        let block = block.raw();
        let mut tick = self.heads[self.bucket(block)];
        let mut hit = false;
        while tick != 0 && clock - tick <= self.window {
            let slot = self.slot(tick);
            if self.blocks[slot] == block {
                self.blocks[slot] = u64::MAX;
                hit = true;
            }
            match self.back[slot] {
                0 => break,
                back => tick -= u64::from(back),
            }
        }
        hit
    }
}

/// The stamp-plane wrapper: per line a dead bit and the clock of its last
/// touch; the victim is the dead way with the oldest stamp.
struct ModelDbrb<P, B> {
    base: B,
    predictor: P,
    ways: usize,
    dead: MetaPlane<bool>,
    last_touch: MetaPlane<u64>,
    clock: u64,
    incoming_dead: bool,
    stats: PredictorStats,
    shadow: ChainedShadow,
}

impl<P, B> ModelDbrb<P, B> {
    fn new(cache: CacheConfig, base: B, predictor: P) -> Self {
        ModelDbrb {
            base,
            predictor,
            ways: cache.ways,
            dead: MetaPlane::new(cache.sets, cache.ways, false),
            last_touch: MetaPlane::new(cache.sets, cache.ways, 0),
            clock: 0,
            incoming_dead: false,
            stats: PredictorStats::default(),
            shadow: ChainedShadow::new(cache.lines() as u64),
        }
    }

    fn note_prediction(&mut self, dead: bool) {
        self.stats.predictions += 1;
        if dead {
            self.stats.positives += 1;
        }
    }
}

impl<P: DeadBlockPredictor + 'static, B: ReplacementPolicy + 'static> ReplacementPolicy
    for ModelDbrb<P, B>
{
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("model")
    }

    fn on_hit(&mut self, set: usize, way: usize, access: &Access) {
        self.clock += 1;
        let line = set * self.ways + way;
        if self.dead[line] {
            self.stats.false_positives += 1;
        }
        let dead = self.predictor.on_hit(set, line, access);
        self.note_prediction(dead);
        self.dead[line] = dead;
        self.last_touch[line] = self.clock;
        self.base.on_hit(set, way, access);
    }

    fn on_miss(&mut self, set: usize, access: &Access) {
        self.clock += 1;
        if self.shadow.recall(access.block, self.clock) {
            self.stats.false_positives += 1;
        }
        self.incoming_dead = self.predictor.on_miss(set, access);
        self.note_prediction(self.incoming_dead);
        self.base.on_miss(set, access);
    }

    fn choose_victim(&mut self, set: usize, free: Option<usize>, access: &Access) -> Victim {
        if self.incoming_dead {
            return Victim::Bypass;
        }
        if free.is_some() {
            return self.base.choose_victim(set, free, access);
        }
        let reassessed = self.predictor.reassess(set);
        let mut victim = None;
        let mut oldest = u64::MAX;
        for w in 0..self.ways {
            let line = set * self.ways + w;
            let dead = reassessed.map_or(self.dead[line], |mask| mask >> w & 1 != 0);
            if dead && self.last_touch[line] < oldest {
                oldest = self.last_touch[line];
                victim = Some(w);
            }
        }
        match victim {
            Some(w) => Victim::Way(w),
            None => self.base.choose_victim(set, None, access),
        }
    }

    fn on_fill(&mut self, set: usize, way: usize, access: &Access) {
        let line = set * self.ways + way;
        self.predictor.on_fill(set, line, access);
        self.dead[line] = false;
        self.last_touch[line] = self.clock;
        self.base.on_fill(set, way, access);
    }

    fn on_evict(&mut self, set: usize, way: usize, victim: BlockAddr, access: &Access) {
        let line = set * self.ways + way;
        if self.dead[line] {
            self.shadow.insert(victim, self.clock);
        }
        self.predictor.on_evict(set, line, victim, access);
        self.base.on_evict(set, way, victim, access);
    }

    fn on_bypass(&mut self, set: usize, access: &Access) {
        self.shadow.insert(access.block, self.clock);
        self.base.on_bypass(set, access);
    }

    fn export_stats(&self, stats: &mut CacheStats) {
        stats.predictions = self.stats.predictions;
        stats.predictions_dead = self.stats.positives;
        stats.false_positives = self.stats.false_positives;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The model of each DBRB registry entry, with the entry's base and
/// predictor.
fn model(name: &str, llc: CacheConfig) -> Option<Box<dyn ReplacementPolicy>> {
    let lru = || Lru::new(llc.sets, llc.ways);
    let random = || Random::new(llc, RANDOM_SEED);
    let sampler = || SamplingPredictor::paper(llc);
    Some(match name {
        "tdbp" => Box::new(ModelDbrb::new(llc, lru(), RefTrace::new(llc))),
        "tdbp-bursts" => Box::new(ModelDbrb::new(
            llc,
            lru(),
            RefTrace::with_mode(llc, BurstMode::Bursts),
        )),
        "cdbp" => Box::new(ModelDbrb::new(llc, lru(), Lvp::new(llc))),
        "aip" => Box::new(ModelDbrb::new(llc, lru(), Aip::new(llc))),
        "sampler" => Box::new(ModelDbrb::new(llc, lru(), sampler())),
        "random-sampler" => Box::new(ModelDbrb::new(llc, random(), sampler())),
        "random-cdbp" => Box::new(ModelDbrb::new(llc, random(), Lvp::new(llc))),
        "sampler-srrip" => Box::new(ModelDbrb::new(llc, Srrip::new(llc), sampler())),
        _ => return None,
    })
}

/// Replays `stream` under every DBRB registry entry and its model,
/// asserting equal outcomes per access and equal counters; returns the
/// entries' counters.
fn assert_models_agree(
    label: &str,
    stream: &[LlcAccess],
    llc: CacheConfig,
) -> Vec<(String, CacheStats)> {
    let registry = standard();
    let mut seen = Vec::new();
    for entry in registry.entries() {
        let policy = registry
            .build_str(entry.name, llc, 1)
            .expect("entry builds");
        if !policy.name().ends_with("-dbrb") {
            continue;
        }
        let model = model(entry.name, llc)
            .unwrap_or_else(|| panic!("DBRB entry {} has no model", entry.name));
        let mut cache = Cache::with_policy(llc, policy);
        let mut reference = Cache::with_policy(llc, model);
        for (i, a) in stream.iter().enumerate() {
            let access = Access::from(a);
            assert_eq!(
                cache.access(&access),
                reference.access(&access),
                "{label} {}: access {i}",
                entry.name
            );
        }
        let (got, want) = (cache.stats(), reference.stats());
        assert_eq!(got, want, "{label} {}: counters", entry.name);
        seen.push((entry.name.to_owned(), got));
    }
    let names: Vec<&str> = seen.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "tdbp",
            "cdbp",
            "sampler",
            "random-sampler",
            "random-cdbp",
            "tdbp-bursts",
            "aip",
            "sampler-srrip"
        ],
        "the DBRB entries of the registry"
    );
    seen
}

#[test]
fn set_rows_match_the_stamp_model_on_suite_streams() {
    for name in ["429.mcf", "456.hmmer"] {
        let bench = sdbp_suite::workloads::benchmark(name).expect("benchmark in suite");
        let w = record(bench.name, bench.trace(), 300_000);
        for llc in [CacheConfig::new(256, 16), CacheConfig::new(128, 8)] {
            let stats = assert_models_agree(name, &w.llc, llc);
            let (predictions, fps) = stats.iter().fold((0, 0), |(p, f), (_, s)| {
                (p + s.predictions, f + s.false_positives)
            });
            assert_eq!(
                predictions,
                8 * w.llc.len() as u64,
                "{name}: one prediction per access"
            );
            assert!(fps > 0, "{name}: no false positive counted");
        }
    }
}

/// Every access maps to set 0, so every shadow record lands in one set's
/// counts. Half the accesses stream never-reused blocks from one PC,
/// which the predictors learn to bypass; the other half cycle through a
/// smaller universe, so some bypassed blocks return within the window
/// (false positives) and some after it. The flood is several windows
/// long, so it fills any per-set structure many times over.
#[test]
fn set_rows_match_the_stamp_model_on_a_single_set_bypass_flood() {
    let llc = CacheConfig::new(1024, 16);
    let window = llc.lines() as u64;
    let len = 4 * window as usize;
    let stream: Vec<LlcAccess> = (0..len)
        .map(|i| {
            let k = i as u64 / 2;
            let (pc, tag) = if i % 2 == 0 {
                (0x400, 1 << 30 | k)
            } else {
                (0x404, k % 3000)
            };
            LlcAccess {
                pc: Pc::new(pc),
                block: BlockAddr::new(tag * llc.sets as u64),
                kind: AccessKind::Read,
                core: 0,
                instr: u32::try_from(i).unwrap_or(u32::MAX),
            }
        })
        .collect();
    let stats = assert_models_agree("flood", &stream, llc);
    let flooded = stats
        .iter()
        .filter(|(_, s)| s.bypasses > window && s.false_positives > 0)
        .count();
    assert!(
        flooded >= 4,
        "only {flooded} entries bypassed a window's worth and counted"
    );
}
