//! Dead block replacement and bypass (paper §V).
//!
//! [`DeadBlockReplacement`] wraps a default [`ReplacementPolicy`] (LRU,
//! random, SRRIP, ...), held by value so its callbacks inline, and any
//! [`DeadBlockPredictor`]. On a miss it prefers to evict a predicted-dead
//! block (the one touched longest ago, i.e. closest to LRU); if the
//! incoming block is predicted dead on arrival it bypasses the cache
//! entirely; otherwise it defers to the default policy.
//!
//! The policy also maintains the coverage/false-positive accounting of
//! paper §VII-C: a hit on a line whose dead bit is set disproves that
//! prediction, and re-accesses shortly after a bypass or dead-block
//! eviction disprove those (the latter two use a recency-bounded shadow
//! table because the counterfactual cache state is unknowable — see
//! DESIGN.md §3).
//!
//! # The shadow table
//!
//! "Shortly after" means within `window` DBRB clock ticks, `window` being
//! the cache's line count. The table records which block was bypassed or
//! evicted as dead at which tick, as hash chains threaded through a ring
//! indexed by tick:
//!
//! - **Ring.** `R = next_pow2(window + 1)` entries. Entry `t & (R - 1)`
//!   holds the block recorded at tick `t` and the age back to the previous
//!   tick recorded in the same hash bucket (0 ends the chain). A DBRB
//!   access records at most one block and every access advances the
//!   clock, so each tick owns at most one entry.
//! - **Heads.** `R / 2` buckets, chosen by a multiplicative (Fibonacci)
//!   hash of the block, each holding the newest tick recorded in it.
//! - **Insert** makes the new tick its bucket's head and links it back to
//!   the old head.
//! - **Recall** walks the bucket's chain from newest to oldest while the
//!   entry's age is at most `window`. A matching entry is tombstoned (its
//!   block becomes `u64::MAX`, above every trace block, which is a byte
//!   address shifted right by the block offset) and counts a false
//!   positive.
//!
//! Nothing ever expires an entry and nothing is deleted or shifted, and
//! the walk is exact:
//!
//! - Ticks fall strictly along a chain, so once one entry is older than
//!   the window every later one is too, and the clock only grows: such an
//!   entry is never visited again. Recall would not have counted it anyway,
//!   since the age test alone decides old entries (see below).
//! - An entry's ring slot is reused only by a tick at least `R > window`
//!   later, when the entry is already older than the window. So the walk,
//!   which tests a tick's age before reading its slot, never reads a slot
//!   that a younger tick has taken over.
//!
//! Every array starts zeroed (tick 0 never occurs, so a zero head means an
//! empty bucket), which leaves untouched pages unmapped. At 2048 × 16
//! lines the ring takes 512 KiB of blocks and 256 KiB of ages, and the
//! heads 256 KiB: 1 MiB in all.
//!
//! It reproduces the `HashMap` the first table replaced exactly. That map
//! removed an entry when its block missed again, counting a false positive
//! if the entry was at most `window` ticks old, overwrote an entry when its
//! block was recorded again, and occasionally dropped every entry at least
//! `window` ticks old. An entry older than `window` can never count again,
//! since the clock only grows, so leaving it in place changes no count.
//! A block recorded twice without a recall in between (which DBRB never
//! does: a block is recalled by the miss that precedes each of its
//! records) leaves two entries in one chain; recall meets the newer first
//! and tombstones both, as the overwrite would have kept only the newer.

use crate::predictor::{DeadBlockPredictor, PredictorStats};
use sdbp_cache::policy::{Access, ReplacementPolicy, Victim};
use sdbp_cache::{CacheConfig, CacheStats, MetaPlane};
use sdbp_trace::BlockAddr;
use std::any::Any;
use std::borrow::Cow;
use std::fmt;

/// Configuration of the DBRB wrapper.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct DbrbConfig {
    /// Whether blocks predicted dead on arrival bypass the cache.
    pub bypass: bool,
}

impl Default for DbrbConfig {
    fn default() -> Self {
        DbrbConfig { bypass: true }
    }
}

/// A recalled entry's block. Trace blocks are byte addresses shifted
/// right by the block offset, so none reaches it.
const TOMB: u64 = u64::MAX;

/// The §VII-C shadow table. See the [module docs](self#the-shadow-table).
#[derive(Clone, Debug)]
struct ShadowTable {
    window: u64,
    /// The block recorded at each tick `t`, at `t & (R - 1)`.
    blocks: Vec<u64>,
    /// Ticks back from the entry at each slot to the previous one in its
    /// bucket; 0 ends the chain.
    back: Vec<u32>,
    /// The newest tick recorded in each bucket; 0 when there is none.
    heads: Vec<u64>,
    /// `64 - log2(heads.len())`: the hash keeps the product's top bits.
    shift: u32,
}

impl ShadowTable {
    /// # Panics
    ///
    /// Panics if `window` does not fit a `u32` age; its ring alone would
    /// take 48 GiB.
    fn new(window: u64) -> Self {
        assert!(
            window < u64::from(u32::MAX),
            "shadow window {window} exceeds a u32 age"
        );
        let ring = usize::try_from(window + 1)
            .unwrap_or(usize::MAX)
            .next_power_of_two();
        let buckets = (ring / 2).max(2);
        ShadowTable {
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

    /// Records that `block` was bypassed or evicted as dead at `clock`,
    /// the only record at that tick.
    fn insert(&mut self, block: BlockAddr, clock: u64) {
        debug_assert!(
            clock != 0 && block.raw() != TOMB,
            "tick 0 and the tombstone are reserved"
        );
        let bucket = self.bucket(block.raw());
        let prev = self.heads[bucket];
        debug_assert!(prev < clock, "two records at tick {clock}");
        let age = clock - prev;
        let slot = self.slot(clock);
        self.blocks[slot] = block.raw();
        // The window fits a `u32` (see `new`); an older head ends the chain.
        self.back[slot] = if prev != 0 && age <= self.window {
            age as u32
        } else {
            0
        };
        self.heads[bucket] = clock;
    }

    /// Tombstones `block`'s entries at most `window` ticks before `clock`
    /// and reports whether there were any: a false positive.
    fn recall(&mut self, block: BlockAddr, clock: u64) -> bool {
        let block = block.raw();
        let mut tick = self.heads[self.bucket(block)];
        let mut hit = false;
        while tick != 0 && clock - tick <= self.window {
            let slot = self.slot(tick);
            if self.blocks[slot] == block {
                self.blocks[slot] = TOMB;
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

/// The dead-block replacement and bypass policy over the default policy
/// `B`. See the [module docs](self).
pub struct DeadBlockReplacement<P, B> {
    base: B,
    predictor: P,
    config: DbrbConfig,
    ways: usize,
    dead: MetaPlane<bool>,
    last_touch: MetaPlane<u64>,
    clock: u64,
    /// Dead-on-arrival prediction for the in-flight miss.
    incoming_dead: bool,
    stats: PredictorStats,
    /// Blocks recently bypassed or evicted-as-dead; a re-access within the
    /// window counts a false positive.
    shadow: ShadowTable,
}

impl<P: DeadBlockPredictor, B: ReplacementPolicy> fmt::Debug for DeadBlockReplacement<P, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeadBlockReplacement")
            .field("base", &self.base.name())
            .field("predictor", &self.predictor.name())
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<P: DeadBlockPredictor, B: ReplacementPolicy> DeadBlockReplacement<P, B> {
    /// Wraps `base` with dead-block replacement and bypass driven by
    /// `predictor`, for a cache of geometry `cache`.
    pub fn new(cache: CacheConfig, base: B, predictor: P, config: DbrbConfig) -> Self {
        DeadBlockReplacement {
            base,
            predictor,
            config,
            ways: cache.ways,
            dead: MetaPlane::new(cache.sets, cache.ways, false),
            last_touch: MetaPlane::new(cache.sets, cache.ways, 0),
            clock: 0,
            incoming_dead: false,
            stats: PredictorStats::default(),
            // "Soon" = one cache's worth of LLC accesses, a standard
            // proxy for "would still have been resident".
            shadow: ShadowTable::new(cache.lines() as u64),
        }
    }

    /// The wrapped predictor.
    pub fn predictor(&self) -> &P {
        &self.predictor
    }

    fn line(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    fn note_prediction(&mut self, dead: bool) {
        self.stats.predictions += 1;
        if dead {
            self.stats.positives += 1;
        }
    }
}

impl<P, B> ReplacementPolicy for DeadBlockReplacement<P, B>
where
    P: DeadBlockPredictor + 'static,
    B: ReplacementPolicy + 'static,
{
    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!(
            "{}+{}-dbrb",
            self.base.name(),
            self.predictor.name()
        ))
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, access: &Access) {
        self.clock += 1;
        let line = self.line(set, way);
        if self.dead[line] {
            // The block was touched again while resident: the standing
            // positive prediction was wrong.
            self.stats.false_positives += 1;
        }
        let dead = self.predictor.on_hit(set, line, access);
        self.note_prediction(dead);
        self.dead[line] = dead;
        self.last_touch[line] = self.clock;
        self.base.on_hit(set, way, access);
    }

    #[inline]
    fn on_miss(&mut self, set: usize, access: &Access) {
        self.clock += 1;
        if self.shadow.recall(access.block, self.clock) {
            self.stats.false_positives += 1;
        }
        self.incoming_dead = self.predictor.on_miss(set, access);
        self.note_prediction(self.incoming_dead);
        self.base.on_miss(set, access);
    }

    #[inline]
    fn choose_victim(&mut self, set: usize, free: Option<usize>, access: &Access) -> Victim {
        if self.config.bypass && self.incoming_dead {
            return Victim::Bypass;
        }
        // Prefer an invalid way (free), then a predicted-dead block
        // (oldest-touched first), then the default policy's choice.
        if free.is_some() {
            return self.base.choose_victim(set, free, access);
        }
        let mut victim: Option<usize> = None;
        let mut oldest = u64::MAX;
        for w in 0..self.ways {
            let line = self.line(set, w);
            let dead = self
                .predictor
                .reassess(set, line)
                .unwrap_or(self.dead[line]);
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

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, access: &Access) {
        let line = self.line(set, way);
        self.predictor.on_fill(set, line, access);
        // With bypass enabled a dead-on-arrival block never reaches here;
        // without it, the arrival prediction becomes the line's dead bit.
        self.dead[line] = self.incoming_dead && !self.config.bypass;
        self.last_touch[line] = self.clock;
        self.base.on_fill(set, way, access);
    }

    #[inline]
    fn on_evict(&mut self, set: usize, way: usize, victim: BlockAddr, access: &Access) {
        let line = self.line(set, way);
        if self.dead[line] {
            // Track dead-chosen victims so an imminent re-access counts
            // against the predictor.
            self.shadow.insert(victim, self.clock);
        }
        self.predictor.on_evict(set, line, victim, access);
        self.base.on_evict(set, way, victim, access);
    }

    #[inline]
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reftrace::RefTrace;
    use sdbp_cache::policy::Lru;
    use sdbp_cache::{Cache, CacheConfig};
    use sdbp_trace::{AccessKind, Pc};

    fn dbrb_cache(cfg: CacheConfig, bypass: bool) -> Cache {
        let base = Lru::new(cfg.sets, cfg.ways);
        let policy =
            DeadBlockReplacement::new(cfg, base, RefTrace::new(cfg), DbrbConfig { bypass });
        Cache::with_policy(cfg, Box::new(policy))
    }

    fn acc(pc: u64, block: u64) -> Access {
        Access::demand(Pc::new(pc), BlockAddr::new(block), AccessKind::Read, 0)
    }

    #[test]
    fn name_mentions_base_and_predictor() {
        let c = dbrb_cache(CacheConfig::new(4, 2), true);
        assert_eq!(c.policy().name(), "LRU+reftrace-dbrb");
    }

    #[test]
    fn streaming_blocks_get_bypassed_after_training() {
        // One-touch blocks from a single PC: after a few generations the
        // predictor learns the PC is dead-on-arrival and bypasses.
        let mut c = dbrb_cache(CacheConfig::new(4, 2), true);
        for b in 0..2000u64 {
            c.access(&acc(0x400, b));
        }
        let s = c.stats();
        assert!(
            s.bypasses > 1000,
            "expected heavy bypassing of the streaming PC, got {}",
            s.bypasses
        );
    }

    #[test]
    fn bypass_disabled_fills_everything() {
        let mut c = dbrb_cache(CacheConfig::new(4, 2), false);
        for b in 0..2000u64 {
            c.access(&acc(0x400, b));
        }
        assert_eq!(c.stats().bypasses, 0);
        assert_eq!(c.stats().fills, 2000);
    }

    #[test]
    #[allow(clippy::explicit_counter_loop)] // `transient` is an address cursor, not a counter
    fn dead_blocks_are_victimized_before_live_ones() {
        // Two block classes in one set: "loop" blocks reused forever and
        // "transient" blocks dead after a second touch by a kill PC.
        // After training, misses should evict transients, not loop blocks.
        let cfg = CacheConfig::new(1, 4);
        let mut c = dbrb_cache(cfg, false);
        let loop_blocks = [0u64, 1];
        let mut transient = 100u64;
        // Train + steady state.
        let mut loop_misses_late = 0;
        for round in 0..400 {
            for &b in &loop_blocks {
                let hit = c.access(&acc(0x500, b)).is_hit();
                if round > 100 && !hit {
                    loop_misses_late += 1;
                }
            }
            // A transient block: touched twice (fill by 0x600, killed by
            // 0x604), never again.
            c.access(&acc(0x600, transient));
            c.access(&acc(0x604, transient));
            transient += 1;
        }
        assert!(
            loop_misses_late <= 4,
            "loop blocks should stay resident once transients are predicted dead, \
             saw {loop_misses_late} late misses"
        );
    }

    #[test]
    fn false_positives_are_counted_on_resident_rehits() {
        let cfg = CacheConfig::new(1, 2);
        let base = Lru::new(cfg.sets, cfg.ways);
        // Train reftrace that PC pair (fill 0x600, hit 0x604) is terminal...
        let policy =
            DeadBlockReplacement::new(cfg, base, RefTrace::new(cfg), DbrbConfig::default());
        let mut c = Cache::with_policy(cfg, Box::new(policy));
        for i in 0..50u64 {
            let b = 10 + 2 * i;
            c.access(&acc(0x600, b));
            c.access(&acc(0x604, b));
            // Displace it so it gets evicted while predicted dead.
            c.access(&acc(0x700, 11 + 2 * i));
            c.access(&acc(0x700, 13 + 2 * i));
        }
        // Now a block follows the "terminal" trace but IS reused: the extra
        // hit must register a false positive.
        let before = c.stats().false_positives;
        c.access(&acc(0x600, 9_000));
        c.access(&acc(0x604, 9_000)); // marks dead
        c.access(&acc(0x608, 9_000)); // disproves it
        let after = c.stats().false_positives;
        assert!(
            after > before,
            "resident re-hit must count a false positive"
        );
    }

    #[test]
    fn coverage_accounting_counts_every_access() {
        let mut c = dbrb_cache(CacheConfig::new(4, 2), true);
        for b in 0..500u64 {
            c.access(&acc(0x400, b % 50));
        }
        let s = c.stats();
        assert_eq!(s.predictions, 500);
        assert!(s.coverage() <= 1.0);
    }

    #[test]
    fn works_with_random_base_policy() {
        use sdbp_replacement::Random;
        let cfg = CacheConfig::new(8, 4);
        let base = Random::new(cfg, 7);
        let policy =
            DeadBlockReplacement::new(cfg, base, RefTrace::new(cfg), DbrbConfig::default());
        let mut c = Cache::with_policy(cfg, Box::new(policy));
        assert_eq!(c.policy().name(), "Random+reftrace-dbrb");
        for b in 0..5_000u64 {
            c.access(&acc(0x400 + (b % 7) * 4, b % 300));
        }
        let s = c.stats();
        assert_eq!(s.accesses, 5_000);
        assert_eq!(s.hits + s.misses, 5_000);
    }

    #[test]
    fn downcast_reaches_policy_state() {
        let cfg = CacheConfig::new(4, 2);
        let c = dbrb_cache(cfg, true);
        let policy = c
            .policy()
            .as_any()
            .downcast_ref::<DeadBlockReplacement<RefTrace, Lru>>()
            .expect("downcast failed");
        assert_eq!(policy.predictor().name(), "reftrace");
        assert_eq!(policy.stats, PredictorStats::default());
    }

    /// The `HashMap` semantics the shadow table replaced: remove on a
    /// miss (counting entries at most `window` old), overwrite on insert,
    /// and drop everything at least `window` old once the map holds more
    /// than `4 * window` entries.
    struct MapModel {
        map: std::collections::BTreeMap<u64, u64>,
        window: u64,
    }

    impl MapModel {
        fn insert(&mut self, block: u64, clock: u64) {
            self.map.insert(block, clock);
        }

        fn recall(&mut self, block: u64, clock: u64) -> bool {
            let hit = self
                .map
                .remove(&block)
                .is_some_and(|when| clock - when <= self.window);
            if self.map.len() > 4 * self.window as usize {
                let cutoff = clock.saturating_sub(self.window);
                self.map.retain(|_, &mut when| when > cutoff);
            }
            hit
        }
    }

    /// The ticks on `bucket`'s chain at most `window` old at `clock`,
    /// newest first, and the tick the last of them links back to.
    fn chain(t: &ShadowTable, bucket: usize, clock: u64) -> (Vec<u64>, Option<u64>) {
        let mut ticks = Vec::new();
        let mut tick = t.heads[bucket];
        while tick != 0 {
            if clock - tick > t.window {
                return (ticks, Some(tick));
            }
            ticks.push(tick);
            match t.back[t.slot(tick)] {
                0 => break,
                back => tick -= u64::from(back),
            }
        }
        (ticks, None)
    }

    /// Entries at most `window` ticks old at `clock` and not yet recalled.
    fn live(t: &ShadowTable, clock: u64) -> usize {
        (0..t.heads.len())
            .flat_map(|bucket| chain(t, bucket, clock).0)
            .filter(|&tick| t.blocks[t.slot(tick)] != TOMB)
            .count()
    }

    /// What [`against_the_model`] saw besides agreement.
    #[derive(Default)]
    struct Seen {
        /// Recalls that counted a false positive.
        counted: usize,
        /// The most entries within the window on one chain at a recall.
        longest: usize,
        /// Recalls whose chain, past its last entry within the window,
        /// links to a ring slot a younger tick has since taken over.
        reused: usize,
    }

    /// Drives the table and the map model with DBRB-shaped steps over
    /// `blocks`, advancing the clock by `step` each time, and asserts
    /// they agree on every recall.
    fn against_the_model(
        window: u64,
        blocks: &[u64],
        steps: usize,
        rng: &mut sdbp_trace::rng::Rng64,
        step: impl Fn(&mut sdbp_trace::rng::Rng64) -> u64,
    ) -> Seen {
        let mut table = ShadowTable::new(window);
        let mut model = MapModel {
            map: Default::default(),
            window,
        };
        // The tick that last wrote each ring slot.
        let mut owner = vec![0u64; table.blocks.len()];
        let mut seen = Seen::default();
        let mut clock = 0u64;
        for _ in 0..steps {
            clock += step(rng);
            let block = blocks[rng.gen_range(0..blocks.len())];
            if rng.gen_bool(0.7) {
                let (within, beyond) = chain(&table, table.bucket(block), clock);
                seen.longest = seen.longest.max(within.len());
                if beyond.is_some_and(|t| owner[table.slot(t)] != t) {
                    seen.reused += 1;
                }
                let expected = model.recall(block, clock);
                assert_eq!(
                    table.recall(BlockAddr::new(block), clock),
                    expected,
                    "window {window}, clock {clock}, block {block:#x}"
                );
                seen.counted += usize::from(expected);
            }
            if rng.gen_bool(0.8) {
                let victim = if rng.gen_bool(0.5) {
                    block
                } else {
                    blocks[rng.gen_range(0..blocks.len())]
                };
                table.insert(BlockAddr::new(victim), clock);
                model.insert(victim, clock);
                owner[table.slot(clock)] = clock;
            }
        }
        seen
    }

    /// Every block shares one hash bucket and one set of a 64-set LLC, so
    /// one chain holds every live entry and recalls walk past many
    /// tombstones.
    #[test]
    fn shadow_table_one_bucket_one_set() {
        use sdbp_trace::rng::Rng64;
        let mut rng = Rng64::seed_from_u64(0xc4a1);
        for window in [64u64, 100, 511] {
            let home = ShadowTable::new(window);
            let target = home.bucket(0);
            for universe in [8usize, 64, 300] {
                let blocks: Vec<u64> = (0u64..)
                    .map(|k| k * 64)
                    .filter(|&b| home.bucket(b) == target)
                    .take(universe)
                    .collect();
                let seen = against_the_model(window, &blocks, 20_000, &mut rng, |_| 1);
                assert!(
                    seen.counted > 0,
                    "window {window}, universe {universe}: nothing counted"
                );
                assert!(
                    seen.longest as u64 >= window / 2,
                    "window {window}, universe {universe}: longest live chain {}",
                    seen.longest
                );
            }
        }
    }

    /// The clock jumps by about a ring's length and more, and inserts are
    /// dense, so chains live at a recall link on into ring slots that
    /// younger ticks have taken over; recalls must still agree with the
    /// model.
    #[test]
    fn shadow_table_ring_reuse_under_live_chains() {
        use sdbp_trace::rng::Rng64;
        let mut rng = Rng64::seed_from_u64(0x71c4);
        for window in [37u64, 63, 100] {
            let ring = (window + 1).next_power_of_two();
            let jumps = [window, window + 1, ring - 1, ring, ring + 1, 2 * ring + 3];
            for universe in [16u64, 200] {
                let blocks: Vec<u64> = (0..universe).collect();
                let seen = against_the_model(window, &blocks, 20_000, &mut rng, |rng| {
                    if rng.gen_bool(0.02) {
                        jumps[rng.gen_range(0..jumps.len())]
                    } else {
                        rng.gen_range(1..3)
                    }
                });
                assert!(
                    seen.counted > 0,
                    "window {window}, universe {universe}: nothing counted"
                );
                assert!(
                    seen.reused > 0,
                    "window {window}, universe {universe}: no reused slot"
                );
            }
        }
    }

    /// Differential test on DBRB-shaped operation streams: every step
    /// advances the clock, may recall one block and may insert one block
    /// (the one just recalled, as a bypass does, or another, as a dead
    /// eviction does). Small block universes make re-insertion after
    /// expiry and ages of exactly `window` common.
    #[test]
    fn shadow_table_matches_the_map_model() {
        use sdbp_trace::rng::Rng64;
        let mut rng = Rng64::seed_from_u64(0x5bad);
        for window in [0u64, 1, 3, 8, 37, 64] {
            for universe in [4u64, 40, 400] {
                let mut table = ShadowTable::new(window);
                let mut model = MapModel {
                    map: Default::default(),
                    window,
                };
                let mut clock = 0u64;
                let (mut at_window, mut counted) = (0, 0);
                for _ in 0..20_000 {
                    clock += if rng.gen_bool(0.01) {
                        rng.gen_range(1..3 * window + 3)
                    } else {
                        1
                    };
                    let block = rng.gen_range(0..universe);
                    if rng.gen_bool(0.7) {
                        if model
                            .map
                            .get(&block)
                            .is_some_and(|&when| clock - when == window)
                        {
                            at_window += 1;
                        }
                        let expected = model.recall(block, clock);
                        assert_eq!(
                            table.recall(BlockAddr::new(block), clock),
                            expected,
                            "window {window}, universe {universe}, clock {clock}, block {block}"
                        );
                        counted += usize::from(expected);
                    }
                    if rng.gen_bool(0.4) {
                        let victim = if rng.gen_bool(0.5) {
                            block
                        } else {
                            rng.gen_range(0..universe)
                        };
                        table.insert(BlockAddr::new(victim), clock);
                        model.insert(victim, clock);
                    }
                    let live = live(&table, clock);
                    assert!(live as u64 <= window + 1, "{live} entries live");
                }
                // A zero window counts nothing: recalls follow inserts by a tick.
                if window > 0 {
                    assert!(
                        counted > 0,
                        "window {window}, universe {universe}: nothing counted"
                    );
                }
                if window > 0 && universe <= 40 {
                    assert!(
                        at_window > 0,
                        "window {window}: no recall at exactly the window"
                    );
                }
            }
        }
    }

    #[test]
    fn shadow_table_boundaries() {
        let b = BlockAddr::new(7);
        let mut t = ShadowTable::new(10);
        t.insert(b, 5);
        assert!(t.recall(b, 15), "age == window is a false positive");
        t.insert(b, 20);
        assert!(!t.recall(b, 31), "age == window + 1 is not");
        assert_eq!(live(&t, 31), 0);
        // Re-insertion after expiry: the stale ring slot must not delete
        // the fresh entry.
        t.insert(b, 40);
        t.insert(BlockAddr::new(8), 60);
        t.insert(b, 61);
        assert!(t.recall(b, 70));
        assert!(!t.recall(BlockAddr::new(8), 71), "older than the window");
        assert_eq!(live(&t, 71), 0);
    }

    /// The table takes 1 MiB for the paper's 2 MB LLC (the linear-probing
    /// table with an expiry ring it replaced took 1.25 MiB).
    #[test]
    fn shadow_table_size_at_the_paper_geometry() {
        let t = ShadowTable::new(CacheConfig::llc_2mb().lines() as u64);
        assert_eq!(
            (t.blocks.len(), t.back.len(), t.heads.len()),
            (1 << 16, 1 << 16, 1 << 15)
        );
        let bytes = std::mem::size_of_val(t.blocks.as_slice())
            + std::mem::size_of_val(t.back.as_slice())
            + std::mem::size_of_val(t.heads.as_slice());
        assert_eq!(bytes, 1 << 20);
    }
}
