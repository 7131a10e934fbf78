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
//! the cache's line count. The table maps a block to the clock at which it
//! was bypassed or evicted as dead:
//!
//! - **Slots.** One flat array of 16-byte `(block, clock)` slots, a power
//!   of two at most twice the live bound, linear probing from a
//!   multiplicative (Fibonacci) hash of the block, and backward-shift
//!   deletion, so no tombstones build up. An empty slot holds the clock
//!   `u64::MAX`. At 2048 × 16 the slots take 1 MiB.
//! - **Expiry.** A FIFO ring, indexed by insertion clock, holds the slot
//!   of the entry each clock inserted (at most one: a DBRB access makes
//!   one insert at most, and every access advances the clock). Deletion
//!   shifts keep it current, so expiring an entry needs no hash or probe.
//!   Before each insert every entry older than the window is deleted, so
//!   at most `window + 1` entries are live and the load factor stays at
//!   or below one half. At 2048 × 16 the ring takes 256 KiB.
//!
//! It reproduces the `HashMap` it replaced exactly. That map removed an
//! entry when its block missed again, counting a false positive if the
//! entry was at most `window` ticks old, and occasionally dropped every
//! entry at least `window` ticks old. An entry older than `window` can
//! never count again, since the clock only grows, and a later insert of
//! its block overwrites it. So deleting it at any moment, as the ring
//! does, changes no count; the age test on removal alone decides them,
//! which is why a recall need not expire anything first.

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

/// One shadow-table slot: a block and the clock it was recorded at.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Slot {
    block: u64,
    when: u64,
}

/// `Slot::when` of an empty slot; the DBRB clock never reaches it.
const EMPTY: u64 = u64::MAX;

/// Ring value of a clock that inserted nothing, or whose entry expired.
const NO_SLOT: u32 = u32::MAX;

impl Slot {
    const VACANT: Slot = Slot { block: 0, when: EMPTY };
}

/// The §VII-C shadow table. See the [module docs](self#the-shadow-table).
#[derive(Clone, Debug)]
struct ShadowTable {
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    len: usize,
    window: u64,
    /// Slot of the entry inserted at each clock, at
    /// `clock & (ring.len() - 1)`; [`NO_SLOT`] once expired. Kept current
    /// as deletions shift entries, so expiry never hashes or probes.
    ring: Vec<u32>,
    /// Insertions before this clock have been expired.
    expired_before: u64,
}

impl ShadowTable {
    fn new(window: u64) -> Self {
        let live = usize::try_from(window).unwrap_or(usize::MAX / 4).saturating_add(1);
        let ring = live.next_power_of_two();
        // At most `window` entries are live before an insert: keep them
        // within half the slots.
        let mut slots = ring.max(8);
        if slots < 2 * (live - 1) {
            slots *= 2;
        }
        ShadowTable {
            slots: vec![Slot::VACANT; slots],
            shift: 64 - slots.trailing_zeros(),
            len: 0,
            window,
            ring: vec![NO_SLOT; ring],
            expired_before: 0,
        }
    }

    fn home(&self, block: u64) -> usize {
        (block.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// The slot holding `block`, or the empty slot ending its probe run.
    fn probe(&self, block: u64) -> (usize, bool) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(block);
        loop {
            let slot = self.slots[i];
            if slot.when == EMPTY {
                return (i, false);
            }
            if slot.block == block {
                return (i, true);
            }
            i = (i + 1) & mask;
        }
    }

    /// Records that the entry inserted at `clock` now lives in `slot`.
    fn point_ring(&mut self, clock: u64, slot: usize) {
        let pos = clock as usize & (self.ring.len() - 1);
        self.ring[pos] = u32::try_from(slot).unwrap_or(NO_SLOT);
    }

    /// Empties slot `hole`, shifting later members of its probe run back
    /// so every entry stays reachable from its home without tombstones.
    fn remove_at(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let slot = self.slots[i];
            if slot.when == EMPTY {
                break;
            }
            let home = self.home(slot.block);
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.slots[hole] = slot;
                self.point_ring(slot.when, hole);
                hole = i;
            }
        }
        self.slots[hole] = Slot::VACANT;
        self.len -= 1;
    }

    /// Deletes every entry inserted more than `window` ticks before
    /// `clock`, walking the ring from where the last call stopped.
    fn expire(&mut self, clock: u64) {
        let stop = clock.saturating_sub(self.window);
        let mask = self.ring.len() - 1;
        // One lap visits every ring slot; a longer jump needs no more.
        let start = self.expired_before.max(stop.saturating_sub(self.ring.len() as u64));
        for t in start..stop {
            let pos = t as usize & mask;
            let i = std::mem::replace(&mut self.ring[pos], NO_SLOT) as usize;
            // The slot may since hold a newer entry (its block was
            // recalled, or re-inserted); only an expired one goes.
            if self.slots.get(i).is_some_and(|s| s.when != EMPTY && s.when < stop) {
                self.remove_at(i);
            }
        }
        self.expired_before = self.expired_before.max(stop);
    }

    /// Records that `block` was bypassed or evicted as dead at `clock`.
    fn insert(&mut self, block: BlockAddr, clock: u64) {
        debug_assert!(clock != EMPTY, "the shadow clock ran out");
        self.expire(clock);
        // One insert per clock tick keeps at most `window` entries here,
        // within half the slots, so probes always reach an empty slot.
        debug_assert!(self.len <= self.slots.len() / 2, "shadow table over half full");
        let (i, found) = self.probe(block.raw());
        self.len += usize::from(!found);
        self.slots[i] = Slot { block: block.raw(), when: clock };
        self.point_ring(clock, i);
    }

    /// Removes `block`'s entry, if any, and reports whether it was
    /// recorded at most `window` ticks before `clock`: a false positive.
    fn recall(&mut self, block: BlockAddr, clock: u64) -> bool {
        let (i, found) = self.probe(block.raw());
        if !found {
            return false;
        }
        let when = self.slots[i].when;
        self.remove_at(i);
        clock - when <= self.window
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

    /// Coverage / false positive counters (paper Figure 9).
    pub fn predictor_stats(&self) -> PredictorStats {
        self.stats
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
        Cow::Owned(format!("{}+{}-dbrb", self.base.name(), self.predictor.name()))
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
            let dead = self.predictor.reassess(set, line).unwrap_or(self.dead[line]);
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
        let policy = DeadBlockReplacement::new(
            cfg,
            base,
            RefTrace::new(cfg),
            DbrbConfig { bypass },
        );
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
        assert!(after > before, "resident re-hit must count a false positive");
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
        let policy = DeadBlockReplacement::new(
            cfg,
            base,
            RefTrace::new(cfg),
            DbrbConfig::default(),
        );
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
        assert_eq!(policy.predictor_stats(), PredictorStats::default());
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
            let hit = self.map.remove(&block).is_some_and(|when| clock - when <= self.window);
            if self.map.len() > 4 * self.window as usize {
                let cutoff = clock.saturating_sub(self.window);
                self.map.retain(|_, &mut when| when > cutoff);
            }
            hit
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
                let mut model = MapModel { map: Default::default(), window };
                let mut clock = 0u64;
                let (mut at_window, mut counted) = (0, 0);
                for _ in 0..20_000 {
                    clock += if rng.gen_bool(0.01) { rng.gen_range(1..3 * window + 3) } else { 1 };
                    let block = rng.gen_range(0..universe);
                    if rng.gen_bool(0.7) {
                        if model.map.get(&block).is_some_and(|&when| clock - when == window) {
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
                        let victim = if rng.gen_bool(0.5) { block } else { rng.gen_range(0..universe) };
                        table.insert(BlockAddr::new(victim), clock);
                        model.insert(victim, clock);
                    }
                    assert!(table.len as u64 <= window + 1, "{} entries live", table.len);
                }
                // A zero window counts nothing: recalls follow inserts by a tick.
                if window > 0 {
                    assert!(counted > 0, "window {window}, universe {universe}: nothing counted");
                }
                if window > 0 && universe <= 40 {
                    assert!(at_window > 0, "window {window}: no recall at exactly the window");
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
        assert_eq!(t.len, 0);
        // Re-insertion after expiry: the stale ring slot must not delete
        // the fresh entry.
        t.insert(b, 40);
        t.insert(BlockAddr::new(8), 60);
        t.insert(b, 61);
        assert!(t.recall(b, 70));
        assert!(!t.recall(BlockAddr::new(8), 71), "older than the window");
        assert_eq!(t.len, 0);
    }

    /// The slot array stays at 1 MiB for the paper's 2 MB LLC.
    #[test]
    fn shadow_table_size_at_the_paper_geometry() {
        let t = ShadowTable::new(CacheConfig::llc_2mb().lines() as u64);
        assert_eq!(t.slots.len() * std::mem::size_of::<Slot>(), 1 << 20);
        assert_eq!(t.ring.len() * std::mem::size_of::<u32>(), 256 << 10);
    }
}
