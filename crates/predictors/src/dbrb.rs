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
//! # Per-set state
//!
//! Each set has one 16-byte row: its ways in touch order, a
//! [`Recency`] list moved on every hit and fill, and a `u16` of dead bits
//! in that same order. A touch moves the way's dead bit to the front with
//! its nibble. The victim among a full set's predicted-dead blocks is the
//! last dead way in the list, the one touched longest ago. At 2048 × 16
//! lines the rows take 32 KiB, where a per-line dead plane and `u64`
//! last-touch plane took 288 KiB.
//!
//! # The shadow table
//!
//! "Shortly after" means within `window` DBRB clock ticks, `window` being
//! the cache's line count. The table records which block was bypassed or
//! evicted as dead at which tick, as hash chains threaded through a ring
//! indexed by tick. Every record of a block lands in the block's own set
//! (a bypass records the missing block, a dead eviction the victim of the
//! same set), so each set keeps its own chain heads:
//!
//! - **Ring.** `R = next_pow2(window + 1)` entries. Entry `t & (R - 1)`
//!   holds the block recorded at tick `t`, and a link word: a 32-bit
//!   fingerprint of the block and the age back to the previous tick
//!   recorded in the same chain (0 ends the chain). A DBRB access records
//!   at most one block and every access advances the clock, so each tick
//!   owns at most one entry.
//! - **Heads.** One 128-byte row per set of 32 buckets, chosen by a
//!   multiplicative (Fibonacci) hash of the block, each holding a 32-bit
//!   stamp of the newest tick recorded in its chain (the tick plus
//!   `window + 1`, modulo `2^32`, so the zeroed rows start expired). A
//!   miss reads one row and, when the bucket's newest entry is older than
//!   the window (most misses), is done without touching the ring.
//! - **Insert** makes the new tick its bucket's head and links it back to
//!   the old head if that is within the window.
//! - **Recall** walks the bucket's chain from newest to oldest while the
//!   entry's age is at most `window`. An entry whose fingerprint and then
//!   block match is tombstoned (its block becomes `u64::MAX`, above every
//!   trace block, which is a byte address shifted right by the block
//!   offset) and counts a false positive.
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
//! - A head's age is its tick's distance below the clock modulo `2^32`,
//!   which is the true age while that is below `2^32`. At least every
//!   `2^31` ticks a sweep resets every head older than the window to one
//!   exactly `window + 1` old (a head starts there too), so no head comes
//!   near `2^32` ticks old (the window is below `2^30`).
//!
//! At 2048 × 16 lines the ring takes 512 KiB of blocks and 512 KiB of
//! links, and the heads 256 KiB: 1.25 MiB in all, every array allocated
//! zeroed, so untouched pages stay unmapped.
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
use sdbp_cache::lru::Recency;
use sdbp_cache::policy::{Access, ReplacementPolicy, Victim};
use sdbp_cache::{CacheConfig, CacheStats};
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

/// Chain buckets per set.
const SET_BUCKETS: usize = 32;

/// The most ticks between two sweeps of the heads.
const SWEEP_TICKS: u64 = 1 << 31;

/// Heads of slack before the first set's row, enough to start it on a
/// 128-byte boundary.
const HEAD_SLACK: usize = 31;

/// The §VII-C shadow table. See the [module docs](self#the-shadow-table).
#[derive(Clone, Debug)]
struct ShadowTable {
    window: u64,
    /// The block recorded at each tick `t`, at `t & (R - 1)`.
    blocks: Vec<u64>,
    /// Beside each block, its fingerprint in the high half and, in the
    /// low half, the ticks back to the previous entry of its chain; 0 ends
    /// the chain.
    links: Vec<u64>,
    /// Per set, a row of [`SET_BUCKETS`] chain heads, each the stamp of
    /// the newest tick recorded in its bucket: two cache lines, which the
    /// adjacent-line prefetch of common cores fetches as one. Set `s`'s
    /// row is `heads[row0 + 32 s..][..32]`.
    heads: Vec<u32>,
    /// The first row's offset: 128-byte aligned at construction (a plain
    /// allocation, where an over-aligned row type would take the
    /// allocator's aligned path). A clone keeps it, which keeps every row
    /// in bounds if not aligned.
    row0: usize,
    /// `sets - 1`.
    set_mask: u64,
    /// The clock at the last sweep of the heads.
    swept: u64,
}

impl ShadowTable {
    /// # Panics
    ///
    /// Panics if `window` is `2^30` or more (its ring alone would take
    /// 16 GiB), or `sets` is not a power of two.
    fn new(window: u64, sets: usize) -> Self {
        assert!(
            window < SWEEP_TICKS / 2,
            "shadow window {window} reaches 2^30 ticks"
        );
        assert!(
            sets.is_power_of_two(),
            "the shadow heads need a power-of-two set count, got {sets}"
        );
        let ring = usize::try_from(window + 1)
            .unwrap_or(usize::MAX)
            .next_power_of_two();
        // Zeroed, so pages stay unmapped until a set records: a zero head
        // is the stamp of tick `-(window + 1)`, expired from the start.
        let heads = vec![0; sets * SET_BUCKETS + HEAD_SLACK];
        let row0 = heads.as_ptr().align_offset(128).min(HEAD_SLACK);
        ShadowTable {
            window,
            blocks: vec![0; ring],
            links: vec![0; ring],
            heads,
            row0,
            set_mask: sets as u64 - 1,
            swept: 0,
        }
    }

    /// The head of `tick`: its low 32 bits, offset by `window + 1` so that
    /// a zero head is expired at tick 0.
    fn stamp(&self, tick: u64) -> u32 {
        tick.wrapping_add(self.window + 1) as u32
    }

    /// The age at `clock` of a head holding `head`.
    fn age(&self, clock: u64, head: u32) -> u64 {
        u64::from(self.stamp(clock).wrapping_sub(head))
    }

    /// The index in `heads` of `block`'s chain head, and the block's
    /// fingerprint.
    fn chain(&self, block: u64) -> (usize, u32) {
        let hash = block.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let set = (block & self.set_mask) as usize;
        (
            self.row0 + set * SET_BUCKETS + (hash >> 59) as usize,
            (hash >> 27) as u32,
        )
    }

    fn slot(&self, tick: u64) -> usize {
        tick as usize & (self.blocks.len() - 1)
    }

    /// Resets every head older than the window, so none nears wrapping
    /// before the next sweep: `SWEEP_TICKS` ticks on at most, for every
    /// insert and recall runs this first.
    #[cold]
    fn sweep(&mut self, clock: u64) {
        // Exactly `window + 1` ticks old.
        let expired = clock as u32;
        // Heads written since the last sweep are at most the ticks since
        // it old, and a gap of more than `SWEEP_TICKS + window` means no
        // insert ran in its last `window` ticks: every head is stale.
        let all_stale = clock - self.swept > SWEEP_TICKS + self.window;
        for index in 0..self.heads.len() {
            if all_stale || self.age(clock, self.heads[index]) > self.window {
                self.heads[index] = expired;
            }
        }
        self.swept = clock;
    }

    /// Records that `block` was bypassed or evicted as dead at `clock`,
    /// the only record at that tick.
    #[inline]
    fn insert(&mut self, block: BlockAddr, clock: u64) {
        debug_assert!(
            clock != 0 && block.raw() != TOMB,
            "tick 0 and the tombstone are reserved"
        );
        if clock - self.swept >= SWEEP_TICKS {
            self.sweep(clock);
        }
        let (head, print) = self.chain(block.raw());
        let age = self.age(clock, self.heads[head]);
        debug_assert!(age != 0, "two records at tick {clock}");
        // The window fits a `u32` (see `new`); an older head ends the chain.
        let back = if age <= self.window { age } else { 0 };
        self.heads[head] = self.stamp(clock);
        let slot = self.slot(clock);
        self.blocks[slot] = block.raw();
        self.links[slot] = u64::from(print) << 32 | back;
    }

    /// Tombstones `block`'s entries at most `window` ticks before `clock`
    /// and reports whether there were any: a false positive.
    #[inline]
    fn recall(&mut self, block: BlockAddr, clock: u64) -> bool {
        if clock - self.swept >= SWEEP_TICKS {
            self.sweep(clock);
        }
        let block = block.raw();
        let (head, print) = self.chain(block);
        let mut age = self.age(clock, self.heads[head]);
        let mut hit = false;
        while age <= self.window {
            let slot = self.slot(clock - age);
            let link = self.links[slot];
            if (link >> 32) as u32 == print && self.blocks[slot] == block {
                self.blocks[slot] = TOMB;
                hit = true;
            }
            match link as u32 {
                0 => break,
                back => age += u64::from(back),
            }
        }
        hit
    }
}

/// One set's DBRB state: its ways in touch order, and their dead bits in
/// that same order.
#[derive(Copy, Clone, Debug)]
struct Row {
    order: Recency,
    /// Bit `p`: the way at position `p` of `order` is predicted dead.
    /// Bits past the geometry's ways stay clear.
    dead: u16,
}

impl Row {
    /// Moves `way` to the front with dead bit `dead`; returns its old
    /// dead bit.
    #[inline]
    fn touch(&mut self, way: usize, dead: bool) -> bool {
        let at = self.order.promote(way);
        let was = self.dead >> at & 1 != 0;
        // Bits `0..=at` shift up one, dropping `way`'s old bit.
        let ahead = u16::MAX >> (15 - at);
        self.dead = self.dead & !ahead | (self.dead << 1) & ahead | u16::from(dead);
        was
    }
}

/// The dead-block replacement and bypass policy over the default policy
/// `B`. See the [module docs](self).
pub struct DeadBlockReplacement<P, B> {
    base: B,
    predictor: P,
    config: DbrbConfig,
    ways: usize,
    rows: Vec<Row>,
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
    ///
    /// # Panics
    ///
    /// Panics if `cache` has more than [`MAX_WAYS`](sdbp_cache::MAX_WAYS)
    /// ways.
    pub fn new(cache: CacheConfig, base: B, predictor: P, config: DbrbConfig) -> Self {
        DeadBlockReplacement {
            base,
            predictor,
            config,
            ways: cache.ways,
            rows: vec![
                Row {
                    order: Recency::identity(cache.ways),
                    dead: 0,
                };
                cache.sets
            ],
            clock: 0,
            incoming_dead: false,
            stats: PredictorStats::default(),
            // "Soon" = one cache's worth of LLC accesses, a standard
            // proxy for "would still have been resident".
            shadow: ShadowTable::new(cache.lines() as u64, cache.sets),
        }
    }

    /// The wrapped predictor.
    pub fn predictor(&self) -> &P {
        &self.predictor
    }

    /// Counts one consultation of the predictor.
    #[inline]
    fn note_prediction(&mut self, dead: bool) {
        self.stats.predictions += 1;
        self.stats.positives += u64::from(dead);
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
        let dead = self.predictor.on_hit(set, set * self.ways + way, access);
        self.note_prediction(dead);
        // A standing positive prediction on a block touched again while
        // resident was wrong.
        if self.rows[set].touch(way, dead) {
            self.stats.false_positives += 1;
        }
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

    /// Prefers an invalid way (`free`), then the predicted-dead block
    /// touched longest ago (the last dead way in the touch order), then
    /// the default policy's choice.
    #[inline]
    fn choose_victim(&mut self, set: usize, free: Option<usize>, access: &Access) -> Victim {
        if self.config.bypass && self.incoming_dead {
            return Victim::Bypass;
        }
        if free.is_some() {
            return self.base.choose_victim(set, free, access);
        }
        let row = self.rows[set];
        let dead = match self.predictor.reassess(set) {
            Some(by_way) => row.order.by_position(by_way, self.ways),
            None => row.dead,
        };
        if dead == 0 {
            return self.base.choose_victim(set, None, access);
        }
        Victim::Way(row.order.way_at(15 - dead.leading_zeros() as usize))
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, access: &Access) {
        self.predictor.on_fill(set, set * self.ways + way, access);
        // With bypass enabled a dead-on-arrival block never reaches here;
        // without it, the arrival prediction becomes the line's dead bit.
        self.rows[set].touch(way, self.incoming_dead && !self.config.bypass);
        self.base.on_fill(set, way, access);
    }

    #[inline]
    fn on_evict(&mut self, set: usize, way: usize, victim: BlockAddr, access: &Access) {
        let row = self.rows[set];
        if row.dead >> row.order.position(way) & 1 != 0 {
            // Track dead-chosen victims so an imminent re-access counts
            // against the predictor.
            self.shadow.insert(victim, self.clock);
        }
        self.predictor
            .on_evict(set, set * self.ways + way, victim, access);
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

    /// The index of `block`'s chain head.
    fn chain_of(t: &ShadowTable, block: u64) -> usize {
        t.chain(block).0
    }

    /// The ticks on the chain headed at `index` at most `window` old at
    /// `clock`, newest first, and the tick the last of them links back to.
    fn chain(t: &ShadowTable, index: usize, clock: u64) -> (Vec<u64>, Option<u64>) {
        let mut age = t.age(clock, t.heads[index]);
        let mut ticks = Vec::new();
        while age <= t.window {
            ticks.push(clock - age);
            match t.links[t.slot(clock - age)] as u32 {
                0 => return (ticks, None),
                back => age += u64::from(back),
            }
        }
        let beyond = (!ticks.is_empty()).then(|| clock - age);
        (ticks, beyond)
    }

    /// Entries at most `window` ticks old at `clock` and not yet recalled.
    fn live(t: &ShadowTable, clock: u64) -> usize {
        (0..t.heads.len())
            .flat_map(|index| chain(t, index, clock).0)
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
        let mut table = ShadowTable::new(window, 4);
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
                let (within, beyond) = chain(&table, chain_of(&table, block), clock);
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

    /// Every block shares one hash bucket and one set of a 4-set LLC, so
    /// one chain holds every live entry and recalls walk past many
    /// tombstones.
    #[test]
    fn shadow_table_one_bucket_one_set() {
        use sdbp_trace::rng::Rng64;
        let mut rng = Rng64::seed_from_u64(0xc4a1);
        for window in [64u64, 100, 511] {
            let home = ShadowTable::new(window, 4);
            let target = chain_of(&home, 0);
            for universe in [8usize, 64, 300] {
                let blocks: Vec<u64> = (0u64..)
                    .map(|k| k * 64)
                    .filter(|&b| chain_of(&home, b) == target)
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
                let mut table = ShadowTable::new(window, 4);
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
        let mut t = ShadowTable::new(10, 4);
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

    /// The clock crosses several multiples of `2^32` in jumps of up to
    /// `2^33` ticks, so the 32-bit heads wrap, sweeps run late and on
    /// time, and heads live across a sweep; recalls must still agree with
    /// the model.
    #[test]
    fn shadow_table_heads_survive_clock_wraps() {
        use sdbp_trace::rng::Rng64;
        let mut rng = Rng64::seed_from_u64(0x32b1);
        for window in [5u64, 64] {
            let blocks: Vec<u64> = (0..24).collect();
            let jumps = [
                SWEEP_TICKS - 1,
                SWEEP_TICKS,
                SWEEP_TICKS + window,
                1 << 32,
                1 << 33,
            ];
            let seen = against_the_model(window, &blocks, 20_000, &mut rng, |rng| {
                if rng.gen_bool(0.002) {
                    jumps[rng.gen_range(0..jumps.len())] - rng.gen_range(0..3)
                } else {
                    rng.gen_range(1..3)
                }
            });
            assert!(seen.counted > 0, "window {window}: nothing counted");
        }
    }

    /// At the paper's 2 MB LLC the ring takes 1 MiB (blocks and links)
    /// and the heads 256 KiB, one 128-byte row per set.
    #[test]
    fn shadow_table_size_at_the_paper_geometry() {
        let llc = CacheConfig::llc_2mb();
        let t = ShadowTable::new(llc.lines() as u64, llc.sets);
        assert_eq!(
            (t.blocks.len(), t.links.len(), t.heads.len()),
            (1 << 16, 1 << 16, 2048 * SET_BUCKETS + HEAD_SLACK)
        );
        assert_eq!(t.heads[t.row0..].as_ptr().align_offset(128), 0);
        let bytes = std::mem::size_of_val(t.blocks.as_slice())
            + std::mem::size_of_val(t.links.as_slice())
            + std::mem::size_of_val(&t.heads[t.row0..][..2048 * SET_BUCKETS]);
        assert_eq!(bytes, 5 << 18);
    }
}
