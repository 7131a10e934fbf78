//! Dead block replacement and bypass (paper §V).
//!
//! [`DeadBlockReplacement`] wraps any default [`ReplacementPolicy`] (LRU,
//! random, ...) and any [`DeadBlockPredictor`]. On a miss it prefers to
//! evict a predicted-dead block (the one touched longest ago, i.e. closest
//! to LRU); if the incoming block is predicted dead on arrival it bypasses
//! the cache entirely; otherwise it defers to the default policy.
//!
//! The policy also maintains the coverage/false-positive accounting of
//! paper §VII-C: a hit on a line whose dead bit is set disproves that
//! prediction, and re-accesses shortly after a bypass or dead-block
//! eviction disprove those (the latter two use a recency-bounded shadow
//! table because the counterfactual cache state is unknowable — see
//! DESIGN.md §3).

use crate::predictor::{DeadBlockPredictor, PredictorStats};
use sdbp_cache::policy::{Access, LineState, ReplacementPolicy, Victim};
use sdbp_cache::{CacheConfig, CacheStats, MetaPlane};
use sdbp_trace::BlockAddr;
use std::any::Any;
use std::borrow::Cow;
#[expect(clippy::disallowed_types, reason = "shadow tag store is lookup/remove/retain only")]
use std::collections::HashMap;
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

/// The dead-block replacement and bypass policy. See the
/// [module docs](self).
pub struct DeadBlockReplacement<P> {
    base: Box<dyn ReplacementPolicy>,
    predictor: P,
    config: DbrbConfig,
    ways: usize,
    dead: MetaPlane<bool>,
    last_touch: MetaPlane<u64>,
    clock: u64,
    /// Dead-on-arrival prediction for the in-flight miss.
    incoming_dead: bool,
    stats: PredictorStats,
    /// Blocks recently bypassed or evicted-as-dead, with the clock at which
    /// that happened; re-access within the window counts a false positive.
    #[expect(
        clippy::disallowed_types,
        reason = "lookup/remove only; retain is an order-free filter"
    )]
    shadow: HashMap<BlockAddr, u64>,
    shadow_window: u64,
}

impl<P: DeadBlockPredictor> fmt::Debug for DeadBlockReplacement<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeadBlockReplacement")
            .field("base", &self.base.name())
            .field("predictor", &self.predictor.name())
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<P: DeadBlockPredictor> DeadBlockReplacement<P> {
    /// Wraps `base` with dead-block replacement and bypass driven by
    /// `predictor`, for a cache of geometry `cache`.
    pub fn new(
        cache: CacheConfig,
        base: Box<dyn ReplacementPolicy>,
        predictor: P,
        config: DbrbConfig,
    ) -> Self {
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
            #[expect(
                clippy::disallowed_types,
                reason = "lookup/remove only; never iterated into output"
            )]
            shadow: HashMap::new(),
            shadow_window: cache.lines() as u64,
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

    fn check_shadow(&mut self, block: BlockAddr) {
        if let Some(when) = self.shadow.remove(&block) {
            if self.clock - when <= self.shadow_window {
                self.stats.false_positives += 1;
            }
        }
        // Opportunistic aging keeps the map bounded.
        if self.shadow.len() > 4 * self.shadow_window as usize {
            let cutoff = self.clock.saturating_sub(self.shadow_window);
            self.shadow.retain(|_, &mut when| when > cutoff);
        }
    }
}

impl<P: DeadBlockPredictor + 'static> ReplacementPolicy for DeadBlockReplacement<P> {
    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!("{}+{}-dbrb", self.base.name(), self.predictor.name()))
    }

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

    fn on_miss(&mut self, set: usize, access: &Access) {
        self.clock += 1;
        self.check_shadow(access.block);
        self.incoming_dead = self.predictor.on_miss(set, access);
        self.note_prediction(self.incoming_dead);
        self.base.on_miss(set, access);
    }

    fn choose_victim(&mut self, set: usize, lines: &[LineState], access: &Access) -> Victim {
        if self.config.bypass && self.incoming_dead {
            return Victim::Bypass;
        }
        // Prefer an invalid way (free), then a predicted-dead block
        // (oldest-touched first), then the default policy's choice.
        let mut victim: Option<usize> = None;
        let mut oldest = u64::MAX;
        for (w, l) in lines.iter().enumerate() {
            if !l.valid {
                return self.base.choose_victim(set, lines, access);
            }
            let line = self.line(set, w);
            let dead = self.predictor.reassess(set, line).unwrap_or(self.dead[line]);
            if dead && self.last_touch[line] < oldest {
                oldest = self.last_touch[line];
                victim = Some(w);
            }
        }
        match victim {
            Some(w) => Victim::Way(w),
            None => self.base.choose_victim(set, lines, access),
        }
    }

    fn on_fill(&mut self, set: usize, way: usize, access: &Access) {
        let line = self.line(set, way);
        self.predictor.on_fill(set, line, access);
        // With bypass enabled a dead-on-arrival block never reaches here;
        // without it, the arrival prediction becomes the line's dead bit.
        self.dead[line] = self.incoming_dead && !self.config.bypass;
        self.last_touch[line] = self.clock;
        self.base.on_fill(set, way, access);
    }

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
        let base = Box::new(Lru::new(cfg.sets, cfg.ways));
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
        let base = Box::new(Lru::new(cfg.sets, cfg.ways));
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
        let base = Box::new(Random::new(cfg, 7));
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
            .downcast_ref::<DeadBlockReplacement<RefTrace>>()
            .expect("downcast failed");
        assert_eq!(policy.predictor().name(), "reftrace");
        assert_eq!(policy.predictor_stats(), PredictorStats::default());
    }
}
