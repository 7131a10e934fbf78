//! The policy-driven set-associative cache used to model the LLC.

#![expect(
    clippy::indexing_slicing,
    reason = "hot data plane: the access loop indexes sets/ways validated at construction; recorder.rs and replay.rs stay covered as I/O paths"
)]

use crate::config::CacheConfig;
use crate::efficiency::EfficiencyTracker;
use crate::policy::{Access, LineState, Lru, ReplacementPolicy, Victim};
use crate::stats::CacheStats;
use sdbp_trace::BlockAddr;
use std::fmt;

/// Result of presenting one access to a [`Cache`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum AccessOutcome {
    /// The block was resident.
    Hit,
    /// The block missed and was placed, possibly displacing `evicted`.
    Filled {
        /// The block displaced to make room, if the chosen frame was valid.
        evicted: Option<BlockAddr>,
    },
    /// The block missed and the policy declined to place it.
    Bypassed,
}

impl AccessOutcome {
    /// True for [`AccessOutcome::Hit`].
    pub const fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }

    /// True for any miss outcome.
    pub const fn is_miss(self) -> bool {
        !self.is_hit()
    }
}

/// A set-associative, write-back cache whose replacement and bypass
/// behaviour is delegated to a [`ReplacementPolicy`].
///
/// This models the last-level cache in experiments; the fixed upper levels
/// use the leaner [`crate::lru::LruArray`]. See the
/// [crate docs](crate) for a usage example.
pub struct Cache {
    config: CacheConfig,
    lines: Vec<LineState>,
    policy: Box<dyn ReplacementPolicy>,
    stats: CacheStats,
    efficiency: Option<EfficiencyTracker>,
    now: u64,
}

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache")
            .field("config", &self.config)
            .field("policy", &self.policy.name())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Cache {
    /// Creates a cache with the built-in true-LRU policy.
    pub fn new(config: CacheConfig) -> Self {
        let lru = Lru::new(config.sets, config.ways);
        Self::with_policy(config, Box::new(lru))
    }

    /// Creates a cache driven by an arbitrary policy.
    pub fn with_policy(config: CacheConfig, policy: Box<dyn ReplacementPolicy>) -> Self {
        Cache {
            config,
            lines: vec![
                LineState { valid: false, block: BlockAddr::new(0), dirty: false };
                config.lines()
            ],
            policy,
            stats: CacheStats::default(),
            efficiency: None,
            now: 0,
        }
    }

    /// Enables live/dead-time accounting (costs one pass of bookkeeping per
    /// access; used for the paper's Figure 1).
    pub fn track_efficiency(&mut self) {
        self.efficiency = Some(EfficiencyTracker::new(self.config));
    }

    /// The cache's geometry.
    pub const fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated counters (predictor counters are exported on read).
    pub fn stats(&self) -> CacheStats {
        let mut stats = self.stats.clone();
        self.policy.export_stats(&mut stats);
        stats
    }

    /// The efficiency tracker, if [`Cache::track_efficiency`] was called.
    pub fn efficiency(&self) -> Option<&EfficiencyTracker> {
        self.efficiency.as_ref()
    }

    /// The driving policy (downcast via
    /// [`ReplacementPolicy::as_any`] for policy-specific state).
    pub fn policy(&self) -> &dyn ReplacementPolicy {
        &*self.policy
    }

    /// Set index for a block in this cache.
    pub fn set_of(&self, block: BlockAddr) -> usize {
        block.set_index(self.config.sets)
    }

    /// Whether `block` is currently resident.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.find(block).is_some()
    }

    fn find(&self, block: BlockAddr) -> Option<usize> {
        let set = self.set_of(block);
        let base = set * self.config.ways;
        self.lines[base..base + self.config.ways]
            .iter()
            .position(|l| l.valid && l.block == block)
    }

    /// Presents one access; performs lookup, policy callbacks, fill or
    /// bypass, and all statistics updates.
    pub fn access(&mut self, access: &Access) -> AccessOutcome {
        self.now += 1;
        self.stats.accesses += 1;
        let set = self.set_of(access.block);
        let base = set * self.config.ways;

        if let Some(way) = self.find(access.block) {
            self.stats.hits += 1;
            if access.kind.is_write() {
                self.lines[base + way].dirty = true;
            }
            self.policy.on_hit(set, way, access);
            if let Some(eff) = &mut self.efficiency {
                eff.on_hit(set, way, self.now);
            }
            return AccessOutcome::Hit;
        }

        self.stats.misses += 1;
        self.policy.on_miss(set, access);
        let set_lines = &self.lines[base..base + self.config.ways];
        match self.policy.choose_victim(set, set_lines, access) {
            Victim::Bypass => {
                self.stats.bypasses += 1;
                self.policy.on_bypass(set, access);
                AccessOutcome::Bypassed
            }
            Victim::Way(way) => {
                assert!(
                    way < self.config.ways,
                    "policy {} chose way {way} in a {}-way cache",
                    self.policy.name(),
                    self.config.ways
                );
                let line = self.lines[base + way];
                let evicted = if line.valid {
                    self.stats.evictions += 1;
                    if line.dirty {
                        self.stats.writebacks += 1;
                    }
                    self.policy.on_evict(set, way, line.block, access);
                    if let Some(eff) = &mut self.efficiency {
                        eff.on_evict(set, way, self.now);
                    }
                    Some(line.block)
                } else {
                    None
                };
                self.lines[base + way] = LineState {
                    valid: true,
                    block: access.block,
                    dirty: access.kind.is_write(),
                };
                self.stats.fills += 1;
                self.policy.on_fill(set, way, access);
                if let Some(eff) = &mut self.efficiency {
                    eff.on_fill(set, way, self.now);
                }
                AccessOutcome::Filled { evicted }
            }
        }
    }

    /// Flushes residency bookkeeping at the end of a run so that
    /// still-resident blocks contribute their in-cache time to the
    /// efficiency accounting.
    pub fn finish(&mut self) {
        let now = self.now;
        if let Some(eff) = &mut self.efficiency {
            for set in 0..self.config.sets {
                for way in 0..self.config.ways {
                    if self.lines[set * self.config.ways + way].valid {
                        eff.on_evict(set, way, now);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_trace::{AccessKind, Pc};

    fn acc(block: u64) -> Access {
        Access::demand(Pc::new(0x400), BlockAddr::new(block), AccessKind::Read, 0)
    }

    fn wacc(block: u64) -> Access {
        Access::demand(Pc::new(0x400), BlockAddr::new(block), AccessKind::Write, 0)
    }

    fn tiny() -> Cache {
        // 2 sets, 2 ways.
        Cache::new(CacheConfig::new(2, 2))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(&acc(0)), AccessOutcome::Filled { evicted: None });
        assert!(c.access(&acc(0)).is_hit());
        let s = c.stats();
        assert_eq!((s.accesses, s.hits, s.misses, s.fills), (2, 1, 1, 1));
    }

    #[test]
    fn eviction_reports_displaced_block() {
        let mut c = tiny();
        // Blocks 0, 2, 4 all map to set 0 (even block numbers).
        c.access(&acc(0));
        c.access(&acc(2));
        c.access(&acc(0)); // promote 0; LRU is 2
        match c.access(&acc(4)) {
            AccessOutcome::Filled { evicted: Some(b) } => assert_eq!(b.raw(), 2),
            other => panic!("expected eviction of block 2, got {other:?}"),
        }
        assert!(c.contains(BlockAddr::new(0)));
        assert!(!c.contains(BlockAddr::new(2)));
    }

    #[test]
    fn writeback_counted_for_dirty_victims() {
        let mut c = tiny();
        c.access(&wacc(0));
        c.access(&acc(2));
        c.access(&acc(4)); // evicts dirty block 0
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn write_hit_marks_line_dirty() {
        let mut c = tiny();
        c.access(&acc(0));
        c.access(&wacc(0)); // dirty via hit
        c.access(&acc(2));
        c.access(&acc(4)); // evicts LRU (block 0, dirty)
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn sets_do_not_interfere() {
        let mut c = tiny();
        c.access(&acc(0)); // set 0
        c.access(&acc(1)); // set 1
        c.access(&acc(3)); // set 1
        c.access(&acc(5)); // set 1, evicts within set 1 only
        assert!(c.contains(BlockAddr::new(0)));
    }

    #[test]
    fn bypassing_policy_never_fills() {
        struct AlwaysBypass;
        impl ReplacementPolicy for AlwaysBypass {
            fn name(&self) -> std::borrow::Cow<'static, str> {
                "bypass".into()
            }
            fn on_hit(&mut self, _: usize, _: usize, _: &Access) {}
            fn choose_victim(&mut self, _: usize, _: &[LineState], _: &Access) -> Victim {
                Victim::Bypass
            }
            fn on_fill(&mut self, _: usize, _: usize, _: &Access) {}
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }
        let mut c = Cache::with_policy(CacheConfig::new(2, 2), Box::new(AlwaysBypass));
        for b in 0..10 {
            assert_eq!(c.access(&acc(b)), AccessOutcome::Bypassed);
        }
        let s = c.stats();
        assert_eq!(s.bypasses, 10);
        assert_eq!(s.fills, 0);
        assert_eq!(s.misses, 10);
    }

    #[test]
    fn lru_cache_hit_rate_on_small_loop_is_perfect_after_warmup() {
        let mut c = Cache::new(CacheConfig::new(16, 4)); // 64 blocks
        for round in 0..10 {
            for b in 0..32u64 {
                let outcome = c.access(&acc(b));
                if round > 0 {
                    assert!(outcome.is_hit(), "round {round} block {b} missed");
                }
            }
        }
    }

    #[test]
    fn lru_cache_thrashes_on_oversized_loop() {
        // 64-block cache, 128-block cyclic loop: LRU yields zero hits.
        let mut c = Cache::new(CacheConfig::new(16, 4));
        let mut hits = 0;
        for _ in 0..5 {
            for b in 0..128u64 {
                if c.access(&acc(b)).is_hit() {
                    hits += 1;
                }
            }
        }
        assert_eq!(hits, 0);
    }

    #[test]
    fn outcome_predicates() {
        assert!(AccessOutcome::Hit.is_hit());
        assert!(!AccessOutcome::Hit.is_miss());
        assert!(AccessOutcome::Bypassed.is_miss());
        assert!(AccessOutcome::Filled { evicted: None }.is_miss());
    }
}
