//! The policy-driven set-associative cache used to model the LLC.

#![expect(
    clippy::indexing_slicing,
    reason = "hot data plane: the access loop indexes sets/ways validated at construction; recorder.rs and replay.rs stay covered as I/O paths"
)]

use crate::config::CacheConfig;
use crate::efficiency::EfficiencyTracker;
use crate::policy::{Access, Lru, ReplacementPolicy, Victim};
use crate::recorder::LlcAccess;
use crate::replay::Outcomes;
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

/// Tag value of an empty frame. Real block addresses are byte addresses
/// shifted right by six, so they never reach it; a lookup of this exact
/// value still consults the valid mask, so even `BlockAddr::new(u64::MAX)`
/// is exact.
const INVALID_TAG: u64 = u64::MAX;

/// The tag store and counters of a [`Cache`]: everything but the policy.
///
/// Structure of arrays: one `u64` tag per frame (`set * ways + way`, with
/// `INVALID_TAG` in empty frames), and per set a valid mask and a dirty
/// mask of `ways.div_ceil(64)` words each. A lookup compares only the
/// set's tags; the first free way is one `trailing_ones` on the valid
/// mask.
///
/// [`CacheCore::access`] is the one implementation of an LLC access,
/// generic over the policy type; [`CacheCore::run`] loops it over a
/// stream. See the [`policy`](crate::policy) module docs for why the loop
/// lives behind [`ReplacementPolicy::run_stream`].
#[derive(Clone, Debug)]
pub struct CacheCore {
    config: CacheConfig,
    tags: Vec<u64>,
    valid: Vec<u64>,
    dirty: Vec<u64>,
    /// Mask words per set.
    words: usize,
    stats: CacheStats,
    efficiency: Option<EfficiencyTracker>,
    now: u64,
}

impl CacheCore {
    fn new(config: CacheConfig) -> Self {
        let words = config.ways.div_ceil(64);
        CacheCore {
            config,
            tags: vec![INVALID_TAG; config.lines()],
            valid: vec![0; config.sets * words],
            dirty: vec![0; config.sets * words],
            words,
            stats: CacheStats::default(),
            efficiency: None,
            now: 0,
        }
    }

    fn mask_bit(&self, set: usize, way: usize) -> (usize, u64) {
        (set * self.words + way / 64, 1u64 << (way % 64))
    }

    fn is_valid(&self, set: usize, way: usize) -> bool {
        let (word, bit) = self.mask_bit(set, way);
        self.valid[word] & bit != 0
    }

    /// The way of `set` holding `block`, if resident.
    #[inline]
    fn find(&self, set: usize, block: BlockAddr) -> Option<usize> {
        let base = set * self.config.ways;
        let tags = &self.tags[base..base + self.config.ways];
        let raw = block.raw();
        let way = tags.iter().position(|&t| t == raw)?;
        if raw != INVALID_TAG {
            return Some(way);
        }
        (way..tags.len()).find(|&w| tags[w] == raw && self.is_valid(set, w))
    }

    /// The lowest invalid way of `set`, if any. Mask bits past `ways` are
    /// never set, so the first clear bit of a full set's last word lands
    /// on `ways`.
    #[inline]
    fn first_free(&self, set: usize) -> Option<usize> {
        let row = &self.valid[set * self.words..(set + 1) * self.words];
        let (i, word) = row.iter().enumerate().find(|(_, &w)| w != u64::MAX)?;
        let way = i * 64 + word.trailing_ones() as usize;
        (way < self.config.ways).then_some(way)
    }

    /// Presents one access under `policy`; performs lookup, policy
    /// callbacks, fill or bypass, and all statistics updates.
    ///
    /// # Panics
    ///
    /// Panics if the policy chooses a way outside the set.
    #[inline(always)]
    pub fn access<P: ReplacementPolicy + ?Sized>(
        &mut self,
        policy: &mut P,
        access: &Access,
    ) -> AccessOutcome {
        self.now += 1;
        self.stats.accesses += 1;
        let set = access.block.set_index(self.config.sets);

        if let Some(way) = self.find(set, access.block) {
            self.stats.hits += 1;
            if access.kind.is_write() {
                let (word, bit) = self.mask_bit(set, way);
                self.dirty[word] |= bit;
            }
            policy.on_hit(set, way, access);
            if let Some(eff) = &mut self.efficiency {
                eff.on_hit(set, way, self.now);
            }
            return AccessOutcome::Hit;
        }

        self.stats.misses += 1;
        policy.on_miss(set, access);
        let free = self.first_free(set);
        let way = match policy.choose_victim(set, free, access) {
            Victim::Bypass => {
                self.stats.bypasses += 1;
                policy.on_bypass(set, access);
                return AccessOutcome::Bypassed;
            }
            Victim::Way(way) => way,
        };
        assert!(
            way < self.config.ways,
            "policy {} chose way {way} in a {}-way cache",
            policy.name(),
            self.config.ways
        );
        let (word, bit) = self.mask_bit(set, way);
        let line = set * self.config.ways + way;
        let evicted = if self.valid[word] & bit != 0 {
            let victim = BlockAddr::new(self.tags[line]);
            self.stats.evictions += 1;
            if self.dirty[word] & bit != 0 {
                self.stats.writebacks += 1;
            }
            policy.on_evict(set, way, victim, access);
            if let Some(eff) = &mut self.efficiency {
                eff.on_evict(set, way, self.now);
            }
            Some(victim)
        } else {
            None
        };
        self.tags[line] = access.block.raw();
        self.valid[word] |= bit;
        if access.kind.is_write() {
            self.dirty[word] |= bit;
        } else {
            self.dirty[word] &= !bit;
        }
        self.stats.fills += 1;
        policy.on_fill(set, way, access);
        if let Some(eff) = &mut self.efficiency {
            eff.on_fill(set, way, self.now);
        }
        AccessOutcome::Filled { evicted }
    }

    /// Presents every access of `stream` under `policy`, in order, sending
    /// each outcome to `outcomes`: the replay kernel. Called with
    /// `P = Self` from [`ReplacementPolicy::run_stream`], so the whole loop
    /// is monomorphised per policy type.
    pub fn run<P: ReplacementPolicy + ?Sized>(
        &mut self,
        policy: &mut P,
        stream: &[LlcAccess],
        mut outcomes: Outcomes<'_>,
    ) {
        for a in stream {
            let hit = self.access(policy, &Access::from(a)).is_hit();
            match &mut outcomes {
                Outcomes::Discard => {}
                Outcomes::Record(hits) => hits.push(hit),
                Outcomes::Probe(hits, probe) => {
                    probe.on_access_detail(hits.len(), a, hit);
                    hits.push(hit);
                }
            }
        }
    }
}

/// A set-associative, write-back cache whose replacement and bypass
/// behaviour is delegated to a [`ReplacementPolicy`].
///
/// This models the last-level cache in experiments; the fixed upper levels
/// use the leaner [`crate::lru::LruArray`]. See the
/// [crate docs](crate) for a usage example.
pub struct Cache {
    core: CacheCore,
    policy: Box<dyn ReplacementPolicy>,
}

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache")
            .field("config", &self.core.config)
            .field("policy", &self.policy.name())
            .field("stats", &self.core.stats)
            .finish_non_exhaustive()
    }
}

impl Cache {
    /// Creates a cache with the built-in true-LRU policy.
    ///
    /// # Panics
    ///
    /// Panics above 256 ways (see [`Lru::new`]).
    pub fn new(config: CacheConfig) -> Self {
        let lru = Lru::new(config.sets, config.ways);
        Self::with_policy(config, Box::new(lru))
    }

    /// Creates a cache driven by an arbitrary policy.
    pub fn with_policy(config: CacheConfig, policy: Box<dyn ReplacementPolicy>) -> Self {
        Cache {
            core: CacheCore::new(config),
            policy,
        }
    }

    /// Enables live/dead-time accounting (costs one pass of bookkeeping per
    /// access; used for the paper's Figure 1).
    pub fn track_efficiency(&mut self) {
        self.core.efficiency = Some(EfficiencyTracker::new(self.core.config));
    }

    /// The cache's geometry.
    pub const fn config(&self) -> CacheConfig {
        self.core.config
    }

    /// Accumulated counters (predictor counters are exported on read).
    pub fn stats(&self) -> CacheStats {
        let mut stats = self.core.stats.clone();
        self.policy.export_stats(&mut stats);
        stats
    }

    /// The efficiency tracker, if [`Cache::track_efficiency`] was called.
    pub fn efficiency(&self) -> Option<&EfficiencyTracker> {
        self.core.efficiency.as_ref()
    }

    /// The driving policy (downcast via
    /// [`ReplacementPolicy::as_any`] for policy-specific state).
    pub fn policy(&self) -> &dyn ReplacementPolicy {
        &*self.policy
    }

    /// Set index for a block in this cache.
    pub fn set_of(&self, block: BlockAddr) -> usize {
        block.set_index(self.core.config.sets)
    }

    /// Whether `block` is currently resident.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.core.find(self.set_of(block), block).is_some()
    }

    /// Presents one access; performs lookup, policy callbacks, fill or
    /// bypass, and all statistics updates. Each callback is a virtual
    /// call; replay whole streams with [`Cache::run`] instead.
    pub fn access(&mut self, access: &Access) -> AccessOutcome {
        self.core.access(&mut *self.policy, access)
    }

    /// Presents every access of `stream` in order, sending each outcome to
    /// `outcomes`, with one virtual call into the policy's monomorphised
    /// kernel ([`ReplacementPolicy::run_stream`]). Equivalent to calling
    /// [`Cache::access`] on each element.
    pub fn run(&mut self, stream: &[LlcAccess], outcomes: Outcomes<'_>) {
        self.policy.run_stream(&mut self.core, stream, outcomes);
    }

    /// Flushes residency bookkeeping at the end of a run so that
    /// still-resident blocks contribute their in-cache time to the
    /// efficiency accounting.
    pub fn finish(&mut self) {
        let core = &mut self.core;
        if let Some(mut eff) = core.efficiency.take() {
            for set in 0..core.config.sets {
                for way in (0..core.config.ways).filter(|&way| core.is_valid(set, way)) {
                    eff.on_evict(set, way, core.now);
                }
            }
            core.efficiency = Some(eff);
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
            fn choose_victim(&mut self, _: usize, _: Option<usize>, _: &Access) -> Victim {
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
