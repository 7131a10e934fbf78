//! The policy-driven set-associative cache used to model the LLC.

#![expect(
    clippy::indexing_slicing,
    reason = "hot data plane: the access loop indexes sets/ways validated at construction; recorder.rs and replay.rs stay covered as I/O paths"
)]

use crate::config::{CacheConfig, MAX_WAYS};
use crate::lru::lookup;
use crate::policy::{Access, Lru, ReplacementPolicy, Victim};
use crate::recorder::LlcAccess;
use crate::replay::Outcomes;
use crate::stats::CacheStats;
use sdbp_trace::BlockAddr;
use std::fmt;

/// Result of presenting one access to a [`Cache`], naming the frame
/// (the way of the access's set) it touched.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum AccessOutcome {
    /// The block was resident in `way`.
    Hit {
        /// The way holding the block.
        way: usize,
    },
    /// The block missed and was placed in `way`, displacing `evicted`.
    Filled {
        /// The way the block now occupies.
        way: usize,
        /// The block displaced to make room, if the frame was valid.
        evicted: Option<BlockAddr>,
    },
    /// The block missed and the policy declined to place it.
    Bypassed,
}

impl AccessOutcome {
    /// True for [`AccessOutcome::Hit`].
    pub const fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit { .. })
    }
}

/// Tag value of an empty frame. Real block addresses are byte addresses
/// shifted right by six, so they never reach it; a lookup of this exact
/// value still consults the valid mask, so even `BlockAddr::new(u64::MAX)`
/// is exact.
const INVALID_TAG: u64 = u64::MAX;

/// Tags of slack before the first row, enough to start it on a 64-byte
/// boundary.
const ROW_SLACK: usize = 7;

/// The tag store and counters of a [`Cache`]: everything but the policy.
///
/// Every set has a fixed-size row at the paper's 16 ways: `[u64; 16]`
/// tags, with `INVALID_TAG` in empty frames and in the ways a narrower
/// geometry does not have, and `u16` valid and dirty masks (packed in one
/// `u32`, valid in the low half). The rows sit in one plain allocation,
/// from an offset that starts each on a 64-byte boundary, so a row is two
/// whole cache lines. (An over-aligned row type would send the allocation
/// down the allocator's aligned path instead, which raised a
/// multi-threaded daemon's peak RSS by about 10 MiB.) A lookup is 16
/// compares ANDed into a mask with the valid bits; the first free way is
/// one `trailing_ones` of the valid mask. A geometry with fewer ways
/// never sets the valid bits above its last way, and one with more than
/// [`MAX_WAYS`] is refused by [`CacheConfig::try_new`].
///
/// [`CacheCore::access`] is the one implementation of an LLC access,
/// generic over the policy type; [`CacheCore::run`] loops it over a
/// stream. See the [`policy`](crate::policy) module docs for why the loop
/// lives behind [`ReplacementPolicy::run_stream`].
#[derive(Clone, Debug)]
pub struct CacheCore {
    config: CacheConfig,
    /// Set `s`'s row is `tags[row0 + 16 s..][..16]`.
    tags: Vec<u64>,
    /// The first row's offset: 64-byte aligned at construction. A clone
    /// keeps it, which keeps every row in bounds if not aligned.
    row0: usize,
    /// Per set, the valid mask in bits 0..16 and the dirty mask above.
    masks: Vec<u32>,
    stats: CacheStats,
}

/// The dirty bit of `way` in a set's packed masks.
const fn dirty_bit(way: usize) -> u32 {
    1 << (way + MAX_WAYS)
}

impl CacheCore {
    /// # Panics
    ///
    /// Panics if `config` is not a valid geometry (see
    /// [`CacheConfig::try_new`]).
    #[expect(
        clippy::panic,
        reason = "a geometry built field by field past CacheConfig::try_new is a caller bug"
    )]
    fn new(config: CacheConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let tags = vec![INVALID_TAG; config.sets * MAX_WAYS + ROW_SLACK];
        let row0 = tags.as_ptr().align_offset(64).min(ROW_SLACK);
        CacheCore {
            config,
            tags,
            row0,
            masks: vec![0; config.sets],
            stats: CacheStats::default(),
        }
    }

    /// The index of `(set, way)`'s tag.
    #[inline]
    fn tag_index(&self, set: usize, way: usize) -> usize {
        self.row0 + set * MAX_WAYS + way
    }

    /// The way of `set` holding `block`, if resident.
    #[inline]
    fn find(&self, set: usize, block: BlockAddr) -> Option<usize> {
        let base = self.tag_index(set, 0);
        let row = self.tags[base..base + MAX_WAYS]
            .first_chunk::<MAX_WAYS>()
            .map_or(0, |row| lookup(row, block.raw()));
        let hits = u32::from(row) & self.masks[set];
        (hits != 0).then(|| hits.trailing_zeros() as usize)
    }

    /// The lowest invalid way of `set`, if any. Valid bits past `ways` are
    /// never set, so the first clear bit of a full set lands on `ways`.
    #[inline]
    fn first_free(&self, set: usize) -> Option<usize> {
        let way = self.masks[set].trailing_ones() as usize;
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
        self.stats.accesses += 1;
        let set = access.block.set_index(self.config.sets);

        if let Some(way) = self.find(set, access.block) {
            self.stats.hits += 1;
            if access.kind.is_write() {
                self.masks[set] |= dirty_bit(way);
            }
            policy.on_hit(set, way, access);
            return AccessOutcome::Hit { way };
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
        let masks = self.masks[set];
        let evicted = if masks >> way & 1 != 0 {
            let victim = BlockAddr::new(self.tags[self.tag_index(set, way)]);
            self.stats.evictions += 1;
            self.stats.writebacks += u64::from(masks & dirty_bit(way) != 0);
            policy.on_evict(set, way, victim, access);
            Some(victim)
        } else {
            None
        };
        let tag = self.tag_index(set, way);
        self.tags[tag] = access.block.raw();
        let dirty = u32::from(access.kind.is_write()) << (way + MAX_WAYS);
        self.masks[set] = masks & !dirty_bit(way) | 1 << way | dirty;
        self.stats.fills += 1;
        policy.on_fill(set, way, access);
        AccessOutcome::Filled { way, evicted }
    }

    /// Presents every access of `stream` under `policy`, in order, sending
    /// each outcome to `outcomes`: the replay kernel. Called with
    /// `P = Self` from [`ReplacementPolicy::run_stream`], so the whole loop
    /// is monomorphised per policy type. A probe gets each whole outcome
    /// through [`ReplayProbe::on_outcome`](crate::replay::ReplayProbe::on_outcome).
    pub fn run<P: ReplacementPolicy + ?Sized>(
        &mut self,
        policy: &mut P,
        stream: &[LlcAccess],
        mut outcomes: Outcomes<'_>,
    ) {
        for a in stream {
            let outcome = self.access(policy, &Access::from(a));
            match &mut outcomes {
                Outcomes::Discard => {}
                Outcomes::Record(hits) => hits.push(outcome.is_hit()),
                Outcomes::Probe(hits, probe) => {
                    probe.on_outcome(hits.len(), a, outcome);
                    hits.push(outcome.is_hit());
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
    /// Panics if `config` is not a valid geometry (see
    /// [`CacheConfig::try_new`]).
    pub fn new(config: CacheConfig) -> Self {
        let core = CacheCore::new(config);
        Cache {
            core,
            policy: Box::new(Lru::new(config.sets, config.ways)),
        }
    }

    /// Creates a cache driven by an arbitrary policy.
    ///
    /// # Panics
    ///
    /// Panics if `config` is not a valid geometry (see
    /// [`CacheConfig::try_new`]).
    pub fn with_policy(config: CacheConfig, policy: Box<dyn ReplacementPolicy>) -> Self {
        Cache {
            core: CacheCore::new(config),
            policy,
        }
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

    /// The driving policy (downcast via
    /// [`ReplacementPolicy::as_any`] for policy-specific state).
    pub fn policy(&self) -> &dyn ReplacementPolicy {
        &*self.policy
    }

    /// Whether `block` is currently resident.
    pub fn contains(&self, block: BlockAddr) -> bool {
        let set = block.set_index(self.core.config.sets);
        self.core.find(set, block).is_some()
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
        let fill = c.access(&acc(0));
        assert_eq!(
            fill,
            AccessOutcome::Filled {
                way: 0,
                evicted: None
            }
        );
        assert_eq!(c.access(&acc(0)), AccessOutcome::Hit { way: 0 });
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
            AccessOutcome::Filled {
                way: 1,
                evicted: Some(b),
            } => assert_eq!(b.raw(), 2),
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
    #[should_panic(expected = "ways must be at most 16, got 17")]
    fn cache_refuses_a_geometry_wider_than_its_rows() {
        let _ = Cache::new(CacheConfig { sets: 4, ways: 17 });
    }

    /// A narrower geometry uses the low ways of each row: a full 3-way
    /// set reports no free way and evicts within its three.
    #[test]
    fn narrow_geometry_stays_within_its_ways() {
        let mut c = Cache::new(CacheConfig::new(1, 3));
        for way in 0..3 {
            assert_eq!(
                c.access(&acc(way as u64)),
                AccessOutcome::Filled { way, evicted: None }
            );
        }
        assert_eq!(
            c.access(&acc(3)),
            AccessOutcome::Filled {
                way: 0,
                evicted: Some(BlockAddr::new(0))
            }
        );
        assert!(!c.contains(BlockAddr::new(u64::MAX)));
    }

    #[test]
    fn outcome_predicates() {
        let fill = AccessOutcome::Filled {
            way: 0,
            evicted: None,
        };
        assert!(AccessOutcome::Hit { way: 3 }.is_hit());
        assert!(!AccessOutcome::Bypassed.is_hit());
        assert!(!fill.is_hit());
    }
}
