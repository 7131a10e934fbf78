//! The replacement-policy interface and the built-in true-LRU policy.
//!
//! A [`ReplacementPolicy`] owns all of its own state (recency lists, RRPVs,
//! dead bits, predictor tables, ...) indexed by `(set, way)`; the
//! [`Cache`](crate::Cache) owns only the tag store ([`CacheCore`]). On a
//! miss the policy is always consulted via
//! [`ReplacementPolicy::choose_victim`] and may answer [`Victim::Bypass`],
//! which is how dead-block bypass and optimal bypass are expressed.
//!
//! Call order on a hit: `on_hit`. On a miss: `on_miss`, then
//! `choose_victim`, then either (`on_evict` if the chosen way was valid,
//! then `on_fill`) or `on_bypass`.
//!
//! The per-access loop lives behind the policy:
//! [`ReplacementPolicy::run_stream`] is a provided method whose body runs
//! [`CacheCore::run`] with `Self` as the policy type, so it is compiled
//! once per implementing type and every callback above is a static,
//! inlinable call. A replay through a `Box<dyn ReplacementPolicy>` makes
//! one virtual call per stream; [`Cache::access`](crate::Cache::access)
//! keeps the single-access API on the same body, dispatching each callback
//! through the vtable.

#![expect(
    clippy::indexing_slicing,
    reason = "hot data plane: policy dispatch over geometry validated at construction"
)]

use crate::cache::CacheCore;
use crate::lru::Recency;
use crate::recorder::LlcAccess;
use crate::replay::Outcomes;
use crate::stats::CacheStats;
use sdbp_trace::{AccessKind, BlockAddr, Pc};
use std::any::Any;
use std::borrow::Cow;

/// One access presented to the LLC.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Access {
    /// PC of the memory instruction (for single-core runs) — dead block
    /// predictors key on this.
    pub pc: Pc,
    /// The referenced block.
    pub block: BlockAddr,
    /// Read or write.
    pub kind: AccessKind,
    /// Issuing core (0 for single-core experiments).
    pub core: u8,
}

impl Access {
    /// Creates a demand access.
    pub const fn demand(pc: Pc, block: BlockAddr, kind: AccessKind, core: u8) -> Self {
        Access {
            pc,
            block,
            kind,
            core,
        }
    }
}

impl From<&LlcAccess> for Access {
    fn from(a: &LlcAccess) -> Self {
        Access::demand(a.pc, a.block, a.kind, a.core)
    }
}

/// A policy's answer to "which way should the incoming block replace?".
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Victim {
    /// Replace the block in this way (or fill it if invalid).
    Way(usize),
    /// Do not place the incoming block at all.
    Bypass,
}

/// An LLC replacement (and optionally bypass) policy.
///
/// Implementations must be deterministic given their construction inputs
/// (seeded RNGs for randomized policies) so experiments are reproducible.
pub trait ReplacementPolicy {
    /// Short human-readable name used in result tables (e.g. `"LRU"`).
    ///
    /// Static for every registered policy; composite policies (DBRB over a
    /// base) return an owned composition.
    fn name(&self) -> Cow<'static, str>;

    /// The accessed block was found in `(set, way)`.
    fn on_hit(&mut self, set: usize, way: usize, access: &Access);

    /// The accessed block missed in `set`; called before victim selection.
    fn on_miss(&mut self, set: usize, access: &Access) {
        let _ = (set, access);
    }

    /// Chooses a victim frame for the incoming block, or declines placement.
    ///
    /// `free` is the set's lowest invalid way, or `None` when every way
    /// holds a block. Every built-in policy fills `free` when it is given
    /// (or bypasses), so a set's valid ways only ever grow.
    fn choose_victim(&mut self, set: usize, free: Option<usize>, access: &Access) -> Victim;

    /// The incoming block was placed in `(set, way)`.
    fn on_fill(&mut self, set: usize, way: usize, access: &Access);

    /// The valid block `victim` in `(set, way)` is being evicted to make
    /// room for `access`'s block.
    fn on_evict(&mut self, set: usize, way: usize, victim: BlockAddr, access: &Access) {
        let _ = (set, way, victim, access);
    }

    /// The incoming block bypassed the cache.
    fn on_bypass(&mut self, set: usize, access: &Access) {
        let _ = (set, access);
    }

    /// Gives the policy a chance to export extra statistics at the end of a
    /// run (predictor coverage, PSEL outcomes, ...).
    fn export_stats(&self, stats: &mut CacheStats) {
        let _ = stats;
    }

    /// Downcasting support, so experiment code can reach policy-specific
    /// state (e.g. predictor accuracy counters) behind `Box<dyn
    /// ReplacementPolicy>`.
    fn as_any(&self) -> &dyn Any;

    /// Presents every access of `stream` to `core` under this policy, in
    /// order, sending each outcome to `outcomes`.
    ///
    /// The provided body is the replay kernel ([`CacheCore::run`]
    /// instantiated for `Self`); implementations should not override it.
    /// Behind a `dyn ReplacementPolicy` this is the one virtual call a
    /// replay makes.
    fn run_stream(&mut self, core: &mut CacheCore, stream: &[LlcAccess], outcomes: Outcomes<'_>) {
        core.run(self, stream, outcomes);
    }
}

/// True least-recently-used replacement.
///
/// The paper's baseline for every single-thread experiment. Each set keeps
/// one [`Recency`] list, the way indices in touch order, 4 bits each in
/// one `u64` (the same SWAR move-to-front as the upper levels'
/// [`LruArray`](crate::lru::LruArray)): a touch moves its way to the
/// front, and the victim is the last entry.
///
/// The order is exact whenever it is consulted: a cold set fills its ways
/// in index order, each fill is a touch, and the victim is only asked for
/// once every way has been filled.
///
/// ```
/// use sdbp_cache::policy::{Access, Lru, ReplacementPolicy, Victim};
/// use sdbp_trace::{AccessKind, BlockAddr, Pc};
///
/// let mut lru = Lru::new(1, 2);
/// let a = Access::demand(Pc::new(0), BlockAddr::new(0), AccessKind::Read, 0);
/// lru.on_fill(0, 0, &a);
/// lru.on_fill(0, 1, &a);
/// lru.on_hit(0, 0, &a); // way 1 is now least recent
/// assert_eq!(lru.choose_victim(0, None, &a), Victim::Way(1));
/// ```
#[derive(Clone, Debug)]
pub struct Lru {
    orders: Vec<Recency>,
    ways: usize,
}

impl Lru {
    /// Creates LRU state for a `sets` × `ways` cache.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or exceeds [`MAX_WAYS`](crate::MAX_WAYS).
    pub fn new(sets: usize, ways: usize) -> Self {
        Lru {
            orders: vec![Recency::identity(ways); sets],
            ways,
        }
    }

    /// The least recently used way of `set`.
    #[inline]
    pub fn lru_way(&self, set: usize) -> usize {
        self.orders[set].way_at(self.ways - 1)
    }
}

impl ReplacementPolicy for Lru {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("LRU")
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, _access: &Access) {
        self.orders[set].promote(way);
    }

    #[inline]
    fn choose_victim(&mut self, set: usize, free: Option<usize>, _access: &Access) -> Victim {
        Victim::Way(free.unwrap_or_else(|| self.lru_way(set)))
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, _access: &Access) {
        self.orders[set].promote(way);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(block: u64) -> Access {
        Access::demand(Pc::new(0x400), BlockAddr::new(block), AccessKind::Read, 0)
    }

    #[test]
    fn lru_prefers_invalid_ways() {
        let mut lru = Lru::new(1, 4);
        assert_eq!(lru.choose_victim(0, Some(3), &acc(9)), Victim::Way(3));
    }

    /// The `free` argument is the set's lowest hole: it walks 0, 1, 2, 3
    /// while a 4-way set fills, then stays `None`.
    #[test]
    fn first_invalid_finds_hole() {
        struct Spy {
            lru: Lru,
            seen: Vec<Option<usize>>,
        }
        impl ReplacementPolicy for Spy {
            fn name(&self) -> Cow<'static, str> {
                "spy".into()
            }
            fn on_hit(&mut self, set: usize, way: usize, access: &Access) {
                self.lru.on_hit(set, way, access);
            }
            fn choose_victim(&mut self, set: usize, free: Option<usize>, a: &Access) -> Victim {
                self.seen.push(free);
                self.lru.choose_victim(set, free, a)
            }
            fn on_fill(&mut self, set: usize, way: usize, access: &Access) {
                self.lru.on_fill(set, way, access);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let mut cache = crate::Cache::with_policy(
            crate::CacheConfig::new(1, 4),
            Box::new(Spy {
                lru: Lru::new(1, 4),
                seen: Vec::new(),
            }),
        );
        for block in [0, 1, 0, 2, 3, 4, 5] {
            cache.access(&acc(block));
        }
        let spy = cache
            .policy()
            .as_any()
            .downcast_ref::<Spy>()
            .map(|s| s.seen.clone());
        assert_eq!(
            spy,
            Some(vec![Some(0), Some(1), Some(2), Some(3), None, None])
        );
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut lru = Lru::new(1, 4);
        let a = acc(0);
        for w in 0..4 {
            lru.on_fill(0, w, &a);
        }
        lru.on_hit(0, 0, &a);
        lru.on_hit(0, 1, &a);
        // Way 2 is now the least recently touched.
        assert_eq!(lru.choose_victim(0, None, &a), Victim::Way(2));
    }

    #[test]
    fn recency_order_is_mru_first() {
        let mut lru = Lru::new(1, 4);
        let a = acc(0);
        for w in 0..4 {
            lru.on_fill(0, w, &a);
        }
        lru.on_hit(0, 1, &a); // 1 is MRU; 0 is LRU
        let order: Vec<usize> = (0..4).map(|pos| lru.orders[0].way_at(pos)).collect();
        assert_eq!(order, [1, 3, 2, 0]);
    }

    #[test]
    fn sets_are_independent() {
        let mut lru = Lru::new(2, 2);
        let a = acc(0);
        lru.on_fill(0, 0, &a);
        lru.on_fill(0, 1, &a);
        lru.on_fill(1, 1, &a);
        lru.on_fill(1, 0, &a);
        assert_eq!(lru.choose_victim(0, None, &a), Victim::Way(0));
        assert_eq!(lru.choose_victim(1, None, &a), Victim::Way(1));
    }

    /// The recency list agrees with a stamp model at every width the
    /// LLC accepts, up to the full 16-nibble word.
    #[test]
    fn recency_matches_a_stamp_model_at_every_width() {
        use sdbp_trace::rng::Rng64;
        let mut rng = Rng64::seed_from_u64(0x1a0);
        for ways in [1usize, 2, 3, 8, 15, 16] {
            let mut lru = Lru::new(1, ways);
            let mut stamps = vec![0u64; ways];
            let a = acc(0);
            for (clock, way) in (0..ways).enumerate() {
                lru.on_fill(0, way, &a);
                stamps[way] = clock as u64 + 1;
            }
            for clock in ways as u64 + 1..ways as u64 + 2000 {
                let way = rng.gen_range(0..ways);
                lru.on_hit(0, way, &a);
                stamps[way] = clock;
                let oldest = (0..ways).min_by_key(|&w| stamps[w]).unwrap_or(0);
                assert_eq!(lru.lru_way(0), oldest, "{ways} ways");
            }
        }
    }

    #[test]
    #[should_panic(expected = "1..=16 ways")]
    fn lru_rejects_more_ways_than_the_recency_word() {
        let _ = Lru::new(1, 17);
    }
}
