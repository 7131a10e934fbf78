//! Random replacement — the cheap default policy of paper §V-A.

use sdbp_cache::policy::{Access, ReplacementPolicy, Victim};
use sdbp_trace::rng::Rng64;
use std::any::Any;
use std::borrow::Cow;

/// Uniform-random victim selection (invalid ways still take priority).
///
/// The paper argues random replacement is attractive for highly associative
/// LLCs because it needs no per-access metadata updates, and shows SDBP
/// turns a random-replaced cache into one that beats LRU (Figures 7/8).
///
/// ```
/// use sdbp_cache::{Cache, CacheConfig};
/// use sdbp_replacement::Random;
/// let cfg = CacheConfig::llc_2mb();
/// let cache = Cache::with_policy(cfg, Box::new(Random::new(cfg, 1)));
/// assert_eq!(cache.policy().name(), "Random");
/// ```
#[derive(Clone, Debug)]
pub struct Random {
    ways: usize,
    rng: Rng64,
}

impl Random {
    /// Creates the policy for a cache of the given geometry.
    pub fn new(config: sdbp_cache::CacheConfig, seed: u64) -> Self {
        Random {
            ways: config.ways,
            rng: Rng64::seed_from_u64(seed),
        }
    }
}

impl ReplacementPolicy for Random {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("Random")
    }

    #[inline]
    fn on_hit(&mut self, _set: usize, _way: usize, _access: &Access) {}

    #[inline]
    fn choose_victim(&mut self, _set: usize, free: Option<usize>, _access: &Access) -> Victim {
        Victim::Way(free.unwrap_or_else(|| self.rng.gen_range(0..self.ways)))
    }

    #[inline]
    fn on_fill(&mut self, _set: usize, _way: usize, _access: &Access) {}

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_cache::{Cache, CacheConfig};
    use sdbp_trace::{AccessKind, BlockAddr, Pc};

    fn acc(block: u64) -> Access {
        Access::demand(Pc::new(0), BlockAddr::new(block), AccessKind::Read, 0)
    }

    #[test]
    fn fills_invalid_ways_before_evicting() {
        let cfg = CacheConfig::new(1, 4);
        let mut c = Cache::with_policy(cfg, Box::new(Random::new(cfg, 7)));
        for b in 0..4 {
            c.access(&acc(b));
        }
        assert_eq!(c.stats().evictions, 0);
        for b in 0..4 {
            assert!(c.contains(BlockAddr::new(b)));
        }
    }

    #[test]
    fn victims_are_spread_across_ways() {
        let cfg = CacheConfig::new(1, 4);
        let mut c = Cache::with_policy(cfg, Box::new(Random::new(cfg, 7)));
        // Stream of distinct blocks: every access after warmup evicts a
        // random way. All four resident blocks should change over time.
        for b in 0..1000u64 {
            c.access(&acc(b));
        }
        // The four newest blocks need not be resident under random
        // replacement, but *some* recent blocks are; just check eviction
        // count and that the cache stayed full.
        assert_eq!(c.stats().evictions, 1000 - 4);
    }

    #[test]
    fn same_seed_reproduces_run() {
        let cfg = CacheConfig::new(4, 4);
        let run = |seed| {
            let mut c = Cache::with_policy(cfg, Box::new(Random::new(cfg, seed)));
            (0..500u64)
                .map(|b| c.access(&acc(b % 97)).is_hit())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn random_loses_to_lru_on_lru_friendly_stream() {
        // Small cyclic loop that exactly fits: LRU keeps everything, random
        // occasionally evicts a block that is about to be reused.
        let cfg = CacheConfig::new(4, 4);
        let mut rand_cache = Cache::with_policy(cfg, Box::new(Random::new(cfg, 5)));
        let mut lru_cache = Cache::new(cfg);
        for _ in 0..50 {
            for b in 0..16u64 {
                rand_cache.access(&acc(b));
                lru_cache.access(&acc(b));
            }
        }
        assert!(rand_cache.stats().hits <= lru_cache.stats().hits);
    }
}
