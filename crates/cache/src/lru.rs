//! A lean, always-LRU tag array for the fixed upper levels (L1, L2).
//!
//! The LLC needs the full policy machinery of [`crate::Cache`]; the L1 and
//! L2 never change policy, are on the recording hot path, and only need
//! hit/miss plus dirty-victim information, so they get this specialised
//! implementation.

#![expect(
    clippy::indexing_slicing,
    reason = "hot data plane: recency stack indices are bounded by associativity at construction"
)]

use crate::config::CacheConfig;
use sdbp_trace::BlockAddr;

/// A set-associative LRU cache holding only tags.
#[derive(Clone, Debug)]
pub struct LruArray {
    config: CacheConfig,
    tags: Vec<u64>,
    valid: Vec<bool>,
    dirty: Vec<bool>,
    stamps: Vec<u64>,
    clock: u64,
    hits: u64,
    misses: u64,
}

/// Result of an [`LruArray::access`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct LruOutcome {
    /// Whether the block was resident.
    pub hit: bool,
    /// A dirty block displaced by the fill, if any.
    pub writeback: Option<BlockAddr>,
}

impl LruArray {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let n = config.lines();
        LruArray {
            config,
            tags: vec![0; n],
            valid: vec![false; n],
            dirty: vec![false; n],
            stamps: vec![0; n],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache's geometry.
    pub const fn config(&self) -> CacheConfig {
        self.config
    }

    /// Hits observed so far.
    pub const fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed so far.
    pub const fn misses(&self) -> u64 {
        self.misses
    }

    /// Whether `block` is resident (does not update recency).
    pub fn contains(&self, block: BlockAddr) -> bool {
        let set = block.set_index(self.config.sets);
        let base = set * self.config.ways;
        let raw = block.raw();
        (0..self.config.ways).any(|w| self.valid[base + w] && self.tags[base + w] == raw)
    }

    /// Invalidates `block` if resident (back-invalidation from an inclusive
    /// outer level), returning whether it was present and dirty.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<bool> {
        let set = block.set_index(self.config.sets);
        let base = set * self.config.ways;
        let raw = block.raw();
        for w in 0..self.config.ways {
            let i = base + w;
            if self.valid[i] && self.tags[i] == raw {
                self.valid[i] = false;
                return Some(self.dirty[i]);
            }
        }
        None
    }

    /// Accesses `block`, filling on miss with LRU replacement and write-back
    /// write-allocate semantics.
    pub fn access(&mut self, block: BlockAddr, is_write: bool) -> LruOutcome {
        self.clock += 1;
        let set = block.set_index(self.config.sets);
        let base = set * self.config.ways;
        let ways = self.config.ways;
        let raw = block.raw();

        // Lookup.
        for w in 0..ways {
            let i = base + w;
            if self.valid[i] && self.tags[i] == raw {
                self.hits += 1;
                self.stamps[i] = self.clock;
                if is_write {
                    self.dirty[i] = true;
                }
                return LruOutcome { hit: true, writeback: None };
            }
        }
        self.misses += 1;

        // Fill: invalid way first, else LRU.
        let mut victim = 0;
        let mut best = u64::MAX;
        for w in 0..ways {
            let i = base + w;
            if !self.valid[i] {
                victim = w;
                break;
            }
            if self.stamps[i] < best {
                best = self.stamps[i];
                victim = w;
            }
        }
        let i = base + victim;
        let writeback = if self.valid[i] && self.dirty[i] {
            Some(BlockAddr::new(self.tags[i]))
        } else {
            None
        };
        self.valid[i] = true;
        self.tags[i] = raw;
        self.dirty[i] = is_write;
        self.stamps[i] = self.clock;
        LruOutcome { hit: false, writeback }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LruArray {
        LruArray::new(CacheConfig::new(2, 2))
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(BlockAddr::new(0), false).hit);
        assert!(c.access(BlockAddr::new(0), false).hit);
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn lru_order_respected() {
        let mut c = tiny();
        c.access(BlockAddr::new(0), false);
        c.access(BlockAddr::new(2), false);
        c.access(BlockAddr::new(0), false); // 2 is LRU
        c.access(BlockAddr::new(4), false); // evicts 2
        assert!(c.contains(BlockAddr::new(0)));
        assert!(!c.contains(BlockAddr::new(2)));
    }

    #[test]
    fn dirty_victim_produces_writeback() {
        let mut c = tiny();
        c.access(BlockAddr::new(0), true);
        c.access(BlockAddr::new(2), false);
        let out = c.access(BlockAddr::new(4), false); // evicts dirty 0
        assert_eq!(out.writeback, Some(BlockAddr::new(0)));
    }

    #[test]
    fn clean_victim_produces_no_writeback() {
        let mut c = tiny();
        c.access(BlockAddr::new(0), false);
        c.access(BlockAddr::new(2), false);
        let out = c.access(BlockAddr::new(4), false);
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn write_hit_dirties_line() {
        let mut c = tiny();
        c.access(BlockAddr::new(0), false);
        c.access(BlockAddr::new(0), true); // dirty via hit
        c.access(BlockAddr::new(2), false);
        let out = c.access(BlockAddr::new(4), false);
        assert_eq!(out.writeback, Some(BlockAddr::new(0)));
    }

    #[test]
    fn agrees_with_policy_cache_on_random_stream() {
        use crate::cache::Cache;
        use crate::policy::Access;
        use sdbp_trace::rng::Rng64;
        use sdbp_trace::{AccessKind, Pc};

        let cfg = CacheConfig::new(8, 4);
        let mut fast = LruArray::new(cfg);
        let mut slow = Cache::new(cfg);
        let mut rng = Rng64::seed_from_u64(99);
        for _ in 0..20_000 {
            let block = BlockAddr::new(rng.gen_range(0..200));
            let write = rng.gen_bool(0.3);
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            let fast_hit = fast.access(block, write).hit;
            let slow_hit =
                slow.access(&Access::demand(Pc::new(0), block, kind, 0)).is_hit();
            assert_eq!(fast_hit, slow_hit, "divergence at block {block}");
        }
    }
}
