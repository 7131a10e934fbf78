//! A lean, always-LRU tag array for the fixed upper levels (L1, L2).
//!
//! The LLC needs the full policy machinery of [`crate::Cache`]; the L1 and
//! L2 never change policy, are on the recording hot path, and only need
//! hit/miss plus dirty-victim information, so they get this specialised
//! implementation.
//!
//! # Layout
//!
//! One flat row of words per set, so an access touches one set's state
//! and nothing else:
//!
//! * `ways` tags, each the raw block address, with `u64::MAX` in empty
//!   frames. A lookup compares only the set's tags; only a lookup of
//!   that value itself consults the valid mask, so every `BlockAddr`
//!   stays exact;
//! * a valid and a dirty bit mask (at most [`MAX_WAYS`] ways);
//! * `u8` recency ranks, eight to a word, with 0 the most recent. Ranks
//!   always form a permutation of the set's ways, so a full set's LRU
//!   victim is the way ranked `ways - 1`. A hit or fill promotes its way
//!   to 0 and ages every way ranked above it in one SWAR step per word;
//!   a hit on the most recent way changes nothing.
//!
//! A fill takes the lowest empty way, else the LRU way. Every way of a
//! full set has been filled since it last emptied, so rank order among
//! them is exactly the order of their last touches: the victims, hits
//! and writebacks of a stamp-per-frame LRU, which
//! `tests/lru_differential.rs` checks.

#![expect(
    clippy::indexing_slicing,
    reason = "hot data plane: set rows are bounded by the geometry checked at construction"
)]

use crate::config::CacheConfig;
use sdbp_trace::BlockAddr;

/// Tag of an empty frame. Block addresses are byte addresses shifted
/// right by six, so real ones never reach it; a lookup of this exact
/// value still consults the valid mask.
const EMPTY_TAG: u64 = u64::MAX;

/// Most ways an [`LruArray`] holds: one valid and one dirty mask word
/// per set.
pub const MAX_WAYS: usize = 64;

/// Ranks per rank word.
const LANES: usize = 8;

/// `0x01` in every byte lane.
const LANE_ONES: u64 = u64::MAX / 0xff;

/// The high bit of every byte lane.
const LANE_HIGHS: u64 = LANE_ONES << 7;

/// Rank of a padding lane past `ways`: above every real rank, so it
/// never ages and is never the victim, and below `0x80`, so the SWAR
/// comparison never borrows across lanes.
const PAD_RANK: u64 = 0x7f;

/// A set-associative LRU cache holding only tags.
#[derive(Clone, Debug)]
pub struct LruArray {
    config: CacheConfig,
    /// One row of `stride` words per set: `ways` tags, the valid mask,
    /// the dirty mask, then the rank words.
    rows: Vec<u64>,
    stride: usize,
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

/// The way of a set's `tags` row holding `raw`, if resident. Only a
/// lookup of [`EMPTY_TAG`] needs the `valid` mask.
#[inline]
fn find(tags: &[u64], valid: u64, raw: u64) -> Option<usize> {
    let way = tags.iter().position(|&t| t == raw)?;
    if raw != EMPTY_TAG {
        return Some(way);
    }
    (way..tags.len()).find(|&w| tags[w] == raw && valid >> w & 1 != 0)
}

/// One set's row, split into its parts.
struct Set<'a> {
    tags: &'a mut [u64],
    valid: &'a mut u64,
    dirty: &'a mut u64,
    ranks: &'a mut [u64],
}

impl Set<'_> {
    /// The way holding `raw`, if resident.
    #[inline]
    fn find(&self, raw: u64) -> Option<usize> {
        find(self.tags, *self.valid, raw)
    }

    /// Makes `way` the most recent: every way ranked above it ages by one.
    #[inline]
    fn promote(&mut self, way: usize) {
        let shift = 8 * (way % LANES);
        let rank = self.ranks[way / LANES] >> shift & 0xff;
        if rank == 0 {
            return;
        }
        let threshold = rank * LANE_ONES;
        for word in self.ranks.iter_mut() {
            // Lanes are below 0x80 and `rank` below 64, so each lane's
            // subtraction stays in its lane: the lane's high bit survives
            // exactly when the lane is at least `rank`.
            let at_least = ((*word | LANE_HIGHS) - threshold) & LANE_HIGHS;
            *word += (!at_least & LANE_HIGHS) >> 7;
        }
        self.ranks[way / LANES] &= !(0xff << shift);
    }

    /// Evicts a full set's LRU way, the one ranked `ways - 1`, and makes
    /// it the most recent: every other way ages by one. The search and
    /// the ageing are independent, so they overlap.
    #[inline]
    fn promote_lru(&mut self) -> usize {
        let last = self.tags.len() - 1;
        let target = last as u64 * LANE_ONES;
        let mut victim = last;
        for (i, word) in self.ranks.iter_mut().enumerate() {
            // Zero-lane search: the lowest flagged lane is always a true
            // zero (a false flag needs a borrow from a zero lane below).
            let x = *word ^ target;
            let zero = x.wrapping_sub(LANE_ONES) & !x & LANE_HIGHS;
            if zero != 0 {
                victim = i * LANES + zero.trailing_zeros() as usize / 8;
            }
            let at_least = ((*word | LANE_HIGHS) - target) & LANE_HIGHS;
            *word += (!at_least & LANE_HIGHS) >> 7;
        }
        self.ranks[victim / LANES] &= !(0xff << (8 * (victim % LANES)));
        victim
    }
}

impl LruArray {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more than [`MAX_WAYS`] ways.
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.ways <= MAX_WAYS,
            "an upper-level array holds at most {MAX_WAYS} ways, got {}",
            config.ways
        );
        // Initial ranks: way i has rank i (any permutation would do, as
        // only full sets consult ranks); padding lanes take `PAD_RANK`.
        let ranks = (0..config.ways.div_ceil(LANES)).map(|word| {
            (0..LANES).fold(0u64, |acc, lane| {
                let way = word * LANES + lane;
                let rank = if way < config.ways {
                    way as u64
                } else {
                    PAD_RANK
                };
                acc | rank << (8 * lane)
            })
        });
        let row: Vec<u64> = std::iter::repeat_n(EMPTY_TAG, config.ways)
            .chain([0, 0])
            .chain(ranks)
            .collect();
        LruArray {
            config,
            stride: row.len(),
            rows: row.repeat(config.sets),
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

    /// The row of `block`'s set.
    #[inline]
    fn set(&mut self, block: BlockAddr) -> Set<'_> {
        let at = block.set_index(self.config.sets) * self.stride;
        let (tags, rest) = self.rows[at..at + self.stride].split_at_mut(self.config.ways);
        let [valid, dirty, ranks @ ..] = rest else {
            unreachable!("rows hold two mask words")
        };
        Set {
            tags,
            valid,
            dirty,
            ranks,
        }
    }

    /// Whether `block` is resident (does not update recency).
    #[inline]
    pub fn contains(&self, block: BlockAddr) -> bool {
        let at = block.set_index(self.config.sets) * self.stride;
        let ways = self.config.ways;
        find(&self.rows[at..at + ways], self.rows[at + ways], block.raw()).is_some()
    }

    /// Writes a dirty upper-level victim back into this level if `block`
    /// is resident: a write hit (dirty, most recent, counted in
    /// [`hits`](Self::hits)). A non-resident block is not allocated.
    /// Returns whether `block` was resident; the same as
    /// `contains(block)` followed, when true, by `access(block, true)`.
    #[inline]
    pub fn write_back(&mut self, block: BlockAddr) -> bool {
        let mut set = self.set(block);
        let Some(way) = set.find(block.raw()) else {
            return false;
        };
        *set.dirty |= 1 << way;
        set.promote(way);
        self.hits += 1;
        true
    }

    /// Accesses `block`, filling on miss with LRU replacement and write-back
    /// write-allocate semantics.
    #[inline]
    pub fn access(&mut self, block: BlockAddr, is_write: bool) -> LruOutcome {
        let raw = block.raw();
        let mut set = self.set(block);
        if let Some(way) = set.find(raw) {
            if is_write {
                *set.dirty |= 1 << way;
            }
            set.promote(way);
            self.hits += 1;
            return LruOutcome {
                hit: true,
                writeback: None,
            };
        }

        // Fill: lowest empty way first, else LRU. Mask bits past `ways`
        // are never set, so a full set's first clear bit lands on `ways`.
        let free = (!*set.valid).trailing_zeros() as usize;
        let way = if free < set.tags.len() {
            set.promote(free);
            free
        } else {
            set.promote_lru()
        };
        let bit = 1u64 << way;
        let writeback = (*set.valid & *set.dirty & bit != 0).then(|| BlockAddr::new(set.tags[way]));
        set.tags[way] = raw;
        *set.valid |= bit;
        if is_write {
            *set.dirty |= bit;
        } else {
            *set.dirty &= !bit;
        }
        self.misses += 1;
        LruOutcome {
            hit: false,
            writeback,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LruArray {
        LruArray::new(CacheConfig::new(2, 2))
    }

    #[test]
    #[should_panic(expected = "at most 64 ways")]
    fn rejects_more_ways_than_mask_bits() {
        LruArray::new(CacheConfig::new(1, MAX_WAYS + 1));
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
            let kind = if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let fast_hit = fast.access(block, write).hit;
            let slow_hit = slow
                .access(&Access::demand(Pc::new(0), block, kind, 0))
                .is_hit();
            assert_eq!(fast_hit, slow_hit, "divergence at block {block}");
        }
    }
}
