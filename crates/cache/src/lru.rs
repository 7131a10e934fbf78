//! A lean, always-LRU tag array for the fixed upper levels (L1, L2).
//!
//! The LLC needs the full policy machinery of [`crate::Cache`]; the L1 and
//! L2 never change policy, are on the recording hot path, and only need
//! hit/miss plus dirty-victim information, so they get this specialised
//! implementation.
//!
//! # Layout
//!
//! The associativity `W` is a const generic (the paper's L1 and L2 are
//! both 8-way), so every per-set loop has a compile-time length and a
//! lookup or promote is straight-line code. One fixed-size record per
//! set, so an access touches one set's state and nothing else:
//!
//! * `[u64; W]` tags, each the raw block address, with `u64::MAX` in
//!   empty frames. A lookup compares all `W` tags into a bit mask and
//!   ANDs it with the valid mask, so a lookup of that value itself still
//!   finds only a filled frame and every `BlockAddr` stays exact;
//! * `u16` valid and dirty bit masks (at most [`MAX_WAYS`] ways);
//! * the recency list: way indices, 4 bits each, most recent first, in
//!   one `u64`. The list is always a permutation of the set's ways, so a
//!   full set's LRU victim is the last entry. A hit or fill moves its
//!   way to the front in one SWAR step: find the way's nibble, shift the
//!   entries before it back by one, write the way at the front.
//!
//! A fill takes the lowest empty way, else the LRU way. Every way of a
//! full set has been filled since it last emptied, so list order among
//! them is exactly the order of their last touches: the victims, hits
//! and writebacks of a stamp-per-frame LRU, which
//! `tests/lru_differential.rs` checks.

#![expect(
    clippy::indexing_slicing,
    reason = "hot data plane: set indices are masked to the set count and ways are below W"
)]

use crate::config::CacheConfig;
use sdbp_trace::BlockAddr;

/// Tag of an empty frame. Block addresses are byte addresses shifted
/// right by six, so real ones never reach it; a lookup of this exact
/// value still consults the valid mask.
const EMPTY_TAG: u64 = u64::MAX;

pub use crate::config::MAX_WAYS;

/// `0x1` in every nibble of the recency word.
const NIBBLE_ONES: u64 = u64::MAX / 0xf;

/// The high bit of every nibble.
const NIBBLE_HIGHS: u64 = NIBBLE_ONES << 3;

/// A recency list of one set: way indices, 4 bits each, most recent in the
/// low nibble, in one `u64`. Built over `ways` ways it holds a permutation
/// of `0..ways` in nibbles `0..ways`; the nibbles past them are zero and
/// never move.
///
/// This is the one move-to-front implementation: [`LruArray`]'s sets, the
/// LLC's [`Lru`](crate::policy::Lru) and the dead-block wrapper's touch
/// order all keep one.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Recency(u64);

impl Recency {
    /// A list of `ways` ways ranking way `i` at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or above [`MAX_WAYS`].
    pub const fn identity(ways: usize) -> Self {
        assert!(
            ways >= 1 && ways <= MAX_WAYS,
            "a recency list holds 1..=16 ways"
        );
        let mut order = 0;
        let mut way = 0;
        while way < ways {
            order |= (way as u64) << (4 * way);
            way += 1;
        }
        Recency(order)
    }

    /// The way at position `pos` (0 = most recent).
    #[inline]
    pub const fn way_at(self, pos: usize) -> usize {
        (self.0 >> (4 * pos) & 0xf) as usize
    }

    /// The position of `way`, one of the list's ways.
    #[inline]
    pub const fn position(self, way: usize) -> usize {
        // Zero-nibble search: the lowest flagged nibble is always a true
        // zero (a false flag needs a borrow from a zero nibble below),
        // and `way` sits in exactly one of the list's nibbles, below the
        // zero padding.
        let x = self.0 ^ (way as u64 * NIBBLE_ONES);
        let zero = x.wrapping_sub(NIBBLE_ONES) & !x & NIBBLE_HIGHS;
        zero.trailing_zeros() as usize / 4
    }

    /// Moves `way`, one of the list's ways, to the front and returns the
    /// position it held: the entries ahead of it shift back by one.
    #[inline]
    pub fn promote(&mut self, way: usize) -> usize {
        let at = self.position(way);
        // Nibbles `0..=at`: the entries ahead of `way` shift back one,
        // dropping `way` from its old slot.
        let ahead = u64::MAX >> (60 - 4 * at);
        self.0 = (self.0 & !ahead) | ((self.0 << 4) & ahead) | way as u64;
        at
    }

    /// Takes the last of `ways` entries, the least recent, and moves it to
    /// the front.
    #[inline]
    pub fn promote_last(&mut self, ways: usize) -> usize {
        let victim = self.way_at(ways - 1);
        self.0 = (self.0 << 4 | victim as u64) & (u64::MAX >> (64 - 4 * ways));
        victim
    }

    /// Re-indexes a per-way bit mask by list position: bit `p` of the
    /// result is bit [`way_at(p)`](Self::way_at) of `by_way`, for the
    /// first `ways` positions.
    #[inline]
    pub fn by_position(self, by_way: u16, ways: usize) -> u16 {
        let mut out = 0u16;
        for pos in 0..MAX_WAYS {
            out |= (by_way >> self.way_at(pos) & 1) << pos;
        }
        out & (u16::MAX >> (MAX_WAYS - ways))
    }
}

/// One set: tags, masks and recency list.
#[derive(Copy, Clone, Debug)]
struct Set<const W: usize> {
    tags: [u64; W],
    order: Recency,
    valid: u16,
    dirty: u16,
}

impl<const W: usize> Set<W> {
    /// An empty set whose list ranks way `i` at position `i` (any
    /// permutation would do: only full sets consult it).
    const EMPTY: Self = Set {
        tags: [EMPTY_TAG; W],
        order: Recency::identity(W),
        valid: 0,
        dirty: 0,
    };

    /// Bit `w` set when way `w` holds `raw`: at most one bit, since a
    /// block is resident at most once.
    #[inline]
    fn lookup(&self, raw: u64) -> u16 {
        lookup(&self.tags, raw) & self.valid
    }
}

/// Bit `w` set when `tags[w] == raw`, valid or not: a straight-line
/// compare of every way.
#[inline(always)]
pub(crate) fn lookup<const W: usize>(tags: &[u64; W], raw: u64) -> u16 {
    let mut hits = 0u16;
    for (way, &tag) in tags.iter().enumerate() {
        hits |= u16::from(tag == raw) << way;
    }
    hits
}

/// A set-associative LRU cache of `W` ways holding only tags.
#[derive(Clone, Debug)]
pub struct LruArray<const W: usize> {
    config: CacheConfig,
    sets: Vec<Set<W>>,
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

impl<const W: usize> LruArray<W> {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not have exactly `W` ways. `W` above
    /// [`MAX_WAYS`] (or zero) does not compile.
    pub fn new(config: CacheConfig) -> Self {
        const {
            assert!(
                W >= 1 && W <= MAX_WAYS,
                "an upper-level array holds 1..=16 ways"
            );
        }
        assert!(
            config.ways == W,
            "a {W}-way array cannot hold a {}-way geometry",
            config.ways
        );
        LruArray {
            config,
            sets: vec![Set::EMPTY; config.sets],
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

    /// The set `block` maps to.
    #[inline]
    fn set(&mut self, block: BlockAddr) -> &mut Set<W> {
        &mut self.sets[block.set_index(self.config.sets)]
    }

    /// Whether `block` is resident (does not update recency).
    #[inline]
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.sets[block.set_index(self.config.sets)].lookup(block.raw()) != 0
    }

    /// Writes a dirty upper-level victim back into this level if `block`
    /// is resident: a write hit (dirty, most recent, counted in
    /// [`hits`](Self::hits)). A non-resident block is not allocated.
    /// Returns whether `block` was resident; the same as
    /// `contains(block)` followed, when true, by `access(block, true)`.
    #[inline]
    pub fn write_back(&mut self, block: BlockAddr) -> bool {
        let set = self.set(block);
        let hit = set.lookup(block.raw());
        if hit == 0 {
            return false;
        }
        set.dirty |= hit;
        set.order.promote(hit.trailing_zeros() as usize);
        self.hits += 1;
        true
    }

    /// Accesses `block`, filling on miss with LRU replacement and write-back
    /// write-allocate semantics.
    #[inline(always)]
    pub fn access(&mut self, block: BlockAddr, is_write: bool) -> LruOutcome {
        let raw = block.raw();
        let set = self.set(block);
        let hit = set.lookup(raw);
        if hit != 0 {
            set.dirty |= hit & 0u16.wrapping_sub(u16::from(is_write));
            set.order.promote(hit.trailing_zeros() as usize);
            self.hits += 1;
            return LruOutcome {
                hit: true,
                writeback: None,
            };
        }

        // Fill: lowest empty way first, else LRU. Mask bits past `W` are
        // never set, so a full set's first clear bit lands on `W`.
        let free = (!set.valid).trailing_zeros() as usize;
        let way = if free < W {
            set.order.promote(free);
            free
        } else {
            set.order.promote_last(W)
        };
        let bit = 1u16 << way;
        let writeback = (set.valid & set.dirty & bit != 0).then(|| BlockAddr::new(set.tags[way]));
        set.tags[way] = raw;
        set.valid |= bit;
        set.dirty = set.dirty & !bit | u16::from(is_write) << way;
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

    fn tiny() -> LruArray<2> {
        LruArray::new(CacheConfig::new(2, 2))
    }

    #[test]
    #[should_panic(expected = "cannot hold a 4-way geometry")]
    fn rejects_a_geometry_of_another_width() {
        LruArray::<8>::new(CacheConfig::new(1, 4));
    }

    #[test]
    fn recency_list_moves_one_way_to_the_front() {
        let mut order = Set::<16>::EMPTY.order;
        assert_eq!(order.0, 0xfedc_ba98_7654_3210);
        assert_eq!(order.promote(9), 9);
        assert_eq!(order.0, 0xfedc_ba87_6543_2109);
        assert_eq!(order.promote(9), 0);
        assert_eq!(order.0, 0xfedc_ba87_6543_2109);
        assert_eq!(order.promote(15), 15);
        assert_eq!(order.0, 0xedcb_a876_5432_109f);
        assert_eq!(order.promote_last(16), 0xe);
        assert_eq!(order.0, 0xdcba_8765_4321_09fe);
        let mut narrow = Set::<3>::EMPTY.order;
        assert_eq!(narrow.0, 0x210);
        assert_eq!(narrow.promote(2), 2);
        assert_eq!(narrow.0, 0x102);
        assert_eq!(narrow.promote_last(3), 1);
        assert_eq!(narrow.0, 0x021);
        assert_eq!(narrow.way_at(0), 1);
        // Way 0 matches the zero padding too; the list's own nibble
        // comes first.
        assert_eq!(narrow.position(0), 2);
        assert_eq!(narrow.promote(0), 2);
        assert_eq!(narrow.0, 0x210);
    }

    #[test]
    fn by_position_follows_the_list() {
        let mut order = Recency::identity(4);
        order.promote(2); // 2, 0, 1, 3
        assert_eq!(order.by_position(0b0100, 4), 0b0001);
        assert_eq!(order.by_position(0b1001, 4), 0b1010);
        // Way 0 also fills the zero padding past the list; only the
        // list's positions report.
        assert_eq!(order.by_position(0b0001, 4), 0b0010);
        assert_eq!(Recency::identity(16).by_position(0x8001, 16), 0x8001);
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
        let mut fast = LruArray::<4>::new(cfg);
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
