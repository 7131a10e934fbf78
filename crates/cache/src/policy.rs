//! The replacement-policy interface and the built-in true-LRU policy.
//!
//! A [`ReplacementPolicy`] owns all of its own state (recency stamps, RRPVs,
//! dead bits, predictor tables, ...) indexed by `(set, way)`; the
//! [`Cache`](crate::Cache) owns only the tag array. On a miss the policy is
//! always consulted via [`ReplacementPolicy::choose_victim`] and may answer
//! [`Victim::Bypass`], which is how dead-block bypass and optimal bypass are
//! expressed.
//!
//! Call order on a hit: `on_hit`. On a miss: `on_miss`, then
//! `choose_victim`, then either (`on_evict` if the chosen way was valid,
//! then `on_fill`) or `on_bypass`.

#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "hot data plane: policy dispatch over geometry validated at construction"
)]

use crate::meta::MetaPlane;
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
        Access { pc, block, kind, core }
    }
}

/// State of one block frame, exposed to policies during victim selection.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct LineState {
    /// Whether the frame holds a block.
    pub valid: bool,
    /// The resident block (meaningless when `valid` is false).
    pub block: BlockAddr,
    /// Whether the resident block is dirty.
    pub dirty: bool,
}

/// A policy's answer to "which way should the incoming block replace?".
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Victim {
    /// Replace the block in this way (or fill it if invalid).
    Way(usize),
    /// Do not place the incoming block at all.
    Bypass,
}

/// Returns the first invalid way, the conventional first choice of every
/// non-bypassing policy.
pub fn first_invalid(lines: &[LineState]) -> Option<usize> {
    lines.iter().position(|l| !l.valid)
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
    /// `lines` describes the current contents of the set. Policies should
    /// normally prefer an invalid way (see [`first_invalid`]).
    fn choose_victim(&mut self, set: usize, lines: &[LineState], access: &Access) -> Victim;

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
}

/// True least-recently-used replacement.
///
/// The paper's baseline for every single-thread experiment. Implemented
/// with per-line 64-bit recency stamps (a per-set counter), which is exact
/// and O(ways) per victim choice.
///
/// ```
/// use sdbp_cache::policy::{Access, LineState, Lru, ReplacementPolicy, Victim};
/// use sdbp_trace::{AccessKind, BlockAddr, Pc};
///
/// let mut lru = Lru::new(1, 2);
/// let a = Access::demand(Pc::new(0), BlockAddr::new(0), AccessKind::Read, 0);
/// lru.on_fill(0, 0, &a);
/// lru.on_fill(0, 1, &a);
/// lru.on_hit(0, 0, &a); // way 1 is now least recent
/// let lines = [
///     LineState { valid: true, block: BlockAddr::new(1), dirty: false },
///     LineState { valid: true, block: BlockAddr::new(2), dirty: false },
/// ];
/// assert_eq!(lru.choose_victim(0, &lines, &a), Victim::Way(1));
/// ```
#[derive(Clone, Debug)]
pub struct Lru {
    stamps: MetaPlane<u64>,
    clock: u64,
}

impl Lru {
    /// Creates LRU state for a `sets` × `ways` cache.
    pub fn new(sets: usize, ways: usize) -> Self {
        Lru { stamps: MetaPlane::new(sets, ways, 0), clock: 0 }
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.clock += 1;
        self.stamps[(set, way)] = self.clock;
    }

    /// The least recently used valid way of `set` (ignoring invalid ways).
    ///
    /// # Panics
    ///
    /// Panics if `lines` contains no valid way.
    pub fn lru_way(&self, set: usize, lines: &[LineState]) -> usize {
        let stamps = self.stamps.row(set);
        lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.valid)
            .min_by_key(|&(w, _)| stamps[w])
            .map(|(w, _)| w)
            .expect("lru_way called on a set with no valid lines")
    }

    /// Recency rank of each way: 0 = MRU, `ways - 1` = LRU. Used by
    /// policies that need the full LRU stack ordering (e.g. DIP's BIP
    /// insertion, dead-block victim tie-breaking).
    pub fn ranks(&self, set: usize) -> Vec<usize> {
        let stamps = self.stamps.row(set);
        let mut order: Vec<usize> = (0..stamps.len()).collect();
        order.sort_by_key(|&w| std::cmp::Reverse(stamps[w]));
        let mut ranks = vec![0; stamps.len()];
        for (rank, &w) in order.iter().enumerate() {
            ranks[w] = rank;
        }
        ranks
    }

    /// Moves `(set, way)` to the MRU position.
    pub fn promote(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    /// Inserts `(set, way)` at the LRU position (for BIP/LIP-style
    /// insertion): gives it a stamp older than every other line in the set.
    pub fn demote_to_lru(&mut self, set: usize, way: usize) {
        let min = self
            .stamps
            .row(set)
            .iter()
            .enumerate()
            .filter(|&(w, _)| w != way)
            .map(|(_, &s)| s)
            .min()
            .unwrap_or(0);
        self.stamps[(set, way)] = min.saturating_sub(1);
    }
}

impl ReplacementPolicy for Lru {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("LRU")
    }

    fn on_hit(&mut self, set: usize, way: usize, _access: &Access) {
        self.touch(set, way);
    }

    fn choose_victim(&mut self, set: usize, lines: &[LineState], _access: &Access) -> Victim {
        match first_invalid(lines) {
            Some(w) => Victim::Way(w),
            None => Victim::Way(self.lru_way(set, lines)),
        }
    }

    fn on_fill(&mut self, set: usize, way: usize, _access: &Access) {
        self.touch(set, way);
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

    fn valid_lines(n: usize) -> Vec<LineState> {
        (0..n)
            .map(|i| LineState { valid: true, block: BlockAddr::new(i as u64), dirty: false })
            .collect()
    }

    #[test]
    fn first_invalid_finds_hole() {
        let mut lines = valid_lines(4);
        assert_eq!(first_invalid(&lines), None);
        lines[2].valid = false;
        assert_eq!(first_invalid(&lines), Some(2));
    }

    #[test]
    fn lru_prefers_invalid_ways() {
        let mut lru = Lru::new(1, 4);
        let mut lines = valid_lines(4);
        lines[3].valid = false;
        assert_eq!(lru.choose_victim(0, &lines, &acc(9)), Victim::Way(3));
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
        assert_eq!(lru.choose_victim(0, &valid_lines(4), &a), Victim::Way(2));
    }

    #[test]
    fn ranks_order_is_mru_first() {
        let mut lru = Lru::new(1, 4);
        let a = acc(0);
        for w in 0..4 {
            lru.on_fill(0, w, &a);
        }
        lru.on_hit(0, 1, &a); // 1 is MRU; 0 is LRU
        let ranks = lru.ranks(0);
        assert_eq!(ranks[1], 0);
        assert_eq!(ranks[0], 3);
    }

    #[test]
    fn demote_to_lru_makes_way_next_victim() {
        let mut lru = Lru::new(1, 4);
        let a = acc(0);
        for w in 0..4 {
            lru.on_fill(0, w, &a);
        }
        lru.demote_to_lru(0, 3);
        assert_eq!(lru.choose_victim(0, &valid_lines(4), &a), Victim::Way(3));
    }

    #[test]
    fn sets_are_independent() {
        let mut lru = Lru::new(2, 2);
        let a = acc(0);
        lru.on_fill(0, 0, &a);
        lru.on_fill(0, 1, &a);
        lru.on_fill(1, 1, &a);
        lru.on_fill(1, 0, &a);
        assert_eq!(lru.choose_victim(0, &valid_lines(2), &a), Victim::Way(0));
        assert_eq!(lru.choose_victim(1, &valid_lines(2), &a), Victim::Way(1));
    }

    #[test]
    #[should_panic(expected = "no valid lines")]
    fn lru_way_panics_on_empty_set() {
        let lru = Lru::new(1, 2);
        let lines =
            [LineState { valid: false, block: BlockAddr::new(0), dirty: false }; 2];
        let _ = lru.lru_way(0, &lines);
    }
}
